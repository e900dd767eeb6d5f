//! The extensible index registry (§2.2).
//!
//! "Developers only need to implement a few pre-defined interfaces for adding
//! a new index" — implement [`crate::traits::IndexBuilder`] and call
//! [`IndexRegistry::register`]. [`IndexRegistry::with_builtins`] pre-loads
//! every index type this crate ships.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::annoy::AnnoyBuilder;
use crate::error::{IndexError, Result};
use crate::flat::FlatBuilder;
use crate::hnsw::HnswBuilder;
use crate::ivf::{IvfBuilder, IvfVariant};
use crate::nsg::NsgBuilder;
use crate::traits::{BuildParams, IndexBuilder, VectorIndex};
use crate::vectors::VectorSet;

/// Thread-safe name → builder registry.
#[derive(Clone, Default)]
pub struct IndexRegistry {
    builders: Arc<RwLock<HashMap<String, Arc<dyn IndexBuilder>>>>,
}

impl IndexRegistry {
    /// An empty registry (for tests of the extension mechanism).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with FLAT, IVF_FLAT, IVF_SQ8, IVF_PQ, HNSW, NSG
    /// and ANNOY.
    pub fn with_builtins() -> Self {
        let reg = Self::default();
        reg.register(Arc::new(FlatBuilder));
        reg.register(Arc::new(IvfBuilder(IvfVariant::Flat)));
        reg.register(Arc::new(IvfBuilder(IvfVariant::Sq8)));
        reg.register(Arc::new(IvfBuilder(IvfVariant::Pq)));
        reg.register(Arc::new(HnswBuilder));
        reg.register(Arc::new(NsgBuilder));
        reg.register(Arc::new(AnnoyBuilder));
        reg
    }

    /// Register (or replace) a builder under its name.
    pub fn register(&self, builder: Arc<dyn IndexBuilder>) {
        self.builders.write().insert(builder.name().to_string(), builder);
    }

    /// Registered index-type names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.builders.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// True if `name` resolves to a builder.
    pub fn contains(&self, name: &str) -> bool {
        self.builders.read().contains_key(name)
    }

    /// Build an index of type `name` over `vectors`/`ids`.
    pub fn build(
        &self,
        name: &str,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>> {
        let builder = self
            .builders
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| IndexError::UnknownIndexType(name.to_string()))?;
        builder.build(vectors, ids, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;
    use crate::topk::Neighbor;
    use crate::traits::SearchParams;

    #[test]
    fn builtins_present() {
        let reg = IndexRegistry::with_builtins();
        for name in ["FLAT", "IVF_FLAT", "IVF_SQ8", "IVF_PQ", "HNSW", "NSG", "ANNOY"] {
            assert!(reg.contains(name), "missing {name}");
        }
    }

    #[test]
    fn unknown_type_errors() {
        let reg = IndexRegistry::empty();
        let vs = VectorSet::from_flat(2, vec![0.0, 0.0]);
        assert!(matches!(
            reg.build("LSH", &vs, &[0], &BuildParams::default()),
            Err(IndexError::UnknownIndexType(_))
        ));
    }

    #[test]
    fn all_builtins_build_and_search() {
        let reg = IndexRegistry::with_builtins();
        let mut vs = VectorSet::new(4);
        for i in 0..64 {
            vs.push(&[i as f32, (i * 2) as f32, 0.0, 1.0]);
        }
        let ids: Vec<i64> = (0..64).collect();
        let params = BuildParams { nlist: 4, pq_m: 2, ..Default::default() };
        for name in reg.names() {
            let idx = reg.build(&name, &vs, &ids, &params).unwrap();
            assert_eq!(idx.len(), 64, "{name}");
            let res = idx.search(vs.get(5), &SearchParams::top_k(3)).unwrap();
            assert!(!res.is_empty(), "{name} returned nothing");
        }
    }

    /// The extension mechanism: a custom index plugs in via the same trait.
    struct ConstIndex;
    struct ConstBuilder;

    impl crate::traits::VectorIndex for ConstIndex {
        fn name(&self) -> &'static str {
            "CONST"
        }
        fn metric(&self) -> Metric {
            Metric::L2
        }
        fn len(&self) -> usize {
            1
        }
        fn search(&self, _q: &[f32], _p: &SearchParams) -> crate::Result<Vec<Neighbor>> {
            Ok(vec![Neighbor::new(42, 0.0)])
        }
        fn search_masked(
            &self,
            q: &[f32],
            p: &SearchParams,
            _mask: &crate::RowMask,
        ) -> crate::Result<Vec<Neighbor>> {
            self.search(q, p)
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    impl IndexBuilder for ConstBuilder {
        fn name(&self) -> &'static str {
            "CONST"
        }
        fn build(
            &self,
            _vectors: &VectorSet,
            _ids: &[i64],
            _params: &BuildParams,
        ) -> crate::Result<Box<dyn crate::traits::VectorIndex>> {
            Ok(Box::new(ConstIndex))
        }
    }

    #[test]
    fn custom_index_plugs_in() {
        let reg = IndexRegistry::with_builtins();
        reg.register(Arc::new(ConstBuilder));
        let vs = VectorSet::from_flat(1, vec![0.0]);
        let idx = reg.build("CONST", &vs, &[0], &BuildParams::default()).unwrap();
        assert_eq!(idx.search(&[0.0], &SearchParams::top_k(1)).unwrap()[0].id, 42);
    }
}
