//! FLAT: exact brute-force index.
//!
//! The exact-search baseline (and the fine "quantizer" of IVF_FLAT, which
//! keeps original vector representations, §3.1). Also serves as the
//! ground-truth oracle for recall measurements in the benchmark harness.

use crate::distance;
use crate::error::{IndexError, Result};
use crate::mask::RowMask;
use crate::metric::Metric;
use crate::topk::{Neighbor, TopK};
use crate::traits::{BuildParams, IndexBuilder, SearchParams, VectorIndex};
use crate::vectors::VectorSet;

/// Exact brute-force index over a dense vector set.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    metric: Metric,
    vectors: VectorSet,
    ids: Vec<i64>,
}

impl FlatIndex {
    /// Build over `vectors`, mapping row `i` to `ids[i]`.
    pub fn build(metric: Metric, vectors: VectorSet, ids: Vec<i64>) -> Result<Self> {
        if metric.is_binary() {
            return Err(IndexError::UnsupportedMetric { metric: metric.name(), index: "FLAT" });
        }
        if vectors.len() != ids.len() {
            return Err(IndexError::invalid(
                "ids",
                format!("{} ids for {} vectors", ids.len(), vectors.len()),
            ));
        }
        Ok(Self { metric, vectors, ids })
    }

    /// Borrow the underlying vectors (used by SQ8H and the GPU simulator).
    pub fn vectors(&self) -> &VectorSet {
        &self.vectors
    }

    /// Borrow the id mapping.
    pub fn ids(&self) -> &[i64] {
        &self.ids
    }

    fn check_dim(&self, query: &[f32]) -> Result<()> {
        if query.len() != self.vectors.dim() {
            return Err(IndexError::DimensionMismatch {
                expected: self.vectors.dim(),
                got: query.len(),
            });
        }
        Ok(())
    }
}

impl VectorIndex for FlatIndex {
    fn name(&self) -> &'static str {
        "FLAT"
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<Vec<Neighbor>> {
        self.check_dim(query)?;
        let mut heap = TopK::new(params.k.max(1));
        for (row, v) in self.vectors.iter().enumerate() {
            heap.push(self.ids[row], distance::distance(self.metric, query, v));
        }
        Ok(heap.into_sorted())
    }

    fn search_masked(
        &self,
        query: &[f32],
        params: &SearchParams,
        mask: &RowMask,
    ) -> Result<Vec<Neighbor>> {
        self.check_dim(query)?;
        mask.check_covers(self.len())?;
        let mut heap = TopK::new(params.k.max(1));
        for row in mask.iter() {
            heap.push(self.ids[row], distance::distance(self.metric, query, self.vectors.get(row)));
        }
        Ok(heap.into_sorted())
    }

    fn memory_bytes(&self) -> usize {
        self.vectors.memory_bytes() + self.ids.len() * std::mem::size_of::<i64>()
    }
}

/// Registry builder for [`FlatIndex`].
pub struct FlatBuilder;

impl IndexBuilder for FlatBuilder {
    fn name(&self) -> &'static str {
        "FLAT"
    }

    fn build(
        &self,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>> {
        Ok(Box::new(FlatIndex::build(params.metric, vectors.clone(), ids.to_vec())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlatIndex {
        let vs = VectorSet::from_flat(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 3.0, 3.0]);
        FlatIndex::build(Metric::L2, vs, vec![10, 11, 12, 13]).unwrap()
    }

    #[test]
    fn exact_nearest() {
        let idx = sample();
        let res = idx.search(&[0.9, 0.1], &SearchParams::top_k(2)).unwrap();
        assert_eq!(res[0].id, 11);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn masked_search_equals_the_post_filtered_exhaustive_scan() {
        let idx = sample();
        let all = idx.search(&[0.9, 0.1], &SearchParams::top_k(4)).unwrap();
        for allowed in [vec![], vec![1u32], vec![0, 2, 3], vec![0, 1, 2, 3]] {
            let mask = RowMask::from_positions(4, &allowed);
            let got = idx.search_masked(&[0.9, 0.1], &SearchParams::top_k(4), &mask).unwrap();
            let expect: Vec<Neighbor> =
                all.iter().filter(|n| allowed.contains(&((n.id - 10) as u32))).copied().collect();
            assert_eq!(got, expect, "allowed ordinals {allowed:?}");
        }
        // A mask over some other row count is refused, not misread.
        let short = RowMask::all(3);
        assert!(idx.search_masked(&[0.9, 0.1], &SearchParams::top_k(1), &short).is_err());
    }

    #[test]
    fn inner_product_prefers_large_dot() {
        let vs = VectorSet::from_flat(2, vec![1.0, 0.0, 5.0, 0.0]);
        let idx = FlatIndex::build(Metric::InnerProduct, vs, vec![0, 1]).unwrap();
        let res = idx.search(&[1.0, 0.0], &SearchParams::top_k(1)).unwrap();
        assert_eq!(res[0].id, 1);
        assert_eq!(Metric::InnerProduct.display_score(res[0].dist), 5.0);
    }

    #[test]
    fn dimension_mismatch_error() {
        let idx = sample();
        assert!(matches!(
            idx.search(&[1.0], &SearchParams::top_k(1)),
            Err(IndexError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn id_count_mismatch_error() {
        let vs = VectorSet::from_flat(2, vec![0.0; 4]);
        assert!(FlatIndex::build(Metric::L2, vs, vec![1]).is_err());
    }

    #[test]
    fn binary_metric_rejected() {
        let vs = VectorSet::from_flat(2, vec![0.0; 4]);
        assert!(matches!(
            FlatIndex::build(Metric::Hamming, vs, vec![1, 2]),
            Err(IndexError::UnsupportedMetric { .. })
        ));
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let idx = sample();
        let res = idx.search(&[0.0, 0.0], &SearchParams::top_k(100)).unwrap();
        assert_eq!(res.len(), 4);
    }
}
