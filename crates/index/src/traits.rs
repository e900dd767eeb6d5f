//! The extensible index abstraction (§2.2).
//!
//! "Milvus is designed to easily incorporate the new indexes with a
//! high-level abstraction. Developers only need to implement a few
//! pre-defined interfaces for adding a new index." — [`VectorIndex`] is that
//! interface; [`crate::registry`] is the factory that resolves index names to
//! builders.

use crate::error::Result;
use crate::mask::RowMask;
use crate::metric::Metric;
use crate::topk::Neighbor;
use crate::vectors::VectorSet;

/// Index-build configuration. Individual index types read the knobs that
/// apply to them and ignore the rest, so one params struct can drive any
/// registered index.
#[derive(Debug, Clone)]
pub struct BuildParams {
    /// Similarity function.
    pub metric: Metric,
    /// IVF: number of coarse-quantizer buckets (paper default 16384, scaled
    /// down for small collections by [`BuildParams::effective_nlist`]).
    pub nlist: usize,
    /// PQ: number of sub-quantizers (`m`); must divide the dimension.
    pub pq_m: usize,
    /// PQ: bits per sub-quantizer code (8 → 256 centroids per sub-space).
    pub pq_nbits: u32,
    /// HNSW: max links per node at layers > 0 (`M`).
    pub hnsw_m: usize,
    /// HNSW: beam width during construction (`efConstruction`).
    pub hnsw_ef_construction: usize,
    /// NSG: out-degree bound (`R`).
    pub nsg_out_degree: usize,
    /// Annoy: number of random-projection trees.
    pub annoy_n_trees: usize,
    /// K-means: maximum Lloyd iterations for quantizer training.
    pub kmeans_iters: usize,
    /// Seed for all randomized build steps (determinism).
    pub seed: u64,
}

impl Default for BuildParams {
    fn default() -> Self {
        Self {
            metric: Metric::L2,
            nlist: 16384,
            pq_m: 8,
            pq_nbits: 8,
            hnsw_m: 16,
            hnsw_ef_construction: 200,
            nsg_out_degree: 32,
            annoy_n_trees: 8,
            kmeans_iters: 10,
            seed: 0x5EED,
        }
    }
}

impl BuildParams {
    /// Shorthand constructor with a metric.
    pub fn with_metric(metric: Metric) -> Self {
        Self { metric, ..Default::default() }
    }

    /// Bucket count actually used for a collection of `n` vectors: the paper
    /// uses nlist=16384 at billion scale; for small collections we cap at
    /// `sqrt(n)`-ish so buckets stay trainable.
    pub fn effective_nlist(&self, n: usize) -> usize {
        let cap = ((n as f64).sqrt().ceil() as usize).max(1);
        self.nlist.min(cap).max(1)
    }
}

/// Per-query search configuration.
///
/// `Eq`/`Hash` let the query scheduler group coalesced queries by
/// compatible parameters (all fields are plain integers).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SearchParams {
    /// Number of results to return.
    pub k: usize,
    /// IVF: number of closest buckets to scan (`nprobe`, §3.1).
    pub nprobe: usize,
    /// Graph indexes: beam width (`efSearch`).
    pub ef: usize,
    /// Annoy: number of candidate leaves to inspect.
    pub search_nodes: usize,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self { k: 50, nprobe: 8, ef: 64, search_nodes: 1024 }
    }
}

impl SearchParams {
    /// Shorthand constructor: top-`k` with defaults elsewhere.
    pub fn top_k(k: usize) -> Self {
        Self { k, ..Default::default() }
    }

    /// Builder-style nprobe setter.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe;
        self
    }

    /// Builder-style ef setter.
    pub fn with_ef(mut self, ef: usize) -> Self {
        self.ef = ef;
        self
    }
}

/// The pre-defined interface every index implements (§2.2).
///
/// Indexes are built over a [`VectorSet`] whose row `i` is mapped to the
/// caller-provided id `ids[i]`; searches report those external ids.
pub trait VectorIndex: Send + Sync {
    /// Registry name of this index type (e.g. `"IVF_FLAT"`).
    fn name(&self) -> &'static str;

    /// The metric the index was built with.
    fn metric(&self) -> Metric;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Search for the `params.k` nearest neighbors of `query`; results are
    /// sorted ascending by internal distance.
    fn search(&self, query: &[f32], params: &SearchParams) -> Result<Vec<Neighbor>>;

    /// Search restricted to the rows set in `mask` — a bitmap over the index's
    /// build ordinals (row `i` of the `VectorSet` it was built from is
    /// ordinal `i`), so `mask.rows()` must equal [`VectorIndex::len`]. This is
    /// how tombstones (§2.3) and attribute-filtering strategy B (§4.1), where
    /// the bitmap of attribute-passing rows is consulted during the vector
    /// search, reach an index.
    fn search_masked(
        &self,
        query: &[f32],
        params: &SearchParams,
        mask: &RowMask,
    ) -> Result<Vec<Neighbor>>;

    /// Search many queries that share one [`SearchParams`] (and one optional
    /// `mask`), returning one sorted result list per query in input order.
    /// The default is the per-query loop — bit-identical to calling
    /// [`VectorIndex::search`] / [`VectorIndex::search_masked`] in a loop by
    /// construction; index types with batchable scan structure (IVF: shared
    /// bucket sweeps) override this to amortize work across the batch
    /// without changing any result.
    fn search_batch(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
        mask: Option<&RowMask>,
    ) -> Result<Vec<Vec<Neighbor>>> {
        queries
            .iter()
            .map(|q| match mask {
                None => self.search(q, params),
                Some(mask) => self.search_masked(q, params, mask),
            })
            .collect()
    }

    /// Approximate main-memory footprint in bytes (Table/SPTAG memory
    /// comparisons, bufferpool accounting).
    fn memory_bytes(&self) -> usize;

    /// Downcast hook for the segment codec: IVF indexes are serializable
    /// ("both index and data are stored in the same segment", §2.3); other
    /// index types return `None` and are rebuilt after a load.
    fn as_ivf(&self) -> Option<&crate::ivf::IvfIndex> {
        None
    }
}

/// Builder interface registered in the [`crate::registry`].
pub trait IndexBuilder: Send + Sync {
    /// Registry name (e.g. `"HNSW"`).
    fn name(&self) -> &'static str;

    /// Build an index over `vectors`, mapping row `i` to `ids[i]`.
    fn build(
        &self,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_nlist_caps_small_collections() {
        let p = BuildParams::default();
        assert_eq!(p.effective_nlist(100), 10);
        assert_eq!(p.effective_nlist(0), 1);
        // Large n keeps the configured value.
        assert_eq!(p.effective_nlist(1_000_000_000), 16384);
    }

    #[test]
    fn search_params_builders() {
        let p = SearchParams::top_k(10).with_nprobe(4).with_ef(32);
        assert_eq!((p.k, p.nprobe, p.ef), (10, 4, 32));
    }
}
