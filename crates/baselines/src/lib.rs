//! Baseline comparator systems for the §7 evaluation.
//!
//! The paper compares Milvus against Jingdong Vearch, Microsoft SPTAG and
//! three anonymized commercial systems. None of those can run here, so this
//! crate implements **behavioural stand-ins** that embody exactly the design
//! deficiency the paper attributes to each competitor (§1, §7.2):
//!
//! * [`FaissLikeEngine`] — "the original implementation in Facebook Faiss":
//!   the same IVF structures, but thread-per-query scheduling that streams
//!   the entire working set through the caches once *per query* (§3.2.1) —
//!   the ablation baseline for the cache-aware engine;
//! * [`SptagLikeEngine`] — a tree-based index (our Annoy substrate with a
//!   large forest): decent speed, a recall ceiling, and a large memory
//!   footprint (the paper measured 14× Milvus), no dynamic data;
//! * [`VearchLikeEngine`] — a segment-per-shard vector system that never
//!   merges its many small segments and processes queries one at a time;
//!   attribute filtering only via fixed post-filtering;
//! * [`RelationalLikeEngine`] — the "one-size-fits-all" analog of Systems
//!   A/B/C (AnalyticDB-V / PASE style): a vector column bolted onto a row
//!   store — single-threaded, row-at-a-time evaluation, brute-force vector
//!   scan (the paper notes System B effectively ran brute force), attribute
//!   filtering by full-scan post-filter.
//!
//! Each engine reports the competitor's Table 1 row via
//! [`milvus_core::Capabilities`].

use milvus_core::Capabilities;
use milvus_index::batch::BatchOptions;
use milvus_index::ivf::{IvfIndex, IvfVariant};
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{
    annoy::AnnoyIndex, distance, hnsw::HnswIndex, IndexError, Metric, Neighbor, TopK,
    VectorIndex, VectorSet,
};

/// Result alias for baseline constructors.
pub type Result<T> = std::result::Result<T, IndexError>;

/// Which index family a Faiss-like engine wraps (IVF for Fig 8, HNSW for
/// Fig 9).
pub enum FaissIndexKind {
    /// A quantization-based IVF index.
    Ivf(IvfVariant),
    /// An HNSW graph.
    Hnsw,
}

/// The Faiss-style engine: same indexes, thread-per-query batch execution.
pub struct FaissLikeEngine {
    ivf: Option<IvfIndex>,
    hnsw: Option<HnswIndex>,
    /// Worker threads (OpenMP analog).
    pub threads: usize,
}

impl FaissLikeEngine {
    /// Build over static data (libraries assume data is static, §1).
    pub fn build(
        kind: FaissIndexKind,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Self> {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        match kind {
            FaissIndexKind::Ivf(variant) => Ok(Self {
                ivf: Some(IvfIndex::build(variant, vectors, ids, params)?),
                hnsw: None,
                threads,
            }),
            FaissIndexKind::Hnsw => Ok(Self {
                ivf: None,
                hnsw: Some(HnswIndex::build(vectors, ids, params)?),
                threads,
            }),
        }
    }

    fn search_one(&self, query: &[f32], params: &SearchParams) -> Result<Vec<Neighbor>> {
        if let Some(ivf) = &self.ivf {
            ivf.search(query, params)
        } else {
            self.hnsw.as_ref().expect("one index present").search(query, params)
        }
    }

    /// Thread-per-query batch execution: "each thread is assigned to work on
    /// a single query at a time" (§3.2.1). No query blocking, no data reuse
    /// across queries.
    pub fn search_batch(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let m = queries.len();
        if m == 0 {
            return Ok(Vec::new());
        }
        let threads = self.threads.max(1).min(m);
        let chunk = m.div_ceil(threads);
        let mut results: Vec<Result<Vec<Neighbor>>> = Vec::with_capacity(m);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(m);
                    scope.spawn(move || {
                        (lo..hi)
                            .map(|qi| self.search_one(queries.get(qi), params))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                results.extend(h.join().expect("faiss-like worker"));
            }
        });
        results.into_iter().collect()
    }

    /// Table 1 row for Faiss.
    pub fn capabilities() -> Capabilities {
        Capabilities {
            system: "Faiss-like (library)",
            billion_scale: true,
            dynamic_data: false,
            gpu: true,
            attribute_filtering: false,
            multi_vector_query: false,
            distributed: false,
        }
    }
}

/// The Faiss-style flat batch scan Figure 11 compares the cache-aware engine
/// (`milvus_index::batch`) against: each thread takes one whole query at a
/// time and streams the *entire* data set through the CPU caches per query
/// (`m/t` full passes per thread), with one k-heap per query (§3.2.1
/// "Original implementation in Facebook Faiss"). Poor cache reuse; poor
/// parallelism for small `m`.
pub fn faiss_style_search(
    data: &VectorSet,
    ids: &[i64],
    queries: &VectorSet,
    opts: &BatchOptions,
) -> Vec<Vec<Neighbor>> {
    assert_eq!(data.len(), ids.len(), "ids must match data rows");
    assert_eq!(data.dim(), queries.dim(), "query dimension mismatch");
    let m = queries.len();
    if m == 0 || data.is_empty() {
        return vec![Vec::new(); m];
    }
    let per_thread = m.div_ceil(opts.threads.max(1).min(m));
    let kern = distance::pair_kernel(opts.metric);
    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); m];

    // Static assignment of contiguous query chunks to threads, as OpenMP's
    // default scheduling would do.
    std::thread::scope(|scope| {
        for (chunk_idx, out) in results.chunks_mut(per_thread).enumerate() {
            let start = chunk_idx * per_thread;
            scope.spawn(move || {
                for (off, slot) in out.iter_mut().enumerate() {
                    let q = queries.get(start + off);
                    let mut heap = TopK::new(opts.k.max(1));
                    for (&id, v) in ids.iter().zip(data.iter()) {
                        heap.push(id, kern(q, v));
                    }
                    *slot = heap.into_sorted();
                }
            });
        }
    });
    results
}

/// The SPTAG-style tree engine.
pub struct SptagLikeEngine {
    forest: AnnoyIndex,
    /// Extra per-tree copies of the raw vectors (SPTAG's measured footprint
    /// was 14× Milvus's; tree indexes replicate structure per tree).
    replicated_bytes: usize,
}

impl SptagLikeEngine {
    /// Build a large forest over static data.
    pub fn build(vectors: &VectorSet, ids: &[i64], params: &BuildParams) -> Result<Self> {
        let mut p = params.clone();
        p.annoy_n_trees = p.annoy_n_trees.max(32);
        let forest = AnnoyIndex::build(vectors, ids, &p)?;
        let replicated_bytes = vectors.memory_bytes() * p.annoy_n_trees;
        Ok(Self { forest, replicated_bytes })
    }

    /// Single query.
    pub fn search(&self, query: &[f32], params: &SearchParams) -> Result<Vec<Neighbor>> {
        self.forest.search(query, params)
    }

    /// Thread-per-query batch.
    pub fn search_batch(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
    ) -> Result<Vec<Vec<Neighbor>>> {
        (0..queries.len()).map(|i| self.search(queries.get(i), params)).collect()
    }

    /// Reported memory footprint including tree replication.
    pub fn memory_bytes(&self) -> usize {
        self.forest.memory_bytes() + self.replicated_bytes
    }

    /// Table 1 row for SPTAG.
    pub fn capabilities() -> Capabilities {
        Capabilities {
            system: "SPTAG-like (tree library)",
            billion_scale: true,
            dynamic_data: false,
            gpu: false,
            attribute_filtering: false,
            multi_vector_query: false,
            distributed: false,
        }
    }
}

/// The Vearch-style engine: many small never-merged segments, one query at a
/// time, post-filter-only attribute support.
pub struct VearchLikeEngine {
    metric: Metric,
    segments: Vec<IvfIndex>,
    /// Per-segment id lists (for the attribute post-filter).
    values: Vec<f64>,
    ids: Vec<i64>,
}

impl VearchLikeEngine {
    /// Build with `segment_rows`-sized segments that are never merged (the
    /// "not efficient on large-scale data" deficiency: per-query cost grows
    /// with segment count).
    pub fn build(
        vectors: &VectorSet,
        ids: &[i64],
        values: &[f64],
        segment_rows: usize,
        params: &BuildParams,
    ) -> Result<Self> {
        let segment_rows = segment_rows.max(1);
        let mut segments = Vec::new();
        let mut start = 0;
        while start < ids.len() {
            let end = (start + segment_rows).min(ids.len());
            let rows: Vec<usize> = (start..end).collect();
            let seg_vec = vectors.gather(&rows);
            let seg_ids = &ids[start..end];
            segments.push(IvfIndex::build(IvfVariant::Flat, &seg_vec, seg_ids, params)?);
            start = end;
        }
        Ok(Self { metric: params.metric, segments, values: values.to_vec(), ids: ids.to_vec() })
    }

    /// One query over every small segment, merged.
    pub fn search(&self, query: &[f32], params: &SearchParams) -> Result<Vec<Neighbor>> {
        let mut lists = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            lists.push(seg.search(query, params)?);
        }
        Ok(milvus_index::topk::merge_sorted(&lists, params.k))
    }

    /// Sequential batch (no intra-query parallelism).
    pub fn search_batch(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
    ) -> Result<Vec<Vec<Neighbor>>> {
        (0..queries.len()).map(|i| self.search(queries.get(i), params)).collect()
    }

    /// Attribute filtering by fixed over-fetch post-filter only (no cost
    /// model, no partitioning).
    pub fn filtered_search(
        &self,
        query: &[f32],
        lo: f64,
        hi: f64,
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>> {
        let mut sp = params.clone();
        let n = self.ids.len();
        loop {
            sp.k = (sp.k * 4).min(n.max(1));
            let cands = self.search(query, &sp)?;
            let kept: Vec<Neighbor> = cands
                .into_iter()
                .filter(|c| {
                    self.ids
                        .binary_search(&c.id)
                        .ok()
                        .is_some_and(|row| self.values[row] >= lo && self.values[row] <= hi)
                })
                .take(params.k)
                .collect();
            if kept.len() >= params.k || sp.k >= n {
                return Ok(kept);
            }
        }
    }

    /// Table 1 row for Vearch.
    pub fn capabilities() -> Capabilities {
        Capabilities {
            system: "Vearch-like",
            billion_scale: false,
            dynamic_data: true,
            gpu: true,
            attribute_filtering: true,
            multi_vector_query: false,
            distributed: true,
        }
    }

    /// Metric in use.
    pub fn metric(&self) -> Metric {
        self.metric
    }
}

/// The relational analog (Systems A/B/C): single-threaded row-at-a-time
/// brute force with a vector column.
pub struct RelationalLikeEngine {
    metric: Metric,
    /// Row store: each row is an individually boxed (id, vector, attr) tuple
    /// — the row-at-a-time layout a generic table gives you, as opposed to
    /// the columnar layout of §2.4. The boxing is deliberate: it models the
    /// pointer chase a tuple fetch costs.
    #[allow(clippy::vec_box)]
    rows: Vec<Box<(i64, Vec<f32>, f64)>>,
}

impl RelationalLikeEngine {
    /// Load the "table".
    pub fn build(metric: Metric, vectors: &VectorSet, ids: &[i64], values: &[f64]) -> Self {
        let rows = ids
            .iter()
            .zip(vectors.iter())
            .zip(values)
            .map(|((&id, v), &a)| Box::new((id, v.to_vec(), a)))
            .collect();
        Self { metric, rows }
    }

    /// Row-at-a-time distance with unvectorized kernels — generic expression
    /// evaluation in a row store, without the "fine-tuned optimizations for
    /// vectors" the paper says legacy engines miss (§1).
    fn row_distance(&self, query: &[f32], v: &[f32]) -> f32 {
        use milvus_index::simd::SimdLevel;
        match self.metric {
            Metric::L2 => distance::l2_sq_with_level(query, v, SimdLevel::Scalar),
            Metric::InnerProduct => -distance::ip_with_level(query, v, SimdLevel::Scalar),
            m => distance::distance(m, query, v),
        }
    }

    /// Single-threaded brute-force top-k (System B "used brute-force
    /// search", §7.2 footnote 11).
    pub fn search(&self, query: &[f32], params: &SearchParams) -> Vec<Neighbor> {
        let mut heap = TopK::new(params.k.max(1));
        for row in &self.rows {
            heap.push(row.0, self.row_distance(query, &row.1));
        }
        heap.into_sorted()
    }

    /// Sequential batch.
    pub fn search_batch(&self, queries: &VectorSet, params: &SearchParams) -> Vec<Vec<Neighbor>> {
        (0..queries.len()).map(|i| self.search(queries.get(i), params)).collect()
    }

    /// Attribute filtering: full scan evaluating the predicate row by row.
    pub fn filtered_search(
        &self,
        query: &[f32],
        lo: f64,
        hi: f64,
        params: &SearchParams,
    ) -> Vec<Neighbor> {
        let mut heap = TopK::new(params.k.max(1));
        for row in &self.rows {
            if row.2 >= lo && row.2 <= hi {
                heap.push(row.0, self.row_distance(query, &row.1));
            }
        }
        heap.into_sorted()
    }

    /// Table 1 row for the relational systems (AnalyticDB-V flavor).
    pub fn capabilities() -> Capabilities {
        Capabilities {
            system: "Relational-like (A/B/C)",
            billion_scale: true,
            dynamic_data: true,
            gpu: false,
            attribute_filtering: true,
            multi_vector_query: false,
            distributed: true,
        }
    }
}

/// "System C" analog: a relational engine that *did* add an IVF vector index
/// (PASE/AnalyticDB-V style) but evaluates distances row-at-a-time with
/// generic unvectorized kernels and processes queries one at a time.
pub struct ScalarIvfEngine {
    metric: Metric,
    ivf: IvfIndex,
    /// Row-store tuple heap: vectors live behind per-row pointers rather
    /// than in the contiguous columnar layout of §2.4, so every candidate
    /// costs a hash probe + pointer chase, as in a generic table engine.
    row_heap: std::collections::HashMap<i64, Box<[f32]>>,
}

impl ScalarIvfEngine {
    /// Build the IVF structure (reusing the coarse quantizer substrate).
    pub fn build(vectors: &VectorSet, ids: &[i64], params: &BuildParams) -> Result<Self> {
        if params.metric.is_binary() || params.metric == Metric::Cosine {
            return Err(IndexError::UnsupportedMetric {
                metric: params.metric.name(),
                index: "ScalarIvf",
            });
        }
        let row_heap = ids
            .iter()
            .zip(vectors.iter())
            .map(|(&id, v)| (id, v.to_vec().into_boxed_slice()))
            .collect();
        Ok(Self {
            metric: params.metric,
            ivf: IvfIndex::build(IvfVariant::Flat, vectors, ids, params)?,
            row_heap,
        })
    }

    /// Single query: IVF probing, then row-at-a-time tuple fetch + scalar
    /// distance per candidate.
    pub fn search(&self, query: &[f32], params: &SearchParams) -> Vec<Neighbor> {
        use milvus_index::simd::SimdLevel;
        let probes = self.ivf.probe_buckets(query, params.nprobe);
        let mut heap = TopK::new(params.k.max(1));
        for b in probes {
            for &id in self.ivf.bucket_ids(b) {
                let v = &self.row_heap[&id];
                let d = match self.metric {
                    Metric::L2 => distance::l2_sq_with_level(query, v, SimdLevel::Scalar),
                    Metric::InnerProduct => {
                        -distance::ip_with_level(query, v, SimdLevel::Scalar)
                    }
                    m => distance::distance(m, query, v),
                };
                heap.push(id, d);
            }
        }
        heap.into_sorted()
    }

    /// Sequential batch.
    pub fn search_batch(&self, queries: &VectorSet, params: &SearchParams) -> Vec<Vec<Neighbor>> {
        (0..queries.len()).map(|i| self.search(queries.get(i), params)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(n: usize) -> (VectorSet, Vec<i64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut vs = VectorSet::new(8);
        for i in 0..n {
            let c = (i % 8) as f32;
            let v: Vec<f32> = (0..8).map(|_| c + rng.gen_range(-0.2f32..0.2)).collect();
            vs.push(&v);
        }
        let ids: Vec<i64> = (0..n as i64).collect();
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        (vs, ids, vals)
    }

    fn params() -> BuildParams {
        BuildParams { nlist: 16, kmeans_iters: 5, ..Default::default() }
    }

    #[test]
    fn faiss_style_scan_matches_serial_flat_scan() {
        let (vs, ids, _) = data(300);
        let queries = vs.gather(&(0..23).collect::<Vec<_>>());
        for metric in [Metric::L2, Metric::InnerProduct] {
            let opts = BatchOptions { k: 7, metric, threads: 4, l3_cache_bytes: 4096 };
            let got = faiss_style_search(&vs, &ids, &queries, &opts);
            assert_eq!(got.len(), 23);
            for (q, res) in queries.iter().zip(&got) {
                let mut heap = TopK::new(7);
                for (&id, v) in ids.iter().zip(vs.iter()) {
                    heap.push(id, distance::distance(metric, q, v));
                }
                assert_eq!(*res, heap.into_sorted(), "faiss-style scan diverged under {metric}");
            }
        }
    }

    #[test]
    fn faiss_style_more_threads_than_queries() {
        let (vs, ids, _) = data(20);
        let queries = vs.gather(&[3, 4]);
        let opts = BatchOptions { k: 4, threads: 8, ..Default::default() };
        let res = faiss_style_search(&vs, &ids, &queries, &opts);
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn faiss_like_ivf_batch_matches_single() {
        let (vs, ids, _) = data(300);
        let engine =
            FaissLikeEngine::build(FaissIndexKind::Ivf(IvfVariant::Flat), &vs, &ids, &params())
                .unwrap();
        let queries = vs.gather(&[0, 10, 20]);
        let sp = SearchParams { k: 5, nprobe: 16, ..Default::default() };
        let batch = engine.search_batch(&queries, &sp).unwrap();
        assert_eq!(batch.len(), 3);
        for (qi, res) in batch.iter().enumerate() {
            let single = engine.search_one(queries.get(qi), &sp).unwrap();
            assert_eq!(res, &single);
        }
    }

    #[test]
    fn faiss_like_hnsw_works() {
        let (vs, ids, _) = data(300);
        let engine = FaissLikeEngine::build(FaissIndexKind::Hnsw, &vs, &ids, &params()).unwrap();
        let sp = SearchParams { k: 3, ef: 64, ..Default::default() };
        let res = engine.search_batch(&vs.gather(&[5]), &sp).unwrap();
        assert_eq!(res[0][0].id, 5);
    }

    #[test]
    fn sptag_like_memory_larger_than_data() {
        let (vs, ids, _) = data(200);
        let engine = SptagLikeEngine::build(&vs, &ids, &params()).unwrap();
        assert!(engine.memory_bytes() > vs.memory_bytes() * 10);
        let sp = SearchParams { k: 3, search_nodes: 500, ..Default::default() };
        let res = engine.search(vs.get(9), &sp).unwrap();
        assert_eq!(res[0].id, 9);
    }

    #[test]
    fn vearch_like_segments_and_filter() {
        let (vs, ids, vals) = data(240);
        let engine = VearchLikeEngine::build(&vs, &ids, &vals, 50, &params()).unwrap();
        assert_eq!(engine.segments.len(), 5);
        let sp = SearchParams { k: 5, nprobe: 16, ..Default::default() };
        let res = engine.search(vs.get(100), &sp).unwrap();
        assert_eq!(res[0].id, 100);
        // Filter keeps only ids with value in [50, 99].
        let filtered = engine.filtered_search(vs.get(60), 50.0, 99.0, &sp).unwrap();
        assert!(!filtered.is_empty());
        assert!(filtered.iter().all(|n| (50..=99).contains(&n.id)));
    }

    #[test]
    fn relational_like_exact_but_slow_shape() {
        let (vs, ids, vals) = data(150);
        let engine = RelationalLikeEngine::build(Metric::L2, &vs, &ids, &vals);
        let res = engine.search(vs.get(42), &SearchParams::top_k(1));
        assert_eq!(res[0].id, 42);
        let filtered = engine.filtered_search(vs.get(42), 100.0, 149.0, &SearchParams::top_k(3));
        assert!(filtered.iter().all(|n| n.id >= 100));
    }

    #[test]
    fn scalar_ivf_matches_ivf_results() {
        let (vs, ids, _) = data(300);
        let sys_c = ScalarIvfEngine::build(&vs, &ids, &params()).unwrap();
        let sp = SearchParams { k: 5, nprobe: 16, ..Default::default() };
        let res = sys_c.search(vs.get(33), &sp);
        assert_eq!(res[0].id, 33);
    }

    #[test]
    fn capability_rows_match_table1() {
        // Faiss: no dynamic data, no filtering, no distribution (Table 1).
        let f = FaissLikeEngine::capabilities();
        assert!(f.billion_scale && f.gpu && !f.dynamic_data && !f.attribute_filtering);
        // SPTAG: billion-scale only.
        let s = SptagLikeEngine::capabilities();
        assert!(s.billion_scale && !s.gpu && !s.distributed);
        // Vearch: dynamic + GPU + filtering + distributed, not billion-scale.
        let v = VearchLikeEngine::capabilities();
        assert!(v.dynamic_data && v.gpu && v.attribute_filtering && !v.billion_scale);
        // Relational: no GPU, no multi-vector.
        let r = RelationalLikeEngine::capabilities();
        assert!(r.dynamic_data && !r.gpu && !r.multi_vector_query);
        // Milvus: everything.
        let m = Capabilities::milvus();
        assert!(m.multi_vector_query);
    }
}
