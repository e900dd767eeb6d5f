//! Quantization-based indexes: IVF_FLAT, IVF_SQ8, IVF_PQ (§2.2, §3.1).
//!
//! All three share the same structure: a **coarse quantizer** (k-means over
//! the whole collection, §3.1) partitions vectors into `nlist` buckets; a
//! **fine quantizer** encodes the vectors inside each bucket:
//!
//! * `IVF_FLAT` keeps the original `f32` representation;
//! * `IVF_SQ8` scalar-quantizes each 4-byte float to a 1-byte integer
//!   (¼ the space, ~1% recall loss per the paper's footnote 6);
//! * `IVF_PQ` product-quantizes: the vector is split into `m` sub-vectors and
//!   each sub-space gets its own k-means codebook.
//!
//! Query processing is the paper's two steps: (1) find the `nprobe` closest
//! buckets by centroid distance; (2) scan each relevant bucket with the fine
//! quantizer. Cosine is supported by L2-normalizing stored vectors at build
//! time and the query at search time, then running inner product.

pub mod codec;
pub mod pq;
pub mod sq8;

use crate::distance;
use crate::error::{IndexError, Result};
use crate::kmeans::{self, KMeans};
use crate::mask::{in_tiles, RowMask};
use crate::metric::Metric;
use crate::topk::{Neighbor, TopK};
use crate::traits::{BuildParams, IndexBuilder, SearchParams, VectorIndex};
use crate::vectors::VectorSet;

use pq::ProductQuantizer;
use sq8::ScalarQuantizer;

/// Which fine quantizer an IVF index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvfVariant {
    /// Original vectors (IVF_FLAT).
    Flat,
    /// 1-byte scalar quantization (IVF_SQ8).
    Sq8,
    /// Product quantization (IVF_PQ).
    Pq,
}

serde::impl_serde_unit_enum!(IvfVariant { Flat, Sq8, Pq });

impl IvfVariant {
    /// Registry name.
    pub fn name(self) -> &'static str {
        match self {
            IvfVariant::Flat => "IVF_FLAT",
            IvfVariant::Sq8 => "IVF_SQ8",
            IvfVariant::Pq => "IVF_PQ",
        }
    }
}

/// Encoded contents of one bucket.
#[derive(Debug, Clone)]
pub(crate) enum BucketData {
    Flat(VectorSet),
    /// Per-vector u8 codes, `dim` bytes each.
    Sq8(Vec<u8>),
    /// Per-vector PQ codes, `m` bytes each.
    Pq(Vec<u8>),
}

/// One inverted list: external ids, build ordinals and encoded vectors.
#[derive(Debug, Clone)]
pub(crate) struct Bucket {
    pub(crate) ids: Vec<i64>,
    /// Each member's build ordinal — the position a [`RowMask`] knows it by.
    /// Ascending, so a masked scan reads the mask front to back.
    pub(crate) rows: Vec<u32>,
    pub(crate) data: BucketData,
}

impl Bucket {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn bytes(&self) -> usize {
        let payload = match &self.data {
            BucketData::Flat(v) => v.memory_bytes(),
            BucketData::Sq8(c) | BucketData::Pq(c) => c.len(),
        };
        payload + self.ids.len() * (std::mem::size_of::<i64>() + std::mem::size_of::<u32>())
    }
}

/// An IVF index with one of the three fine quantizers.
pub struct IvfIndex {
    variant: IvfVariant,
    metric: Metric,
    /// Metric actually used internally after cosine normalization.
    inner_metric: Metric,
    dim: usize,
    coarse: KMeans,
    buckets: Vec<Bucket>,
    sq: Option<ScalarQuantizer>,
    pq: Option<ProductQuantizer>,
    len: usize,
}

impl IvfIndex {
    /// Train + build in one step (training data = the indexed data, as in
    /// Faiss's common usage and the paper's experiments).
    pub fn build(
        variant: IvfVariant,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Self> {
        if params.metric.is_binary() {
            return Err(IndexError::UnsupportedMetric {
                metric: params.metric.name(),
                index: variant.name(),
            });
        }
        if vectors.len() != ids.len() {
            return Err(IndexError::invalid(
                "ids",
                format!("{} ids for {} vectors", ids.len(), vectors.len()),
            ));
        }
        if vectors.is_empty() {
            return Err(IndexError::InsufficientTrainingData { need: 1, got: 0 });
        }
        if u32::try_from(vectors.len()).is_err() {
            return Err(IndexError::invalid("vectors", "more rows than a u32 ordinal can name"));
        }
        let dim = vectors.dim();

        // Cosine reduces to inner product over normalized vectors.
        let (inner_metric, prepared);
        let data: &VectorSet = if params.metric == Metric::Cosine {
            let mut vs = vectors.clone();
            for i in 0..vs.len() {
                distance::normalize(vs.get_mut(i));
            }
            inner_metric = Metric::InnerProduct;
            prepared = vs;
            &prepared
        } else {
            inner_metric = params.metric;
            prepared = VectorSet::new(dim);
            let _ = &prepared;
            vectors
        };

        let nlist = params.effective_nlist(data.len());
        let coarse = kmeans::train(data, nlist, params.kmeans_iters, params.seed)?;

        // Assign rows to buckets.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); nlist];
        for i in 0..data.len() {
            members[coarse.assign(data.get(i))].push(i);
        }

        // Train fine quantizers on the full data.
        let mut sq = None;
        let mut pq = None;
        match variant {
            IvfVariant::Flat => {}
            IvfVariant::Sq8 => sq = Some(ScalarQuantizer::train(data)),
            IvfVariant::Pq => {
                pq = Some(ProductQuantizer::train(
                    data,
                    params.pq_m,
                    params.pq_nbits,
                    params.kmeans_iters,
                    params.seed ^ 0x9A5E,
                )?)
            }
        }

        let buckets = members
            .into_iter()
            .map(|rows| {
                let bucket_ids: Vec<i64> = rows.iter().map(|&r| ids[r]).collect();
                let data = match variant {
                    IvfVariant::Flat => BucketData::Flat(data.gather(&rows)),
                    IvfVariant::Sq8 => {
                        let q = sq.as_ref().expect("sq trained");
                        let mut codes = Vec::with_capacity(rows.len() * dim);
                        for &r in &rows {
                            q.encode_into(data.get(r), &mut codes);
                        }
                        BucketData::Sq8(codes)
                    }
                    IvfVariant::Pq => {
                        let q = pq.as_ref().expect("pq trained");
                        let mut codes = Vec::with_capacity(rows.len() * q.m());
                        for &r in &rows {
                            q.encode_into(data.get(r), &mut codes);
                        }
                        BucketData::Pq(codes)
                    }
                };
                Bucket { ids: bucket_ids, rows: rows.iter().map(|&r| r as u32).collect(), data }
            })
            .collect();

        Ok(Self {
            variant,
            metric: params.metric,
            inner_metric,
            dim,
            coarse,
            buckets,
            sq,
            pq,
            len: data.len(),
        })
    }

    /// The coarse-quantizer centroids (resident in GPU memory under SQ8H).
    pub fn centroids(&self) -> &VectorSet {
        &self.coarse.centroids
    }

    /// The fine-quantizer variant.
    pub fn variant(&self) -> IvfVariant {
        self.variant
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Indexed row count (inherent twin of the trait method, for callers
    /// without the trait in scope).
    pub fn len_rows(&self) -> usize {
        self.len
    }

    /// The user-facing metric's stable name (codec).
    pub fn metric_name(&self) -> &'static str {
        self.metric.name()
    }

    /// Rough serialized size (codec pre-allocation).
    pub fn memory_bytes_estimate(&self) -> usize {
        self.buckets.iter().map(Bucket::bytes).sum::<usize>()
            + self.coarse.centroids.memory_bytes()
    }

    /// Scalar-quantizer parameters `(vmin, vstep)` for the SQ8 variant.
    pub fn sq_params(&self) -> Option<(&[f32], &[f32])> {
        self.sq.as_ref().map(|q| (q.vmin(), q.vstep()))
    }

    /// The product quantizer for the PQ variant.
    pub fn pq_ref(&self) -> Option<&ProductQuantizer> {
        self.pq.as_ref()
    }

    /// Raw encoded codes of bucket `b` (SQ8/PQ variants).
    pub fn bucket_codes(&self, b: usize) -> Option<&[u8]> {
        match &self.buckets[b].data {
            BucketData::Sq8(c) | BucketData::Pq(c) => Some(c),
            BucketData::Flat(_) => None,
        }
    }

    /// Reassemble an index from codec parts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        variant: IvfVariant,
        metric: Metric,
        dim: usize,
        len: usize,
        centroids: VectorSet,
        buckets: Vec<Bucket>,
        sq: Option<ScalarQuantizer>,
        pq: Option<ProductQuantizer>,
    ) -> Result<Self> {
        if centroids.dim() != dim {
            return Err(IndexError::invalid("centroids", "dimension mismatch"));
        }
        let inner_metric =
            if metric == Metric::Cosine { Metric::InnerProduct } else { metric };
        Ok(Self {
            variant,
            metric,
            inner_metric,
            dim,
            coarse: KMeans { centroids, inertia: 0.0, iterations: 0 },
            buckets,
            sq,
            pq,
            len,
        })
    }

    /// Number of buckets (`nlist` after the small-collection cap).
    pub fn nlist(&self) -> usize {
        self.buckets.len()
    }

    /// Step 1 of query processing: indices of the `nprobe` closest buckets.
    pub fn probe_buckets(&self, query: &[f32], nprobe: usize) -> Vec<usize> {
        self.coarse.assign_multi(query, nprobe)
    }

    /// Number of vectors in bucket `b`.
    pub fn bucket_len(&self, b: usize) -> usize {
        self.buckets[b].len()
    }

    /// Encoded byte size of bucket `b` (drives the GPU PCIe transfer model).
    pub fn bucket_bytes(&self, b: usize) -> usize {
        self.buckets[b].bytes()
    }

    /// External ids of bucket `b`'s members.
    pub fn bucket_ids(&self, b: usize) -> &[i64] {
        &self.buckets[b].ids
    }

    /// Build ordinals of bucket `b`'s members, ascending.
    pub fn bucket_rows(&self, b: usize) -> &[u32] {
        &self.buckets[b].rows
    }

    /// Raw vectors of bucket `b` when the fine quantizer is FLAT (baseline
    /// engines scan buckets with their own kernels; `None` for SQ8/PQ).
    pub fn bucket_vectors(&self, b: usize) -> Option<&VectorSet> {
        match &self.buckets[b].data {
            BucketData::Flat(vs) => Some(vs),
            _ => None,
        }
    }

    /// Prepare a query for the internal metric (normalizes for cosine).
    fn prepare_query(&self, query: &[f32]) -> Vec<f32> {
        let mut q = query.to_vec();
        if self.metric == Metric::Cosine {
            distance::normalize(&mut q);
        }
        q
    }

    /// Fold a raw query into everything the bucket scans need — cosine
    /// normalization, the hoisted float kernels (FLAT), the fused SQ8 state
    /// (`w_d = q_d·step_d` + bias for IP, `r_d = q_d − vmin_d` for L2), or
    /// the stride-256 PQ ADC table. Built **once per query**; every probed
    /// bucket then scans raw rows with zero per-bucket allocation.
    pub fn prepare<'a>(&'a self, query: &[f32]) -> PreparedQuery<'a> {
        self.prepare_from_inner(self.prepare_query(query))
    }

    /// [`IvfIndex::prepare`] for a query already in the internal metric
    /// convention (no re-normalization — cosine normalizing twice would
    /// perturb bits).
    fn prepare_from_inner<'a>(&'a self, q: Vec<f32>) -> PreparedQuery<'a> {
        let state = match self.variant {
            IvfVariant::Flat => PreparedState::Flat {
                pair: distance::pair_kernel(self.inner_metric),
                tile4: distance::tile4_kernel(self.inner_metric),
            },
            IvfVariant::Sq8 => PreparedState::Sq8(
                self.sq.as_ref().expect("sq present").prepare(&q, self.inner_metric),
            ),
            IvfVariant::Pq => PreparedState::Pq(
                self.pq.as_ref().expect("pq present").distance_table(&q, self.inner_metric),
            ),
        };
        PreparedQuery { query: q, state }
    }

    /// Step 2 of query processing: scan one bucket into `heap`.
    ///
    /// `query` must already be prepared via the internal metric convention.
    /// This is the prepare-per-call convenience form; multi-bucket searches
    /// use [`IvfIndex::prepare`] + [`IvfIndex::scan_bucket_prepared`] so
    /// per-query state is built once, not once per bucket.
    pub fn scan_bucket(&self, b: usize, query: &[f32], heap: &mut TopK, mask: Option<&RowMask>) {
        let prepared = self.prepare_from_inner(query.to_vec());
        self.scan_bucket_prepared(b, &prepared, heap, mask);
    }

    /// Scan one bucket with per-query state prepared up front: every member
    /// when `mask` is `None`, else the members whose build ordinal is set in
    /// it. Either way the rows to score are handed to one loop that runs
    /// them as register-tiled ×4 groups with **zero per-row indirect calls**
    /// — a masked scan gathers four visible members into a tile, so a mask
    /// costs one bit test per member and nothing per distance. PQ scans
    /// additionally early-abandon against [`TopK::threshold`] every 8
    /// subquantizers (exactness preserved — see
    /// [`pq::DistanceTable::lookup_pruned`]).
    pub fn scan_bucket_prepared(
        &self,
        b: usize,
        prepared: &PreparedQuery<'_>,
        heap: &mut TopK,
        mask: Option<&RowMask>,
    ) {
        let bucket = &self.buckets[b];
        match mask {
            None => self.scan_members(bucket, prepared, heap, 0..bucket.len()),
            Some(mask) => {
                let ordinals = bucket.rows.iter().enumerate();
                let visible = ordinals.filter(|(_, &row)| mask.get(row as usize)).map(|(i, _)| i);
                self.scan_members(bucket, prepared, heap, visible)
            }
        }
    }

    /// Score `members` (positions inside `bucket`) into `heap`.
    fn scan_members(
        &self,
        bucket: &Bucket,
        prepared: &PreparedQuery<'_>,
        heap: &mut TopK,
        members: impl Iterator<Item = usize>,
    ) {
        let ids = &bucket.ids[..];
        match (&bucket.data, &prepared.state) {
            (BucketData::Flat(vs), PreparedState::Flat { pair, tile4 }) => {
                let q = prepared.query.as_slice();
                in_tiles(members, |g| match (g, tile4) {
                    // L2/IP are bitwise symmetric in their arguments, so the
                    // 4 data rows ride in the kernel's query slot (same trick
                    // as the batch engine).
                    (&[a, b, c, d], Some(tile)) => {
                        let dist = tile([vs.get(a), vs.get(b), vs.get(c), vs.get(d)], q);
                        for (&i, dist) in g.iter().zip(dist) {
                            heap.push(ids[i], dist);
                        }
                    }
                    _ => {
                        for &i in g {
                            heap.push(ids[i], pair(q, vs.get(i)));
                        }
                    }
                });
            }
            (BucketData::Sq8(codes), PreparedState::Sq8(p)) => {
                let dim = self.dim;
                let code = |i: usize| &codes[i * dim..(i + 1) * dim];
                in_tiles(members, |g| match *g {
                    [a, b, c, d] => {
                        let dist = p.distance_x4([code(a), code(b), code(c), code(d)]);
                        for (&i, dist) in g.iter().zip(dist) {
                            heap.push(ids[i], dist);
                        }
                    }
                    _ => {
                        for &i in g {
                            heap.push(ids[i], p.distance(code(i)));
                        }
                    }
                });
            }
            (BucketData::Pq(codes), PreparedState::Pq(table)) => {
                let m = table.m();
                let code = |i: usize| &codes[i * m..(i + 1) * m];
                // Threshold re-read per tile: it only tightens as pushes
                // land, so pruning stays exact.
                in_tiles(members, |g| match *g {
                    [a, b, c, d] => {
                        let rows = [code(a), code(b), code(c), code(d)];
                        let dist = table.lookup4_pruned(rows, heap.threshold());
                        for (&i, dist) in g.iter().zip(dist) {
                            if let Some(dist) = dist {
                                heap.push(ids[i], dist);
                            }
                        }
                    }
                    _ => {
                        for &i in g {
                            if let Some(dist) = table.lookup_pruned(code(i), heap.threshold()) {
                                heap.push(ids[i], dist);
                            }
                        }
                    }
                });
            }
            _ => unreachable!("prepared state always matches the index variant"),
        }
    }

    fn search_impl(
        &self,
        query: &[f32],
        params: &SearchParams,
        mask: Option<&RowMask>,
    ) -> Result<Vec<Neighbor>> {
        if query.len() != self.dim {
            return Err(IndexError::DimensionMismatch { expected: self.dim, got: query.len() });
        }
        if let Some(mask) = mask {
            mask.check_covers(self.len)?;
        }
        let prepared = self.prepare(query);
        let probes = self.probe_buckets(prepared.query(), params.nprobe);
        let mut heap = TopK::new(params.k.max(1));
        for b in probes {
            self.scan_bucket_prepared(b, &prepared, &mut heap, mask);
        }
        Ok(heap.into_sorted())
    }
}

/// Per-query state for the bucket scans, built once by [`IvfIndex::prepare`]
/// and reused across every probed bucket (and across buckets fanned out on
/// the executor — it is `Sync` borrow-only data).
pub struct PreparedQuery<'a> {
    /// The query in the internal metric convention (cosine-normalized).
    query: Vec<f32>,
    state: PreparedState<'a>,
}

enum PreparedState<'a> {
    /// Hoisted float kernels for FLAT buckets.
    Flat { pair: distance::PairKernel, tile4: Option<distance::Tile4Kernel> },
    /// Fused direct-on-u8 state for SQ8 buckets.
    Sq8(distance::quant::PreparedSq8<'a>),
    /// Stride-256 ADC table for PQ buckets.
    Pq(pq::DistanceTable),
}

impl PreparedQuery<'_> {
    /// The internally-prepared query vector (what coarse probing consumes).
    pub fn query(&self) -> &[f32] {
        &self.query
    }
}

impl VectorIndex for IvfIndex {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.len
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<Vec<Neighbor>> {
        self.search_impl(query, params, None)
    }

    fn search_masked(
        &self,
        query: &[f32],
        params: &SearchParams,
        mask: &RowMask,
    ) -> Result<Vec<Neighbor>> {
        self.search_impl(query, params, Some(mask))
    }

    /// Bucket-major batched search: prepare every query once, invert the
    /// probe lists into bucket → queries, then sweep buckets in ascending
    /// order scanning each for all of its queries back-to-back. Each
    /// bucket's rows stay hot across the queries that probe it instead of
    /// being re-streamed per query.
    ///
    /// Bit-identical to the per-query loop: the retained top-k set of
    /// [`TopK`] is push-order-independent (total order on
    /// `(distance, id)`), and the PQ early-abandon check is
    /// exactness-preserving — a pruned row could never have entered the
    /// heap — so reordering bucket visits cannot change any sorted output,
    /// with or without a mask.
    fn search_batch(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
        mask: Option<&RowMask>,
    ) -> Result<Vec<Vec<Neighbor>>> {
        if let Some(mask) = mask {
            mask.check_covers(self.len)?;
        }
        let m = queries.len();
        for i in 0..m {
            if queries.get(i).len() != self.dim {
                return Err(IndexError::DimensionMismatch {
                    expected: self.dim,
                    got: queries.get(i).len(),
                });
            }
        }
        let prepared: Vec<PreparedQuery> = (0..m).map(|i| self.prepare(queries.get(i))).collect();
        let mut heaps: Vec<TopK> = (0..m).map(|_| TopK::new(params.k.max(1))).collect();
        let mut by_bucket: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (qi, p) in prepared.iter().enumerate() {
            for b in self.probe_buckets(p.query(), params.nprobe) {
                by_bucket.entry(b).or_default().push(qi);
            }
        }
        for (b, qis) in by_bucket {
            for qi in qis {
                self.scan_bucket_prepared(b, &prepared[qi], &mut heaps[qi], mask);
            }
        }
        Ok(heaps.into_iter().map(TopK::into_sorted).collect())
    }

    fn memory_bytes(&self) -> usize {
        let buckets: usize = self.buckets.iter().map(Bucket::bytes).sum();
        let centroids = self.coarse.centroids.memory_bytes();
        let pq = self.pq.as_ref().map_or(0, ProductQuantizer::memory_bytes);
        buckets + centroids + pq
    }

    fn as_ivf(&self) -> Option<&IvfIndex> {
        Some(self)
    }
}

/// Registry builder for the three IVF variants.
pub struct IvfBuilder(pub IvfVariant);

impl IndexBuilder for IvfBuilder {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn build(
        &self,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>> {
        Ok(Box::new(IvfIndex::build(self.0, vectors, ids, params)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered(n: usize, dim: usize, seed: u64) -> (VectorSet, Vec<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vs = VectorSet::new(dim);
        for i in 0..n {
            let center = (i % 8) as f32 * 10.0;
            let v: Vec<f32> =
                (0..dim).map(|_| center + rng.gen_range(-1.0f32..1.0)).collect();
            vs.push(&v);
        }
        let ids = (0..n as i64).collect();
        (vs, ids)
    }

    fn params() -> BuildParams {
        BuildParams { nlist: 16, kmeans_iters: 8, pq_m: 4, ..Default::default() }
    }

    #[test]
    fn batched_search_is_bit_identical_to_per_query_loop() {
        let (vs, ids) = clustered(600, 16, 13);
        let mut rng = StdRng::seed_from_u64(99);
        let mut queries = VectorSet::new(16);
        for _ in 0..9 {
            let center = rng.gen_range(0..8) as f32 * 10.0;
            let q: Vec<f32> = (0..16).map(|_| center + rng.gen_range(-1.0f32..1.0)).collect();
            queries.push(&q);
        }
        for variant in [IvfVariant::Flat, IvfVariant::Sq8, IvfVariant::Pq] {
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                let p = BuildParams { metric, ..params() };
                let ivf = IvfIndex::build(variant, &vs, &ids, &p).unwrap();
                let sp = SearchParams { k: 7, nprobe: 4, ..Default::default() };
                let batched = ivf.search_batch(&queries, &sp, None).unwrap();
                for (qi, batch_list) in batched.iter().enumerate() {
                    let serial = ivf.search(queries.get(qi), &sp).unwrap();
                    assert_eq!(
                        batch_list, &serial,
                        "bucket-major batch diverged: {variant:?} {metric} q={qi}"
                    );
                }
            }
        }
        // Dimension mismatch inside the batch surfaces the typed error.
        let mut bad = VectorSet::new(8);
        bad.push(&[0.0; 8]);
        let ivf = IvfIndex::build(IvfVariant::Flat, &vs, &ids, &params()).unwrap();
        assert!(ivf.search_batch(&bad, &SearchParams::default(), None).is_err());
    }

    fn recall_vs_flat(variant: IvfVariant, metric: Metric, nprobe: usize) -> f32 {
        let (vs, ids) = clustered(600, 16, 3);
        let p = BuildParams { metric, ..params() };
        let ivf = IvfIndex::build(variant, &vs, &ids, &p).unwrap();
        let flat =
            crate::flat::FlatIndex::build(metric, vs.clone(), ids.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut hit = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let center = rng.gen_range(0..8) as f32 * 10.0;
            let q: Vec<f32> =
                (0..16).map(|_| center + rng.gen_range(-1.0f32..1.0)).collect();
            let sp = SearchParams { k: 10, nprobe, ..Default::default() };
            let truth = flat.search(&q, &sp).unwrap();
            let got = ivf.search(&q, &sp).unwrap();
            let truth_ids: std::collections::HashSet<i64> =
                truth.iter().map(|n| n.id).collect();
            hit += got.iter().filter(|n| truth_ids.contains(&n.id)).count();
            total += truth.len();
        }
        hit as f32 / total as f32
    }

    #[test]
    fn ivf_flat_high_recall_with_enough_probes() {
        assert!(recall_vs_flat(IvfVariant::Flat, Metric::L2, 16) >= 0.99);
    }

    #[test]
    fn ivf_sq8_decent_recall() {
        // SQ8 trades ~a few points of recall for 4x compression; the paper
        // reports ~1% loss on SIFT. Our synthetic blobs quantize harder
        // because every dimension spans the full cluster range.
        assert!(recall_vs_flat(IvfVariant::Sq8, Metric::L2, 16) >= 0.75);
    }

    #[test]
    fn ivf_pq_reasonable_recall_on_clustered_data() {
        assert!(recall_vs_flat(IvfVariant::Pq, Metric::L2, 16) >= 0.6);
    }

    #[test]
    fn recall_increases_with_nprobe() {
        let lo = recall_vs_flat(IvfVariant::Flat, Metric::L2, 1);
        let hi = recall_vs_flat(IvfVariant::Flat, Metric::L2, 16);
        assert!(hi >= lo, "nprobe=16 recall {hi} < nprobe=1 recall {lo}");
    }

    #[test]
    fn cosine_metric_supported() {
        assert!(recall_vs_flat(IvfVariant::Flat, Metric::Cosine, 16) >= 0.95);
    }

    #[test]
    fn inner_product_supported() {
        assert!(recall_vs_flat(IvfVariant::Flat, Metric::InnerProduct, 16) >= 0.95);
    }

    /// A masked search returns only allowed ordinals, and exactly the
    /// unmasked exhaustive answer post-filtered (every bucket probed, so the
    /// scan is exhaustive; PQ pruning is exactness-preserving) — alone and
    /// through the bucket-major batch.
    #[test]
    fn masked_search_equals_the_post_filtered_unmasked_search() {
        let (vs, ids) = clustered(300, 8, 5);
        let queries = vs.gather(&[0, 77, 150]);
        for variant in [IvfVariant::Flat, IvfVariant::Sq8, IvfVariant::Pq] {
            let ivf = IvfIndex::build(variant, &vs, &ids, &params()).unwrap();
            let everything = SearchParams { k: 300, nprobe: 16, ..Default::default() };
            let sp = SearchParams { k: 20, ..everything.clone() };
            for keep in [1usize, 2, 3, 50] {
                let allowed: Vec<u32> = (0..300u32).filter(|r| (*r as usize).is_multiple_of(keep)).collect();
                let mask = RowMask::from_positions(300, &allowed);
                let batched = ivf.search_batch(&queries, &sp, Some(&mask)).unwrap();
                for (q, batched) in queries.iter().zip(batched) {
                    let mut expect = ivf.search(q, &everything).unwrap();
                    expect.retain(|n| (n.id as usize).is_multiple_of(keep));
                    expect.truncate(20);
                    let got = ivf.search_masked(q, &sp, &mask).unwrap();
                    assert_eq!(got, expect, "{variant:?} keep 1/{keep}");
                    assert_eq!(batched, expect, "{variant:?} keep 1/{keep} (batch)");
                }
            }
            assert!(ivf.search_masked(vs.get(0), &sp, &RowMask::all(299)).is_err());
        }
    }

    #[test]
    fn sq8_uses_quarter_memory_of_flat() {
        let (vs, ids) = clustered(1000, 32, 9);
        let flat = IvfIndex::build(IvfVariant::Flat, &vs, &ids, &params()).unwrap();
        let sq8 = IvfIndex::build(IvfVariant::Sq8, &vs, &ids, &params()).unwrap();
        // Bucket payloads: 4 bytes/dim vs 1 byte/dim (ids overhead equal).
        assert!(sq8.memory_bytes() < flat.memory_bytes());
    }

    #[test]
    fn empty_input_rejected() {
        let vs = VectorSet::new(4);
        assert!(IvfIndex::build(IvfVariant::Flat, &vs, &[], &params()).is_err());
    }

    #[test]
    fn binary_metric_rejected() {
        let (vs, ids) = clustered(50, 4, 1);
        let p = BuildParams { metric: Metric::Hamming, ..params() };
        assert!(IvfIndex::build(IvfVariant::Flat, &vs, &ids, &p).is_err());
    }

    #[test]
    fn bucket_accessors_consistent() {
        let (vs, ids) = clustered(200, 8, 2);
        let ivf = IvfIndex::build(IvfVariant::Flat, &vs, &ids, &params()).unwrap();
        let total: usize = (0..ivf.nlist()).map(|b| ivf.bucket_len(b)).sum();
        assert_eq!(total, 200);
        assert!(ivf.bucket_bytes(0) >= ivf.bucket_len(0) * 8);
    }
}
