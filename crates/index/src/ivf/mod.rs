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

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

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

/// Bytes a slot costs beside its payload: its id and its build ordinal.
const SLOT_OVERHEAD: usize = std::mem::size_of::<i64>() + std::mem::size_of::<u32>();

/// The fine-quantized vectors, one entry per slot.
pub(crate) enum Payload {
    /// The `f32` vectors themselves (IVF_FLAT) — normalized copies under
    /// Cosine, the indexed vectors verbatim otherwise
    /// ([`IvfIndex::shared_vectors`]).
    Flat(Arc<VectorSet>),
    /// `dim` code bytes per slot (IVF_SQ8).
    Sq8 { quantizer: ScalarQuantizer, codes: Vec<u8> },
    /// `m` code bytes per slot (IVF_PQ).
    Pq { quantizer: ProductQuantizer, codes: Vec<u8> },
}

/// An IVF index with one of the three fine quantizers.
///
/// The inverted lists are one set of arrays in **slot order**: bucket `b`
/// owns slots `offsets[b]..offsets[b + 1]`, and slot `s` holds the vector
/// the index was built from at row `rows[s]`, whose id is `ids[s]`. Rows
/// ascend inside a bucket, so a masked scan reads its [`RowMask`] front to
/// back.
pub struct IvfIndex {
    metric: Metric,
    /// Metric actually used internally after cosine normalization.
    inner_metric: Metric,
    dim: usize,
    coarse: KMeans,
    offsets: Vec<u32>,
    ids: Vec<i64>,
    rows: Vec<u32>,
    payload: Payload,
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
        let (dim, n) = (vectors.dim(), vectors.len());

        // Cosine reduces to inner product over normalized vectors.
        let mut data = Cow::Borrowed(vectors);
        let mut inner_metric = params.metric;
        if params.metric == Metric::Cosine {
            let normalized = data.to_mut();
            for i in 0..n {
                distance::normalize(normalized.get_mut(i));
            }
            inner_metric = Metric::InnerProduct;
        }
        let data: &VectorSet = &data;

        let nlist = params.effective_nlist(n);
        let coarse = kmeans::train(data, nlist, params.kmeans_iters, params.seed)?;

        // Counting sort of the rows by bucket (nearest centroid, found on
        // every core): count, prefix-sum, place. Rows are placed in
        // ascending order, which keeps them ascending inside every bucket.
        let bucket_of = kmeans::assign_rows(&coarse.centroids, data, kmeans::cores());
        let mut offsets = vec![0u32; nlist + 1];
        for &(b, _) in &bucket_of {
            offsets[b + 1] += 1;
        }
        for b in 0..nlist {
            offsets[b + 1] += offsets[b];
        }
        let mut next_slot = offsets.clone();
        let (mut slot_ids, mut rows) = (vec![0i64; n], vec![0u32; n]);
        for (row, &(b, _)) in bucket_of.iter().enumerate() {
            let slot = next_slot[b] as usize;
            next_slot[b] += 1;
            rows[slot] = row as u32;
            slot_ids[slot] = ids[row];
        }

        // Fine quantizers train on the full data; the payload is gathered
        // (or encoded) slot by slot.
        let members = rows.iter().map(|&row| data.get(row as usize));
        let payload = match variant {
            IvfVariant::Flat => {
                let mut gathered = VectorSet::with_capacity(dim, n);
                members.for_each(|v| gathered.push(v));
                Payload::Flat(Arc::new(gathered))
            }
            IvfVariant::Sq8 => {
                let quantizer = ScalarQuantizer::train(data);
                let mut codes = Vec::with_capacity(n * dim);
                members.for_each(|v| quantizer.encode_into(v, &mut codes));
                Payload::Sq8 { quantizer, codes }
            }
            IvfVariant::Pq => {
                let quantizer = ProductQuantizer::train(
                    data,
                    params.pq_m,
                    params.pq_nbits,
                    params.kmeans_iters,
                    params.seed ^ 0x9A5E,
                )?;
                let mut codes = Vec::with_capacity(n * quantizer.m());
                members.for_each(|v| quantizer.encode_into(v, &mut codes));
                Payload::Pq { quantizer, codes }
            }
        };

        Ok(Self {
            metric: params.metric,
            inner_metric,
            dim,
            coarse,
            offsets,
            ids: slot_ids,
            rows,
            payload,
        })
    }

    /// Reassemble an index from codec parts, checking everything a scan
    /// relies on: `offsets` run monotonically from 0 to the row count, one
    /// per centroid and one more; every bucket's `rows` ascend and name an
    /// indexed row; the payload holds one entry per slot.
    pub(crate) fn from_parts(
        metric: Metric,
        dim: usize,
        centroids: VectorSet,
        offsets: Vec<u32>,
        ids: Vec<i64>,
        rows: Vec<u32>,
        payload: Payload,
    ) -> Result<Self> {
        let bad = |what: &str| Err(IndexError::invalid("index parts", what));
        let n = ids.len();
        if metric.is_binary() || centroids.dim() != dim {
            return bad("metric or dimension mismatch");
        }
        if offsets.len() != centroids.len() + 1
            || offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets[centroids.len()] as usize != n
            || rows.len() != n
        {
            return bad("bucket offsets do not run from 0 to the row count");
        }
        for bucket in offsets.windows(2) {
            let rows = &rows[bucket[0] as usize..bucket[1] as usize];
            if rows.windows(2).any(|w| w[0] >= w[1]) || rows.last().is_some_and(|&r| r as usize >= n)
            {
                return bad("bucket rows out of order or range");
            }
        }
        let one_entry_per_slot = match &payload {
            Payload::Flat(vs) => vs.dim() == dim && vs.len() == n,
            Payload::Sq8 { codes, .. } => codes.len() == n * dim,
            Payload::Pq { quantizer, codes } => codes.len() == n * quantizer.m(),
        };
        if !one_entry_per_slot {
            return bad("payload does not hold one entry per row");
        }
        let inner_metric = if metric == Metric::Cosine { Metric::InnerProduct } else { metric };
        Ok(Self {
            metric,
            inner_metric,
            dim,
            coarse: KMeans { centroids, inertia: 0.0, iterations: 0 },
            offsets,
            ids,
            rows,
            payload,
        })
    }

    /// The coarse-quantizer centroids (resident in GPU memory under SQ8H).
    pub fn centroids(&self) -> &VectorSet {
        &self.coarse.centroids
    }

    /// The fine-quantizer variant.
    pub fn variant(&self) -> IvfVariant {
        match self.payload {
            Payload::Flat(_) => IvfVariant::Flat,
            Payload::Sq8 { .. } => IvfVariant::Sq8,
            Payload::Pq { .. } => IvfVariant::Pq,
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Indexed row count (inherent twin of the trait method, for callers
    /// without the trait in scope).
    pub fn len_rows(&self) -> usize {
        self.ids.len()
    }

    /// The FLAT payload when it is the indexed vectors verbatim, in slot
    /// order — the one copy a segment adopts as its column, addressing it
    /// through [`Self::rows`]. `None` for SQ8/PQ codes and for Cosine, whose
    /// payload is normalized: derived data a point read must not return.
    pub fn shared_vectors(&self) -> Option<&Arc<VectorSet>> {
        match &self.payload {
            Payload::Flat(vs) if self.metric != Metric::Cosine => Some(vs),
            _ => None,
        }
    }

    /// Build ordinal (row position) of every slot — a bijection onto
    /// `0..len`, ascending inside each bucket.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Scalar-quantizer parameters `(vmin, vstep)` for the SQ8 variant.
    pub fn sq_params(&self) -> Option<(&[f32], &[f32])> {
        match &self.payload {
            Payload::Sq8 { quantizer, .. } => Some((quantizer.vmin(), quantizer.vstep())),
            _ => None,
        }
    }

    /// The product quantizer for the PQ variant.
    pub fn pq_ref(&self) -> Option<&ProductQuantizer> {
        match &self.payload {
            Payload::Pq { quantizer, .. } => Some(quantizer),
            _ => None,
        }
    }

    /// Number of buckets (`nlist` after the small-collection cap).
    pub fn nlist(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Step 1 of query processing: indices of the `nprobe` closest buckets.
    pub fn probe_buckets(&self, query: &[f32], nprobe: usize) -> Vec<usize> {
        self.coarse.assign_multi(query, nprobe)
    }

    /// The slots of bucket `b`.
    fn bucket(&self, b: usize) -> Range<usize> {
        self.offsets[b] as usize..self.offsets[b + 1] as usize
    }

    /// Payload bytes per slot.
    fn entry_bytes(&self) -> usize {
        match &self.payload {
            Payload::Flat(_) => self.dim * std::mem::size_of::<f32>(),
            Payload::Sq8 { .. } => self.dim,
            Payload::Pq { quantizer, .. } => quantizer.m(),
        }
    }

    /// Number of vectors in bucket `b`.
    pub fn bucket_len(&self, b: usize) -> usize {
        self.bucket(b).len()
    }

    /// Encoded byte size of bucket `b` — payload, ids and ordinals (drives
    /// the GPU PCIe transfer model).
    pub fn bucket_bytes(&self, b: usize) -> usize {
        self.bucket_len(b) * (self.entry_bytes() + SLOT_OVERHEAD)
    }

    /// External ids of bucket `b`'s members.
    pub fn bucket_ids(&self, b: usize) -> &[i64] {
        &self.ids[self.bucket(b)]
    }

    /// Build ordinals of bucket `b`'s members, ascending.
    pub fn bucket_rows(&self, b: usize) -> &[u32] {
        &self.rows[self.bucket(b)]
    }

    /// Raw encoded codes of bucket `b` (SQ8/PQ variants).
    pub fn bucket_codes(&self, b: usize) -> Option<&[u8]> {
        let slots = self.bucket(b);
        match &self.payload {
            Payload::Sq8 { codes, .. } | Payload::Pq { codes, .. } => {
                let width = self.entry_bytes();
                Some(&codes[slots.start * width..slots.end * width])
            }
            Payload::Flat(_) => None,
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
        let state = match &self.payload {
            Payload::Flat(_) => PreparedState::Flat {
                pair: distance::pair_kernel(self.inner_metric),
                tile4: distance::tile4_kernel(self.inner_metric),
            },
            Payload::Sq8 { quantizer, .. } => {
                PreparedState::Sq8(quantizer.prepare(&q, self.inner_metric))
            }
            Payload::Pq { quantizer, .. } => {
                PreparedState::Pq(quantizer.distance_table(&q, self.inner_metric))
            }
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
        let slots = self.bucket(b);
        match mask {
            None => self.scan_members(slots.clone(), prepared, heap, 0..slots.len()),
            Some(mask) => {
                let ordinals = self.rows[slots.clone()].iter().enumerate();
                let visible = ordinals.filter(|(_, &row)| mask.get(row as usize)).map(|(i, _)| i);
                self.scan_members(slots, prepared, heap, visible)
            }
        }
    }

    /// Score `members` (positions inside the bucket holding `slots`) into
    /// `heap`. The bucket's vectors are one slice of the payload, read in
    /// place.
    fn scan_members(
        &self,
        slots: Range<usize>,
        prepared: &PreparedQuery<'_>,
        heap: &mut TopK,
        members: impl Iterator<Item = usize>,
    ) {
        let ids = &self.ids[slots.clone()];
        match (&self.payload, &prepared.state) {
            (Payload::Flat(vs), PreparedState::Flat { pair, tile4 }) => {
                let dim = self.dim;
                let flat = &vs.as_flat()[slots.start * dim..slots.end * dim];
                let vec = |i: usize| &flat[i * dim..(i + 1) * dim];
                let q = prepared.query.as_slice();
                in_tiles(members, |g| match (g, tile4) {
                    // L2/IP are bitwise symmetric in their arguments, so the
                    // 4 data rows ride in the kernel's query slot (same trick
                    // as the batch engine).
                    (&[a, b, c, d], Some(tile)) => {
                        let dist = tile([vec(a), vec(b), vec(c), vec(d)], q);
                        for (&i, dist) in g.iter().zip(dist) {
                            heap.push(ids[i], dist);
                        }
                    }
                    _ => {
                        for &i in g {
                            heap.push(ids[i], pair(q, vec(i)));
                        }
                    }
                });
            }
            (Payload::Sq8 { codes, .. }, PreparedState::Sq8(p)) => {
                let dim = self.dim;
                let codes = &codes[slots.start * dim..slots.end * dim];
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
            (Payload::Pq { codes, .. }, PreparedState::Pq(table)) => {
                let m = table.m();
                let codes = &codes[slots.start * m..slots.end * m];
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
            mask.check_covers(self.len_rows())?;
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
        self.variant().name()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.len_rows()
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
            mask.check_covers(self.len_rows())?;
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

    /// Everything the index keeps alive — the FLAT payload included, even
    /// when a segment's column shares it (the segment, which can tell, counts
    /// that buffer once).
    fn memory_bytes(&self) -> usize {
        let quantizer = match &self.payload {
            Payload::Pq { quantizer, .. } => quantizer.memory_bytes(),
            _ => 0,
        };
        self.len_rows() * (self.entry_bytes() + SLOT_OVERHEAD)
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.coarse.centroids.memory_bytes()
            + quantizer
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

    /// The counting sort leaves every row in exactly one slot of the bucket
    /// its nearest centroid names, rows ascending inside a bucket, and the
    /// payload holding each slot's own vector.
    #[test]
    fn slot_order_is_a_bucket_sorted_permutation_of_the_rows() {
        let (vs, ids) = clustered(500, 8, 4);
        let ids: Vec<i64> = ids.iter().map(|id| id * 3 + 1).collect();
        let ivf = IvfIndex::build(IvfVariant::Flat, &vs, &ids, &params()).unwrap();
        let mut seen = vec![false; 500];
        for b in 0..ivf.nlist() {
            let rows = ivf.bucket_rows(b);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "bucket {b} not ascending");
            for (&row, &id) in rows.iter().zip(ivf.bucket_ids(b)) {
                assert!(!std::mem::replace(&mut seen[row as usize], true));
                assert_eq!(id, ids[row as usize]);
                assert_eq!(ivf.coarse.assign(vs.get(row as usize)), b);
            }
        }
        assert!(seen.iter().all(|&s| s));
        let payload = ivf.shared_vectors().unwrap();
        for (slot, &row) in ivf.rows().iter().enumerate() {
            assert_eq!(payload.get(slot), vs.get(row as usize));
        }
    }

    /// `memory_bytes` is what the storage accounting is computed from: it
    /// must cover every allocation the index holds, for every variant.
    #[test]
    fn memory_bytes_covers_every_allocation() {
        let (vs, ids) = clustered(1000, 32, 9);
        for variant in [IvfVariant::Flat, IvfVariant::Sq8, IvfVariant::Pq] {
            let ivf = IvfIndex::build(variant, &vs, &ids, &params()).unwrap();
            let payload = match &ivf.payload {
                Payload::Flat(vs) => vs.allocated_bytes(),
                Payload::Sq8 { codes, .. } => codes.capacity(),
                Payload::Pq { quantizer, codes } => {
                    let books = (0..quantizer.m()).map(|s| quantizer.codebook(s).allocated_bytes());
                    codes.capacity() + books.sum::<usize>()
                }
            };
            let allocated = payload
                + ivf.ids.capacity() * 8
                + ivf.rows.capacity() * 4
                + ivf.offsets.capacity() * 4
                + ivf.coarse.centroids.allocated_bytes();
            assert!(ivf.memory_bytes() >= allocated, "{variant:?}");
            assert!(ivf.memory_bytes() <= allocated + allocated / 100, "{variant:?}");
        }
    }
}
