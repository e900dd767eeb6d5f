//! Immutable segments — "the basic unit of searching, scheduling, and
//! buffering" (§2.3).
//!
//! A segment's payload ([`SegmentData`]) never changes after flush. New
//! *versions* of a segment are created when its tombstone set or indexes
//! change (§5.2: "a new version is generated whenever the data or index in
//! that segment is changed"); versions share the payload via `Arc`, which is
//! what makes snapshots cheap and lets GC reclaim payloads only when the last
//! referencing snapshot drops.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use milvus_exec::{Executor, TaskTiming};
use milvus_index::batch::{cache_aware_scan, BatchOptions, Rows};
use milvus_index::ivf::IvfIndex;
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{
    registry::IndexRegistry, Metric, Neighbor, RowMask, TopK, VectorIndex, VectorSet,
};
use milvus_obs as obs;
use parking_lot::RwLock;

use crate::attribute::AttributeColumn;
use crate::column::VectorColumn;
use crate::entity::{InsertBatch, Schema};
use crate::error::{Result, StorageError};

// Re-export for segment scans.
use milvus_index::distance;
use milvus_index::topk;

/// What one segment scan did — feeds per-segment trace spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Candidate rows the scan considered: the full live row count for a
    /// brute-force pass, the indexed live universe for an index probe.
    pub rows_scanned: u64,
    /// Whether an ANN index served the scan (vs. brute-force columnar scan).
    pub used_index: bool,
    /// When a [`Fanout::timed`] scan split its rows: when its worst-queued
    /// range was queued and when a worker started it.
    pub queue_wait: Option<(Instant, Instant)>,
}

/// How far one query's scan of an unindexed segment may spread: over up to
/// `cores` row ranges, the caller running the first and idle executor
/// workers the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fanout {
    /// The cores the scan may use, the caller's included (`1`: no split).
    pub cores: usize,
    /// Time the ranges' queue waits into [`ScanStats::queue_wait`] — for a
    /// traced query; an untimed split reads no clock.
    pub timed: bool,
}

impl Fanout {
    /// Every scan on the calling thread.
    pub const SERIAL: Fanout = Fanout { cores: 1, timed: false };
}

// ---------------------------------------------------------------------------
// Fault injection: deliberately slow one segment's scans, so tests (and the
// ISSUE 2 acceptance check) can make a specific segment dominate a query and
// verify the slow-query log attributes the time to it. Disabled flag keeps
// the production scan at a single relaxed atomic load.
// ---------------------------------------------------------------------------

static SCAN_FAULTS_ARMED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

fn scan_delays() -> &'static parking_lot::Mutex<HashMap<u64, std::time::Duration>> {
    static DELAYS: std::sync::OnceLock<parking_lot::Mutex<HashMap<u64, std::time::Duration>>> =
        std::sync::OnceLock::new();
    DELAYS.get_or_init(|| parking_lot::Mutex::new(HashMap::new()))
}

/// Arm a scan delay: every subsequent scan of segment `segment_id` (in any
/// collection of this process) sleeps for `delay` first.
pub fn inject_scan_delay(segment_id: u64, delay: std::time::Duration) {
    scan_delays().lock().insert(segment_id, delay);
    SCAN_FAULTS_ARMED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Disarm all scan delays.
pub fn clear_scan_delays() {
    scan_delays().lock().clear();
    SCAN_FAULTS_ARMED.store(false, std::sync::atomic::Ordering::SeqCst);
}

/// Honor any armed scan fault for `segment_id`: once per
/// [`Segment::search_field_stats`] call, once per [`Segment::search_batch`]
/// call.
#[inline]
fn apply_scan_fault(segment_id: u64) {
    if SCAN_FAULTS_ARMED.load(std::sync::atomic::Ordering::Relaxed) {
        let delay = scan_delays().lock().get(&segment_id).copied();
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
    }
}

/// The immutable columnar payload of a segment.
#[derive(Debug, Clone)]
pub struct SegmentData {
    /// Entity ids, sorted ascending: row position `r` is the entity
    /// `row_ids[r]` in every column (§2.4).
    pub row_ids: Vec<i64>,
    /// One vector column per schema vector field.
    pub vectors: Vec<VectorColumn>,
    /// One attribute column per schema attribute field.
    pub attributes: Vec<AttributeColumn>,
}

impl SegmentData {
    /// Payload bytes (vectors + attributes + ids).
    pub fn memory_bytes(&self) -> usize {
        self.row_ids.len() * 8
            + self.vectors.iter().map(VectorColumn::memory_bytes).sum::<usize>()
            + self.attributes.iter().map(AttributeColumn::memory_bytes).sum::<usize>()
    }
}

/// A versioned immutable segment.
pub struct Segment {
    /// Stable segment id.
    pub id: u64,
    /// Version, bumped on tombstone/index changes (§5.2).
    pub version: u64,
    data: Arc<SegmentData>,
    /// The rows not tombstoned, as a bitmap over row positions; `None` while
    /// every row is live, so a segment without deletes pays no bytes for it.
    live: Option<Arc<RowMask>>,
    /// Lazily-built per-vector-field indexes (built asynchronously, §5.1).
    indexes: RwLock<HashMap<String, Arc<dyn VectorIndex>>>,
}

impl Segment {
    /// Build a segment from an insert batch (rows are re-sorted by id).
    pub fn from_batch(id: u64, schema: &Schema, batch: &InsertBatch) -> Result<Self> {
        batch.validate(schema)?;
        let mut order: Vec<usize> = (0..batch.ids.len()).collect();
        order.sort_by_key(|&i| batch.ids[i]);
        let row_ids: Vec<i64> = order.iter().map(|&i| batch.ids[i]).collect();
        let vectors: Vec<VectorColumn> =
            batch.vectors.iter().map(|col| col.gather(&order).into()).collect();
        let attributes: Vec<AttributeColumn> = batch
            .attributes
            .iter()
            .zip(&schema.attribute_fields)
            .map(|(col, name)| {
                AttributeColumn::build(name.clone(), order.iter().map(|&i| col[i]).collect())
            })
            .collect();
        Ok(Self {
            id,
            version: 1,
            data: Arc::new(SegmentData { row_ids, vectors, attributes }),
            live: None,
            indexes: RwLock::new(HashMap::new()),
        })
    }

    /// Construct directly from parts (codec decode, merges); `deleted` lists
    /// the tombstoned ids.
    pub fn from_parts(id: u64, version: u64, data: SegmentData, deleted: &[i64]) -> Self {
        let live = tombstoned(&data.row_ids, None, deleted.iter().copied());
        Self { id, version, data: Arc::new(data), live, indexes: RwLock::new(HashMap::new()) }
    }

    /// Borrow the immutable payload.
    pub fn data(&self) -> &SegmentData {
        &self.data
    }

    /// Tombstoned ids, ascending.
    pub fn deleted(&self) -> Vec<i64> {
        let Some(live) = &self.live else { return Vec::new() };
        let dead = (0..self.num_rows()).filter(|&row| !live.get(row));
        dead.map(|row| self.data.row_ids[row]).collect()
    }

    /// Total rows including tombstoned ones.
    pub fn num_rows(&self) -> usize {
        self.data.row_ids.len()
    }

    /// Rows visible to queries.
    pub fn live_rows(&self) -> usize {
        self.live.as_ref().map_or(self.num_rows(), |live| live.count())
    }

    /// Whether `id` is stored here (regardless of tombstones).
    pub fn contains_id(&self, id: i64) -> bool {
        self.data.row_ids.binary_search(&id).is_ok()
    }

    /// Whether `id` is tombstoned in this version.
    pub fn is_deleted(&self, id: i64) -> bool {
        self.live.as_ref().is_some_and(|live| {
            self.data.row_ids.binary_search(&id).is_ok_and(|row| !live.get(row))
        })
    }

    /// The rows a scan may return: the live ones that `allow` (a bitmap over
    /// row positions, e.g. an attribute predicate's) also sets. `None`: all.
    pub fn visible<'a>(&'a self, allow: Option<&'a RowMask>) -> Option<Cow<'a, RowMask>> {
        match (self.live.as_deref(), allow) {
            (Some(live), Some(allow)) => Some(Cow::Owned(live.and(allow))),
            (one, other) => one.or(other).map(Cow::Borrowed),
        }
    }

    /// New version with additional tombstones; payload and indexes are shared
    /// (out-of-place delete, §2.3).
    pub fn with_deletes(&self, ids: impl IntoIterator<Item = i64>) -> Segment {
        Segment {
            id: self.id,
            version: self.version + 1,
            data: Arc::clone(&self.data),
            live: tombstoned(&self.data.row_ids, self.live.as_deref(), ids),
            indexes: RwLock::new(self.indexes.read().clone()),
        }
    }

    /// Resident bytes: payload + tombstones + indexes (bufferpool accounting;
    /// the segment is the caching unit, §2.4).
    ///
    /// The accounting rule, stated here once: a buffer that a column and an
    /// index share ([`Self::build_index`]) is counted **once**, on the
    /// segment side — in [`SegmentData::memory_bytes`] — and
    /// [`Self::index_bytes`] is what the indexes hold beyond it.
    /// [`VectorIndex::memory_bytes`] itself keeps reporting everything an
    /// index keeps alive, which is the whole truth for a standalone index.
    pub fn memory_bytes(&self) -> usize {
        self.data.memory_bytes() + self.tombstone_bytes() + self.index_bytes()
    }

    /// Bytes of the live-row bitmap (none while no row is tombstoned).
    pub fn tombstone_bytes(&self) -> usize {
        self.live.as_ref().map_or(0, |live| live.memory_bytes())
    }

    /// Bytes the indexes hold beyond the payload: an index's
    /// `memory_bytes()` less the vector buffer a column shares with it.
    pub fn index_bytes(&self) -> usize {
        let in_a_column = |buf: &&Arc<VectorSet>| {
            self.data.vectors.iter().any(|col| Arc::ptr_eq(col.buffer(), buf))
        };
        let beyond_payload = |index: &Arc<dyn VectorIndex>| {
            let shared = index.as_ivf().and_then(IvfIndex::shared_vectors).filter(in_a_column);
            index.memory_bytes() - shared.map_or(0, |buf| buf.memory_bytes())
        };
        self.indexes.read().values().map(beyond_payload).sum()
    }

    /// Build (or rebuild) an index on `field` over **every** row, tombstoned
    /// or not, so an index ordinal *is* a row position and the one mask a
    /// scan carries serves both; the mask hides the dead rows until a merge
    /// drops them (§2.3).
    ///
    /// Returns a **new version** of the segment carrying the index (§5.2: a
    /// new version is generated upon building index). Where the index keeps
    /// the vectors verbatim ([`IvfIndex::shared_vectors`]: IVF_FLAT under
    /// L2/IP) the new version's column **is** the index's bucket-ordered
    /// buffer plus the permutation that finds a row in it; the id-ordered
    /// copy goes when the old version does. One copy of the vectors, scanned
    /// sequentially by the index and read by row through the column.
    pub fn build_index(
        &self,
        schema: &Schema,
        field: &str,
        index_type: &str,
        registry: &IndexRegistry,
        params: &BuildParams,
    ) -> Result<Segment> {
        let fi = schema
            .vector_field_index(field)
            .ok_or_else(|| StorageError::SchemaViolation(format!("no vector field {field}")))?;
        let mut build = params.clone();
        build.metric = schema.vector_fields[fi].metric;
        let row_order = self.data.vectors[fi].to_row_order();
        let index: Arc<dyn VectorIndex> =
            Arc::from(registry.build(index_type, &row_order, &self.data.row_ids, &build)?);
        // The field's new column, when it changes: the index's buffer where
        // there is one to adopt; else back to row order if it was reordered.
        let column = match index.as_ivf().and_then(|ivf| Some((ivf.shared_vectors()?, ivf.rows()))) {
            Some((buf, rows)) => {
                let mut slot_of_row = vec![0u32; rows.len()];
                for (slot, &row) in rows.iter().enumerate() {
                    slot_of_row[row as usize] = slot as u32;
                }
                Some(VectorColumn::permuted(Arc::clone(buf), slot_of_row)?)
            }
            None => match row_order {
                Cow::Borrowed(_) => None,
                Cow::Owned(rows) => Some(rows.into()),
            },
        };
        let data = match column {
            None => Arc::clone(&self.data),
            Some(column) => {
                let mut data = SegmentData::clone(&self.data);
                data.vectors[fi] = column;
                Arc::new(data)
            }
        };
        let mut indexes = self.indexes.read().clone();
        indexes.insert(field.to_string(), index);
        Ok(Segment {
            id: self.id,
            version: self.version + 1,
            data,
            live: self.live.clone(),
            indexes: RwLock::new(indexes),
        })
    }

    /// The index on `field`, if one was built.
    pub fn index(&self, field: &str) -> Option<Arc<dyn VectorIndex>> {
        self.indexes.read().get(field).cloned()
    }

    /// Attach a decoded index (segment codec restore path).
    pub(crate) fn attach_index(&self, field: impl Into<String>, index: Arc<dyn VectorIndex>) {
        self.indexes.write().insert(field.into(), index);
    }

    /// All attached indexes (segment codec persist path).
    pub fn indexes_snapshot(&self) -> Vec<(String, Arc<dyn VectorIndex>)> {
        let mut v: Vec<(String, Arc<dyn VectorIndex>)> = self
            .indexes
            .read()
            .iter()
            .map(|(k, ix)| (k.clone(), Arc::clone(ix)))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Search one vector field of this segment among the live rows that
    /// `allow` (a bitmap over row positions) also sets. Uses the field's index
    /// when present, otherwise a brute-force columnar scan.
    pub fn search_field(
        &self,
        schema: &Schema,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        allow: Option<&RowMask>,
    ) -> Result<Vec<Neighbor>> {
        self.search_field_stats(schema, field, query, params, allow).map(|(r, _)| r)
    }

    /// [`Self::search_field`] plus [`ScanStats`] describing what the scan did
    /// — used by the tracing layer to fill per-segment spans.
    pub fn search_field_stats(
        &self,
        schema: &Schema,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        allow: Option<&RowMask>,
    ) -> Result<(Vec<Neighbor>, ScanStats)> {
        apply_scan_fault(self.id);
        self.scan_one(schema, field, query, params, self.visible(allow).as_deref(), Fanout::SERIAL)
    }

    /// One query over the rows set in `visible` (`None`: every row). An index
    /// ordinal is a row position ([`Self::build_index`]), so the same mask
    /// serves the index and the column scan.
    ///
    /// Without an index the rows split into `min(fanout.cores, rows)` equal
    /// ranges, each scanned into its own heap, and the heaps merge. `TopK`
    /// keeps the `k` least under the total order on `(distance, id)`, so the
    /// answer does not depend on how the rows were split.
    fn scan_one(
        &self,
        schema: &Schema,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        visible: Option<&RowMask>,
        fanout: Fanout,
    ) -> Result<(Vec<Neighbor>, ScanStats)> {
        let fi = schema
            .vector_field_index(field)
            .ok_or_else(|| StorageError::SchemaViolation(format!("no vector field {field}")))?;
        let metric = schema.vector_fields[fi].metric;
        let stats = ScanStats { rows_scanned: self.live_rows() as u64, ..Default::default() };

        if let Some(index) = self.index(field) {
            let res = match visible {
                None => index.search(query, params)?,
                Some(mask) => index.search_masked(query, params, mask)?,
            };
            return Ok((res, ScanStats { used_index: true, ..stats }));
        }

        let col = &self.data.vectors[fi];
        if query.len() != col.dim() {
            return Err(StorageError::Index(milvus_index::IndexError::DimensionMismatch {
                expected: col.dim(),
                got: query.len(),
            }));
        }
        // A column is reordered only under its index, so this is a borrow.
        let rows = col.to_row_order();
        let (flat, dim, ids) = (rows.as_flat(), col.dim(), &self.data.row_ids[..]);
        let (n, k) = (ids.len(), params.k.max(1));
        let width = fanout.cores.min(n).max(1);
        let range_scan = |r: usize| {
            let (lo, hi) = (r * n / width, (r + 1) * n / width);
            let mut heap = TopK::new(k);
            let vectors = flat[lo * dim..hi * dim].chunks_exact(dim);
            for ((row, v), &id) in (lo..hi).zip(vectors).zip(&ids[lo..hi]) {
                if visible.is_none_or(|mask| mask.get(row)) {
                    heap.push(id, distance::distance(metric, query, v));
                }
            }
            heap
        };
        let exec = Executor::global();
        let (heaps, queue_wait) = if fanout.timed && width > 1 {
            let timed = exec.scoped_map_timed(width, range_scan);
            let worst = timed.iter().map(|(_, t)| *t).max_by_key(TaskTiming::queue_wait);
            let heaps = timed.into_iter().map(|(heap, _)| heap).collect();
            (heaps, worst.map(|t| (t.enqueued, t.started)))
        } else {
            (exec.scoped_map(width, range_scan), None)
        };
        let mut heaps = heaps.into_iter();
        let mut merged = heaps.next().expect("at least one range");
        heaps.for_each(|heap| merged.merge(heap));
        Ok((merged.into_sorted(), ScanStats { queue_wait, ..stats }))
    }

    /// Search one vector field for a batch of queries that share `params`
    /// except for `k` (`ks[j]` is query `j`'s) and share `allow`. Returns one
    /// result per query in input order, each bit-identical to
    /// [`Self::search_field_stats`] at that query's own `k`. The rows the
    /// batch may return — `live ∧ allow` — are worked out once, here.
    ///
    /// This is the only place that knows which scans may batch:
    ///
    /// * indexed — [`VectorIndex::search_batch`] (IVF overrides it with the
    ///   bucket-major sweep; the default is the per-query loop) at `max(ks)`,
    ///   each sorted list truncated to its own `k`. Truncation is exact only
    ///   for IVF's exhaustive bucket scans, so a mixed-`k` batch on a
    ///   graph/tree index runs per query instead.
    /// * unindexed, SIMD metric — the cache-aware batch engine over the
    ///   segment's own column, zero-copy, on every executor worker.
    /// * everything else (one query, binary metrics, a query of the wrong
    ///   dimension) — one scan per query, so every query gets exactly its own
    ///   result or error. Unindexed, each splits its rows over `fanout`.
    #[allow(clippy::too_many_arguments)]
    pub fn search_batch(
        &self,
        schema: &Schema,
        field: &str,
        queries: &[&[f32]],
        ks: &[usize],
        params: &SearchParams,
        allow: Option<&RowMask>,
        fanout: Fanout,
    ) -> (Vec<Result<Vec<Neighbor>>>, ScanStats) {
        apply_scan_fault(self.id);
        let visible = self.visible(allow);
        let visible = visible.as_deref();
        let index = self.index(field);
        let stats = ScanStats {
            rows_scanned: self.live_rows() as u64,
            used_index: index.is_some(),
            queue_wait: None,
        };
        let per_query = || {
            let mut stats = stats;
            let lists = queries
                .iter()
                .zip(ks)
                .map(|(q, &k)| {
                    let own = SearchParams { k, ..params.clone() };
                    let (list, scan) = self.scan_one(schema, field, q, &own, visible, fanout)?;
                    stats.queue_wait = stats.queue_wait.or(scan.queue_wait);
                    Ok(list)
                })
                .collect();
            (lists, stats)
        };
        let Some(fi) = schema.vector_field_index(field) else { return per_query() };
        let col = &self.data.vectors[fi];
        let metric = schema.vector_fields[fi].metric;
        let uniform_k = ks.iter().all(|&k| k == ks[0]);
        let batchable = queries.len() > 1
            && queries.iter().all(|q| q.len() == col.dim())
            && match &index {
                Some(index) => uniform_k || index.as_ivf().is_some(),
                None => matches!(metric, Metric::L2 | Metric::InnerProduct | Metric::Cosine),
            };
        if !batchable {
            return per_query();
        }

        let mut qs = VectorSet::with_capacity(col.dim(), queries.len());
        for q in queries {
            qs.push(q);
        }
        let lists = match index {
            Some(index) => {
                let kmax = ks.iter().copied().max().unwrap_or(1);
                let at_kmax = SearchParams { k: kmax, ..params.clone() };
                let Ok(mut lists) = index.search_batch(&qs, &at_kmax, visible) else {
                    // Errors are not `Clone`: rerun per query so each caller
                    // gets its own.
                    return per_query();
                };
                for (list, &k) in lists.iter_mut().zip(ks) {
                    list.truncate(k.max(1));
                }
                lists
            }
            None => {
                let exec = Executor::global();
                let opts = BatchOptions { metric, threads: exec.threads(), ..Default::default() };
                let (ids, off) = (&self.data.row_ids, &mut obs::Trace::disabled());
                let rows = col.to_row_order();
                cache_aware_scan(exec, Rows::F32(&rows), ids, &qs, ks, visible, &opts, off)
            }
        };
        (lists.into_iter().map(Ok).collect(), stats)
    }

    /// Physically merge `segments` into one, dropping tombstoned rows
    /// ("the obsoleted vectors are removed during segment merge", §2.3).
    ///
    /// # Panics
    /// Panics if `segments` is empty or schemas disagree on column counts.
    pub fn merge(new_id: u64, schema: &Schema, segments: &[&Segment]) -> Segment {
        assert!(!segments.is_empty(), "merge needs at least one segment");
        let nvec = segments[0].data.vectors.len();
        // Collect (id, segment_idx, row) of live rows; later segments win on
        // id collisions (updates = delete + insert, so collisions only occur
        // transiently).
        let mut rows: Vec<(i64, usize, usize)> = Vec::new();
        for (si, seg) in segments.iter().enumerate() {
            let mut keep = |r: usize| rows.push((seg.data.row_ids[r], si, r));
            match &seg.live {
                None => (0..seg.num_rows()).for_each(&mut keep),
                Some(live) => live.iter().for_each(&mut keep),
            }
        }
        rows.sort_by_key(|&(id, si, _)| (id, std::cmp::Reverse(si)));
        rows.dedup_by_key(|&mut (id, _, _)| id);

        let row_ids: Vec<i64> = rows.iter().map(|&(id, _, _)| id).collect();
        let mut vectors = Vec::with_capacity(nvec);
        for f in 0..nvec {
            let dim = segments[0].data.vectors[f].dim();
            let mut col = VectorSet::with_capacity(dim, rows.len());
            for &(_, si, r) in &rows {
                col.push(segments[si].data.vectors[f].get(r));
            }
            vectors.push(col.into());
        }
        let mut attributes = Vec::with_capacity(segments[0].data.attributes.len());
        for (a, name) in schema.attribute_fields.iter().enumerate() {
            let vals =
                rows.iter().map(|&(_, si, r)| segments[si].data.attributes[a].value_at(r)).collect();
            attributes.push(AttributeColumn::build(name.clone(), vals));
        }
        Segment::from_parts(new_id, 1, SegmentData { row_ids, vectors, attributes }, &[])
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("id", &self.id)
            .field("version", &self.version)
            .field("rows", &self.num_rows())
            .field("deleted", &(self.num_rows() - self.live_rows()))
            .field("indexes", &self.indexes.read().keys().collect::<Vec<_>>())
            .finish()
    }
}

/// `live` (`None`: every row) with the rows holding `ids` cleared; ids stored
/// nowhere in `row_ids` (sorted ascending) are ignored.
fn tombstoned(
    row_ids: &[i64],
    live: Option<&RowMask>,
    ids: impl IntoIterator<Item = i64>,
) -> Option<Arc<RowMask>> {
    let mut live = live.cloned();
    for id in ids {
        if let Ok(row) = row_ids.binary_search(&id) {
            live.get_or_insert_with(|| RowMask::all(row_ids.len())).set(row, false);
        }
    }
    live.map(Arc::new)
}

/// Merge per-segment sorted results into a global top-k (the segment is the
/// unit of searching; results must be recombined, §2.3).
pub fn merge_segment_results(lists: &[Vec<Neighbor>], k: usize) -> Vec<Neighbor> {
    topk::merge_sorted(lists, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_index::Metric;

    fn schema() -> Schema {
        Schema::single("v", 2, Metric::L2).with_attribute("price")
    }

    fn batch(ids: Vec<i64>) -> InsertBatch {
        let n = ids.len();
        let mut vs = VectorSet::new(2);
        for &id in &ids {
            vs.push(&[id as f32, 0.0]);
        }
        InsertBatch { ids, vectors: vec![vs], attributes: vec![(0..n).map(|i| i as f64).collect()] }
    }

    #[test]
    fn rows_sorted_by_id() {
        let seg = Segment::from_batch(1, &schema(), &batch(vec![5, 1, 3])).unwrap();
        assert_eq!(seg.data().row_ids, vec![1, 3, 5]);
        // Vector column gathered in the same order.
        assert_eq!(seg.data().vectors[0].get(0), &[1.0, 0.0]);
        assert_eq!(seg.data().vectors[0].get(2), &[5.0, 0.0]);
    }

    #[test]
    fn brute_force_search() {
        let seg = Segment::from_batch(1, &schema(), &batch(vec![1, 2, 3, 4])).unwrap();
        let res = seg
            .search_field(&schema(), "v", &[2.1, 0.0], &SearchParams::top_k(2), None)
            .unwrap();
        assert_eq!(res[0].id, 2);
    }

    #[test]
    fn tombstones_hide_rows() {
        let seg = Segment::from_batch(1, &schema(), &batch(vec![1, 2, 3])).unwrap();
        let v2 = seg.with_deletes([2]);
        assert_eq!(v2.version, 2);
        assert_eq!(v2.live_rows(), 2);
        assert!(v2.is_deleted(2));
        // Original version untouched (snapshot isolation).
        assert_eq!(seg.live_rows(), 3);
        let res = v2
            .search_field(&schema(), "v", &[2.0, 0.0], &SearchParams::top_k(1), None)
            .unwrap();
        assert_ne!(res[0].id, 2);
    }

    #[test]
    fn delete_of_absent_id_ignored() {
        let seg = Segment::from_batch(1, &schema(), &batch(vec![1, 2])).unwrap();
        let v2 = seg.with_deletes([99]);
        assert_eq!(v2.live_rows(), 2);
    }

    #[test]
    fn merge_drops_tombstones() {
        let s1 = Segment::from_batch(1, &schema(), &batch(vec![1, 2, 3])).unwrap().with_deletes([2]);
        let s2 = Segment::from_batch(2, &schema(), &batch(vec![4, 5])).unwrap();
        let merged = Segment::merge(10, &schema(), &[&s1, &s2]);
        assert_eq!(merged.data().row_ids, vec![1, 3, 4, 5]);
        assert_eq!(merged.deleted().len(), 0);
        // Attribute column survives with per-row values intact.
        // `batch` gives each segment's rows the values 0, 1, 2…: id 1 and
        // id 4 carried 0.0 and now sit at rows 0 and 2.
        assert_eq!(merged.data().attributes[0].point_rows(0.0), &[0, 2]);
    }

    #[test]
    fn indexed_search_masks_deletes() {
        let sch = schema();
        let seg = Segment::from_batch(1, &sch, &batch((0..200).collect())).unwrap();
        let reg = IndexRegistry::with_builtins();
        let p = BuildParams { nlist: 8, ..Default::default() };
        let indexed = seg.build_index(&sch, "v", "IVF_FLAT", &reg, &p).unwrap();
        assert_eq!(indexed.version, 2);
        assert!(indexed.index("v").is_some());
        let v3 = indexed.with_deletes([7]);
        let sp = SearchParams { k: 3, nprobe: 8, ..Default::default() };
        let res = v3.search_field(&sch, "v", &[7.0, 0.0], &sp, None).unwrap();
        assert!(res.iter().all(|n| n.id != 7));
    }

    fn wide_segment(rows: usize, dim: usize, metric: Metric) -> (Schema, Segment) {
        let schema = Schema::single("v", dim, metric);
        let mut vs = VectorSet::with_capacity(dim, rows);
        for r in 0..rows {
            let v: Vec<f32> = (0..dim).map(|d| ((r * 31 + d * 7) as f32 * 0.013).sin()).collect();
            vs.push(&v);
        }
        // Ids arrive shuffled: row order is id order, not arrival order.
        let ids = (0..rows as i64).map(|i| (i * 7919) % rows as i64).collect();
        let seg = Segment::from_batch(1, &schema, &InsertBatch::single(ids, vs)).unwrap();
        (schema, seg)
    }

    fn ivf_flat(schema: &Schema, seg: &Segment) -> Segment {
        let reg = IndexRegistry::with_builtins();
        let p = BuildParams { kmeans_iters: 3, ..Default::default() };
        seg.build_index(schema, "v", "IVF_FLAT", &reg, &p).unwrap()
    }

    /// The stored-bytes metric is computed from `memory_bytes()`, so it is
    /// pinned to allocations here: an L2 IVF_FLAT segment holds its vectors
    /// in **one** buffer, and what it reports covers every buffer it holds.
    #[test]
    fn indexed_column_and_index_share_one_buffer_counted_once() {
        let (rows, dim) = (2000, 128);
        let (schema, plain) = wide_segment(rows, dim, Metric::L2);
        let seg = ivf_flat(&schema, &plain);
        let index = seg.index("v").unwrap();
        let payload = index.as_ivf().unwrap().shared_vectors().unwrap();
        let col = &seg.data().vectors[0];
        assert!(Arc::ptr_eq(col.buffer(), payload));
        assert_eq!(Arc::strong_count(payload), 2, "column + index, nothing else");
        // The id-ordered copy lives on only in the version it belongs to.
        assert!(!Arc::ptr_eq(plain.data().vectors[0].buffer(), payload));

        let structure = index.memory_bytes() - payload.memory_bytes();
        let allocated = seg.data().row_ids.capacity() * 8
            + payload.allocated_bytes()
            + std::mem::size_of_val(col.slot_of_row().unwrap())
            + structure;
        let user = rows * (dim * 4 + 8);
        assert!(seg.memory_bytes() >= allocated);
        assert!(seg.memory_bytes() * 100 <= user * 108, "{} vs {user}", seg.memory_bytes());
        assert_eq!(seg.index_bytes(), structure);
        assert_eq!(seg.memory_bytes(), seg.data().memory_bytes() + structure);
        let blob = crate::codec::encode_segment(&seg).len();
        assert!(blob * 100 <= user * 108, "{blob} vs {user}");

        // Same rows, same answers as before the reorder.
        for (row, v) in plain.data().vectors[0].iter().enumerate() {
            assert_eq!(col.get(row), v);
        }
    }

    /// Cosine's FLAT payload is the *normalized* vectors — derived data the
    /// column must not adopt: two buffers, both counted.
    #[test]
    fn cosine_keeps_its_column_beside_the_normalized_payload() {
        let (schema, plain) = wide_segment(300, 8, Metric::Cosine);
        let seg = ivf_flat(&schema, &plain);
        let index = seg.index("v").unwrap();
        assert!(index.as_ivf().unwrap().shared_vectors().is_none());
        let col = &seg.data().vectors[0];
        assert!(Arc::ptr_eq(col.buffer(), plain.data().vectors[0].buffer()));
        assert!(col.slot_of_row().is_none());
        assert_eq!(seg.index_bytes(), index.memory_bytes());
        assert!(index.memory_bytes() > col.memory_bytes());
        assert_eq!(seg.memory_bytes(), seg.data().memory_bytes() + index.memory_bytes());
    }

    /// A rebuild reads the reordered column by row: another IVF_FLAT adopts
    /// its own new buffer, an index with none to share puts the column back
    /// in row order.
    #[test]
    fn rebuilding_over_a_reordered_column() {
        let (schema, plain) = wide_segment(400, 8, Metric::L2);
        let first = ivf_flat(&schema, &plain);
        let reg = IndexRegistry::with_builtins();
        let p = BuildParams { kmeans_iters: 3, seed: 9, ..Default::default() };
        for ty in ["IVF_FLAT", "IVF_SQ8", "HNSW"] {
            let again = first.build_index(&schema, "v", ty, &reg, &p).unwrap();
            let col = &again.data().vectors[0];
            assert!(col.iter().eq(plain.data().vectors[0].iter()), "{ty}");
            assert_eq!(col.slot_of_row().is_some(), ty == "IVF_FLAT");
            assert!(!Arc::ptr_eq(col.buffer(), first.data().vectors[0].buffer()));
            let q = plain.data().vectors[0].get(17);
            let sp = SearchParams { k: 1, nprobe: 64, ..Default::default() };
            let hit = again.search_field(&schema, "v", q, &sp, None).unwrap();
            assert_eq!(hit[0].id, plain.data().row_ids[17], "{ty}");
        }
    }

    /// Merging reads vectors by row, so indexed inputs (bucket-ordered
    /// columns, tombstones and all) merge to the very bytes their unindexed
    /// twins do.
    #[test]
    fn merge_of_indexed_segments_equals_merge_of_their_unindexed_twins() {
        let schema = schema();
        let a = Segment::from_batch(1, &schema, &batch((0..300).rev().collect())).unwrap();
        let b = Segment::from_batch(2, &schema, &batch((300..500).collect())).unwrap();
        let dead = |s: &Segment| s.with_deletes((0..500).filter(|id| id % 3 == 0));
        let (ia, ib) = (dead(&ivf_flat(&schema, &a)), dead(&ivf_flat(&schema, &b)));
        assert!(ia.data().vectors[0].slot_of_row().is_some());
        let indexed = Segment::merge(9, &schema, &[&ia, &ib]);
        let plain = Segment::merge(9, &schema, &[&dead(&a), &dead(&b)]);
        assert_eq!(indexed.num_rows(), 333);
        assert_eq!(
            crate::codec::encode_segment(&indexed),
            crate::codec::encode_segment(&plain)
        );
    }

    #[test]
    fn search_with_allow_filter() {
        let seg =
            Segment::from_batch(1, &schema(), &batch((0..50).collect())).unwrap().with_deletes([3]);
        let first_ten = RowMask::from_positions(50, &(0..10).collect::<Vec<u32>>());
        let res = seg
            .search_field(&schema(), "v", &[25.0, 0.0], &SearchParams::top_k(50), Some(&first_ten))
            .unwrap();
        // Visible = allowed ∧ live, nearest (largest id) first.
        assert_eq!(res.iter().map(|n| n.id).collect::<Vec<_>>(), [9, 8, 7, 6, 5, 4, 2, 1, 0]);
    }

    #[test]
    fn unknown_field_errors() {
        let seg = Segment::from_batch(1, &schema(), &batch(vec![1])).unwrap();
        assert!(seg
            .search_field(&schema(), "nope", &[0.0, 0.0], &SearchParams::top_k(1), None)
            .is_err());
    }

    #[test]
    fn merge_result_combination() {
        let l1 = vec![Neighbor::new(1, 0.5)];
        let l2 = vec![Neighbor::new(2, 0.1)];
        let merged = merge_segment_results(&[l1, l2], 1);
        assert_eq!(merged[0].id, 2);
    }
}
