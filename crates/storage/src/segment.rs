//! Immutable segments — "the basic unit of searching, scheduling, and
//! buffering" (§2.3).
//!
//! A segment's payload ([`SegmentData`]) never changes after flush. New
//! *versions* of a segment are created when its tombstone set or indexes
//! change (§5.2: "a new version is generated whenever the data or index in
//! that segment is changed"); versions share the payload via `Arc`, which is
//! what makes snapshots cheap and lets GC reclaim payloads only when the last
//! referencing snapshot drops.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use milvus_exec::Executor;
use milvus_index::batch::{cache_aware_scan, BatchOptions, Rows};
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{registry::IndexRegistry, Metric, Neighbor, TopK, VectorIndex, VectorSet};
use milvus_obs as obs;
use parking_lot::RwLock;

use crate::attribute::AttributeColumn;
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

/// Honor any armed scan fault for `segment_id`: once per single-query scan
/// ([`Segment::search_field_stats`]), once per batched one
/// ([`Segment::search_batch`]).
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
    /// Entity ids, sorted ascending (vectors are stored in this order, §2.4).
    pub row_ids: Vec<i64>,
    /// One vector column per schema vector field.
    pub vectors: Vec<VectorSet>,
    /// One attribute column per schema attribute field.
    pub attributes: Vec<AttributeColumn>,
}

impl SegmentData {
    /// Payload bytes (vectors + attributes + ids).
    pub fn memory_bytes(&self) -> usize {
        self.row_ids.len() * 8
            + self.vectors.iter().map(VectorSet::memory_bytes).sum::<usize>()
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
    deleted: Arc<HashSet<i64>>,
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
        let vectors: Vec<VectorSet> =
            batch.vectors.iter().map(|col| col.gather(&order)).collect();
        let attributes: Vec<AttributeColumn> = batch
            .attributes
            .iter()
            .zip(&schema.attribute_fields)
            .map(|(col, name)| {
                let sorted_vals: Vec<f64> = order.iter().map(|&i| col[i]).collect();
                AttributeColumn::build(name.clone(), &sorted_vals, &row_ids)
            })
            .collect();
        Ok(Self {
            id,
            version: 1,
            data: Arc::new(SegmentData { row_ids, vectors, attributes }),
            deleted: Arc::new(HashSet::new()),
            indexes: RwLock::new(HashMap::new()),
        })
    }

    /// Construct directly from parts (codec decode, merges).
    pub fn from_parts(id: u64, version: u64, data: SegmentData, deleted: HashSet<i64>) -> Self {
        Self {
            id,
            version,
            data: Arc::new(data),
            deleted: Arc::new(deleted),
            indexes: RwLock::new(HashMap::new()),
        }
    }

    /// Borrow the immutable payload.
    pub fn data(&self) -> &SegmentData {
        &self.data
    }

    /// Tombstoned ids.
    pub fn deleted(&self) -> &HashSet<i64> {
        &self.deleted
    }

    /// Total rows including tombstoned ones.
    pub fn num_rows(&self) -> usize {
        self.data.row_ids.len()
    }

    /// Rows visible to queries.
    pub fn live_rows(&self) -> usize {
        self.num_rows() - self.deleted.len()
    }

    /// Whether `id` is stored here (regardless of tombstones).
    pub fn contains_id(&self, id: i64) -> bool {
        self.data.row_ids.binary_search(&id).is_ok()
    }

    /// Whether `id` is tombstoned in this version.
    pub fn is_deleted(&self, id: i64) -> bool {
        self.deleted.contains(&id)
    }

    /// New version with additional tombstones; payload and indexes are shared
    /// (out-of-place delete, §2.3).
    pub fn with_deletes(&self, ids: impl IntoIterator<Item = i64>) -> Segment {
        let mut deleted = (*self.deleted).clone();
        for id in ids {
            if self.contains_id(id) {
                deleted.insert(id);
            }
        }
        Segment {
            id: self.id,
            version: self.version + 1,
            data: Arc::clone(&self.data),
            deleted: Arc::new(deleted),
            indexes: RwLock::new(self.indexes.read().clone()),
        }
    }

    /// Payload + tombstone bytes (bufferpool accounting; the segment is the
    /// caching unit, §2.4).
    pub fn memory_bytes(&self) -> usize {
        let idx: usize = self.indexes.read().values().map(|i| i.memory_bytes()).sum();
        self.data.memory_bytes() + self.deleted.len() * 8 + idx
    }

    /// Build (or rebuild) an index on `field` over the live rows.
    ///
    /// Returns a **new version** of the segment carrying the index (§5.2: a
    /// new version is generated upon building index).
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
        let col = &self.data.vectors[fi];
        // Index live rows only.
        let live: Vec<usize> = (0..self.num_rows())
            .filter(|&r| !self.deleted.contains(&self.data.row_ids[r]))
            .collect();
        let vectors = col.gather(&live);
        let ids: Vec<i64> = live.iter().map(|&r| self.data.row_ids[r]).collect();
        let mut build = params.clone();
        build.metric = schema.vector_fields[fi].metric;
        let index: Arc<dyn VectorIndex> = Arc::from(registry.build(index_type, &vectors, &ids, &build)?);
        let next = Segment {
            id: self.id,
            version: self.version + 1,
            data: Arc::clone(&self.data),
            deleted: Arc::clone(&self.deleted),
            indexes: RwLock::new(self.indexes.read().clone()),
        };
        next.indexes.write().insert(field.to_string(), index);
        Ok(next)
    }

    /// The index on `field`, if one was built.
    pub fn index(&self, field: &str) -> Option<Arc<dyn VectorIndex>> {
        self.indexes.read().get(field).cloned()
    }

    /// Attach a pre-built index (segment codec restore path).
    pub fn attach_index(&self, field: impl Into<String>, index: Arc<dyn VectorIndex>) {
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

    /// Search one vector field of this segment. Uses the field's index when
    /// present (masking tombstones), otherwise a brute-force columnar scan.
    pub fn search_field(
        &self,
        schema: &Schema,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        allow: Option<&dyn Fn(i64) -> bool>,
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
        allow: Option<&dyn Fn(i64) -> bool>,
    ) -> Result<(Vec<Neighbor>, ScanStats)> {
        apply_scan_fault(self.id);
        let fi = schema
            .vector_field_index(field)
            .ok_or_else(|| StorageError::SchemaViolation(format!("no vector field {field}")))?;
        let metric = schema.vector_fields[fi].metric;
        let stats = ScanStats { rows_scanned: self.live_rows() as u64, used_index: false };

        if let Some(index) = self.index(field) {
            // No tombstones and no user filter: take the unfiltered search
            // path, whose bucket scans run register-tiled with zero per-row
            // predicate dispatch. Wrapping an always-true closure here would
            // force every scanned row through an indirect call.
            if self.deleted.is_empty() && allow.is_none() {
                let res = index.search(query, params)?;
                return Ok((res, ScanStats { used_index: true, ..stats }));
            }
            let deleted = Arc::clone(&self.deleted);
            let pred = move |id: i64| !deleted.contains(&id) && allow.is_none_or(|f| f(id));
            let res = index.search_filtered(query, params, &pred)?;
            return Ok((res, ScanStats { used_index: true, ..stats }));
        }

        let col = &self.data.vectors[fi];
        if query.len() != col.dim() {
            return Err(StorageError::Index(milvus_index::IndexError::DimensionMismatch {
                expected: col.dim(),
                got: query.len(),
            }));
        }
        let mut heap = TopK::new(params.k.max(1));
        for (row, v) in col.iter().enumerate() {
            let id = self.data.row_ids[row];
            if !self.deleted.contains(&id) && allow.is_none_or(|f| f(id)) {
                heap.push(id, distance::distance(metric, query, v));
            }
        }
        Ok((heap.into_sorted(), stats))
    }

    /// Search one vector field for a batch of queries that share `params`
    /// except for `k` (`ks[j]` is query `j`'s). Returns one result per query
    /// in input order, each bit-identical to
    /// [`Self::search_field_stats`] at that query's own `k`.
    ///
    /// This is the only place that knows which scans may batch:
    ///
    /// * delete-free, indexed — [`VectorIndex::search_batch`] (IVF overrides
    ///   it with the bucket-major sweep; the default is the per-query loop)
    ///   at `max(ks)`, each sorted list truncated to its own `k`. Truncation
    ///   is exact only for IVF's exhaustive bucket scans, so a mixed-`k`
    ///   batch on a graph/tree index runs per query instead.
    /// * delete-free, unindexed, SIMD metric — the cache-aware batch engine
    ///   over the segment's own column, zero-copy.
    /// * everything else (one query, an `allow` filter, tombstones, binary
    ///   metrics, a query of the wrong dimension) — `search_field_stats` per
    ///   query, so every query gets exactly its own result or error.
    pub fn search_batch(
        &self,
        schema: &Schema,
        field: &str,
        queries: &[&[f32]],
        ks: &[usize],
        params: &SearchParams,
        allow: Option<&dyn Fn(i64) -> bool>,
    ) -> (Vec<Result<Vec<Neighbor>>>, ScanStats) {
        let index = self.index(field);
        let stats =
            ScanStats { rows_scanned: self.live_rows() as u64, used_index: index.is_some() };
        let per_query = || {
            queries
                .iter()
                .zip(ks)
                .map(|(q, &k)| {
                    let own = SearchParams { k, ..params.clone() };
                    self.search_field(schema, field, q, &own, allow)
                })
                .collect()
        };
        let Some(fi) = schema.vector_field_index(field) else { return (per_query(), stats) };
        let col = &self.data.vectors[fi];
        let metric = schema.vector_fields[fi].metric;
        let uniform_k = ks.iter().all(|&k| k == ks[0]);
        let batchable = queries.len() > 1
            && allow.is_none()
            && self.deleted.is_empty()
            && queries.iter().all(|q| q.len() == col.dim())
            && match &index {
                Some(index) => uniform_k || index.as_ivf().is_some(),
                None => matches!(metric, Metric::L2 | Metric::InnerProduct | Metric::Cosine),
            };
        if !batchable {
            return (per_query(), stats);
        }

        apply_scan_fault(self.id);
        let mut qs = VectorSet::with_capacity(col.dim(), queries.len());
        for q in queries {
            qs.push(q);
        }
        let lists = match index {
            Some(index) => {
                let kmax = ks.iter().copied().max().unwrap_or(1);
                let at_kmax = SearchParams { k: kmax, ..params.clone() };
                let Ok(mut lists) = index.search_batch(&qs, &at_kmax) else {
                    // Errors are not `Clone`: rerun per query so each caller
                    // gets its own.
                    return (per_query(), stats);
                };
                for (list, &k) in lists.iter_mut().zip(ks) {
                    list.truncate(k.max(1));
                }
                lists
            }
            None => {
                let exec = Executor::global();
                let opts = BatchOptions { metric, threads: exec.threads(), ..Default::default() };
                let off = &mut obs::Trace::disabled();
                cache_aware_scan(exec, Rows::F32(col), &self.data.row_ids, &qs, ks, &opts, off)
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
            for (r, &id) in seg.data.row_ids.iter().enumerate() {
                if !seg.deleted.contains(&id) {
                    rows.push((id, si, r));
                }
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
            vectors.push(col);
        }
        let mut attributes = Vec::with_capacity(segments[0].data.attributes.len());
        for (a, name) in schema.attribute_fields.iter().enumerate() {
            // Rebuild from per-row values: look up each row's value via the
            // source column (id → value map per segment).
            let maps: Vec<HashMap<i64, f64>> = segments
                .iter()
                .map(|s| s.data.attributes[a].iter().map(|(v, id)| (id, v)).collect())
                .collect();
            let vals: Vec<f64> = rows.iter().map(|&(id, si, _)| maps[si][&id]).collect();
            attributes.push(AttributeColumn::build(name.clone(), &vals, &row_ids));
        }
        Segment::from_parts(new_id, 1, SegmentData { row_ids, vectors, attributes }, HashSet::new())
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("id", &self.id)
            .field("version", &self.version)
            .field("rows", &self.num_rows())
            .field("deleted", &self.deleted.len())
            .field("indexes", &self.indexes.read().keys().collect::<Vec<_>>())
            .finish()
    }
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
        let rows = merged.data().attributes[0].point_rows(0.0);
        assert!(rows.contains(&1) && rows.contains(&4));
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

    #[test]
    fn search_with_allow_filter() {
        let seg = Segment::from_batch(1, &schema(), &batch((0..50).collect())).unwrap();
        let res = seg
            .search_field(&schema(), "v", &[25.0, 0.0], &SearchParams::top_k(5), Some(&|id| id < 10))
            .unwrap();
        assert!(res.iter().all(|n| n.id < 10));
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
