//! The LSM engine (§2.3): memtable → flush → immutable segments → tiered
//! merge, with WAL durability and snapshot publication.
//!
//! This type is synchronous; the asynchronous façade of §5.1 (ack after WAL
//! append, background apply thread, `flush()` barrier) lives in
//! `milvus-core::ingest` on top of it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use milvus_obs as obs;
use parking_lot::Mutex;

use crate::codec;
use crate::entity::{InsertBatch, Schema};
use crate::error::Result;
use crate::memtable::MemTable;
use crate::merge::{MergePolicy, SegmentMeta};
use crate::object_store::ObjectStore;
use crate::segment::Segment;
use crate::snapshot::{Snapshot, SnapshotManager};
use crate::wal::{LogRecord, Wal};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush the memtable once it buffers this many bytes (§2.3's size
    /// threshold; the paper also flushes once a second — the timer lives in
    /// the core crate's background thread).
    pub flush_threshold_bytes: usize,
    /// Tiered merge policy.
    pub merge_policy: MergePolicy,
    /// Run the merge planner automatically after each flush.
    pub auto_merge: bool,
    /// Persist segments to the object store on flush/merge.
    pub persist_segments: bool,
    /// Label stamped on this engine's metric series — the collection name
    /// when the engine backs a collection.
    pub metrics_label: String,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            flush_threshold_bytes: 64 << 20,
            merge_policy: MergePolicy::default(),
            auto_merge: true,
            persist_segments: true,
            metrics_label: "default".to_string(),
        }
    }
}

/// Object-store key for a segment version.
fn segment_key(id: u64, version: u64) -> String {
    format!("segments/{id:012}.v{version:06}.seg")
}

/// The LSM storage engine for one collection.
pub struct LsmEngine {
    schema: Schema,
    config: LsmConfig,
    memtable: Mutex<MemTable>,
    snapshots: SnapshotManager,
    wal: Option<Mutex<Wal>>,
    store: Arc<dyn ObjectStore>,
    next_segment_id: AtomicU64,
}

impl LsmEngine {
    /// Create a fresh engine. Pass a WAL path for durability; `None` runs
    /// log-less (tests, ephemeral readers).
    pub fn new(
        schema: Schema,
        config: LsmConfig,
        store: Arc<dyn ObjectStore>,
        wal_path: Option<&std::path::Path>,
    ) -> Result<Self> {
        schema.validate()?;
        let wal = match wal_path {
            Some(p) => Some(Mutex::new(Wal::open(p)?.with_label(&config.metrics_label))),
            None => None,
        };
        Ok(Self {
            schema: schema.clone(),
            config,
            memtable: Mutex::new(MemTable::new(schema)),
            snapshots: SnapshotManager::new(),
            wal,
            store,
            next_segment_id: AtomicU64::new(1),
        })
    }

    /// Open an engine over already-persisted segments in `store` (no WAL
    /// replay — used by standby writers whose log lives in shared storage,
    /// §5.3).
    pub fn open_from_store(
        schema: Schema,
        config: LsmConfig,
        store: Arc<dyn ObjectStore>,
        wal_path: Option<&std::path::Path>,
    ) -> Result<Self> {
        let engine = Self::new(schema, config, Arc::clone(&store), wal_path)?;

        // Load the newest version of each persisted segment.
        let keys = store.list("segments/")?;
        let mut latest: std::collections::BTreeMap<u64, (u64, String)> = Default::default();
        for key in keys {
            if let Some((id, version)) = parse_segment_key(&key) {
                let entry = latest.entry(id).or_insert((version, key.clone()));
                if version > entry.0 {
                    *entry = (version, key);
                }
            }
        }
        let mut segments = Vec::new();
        let mut max_id = 0;
        for (id, (version, key)) in latest {
            let blob = engine.store_get(&key)?;
            segments.push(Arc::new(codec::decode_segment(id, version, &blob)?));
            max_id = max_id.max(id);
        }
        engine.next_segment_id.store(max_id + 1, Ordering::SeqCst);
        if !segments.is_empty() {
            engine.snapshots.publish(segments);
        }
        engine.record_segment_gauge();
        Ok(engine)
    }

    /// Recover an engine from persisted segments + WAL tail (crash restart,
    /// §5.3: "If the writer instance crashes, Milvus relies on WAL").
    pub fn recover(
        schema: Schema,
        config: LsmConfig,
        store: Arc<dyn ObjectStore>,
        wal_path: &std::path::Path,
    ) -> Result<Self> {
        let engine = Self::open_from_store(schema, config, store, Some(wal_path))?;

        // Replay the un-checkpointed WAL tail into the memtable.
        for rec in Wal::replay(wal_path)? {
            match rec {
                LogRecord::Insert { lsn, batch, .. } => engine.replay_insert(&batch, lsn)?,
                LogRecord::Delete { lsn, ids } => engine.apply_delete(&ids, lsn),
                LogRecord::FlushCheckpoint { .. } => {}
            }
        }
        Ok(engine)
    }

    /// The one replay-apply, used by [`LsmEngine::recover`] and by a standby
    /// writer replaying the shipped log: buffer a logged insert, skipping
    /// the rows that are already live. That makes replay idempotent — a
    /// crash after a segment `put` but before its checkpoint (or a
    /// checkpoint the network lost) replays records whose rows a loaded
    /// segment already holds.
    pub fn replay_insert(&self, batch: &InsertBatch, lsn: u64) -> Result<()> {
        batch.validate(&self.schema)?;
        let snap = self.snapshots.current();
        let mut mt = self.memtable.lock();
        let fresh: Vec<usize> =
            (0..batch.len()).filter(|&row| !is_live(&mt, &snap, batch.ids[row])).collect();
        if fresh.len() == batch.len() {
            mt.append(batch);
        } else if !fresh.is_empty() {
            mt.append(&batch.gather(&fresh));
        }
        mt.mark_applied(lsn);
        Ok(())
    }

    /// The collection schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Engine configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// The shared object store.
    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    /// Pin the current snapshot (§5.2).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshots.current()
    }

    /// `store.put` with per-collection throughput and error accounting.
    /// Injected faults surface here as [`obs::OBJECT_ERRORS`] increments.
    fn store_put(&self, key: &str, data: bytes::Bytes) -> Result<()> {
        let label = &self.config.metrics_label;
        let bytes = data.len() as u64;
        match self.store.put(key, data) {
            Ok(()) => {
                obs::counter(obs::OBJECT_PUTS, label).inc();
                obs::counter(obs::OBJECT_PUT_BYTES, label).add(bytes);
                Ok(())
            }
            Err(e) => {
                obs::counter(obs::OBJECT_ERRORS, label).inc();
                Err(e)
            }
        }
    }

    /// `store.get` with per-collection throughput and error accounting.
    /// A missing object is a lookup result, not a store fault.
    fn store_get(&self, key: &str) -> Result<bytes::Bytes> {
        let label = &self.config.metrics_label;
        match self.store.get(key) {
            Ok(data) => {
                obs::counter(obs::OBJECT_GETS, label).inc();
                obs::counter(obs::OBJECT_GET_BYTES, label).add(data.len() as u64);
                Ok(data)
            }
            Err(e) => {
                if !matches!(e, crate::error::StorageError::ObjectNotFound(_)) {
                    obs::counter(obs::OBJECT_ERRORS, label).inc();
                }
                Err(e)
            }
        }
    }

    /// Publish the current snapshot's segment count to the [`obs::SEGMENTS`]
    /// gauge and its resident bytes to the [`obs::STORED_BYTES`] gauges.
    fn record_segment_gauge(&self) {
        let (snap, label) = (self.snapshots.current(), &self.config.metrics_label);
        obs::gauge(obs::SEGMENTS, label).set(snap.segments.len() as i64);
        let bytes = snap.stored_bytes();
        for (component, value) in
            [("segment", bytes.segment), ("index", bytes.index), ("tombstones", bytes.tombstones)]
        {
            obs::gauge_component(obs::STORED_BYTES, label, component).set(value as i64);
        }
    }

    /// Entities buffered but not yet flushed.
    pub fn pending_rows(&self) -> usize {
        self.memtable.lock().len()
    }

    /// Whether `id` is currently live: buffered in the memtable, or present
    /// in a flushed segment and not tombstoned (by a segment tombstone or a
    /// pending memtable delete). Used by log-replay paths to skip records
    /// whose effects are already materialized.
    pub fn contains_live(&self, id: i64) -> bool {
        is_live(&self.memtable.lock(), &self.snapshots.current(), id)
    }

    /// Append to the WAL (when configured) through `append`; 0 without one.
    fn log(&self, append: impl FnOnce(&mut Wal) -> Result<u64>) -> Result<u64> {
        self.wal.as_ref().map_or(Ok(0), |wal| append(&mut wal.lock()))
    }

    /// Insert a batch: WAL append (when configured) → memtable → maybe flush.
    pub fn insert(&self, batch: InsertBatch) -> Result<()> {
        batch.validate(&self.schema)?;
        let snap = self.snapshots.current();
        let should_flush = {
            let mut mt = self.memtable.lock();
            // Reject ids already live (primary-key property) before the
            // batch is logged — a flushed id that an unflushed delete
            // tombstones is not live (update = delete + insert, §2.3).
            if let Some(&id) = batch.ids.iter().find(|&&id| is_live(&mt, &snap, id)) {
                return Err(crate::error::StorageError::DuplicateId(id));
            }
            let lsn = self.log(|wal| wal.append_insert(&batch))?;
            mt.append(&batch);
            mt.mark_applied(lsn);
            mt.memory_bytes() >= self.config.flush_threshold_bytes
        };
        if should_flush {
            self.flush()?;
        }
        Ok(())
    }

    /// §5.1 split path, step 1: materialize an insert to the WAL **only**
    /// (the foreground ack point) and return its LSN (0 without a WAL).
    /// Validates the batch and the primary-key property so the caller learns
    /// about bad input synchronously.
    ///
    /// The split path's contract: every logged operation is handed to
    /// `apply_insert` / `apply_delete` with its LSN, **in LSN order**, and
    /// not interleaved with [`LsmEngine::insert`] / [`LsmEngine::delete`] —
    /// a flush checkpoints the highest applied LSN, which covers everything
    /// below it.
    pub fn log_insert(&self, batch: &InsertBatch) -> Result<u64> {
        self.log_insert_with_overlay(batch, &HashSet::new())
    }

    /// [`LsmEngine::log_insert`] with a set of ids whose deletes have been
    /// logged but not yet applied by the background thread — those ids are
    /// legal to re-insert (update = delete + insert racing the async apply).
    pub fn log_insert_with_overlay(
        &self,
        batch: &InsertBatch,
        unapplied_deletes: &HashSet<i64>,
    ) -> Result<u64> {
        batch.validate(&self.schema)?;
        let snap = self.snapshots.current();
        {
            let mt = self.memtable.lock();
            for &id in &batch.ids {
                if is_live(&mt, &snap, id) && !unapplied_deletes.contains(&id) {
                    return Err(crate::error::StorageError::DuplicateId(id));
                }
            }
        }
        self.log(|wal| wal.append_insert(batch))
    }

    /// §5.1 split path, step 2: apply the insert logged as `lsn` to the
    /// memtable (the background thread's work). No WAL append. Returns
    /// whether the memtable has reached the flush threshold.
    pub fn apply_insert(&self, batch: &InsertBatch, lsn: u64) -> Result<bool> {
        let mut mt = self.memtable.lock();
        mt.insert(batch)?;
        mt.mark_applied(lsn);
        Ok(mt.memory_bytes() >= self.config.flush_threshold_bytes)
    }

    /// §5.1 split path: materialize a delete to the WAL only; returns its
    /// LSN (0 without a WAL).
    pub fn log_delete(&self, ids: &[i64]) -> Result<u64> {
        self.log(|wal| wal.append_delete(ids))
    }

    /// §5.1 split path: apply the delete logged as `lsn` to the memtable.
    pub fn apply_delete(&self, ids: &[i64], lsn: u64) {
        obs::counter(obs::DELETE_ROWS, &self.config.metrics_label).add(ids.len() as u64);
        let mut mt = self.memtable.lock();
        mt.delete(ids);
        mt.mark_applied(lsn);
    }

    /// Delete entities by id (out-of-place, §2.3).
    pub fn delete(&self, ids: &[i64]) -> Result<()> {
        // Logged and applied under one memtable lock, so that a concurrent
        // flush drains either both or neither.
        let mut mt = self.memtable.lock();
        let lsn = self.log(|wal| wal.append_delete(ids))?;
        obs::counter(obs::DELETE_ROWS, &self.config.metrics_label).add(ids.len() as u64);
        mt.delete(ids);
        mt.mark_applied(lsn);
        Ok(())
    }

    /// Force the memtable to disk as a new segment, apply pending deletes as
    /// tombstone versions, publish a new snapshot, then checkpoint and
    /// truncate the WAL at the highest LSN the drained memtable had applied —
    /// never at a record that is logged (and acknowledged) but still waiting
    /// to be applied.
    pub fn flush(&self) -> Result<Arc<Snapshot>> {
        let (batch, deletes, applied_lsn) = self.memtable.lock().drain();
        let did_work = !batch.is_empty() || !deletes.is_empty();
        let span = did_work
            .then(|| obs::span(obs::MEMTABLE_FLUSH_LATENCY, &self.config.metrics_label));
        let snap = self.snapshots.current();
        let mut segments: Vec<Arc<Segment>> = snap.segments.clone();

        // Tombstone flushed rows.
        if !deletes.is_empty() {
            let dels: HashSet<i64> = deletes.iter().copied().collect();
            for slot in segments.iter_mut() {
                if slot.data().row_ids.iter().any(|id| dels.contains(id)) {
                    let next = Arc::new(slot.with_deletes(dels.iter().copied()));
                    if self.config.persist_segments {
                        self.store_put(
                            &segment_key(next.id, next.version),
                            codec::encode_segment(&next),
                        )?;
                        self.store.delete(&segment_key(slot.id, slot.version))?;
                    }
                    *slot = next;
                }
            }
        }

        // Flush inserts as a fresh segment.
        if !batch.is_empty() {
            let id = self.next_segment_id.fetch_add(1, Ordering::SeqCst);
            let seg = Arc::new(Segment::from_batch(id, &self.schema, &batch)?);
            if self.config.persist_segments {
                self.store_put(&segment_key(seg.id, seg.version), codec::encode_segment(&seg))?;
            }
            segments.push(seg);
        }

        let _published = self.snapshots.publish(segments);
        self.record_segment_gauge();
        if did_work {
            obs::counter(obs::MEMTABLE_FLUSHES, &self.config.metrics_label).inc();
        }
        drop(span);

        if let Some(wal) = &self.wal {
            let mut wal = wal.lock();
            wal.append_checkpoint(applied_lsn)?;
            wal.truncate(applied_lsn)?;
        }

        if self.config.auto_merge {
            self.maybe_merge()?;
        }
        Ok(self.snapshots.current())
    }

    /// Run the tiered merge planner once; returns the number of merges done.
    pub fn maybe_merge(&self) -> Result<usize> {
        let snap = self.snapshots.current();
        let metas: Vec<SegmentMeta> = snap
            .segments
            .iter()
            .map(|s| SegmentMeta { id: s.id, bytes: s.data().memory_bytes() })
            .collect();
        let plans = self.config.merge_policy.plan(&metas);
        if plans.is_empty() {
            return Ok(0);
        }
        let _span = obs::span(obs::COMPACTION_LATENCY, &self.config.metrics_label);
        obs::counter(obs::COMPACTIONS, &self.config.metrics_label).add(plans.len() as u64);
        let mut segments = snap.segments.clone();
        for group in &plans {
            let group_set: HashSet<u64> = group.iter().copied().collect();
            let inputs: Vec<&Segment> = segments
                .iter()
                .filter(|s| group_set.contains(&s.id))
                .map(Arc::as_ref)
                .collect();
            if inputs.len() < 2 {
                continue;
            }
            let new_id = self.next_segment_id.fetch_add(1, Ordering::SeqCst);
            let merged = Arc::new(Segment::merge(new_id, &self.schema, &inputs));
            if self.config.persist_segments {
                self.store_put(&segment_key(merged.id, merged.version), codec::encode_segment(&merged))?;
                for s in &segments {
                    if group_set.contains(&s.id) {
                        self.store.delete(&segment_key(s.id, s.version))?;
                    }
                }
            }
            segments.retain(|s| !group_set.contains(&s.id));
            segments.push(merged);
        }
        self.snapshots.publish(segments);
        self.record_segment_gauge();
        Ok(plans.len())
    }

    /// Replace one segment version in the current snapshot (index builds
    /// create new versions, §5.2). No-op if the segment vanished (merged).
    pub fn replace_segment(&self, updated: Arc<Segment>) -> Result<bool> {
        let snap = self.snapshots.current();
        let mut segments = snap.segments.clone();
        let Some(slot) = segments.iter_mut().find(|s| s.id == updated.id) else {
            return Ok(false);
        };
        if self.config.persist_segments {
            self.store_put(&segment_key(updated.id, updated.version), codec::encode_segment(&updated))?;
            self.store.delete(&segment_key(slot.id, slot.version))?;
        }
        *slot = updated;
        self.snapshots.publish(segments);
        self.record_segment_gauge();
        Ok(true)
    }

    /// Snapshot-manager GC tick (the paper's background GC thread calls this).
    pub fn collect_garbage(&self) -> (usize, usize) {
        self.snapshots.collect_garbage()
    }
}

/// Whether `id` is buffered in `mt`, or in a segment of `snap` and not
/// tombstoned there or by a delete pending in `mt`.
fn is_live(mt: &MemTable, snap: &Snapshot, id: i64) -> bool {
    mt.contains(id) || (snap.locate(id).is_some() && !mt.pending_deletes().contains(&id))
}

fn parse_segment_key(key: &str) -> Option<(u64, u64)> {
    // segments/000000000042.v000003.seg
    let stem = key.strip_prefix("segments/")?.strip_suffix(".seg")?;
    let (id_part, v_part) = stem.split_once(".v")?;
    Some((id_part.parse().ok()?, v_part.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_store::MemoryStore;
    use milvus_index::{Metric, VectorSet};

    fn schema() -> Schema {
        Schema::single("v", 2, Metric::L2).with_attribute("price")
    }

    fn batch(ids: std::ops::Range<i64>) -> InsertBatch {
        let id_vec: Vec<i64> = ids.collect();
        let n = id_vec.len();
        let mut vs = VectorSet::new(2);
        for &id in &id_vec {
            vs.push(&[id as f32, 0.0]);
        }
        InsertBatch {
            ids: id_vec,
            vectors: vec![vs],
            attributes: vec![(0..n).map(|i| i as f64).collect()],
        }
    }

    fn engine(flush_bytes: usize) -> LsmEngine {
        let cfg = LsmConfig {
            flush_threshold_bytes: flush_bytes,
            auto_merge: false,
            ..Default::default()
        };
        LsmEngine::new(schema(), cfg, Arc::new(MemoryStore::new()), None).unwrap()
    }

    #[test]
    fn insert_below_threshold_stays_in_memtable() {
        let e = engine(1 << 20);
        e.insert(batch(0..10)).unwrap();
        assert_eq!(e.pending_rows(), 10);
        assert_eq!(e.snapshot().live_rows(), 0); // async visibility (§5.1)
        e.flush().unwrap();
        assert_eq!(e.pending_rows(), 0);
        assert_eq!(e.snapshot().live_rows(), 10);
    }

    #[test]
    fn auto_flush_on_threshold() {
        let e = engine(64); // tiny threshold
        e.insert(batch(0..10)).unwrap();
        assert_eq!(e.snapshot().live_rows(), 10);
    }

    #[test]
    fn delete_tombstones_flushed_rows() {
        let e = engine(1 << 20);
        e.insert(batch(0..5)).unwrap();
        e.flush().unwrap();
        e.delete(&[2, 3]).unwrap();
        e.flush().unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.live_rows(), 3);
        assert!(snap.locate(2).is_none());
        assert!(snap.locate(4).is_some());
    }

    #[test]
    fn update_is_delete_plus_insert() {
        let e = engine(1 << 20);
        e.insert(batch(0..3)).unwrap();
        e.flush().unwrap();
        e.delete(&[1]).unwrap();
        // Re-insert id 1 with a new vector.
        let mut vs = VectorSet::new(2);
        vs.push(&[99.0, 0.0]);
        e.insert(InsertBatch { ids: vec![1], vectors: vec![vs], attributes: vec![vec![5.0]] })
            .unwrap();
        e.flush().unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.live_rows(), 3);
        let seg = snap.locate(1).unwrap();
        let row = seg.data().row_ids.binary_search(&1).unwrap();
        assert_eq!(seg.data().vectors[0].get(row), &[99.0, 0.0]);
    }

    #[test]
    fn duplicate_id_across_flush_rejected() {
        let e = engine(1 << 20);
        e.insert(batch(0..3)).unwrap();
        e.flush().unwrap();
        assert!(matches!(
            e.insert(batch(2..4)),
            Err(crate::error::StorageError::DuplicateId(2))
        ));
    }

    #[test]
    fn snapshot_isolation_across_flush() {
        let e = engine(1 << 20);
        e.insert(batch(0..4)).unwrap();
        e.flush().unwrap();
        let pinned = e.snapshot();
        e.delete(&[0, 1, 2, 3]).unwrap();
        e.flush().unwrap();
        // The pinned snapshot still sees everything.
        assert_eq!(pinned.live_rows(), 4);
        assert_eq!(e.snapshot().live_rows(), 0);
    }

    #[test]
    fn merge_compacts_small_segments() {
        let cfg = LsmConfig {
            flush_threshold_bytes: 1 << 20,
            auto_merge: false,
            merge_policy: MergePolicy { min_segments_per_merge: 2, ..Default::default() },
            ..Default::default()
        };
        let e = LsmEngine::new(schema(), cfg, Arc::new(MemoryStore::new()), None).unwrap();
        for i in 0..4 {
            e.insert(batch(i * 10..i * 10 + 10)).unwrap();
            e.flush().unwrap();
        }
        assert_eq!(e.snapshot().segments.len(), 4);
        e.delete(&[5]).unwrap();
        e.flush().unwrap();
        let merges = e.maybe_merge().unwrap();
        assert!(merges >= 1);
        let snap = e.snapshot();
        assert!(snap.segments.len() < 4);
        assert_eq!(snap.live_rows(), 39);
        // Tombstoned row physically gone after merge.
        for seg in &snap.segments {
            assert!(seg.deleted().is_empty());
        }
    }

    #[test]
    fn wal_recovery_restores_unflushed_rows() {
        let dir = wal_dir("tail");
        let wal_path = dir.join("wal.log");
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());

        {
            let e = LsmEngine::new(schema(), durable_config(), Arc::clone(&store), Some(&wal_path))
                .unwrap();
            e.insert(batch(0..5)).unwrap();
            e.flush().unwrap();
            e.insert(batch(5..8)).unwrap();
            e.delete(&[0]).unwrap();
            // Crash here: rows 5..8 and delete(0) only in the WAL.
        }

        let recovered =
            LsmEngine::recover(schema(), durable_config(), store, &wal_path).unwrap();
        assert_eq!(recovered.snapshot().live_rows(), 5); // flushed part
        assert_eq!(recovered.pending_rows(), 3); // replayed tail
        recovered.flush().unwrap();
        let snap = recovered.snapshot();
        assert_eq!(snap.live_rows(), 7); // 5 - delete(0) + 3
        assert!(snap.locate(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn wal_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("milvus-lsm-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_config() -> LsmConfig {
        LsmConfig { flush_threshold_bytes: 1 << 20, auto_merge: false, ..Default::default() }
    }

    /// The checkpoint must not cover a record that is logged and
    /// acknowledged but not yet applied (queued behind the flush in the
    /// asynchronous path): such a record stays in the log and comes back.
    #[test]
    fn checkpoint_never_covers_a_logged_but_unapplied_record() {
        let dir = wal_dir("unapplied");
        let wal_path = dir.join("wal.log");
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        {
            let e = LsmEngine::new(schema(), durable_config(), Arc::clone(&store), Some(&wal_path))
                .unwrap();
            let b1 = batch(0..5);
            let l1 = e.log_insert(&b1).unwrap();
            e.apply_insert(&b1, l1).unwrap();
            let l2 = e.log_insert(&batch(5..8)).unwrap();
            assert_eq!((l1, l2), (1, 2));
            e.flush().unwrap();
            // Crash: the second insert was acknowledged, never applied.
        }
        let recovered =
            LsmEngine::recover(schema(), durable_config(), store, &wal_path).unwrap();
        assert_eq!(recovered.snapshot().live_rows(), 5);
        assert_eq!(recovered.pending_rows(), 3, "the unapplied insert is replayed");
        recovered.flush().unwrap();
        assert_eq!(recovered.snapshot().live_rows(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash after the segment `put` but before the checkpoint replays
    /// inserts whose rows a loaded segment already holds: replay skips them.
    #[test]
    fn replay_skips_rows_that_are_already_in_a_segment() {
        let dir = wal_dir("idempotent");
        let wal_path = dir.join("wal.log");
        let before_flush = dir.join("before-flush.log");
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        {
            let e = LsmEngine::new(schema(), durable_config(), Arc::clone(&store), Some(&wal_path))
                .unwrap();
            e.insert(batch(0..5)).unwrap();
            e.delete(&[1]).unwrap();
            std::fs::copy(&wal_path, &before_flush).unwrap();
            e.flush().unwrap();
        }
        // The segment is in the store; the log is as it was before the flush.
        std::fs::copy(&before_flush, &wal_path).unwrap();
        let recovered =
            LsmEngine::recover(schema(), durable_config(), store, &wal_path).unwrap();
        assert_eq!(recovered.pending_rows(), 0, "rows 0..5 are live in the segment already");
        recovered.flush().unwrap();
        let snap = recovered.snapshot();
        assert_eq!(snap.live_rows(), 4);
        assert!(snap.locate(1).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// With nothing pending, a flush leaves a log of a header and at most
    /// one checkpoint frame — whatever was inserted before.
    #[test]
    fn flush_truncates_the_log() {
        let dir = wal_dir("truncates");
        let wal_path = dir.join("wal.log");
        let e = LsmEngine::new(
            schema(),
            durable_config(),
            Arc::new(MemoryStore::new()),
            Some(&wal_path),
        )
        .unwrap();
        let log_len = || std::fs::metadata(&wal_path).unwrap().len();
        for round in 0..3 {
            e.insert(batch(round * 100..round * 100 + 100)).unwrap();
            e.delete(&[round * 100]).unwrap();
            assert!(log_len() > 100 * 8, "the records are in the log before the flush");
            e.flush().unwrap();
            assert!(log_len() <= 16 + 17, "round {round}: {} bytes left", log_len());
        }
        assert_eq!(e.snapshot().live_rows(), 297);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch the engine refuses is not logged: recovery must not bring
    /// back part of an insert whose caller was told it failed.
    #[test]
    fn refused_insert_is_not_logged() {
        let dir = wal_dir("refused");
        let wal_path = dir.join("wal.log");
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        {
            let e = LsmEngine::new(schema(), durable_config(), Arc::clone(&store), Some(&wal_path))
                .unwrap();
            e.insert(batch(0..3)).unwrap();
            assert!(matches!(
                e.insert(batch(2..6)),
                Err(crate::error::StorageError::DuplicateId(2))
            ));
        }
        let recovered =
            LsmEngine::recover(schema(), durable_config(), store, &wal_path).unwrap();
        assert_eq!(recovered.pending_rows(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_key_roundtrip() {
        let key = segment_key(42, 3);
        assert_eq!(parse_segment_key(&key), Some((42, 3)));
        assert_eq!(parse_segment_key("segments/garbage"), None);
    }

    #[test]
    fn persisted_segments_survive_reopen_without_wal_tail() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let dir = wal_dir("reopen");
        let wal_path = dir.join("wal.log");
        {
            let e = LsmEngine::new(schema(), durable_config(), Arc::clone(&store), Some(&wal_path))
                .unwrap();
            e.insert(batch(0..20)).unwrap();
            e.flush().unwrap();
        }
        let recovered =
            LsmEngine::recover(schema(), durable_config(), store, &wal_path).unwrap();
        assert_eq!(recovered.snapshot().live_rows(), 20);
        assert_eq!(recovered.pending_rows(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
