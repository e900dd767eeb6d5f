//! The single writer instance (§5.3: "a single writer is sufficient" for the
//! read-heavy workload; it "handles data insertions, deletions, and
//! updates"). The writer partitions entities across shards, runs one LSM
//! engine per shard against the shared store, and relies on the WAL for
//! atomicity across restarts.

use std::collections::HashSet;
use std::sync::Arc;

use milvus_obs as obs;
use milvus_index::VectorSet;
use milvus_storage::object_store::ObjectStore;
use milvus_storage::wal::LogRecord;
use milvus_storage::{InsertBatch, LsmConfig, LsmEngine, Result as StorageResult, Schema};
use parking_lot::Mutex;

use crate::coordinator::Coordinator;
use crate::log_ship::SharedLog;
use crate::prefix_store::PrefixStore;
use crate::transport::{Direct, NodeId, RetryPolicy, Transport};

/// The writer node.
pub struct WriterNode {
    coordinator: Arc<Coordinator>,
    engines: Vec<Arc<LsmEngine>>,
    /// Shared-storage log (§5.3: ship logs, not data). `None` disables
    /// shipping (single-writer deployments relying on a local WAL).
    shared_log: Option<SharedLog>,
    /// Client operation ids already applied. A retried insert whose first
    /// attempt executed but whose ack was lost, and a log record replayed
    /// into a standby, both dedupe against this set — tagged inserts are
    /// exactly-once even across a failover.
    applied_ops: Mutex<HashSet<u64>>,
}

impl WriterNode {
    /// Create per-shard engines over `shared` storage.
    pub fn new(
        schema: Schema,
        config: LsmConfig,
        shared: Arc<dyn ObjectStore>,
        coordinator: Arc<Coordinator>,
    ) -> StorageResult<Self> {
        let engines = Self::make_engines(&schema, &config, &shared, &coordinator, false)?;
        Ok(Self { coordinator, engines, shared_log: None, applied_ops: Mutex::new(HashSet::new()) })
    }

    /// Create a writer that ships every operation to shared storage before
    /// acknowledging, enabling standby takeover via
    /// [`WriterNode::standby_takeover`].
    pub fn with_log_shipping(
        schema: Schema,
        config: LsmConfig,
        shared: Arc<dyn ObjectStore>,
        coordinator: Arc<Coordinator>,
    ) -> StorageResult<Self> {
        Self::with_log_shipping_transport(
            schema,
            config,
            shared,
            coordinator,
            Arc::new(crate::transport::Direct),
        )
    }

    /// [`WriterNode::with_log_shipping`] with shipped records routed over
    /// `transport`'s `Writer → Storage` link (duplicates, reorders and drops
    /// become testable).
    pub fn with_log_shipping_transport(
        schema: Schema,
        config: LsmConfig,
        shared: Arc<dyn ObjectStore>,
        coordinator: Arc<Coordinator>,
        transport: Arc<dyn crate::transport::Transport>,
    ) -> StorageResult<Self> {
        let engines = Self::make_engines(&schema, &config, &shared, &coordinator, false)?;
        let shared_log = Some(SharedLog::open_with_transport(shared, transport)?);
        Ok(Self { coordinator, engines, shared_log, applied_ops: Mutex::new(HashSet::new()) })
    }

    /// Bring up a replacement writer after a crash: load the flushed
    /// segments from shared storage, replay the shipped log tail, flush.
    pub fn standby_takeover(
        schema: Schema,
        config: LsmConfig,
        shared: Arc<dyn ObjectStore>,
        coordinator: Arc<Coordinator>,
    ) -> StorageResult<Self> {
        Self::standby_takeover_with_transport(
            schema,
            config,
            shared,
            coordinator,
            Arc::new(Direct),
            NodeId::Writer,
            RetryPolicy::default(),
        )
    }

    /// [`WriterNode::standby_takeover`] with every recovery read (log list,
    /// record gets) and all subsequent shipping routed over `transport` as
    /// `endpoint` — the standby's own link, with its own fault schedule.
    /// The promoted instance ships under a fresh term, fencing its records
    /// from any in-flight duplicates of the writer it replaces. Replayed
    /// inserts dedupe by client op id and skip rows already live, so a
    /// record whose covering checkpoint was lost in flight is harmless.
    pub fn standby_takeover_with_transport(
        schema: Schema,
        config: LsmConfig,
        shared: Arc<dyn ObjectStore>,
        coordinator: Arc<Coordinator>,
        transport: Arc<dyn Transport>,
        endpoint: NodeId,
        retry: RetryPolicy,
    ) -> StorageResult<Self> {
        let engines = Self::make_engines(&schema, &config, &shared, &coordinator, true)?;
        let shared_log = SharedLog::open_standby(
            Arc::clone(&shared),
            Arc::clone(&transport),
            endpoint,
            retry.clone(),
        )?;
        let writer = Self {
            coordinator,
            engines,
            shared_log: Some(shared_log),
            applied_ops: Mutex::new(HashSet::new()),
        };
        let tail = SharedLog::replay_tail_with_transport(&shared, &transport, endpoint, &retry)?;
        let mut replayed = 0u64;
        let mut max_seq = 0u64;
        for entry in tail {
            max_seq = max_seq.max(entry.seq);
            replayed += 1;
            match entry.record {
                LogRecord::Insert { op_id, batch, .. } => {
                    if let Some(op) = op_id {
                        writer.applied_ops.lock().insert(op);
                    }
                    // Idempotent: rows already live in a recovered segment
                    // (flushed, but the checkpoint covering them was lost)
                    // are skipped.
                    writer.for_each_shard(&batch, |engine, sub| engine.replay_insert(&sub, 0))?;
                }
                LogRecord::Delete { ids, .. } => writer.apply_delete(&ids)?,
                LogRecord::FlushCheckpoint { .. } => {}
            }
        }
        obs::counter(obs::WRITER_REPLAYED_RECORDS, "writer").add(replayed);
        obs::gauge(obs::WRITER_TAKEOVER_REPLAY_LSN, "writer").set(max_seq as i64);
        writer.flush()?;
        Ok(writer)
    }

    fn make_engines(
        schema: &Schema,
        config: &LsmConfig,
        shared: &Arc<dyn ObjectStore>,
        coordinator: &Arc<Coordinator>,
        from_store: bool,
    ) -> StorageResult<Vec<Arc<LsmEngine>>> {
        (0..coordinator.shards())
            .map(|s| {
                let store: Arc<dyn ObjectStore> =
                    Arc::new(PrefixStore::new(Arc::clone(shared), format!("shard-{s}")));
                let engine = if from_store {
                    LsmEngine::open_from_store(schema.clone(), config.clone(), store, None)?
                } else {
                    LsmEngine::new(schema.clone(), config.clone(), store, None)?
                };
                Ok(Arc::new(engine))
            })
            .collect()
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// Per-shard engine (inspection/tests).
    pub fn engine(&self, shard: usize) -> &Arc<LsmEngine> {
        &self.engines[shard]
    }

    /// Partition a batch by entity shard and insert each piece. When log
    /// shipping is on, the operation is durable in shared storage before the
    /// engines see it.
    pub fn insert(&self, batch: InsertBatch) -> StorageResult<()> {
        self.insert_tagged(batch, None)
    }

    /// [`WriterNode::insert`] carrying the client's operation id. If the id
    /// was already applied — a retry whose first attempt executed but whose
    /// ack was lost in flight, or a record replayed during takeover — the
    /// batch is acknowledged without re-applying, making tagged inserts
    /// exactly-once.
    pub fn insert_tagged(&self, batch: InsertBatch, op_id: Option<u64>) -> StorageResult<()> {
        let _span = obs::span(obs::INGEST_LATENCY, "writer");
        if let Some(op) = op_id {
            if self.applied_ops.lock().contains(&op) {
                obs::counter(obs::WRITER_DEDUPED_OPS, "writer").inc();
                return Ok(());
            }
        }
        obs::counter(obs::INGEST_BATCHES, "writer").inc();
        obs::counter(obs::INGEST_ROWS, "writer").add(batch.ids.len() as u64);
        if let Some(log) = &self.shared_log {
            log.ship_insert(&batch, op_id)?;
        }
        self.for_each_shard(&batch, |engine, sub| engine.insert(sub))?;
        if let Some(op) = op_id {
            self.applied_ops.lock().insert(op);
        }
        Ok(())
    }

    /// Partition `batch` by owning shard and hand every non-empty piece to
    /// `apply` with that shard's engine.
    fn for_each_shard(
        &self,
        batch: &InsertBatch,
        mut apply: impl FnMut(&LsmEngine, InsertBatch) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let mut rows_per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.coordinator.shards()];
        for (row, &id) in batch.ids.iter().enumerate() {
            rows_per_shard[self.coordinator.shard_of(id)].push(row);
        }
        for (engine, rows) in self.engines.iter().zip(rows_per_shard) {
            if !rows.is_empty() {
                apply(engine, batch.gather(&rows))?;
            }
        }
        Ok(())
    }

    /// Route deletes to the owning shards.
    pub fn delete(&self, ids: &[i64]) -> StorageResult<()> {
        obs::counter(obs::DELETE_ROWS, "writer").add(ids.len() as u64);
        if let Some(log) = &self.shared_log {
            log.ship_delete(ids)?;
        }
        self.apply_delete(ids)
    }

    /// Term (takeover generation) this writer ships under: 0 for the
    /// original instance or when shipping is off, `n` after the `n`-th
    /// takeover.
    pub fn term(&self) -> u64 {
        self.shared_log.as_ref().map_or(0, |l| l.term())
    }

    /// Sorted live entity ids across all shards (equivalence checks; flush
    /// first — memtable-only rows are not included).
    pub fn live_ids(&self) -> Vec<i64> {
        let mut out: Vec<i64> = Vec::new();
        for engine in &self.engines {
            let snap = engine.snapshot();
            for seg in &snap.segments {
                for &id in &seg.data().row_ids {
                    if engine.contains_live(id) {
                        out.push(id);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Per-shard flushed segment `(id, version)` pairs, sorted
    /// (equivalence checks).
    pub fn segment_versions(&self) -> Vec<Vec<(u64, u64)>> {
        self.engines
            .iter()
            .map(|engine| {
                let snap = engine.snapshot();
                let mut v: Vec<(u64, u64)> =
                    snap.segments.iter().map(|s| (s.id, s.version)).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    fn apply_delete(&self, ids: &[i64]) -> StorageResult<()> {
        let shards = self.coordinator.shards();
        let mut per_shard: Vec<Vec<i64>> = vec![Vec::new(); shards];
        for &id in ids {
            per_shard[self.coordinator.shard_of(id)].push(id);
        }
        for (shard, ids) in per_shard.into_iter().enumerate() {
            if !ids.is_empty() {
                self.engines[shard].delete(&ids)?;
            }
        }
        Ok(())
    }

    /// Flush every shard engine; segments land in shared storage. With log
    /// shipping on, a checkpoint is appended so standbys skip replayed work.
    pub fn flush(&self) -> StorageResult<()> {
        let _span = obs::span(obs::FLUSH_LATENCY, "writer");
        for e in &self.engines {
            e.flush()?;
        }
        if let Some(log) = &self.shared_log {
            log.ship_checkpoint(log.last_seq())?;
        }
        Ok(())
    }

    /// Truncate shipped log records covered by the last checkpoint.
    pub fn truncate_shared_log(&self) -> StorageResult<usize> {
        match &self.shared_log {
            Some(log) => log.truncate(),
            None => Ok(0),
        }
    }

    /// Build `index_type` on `field` for every flushed segment of every
    /// shard. The indexed segment versions are persisted to shared storage,
    /// so readers pick the indexes up on their next refresh (§2.3: index and
    /// data live in the same segment).
    pub fn build_indexes(
        &self,
        field: &str,
        index_type: &str,
        registry: &milvus_index::registry::IndexRegistry,
        params: &milvus_index::BuildParams,
    ) -> StorageResult<usize> {
        let mut built = 0;
        for engine in &self.engines {
            let snap = engine.snapshot();
            for seg in &snap.segments {
                if seg.index(field).is_none() && seg.live_rows() > 0 {
                    let next =
                        seg.build_index(engine.schema(), field, index_type, registry, params)?;
                    if engine.replace_segment(Arc::new(next))? {
                        built += 1;
                    }
                }
            }
        }
        Ok(built)
    }

    /// Total live rows across shards.
    pub fn live_rows(&self) -> usize {
        self.engines.iter().map(|e| e.snapshot().live_rows()).sum()
    }

    /// Convenience: single-vector insert.
    pub fn insert_vectors(&self, ids: Vec<i64>, vectors: VectorSet) -> StorageResult<()> {
        self.insert(InsertBatch::single(ids, vectors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_index::Metric;
    use milvus_storage::object_store::MemoryStore;

    fn setup(shards: usize) -> (Arc<Coordinator>, WriterNode, Arc<dyn ObjectStore>) {
        let coordinator = Coordinator::new(shards);
        let shared: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let schema = Schema::single("v", 2, Metric::L2);
        let cfg = LsmConfig { auto_merge: false, ..Default::default() };
        let writer =
            WriterNode::new(schema, cfg, Arc::clone(&shared), Arc::clone(&coordinator)).unwrap();
        (coordinator, writer, shared)
    }

    fn batch(n: usize) -> InsertBatch {
        let ids: Vec<i64> = (0..n as i64).collect();
        let mut vs = VectorSet::new(2);
        for &id in &ids {
            vs.push(&[id as f32, 0.0]);
        }
        InsertBatch::single(ids, vs)
    }

    #[test]
    fn rows_partition_across_shards() {
        let (coord, writer, _) = setup(4);
        writer.insert(batch(200)).unwrap();
        writer.flush().unwrap();
        assert_eq!(writer.live_rows(), 200);
        // Each row landed on its hash-designated shard.
        for shard in 0..4 {
            let snap = writer.engine(shard).snapshot();
            for seg in &snap.segments {
                for &id in &seg.data().row_ids {
                    assert_eq!(coord.shard_of(id), shard);
                }
            }
        }
        // All shards got something (200 ids over 4 shards).
        for shard in 0..4 {
            assert!(writer.engine(shard).snapshot().live_rows() > 0, "shard {shard} empty");
        }
    }

    #[test]
    fn segments_land_in_shared_storage_by_prefix() {
        let (_, writer, shared) = setup(2);
        writer.insert(batch(50)).unwrap();
        writer.flush().unwrap();
        let keys = shared.list("").unwrap();
        assert!(keys.iter().any(|k| k.starts_with("shard-0/segments/")));
        assert!(keys.iter().any(|k| k.starts_with("shard-1/segments/")));
    }

    #[test]
    fn deletes_route_to_owning_shard() {
        let (_, writer, _) = setup(3);
        writer.insert(batch(60)).unwrap();
        writer.flush().unwrap();
        writer.delete(&[0, 1, 2, 3, 4]).unwrap();
        writer.flush().unwrap();
        assert_eq!(writer.live_rows(), 55);
    }
}
