//! Log shipping to shared storage (§5.3 optimization 1: "The computing layer
//! only sends logs (rather than the actual data) to the storage layer,
//! similar to Aurora").
//!
//! The writer appends every operation as one object under `wal/` in the
//! shared store before acknowledging — the same checksummed binary frame the
//! local log holds ([`milvus_storage::wal`]: one record codec) — and flushes
//! append a checkpoint. A standby
//! writer recovers by loading the flushed segments and replaying the shipped
//! tail — no local disk involved, which is what makes the writer itself
//! stateless.
//!
//! **Acknowledged shipping.** Shipping is a request/response exchange on the
//! `from → Storage` link ([`crate::transport::rpc`]): the record is durable
//! in the shared store before the writer acknowledges the client. A dropped
//! shipment is retried (same key, same bytes — idempotent); exhausted
//! retries fail the client operation instead of silently losing an acked
//! write. This is what makes the linearizability story work: *acked ⇒
//! durable in the log or in segments*.
//!
//! **Term fencing.** Every record key carries the shipping writer's *term*
//! (takeover generation): `wal/{term:08}-{seq:016}.rec`. A promoted standby
//! opens the log at `max existing term + 1`, so late deliveries from the
//! dead writer's in-flight duplicates can never collide with or overwrite
//! the new writer's records, and records of an older term that surface
//! after a newer term checkpointed are fenced out of replay (they were
//! never acknowledged — see above).
//!
//! **One cut rule.** Replay and truncation both derive their record sets
//! from [`SharedLog::find_cut`]: the checkpoint with the maximum
//! `(term, covered lsn)` wins, and a record is covered iff its
//! `(term, seq)` is lexicographically `<=` `(cut term, cut lsn)`. The seed
//! had two rules — replay cut by max checkpoint *payload* lsn, truncation
//! keeping from the newest checkpoint *key* — which could disagree under
//! duplicated/reordered checkpoint shipping and takeover-era key ranges;
//! unified here and pinned by `tests/linearizability.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use milvus_obs as obs;
use milvus_storage::object_store::ObjectStore;
use milvus_storage::wal::LogRecord;
use milvus_storage::{InsertBatch, Result as StorageResult};

use crate::transport::{rpc, Direct, NodeId, RetryPolicy, Transport};

fn log_key(term: u64, seq: u64) -> String {
    format!("wal/{term:08}-{seq:016}.rec")
}

/// `(term, seq)` of a shipped-log key.
fn parse_log_key(key: &str) -> Option<(u64, u64)> {
    let (term, seq) = key.strip_prefix("wal/")?.strip_suffix(".rec")?.split_once('-')?;
    Some((term.parse().ok()?, seq.parse().ok()?))
}

/// One parsed shipped-log entry.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Term (takeover generation) of the writer that shipped the record.
    pub term: u64,
    /// The record's sequence number (its key, and its `lsn` payload field).
    pub seq: u64,
    /// The record itself.
    pub record: LogRecord,
}

/// The replay/truncation cut: the winning checkpoint and what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogCut {
    /// Term of the winning checkpoint.
    pub term: u64,
    /// Checkpoint payload: records with `(term, seq) <= (cut.term,
    /// cut.upto)` are covered (already durable in segments).
    pub upto: u64,
    /// The checkpoint record's own key sequence (kept by truncation).
    pub cp_seq: u64,
}

impl LogCut {
    /// Whether the record at `(term, seq)` is covered by this cut.
    pub fn covers(&self, term: u64, seq: u64) -> bool {
        (term, seq) <= (self.term, self.upto)
    }
}

/// Appends operation records to the shared store.
pub struct SharedLog {
    store: Arc<dyn ObjectStore>,
    next_seq: AtomicU64,
    term: u64,
    /// Identity the shipping writer puts on the wire (`Writer`, or
    /// `Standby(n)` after a takeover).
    from: NodeId,
    /// Log records travel the `from → Storage` link as acknowledged RPCs:
    /// a simulated transport may drop them (retried with backoff; exhausted
    /// retries fail the operation before the client is acked) or duplicate
    /// them (same key, same bytes — idempotent).
    transport: Arc<dyn Transport>,
    retry: RetryPolicy,
}

impl SharedLog {
    /// Open the log, resuming the sequence after any existing records.
    pub fn open(store: Arc<dyn ObjectStore>) -> StorageResult<Self> {
        Self::open_with_transport(store, Arc::new(Direct))
    }

    /// [`SharedLog::open`] with record shipping routed through `transport`
    /// as [`NodeId::Writer`] (term 0 — the original writer instance).
    pub fn open_with_transport(
        store: Arc<dyn ObjectStore>,
        transport: Arc<dyn Transport>,
    ) -> StorageResult<Self> {
        Self::open_as(store, transport, NodeId::Writer, RetryPolicy::default())
    }

    /// Open the log as a promoted standby: the new instance ships under
    /// `max existing term + 1`, fencing its records from any in-flight
    /// duplicates of the dead writer, and resumes the sequence after the
    /// highest delivered record of any term. The key scan itself routes
    /// over the `from → Storage` link.
    pub fn open_standby(
        store: Arc<dyn ObjectStore>,
        transport: Arc<dyn Transport>,
        from: NodeId,
        retry: RetryPolicy,
    ) -> StorageResult<Self> {
        let mut log = Self::open_as(store, transport, from, retry)?;
        let max_term = Self::scan(&log)?.iter().map(|(t, _)| *t).max().unwrap_or(0);
        log.term = max_term + 1;
        Ok(log)
    }

    fn open_as(
        store: Arc<dyn ObjectStore>,
        transport: Arc<dyn Transport>,
        from: NodeId,
        retry: RetryPolicy,
    ) -> StorageResult<Self> {
        let mut log = Self {
            store,
            next_seq: AtomicU64::new(1),
            term: 0,
            from,
            transport,
            retry,
        };
        let max_seq = Self::scan(&log)?.iter().map(|(_, s)| *s).max().unwrap_or(0);
        log.next_seq = AtomicU64::new(max_seq + 1);
        Ok(log)
    }

    /// Parsed `(term, seq)` keys currently in the store, listed over this
    /// log's transport link.
    fn scan(&self) -> StorageResult<Vec<(u64, u64)>> {
        let keys = rpc(
            &*self.transport,
            self.from,
            NodeId::Storage,
            "log_list",
            &self.retry,
            true,
            || self.store.list("wal/"),
        )?;
        Ok(keys.iter().filter_map(|k| parse_log_key(k)).collect())
    }

    /// Term (takeover generation) this instance ships under.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Ship the frame `encode` writes for sequence number `seq`.
    fn append(
        &self,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> StorageResult<()>,
    ) -> StorageResult<u64> {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let mut frame = Vec::new();
        encode(&mut frame, seq)?;
        let blob = Bytes::from(frame);
        let key = log_key(self.term, seq);
        if self.transport.is_direct() {
            self.store.put(&key, blob)?;
        } else {
            // Acknowledged shipping: the put must round-trip before the
            // writer acks the client. Retried drops re-put the same key
            // with the same bytes, so duplicates are harmless.
            rpc(
                &*self.transport,
                self.from,
                NodeId::Storage,
                "log_ship",
                &self.retry,
                true,
                || self.store.put(&key, blob.clone()),
            )?;
        }
        obs::counter(obs::LOG_SHIP_RECORDS, "shared").inc();
        Ok(seq)
    }

    /// Ship an insert; returns its sequence number. `op_id` is the client's
    /// operation id — replay and client retries dedupe against it.
    pub fn ship_insert(&self, batch: &InsertBatch, op_id: Option<u64>) -> StorageResult<u64> {
        self.append(|out, lsn| LogRecord::encode_insert(out, lsn, op_id, batch))
    }

    /// Ship a delete.
    pub fn ship_delete(&self, ids: &[i64]) -> StorageResult<u64> {
        self.append(|out, lsn| LogRecord::encode_delete(out, lsn, ids))
    }

    /// Ship a flush checkpoint: every record `<= upto_seq` of this term (and
    /// every record of earlier terms) is now durable in segments; replay
    /// starts after it.
    pub fn ship_checkpoint(&self, upto_seq: u64) -> StorageResult<u64> {
        self.append(|out, _| LogRecord::encode_checkpoint(out, upto_seq))
    }

    /// All shipped entries, sorted by `(term, seq)`, read directly from the
    /// store.
    pub fn entries(store: &Arc<dyn ObjectStore>) -> StorageResult<Vec<LogEntry>> {
        Self::entries_with_transport(
            store,
            &(Arc::new(Direct) as Arc<dyn Transport>),
            NodeId::Writer,
            &RetryPolicy::default(),
        )
    }

    /// All shipped entries, sorted by `(term, seq)`, with every `list`/`get`
    /// routed over the `from → Storage` link — recovery reads see the same
    /// drops, delays and duplicates as any other traffic.
    pub fn entries_with_transport(
        store: &Arc<dyn ObjectStore>,
        transport: &Arc<dyn Transport>,
        from: NodeId,
        retry: &RetryPolicy,
    ) -> StorageResult<Vec<LogEntry>> {
        let keys = rpc(&**transport, from, NodeId::Storage, "log_list", retry, true, || {
            store.list("wal/")
        })?;
        let mut parsed: Vec<((u64, u64), String)> = keys
            .into_iter()
            .filter_map(|k| parse_log_key(&k).map(|ts| (ts, k)))
            .collect();
        parsed.sort_by_key(|(ts, _)| *ts);
        let mut entries = Vec::with_capacity(parsed.len());
        for ((term, seq), key) in parsed {
            let blob = rpc(&**transport, from, NodeId::Storage, "log_get", retry, true, || {
                store.get(&key)
            })?;
            entries.push(LogEntry { term, seq, record: LogRecord::decode(&blob)? });
        }
        Ok(entries)
    }

    /// The single cut rule shared by replay and truncation: the checkpoint
    /// with the maximum `(term, covered lsn)` wins. `None` when no
    /// checkpoint has been shipped.
    pub fn find_cut(entries: &[LogEntry]) -> Option<LogCut> {
        entries
            .iter()
            .filter_map(|e| match &e.record {
                LogRecord::FlushCheckpoint { lsn } => {
                    Some(LogCut { term: e.term, upto: *lsn, cp_seq: e.seq })
                }
                _ => None,
            })
            .max_by_key(|c| (c.term, c.upto))
    }

    /// Records after the cut, in `(term, seq)` order — what a standby
    /// writer must replay.
    pub fn replay_tail(store: &Arc<dyn ObjectStore>) -> StorageResult<Vec<LogRecord>> {
        let entries = Self::entries(store)?;
        Ok(Self::tail_of(entries).into_iter().map(|e| e.record).collect())
    }

    /// [`SharedLog::replay_tail`] with recovery reads routed over the
    /// transport, returning full entries.
    pub fn replay_tail_with_transport(
        store: &Arc<dyn ObjectStore>,
        transport: &Arc<dyn Transport>,
        from: NodeId,
        retry: &RetryPolicy,
    ) -> StorageResult<Vec<LogEntry>> {
        let entries = Self::entries_with_transport(store, transport, from, retry)?;
        Ok(Self::tail_of(entries))
    }

    fn tail_of(entries: Vec<LogEntry>) -> Vec<LogEntry> {
        let cut = Self::find_cut(&entries);
        let tail: Vec<LogEntry> = entries
            .into_iter()
            .filter(|e| {
                !matches!(e.record, LogRecord::FlushCheckpoint { .. })
                    && cut.is_none_or(|c| !c.covers(e.term, e.seq))
            })
            .collect();
        obs::counter(obs::LOG_APPLY_RECORDS, "shared").add(tail.len() as u64);
        tail
    }

    /// The sequence number of the most recently shipped record.
    pub fn last_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst).saturating_sub(1)
    }

    /// Drop records covered by the cut (log truncation). Keeps exactly the
    /// records [`SharedLog::replay_tail`] would return, plus the cut
    /// checkpoint itself — the two can never disagree because they share
    /// [`SharedLog::find_cut`].
    pub fn truncate(&self) -> StorageResult<usize> {
        let entries = Self::entries(&self.store)?;
        let Some(cut) = Self::find_cut(&entries) else { return Ok(0) };
        let mut removed = 0;
        for e in &entries {
            let is_cut_checkpoint = e.term == cut.term && e.seq == cut.cp_seq;
            if cut.covers(e.term, e.seq) && !is_cut_checkpoint {
                self.store.delete(&log_key(e.term, e.seq))?;
                removed += 1;
            } else if matches!(e.record, LogRecord::FlushCheckpoint { .. }) && !is_cut_checkpoint
            {
                // Superseded checkpoints are covered metadata, never replayed.
                self.store.delete(&log_key(e.term, e.seq))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_index::VectorSet;
    use milvus_storage::object_store::MemoryStore;

    fn batch(ids: Vec<i64>) -> InsertBatch {
        let n = ids.len();
        InsertBatch::single(ids, VectorSet::from_flat(2, vec![0.0; n * 2]))
    }

    #[test]
    fn ship_and_replay() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let log = SharedLog::open(Arc::clone(&store)).unwrap();
        log.ship_insert(&batch(vec![1, 2]), Some(7)).unwrap();
        log.ship_delete(&[1]).unwrap();
        let tail = SharedLog::replay_tail(&store).unwrap();
        assert_eq!(tail.len(), 2);
        let LogRecord::Insert { op_id, .. } = &tail[0] else { panic!() };
        assert_eq!(*op_id, Some(7));
        assert!(matches!(tail[1], LogRecord::Delete { .. }));
    }

    #[test]
    fn checkpoint_limits_replay() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let log = SharedLog::open(Arc::clone(&store)).unwrap();
        let s1 = log.ship_insert(&batch(vec![1]), None).unwrap();
        log.ship_checkpoint(s1).unwrap();
        log.ship_insert(&batch(vec![2]), None).unwrap();
        let tail = SharedLog::replay_tail(&store).unwrap();
        assert_eq!(tail.len(), 1);
        let LogRecord::Insert { batch: b, .. } = &tail[0] else { panic!() };
        assert_eq!(b.ids, vec![2]);
    }

    #[test]
    fn sequence_resumes_after_reopen() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        {
            let log = SharedLog::open(Arc::clone(&store)).unwrap();
            log.ship_insert(&batch(vec![1]), None).unwrap();
        }
        let log = SharedLog::open(Arc::clone(&store)).unwrap();
        let seq = log.ship_insert(&batch(vec![2]), None).unwrap();
        assert!(seq >= 2);
    }

    #[test]
    fn truncation_drops_checkpointed_records() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let log = SharedLog::open(Arc::clone(&store)).unwrap();
        let s1 = log.ship_insert(&batch(vec![1]), None).unwrap();
        let s2 = log.ship_delete(&[1]).unwrap();
        log.ship_checkpoint(s2).unwrap();
        log.ship_insert(&batch(vec![2]), None).unwrap();
        let removed = log.truncate().unwrap();
        assert_eq!(removed, 2, "records {s1} and {s2} should be truncated");
        // Replay still yields only the post-checkpoint tail.
        let tail = SharedLog::replay_tail(&store).unwrap();
        assert_eq!(tail.len(), 1);
    }

    #[test]
    fn keys_carry_term_and_sequence() {
        assert_eq!(log_key(3, 42), "wal/00000003-0000000000000042.rec");
        assert_eq!(parse_log_key(&log_key(3, 42)), Some((3, 42)));
        assert_eq!(parse_log_key("wal/0000000000000042.rec"), None);
        assert_eq!(parse_log_key("wal/garbage"), None);
    }

    #[test]
    fn standby_term_fences_and_wins_cut() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let log0 = SharedLog::open(Arc::clone(&store)).unwrap();
        let s = log0.ship_insert(&batch(vec![1]), None).unwrap();
        log0.ship_checkpoint(s).unwrap();
        log0.ship_insert(&batch(vec![2]), None).unwrap();
        let direct: Arc<dyn Transport> = Arc::new(Direct);
        let log1 = SharedLog::open_standby(
            Arc::clone(&store),
            Arc::clone(&direct),
            NodeId::Standby(1),
            RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(log1.term(), 1);
        // Standby replays, flushes, checkpoints: the new term's checkpoint
        // covers every earlier-term record.
        log1.ship_checkpoint(log1.last_seq()).unwrap();
        let tail = SharedLog::replay_tail(&store).unwrap();
        assert!(tail.is_empty(), "term-1 checkpoint must cover all of term 0: {tail:?}");
        // And a record the standby ships after the checkpoint is replayed.
        log1.ship_insert(&batch(vec![3]), None).unwrap();
        let tail = SharedLog::replay_tail(&store).unwrap();
        assert_eq!(tail.len(), 1);
    }

    /// Replay and truncation share one cut rule: whatever replay would
    /// return must survive truncation, byte for byte, even when the store
    /// holds checkpoints of several terms in overlapping key ranges.
    #[test]
    fn truncate_preserves_exactly_the_replay_tail() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let log0 = SharedLog::open(Arc::clone(&store)).unwrap();
        for ids in [vec![1], vec![2], vec![3]] {
            log0.ship_insert(&batch(ids), None).unwrap();
        }
        log0.ship_checkpoint(2).unwrap(); // stale: covers only seq <= 2
        log0.ship_checkpoint(3).unwrap(); // newer payload
        log0.ship_insert(&batch(vec![4]), None).unwrap();
        let before: Vec<String> =
            SharedLog::replay_tail(&store).unwrap().iter().map(|r| format!("{r:?}")).collect();
        log0.truncate().unwrap();
        let after: Vec<String> =
            SharedLog::replay_tail(&store).unwrap().iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(before, after, "truncation changed the replay tail");
    }
}
