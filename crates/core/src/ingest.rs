//! Asynchronous ingestion (§5.1).
//!
//! "When Milvus receives heavy write requests, it first materializes the
//! operations (similar to database logs) to disk and then acknowledges to
//! users. There is a background thread that consumes the operations. As a
//! result, users may not immediately see the inserted data. To prevent this,
//! Milvus provides an API flush() that blocks... until the system finishes
//! processing all the pending operations."
//!
//! [`AsyncIngest`] implements exactly that: the foreground appends to the
//! WAL ([`milvus_storage::LsmEngine::log_insert`]) and enqueues the apply;
//! a worker thread drains the queue into the memtable and triggers
//! threshold/periodic flushes; [`AsyncIngest::flush`] enqueues a barrier and
//! waits for it, then forces an engine flush.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use milvus_storage::{InsertBatch, LsmEngine};
use parking_lot::Mutex;

use crate::error::{MilvusError, Result};

enum Op {
    /// A logged operation and its LSN. The queue holds them in LSN order.
    Insert(InsertBatch, u64),
    Delete(Vec<i64>, u64),
    /// Flush barrier: worker flushes the engine then signals completion.
    Barrier(Sender<()>),
    Shutdown,
}

/// Background ingestion pipeline over an [`LsmEngine`].
pub struct AsyncIngest {
    engine: Arc<LsmEngine>,
    tx: Sender<Op>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The first error the background thread hit since the last flush()
    /// (background work can't return it to the caller; the next flush()
    /// does). Later ones are dropped, so a long outage holds one error.
    errors: Arc<Mutex<Option<MilvusError>>>,
    /// Ids whose deletes are logged but not yet applied by the worker —
    /// re-inserting them is legal (update = delete + insert, §2.3). The
    /// foreground holds this lock from the WAL append to the enqueue, so the
    /// worker applies operations in LSN order: the engine checkpoints the
    /// highest applied LSN, which must cover nothing still in the queue.
    unapplied_deletes: Arc<Mutex<HashSet<i64>>>,
}

impl AsyncIngest {
    /// Start the worker; `flush_interval` is the §2.3 once-a-second timer.
    pub fn start(engine: Arc<LsmEngine>, flush_interval: Duration) -> Self {
        let (tx, rx) = unbounded::<Op>();
        let errors: Arc<Mutex<Option<MilvusError>>> = Arc::new(Mutex::new(None));
        let worker_engine = Arc::clone(&engine);
        let worker_errors = Arc::clone(&errors);
        let unapplied_deletes: Arc<Mutex<HashSet<i64>>> = Arc::new(Mutex::new(HashSet::new()));
        let worker_deletes = Arc::clone(&unapplied_deletes);
        let worker = std::thread::Builder::new()
            .name("milvus-ingest".into())
            .spawn(move || run_worker(worker_engine, rx, flush_interval, worker_errors, worker_deletes))
            .expect("spawn ingest worker");
        Self { engine, tx, worker: Mutex::new(Some(worker)), errors, unapplied_deletes }
    }

    /// Foreground insert: WAL append (durability before ack), then enqueue
    /// the memtable apply.
    pub fn insert(&self, batch: InsertBatch) -> Result<()> {
        let unapplied_deletes = self.unapplied_deletes.lock();
        let lsn = self.engine.log_insert_with_overlay(&batch, &unapplied_deletes)?;
        self.tx.send(Op::Insert(batch, lsn)).map_err(|_| MilvusError::IngestStopped)
    }

    /// Foreground delete: WAL append, then enqueue.
    pub fn delete(&self, ids: Vec<i64>) -> Result<()> {
        let mut unapplied_deletes = self.unapplied_deletes.lock();
        let lsn = self.engine.log_delete(ids.as_slice())?;
        unapplied_deletes.extend(ids.iter().copied());
        self.tx.send(Op::Delete(ids, lsn)).map_err(|_| MilvusError::IngestStopped)
    }

    /// The §5.1 `flush()` barrier: blocks until every pending operation is
    /// applied and flushed into segments. Returns the first error hit since
    /// the last flush, its own or the background thread's, and clears it.
    pub fn flush(&self) -> Result<()> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx.send(Op::Barrier(ack_tx)).map_err(|_| MilvusError::IngestStopped)?;
        ack_rx.recv().map_err(|_| MilvusError::IngestStopped)?;
        match self.errors.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for AsyncIngest {
    fn drop(&mut self) {
        let _ = self.tx.send(Op::Shutdown);
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

fn run_worker(
    engine: Arc<LsmEngine>,
    rx: Receiver<Op>,
    flush_interval: Duration,
    errors: Arc<Mutex<Option<MilvusError>>>,
    unapplied_deletes: Arc<Mutex<HashSet<i64>>>,
) {
    let note = |e: milvus_storage::StorageError| {
        errors.lock().get_or_insert(e.into());
    };
    loop {
        match rx.recv_timeout(flush_interval) {
            Ok(Op::Insert(batch, lsn)) => match engine.apply_insert(&batch, lsn) {
                Ok(true) => {
                    if let Err(e) = engine.flush() {
                        note(e);
                    }
                }
                Ok(false) => {}
                Err(e) => note(e),
            },
            Ok(Op::Delete(ids, lsn)) => {
                engine.apply_delete(&ids, lsn);
                let mut pending = unapplied_deletes.lock();
                for id in &ids {
                    pending.remove(id);
                }
            }
            Ok(Op::Barrier(ack)) => {
                if let Err(e) = engine.flush() {
                    note(e);
                }
                let _ = ack.send(());
            }
            Ok(Op::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => {
                // The once-a-second flush (§2.3).
                if engine.pending_rows() > 0 {
                    if let Err(e) = engine.flush() {
                        note(e);
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_index::{Metric, VectorSet};
    use milvus_storage::object_store::MemoryStore;
    use milvus_storage::{LsmConfig, Schema};

    fn engine() -> Arc<LsmEngine> {
        let schema = Schema::single("v", 2, Metric::L2);
        let cfg = LsmConfig {
            flush_threshold_bytes: 1 << 20,
            auto_merge: false,
            ..Default::default()
        };
        Arc::new(LsmEngine::new(schema, cfg, Arc::new(MemoryStore::new()), None).unwrap())
    }

    fn batch(ids: Vec<i64>) -> InsertBatch {
        let n = ids.len();
        InsertBatch::single(ids, VectorSet::from_flat(2, vec![0.5; n * 2]))
    }

    #[test]
    fn flush_barrier_makes_data_visible() {
        let e = engine();
        let ingest = AsyncIngest::start(Arc::clone(&e), Duration::from_secs(3600));
        ingest.insert(batch(vec![1, 2, 3])).unwrap();
        ingest.flush().unwrap();
        assert_eq!(e.snapshot().live_rows(), 3);
    }

    #[test]
    fn deletes_ordered_with_inserts() {
        let e = engine();
        let ingest = AsyncIngest::start(Arc::clone(&e), Duration::from_secs(3600));
        ingest.insert(batch(vec![1, 2, 3])).unwrap();
        ingest.delete(vec![2]).unwrap();
        ingest.flush().unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.live_rows(), 2);
        assert!(snap.locate(2).is_none());
    }

    #[test]
    fn periodic_timer_flushes_without_barrier() {
        let e = engine();
        let ingest = AsyncIngest::start(Arc::clone(&e), Duration::from_millis(30));
        ingest.insert(batch(vec![7])).unwrap();
        // No explicit flush; the timer must pick it up.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while e.snapshot().live_rows() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(e.snapshot().live_rows(), 1);
    }

    #[test]
    fn duplicate_insert_fails_synchronously() {
        let e = engine();
        let ingest = AsyncIngest::start(Arc::clone(&e), Duration::from_secs(3600));
        ingest.insert(batch(vec![5])).unwrap();
        ingest.flush().unwrap();
        assert!(ingest.insert(batch(vec![5])).is_err());
    }

    #[test]
    fn shutdown_on_drop_is_clean() {
        let e = engine();
        {
            let ingest = AsyncIngest::start(Arc::clone(&e), Duration::from_secs(3600));
            ingest.insert(batch(vec![9])).unwrap();
            ingest.flush().unwrap();
        } // drop joins the worker
        assert_eq!(e.snapshot().live_rows(), 1);
    }
}
