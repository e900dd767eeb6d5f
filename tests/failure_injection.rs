//! Failure injection: storage faults must surface as errors, never corrupt
//! state or panic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use milvus_index::{Metric, VectorSet};
use milvus_storage::object_store::{MemoryStore, ObjectStore};
use milvus_storage::{InsertBatch, LsmConfig, LsmEngine, Result as StorageResult, Schema, StorageError};

/// A store whose writes/reads can be switched to fail.
struct FaultyStore {
    inner: MemoryStore,
    fail_puts: AtomicBool,
    fail_gets: AtomicBool,
    corrupt_gets: AtomicBool,
}

impl FaultyStore {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: MemoryStore::new(),
            fail_puts: AtomicBool::new(false),
            fail_gets: AtomicBool::new(false),
            corrupt_gets: AtomicBool::new(false),
        })
    }
}

impl ObjectStore for FaultyStore {
    fn put(&self, key: &str, data: Bytes) -> StorageResult<()> {
        if self.fail_puts.load(Ordering::SeqCst) {
            return Err(StorageError::Io(std::io::Error::other("injected put failure")));
        }
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> StorageResult<Bytes> {
        if self.fail_gets.load(Ordering::SeqCst) {
            return Err(StorageError::Io(std::io::Error::other("injected get failure")));
        }
        let data = self.inner.get(key)?;
        if self.corrupt_gets.load(Ordering::SeqCst) {
            // Truncate the blob: decoding must error, not panic.
            return Ok(data.slice(0..data.len().min(10)));
        }
        Ok(data)
    }

    fn delete(&self, key: &str) -> StorageResult<()> {
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> StorageResult<Vec<String>> {
        self.inner.list(prefix)
    }
}

fn schema() -> Schema {
    Schema::single("v", 2, Metric::L2)
}

fn batch(ids: std::ops::Range<i64>) -> InsertBatch {
    let id_vec: Vec<i64> = ids.collect();
    let mut vs = VectorSet::new(2);
    for &id in &id_vec {
        vs.push(&[id as f32, 0.0]);
    }
    InsertBatch::single(id_vec, vs)
}

#[test]
fn flush_error_propagates_and_engine_stays_usable() {
    let store = FaultyStore::new();
    let label = "fault_put";
    let engine = LsmEngine::new(
        schema(),
        LsmConfig { auto_merge: false, metrics_label: label.into(), ..Default::default() },
        store.clone() as Arc<dyn ObjectStore>,
        None,
    )
    .unwrap();

    let errors_before =
        milvus_obs::registry().snapshot().counter(milvus_obs::OBJECT_ERRORS, label);
    engine.insert(batch(0..10)).unwrap();
    store.fail_puts.store(true, Ordering::SeqCst);
    assert!(engine.flush().is_err(), "flush must report the injected put failure");

    // The injected fault must be visible in the metrics registry.
    let errors_after =
        milvus_obs::registry().snapshot().counter(milvus_obs::OBJECT_ERRORS, label);
    assert!(
        errors_after > errors_before,
        "injected put failure must increment {} (before={errors_before}, after={errors_after})",
        milvus_obs::OBJECT_ERRORS
    );

    // Recovery: the fault clears, a later flush succeeds with all data.
    store.fail_puts.store(false, Ordering::SeqCst);
    engine.insert(batch(10..20)).unwrap();
    engine.flush().unwrap();
    assert!(engine.snapshot().live_rows() >= 10);
}

#[test]
fn injected_get_failure_increments_error_counter_and_search_survives() {
    use milvus_core::{CollectionConfig, Milvus};
    use milvus_index::traits::SearchParams;

    let store = FaultyStore::new();
    let m = Milvus::with_store(store.clone() as Arc<dyn ObjectStore>);
    let name = "fault_get_search";
    let col = m
        .create_collection(name, schema(), CollectionConfig::for_tests())
        .unwrap();
    col.insert(batch(0..50)).unwrap();
    col.flush().unwrap();

    // Recovery attempt against a failing store: the read error must be
    // counted under the engine's collection label.
    let wal_dir =
        std::env::temp_dir().join(format!("milvus-fault-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).unwrap();
    let wal = wal_dir.join("wal.log");
    {
        let eng = LsmEngine::new(
            schema(),
            LsmConfig { auto_merge: false, metrics_label: "fault_get".into(), ..Default::default() },
            store.clone() as Arc<dyn ObjectStore>,
            Some(&wal),
        )
        .unwrap();
        eng.insert(batch(100..110)).unwrap();
        eng.flush().unwrap();
    }
    let before =
        milvus_obs::registry().snapshot().counter(milvus_obs::OBJECT_ERRORS, "fault_get");
    store.fail_gets.store(true, Ordering::SeqCst);
    assert!(LsmEngine::recover(
        schema(),
        LsmConfig { auto_merge: false, metrics_label: "fault_get".into(), ..Default::default() },
        store.clone() as Arc<dyn ObjectStore>,
        &wal,
    )
    .is_err());
    let after =
        milvus_obs::registry().snapshot().counter(milvus_obs::OBJECT_ERRORS, "fault_get");
    assert!(
        after > before,
        "injected get failure must increment {}",
        milvus_obs::OBJECT_ERRORS
    );

    // While the store is still failing, the already-open collection keeps
    // serving searches from its in-memory snapshot — no panic, no error.
    let queries_before = milvus_obs::registry().snapshot().counter(milvus_obs::QUERY_TOTAL, name);
    let hits = col.search("v", &[7.0, 0.0], &SearchParams::top_k(3)).unwrap();
    assert_eq!(hits[0].id, 7);
    let queries_after = milvus_obs::registry().snapshot().counter(milvus_obs::QUERY_TOTAL, name);
    assert_eq!(queries_after, queries_before + 1, "post-fault search must still be counted");

    store.fail_gets.store(false, Ordering::SeqCst);
    std::fs::remove_dir_all(&wal_dir).unwrap();
}

#[test]
fn recover_surfaces_read_failures() {
    let dir = std::env::temp_dir().join(format!("milvus-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("wal.log");

    let store = FaultyStore::new();
    {
        let engine = LsmEngine::new(
            schema(),
            LsmConfig { auto_merge: false, ..Default::default() },
            store.clone() as Arc<dyn ObjectStore>,
            Some(&wal),
        )
        .unwrap();
        engine.insert(batch(0..10)).unwrap();
        engine.flush().unwrap();
    }

    // I/O failure during recovery → error, not a half-recovered engine.
    store.fail_gets.store(true, Ordering::SeqCst);
    assert!(LsmEngine::recover(
        schema(),
        LsmConfig { auto_merge: false, ..Default::default() },
        store.clone() as Arc<dyn ObjectStore>,
        &wal,
    )
    .is_err());

    // Corrupt blob during recovery → decode error, not a panic.
    store.fail_gets.store(false, Ordering::SeqCst);
    store.corrupt_gets.store(true, Ordering::SeqCst);
    let r = LsmEngine::recover(
        schema(),
        LsmConfig { auto_merge: false, ..Default::default() },
        store.clone() as Arc<dyn ObjectStore>,
        &wal,
    );
    assert!(matches!(r, Err(StorageError::Corrupt(_))));

    // Clean store → full recovery.
    store.corrupt_gets.store(false, Ordering::SeqCst);
    let engine = LsmEngine::recover(
        schema(),
        LsmConfig { auto_merge: false, ..Default::default() },
        store as Arc<dyn ObjectStore>,
        &wal,
    )
    .unwrap();
    assert_eq!(engine.snapshot().live_rows(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_wal_frame_is_an_error_not_a_panic() {
    use milvus_storage::wal::Wal;

    let dir = std::env::temp_dir().join(format!("milvus-walcorrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    {
        let mut wal = Wal::open(&wal_path).unwrap();
        wal.append_insert(&batch(0..2)).unwrap();
        wal.append_delete(&[1]).unwrap();
    }
    let good = std::fs::read(&wal_path).unwrap();

    // Garbage glued on after the last frame reads as a frame that runs past
    // end-of-file — a torn append: recovery stops cleanly before it.
    let mut torn = good.clone();
    torn.extend_from_slice(b"{this is not a frame");
    std::fs::write(&wal_path, &torn).unwrap();
    assert_eq!(Wal::replay(&wal_path).unwrap().len(), 2);

    // A damaged byte inside a whole frame is corruption: refused, by the
    // log and by engine recovery, and the file is left as it was.
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    std::fs::write(&wal_path, &bad).unwrap();
    assert!(matches!(Wal::replay(&wal_path), Err(StorageError::Corrupt(_))));
    let recovered = LsmEngine::recover(
        schema(),
        LsmConfig::default(),
        Arc::new(MemoryStore::new()),
        &wal_path,
    );
    assert!(matches!(recovered, Err(StorageError::Corrupt(_))));
    assert_eq!(std::fs::read(&wal_path).unwrap(), bad);

    // So is a log in the old newline-delimited JSON format.
    std::fs::write(&wal_path, b"{\"Delete\":{\"lsn\":1,\"ids\":[1]}}\n").unwrap();
    assert!(matches!(Wal::replay(&wal_path), Err(StorageError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store whose `put` waits at a gate, to hold a flush between draining the
/// memtable and checkpointing the log.
struct GatedStore {
    inner: MemoryStore,
    /// Sent to when a `put` arrives at the gate.
    arrived: std::sync::mpsc::SyncSender<()>,
    /// `put` proceeds once this yields.
    open: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    gated: AtomicBool,
}

impl ObjectStore for GatedStore {
    fn put(&self, key: &str, data: Bytes) -> StorageResult<()> {
        if self.gated.load(Ordering::SeqCst) {
            self.arrived.send(()).unwrap();
            self.open.lock().unwrap().recv().unwrap();
        }
        self.inner.put(key, data)
    }
    fn get(&self, key: &str) -> StorageResult<Bytes> {
        self.inner.get(key)
    }
    fn delete(&self, key: &str) -> StorageResult<()> {
        self.inner.delete(key)
    }
    fn list(&self, prefix: &str) -> StorageResult<Vec<String>> {
        self.inner.list(prefix)
    }
}

/// An insert that is acknowledged while a flush is under way — logged, and
/// queued behind the flush barrier — must survive a crash right after that
/// flush: its checkpoint covers what the flush had applied, no more.
#[test]
fn insert_acknowledged_during_a_flush_survives_a_crash() {
    use milvus_core::{CollectionConfig, Milvus};

    let dir = std::env::temp_dir().join(format!("milvus-barrier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = CollectionConfig {
        wal_path: Some(dir.join("wal.log")),
        auto_index_type: None,
        flush_interval: std::time::Duration::from_secs(3600),
        ..CollectionConfig::for_tests()
    };
    let (arrived_tx, arrived) = std::sync::mpsc::sync_channel(1);
    let (open, open_rx) = std::sync::mpsc::sync_channel(1);
    let store = Arc::new(GatedStore {
        inner: MemoryStore::new(),
        arrived: arrived_tx,
        open: std::sync::Mutex::new(open_rx),
        gated: AtomicBool::new(true),
    });
    {
        let m = Milvus::with_store(store.clone() as Arc<dyn ObjectStore>);
        let col = m.create_collection("barrier", schema(), config.clone()).unwrap();
        col.insert(batch(0..10)).unwrap();
        std::thread::scope(|s| {
            let flusher = s.spawn(|| col.flush());
            // The flush has drained rows 0..10 and is writing their segment.
            arrived.recv().unwrap();
            col.insert(batch(10..15)).unwrap();
            store.gated.store(false, Ordering::SeqCst);
            open.send(()).unwrap();
            flusher.join().unwrap().unwrap();
        });
        assert_eq!(col.num_entities(), 10);
        // Crash: rows 10..15 were acknowledged, and never flushed.
    }
    let m = Milvus::with_store(store as Arc<dyn ObjectStore>);
    let col = m.create_collection("barrier", schema(), config).unwrap();
    assert_eq!(col.num_entities(), 10);
    col.flush().unwrap();
    assert_eq!(col.num_entities(), 15, "the insert acknowledged during the flush is back");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reader_refresh_failure_keeps_previous_view() {
    use milvus_distributed::coordinator::Coordinator;
    use milvus_distributed::reader::ReaderNode;
    use milvus_distributed::writer::WriterNode;
    use milvus_index::traits::SearchParams;

    let coordinator = Coordinator::new(2);
    let store = FaultyStore::new();
    let writer = WriterNode::new(
        schema(),
        LsmConfig { auto_merge: false, ..Default::default() },
        store.clone() as Arc<dyn ObjectStore>,
        Arc::clone(&coordinator),
    )
    .unwrap();
    let reader = ReaderNode::register(
        schema(),
        coordinator,
        store.clone() as Arc<dyn ObjectStore>,
        64 << 20,
    );

    writer.insert(batch(0..20)).unwrap();
    writer.flush().unwrap();
    reader.refresh().unwrap();
    let before = reader.search("v", &[5.0, 0.0], &SearchParams::top_k(3)).unwrap();

    // Shared storage becomes unreachable: refresh errors, but the reader
    // keeps serving its last-known view (stateless cache semantics).
    store.fail_gets.store(true, Ordering::SeqCst);
    writer.insert(batch(20..40)).unwrap();
    writer.flush().unwrap();
    assert!(reader.refresh().is_err());
    let still = reader.search("v", &[5.0, 0.0], &SearchParams::top_k(3)).unwrap();
    assert_eq!(before, still);

    // Connectivity returns: the reader catches up.
    store.fail_gets.store(false, Ordering::SeqCst);
    reader.refresh().unwrap();
    let after = reader.search("v", &[25.0, 0.0], &SearchParams::top_k(1)).unwrap();
    assert_eq!(after[0].id, 25);
}
