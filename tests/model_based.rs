//! Model-based testing: random operation sequences applied both to the real
//! LSM engine and to a trivial in-memory reference model must always agree —
//! on the live entity set, on point lookups, and on exact nearest-neighbor
//! results.

use std::collections::HashMap;
use std::sync::Arc;

use milvus_index::registry::IndexRegistry;
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{distance, Metric, TopK, VectorSet};
use milvus_storage::merge::MergePolicy;
use milvus_storage::object_store::MemoryStore;
use milvus_storage::{InsertBatch, LsmConfig, LsmEngine, Schema};
use rand::prelude::*;
use rand::rngs::StdRng;

#[derive(Debug, Clone)]
enum Op {
    /// Insert `count` fresh entities.
    Insert { count: u8 },
    /// Delete an entity by index into the set of ids ever created.
    Delete { pick: u16 },
    /// Re-insert (update) a previously deleted id with a new vector.
    Reinsert { pick: u16 },
    Flush,
    Merge,
    /// Build IVF_FLAT on every flushed segment that has no index: from then
    /// on those segments keep their vectors in bucket order.
    BuildIndex,
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..6) {
        0 => Op::Insert { count: rng.gen_range(1u8..20) },
        1 => Op::Delete { pick: rng.gen_range(0u16..u16::MAX) },
        2 => Op::Reinsert { pick: rng.gen_range(0u16..u16::MAX) },
        3 => Op::Flush,
        4 => Op::Merge,
        _ => Op::BuildIndex,
    }
}

fn vector_for(id: i64, generation: u32) -> Vec<f32> {
    vec![id as f32, generation as f32]
}

/// The reference model: id → (vector, alive).
#[derive(Default)]
struct Model {
    rows: HashMap<i64, (Vec<f32>, bool)>,
    next_id: i64,
    generations: HashMap<i64, u32>,
}

impl Model {
    fn live(&self) -> Vec<i64> {
        let mut v: Vec<i64> =
            self.rows.iter().filter(|(_, (_, alive))| *alive).map(|(&id, _)| id).collect();
        v.sort_unstable();
        v
    }

    fn nearest(&self, q: &[f32], k: usize) -> Vec<i64> {
        let mut heap = TopK::new(k.max(1));
        for (&id, (v, alive)) in &self.rows {
            if *alive {
                heap.push(id, distance::l2_sq(q, v));
            }
        }
        heap.into_sorted().into_iter().map(|n| n.id).collect()
    }
}

fn engine() -> LsmEngine {
    LsmEngine::new(
        Schema::single("v", 2, Metric::L2),
        LsmConfig {
            flush_threshold_bytes: 1 << 20,
            auto_merge: false,
            merge_policy: MergePolicy { min_segments_per_merge: 2, ..Default::default() },
            persist_segments: true,
            ..Default::default()
        },
        Arc::new(MemoryStore::new()),
        None,
    )
    .unwrap()
}

/// Apply `op` to both; returns how many records it put into the engine's log.
fn apply(engine: &LsmEngine, model: &mut Model, op: &Op) -> u64 {
    match op {
        Op::Insert { count } => {
            let ids: Vec<i64> = (model.next_id..model.next_id + *count as i64).collect();
            model.next_id += *count as i64;
            let mut vs = VectorSet::new(2);
            for &id in &ids {
                let v = vector_for(id, 0);
                vs.push(&v);
                model.rows.insert(id, (v, true));
                model.generations.insert(id, 0);
            }
            engine.insert(InsertBatch::single(ids, vs)).unwrap();
            1
        }
        Op::Delete { pick } => {
            if model.next_id == 0 {
                return 0;
            }
            let id = (*pick as i64) % model.next_id;
            // The engine tolerates deletes of already-dead ids; mirror that.
            engine.delete(&[id]).unwrap();
            if let Some(row) = model.rows.get_mut(&id) {
                row.1 = false;
            }
            1
        }
        Op::Reinsert { pick } => {
            if model.next_id == 0 {
                return 0;
            }
            let id = (*pick as i64) % model.next_id;
            let alive = model.rows.get(&id).map(|r| r.1).unwrap_or(false);
            if alive {
                return 0; // engine would reject a duplicate; model skips too
            }
            let generation = model.generations.get(&id).copied().unwrap_or(0) + 1;
            let v = vector_for(id, generation);
            let mut vs = VectorSet::new(2);
            vs.push(&v);
            engine.insert(InsertBatch::single(vec![id], vs)).unwrap();
            model.rows.insert(id, (v, true));
            model.generations.insert(id, generation);
            1
        }
        Op::Flush => {
            engine.flush().unwrap();
            0
        }
        Op::Merge => {
            engine.flush().unwrap();
            engine.maybe_merge().unwrap();
            0
        }
        Op::BuildIndex => {
            engine.flush().unwrap();
            let registry = IndexRegistry::with_builtins();
            let params = BuildParams { kmeans_iters: 3, ..Default::default() };
            for seg in &engine.snapshot().segments {
                if seg.index("v").is_none() {
                    let indexed =
                        seg.build_index(engine.schema(), "v", "IVF_FLAT", &registry, &params);
                    engine.replace_segment(Arc::new(indexed.unwrap())).unwrap();
                }
            }
            0
        }
    }
}

fn check_agreement(engine: &LsmEngine, model: &Model) {
    engine.flush().unwrap();
    let snap = engine.snapshot();

    // Live sets agree.
    let mut engine_live: Vec<i64> = snap
        .segments
        .iter()
        .flat_map(|s| {
            s.data().row_ids.iter().copied().filter(|&id| !s.is_deleted(id)).collect::<Vec<_>>()
        })
        .collect();
    engine_live.sort_unstable();
    assert_eq!(engine_live, model.live(), "live sets diverged");

    // Point lookups agree (including vector contents after updates).
    for (&id, (v, alive)) in &model.rows {
        match snap.locate(id) {
            Some(seg) if *alive => {
                let row = seg.data().row_ids.binary_search(&id).unwrap();
                assert_eq!(seg.data().vectors[0].get(row), &v[..], "vector of id {id}");
            }
            Some(_) => panic!("dead id {id} is visible"),
            None => assert!(!alive, "live id {id} not found"),
        }
    }

    // Exact nearest-neighbor results agree (every bucket of an indexed
    // segment is probed, so its scan is exhaustive too).
    if !model.live().is_empty() {
        let schema = engine.schema().clone();
        let exhaustive = SearchParams { k: 5, nprobe: usize::MAX, ..Default::default() };
        for probe_id in model.live().iter().take(3) {
            let q = model.rows[probe_id].0.clone();
            let expect = model.nearest(&q, 5);
            let lists: Vec<_> = snap
                .segments
                .iter()
                .map(|s| {
                    s.search_field(&schema, "v", &q, &exhaustive, None).unwrap()
                })
                .collect();
            let got: Vec<i64> =
                milvus_storage::segment::merge_segment_results(&lists, 5)
                    .iter()
                    .map(|n| n.id)
                    .collect();
            assert_eq!(got, expect, "nearest neighbors diverged for probe {probe_id}");
        }
    }
}

/// Run one randomized operation sequence per case, each reproducible from
/// the seed printed on failure.
fn run_cases(n_cases: u64, max_ops: usize, check: impl Fn(&[Op])) {
    for case in 0..n_cases {
        let seed = 0x5EED ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let n_ops = rng.gen_range(1..max_ops);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&ops)));
        if let Err(payload) = result {
            eprintln!("model-based case failed for seed {seed:#x}: {ops:?}");
            std::panic::resume_unwind(payload);
        }
    }
}

#[test]
fn lsm_engine_matches_reference_model() {
    run_cases(24, 60, |ops| {
        let engine = engine();
        let mut model = Model::default();
        for op in ops {
            apply(&engine, &mut model, op);
        }
        check_agreement(&engine, &model);
    });
}

/// Same sequence, but agreement is also checked against an engine that went
/// through a full persist + recover cycle at the end.
#[test]
fn model_survives_codec_roundtrip() {
    run_cases(24, 40, |ops| {
        let store: Arc<MemoryStore> = Arc::new(MemoryStore::new());
        let engine = LsmEngine::new(
            Schema::single("v", 2, Metric::L2),
            LsmConfig {
                flush_threshold_bytes: 1 << 20,
                auto_merge: false,
                merge_policy: MergePolicy { min_segments_per_merge: 2, ..Default::default() },
                persist_segments: true,
                ..Default::default()
            },
            store.clone(),
            None,
        )
        .unwrap();
        let mut model = Model::default();
        for op in ops {
            apply(&engine, &mut model, op);
        }
        engine.flush().unwrap();

        // Reload everything from the object store and re-check.
        let reloaded = LsmEngine::open_from_store(
            Schema::single("v", 2, Metric::L2),
            LsmConfig { auto_merge: false, ..Default::default() },
            store,
            None,
        )
        .unwrap();
        check_agreement(&reloaded, &model);
    });
}

/// Where the writer dies, relative to its last flush.
#[derive(Debug, Clone, Copy)]
enum CrashPoint {
    /// No flush: the last operations are in the log (one of them applied to
    /// the memtable, one only appended).
    BeforeFlush,
    /// The segment is in the store; the log has not heard of it.
    AfterSegmentPut,
    /// The checkpoint frame is in the log; nothing is truncated.
    AfterCheckpoint,
    /// The flush returned.
    AfterTruncate,
}

/// Crash the writer at every point of its write path, after a random
/// operation sequence, and recover — twice, since replay must be idempotent.
/// The recovered engine agrees with the model on the live set (a duplicate
/// row would show as a diverged set), on every vector and on nearest
/// neighbours, and the log's next LSN never goes backwards.
#[test]
fn recovery_matches_the_model_at_every_crash_point() {
    use milvus_storage::wal::Wal;

    let dir = std::env::temp_dir().join(format!("milvus-crashpoints-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    let before_flush = dir.join("before-flush.log");
    let config = || LsmConfig {
        flush_threshold_bytes: 1 << 20,
        auto_merge: false,
        merge_policy: MergePolicy { min_segments_per_merge: 2, ..Default::default() },
        ..Default::default()
    };
    let schema = || Schema::single("v", 2, Metric::L2);

    for crash in [
        CrashPoint::BeforeFlush,
        CrashPoint::AfterSegmentPut,
        CrashPoint::AfterCheckpoint,
        CrashPoint::AfterTruncate,
    ] {
        run_cases(12, 40, |ops| {
            let _ = std::fs::remove_file(&wal_path);
            let store: Arc<MemoryStore> = Arc::new(MemoryStore::new());
            let mut model = Model::default();
            let mut logged = 0;
            {
                let engine =
                    LsmEngine::new(schema(), config(), store.clone(), Some(&wal_path)).unwrap();
                for op in ops {
                    logged += apply(&engine, &mut model, op);
                }
                // One more insert, applied; and one that is acknowledged
                // (appended to the log) but not applied when the flush runs.
                logged += apply(&engine, &mut model, &Op::Insert { count: 3 });
                let applied = logged;
                let id = model.next_id;
                model.next_id += 1;
                model.rows.insert(id, (vector_for(id, 0), true));
                let unapplied =
                    InsertBatch::single(vec![id], VectorSet::from_flat(2, vector_for(id, 0)));
                assert_eq!(engine.log_insert(&unapplied).unwrap(), applied + 1);
                logged += 1;

                std::fs::copy(&wal_path, &before_flush).unwrap();
                if !matches!(crash, CrashPoint::BeforeFlush) {
                    engine.flush().unwrap();
                }
                drop(engine);
                match crash {
                    CrashPoint::BeforeFlush | CrashPoint::AfterTruncate => {}
                    CrashPoint::AfterSegmentPut => {
                        std::fs::copy(&before_flush, &wal_path).unwrap();
                    }
                    CrashPoint::AfterCheckpoint => {
                        std::fs::copy(&before_flush, &wal_path).unwrap();
                        Wal::open(&wal_path).unwrap().append_checkpoint(applied).unwrap();
                    }
                }
            }

            let recover = || LsmEngine::recover(schema(), config(), store.clone(), &wal_path);
            let first = recover().unwrap_or_else(|e| panic!("{crash:?}: {e}"));
            assert!(first.pending_rows() >= 1, "{crash:?}: the unapplied insert is replayed");
            drop(first);
            assert_eq!(Wal::open(&wal_path).unwrap().next_lsn(), logged + 1, "{crash:?}");

            let second = recover().unwrap();
            check_agreement(&second, &model);
            drop(second);
            assert_eq!(Wal::open(&wal_path).unwrap().next_lsn(), logged + 1, "{crash:?}");
        });
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
