//! Per-layer probes: direct, single-client calls to each layer's public
//! functions with inputs cut from the run's generated data, and deltas of the
//! public counters around them.
//!
//! The probes are taken from outside — nothing in any crate is instrumented
//! for them — and run in the traced run only. Each probe operation is a root
//! span and each layer call a child, so the span file shows them too. Counts
//! taken here (compactions, write amplification, tasks per search, distance
//! computations per result) come from one client and no timer, so they
//! repeat exactly for a seed.

use std::sync::Arc;
use std::time::Instant;

use milvus_distributed::{Cluster, SimNet};
use milvus_exec::coalesce::{CoalesceConfig, Coalescer, Submitted};
use milvus_exec::Executor;
use milvus_index::batch::{cache_aware_search_exec, BatchOptions};
use milvus_index::flat::FlatIndex;
use milvus_index::registry::IndexRegistry;
use milvus_index::{BuildParams, Metric, VectorIndex, VectorSet};
use milvus_obs as obs;
use milvus_query::filtering::{FilterDataset, PartitionedDataset, RangePredicate, Strategy};
use milvus_storage::bufferpool::BufferPool;
use milvus_storage::object_store::{MemoryStore, ObjectStore};
use milvus_storage::segment::Segment;
use milvus_storage::{codec, InsertBatch, LsmConfig, LsmEngine, Schema};

use crate::gen::{exact_top_k, recall, Dataset, Rng, SELECTIVITIES};
use crate::manifest::STRATEGIES;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::systems::{
    err, query_batches, search_params, CollectionSystem, OpResult, Shape, ATTR, BATCH, FIELD, K,
    STORE_LATENCY,
};

/// Base rows the probes run on (the first rows of the workload's data).
pub const PROBE_ROWS: usize = 16_000;
/// Rows of the single segment the index and codec probes use.
const SEGMENT_ROWS: usize = 8_000;
/// Queries per timed loop.
const QUERIES: usize = 96;

/// One probe result: metric name, value, samples behind it.
pub type Reading = (String, f64, usize);

struct Probes<'a> {
    data: &'a Dataset,
    log: &'a mut SpanLog,
    out: Vec<Reading>,
}

impl Probes<'_> {
    fn put(&mut self, name: &str, value: f64, n: usize) {
        self.out.push((name.to_string(), value, n));
    }

    /// Time `f` in milliseconds as one operation `op` making one layer call
    /// `call`.
    fn timed<T>(
        &mut self,
        op: &'static str,
        call: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.log.op(op, |scope| {
            scope.call(call, || {
                let t = Instant::now();
                let out = f();
                (out, t.elapsed().as_secs_f64() * 1e3)
            })
        })
    }

    /// Median milliseconds of `f(query)` over the probe queries.
    fn per_query<E: std::fmt::Display>(
        &mut self,
        op: &'static str,
        call: &'static str,
        mut f: impl FnMut(&[f32]) -> Result<(), E>,
    ) -> OpResult<f64> {
        let data = self.data;
        let mut ms = Vec::with_capacity(QUERIES);
        for q in 0..QUERIES {
            let (res, t) = self.timed(op, call, || f(data.queries.get(q)));
            res.map_err(err)?;
            ms.push(t);
        }
        Ok(median(&ms))
    }
}

fn segment_inputs(data: &Dataset) -> (VectorSet, Vec<i64>) {
    let rows = SEGMENT_ROWS.min(data.base.len());
    let vectors = VectorSet::from_flat(data.dim, data.base.as_flat()[..rows * data.dim].to_vec());
    (vectors, (0..rows as i64).collect())
}

fn index_probes(p: &mut Probes<'_>) -> OpResult<()> {
    let data = p.data;
    let (vectors, ids) = segment_inputs(data);
    let registry = IndexRegistry::with_builtins();
    let sp = search_params();

    let (built, build_ms) = p.timed("probe.index.build", "IndexRegistry::build", || {
        registry.build("IVF_FLAT", &vectors, &ids, &BuildParams::default())
    });
    let ivf = built.map_err(err)?;
    p.put("index.build_s", build_ms / 1e3, 1);
    p.put(
        "index.bytes_per_vector",
        ivf.memory_bytes() as f64 / ivf.len() as f64,
        1,
    );

    let ms = p.per_query("probe.index.search", "VectorIndex::search", |q| {
        ivf.search(q, &sp).map(|hits| assert_eq!(hits.len(), K))
    })?;
    p.put("index.search_ms", ms, QUERIES);

    let mut recalls = Vec::with_capacity(QUERIES);
    for q in 0..QUERIES {
        let query = data.queries.get(q);
        let got: Vec<i64> = ivf
            .search(query, &sp)
            .map_err(err)?
            .iter()
            .map(|n| n.id)
            .collect();
        let truth = exact_top_k(data, ids.iter().copied(), query, K, |_| true);
        recalls.push(recall(&truth, &got));
    }
    p.put(
        "index.recall_at_10",
        recalls.iter().sum::<f64>() / recalls.len() as f64,
        QUERIES,
    );

    let flat = FlatIndex::build(Metric::L2, vectors.clone(), ids.clone()).map_err(err)?;
    let ms = p.per_query("probe.index.flat_scan", "FlatIndex::search", |q| {
        flat.search(q, &sp).map(drop)
    })?;
    p.put("index.flat_scan_ms", ms, QUERIES);

    let mut dists = vec![0.0f32; vectors.len()];
    let ms = p.per_query("probe.index.distance", "distance::distances_into", |q| {
        milvus_index::distance::distances_into(
            Metric::L2,
            q,
            vectors.as_flat(),
            data.dim,
            &mut dists,
        );
        std::hint::black_box(&dists);
        Ok::<(), String>(())
    })?;
    p.put(
        "index.distance_ns_per_vec",
        ms * 1e6 / vectors.len() as f64,
        QUERIES,
    );

    let exec = Executor::global();
    let opts = BatchOptions {
        k: K,
        metric: Metric::L2,
        threads: exec.threads(),
        ..Default::default()
    };
    let batches = query_batches(data);
    let mut ms = Vec::new();
    for qs in batches.iter().take(12) {
        let (lists, t) = p.timed(
            "probe.index.batch_engine",
            "batch::cache_aware_search_exec",
            || cache_aware_search_exec(exec, &vectors, &ids, qs, &opts),
        );
        assert_eq!(lists.len(), BATCH);
        ms.push(t);
    }
    p.put(
        "index.batch_engine_qps",
        BATCH as f64 / (median(&ms) / 1e3),
        ms.len(),
    );
    Ok(())
}

fn core_and_exec_probes(
    p: &mut Probes<'_>,
    data: &Arc<Dataset>,
    scratch: &std::path::Path,
) -> OpResult<()> {
    let (sys, _) = CollectionSystem::setup(Shape::AnnRead, data, scratch, 1000)?;
    let col = sys.collection();
    let sp = search_params();
    let before = obs::registry().snapshot();
    let call_ms = p.per_query("probe.core.search", "Collection::search", |q| {
        col.search(FIELD, q, &sp)
            .map(|hits| assert_eq!(hits.len(), K))
    })?;
    let after = obs::registry().snapshot();
    p.put("core.search_call_ms", call_ms, QUERIES);
    let delta =
        |name: &str| (after.counter(name, "global") - before.counter(name, "global")) as f64;
    let tasks = delta(obs::EXEC_TASKS);
    p.put("exec.tasks_per_search", tasks / QUERIES as f64, QUERIES);
    p.put(
        "exec.steal_ratio",
        if tasks > 0.0 {
            delta(obs::EXEC_STEALS) / tasks
        } else {
            0.0
        },
        QUERIES,
    );

    // The same queries against each segment's index directly, one after
    // another: what the call costs beyond the index work it fans out.
    let snapshot = col.snapshot();
    let indexes: Vec<Arc<dyn VectorIndex>> = snapshot
        .segments
        .iter()
        .map(|s| {
            s.index(FIELD)
                .ok_or("probe collection has an unindexed segment")
        })
        .collect::<Result<_, _>>()?;
    let index_ms = p.per_query("probe.core.segment_indexes", "VectorIndex::search", |q| {
        indexes
            .iter()
            .try_for_each(|ix| ix.search(q, &sp).map(drop))
    })?;
    p.put("core.overhead_ratio", 1.0 - index_ms / call_ms, QUERIES);

    let exec = Executor::global();
    const TASKS: usize = 64;
    let mut dispatch = Vec::new();
    let mut waits = Vec::new();
    for _ in 0..40 {
        let ((), ms) = p.timed("probe.exec.dispatch", "Executor::scoped_map", || {
            std::hint::black_box(exec.scoped_map(TASKS, |i| i));
        });
        dispatch.push(ms * 1e3 / TASKS as f64);
        let (timed, _) = p.timed(
            "probe.exec.queue_wait",
            "Executor::scoped_map_timed",
            || exec.scoped_map_timed(TASKS, |i| i),
        );
        waits.extend(
            timed
                .iter()
                .map(|(_, t)| t.queue_wait().as_secs_f64() * 1e6),
        );
    }
    p.put(
        "exec.dispatch_us",
        median(&dispatch),
        dispatch.len() * TASKS,
    );
    p.put("exec.queue_wait_us_p50", median(&waits), waits.len());

    let coalescer: Coalescer<u32, u32> = Coalescer::new(CoalesceConfig::default());
    let mut submit = Vec::new();
    for _ in 0..200 {
        let ((), ms) = p.timed("probe.exec.coalesce", "Coalescer::submit", || {
            for i in 0..100 {
                match coalescer.submit(i, |batch| batch) {
                    Submitted::Pass(guard) => drop(guard),
                    Submitted::Coalesced { .. } => unreachable!("a lone submitter passes through"),
                }
            }
        });
        submit.push(ms * 1e3 / 100.0);
    }
    p.put(
        "exec.coalesce_submit_us",
        median(&submit),
        submit.len() * 100,
    );
    Ok(())
}

fn probe_batch(data: &Dataset, rows: std::ops::Range<usize>) -> InsertBatch {
    let mut vs = VectorSet::with_capacity(data.dim, rows.len());
    for r in rows.clone() {
        vs.push(data.base.get(r));
    }
    InsertBatch {
        ids: rows.clone().map(|r| r as i64).collect(),
        vectors: vec![vs],
        attributes: vec![data.attrs[rows].to_vec()],
    }
}

fn storage_probes(p: &mut Probes<'_>, scratch: &std::path::Path, seed: u64) -> OpResult<()> {
    let data = p.data;
    const LABEL: &str = "probe_lsm";
    const CYCLES: usize = 16;
    const ROWS: usize = 500;
    let schema = Schema::single(FIELD, data.dim, Metric::L2).with_attribute(ATTR);
    let store = Arc::new(MemoryStore::new());
    // Merges are run by hand below so that flush and merge are timed apart.
    let config = LsmConfig {
        flush_threshold_bytes: 1 << 40,
        auto_merge: false,
        metrics_label: LABEL.to_string(),
        ..Default::default()
    };
    let wal = scratch.join("probe_wal.log");
    let engine = LsmEngine::new(
        schema,
        config,
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        Some(&wal),
    )
    .map_err(err)?;
    let before = obs::registry().snapshot();
    let (mut insert_ms, mut flush_ms, mut merge_ms) = (Vec::new(), Vec::new(), Vec::new());
    for c in 0..CYCLES {
        let batch = probe_batch(data, c * ROWS..(c + 1) * ROWS);
        let (res, ms) = p.timed("probe.storage.insert", "LsmEngine::insert", || {
            engine.insert(batch)
        });
        res.map_err(err)?;
        insert_ms.push(ms);
        if c == CYCLES / 2 {
            let gone: Vec<i64> = (0..100).collect();
            engine.delete(&gone).map_err(err)?;
        }
        let (res, ms) = p.timed("probe.storage.flush", "LsmEngine::flush", || {
            engine.flush().map(drop)
        });
        res.map_err(err)?;
        flush_ms.push(ms);
        let (res, ms) = p.timed("probe.storage.merge", "LsmEngine::maybe_merge", || {
            engine.maybe_merge()
        });
        if res.map_err(err)? > 0 {
            merge_ms.push(ms);
        }
    }
    let after = obs::registry().snapshot();
    let delta = |name: &str| (after.counter(name, LABEL) - before.counter(name, LABEL)) as f64;
    let rows = (CYCLES * ROWS) as f64;
    let user_bytes = rows * data.user_bytes_per_row(1) as f64;
    p.put(
        "storage.insert_rows_per_s",
        rows / (insert_ms.iter().sum::<f64>() / 1e3),
        CYCLES,
    );
    p.put(
        "storage.wal_bytes_per_user_byte",
        delta(obs::WAL_BYTES) / user_bytes,
        CYCLES,
    );
    p.put("storage.flush_ms", median(&flush_ms), flush_ms.len());
    p.put("storage.merge_ms", median(&merge_ms), merge_ms.len());
    p.put("storage.compactions", delta(obs::COMPACTIONS), CYCLES);
    p.put(
        "storage.write_amp",
        (delta(obs::OBJECT_PUT_BYTES) + delta(obs::WAL_BYTES)) / user_bytes,
        CYCLES,
    );
    p.put(
        "storage.segments_end",
        engine.snapshot().segments.len() as f64,
        1,
    );

    // Codec and load path: one segment through encode, a 1 ms store, decode.
    let rows = SEGMENT_ROWS.min(data.base.len());
    let segment =
        Segment::from_batch(1, engine.schema(), &probe_batch(data, 0..rows)).map_err(err)?;
    let mut encode_ms = Vec::new();
    for _ in 0..8 {
        let (blob, ms) = p.timed("probe.storage.encode", "codec::encode_segment", || {
            codec::encode_segment(&segment)
        });
        encode_ms.push(blob.len() as f64 / 1e6 / (ms / 1e3));
    }
    p.put(
        "storage.codec_encode_mb_per_s",
        median(&encode_ms),
        encode_ms.len(),
    );

    let remote = MemoryStore::with_latency(STORE_LATENCY);
    const POOL_SEGMENTS: u64 = 8;
    let small =
        Segment::from_batch(1, engine.schema(), &probe_batch(data, 0..rows / 4)).map_err(err)?;
    for key in 0..POOL_SEGMENTS {
        remote
            .put(&format!("seg/{key}"), codec::encode_segment(&small))
            .map_err(err)?;
    }
    let load = |key: u64| -> milvus_storage::Result<Arc<Segment>> {
        let blob = remote.get(&format!("seg/{key}"))?;
        Ok(Arc::new(codec::decode_segment(key + 1, 1, &blob)?))
    };
    let mut load_ms = Vec::new();
    for key in 0..POOL_SEGMENTS {
        let (res, ms) = p.timed(
            "probe.storage.segment_load",
            "ObjectStore::get+codec::decode_segment",
            || load(key),
        );
        res.map_err(err)?;
        load_ms.push(ms);
    }
    p.put("storage.segment_load_ms", median(&load_ms), load_ms.len());

    // A pool holding half the working set, read with a seeded skew toward
    // the low keys: the cache-pressure case the cluster workload (whose data
    // fits its readers' pools) does not reach.
    let pool = BufferPool::new(small.memory_bytes() * POOL_SEGMENTS as usize / 2);
    let mut rng = Rng::new(seed, 77);
    const READS: usize = 200;
    for _ in 0..READS {
        let key = rng
            .below(POOL_SEGMENTS as usize)
            .min(rng.below(POOL_SEGMENTS as usize)) as u64;
        let (res, _) = p.timed("probe.storage.pool_read", "BufferPool::get_or_load", || {
            pool.get_or_load(key, || load(key))
        });
        res.map_err(err)?;
    }
    let stats = pool.stats();
    p.put(
        "storage.bufferpool_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses) as f64,
        READS,
    );
    p.put(
        "storage.bufferpool_evictions",
        stats.evictions as f64,
        READS,
    );
    Ok(())
}

fn query_probes(p: &mut Probes<'_>) -> OpResult<()> {
    let data = p.data;
    const PER_CELL: usize = 16;
    let registry = IndexRegistry::with_builtins();
    let ids: Vec<i64> = (0..data.base.len() as i64).collect();
    let params = BuildParams::default();
    let (built, _) = p.timed("probe.query.build", "FilterDataset::build", || {
        FilterDataset::build(
            Metric::L2,
            data.base.clone(),
            ids.clone(),
            data.attrs.clone(),
            ATTR,
            "IVF_FLAT",
            &registry,
            &params,
        )
    });
    let whole = built.map_err(err)?;
    let (built, _) = p.timed("probe.query.build", "PartitionedDataset::build", || {
        PartitionedDataset::build(
            Metric::L2,
            &data.base,
            &ids,
            &data.attrs,
            ATTR,
            8,
            "IVF_FLAT",
            &registry,
            &params,
        )
    });
    let parts = built.map_err(err)?;
    let sp = search_params();

    let (mut regrets, mut computations, mut results) = (Vec::new(), 0usize, 0usize);
    for (label, pass) in SELECTIVITIES {
        let slots: Vec<usize> = (0..data.predicates.len())
            .filter(|&s| data.predicates[s].pass == pass)
            .take(PER_CELL)
            .collect();
        let mut cell_ms = [0.0f64; 5];
        for (si, name) in STRATEGIES.iter().enumerate() {
            let mut ms = Vec::with_capacity(slots.len());
            for &slot in &slots {
                let pr = data.predicates[slot];
                let pred = RangePredicate::new(pr.lo, pr.hi);
                let q = data.queries.get(slot);
                let (res, t) = match *name {
                    "E" => p.timed("probe.query.strategy", "PartitionedDataset::search", || {
                        parts.search(q, pred, &sp)
                    }),
                    _ => {
                        let strategy = [Strategy::A, Strategy::B, Strategy::C, Strategy::D][si];
                        p.timed("probe.query.strategy", "FilterDataset::search", || {
                            whole.search(q, pred, &sp, strategy)
                        })
                    }
                };
                let (hits, trace) = res.map_err(err)?;
                if hits.iter().any(|n| !pr.matches(data.attr_of(n.id))) {
                    return Err(format!(
                        "strategy {name} returned a row outside its predicate"
                    ));
                }
                if *name == "D" {
                    computations += trace.distance_computations;
                    results += hits.len();
                }
                ms.push(t);
            }
            cell_ms[si] = median(&ms);
            p.put(
                &format!("query.strategy_ms.{name}.{label}"),
                cell_ms[si],
                slots.len(),
            );
        }
        let best = cell_ms[..3].iter().copied().fold(f64::INFINITY, f64::min);
        regrets.push(cell_ms[3] / best);
    }
    p.put(
        "query.plan_regret",
        regrets.iter().sum::<f64>() / regrets.len() as f64,
        regrets.len(),
    );
    p.put(
        "query.distance_computations_per_result",
        computations as f64 / results.max(1) as f64,
        results,
    );
    Ok(())
}

fn distributed_probes(p: &mut Probes<'_>, seed: u64) -> OpResult<()> {
    let data = p.data;
    const LOAD_BATCH: usize = 2000;
    let rows = SEGMENT_ROWS.min(data.base.len());
    // A fault-free simulated network instead of the direct transport, so
    // that messages are counted; log shipping on, so that records are.
    let net = SimNet::new(seed);
    let store = Arc::new(MemoryStore::with_latency(STORE_LATENCY));
    let cluster = Cluster::with_failover(
        Schema::single(FIELD, data.dim, Metric::L2),
        crate::systems::CLUSTER_SHARDS,
        crate::systems::CLUSTER_READERS,
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        LsmConfig {
            flush_threshold_bytes: 1 << 40,
            ..Default::default()
        },
        Arc::clone(&net) as Arc<dyn milvus_distributed::Transport>,
    )
    .map_err(err)?;
    let shipped_before = obs::registry()
        .snapshot()
        .counter(obs::LOG_SHIP_RECORDS, "shared");
    let mut batches = 0;
    for first in (0..rows).step_by(LOAD_BATCH) {
        let ids: Vec<i64> = (first..(first + LOAD_BATCH).min(rows))
            .map(|i| i as i64)
            .collect();
        let mut vs = VectorSet::with_capacity(data.dim, ids.len());
        ids.iter().for_each(|&id| vs.push(data.vector_of(id)));
        let (res, _) = p.timed("probe.distributed.insert", "Cluster::insert", || {
            cluster.insert(InsertBatch::single(ids, vs))
        });
        res.map_err(err)?;
        batches += 1;
    }
    let shipped = obs::registry()
        .snapshot()
        .counter(obs::LOG_SHIP_RECORDS, "shared")
        - shipped_before;
    p.put(
        "distributed.log_ship_records_per_batch",
        shipped as f64 / batches as f64,
        batches,
    );
    cluster.flush().map_err(err)?;

    let readers = cluster.readers();
    // The hash ring may leave a reader without shards; probe the one that
    // serves the most.
    let busiest = readers
        .iter()
        .max_by_key(|r| r.assigned_shards().len())
        .ok_or("the probe cluster has no reader")?;
    let mut refresh_ms = Vec::new();
    for _ in 0..6 {
        let (res, ms) = p.timed("probe.distributed.refresh", "ReaderNode::refresh", || {
            busiest.refresh()
        });
        res.map_err(err)?;
        refresh_ms.push(ms);
    }
    p.put(
        "distributed.refresh_ms",
        median(&refresh_ms),
        refresh_ms.len(),
    );

    let sp = search_params();
    let ms = p.per_query(
        "probe.distributed.reader_search",
        "ReaderNode::search",
        |q| busiest.search(FIELD, q, &sp).map(drop),
    )?;
    p.put("distributed.reader_search_ms", ms, QUERIES);

    cluster.reset_busy();
    let sent_before = net.stats().sent;
    let (mut overhead_ms, mut covered) = (Vec::new(), 0usize);
    for q in 0..QUERIES {
        let query = data.queries.get(q);
        let (report, whole_ms) = p.timed("probe.distributed.search", "Cluster::search", || {
            cluster.search_detailed(FIELD, query, &sp)
        });
        covered += crate::systems::CLUSTER_SHARDS - report.map_err(err)?.uncovered_shards.len();
        let mut slowest: f64 = 0.0;
        for r in &readers {
            let (res, ms) = p.timed(
                "probe.distributed.reader_search",
                "ReaderNode::search",
                || r.search(FIELD, query, &sp),
            );
            res.map_err(err)?;
            slowest = slowest.max(ms);
        }
        overhead_ms.push(whole_ms - slowest);
    }
    // Both the cluster searches and the direct reader calls above add to the
    // busy clocks; per operation the slowest reader's share is what counts.
    p.put(
        "distributed.critical_path_ms",
        cluster.critical_path().as_secs_f64() * 1e3 / (2 * QUERIES) as f64,
        2 * QUERIES,
    );
    p.put(
        "distributed.fanout_overhead_ms",
        median(&overhead_ms),
        QUERIES,
    );
    p.put(
        "distributed.net_sent_per_op",
        (net.stats().sent - sent_before) as f64 / QUERIES as f64,
        QUERIES,
    );
    p.put(
        "distributed.coverage_ratio",
        covered as f64 / (QUERIES * crate::systems::CLUSTER_SHARDS) as f64,
        QUERIES,
    );
    Ok(())
}

/// Run every probe on the first [`PROBE_ROWS`] rows of `data`.
pub fn run(
    data: &Dataset,
    seed: u64,
    scratch: &std::path::Path,
    log: &mut SpanLog,
) -> OpResult<Vec<Reading>> {
    let small = Arc::new(data.prefix(PROBE_ROWS));
    let mut p = Probes {
        data: &small,
        log,
        out: Vec::new(),
    };
    index_probes(&mut p)?;
    core_and_exec_probes(&mut p, &small, scratch)?;
    storage_probes(&mut p, scratch, seed)?;
    query_probes(&mut p)?;
    distributed_probes(&mut p, seed)?;
    Ok(p.out)
}
