//! Concurrent-search shoot-out: the coalescing query scheduler vs the
//! serial per-query path, at client concurrency c ∈ {1, 2, 8, 64}.
//!
//! Twin collections hold identical flat (unindexed) data so every query is
//! a full segment scan — the shape where cross-query coalescing pays: the
//! ×4-tiled batch engine streams each data row once per query tile instead
//! of once per query. At c=1 and c=2 the scheduler must cost nothing (a run
//! slot is free, every query passes through — two clients are no reason to
//! wait for each other); at c=64 it must win throughput.
//!
//! Emits `BENCH_concurrent_search.json` in the current directory:
//!
//! ```json
//! {"config": {...}, "results": [
//!   {"concurrency": 64, "mode": "coalesced", "qps": 81234.5,
//!    "mean_latency_us": 780.1, "speedup_vs_serial": 1.62}, ...]}
//! ```
//!
//! `--smoke` (or `--test`) shrinks the workload to a CI-friendly second and
//! asserts the acceptance floors: coalesced QPS ≥ 1.2× serial at the highest
//! concurrency and ≥ 0.9× serial at c=2 (exit 1 otherwise).

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use milvus_core::{Collection, CollectionConfig, Milvus};
use milvus_datagen as datagen;
use milvus_index::traits::SearchParams;
use milvus_index::{Metric, VectorSet};
use milvus_storage::{InsertBatch, Schema};

struct Measurement {
    concurrency: usize,
    mode: &'static str,
    total_queries: usize,
    best_wall_us: f64,
    qps: f64,
    mean_latency_us: f64,
}

fn make_collection(m: &Milvus, name: &str, data: &VectorSet, coalescing: bool) -> Arc<Collection> {
    let mut cfg = CollectionConfig::for_tests();
    cfg.lsm.flush_threshold_bytes = 1 << 30; // one segment: isolate scan cost
    cfg.scheduler.coalescing = coalescing;
    cfg.scheduler.max_batch = 64;
    let col = m
        .create_collection(name, Schema::single("v", data.dim(), Metric::L2), cfg)
        .expect("create collection");
    let ids: Vec<i64> = (0..data.len() as i64).collect();
    col.insert(InsertBatch::single(ids, data.clone())).expect("insert");
    col.flush().expect("flush");
    col
}

/// One timed pass: `c` client threads, each firing `per_thread` searches
/// back to back. Each thread stamps its own start/end after the release
/// barrier (the driver thread may not be rescheduled promptly on a busy
/// single-core box, so it cannot keep the clock itself); the wall is
/// `max(end) - min(start)` across threads. Returns (wall_us, served).
fn storm(col: &Arc<Collection>, queries: &VectorSet, c: usize, per_thread: usize) -> (f64, usize) {
    let sp = SearchParams::top_k(10);
    let barrier = Barrier::new(c);
    let spans = std::thread::scope(|s| {
        let handles: Vec<_> = (0..c)
            .map(|t| {
                let (barrier, sp) = (&barrier, &sp);
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut served = 0usize;
                    for i in 0..per_thread {
                        let q = queries.get((t * per_thread + i) % queries.len());
                        served += black_box(col.search("v", q, sp).expect("search")).len().min(1);
                    }
                    (start, Instant::now(), served)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    let first = spans.iter().map(|(s, _, _)| *s).min().unwrap();
    let last = spans.iter().map(|(_, e, _)| *e).max().unwrap();
    let served = spans.iter().map(|(_, _, n)| n).sum();
    (last.duration_since(first).as_secs_f64() * 1e6, served)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test");
    // At an 8000×128 shape the ×4 register-tiled engine serves a 64-query
    // batch ~2.4× cheaper per query than one-at-a-time scans; smaller shapes
    // are compute-light enough that per-query overheads mask the tiling win.
    let (n, dim, per_thread, reps) =
        if smoke { (8000, 128, 6, 2) } else { (20000, 128, 16, 3) };
    let concurrencies = [1usize, 2, 8, 64];

    eprintln!("building twin collections: n={n} dim={dim} ...");
    let data = datagen::clustered(n, dim, 32, 0.0, 100.0, 8.0, 42);
    let queries = datagen::queries_from(&data, 256, 2.0, 43);
    let m = Milvus::new();
    let serial = make_collection(&m, "bench_serial", &data, false);
    let coalesced = make_collection(&m, "bench_coalesced", &data, true);

    let mut results: Vec<Measurement> = Vec::new();
    for &c in &concurrencies {
        for (mode, col) in [("serial", &serial), ("coalesced", &coalesced)] {
            // Warm-up pass, then best-of-reps wall time: best-of filters
            // scheduler noise on shared CI.
            black_box(storm(col, &queries, c, per_thread));
            let mut best_wall = f64::INFINITY;
            let mut total_queries = 0usize;
            for _ in 0..reps {
                let (wall_us, served) = storm(col, &queries, c, per_thread);
                assert_eq!(served, c * per_thread, "every query must return hits");
                best_wall = best_wall.min(wall_us);
                total_queries = served;
            }
            let qps = total_queries as f64 / (best_wall / 1e6);
            let mean_latency_us = best_wall / per_thread as f64;
            eprintln!(
                "c={c:>3}  {mode:<10} best {best_wall:>10.0} us  {qps:>9.0} qps  \
                 mean client latency {mean_latency_us:>8.0} us"
            );
            results.push(Measurement {
                concurrency: c,
                mode,
                total_queries,
                best_wall_us: best_wall,
                qps,
                mean_latency_us,
            });
        }
    }

    let snap = milvus_obs::registry().snapshot();
    eprintln!(
        "scheduler counters: {} queries in {} batches (batch p50 {}), {} passthrough, {} shed",
        snap.counter(milvus_obs::SCHED_COALESCED_QUERIES, "bench_coalesced"),
        snap.counter(milvus_obs::SCHED_COALESCED_BATCHES, "bench_coalesced"),
        snap.histogram(milvus_obs::SCHED_BATCH_SIZE, "bench_coalesced").p50_us() as u64,
        snap.counter(milvus_obs::SCHED_PASSTHROUGH, "bench_coalesced"),
        snap.counter(milvus_obs::SCHED_SHED, "bench_coalesced"),
    );

    let serial_qps = |c: usize| {
        results
            .iter()
            .find(|r| r.concurrency == c && r.mode == "serial")
            .map_or(f64::NAN, |r| r.qps)
    };
    let mut json = String::from("{\n  \"config\": {");
    json.push_str(&format!(
        "\"n\": {n}, \"dim\": {dim}, \"k\": 10, \"per_thread\": {per_thread}, \
         \"reps\": {reps}, \"smoke\": {smoke}, \"simd\": \"{}\"",
        milvus_index::simd::active_level()
    ));
    json.push_str("},\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"concurrency\": {}, \"mode\": \"{}\", \"total_queries\": {}, \
             \"best_wall_us\": {:.1}, \"qps\": {:.1}, \"mean_latency_us\": {:.1}, \
             \"speedup_vs_serial\": {:.3}}}{}\n",
            r.concurrency,
            r.mode,
            r.total_queries,
            r.best_wall_us,
            r.qps,
            r.mean_latency_us,
            r.qps / serial_qps(r.concurrency),
            sep
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_concurrent_search.json", &json).expect("write bench json");
    eprintln!("wrote BENCH_concurrent_search.json");

    let c_max = *concurrencies.last().unwrap();
    let speedup_at = |c: usize| {
        results
            .iter()
            .find(|r| r.concurrency == c && r.mode == "coalesced")
            .map_or(f64::NAN, |r| r.qps)
            / serial_qps(c)
    };
    let (speedup, two_clients) = (speedup_at(c_max), speedup_at(2));
    let single_tax = results
        .iter()
        .find(|r| r.concurrency == 1 && r.mode == "coalesced")
        .map_or(f64::NAN, |r| r.mean_latency_us)
        / results
            .iter()
            .find(|r| r.concurrency == 1 && r.mode == "serial")
            .map_or(f64::NAN, |r| r.mean_latency_us);
    eprintln!("coalescing speedup at c={c_max}: {speedup:.2}x, at c=2: {two_clients:.2}x");
    eprintln!("single-client latency ratio (coalesced/serial): {single_tax:.3}");
    if smoke && (speedup.is_nan() || speedup < 1.2) {
        eprintln!("FAIL: coalesced QPS at c={c_max} must be >= 1.2x serial, got {speedup:.2}x");
        std::process::exit(1);
    }
    if smoke && (two_clients.is_nan() || two_clients < 0.9) {
        eprintln!("FAIL: coalesced QPS at c=2 must be >= 0.9x serial, got {two_clients:.2}x");
        std::process::exit(1);
    }
}
