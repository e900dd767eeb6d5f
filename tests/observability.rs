//! End-to-end observability: exercising the query/ingest/storage paths
//! through the public `Milvus` facade must leave a coherent trail in
//! `Milvus::metrics_snapshot()` and in the Prometheus exposition.
//!
//! The registry is process-global and tests run concurrently, so every
//! assertion here is either a *delta* between two snapshots or scoped to a
//! collection label unique to this file.

use milvus_core::{CollectionConfig, Milvus};
use milvus_index::traits::SearchParams;
use milvus_index::{Metric, VectorSet};
use milvus_obs as obs;
use milvus_storage::{InsertBatch, Schema};

/// The flight recorder is process-global: tests that tick it serialize on
/// this guard so their frames stay adjacent in the ring.
fn tick_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn batch(ids: std::ops::Range<i64>, dim: usize) -> InsertBatch {
    let id_vec: Vec<i64> = ids.collect();
    let mut vs = VectorSet::new(dim);
    for &id in &id_vec {
        let mut v = vec![0.0f32; dim];
        v[0] = id as f32;
        vs.push(&v);
    }
    InsertBatch::single(id_vec, vs)
}

#[test]
fn full_lifecycle_leaves_a_metric_trail() {
    let name = "obs_lifecycle";
    let wal_dir = std::env::temp_dir().join(format!("milvus-obs-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).unwrap();
    let m = Milvus::new();
    let before = m.metrics_snapshot();

    let config = CollectionConfig {
        wal_path: Some(wal_dir.join("wal.log")),
        ..CollectionConfig::for_tests()
    };
    let col = m
        .create_collection(name, Schema::single("v", 8, Metric::L2), config)
        .unwrap();
    col.insert(batch(0..500, 8)).unwrap();
    col.insert(batch(500..600, 8)).unwrap();
    col.flush().unwrap();
    col.build_index("v", "IVF_FLAT").unwrap();
    let sp = SearchParams { k: 5, nprobe: 8, ..Default::default() };
    for q in 0..7 {
        let hits = col.search("v", &[q as f32, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], &sp).unwrap();
        assert_eq!(hits[0].id, q);
    }
    col.delete(vec![0, 1]).unwrap();
    col.flush().unwrap();

    let after = m.metrics_snapshot();
    let d = |metric: &str| after.counter(metric, name) - before.counter(metric, name);

    assert_eq!(d(obs::INGEST_BATCHES), 2);
    assert_eq!(d(obs::INGEST_ROWS), 600);
    assert_eq!(d(obs::QUERY_TOTAL), 7);
    assert_eq!(d(obs::DELETE_ROWS), 2);
    assert!(d(obs::INDEX_BUILDS) >= 1, "index build must be counted");
    assert!(d(obs::MEMTABLE_FLUSHES) >= 1, "flush that persisted rows must be counted");
    assert!(d(obs::WAL_APPENDS) >= 3, "inserts and deletes must hit the WAL");
    assert!(d(obs::OBJECT_PUTS) >= 1, "segment publication must hit the object store");
    assert_eq!(d(obs::QUERY_ERRORS), 0);

    // Latency histograms saw exactly the operations we issued.
    let q_hist_delta = after.histogram(obs::QUERY_LATENCY, name).count
        - before.histogram(obs::QUERY_LATENCY, name).count;
    assert_eq!(q_hist_delta, 7);
    let ingest_hist_delta = after.histogram(obs::INGEST_LATENCY, name).count
        - before.histogram(obs::INGEST_LATENCY, name).count;
    assert_eq!(ingest_hist_delta, 2);

    // The segment gauge tracks the published snapshot.
    assert_eq!(after.gauge(obs::SEGMENTS, name), col.snapshot().segments.len() as i64);
    std::fs::remove_dir_all(&wal_dir).unwrap();
}

/// The filter counters count (segment, query) pairs, not scans, so a fixed
/// seeded sweep moves them by exactly the same amounts however its queries
/// were coalesced: once one query at a time, once as a four-thread storm.
#[test]
fn filter_strategy_counts_repeat_exactly_for_a_fixed_sweep() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let name = "obs_filter_counts";
    let m = Milvus::new();
    let schema = Schema::single("v", 8, Metric::L2).with_attribute("price");
    let col = m.create_collection(name, schema, CollectionConfig::for_tests()).unwrap();
    for s in 0..3i64 {
        let mut b = batch(s * 300..(s + 1) * 300, 8);
        b.attributes = vec![b.ids.iter().map(|id| (id % 100) as f64).collect()];
        col.insert(b).unwrap();
        col.flush().unwrap();
    }
    col.build_index("v", "IVF_FLAT").unwrap();
    col.delete((0..900).filter(|id| id % 11 == 0).collect()).unwrap();
    col.flush().unwrap();

    // 1 %, 10 %, 50 %, 90 % and nothing passing, at two values of k.
    let mut rng = StdRng::seed_from_u64(7);
    let sweep: Vec<(Vec<f32>, f64, f64, usize)> = (0..40)
        .map(|i| {
            let q = (0..8).map(|_| rng.gen_range(0.0f32..900.0)).collect();
            let (lo, hi) = [(5.0, 5.0), (0.0, 9.0), (25.0, 74.0), (5.0, 94.0), (200.0, 300.0)][i % 5];
            (q, lo, hi, [3, 10][i % 2])
        })
        .collect();
    let run = |threads: usize| {
        let before = m.metrics_snapshot();
        std::thread::scope(|s| {
            for chunk in sweep.chunks(sweep.len() / threads) {
                let col = &col;
                s.spawn(move || {
                    for (q, lo, hi, k) in chunk {
                        let sp = SearchParams { k: *k, nprobe: 4, ..Default::default() };
                        col.filtered_search("v", q, "price", *lo, *hi, &sp).unwrap();
                    }
                });
            }
        });
        let after = m.metrics_snapshot();
        [obs::FILTER_STRATEGY_A, obs::FILTER_STRATEGY_B, obs::FILTER_ROWS_PASSING]
            .map(|family| after.counter(family, name) - before.counter(family, name))
    };
    let serial = run(1);
    assert_eq!(run(4), serial, "[A, B, rows passing] moved differently the second time");
    let [a, b, passing] = serial;
    // 3 segments × 40 queries, a fifth of them passing nothing anywhere.
    assert_eq!(a + b, 3 * 32, "every (segment, query) pair with a passer picked one strategy");
    assert!(a > 0 && b > 0, "the sweep must reach both strategies (A={a}, B={b})");
    assert_eq!(passing, 3 * 8 * (3 + 30 + 150 + 270), "rows passing, tombstoned or not");
}

#[test]
fn quantiles_are_monotone_and_bounded() {
    let name = "obs_quantiles";
    let m = Milvus::new();
    let col = m
        .create_collection(name, Schema::single("v", 4, Metric::L2), CollectionConfig::for_tests())
        .unwrap();
    col.insert(batch(0..200, 4)).unwrap();
    col.flush().unwrap();
    for q in 0..20 {
        col.search("v", &[q as f32, 0.0, 0.0, 0.0], &SearchParams::top_k(3)).unwrap();
    }
    let h = m.metrics_snapshot().histogram(obs::QUERY_LATENCY, name);
    assert!(h.count >= 20);
    let (p50, p95, p99) = (h.quantile_us(0.50), h.quantile_us(0.95), h.quantile_us(0.99));
    assert!(p50 > 0.0);
    assert!(p50 <= p95 && p95 <= p99, "quantiles must be monotone: {p50} {p95} {p99}");
    // Mean must be inside the observed range implied by the buckets.
    assert!(h.sum_us >= h.count, "sub-microsecond searches are implausible");
}

#[test]
fn error_paths_are_counted_not_hidden() {
    let name = "obs_errors";
    let m = Milvus::new();
    let col = m
        .create_collection(name, Schema::single("v", 4, Metric::L2), CollectionConfig::for_tests())
        .unwrap();
    col.insert(batch(0..10, 4)).unwrap();
    col.flush().unwrap();

    let before = m.metrics_snapshot();
    // Wrong dimensionality: the search fails, and the failure is counted.
    assert!(col.search("v", &[1.0, 2.0], &SearchParams::top_k(3)).is_err());
    let after = m.metrics_snapshot();
    assert_eq!(
        after.counter(obs::QUERY_ERRORS, name) - before.counter(obs::QUERY_ERRORS, name),
        1,
        "a failed search must increment {}",
        obs::QUERY_ERRORS
    );
}

/// One accounting rule for every request kind: a plain search, a filtered
/// search, each query of a `search_batch` and an `explain_analyze` all count
/// one query, one latency observation and their own `nprobe`/`ef` — filtered
/// searches used to skip the last two.
#[test]
fn every_request_kind_is_accounted_once_per_caller() {
    let name = "obs_request_kinds";
    let m = Milvus::new();
    let schema = Schema::single("v", 4, Metric::L2).with_attribute("price");
    let col = m.create_collection(name, schema, CollectionConfig::for_tests()).unwrap();
    let mut b = batch(0..100, 4);
    b.attributes = vec![b.ids.iter().map(|&id| id as f64).collect()];
    col.insert(b).unwrap();
    col.flush().unwrap();

    let sp = SearchParams { k: 3, nprobe: 5, ef: 40, ..Default::default() };
    let q = [7.0, 0.0, 0.0, 0.0];
    let before = m.metrics_snapshot();
    let delta = |metric: &str| {
        m.metrics_snapshot().counter(metric, name) - before.counter(metric, name)
    };

    col.search("v", &q, &sp).unwrap();
    assert_eq!((delta(obs::QUERY_TOTAL), delta(obs::QUERY_NPROBE_EFFECTIVE)), (1, 5));
    col.filtered_search("v", &q, "price", 10.0, 60.0, &sp).unwrap();
    col.filtered_search("v", &q, "price", 0.0, 5.0, &sp).unwrap();
    assert_eq!(delta(obs::QUERY_TOTAL), 3);
    assert_eq!(delta(obs::QUERY_NPROBE_EFFECTIVE), 15, "filtered searches must count nprobe");
    assert_eq!(delta(obs::QUERY_EF_EFFECTIVE), 120, "filtered searches must count ef");

    let mut qs = VectorSet::new(4);
    (0..4).for_each(|i| qs.push(&[i as f32, 0.0, 0.0, 0.0]));
    col.search_batch("v", &qs, &sp).unwrap();
    col.explain_analyze("v", &q, &sp).unwrap();
    assert_eq!(delta(obs::QUERY_TOTAL), 8);
    assert_eq!(delta(obs::QUERY_NPROBE_EFFECTIVE), 40);
    assert_eq!(delta(obs::QUERY_EF_EFFECTIVE), 320);
    assert_eq!(delta(obs::QUERY_ERRORS), 0);
    let observed = m.metrics_snapshot().histogram(obs::QUERY_LATENCY, name).count
        - before.histogram(obs::QUERY_LATENCY, name).count;
    assert_eq!(observed, 8, "one latency observation per counted query");
}

#[test]
fn prometheus_exposition_is_well_formed() {
    let name = "obs_prom";
    let m = Milvus::new();
    let col = m
        .create_collection(name, Schema::single("v", 4, Metric::L2), CollectionConfig::for_tests())
        .unwrap();
    col.insert(batch(0..50, 4)).unwrap();
    col.flush().unwrap();
    col.search("v", &[1.0, 0.0, 0.0, 0.0], &SearchParams::top_k(3)).unwrap();

    let text = milvus_obs::registry().render_prometheus();
    assert!(text.contains(&format!("milvus_query_total{{collection=\"{name}\"}} 1")));
    assert!(text.contains(&format!("milvus_ingest_rows_total{{collection=\"{name}\"}} 50")));
    assert!(text.contains("# TYPE milvus_query_latency_seconds histogram"));
    assert!(text.contains("# TYPE milvus_segments gauge"));
    // Histogram series must carry both the le= and collection= labels, end
    // with +Inf, and expose _sum/_count.
    assert!(text.contains(&format!("milvus_query_latency_seconds_bucket{{collection=\"{name}\",le=\"+Inf\"}}")));
    assert!(text.contains(&format!("milvus_query_latency_seconds_count{{collection=\"{name}\"}}")));
    assert!(text.contains(&format!("milvus_query_latency_seconds_sum{{collection=\"{name}\"}}")));
    // Every non-comment line is `name{labels} value` or `name value`.
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let mut parts = line.rsplitn(2, ' ');
        let value = parts.next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "exposition line has a non-numeric value: {line}"
        );
    }
}

/// ISSUE 7 acceptance: the flight-recorder's windowed p99 (derived from
/// histogram bucket *diffs* between two frames) must agree with the live
/// histogram's p99 to within one bucket, under a seeded scan delay that
/// pushes search latency into a bucket no other test in this process hits.
#[test]
fn windowed_p99_tracks_live_histogram_within_one_bucket() {
    let _serial = tick_guard();
    let name = "obs_windowed_p99";
    let m = Milvus::new();
    let col = m
        .create_collection(name, Schema::single("v", 4, Metric::L2), CollectionConfig::for_tests())
        .unwrap();
    col.insert(batch(0..200, 4)).unwrap();
    col.flush().unwrap();
    for seg in &col.snapshot().segments {
        milvus_storage::inject_scan_delay(seg.id, std::time::Duration::from_millis(3));
    }

    m.tick_timeseries();
    for q in 0..20 {
        col.search("v", &[q as f32, 0.0, 0.0, 0.0], &SearchParams::top_k(3)).unwrap();
    }
    m.tick_timeseries();
    milvus_storage::clear_scan_delays();

    let live = m.metrics_snapshot().histogram(obs::QUERY_LATENCY, name);
    let windowed = m.timeseries().windowed_histogram(obs::QUERY_LATENCY, name, 1);
    assert_eq!(windowed.count, 20, "all 20 searches must land in the window");
    assert!(live.count >= 20);

    // The injected 3ms floor must dominate: p99 lives in a microsecond
    // bucket at or above 3000µs.
    let live_p99 = live.quantile_us(0.99);
    let win_p99 = windowed.p99_us();
    assert!(live_p99 >= 3000.0, "scan delay must dominate: live p99 {live_p99}µs");
    assert!(win_p99 >= 3000.0, "scan delay must dominate: windowed p99 {win_p99}µs");

    let bucket_of = |v: f64| {
        obs::BUCKET_BOUNDS_US
            .iter()
            .position(|&b| v <= b as f64)
            .unwrap_or(obs::BUCKET_BOUNDS_US.len())
    };
    let (lb, wb) = (bucket_of(live_p99), bucket_of(win_p99));
    assert!(
        lb.abs_diff(wb) <= 1,
        "windowed p99 {win_p99}µs (bucket {wb}) must be within one bucket of live p99 {live_p99}µs (bucket {lb})"
    );
}

/// Satellite 3: the new debug/health REST endpoints answer well-formed
/// JSON end-to-end (socket up, routed, serialized) — the full-payload
/// shape assertions live in `crates/core/src/rest.rs` and the CI smoke.
#[test]
fn rest_debug_endpoints_return_well_formed_json() {
    use milvus_core::rest::RestServer;
    use std::io::{Read as _, Write as _};

    let _serial = tick_guard();
    let name = "obs_rest_endpoints";
    let m = std::sync::Arc::new(Milvus::new());
    let col = m
        .create_collection(name, Schema::single("v", 4, Metric::L2), CollectionConfig::for_tests())
        .unwrap();
    col.insert(batch(0..100, 4)).unwrap();
    col.flush().unwrap();
    let server = RestServer::serve(std::sync::Arc::clone(&m), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let request = |method: &str, path: &str, body: &str| -> (String, serde::Value) {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        let status = response.lines().next().unwrap_or_default().to_string();
        let payload = response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        let json = serde::parse_value(payload)
            .unwrap_or_else(|e| panic!("{method} {path}: invalid JSON ({e}): {payload}"));
        (status, json)
    };

    // One search bracketed by two adjacent frames = one known window.
    request("POST", "/debug/timeseries/tick", "");
    col.search("v", &[1.0, 0.0, 0.0, 0.0], &SearchParams::top_k(3)).unwrap();
    request("POST", "/debug/timeseries/tick", "");

    let (status, ts) = request("GET", "/debug/timeseries", "");
    assert!(status.contains("200"), "{status}");
    assert!(ts["windows"].as_f64().unwrap_or(0.0) >= 2.0, "{ts:?}");
    let delta = ts["counters"]
        .as_array()
        .and_then(|arr| {
            arr.iter().find(|c| {
                c["name"].as_str() == Some("milvus_query_total")
                    && c["collection"].as_str() == Some(name)
            })
        })
        .and_then(|c| c["window_delta"].as_f64());
    assert_eq!(delta, Some(1.0), "{ts:?}");

    let (status, profile) = request("GET", "/debug/profile", "");
    assert!(status.contains("200"), "{status}");
    let staged = profile["ops"].as_array().is_some_and(|arr| {
        arr.iter().any(|o| {
            o["collection"].as_str() == Some(name)
                && o["stages"].as_array().is_some_and(|s| !s.is_empty())
        })
    });
    assert!(staged, "{profile:?}");

    let (status, health) = request("GET", "/health", "");
    assert!(status.contains("200"), "{status}");
    assert!(health["status"].as_str().is_some(), "{health:?}");
    assert_eq!(health["components"].as_array().map(|c| c.len()), Some(5), "{health:?}");

    server.shutdown();
}

#[test]
fn distributed_paths_record_reader_and_writer_metrics() {
    use milvus_distributed::coordinator::Coordinator;
    use milvus_distributed::reader::ReaderNode;
    use milvus_distributed::writer::WriterNode;
    use milvus_storage::object_store::{MemoryStore, ObjectStore};
    use milvus_storage::LsmConfig;
    use std::sync::Arc;

    let before = milvus_obs::registry().snapshot();

    let coordinator = Coordinator::new(2);
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let writer = WriterNode::with_log_shipping(
        Schema::single("v", 4, Metric::L2),
        LsmConfig { auto_merge: false, ..Default::default() },
        Arc::clone(&store),
        Arc::clone(&coordinator),
    )
    .unwrap();
    let reader =
        ReaderNode::register(Schema::single("v", 4, Metric::L2), coordinator, store, 64 << 20);

    writer.insert(batch(0..100, 4)).unwrap();
    writer.flush().unwrap();
    reader.refresh().unwrap();
    reader.search("v", &[3.0, 0.0, 0.0, 0.0], &SearchParams::top_k(1)).unwrap();

    let after = milvus_obs::registry().snapshot();
    assert!(after.counter(obs::INGEST_ROWS, "writer") - before.counter(obs::INGEST_ROWS, "writer") >= 100);
    assert!(after.counter(obs::READER_REFRESHES, "reader") > before.counter(obs::READER_REFRESHES, "reader"));
    assert!(after.counter(obs::QUERY_TOTAL, "reader") > before.counter(obs::QUERY_TOTAL, "reader"));
    assert!(after.counter(obs::LOG_SHIP_RECORDS, "shared") > before.counter(obs::LOG_SHIP_RECORDS, "shared"));
}
