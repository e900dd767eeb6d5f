//! ISSUE 9 acceptance: the coalescing query scheduler.
//!
//! Twin collections — one with coalescing on, one off — hold identical
//! data (and identically seeded index builds), so the serial twin is the
//! ground truth the coalesced results must match **bit-identically**:
//! `SearchHit` carries `f32` scores, and equality below is exact.
//!
//! Scan-delay injection is keyed by global segment id and the metrics
//! registry is process-global, so the tests serialize on [`GLOBAL_STATE`].

use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use milvus_core::scheduler::{group_batch, SearchRequest};
use milvus_core::{Collection, CollectionConfig, Milvus, MilvusError, SearchHit};
use milvus_index::traits::SearchParams;
use milvus_index::{Metric, VectorSet};
use milvus_storage::segment::{clear_scan_delays, inject_scan_delay};
use milvus_storage::{InsertBatch, Schema};

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

const DIM: usize = 16;

fn gen_vector(i: u64) -> Vec<f32> {
    // Deterministic pseudo-random vector from a splitmix-style hash.
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5);
    (0..DIM)
        .map(|_| {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            ((x >> 40) as f32 / (1 << 24) as f32) * 10.0
        })
        .collect()
}

/// Build a (coalescing-on, coalescing-off) twin pair over identical data.
/// `index` optionally builds the same index type on both twins.
fn twins(
    m: &Milvus,
    name: &str,
    n: i64,
    index: Option<&str>,
) -> (Arc<Collection>, Arc<Collection>) {
    let schema = Schema::single("v", DIM, Metric::L2).with_attribute("price");
    let mut on_cfg = CollectionConfig::for_tests();
    on_cfg.scheduler.max_batch = 4;
    let mut off_cfg = CollectionConfig::for_tests();
    off_cfg.scheduler.coalescing = false;
    let on = m.create_collection(&format!("{name}_on"), schema.clone(), on_cfg).unwrap();
    let off = m.create_collection(&format!("{name}_off"), schema, off_cfg).unwrap();
    for col in [&on, &off] {
        let ids: Vec<i64> = (0..n).collect();
        let mut vs = VectorSet::new(DIM);
        let mut attrs = Vec::new();
        for &id in &ids {
            vs.push(&gen_vector(id as u64));
            attrs.push(id as f64);
        }
        col.insert(InsertBatch { ids, vectors: vec![vs], attributes: vec![attrs] }).unwrap();
        col.flush().unwrap();
        if let Some(ty) = index {
            assert_eq!(col.build_index("v", ty).unwrap(), 1);
        }
    }
    (on, off)
}

fn counter(name: &'static str, label: &str) -> u64 {
    milvus_obs::registry().snapshot().counter(name, label)
}

/// Run `query(0) … query(n-1)` concurrently against `on` while every run
/// slot (one per core) is taken: one plain search per core is parked in the
/// slowed first segment first, and only then is the barrier-held storm let
/// go — so on any box all `n` queue behind the slot holders and are
/// coalesced as the slots free. Results come back in index order.
fn run_queued<T: Send>(on: &Arc<Collection>, n: usize, query: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let seg_id = on.snapshot().segments[0].id;
    inject_scan_delay(seg_id, Duration::from_millis(40));
    let inflight = milvus_obs::gauge(milvus_obs::SCHED_INFLIGHT, on.name());
    let barrier = Barrier::new(n + 1);
    let results = std::thread::scope(|s| {
        let storm: Vec<_> = (0..n)
            .map(|i| {
                let (barrier, query) = (&barrier, &query);
                s.spawn(move || {
                    barrier.wait();
                    query(i)
                })
            })
            .collect();
        let holders: Vec<_> = (0..cores)
            .map(|_| s.spawn(|| on.search("v", &gen_vector(77), &SearchParams::top_k(1))))
            .collect();
        while (inflight.get() as usize) < cores {
            std::thread::yield_now();
        }
        barrier.wait();
        for holder in holders {
            holder.join().unwrap().unwrap();
        }
        storm.into_iter().map(|h| h.join().unwrap()).collect()
    });
    clear_scan_delays();
    results
}

/// [`run_queued`] for plain vector searches.
fn run_concurrent(
    on: &Arc<Collection>,
    queries: &[(Vec<f32>, SearchParams)],
) -> Vec<Result<Vec<SearchHit>, MilvusError>> {
    run_queued(on, queries.len(), |i| on.search("v", &queries[i].0, &queries[i].1))
}

#[test]
fn coalesced_flat_scan_is_bit_identical_to_serial_with_mixed_k() {
    let _g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let m = Milvus::new();
    // No index: the coalesced path takes the zero-copy cache-aware batch
    // engine at max(k), truncating each query to its own k.
    let (on, off) = twins(&m, "sched_flat", 400, None);
    let queries: Vec<(Vec<f32>, SearchParams)> = (0..12)
        .map(|i| (gen_vector(1000 + i), SearchParams::top_k([3, 7, 10][i as usize % 3])))
        .collect();
    let expected: Vec<Vec<SearchHit>> =
        queries.iter().map(|(q, p)| off.search("v", q, p).unwrap()).collect();

    let before = counter(milvus_obs::SCHED_COALESCED_QUERIES, "sched_flat_on");
    let results = run_concurrent(&on, &queries);
    for (res, exp) in results.iter().zip(&expected) {
        assert_eq!(res.as_ref().unwrap(), exp, "coalesced flat scan diverged from serial");
    }
    let coalesced = counter(milvus_obs::SCHED_COALESCED_QUERIES, "sched_flat_on") - before;
    assert!(coalesced >= 8, "expected most of 12 queued queries to coalesce, got {coalesced}");
    assert!(counter(milvus_obs::SCHED_COALESCED_BATCHES, "sched_flat_on") > 0);
}

#[test]
fn coalesced_ivf_sq8_and_pq_are_bit_identical_to_serial() {
    let _g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let m = Milvus::new();
    for (name, index) in [("sched_sq8", "IVF_SQ8"), ("sched_pq", "IVF_PQ")] {
        let (on, off) = twins(&m, name, 600, Some(index));
        // Same nprobe (one group), mixed k: the IVF bucket-major batch runs
        // at max(k); the sorted prefix property keeps truncation exact even
        // through the fused SQ8 scan and the PQ ADC early-abandon pruning.
        let queries: Vec<(Vec<f32>, SearchParams)> = (0..8)
            .map(|i| {
                let p = SearchParams { k: [4, 9][i as usize % 2], nprobe: 6, ..Default::default() };
                (gen_vector(2000 + i), p)
            })
            .collect();
        let expected: Vec<Vec<SearchHit>> =
            queries.iter().map(|(q, p)| off.search("v", q, p).unwrap()).collect();
        let results = run_concurrent(&on, &queries);
        for (res, exp) in results.iter().zip(&expected) {
            assert_eq!(res.as_ref().unwrap(), exp, "coalesced {index} diverged from serial");
        }
    }
}

#[test]
fn coalesced_filtered_search_is_bit_identical_to_serial() {
    let _g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let m = Milvus::new();
    let (on, off) = twins(&m, "sched_filt", 300, None);
    let sp = SearchParams::top_k(5);
    let queries: Vec<Vec<f32>> = (0..6).map(|i| gen_vector(3000 + i)).collect();
    let expected: Vec<Vec<SearchHit>> = queries
        .iter()
        .map(|q| off.filtered_search("v", q, "price", 50.0, 250.0, &sp).unwrap())
        .collect();

    let before = counter(milvus_obs::SCHED_COALESCED_QUERIES, "sched_filt_on");
    let results = run_queued(&on, queries.len(), |i| {
        on.filtered_search("v", &queries[i], "price", 50.0, 250.0, &sp)
    });
    let coalesced = counter(milvus_obs::SCHED_COALESCED_QUERIES, "sched_filt_on") - before;
    assert!(coalesced >= 4, "expected most of 6 queued filtered queries to coalesce, got {coalesced}");
    for (res, exp) in results.iter().zip(&expected) {
        assert_eq!(res.as_ref().unwrap(), exp, "coalesced filtered search diverged");
    }
}

#[test]
fn mixed_params_split_into_groups_and_all_match_serial() {
    let _g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let m = Milvus::new();
    let (on, off) = twins(&m, "sched_mixed", 500, Some("IVF_FLAT"));
    // Three parameter shapes in one storm: nprobe 4 (mixed k — one group at
    // max(k)), nprobe 12 (separate group), and nprobe 4 again. The batch
    // engines assume one shared parameter set per invocation, so grouping
    // must partition these; results must still match the serial twin.
    let queries: Vec<(Vec<f32>, SearchParams)> = (0..9)
        .map(|i| {
            let p = match i % 3 {
                0 => SearchParams { k: 3, nprobe: 4, ..Default::default() },
                1 => SearchParams { k: 8, nprobe: 4, ..Default::default() },
                _ => SearchParams { k: 5, nprobe: 12, ..Default::default() },
            };
            (gen_vector(4000 + i as u64), p)
        })
        .collect();
    let expected: Vec<Vec<SearchHit>> =
        queries.iter().map(|(q, p)| off.search("v", q, p).unwrap()).collect();
    let results = run_concurrent(&on, &queries);
    for (res, exp) in results.iter().zip(&expected) {
        assert_eq!(res.as_ref().unwrap(), exp, "mixed-params coalescing diverged");
    }
}

/// Two closed-loop clients, 200 searches each: every query is accounted as
/// exactly one pass-through or one member of one coalesced batch, and with a
/// run slot per client (two or more cores) nobody ever queues — two clients
/// are not a reason to wait for each other.
#[test]
fn two_closed_loop_clients_never_wait_for_each_other() {
    let _g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let m = Milvus::new();
    let schema = Schema::single("v", DIM, Metric::L2);
    let col = m.create_collection("sched_pass", schema, CollectionConfig::for_tests()).unwrap();
    let reference = {
        let mut cfg = CollectionConfig::for_tests();
        cfg.scheduler.coalescing = false;
        m.create_collection("sched_pass_ref", Schema::single("v", DIM, Metric::L2), cfg).unwrap()
    };
    for c in [&col, &reference] {
        let ids: Vec<i64> = (0..200).collect();
        let mut vs = VectorSet::new(DIM);
        for &id in &ids {
            vs.push(&gen_vector(id as u64));
        }
        c.insert(InsertBatch::single(ids, vs)).unwrap();
        c.flush().unwrap();
    }

    let sp = SearchParams::top_k(5);
    let passed_before = counter(milvus_obs::SCHED_PASSTHROUGH, "sched_pass");
    let coalesced_before = counter(milvus_obs::SCHED_COALESCED_QUERIES, "sched_pass");
    std::thread::scope(|s| {
        for client in 0..2u64 {
            let (col, reference, sp) = (&col, &reference, &sp);
            s.spawn(move || {
                for i in 0..200 {
                    let q = gen_vector(9000 + client * 1000 + i);
                    let hits = col.search("v", &q, sp).unwrap();
                    assert_eq!(hits, reference.search("v", &q, sp).unwrap());
                }
            });
        }
    });
    let passed = counter(milvus_obs::SCHED_PASSTHROUGH, "sched_pass") - passed_before;
    let coalesced = counter(milvus_obs::SCHED_COALESCED_QUERIES, "sched_pass") - coalesced_before;
    assert_eq!(passed + coalesced, 400, "every query is accounted exactly once");
    if std::thread::available_parallelism().map_or(1, |p| p.get()) >= 2 {
        assert_eq!(passed, 400, "a client queued although a run slot was free");
    }
}

#[test]
fn shed_queries_fail_typed_while_admitted_queries_stay_correct() {
    let _g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let m = Milvus::new();
    let schema = Schema::single("v", DIM, Metric::L2);
    let mut cfg = CollectionConfig::for_tests();
    cfg.scheduler.adaptive = false;
    cfg.scheduler.max_inflight = 1;
    let col = m.create_collection("sched_shed", schema.clone(), cfg).unwrap();
    let reference =
        m.create_collection("sched_shed_ref", schema, CollectionConfig::for_tests()).unwrap();
    for c in [&col, &reference] {
        let ids: Vec<i64> = (0..200).collect();
        let mut vs = VectorSet::new(DIM);
        for &id in &ids {
            vs.push(&gen_vector(id as u64));
        }
        c.insert(InsertBatch::single(ids, vs)).unwrap();
        c.flush().unwrap();
    }
    let q = gen_vector(7777);
    let sp = SearchParams::top_k(4);
    let expected = reference.search("v", &q, &sp).unwrap();

    // Pin one admitted query in the scan; budget 1 sheds every concurrent
    // arrival with the typed error — never a silently degraded result.
    let seg_id = col.snapshot().segments[0].id;
    inject_scan_delay(seg_id, Duration::from_millis(800));
    let shed_before = counter(milvus_obs::SCHED_SHED, "sched_shed");
    let pinned = {
        let (col, q, sp) = (Arc::clone(&col), q.clone(), sp.clone());
        std::thread::spawn(move || col.search("v", &q, &sp))
    };
    std::thread::sleep(Duration::from_millis(200));
    let err = col.search("v", &q, &sp).expect_err("second query must shed");
    match err {
        MilvusError::Overloaded { collection, inflight, budget } => {
            assert_eq!(collection, "sched_shed");
            assert_eq!((inflight, budget), (1, 1));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(counter(milvus_obs::SCHED_SHED, "sched_shed") > shed_before);

    // The admitted query's answer is exactly the serial reference answer.
    let hits = pinned.join().unwrap().unwrap();
    clear_scan_delays();
    assert_eq!(hits, expected, "admitted query degraded under shedding");
    // The freed slot readmits immediately.
    assert_eq!(col.search("v", &q, &sp).unwrap(), expected);
}

#[test]
fn search_batch_matches_per_query_serial_results() {
    let _g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let m = Milvus::new();
    let (on, off) = twins(&m, "sched_many", 350, None);
    let mut qs = VectorSet::new(DIM);
    for i in 0..10u64 {
        qs.push(&gen_vector(5000 + i));
    }
    let sp = SearchParams::top_k(6);
    let lists = on.search_batch("v", &qs, &sp).unwrap();
    assert_eq!(lists.len(), 10);
    for (i, list) in lists.iter().enumerate() {
        let exp = off.search("v", qs.get(i), &sp).unwrap();
        assert_eq!(list, &exp, "search_batch query {i} diverged from serial");
    }
}

#[test]
fn grouping_is_deterministic_for_a_seeded_request_storm() {
    let _g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // A deterministically shuffled request mix must group identically on
    // every call: grouping is a pure function of the input order.
    let mut reqs = Vec::new();
    let mut x: u64 = 42;
    for i in 0..40u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let params = SearchParams {
            k: 1 + (x % 16) as usize,
            nprobe: [4, 8][(x >> 8) as usize % 2],
            ..Default::default()
        };
        if x.is_multiple_of(5) {
            reqs.push(SearchRequest::Filtered {
                field: "v".into(),
                query: gen_vector(i),
                attr: "price".into(),
                lo: (x % 3) as f64,
                hi: 100.0,
                params,
            });
        } else {
            reqs.push(SearchRequest::Vector { field: "v".into(), query: gen_vector(i), params });
        }
    }
    let groups = group_batch(&reqs);
    for _ in 0..5 {
        assert_eq!(group_batch(&reqs), groups, "grouping must be deterministic");
    }
    // Invariants: a partition of all indices, first-occurrence ordered.
    let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..reqs.len()).collect::<Vec<_>>());
    let firsts: Vec<usize> = groups.iter().map(|g| g[0]).collect();
    let mut sorted = firsts.clone();
    sorted.sort_unstable();
    assert_eq!(firsts, sorted, "groups must appear in first-occurrence order");
    // Vector groups are k-insensitive: every member of a group shares
    // (nprobe, kind); k may differ for vector requests.
    for g in &groups {
        let nprobe0 = reqs[g[0]].params().nprobe;
        assert!(g.iter().all(|&i| reqs[i].params().nprobe == nprobe0));
    }
}
