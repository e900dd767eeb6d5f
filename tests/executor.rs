//! Integration tests for the work-stealing executor on the query path:
//! parallel segment fan-out actually overlaps per-segment waits, every entry
//! point of the query pipeline returns results bit-identical to a per-segment
//! oracle that runs none of it, and the executor's metric families are
//! exported.
//!
//! Scan-delay injection is process-global (keyed by segment id), so every
//! test that arms it serializes on [`guard`] and disarms via a drop guard.

use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use milvus_core::{CollectionConfig, Milvus, SearchHit};
use milvus_index::registry::IndexRegistry;
use milvus_index::traits::SearchParams;
use milvus_index::{distance, Metric, Neighbor, RowMask, TopK, VectorIndex, VectorSet};
use milvus_obs as obs;
use milvus_storage::codec::{decode_segment, encode_segment};
use milvus_storage::segment::{merge_segment_results, Fanout, Segment, SegmentData};
use milvus_storage::{InsertBatch, Schema};

fn guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarms all scan delays even if the test panics.
struct DelayGuard;

impl Drop for DelayGuard {
    fn drop(&mut self) {
        milvus_storage::clear_scan_delays();
    }
}

/// The vector every test here stores under `id`.
fn vector_of(id: i64, dim: usize) -> Vec<f32> {
    (0..dim).map(|d| ((id * 31 + d as i64) as f32 * 0.11).sin()).collect()
}

fn batch(ids: std::ops::Range<i64>, dim: usize) -> InsertBatch {
    let mut vs = VectorSet::new(dim);
    for id in ids.clone() {
        vs.push(&vector_of(id, dim));
    }
    InsertBatch::single(ids.collect(), vs)
}

fn segmented_collection(
    m: &Milvus,
    name: &str,
    segments: usize,
    rows_per_segment: i64,
) -> Arc<milvus_core::Collection> {
    let col = m
        .create_collection(name, Schema::single("v", 8, Metric::L2), CollectionConfig::for_tests())
        .unwrap();
    for s in 0..segments as i64 {
        col.insert(batch(s * rows_per_segment..(s + 1) * rows_per_segment, 8)).unwrap();
        col.flush().unwrap();
    }
    assert_eq!(col.stats().segments, segments);
    col
}

/// The tentpole latency claim, asserted without timing-flaky thresholds on
/// real work: each of 4 segments gets a 50 ms injected scan-delay *floor*
/// (a sleep, so it needs no CPU to elapse). A serial scan cannot finish in
/// under 200 ms; the pooled fan-out overlaps the four sleeps and must come
/// in well under that.
#[test]
fn parallel_segment_fanout_overlaps_scan_delays() {
    let _g = guard();
    let _cleanup = DelayGuard;
    let m = Milvus::new();
    let col = segmented_collection(&m, "exec_fanout", 4, 100);

    let query: Vec<f32> = (0..8).map(|d| (d as f32 * 0.3).cos()).collect();
    let params = SearchParams::top_k(5);
    let baseline = col.search("v", &query, &params).unwrap();

    for seg in &col.snapshot().segments {
        milvus_storage::inject_scan_delay(seg.id, Duration::from_millis(50));
    }
    let tasks_before = obs::counter(obs::EXEC_TASKS, "global").get();
    let start = Instant::now();
    let delayed = col.search("v", &query, &params).unwrap();
    let elapsed = start.elapsed();

    assert_eq!(delayed, baseline, "delays must not change results");
    assert!(
        elapsed >= Duration::from_millis(50),
        "the injected floor must apply at all (took {elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_millis(200),
        "4 x 50 ms segment scans ran serially (took {elapsed:?})"
    );
    let tasks_after = obs::counter(obs::EXEC_TASKS, "global").get();
    assert!(
        tasks_after >= tasks_before + 3,
        "segment fan-out must schedule one pool task per segment beyond the \
         caller's own ({tasks_before} -> {tasks_after})"
    );
}

/// The one oracle for the query pipeline, and it does not run the code under
/// test: what a segment must answer is derived here without any `RowMask` —
///
/// * where the planner scans exactly (no index, or a predicate passing at
///   most `8·k` rows — the A-vs-B rule this test pins), a scalar loop over
///   the rows that are live and pass;
/// * on an IVF index, the *unfiltered* search at `k = rows` of a **reference
///   index built here**, apart from the segment, over the id-ordered vectors
///   this test generated — it shares no buffer and no permutation with the
///   segment's column — post-filtered by predicate and tombstones and cut to
///   `k`: exact, because probed buckets are scanned exhaustively and PQ
///   pruning is exactness-preserving;
/// * on HNSW (a beam search has no such closed form) the same-path check:
///   `Segment::search_field_stats` under the predicate's mask.
///
/// Over {no index, IVF_FLAT, IVF_SQ8, IVF_PQ, HNSW} × {no tombstones,
/// tombstones, tombstones already there when the index was built} ×
/// {unfiltered, predicates passing nothing / one row / 1 % / 50 % / 100 %} ×
/// {a lone search, a barrier-released storm coalesced behind taken run slots
/// with mixed `k`, `Segment::search_batch` of 32 with mixed `k` and of each
/// query alone (`k` up to rows + 1) on each segment and on its twin reloaded
/// through the segment codec — unindexed ones with their rows split over
/// cores ∈ {1, 2, 3, 7, rows + 5} — `Collection::search_batch` of 1 and of
/// 32}, every answer must equal the per-segment oracle lists merged by
/// `merge_segment_results` — same ids, same distance bits.
#[test]
fn every_entry_point_is_bit_identical_to_the_serial_segment_reference() {
    const DIM: usize = 16;
    const ROWS: i64 = 400;
    const LONER: i64 = 778;
    // One row carries a value of its own; the rest cycle through 0..100.
    let attr = |id: i64| if id == LONER { -1.0 } else { (id % 100) as f64 };
    let ranges: [(&str, Option<(f64, f64)>); 6] = [
        ("unfiltered", None),
        ("0 rows", Some((200.0, 300.0))),
        ("1 row", Some((-1.0, -1.0))),
        ("1 %", Some((7.0, 7.0))),
        ("50 %", Some((0.0, 49.0))),
        ("100 %", Some((-1.0, 99.0))),
    ];
    let ks = [3usize, 9, 5, 9, 3, 7];
    let batch_ks: Vec<usize> = [3usize, 9, 5, 1, 12, 7, 9, 2].into_iter().cycle().take(32).collect();

    let _g = guard();
    let _cleanup = DelayGuard;
    let m = Milvus::new();
    let schema = Schema::single("v", DIM, Metric::L2).with_attribute("tag");
    let queries: Vec<Vec<f32>> = (0..batch_ks.len() as i64)
        .map(|qi| (0..DIM as i64).map(|d| ((qi * 7 + d) as f32 * 0.17).sin()).collect())
        .collect();
    let params = |k: usize| SearchParams { k, nprobe: 6, ..Default::default() };

    // What `seg` must answer for (`q`, `k`) under `range`; `reference` is
    // the index built apart from it, when its own is an IVF. `planned`: the
    // caller is the collection, which scans a selective predicate exactly.
    type Reference<'a> = Option<&'a dyn VectorIndex>;
    let expected = |(seg, reference): (&Segment, Reference),
                    q: &[f32],
                    k: usize,
                    range: Option<(f64, f64)>,
                    planned: bool| {
        let passes = |id: i64| range.is_none_or(|(lo, hi)| (lo..=hi).contains(&attr(id)));
        let dead: HashSet<i64> = seg.deleted().into_iter().collect();
        let visible = |id: i64| passes(id) && !dead.contains(&id);
        let data = seg.data();
        let passing: Vec<u32> =
            (0..data.row_ids.len() as u32).filter(|&r| passes(data.row_ids[r as usize])).collect();
        let index = seg.index("v");
        let selective = planned && range.is_some() && passing.len() <= 8 * k;
        match index {
            Some(index) if !selective && index.name() == "HNSW" => {
                let mask = RowMask::from_positions(data.row_ids.len(), &passing);
                let allow = range.map(|_| &mask);
                seg.search_field_stats(&schema, "v", q, &params(k), allow).unwrap().0
            }
            Some(_) if !selective => {
                let reference = reference.expect("a reference for every IVF segment");
                let mut all = reference.search(q, &params(data.row_ids.len())).unwrap();
                all.retain(|n| visible(n.id));
                all.truncate(k);
                all
            }
            _ => {
                let mut heap = TopK::new(k);
                for (row, &id) in data.row_ids.iter().enumerate() {
                    if visible(id) {
                        heap.push(id, distance::distance(Metric::L2, q, data.vectors[0].get(row)));
                    }
                }
                heap.into_sorted()
            }
        }
    };

    for index in [None, Some("IVF_FLAT"), Some("IVF_SQ8"), Some("IVF_PQ"), Some("HNSW")] {
        for tombstones in ["", "+tombstones", "+tombstones at build"] {
            if index.is_none() && tombstones == "+tombstones at build" {
                continue;
            }
            let case = format!("{}{tombstones}", index.unwrap_or("unindexed"));
            let mut cfg = CollectionConfig::for_tests();
            cfg.scheduler.max_batch = 4;
            let build_params = cfg.build_params.clone();
            let name = format!("exec_oracle_{case}");
            let col = m.create_collection(&name, schema.clone(), cfg).unwrap();
            for s in 0..3 {
                let mut b = batch(s * ROWS..(s + 1) * ROWS, DIM);
                b.attributes = vec![b.ids.iter().map(|&id| attr(id)).collect()];
                col.insert(b).unwrap();
                col.flush().unwrap();
            }
            let delete = || {
                col.delete((0..3 * ROWS).filter(|id| id % 7 == 0).collect()).unwrap();
                col.flush().unwrap();
            };
            if tombstones == "+tombstones at build" {
                delete();
            }
            if let Some(ty) = index {
                assert_eq!(col.build_index("v", ty).unwrap(), 3, "{case}");
            }
            if tombstones == "+tombstones" {
                delete();
            }
            let snap = col.snapshot();
            assert_eq!(snap.segments.len(), 3, "{case}");
            assert!(
                snap.segments.iter().all(|s| s.deleted().is_empty() == tombstones.is_empty()),
                "{case}"
            );

            // An IVF segment's reference: the same build over the vectors in
            // id order, regenerated here rather than read from the segment.
            let references: Vec<Option<Box<dyn VectorIndex>>> = snap
                .segments
                .iter()
                .map(|seg| {
                    let ty = index.filter(|ty| ty.starts_with("IVF"))?;
                    let ids = &seg.data().row_ids;
                    let mut vs = VectorSet::new(DIM);
                    ids.iter().for_each(|&id| vs.push(&vector_of(id, DIM)));
                    Some(IndexRegistry::with_builtins().build(ty, &vs, ids, &build_params).unwrap())
                })
                .collect();
            // Each segment beside its twin reloaded through the codec.
            let twins: Vec<Segment> = snap
                .segments
                .iter()
                .map(|seg| decode_segment(seg.id, seg.version, &encode_segment(seg)).unwrap())
                .collect();
            let references = references.iter().map(Option::as_deref);
            let originals: Vec<(&Segment, Reference)> =
                snap.segments.iter().map(Arc::as_ref).zip(references.clone()).collect();
            let reloaded: Vec<(&Segment, Reference)> = twins.iter().zip(references).collect();
            // Every row still reads the vector inserted under its id, by
            // point lookup and by row position, reordered column or not.
            for (seg, _) in originals.iter().chain(&reloaded) {
                for (row, &id) in seg.data().row_ids.iter().enumerate() {
                    assert_eq!(seg.data().vectors[0].get(row), vector_of(id, DIM), "{case}: id {id}");
                }
            }
            for id in (0..3 * ROWS).filter(|id| tombstones.is_empty() || id % 7 != 0) {
                assert_eq!(col.get_entity(id).unwrap().vectors, [vector_of(id, DIM)], "{case}");
            }

            let bits = |id: i64, d: f32| (id, d.to_bits());
            let check = |what: &str, got: &[SearchHit], q: &[f32], k: usize, range| {
                let lists: Vec<_> =
                    originals.iter().map(|&seg| expected(seg, q, k, range, true)).collect();
                assert_eq!(
                    got.iter().map(|h| bits(h.id, h.distance)).collect::<Vec<_>>(),
                    merge_segment_results(&lists, k).iter().map(|n| bits(n.id, n.dist)).collect::<Vec<_>>(),
                    "{case}: {what} diverged from the oracle (k={k}, range={range:?})"
                );
            };
            let search = |q: &[f32], k: usize, range: Option<(f64, f64)>| {
                match range {
                    Some((lo, hi)) => col.filtered_search("v", q, "tag", lo, hi, &params(k)),
                    None => col.search("v", q, &params(k)),
                }
                .unwrap()
            };

            for (label, range) in ranges {
                for (q, &k) in queries.iter().zip(&ks) {
                    check(&format!("lone search, {label}"), &search(q, k, range), q, k, range);
                }
                // A storm behind taken run slots: one unfiltered search per
                // core is parked in the slowed first segment first (strategy
                // A never enters `Segment::search*`, so filtered searches
                // cannot hold a slot open themselves); the barrier-held storm
                // is let go only then, queues, and is coalesced as the slots
                // free, mixed `k` and all.
                let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
                let inflight = obs::gauge(obs::SCHED_INFLIGHT, &name);
                let coalesced = || obs::counter(obs::SCHED_COALESCED_QUERIES, &name).get();
                let before = coalesced();
                milvus_storage::inject_scan_delay(snap.segments[0].id, Duration::from_millis(20));
                let barrier = Barrier::new(ks.len() + 1);
                let storm: Vec<Vec<SearchHit>> = std::thread::scope(|s| {
                    let handles: Vec<_> = queries
                        .iter()
                        .zip(&ks)
                        .map(|(q, &k)| {
                            let (barrier, search) = (&barrier, &search);
                            s.spawn(move || {
                                barrier.wait();
                                search(q, k, range)
                            })
                        })
                        .collect();
                    let holders: Vec<_> =
                        (0..cores).map(|_| s.spawn(|| search(&queries[0], ks[0], None))).collect();
                    while (inflight.get() as usize) < cores {
                        std::thread::yield_now();
                    }
                    barrier.wait();
                    for holder in holders {
                        check("slot holder", &holder.join().unwrap(), &queries[0], ks[0], None);
                    }
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                milvus_storage::clear_scan_delays();
                assert!(coalesced() > before, "{case}: the storm never coalesced");
                for ((got, q), &k) in storm.iter().zip(&queries).zip(&ks) {
                    check(&format!("concurrent search, {label}"), got, q, k, range);
                }

                // The per-segment dispatch itself, 32 queries with mixed `k`
                // under the predicate's bitmap (built here, row by row), and
                // each query alone — on an unindexed segment with its rows
                // split over 1, 2, 3, 7 and more-than-rows cores, at every
                // `k` of the batch and one beyond the segment's rows.
                let qrefs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
                let widths = if index.is_none() { vec![1, 2, 3, 7, ROWS as usize + 5] } else { vec![1] };
                let lone_ks = batch_ks.iter().copied().chain([ROWS as usize + 1]);
                for &(seg, reference) in originals.iter().chain(&reloaded) {
                    let ids = &seg.data().row_ids;
                    let passing: Vec<u32> = (0..ids.len() as u32)
                        .filter(|&r| range.is_none_or(|(lo, hi)| (lo..=hi).contains(&attr(ids[r as usize]))))
                        .collect();
                    let mask = RowMask::from_positions(ids.len(), &passing);
                    let allow = range.map(|_| &mask);
                    for &cores in &widths {
                        let fanout = Fanout { cores, timed: false };
                        let check = |what: &str, got: milvus_storage::Result<Vec<Neighbor>>, q: &[f32], k| {
                            assert_eq!(
                                got.unwrap(),
                                expected((seg, reference), q, k, range, false),
                                "{case}: Segment::search_batch diverged ({what}, segment {} v{}, k={k}, \
                                 cores={cores}, {label})",
                                seg.id,
                                seg.version
                            );
                        };
                        let (lists, _) =
                            seg.search_batch(&schema, "v", &qrefs, &batch_ks, &params(1), allow, fanout);
                        for ((got, &q), &k) in lists.into_iter().zip(&qrefs).zip(&batch_ks) {
                            check("batch of 32", got, q, k);
                        }
                        for (&q, k) in qrefs.iter().cycle().zip(lone_ks.clone()) {
                            let (mut lone, _) =
                                seg.search_batch(&schema, "v", &[q], &[k], &params(k), allow, fanout);
                            check("lone", lone.remove(0), q, k);
                        }
                    }
                }
            }
            // `Collection::search_batch` has no filtered form.
            for m in [1usize, 32] {
                let mut qs = VectorSet::new(DIM);
                queries[..m].iter().for_each(|q| qs.push(q));
                let got = col.search_batch("v", &qs, &params(9)).unwrap();
                assert_eq!(got.len(), m, "{case}");
                for (hits, q) in got.iter().zip(&queries) {
                    check("search_batch", hits, q, 9, None);
                }
            }
        }
    }
}

/// `search_batch` runs its queries as one batch; each query must still
/// return exactly what a lone `search` returns.
#[test]
fn search_batch_matches_individual_searches() {
    let _g = guard();
    let m = Milvus::new();
    let col = segmented_collection(&m, "exec_batch", 3, 80);
    let params = SearchParams::top_k(9);

    let mut queries = VectorSet::new(8);
    for qi in 0..13i64 {
        let q: Vec<f32> = (0..8).map(|d| ((qi * 5 + d) as f32 * 0.23).cos()).collect();
        queries.push(&q);
    }
    let batched = col.search_batch("v", &queries, &params).unwrap();
    assert_eq!(batched.len(), queries.len());
    for (i, batch_hits) in batched.iter().enumerate() {
        let single = col.search("v", queries.get(i), &params).unwrap();
        assert_eq!(*batch_hits, single, "batched result diverged for query {i}");
    }
}

/// What a lone scan adds to the executor is a count, not a timing: over an
/// unindexed segment of `rows` rows split for `c` cores it queues exactly
/// `min(c, rows) − 1` range tasks (the caller runs the first); over an
/// indexed one, none. Each split answers bit for bit what the scalar loop
/// does — with tombstones, with every row tombstoned, with no rows, at `k`
/// beyond the rows — and only a timed split reads the clock.
#[test]
fn lone_unindexed_scan_queues_one_task_per_extra_range() {
    const DIM: usize = 16;
    let _g = guard();
    let schema = Schema::single("v", DIM, Metric::L2);
    let plain = Segment::from_batch(1, &schema, &batch(0..300, DIM)).unwrap();
    let tombstoned = plain.with_deletes((0..300).filter(|id| id % 7 == 0));
    let all_dead = plain.with_deletes(0..300);
    let columns = vec![VectorSet::new(DIM).into()];
    let empty = SegmentData { row_ids: Vec::new(), vectors: columns, attributes: Vec::new() };
    let empty = Segment::from_parts(2, 1, empty, &[]);
    let tasks = || obs::counter(obs::EXEC_TASKS, "global").get();
    let q = vector_of(1_000, DIM);
    for (what, seg) in
        [("plain", &plain), ("tombstones", &tombstoned), ("all tombstoned", &all_dead), ("empty", &empty)]
    {
        let rows = seg.num_rows();
        let dead: HashSet<i64> = seg.deleted().into_iter().collect();
        for cores in [1, 2, 3, 7, rows + 5] {
            let width = cores.min(rows).max(1);
            for k in [1, 10, rows + 1] {
                let mut oracle = TopK::new(k);
                for (row, &id) in seg.data().row_ids.iter().enumerate() {
                    if !dead.contains(&id) {
                        oracle.push(id, distance::distance(Metric::L2, &q, seg.data().vectors[0].get(row)));
                    }
                }
                let oracle = oracle.into_sorted();
                for timed in [false, true] {
                    let before = tasks();
                    let fanout = Fanout { cores, timed };
                    let (mut got, stats) =
                        seg.search_batch(&schema, "v", &[&q], &[k], &SearchParams::top_k(k), None, fanout);
                    let case = format!("{what}: cores={cores}, k={k}, timed={timed}");
                    assert_eq!(tasks() - before, width as u64 - 1, "{case}");
                    assert_eq!(stats.queue_wait.is_some(), timed && width > 1, "{case}");
                    assert_eq!(got.remove(0).unwrap(), oracle, "{case}");
                }
            }
        }
    }
    let build = CollectionConfig::for_tests().build_params;
    let indexed = plain.build_index(&schema, "v", "IVF_FLAT", &IndexRegistry::with_builtins(), &build);
    let before = tasks();
    let fanout = Fanout { cores: 7, timed: true };
    let (_, stats) = indexed.unwrap().search_batch(&schema, "v", &[&q], &[5], &SearchParams::top_k(5), None, fanout);
    assert_eq!(tasks(), before, "an indexed segment ignores the cores it is offered");
    assert_eq!(stats.queue_wait, None);
}

/// With every run slot held a lone unindexed search has no idle core to
/// split into and queues no task; with the slots free its one segment
/// splits over every core. The slot holders search with a query of the
/// wrong dimension: they park in the segment's injected scan delay holding
/// their slots, then fail before scanning, so they queue no task either.
#[test]
fn a_lone_search_splits_only_into_idle_run_slots() {
    let _g = guard();
    let _cleanup = DelayGuard;
    let m = Milvus::new();
    let col = segmented_collection(&m, "exec_idle_slots", 1, 400);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let tasks = || obs::counter(obs::EXEC_TASKS, "global").get();
    let passed = || obs::counter(obs::SCHED_PASSTHROUGH, "exec_idle_slots").get();
    let (q, params) = (vector_of(1_000, 8), SearchParams::top_k(5));

    let before = tasks();
    let free = col.search("v", &q, &params).unwrap();
    assert_eq!(tasks() - before, cores as u64 - 1, "a lone search with {cores} run slots free");

    milvus_storage::inject_scan_delay(col.snapshot().segments[0].id, Duration::from_millis(200));
    let holding = passed() + cores as u64;
    std::thread::scope(|s| {
        let holders: Vec<_> =
            (0..cores).map(|_| s.spawn(|| col.search("v", &[0.0; 3], &params))).collect();
        while passed() < holding {
            std::thread::yield_now();
        }
        let mut one = VectorSet::new(8);
        one.push(&q);
        let before = tasks();
        let held = col.search_batch("v", &one, &params).unwrap();
        assert_eq!(tasks(), before, "every run slot was held, yet the search fanned out");
        assert_eq!(held, [free]);
        for holder in holders {
            assert!(holder.join().unwrap().is_err(), "a wrong-dimension query must fail");
        }
    });
}

/// Filtered search fans out per segment too and must keep its results.
#[test]
fn filtered_search_survives_the_fanout() {
    let _g = guard();
    let m = Milvus::new();
    let col = m
        .create_collection(
            "exec_filtered",
            Schema::single("v", 8, Metric::L2).with_attribute("price"),
            CollectionConfig::for_tests(),
        )
        .unwrap();
    for s in 0..3i64 {
        let ids: Vec<i64> = (s * 100..(s + 1) * 100).collect();
        let mut vs = VectorSet::new(8);
        let mut attrs = Vec::new();
        for &id in &ids {
            let v: Vec<f32> = (0..8).map(|d| ((id + d) as f32 * 0.19).sin()).collect();
            vs.push(&v);
            attrs.push((id % 50) as f64);
        }
        col.insert(InsertBatch { ids, vectors: vec![vs], attributes: vec![attrs] }).unwrap();
        col.flush().unwrap();
    }
    let query: Vec<f32> = (0..8).map(|d| (d as f32 * 0.41).sin()).collect();
    let hits = col
        .filtered_search("v", &query, "price", 10.0, 20.0, &SearchParams::top_k(10))
        .unwrap();
    assert!(!hits.is_empty());
    for hit in &hits {
        assert!((10.0..=20.0).contains(&((hit.id % 50) as f64)), "hit {} fails filter", hit.id);
    }
}

/// The executor's metric families answer on the registry after query-path
/// use (the REST smoke test asserts the rendered families; this pins the
/// counters themselves).
#[test]
fn executor_metrics_are_registered_and_move() {
    let _g = guard();
    let m = Milvus::new();
    let col = segmented_collection(&m, "exec_metrics", 4, 60);
    let before = obs::counter(obs::EXEC_TASKS, "global").get();
    col.search("v", &[0.5; 8], &SearchParams::top_k(3)).unwrap();
    assert!(obs::counter(obs::EXEC_TASKS, "global").get() > before);
    // Gauges exist and are sane: queue drains back to empty at idle.
    assert!(obs::gauge(obs::EXEC_WORKERS, "global").get() >= 4);
    assert_eq!(obs::gauge(obs::EXEC_QUEUE_DEPTH, "global").get(), 0);
}
