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
use milvus_storage::pass::{self, SharedPass, BLOCK_ROWS};
use milvus_storage::segment::{merge_segment_results, Segment};
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
/// under 200 ms; the caller and one helper per idle run slot claim the
/// four segments' blocks side by side, overlap the sleeps and must come in
/// well under that.
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
    // The search holds one run slot; each other one is idle and brings a
    // helper, up to one per unit (block) beyond the caller's own.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let tasks_after = obs::counter(obs::EXEC_TASKS, "global").get();
    assert_eq!(
        tasks_after - tasks_before,
        (cores as u64 - 1).min(4 - 1),
        "one pool task per idle run slot, at most one per block beyond the caller's own"
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
///   `Segment::search_field` under the predicate's mask.
///
/// Over {no index, IVF_FLAT, IVF_SQ8, IVF_PQ, HNSW} × {no tombstones,
/// tombstones, tombstones already there when the index was built} ×
/// {unfiltered, predicates passing nothing / one row / 1 % / 50 % / 100 %} ×
/// {a lone search, a barrier-released storm coalesced behind taken run slots
/// with mixed `k`, `Segment::search_batch` of 32 with mixed `k` and of each
/// query alone (`k` up to rows + 1) on each segment and on its twin reloaded
/// through the segment codec, unfiltered and unindexed a shared pass over
/// the segments and one over their twins with helpers ∈ {0, 1, 2, 7,
/// blocks + 5}, `Collection::search_batch` of 1 and of 32}, every answer
/// must equal the per-segment oracle lists merged by `merge_segment_results`
/// — same ids, same distance bits.
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
                seg.search_field(&schema, "v", q, &params(k), allow).unwrap()
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
            let twins: Vec<Arc<Segment>> = snap
                .segments
                .iter()
                .map(|seg| Arc::new(decode_segment(seg.id, seg.version, &encode_segment(seg)).unwrap()))
                .collect();
            let references = references.iter().map(Option::as_deref);
            let originals: Vec<(&Segment, Reference)> =
                snap.segments.iter().map(Arc::as_ref).zip(references.clone()).collect();
            let reloaded: Vec<(&Segment, Reference)> =
                twins.iter().map(Arc::as_ref).zip(references).collect();
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
                // each query alone, at every `k` of the batch and one beyond
                // the segment's rows.
                let qrefs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
                let lone_ks = batch_ks.iter().copied().chain([ROWS as usize + 1]);
                for &(seg, reference) in originals.iter().chain(&reloaded) {
                    let ids = &seg.data().row_ids;
                    let passing: Vec<u32> = (0..ids.len() as u32)
                        .filter(|&r| range.is_none_or(|(lo, hi)| (lo..=hi).contains(&attr(ids[r as usize]))))
                        .collect();
                    let mask = RowMask::from_positions(ids.len(), &passing);
                    let allow = range.map(|_| &mask);
                    let check = |what: &str, got: milvus_storage::Result<Vec<Neighbor>>, q: &[f32], k| {
                        assert_eq!(
                            got.unwrap(),
                            expected((seg, reference), q, k, range, false),
                            "{case}: Segment::search_batch diverged ({what}, segment {} v{}, k={k}, {label})",
                            seg.id,
                            seg.version
                        );
                    };
                    let lists = seg.search_batch(&schema, "v", &qrefs, &batch_ks, &params(1), allow);
                    for ((got, &q), &k) in lists.into_iter().zip(&qrefs).zip(&batch_ks) {
                        check("batch of 32", got, q, k);
                    }
                    for (&q, k) in qrefs.iter().cycle().zip(lone_ks.clone()) {
                        let mut lone = seg.search_batch(&schema, "v", &[q], &[k], &params(k), allow);
                        check("lone", lone.remove(0), q, k);
                    }
                }
                // Unfiltered and unindexed: a shared pass over the segments
                // and one over their twins, each query alone with its blocks
                // claimed beside 0, 1, 2, 7 and more-than-blocks helpers —
                // exactly `min(helpers, blocks − 1)` executor tasks each.
                let tasks = || obs::counter(obs::EXEC_TASKS, "global").get();
                let passes = [("segments", &snap.segments), ("twins", &twins)];
                for (what, segs) in passes.into_iter().filter(|_| index.is_none() && range.is_none()) {
                    let pass = SharedPass::new(&schema, "v", segs.clone(), &name).unwrap();
                    let blocks = pass.blocks();
                    assert_eq!(blocks, 3, "{case}: one block per segment");
                    for helpers in [0, 1, 2, 7, blocks + 5] {
                        for (&q, k) in qrefs.iter().cycle().zip(lone_ks.clone()) {
                            let before = tasks();
                            let got = pass::read(Some((&pass, q, k)), 0, helpers, false, |_| ()).pass;
                            let what = format!("{case}: pass over the {what}, helpers={helpers}, k={k}");
                            assert_eq!(tasks() - before, helpers.min(blocks - 1) as u64, "{what}");
                            let lists: Vec<_> =
                                originals.iter().map(|&seg| expected(seg, q, k, None, false)).collect();
                            let all_bits = |l: &[Neighbor]| l.iter().map(|n| bits(n.id, n.dist)).collect::<Vec<_>>();
                            assert_eq!(all_bits(&got), all_bits(&merge_segment_results(&lists, k)), "{what}");
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

/// With every run slot held a lone unindexed search has no idle core to
/// bring to its shared pass and queues no task; with the slots free every
/// idle slot joins the pass as a helper, one executor task each, over a
/// segment with more blocks than run slots. The slot holders search
/// with a query of the wrong dimension: it takes the per-segment path, so
/// they park in the segment's injected scan delay holding their slots, then
/// fail before scanning, and queue no task either.
#[test]
fn a_lone_search_splits_only_into_idle_run_slots() {
    let _g = guard();
    let _cleanup = DelayGuard;
    let m = Milvus::new();
    // More blocks than run slots, so each idle slot brings one helper.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let col = segmented_collection(&m, "exec_idle_slots", 1, ((cores + 1) * BLOCK_ROWS) as i64);
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

/// A lone search over a snapshot that mixes indexed and unindexed segments,
/// with tombstones in both: the unindexed ones go through the snapshot's
/// shared pass, each block claimed once for the query (the pass counters
/// move by exactly the unindexed blocks), the indexed ones through their
/// IVF index. The oracle is a scalar loop over the live rows of each
/// unindexed segment and, on each indexed one, that segment's own
/// `search_field`; merged, they must equal the answer by id and
/// distance bits.
#[test]
fn a_lone_search_over_mixed_segments_matches_the_oracle() {
    const DIM: usize = 16;
    let _g = guard();
    let m = Milvus::new();
    let name = "exec_mixed_pass";
    let schema = Schema::single("v", DIM, Metric::L2);
    let col = m.create_collection(name, schema.clone(), CollectionConfig::for_tests()).unwrap();
    for (lo, hi) in [(0, 1500), (1500, 3000)] {
        col.insert(batch(lo..hi, DIM)).unwrap();
        col.flush().unwrap();
    }
    assert_eq!(col.build_index("v", "IVF_FLAT").unwrap(), 2);
    for (lo, hi) in [(3000, 3000 + BLOCK_ROWS as i64 + 76), (5000, 5300)] {
        col.insert(batch(lo..hi, DIM)).unwrap();
        col.flush().unwrap();
    }
    col.delete((0..5300).filter(|id| id % 11 == 4).collect()).unwrap();
    col.flush().unwrap();
    let stats = col.stats();
    assert_eq!((stats.segments, stats.indexed_segments), (4, 2));

    let snap = col.snapshot();
    let params = |k: usize| SearchParams { k, nprobe: 4, ..Default::default() };
    let counters = || {
        let snap = obs::registry().snapshot();
        (snap.counter(obs::SCAN_PASS_BLOCKS, name), snap.counter(obs::SCAN_PASS_QUERY_BLOCKS, name))
    };
    let bits = |list: &[(i64, f32)]| list.iter().map(|&(id, d)| (id, d.to_bits())).collect::<Vec<_>>();
    for (qi, k) in [1usize, 10, 37, 6000].into_iter().enumerate() {
        let q = vector_of(9_000 + qi as i64, DIM);
        let lists: Vec<Vec<Neighbor>> = snap
            .segments
            .iter()
            .map(|seg| {
                if seg.index("v").is_some() {
                    return seg.search_field(&schema, "v", &q, &params(k), None).unwrap();
                }
                let mut heap = TopK::new(k);
                for (row, &id) in seg.data().row_ids.iter().enumerate() {
                    if !seg.is_deleted(id) {
                        heap.push(id, distance::distance(Metric::L2, &q, seg.data().vectors[0].get(row)));
                    }
                }
                heap.into_sorted()
            })
            .collect();
        let want: Vec<(i64, f32)> =
            merge_segment_results(&lists, k).iter().map(|n| (n.id, n.dist)).collect();
        let before = counters();
        let got: Vec<(i64, f32)> =
            col.search("v", &q, &params(k)).unwrap().iter().map(|h| (h.id, h.distance)).collect();
        assert_eq!(bits(&got), bits(&want), "k={k}");
        let after = counters();
        assert_eq!((after.0 - before.0, after.1 - before.1), (3, 3), "k={k}: two blocks, then one");
    }
}

/// A mixed snapshot — two IVF_FLAT segments and three unindexed ones, one
/// of them with tombstones — read through `search`, `filtered_search` and
/// `search_batch` (of one query and of four) while 0 to all of the
/// collection's run slots are held. Each read is one claim loop over its
/// units: the pass blocks of a lone unfiltered query (2 + 1 + 1) plus the
/// segments it reads on its own (the 2 indexed ones; all 5 for the others).
/// It queues exactly `min(idle run slots, units − 1)` executor tasks (a
/// batch of four adds the batch engine's own row ranges), and
/// every answer equals the oracle: a scalar loop over the live (and passing)
/// rows of each segment scanned exactly — every unindexed one, and an
/// indexed one under a predicate passing at most `8·k` of its rows — and an
/// indexed segment's own `search_field` otherwise, merged by
/// `merge_segment_results`, by id and distance bits.
///
/// The slots are held as in [`a_lone_search_splits_only_into_idle_run_slots`],
/// one holder at a time, each parked in an injected scan delay: a
/// wrong-dimension search reads all five segments on its own, so holder `i`
/// queues `min(cores − i, 4)` tasks of its own, and the next starts only
/// once those have run.
#[test]
fn a_mixed_snapshot_queues_one_task_per_idle_slot_it_can_use() {
    const DIM: usize = 16;
    const K: usize = 10;
    let _g = guard();
    let _cleanup = DelayGuard;
    let m = Milvus::new();
    let name = "exec_mixed_units";
    let schema = Schema::single("v", DIM, Metric::L2).with_attribute("price");
    let col = m.create_collection(name, schema.clone(), CollectionConfig::for_tests()).unwrap();
    let price = |id: i64| (id % 100) as f64;
    let insert = |ids: std::ops::Range<i64>| {
        let InsertBatch { ids, vectors, .. } = batch(ids, DIM);
        let attributes = vec![ids.iter().map(|&id| price(id)).collect()];
        col.insert(InsertBatch { ids, vectors, attributes }).unwrap();
        col.flush().unwrap();
    };
    insert(0..1500);
    insert(1500..3000);
    assert_eq!(col.build_index("v", "IVF_FLAT").unwrap(), 2);
    insert(3000..3000 + BLOCK_ROWS as i64 + 76);
    insert(5000..5300);
    insert(6000..6700);
    col.delete((5000..5300).filter(|id| id % 7 == 3).collect()).unwrap();
    col.flush().unwrap();
    let stats = col.stats();
    assert_eq!((stats.segments, stats.indexed_segments), (5, 2));
    let (lone_units, own_units) = (4 + 2, 5);

    let snap = col.snapshot();
    let params = SearchParams { k: K, nprobe: 4, ..Default::default() };
    let (lo, hi) = (0.0, 2.0);
    let oracle = |q: &[f32], filtered: bool| -> Vec<(i64, u32)> {
        let lists: Vec<Vec<Neighbor>> = snap
            .segments
            .iter()
            .map(|seg| {
                let indexed = seg.index("v").is_some();
                if indexed && !filtered {
                    return seg.search_field(&schema, "v", q, &params, None).unwrap();
                }
                let ids = &seg.data().row_ids;
                let keep = |&row: &usize| {
                    !seg.is_deleted(ids[row]) && (!filtered || (lo..=hi).contains(&price(ids[row])))
                };
                let rows: Vec<usize> = (0..ids.len()).filter(keep).collect();
                assert!(!indexed || rows.len() <= 8 * K, "the predicate must resolve to an exact scan");
                let mut heap = TopK::new(K);
                for row in rows {
                    heap.push(ids[row], distance::distance(Metric::L2, q, seg.data().vectors[0].get(row)));
                }
                heap.into_sorted()
            })
            .collect();
        merge_segment_results(&lists, K).iter().map(|n| (n.id, n.dist.to_bits())).collect()
    };
    let bits = |hits: &[SearchHit]| hits.iter().map(|h| (h.id, h.distance.to_bits())).collect::<Vec<_>>();

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let tasks = || obs::counter(obs::EXEC_TASKS, "global").get();
    let passed = || obs::counter(obs::SCHED_PASSTHROUGH, name).get();
    // `f`'s result and the executor tasks it queued, run while `held` run
    // slots are taken.
    let holding = |held: usize, f: &dyn Fn() -> Vec<Vec<SearchHit>>| {
        if held > 0 {
            milvus_storage::inject_scan_delay(snap.segments[4].id, Duration::from_millis(300));
        }
        let out = std::thread::scope(|s| {
            let mut holders = Vec::new();
            let mut queued = tasks();
            for i in 1..=held {
                let before = passed();
                holders.push(s.spawn(|| col.search("v", &[0.0; 3], &params)));
                queued += (cores - i).min(own_units - 1) as u64;
                while passed() == before || tasks() < queued {
                    std::thread::yield_now();
                }
            }
            assert_eq!(tasks(), queued, "the holders queued more tasks than their idle slots");
            let before = tasks();
            let got = f();
            let queued = tasks() - before;
            for holder in holders {
                assert!(holder.join().unwrap().is_err(), "a wrong-dimension query must fail");
            }
            (got, queued)
        });
        milvus_storage::clear_scan_delays();
        out
    };

    let queries: Vec<Vec<f32>> = (0..4).map(|i| vector_of(9_100 + i, DIM)).collect();
    let mut four = VectorSet::new(DIM);
    queries.iter().for_each(|q| four.push(q));
    let mut one = VectorSet::new(DIM);
    one.push(&queries[0]);
    for held in 0..=cores {
        let idle = cores - held;
        // `search` and `filtered_search` take a run slot of their own, so
        // they run only while one is free; `search_batch` takes none.
        if idle > 0 {
            let what = format!("search, {held} of {cores} run slots held");
            let (got, queued) = holding(held, &|| vec![col.search("v", &queries[0], &params).unwrap()]);
            assert_eq!(bits(&got[0]), oracle(&queries[0], false), "{what}");
            assert_eq!(queued, (idle - 1).min(lone_units - 1) as u64, "{what}");

            let what = format!("filtered_search, {held} of {cores} run slots held");
            let filtered = || vec![col.filtered_search("v", &queries[1], "price", lo, hi, &params).unwrap()];
            let (got, queued) = holding(held, &filtered);
            assert!(!got[0].is_empty(), "{what}");
            assert_eq!(bits(&got[0]), oracle(&queries[1], true), "{what}");
            assert_eq!(queued, (idle - 1).min(own_units - 1) as u64, "{what}");
        }
        let what = format!("search_batch of one, {held} of {cores} run slots held");
        let (got, queued) = holding(held, &|| col.search_batch("v", &one, &params).unwrap());
        assert_eq!(bits(&got[0]), oracle(&queries[0], false), "{what}");
        assert_eq!(queued, idle.min(lone_units - 1) as u64, "{what}");

        // Four queries score each unindexed segment in the batch engine,
        // which splits the segment's rows over every executor worker on its
        // own (§3.2.1's data ranges): `workers − 1` more tasks per segment.
        let what = format!("search_batch of four, {held} of {cores} run slots held");
        let (got, queued) = holding(held, &|| col.search_batch("v", &four, &params).unwrap());
        for (hits, q) in got.iter().zip(&queries) {
            assert_eq!(bits(hits), oracle(q, false), "{what}");
        }
        let ranges = 3 * (milvus_exec::Executor::global().threads() - 1);
        assert_eq!(queued, (idle.min(own_units - 1) + ranges) as u64, "{what}");
    }
}

/// Two lone searches that meet in the shared pass share its row loads and
/// still each return exactly their lone answer. Every run slot is held
/// first (as in [`a_lone_search_splits_only_into_idle_run_slots`]), so the
/// two run with no helper: the first to claim the segment's first block
/// sleeps in its scan delay there, and the other scores every later block
/// for both — more (query, block) pairs than blocks.
#[test]
fn two_concurrent_lone_searches_share_the_pass_and_keep_their_answers() {
    let _g = guard();
    let _cleanup = DelayGuard;
    let m = Milvus::new();
    let name = "exec_shared_pass";
    let col = segmented_collection(&m, name, 1, 4 * BLOCK_ROWS as i64);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let passed = || obs::counter(obs::SCHED_PASSTHROUGH, name).get();
    let counters = || {
        let snap = obs::registry().snapshot();
        (snap.counter(obs::SCAN_PASS_BLOCKS, name), snap.counter(obs::SCAN_PASS_QUERY_BLOCKS, name))
    };
    let queries = [vector_of(7_001, 8), vector_of(7_002, 8)];
    let params = [SearchParams::top_k(3), SearchParams::top_k(40)];
    let lone: Vec<Vec<SearchHit>> =
        queries.iter().zip(&params).map(|(q, p)| col.search("v", q, p).unwrap()).collect();

    milvus_storage::inject_scan_delay(col.snapshot().segments[0].id, Duration::from_millis(200));
    let holding = passed() + cores as u64;
    let (before, barrier) = (counters(), Barrier::new(2));
    std::thread::scope(|s| {
        let holders: Vec<_> =
            (0..cores).map(|_| s.spawn(|| col.search("v", &[0.0; 3], &params[0]))).collect();
        while passed() < holding {
            std::thread::yield_now();
        }
        let searches: Vec<_> = queries
            .iter()
            .zip(&params)
            .map(|(q, p)| {
                let (barrier, col) = (&barrier, &col);
                s.spawn(move || {
                    let mut one = VectorSet::new(8);
                    one.push(q);
                    barrier.wait();
                    col.search_batch("v", &one, p).unwrap().remove(0)
                })
            })
            .collect();
        for (search, want) in searches.into_iter().zip(&lone) {
            assert_eq!(&search.join().unwrap(), want);
        }
        for holder in holders {
            assert!(holder.join().unwrap().is_err(), "a wrong-dimension query must fail");
        }
    });
    let after = counters();
    let (blocks, query_blocks) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(query_blocks, 8, "each query sees each of the 4 blocks once");
    assert!(blocks < query_blocks, "the two never shared a block ({blocks} claims)");
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
