//! The shared scan pass against a per-segment reference. A single-threaded
//! schedule, driven here through `attach`/`claim`/`score`/`finish`, attaches
//! a second query at every block boundary of several snapshots — none, one
//! empty segment, and one mixing an all-tombstoned segment, tombstones, a
//! segment shorter than a block and an exact block — at mixed `k`, `k`
//! beyond the row count included. Every answer must equal a plain per-row
//! scan of each segment merged by `merge_segment_results`, by id and
//! `to_bits()`, and the pass's two work counters are pinned exactly.
//! `pass::read` of a pass alone is held to the same reference with 0 to
//! more than blocks helpers, counting the executor tasks it queues. A threaded storm
//! then runs 8 × 64 concurrent `ReaderNode::search`es while refreshes swap
//! the reader's snapshot, each equal to its lone answer.

use std::sync::Arc;

use milvus_distributed::reader::ReaderNode;
use milvus_distributed::writer::WriterNode;
use milvus_distributed::Coordinator;
use milvus_index::{distance, Metric, Neighbor, SearchParams, TopK, VectorSet};
use milvus_obs as obs;
use milvus_storage::object_store::{MemoryStore, ObjectStore};
use milvus_storage::pass::{self, SharedPass, BLOCK_ROWS};
use milvus_storage::segment::merge_segment_results;
use milvus_storage::{InsertBatch, LsmConfig, Schema, Segment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Not a multiple of any lane width, so every kernel runs its scalar tail.
const DIM: usize = 13;

fn random_set(n: usize, dim: usize, rng: &mut StdRng) -> VectorSet {
    let mut vs = VectorSet::with_capacity(dim, n);
    for _ in 0..n {
        vs.push(&(0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<_>>());
    }
    vs
}

/// A segment of `n` rows with ids from `first`, less those `dead` keeps.
fn segment(
    schema: &Schema,
    id: u64,
    first: i64,
    n: usize,
    dead: impl Fn(i64) -> bool,
    rng: &mut StdRng,
) -> Arc<Segment> {
    let ids: Vec<i64> = (first..first + n as i64).collect();
    let batch = InsertBatch::single(ids.clone(), random_set(n, DIM, rng));
    let seg = Segment::from_batch(id, schema, &batch).unwrap();
    Arc::new(seg.with_deletes(ids.into_iter().filter(|&id| dead(id))))
}

fn bits(list: &[Neighbor]) -> Vec<(i64, u32)> {
    list.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Each segment's live rows scored one pair at a time, the lists merged.
fn reference(metric: Metric, segments: &[Arc<Segment>], query: &[f32], k: usize) -> Vec<Neighbor> {
    let pair = distance::pair_kernel(metric);
    let lists: Vec<Vec<Neighbor>> = segments
        .iter()
        .map(|seg| {
            let mut heap = TopK::new(k.max(1));
            for (row, &id) in seg.data().row_ids.iter().enumerate() {
                if !seg.is_deleted(id) {
                    heap.push(id, pair(query, seg.data().vectors[0].get(row)));
                }
            }
            heap.into_sorted()
        })
        .collect();
    merge_segment_results(&lists, k)
}

fn counters(label: &str) -> (u64, u64) {
    let snap = obs::registry().snapshot();
    (snap.counter(obs::SCAN_PASS_BLOCKS, label), snap.counter(obs::SCAN_PASS_QUERY_BLOCKS, label))
}

#[test]
fn a_second_query_attached_at_every_block_boundary_gets_the_reference_answer() {
    let mut rng = StdRng::seed_from_u64(27);
    for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
        let schema = Schema::single("v", DIM, metric);
        let mixed = vec![
            segment(&schema, 1, 0, 2 * BLOCK_ROWS + 300, |id| id % 7 == 3, &mut rng),
            segment(&schema, 2, 10_000, 300, |_| true, &mut rng),
            segment(&schema, 3, 20_000, 700, |_| false, &mut rng),
            segment(&schema, 4, 30_000, 0, |_| false, &mut rng),
            segment(&schema, 5, 40_000, BLOCK_ROWS, |id| id % 100 == 0, &mut rng),
        ];
        let total: usize = mixed.iter().map(|s| s.num_rows()).sum();
        let snapshots = [vec![], vec![segment(&schema, 9, 0, 0, |_| false, &mut rng)], mixed];
        for (si, segments) in snapshots.into_iter().enumerate() {
            let label = format!("reader-oracle-{metric}-{si}");
            let pass = SharedPass::new(&schema, "v", segments.clone(), &label).unwrap();
            let n = pass.blocks();
            // Full blocks, then each segment's short last block.
            let per_segment = segments.iter().map(|s| s.num_rows().div_ceil(BLOCK_ROWS));
            assert_eq!(n, per_segment.sum::<usize>());
            for j in 0..=n {
                let (q1, q2) = (random_set(1, DIM, &mut rng), random_set(1, DIM, &mut rng));
                let (k1, k2) = ([1, 3, 10][j % 3], [total + 7, 5, 1][j % 3]);
                let before = counters(&label);
                let first = pass.attach(q1.get(0), k1);
                // Claim `j` blocks for the first query alone; the second
                // attaches while the last of them is claimed but unscored.
                let mut second = None;
                for i in 0..j {
                    let claim = pass.claim(&first).expect("owed a block");
                    if i + 1 == j {
                        second = Some(pass.attach(q2.get(0), k2));
                    }
                    pass.score(claim);
                }
                let second = second.unwrap_or_else(|| pass.attach(q2.get(0), k2));
                // Then alternate claimants until neither is owed anything.
                loop {
                    let claim = pass.claim(&second).or_else(|| pass.claim(&first));
                    let Some(claim) = claim else { break };
                    pass.score(claim);
                }
                let (a1, a2) = (pass.finish(first), pass.finish(second));
                let what = format!("{metric} snapshot {si} attach after {j} of {n}");
                assert_eq!(bits(&a1), bits(&reference(metric, &segments, q1.get(0), k1)), "{what}");
                assert_eq!(bits(&a2), bits(&reference(metric, &segments, q2.get(0), k2)), "{what}");
                let after = counters(&label);
                let moved = (after.0 - before.0, after.1 - before.1);
                assert_eq!(moved, ((n + j) as u64, 2 * n as u64), "{what}");
            }
        }
    }
}

/// What a lone search adds to the executor is a count, not a timing: beside
/// `h` helpers over `b` blocks it queues exactly `min(h, b − 1)` tasks (the
/// caller claims too), whatever the segment holds — tombstones, every row
/// tombstoned, no rows — and answers bit for bit what the per-row loop does
/// at every `k`, `k` beyond the rows included. Alone, it claims each block
/// once for itself; only a timed search reads the clock.
#[test]
fn a_lone_search_queues_one_task_per_helper_it_can_use() {
    let mut rng = StdRng::seed_from_u64(32);
    let tasks = || obs::counter(obs::EXEC_TASKS, "global").get();
    for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
        let schema = Schema::single("v", DIM, metric);
        let plain = segment(&schema, 1, 0, 3 * BLOCK_ROWS + 300, |_| false, &mut rng);
        let tombstoned = Arc::new(plain.with_deletes((0..3000).filter(|id| id % 7 == 0)));
        let all_dead = Arc::new(plain.with_deletes(0..4000));
        let empty = segment(&schema, 2, 0, 0, |_| false, &mut rng);
        let segments = [("plain", plain), ("tombstones", tombstoned), ("all dead", all_dead), ("empty", empty)];
        for (what, seg) in segments {
            let label = format!("lone-{metric}-{what}");
            let pass = SharedPass::new(&schema, "v", vec![Arc::clone(&seg)], &label).unwrap();
            let (blocks, rows) = (pass.blocks(), seg.num_rows());
            assert_eq!(blocks, rows.div_ceil(BLOCK_ROWS));
            for helpers in [0, 1, 2, 7, blocks + 5] {
                for k in [1, 10, rows + 1] {
                    let q = random_set(1, DIM, &mut rng);
                    let want = bits(&reference(metric, std::slice::from_ref(&seg), q.get(0), k));
                    for timed in [false, true] {
                        let case = format!("{metric} {what}: helpers={helpers}, k={k}, timed={timed}");
                        let (tasks_before, counted) = (tasks(), counters(&label));
                        let read = pass::read(Some((&pass, q.get(0), k)), 0, helpers, timed, |_| ());
                        let (got, timing) = (read.pass, read.timing);
                        let claimers = helpers.min(blocks.saturating_sub(1));
                        assert_eq!(tasks() - tasks_before, claimers as u64, "{case}");
                        assert_eq!(bits(&got), want, "{case}");
                        let after = counters(&label);
                        let moved = (after.0 - counted.0, after.1 - counted.1);
                        assert_eq!(moved, (blocks as u64, blocks as u64), "{case}");
                        let windows: Vec<bool> = timing.windows.iter().map(Option::is_some).collect();
                        let seen = (if timed { vec![blocks > 0] } else { vec![] }, timed && claimers > 0);
                        assert_eq!((windows, timing.helper_wait.is_some()), seen, "{case}");
                    }
                }
            }
        }
    }
}

#[test]
fn concurrent_reader_searches_equal_their_lone_answers_across_refreshes() {
    let coordinator = Coordinator::new(2);
    let shared: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let schema = Schema::single("v", DIM, Metric::L2);
    let cfg = LsmConfig { auto_merge: false, ..Default::default() };
    let writer = WriterNode::new(
        schema.clone(),
        cfg,
        Arc::clone(&shared),
        Arc::clone(&coordinator),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(64);
    for batch in 0..3i64 {
        let ids: Vec<i64> = (batch * 3000..batch * 3000 + 2900 + batch * 37).collect();
        let n = ids.len();
        writer.insert(InsertBatch::single(ids, random_set(n, DIM, &mut rng))).unwrap();
        writer.flush().unwrap();
    }
    writer.delete(&(0..9000).step_by(13).collect::<Vec<i64>>()).unwrap();
    writer.flush().unwrap();
    let reader = ReaderNode::register(schema, coordinator, shared, 64 << 20);
    reader.refresh().unwrap();

    let label = format!("reader-{}", reader.id);
    let queries = random_set(8 * 64, DIM, &mut rng);
    let ks = |q: usize| [1, 10, 50][q % 3];
    let before = counters(&label);
    let lone: Vec<Vec<(i64, u32)>> = (0..queries.len())
        .map(|q| {
            let params = SearchParams::top_k(ks(q));
            let off = &mut obs::Trace::disabled();
            bits(&reader.search_traced("v", queries.get(q), &params, off).unwrap())
        })
        .collect();
    assert!(lone.iter().all(|l| !l.is_empty()));
    // Alone, every search claims each block of the turn for itself.
    let after = counters(&label);
    let turn = (after.0 - before.0) / queries.len() as u64;
    assert!(turn > 1);
    assert_eq!((after.0 - before.0, after.1 - before.1), (turn * 512, turn * 512));

    let before = after;
    std::thread::scope(|s| {
        let storm: Vec<_> = (0..8)
            .map(|t| {
                let (reader, queries, lone) = (&reader, &queries, &lone);
                s.spawn(move || {
                    for (q, want) in lone.iter().enumerate().skip(t * 64).take(64) {
                        let got = reader.search("v", queries.get(q), &SearchParams::top_k(ks(q)));
                        assert_eq!(&bits(&got.unwrap()), want, "query {q}");
                    }
                })
            })
            .collect();
        // Swap the snapshot under the storm: in-flight passes finish on the
        // one they attached to, later searches attach to the new one.
        while !storm.iter().all(|h| h.is_finished()) {
            reader.refresh().unwrap();
            std::thread::yield_now();
        }
    });
    let after = counters(&label);
    let (blocks, query_blocks) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(query_blocks, turn * 512, "every query sees every block once");
    assert!(blocks <= query_blocks);
    println!("storm: {:.2} queries per claimed block", query_blocks as f64 / blocks as f64);
}
