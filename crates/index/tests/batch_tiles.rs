//! The batch engine scores float rows 4 rows × 4 queries per kernel call;
//! this holds `cache_aware_scan` bit-identical to a per-pair reference loop
//! at every supported SIMD level — every query count from 1 to 9 (full
//! quads and leftovers), row counts of every residue mod 4, several range
//! splits and query blocks, L2 / IP / Cosine, with and without a gappy mask
//! — and pins `milvus_index_batch_tiled_pairs_total`. Levels are pinned
//! process-wide with `force_level` and the counter is process-wide, so this
//! binary holds a single test.

use milvus_exec::Executor;
use milvus_index::batch::{cache_aware_scan, query_block_size, BatchOptions};
use milvus_index::simd::{self, SimdLevel};
use milvus_index::{distance, Metric, Neighbor, RowMask, TopK, VectorSet};
use milvus_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Not a multiple of any lane width, so every kernel runs its scalar tail.
const DIM: usize = 37;

/// Restores auto-detection even when an assertion fails mid-sweep.
struct LevelGuard;

impl Drop for LevelGuard {
    fn drop(&mut self) {
        simd::reset_level();
    }
}

fn tiled_pairs() -> u64 {
    obs::registry()
        .snapshot()
        .counter(obs::INDEX_BATCH_TILED_PAIRS, "")
}

fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vs = VectorSet::with_capacity(dim, n);
    for _ in 0..n {
        vs.push(
            &(0..dim)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect::<Vec<_>>(),
        );
    }
    vs
}

fn bits(list: &[Neighbor]) -> Vec<(i64, u32)> {
    list.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Every third row cleared, and one run of eleven.
fn gappy(n: usize) -> RowMask {
    let keep: Vec<u32> = (0..n as u32)
        .filter(|r| r % 3 != 1 && !(20..31).contains(r))
        .collect();
    RowMask::from_positions(n, &keep)
}

/// What the engine should add to the counter for one call, recounted from
/// its block and range split: 16 pairs per full 4 × 4 tile, that is four per
/// (row in a four-row group, query in a full quad).
fn recount(n: usize, ks: &[usize], mask: Option<&RowMask>, opts: &BatchOptions) -> u64 {
    let m = ks.len();
    let t = opts.threads.max(1).min(n);
    let k = ks.iter().copied().max().unwrap_or(1).max(1);
    let s = query_block_size(opts.l3_cache_bytes, DIM, t, k).min(m);
    let chunk = n.div_ceil(t);
    let grouped: u64 = (0..t)
        .map(|r| {
            let range = (r * chunk).min(n)..((r + 1) * chunk).min(n);
            let visible = mask.map_or(range.len(), |mask| range.filter(|&i| mask.get(i)).count());
            (visible / 4 * 4) as u64
        })
        .sum();
    (0..m)
        .step_by(s)
        .map(|b| ((b + s).min(m) - b) as u64 / 4 * 4 * grouped)
        .sum()
}

#[test]
fn four_by_four_batches_equal_the_per_pair_loop_at_every_level() {
    let _guard = LevelGuard;
    let pool = Executor::new("t_batch_tiles", 3);
    let off = &mut obs::Trace::disabled();
    let (checked, skipped): (Vec<_>, Vec<_>) =
        SimdLevel::ALL.into_iter().partition(|l| l.supported());
    let mut pinned = Vec::new();
    for &level in &checked {
        simd::force_level(level).unwrap();
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let pair = distance::pair_kernel(metric);
            let tiles = distance::tile4x4_kernel(metric).is_some();
            assert_eq!(
                tiles,
                level != SimdLevel::Sse && metric != Metric::Cosine,
                "{level}"
            );
            for n in [200, 201, 202, 203] {
                let data = random_set(n, DIM, n as u64);
                let ids: Vec<i64> = (0..n as i64).map(|i| i * 5 + 2).collect();
                let mask = gappy(n);
                for nq in 1..=9 {
                    let queries = random_set(nq, DIM, 1000 + nq as u64);
                    let ks: Vec<usize> = (0..nq).map(|j| 1 + j * 3 % 7).collect();
                    // One range and one block; three ranges in blocks of two
                    // queries; four ranges, one query per block.
                    for (threads, l3_cache_bytes) in [(1, 1 << 20), (3, 1000), (4, 1)] {
                        let opts = BatchOptions {
                            k: 0,
                            metric,
                            threads,
                            l3_cache_bytes,
                        };
                        for mask in [None, Some(&mask)] {
                            let what = format!(
                                "{level} {metric} n {n} nq {nq} t {threads} mask {}",
                                mask.is_some()
                            );
                            let before = tiled_pairs();
                            let got = cache_aware_scan(
                                &pool,
                                &data,
                                &ids,
                                &queries,
                                &ks,
                                mask,
                                &opts,
                                off,
                            );
                            let want = if tiles {
                                recount(n, &ks, mask, &opts)
                            } else {
                                0
                            };
                            assert_eq!(tiled_pairs() - before, want, "{what}");
                            for ((q, &k), got) in queries.iter().zip(&ks).zip(&got) {
                                let mut heap = TopK::new(k);
                                for (row, v) in data.iter().enumerate() {
                                    if mask.is_none_or(|m| m.get(row)) {
                                        heap.push(ids[row], pair(q, v));
                                    }
                                }
                                assert_eq!(bits(got), bits(&heap.into_sorted()), "{what}");
                            }
                        }
                    }
                }
            }
        }

        // An `ingest_search`-shaped batch: 32 queries (eight full quads) on
        // four ranges, whole and with one row in 50 deleted.
        let n = 40_003;
        let (data, queries) = (random_set(n, 8, 7), random_set(32, 8, 8));
        let ids: Vec<i64> = (0..n as i64).collect();
        let deleted = RowMask::from_positions(
            n,
            &(0..n as u32).filter(|r| r % 50 != 7).collect::<Vec<_>>(),
        );
        let opts = BatchOptions {
            k: 0,
            metric: Metric::L2,
            threads: 4,
            ..Default::default()
        };
        let mut counts = Vec::new();
        for mask in [None, Some(&deleted)] {
            let before = tiled_pairs();
            cache_aware_scan(
                &pool,
                &data,
                &ids,
                &queries,
                &[10; 32],
                mask,
                &opts,
                off,
            );
            counts.push(tiled_pairs() - before);
        }
        if level == SimdLevel::Scalar {
            let pairs = |mask: Option<&RowMask>| mask.map_or(n, RowMask::count) as f64 * 32.0;
            println!(
                "tiled share of a 32-query batch on 4 ranges: {:.4} % whole, {:.4} % with deletes",
                100.0 * counts[0] as f64 / pairs(None),
                100.0 * counts[1] as f64 / pairs(Some(&deleted)),
            );
        }
        pinned.push((level, counts));
    }
    for (level, counts) in &pinned {
        let want = if *level == SimdLevel::Sse {
            [0, 0]
        } else {
            [PINNED_WHOLE, PINNED_DELETES]
        };
        assert_eq!(counts[..], want, "{level}");
    }
    println!(
        "4x4 batch tiles checked at {checked:?} (SSE scores per pair); unsupported: {skipped:?}"
    );
}

const PINNED_WHOLE: u64 = 1_280_000;
const PINNED_DELETES: u64 = 1_254_400;
