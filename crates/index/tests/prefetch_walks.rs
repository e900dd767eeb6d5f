//! Every row walk prefetches the rows `PREFETCH_BYTES` ahead of the ones it
//! scores, clipped to its own slice, and the IVF sweeps prefetch the head of
//! the next probed bucket. This holds every walk bit-identical to a per-pair
//! reference where the clipping bites: slices of 0–3 rows and of one row
//! under, at and over the lookahead, at 1, 7, 16, 128 and 130 dimensions;
//! masks whose gaps reach the slice end; IVF buckets of 0–3 members. Levels
//! are pinned process-wide with `force_level`, so this binary holds a single
//! test.

use milvus_index::batch::{score_block, score_range, score_visible, Scorer, PREFETCH_BYTES};
use milvus_index::ivf::sq8::ScalarQuantizer;
use milvus_index::ivf::{IvfIndex, IvfVariant};
use milvus_index::kmeans::{self, KMeans};
use milvus_index::simd::{self, SimdLevel};
use milvus_index::{
    distance, BuildParams, Metric, Neighbor, RowMask, SearchParams, TopK, VectorIndex, VectorSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: [usize; 5] = [1, 7, 16, 128, 130];

/// Restores auto-detection even when an assertion fails mid-sweep.
struct LevelGuard;

impl Drop for LevelGuard {
    fn drop(&mut self) {
        simd::reset_level();
    }
}

fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let flat = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    VectorSet::from_flat(dim, flat)
}

fn bits(list: &[Neighbor]) -> Vec<(i64, u32)> {
    list.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Row counts around the clip for `row_bytes`-byte rows: 0–3, and one under,
/// at and over the lookahead (rounded both ways when it is not whole rows).
fn lengths(row_bytes: usize) -> Vec<usize> {
    let (under, over) = (PREFETCH_BYTES / row_bytes, PREFETCH_BYTES.div_ceil(row_bytes));
    let mut lengths = vec![0, 1, 2, 3, under - 1, under, over, over + 1];
    lengths.sort_unstable();
    lengths.dedup();
    lengths
}

/// Masks over `n` rows whose gaps reach the slice end: every row but the
/// last three (and every fifth), only the last row, and none.
fn end_masks(n: usize) -> Vec<RowMask> {
    let tail = n.saturating_sub(3);
    let most: Vec<u32> = (0..tail as u32).filter(|r| r % 5 != 4).collect();
    let last: Vec<u32> = n.checked_sub(1).map(|r| r as u32).into_iter().collect();
    vec![RowMask::from_positions(n, &most), RowMask::from_positions(n, &last), RowMask::none(n)]
}

/// Top-`k` of the `(id, distance)` pairs, as a heap fed one pair at a time.
fn reference(k: usize, pairs: impl Iterator<Item = (i64, f32)>) -> Vec<(i64, u32)> {
    let mut heap = TopK::new(k);
    for (id, d) in pairs {
        heap.push(id, d);
    }
    bits(&heap.into_sorted())
}

/// `score_block`, `score_range` (whole, a sub-range, and under end masks) and
/// `score_visible` in descending row order, for 1–5 resident queries.
fn float_walks(level: SimdLevel) {
    for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
        let (kern, pair) = (Scorer::new(metric), distance::pair_kernel(metric));
        for dim in DIMS {
            for n in lengths(4 * dim) {
                let data = random_set(n, dim, (n * dim) as u64);
                let ids: Vec<i64> = (0..n as i64).map(|i| i * 3 + 1).collect();
                let k = n.max(1);
                let rows = data.as_flat();
                for nq in 1..=5 {
                    let qs = random_set(nq, dim, 900 + nq as u64);
                    let queries: Vec<&[f32]> = qs.iter().collect();
                    let what = format!("{level} {metric} dim {dim} n {n} nq {nq}");
                    let check = |got: Vec<TopK>, visible: &dyn Fn(usize) -> bool, how: &str| {
                        for (q, heap) in queries.iter().zip(got) {
                            let pairs = (0..n).filter(|&r| visible(r));
                            let pairs = pairs.map(|r| (ids[r], pair(q, data.get(r))));
                            let got = bits(&heap.into_sorted());
                            assert_eq!(got, reference(k, pairs), "{what} {how}");
                        }
                    };
                    let heaps = || (0..nq).map(|_| TopK::new(k)).collect::<Vec<_>>();

                    let mut got = heaps();
                    assert_eq!(score_block(kern, rows, &ids, &queries, &mut got), n as u64);
                    check(got, &|_| true, "block");

                    let inner = 1.min(n)..n.saturating_sub(1).max(1.min(n));
                    let mut got = heaps();
                    score_range(kern, rows, &ids, inner.clone(), None, &queries, &mut got);
                    check(got, &|r| inner.contains(&r), "sub-range");

                    for (m, mask) in end_masks(n).iter().enumerate() {
                        let mut got = heaps();
                        let scored =
                            score_range(kern, rows, &ids, 0..n, Some(mask), &queries, &mut got);
                        assert_eq!(scored, mask.count() as u64, "{what} mask {m}");
                        check(got, &|r| mask.get(r), &format!("mask {m}"));
                    }

                    let mut got = heaps();
                    let backwards = (0..n).rev().map(|r| (r, ids[r]));
                    score_visible(kern, rows, backwards, &queries, &mut got);
                    check(got, &|_| true, "descending");
                }
            }
        }
    }
}

/// `Scorer::each` through the nearest-centroid search and `assign_multi`.
fn centroid_walks(level: SimdLevel) {
    let l2 = distance::pair_kernel(Metric::L2);
    for dim in DIMS {
        for k in lengths(4 * dim).into_iter().filter(|&k| k > 0) {
            let centroids = random_set(k, dim, (7 * k + dim) as u64);
            let v = random_set(1, dim, 5).get(0).to_vec();
            let dists: Vec<f32> = centroids.iter().map(|c| l2(&v, c)).collect();
            let first_min = (0..k).fold(0, |best, i| if dists[i] < dists[best] { i } else { best });
            let (at, d) = kmeans::nearest_centroid(&centroids, &v);
            let what = format!("{level} dim {dim} k {k}");
            assert_eq!((at, d.to_bits()), (first_min, dists[first_min].to_bits()), "{what}");

            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by(|&a, &b| dists[a].total_cmp(&dists[b]).then(a.cmp(&b)));
            let km = KMeans { centroids, inertia: 0.0, iterations: 0 };
            for nprobe in [1, 5, k] {
                let want = &order[..nprobe.min(k)];
                assert_eq!(km.assign_multi(&v, nprobe), want, "{what} nprobe {nprobe}");
            }
        }
    }
}

/// Rows at four far-apart points, 1, 2, 3 and 19 copies: with the five
/// buckets a 25-row index gets, k-means leaves buckets of 0, 1, 2 and 3
/// members beside the big one.
fn tiny_buckets(dim: usize) -> VectorSet {
    let mut vs = VectorSet::with_capacity(dim, 25);
    for (point, copies) in [(1.0f32, 1), (2.0, 2), (3.0, 3), (4.0, 19)] {
        let row: Vec<f32> = (0..dim).map(|d| point * 100.0 + (d % 3) as f32).collect();
        (0..copies).for_each(|_| vs.push(&row));
    }
    vs
}

/// Every member of every bucket of `ivf`, scored per pair against `q`.
fn ivf_pairs(ivf: &IvfIndex, vs: &VectorSet, metric: Metric, q: &[f32]) -> Vec<(usize, i64, f32)> {
    let mut out = Vec::new();
    for b in 0..ivf.nlist() {
        let members = ivf.bucket_rows(b).iter().zip(ivf.bucket_ids(b)).enumerate();
        for (i, (&row, &id)) in members {
            let d = match ivf.variant() {
                IvfVariant::Flat => distance::pair_kernel(metric)(q, vs.get(row as usize)),
                IvfVariant::Sq8 => {
                    let (vmin, vstep) = ivf.sq_params().unwrap();
                    let sq = ScalarQuantizer::from_params(vmin.to_vec(), vstep.to_vec());
                    let code = &ivf.bucket_codes(b).unwrap()[i * ivf.dim()..(i + 1) * ivf.dim()];
                    sq.prepare(q, metric).distance(code)
                }
                IvfVariant::Pq => {
                    let pq = ivf.pq_ref().unwrap();
                    let code = &ivf.bucket_codes(b).unwrap()[i * pq.m()..(i + 1) * pq.m()];
                    pq.distance_table(q, metric).lookup(code)
                }
            };
            out.push((row as usize, id, d));
        }
    }
    out
}

/// Lone, masked and batched IVF searches over buckets of 0–3 members, every
/// bucket probed, against the per-pair scores of every member.
fn ivf_walks(level: SimdLevel) {
    for dim in [16, 130] {
        let vs = tiny_buckets(dim);
        let ids: Vec<i64> = (0..25).map(|i| i * 11 + 4).collect();
        let queries = random_set(5, dim, 31);
        let last_of_each = |ivf: &IvfIndex| -> RowMask {
            let last = |b: usize| ivf.bucket_rows(b).last().copied();
            let cleared: Vec<u32> = (0..ivf.nlist()).filter_map(last).collect();
            let mut mask = RowMask::all(25);
            mask.clear_positions(&cleared);
            mask
        };
        for variant in [IvfVariant::Flat, IvfVariant::Sq8, IvfVariant::Pq] {
            for metric in [Metric::L2, Metric::InnerProduct] {
                let p = BuildParams {
                    metric,
                    nlist: 5,
                    kmeans_iters: 4,
                    pq_m: 2,
                    pq_nbits: 2,
                    ..Default::default()
                };
                let ivf = IvfIndex::build(variant, &vs, &ids, &p).unwrap();
                let mut sizes: Vec<usize> = (0..ivf.nlist()).map(|b| ivf.bucket_len(b)).collect();
                sizes.sort_unstable();
                assert_eq!(sizes, [0, 1, 2, 3, 19], "{variant:?} {metric} dim {dim}");
                let mask = last_of_each(&ivf);
                for k in [3, 25] {
                    let sp = SearchParams { k, nprobe: ivf.nlist(), ..Default::default() };
                    let what = format!("{level} {variant:?} {metric} dim {dim} k {k}");
                    let want = |q: &[f32], mask: Option<&RowMask>| {
                        let pairs = ivf_pairs(&ivf, &vs, metric, q).into_iter();
                        let pairs = pairs.filter(|&(row, _, _)| mask.is_none_or(|m| m.get(row)));
                        reference(k, pairs.map(|(_, id, d)| (id, d)))
                    };
                    for q in queries.iter() {
                        assert_eq!(bits(&ivf.search(q, &sp).unwrap()), want(q, None), "{what}");
                        let got = ivf.search_masked(q, &sp, &mask).unwrap();
                        assert_eq!(bits(&got), want(q, Some(&mask)), "{what} masked");
                    }
                    for nq in 1..=5 {
                        let batch = queries.gather(&(0..nq).collect::<Vec<_>>());
                        for mask in [None, Some(&mask)] {
                            let got = ivf.search_batch(&batch, &sp, mask).unwrap();
                            for (q, got) in batch.iter().zip(&got) {
                                assert_eq!(bits(got), want(q, mask), "{what} batch {nq}");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn prefetching_walks_equal_the_per_pair_reference_at_every_level() {
    let _guard = LevelGuard;
    let (checked, skipped): (Vec<_>, Vec<_>) =
        SimdLevel::ALL.into_iter().partition(|l| l.supported());
    for &level in &checked {
        simd::force_level(level).unwrap();
        float_walks(level);
        centroid_walks(level);
        ivf_walks(level);
    }
    println!(
        "prefetching walks checked at {:?}, skipped {:?} (unsupported here); \
         lookahead {PREFETCH_BYTES} bytes",
        checked.iter().map(|l| l.name()).collect::<Vec<_>>(),
        skipped.iter().map(|l| l.name()).collect::<Vec<_>>(),
    );
}
