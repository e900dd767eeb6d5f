//! K-means clustering — the coarse quantizer of every IVF index (§3.1).
//!
//! "The K-means clustering algorithm is commonly used to construct the
//! codebook C where each codeword is the centroid and z(v) is the closest
//! centroid to v." We use k-means++ seeding followed by Lloyd iterations.
//! Every point–centroid pass — the D² refresh after each seeding pick, each
//! Lloyd assignment, and IVF bucket placement (`assign_rows`) — splits its
//! rows into one range per core on the global executor's Low lane. The D²
//! refresh scores four points per ×4 L2 kernel call; an assignment scores
//! four points against four centroids per 4×4 tile, so each centroid row is
//! loaded once per four points. The centroid update splits the centroids
//! into one range per core, each range adding its own rows in point order.
//! A point's result depends on that point alone, each centroid's f64 sum
//! keeps point order, and the seeding total, the inertia and every rng draw
//! stay on the caller, so the output is bit-identical however the work is
//! split.

use std::sync::OnceLock;

use milvus_exec::{Executor, Priority};
use milvus_obs as obs;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{split4, Scorer};
use crate::distance::{PairKernel, Tile4x4Kernel};
use crate::error::{IndexError, Result};
use crate::metric::Metric;
use crate::vectors::VectorSet;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// The codebook: `k` centroids of the training dimension.
    pub centroids: VectorSet,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

impl KMeans {
    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Index of the centroid closest to `v` (the quantizer `z(v)`).
    pub fn assign(&self, v: &[f32]) -> usize {
        nearest_centroid(&self.centroids, v).0
    }

    /// The `nprobe` centroid indices closest to `v`, best first (§3.1 step 1),
    /// ties broken by index. Only the `nprobe` kept are sorted.
    pub fn assign_multi(&self, v: &[f32], nprobe: usize) -> Vec<usize> {
        let mut dists = Vec::with_capacity(self.k());
        Scorer::new(Metric::L2).each(self.centroids.as_flat(), self.centroids.dim(), v, |i, d| {
            dists.push((i, d))
        });
        let order = |a: &(usize, f32), b: &(usize, f32)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
        let keep = nprobe.max(1);
        if keep < dists.len() {
            dists.select_nth_unstable_by(keep - 1, order);
            dists.truncate(keep);
        }
        dists.sort_unstable_by(order);
        dists.into_iter().map(|(i, _)| i).collect()
    }
}

/// The nearest centroid to `v`: the first minimum in index order.
fn argmin(kern: Scorer, centroids: &VectorSet, v: &[f32]) -> (usize, f32) {
    let mut best = (0usize, f32::INFINITY);
    kern.each(centroids.as_flat(), centroids.dim(), v, |i, d| {
        if d < best.1 {
            best = (i, d);
        }
    });
    best
}

/// Index and distance of the centroid nearest to `v`.
pub fn nearest_centroid(centroids: &VectorSet, v: &[f32]) -> (usize, f32) {
    argmin(Scorer::new(Metric::L2), centroids, v)
}

/// Row ranges per pass: one per core the process may run on. Not
/// [`Executor::threads`], which is floored at 4 so segment scans overlap
/// storage waits; four compute-bound ranges on two cores ran slower than two.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Fill `out` as `ranges` contiguous chunks, one task each on the global
/// executor's Low lane, so an index build yields to foreground searches.
/// Every chunk but the last holds a multiple of four items, so a pass's
/// full four-row tiles do not depend on the split.
/// `fill(first, chunk)` is handed the row index of `chunk[0]`. The caller
/// runs the first chunk and helps with the rest, so it never stalls behind
/// other work.
pub(crate) fn par_chunks<T: Send>(
    out: &mut [T],
    ranges: usize,
    fill: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = out.len().div_ceil(ranges.max(1)).next_multiple_of(4).max(1);
    let chunks: Vec<Mutex<&mut [T]>> = out.chunks_mut(len).map(Mutex::new).collect();
    Executor::global().scoped_map_with(chunks.len(), Priority::Low, |r| {
        fill(r * len, &mut chunks[r].lock())
    });
}

/// Record one pass of point–centroid distances — once per pass, never per
/// distance.
fn count_pass(distances: usize) {
    obs::counter(obs::INDEX_TRAIN_DISTANCES, "").add(distances as u64);
}

/// Nearest centroid and its distance for every row of `data`, over `ranges`
/// parallel ranges: one pass of `n · k` distances. Points ride four at a
/// time through the 4×4 tile where the SIMD level has one; a range's last
/// `len mod 4` points take [`argmin`].
pub(crate) fn assign_rows(
    centroids: &VectorSet,
    data: &VectorSet,
    ranges: usize,
) -> Vec<(usize, f32)> {
    let (kern, dim) = (Scorer::new(Metric::L2), data.dim());
    let grid = kern.grid();
    let mut out = vec![(0, 0.0); data.len()];
    par_chunks(&mut out, ranges, |first, chunk| {
        let rows = &data.as_flat()[first * dim..(first + chunk.len()) * dim];
        let mut head = 0;
        if let Some(grid) = grid {
            for (four, best) in rows.chunks_exact(4 * dim).zip(chunk.chunks_exact_mut(4)) {
                argmin4(grid, kern.pair, centroids, split4(four, dim), best);
                head += 4;
            }
        }
        for (slot, v) in chunk[head..].iter_mut().zip(rows[head * dim..].chunks_exact(dim)) {
            *slot = argmin(kern, centroids, v);
        }
    });
    count_pass(data.len() * centroids.len());
    if grid.is_some() {
        let tiled = (data.len() / 4) * (centroids.len() / 4) * 16;
        obs::counter(obs::INDEX_TRAIN_TILED_PAIRS, "").add(tiled as u64);
    }
    out
}

/// [`argmin`] for four points at once: centroids four at a time through the
/// 4×4 tile, the `k mod 4` tail per pair, each point's candidates in index
/// order with strict `<`, so the first minimum still wins.
#[inline(always)]
fn argmin4(
    grid: Tile4x4Kernel,
    pair: PairKernel,
    centroids: &VectorSet,
    points: [&[f32]; 4],
    best: &mut [(usize, f32)],
) {
    let (flat, dim) = (centroids.as_flat(), centroids.dim());
    best.fill((0, f32::INFINITY));
    let mut head = 0;
    for four in flat.chunks_exact(4 * dim) {
        for (dists, b) in grid(points, split4(four, dim)).iter().zip(best.iter_mut()) {
            for (j, &d) in dists.iter().enumerate() {
                if d < b.1 {
                    *b = (head + j, d);
                }
            }
        }
        head += 4;
    }
    for (j, c) in flat[head * dim..].chunks_exact(dim).enumerate() {
        for (p, b) in points.iter().zip(best.iter_mut()) {
            let d = pair(p, c);
            if d < b.1 {
                *b = (head + j, d);
            }
        }
    }
}

/// Train `k` centroids over `data` with k-means++ seeding and at most
/// `max_iters` Lloyd iterations. Deterministic for a given `seed`.
pub fn train(data: &VectorSet, k: usize, max_iters: usize, seed: u64) -> Result<KMeans> {
    train_in(data, k, max_iters, seed, cores())
}

/// [`train`] with every point–centroid pass split into `ranges` ranges.
fn train_in(
    data: &VectorSet,
    k: usize,
    max_iters: usize,
    seed: u64,
    ranges: usize,
) -> Result<KMeans> {
    let n = data.len();
    if k == 0 {
        return Err(IndexError::invalid("k", "must be >= 1"));
    }
    if n < k {
        return Err(IndexError::InsufficientTrainingData { need: k, got: n });
    }
    let dim = data.dim();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut centroids = seed_plus_plus(data, k, &mut rng, ranges);
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        let assigned = assign_rows(&centroids, data, ranges);
        let new_inertia: f64 = assigned.iter().map(|s| s.1 as f64).sum();

        // Update step: each core owns a contiguous range of centroids and
        // walks every point in point order, adding only its own centroids'
        // rows, so each f64 sum keeps point order at any split. Empty
        // clusters are re-seeded afterwards, serially in centroid order.
        let mut sums = vec![0.0f64; k * dim];
        let mut cells: Vec<(usize, &mut [f64])> = sums.chunks_mut(dim).map(|s| (0, s)).collect();
        par_chunks(&mut cells, ranges, |first, cells| {
            for (row, &(c, _)) in data.as_flat().chunks_exact(dim).zip(&assigned) {
                if let Some((count, sum)) = c.checked_sub(first).and_then(|j| cells.get_mut(j)) {
                    *count += 1;
                    for (s, &x) in sum.iter_mut().zip(row) {
                        *s += x as f64;
                    }
                }
            }
        });
        let mut next = VectorSet::with_capacity(dim, k);
        for (count, sum) in &cells {
            if *count == 0 {
                // Re-seed an empty cluster with a random training point so the
                // codebook keeps exactly k usable codewords.
                next.push(data.get(rng.gen_range(0..n)));
            } else {
                let inv = 1.0 / *count as f64;
                let row: Vec<f32> = sum.iter().map(|&s| (s * inv) as f32).collect();
                next.push(&row);
            }
        }
        centroids = next;

        // Convergence: relative inertia improvement below 0.1%.
        if new_inertia.is_finite() && inertia.is_finite() {
            let rel = (inertia - new_inertia).abs() / inertia.max(1e-12);
            inertia = new_inertia;
            if rel < 1e-3 {
                break;
            }
        } else {
            inertia = new_inertia;
        }
    }

    Ok(KMeans { centroids, inertia, iterations })
}

/// K-means++ seeding: first centroid uniform, the rest D²-weighted.
fn seed_plus_plus(data: &VectorSet, k: usize, rng: &mut StdRng, ranges: usize) -> VectorSet {
    let n = data.len();
    let mut centroids = VectorSet::with_capacity(data.dim(), k);
    centroids.push(data.get(rng.gen_range(0..n)));
    // From +∞, the first refresh stores each point's distance to the first
    // pick.
    let mut d2 = vec![f32::INFINITY; n];
    refresh_d2(data, centroids.get(0), &mut d2, ranges);
    while centroids.len() < k {
        let total: f64 = d2.iter().map(|&x| x as f64).sum();
        let pick = if total <= 0.0 {
            // All points coincide with current centroids; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &x) in d2.iter().enumerate() {
                target -= x as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(data.get(pick));
        refresh_d2(data, data.get(pick), &mut d2, ranges);
    }
    centroids
}

/// Lower each `d2[i]` to point `i`'s distance from centroid `c`, over
/// `ranges` parallel ranges: one pass of `n` distances.
fn refresh_d2(data: &VectorSet, c: &[f32], d2: &mut [f32], ranges: usize) {
    let (kern, dim) = (Scorer::new(Metric::L2), data.dim());
    par_chunks(d2, ranges, |first, chunk| {
        let rows = &data.as_flat()[first * dim..(first + chunk.len()) * dim];
        kern.each(rows, dim, c, |i, d| {
            if d < chunk[i] {
                chunk[i] = d;
            }
        });
    });
    count_pass(data.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance;

    fn blobs(per: usize, centers: &[[f32; 2]], spread: f32, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vs = VectorSet::new(2);
        for c in centers {
            for _ in 0..per {
                vs.push(&[
                    c[0] + rng.gen_range(-spread..spread),
                    c[1] + rng.gen_range(-spread..spread),
                ]);
            }
        }
        vs
    }

    #[test]
    fn recovers_well_separated_clusters() {
        let data = blobs(50, &[[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]], 0.5, 1);
        let km = train(&data, 3, 25, 42).unwrap();
        assert_eq!(km.k(), 3);
        // Every point should land within 2.0 of its centroid.
        for v in data.iter() {
            let (_, d) = nearest_centroid(&km.centroids, v);
            assert!(d < 4.0, "point too far from centroid: {d}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(30, &[[0.0, 0.0], [5.0, 5.0]], 0.3, 7);
        let a = train(&data, 2, 10, 9).unwrap();
        let b = train(&data, 2, 10, 9).unwrap();
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn errors_on_too_few_points() {
        let data = blobs(1, &[[0.0, 0.0]], 0.1, 3);
        assert!(matches!(
            train(&data, 5, 10, 0),
            Err(IndexError::InsufficientTrainingData { .. })
        ));
    }

    #[test]
    fn errors_on_zero_k() {
        let data = blobs(5, &[[0.0, 0.0]], 0.1, 3);
        assert!(train(&data, 0, 10, 0).is_err());
    }

    #[test]
    fn assign_multi_orders_by_distance() {
        let mut cents = VectorSet::new(1);
        for x in [0.0f32, 10.0, 20.0] {
            cents.push(&[x]);
        }
        let km = KMeans { centroids: cents, inertia: 0.0, iterations: 0 };
        assert_eq!(km.assign_multi(&[9.0], 2), vec![1, 0]);
        assert_eq!(km.assign(&[19.0]), 2);
    }

    #[test]
    fn handles_duplicate_points() {
        let mut vs = VectorSet::new(2);
        for _ in 0..20 {
            vs.push(&[1.0, 1.0]);
        }
        let km = train(&vs, 4, 5, 11).unwrap();
        assert_eq!(km.k(), 4);
    }

    // The serial k-means this module replaced, verbatim but for its rayon
    // map (the shim kept point order, so a serial map computes the same):
    // the reference the executor version must match bit for bit.

    fn serial_nearest_centroid(centroids: &VectorSet, v: &[f32]) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for (i, c) in centroids.iter().enumerate() {
            let d = distance::l2_sq(v, c);
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    fn serial_train(data: &VectorSet, k: usize, max_iters: usize, seed: u64) -> KMeans {
        let n = data.len();
        let dim = data.dim();
        let mut rng = StdRng::seed_from_u64(seed);

        let mut centroids = serial_seed_plus_plus(data, k, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0;

        for iter in 0..max_iters.max(1) {
            iterations = iter + 1;
            let stats: Vec<(usize, f32)> =
                (0..n).map(|i| serial_nearest_centroid(&centroids, data.get(i))).collect();
            let new_inertia: f64 = stats.iter().map(|s| s.1 as f64).sum();
            for (i, s) in stats.iter().enumerate() {
                assignments[i] = s.0;
            }

            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for (i, &c) in assignments.iter().enumerate() {
                counts[c] += 1;
                let row = data.get(i);
                for (d, &x) in row.iter().enumerate() {
                    sums[c * dim + d] += x as f64;
                }
            }
            let mut next = VectorSet::with_capacity(dim, k);
            for c in 0..k {
                if counts[c] == 0 {
                    next.push(data.get(rng.gen_range(0..n)));
                } else {
                    let inv = 1.0 / counts[c] as f64;
                    let row: Vec<f32> =
                        (0..dim).map(|d| (sums[c * dim + d] * inv) as f32).collect();
                    next.push(&row);
                }
            }
            centroids = next;

            if new_inertia.is_finite() && inertia.is_finite() {
                let rel = (inertia - new_inertia).abs() / inertia.max(1e-12);
                inertia = new_inertia;
                if rel < 1e-3 {
                    break;
                }
            } else {
                inertia = new_inertia;
            }
        }

        KMeans { centroids, inertia, iterations }
    }

    fn serial_seed_plus_plus(data: &VectorSet, k: usize, rng: &mut StdRng) -> VectorSet {
        let n = data.len();
        let mut centroids = VectorSet::with_capacity(data.dim(), k);
        centroids.push(data.get(rng.gen_range(0..n)));
        let mut d2: Vec<f32> = (0..n)
            .map(|i| distance::l2_sq(data.get(i), centroids.get(0)))
            .collect();
        while centroids.len() < k {
            let total: f64 = d2.iter().map(|&x| x as f64).sum();
            let pick = if total <= 0.0 {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut chosen = n - 1;
                for (i, &x) in d2.iter().enumerate() {
                    target -= x as f64;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centroids.push(data.get(pick));
            let c = centroids.len() - 1;
            for (i, slot) in d2.iter_mut().enumerate() {
                let d = distance::l2_sq(data.get(i), centroids.get(c));
                if d < *slot {
                    *slot = d;
                }
            }
        }
        centroids
    }

    /// `n` points of dimension `dim` around 8 random centers.
    fn clustered(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> =
            (0..8).map(|_| (0..dim).map(|_| rng.gen_range(-4.0f32..4.0)).collect()).collect();
        let mut vs = VectorSet::with_capacity(dim, n);
        for i in 0..n {
            let v: Vec<f32> =
                centers[i % 8].iter().map(|&x| x + rng.gen_range(-1.0f32..1.0)).collect();
            vs.push(&v);
        }
        vs
    }

    fn assert_same(got: &KMeans, want: &KMeans, what: &str) {
        let bits =
            |km: &KMeans| km.centroids.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "centroids differ: {what}");
        assert_eq!(got.inertia.to_bits(), want.inertia.to_bits(), "inertia differs: {what}");
        assert_eq!(got.iterations, want.iterations, "iterations differ: {what}");
    }

    /// Every shape — ragged tiles (k mod 4), k = 1 and k = n, odd dimensions
    /// — at every split, including ranges that do not divide the rows.
    #[test]
    fn train_is_bit_identical_to_the_serial_reference_at_every_split() {
        let n = 151;
        for dim in [16, 17, 128] {
            let data = clustered(n, dim, dim as u64);
            for k in [1, 3, 4, 123, n] {
                let want = serial_train(&data, k, 10, 0x5EED);
                for ranges in [1, 2, 3, 7] {
                    let got = train_in(&data, k, 10, 0x5EED, ranges).unwrap();
                    assert_same(&got, &want, &format!("dim {dim} k {k} ranges {ranges}"));
                }
            }
        }
    }

    /// Duplicate points: seeding runs out of D² mass and picks uniformly,
    /// and Lloyd re-seeds empty clusters — both from the rng, on the caller.
    #[test]
    fn duplicate_points_train_bit_identically_at_every_split() {
        let distinct = clustered(6, 16, 3);
        let mut data = VectorSet::new(16);
        for i in 0..60 {
            data.push(distinct.get(i % 6));
        }
        for k in [4, 6, 9, 60] {
            let want = serial_train(&data, k, 10, 77);
            for ranges in [1, 2, 3, 7] {
                let got = train_in(&data, k, 10, 77, ranges).unwrap();
                assert_same(&got, &want, &format!("duplicates k {k} ranges {ranges}"));
            }
        }
    }

    /// Rows of ±1e9 among rows of 1e-3 cancel inside an f64 centroid sum,
    /// so its value depends on the order the rows are added in: the update
    /// split by centroid range must keep point order, as the serial loop does.
    #[test]
    fn order_sensitive_sums_train_bit_identically_at_every_split() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut data = VectorSet::new(2);
        for i in 0..200 {
            let x = match i % 20 {
                0 => 1e9,
                10 => -1e9,
                _ => rng.gen_range(-1.0f32..1.0) * 1e-3,
            };
            data.push(&[x, rng.gen_range(-1.0f32..1.0)]);
        }
        for k in [1, 2, 3] {
            let want = serial_train(&data, k, 10, 9);
            for ranges in [1, 2, 3, 7] {
                let got = train_in(&data, k, 10, 9, ranges).unwrap();
                assert_same(&got, &want, &format!("magnitudes k {k} ranges {ranges}"));
            }
        }
    }

    /// The partial selection returns exactly the full sort's prefix, ties
    /// (equal distances) broken by index, for every `nprobe`.
    #[test]
    fn assign_multi_equals_the_full_sort_including_ties() {
        let mut centroids = clustered(37, 17, 5);
        for i in [0, 3, 3, 10, 20] {
            let twin = centroids.get(i).to_vec();
            centroids.push(&twin);
        }
        let km = KMeans { centroids, inertia: 0.0, iterations: 0 };
        for v in clustered(9, 17, 6).iter().chain([km.centroids.get(3)]) {
            let mut full: Vec<(usize, f32)> = km
                .centroids
                .iter()
                .enumerate()
                .map(|(i, c)| (i, distance::l2_sq(v, c)))
                .collect();
            full.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            for nprobe in 0..=km.k() + 1 {
                let want: Vec<usize> = full.iter().take(nprobe.max(1)).map(|&(i, _)| i).collect();
                assert_eq!(km.assign_multi(v, nprobe), want, "nprobe {nprobe}");
            }
            let serial = serial_nearest_centroid(&km.centroids, v);
            assert_eq!(nearest_centroid(&km.centroids, v), serial);
        }
    }
}
