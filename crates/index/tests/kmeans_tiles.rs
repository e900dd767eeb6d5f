//! The 4 × 4 and 2 × 4 tiles are bit-identical to `pair_kernel` for L2 and
//! inner product — L2's 4 × 4 is behind every Lloyd assignment and IVF
//! placement pass, both 4 × 4s and both 2 × 4s behind the batch engine's
//! `score_block` — and a build through the L2 4 × 4 puts every row in the
//! bucket `KMeans::assign` picks, at every SIMD level the host supports. Levels are pinned process-wide with
//! `force_level`, so this binary holds a single test.

use milvus_index::ivf::{codec, IvfIndex, IvfVariant};
use milvus_index::kmeans::KMeans;
use milvus_index::simd::{self, SimdLevel};
use milvus_index::{distance, BuildParams, Metric, VectorSet};
use milvus_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Restores auto-detection even when an assertion fails mid-sweep.
struct LevelGuard;

impl Drop for LevelGuard {
    fn drop(&mut self) {
        simd::reset_level();
    }
}

/// Four points then four centroids: seeded values, centroids duplicated
/// and equal to points, signed zeros, and magnitudes whose squares overflow.
fn tile_case(case: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let mut row = |scale: f32| -> Vec<f32> {
        (0..dim).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect()
    };
    match case {
        0 => (0..8).map(|_| row(1.0)).collect(),
        1 => {
            let (a, b) = (row(1.0), row(1.0));
            vec![a.clone(), row(1.0), b.clone(), row(1.0), a.clone(), a, b.clone(), b]
        }
        2 => (0..8).map(|i| (0..dim).map(|d| [0.0, -0.0][(i + d) % 2]).collect()).collect(),
        _ => (0..8).map(|i| row(if i % 3 == 0 { 1e-18 } else { 1e18 })).collect(),
    }
}

/// `n` rows over 40 distinct small-integer points, so distances tie and
/// k > 40 forces duplicate centroids: the first minimum must win.
fn tied(n: usize) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(25);
    let distinct: Vec<Vec<f32>> =
        (0..40).map(|_| (0..9).map(|_| rng.gen_range(0..4) as f32).collect()).collect();
    let mut vs = VectorSet::with_capacity(9, n);
    for i in 0..n {
        vs.push(&distinct[i * 7 % 40]);
    }
    vs
}

#[test]
fn four_by_four_tiles_are_bit_identical_at_every_level() {
    let _guard = LevelGuard;
    // The `ivf::codec` golden-hash set: 5 000 × 128 around 32 centres.
    let mut golden = VectorSet::with_capacity(128, 5000);
    let mut rng = StdRng::seed_from_u64(0x601D);
    let centers: Vec<Vec<f32>> =
        (0..32).map(|_| (0..128).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    for _ in 0..5000 {
        let c = &centers[rng.gen_range(0..32usize)];
        golden.push(&c.iter().map(|&x| x + rng.gen_range(-0.5f32..0.5)).collect::<Vec<f32>>());
    }
    let fnv1a = |bytes: &[u8]| {
        let step = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, step)
    };
    let tiled = || obs::registry().snapshot().counter(obs::INDEX_TRAIN_TILED_PAIRS, "");

    let (checked, skipped): (Vec<_>, Vec<_>) =
        SimdLevel::ALL.into_iter().partition(|l| l.supported());
    for &level in &checked {
        simd::force_level(level).unwrap();
        let grid = distance::tile4x4_kernel(Metric::L2);
        for metric in [Metric::L2, Metric::InnerProduct] {
            let (pair, tile) = (distance::pair_kernel(metric), distance::tile4x4_kernel(metric));
            let duo = distance::tile2x4_kernel(metric);
            assert_eq!(tile.is_none(), level == SimdLevel::Sse, "{level} {metric}");
            assert_eq!(duo.is_none(), tile.is_none(), "{level} {metric}");
            let mut rng = StdRng::seed_from_u64(19);
            for (dim, case) in
                [1, 4, 7, 8, 15, 16, 17, 32, 128, 130].iter().flat_map(|&d| (0..4).map(move |c| (d, c)))
            {
                let Some(tile) = tile else { break };
                let r = tile_case(case, dim, &mut rng);
                let p = [&r[0][..], &r[1][..], &r[2][..], &r[3][..]];
                let c = [&r[4][..], &r[5][..], &r[6][..], &r[7][..]];
                for (i, dists) in tile(p, c).iter().enumerate() {
                    for (j, d) in dists.iter().enumerate() {
                        let want = pair(p[i], c[j]).to_bits();
                        assert_eq!(d.to_bits(), want, "{level} {metric} dim {dim} case {case} [{i}][{j}]");
                    }
                }
                let duo = duo.expect("a 2x4 tile wherever there is a 4x4 one");
                for (i, dists) in duo([p[0], p[1]], c).iter().enumerate() {
                    for (j, d) in dists.iter().enumerate() {
                        let want = pair(p[i], c[j]).to_bits();
                        assert_eq!(d.to_bits(), want, "2x4 {level} {metric} dim {dim} case {case} [{i}][{j}]");
                    }
                }
            }
        }

        for k in [1, 3, 4, 5, 123] {
            let base = if k == 123 { 14_888 } else { 96 };
            for n in [base, base + 1, base + 3] {
                let data = tied(n);
                let ids: Vec<i64> = (0..n as i64).collect();
                let params = BuildParams { nlist: k, kmeans_iters: 3, ..Default::default() };
                assert_eq!(params.effective_nlist(n), k);
                let before = tiled();
                let ivf = IvfIndex::build(IvfVariant::Flat, &data, &ids, &params).unwrap();
                assert_eq!(tiled() > before, grid.is_some() && k >= 4, "{level} n {n} k {k}");
                let km = KMeans { centroids: ivf.centroids().clone(), inertia: 0.0, iterations: 0 };
                for b in 0..k {
                    for &row in ivf.bucket_rows(b) {
                        let got = km.assign(data.get(row as usize));
                        assert_eq!(got, b, "{level} n {n} k {k} row {row}");
                    }
                }
            }
        }

        let ids: Vec<i64> = (0..5000).collect();
        let params =
            BuildParams { nlist: 64, kmeans_iters: 6, pq_m: 16, pq_nbits: 6, ..Default::default() };
        for (variant, hash) in [
            (IvfVariant::Flat, 0x35cd_dcb2_2328_b93e),
            (IvfVariant::Sq8, 0xf537_eba3_658e_58bf),
            (IvfVariant::Pq, 0x127c_6585_1170_a304),
        ] {
            let index = IvfIndex::build(variant, &golden, &ids, &params).unwrap();
            assert_eq!(fnv1a(&codec::encode_ivf(&index)), hash, "{level} {variant:?}");
        }
    }
    println!(
        "4x4 tiles checked at {checked:?} (SSE has none: per-point path); unsupported: {skipped:?}"
    );
}
