//! Distance kernels with per-ISA implementations and runtime dispatch.
//!
//! Mirroring the paper's refactor of Faiss (§3.2.2), each ISA level lives in
//! its own source file — [`scalar`], [`sse`], [`avx2`], [`avx512`] — and the
//! public functions here dispatch on [`crate::simd::active_level`]. Kernels
//! operate on `f32` slices of equal length; binary metrics live in
//! [`crate::binary`].

pub mod avx2;
pub mod avx512;
pub mod quant;
pub mod scalar;
pub mod sse;

use crate::metric::Metric;
use crate::simd::{active_level, SimdLevel};

/// Squared Euclidean distance between `a` and `b`.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    l2_sq_with_level(a, b, active_level())
}

/// Inner product of `a` and `b` (raw, not negated).
#[inline]
pub fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    ip_with_level(a, b, active_level())
}

/// Cosine similarity of `a` and `b` (raw, not negated). Zero vectors yield 0.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot = inner_product(a, b);
    let na = inner_product(a, a).sqrt();
    let nb = inner_product(b, b).sqrt();
    let denom = na * nb;
    if denom == 0.0 {
        0.0
    } else {
        dot / denom
    }
}

/// Squared L2 norm of `v`.
#[inline]
pub fn norm_sq(v: &[f32]) -> f32 {
    inner_product(v, v)
}

/// L2-normalize `v` in place; zero vectors are left untouched.
pub fn normalize(v: &mut [f32]) {
    let n = norm_sq(v).sqrt();
    if n > 0.0 {
        let inv = 1.0 / n;
        for x in v.iter_mut() {
            *x *= inv;
        }
    }
}

/// Compute the *internal* distance (smaller = better) for a float metric.
///
/// # Panics
/// Panics if called with a binary metric — those are computed by
/// [`crate::binary::binary_distance`].
#[inline]
pub fn distance(metric: Metric, a: &[f32], b: &[f32]) -> f32 {
    match metric {
        Metric::L2 => l2_sq(a, b),
        Metric::InnerProduct => -inner_product(a, b),
        Metric::Cosine => -cosine(a, b),
        m => panic!("binary metric {m} passed to float distance()"),
    }
}

/// L2² at an explicit ISA level (benchmarks pin levels; normal code uses
/// [`l2_sq`]).
#[inline]
pub fn l2_sq_with_level(a: &[f32], b: &[f32], level: SimdLevel) -> f32 {
    match level {
        SimdLevel::Scalar => scalar::l2_sq(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { sse::l2_sq(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::l2_sq(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::l2_sq(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::l2_sq(a, b),
    }
}

/// Inner product at an explicit ISA level.
#[inline]
pub fn ip_with_level(a: &[f32], b: &[f32], level: SimdLevel) -> f32 {
    match level {
        SimdLevel::Scalar => scalar::inner_product(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { sse::inner_product(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::inner_product(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::inner_product(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::inner_product(a, b),
    }
}

// ---------------------------------------------------------------------------
// Hoisted-dispatch kernels (§3.2.2 refactor, second step): the batch engines
// resolve the metric match *and* the SIMD-level dispatch to a bare function
// pointer once per query block, instead of re-deciding both per vector pair.
// ---------------------------------------------------------------------------

/// A resolved per-pair kernel returning the *internal* distance
/// (smaller = better; similarities negated) — what [`distance`] computes,
/// with the metric and ISA dispatch already peeled off.
pub type PairKernel = fn(&[f32], &[f32]) -> f32;

/// A register-tiled kernel scoring one data vector against four resident
/// queries per pass, returning internal distances. Bit-identical per pair
/// to the [`PairKernel`] of the same metric.
pub type Tile4Kernel = fn([&[f32]; 4], &[f32]) -> [f32; 4];

/// A register-tiled kernel scoring four rows against four others per pass:
/// `out[i][j]` is the internal distance of `p[i]` and `c[j]`, bit-identical
/// to the [`PairKernel`] of the same metric.
pub type Tile4x4Kernel = fn([&[f32]; 4], [&[f32]; 4]) -> [[f32; 4]; 4];

/// A register-tiled kernel scoring two queries against four rows per pass:
/// `out[i][j]` is the internal distance of `q[i]` and `rows[j]`,
/// bit-identical to the [`PairKernel`] of the same metric.
pub type Tile2x4Kernel = fn([&[f32]; 2], [&[f32]; 4]) -> [[f32; 4]; 2];

fn l2_scalar_pair(a: &[f32], b: &[f32]) -> f32 {
    scalar::l2_sq(a, b)
}
fn ip_scalar_pair(a: &[f32], b: &[f32]) -> f32 {
    -scalar::inner_product(a, b)
}
fn cosine_pair(a: &[f32], b: &[f32]) -> f32 {
    -cosine(a, b)
}
fn l2_scalar_tile4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
    scalar::l2_sq_x4(q, v)
}
fn ip_scalar_tile4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
    let s = scalar::inner_product_x4(q, v);
    [-s[0], -s[1], -s[2], -s[3]]
}
fn ip_scalar_tile4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
    scalar::inner_product_4x4(p, c).map(|s| s.map(|d| -d))
}
fn l2_scalar_tile2x4(q: [&[f32]; 2], rows: [&[f32]; 4]) -> [[f32; 4]; 2] {
    q.map(|qi| scalar::l2_sq_x4(rows, qi))
}
fn ip_scalar_tile2x4(q: [&[f32]; 2], rows: [&[f32]; 4]) -> [[f32; 4]; 2] {
    q.map(|qi| scalar::inner_product_x4(rows, qi).map(|d| -d))
}

// Safety of every shim below: `pair_kernel`/`tile4_kernel`/`tile4x4_kernel`/
// `tile2x4_kernel` only hand one out when [`active_level`] reports the
// matching ISA, and `force_level` refuses unsupported levels, so the
// target-feature preconditions always hold.
#[cfg(target_arch = "x86_64")]
mod x86_shims {
    use super::{avx2, avx512, sse};

    /// The unchecked SIMD kernels read `a.len()` floats from both slices; a
    /// shorter `b` would be an out-of-bounds read from safe code (the scalar
    /// fallback panics instead). Debug-assert the length precondition the
    /// safe `PairKernel` signature cannot express.
    #[inline(always)]
    fn check_pair(a: &[f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len(), "pair kernel: slice length mismatch");
    }

    /// Same precondition for the tiled kernels: every resident query must be
    /// at least as long as the data vector driving the loads.
    #[inline(always)]
    fn check_tile4(q: &[&[f32]; 4], v: &[f32]) {
        debug_assert!(
            q.iter().all(|qj| qj.len() == v.len()),
            "tile4 kernel: query/vector length mismatch"
        );
    }

    pub fn l2_sse_pair(a: &[f32], b: &[f32]) -> f32 {
        check_pair(a, b);
        unsafe { sse::l2_sq(a, b) }
    }
    pub fn ip_sse_pair(a: &[f32], b: &[f32]) -> f32 {
        check_pair(a, b);
        -unsafe { sse::inner_product(a, b) }
    }
    pub fn l2_avx2_pair(a: &[f32], b: &[f32]) -> f32 {
        check_pair(a, b);
        unsafe { avx2::l2_sq(a, b) }
    }
    pub fn ip_avx2_pair(a: &[f32], b: &[f32]) -> f32 {
        check_pair(a, b);
        -unsafe { avx2::inner_product(a, b) }
    }
    pub fn l2_avx512_pair(a: &[f32], b: &[f32]) -> f32 {
        check_pair(a, b);
        unsafe { avx512::l2_sq(a, b) }
    }
    pub fn ip_avx512_pair(a: &[f32], b: &[f32]) -> f32 {
        check_pair(a, b);
        -unsafe { avx512::inner_product(a, b) }
    }
    pub fn l2_avx2_tile4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
        check_tile4(&q, v);
        unsafe { avx2::l2_sq_x4(q, v) }
    }
    pub fn ip_avx2_tile4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
        check_tile4(&q, v);
        let s = unsafe { avx2::inner_product_x4(q, v) };
        [-s[0], -s[1], -s[2], -s[3]]
    }
    pub fn l2_avx512_tile4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
        check_tile4(&q, v);
        unsafe { avx512::l2_sq_x4(q, v) }
    }
    pub fn l2_avx2_tile4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
        check_tile4(&c, p[0]);
        check_tile4(&p, c[0]);
        let ([a, b], [d, e]) =
            unsafe { (avx2::l2_sq_2x4([p[0], p[1]], c), avx2::l2_sq_2x4([p[2], p[3]], c)) };
        [a, b, d, e]
    }
    pub fn l2_avx512_tile4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
        check_tile4(&c, p[0]);
        check_tile4(&p, c[0]);
        unsafe { avx512::l2_sq_4x4(p, c) }
    }
    pub fn ip_avx2_tile4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
        check_tile4(&c, p[0]);
        check_tile4(&p, c[0]);
        let ([a, b], [d, e]) = unsafe {
            (avx2::inner_product_2x4([p[0], p[1]], c), avx2::inner_product_2x4([p[2], p[3]], c))
        };
        [a, b, d, e].map(|s| s.map(|x| -x))
    }
    pub fn ip_avx512_tile4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
        check_tile4(&c, p[0]);
        check_tile4(&p, c[0]);
        unsafe { avx512::inner_product_4x4(p, c) }.map(|s| s.map(|x| -x))
    }
    pub fn l2_avx2_tile2x4(q: [&[f32]; 2], rows: [&[f32]; 4]) -> [[f32; 4]; 2] {
        check_tile4(&rows, q[0]);
        check_pair(q[0], q[1]);
        unsafe { avx2::l2_sq_2x4(q, rows) }
    }
    pub fn l2_avx512_tile2x4(q: [&[f32]; 2], rows: [&[f32]; 4]) -> [[f32; 4]; 2] {
        check_tile4(&rows, q[0]);
        check_pair(q[0], q[1]);
        unsafe { avx512::l2_sq_2x4(q, rows) }
    }
    pub fn ip_avx2_tile2x4(q: [&[f32]; 2], rows: [&[f32]; 4]) -> [[f32; 4]; 2] {
        check_tile4(&rows, q[0]);
        check_pair(q[0], q[1]);
        unsafe { avx2::inner_product_2x4(q, rows) }.map(|s| s.map(|x| -x))
    }
    pub fn ip_avx512_tile2x4(q: [&[f32]; 2], rows: [&[f32]; 4]) -> [[f32; 4]; 2] {
        check_tile4(&rows, q[0]);
        check_pair(q[0], q[1]);
        unsafe { avx512::inner_product_2x4(q, rows) }.map(|s| s.map(|x| -x))
    }
    pub fn ip_avx512_tile4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
        check_tile4(&q, v);
        let s = unsafe { avx512::inner_product_x4(q, v) };
        [-s[0], -s[1], -s[2], -s[3]]
    }
}

/// Resolve the internal-distance kernel for `metric` at the active SIMD
/// level. Call once per block; the returned pointer is branch-free on the
/// metric and ISA. Values are bit-identical to [`distance`].
///
/// # Panics
/// Panics for binary metrics, like [`distance`].
pub fn pair_kernel(metric: Metric) -> PairKernel {
    let level = active_level();
    match metric {
        Metric::L2 => match level {
            SimdLevel::Scalar => l2_scalar_pair,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse => x86_shims::l2_sse_pair,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => x86_shims::l2_avx2_pair,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => x86_shims::l2_avx512_pair,
            #[cfg(not(target_arch = "x86_64"))]
            _ => l2_scalar_pair,
        },
        Metric::InnerProduct => match level {
            SimdLevel::Scalar => ip_scalar_pair,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse => x86_shims::ip_sse_pair,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => x86_shims::ip_avx2_pair,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => x86_shims::ip_avx512_pair,
            #[cfg(not(target_arch = "x86_64"))]
            _ => ip_scalar_pair,
        },
        Metric::Cosine => cosine_pair,
        m => panic!("binary metric {m} passed to pair_kernel()"),
    }
}

/// Resolve the register-tiled 4-query kernel for `metric` at the active
/// SIMD level, if one exists. `None` (SSE level, cosine, binary metrics)
/// means the caller should fall back to [`pair_kernel`] per pair — results
/// are bit-identical either way.
pub fn tile4_kernel(metric: Metric) -> Option<Tile4Kernel> {
    let level = active_level();
    match metric {
        Metric::L2 => match level {
            SimdLevel::Scalar => Some(l2_scalar_tile4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => Some(x86_shims::l2_avx2_tile4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => Some(x86_shims::l2_avx512_tile4),
            _ => None,
        },
        Metric::InnerProduct => match level {
            SimdLevel::Scalar => Some(ip_scalar_tile4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => Some(x86_shims::ip_avx2_tile4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => Some(x86_shims::ip_avx512_tile4),
            _ => None,
        },
        _ => None,
    }
}

/// Resolve the 4-row × 4-row tile for `metric` at the active SIMD level, if
/// one exists. `None` (SSE level, cosine, binary metrics) means the caller
/// should score each row as it would alone — results are bit-identical
/// either way. It exists exactly where [`tile4_kernel`] does.
pub fn tile4x4_kernel(metric: Metric) -> Option<Tile4x4Kernel> {
    let level = active_level();
    match metric {
        Metric::L2 => match level {
            SimdLevel::Scalar => Some(scalar::l2_sq_4x4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => Some(x86_shims::l2_avx2_tile4x4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => Some(x86_shims::l2_avx512_tile4x4),
            _ => None,
        },
        Metric::InnerProduct => match level {
            SimdLevel::Scalar => Some(ip_scalar_tile4x4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => Some(x86_shims::ip_avx2_tile4x4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => Some(x86_shims::ip_avx512_tile4x4),
            _ => None,
        },
        _ => None,
    }
}

/// Resolve the 2-query × 4-row tile for `metric` at the active SIMD level,
/// if one exists. `None` (SSE level, cosine, binary metrics) means the
/// caller should score as it would without it — results are bit-identical
/// either way. It exists exactly where [`tile4x4_kernel`] does.
pub fn tile2x4_kernel(metric: Metric) -> Option<Tile2x4Kernel> {
    let level = active_level();
    match metric {
        Metric::L2 => match level {
            SimdLevel::Scalar => Some(l2_scalar_tile2x4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => Some(x86_shims::l2_avx2_tile2x4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => Some(x86_shims::l2_avx512_tile2x4),
            _ => None,
        },
        Metric::InnerProduct => match level {
            SimdLevel::Scalar => Some(ip_scalar_tile2x4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => Some(x86_shims::ip_avx2_tile2x4),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => Some(x86_shims::ip_avx512_tile2x4),
            _ => None,
        },
        _ => None,
    }
}

/// Distances from one query to every row of a contiguous `dim`-strided matrix,
/// written into `out` (one entry per row), dispatching per pair through
/// [`distance`]. No search path calls it — scans resolve a [`PairKernel`] or
/// [`Tile4Kernel`] once and push straight into a [`crate::TopK`]; it is the
/// benchmark's per-vector distance probe.
pub fn distances_into(metric: Metric, query: &[f32], data: &[f32], dim: usize, out: &mut [f32]) {
    debug_assert_eq!(query.len(), dim);
    debug_assert_eq!(data.len(), out.len() * dim);
    for (row, slot) in data.chunks_exact(dim).zip(out.iter_mut()) {
        *slot = distance(metric, query, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdLevel;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs()))
    }

    fn test_vectors(dim: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).cos()).collect();
        (a, b)
    }

    #[test]
    fn all_levels_agree_on_l2() {
        // Odd dims exercise the remainder loops of each kernel.
        for dim in [1, 3, 8, 15, 16, 17, 31, 32, 33, 96, 100, 128, 133] {
            let (a, b) = test_vectors(dim);
            let reference = scalar::l2_sq(&a, &b);
            for level in SimdLevel::ALL {
                if level.supported() {
                    let got = l2_sq_with_level(&a, &b, level);
                    assert!(
                        approx(got, reference),
                        "l2 {level} dim={dim}: {got} vs {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_levels_agree_on_ip() {
        for dim in [1, 3, 8, 15, 16, 17, 31, 32, 33, 96, 100, 128, 133] {
            let (a, b) = test_vectors(dim);
            let reference = scalar::inner_product(&a, &b);
            for level in SimdLevel::ALL {
                if level.supported() {
                    let got = ip_with_level(&a, &b, level);
                    assert!(
                        approx(got, reference),
                        "ip {level} dim={dim}: {got} vs {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn l2_of_identical_vectors_is_zero() {
        let (a, _) = test_vectors(64);
        assert!(l2_sq(&a, &a) < 1e-6);
    }

    #[test]
    fn cosine_bounds_and_sign() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        let c = vec![-1.0, 0.0];
        assert!(approx(cosine(&a, &a), 1.0));
        assert!(approx(cosine(&a, &b), 0.0));
        assert!(approx(cosine(&a, &c), -1.0));
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let z = vec![0.0; 8];
        let a = vec![1.0; 8];
        assert_eq!(cosine(&z, &a), 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!(approx(norm_sq(&v), 1.0));
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn internal_distance_negates_similarity() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        assert!(approx(distance(Metric::InnerProduct, &a, &b), -11.0));
        assert!(approx(distance(Metric::L2, &a, &b), 8.0));
    }

    #[test]
    fn hoisted_pair_kernel_is_bit_identical_to_distance() {
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let kern = pair_kernel(metric);
            for dim in [1, 7, 16, 33, 64, 128] {
                let (a, b) = test_vectors(dim);
                assert_eq!(
                    kern(&a, &b).to_bits(),
                    distance(metric, &a, &b).to_bits(),
                    "pair kernel diverged for {metric} dim={dim}"
                );
            }
        }
    }

    #[test]
    fn tiled_kernel_is_bit_identical_to_pair_kernel() {
        for metric in [Metric::L2, Metric::InnerProduct] {
            let Some(tile) = tile4_kernel(metric) else { continue };
            let pair = pair_kernel(metric);
            for dim in [1, 7, 16, 33, 64, 100, 128] {
                let (v, _) = test_vectors(dim);
                let qs: Vec<Vec<f32>> = (0..4)
                    .map(|j| (0..dim).map(|i| ((i * 3 + j * 17) as f32 * 0.07).sin()).collect())
                    .collect();
                let q = [&qs[0][..], &qs[1][..], &qs[2][..], &qs[3][..]];
                let tiled = tile(q, &v);
                for j in 0..4 {
                    assert_eq!(
                        tiled[j].to_bits(),
                        pair(q[j], &v).to_bits(),
                        "tile4 diverged for {metric} dim={dim} q={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn avx_tiled_kernels_match_their_untiled_forms_when_supported() {
        // Direct per-level checks, independent of the global active level.
        let dimensions = [8, 15, 16, 17, 32, 64, 96, 133];
        #[cfg(target_arch = "x86_64")]
        for dim in dimensions {
            let (v, _) = test_vectors(dim);
            let qs: Vec<Vec<f32>> = (0..4)
                .map(|j| (0..dim).map(|i| ((i + j * 13) as f32 * 0.19).cos()).collect())
                .collect();
            let q = [&qs[0][..], &qs[1][..], &qs[2][..], &qs[3][..]];
            if SimdLevel::Avx2.supported() {
                let l2 = unsafe { avx2::l2_sq_x4(q, &v) };
                let ip = unsafe { avx2::inner_product_x4(q, &v) };
                for j in 0..4 {
                    assert_eq!(l2[j].to_bits(), unsafe { avx2::l2_sq(q[j], &v) }.to_bits());
                    assert_eq!(
                        ip[j].to_bits(),
                        unsafe { avx2::inner_product(q[j], &v) }.to_bits()
                    );
                }
            }
            if SimdLevel::Avx512.supported() {
                let l2 = unsafe { avx512::l2_sq_x4(q, &v) };
                for j in 0..4 {
                    assert_eq!(l2[j].to_bits(), unsafe { avx512::l2_sq(q[j], &v) }.to_bits());
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = dimensions;
    }

    #[test]
    fn batch_matches_single() {
        let dim = 16;
        let (q, _) = test_vectors(dim);
        let data: Vec<f32> = (0..dim * 5).map(|i| (i as f32 * 0.05).sin()).collect();
        let mut out = vec![0.0; 5];
        distances_into(Metric::L2, &q, &data, dim, &mut out);
        for (i, row) in data.chunks_exact(dim).enumerate() {
            assert!(approx(out[i], l2_sq(&q, row)));
        }
    }
}
