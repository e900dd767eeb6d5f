//! 256-bit AVX2+FMA kernels.
#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

/// Squared Euclidean distance using AVX2/FMA.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let chunks = n / 8;
    for i in 0..chunks {
        let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
        let d = _mm256_sub_ps(va, vb);
        acc = _mm256_fmadd_ps(d, d, acc);
    }
    let mut sum = horizontal_sum(acc);
    for i in chunks * 8..n {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Inner product using AVX2/FMA.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let chunks = n / 8;
    for i in 0..chunks {
        let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
        acc = _mm256_fmadd_ps(va, vb, acc);
    }
    let mut sum = horizontal_sum(acc);
    for i in chunks * 8..n {
        sum += a[i] * b[i];
    }
    sum
}

/// Register-tiled L2² (Faiss-style multi-query tiling): one data vector
/// against four queries per pass, so each 256-bit load of `v` feeds four
/// FMA chains. Per pair the operation sequence matches [`l2_sq`] exactly,
/// keeping results bit-identical to the untiled kernel.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn l2_sq_x4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
    let n = v.len();
    let mut acc = [_mm256_setzero_ps(); 4];
    let chunks = n / 8;
    for i in 0..chunks {
        let vv = _mm256_loadu_ps(v.as_ptr().add(i * 8));
        for (qj, accj) in q.iter().zip(acc.iter_mut()) {
            let vq = _mm256_loadu_ps(qj.as_ptr().add(i * 8));
            let d = _mm256_sub_ps(vq, vv);
            *accj = _mm256_fmadd_ps(d, d, *accj);
        }
    }
    let mut out = [0.0f32; 4];
    for ((qj, accj), oj) in q.iter().zip(&acc).zip(out.iter_mut()) {
        let mut sum = horizontal_sum(*accj);
        for i in chunks * 8..n {
            let d = qj[i] - v[i];
            sum += d * d;
        }
        *oj = sum;
    }
    out
}

/// Register-tiled L2² of two points against four centroids, the half of a
/// 4×4 tile that fits the 16 ymm registers (eight accumulators, four
/// centroid loads): `out[i][j] == l2_sq(p[i], c[j])` bit for bit.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn l2_sq_2x4(p: [&[f32]; 2], c: [&[f32]; 4]) -> [[f32; 4]; 2] {
    let n = p[0].len();
    let mut acc = [[_mm256_setzero_ps(); 4]; 2];
    let chunks = n / 8;
    for i in 0..chunks {
        let at = i * 8;
        let vc = [
            _mm256_loadu_ps(c[0].as_ptr().add(at)),
            _mm256_loadu_ps(c[1].as_ptr().add(at)),
            _mm256_loadu_ps(c[2].as_ptr().add(at)),
            _mm256_loadu_ps(c[3].as_ptr().add(at)),
        ];
        for (pi, acci) in p.iter().zip(acc.iter_mut()) {
            let vp = _mm256_loadu_ps(pi.as_ptr().add(at));
            for (vcj, a) in vc.iter().zip(acci.iter_mut()) {
                let d = _mm256_sub_ps(vp, *vcj);
                *a = _mm256_fmadd_ps(d, d, *a);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 2];
    for ((pi, acci), oi) in p.iter().zip(&acc).zip(out.iter_mut()) {
        for ((cj, a), o) in c.iter().zip(acci).zip(oi.iter_mut()) {
            let mut sum = horizontal_sum(*a);
            for k in chunks * 8..n {
                let d = pi[k] - cj[k];
                sum += d * d;
            }
            *o = sum;
        }
    }
    out
}

/// Register-tiled inner product of two rows against four others, the half
/// of a 4×4 tile; see [`l2_sq_2x4`]. `out[i][j] == inner_product(p[i],
/// c[j])` bit for bit.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn inner_product_2x4(p: [&[f32]; 2], c: [&[f32]; 4]) -> [[f32; 4]; 2] {
    let n = p[0].len();
    let mut acc = [[_mm256_setzero_ps(); 4]; 2];
    let chunks = n / 8;
    for i in 0..chunks {
        let at = i * 8;
        let vc = [
            _mm256_loadu_ps(c[0].as_ptr().add(at)),
            _mm256_loadu_ps(c[1].as_ptr().add(at)),
            _mm256_loadu_ps(c[2].as_ptr().add(at)),
            _mm256_loadu_ps(c[3].as_ptr().add(at)),
        ];
        for (pi, acci) in p.iter().zip(acc.iter_mut()) {
            let vp = _mm256_loadu_ps(pi.as_ptr().add(at));
            for (vcj, a) in vc.iter().zip(acci.iter_mut()) {
                *a = _mm256_fmadd_ps(vp, *vcj, *a);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 2];
    for ((pi, acci), oi) in p.iter().zip(&acc).zip(out.iter_mut()) {
        for ((cj, a), o) in c.iter().zip(acci).zip(oi.iter_mut()) {
            let mut sum = horizontal_sum(*a);
            for k in chunks * 8..n {
                sum += pi[k] * cj[k];
            }
            *o = sum;
        }
    }
    out
}

/// Register-tiled inner product; see [`l2_sq_x4`].
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn inner_product_x4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
    let n = v.len();
    let mut acc = [_mm256_setzero_ps(); 4];
    let chunks = n / 8;
    for i in 0..chunks {
        let vv = _mm256_loadu_ps(v.as_ptr().add(i * 8));
        for (qj, accj) in q.iter().zip(acc.iter_mut()) {
            let vq = _mm256_loadu_ps(qj.as_ptr().add(i * 8));
            *accj = _mm256_fmadd_ps(vq, vv, *accj);
        }
    }
    let mut out = [0.0f32; 4];
    for ((qj, accj), oj) in q.iter().zip(&acc).zip(out.iter_mut()) {
        let mut sum = horizontal_sum(*accj);
        for i in chunks * 8..n {
            sum += qj[i] * v[i];
        }
        *oj = sum;
    }
    out
}

// ---------------------------------------------------------------------------
// Fused SQ8 kernels: score u8 codes directly with cvtepu8 + FMA. The two
// 256-bit accumulators hold pinned lanes 0..8 / 8..16; reducing with
// `add_ps(lo, hi)` then [`horizontal_sum`] reproduces exactly the scalar
// reference's `reduce16` (`s_j = lane_j + lane_{j+8}`, then the
// `((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7))` tree), so results are
// bit-identical to `scalar::sq8_dot` / `scalar::sq8_l2`.
// ---------------------------------------------------------------------------

/// Convert 16 u8 codes starting at `p` into two exact f32 octets.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn load_codes16(p: *const u8) -> (__m256, __m256) {
    let bytes = _mm_loadu_si128(p as *const __m128i);
    let lo = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    let hi = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128(bytes, 8)));
    (lo, hi)
}

/// Fused SQ8 dot `Σ w_d·c_d` over raw u8 codes (AVX2+FMA).
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA, and that
/// `codes.len() == w.len()`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn sq8_dot(w: &[f32], codes: &[u8]) -> f32 {
    let n = w.len();
    let mut acc_lo = _mm256_setzero_ps();
    let mut acc_hi = _mm256_setzero_ps();
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let (c_lo, c_hi) = load_codes16(codes.as_ptr().add(base));
        let w_lo = _mm256_loadu_ps(w.as_ptr().add(base));
        let w_hi = _mm256_loadu_ps(w.as_ptr().add(base + 8));
        acc_lo = _mm256_fmadd_ps(c_lo, w_lo, acc_lo);
        acc_hi = _mm256_fmadd_ps(c_hi, w_hi, acc_hi);
    }
    let mut sum = horizontal_sum(_mm256_add_ps(acc_lo, acc_hi));
    for i in blocks * 16..n {
        sum = (codes[i] as f32).mul_add(w[i], sum);
    }
    sum
}

/// Fused SQ8 squared L2 `Σ (r_d − c_d·step_d)²` over raw u8 codes (AVX2+FMA).
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA, and that
/// `codes.len() == r.len() == step.len()`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn sq8_l2(r: &[f32], step: &[f32], codes: &[u8]) -> f32 {
    let n = r.len();
    let mut acc_lo = _mm256_setzero_ps();
    let mut acc_hi = _mm256_setzero_ps();
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let (c_lo, c_hi) = load_codes16(codes.as_ptr().add(base));
        let r_lo = _mm256_loadu_ps(r.as_ptr().add(base));
        let r_hi = _mm256_loadu_ps(r.as_ptr().add(base + 8));
        let s_lo = _mm256_loadu_ps(step.as_ptr().add(base));
        let s_hi = _mm256_loadu_ps(step.as_ptr().add(base + 8));
        let u_lo = _mm256_fnmadd_ps(c_lo, s_lo, r_lo);
        let u_hi = _mm256_fnmadd_ps(c_hi, s_hi, r_hi);
        acc_lo = _mm256_fmadd_ps(u_lo, u_lo, acc_lo);
        acc_hi = _mm256_fmadd_ps(u_hi, u_hi, acc_hi);
    }
    let mut sum = horizontal_sum(_mm256_add_ps(acc_lo, acc_hi));
    for i in blocks * 16..n {
        let c = codes[i] as f32;
        let u = (-c).mul_add(step[i], r[i]);
        sum = u.mul_add(u, sum);
    }
    sum
}

/// ×4-row tiled [`sq8_dot`]: the prepared weights are loaded once per block
/// and feed four FMA chains, one per code row. Bit-identical per row to the
/// untiled kernel.
///
/// # Safety
/// Same preconditions as [`sq8_dot`] for every row.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn sq8_dot_x4(w: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    let n = w.len();
    let mut acc_lo = [_mm256_setzero_ps(); 4];
    let mut acc_hi = [_mm256_setzero_ps(); 4];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let w_lo = _mm256_loadu_ps(w.as_ptr().add(base));
        let w_hi = _mm256_loadu_ps(w.as_ptr().add(base + 8));
        for j in 0..4 {
            let (c_lo, c_hi) = load_codes16(codes[j].as_ptr().add(base));
            acc_lo[j] = _mm256_fmadd_ps(c_lo, w_lo, acc_lo[j]);
            acc_hi[j] = _mm256_fmadd_ps(c_hi, w_hi, acc_hi[j]);
        }
    }
    let mut out = [0.0f32; 4];
    for j in 0..4 {
        let mut sum = horizontal_sum(_mm256_add_ps(acc_lo[j], acc_hi[j]));
        for i in blocks * 16..n {
            sum = (codes[j][i] as f32).mul_add(w[i], sum);
        }
        out[j] = sum;
    }
    out
}

/// ×4-row tiled [`sq8_l2`]; see [`sq8_dot_x4`].
///
/// # Safety
/// Same preconditions as [`sq8_l2`] for every row.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn sq8_l2_x4(r: &[f32], step: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    let n = r.len();
    let mut acc_lo = [_mm256_setzero_ps(); 4];
    let mut acc_hi = [_mm256_setzero_ps(); 4];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let r_lo = _mm256_loadu_ps(r.as_ptr().add(base));
        let r_hi = _mm256_loadu_ps(r.as_ptr().add(base + 8));
        let s_lo = _mm256_loadu_ps(step.as_ptr().add(base));
        let s_hi = _mm256_loadu_ps(step.as_ptr().add(base + 8));
        for j in 0..4 {
            let (c_lo, c_hi) = load_codes16(codes[j].as_ptr().add(base));
            let u_lo = _mm256_fnmadd_ps(c_lo, s_lo, r_lo);
            let u_hi = _mm256_fnmadd_ps(c_hi, s_hi, r_hi);
            acc_lo[j] = _mm256_fmadd_ps(u_lo, u_lo, acc_lo[j]);
            acc_hi[j] = _mm256_fmadd_ps(u_hi, u_hi, acc_hi[j]);
        }
    }
    let mut out = [0.0f32; 4];
    for j in 0..4 {
        let mut sum = horizontal_sum(_mm256_add_ps(acc_lo[j], acc_hi[j]));
        for i in blocks * 16..n {
            let c = codes[j][i] as f32;
            let u = (-c).mul_add(step[i], r[i]);
            sum = u.mul_add(u, sum);
        }
        out[j] = sum;
    }
    out
}

#[inline]
pub(crate) unsafe fn horizontal_sum(v: __m256) -> f32 {
    let hi = _mm256_extractf128_ps(v, 1);
    let lo = _mm256_castps256_ps128(v);
    let sum128 = _mm_add_ps(lo, hi);
    let shuf = _mm_movehdup_ps(sum128);
    let sums = _mm_add_ps(sum128, shuf);
    let shuf = _mm_movehl_ps(shuf, sums);
    let sums = _mm_add_ss(sums, shuf);
    _mm_cvtss_f32(sums)
}
