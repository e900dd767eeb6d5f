//! 512-bit AVX-512F kernels — the paper's headline SIMD addition over Faiss
//! (§3.2.2 "Supporting AVX512", evaluated in Figure 12).
#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

/// Squared Euclidean distance using AVX-512F.
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = _mm512_setzero_ps();
    let chunks = n / 16;
    for i in 0..chunks {
        let va = _mm512_loadu_ps(a.as_ptr().add(i * 16));
        let vb = _mm512_loadu_ps(b.as_ptr().add(i * 16));
        let d = _mm512_sub_ps(va, vb);
        acc = _mm512_fmadd_ps(d, d, acc);
    }
    let mut sum = _mm512_reduce_add_ps(acc);
    for i in chunks * 16..n {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Register-tiled L2²: one data vector against four queries per pass, so
/// each 512-bit load of `v` feeds four FMA chains. Bit-identical per pair
/// to [`l2_sq`].
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
pub unsafe fn l2_sq_x4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
    let n = v.len();
    let mut acc = [_mm512_setzero_ps(); 4];
    let chunks = n / 16;
    for i in 0..chunks {
        let vv = _mm512_loadu_ps(v.as_ptr().add(i * 16));
        for (qj, accj) in q.iter().zip(acc.iter_mut()) {
            let vq = _mm512_loadu_ps(qj.as_ptr().add(i * 16));
            let d = _mm512_sub_ps(vq, vv);
            *accj = _mm512_fmadd_ps(d, d, *accj);
        }
    }
    let mut out = [0.0f32; 4];
    for ((qj, accj), oj) in q.iter().zip(&acc).zip(out.iter_mut()) {
        let mut sum = _mm512_reduce_add_ps(*accj);
        for i in chunks * 16..n {
            let d = qj[i] - v[i];
            sum += d * d;
        }
        *oj = sum;
    }
    out
}

/// `_mm512_reduce_add_ps` of four registers at once, lane `j` of the result
/// from register `j`, adding the same pairs in the same order: lanes
/// (i, i+8), then (i, i+4), (i, i+2), (i, i+1).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn reduce4(a: __m512, b: __m512, c: __m512, d: __m512) -> __m128 {
    let half = |x, y| {
        _mm512_add_ps(
            _mm512_shuffle_f32x4(x, y, 0b01_00_01_00),
            _mm512_shuffle_f32x4(x, y, 0b11_10_11_10),
        )
    };
    // `ab`: a's eight (i, i+8) sums in blocks 0–1, b's in blocks 2–3.
    let (ab, cd) = (half(a, b), half(c, d));
    // Block j: register j's four (i, i+4) sums of those.
    let s = _mm512_add_ps(
        _mm512_shuffle_f32x4(ab, cd, 0b10_00_10_00),
        _mm512_shuffle_f32x4(ab, cd, 0b11_01_11_01),
    );
    let s = _mm512_add_ps(s, _mm512_permute_ps(s, 0b01_00_11_10));
    let s = _mm512_add_ps(s, _mm512_movehdup_ps(s));
    let firsts = _mm512_set_epi32(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 8, 4, 0);
    _mm512_castps512_ps128(_mm512_permutexvar_ps(firsts, s))
}

/// Register-tiled L2² of four points against four centroids in 16
/// accumulators, so each 512-bit load feeds four FMA chains on both sides.
/// `out[i][j] == l2_sq(p[i], c[j])` bit for bit: the same per-lane FMA
/// order, [`reduce4`]'s copy of `reduce_add`'s pairing, and the same scalar
/// tail.
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
pub unsafe fn l2_sq_4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let n = p[0].len();
    let mut acc = [[_mm512_setzero_ps(); 4]; 4];
    let chunks = n / 16;
    for i in 0..chunks {
        let at = i * 16;
        let vc = [
            _mm512_loadu_ps(c[0].as_ptr().add(at)),
            _mm512_loadu_ps(c[1].as_ptr().add(at)),
            _mm512_loadu_ps(c[2].as_ptr().add(at)),
            _mm512_loadu_ps(c[3].as_ptr().add(at)),
        ];
        for (pi, acci) in p.iter().zip(acc.iter_mut()) {
            let vp = _mm512_loadu_ps(pi.as_ptr().add(at));
            for (vcj, a) in vc.iter().zip(acci.iter_mut()) {
                let d = _mm512_sub_ps(vp, *vcj);
                *a = _mm512_fmadd_ps(d, d, *a);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 4];
    for ((pi, a), oi) in p.iter().zip(&acc).zip(out.iter_mut()) {
        _mm_storeu_ps(oi.as_mut_ptr(), reduce4(a[0], a[1], a[2], a[3]));
        for (cj, o) in c.iter().zip(oi.iter_mut()) {
            for k in chunks * 16..n {
                let d = pi[k] - cj[k];
                *o += d * d;
            }
        }
    }
    out
}

/// Register-tiled inner product of four rows against four others in 16
/// accumulators; `out[i][j] == inner_product(p[i], c[j])` bit for bit, under
/// the contract of [`l2_sq_4x4`].
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
pub unsafe fn inner_product_4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let n = p[0].len();
    let mut acc = [[_mm512_setzero_ps(); 4]; 4];
    let chunks = n / 16;
    for i in 0..chunks {
        let at = i * 16;
        let vc = [
            _mm512_loadu_ps(c[0].as_ptr().add(at)),
            _mm512_loadu_ps(c[1].as_ptr().add(at)),
            _mm512_loadu_ps(c[2].as_ptr().add(at)),
            _mm512_loadu_ps(c[3].as_ptr().add(at)),
        ];
        for (pi, acci) in p.iter().zip(acc.iter_mut()) {
            let vp = _mm512_loadu_ps(pi.as_ptr().add(at));
            for (vcj, a) in vc.iter().zip(acci.iter_mut()) {
                *a = _mm512_fmadd_ps(vp, *vcj, *a);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 4];
    for ((pi, a), oi) in p.iter().zip(&acc).zip(out.iter_mut()) {
        _mm_storeu_ps(oi.as_mut_ptr(), reduce4(a[0], a[1], a[2], a[3]));
        for (cj, o) in c.iter().zip(oi.iter_mut()) {
            for k in chunks * 16..n {
                *o += pi[k] * cj[k];
            }
        }
    }
    out
}

/// Register-tiled L2² of two queries against four rows in eight
/// accumulators: `out[i][j] == l2_sq(p[i], c[j])` bit for bit, under the
/// contract of [`l2_sq_4x4`].
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
pub unsafe fn l2_sq_2x4(p: [&[f32]; 2], c: [&[f32]; 4]) -> [[f32; 4]; 2] {
    let n = p[0].len();
    let mut acc = [[_mm512_setzero_ps(); 4]; 2];
    let chunks = n / 16;
    for i in 0..chunks {
        let at = i * 16;
        let vc = [
            _mm512_loadu_ps(c[0].as_ptr().add(at)),
            _mm512_loadu_ps(c[1].as_ptr().add(at)),
            _mm512_loadu_ps(c[2].as_ptr().add(at)),
            _mm512_loadu_ps(c[3].as_ptr().add(at)),
        ];
        for (pi, acci) in p.iter().zip(acc.iter_mut()) {
            let vp = _mm512_loadu_ps(pi.as_ptr().add(at));
            for (vcj, a) in vc.iter().zip(acci.iter_mut()) {
                let d = _mm512_sub_ps(vp, *vcj);
                *a = _mm512_fmadd_ps(d, d, *a);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 2];
    for ((pi, a), oi) in p.iter().zip(&acc).zip(out.iter_mut()) {
        _mm_storeu_ps(oi.as_mut_ptr(), reduce4(a[0], a[1], a[2], a[3]));
        for (cj, o) in c.iter().zip(oi.iter_mut()) {
            for k in chunks * 16..n {
                let d = pi[k] - cj[k];
                *o += d * d;
            }
        }
    }
    out
}

/// Register-tiled inner product of two queries against four rows;
/// `out[i][j] == inner_product(p[i], c[j])` bit for bit, under the contract
/// of [`l2_sq_4x4`].
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
pub unsafe fn inner_product_2x4(p: [&[f32]; 2], c: [&[f32]; 4]) -> [[f32; 4]; 2] {
    let n = p[0].len();
    let mut acc = [[_mm512_setzero_ps(); 4]; 2];
    let chunks = n / 16;
    for i in 0..chunks {
        let at = i * 16;
        let vc = [
            _mm512_loadu_ps(c[0].as_ptr().add(at)),
            _mm512_loadu_ps(c[1].as_ptr().add(at)),
            _mm512_loadu_ps(c[2].as_ptr().add(at)),
            _mm512_loadu_ps(c[3].as_ptr().add(at)),
        ];
        for (pi, acci) in p.iter().zip(acc.iter_mut()) {
            let vp = _mm512_loadu_ps(pi.as_ptr().add(at));
            for (vcj, a) in vc.iter().zip(acci.iter_mut()) {
                *a = _mm512_fmadd_ps(vp, *vcj, *a);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 2];
    for ((pi, a), oi) in p.iter().zip(&acc).zip(out.iter_mut()) {
        _mm_storeu_ps(oi.as_mut_ptr(), reduce4(a[0], a[1], a[2], a[3]));
        for (cj, o) in c.iter().zip(oi.iter_mut()) {
            for k in chunks * 16..n {
                *o += pi[k] * cj[k];
            }
        }
    }
    out
}

/// Register-tiled inner product; see [`l2_sq_x4`].
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
pub unsafe fn inner_product_x4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
    let n = v.len();
    let mut acc = [_mm512_setzero_ps(); 4];
    let chunks = n / 16;
    for i in 0..chunks {
        let vv = _mm512_loadu_ps(v.as_ptr().add(i * 16));
        for (qj, accj) in q.iter().zip(acc.iter_mut()) {
            let vq = _mm512_loadu_ps(qj.as_ptr().add(i * 16));
            *accj = _mm512_fmadd_ps(vq, vv, *accj);
        }
    }
    let mut out = [0.0f32; 4];
    for ((qj, accj), oj) in q.iter().zip(&acc).zip(out.iter_mut()) {
        let mut sum = _mm512_reduce_add_ps(*accj);
        for i in chunks * 16..n {
            sum += qj[i] * v[i];
        }
        *oj = sum;
    }
    out
}

// ---------------------------------------------------------------------------
// Fused SQ8 kernels: one 512-bit accumulator natively holds the 16 pinned
// virtual lanes of the scalar reference. The reduction splits 512→256 with
// the AVX512F-only `extractf64x4` cast (no DQ requirement) — giving
// `s_j = lane_j + lane_{j+8}` — then folds through the same AVX2 horizontal
// tree, so results are bit-identical to `scalar::sq8_dot` / `scalar::sq8_l2`
// and to the AVX2 kernels. These shims additionally require AVX2+FMA (the
// dispatcher in `distance::quant` only hands them out when both are
// detected).
// ---------------------------------------------------------------------------

/// Reduce the 16 pinned lanes exactly like the scalar reference's `reduce16`.
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn reduce16(acc: __m512) -> f32 {
    let lo = _mm512_castps512_ps256(acc);
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(acc), 1));
    super::avx2::horizontal_sum(_mm256_add_ps(lo, hi))
}

/// Fused SQ8 dot `Σ w_d·c_d` over raw u8 codes (AVX-512F + AVX2/FMA).
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F, AVX2 and FMA, and that
/// `codes.len() == w.len()`.
#[target_feature(enable = "avx512f,avx2,fma")]
pub unsafe fn sq8_dot(w: &[f32], codes: &[u8]) -> f32 {
    let n = w.len();
    let mut acc = _mm512_setzero_ps();
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let bytes = _mm_loadu_si128(codes.as_ptr().add(base) as *const __m128i);
        let c = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
        let wv = _mm512_loadu_ps(w.as_ptr().add(base));
        acc = _mm512_fmadd_ps(c, wv, acc);
    }
    let mut sum = reduce16(acc);
    for i in blocks * 16..n {
        sum = (codes[i] as f32).mul_add(w[i], sum);
    }
    sum
}

/// Fused SQ8 squared L2 `Σ (r_d − c_d·step_d)²` over raw u8 codes
/// (AVX-512F + AVX2/FMA).
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F, AVX2 and FMA, and that
/// `codes.len() == r.len() == step.len()`.
#[target_feature(enable = "avx512f,avx2,fma")]
pub unsafe fn sq8_l2(r: &[f32], step: &[f32], codes: &[u8]) -> f32 {
    let n = r.len();
    let mut acc = _mm512_setzero_ps();
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let bytes = _mm_loadu_si128(codes.as_ptr().add(base) as *const __m128i);
        let c = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
        let rv = _mm512_loadu_ps(r.as_ptr().add(base));
        let sv = _mm512_loadu_ps(step.as_ptr().add(base));
        let u = _mm512_fnmadd_ps(c, sv, rv);
        acc = _mm512_fmadd_ps(u, u, acc);
    }
    let mut sum = reduce16(acc);
    for i in blocks * 16..n {
        let c = codes[i] as f32;
        let u = (-c).mul_add(step[i], r[i]);
        sum = u.mul_add(u, sum);
    }
    sum
}

/// ×4-row tiled [`sq8_dot`]: prepared weights loaded once per 512-bit block,
/// feeding four FMA chains. Bit-identical per row to the untiled kernel.
///
/// # Safety
/// Same preconditions as [`sq8_dot`] for every row.
#[target_feature(enable = "avx512f,avx2,fma")]
pub unsafe fn sq8_dot_x4(w: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    let n = w.len();
    let mut acc = [_mm512_setzero_ps(); 4];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let wv = _mm512_loadu_ps(w.as_ptr().add(base));
        for j in 0..4 {
            let bytes = _mm_loadu_si128(codes[j].as_ptr().add(base) as *const __m128i);
            let c = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
            acc[j] = _mm512_fmadd_ps(c, wv, acc[j]);
        }
    }
    let mut out = [0.0f32; 4];
    for j in 0..4 {
        let mut sum = reduce16(acc[j]);
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
#[target_feature(enable = "avx512f,avx2,fma")]
pub unsafe fn sq8_l2_x4(r: &[f32], step: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    let n = r.len();
    let mut acc = [_mm512_setzero_ps(); 4];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let rv = _mm512_loadu_ps(r.as_ptr().add(base));
        let sv = _mm512_loadu_ps(step.as_ptr().add(base));
        for j in 0..4 {
            let bytes = _mm_loadu_si128(codes[j].as_ptr().add(base) as *const __m128i);
            let c = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
            let u = _mm512_fnmadd_ps(c, sv, rv);
            acc[j] = _mm512_fmadd_ps(u, u, acc[j]);
        }
    }
    let mut out = [0.0f32; 4];
    for j in 0..4 {
        let mut sum = reduce16(acc[j]);
        for i in blocks * 16..n {
            let c = codes[j][i] as f32;
            let u = (-c).mul_add(step[i], r[i]);
            sum = u.mul_add(u, sum);
        }
        out[j] = sum;
    }
    out
}

/// Inner product using AVX-512F.
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
pub unsafe fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = _mm512_setzero_ps();
    let chunks = n / 16;
    for i in 0..chunks {
        let va = _mm512_loadu_ps(a.as_ptr().add(i * 16));
        let vb = _mm512_loadu_ps(b.as_ptr().add(i * 16));
        acc = _mm512_fmadd_ps(va, vb, acc);
    }
    let mut sum = _mm512_reduce_add_ps(acc);
    for i in chunks * 16..n {
        sum += a[i] * b[i];
    }
    sum
}
