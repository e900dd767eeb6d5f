//! Portable scalar kernels — the reference implementation every SIMD level
//! is tested against, and the fallback on non-x86 targets.

/// Squared Euclidean distance.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    // Four independent accumulators give the compiler room to pipeline even
    // without explicit SIMD.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        for lane in 0..4 {
            let d = a[base + lane] - b[base + lane];
            acc[lane] += d * d;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Inner product.
#[inline]
pub fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        for lane in 0..4 {
            acc[lane] += a[base + lane] * b[base + lane];
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Register-tiled L2²: score one data vector against four queries in a
/// single pass, loading each element of `v` once instead of four times.
///
/// Per (query, lane) the accumulation sequence is exactly that of
/// [`l2_sq`], so `l2_sq_x4(q, v)[j] == l2_sq(q[j], v)` bit-for-bit.
#[inline]
pub fn l2_sq_x4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
    let n = v.len();
    let mut acc = [[0.0f32; 4]; 4]; // acc[query][lane]
    let chunks = n / 4;
    for i in 0..chunks {
        let base = i * 4;
        let vl = [v[base], v[base + 1], v[base + 2], v[base + 3]];
        for (qj, accj) in q.iter().zip(acc.iter_mut()) {
            for (lane, al) in accj.iter_mut().enumerate() {
                let d = qj[base + lane] - vl[lane];
                *al += d * d;
            }
        }
    }
    let mut out = [0.0f32; 4];
    for ((qj, accj), oj) in q.iter().zip(&acc).zip(out.iter_mut()) {
        let mut sum = accj[0] + accj[1] + accj[2] + accj[3];
        for i in chunks * 4..n {
            let d = qj[i] - v[i];
            sum += d * d;
        }
        *oj = sum;
    }
    out
}

/// L2² of four points against four centroids: `out[i][j] == l2_sq(p[i],
/// c[j])` bit for bit, as four [`l2_sq_x4`] passes. A register-blocked 4×4
/// form needs 64 scalar accumulators, which spill, and ran slower.
#[inline]
pub fn l2_sq_4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
    p.map(|pi| l2_sq_x4(c, pi))
}

/// Inner product of four rows against four others, `out[i][j] ==
/// inner_product(p[i], c[j])` bit for bit, as four [`inner_product_x4`]
/// passes (see [`l2_sq_4x4`]).
#[inline]
pub fn inner_product_4x4(p: [&[f32]; 4], c: [&[f32]; 4]) -> [[f32; 4]; 4] {
    p.map(|pi| inner_product_x4(c, pi))
}

/// Register-tiled inner product: one data vector against four queries per
/// pass. Bit-identical per pair to [`inner_product`].
#[inline]
pub fn inner_product_x4(q: [&[f32]; 4], v: &[f32]) -> [f32; 4] {
    let n = v.len();
    let mut acc = [[0.0f32; 4]; 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let base = i * 4;
        let vl = [v[base], v[base + 1], v[base + 2], v[base + 3]];
        for (qj, accj) in q.iter().zip(acc.iter_mut()) {
            for (lane, al) in accj.iter_mut().enumerate() {
                *al += qj[base + lane] * vl[lane];
            }
        }
    }
    let mut out = [0.0f32; 4];
    for ((qj, accj), oj) in q.iter().zip(&acc).zip(out.iter_mut()) {
        let mut sum = accj[0] + accj[1] + accj[2] + accj[3];
        for i in chunks * 4..n {
            sum += qj[i] * v[i];
        }
        *oj = sum;
    }
    out
}

// ---------------------------------------------------------------------------
// Fused SQ8 quantized-scan kernels (scalar reference).
//
// These score u8 codes directly — no decoded scratch buffer — with the
// dequantization folded into per-query state prepared once per query
// (see `crate::distance::quant`). The accumulation order is pinned to a
// 16-virtual-lane layout mirroring one AVX-512 register (two AVX2
// registers): lane `l` accumulates elements `16·i + l` with true fused
// multiply-adds, lanes reduce as `s_j = lane_j + lane_{j+8}` followed by the
// tree `((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7))`, and the `n % 16` tail is
// accumulated sequentially afterwards. The AVX2/AVX-512 kernels replicate
// this sequence exactly, so every ISA level is bit-identical to this
// reference.
// ---------------------------------------------------------------------------

/// Fold 16 pinned lanes exactly like the SIMD kernels: 512→256 by adding the
/// upper half onto the lower, then the AVX2 horizontal tree.
#[inline]
fn reduce16(l: &[f32; 16]) -> f32 {
    let mut s = [0.0f32; 8];
    for j in 0..8 {
        s[j] = l[j] + l[j + 8];
    }
    let t0 = s[0] + s[4];
    let t1 = s[1] + s[5];
    let t2 = s[2] + s[6];
    let t3 = s[3] + s[7];
    (t0 + t1) + (t2 + t3)
}

/// Fused SQ8 dot product `Σ_d w_d·c_d` over raw u8 codes.
///
/// With `w_d = q_d·step_d` prepared per query, `bias + Σ w_d·c_d` equals the
/// inner product of the query with the decoded vector — one pass over the
/// codes, no decode buffer.
#[inline]
pub fn sq8_dot(w: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(w.len(), codes.len());
    let n = w.len();
    let mut lanes = [0.0f32; 16];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = (codes[base + l] as f32).mul_add(w[base + l], *lane);
        }
    }
    let mut sum = reduce16(&lanes);
    for i in blocks * 16..n {
        sum = (codes[i] as f32).mul_add(w[i], sum);
    }
    sum
}

/// Fused SQ8 squared L2 `Σ_d (r_d − c_d·step_d)²` over raw u8 codes, with
/// `r_d = q_d − vmin_d` prepared per query.
#[inline]
pub fn sq8_l2(r: &[f32], step: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(r.len(), codes.len());
    debug_assert_eq!(r.len(), step.len());
    let n = r.len();
    let mut lanes = [0.0f32; 16];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        for (l, lane) in lanes.iter_mut().enumerate() {
            let c = codes[base + l] as f32;
            let u = (-c).mul_add(step[base + l], r[base + l]);
            *lane = u.mul_add(u, *lane);
        }
    }
    let mut sum = reduce16(&lanes);
    for i in blocks * 16..n {
        let c = codes[i] as f32;
        let u = (-c).mul_add(step[i], r[i]);
        sum = u.mul_add(u, sum);
    }
    sum
}

/// ×4-row tiled [`sq8_dot`]: four code rows against one prepared query.
/// The scalar form simply delegates per row, which pins the tiled results
/// bit-identical to the untiled kernel by construction.
#[inline]
pub fn sq8_dot_x4(w: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    [sq8_dot(w, codes[0]), sq8_dot(w, codes[1]), sq8_dot(w, codes[2]), sq8_dot(w, codes[3])]
}

/// ×4-row tiled [`sq8_l2`]; see [`sq8_dot_x4`].
#[inline]
pub fn sq8_l2_x4(r: &[f32], step: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    [
        sq8_l2(r, step, codes[0]),
        sq8_l2(r, step, codes[1]),
        sq8_l2(r, step, codes[2]),
        sq8_l2(r, step, codes[3]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_matches_pairwise_bitwise() {
        for dim in [1, 3, 4, 7, 16, 33, 64, 100] {
            let v: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.21).sin()).collect();
            let qs: Vec<Vec<f32>> = (0..4)
                .map(|j| (0..dim).map(|i| ((i + j * 31) as f32 * 0.13).cos()).collect())
                .collect();
            let q = [&qs[0][..], &qs[1][..], &qs[2][..], &qs[3][..]];
            let l2 = l2_sq_x4(q, &v);
            let ip = inner_product_x4(q, &v);
            for j in 0..4 {
                assert_eq!(l2[j].to_bits(), l2_sq(q[j], &v).to_bits(), "l2 dim={dim} q={j}");
                assert_eq!(
                    ip[j].to_bits(),
                    inner_product(q[j], &v).to_bits(),
                    "ip dim={dim} q={j}"
                );
            }
        }
    }

    #[test]
    fn known_values() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(l2_sq(&a, &b), 16.0 + 4.0 + 0.0 + 4.0 + 16.0);
        assert_eq!(inner_product(&a, &b), 5.0 + 8.0 + 9.0 + 8.0 + 5.0);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(l2_sq(&[], &[]), 0.0);
        assert_eq!(inner_product(&[], &[]), 0.0);
    }
}
