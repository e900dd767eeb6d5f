//! Scalar quantization for IVF_SQ8 (§3.1).
//!
//! "IVF_SQ8 uses a compressed representation for the vectors by adopting a
//! one-dimensional quantizer (called 'scalar quantizer') to compress a 4-byte
//! float value to a 1-byte integer." Each dimension gets its own `[min, max]`
//! range learned from the training data; values are mapped affinely to 0..=255.


use crate::vectors::VectorSet;

/// Per-dimension affine quantizer `f32 → u8`.
#[derive(Debug, Clone)]
pub struct ScalarQuantizer {
    /// Per-dimension minimum of the training data.
    vmin: Vec<f32>,
    /// Per-dimension `(max - min) / 255`, zero for constant dimensions.
    vstep: Vec<f32>,
}

impl ScalarQuantizer {
    /// Learn per-dimension ranges from `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty (the IVF build rejects that earlier).
    pub fn train(data: &VectorSet) -> Self {
        assert!(!data.is_empty(), "scalar quantizer needs training data");
        let dim = data.dim();
        let mut vmin = vec![f32::INFINITY; dim];
        let mut vmax = vec![f32::NEG_INFINITY; dim];
        for row in data.iter() {
            for (d, &x) in row.iter().enumerate() {
                vmin[d] = vmin[d].min(x);
                vmax[d] = vmax[d].max(x);
            }
        }
        let vstep = vmin
            .iter()
            .zip(&vmax)
            .map(|(&lo, &hi)| if hi > lo { (hi - lo) / 255.0 } else { 0.0 })
            .collect();
        Self { vmin, vstep }
    }

    /// Reassemble from persisted parameters (codec).
    pub fn from_params(vmin: Vec<f32>, vstep: Vec<f32>) -> Self {
        assert_eq!(vmin.len(), vstep.len(), "parameter arrays must align");
        Self { vmin, vstep }
    }

    /// Per-dimension minima.
    pub fn vmin(&self) -> &[f32] {
        &self.vmin
    }

    /// Per-dimension quantization steps.
    pub fn vstep(&self) -> &[f32] {
        &self.vstep
    }

    /// Vector dimensionality this quantizer was trained for.
    pub fn dim(&self) -> usize {
        self.vmin.len()
    }

    /// Encode `v`, appending `dim` bytes to `out`.
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        debug_assert_eq!(v.len(), self.dim());
        for (d, &x) in v.iter().enumerate() {
            let code = if self.vstep[d] == 0.0 {
                0.0
            } else {
                ((x - self.vmin[d]) / self.vstep[d]).clamp(0.0, 255.0)
            };
            out.push(code.round() as u8);
        }
    }

    /// Fold `query` into per-query fused-scan state for `metric` — done once
    /// per query, after which every bucket's raw codes are scored directly
    /// (no decode pass, no scratch allocation). See
    /// [`crate::distance::quant`].
    pub fn prepare<'a>(
        &'a self,
        query: &[f32],
        metric: crate::metric::Metric,
    ) -> crate::distance::quant::PreparedSq8<'a> {
        crate::distance::quant::PreparedSq8::prepare(&self.vmin, &self.vstep, query, metric)
    }

    /// Decode `code` (one vector, `dim` bytes) into `out`.
    pub fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        debug_assert_eq!(code.len(), self.dim());
        debug_assert_eq!(out.len(), self.dim());
        for d in 0..code.len() {
            out[d] = self.vmin[d] + code[d] as f32 * self.vstep[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VectorSet {
        VectorSet::from_flat(2, vec![0.0, -1.0, 10.0, 1.0, 5.0, 0.0])
    }

    #[test]
    fn roundtrip_error_within_step() {
        let sq = ScalarQuantizer::train(&sample());
        let v = [7.3f32, 0.4];
        let mut codes = Vec::new();
        sq.encode_into(&v, &mut codes);
        let mut out = [0.0f32; 2];
        sq.decode_into(&codes, &mut out);
        // Error bounded by half a quantization step per dimension.
        assert!((out[0] - v[0]).abs() <= 10.0 / 255.0);
        assert!((out[1] - v[1]).abs() <= 2.0 / 255.0);
    }

    #[test]
    fn extremes_map_to_0_and_255() {
        let sq = ScalarQuantizer::train(&sample());
        let mut codes = Vec::new();
        sq.encode_into(&[0.0, -1.0], &mut codes);
        sq.encode_into(&[10.0, 1.0], &mut codes);
        assert_eq!(&codes, &[0, 0, 255, 255]);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let sq = ScalarQuantizer::train(&sample());
        let mut codes = Vec::new();
        sq.encode_into(&[-100.0, 100.0], &mut codes);
        assert_eq!(&codes, &[0, 255]);
    }

    #[test]
    fn constant_dimension_roundtrips_exactly() {
        let data = VectorSet::from_flat(1, vec![3.0, 3.0, 3.0]);
        let sq = ScalarQuantizer::train(&data);
        let mut codes = Vec::new();
        sq.encode_into(&[3.0], &mut codes);
        let mut out = [0.0f32];
        sq.decode_into(&codes, &mut out);
        assert_eq!(out[0], 3.0);
    }

    #[test]
    fn compression_is_4x() {
        // 1 byte per dimension vs 4 bytes for the float: the paper's "1/4 the
        // space of IVF_FLAT" claim, by construction.
        let sq = ScalarQuantizer::train(&sample());
        let mut codes = Vec::new();
        sq.encode_into(&[1.0, 0.0], &mut codes);
        assert_eq!(codes.len() * 4, 2 * std::mem::size_of::<f32>());
    }
}
