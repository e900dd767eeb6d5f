//! Binary serialization of IVF indexes — "both index and data are stored in
//! the same segment" (§2.3), so the storage layer persists built indexes
//! alongside the vectors instead of rebuilding them on every load.
//!
//! Little-endian layout:
//! `magic "MIV2" | variant u8 | metric name | dim u32 | len u64 |
//!  centroids | fine-quantizer params | buckets (ids + ordinals + codes)`
//!
//! `"MIV2"` added each member's build ordinal (`u32`) after the bucket's ids;
//! a `"MIVF"` blob has none and is refused at the magic, not read around.

use crate::error::{IndexError, Result};
use crate::metric::Metric;
use crate::vectors::VectorSet;

use super::{IvfIndex, IvfVariant};

const MAGIC: &[u8; 4] = b"MIV2";

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_vectors(out: &mut Vec<u8>, vs: &VectorSet) {
    put_u32(out, vs.dim() as u32);
    put_u64(out, vs.len() as u64);
    for &x in vs.as_flat() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    put_u64(out, xs.len() as u64);
    for &x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Cursor-style reader with bounds checking.
pub(super) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(super) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(IndexError::invalid("index blob", "truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| IndexError::invalid("index blob", "bad utf8"))
    }

    fn f32s(&mut self) -> Result<Vec<f32>> {
        let n = self.u64()? as usize;
        let raw = self.take(n.checked_mul(4).ok_or_else(|| {
            IndexError::invalid("index blob", "length overflow")
        })?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn vectors(&mut self) -> Result<VectorSet> {
        let dim = self.u32()? as usize;
        if dim == 0 {
            return Err(IndexError::invalid("index blob", "zero dim"));
        }
        let n = self.u64()? as usize;
        let raw = self.take(
            n.checked_mul(dim)
                .and_then(|x| x.checked_mul(4))
                .ok_or_else(|| IndexError::invalid("index blob", "size overflow"))?,
        )?;
        let flat: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok(VectorSet::from_flat(dim, flat))
    }
}

/// Serialize an IVF index to bytes.
pub fn encode_ivf(index: &IvfIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(index.memory_bytes_estimate() + 64);
    out.extend_from_slice(MAGIC);
    out.push(match index.variant() {
        IvfVariant::Flat => 0,
        IvfVariant::Sq8 => 1,
        IvfVariant::Pq => 2,
    });
    put_str(&mut out, index.metric_name());
    put_u32(&mut out, index.dim() as u32);
    put_u64(&mut out, index.len_rows() as u64);
    put_vectors(&mut out, index.centroids());

    // Fine quantizer parameters.
    match index.variant() {
        IvfVariant::Flat => {}
        IvfVariant::Sq8 => {
            let (vmin, vstep) = index.sq_params().expect("sq8 variant");
            put_f32s(&mut out, vmin);
            put_f32s(&mut out, vstep);
        }
        IvfVariant::Pq => {
            let pq = index.pq_ref().expect("pq variant");
            put_u32(&mut out, pq.m() as u32);
            put_u32(&mut out, pq.ksub() as u32);
            for sub in 0..pq.m() {
                put_vectors(&mut out, pq.codebook(sub));
            }
        }
    }

    // Buckets.
    put_u32(&mut out, index.nlist() as u32);
    for b in 0..index.nlist() {
        let ids = index.bucket_ids(b);
        put_u64(&mut out, ids.len() as u64);
        for &id in ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        for &row in index.bucket_rows(b) {
            put_u32(&mut out, row);
        }
        match index.variant() {
            IvfVariant::Flat => {
                put_vectors(&mut out, index.bucket_vectors(b).expect("flat bucket"));
            }
            IvfVariant::Sq8 | IvfVariant::Pq => {
                let codes = index.bucket_codes(b).expect("encoded bucket");
                put_u64(&mut out, codes.len() as u64);
                out.extend_from_slice(codes);
            }
        }
    }
    out
}

/// Deserialize an IVF index from bytes produced by [`encode_ivf`].
pub fn decode_ivf(buf: &[u8]) -> Result<IvfIndex> {
    let mut r = Reader::new(buf);
    if r.take(4)? != MAGIC {
        return Err(IndexError::invalid("index blob", "bad magic"));
    }
    let variant = match r.u8()? {
        0 => IvfVariant::Flat,
        1 => IvfVariant::Sq8,
        2 => IvfVariant::Pq,
        v => return Err(IndexError::invalid("index blob", format!("bad variant {v}"))),
    };
    let metric = Metric::parse(&r.str()?)
        .ok_or_else(|| IndexError::invalid("index blob", "bad metric"))?;
    let dim = r.u32()? as usize;
    let len = r.u64()? as usize;
    let centroids = r.vectors()?;

    let mut sq = None;
    let mut pq = None;
    match variant {
        IvfVariant::Flat => {}
        IvfVariant::Sq8 => {
            let vmin = r.f32s()?;
            let vstep = r.f32s()?;
            if vmin.len() != dim || vstep.len() != dim {
                return Err(IndexError::invalid("index blob", "sq8 param size"));
            }
            sq = Some(super::sq8::ScalarQuantizer::from_params(vmin, vstep));
        }
        IvfVariant::Pq => {
            let m = r.u32()? as usize;
            let ksub = r.u32()? as usize;
            if m == 0 || !dim.is_multiple_of(m) {
                return Err(IndexError::invalid("index blob", "pq m"));
            }
            let mut codebooks = Vec::with_capacity(m);
            for _ in 0..m {
                let cb = r.vectors()?;
                if cb.len() != ksub || cb.dim() != dim / m {
                    return Err(IndexError::invalid("index blob", "pq codebook shape"));
                }
                codebooks.push(cb);
            }
            pq = Some(super::pq::ProductQuantizer::from_codebooks(dim, m, ksub, codebooks));
        }
    }

    let nlist = r.u32()? as usize;
    let mut buckets = Vec::with_capacity(nlist);
    for _ in 0..nlist {
        let n_ids = r.u64()? as usize;
        let mut ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            let raw = r.take(8)?;
            ids.push(i64::from_le_bytes(raw.try_into().expect("8 bytes")));
        }
        let mut rows = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            rows.push(r.u32()?);
        }
        // A mask is indexed by these: every one must name an indexed row,
        // ascending as a build leaves them.
        if rows.windows(2).any(|w| w[0] >= w[1]) || rows.last().is_some_and(|&r| r as usize >= len) {
            return Err(IndexError::invalid("index blob", "bucket ordinals out of order or range"));
        }
        let data = match variant {
            IvfVariant::Flat => {
                let vs = r.vectors()?;
                if vs.len() != n_ids {
                    return Err(IndexError::invalid("index blob", "bucket row mismatch"));
                }
                super::BucketData::Flat(vs)
            }
            IvfVariant::Sq8 | IvfVariant::Pq => {
                let n = r.u64()? as usize;
                let codes = r.take(n)?.to_vec();
                let width = if variant == IvfVariant::Sq8 {
                    dim
                } else {
                    pq.as_ref().expect("pq").m()
                };
                if n != n_ids * width {
                    return Err(IndexError::invalid("index blob", "code length mismatch"));
                }
                if variant == IvfVariant::Sq8 {
                    super::BucketData::Sq8(codes)
                } else {
                    super::BucketData::Pq(codes)
                }
            }
        };
        buckets.push(super::Bucket { ids, rows, data });
    }

    IvfIndex::from_parts(variant, metric, dim, len, centroids, buckets, sq, pq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{BuildParams, SearchParams, VectorIndex};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(n: usize, dim: usize) -> (VectorSet, Vec<i64>) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut vs = VectorSet::new(dim);
        for i in 0..n {
            let c = (i % 8) as f32 * 3.0;
            let v: Vec<f32> = (0..dim).map(|_| c + rng.gen_range(-0.3f32..0.3)).collect();
            vs.push(&v);
        }
        (vs, (0..n as i64).collect())
    }

    fn roundtrip(variant: IvfVariant, metric: Metric) {
        let (vs, ids) = data(400, 8);
        let params = BuildParams { metric, nlist: 16, kmeans_iters: 5, pq_m: 4, ..Default::default() };
        let original = IvfIndex::build(variant, &vs, &ids, &params).unwrap();
        let blob = encode_ivf(&original);
        let decoded = decode_ivf(&blob).unwrap();
        assert_eq!(decoded.variant(), variant);
        assert_eq!(decoded.len_rows(), 400);
        // Search results must be identical.
        let sp = SearchParams { k: 10, nprobe: 16, ..Default::default() };
        let evens = (0..400).filter(|r| r % 2 == 0).collect::<Vec<u32>>();
        let evens = crate::RowMask::from_positions(400, &evens);
        for probe in [0usize, 17, 333] {
            let a = original.search(vs.get(probe), &sp).unwrap();
            let b = decoded.search(vs.get(probe), &sp).unwrap();
            assert_eq!(a, b, "{variant:?}/{metric} probe {probe}");
            let a = original.search_masked(vs.get(probe), &sp, &evens).unwrap();
            let b = decoded.search_masked(vs.get(probe), &sp, &evens).unwrap();
            assert_eq!(a, b, "{variant:?}/{metric} probe {probe} (masked)");
            assert!(a.iter().all(|n| n.id % 2 == 0));
        }
    }

    #[test]
    fn flat_roundtrip_l2() {
        roundtrip(IvfVariant::Flat, Metric::L2);
    }

    #[test]
    fn sq8_roundtrip_l2() {
        roundtrip(IvfVariant::Sq8, Metric::L2);
    }

    #[test]
    fn pq_roundtrip_l2() {
        roundtrip(IvfVariant::Pq, Metric::L2);
    }

    #[test]
    fn flat_roundtrip_cosine() {
        roundtrip(IvfVariant::Flat, Metric::Cosine);
    }

    #[test]
    fn sq8_roundtrip_ip() {
        roundtrip(IvfVariant::Sq8, Metric::InnerProduct);
    }

    #[test]
    fn corrupt_blobs_rejected() {
        let (vs, ids) = data(100, 4);
        let params = BuildParams { nlist: 8, kmeans_iters: 3, ..Default::default() };
        let idx = IvfIndex::build(IvfVariant::Flat, &vs, &ids, &params).unwrap();
        let blob = encode_ivf(&idx);
        assert!(decode_ivf(b"XXXX").is_err());
        // The previous format (no ordinals) is a loud error, not a second reader.
        let mut old = blob.clone();
        old[..4].copy_from_slice(b"MIVF");
        assert!(decode_ivf(&old).is_err());
        for cut in [0, 3, 5, 20, blob.len() / 2, blob.len() - 1] {
            assert!(decode_ivf(&blob[..cut]).is_err(), "cut {cut}");
        }
        // Flipped variant byte out of range.
        let mut bad = blob.clone();
        bad[4] = 9;
        assert!(decode_ivf(&bad).is_err());
    }
}
