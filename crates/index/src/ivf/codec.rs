//! Binary serialization of IVF indexes — "both index and data are stored in
//! the same segment" (§2.3), so the storage layer persists built indexes
//! alongside the vectors instead of rebuilding them on every load.
//!
//! Little-endian layout, every array written whole:
//! `magic "MIV3" | variant u8 | metric name | dim u32 | len u64 |
//!  centroids | fine-quantizer params | offsets (nlist + 1 × u32) |
//!  ids (len × i64) | rows (len × u32) | payload`
//!
//! The payload is the SQ8/PQ codes, or for FLAT under Cosine the normalized
//! vectors. FLAT under L2/IP writes **none**: those vectors are the segment's
//! column ([`IvfIndex::shared_vectors`]), which the segment codec writes once
//! and hands back to [`decode_ivf`].
//!
//! `"MIV2"` blobs carried a copy of the vectors per bucket; they are refused
//! at the magic, not read around.

use std::sync::Arc;

use crate::error::{IndexError, Result};
use crate::metric::Metric;
use crate::traits::VectorIndex;
use crate::vectors::VectorSet;

use super::{IvfIndex, IvfVariant, Payload};

const MAGIC: &[u8; 4] = b"MIV3";

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

fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    xs.iter().for_each(|&x| put_u32(out, x));
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

    /// The bytes of `n` values `width` wide, bounds-checked before anything
    /// is allocated for them.
    fn array(&mut self, n: usize, width: usize) -> Result<&'a [u8]> {
        let bytes = n
            .checked_mul(width)
            .ok_or_else(|| IndexError::invalid("index blob", "length overflow"))?;
        self.take(bytes)
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        let raw = self.array(n, 4)?.chunks_exact(4);
        Ok(raw.map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect())
    }

    fn i64s(&mut self, n: usize) -> Result<Vec<i64>> {
        let raw = self.array(n, 8)?.chunks_exact(8);
        Ok(raw.map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes"))).collect())
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
    let external = index.shared_vectors().map_or(0, |vs| vs.memory_bytes());
    let mut out = Vec::with_capacity(index.memory_bytes() - external + 64);
    out.extend_from_slice(MAGIC);
    out.push(match index.variant() {
        IvfVariant::Flat => 0,
        IvfVariant::Sq8 => 1,
        IvfVariant::Pq => 2,
    });
    put_str(&mut out, index.metric.name());
    put_u32(&mut out, index.dim() as u32);
    put_u64(&mut out, index.len_rows() as u64);
    put_vectors(&mut out, index.centroids());

    match &index.payload {
        Payload::Flat(_) => {}
        Payload::Sq8 { quantizer, .. } => {
            put_f32s(&mut out, quantizer.vmin());
            put_f32s(&mut out, quantizer.vstep());
        }
        Payload::Pq { quantizer, .. } => {
            put_u32(&mut out, quantizer.m() as u32);
            put_u32(&mut out, quantizer.ksub() as u32);
            for sub in 0..quantizer.m() {
                put_vectors(&mut out, quantizer.codebook(sub));
            }
        }
    }

    put_u32s(&mut out, &index.offsets);
    for &id in &index.ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    put_u32s(&mut out, &index.rows);
    match &index.payload {
        Payload::Flat(normalized) if index.shared_vectors().is_none() => {
            put_vectors(&mut out, normalized)
        }
        Payload::Flat(_) => {}
        Payload::Sq8 { codes, .. } | Payload::Pq { codes, .. } => out.extend_from_slice(codes),
    }
    out
}

/// Deserialize an IVF index from bytes produced by [`encode_ivf`]. `vectors`
/// is the segment column the index was sharing when it was encoded, in slot
/// order — required by exactly the blobs that carry no payload of their own.
pub fn decode_ivf(buf: &[u8], vectors: Option<Arc<VectorSet>>) -> Result<IvfIndex> {
    let mut r = Reader::new(buf);
    if r.take(4)? != MAGIC {
        return Err(IndexError::invalid("index blob", "bad magic"));
    }
    let variant = r.u8()?;
    let metric = Metric::parse(&r.str()?)
        .ok_or_else(|| IndexError::invalid("index blob", "bad metric"))?;
    let dim = r.u32()? as usize;
    let len = r.u64()? as usize;
    let centroids = r.vectors()?;

    let mut sq = None;
    let mut pq = None;
    match variant {
        0 => {}
        1 => {
            let vmin = r.f32s()?;
            let vstep = r.f32s()?;
            if vmin.len() != dim || vstep.len() != dim {
                return Err(IndexError::invalid("index blob", "sq8 param size"));
            }
            sq = Some(super::sq8::ScalarQuantizer::from_params(vmin, vstep));
        }
        2 => {
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
        v => return Err(IndexError::invalid("index blob", format!("bad variant {v}"))),
    }

    let offsets = r.u32s(centroids.len() + 1)?;
    let ids = r.i64s(len)?;
    let rows = r.u32s(len)?;
    let payload = match (sq, pq) {
        (Some(quantizer), _) => {
            Payload::Sq8 { quantizer, codes: r.array(len, dim)?.to_vec() }
        }
        (_, Some(quantizer)) => {
            let codes = r.array(len, quantizer.m())?.to_vec();
            Payload::Pq { quantizer, codes }
        }
        _ if metric == Metric::Cosine => Payload::Flat(Arc::new(r.vectors()?)),
        _ => Payload::Flat(vectors.ok_or_else(|| {
            IndexError::invalid("index blob", "its vectors are a segment column, and none was given")
        })?),
    };
    IvfIndex::from_parts(metric, dim, centroids, offsets, ids, rows, payload)
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
        let decoded = decode_ivf(&blob, original.shared_vectors().cloned()).unwrap();
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

    /// A FLAT index under L2 persists structure only: the blob is a few
    /// bytes per row, and decoding needs the vectors handed back.
    #[test]
    fn flat_blob_carries_no_vectors() {
        let (vs, ids) = data(400, 8);
        let params = BuildParams { nlist: 16, kmeans_iters: 5, ..Default::default() };
        let index = IvfIndex::build(IvfVariant::Flat, &vs, &ids, &params).unwrap();
        let blob = encode_ivf(&index);
        let structure = 400 * (8 + 4) + 17 * 4 + 16 * 8 * 4;
        assert!(blob.len() < structure + 64, "{} bytes", blob.len());
        assert!(decode_ivf(&blob, None).is_err());
        let wrong_rows = Arc::new(vs.gather(&[0, 1, 2]));
        assert!(decode_ivf(&blob, Some(wrong_rows)).is_err());
        let shared = Arc::clone(index.shared_vectors().unwrap());
        let decoded = decode_ivf(&blob, Some(Arc::clone(&shared))).unwrap();
        assert!(Arc::ptr_eq(decoded.shared_vectors().unwrap(), &shared));
    }

    /// Blobs over a seeded 5 000 × 128 set hash (FNV-1a) to the values the
    /// serial k-means build wrote: a training pass split across cores must
    /// leave centroids, bucket order, codebooks and codes bit for bit. The
    /// distance kernels agree bitwise at every SIMD level, so one value per
    /// variant holds on every host.
    #[test]
    fn blobs_match_the_serial_build_golden_hashes() {
        let mut rng = StdRng::seed_from_u64(0x601D);
        let centers: Vec<Vec<f32>> =
            (0..32).map(|_| (0..128).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let mut vs = VectorSet::with_capacity(128, 5000);
        for _ in 0..5000 {
            let c = &centers[rng.gen_range(0..32usize)];
            let v: Vec<f32> = c.iter().map(|&x| x + rng.gen_range(-0.5f32..0.5)).collect();
            vs.push(&v);
        }
        let ids: Vec<i64> = (0..5000).collect();
        let params =
            BuildParams { nlist: 64, kmeans_iters: 6, pq_m: 16, pq_nbits: 6, ..Default::default() };
        let fnv1a = |bytes: &[u8]| {
            let step = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, step)
        };
        for (variant, golden) in [
            (IvfVariant::Flat, 0x35cd_dcb2_2328_b93e),
            (IvfVariant::Sq8, 0xf537_eba3_658e_58bf),
            (IvfVariant::Pq, 0x127c_6585_1170_a304),
        ] {
            let index = IvfIndex::build(variant, &vs, &ids, &params).unwrap();
            assert_eq!(fnv1a(&encode_ivf(&index)), golden, "{variant:?}");
        }
    }

    #[test]
    fn corrupt_blobs_rejected() {
        let (vs, ids) = data(100, 4);
        let params = BuildParams { nlist: 8, kmeans_iters: 3, ..Default::default() };
        let idx = IvfIndex::build(IvfVariant::Flat, &vs, &ids, &params).unwrap();
        let shared = || idx.shared_vectors().cloned();
        let blob = encode_ivf(&idx);
        assert!(decode_ivf(&blob, shared()).is_ok());
        assert!(decode_ivf(b"XXXX", shared()).is_err());
        // The previous format (vectors copied per bucket) is a loud error,
        // not a second reader.
        let mut old = blob.clone();
        old[..4].copy_from_slice(b"MIV2");
        assert!(decode_ivf(&old, shared()).is_err());
        for cut in [0, 3, 5, 20, blob.len() / 2, blob.len() - 1] {
            assert!(decode_ivf(&blob[..cut], shared()).is_err(), "cut {cut}");
        }
        // Flipped variant byte out of range.
        let mut bad = blob.clone();
        bad[4] = 9;
        assert!(decode_ivf(&bad, shared()).is_err());

        // The arrays sit at the end: offsets (9 × u32), ids, rows.
        let offsets_at = blob.len() - 100 * (8 + 4) - 9 * 4;
        let patch = |at: usize, v: u32| {
            let mut bad = blob.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            decode_ivf(&bad, shared())
        };
        // Offsets that do not start at 0, run backwards, or stop short of
        // the row count.
        assert!(patch(offsets_at, 1).is_err());
        assert!(patch(offsets_at + 4, 101).is_err());
        assert!(patch(offsets_at + 8 * 4, 99).is_err());
        // A row ordinal beyond the indexed rows, or out of order in its
        // bucket.
        let rows_at = blob.len() - 100 * 4;
        assert!(patch(rows_at, 100).is_err());
        let bucket = (0..8).find(|&b| idx.bucket_len(b) >= 2).unwrap();
        let second = rows_at + (idx.offsets[bucket] as usize + 1) * 4;
        assert!(patch(second, idx.bucket_rows(bucket)[0]).is_err());
    }
}
