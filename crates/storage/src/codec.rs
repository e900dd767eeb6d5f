//! Binary segment codec — the on-disk/object-store format of a segment.
//!
//! Little-endian layout:
//! `magic "MSG1" | n_rows u64 | n_vec u32 | n_attr u32 | row_ids |
//!  per-vector-column (dim u32, f32 payload) |
//!  per-attribute-column (name, (value,row) pairs) |
//!  tombstones (count u64, ids)`
//!
//! Attribute columns are persisted in key order and rebuilt (with fresh skip
//! pointers) on decode.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use milvus_index::VectorSet;

use crate::attribute::AttributeColumn;
use crate::error::{Result, StorageError};
use crate::segment::{Segment, SegmentData};

const MAGIC: &[u8; 4] = b"MSG1";

/// Append `xs` as little-endian `f32`s: one bulk copy per kilobyte-sized
/// chunk instead of one `put` per value (on little-endian targets the inner
/// loop compiles to a plain copy). Shared by the segment codec and the log
/// frame ([`crate::wal`]).
pub fn put_f32s(buf: &mut impl BufMut, xs: &[f32]) {
    let mut chunk_bytes = [0u8; 4096];
    for chunk in xs.chunks(chunk_bytes.len() / 4) {
        let bytes = &mut chunk_bytes[..chunk.len() * 4];
        for (dst, x) in bytes.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        buf.put_slice(bytes);
    }
}

/// Take `n` little-endian `f32`s off the front of `buf`.
///
/// # Panics
/// Panics if `buf` holds fewer than `n * 4` bytes — callers bound `n`
/// against `buf.remaining()` first, as for every other length they read.
pub fn get_f32s(buf: &mut &[u8], n: usize) -> Vec<f32> {
    let (head, rest) = buf.split_at(n * 4);
    *buf = rest;
    head.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// Serialize a segment (payload + tombstones; indexes are rebuilt on load).
pub fn encode_segment(seg: &Segment) -> Bytes {
    let data = seg.data();
    let mut buf = BytesMut::with_capacity(data.memory_bytes() + 64);
    buf.put_slice(MAGIC);
    buf.put_u64_le(data.row_ids.len() as u64);
    buf.put_u32_le(data.vectors.len() as u32);
    buf.put_u32_le(data.attributes.len() as u32);
    for &id in &data.row_ids {
        buf.put_i64_le(id);
    }
    for col in &data.vectors {
        buf.put_u32_le(col.dim() as u32);
        put_f32s(&mut buf, col.as_flat());
    }
    for col in &data.attributes {
        let name = col.name().as_bytes();
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        buf.put_u64_le(col.len() as u64);
        for (v, row) in col.iter() {
            buf.put_f64_le(v);
            buf.put_i64_le(data.row_ids[row]);
        }
    }
    let deleted = seg.deleted();
    buf.put_u64_le(deleted.len() as u64);
    for id in deleted {
        buf.put_i64_le(id);
    }

    // Serializable indexes ride with the segment (§2.3: "Both index and
    // data are stored in the same segment"). Only IVF indexes serialize;
    // graph/tree indexes are rebuilt after a load.
    let persistable: Vec<(String, Vec<u8>)> = seg
        .indexes_snapshot()
        .into_iter()
        .filter_map(|(field, ix)| {
            ix.as_ivf().map(|ivf| (field, milvus_index::ivf::codec::encode_ivf(ivf)))
        })
        .collect();
    buf.put_u32_le(persistable.len() as u32);
    for (field, blob) in persistable {
        let name = field.as_bytes();
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        buf.put_u64_le(blob.len() as u64);
        buf.put_slice(&blob);
    }
    buf.freeze()
}

/// Deserialize a segment previously produced by [`encode_segment`].
pub fn decode_segment(id: u64, version: u64, mut buf: &[u8]) -> Result<Segment> {
    let corrupt = |msg: &str| StorageError::Corrupt(msg.to_string());
    if buf.remaining() < 4 || &buf[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    buf.advance(4);
    if buf.remaining() < 16 {
        return Err(corrupt("truncated header"));
    }
    let n_rows = buf.get_u64_le() as usize;
    let n_vec = buf.get_u32_le() as usize;
    let n_attr = buf.get_u32_le() as usize;

    if buf.remaining() < n_rows * 8 {
        return Err(corrupt("truncated row ids"));
    }
    let mut row_ids = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        row_ids.push(buf.get_i64_le());
    }

    let mut vectors = Vec::with_capacity(n_vec);
    for _ in 0..n_vec {
        if buf.remaining() < 4 {
            return Err(corrupt("truncated vector column header"));
        }
        let dim = buf.get_u32_le() as usize;
        if dim == 0 {
            return Err(corrupt("zero-dim vector column"));
        }
        let need = n_rows * dim * 4;
        if buf.remaining() < need {
            return Err(corrupt("truncated vector payload"));
        }
        vectors.push(VectorSet::from_flat(dim, get_f32s(&mut buf, n_rows * dim)));
    }

    let mut attributes = Vec::with_capacity(n_attr);
    for _ in 0..n_attr {
        if buf.remaining() < 4 {
            return Err(corrupt("truncated attribute header"));
        }
        let name_len = buf.get_u32_le() as usize;
        if buf.remaining() < name_len {
            return Err(corrupt("truncated attribute name"));
        }
        let name = String::from_utf8(buf[..name_len].to_vec())
            .map_err(|_| corrupt("attribute name not utf8"))?;
        buf.advance(name_len);
        if buf.remaining() < 8 {
            return Err(corrupt("truncated attribute count"));
        }
        let n = buf.get_u64_le() as usize;
        if buf.remaining() < n * 16 {
            return Err(corrupt("truncated attribute entries"));
        }
        if n != n_rows {
            return Err(corrupt("attribute column does not cover the rows"));
        }
        // Pairs arrive in key order and name rows by id; the column holds
        // one value per row position.
        let mut values = vec![f64::NAN; n];
        let mut seen = vec![false; n];
        for _ in 0..n {
            let (value, id) = (buf.get_f64_le(), buf.get_i64_le());
            let row = row_ids.binary_search(&id).map_err(|_| corrupt("attribute of unknown row"))?;
            if std::mem::replace(&mut seen[row], true) {
                return Err(corrupt("two attribute values for one row"));
            }
            values[row] = value;
        }
        attributes.push(AttributeColumn::build(name, values));
    }

    if buf.remaining() < 8 {
        return Err(corrupt("truncated tombstone count"));
    }
    let n_del = buf.get_u64_le() as usize;
    if buf.remaining() < n_del * 8 {
        return Err(corrupt("truncated tombstones"));
    }
    let deleted: Vec<i64> = (0..n_del).map(|_| buf.get_i64_le()).collect();

    let segment =
        Segment::from_parts(id, version, SegmentData { row_ids, vectors, attributes }, &deleted);

    // Optional trailing index section (absent in blobs written before index
    // persistence existed).
    if buf.remaining() > 0 {
        if buf.remaining() < 4 {
            return Err(corrupt("truncated index count"));
        }
        let n_idx = buf.get_u32_le() as usize;
        for _ in 0..n_idx {
            if buf.remaining() < 4 {
                return Err(corrupt("truncated index header"));
            }
            let name_len = buf.get_u32_le() as usize;
            if buf.remaining() < name_len {
                return Err(corrupt("truncated index name"));
            }
            let field = String::from_utf8(buf[..name_len].to_vec())
                .map_err(|_| corrupt("index field not utf8"))?;
            buf.advance(name_len);
            if buf.remaining() < 8 {
                return Err(corrupt("truncated index size"));
            }
            let blob_len = buf.get_u64_le() as usize;
            if buf.remaining() < blob_len {
                return Err(corrupt("truncated index blob"));
            }
            let index = milvus_index::ivf::codec::decode_ivf(&buf[..blob_len])?;
            // A scan hands the index a mask over row positions.
            if index.len_rows() != n_rows {
                return Err(corrupt("index does not cover the rows"));
            }
            buf.advance(blob_len);
            segment.attach_index(field, std::sync::Arc::new(index));
        }
    }

    Ok(segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{InsertBatch, Schema};
    use milvus_index::Metric;

    fn sample_segment() -> (Schema, Segment) {
        let schema = Schema::single("v", 3, Metric::L2).with_attribute("price");
        let mut vs = VectorSet::new(3);
        for i in 0..10 {
            vs.push(&[i as f32, 2.0 * i as f32, -0.5]);
        }
        let batch = InsertBatch {
            ids: (0..10).collect(),
            vectors: vec![vs],
            attributes: vec![(0..10).map(|i| 100.0 + i as f64).collect()],
        };
        let seg = Segment::from_batch(7, &schema, &batch).unwrap().with_deletes([3, 8]);
        (schema, seg)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (_, seg) = sample_segment();
        let bytes = encode_segment(&seg);
        let back = decode_segment(seg.id, seg.version, &bytes).unwrap();
        assert_eq!(back.data().row_ids, seg.data().row_ids);
        assert_eq!(back.data().vectors[0].as_flat(), seg.data().vectors[0].as_flat());
        assert_eq!(back.deleted(), seg.deleted());
        assert_eq!(back.data().attributes[0].name(), "price");
        assert_eq!(back.data().attributes[0].point_rows(105.0), &[5]);
    }

    /// The blob format is pinned byte for byte (the bulk f32 helpers must not
    /// move it): written out by hand from the layout in the module docs.
    #[test]
    fn segment_blob_matches_golden_bytes() {
        let schema = Schema::single("v", 2, Metric::L2).with_attribute("a");
        let batch = InsertBatch {
            ids: vec![1, 2],
            vectors: vec![VectorSet::from_flat(2, vec![1.0, -2.5, 0.0, 3.25])],
            attributes: vec![vec![0.5, 2.0]],
        };
        let seg = Segment::from_batch(7, &schema, &batch).unwrap().with_deletes([2]);
        #[rustfmt::skip]
        let golden: &[u8] = &[
            b'M', b'S', b'G', b'1',
            2, 0, 0, 0, 0, 0, 0, 0,             // n_rows
            1, 0, 0, 0,                         // n_vec
            1, 0, 0, 0,                         // n_attr
            1, 0, 0, 0, 0, 0, 0, 0,             // row id 1
            2, 0, 0, 0, 0, 0, 0, 0,             // row id 2
            2, 0, 0, 0,                         // dim
            0x00, 0x00, 0x80, 0x3F,             // 1.0
            0x00, 0x00, 0x20, 0xC0,             // -2.5
            0x00, 0x00, 0x00, 0x00,             // 0.0
            0x00, 0x00, 0x50, 0x40,             // 3.25
            1, 0, 0, 0, b'a',                   // attribute name
            2, 0, 0, 0, 0, 0, 0, 0,             // entries
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F,       // 0.5
            1, 0, 0, 0, 0, 0, 0, 0,             //   of row 1
            0, 0, 0, 0, 0, 0, 0x00, 0x40,       // 2.0
            2, 0, 0, 0, 0, 0, 0, 0,             //   of row 2
            1, 0, 0, 0, 0, 0, 0, 0,             // tombstones
            2, 0, 0, 0, 0, 0, 0, 0,             //   id 2
            0, 0, 0, 0,                         // indexes
        ];
        assert_eq!(&encode_segment(&seg)[..], golden);
        let back = decode_segment(7, seg.version, golden).unwrap();
        assert_eq!(back.data().vectors[0].as_flat(), &[1.0, -2.5, 0.0, 3.25]);
    }

    /// The bulk helpers agree with the one-value accessors at every length
    /// around their chunk size.
    #[test]
    fn bulk_f32_helpers_match_the_per_value_accessors() {
        for n in [0usize, 1, 3, 1023, 1024, 1025, 2500] {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 - 7.5) * 0.37).collect();
            let (mut bulk, mut each) = (Vec::new(), Vec::new());
            put_f32s(&mut bulk, &xs);
            xs.iter().for_each(|&x| each.put_f32_le(x));
            assert_eq!(bulk, each, "n = {n}");
            bulk.push(0xAA);
            let mut cursor = &bulk[..];
            assert_eq!(get_f32s(&mut cursor, n), xs, "n = {n}");
            assert_eq!(cursor, [0xAA], "exactly n values consumed");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            decode_segment(1, 1, b"XXXXrest"),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_detected_not_panicking() {
        let (_, seg) = sample_segment();
        let bytes = encode_segment(&seg);
        // Every prefix must decode to an error, never panic.
        for cut in [0, 3, 4, 10, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_segment(1, 1, &bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn index_rides_with_the_segment() {
        use milvus_index::registry::IndexRegistry;
        use milvus_index::traits::{BuildParams, SearchParams};

        let schema = Schema::single("v", 4, Metric::L2);
        let mut vs = VectorSet::new(4);
        for i in 0..300 {
            vs.push(&[i as f32, 0.0, 0.0, 0.0]);
        }
        let batch = InsertBatch::single((0..300).collect(), vs);
        let seg = Segment::from_batch(1, &schema, &batch).unwrap();
        let registry = IndexRegistry::with_builtins();
        let params = BuildParams { nlist: 8, kmeans_iters: 4, ..Default::default() };
        let indexed = seg.build_index(&schema, "v", "IVF_SQ8", &registry, &params).unwrap();

        let blob = encode_segment(&indexed);
        let decoded = decode_segment(indexed.id, indexed.version, &blob).unwrap();
        // The IVF index came back with the segment — no rebuild needed.
        let ix = decoded.index("v").expect("persisted index");
        assert_eq!(ix.name(), "IVF_SQ8");
        let sp = SearchParams { k: 3, nprobe: 8, ..Default::default() };
        let res = decoded
            .search_field(&schema, "v", &[42.0, 0.0, 0.0, 0.0], &sp, None)
            .unwrap();
        assert_eq!(res[0].id, 42);
    }

    #[test]
    fn graph_indexes_not_persisted_but_segment_loads() {
        use milvus_index::registry::IndexRegistry;
        use milvus_index::traits::BuildParams;

        let schema = Schema::single("v", 4, Metric::L2);
        let mut vs = VectorSet::new(4);
        for i in 0..100 {
            vs.push(&[i as f32, 0.0, 0.0, 0.0]);
        }
        let batch = InsertBatch::single((0..100).collect(), vs);
        let seg = Segment::from_batch(1, &schema, &batch).unwrap();
        let registry = IndexRegistry::with_builtins();
        let indexed =
            seg.build_index(&schema, "v", "HNSW", &registry, &BuildParams::default()).unwrap();
        let decoded =
            decode_segment(1, 2, &encode_segment(&indexed)).unwrap();
        assert!(decoded.index("v").is_none(), "HNSW is rebuilt, not persisted");
        assert_eq!(decoded.num_rows(), 100);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let schema = Schema::single("v", 2, Metric::L2);
        let batch = InsertBatch::single(vec![], VectorSet::new(2));
        let seg = Segment::from_batch(1, &schema, &batch).unwrap();
        let back = decode_segment(1, 1, &encode_segment(&seg)).unwrap();
        assert_eq!(back.num_rows(), 0);
    }
}
