//! Binary segment codec — the on-disk/object-store format of a segment.
//!
//! Little-endian layout:
//! `magic "MSG1" | n_rows u64 | n_vec u32 | n_attr u32 | row_ids |
//!  per-vector-column (dim u32, f32 payload [, slot_of_row u32 × n_rows]) |
//!  per-attribute-column (name, (value,row) pairs) |
//!  tombstones (count u64, ids) |
//!  indexes (count u32, then per index: field name, column u32, blob)`
//!
//! Every vector column is written **once**, in its physical order. A column
//! that shares an IVF_FLAT index's bucket-ordered buffer sets the top bit of
//! its `dim` word and appends its permutation; the index's entry names that
//! column and its blob carries structure only, so decoding hands one buffer
//! to both ([`crate::column::VectorColumn`]). An entry whose blob carries
//! its own payload (SQ8/PQ codes, Cosine's normalized vectors) names
//! [`NO_COLUMN`]. Only IVF indexes are persisted; graph and tree indexes are
//! rebuilt after a load.
//!
//! Attribute columns are persisted in key order and rebuilt (with fresh skip
//! pointers) on decode.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use milvus_index::ivf::codec::{decode_ivf, encode_ivf};
use milvus_index::VectorSet;

use crate::attribute::AttributeColumn;
use crate::column::VectorColumn;
use crate::error::{Result, StorageError};
use crate::segment::{Segment, SegmentData};

const MAGIC: &[u8; 4] = b"MSG1";

/// Top bit of a vector column's `dim` word: the payload is in slot order and
/// the permutation follows it.
const PERMUTED: u32 = 1 << 31;

/// The `column` of an index entry whose blob carries its own payload.
const NO_COLUMN: u32 = u32::MAX;

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

/// Serialize a segment: payload, tombstones and its IVF indexes.
pub fn encode_segment(seg: &Segment) -> Bytes {
    let data = seg.data();
    let mut buf = BytesMut::with_capacity(seg.memory_bytes() + 64);
    buf.put_slice(MAGIC);
    buf.put_u64_le(data.row_ids.len() as u64);
    buf.put_u32_le(data.vectors.len() as u32);
    buf.put_u32_le(data.attributes.len() as u32);
    for &id in &data.row_ids {
        buf.put_i64_le(id);
    }
    for col in &data.vectors {
        let permutation = col.slot_of_row();
        buf.put_u32_le(col.dim() as u32 | if permutation.is_some() { PERMUTED } else { 0 });
        put_f32s(&mut buf, col.buffer().as_flat());
        for &slot in permutation.unwrap_or_default() {
            buf.put_u32_le(slot);
        }
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
    let indexes = seg.indexes_snapshot();
    let persistable: Vec<_> =
        indexes.iter().filter_map(|(field, ix)| Some((field, ix.as_ivf()?))).collect();
    buf.put_u32_le(persistable.len() as u32);
    for (field, ivf) in persistable {
        let name = field.as_bytes();
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        // An index enters a segment through `build_index` or a decode, and
        // both make its verbatim vectors the column's buffer.
        let column = ivf.shared_vectors().map_or(NO_COLUMN, |buf| {
            let sharing = data.vectors.iter().position(|col| Arc::ptr_eq(col.buffer(), buf));
            sharing.expect("an index's verbatim vectors are its segment's column") as u32
        });
        buf.put_u32_le(column);
        let blob = encode_ivf(ivf);
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
        let tag = buf.get_u32_le();
        let dim = (tag & !PERMUTED) as usize;
        if dim == 0 {
            return Err(corrupt("zero-dim vector column"));
        }
        let need = n_rows * dim * 4;
        if buf.remaining() < need {
            return Err(corrupt("truncated vector payload"));
        }
        let payload = VectorSet::from_flat(dim, get_f32s(&mut buf, n_rows * dim));
        vectors.push(if tag & PERMUTED == 0 {
            VectorColumn::from(payload)
        } else {
            if buf.remaining() < n_rows * 4 {
                return Err(corrupt("truncated column permutation"));
            }
            let slot_of_row = (0..n_rows).map(|_| buf.get_u32_le()).collect();
            VectorColumn::permuted(Arc::new(payload), slot_of_row)?
        });
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
            if buf.remaining() < 12 {
                return Err(corrupt("truncated index size"));
            }
            let column = match buf.get_u32_le() {
                NO_COLUMN => None,
                c => Some(
                    segment.data().vectors.get(c as usize).ok_or(corrupt("index of no column"))?,
                ),
            };
            let blob_len = buf.get_u64_le() as usize;
            if buf.remaining() < blob_len {
                return Err(corrupt("truncated index blob"));
            }
            let shared = column.map(|col| Arc::clone(col.buffer()));
            let index = decode_ivf(&buf[..blob_len], shared)
                .map_err(|e| corrupt(&format!("index blob: {e}")))?;
            // A scan hands the index a mask over row positions.
            if index.len_rows() != n_rows {
                return Err(corrupt("index does not cover the rows"));
            }
            // Column and index address one buffer: where the index scans row
            // `r` must be where the column reads it.
            if let Some(col) = column {
                let mut slot_to_row = index.rows().iter().enumerate();
                if !slot_to_row.all(|(slot, &row)| col.slot(row as usize) == slot) {
                    return Err(corrupt("index and column disagree on the vector order"));
                }
            }
            buf.advance(blob_len);
            segment.attach_index(field, Arc::new(index));
        }
    }

    Ok(segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{InsertBatch, Schema};
    use crate::segment::Fanout;
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
        assert!(back.data().vectors[0].iter().eq(seg.data().vectors[0].iter()));
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
        assert_eq!(back.data().vectors[0].buffer().as_flat(), &[1.0, -2.5, 0.0, 3.25]);
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

    fn flat_indexed(rows: usize, metric: Metric) -> (Schema, Segment, Segment) {
        use milvus_index::registry::IndexRegistry;
        use milvus_index::traits::BuildParams;

        let schema = Schema::single("v", 4, metric).with_attribute("a");
        let mut vs = VectorSet::new(4);
        for i in 0..rows {
            vs.push(&[(i as f32 * 0.37).sin(), (i as f32 * 0.11).cos(), i as f32, 1.0]);
        }
        let batch = InsertBatch {
            ids: (0..rows as i64).rev().collect(),
            vectors: vec![vs],
            attributes: vec![(0..rows).map(|i| (i % 10) as f64).collect()],
        };
        let plain = Segment::from_batch(1, &schema, &batch).unwrap().with_deletes([5, 6]);
        let params = BuildParams { nlist: 8, kmeans_iters: 4, ..Default::default() };
        let registry = IndexRegistry::with_builtins();
        let indexed = plain.build_index(&schema, "v", "IVF_FLAT", &registry, &params).unwrap();
        (schema, plain, indexed)
    }

    /// An IVF_FLAT segment is written with one copy of its vectors and comes
    /// back with one: column and index share the decoded buffer, every row
    /// still reads its own vector, and every search answers as before.
    #[test]
    fn flat_indexed_segment_roundtrips_as_one_buffer() {
        use milvus_index::traits::SearchParams;
        use milvus_index::RowMask;

        let (schema, plain, indexed) = flat_indexed(300, Metric::L2);
        let blob = encode_segment(&indexed);
        assert!(blob.len() < encode_segment(&plain).len() + 300 * (4 + 8 + 4) + 400);
        let back = decode_segment(indexed.id, indexed.version, &blob).unwrap();
        let index = back.index("v").expect("persisted index");
        let col = &back.data().vectors[0];
        assert!(Arc::ptr_eq(col.buffer(), index.as_ivf().unwrap().shared_vectors().unwrap()));
        assert_eq!(Arc::strong_count(col.buffer()), 2);
        assert!(col.iter().eq(plain.data().vectors[0].iter()));
        assert_eq!(back.memory_bytes(), indexed.memory_bytes());
        assert_eq!(&encode_segment(&back)[..], &blob[..], "re-encoding is stable");

        let sp = SearchParams { k: 7, nprobe: 3, ..Default::default() };
        let evens = RowMask::from_positions(300, &(0..300).step_by(2).collect::<Vec<u32>>());
        let queries: Vec<&[f32]> = [3, 150, 299].map(|r| plain.data().vectors[0].get(r)).to_vec();
        for allow in [None, Some(&evens)] {
            for q in &queries {
                assert_eq!(
                    back.search_field(&schema, "v", q, &sp, allow).unwrap(),
                    indexed.search_field(&schema, "v", q, &sp, allow).unwrap()
                );
            }
            let batch = |seg: &Segment| {
                seg.search_batch(&schema, "v", &queries, &[7, 2, 5], &sp, allow, Fanout::SERIAL).0
            };
            let (got, want) = (batch(&back), batch(&indexed));
            for (got, want) in got.into_iter().zip(want) {
                assert_eq!(got.unwrap(), want.unwrap());
            }
        }
    }

    /// Cosine's index keeps its normalized payload in its own blob; the
    /// column comes back in row order with the vectors as inserted.
    #[test]
    fn cosine_indexed_segment_roundtrips_with_both_buffers() {
        let (_, plain, indexed) = flat_indexed(200, Metric::Cosine);
        let back = decode_segment(1, 3, &encode_segment(&indexed)).unwrap();
        let index = back.index("v").expect("persisted index");
        assert!(index.as_ivf().unwrap().shared_vectors().is_none());
        assert!(back.data().vectors[0].slot_of_row().is_none());
        assert!(back.data().vectors[0].iter().eq(plain.data().vectors[0].iter()));
        assert_eq!(back.memory_bytes(), indexed.memory_bytes());
    }

    /// Decode-time validation of everything the shared layout adds: each
    /// damaged blob is `Corrupt`, never a panic or an out-of-bounds read.
    #[test]
    fn damaged_permutations_and_offsets_are_corrupt() {
        let (_, _, indexed) = flat_indexed(100, Metric::L2);
        let blob = encode_segment(&indexed).to_vec();
        assert!(decode_segment(1, 1, &blob).is_ok());
        let damaged = |at: usize, bytes: &[u8]| {
            let mut bad = blob.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            let got = decode_segment(1, 1, &bad);
            assert!(matches!(got, Err(StorageError::Corrupt(_))), "patch at {at}: {got:?}");
        };
        // The permutation follows the f32 payload of the one column.
        let perm_at = 4 + 16 + 100 * 8 + 4 + 100 * 4 * 4;
        let slot = |row: usize| &blob[perm_at + row * 4..perm_at + row * 4 + 4];
        // Not a bijection: two rows in one slot; a slot past the buffer.
        damaged(perm_at, slot(1));
        damaged(perm_at, &100u32.to_le_bytes());
        // A bijection, but not the one the index's `rows` describe.
        damaged(perm_at, &[slot(1), slot(0)].concat());
        // Offsets that run backwards, or stop short of the row count.
        let ivf_at = blob.windows(4).position(|w| w == b"MIV3").unwrap();
        let offsets_at = blob.len() - 100 * (8 + 4) - 9 * 4;
        damaged(offsets_at + 4, &101u32.to_le_bytes());
        damaged(offsets_at + 8 * 4, &99u32.to_le_bytes());
        // The previous index format is refused at its magic.
        damaged(ivf_at, b"MIV2");
        // An index entry naming a column the segment does not have.
        damaged(ivf_at - 8 - 4, &7u32.to_le_bytes());
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
