//! Write-ahead log (§5.1, §5.3).
//!
//! "When Milvus receives heavy write requests, it first materializes the
//! operations (similar to database logs) to disk and then acknowledges to
//! users." The log is one binary file of checksummed frames, little-endian:
//!
//! ```text
//! file   = magic "MLVSWAL1" | base_lsn u64 | frame*
//! frame  = len u32 | crc32 u32 | kind u8 | lsn u64 | payload
//!          (len and crc32 cover kind, lsn and payload)
//! insert = has_op u8 | op_id u64 | n_rows u32 | n_vec u32 | n_attr u32 |
//!          ids i64* | per vector column (dim u32, f32*) | per attribute f64*
//! delete = n u32 | ids i64*
//! flush checkpoint = no payload; its lsn is the highest LSN it covers
//! ```
//!
//! A frame is encoded from a borrowed batch into one reused buffer and
//! handed to the OS with a single `write_all` before the acknowledgement
//! (no fsync: the log survives a crash of the process, not of the machine).
//! In the distributed design (§5.3) the same frame, one per object, is what
//! the writer ships to shared storage instead of data pages, à la Aurora.
//!
//! **Torn tail vs corruption.** A crash can tear the last append, so a
//! frame that runs past end-of-file marks the end of the log: [`Wal::replay`]
//! stops there and [`Wal::open`] cuts it off. A *complete* frame whose
//! checksum fails, a file without the magic, or a frame that does not decode
//! is corruption: both refuse it with [`StorageError::Corrupt`] and leave the
//! file untouched. (A damaged `len` that points past end-of-file cannot be
//! told from a torn append; every other damaged byte is caught.)
//!
//! **Truncation.** [`Wal::truncate`] drops every frame a checkpoint covers;
//! the log stays one file. The header's `base_lsn` keeps LSNs monotone when
//! no frame is left, and frames below `base_lsn` count as covered.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut};
use milvus_index::VectorSet;
use milvus_obs as obs;

use crate::codec::{get_f32s, put_f32s};
use crate::entity::InsertBatch;
use crate::error::{Result, StorageError};

const MAGIC: &[u8; 8] = b"MLVSWAL1";
/// `magic | base_lsn`.
const HEADER_LEN: usize = 16;
/// `len | crc32`, ahead of the bytes they cover.
const PREFIX_LEN: usize = 8;
/// `kind | lsn`, the fixed start of the covered bytes.
const HEAD_LEN: usize = 9;
const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;
/// A frame buffer grown past this by one huge record is released after the
/// append instead of being kept for the next one.
const SCRATCH_KEEP: usize = 16 << 20;
/// Decode bound on a record's column counts (an attribute column of an empty
/// batch takes no bytes, so the frame length alone does not bound them).
const MAX_COLUMNS: usize = 1 << 16;

fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(format!("log: {msg}"))
}

/// One durable operation.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// An insert batch. `op_id` is the client-assigned operation id carried
    /// by shipped records (distributed log, §5.3): a standby writer dedupes
    /// replay and client retries against it, making inserts exactly-once
    /// across a writer failover. Local WALs leave it `None`.
    Insert { lsn: u64, op_id: Option<u64>, batch: InsertBatch },
    /// Tombstone the given entity ids.
    Delete { lsn: u64, ids: Vec<i64> },
    /// Everything up to `lsn` has been flushed into segments.
    FlushCheckpoint { lsn: u64 },
}

impl LogRecord {
    /// The record's log sequence number.
    pub fn lsn(&self) -> u64 {
        match self {
            LogRecord::Insert { lsn, .. }
            | LogRecord::Delete { lsn, .. }
            | LogRecord::FlushCheckpoint { lsn } => *lsn,
        }
    }

    /// Append the frame of an insert record to `out`.
    pub fn encode_insert(
        out: &mut Vec<u8>,
        lsn: u64,
        op_id: Option<u64>,
        batch: &InsertBatch,
    ) -> Result<()> {
        let counts = [batch.ids.len(), batch.vectors.len(), batch.attributes.len()];
        encode_frame(out, KIND_INSERT, lsn, |out| {
            out.put_u8(u8::from(op_id.is_some()));
            out.put_u64_le(op_id.unwrap_or(0));
            for n in counts {
                out.put_u32_le(n as u32); // a count past u32 overflows `len`, checked below
            }
            for &id in &batch.ids {
                out.put_i64_le(id);
            }
            for col in &batch.vectors {
                out.put_u32_le(col.dim() as u32);
                put_f32s(out, col.as_flat());
            }
            for col in &batch.attributes {
                for &v in col {
                    out.put_f64_le(v);
                }
            }
        })
    }

    /// Append the frame of a delete record to `out`.
    pub fn encode_delete(out: &mut Vec<u8>, lsn: u64, ids: &[i64]) -> Result<()> {
        encode_frame(out, KIND_DELETE, lsn, |out| {
            out.put_u32_le(ids.len() as u32); // as above
            for &id in ids {
                out.put_i64_le(id);
            }
        })
    }

    /// Append the frame of a flush checkpoint covering every LSN `<= lsn`.
    pub fn encode_checkpoint(out: &mut Vec<u8>, lsn: u64) -> Result<()> {
        encode_frame(out, KIND_CHECKPOINT, lsn, |_| {})
    }

    /// Decode a buffer holding exactly one frame (a shipped-log object).
    pub fn decode(buf: &[u8]) -> Result<LogRecord> {
        match split_frame(buf)? {
            Some(frame) if frame.size == buf.len() => frame.decode(),
            Some(_) => Err(corrupt("bytes after the frame")),
            None => Err(corrupt("truncated frame")),
        }
    }
}

/// Append `len | crc32 | kind | lsn | payload` to `out`.
fn encode_frame(
    out: &mut Vec<u8>,
    kind: u8,
    lsn: u64,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; PREFIX_LEN]);
    out.put_u8(kind);
    out.put_u64_le(lsn);
    payload(out);
    let covered = start + PREFIX_LEN;
    let Ok(len) = u32::try_from(out.len() - covered) else {
        let size = out.len() - covered;
        out.truncate(start);
        return Err(StorageError::SchemaViolation(format!(
            "a log record of {size} bytes exceeds the 4 GiB frame limit"
        )));
    };
    let crc = crc32(&out[covered..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..covered].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// A checksum-verified frame, borrowed from the bytes it was split off.
struct Frame<'a> {
    kind: u8,
    lsn: u64,
    payload: &'a [u8],
    /// Bytes the frame occupies, prefix included.
    size: usize,
}

/// Split the frame at the front of `buf`. `None`: `buf` ends before the
/// frame does (a torn append). A complete frame that fails its checksum is
/// an error.
fn split_frame(buf: &[u8]) -> Result<Option<Frame<'_>>> {
    let Some(mut prefix) = buf.get(..PREFIX_LEN) else { return Ok(None) };
    let len = prefix.get_u32_le() as usize;
    let crc = prefix.get_u32_le();
    let Some(mut covered) = buf[PREFIX_LEN..].get(..len) else { return Ok(None) };
    if crc32(covered) != crc {
        return Err(corrupt("frame checksum mismatch"));
    }
    if len < HEAD_LEN {
        return Err(corrupt("frame shorter than its fixed fields"));
    }
    let kind = covered.get_u8();
    let lsn = covered.get_u64_le();
    Ok(Some(Frame { kind, lsn, payload: covered, size: PREFIX_LEN + len }))
}

impl Frame<'_> {
    fn is_checkpoint(&self) -> bool {
        self.kind == KIND_CHECKPOINT
    }

    /// Decode the payload. Every count is bounded against the bytes left
    /// before anything is allocated for it.
    fn decode(&self) -> Result<LogRecord> {
        let mut p = self.payload;
        let need = |p: &[u8], n: Option<usize>| match n {
            Some(n) if n <= p.remaining() => Ok(()),
            _ => Err(corrupt("frame shorter than its fields")),
        };
        let lsn = self.lsn;
        let record = match self.kind {
            KIND_INSERT => {
                need(p, Some(21))?;
                let has_op = p.get_u8();
                let op_id = p.get_u64_le();
                if has_op > 1 {
                    return Err(corrupt("bad op-id flag"));
                }
                let n_rows = p.get_u32_le() as usize;
                let n_vec = p.get_u32_le() as usize;
                let n_attr = p.get_u32_le() as usize;
                if n_vec.max(n_attr) > MAX_COLUMNS {
                    return Err(corrupt("more columns than a schema can have"));
                }
                need(p, n_rows.checked_mul(8))?;
                let ids = (0..n_rows).map(|_| p.get_i64_le()).collect();
                let mut vectors = Vec::with_capacity(n_vec);
                for _ in 0..n_vec {
                    need(p, Some(4))?;
                    let dim = p.get_u32_le() as usize;
                    if dim == 0 {
                        return Err(corrupt("zero-dim vector column"));
                    }
                    let n = n_rows.checked_mul(dim);
                    need(p, n.and_then(|n| n.checked_mul(4)))?;
                    vectors.push(VectorSet::from_flat(dim, get_f32s(&mut p, n_rows * dim)));
                }
                need(p, n_rows.checked_mul(8).and_then(|col| col.checked_mul(n_attr)))?;
                let attributes = (0..n_attr)
                    .map(|_| (0..n_rows).map(|_| p.get_f64_le()).collect())
                    .collect();
                let op_id = (has_op == 1).then_some(op_id);
                LogRecord::Insert { lsn, op_id, batch: InsertBatch { ids, vectors, attributes } }
            }
            KIND_DELETE => {
                need(p, Some(4))?;
                let n = p.get_u32_le() as usize;
                need(p, n.checked_mul(8))?;
                LogRecord::Delete { lsn, ids: (0..n).map(|_| p.get_i64_le()).collect() }
            }
            KIND_CHECKPOINT => LogRecord::FlushCheckpoint { lsn },
            _ => return Err(corrupt("unknown frame kind")),
        };
        if !p.is_empty() {
            return Err(corrupt("bytes after the frame's fields"));
        }
        Ok(record)
    }
}

/// The committed content of a log file.
struct Image<'a> {
    base_lsn: u64,
    /// `(offset in the file, frame)`, in file order.
    frames: Vec<(usize, Frame<'a>)>,
    /// Length of the prefix that holds whole frames; anything after it is a
    /// torn append (or a torn header, then this is 0).
    committed: usize,
}

impl Image<'_> {
    /// Parse a whole log file. Torn header or tail: a clean stop.
    fn scan(bytes: &[u8]) -> Result<Image<'_>> {
        let magic = bytes.len().min(MAGIC.len());
        if bytes[..magic] != MAGIC[..magic] {
            return Err(corrupt("not a log file (bad magic)"));
        }
        let Some(mut base) = bytes.get(MAGIC.len()..HEADER_LEN) else {
            return Ok(Image { base_lsn: 1, frames: Vec::new(), committed: 0 });
        };
        let base_lsn = base.get_u64_le();
        let mut image = Image { base_lsn, frames: Vec::new(), committed: HEADER_LEN };
        let mut last_lsn = 0;
        while let Some(frame) = split_frame(&bytes[image.committed..])? {
            if !frame.is_checkpoint() {
                // Appends take rising LSNs; truncation relies on the order.
                if frame.lsn <= last_lsn {
                    return Err(corrupt("LSNs out of order"));
                }
                last_lsn = frame.lsn;
            }
            let at = image.committed;
            image.committed += frame.size;
            image.frames.push((at, frame));
        }
        Ok(image)
    }

    /// The highest LSN a checkpoint (or the header) declares flushed.
    fn checkpoint(&self) -> u64 {
        let declared = self.frames.iter().filter(|(_, f)| f.is_checkpoint()).map(|(_, f)| f.lsn);
        declared.max().unwrap_or(0).max(self.base_lsn.saturating_sub(1))
    }
}

fn header(base_lsn: u64) -> Vec<u8> {
    let mut h = MAGIC.to_vec();
    h.put_u64_le(base_lsn);
    h
}

/// `write_all` at `offset` (every write names its place: the cursor is also
/// moved by the reads of [`Wal::open`] and [`Wal::truncate`]).
fn write_at(mut file: &File, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)
}

/// Where an insert or delete frame sits in the file.
struct Extent {
    lsn: u64,
    start: u64,
    size: u64,
}

/// An append-only log file.
pub struct Wal {
    path: PathBuf,
    file: File,
    /// File length: the offset of the next frame.
    len: u64,
    /// LSN floor in the file's header.
    base_lsn: u64,
    next_lsn: u64,
    /// The insert and delete frames in the file, in LSN order — what
    /// [`Wal::truncate`] keeps a suffix of without re-reading the log.
    extents: Vec<Extent>,
    /// The one frame buffer, reused by every append.
    scratch: Vec<u8>,
    /// Metric label (the owning collection's name).
    label: String,
}

impl Wal {
    /// Open (creating if absent) the log at `path`. `next_lsn` resumes after
    /// the highest LSN the file has seen; a torn tail is cut off.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let image = Image::scan(&bytes)?;
        let seen = image.frames.iter().map(|(_, f)| f.lsn).max().unwrap_or(0);
        let next_lsn = seen.saturating_add(1).max(image.base_lsn);
        let extents = image
            .frames
            .iter()
            .filter(|(_, f)| !f.is_checkpoint())
            .map(|(at, f)| Extent { lsn: f.lsn, start: *at as u64, size: f.size as u64 })
            .collect();
        if image.committed < bytes.len() {
            // Drop the torn tail, or the next append would glue onto it and
            // corrupt an interior frame.
            file.set_len(image.committed as u64)?;
        }
        let mut len = image.committed as u64;
        if image.committed == 0 {
            write_at(&file, 0, &header(image.base_lsn))?;
            len = HEADER_LEN as u64;
        }
        Ok(Self {
            path,
            file,
            len,
            base_lsn: image.base_lsn,
            next_lsn,
            extents,
            scratch: Vec::new(),
            label: "default".to_string(),
        })
    }

    /// Stamp this log's metric series with `label` (the collection name).
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Next LSN that will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Append an insert record; returns its LSN. The record is handed to the
    /// OS before the call returns (ack-after-materialize, §5.1).
    pub fn append_insert(&mut self, batch: &InsertBatch) -> Result<u64> {
        self.append_record(|out, lsn| LogRecord::encode_insert(out, lsn, None, batch))
    }

    /// Append a delete record; returns its LSN.
    pub fn append_delete(&mut self, ids: &[i64]) -> Result<u64> {
        self.append_record(|out, lsn| LogRecord::encode_delete(out, lsn, ids))
    }

    /// Record that all operations `<= lsn` are now durable in segments. A
    /// checkpoint takes no LSN of its own.
    pub fn append_checkpoint(&mut self, lsn: u64) -> Result<()> {
        self.scratch.clear();
        LogRecord::encode_checkpoint(&mut self.scratch, lsn)?;
        self.write_scratch()
    }

    /// Append the insert or delete frame `encode` writes for the next LSN,
    /// and take that LSN.
    fn append_record(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> Result<()>,
    ) -> Result<u64> {
        let (lsn, start) = (self.next_lsn, self.len);
        self.scratch.clear();
        encode(&mut self.scratch, lsn)?;
        self.write_scratch()?;
        self.extents.push(Extent { lsn, start, size: self.len - start });
        self.next_lsn = lsn + 1;
        Ok(lsn)
    }

    /// One `write_all` of the frame in `scratch`.
    fn write_scratch(&mut self) -> Result<()> {
        if let Err(e) = write_at(&self.file, self.len, &self.scratch) {
            // Cut a partly written frame off again, or the next append would
            // glue onto it.
            let _ = self.file.set_len(self.len);
            return Err(e.into());
        }
        let size = self.scratch.len() as u64;
        self.len += size;
        obs::counter(obs::WAL_APPENDS, &self.label).inc();
        obs::counter(obs::WAL_BYTES, &self.label).add(size);
        if self.scratch.capacity() > SCRATCH_KEEP {
            self.scratch = Vec::new();
        }
        Ok(())
    }

    /// Drop every frame with an LSN `<= upto`, and every checkpoint frame.
    /// With nothing above `upto` — the usual flush — the header is rewritten
    /// in place with `base_lsn > upto`, which alone declares the old frames
    /// covered, and the file is then cut back to it. Otherwise the header
    /// and the frames above `upto` go to a temporary file that is renamed
    /// over the log. A crash between any two steps leaves a log that
    /// replays to the same tail and resumes at the same LSN.
    pub fn truncate(&mut self, upto: u64) -> Result<()> {
        let base_lsn = self.base_lsn.max(upto.saturating_add(1));
        let kept = &self.extents[self.extents.partition_point(|e| e.lsn <= upto)..];
        if kept.is_empty() {
            write_at(&self.file, 0, &header(base_lsn))?;
            self.base_lsn = base_lsn;
            self.file.set_len(HEADER_LEN as u64)?;
            self.len = HEADER_LEN as u64;
            self.extents.clear();
            return Ok(());
        }
        let mut image = header(base_lsn);
        let mut moved = Vec::with_capacity(kept.len());
        for e in kept {
            moved.push(Extent { lsn: e.lsn, start: image.len() as u64, size: e.size });
            (&self.file).seek(SeekFrom::Start(e.start))?;
            (&self.file).take(e.size).read_to_end(&mut image)?;
        }
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".tmp");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&image)?;
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = tmp;
        self.len = image.len() as u64;
        self.base_lsn = base_lsn;
        self.extents = moved;
        Ok(())
    }

    /// Records not yet covered by the latest flush checkpoint — the state to
    /// rebuild into the memtable after a restart. Reads only.
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<LogRecord>> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let image = Image::scan(&bytes)?;
        let checkpoint = image.checkpoint();
        image
            .frames
            .iter()
            .filter(|(_, f)| !f.is_checkpoint() && f.lsn > checkpoint)
            .map(|(_, f)| f.decode())
            .collect()
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), eight bytes per step.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            t[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    };
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("milvus-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(n: usize) -> InsertBatch {
        InsertBatch::single((0..n as i64).collect(), VectorSet::from_flat(2, vec![0.5; n * 2]))
    }

    /// Two vector fields and two attribute columns.
    fn wide_batch() -> InsertBatch {
        InsertBatch {
            ids: vec![7, -3, 9],
            vectors: vec![
                VectorSet::from_flat(2, vec![1.0, -2.5, 0.0, 3.25, f32::MIN_POSITIVE, 6.0]),
                VectorSet::from_flat(1, vec![10.0, 20.0, 30.0]),
            ],
            attributes: vec![vec![0.5, 1.5, 2.5], vec![-1.0, 0.0, 1e300]],
        }
    }

    fn shape(recs: &[LogRecord]) -> Vec<String> {
        recs.iter().map(|r| format!("{r:?}")).collect()
    }

    /// Offsets at which a frame (or the header) ends.
    fn frame_ends(bytes: &[u8]) -> Vec<usize> {
        let image = Image::scan(bytes).unwrap();
        assert_eq!(image.committed, bytes.len());
        std::iter::once(HEADER_LEN).chain(image.frames.iter().map(|(at, f)| at + f.size)).collect()
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_kind_round_trips_through_a_frame() {
        let mut buf = Vec::new();
        LogRecord::encode_insert(&mut buf, 5, Some(u64::MAX), &wide_batch()).unwrap();
        let LogRecord::Insert { lsn: 5, op_id: Some(u64::MAX), batch } =
            LogRecord::decode(&buf).unwrap()
        else {
            panic!("expected the insert back")
        };
        assert_eq!(batch.ids, wide_batch().ids);
        assert_eq!(batch.vectors, wide_batch().vectors);
        assert_eq!(batch.attributes, wide_batch().attributes);

        buf.clear();
        LogRecord::encode_insert(&mut buf, 6, None, &batch).unwrap();
        assert!(matches!(LogRecord::decode(&buf).unwrap(), LogRecord::Insert { op_id: None, .. }));

        buf.clear();
        LogRecord::encode_delete(&mut buf, 7, &[4, -4]).unwrap();
        assert!(matches!(
            LogRecord::decode(&buf).unwrap(),
            LogRecord::Delete { lsn: 7, ids } if ids == [4, -4]
        ));

        buf.clear();
        LogRecord::encode_checkpoint(&mut buf, 8).unwrap();
        assert!(matches!(LogRecord::decode(&buf).unwrap(), LogRecord::FlushCheckpoint { lsn: 8 }));

        // One object holds exactly one frame.
        let whole = buf.clone();
        buf.push(0);
        assert!(LogRecord::decode(&buf).is_err());
        assert!(LogRecord::decode(&whole[..whole.len() - 1]).is_err());
    }

    /// A frame with a valid checksum whose counts promise more than it
    /// holds is refused before anything is allocated for them.
    #[test]
    fn counts_are_bounded_by_the_frame() {
        for (n_rows, n_vec, n_attr) in
            [(u32::MAX, 1, 0), (1, u32::MAX, 0), (0, 0, u32::MAX), (u32::MAX, 0, 1)]
        {
            let mut buf = Vec::new();
            encode_frame(&mut buf, KIND_INSERT, 1, |out| {
                out.put_slice(&[0; 9]);
                out.put_u32_le(n_rows);
                out.put_u32_le(n_vec);
                out.put_u32_le(n_attr);
                out.put_slice(&[0; 64]);
            })
            .unwrap();
            assert!(matches!(LogRecord::decode(&buf), Err(StorageError::Corrupt(_))));
        }
        let mut buf = Vec::new();
        encode_frame(&mut buf, KIND_DELETE, 1, |out| out.put_u32_le(u32::MAX)).unwrap();
        assert!(matches!(LogRecord::decode(&buf), Err(StorageError::Corrupt(_))));
        buf.clear();
        encode_frame(&mut buf, 9, 1, |_| {}).unwrap();
        assert!(matches!(LogRecord::decode(&buf), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("basic");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.append_insert(&wide_batch()).unwrap(), 1);
            assert_eq!(wal.append_delete(&[1]).unwrap(), 2);
        }
        let tail = Wal::replay(&path).unwrap();
        assert_eq!(tail.len(), 2);
        let LogRecord::Insert { lsn: 1, op_id: None, batch } = &tail[0] else {
            panic!("expected insert")
        };
        assert_eq!(batch.ids, wide_batch().ids);
        assert_eq!(batch.vectors, wide_batch().vectors);
        assert_eq!(batch.attributes, wide_batch().attributes);
        assert!(matches!(&tail[1], LogRecord::Delete { lsn: 2, ids } if ids == &[1]));
    }

    #[test]
    fn checkpoint_limits_replay_and_takes_no_lsn() {
        let dir = tmpdir("ckpt");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        let l1 = wal.append_insert(&batch(2)).unwrap();
        wal.append_checkpoint(l1).unwrap();
        assert_eq!(wal.append_delete(&[0]).unwrap(), l1 + 1);
        let tail = Wal::replay(&path).unwrap();
        assert_eq!(tail.len(), 1);
        assert!(matches!(tail[0], LogRecord::Delete { .. }));
    }

    /// Truncation keeps exactly the frames above the checkpoint, and LSNs
    /// never go backwards — not across a truncation that leaves no frame,
    /// and not across a reopen after it.
    #[test]
    fn truncate_keeps_the_tail_and_lsns_stay_monotone() {
        let dir = tmpdir("truncate");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_insert(&batch(3)).unwrap();
        wal.append_delete(&[1]).unwrap();
        wal.append_insert(&batch(1)).unwrap();
        let before = shape(&Wal::replay(&path).unwrap());

        // Frames above the checkpoint: rewritten behind a new header.
        wal.append_checkpoint(2).unwrap();
        wal.truncate(2).unwrap();
        assert_eq!(shape(&Wal::replay(&path).unwrap()), before[2..]);
        assert_eq!(frame_ends(&std::fs::read(&path).unwrap()).len(), 2, "header + one frame");
        assert!(!dir.join("wal.log.tmp").exists());
        assert_eq!(wal.append_delete(&[9]).unwrap(), 4, "appends go on in the renamed file");
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), 5);
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);

        // Nothing above the checkpoint: the file is cut back to its header.
        wal.append_checkpoint(4).unwrap();
        wal.truncate(4).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN as u64);
        assert!(Wal::replay(&path).unwrap().is_empty());
        assert_eq!(wal.next_lsn(), 5);
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), 5, "base_lsn carries the LSN across an empty log");
        assert_eq!(wal.append_delete(&[2]).unwrap(), 5);
        assert_eq!(Wal::replay(&path).unwrap().len(), 1);
    }

    /// The in-place truncation writes the header before it cuts the file: a
    /// crash in between leaves the old frames behind a header that already
    /// covers them.
    #[test]
    fn frames_below_the_header_base_are_covered() {
        let dir = tmpdir("base");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_insert(&batch(2)).unwrap();
            wal.append_delete(&[0]).unwrap();
            wal.append_insert(&batch(1)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..HEADER_LEN].copy_from_slice(&header(3));
        std::fs::write(&path, &bytes).unwrap();
        let tail = Wal::replay(&path).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].lsn(), 3);
        assert_eq!(Wal::open(&path).unwrap().next_lsn(), 4);
    }

    /// A crash can tear the final append anywhere: cut the file at every
    /// byte offset — inside the header, inside each frame, between frames —
    /// and recovery must see exactly the frames wholly before the cut, then
    /// keep working.
    #[test]
    fn torn_final_record_is_dropped_at_every_cut_and_the_log_stays_appendable() {
        let dir = tmpdir("torn");
        let whole = dir.join("whole.log");
        {
            let mut wal = Wal::open(&whole).unwrap();
            wal.append_insert(&batch(3)).unwrap();
            wal.append_delete(&[1]).unwrap();
            wal.append_insert(&wide_batch()).unwrap();
        }
        let bytes = std::fs::read(&whole).unwrap();
        let all = shape(&Wal::replay(&whole).unwrap());
        let ends = frame_ends(&bytes);
        assert_eq!(ends.len(), 4);

        for cut in 0..bytes.len() {
            // Frames that end at or before the cut survive it.
            let whole_frames = ends.iter().filter(|&&end| end <= cut).count().saturating_sub(1);
            let committed = if cut < HEADER_LEN { HEADER_LEN } else { ends[whole_frames] };
            let path = dir.join(format!("cut-{cut}.log"));
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(shape(&Wal::replay(&path).unwrap()), all[..whole_frames], "cut at {cut}");

            let next = whole_frames as u64 + 1;
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.next_lsn(), next, "cut at {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), &bytes[..committed], "cut at {cut}");
            assert_eq!(wal.append_delete(&[7]).unwrap(), next);
            drop(wal);

            assert_eq!(Wal::open(&path).unwrap().next_lsn(), next + 1, "cut at {cut}");
            let tail = Wal::replay(&path).unwrap();
            assert_eq!(shape(&tail[..whole_frames]), all[..whole_frames], "cut at {cut}");
            assert!(matches!(&tail[whole_frames], LogRecord::Delete { ids, .. } if ids == &[7]));
            assert_eq!(tail.len(), whole_frames + 1);
        }
    }

    /// Only the *tail* may be torn: a damaged byte in a frame that is wholly
    /// there is corruption, and both replay and open must refuse it loudly.
    #[test]
    fn damaged_interior_frame_is_a_loud_error() {
        let dir = tmpdir("interior");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_delete(&[1]).unwrap();
            wal.append_insert(&batch(2)).unwrap();
            wal.append_delete(&[2]).unwrap();
        }
        let good = std::fs::read(&path).unwrap();
        let ends = frame_ends(&good);
        let (start, end) = (ends[1], ends[2]);
        for at in start..end {
            let mut bytes = good.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            if at < start + 4 {
                // A damaged length either fails the checksum or points past
                // end-of-file, which reads as a torn append: never a record
                // that was not written.
                if let Ok(tail) = Wal::replay(&path) {
                    assert_eq!(tail.len(), 1, "damaged length byte {at}");
                }
                continue;
            }
            assert!(matches!(Wal::replay(&path), Err(StorageError::Corrupt(_))), "byte {at}");
            assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))), "byte {at}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "a refused log is left untouched");
        }
    }

    /// No second reader: a log in the old newline-delimited JSON format, or
    /// any other file, is refused and left as it is.
    #[test]
    fn a_file_without_the_magic_is_refused() {
        let dir = tmpdir("magic");
        let path = dir.join("wal.log");
        for content in [&b"{\"Delete\":{\"lsn\":1,\"ids\":[1]}}\n"[..], b"MLVS", b"MLVSWAL0 and more bytes"] {
            let is_magic_prefix = MAGIC.starts_with(content);
            std::fs::write(&path, content).unwrap();
            assert_eq!(Wal::replay(&path).is_err(), !is_magic_prefix);
            if !is_magic_prefix {
                assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))));
                assert_eq!(std::fs::read(&path).unwrap(), content);
            }
        }
    }

    /// Truncation finds its cut by LSN order, so a file that breaks the
    /// order is refused when it is read.
    #[test]
    fn out_of_order_lsns_are_refused() {
        let dir = tmpdir("order");
        let path = dir.join("wal.log");
        let mut bytes = header(1);
        LogRecord::encode_delete(&mut bytes, 2, &[1]).unwrap();
        LogRecord::encode_checkpoint(&mut bytes, 1).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(Wal::replay(&path).unwrap().len(), 1, "a checkpoint's LSN is not in the order");
        LogRecord::encode_delete(&mut bytes, 2, &[2]).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::replay(&path), Err(StorageError::Corrupt(_))));
        assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let dir = tmpdir("missing");
        assert!(Wal::replay(dir.join("nope.log")).unwrap().is_empty());
    }

    /// `milvus_wal_bytes_total` is a count that repeats exactly: the bytes of
    /// the frames appended, to the byte — and a 128-d batch costs at most a
    /// tenth more in the log than the user handed in.
    #[test]
    fn wal_bytes_counter_is_the_frame_size_to_the_byte() {
        const LABEL: &str = "wal_exact_bytes";
        let (rows, dim) = (500usize, 128usize);
        let b = InsertBatch {
            ids: (0..rows as i64).collect(),
            vectors: vec![VectorSet::from_flat(dim, vec![0.25; rows * dim])],
            attributes: vec![vec![1.0; rows]],
        };
        let insert_frame = PREFIX_LEN + HEAD_LEN + 21 + rows * 8 + (4 + rows * dim * 4) + rows * 8;
        let delete_frame = PREFIX_LEN + HEAD_LEN + 4 + 3 * 8;
        let checkpoint_frame = PREFIX_LEN + HEAD_LEN;

        let dir = tmpdir("exact");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap().with_label(LABEL);
        let counter = |name: &str| obs::registry().snapshot().counter(name, LABEL);
        let (bytes0, appends0) = (counter(obs::WAL_BYTES), counter(obs::WAL_APPENDS));
        wal.append_insert(&b).unwrap();
        assert_eq!(counter(obs::WAL_BYTES) - bytes0, insert_frame as u64);
        wal.append_delete(&[1, 2, 3]).unwrap();
        wal.append_checkpoint(2).unwrap();
        let total = insert_frame + delete_frame + checkpoint_frame;
        assert_eq!(counter(obs::WAL_BYTES) - bytes0, total as u64);
        assert_eq!(counter(obs::WAL_APPENDS) - appends0, 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), (HEADER_LEN + total) as u64);

        let user_bytes = b.memory_bytes();
        assert!(insert_frame as f64 / user_bytes as f64 <= 1.1, "{insert_frame} / {user_bytes}");
    }
}
