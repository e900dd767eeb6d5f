//! Write-ahead log (§5.1, §5.3).
//!
//! "When Milvus receives heavy write requests, it first materializes the
//! operations (similar to database logs) to disk and then acknowledges to
//! users." The WAL is a newline-delimited JSON file of [`LogRecord`]s;
//! [`Wal::replay`] reconstructs the un-flushed tail after a crash. A record
//! is committed by its trailing newline — the last byte of an append, written
//! before the acknowledgement — so a final line without one is an append the
//! crash tore: it marks the end of the log, and [`Wal::open`] cuts it off.
//! In the distributed design (§5.3) the same records are what the writer
//! ships to shared storage instead of data pages, à la Aurora.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use milvus_obs as obs;

use crate::entity::InsertBatch;
use crate::error::Result;

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

serde::impl_serde_enum!(LogRecord {
    Insert { lsn, op_id, batch },
    Delete { lsn, ids },
    FlushCheckpoint { lsn },
});

impl LogRecord {
    /// The record's log sequence number.
    pub fn lsn(&self) -> u64 {
        match self {
            LogRecord::Insert { lsn, .. }
            | LogRecord::Delete { lsn, .. }
            | LogRecord::FlushCheckpoint { lsn } => *lsn,
        }
    }
}

/// An append-only log file.
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    next_lsn: u64,
    /// Metric label (the owning collection's name).
    label: String,
}

impl Wal {
    /// Open (creating if absent) the log at `path`; `next_lsn` resumes after
    /// the highest existing record.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (existing, committed) =
            if path.exists() { Self::read_all(&path)? } else { (Vec::new(), 0) };
        let next_lsn = existing.last().map_or(1, |r| r.lsn() + 1);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() > committed {
            // Drop the torn tail, or the next append would glue onto it and
            // corrupt an interior line.
            file.set_len(committed)?;
            file.sync_all()?;
        }
        Ok(Self { path, writer: BufWriter::new(file), next_lsn, label: "default".to_string() })
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

    /// Append an insert record; returns its LSN. The record is flushed to the
    /// OS before the call returns (ack-after-materialize, §5.1).
    pub fn append_insert(&mut self, batch: InsertBatch) -> Result<u64> {
        let lsn = self.bump();
        self.write(&LogRecord::Insert { lsn, op_id: None, batch })?;
        Ok(lsn)
    }

    /// Append a delete record; returns its LSN.
    pub fn append_delete(&mut self, ids: Vec<i64>) -> Result<u64> {
        let lsn = self.bump();
        self.write(&LogRecord::Delete { lsn, ids })?;
        Ok(lsn)
    }

    /// Record that all operations `<= lsn` are now durable in segments.
    pub fn append_checkpoint(&mut self, lsn: u64) -> Result<u64> {
        let own = self.bump();
        self.write(&LogRecord::FlushCheckpoint { lsn })?;
        Ok(own)
    }

    fn bump(&mut self) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        lsn
    }

    fn write(&mut self, rec: &LogRecord) -> Result<()> {
        let line = serde_json::to_vec(rec)?;
        self.writer.write_all(&line)?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        obs::counter(obs::WAL_APPENDS, &self.label).inc();
        obs::counter(obs::WAL_BYTES, &self.label).add(line.len() as u64 + 1);
        Ok(())
    }

    /// Every committed record, plus the byte length of the committed prefix.
    /// Reading stops at a final line with no trailing newline (a torn
    /// append, see the module docs); a newline-terminated line that does not
    /// parse is corruption and fails the read.
    fn read_all(path: &Path) -> Result<(Vec<LogRecord>, u64)> {
        let mut reader = BufReader::new(File::open(path)?);
        let (mut out, mut committed, mut line) = (Vec::new(), 0u64, Vec::new());
        loop {
            line.clear();
            let n = reader.read_until(b'\n', &mut line)?;
            if line.last() != Some(&b'\n') {
                return Ok((out, committed));
            }
            if !line.iter().all(u8::is_ascii_whitespace) {
                out.push(serde_json::from_slice(&line)?);
            }
            committed += n as u64;
        }
    }

    /// Records not yet covered by the latest flush checkpoint — the state to
    /// rebuild into the memtable after a restart.
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<LogRecord>> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok(Vec::new());
        }
        let (all, _) = Self::read_all(path)?;
        let checkpoint = all
            .iter()
            .filter_map(|r| match r {
                LogRecord::FlushCheckpoint { lsn } => Some(*lsn),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Ok(all
            .into_iter()
            .filter(|r| !matches!(r, LogRecord::FlushCheckpoint { .. }) && r.lsn() > checkpoint)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_index::VectorSet;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("milvus-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(n: usize) -> InsertBatch {
        InsertBatch::single(
            (0..n as i64).collect(),
            VectorSet::from_flat(2, vec![0.5; n * 2]),
        )
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("basic");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_insert(batch(3)).unwrap();
            wal.append_delete(vec![1]).unwrap();
        }
        let tail = Wal::replay(&path).unwrap();
        assert_eq!(tail.len(), 2);
        assert!(matches!(tail[0], LogRecord::Insert { lsn: 1, .. }));
        assert!(matches!(tail[1], LogRecord::Delete { lsn: 2, .. }));
    }

    #[test]
    fn checkpoint_truncates_replay() {
        let dir = tmpdir("ckpt");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        let l1 = wal.append_insert(batch(2)).unwrap();
        wal.append_checkpoint(l1).unwrap();
        wal.append_delete(vec![0]).unwrap();
        let tail = Wal::replay(&path).unwrap();
        assert_eq!(tail.len(), 1);
        assert!(matches!(tail[0], LogRecord::Delete { .. }));
    }

    #[test]
    fn lsn_resumes_after_reopen() {
        let dir = tmpdir("resume");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_insert(batch(1)).unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), 2);
    }

    /// A crash can tear the final append anywhere: cut the file at every
    /// byte offset of the last record (from "nothing of it written" to "all
    /// but its newline") and recovery must see exactly the records before
    /// it, then keep working.
    #[test]
    fn torn_final_record_is_dropped_at_every_cut_and_the_log_stays_appendable() {
        let dir = tmpdir("torn");
        let whole = dir.join("whole.log");
        {
            let mut wal = Wal::open(&whole).unwrap();
            wal.append_insert(batch(3)).unwrap();
            wal.append_delete(vec![1]).unwrap();
            wal.append_insert(batch(2)).unwrap();
        }
        let bytes = std::fs::read(&whole).unwrap();
        let last_start = bytes[..bytes.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let shape = |recs: &[LogRecord]| -> Vec<String> {
            recs.iter().map(|r| format!("{r:?}")).collect()
        };
        let preceding = shape(&Wal::replay(&whole).unwrap()[..2]);

        for cut in last_start..bytes.len() {
            let path = dir.join(format!("cut-{cut}.log"));
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(shape(&Wal::replay(&path).unwrap()), preceding, "replay, cut at {cut}");

            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.next_lsn(), 3, "cut at {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), &bytes[..last_start], "cut at {cut}");
            wal.append_delete(vec![7]).unwrap();
            drop(wal);

            let reopened = Wal::open(&path).unwrap();
            assert_eq!(reopened.next_lsn(), 4, "cut at {cut}");
            let tail = Wal::replay(&path).unwrap();
            assert_eq!(shape(&tail[..2]), preceding, "after append, cut at {cut}");
            assert!(matches!(&tail[2], LogRecord::Delete { lsn: 3, ids } if ids == &[7]));
            assert_eq!(tail.len(), 3);
        }
    }

    /// Only the *tail* may be torn: garbage on a newline-terminated line is
    /// corruption, and both replay and open must refuse it loudly.
    #[test]
    fn unparsable_interior_line_is_a_loud_error() {
        let dir = tmpdir("interior");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_delete(vec![1]).unwrap();
            wal.append_delete(vec![2]).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] = b'#';
        std::fs::write(&path, &bytes).unwrap();
        assert!(Wal::replay(&path).is_err());
        assert!(Wal::open(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a refused log is left untouched");
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let dir = tmpdir("missing");
        assert!(Wal::replay(dir.join("nope.log")).unwrap().is_empty());
    }

    #[test]
    fn insert_payload_roundtrips() {
        let dir = tmpdir("payload");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_insert(batch(4)).unwrap();
        drop(wal);
        let tail = Wal::replay(&path).unwrap();
        let LogRecord::Insert { batch: b, .. } = &tail[0] else {
            panic!("expected insert")
        };
        assert_eq!(b.ids, vec![0, 1, 2, 3]);
        assert_eq!(b.vectors[0].dim(), 2);
    }
}
