//! The in-memory write buffer (§2.3).
//!
//! "Newly inserted entities are stored in memory first as MemTable. Once the
//! accumulated size reaches a threshold, or once every second, the MemTable
//! becomes immutable and then gets flushed to disk as a new segment."
//! Deletes arriving while data is still in the memtable simply drop the
//! pending rows; deletes of already-flushed rows are collected for the LSM
//! layer to tombstone.

use std::collections::HashSet;

use milvus_index::VectorSet;

use crate::entity::{InsertBatch, Schema};
use crate::error::{Result, StorageError};

/// Mutable buffer of pending inserts and deletes.
#[derive(Debug)]
pub struct MemTable {
    schema: Schema,
    ids: Vec<i64>,
    /// The same ids as a set, so the duplicate check of every insert and the
    /// buffered-or-flushed split of every delete are O(batch).
    buffered: HashSet<i64>,
    vectors: Vec<VectorSet>,
    attributes: Vec<Vec<f64>>,
    /// Deletes that refer to rows *not* in this memtable (flushed segments).
    pending_deletes: HashSet<i64>,
    bytes: usize,
    /// Highest log sequence number whose operation this memtable has taken
    /// in (0: none, or no log). Survives [`MemTable::drain`].
    applied_lsn: u64,
}

impl MemTable {
    /// An empty memtable for `schema`.
    pub fn new(schema: Schema) -> Self {
        let vectors = schema.vector_fields.iter().map(|f| VectorSet::new(f.dim)).collect();
        let attributes = schema.attribute_fields.iter().map(|_| Vec::new()).collect();
        Self {
            schema,
            ids: Vec::new(),
            buffered: HashSet::new(),
            vectors,
            attributes,
            pending_deletes: HashSet::new(),
            bytes: 0,
            applied_lsn: 0,
        }
    }

    /// Note that the logged operation `lsn` is applied. Operations are
    /// applied in log order, so everything `<= lsn` is in this memtable or
    /// in a segment drained from it.
    pub fn mark_applied(&mut self, lsn: u64) {
        self.applied_lsn = self.applied_lsn.max(lsn);
    }

    /// Buffered entity count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no inserts are buffered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Approximate buffered bytes (flush-threshold accounting).
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Deletes destined for already-flushed segments.
    pub fn pending_deletes(&self) -> &HashSet<i64> {
        &self.pending_deletes
    }

    /// Whether `id` is currently buffered as an insert.
    pub fn contains(&self, id: i64) -> bool {
        self.buffered.contains(&id)
    }

    /// Buffer an insert batch.
    pub fn insert(&mut self, batch: &InsertBatch) -> Result<()> {
        batch.validate(&self.schema)?;
        if let Some(&id) = batch.ids.iter().find(|&&id| self.contains(id)) {
            return Err(StorageError::DuplicateId(id));
        }
        self.append(batch);
        Ok(())
    }

    /// Buffer a batch that the caller has validated against the schema and
    /// found free of buffered ids (the engine has to make both checks before
    /// it logs the batch).
    pub(crate) fn append(&mut self, batch: &InsertBatch) {
        // A pending delete of an inserted id is kept — it refers to the
        // *flushed* copy, which must still be tombstoned. The new row lands
        // in a newer segment (update = delete + insert, §2.3).
        self.ids.extend_from_slice(&batch.ids);
        self.buffered.extend(&batch.ids);
        for (col, add) in self.vectors.iter_mut().zip(&batch.vectors) {
            col.extend_from(add);
        }
        for (col, add) in self.attributes.iter_mut().zip(&batch.attributes) {
            col.extend_from_slice(add);
        }
        self.bytes += batch.memory_bytes();
    }

    /// Apply deletes: pending inserts with these ids are dropped; ids not
    /// buffered here are recorded for segment tombstoning.
    pub fn delete(&mut self, ids: &[i64]) {
        let target: HashSet<i64> = ids.iter().copied().collect();
        let hit = target.iter().any(|id| self.buffered.contains(id));
        if hit {
            let keep: Vec<usize> =
                (0..self.ids.len()).filter(|&r| !target.contains(&self.ids[r])).collect();
            self.ids = keep.iter().map(|&r| self.ids[r]).collect();
            self.vectors = self.vectors.iter().map(|col| col.gather(&keep)).collect();
            self.attributes = self
                .attributes
                .iter()
                .map(|col| keep.iter().map(|&r| col[r]).collect())
                .collect();
        }
        for id in target {
            // A row that was only ever buffered is dropped outright; anything
            // else may exist in a flushed segment and needs a tombstone.
            if !self.buffered.remove(&id) {
                self.pending_deletes.insert(id);
            }
        }
    }

    /// Drain the buffer into an [`InsertBatch`] (for segment flush) plus the
    /// accumulated segment-bound deletes, resetting the memtable. The third
    /// value is the highest applied LSN: what a flush of the drained rows
    /// may checkpoint.
    pub fn drain(&mut self) -> (InsertBatch, Vec<i64>, u64) {
        let batch = InsertBatch {
            ids: std::mem::take(&mut self.ids),
            vectors: self
                .vectors
                .iter_mut()
                .map(|col| std::mem::replace(col, VectorSet::new(col.dim())))
                .collect(),
            attributes: self.attributes.iter_mut().map(std::mem::take).collect(),
        };
        let mut deletes: Vec<i64> = self.pending_deletes.drain().collect();
        deletes.sort_unstable();
        self.buffered.clear();
        self.bytes = 0;
        (batch, deletes, self.applied_lsn)
    }

    /// Give back what [`MemTable::drain`] took, after the flush that drained
    /// it failed. The drained rows go in ahead of everything applied since,
    /// and the drained deletes rejoin the pending set, so the failed flush
    /// changes nothing: a delete applied since still removes a drained row,
    /// and a row inserted again since replaces its drained copy.
    pub fn restore(&mut self, batch: InsertBatch, deletes: Vec<i64>) {
        let (since, since_deletes, _) = self.drain();
        self.append(&batch);
        self.pending_deletes.extend(deletes);
        let mut superseded = since_deletes;
        superseded.extend(since.ids.iter().filter(|id| self.buffered.contains(id)));
        if !superseded.is_empty() {
            self.delete(&superseded);
        }
        self.append(&since);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_index::Metric;

    fn schema() -> Schema {
        Schema::single("v", 2, Metric::L2).with_attribute("a")
    }

    fn batch(ids: Vec<i64>) -> InsertBatch {
        let n = ids.len();
        let mut vs = VectorSet::new(2);
        for &id in &ids {
            vs.push(&[id as f32, 0.0]);
        }
        InsertBatch { ids, vectors: vec![vs], attributes: vec![vec![1.0; n]] }
    }

    #[test]
    fn insert_accumulates() {
        let mut mt = MemTable::new(schema());
        mt.insert(&batch(vec![1, 2])).unwrap();
        mt.insert(&batch(vec![3])).unwrap();
        assert_eq!(mt.len(), 3);
        assert!(mt.memory_bytes() > 0);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut mt = MemTable::new(schema());
        mt.insert(&batch(vec![1])).unwrap();
        assert!(matches!(mt.insert(&batch(vec![1])), Err(StorageError::DuplicateId(1))));
    }

    #[test]
    fn delete_buffered_row_removes_it() {
        let mut mt = MemTable::new(schema());
        mt.insert(&batch(vec![1, 2, 3])).unwrap();
        mt.delete(&[2]);
        assert_eq!(mt.len(), 2);
        assert!(!mt.contains(2));
        // The delete was satisfied in-memory: nothing pending for segments.
        assert!(mt.pending_deletes().is_empty());
    }

    #[test]
    fn delete_of_flushed_row_is_pending() {
        let mut mt = MemTable::new(schema());
        mt.delete(&[42]);
        assert!(mt.pending_deletes().contains(&42));
    }

    #[test]
    fn reinsert_after_delete_keeps_tombstone_for_flushed_copy() {
        let mut mt = MemTable::new(schema());
        mt.delete(&[7]); // 7 lives in a flushed segment
        mt.insert(&batch(vec![7])).unwrap(); // update = delete + insert
        assert!(mt.pending_deletes().contains(&7));
        assert!(mt.contains(7));
        // A second delete removes the buffered copy; the tombstone stays.
        mt.delete(&[7]);
        assert!(!mt.contains(7));
        assert!(mt.pending_deletes().contains(&7));
    }

    #[test]
    fn drain_resets() {
        let mut mt = MemTable::new(schema());
        mt.insert(&batch(vec![1, 2])).unwrap();
        mt.delete(&[99]);
        mt.mark_applied(7);
        mt.mark_applied(3);
        let (b, d, applied) = mt.drain();
        assert_eq!(b.ids, vec![1, 2]);
        assert_eq!(d, vec![99]);
        assert_eq!(applied, 7);
        assert_eq!(mt.drain().2, 7, "the applied LSN outlives a drain");
        assert!(mt.is_empty());
        assert_eq!(mt.memory_bytes(), 0);
        assert!(mt.pending_deletes().is_empty());
    }

    #[test]
    fn restore_undoes_a_drain_under_the_writes_applied_since() {
        let mut mt = MemTable::new(schema());
        mt.insert(&batch(vec![1, 2, 3])).unwrap();
        mt.delete(&[99]);
        let (b, d, _) = mt.drain();
        // Applied while the flush of 1..3 was under way.
        mt.insert(&batch(vec![4])).unwrap();
        mt.delete(&[2, 50]);
        mt.insert(&batch(vec![3])).unwrap();
        mt.restore(b, d);
        let (b, d, _) = mt.drain();
        assert_eq!(b.ids, vec![1, 4, 3], "drained rows first, deleted and replaced ones dropped");
        // 2 never reached a segment, so its delete has nothing to tombstone.
        assert_eq!(d, vec![50, 99]);
    }

    #[test]
    fn vectors_stay_aligned_after_partial_delete() {
        let mut mt = MemTable::new(schema());
        mt.insert(&batch(vec![1, 2, 3, 4])).unwrap();
        mt.delete(&[1, 3]);
        let (b, _, _) = mt.drain();
        let mut ids = b.ids.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 4]);
        // Every drained row still holds its own id's vector, `[id, 0]`.
        for (row, &id) in b.ids.iter().enumerate() {
            assert_eq!(b.vectors[0].get(row), &[id as f32, 0.0], "row {row}");
        }
        assert_eq!(b.attributes[0].len(), b.ids.len());
    }
}
