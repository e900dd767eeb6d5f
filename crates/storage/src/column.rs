//! [`VectorColumn`]: one vector field of a segment — a single `f32` buffer,
//! read by **row position**.
//!
//! A fresh segment's buffer is in row order (rows sorted by id, §2.4). Once
//! an IVF_FLAT index is built on the field, the index's bucket-ordered
//! buffer *is* the column: both hold the same `Arc`, the id-ordered copy is
//! dropped, and the column keeps the permutation `slot_of_row` (4 B/row) so
//! a row position still finds its vector. Row positions keep their meaning
//! everywhere else — `row_ids`, masks, attribute columns, tombstones.

use std::borrow::Cow;
use std::sync::Arc;

use milvus_index::VectorSet;

use crate::error::{Result, StorageError};

/// A segment's vectors for one field, addressed by row position.
#[derive(Debug, Clone)]
pub struct VectorColumn {
    buf: Arc<VectorSet>,
    /// `None`: row `r` is vector `r` of the buffer. `Some`: it is vector
    /// `slot_of_row[r]` — a bijection onto the buffer's slots.
    slot_of_row: Option<Arc<[u32]>>,
}

impl From<VectorSet> for VectorColumn {
    /// A column in row order.
    fn from(vectors: VectorSet) -> Self {
        Self { buf: Arc::new(vectors), slot_of_row: None }
    }
}

impl VectorColumn {
    /// A column over `buf` in another order: row `r` lives at slot
    /// `slot_of_row[r]`. Anything but a bijection onto `0..buf.len()` is
    /// [`StorageError::Corrupt`].
    pub fn permuted(buf: Arc<VectorSet>, slot_of_row: Vec<u32>) -> Result<Self> {
        let mut taken = vec![false; buf.len()];
        let bijective = slot_of_row.len() == buf.len()
            && slot_of_row.iter().all(|&slot| {
                taken.get_mut(slot as usize).is_some_and(|t| !std::mem::replace(t, true))
            });
        if !bijective {
            return Err(StorageError::Corrupt("column permutation is not a bijection".into()));
        }
        Ok(Self { buf, slot_of_row: Some(slot_of_row.into()) })
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.buf.dim()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The buffer slot holding row `row`.
    #[inline]
    pub fn slot(&self, row: usize) -> usize {
        self.slot_of_row.as_deref().map_or(row, |slots| slots[row] as usize)
    }

    /// The vector at row position `row`.
    #[inline]
    pub fn get(&self, row: usize) -> &[f32] {
        self.buf.get(self.slot(row))
    }

    /// Vectors in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        (0..self.len()).map(|row| self.get(row))
    }

    /// The physical buffer — in slot order when [`Self::slot_of_row`] is set.
    pub fn buffer(&self) -> &Arc<VectorSet> {
        &self.buf
    }

    /// The permutation, when the buffer is not in row order.
    pub fn slot_of_row(&self) -> Option<&[u32]> {
        self.slot_of_row.as_deref()
    }

    /// The column as one row-ordered set: borrowed when it is stored that
    /// way, gathered otherwise (what an index build or the batch engine,
    /// which address rows by offset, consume).
    pub fn to_row_order(&self) -> Cow<'_, VectorSet> {
        match self.slot_of_row {
            None => Cow::Borrowed(&self.buf),
            Some(_) => {
                let mut rows = VectorSet::with_capacity(self.dim(), self.len());
                self.iter().for_each(|v| rows.push(v));
                Cow::Owned(rows)
            }
        }
    }

    /// Buffer plus permutation bytes.
    pub fn memory_bytes(&self) -> usize {
        self.buf.memory_bytes() + self.slot_of_row().map_or(0, std::mem::size_of_val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permuted_column_reads_by_row() {
        let buf = Arc::new(VectorSet::from_flat(1, vec![20.0, 0.0, 10.0]));
        let col = VectorColumn::permuted(Arc::clone(&buf), vec![1, 2, 0]).unwrap();
        assert_eq!(col.iter().collect::<Vec<_>>(), [&[0.0][..], &[10.0], &[20.0]]);
        assert_eq!(col.get(2), &[20.0]);
        assert_eq!(col.to_row_order().as_flat(), &[0.0, 10.0, 20.0]);
        assert_eq!(col.memory_bytes(), 3 * 4 + 3 * 4);
        let plain = VectorColumn::from(VectorSet::from_flat(1, vec![0.0, 10.0]));
        assert!(matches!(plain.to_row_order(), Cow::Borrowed(_)));
        assert_eq!(plain.memory_bytes(), 8);
    }

    #[test]
    fn only_a_bijection_is_a_permutation() {
        let buf = Arc::new(VectorSet::from_flat(1, vec![0.0, 1.0, 2.0]));
        for bad in [vec![0, 1], vec![0, 1, 1], vec![0, 1, 3], vec![0, 1, 2, 0]] {
            let got = VectorColumn::permuted(Arc::clone(&buf), bad.clone());
            assert!(matches!(got, Err(StorageError::Corrupt(_))), "{bad:?}");
        }
    }
}
