//! Row-position bitmaps (§4.1 strategy B's "bitmap", §2.3's tombstones).
//!
//! A [`RowMask`] is the only way a scan is told which rows it may return.
//! Bit `i` stands for row *position* `i` of whatever the scan walks — a
//! segment's columns, or the `VectorSet` an index was built from (its build
//! ordinals) — never for an entity id: positions are dense, so a membership
//! test is one shift and one `and`, and two masks over the same rows combine
//! word by word.

use crate::error::{IndexError, Result};

/// A dense bitset over row positions `0..rows()` with a cached popcount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    words: Vec<u64>,
    rows: usize,
    ones: usize,
}

impl RowMask {
    /// A mask over `rows` positions with none set.
    pub fn none(rows: usize) -> Self {
        Self { words: vec![0; rows.div_ceil(64)], rows, ones: 0 }
    }

    /// A mask over `rows` positions with every one set.
    pub fn all(rows: usize) -> Self {
        let mut words = vec![u64::MAX; rows.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - rows % 64) % 64;
        }
        Self { words, rows, ones: rows }
    }

    /// A mask over `rows` positions with exactly the listed ones set.
    ///
    /// # Panics
    /// Panics if a listed position is `>= rows`.
    pub fn from_positions(rows: usize, set: &[u32]) -> Self {
        let mut mask = Self::none(rows);
        for &row in set {
            assert!((row as usize) < rows, "position {row} outside a mask of {rows} rows");
            mask.words[row as usize >> 6] |= 1 << (row & 63);
        }
        mask.ones = mask.words.iter().map(|w| w.count_ones() as usize).sum();
        mask
    }

    /// Number of row positions the mask covers (set or not).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of set positions.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Whether position `row` is set.
    ///
    /// # Panics
    /// Panics if `row` lies beyond the mask's last word.
    #[inline]
    pub fn get(&self, row: usize) -> bool {
        (self.words[row >> 6] >> (row & 63)) & 1 != 0
    }

    /// Set or clear position `row`.
    ///
    /// # Panics
    /// Panics if `row >= rows()`.
    pub fn set(&mut self, row: usize, on: bool) {
        assert!(row < self.rows, "position {row} outside a mask of {} rows", self.rows);
        if self.get(row) != on {
            self.words[row >> 6] ^= 1 << (row & 63);
            self.ones = if on { self.ones + 1 } else { self.ones - 1 };
        }
    }

    /// The positions set in both masks.
    ///
    /// # Panics
    /// Panics if the masks cover different row counts.
    pub fn and(&self, other: &RowMask) -> RowMask {
        assert_eq!(self.rows, other.rows, "masks over different row counts");
        let words: Vec<u64> = self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect();
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        RowMask { words, rows: self.rows, ones }
    }

    /// The set positions, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut left = word;
            std::iter::from_fn(move || {
                (left != 0).then(|| {
                    let bit = left.trailing_zeros() as usize;
                    left &= left - 1;
                    wi * 64 + bit
                })
            })
        })
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// An index may only be searched under a mask over its own ordinals: the
    /// check every [`crate::VectorIndex::search_masked`] makes first.
    pub fn check_covers(&self, indexed: usize) -> Result<()> {
        if self.rows == indexed {
            Ok(())
        } else {
            Err(IndexError::invalid(
                "mask",
                format!("{} positions for {indexed} indexed rows", self.rows),
            ))
        }
    }
}

/// Hand `rows` to `f` four at a time, so a scan can score them as one ×4
/// register tile; the ragged tail arrives as one shorter slice. Which rows
/// share a tile never shows in a result: every ×4 kernel returns the four
/// per-pair values bit for bit.
pub(crate) fn in_tiles(mut rows: impl Iterator<Item = usize>, mut f: impl FnMut(&[usize])) {
    let mut tile = [0usize; 4];
    loop {
        let mut n = 0;
        while n < 4 {
            let Some(row) = rows.next() else { break };
            tile[n] = row;
            n += 1;
        }
        if n > 0 {
            f(&tile[..n]);
        }
        if n < 4 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// Set, clear, and, count and iteration order against a `HashSet<usize>`
    /// model, at every length around a word boundary.
    #[test]
    fn agrees_with_a_hash_set_model() {
        let mut rng = StdRng::seed_from_u64(19);
        for rows in [0usize, 1, 63, 64, 65, 127, 128, 129, 1000] {
            let mut masks = Vec::new();
            for _ in 0..2 {
                let (mut mask, mut model) = (RowMask::none(rows), HashSet::new());
                for _ in 0..rows * 2 {
                    let (row, on) = (rng.gen_range(0..rows), rng.gen_bool(0.6));
                    mask.set(row, on);
                    if on {
                        model.insert(row);
                    } else {
                        model.remove(&row);
                    }
                    assert_eq!(mask.count(), model.len());
                }
                masks.push((mask, model));
            }
            let both = masks[0].0.and(&masks[1].0);
            let both_model: HashSet<usize> =
                masks[0].1.intersection(&masks[1].1).copied().collect();
            masks.push((both, both_model));
            for (mask, model) in &masks {
                assert_eq!(mask.rows(), rows);
                assert_eq!(mask.count(), model.len(), "rows = {rows}");
                let mut sorted: Vec<usize> = model.iter().copied().collect();
                sorted.sort_unstable();
                assert_eq!(mask.iter().collect::<Vec<_>>(), sorted, "rows = {rows}");
                assert!((0..rows).all(|row| mask.get(row) == model.contains(&row)));
                let listed: Vec<u32> = sorted.iter().map(|&r| r as u32).collect();
                assert_eq!(&RowMask::from_positions(rows, &listed), mask);
            }
            let all = RowMask::all(rows);
            assert_eq!((all.count(), all.iter().count()), (rows, rows));
            assert_eq!(all.and(&masks[0].0), masks[0].0);
        }
    }

    #[test]
    fn tiles_cover_every_row_once_in_order() {
        for n in [0usize, 1, 3, 4, 5, 8, 11] {
            let (mut seen, mut shapes) = (Vec::new(), Vec::new());
            in_tiles(0..n, |g| {
                seen.extend_from_slice(g);
                shapes.push(g.len());
            });
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
            assert!(shapes.iter().rev().skip(1).all(|&len| len == 4), "{shapes:?}");
        }
    }
}
