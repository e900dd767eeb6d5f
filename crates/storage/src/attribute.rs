//! Columnar attribute storage with skip pointers (§2.4).
//!
//! "Each attribute column is stored as an array of (key, value) pairs where
//! the key is the attribute value and value is the row ID, sorted by the key.
//! Besides that, we build skip pointers (i.e., min/max values) following
//! Snowflake as indexing for the data pages" — enabling point and range
//! queries such as `price < 100` to skip non-overlapping pages.

use std::ops::Range;

use milvus_index::RowMask;

/// Entries per page for the skip pointers.
pub const PAGE_SIZE: usize = 256;

/// Per-page min/max skip pointer.
#[derive(Debug, Clone, Copy)]
pub struct PageStat {
    /// Smallest key in the page.
    pub min: f64,
    /// Largest key in the page.
    pub max: f64,
}

/// A sorted `(key, row)` attribute column over one segment's rows.
///
/// Struct-of-arrays: `values` holds each row's value at its row *position*
/// (the id is the segment's `row_ids[row]`), `order` lists the positions
/// sorted by value then position — the paper's key-sorted array, 12 bytes a
/// row, with both the range scan and the per-row read direct.
#[derive(Debug, Clone)]
pub struct AttributeColumn {
    name: String,
    /// `values[row]` is row position `row`'s attribute value.
    values: Vec<f64>,
    /// Row positions sorted by `(value, position)`.
    order: Vec<u32>,
    /// Skip pointers, one per [`PAGE_SIZE`] entries of `order`.
    pages: Vec<PageStat>,
}

impl AttributeColumn {
    /// Build from `values[row]`, one per row position.
    ///
    /// # Panics
    /// Panics if there are more rows than a `u32` position can name.
    pub fn build(name: impl Into<String>, values: Vec<f64>) -> Self {
        let rows = u32::try_from(values.len()).expect("a segment's rows fit a u32 position");
        let mut order: Vec<u32> = (0..rows).collect();
        order.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]).then(a.cmp(&b)));
        let pages = order
            .chunks(PAGE_SIZE)
            .map(|page| PageStat {
                min: values[page[0] as usize],
                max: values[page[page.len() - 1] as usize],
            })
            .collect();
        Self { name: name.into(), values, order, pages }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Column min/max, `None` when empty.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        Some((self.pages.first()?.min, self.pages.last()?.max))
    }

    /// First entry of `order` whose key is not `below` (a predicate that
    /// holds for a prefix of the sorted keys). The skip pointers pick the one
    /// page the boundary falls in, so only its keys are read through `order`.
    fn boundary(&self, below: impl Fn(f64) -> bool) -> usize {
        let start = (self.pages.partition_point(|p| below(p.max)) * PAGE_SIZE).min(self.len());
        let page = &self.order[start..(start + PAGE_SIZE).min(self.len())];
        start + page.partition_point(|&row| below(self.values[row as usize]))
    }

    /// The entries of `order` whose value lies in `[lo, hi]`. No NaN passes,
    /// as under `lo <= v && v <= hi`: `total_cmp` sorts a negative NaN before
    /// every number and a positive one after, so both boundaries count the
    /// negative NaNs as below and neither reaches the positive ones.
    fn span(&self, lo: f64, hi: f64) -> Range<usize> {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return 0..0;
        }
        let negative_nan = |v: f64| v.is_nan() && v.is_sign_negative();
        self.boundary(|v| v < lo || negative_nan(v))..self.boundary(|v| v <= hi || negative_nan(v))
    }

    /// Row positions whose value lies in `[lo, hi]` (inclusive range, the
    /// paper's `a >= p1 && a <= p2` form), in key order.
    pub fn range_rows(&self, lo: f64, hi: f64) -> &[u32] {
        &self.order[self.span(lo, hi)]
    }

    /// Row positions with value exactly `key`.
    pub fn point_rows(&self, key: f64) -> &[u32] {
        self.range_rows(key, key)
    }

    /// [`Self::range_rows`] as a bitmap over the column's row positions —
    /// what a filtered scan consults (§4.1 strategy B). Written from the
    /// shorter side: the passing rows set, or every row set and the failing
    /// ones cleared.
    pub fn range_mask(&self, lo: f64, hi: f64) -> RowMask {
        let (span, n) = (self.span(lo, hi), self.len());
        if span.len() <= n / 2 {
            return RowMask::from_positions(n, &self.order[span]);
        }
        let mut mask = RowMask::all(n);
        mask.clear_positions(&self.order[..span.start]);
        mask.clear_positions(&self.order[span.end..]);
        mask
    }

    /// Count of rows in `[lo, hi]` without materializing them (selectivity,
    /// and which partitions filtering strategy E prunes or covers, §4.1).
    pub fn count_range(&self, lo: f64, hi: f64) -> usize {
        self.range_rows(lo, hi).len()
    }

    /// Attribute value of row position `row`.
    ///
    /// # Panics
    /// Panics if `row >= len()`.
    pub fn value_at(&self, row: usize) -> f64 {
        self.values[row]
    }

    /// Approximate heap size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.values.len() * 12 + self.pages.len() * 16
    }

    /// Iterate `(value, row position)` in key order (the codec's layout).
    pub fn iter(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        self.order.iter().map(|&row| (self.values[row as usize], row as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(n: usize) -> AttributeColumn {
        // Values n-1..=0 by row position, so sorting has to reorder: value v
        // sits at row n-1-v.
        AttributeColumn::build("price", (0..n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn range_query_inclusive() {
        let c = col(100);
        // Key order: values 10, 11, 12 at rows 89, 88, 87.
        assert_eq!(c.range_rows(10.0, 12.0), &[89, 88, 87]);
        let mask = c.range_mask(10.0, 12.0);
        assert_eq!((mask.rows(), mask.iter().collect::<Vec<_>>()), (100, vec![87, 88, 89]));
    }

    #[test]
    fn range_spanning_pages_uses_all_pages() {
        let c = col(PAGE_SIZE * 3 + 10);
        let rows = c.range_rows(0.0, (PAGE_SIZE * 3 + 9) as f64);
        assert_eq!(rows.len(), PAGE_SIZE * 3 + 10);
    }

    #[test]
    fn disjoint_range_is_empty() {
        let c = col(50);
        assert!(c.range_rows(100.0, 200.0).is_empty());
        assert!(c.range_rows(-10.0, -1.0).is_empty());
        assert!(c.range_rows(5.0, 4.0).is_empty());
        assert_eq!(c.range_mask(100.0, 200.0).count(), 0);
    }

    #[test]
    fn point_query() {
        let c = col(20);
        assert_eq!(c.point_rows(7.0), &[12]);
        assert!(c.point_rows(7.5).is_empty());
    }

    #[test]
    fn duplicate_keys_all_returned_in_row_order() {
        let c = AttributeColumn::build("a", vec![5.0, 1.0, 5.0, 5.0]);
        assert_eq!(c.point_rows(5.0), &[0, 2, 3]);
    }

    /// The paged boundary search agrees with a plain filter at every bound
    /// around the page edges (including a last page that is full).
    #[test]
    fn ranges_match_a_naive_filter_around_page_edges() {
        for n in [0usize, 1, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, PAGE_SIZE * 2] {
            let c = col(n);
            let edges = [0, 1, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, n.saturating_sub(1), n, n + 5];
            for lo in edges {
                for hi in edges {
                    let (lo, hi) = (lo as f64 - 0.5, hi as f64);
                    let expect = (0..n).filter(|&v| (v as f64) >= lo && (v as f64) <= hi).count();
                    assert_eq!(c.count_range(lo, hi), expect, "n={n} [{lo}, {hi}]");
                    assert_eq!(c.range_mask(lo, hi).count(), expect, "n={n} [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn value_at_reads_by_row_position() {
        let c = col(10);
        assert_eq!((c.value_at(0), c.value_at(9)), (9.0, 0.0));
        assert_eq!(c.iter().next(), Some((0.0, 9)));
    }

    #[test]
    fn min_max() {
        assert_eq!(col(10).min_max(), Some((0.0, 9.0)));
        let empty = AttributeColumn::build("e", Vec::new());
        assert_eq!(empty.min_max(), None);
        assert!(empty.range_rows(0.0, 1.0).is_empty());
    }

    #[test]
    fn skip_pointers_one_per_page() {
        let c = col(PAGE_SIZE * 2 + 1);
        assert_eq!(c.pages.len(), 3);
        assert_eq!(c.pages[0].min, 0.0);
        assert_eq!(c.pages[0].max, (PAGE_SIZE - 1) as f64);
    }
    /// Every bound drawn from the stored values (±0, ±∞, ±NaN, duplicates)
    /// selects exactly the rows the scalar `lo <= v && v <= hi` passes; no
    /// NaN of either sign ever does.
    #[test]
    fn ranges_match_the_scalar_predicate_around_signed_zeros_infinities_and_nans() {
        let neg_nan = -f64::NAN;
        assert!(neg_nan.is_sign_negative() && f64::NAN.is_sign_positive());
        let values = vec![
            1.0, neg_nan, 0.0, -0.0, f64::INFINITY, f64::NAN, -1.0, f64::NEG_INFINITY, 0.0, neg_nan,
            -0.0, 1.0, f64::NAN, 2.5, f64::INFINITY, -1.0,
        ];
        let c = AttributeColumn::build("a", values.clone());
        let mut bounds = values.clone();
        bounds.extend([-1e9, 1e9, 0.5, -0.5]);
        for &lo in &bounds {
            for &hi in &bounds {
                let expect: Vec<usize> =
                    (0..values.len()).filter(|&r| lo <= values[r] && values[r] <= hi).collect();
                let mut got: Vec<usize> =
                    c.range_rows(lo, hi).iter().map(|&r| r as usize).collect();
                got.sort_unstable();
                assert_eq!(got, expect, "[{lo}, {hi}]");
                assert_eq!(c.range_mask(lo, hi).iter().collect::<Vec<_>>(), expect, "[{lo}, {hi}]");
                assert_eq!(c.count_range(lo, hi), expect.len());
            }
        }
        // One negative NaN among `0..n`: the widest range passes `n - 1` rows.
        let n = PAGE_SIZE * 2 + 3;
        let mut values: Vec<f64> = (0..n).map(|v| v as f64).collect();
        values[7] = neg_nan;
        let c = AttributeColumn::build("a", values);
        assert_eq!(c.count_range(-1e9, 1e9), n - 1);
        assert!(!c.range_mask(-1e9, 1e9).get(7));
    }

    /// Built from either side, the mask is bit for bit the one the passing
    /// positions give, at every passing share from none to all.
    #[test]
    fn masks_from_either_side_equal_the_mask_of_the_passing_rows() {
        let n = PAGE_SIZE * 4 + 37;
        // Values 0..100 evenly, zero stored as -0.0 on odd rows: `[±0, p - 1]`
        // passes p % of the rows.
        let values: Vec<f64> = (0..n)
            .map(|r| match (r * 37) % 100 {
                0 if r % 2 == 1 => -0.0,
                v => v as f64,
            })
            .collect();
        let c = AttributeColumn::build("a", values);
        for percent in [0.0, 1.0, 10.0, 50.0, 90.0, 100.0] {
            for lo in [-0.0, 0.0] {
                let hi = percent - 1.0;
                let want = RowMask::from_positions(n, c.range_rows(lo, hi));
                assert_eq!(c.range_mask(lo, hi), want, "[{lo}, {hi}]");
                let share = want.count() as f64 / n as f64;
                assert!((share - percent / 100.0).abs() < 0.01, "[{lo}, {hi}] passes {share}");
            }
        }
        let all = c.range_mask(-1.0, 100.0);
        assert_eq!((all.count(), all), (n, RowMask::all(n)));
    }
}
