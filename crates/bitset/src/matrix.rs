//! The [`BitMatrix`] type.

use std::fmt;

use crate::kernels::{self, RowLayout};
use crate::{words_for, BITS};

/// A rectangular bit matrix: `rows` rows, each a bit set over `0..cols`.
///
/// The DeRemer–Pennello computation keeps one terminal set per nonterminal
/// transition (`Read`, `Follow`) and per reduction item (`LA`). Storing them
/// as rows of one contiguous matrix keeps the Digraph traversal's row unions
/// cache-friendly and allocation-free.
///
/// # Examples
///
/// ```
/// use lalr_bitset::BitMatrix;
///
/// let mut m = BitMatrix::new(3, 100);
/// m.set(0, 42);
/// m.set(1, 7);
/// m.union_rows(0, 1); // row 0 |= row 1
/// assert!(m.get(0, 7) && m.get(0, 42));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BitMatrix {
    words: Vec<usize>,
    rows: usize,
    cols: usize,
    row_words: usize,
}

impl BitMatrix {
    /// Creates an all-zero matrix of `rows × cols` bits.
    pub fn new(rows: usize, cols: usize) -> Self {
        let row_words = words_for(cols);
        BitMatrix {
            words: vec![0; rows * row_words],
            rows,
            cols,
            row_words,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (universe of each row).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The [`RowLayout`] this matrix's rows dispatch under, derived from
    /// the column universe (not stored — the matrix stays a plain
    /// comparable/hashable/serializable value).
    #[inline]
    pub fn layout(&self) -> RowLayout {
        RowLayout::select(self.cols)
    }

    #[inline]
    fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        assert!(row < self.rows, "row {row} out of range 0..{}", self.rows);
        let start = row * self.row_words;
        start..start + self.row_words
    }

    /// Sets bit `(row, col)`, returning `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) -> bool {
        assert!(col < self.cols, "col {col} out of range 0..{}", self.cols);
        let r = self.row_range(row);
        let w = &mut self.words[r][col / BITS];
        let mask = 1usize << (col % BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Clears bit `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn unset(&mut self, row: usize, col: usize) {
        assert!(col < self.cols, "col {col} out of range 0..{}", self.cols);
        let r = self.row_range(row);
        self.words[r][col / BITS] &= !(1usize << (col % BITS));
    }

    /// Tests bit `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range. Out-of-range `col` reads as `false`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        if col >= self.cols {
            return false;
        }
        let r = self.row_range(row);
        self.words[r][col / BITS] & (1usize << (col % BITS)) != 0
    }

    /// `row[dst] |= row[src]`; returns `true` if `dst` changed.
    ///
    /// Rows may coincide (then nothing changes).
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range.
    pub fn union_rows(&mut self, dst: usize, src: usize) -> bool {
        if dst == src {
            return false;
        }
        let rd = self.row_range(dst);
        let rs = self.row_range(src);
        let mut changed = false;
        // Split via split_at_mut to obtain two disjoint row slices.
        let (lo, hi, dst_first) = if rd.start < rs.start {
            let (a, b) = self.words.split_at_mut(rs.start);
            (&mut a[rd.clone()], &mut b[..self.row_words], true)
        } else {
            let (a, b) = self.words.split_at_mut(rd.start);
            (&mut a[rs.clone()], &mut b[..self.row_words], false)
        };
        let (dst_row, src_row) = if dst_first { (lo, hi) } else { (hi, lo) };
        changed |= kernels::or_into(dst_row, src_row);
        kernels::debug_assert_tail_clear(dst_row, self.cols);
        changed
    }

    /// ORs an external word slice into `row`; returns `true` if it changed.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `src` is shorter than a row.
    pub fn union_row_with_words(&mut self, row: usize, src: &[usize]) -> bool {
        let r = self.row_range(row);
        let changed = kernels::or_into(&mut self.words[r.clone()], src);
        kernels::debug_assert_tail_clear(&self.words[r], self.cols);
        changed
    }

    /// Borrows the raw words of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_words(&self, row: usize) -> &[usize] {
        let r = self.row_range(row);
        &self.words[r]
    }

    /// Borrows `row` as a [`crate::BitSetRef`] set view, without copying.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> crate::BitSetRef<'_> {
        crate::BitSetRef::from_words(self.row_words(row), self.cols)
    }

    /// Copies `src` row over `dst` row.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range.
    pub fn copy_row(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        let rs = self.row_range(src);
        let rd = self.row_range(dst);
        // Split into disjoint slices so the copy kernel runs without a
        // temporary row allocation.
        let (dst_row, src_row) = if rd.start < rs.start {
            let (a, b) = self.words.split_at_mut(rs.start);
            (&mut a[rd], &b[..self.row_words])
        } else {
            let (a, b) = self.words.split_at_mut(rd.start);
            (&mut b[..self.row_words], &a[rs])
        };
        kernels::copy(dst_row, src_row);
    }

    /// Clears every bit of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn clear_row(&mut self, row: usize) {
        let r = self.row_range(row);
        for w in &mut self.words[r] {
            *w = 0;
        }
    }

    /// Number of set bits in `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_count(&self, row: usize) -> usize {
        kernels::popcount(self.row_words(row))
    }

    /// Returns `true` if `row` has no set bits.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_is_empty(&self, row: usize) -> bool {
        self.row_words(row).iter().all(|&w| w == 0)
    }

    /// Iterates over the set columns of `row` in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn iter_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        let words = self.row_words(row);
        words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * BITS + bit)
            })
        })
    }

    /// Extracts `row` as an owned [`crate::BitSet`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_to_bitset(&self, row: usize) -> crate::BitSet {
        crate::BitSet::from_indices(self.cols, self.iter_row(row))
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  {r}: ")?;
            f.debug_set().entries(self.iter_row(r)).finish()?;
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset() {
        let mut m = BitMatrix::new(4, 130);
        assert!(m.set(0, 0));
        assert!(m.set(3, 129));
        assert!(!m.set(3, 129));
        assert!(m.get(0, 0));
        assert!(m.get(3, 129));
        assert!(!m.get(1, 0));
        m.unset(0, 0);
        assert!(!m.get(0, 0));
    }

    #[test]
    fn union_rows_both_directions() {
        let mut m = BitMatrix::new(3, 64);
        m.set(0, 1);
        m.set(2, 5);
        assert!(m.union_rows(0, 2), "dst < src");
        assert!(m.get(0, 5));
        assert!(m.union_rows(2, 0), "src < dst");
        assert!(m.get(2, 1));
        assert!(!m.union_rows(1, 1), "self union is no-op");
    }

    #[test]
    fn union_row_with_words_matches_union_rows() {
        let mut a = BitMatrix::new(2, 200);
        a.set(1, 150);
        a.set(1, 3);
        let src: Vec<usize> = a.row_words(1).to_vec();
        let mut b = a.clone();
        a.union_rows(0, 1);
        b.union_row_with_words(0, &src);
        assert_eq!(a, b);
    }

    #[test]
    fn row_iter_and_count() {
        let mut m = BitMatrix::new(2, 100);
        for c in [0, 63, 64, 99] {
            m.set(1, c);
        }
        assert_eq!(m.iter_row(1).collect::<Vec<_>>(), vec![0, 63, 64, 99]);
        assert_eq!(m.row_count(1), 4);
        assert!(m.row_is_empty(0));
        assert!(!m.row_is_empty(1));
    }

    #[test]
    fn copy_and_clear_row() {
        let mut m = BitMatrix::new(2, 70);
        m.set(0, 69);
        m.copy_row(1, 0);
        assert!(m.get(1, 69));
        m.clear_row(0);
        assert!(m.row_is_empty(0));
        assert!(m.get(1, 69), "clearing one row leaves others intact");
    }

    #[test]
    fn row_to_bitset_round_trip() {
        let mut m = BitMatrix::new(1, 90);
        m.set(0, 2);
        m.set(0, 89);
        let s = m.row_to_bitset(0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 89]);
        assert_eq!(s.len(), 90);
    }
}
