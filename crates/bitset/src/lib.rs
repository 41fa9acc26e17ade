//! Dense bit-set and bit-matrix types.
//!
//! The DeRemer–Pennello algorithm manipulates many small sets of terminal
//! symbols: direct-read sets, `Read` sets, `Follow` sets and the final
//! look-ahead sets. The paper represents these as machine-word bit vectors so
//! that the unions performed by the Digraph traversal cost a handful of word
//! `OR`s. This crate provides that substrate:
//!
//! * [`BitSet`] — a growable, dense set of `usize` indices.
//! * [`BitMatrix`] — a rectangular array of rows, each a fixed-width bit set,
//!   used for indexed families of sets (one row per nonterminal transition).
//!
//! # Examples
//!
//! ```
//! use lalr_bitset::BitSet;
//!
//! let mut a = BitSet::new(128);
//! a.insert(3);
//! a.insert(70);
//! let mut b = BitSet::new(128);
//! b.insert(70);
//! b.insert(100);
//! a.union_with(&b);
//! assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 70, 100]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod matrix;
mod refset;

pub mod kernels;

pub use bitset::{BitSet, Iter};
pub use kernels::RowLayout;
pub use matrix::BitMatrix;
pub use refset::{BitSetRef, RefIter};

pub(crate) const BITS: usize = usize::BITS as usize;

/// Number of `usize` words needed to hold `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(BITS)
}

#[cfg(test)]
mod tests {
    use super::words_for;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(usize::BITS as usize), 1);
        assert_eq!(words_for(usize::BITS as usize + 1), 2);
    }
}
