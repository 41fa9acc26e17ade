//! Differential pinning of every kernel lane against a naive reference.
//!
//! The kernel module carries three implementations of the same row
//! union: the `W1`/`W2` fixed-width lanes and the 4-way unrolled scalar
//! wide lane. Widths `1..=8` words cross every dispatch boundary — 1 and
//! 2 hit the fixed lanes, 3+ the wide lane, and 5/7 exercise the unroll
//! remainders — and universes deliberately include ragged tails
//! (`bits % 64 != 0`). Every lane must be bit-identical to the
//! one-word-at-a-time reference.

use lalr_bitset::{BitMatrix, BitSet};
use proptest::prelude::*;

const BITS: usize = usize::BITS as usize;

/// A universe of 1..=8 words, with ragged tails more likely than full
/// words.
fn universe() -> impl Strategy<Value = usize> {
    (1usize..=8, 1usize..=BITS).prop_map(|(words, used)| (words - 1) * BITS + used)
}

/// An arbitrary set over `0..bits` plus the naive mirror of its indices.
fn set_with_mirror(bits: usize) -> impl Strategy<Value = (BitSet, Vec<usize>)> {
    prop::collection::vec(0..bits, 0..64).prop_map(move |idx| {
        let set = BitSet::from_indices(bits, idx.iter().copied());
        (set, idx)
    })
}

proptest! {
    /// `union_with` (whatever lane it dispatches to) matches per-index
    /// insertion, bit for bit, including the changed flag and the
    /// tail-word invariant.
    #[test]
    fn union_matches_naive_reference(
        input in universe().prop_flat_map(|bits| {
            (Just(bits), (set_with_mirror(bits), set_with_mirror(bits)))
        })
    ) {
        let (bits, ((mut a, ia), (b, ib))) = input.clone();
        let before = a.clone();
        let changed = a.union_with(&b);

        let mut naive = BitSet::new(bits);
        for &i in ia.iter().chain(&ib) {
            naive.insert(i);
        }
        prop_assert_eq!(&a, &naive);
        prop_assert_eq!(changed, a != before, "changed flag must track mutation");

        // Tail invariant: counting through words equals counting through
        // indices, which fails if a lane smeared bits past `bits`.
        prop_assert_eq!(a.count(), naive.iter().count());

        // Idempotence: a second union through the same lane is a no-op.
        let mut again = a.clone();
        prop_assert!(!again.union_with(&b));
        prop_assert_eq!(again, a);
    }

    /// Matrix row unions (two-row, external-words and row-copy kernels)
    /// agree with the owned-set union across the same widths.
    #[test]
    fn matrix_kernels_match_bitset_union(
        input in universe().prop_flat_map(|bits| {
            (Just(bits), (set_with_mirror(bits), set_with_mirror(bits)))
        })
    ) {
        let (bits, ((a, _), (b, _))) = input.clone();
        let mut m = BitMatrix::new(3, bits);
        for i in &a {
            m.set(0, i);
        }
        for i in &b {
            m.set(1, i);
        }

        let mut want = a.clone();
        let want_changed = want.union_with(&b);

        let mut via_rows = m.clone();
        prop_assert_eq!(via_rows.union_rows(0, 1), want_changed);
        prop_assert_eq!(via_rows.row_to_bitset(0), want.clone());

        let mut via_words = m.clone();
        prop_assert_eq!(via_words.union_row_with_words(0, b.as_words()), want_changed);
        prop_assert_eq!(via_words.row_to_bitset(0), want.clone());

        m.copy_row(2, 0);
        prop_assert_eq!(m.row_to_bitset(2), a);
    }

    /// Query kernels (popcount / subset / disjoint) across the owned,
    /// borrowed and matrix-row paths all agree with index arithmetic.
    #[test]
    fn query_kernels_agree_with_index_sets(
        input in universe().prop_flat_map(|bits| {
            (Just(bits), (set_with_mirror(bits), set_with_mirror(bits)))
        })
    ) {
        let (_bits, ((a, ia), (b, ib))) = input.clone();
        use std::collections::BTreeSet;
        let sa: BTreeSet<usize> = ia.into_iter().collect();
        let sb: BTreeSet<usize> = ib.into_iter().collect();

        prop_assert_eq!(a.count(), sa.len());
        prop_assert_eq!(a.as_ref_set().count(), sa.len());
        prop_assert_eq!(a.is_subset(&b), sa.is_subset(&sb));
        prop_assert_eq!(a.as_ref_set().is_subset(b.as_ref_set()), sa.is_subset(&sb));
        prop_assert_eq!(a.is_disjoint(&b), sa.is_disjoint(&sb));
        prop_assert_eq!(a.as_ref_set().is_disjoint(b.as_ref_set()), sa.is_disjoint(&sb));
    }
}

/// The layout a universe selects is a pure function of its width — the
/// anchor for `kernel_budget.rs` in `lalr-bench`.
#[test]
fn layouts_are_deterministic() {
    use lalr_bitset::RowLayout;
    for words in 1usize..=8 {
        for used in [1, BITS / 2, BITS] {
            let bits = (words - 1) * BITS + used;
            let layout = RowLayout::select(bits);
            assert_eq!(layout.words(), words.max(1), "bits={bits}");
            let expected = match words {
                1 => "fixed-64",
                2 => "fixed-128",
                _ => "multi-word",
            };
            assert_eq!(layout.name(), expected, "bits={bits}");
            assert_eq!(BitMatrix::new(1, bits).layout(), layout);
        }
    }
}
