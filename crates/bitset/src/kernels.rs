//! Word-level row kernels: the one home of every inner loop in this crate.
//!
//! Every look-ahead method in the workspace bottoms out in a handful of
//! dense row operations — union with a changed flag, row copy,
//! population count, and the subset and disjointness tests. The set
//! types of `bitset.rs`, `matrix.rs` and `refset.rs` all delegate here,
//! so every caller shares one code path and one optimization surface.
//!
//! # Layout selection
//!
//! [`RowLayout::select`] classifies a row universe once per analysis:
//!
//! * [`RowLayout::Fixed64`] (`W1`) — the universe fits one machine word
//!   (≤ 64 terminals on 64-bit hosts; most of the corpus). Kernels run a
//!   single straight-line word operation: no loop and no length
//!   dispatch in the body.
//! * [`RowLayout::Fixed128`] (`W2`) — two words (65–128 terminals);
//!   same story with a two-word straight-line body.
//! * [`RowLayout::MultiWord`] — anything wider takes the *wide* path,
//!   one portable 4-way unrolled scalar loop.
//!
//! The fixed lanes are not merely an inlining hint: the kernels match on
//! the slice width *first*, so a one-word grammar never executes loop
//! bookkeeping, and the branch predicts perfectly because the width is a
//! per-analysis constant.
//!
//! # Tail-bit invariant
//!
//! Rows own `words_for(bits)` words; bits past `bits` in the last word
//! must stay zero (iteration, popcount and equality depend on it). Every
//! mutating wrapper in this crate calls [`debug_assert_tail_clear`]
//! after its kernel, so a kernel that smears bits into the tail fails
//! loudly in debug builds instead of silently corrupting counts.

use crate::{words_for, BITS};

// ---------------------------------------------------------------------------
// Layout selection

/// How the rows of one analysis are stored and which kernel lane
/// processes them. Selected once per universe via [`RowLayout::select`]
/// and consumed by [`BitMatrix`](crate::BitMatrix),
/// [`BitSetRef`](crate::BitSetRef) and the look-ahead store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowLayout {
    /// One word per row (`W1`): universes of ≤ 64 bits on 64-bit hosts.
    Fixed64,
    /// Two words per row (`W2`): universes of 65–128 bits.
    Fixed128,
    /// The unrolled wide lane for wider universes.
    MultiWord {
        /// Words per row (`>= 3`).
        words: usize,
    },
}

impl RowLayout {
    /// Classifies a universe of `bits` bits.
    ///
    /// A zero-bit universe still reports [`RowLayout::Fixed64`]: its rows
    /// hold no words and every kernel is a no-op, so the single-word lane
    /// is trivially correct.
    pub fn select(bits: usize) -> RowLayout {
        match words_for(bits) {
            0 | 1 => RowLayout::Fixed64,
            2 => RowLayout::Fixed128,
            words => RowLayout::MultiWord { words },
        }
    }

    /// Words per row under this layout (0- and 1-word universes both
    /// report 1; see [`RowLayout::select`]).
    pub fn words(self) -> usize {
        match self {
            RowLayout::Fixed64 => 1,
            RowLayout::Fixed128 => 2,
            RowLayout::MultiWord { words } => words,
        }
    }

    /// Stable human-readable name: `fixed-64`, `fixed-128` or
    /// `multi-word` (the names assume 64-bit words; on narrower hosts the
    /// same word-count cutoffs apply).
    pub fn name(self) -> &'static str {
        match self {
            RowLayout::Fixed64 => "fixed-64",
            RowLayout::Fixed128 => "fixed-128",
            RowLayout::MultiWord { .. } => "multi-word",
        }
    }
}

// ---------------------------------------------------------------------------
// Tail-bit invariant

/// Debug-asserts that bits past `bits` in the last word of `words` are
/// zero. Called by every mutating wrapper after its kernel; compiles to
/// nothing in release builds.
#[inline]
pub fn debug_assert_tail_clear(words: &[usize], bits: usize) {
    if cfg!(debug_assertions) {
        let used = bits % BITS;
        if used != 0 {
            if let Some(&last) = words.last() {
                debug_assert_eq!(
                    last & !((1usize << used) - 1),
                    0,
                    "tail bits past {bits} must stay masked to zero"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row kernels

/// `dst |= src`, reporting whether `dst` changed.
///
/// Processes `dst.len()` words; `src` may be longer (the excess is
/// ignored). The hot kernel of every fixpoint loop in the workspace.
///
/// # Panics
///
/// Panics if `src` is shorter than `dst`.
#[inline]
pub fn or_into(dst: &mut [usize], src: &[usize]) -> bool {
    assert!(
        src.len() >= dst.len(),
        "source shorter than destination row"
    );
    match dst.len() {
        0 => false,
        1 => {
            let fresh = src[0] & !dst[0];
            dst[0] |= src[0];
            fresh != 0
        }
        2 => {
            let fresh = (src[0] & !dst[0]) | (src[1] & !dst[1]);
            dst[0] |= src[0];
            dst[1] |= src[1];
            fresh != 0
        }
        _ => or_wide(dst, &src[..dst.len()]),
    }
}

/// `dst := src` (row copy). Processes `dst.len()` words; `src` may be
/// longer.
///
/// # Panics
///
/// Panics if `src` is shorter than `dst`.
#[inline]
pub fn copy(dst: &mut [usize], src: &[usize]) {
    assert!(
        src.len() >= dst.len(),
        "source shorter than destination row"
    );
    match dst.len() {
        0 => {}
        1 => dst[0] = src[0],
        2 => {
            dst[0] = src[0];
            dst[1] = src[1];
        }
        n => dst.copy_from_slice(&src[..n]),
    }
}

/// Number of set bits in a row (`count_ones` compiles to hardware
/// `popcnt` where available).
#[inline]
pub fn popcount(words: &[usize]) -> usize {
    match words {
        [] => 0,
        [a] => a.count_ones() as usize,
        [a, b] => (a.count_ones() + b.count_ones()) as usize,
        _ => words.iter().map(|w| w.count_ones() as usize).sum(),
    }
}

/// Returns `true` if the row of `a` is a subset of the row of `b`.
///
/// # Panics
///
/// Panics if `b` is shorter than `a`.
#[inline]
pub fn is_subset(a: &[usize], b: &[usize]) -> bool {
    assert!(b.len() >= a.len(), "rows must share a universe");
    match a.len() {
        0 => true,
        1 => a[0] & !b[0] == 0,
        2 => (a[0] & !b[0]) | (a[1] & !b[1]) == 0,
        _ => a.iter().zip(b).all(|(&x, &y)| x & !y == 0),
    }
}

/// Returns `true` if the rows of `a` and `b` share no set bit.
///
/// # Panics
///
/// Panics if `b` is shorter than `a`.
#[inline]
pub fn is_disjoint(a: &[usize], b: &[usize]) -> bool {
    assert!(b.len() >= a.len(), "rows must share a universe");
    match a.len() {
        0 => true,
        1 => a[0] & b[0] == 0,
        2 => (a[0] & b[0]) | (a[1] & b[1]) == 0,
        _ => a.iter().zip(b).all(|(&x, &y)| x & y == 0),
    }
}

/// The wide lane of [`or_into`]: 4-way unrolled, accumulating the
/// fresh-bit mask so the changed test is one compare at the end.
fn or_wide(dst: &mut [usize], src: &[usize]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let split = n - n % 4;
    let mut fresh = 0usize;
    let (dc, dr) = dst.split_at_mut(split);
    let (sc, sr) = src.split_at(split);
    for (d, s) in dc.chunks_exact_mut(4).zip(sc.chunks_exact(4)) {
        fresh |= s[0] & !d[0];
        d[0] |= s[0];
        fresh |= s[1] & !d[1];
        d[1] |= s[1];
        fresh |= s[2] & !d[2];
        d[2] |= s[2];
        fresh |= s[3] & !d[3];
        d[3] |= s[3];
    }
    for (d, &s) in dr.iter_mut().zip(sr) {
        fresh |= s & !*d;
        *d |= s;
    }
    fresh != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unoptimized reference every lane must match.
    fn or_reference(dst: &mut [usize], src: &[usize]) -> bool {
        let mut changed = false;
        for (d, &s) in dst.iter_mut().zip(src) {
            let next = *d | s;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    fn words(seed: u64, n: usize) -> Vec<usize> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as usize
            })
            .collect()
    }

    #[test]
    fn layout_selection_boundaries() {
        assert_eq!(RowLayout::select(0), RowLayout::Fixed64);
        assert_eq!(RowLayout::select(1), RowLayout::Fixed64);
        assert_eq!(RowLayout::select(BITS), RowLayout::Fixed64);
        assert_eq!(RowLayout::select(BITS + 1), RowLayout::Fixed128);
        assert_eq!(RowLayout::select(2 * BITS), RowLayout::Fixed128);
        assert_eq!(
            RowLayout::select(2 * BITS + 1),
            RowLayout::MultiWord { words: 3 }
        );
        assert_eq!(RowLayout::select(BITS).words(), 1);
        assert_eq!(RowLayout::select(2 * BITS).words(), 2);
        assert_eq!(RowLayout::select(10 * BITS).words(), 10);
        assert_eq!(RowLayout::select(5).name(), "fixed-64");
        assert_eq!(RowLayout::select(BITS + 1).name(), "fixed-128");
        assert_eq!(RowLayout::select(999).name(), "multi-word");
    }

    #[test]
    fn or_into_matches_reference_across_widths() {
        for n in 0..=9 {
            for seed in [1u64, 0xdead, 0x1234_5678] {
                let src = words(seed, n);
                let mut a = words(seed.wrapping_mul(31), n);
                let mut b = a.clone();
                let ra = or_reference(&mut a, &src);
                let rb = or_into(&mut b, &src);
                assert_eq!(a, b, "width {n}");
                assert_eq!(ra, rb, "changed flag at width {n}");
                // Idempotence: the second union reports no change.
                assert!(!or_into(&mut b, &src), "width {n}");
            }
        }
    }

    #[test]
    fn wide_lane_matches_reference() {
        for n in 3..=13 {
            let src = words(99, n);
            let mut a = words(7, n);
            let mut b = a.clone();
            let ra = or_reference(&mut a, &src);
            let rb = or_wide(&mut b, &src);
            assert_eq!(a, b, "width {n}");
            assert_eq!(ra, rb, "width {n}");
        }
    }

    #[test]
    fn copy_and_popcount() {
        for n in 0..=6 {
            let src = words(17, n);
            let mut dst = vec![0; n];
            copy(&mut dst, &src);
            assert_eq!(dst, src);
            let want: usize = src.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(popcount(&src), want);
        }
    }

    #[test]
    fn subset_and_disjoint_lanes() {
        for n in 0..=6 {
            let a = words(21, n);
            let every: Vec<usize> = vec![usize::MAX; n];
            let none: Vec<usize> = vec![0; n];
            assert!(is_subset(&a, &every));
            assert!(is_subset(&none, &a));
            assert!(is_disjoint(&a, &none));
            if a.iter().any(|&w| w != 0) {
                assert!(!is_disjoint(&a, &every));
                let inverted: Vec<usize> = a.iter().map(|&w| !w).collect();
                assert!(!is_subset(&a, &inverted));
                assert!(is_disjoint(&a, &inverted));
            }
        }
    }

    #[test]
    fn tail_assert_accepts_clean_rows() {
        debug_assert_tail_clear(&[usize::MAX], BITS);
        debug_assert_tail_clear(&[0b111], 3);
        debug_assert_tail_clear(&[], 0);
    }

    #[test]
    #[should_panic(expected = "tail bits")]
    #[cfg(debug_assertions)]
    fn tail_assert_catches_smeared_bits() {
        debug_assert_tail_clear(&[0b1111], 3);
    }
}
