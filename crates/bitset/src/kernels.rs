//! Word-level row kernels: the one home of every inner loop in this crate.
//!
//! Every look-ahead method in the workspace bottoms out in a handful of
//! dense row operations — union, union-with-changed-flag, masked OR,
//! row copy, population count, and a blocked multi-source OR. The set
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
//! * [`RowLayout::MultiWord`] — anything wider takes the *wide* path:
//!   a 4-way unrolled scalar loop by default, or the `core::arch`
//!   SSE2/AVX2 kernels when the crate is built with the `simd` feature
//!   (selected once at runtime via CPU detection; see
//!   [`dispatch_name`]).
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

use std::sync::atomic::{AtomicU8, Ordering};

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
    /// The general unrolled/SIMD lane for wider universes.
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

    /// The kernel lane this layout dispatches to: `w1`/`w2` for the
    /// fixed widths, otherwise the wide dispatch (see [`dispatch_name`]).
    pub fn dispatch(self) -> &'static str {
        match self {
            RowLayout::Fixed64 => "w1",
            RowLayout::Fixed128 => "w2",
            RowLayout::MultiWord { .. } => dispatch_name(),
        }
    }
}

// ---------------------------------------------------------------------------
// Wide-lane dispatch (runtime CPU detection, cached)

const D_UNSET: u8 = 0;
const D_SCALAR: u8 = 1;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
const D_SSE2: u8 = 2;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
const D_AVX2: u8 = 3;

static WIDE_DISPATCH: AtomicU8 = AtomicU8::new(D_UNSET);

#[inline]
fn wide_dispatch() -> u8 {
    match WIDE_DISPATCH.load(Ordering::Relaxed) {
        D_UNSET => detect(),
        d => d,
    }
}

#[cold]
fn detect() -> u8 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let d = if std::arch::is_x86_feature_detected!("avx2") {
        D_AVX2
    } else {
        D_SSE2
    };
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let d = D_SCALAR;
    WIDE_DISPATCH.store(d, Ordering::Relaxed);
    d
}

/// The wide-lane implementation selected for this process:
/// `scalar-unrolled`, `sse2` or `avx2`.
///
/// Detection runs once (cached in an atomic); without the `simd` feature
/// the answer is always `scalar-unrolled`.
pub fn dispatch_name() -> &'static str {
    match wide_dispatch() {
        D_SCALAR => "scalar-unrolled",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        D_SSE2 => "sse2",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        D_AVX2 => "avx2",
        _ => "scalar-unrolled",
    }
}

/// Whether this build carries the `core::arch` kernels (the `simd`
/// cargo feature on an x86_64 target). Runtime selection may still fall
/// back to SSE2 on hosts without AVX2.
pub fn simd_compiled() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

// ---------------------------------------------------------------------------
// Cache tiling

/// Bytes of destination rows a tile aims to keep resident.
///
/// Half of a conservative 256 KiB L2: the other half is left to source
/// rows and incidental state. Exact sizing is not
/// critical — the point is that a tile of hot rows fits comfortably in
/// L2 instead of streaming the whole matrix per pass.
const L2_TILE_BYTES: usize = 128 << 10;

/// Rows per cache tile for rows of `row_words` words: how many
/// destination rows an LA scatter should touch before moving on, so the
/// working set stays L2-resident.
///
/// Clamped to `[16, 4096]` so degenerate widths still form useful tiles.
pub fn tile_rows(row_words: usize) -> usize {
    let row_bytes = row_words.max(1) * std::mem::size_of::<usize>();
    (L2_TILE_BYTES / row_bytes).clamp(16, 4096)
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

/// `dst |= src` without the changed flag (callers that union into an
/// accumulator and never test for fixpoint).
///
/// # Panics
///
/// Panics if `src` is shorter than `dst`.
#[inline]
pub fn or_assign(dst: &mut [usize], src: &[usize]) {
    let _ = or_into(dst, src);
}

/// Masked OR: `dst |= src & mask`, reporting whether `dst` changed.
///
/// The seam for selective recomputation (union only the terminals a
/// caller cares about); also exercised by the E12 kernel bench.
///
/// # Panics
///
/// Panics if `src` or `mask` is shorter than `dst`.
#[inline]
pub fn masked_or(dst: &mut [usize], src: &[usize], mask: &[usize]) -> bool {
    assert!(
        src.len() >= dst.len(),
        "source shorter than destination row"
    );
    assert!(mask.len() >= dst.len(), "mask shorter than destination row");
    match dst.len() {
        0 => false,
        1 => {
            let s = src[0] & mask[0];
            let fresh = s & !dst[0];
            dst[0] |= s;
            fresh != 0
        }
        2 => {
            let s0 = src[0] & mask[0];
            let s1 = src[1] & mask[1];
            let fresh = (s0 & !dst[0]) | (s1 & !dst[1]);
            dst[0] |= s0;
            dst[1] |= s1;
            fresh != 0
        }
        _ => {
            let mut fresh = 0usize;
            for (i, d) in dst.iter_mut().enumerate() {
                let s = src[i] & mask[i];
                fresh |= s & !*d;
                *d |= s;
            }
            fresh != 0
        }
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

/// Blocked multi-source OR: `dst |= src₀ | src₁ | …`, reporting whether
/// `dst` changed.
///
/// Walks word-major across all sources — each destination word is
/// loaded and stored exactly once no matter how many sources feed it,
/// and no block transpose is materialized: the kernel for several
/// finalized rows flowing into one destination row.
///
/// # Panics
///
/// Panics if any source is shorter than `dst`.
pub fn or_accumulate(dst: &mut [usize], srcs: &[&[usize]]) -> bool {
    for s in srcs {
        assert!(s.len() >= dst.len(), "source shorter than destination row");
    }
    let mut fresh = 0usize;
    for (i, d) in dst.iter_mut().enumerate() {
        let mut acc = 0usize;
        for s in srcs {
            acc |= s[i];
        }
        fresh |= acc & !*d;
        *d |= acc;
    }
    fresh != 0
}

/// The wide lane of [`or_into`]: SIMD when compiled in and detected,
/// otherwise the 4-way unrolled scalar loop.
#[inline]
fn or_wide(dst: &mut [usize], src: &[usize]) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        match wide_dispatch() {
            D_AVX2 => return x86::or_into_avx2(dst, src),
            D_SSE2 => return x86::or_into_sse2(dst, src),
            _ => {}
        }
    }
    or_wide_scalar(dst, src)
}

/// Portable wide lane: 4-way unrolled, accumulating the fresh-bit mask
/// so the changed test is one compare at the end.
fn or_wide_scalar(dst: &mut [usize], src: &[usize]) -> bool {
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

// ---------------------------------------------------------------------------
// x86_64 SIMD lane (`simd` feature)

/// `core::arch` kernels. The only `unsafe` in the crate lives here, and
/// only under the `simd` feature: raw-pointer vector loads/stores over
/// slices whose bounds are established by the safe wrappers, plus
/// `target_feature` calls guarded by the cached runtime detection in
/// [`wide_dispatch`].
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_andnot_si256, _mm256_loadu_si256, _mm256_or_si256,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm256_testz_si256, _mm_andnot_si128,
        _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_setzero_si128,
        _mm_storeu_si128,
    };

    /// AVX2 [`super::or_into`]: 256 bits (four 64-bit words) per step,
    /// fresh bits accumulated in a vector and tested once with `vptest`.
    ///
    /// Safe to call only after `avx2` was runtime-detected (the
    /// dispatcher guarantees it).
    pub fn or_into_avx2(dst: &mut [usize], src: &[usize]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        // SAFETY: `avx2` support was established by `is_x86_feature_detected!`
        // before this lane is ever selected.
        unsafe { or_into_avx2_impl(dst, src) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn or_into_avx2_impl(dst: &mut [usize], src: &[usize]) -> bool {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut fresh_v = _mm256_setzero_si256();
        let mut i = 0usize;
        // SAFETY: `i + 4 <= n` bounds every 4-word (32-byte) unaligned
        // load/store inside both slices; `loadu`/`storeu` carry no
        // alignment requirement.
        while i + 4 <= n {
            let d = _mm256_loadu_si256(dp.add(i) as *const __m256i);
            let s = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            fresh_v = _mm256_or_si256(fresh_v, _mm256_andnot_si256(d, s));
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, _mm256_or_si256(d, s));
            i += 4;
        }
        let mut fresh = usize::from(_mm256_testz_si256(fresh_v, fresh_v) == 0);
        while i < n {
            let d = *dp.add(i);
            let s = *sp.add(i);
            fresh |= s & !d;
            *dp.add(i) = d | s;
            i += 1;
        }
        fresh != 0
    }

    /// SSE2 [`super::or_into`]: 128 bits (two 64-bit words) per step.
    /// SSE2 is the x86_64 baseline, so this lane needs no detection —
    /// it is the fallback when AVX2 is absent.
    pub fn or_into_sse2(dst: &mut [usize], src: &[usize]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        // SAFETY: SSE2 is unconditionally available on x86_64.
        unsafe { or_into_sse2_impl(dst, src) }
    }

    #[target_feature(enable = "sse2")]
    unsafe fn or_into_sse2_impl(dst: &mut [usize], src: &[usize]) -> bool {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut fresh_v = _mm_setzero_si128();
        let mut i = 0usize;
        // SAFETY: `i + 2 <= n` bounds every 2-word (16-byte) unaligned
        // load/store inside both slices.
        while i + 2 <= n {
            let d = _mm_loadu_si128(dp.add(i) as *const __m128i);
            let s = _mm_loadu_si128(sp.add(i) as *const __m128i);
            fresh_v = _mm_or_si128(fresh_v, _mm_andnot_si128(d, s));
            _mm_storeu_si128(dp.add(i) as *mut __m128i, _mm_or_si128(d, s));
            i += 2;
        }
        // SSE2 has no `ptest`: compare the accumulator to zero bytewise.
        let zero = _mm_setzero_si128();
        let all_zero = _mm_movemask_epi8(_mm_cmpeq_epi8(fresh_v, zero)) == 0xFFFF;
        let mut fresh = usize::from(!all_zero);
        while i < n {
            let d = *dp.add(i);
            let s = *sp.add(i);
            fresh |= s & !d;
            *dp.add(i) = d | s;
            i += 1;
        }
        fresh != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unoptimized reference all lanes must match.
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
        assert_eq!(RowLayout::select(5).dispatch(), "w1");
        assert_eq!(RowLayout::select(BITS + 1).dispatch(), "w2");
    }

    #[test]
    fn dispatch_name_is_stable_and_consistent() {
        let name = dispatch_name();
        assert_eq!(name, dispatch_name(), "cached answer must not flap");
        if simd_compiled() {
            assert!(matches!(name, "sse2" | "avx2"), "{name}");
        } else {
            assert_eq!(name, "scalar-unrolled");
        }
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
    fn wide_scalar_lane_matches_reference() {
        for n in 3..=13 {
            let src = words(99, n);
            let mut a = words(7, n);
            let mut b = a.clone();
            let ra = or_reference(&mut a, &src);
            let rb = or_wide_scalar(&mut b, &src);
            assert_eq!(a, b, "width {n}");
            assert_eq!(ra, rb, "width {n}");
        }
    }

    #[test]
    fn masked_or_applies_mask() {
        for n in 0..=6 {
            let src = words(3, n);
            let mask = words(5, n);
            let mut got = words(11, n);
            let mut want = got.clone();
            let masked: Vec<usize> = src.iter().zip(&mask).map(|(&s, &m)| s & m).collect();
            let rw = or_reference(&mut want, &masked);
            let rg = masked_or(&mut got, &src, &mask);
            assert_eq!(want, got, "width {n}");
            assert_eq!(rw, rg, "width {n}");
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
    fn or_accumulate_matches_sequential_unions() {
        for n in 0..=6 {
            for k in 0..=4 {
                let srcs: Vec<Vec<usize>> = (0..k).map(|i| words(40 + i as u64, n)).collect();
                let refs: Vec<&[usize]> = srcs.iter().map(Vec::as_slice).collect();
                let mut got = words(77, n);
                let mut want = got.clone();
                let mut want_changed = false;
                for s in &srcs {
                    want_changed |= or_reference(&mut want, s);
                }
                let got_changed = or_accumulate(&mut got, &refs);
                assert_eq!(want, got, "width {n}, {k} sources");
                assert_eq!(want_changed, got_changed, "width {n}, {k} sources");
            }
        }
    }

    #[test]
    fn tile_rows_is_l2_sized_and_clamped() {
        // 2-word rows: 16 bytes each; 128 KiB / 16 B = 8192, clamped to 4096.
        assert_eq!(tile_rows(2), 4096);
        assert_eq!(tile_rows(0), tile_rows(1));
        // Very wide rows still tile at the floor.
        assert_eq!(tile_rows(1 << 20), 16);
        // Monotone non-increasing in width.
        assert!(tile_rows(4) >= tile_rows(8));
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
