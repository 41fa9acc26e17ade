//! A counting global allocator (experiment **E11**).
//!
//! Wraps the system allocator and counts every allocation request and its
//! byte size, so the evaluation can report *allocation pressure* of the
//! cold `grammar → LA sets` pipeline per method — the quantity the
//! dense-index memory layout is designed to reduce. Linking `lalr-bench`
//! installs the counter as the global allocator for every binary, bench
//! and test of this crate; the counters cost two relaxed atomic adds per
//! allocation and do not perturb the timings measurably.
//!
//! Both counters live in one cache-line-aligned `Counters`, so they
//! always share exactly one line and no other data does. As two free
//! statics they landed wherever a build's data layout put them,
//! sometimes on two lines, so what an allocation cost a multi-threaded
//! daemon changed from one build to the next.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator behind relaxed allocation/byte counters.
pub struct CountingAllocator;

/// The allocation and byte counters, alone on one cache line.
#[repr(align(64))]
struct Counters {
    allocations: AtomicUsize,
    bytes: AtomicUsize,
}

static COUNTERS: Counters = Counters {
    allocations: AtomicUsize::new(0),
    bytes: AtomicUsize::new(0),
};

impl Counters {
    /// Counts one allocation request of `bytes`.
    fn count(&self, bytes: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the counters are side tables.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTERS.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink is one more allocator round-trip; count the newly
        // requested size (the classic `heaptrack` convention).
        COUNTERS.count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation counters captured around a region; see [`measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation requests (`alloc` + `realloc`).
    pub allocations: usize,
    /// Total bytes requested.
    pub bytes: usize,
}

fn snapshot() -> (usize, usize) {
    (
        COUNTERS.allocations.load(Ordering::Relaxed),
        COUNTERS.bytes.load(Ordering::Relaxed),
    )
}

/// Cumulative `(allocations, bytes)` since process start.
///
/// Matches the `lalr_obs::AllocProbe` signature, so a
/// `CollectingRecorder::with_alloc_probe(lalr_bench::alloc_counter::totals)`
/// attributes allocation deltas to pipeline spans (the CLI's `profile`
/// command does exactly this).
pub fn totals() -> (u64, u64) {
    let (a, b) = snapshot();
    (a as u64, b as u64)
}

/// Runs `f` and returns its result with the allocation activity observed
/// while it ran.
///
/// The counters are process-global, so concurrent allocations from other
/// threads are attributed to the measured region; measure on a quiet
/// process (the report binary and the budget test are single-threaded
/// while measuring).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let (a0, b0) = snapshot();
    let out = f();
    let (a1, b1) = snapshot();
    (
        out,
        AllocStats {
            allocations: a1 - a0,
            bytes: b1 - b0,
        },
    )
}
