//! The counting allocator's `measure` window.
//!
//! The counters are process-global, so any other test of the same binary
//! that allocates while a window is open is counted in it. Both checks
//! therefore run in one test, in their own binary.

use lalr_bench::alloc_counter::measure;

#[test]
fn measure_counts_allocations_and_nothing_else() {
    let (len, stats) = measure(|| {
        // `black_box`: unobserved, the optimizer deletes the allocation.
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(1000));
        v.capacity()
    });
    assert_eq!(len, 1000);
    assert!(stats.allocations >= 1);
    assert!(stats.bytes >= 8000);

    let (_, stats) = measure(|| std::hint::black_box(1u64 + 1));
    assert_eq!(stats.allocations, 0);
    assert_eq!(stats.bytes, 0);
}
