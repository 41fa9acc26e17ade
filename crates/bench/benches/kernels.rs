//! E16 — bitset kernel micro-benchmarks: ns/row for the word-level
//! kernels every hot path bottoms out in (`lalr_bitset::kernels`), at the
//! row widths the corpus actually selects (w=1 fixed-64, w=2 fixed-128)
//! plus wider multi-word rows. `report table12` prints the same
//! measurements with a cycles/row conversion; this harness exists for
//! Criterion's statistics and for `cargo bench -- --test` smoke in CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lalr_bitset::kernels;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Rows per working set: with w=8 this is 2 × 2048 × 64 B = 256 KiB, so
/// the wide configurations stream from L2/L3 like real LA matrices do.
const ROWS: usize = 2048;

fn rows(words: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut state = seed ^ (words as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    (0..ROWS)
        .map(|_| (0..words).map(|_| next()).collect())
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    for words in WIDTHS {
        let srcs = rows(words, 0x1234_5678_9abc_def0);
        let mut dsts = rows(words, 0x0fed_cba9_8765_4321);

        group.bench_with_input(BenchmarkId::new("or", words), &words, |b, _| {
            b.iter(|| {
                let mut fresh = false;
                for (dst, src) in dsts.iter_mut().zip(&srcs) {
                    fresh |= kernels::or_into(dst, src);
                }
                fresh
            })
        });

        group.bench_with_input(BenchmarkId::new("copy", words), &words, |b, _| {
            b.iter(|| {
                for (dst, src) in dsts.iter_mut().zip(&srcs) {
                    kernels::copy(dst, src);
                }
            })
        });

        group.bench_with_input(BenchmarkId::new("popcount", words), &words, |b, _| {
            b.iter(|| srcs.iter().map(|r| kernels::popcount(r)).sum::<usize>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
