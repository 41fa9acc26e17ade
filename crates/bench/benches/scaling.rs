//! Figure 1 — method time vs grammar size over synthetic families.
//!
//! Expected shape: DP grows near-linearly with the number of nonterminal
//! transitions; LR(1)-merge grows much faster with the split state count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lalr_automata::Lr0Automaton;
use lalr_bench::methods::Method;
use lalr_corpus::synthetic;

fn bench_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_ladder");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [5usize, 10, 20, 40] {
        let grammar = synthetic::expr_ladder(n);
        let lr0 = Lr0Automaton::build(&grammar);
        for method in [
            Method::DeRemerPennello,
            Method::Propagation,
            Method::Lr1Merge,
        ] {
            group.bench_with_input(
                BenchmarkId::new(method.label(), n),
                &(&grammar, &lr0),
                |b, (g, lr0)| b.iter(|| method.run(g, lr0)),
            );
        }
    }
    group.finish();
}

fn bench_nullable(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_nullable_blocks");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [4usize, 8, 12] {
        let grammar = synthetic::nullable_blocks(n);
        let lr0 = Lr0Automaton::build(&grammar);
        for method in [Method::DeRemerPennello, Method::Propagation] {
            group.bench_with_input(
                BenchmarkId::new(method.label(), n),
                &(&grammar, &lr0),
                |b, (g, lr0)| b.iter(|| method.run(g, lr0)),
            );
        }
    }
    group.finish();
}

fn bench_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_chain");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for depth in [25usize, 50, 100] {
        let grammar = synthetic::chain(depth);
        let lr0 = Lr0Automaton::build(&grammar);
        for method in [Method::DeRemerPennello, Method::Propagation] {
            group.bench_with_input(
                BenchmarkId::new(method.label(), depth),
                &(&grammar, &lr0),
                |b, (g, lr0)| b.iter(|| method.run(g, lr0)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ladder, bench_nullable, bench_chain);
criterion_main!(benches);
