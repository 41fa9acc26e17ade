//! E6 — the Digraph algorithm vs the naive relaxation closure (and, on
//! square relations, Warshall's transitive closure) for the Follow
//! computation. The paper's efficiency claim isolated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lalr_automata::Lr0Automaton;
use lalr_bitset::BitMatrix;
use lalr_core::Relations;
use lalr_digraph::{digraph, naive_closure};
use lalr_grammar::Grammar;

fn follow_inputs(grammar: &Grammar) -> (lalr_digraph::Graph, BitMatrix) {
    let lr0 = Lr0Automaton::build(grammar);
    let rel = Relations::build(grammar, &lr0);
    // Phase-2 input: Read sets (DR closed over reads) and the includes
    // relation.
    let mut read = rel.dr().clone();
    digraph(rel.reads(), &mut read);
    (rel.includes().clone(), read)
}

fn bench_follow_computation(c: &mut Criterion) {
    let mut group = c.benchmark_group("digraph_vs_naive");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["pascal", "ada_subset", "c_subset"] {
        let grammar = lalr_corpus::by_name(name).expect("exists").grammar();
        let (includes, read) = follow_inputs(&grammar);
        group.bench_with_input(
            BenchmarkId::new("digraph", name),
            &(&includes, &read),
            |b, (g, m)| {
                b.iter(|| {
                    let mut sets = (*m).clone();
                    digraph(g, &mut sets);
                    sets
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive", name),
            &(&includes, &read),
            |b, (g, m)| {
                b.iter(|| {
                    let mut sets = (*m).clone();
                    naive_closure(g, &mut sets);
                    sets
                })
            },
        );
    }
    group.finish();
}

fn bench_scc_collapse(c: &mut Criterion) {
    // One big includes-SCC: the Digraph algorithm assigns the whole
    // component in one pass; naive relaxation cycles until stable.
    let mut group = c.benchmark_group("digraph_vs_naive_scc");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [20usize, 60] {
        let grammar = lalr_corpus::synthetic::includes_scc(n);
        let (includes, read) = follow_inputs(&grammar);
        group.bench_with_input(
            BenchmarkId::new("digraph", n),
            &(&includes, &read),
            |b, (g, m)| {
                b.iter(|| {
                    let mut sets = (*m).clone();
                    digraph(g, &mut sets);
                    sets
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive", n),
            &(&includes, &read),
            |b, (g, m)| {
                b.iter(|| {
                    let mut sets = (*m).clone();
                    naive_closure(g, &mut sets);
                    sets
                })
            },
        );
    }
    group.finish();
}

fn bench_chain_worst_case(c: &mut Criterion) {
    // A long includes chain: O(n) sweeps for naive relaxation when the
    // edge order opposes the dependency order. (Measured caveat: with this
    // build's edge enumeration the order is favorable and naive converges
    // in O(1) sweeps — the Digraph algorithm's advantage is being
    // *order-independent*; see EXPERIMENTS.md Table 4.)
    let mut group = c.benchmark_group("digraph_vs_naive_chain");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for depth in [50usize, 200] {
        let grammar = lalr_corpus::synthetic::chain(depth);
        let (includes, read) = follow_inputs(&grammar);
        group.bench_with_input(
            BenchmarkId::new("digraph", depth),
            &(&includes, &read),
            |b, (g, m)| {
                b.iter(|| {
                    let mut sets = (*m).clone();
                    digraph(g, &mut sets);
                    sets
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive", depth),
            &(&includes, &read),
            |b, (g, m)| {
                b.iter(|| {
                    let mut sets = (*m).clone();
                    naive_closure(g, &mut sets);
                    sets
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_follow_computation,
    bench_scc_collapse,
    bench_chain_worst_case
);
criterion_main!(benches);
