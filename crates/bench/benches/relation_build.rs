//! The layers that feed the paper's two Digraph passes, timed next to
//! them: `Lr0Automaton::build` and `Relations::build`, then the `reads`
//! and `includes` traversals over the relations they produce, on the
//! four grammars of `table_build`. The paper's claim is that look-aheads
//! cost the two linear traversals; this bench gives the ratio of the
//! relation build to those traversals a committed source.

use criterion::{criterion_group, criterion_main, Criterion};
use lalr_automata::Lr0Automaton;
use lalr_core::Relations;
use lalr_digraph::digraph_counting;

fn bench_relation_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation_build");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (name, g) in &lalr_bench::layer_grammars() {
        let lr0 = Lr0Automaton::build(g);
        let relations = Relations::build(g, &lr0);
        println!(
            "relation_build/{name}: {} states, {} transitions, {} reads + {} includes edges",
            lr0.state_count(),
            lr0.transition_count(),
            relations.reads().edge_count(),
            relations.includes().edge_count(),
        );

        group.bench_function(format!("lr0_build/{name}"), |b| {
            b.iter(|| Lr0Automaton::build(g).state_count())
        });
        group.bench_function(format!("relations_build/{name}"), |b| {
            b.iter(|| Relations::build(g, &lr0).includes().edge_count())
        });
        // A traversal leaves every row final; running it again over the
        // same rows repeats exactly the same unions, so one matrix serves
        // every iteration and no row copy is timed.
        let mut read = relations.dr().clone();
        group.bench_function(format!("digraph_reads/{name}"), |b| {
            b.iter(|| digraph_counting(relations.reads(), &mut read).1.unions)
        });
        let mut follow = read.clone();
        group.bench_function(format!("digraph_includes/{name}"), |b| {
            b.iter(|| digraph_counting(relations.includes(), &mut follow).1.unions)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_relation_build);
criterion_main!(benches);
