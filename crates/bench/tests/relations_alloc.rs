//! The relation build allocates a bounded number of times, whatever the
//! grammar's size.
//!
//! `Relations::build` keeps every relation in flat arrays (CSR graphs, a
//! CSR lookback slab, one DR matrix), so its allocation count is a small
//! constant plus the logarithmic growth of a few edge buffers — never one
//! allocation per node or per edge. The counters are process-global, so
//! this file holds a single test and runs in its own binary.

use lalr_automata::Lr0Automaton;
use lalr_bench::alloc_counter::measure;
use lalr_core::Relations;
use lalr_corpus::synthetic;
use lalr_grammar::Grammar;

/// Allocations `Relations::build` may make on one grammar.
const RELATIONS_ALLOC_CEILING: usize = 100;

#[test]
fn relation_build_allocations_do_not_grow_with_the_grammar() {
    let mut grammars: Vec<(String, Grammar)> = lalr_corpus::realistic::all()
        .into_iter()
        .map(|e| (e.name.to_string(), e.grammar()))
        .collect();
    grammars.push(("expr_ladder(80)".to_string(), synthetic::expr_ladder(80)));
    grammars.push(("wide_forest(100)".to_string(), synthetic::wide_forest(100)));
    // The benchmark's two conflict-heavy random grammars.
    for (seed, nonterminals, productions) in [(9, 10, 150), (8, 16, 200)] {
        grammars.push((
            format!("random({seed};{nonterminals}nt,300t,{productions}p)"),
            lalr_bench::benchmark_random(seed, nonterminals, productions),
        ));
    }
    for (name, grammar) in &grammars {
        let lr0 = Lr0Automaton::build(grammar);
        let (relations, stats) = measure(|| Relations::build(grammar, &lr0));
        assert!(
            stats.allocations <= RELATIONS_ALLOC_CEILING,
            "Relations::build on {name} allocated {} times (budget {}) over {} \
             transitions — is a graph back to one Vec per node?",
            stats.allocations,
            RELATIONS_ALLOC_CEILING,
            relations.reads().node_count(),
        );
    }
}
