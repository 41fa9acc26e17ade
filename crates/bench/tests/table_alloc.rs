//! `build_table` allocates the dense table and little else.
//!
//! The ACTION and GOTO arrays are `states × terminals` and `states ×
//! nonterminals` cells; beyond them a build allocates the production
//! strings, the symbol names and two row-wide scratch masks, whatever
//! the number of conflicts. A table that kept one record per conflict
//! decision allocated 29.9 MB on the conflict-heavy random grammar
//! below, for dense arrays of under 0.5 MB. The counters are
//! process-global, so this file holds a single test and runs in its own
//! binary.

use lalr_automata::Lr0Automaton;
use lalr_bench::alloc_counter::measure;
use lalr_core::LalrAnalysis;
use lalr_grammar::Grammar;
use lalr_tables::{build_table, TableOptions};

/// Bytes `build_table` may allocate beyond its dense ACTION/GOTO arrays.
const TABLE_ALLOC_SLACK: usize = 64 * 1024;

#[test]
fn table_build_allocates_the_dense_arrays_and_little_else() {
    let mut grammars: Vec<(String, Grammar)> = lalr_corpus::realistic::all()
        .into_iter()
        .map(|e| (e.name.to_string(), e.grammar()))
        .collect();
    // The benchmark's two conflict-heavy random grammars, as it sends
    // them: their `Display` text, re-parsed.
    for (seed, nonterminals, productions) in [(9, 10, 150), (8, 16, 200)] {
        grammars.push((
            format!("random({seed};{nonterminals}nt,300t,{productions}p)"),
            lalr_bench::benchmark_random(seed, nonterminals, productions),
        ));
    }
    for (name, grammar) in &grammars {
        let lr0 = Lr0Automaton::build(grammar);
        let la = LalrAnalysis::compute(grammar, &lr0).into_lookaheads();
        let (table, stats) = measure(|| build_table(grammar, &lr0, &la, TableOptions::default()));
        let dense =
            std::mem::size_of_val(table.actions_raw()) + std::mem::size_of_val(table.gotos_raw());
        assert!(
            stats.bytes <= dense + TABLE_ALLOC_SLACK,
            "build_table on {name} allocated {} B for {dense} B of dense arrays \
             ({} resolutions) — is a per-decision record back?",
            stats.bytes,
            table.resolution_count(),
        );
    }
}
