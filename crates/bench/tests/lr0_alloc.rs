//! The LR(0) build and the relation build allocate memory linear in the
//! automaton they build, not in nonterminals × productions.
//!
//! `Lr0Automaton::build` closes states over left-corner tables with one
//! entry per item and per production. bison's `closure.c` keeps one
//! production bit row per nonterminal instead (FDERIVES); on the
//! left-corner chain below — 20,000 nonterminals and 40,000 productions
//! in 538 KB of text, under the daemon's 1 MiB request cap — such rows
//! are 100 MB, where the whole automaton is about 4.3 MB. The counters
//! are process-global, so this file holds a single test and runs in its
//! own binary.

use std::mem::size_of;

use lalr_automata::{Item, ItemSet, Lr0Automaton, StateId};
use lalr_bench::alloc_counter::measure;
use lalr_core::Relations;
use lalr_grammar::{parse_grammar, ProdId, Symbol};

/// Nonterminals in the chain.
const CHAIN: usize = 20_000;

/// Bytes the two builds may allocate per byte of the automaton (growing
/// vectors by doubling alone allocates about twice what they end up
/// holding).
const BYTES_PER_AUTOMATON_BYTE: usize = 8;

/// Bytes allowed on top, whatever the grammar.
const SLACK: usize = 64 * 1024;

#[test]
fn lr0_and_relation_builds_allocate_linearly_on_a_left_corner_chain() {
    // n0 : n1 "x" | "y" ; n1 : n2 "x" | "y" ; … ; n19999 : "y" ;
    let mut text = String::new();
    for i in 0..CHAIN - 1 {
        text.push_str(&format!("n{i} : n{} \"x\" | \"y\" ;\n", i + 1));
    }
    text.push_str(&format!("n{} : \"y\" ;\n", CHAIN - 1));
    assert!(text.len() < 1 << 20, "the text fits one daemon request");
    let grammar = parse_grammar(&text).expect("the chain parses");

    let ((lr0, relations), stats) = measure(|| {
        let lr0 = Lr0Automaton::build(&grammar);
        let relations = Relations::build(&grammar, &lr0);
        (lr0, relations)
    });
    let kernel_items: usize = lr0.states().map(|s| lr0.kernel(s).len()).sum();
    let reductions: usize = lr0.states().map(|s| lr0.reductions(s).len()).sum();
    // The automaton's own arrays: per state a kernel, a transition list,
    // a reduction list and an accessing symbol, and their elements.
    let per_state = size_of::<ItemSet>()
        + size_of::<Vec<(Symbol, StateId)>>()
        + size_of::<Vec<ProdId>>()
        + size_of::<Option<Symbol>>();
    let automaton = lr0.state_count() * per_state
        + kernel_items * size_of::<Item>()
        + lr0.transition_count() * size_of::<(Symbol, StateId)>()
        + reductions * size_of::<ProdId>();
    assert!(
        stats.bytes <= BYTES_PER_AUTOMATON_BYTE * automaton + SLACK,
        "the LR(0) and relation builds allocated {} B for an automaton of {automaton} B \
         ({} states, {kernel_items} kernel items, {} transitions, {reductions} reductions, \
         {} nonterminal transitions) — is a nonterminal × production table back?",
        stats.bytes,
        lr0.state_count(),
        lr0.transition_count(),
        relations.reads().node_count(),
    );
}
