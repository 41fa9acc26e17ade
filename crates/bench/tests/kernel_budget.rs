//! Kernel-dispatch regression guard, in the spirit of `alloc_budget.rs`.
//!
//! Layout selection is the cheapest performance decision in the whole
//! pipeline — one classification per analysis — and also the easiest to
//! regress silently: widen a universe by an off-by-one, route an
//! alphabet through the wrong constructor, and every row union quietly
//! drops from the straight-line fixed-width lane to the generic loop
//! with nothing failing. This test pins, per corpus grammar, the
//! `RowLayout` the look-ahead sets must select (derived from the
//! terminal alphabet including the reserved `$`), plus the wide-lane
//! name the build reports. A mismatch fails CI before any benchmark
//! would notice the slowdown.

use lalr_automata::Lr0Automaton;
use lalr_bench::methods::Method;

/// Every corpus grammar and the layout its look-ahead rows must hit.
/// Terminal counts include the reserved `$` terminal; ≤64 ⇒ `fixed-64`,
/// 65–128 ⇒ `fixed-128` (64-bit hosts).
const EXPECTED_LAYOUTS: &[(&str, &str)] = &[
    ("expr", "fixed-64"),
    ("json", "fixed-64"),
    ("lua_subset", "fixed-64"),
    ("pascal", "fixed-64"),
    ("algol60", "fixed-64"),
    ("ada_subset", "fixed-128"),
    ("tiny_java", "fixed-64"),
    ("sql_subset", "fixed-128"),
    ("c_subset", "fixed-128"),
    ("lr0_matched", "fixed-64"),
    ("slr_expr", "fixed-64"),
    ("lalr_not_slr", "fixed-64"),
    ("lr1_not_lalr", "fixed-64"),
    ("dangling_else", "fixed-64"),
    ("reads_cycle", "fixed-64"),
    ("nqlalr_witness", "fixed-64"),
];

#[test]
fn corpus_lookahead_rows_select_the_expected_layout() {
    for &(name, expected) in EXPECTED_LAYOUTS {
        let entry = lalr_corpus::by_name(name).expect("corpus entry exists");
        let grammar = entry.grammar();
        let lr0 = Lr0Automaton::build(&grammar);
        let la = Method::DeRemerPennello.run(&grammar, &lr0);
        assert_eq!(
            la.layout().name(),
            expected,
            "{name}: {} terminals must dispatch to the {expected} lane — \
             did the alphabet widen or the layout cutoffs move?",
            la.terminal_count(),
        );
        assert_eq!(
            la.layout().words(),
            if expected == "fixed-64" { 1 } else { 2 },
            "{name}: row word count disagrees with the pinned layout"
        );
    }
}

#[test]
fn every_corpus_grammar_is_pinned() {
    // A new corpus grammar must take a stance on its kernel layout;
    // otherwise this guard silently stops covering it.
    let pinned: Vec<&str> = EXPECTED_LAYOUTS.iter().map(|&(n, _)| n).collect();
    for entry in lalr_corpus::all_entries() {
        assert!(
            pinned.contains(&entry.name),
            "corpus grammar {:?} has no pinned RowLayout in kernel_budget.rs",
            entry.name
        );
    }
}

/// Run metadata, `lalrgen analyze` and the daemon's `lalr_build_info`
/// metric print this name; it must not drift.
#[test]
fn wide_lane_is_the_unrolled_scalar_loop() {
    assert_eq!(lalr_core::kernel_dispatch_name(), "scalar-unrolled");
    assert!(!lalr_core::simd_compiled());
}
