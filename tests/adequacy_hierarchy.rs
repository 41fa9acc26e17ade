//! The adequacy hierarchy, demonstrated end to end on the classics corpus:
//! `LR(0) ⊂ SLR(1) ⊂ LALR(1) ⊂ LR(1)` with a witness grammar for each
//! strict inclusion, plus the NQLALR unsoundness witness the paper warns
//! about (merging look-aheads by GOTO target invents conflicts that true
//! LALR(1) does not have).

use lalr_automata::Lr1Automaton;
use lalr_core::{classify, GrammarClass, MethodAdequacy};
use lalr_corpus::synthetic::{random, RandomConfig};
use lalr_grammar::Grammar;

fn adequacy(name: &str) -> MethodAdequacy {
    let entry = lalr_corpus::by_name(name).unwrap_or_else(|| panic!("corpus has {name}"));
    classify(&entry.grammar())
}

#[test]
fn lr0_witness_needs_no_lookahead() {
    let m = adequacy("lr0_matched");
    assert_eq!(m.class, GrammarClass::Lr0);
    assert_eq!(m.lr0_conflicts, 0);
    assert!(!m.not_lr_k);
}

#[test]
fn slr_witness_separates_lr0_from_slr() {
    let m = adequacy("slr_expr");
    assert_eq!(m.class, GrammarClass::Slr1);
    assert!(m.lr0_conflicts > 0, "needs look-ahead at all");
    assert_eq!(m.slr_conflicts, 0, "FOLLOW sets suffice");
}

#[test]
fn lalr_witness_separates_slr_from_lalr() {
    let m = adequacy("lalr_not_slr");
    assert_eq!(m.class, GrammarClass::Lalr1);
    assert!(m.slr_conflicts > 0, "FOLLOW is too coarse here");
    assert_eq!(m.lalr_conflicts, 0, "per-transition Follow resolves it");
}

#[test]
fn lr1_witness_separates_lalr_from_lr1() {
    let m = adequacy("lr1_not_lalr");
    assert_eq!(m.class, GrammarClass::Lr1);
    assert!(m.lalr_conflicts > 0, "state merging clashes the reductions");
    assert_eq!(
        m.lr1_conflicts, 0,
        "canonical LR(1) keeps the contexts apart"
    );
}

#[test]
fn ambiguous_witness_is_beyond_lr1() {
    let m = adequacy("dangling_else");
    assert_eq!(m.class, GrammarClass::NotLr1);
    assert!(m.lr1_conflicts > 0);
}

#[test]
fn reads_cycle_witness_is_not_lr_k() {
    let m = adequacy("reads_cycle");
    assert!(m.not_lr_k, "a nontrivial reads cycle proves non-LR(k)");
}

#[test]
fn nqlalr_is_unsound_where_lalr_is_adequate() {
    // The paper's central warning: NQLALR ("not quite LALR") merges
    // look-aheads by GOTO target, which over-approximates Follow and
    // reports conflicts on grammars that true LALR(1) handles cleanly.
    let m = adequacy("nqlalr_witness");
    assert_eq!(m.lalr_conflicts, 0, "the witness is LALR(1)-adequate");
    assert!(
        m.nqlalr_conflicts > m.lalr_conflicts,
        "NQLALR must report spurious conflicts on the witness (got {})",
        m.nqlalr_conflicts
    );
}

/// The strongest class whose method has no conflicts, from one row of
/// counts.
fn class_from_counts(lr0: usize, slr: usize, lalr: usize, lr1: usize) -> GrammarClass {
    [
        (lr0, GrammarClass::Lr0),
        (slr, GrammarClass::Slr1),
        (lalr, GrammarClass::Lalr1),
        (lr1, GrammarClass::Lr1),
    ]
    .into_iter()
    .find(|&(conflicts, _)| conflicts == 0)
    .map_or(GrammarClass::NotLr1, |(_, class)| class)
}

#[track_caller]
fn assert_hierarchy(name: &str, grammar: &Grammar) {
    let m = classify(grammar);
    assert!(
        m.slr_conflicts <= m.lr0_conflicts,
        "{name}: SLR ({}) must not exceed LR(0) ({})",
        m.slr_conflicts,
        m.lr0_conflicts
    );
    assert!(
        m.lalr_conflicts <= m.slr_conflicts,
        "{name}: LALR ({}) must not exceed SLR ({})",
        m.lalr_conflicts,
        m.slr_conflicts
    );
    assert!(
        m.nqlalr_conflicts >= m.lalr_conflicts,
        "{name}: NQLALR ({}) must not beat LALR ({})",
        m.nqlalr_conflicts,
        m.lalr_conflicts
    );
    // `classify` skips the canonical LR(1) build on LALR-adequate
    // grammars, so the LR(1) side comes from the machine itself.
    let lr1 = Lr1Automaton::build(grammar).conflict_count();
    assert!(
        m.lalr_conflicts > 0 || lr1 == 0,
        "{name}: LALR-adequate implies LR(1)-adequate (canonical LR(1) has {lr1})"
    );
    assert_eq!(m.lr1_conflicts, lr1, "{name}: classify's LR(1) count");
    assert_eq!(
        m.class,
        class_from_counts(m.lr0_conflicts, m.slr_conflicts, m.lalr_conflicts, lr1),
        "{name}: class"
    );
}

#[test]
fn conflict_counts_are_monotone_down_the_hierarchy() {
    // Across the *entire* corpus and on random grammars with and without
    // heavy ε use: a strictly stronger method never has more conflicts
    // (LR(1) is compared on adequacy, not raw counts, because state
    // splitting can multiply conflict sites).
    for entry in lalr_corpus::all_entries() {
        assert_hierarchy(entry.name, &entry.grammar());
    }
    let epsilon_heavy = RandomConfig {
        epsilon_prob: 0.4,
        ..RandomConfig::default()
    };
    for config in [RandomConfig::default(), epsilon_heavy] {
        for seed in 0..100 {
            assert_hierarchy(
                &format!("random({seed}, {config:?})"),
                &random(seed, config),
            );
        }
    }
}

#[test]
fn each_strict_inclusion_has_its_witness() {
    // The hierarchy table, one row per classic, in class order.
    let table: Vec<(&str, GrammarClass)> = [
        "lr0_matched",
        "slr_expr",
        "lalr_not_slr",
        "lr1_not_lalr",
        "dangling_else",
    ]
    .iter()
    .map(|&n| (n, adequacy(n).class))
    .collect();
    let classes: Vec<GrammarClass> = table.iter().map(|&(_, c)| c).collect();
    assert_eq!(
        classes,
        vec![
            GrammarClass::Lr0,
            GrammarClass::Slr1,
            GrammarClass::Lalr1,
            GrammarClass::Lr1,
            GrammarClass::NotLr1,
        ],
        "witness table: {table:?}"
    );
}
