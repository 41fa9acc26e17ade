//! The canonical LR(1) conflict count over LR(0) cores against Knuth's
//! construction.
//!
//! `count_lr1_conflicts` with every LR(0) state as a candidate must visit
//! exactly the states `Lr1Automaton::build` builds and count the same
//! conflicts; `classify`, which explores only the cores that reach an
//! LALR(1)-conflicted state, must report the same `lr1_conflicts`.

use lalr_automata::{count_lr1_conflicts, Lr0Automaton, Lr1Automaton};
use lalr_core::classify;
use lalr_corpus::synthetic::{self, RandomConfig};
use lalr_grammar::Grammar;

/// Checks one grammar; returns Knuth's conflict count.
fn assert_same(name: &str, grammar: &Grammar) -> usize {
    let lr0 = Lr0Automaton::build(grammar);
    let knuth = Lr1Automaton::build(grammar);
    let all = count_lr1_conflicts(grammar, &lr0, lr0.states());
    assert_eq!(all.states, knuth.state_count(), "{name}: canonical states");
    assert_eq!(
        all.conflicts,
        knuth.conflict_count(),
        "{name}: conflicts over every core"
    );
    assert_eq!(all.cores, lr0.state_count(), "{name}: every core explored");
    assert_eq!(
        classify(grammar).lr1_conflicts,
        knuth.conflict_count(),
        "{name}: classify's LR(1) count"
    );
    knuth.conflict_count()
}

#[test]
fn corpus_and_families_match_knuths_build() {
    for entry in lalr_corpus::all_entries() {
        assert_same(entry.name, &entry.grammar());
    }
    assert_same("expr_ladder(80)", &synthetic::expr_ladder(80));
    assert_same("wide_forest(100)", &synthetic::wide_forest(100));
    for n in [2usize, 5, 20] {
        assert_same(&format!("includes_scc({n})"), &synthetic::includes_scc(n));
        assert_same(
            &format!("nullable_blocks({n})"),
            &synthetic::nullable_blocks(n),
        );
    }
}

#[test]
fn large_random_grammars_match_knuths_build() {
    // perfbench's two random grammars, then the 2.4 KB grammar of the
    // bounded-compile measurements (`epsilon_prob` 0.15).
    for (seed, nonterminals, productions, epsilon_prob) in [
        (9u64, 10usize, 150usize, 0.1),
        (8, 16, 200, 0.1),
        (9, 10, 150, 0.15),
    ] {
        let config = RandomConfig {
            nonterminals,
            terminals: 300,
            productions,
            max_rhs: 4,
            epsilon_prob,
        };
        assert_same(
            &format!("random({seed};{nonterminals}nt,300t,{productions}p,eps {epsilon_prob})"),
            &synthetic::random(seed, config),
        );
    }
}

#[test]
fn small_random_grammars_match_knuths_build() {
    let default = RandomConfig::default();
    let configs = [
        ("default", default),
        (
            "eps 0.3",
            RandomConfig {
                epsilon_prob: 0.3,
                ..default
            },
        ),
        (
            "40 terminals",
            RandomConfig {
                terminals: 40,
                ..default
            },
        ),
    ];
    let mut conflicted = 0;
    for (label, config) in configs {
        for seed in 0..200u64 {
            let name = format!("random({seed}; {label})");
            conflicted += usize::from(assert_same(&name, &synthetic::random(seed, config)) > 0);
        }
    }
    assert!(
        conflicted >= 100,
        "only {conflicted} inputs with canonical LR(1) conflicts"
    );
}
