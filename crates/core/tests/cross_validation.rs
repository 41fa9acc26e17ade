//! The central correctness claim: the DeRemer–Pennello computation yields
//! exactly the LALR(1) look-ahead sets — validated against the definition
//! (canonical LR(1) merged by core) and against yacc-style propagation, on
//! the whole corpus and on seeded random grammars.

use lalr_automata::{merge_lr1, Lr0Automaton, Lr1Automaton};
use lalr_core::{propagation_lookaheads, LalrAnalysis, LookaheadSets};
use lalr_corpus::synthetic::{random, RandomConfig};
use lalr_grammar::{Grammar, ProdId};

fn dp(grammar: &Grammar, lr0: &Lr0Automaton) -> LookaheadSets {
    LalrAnalysis::compute(grammar, lr0).into_lookaheads()
}

/// The merged LR(1) oracle, normalized: the oracle also records the accept
/// "reduction" of the augmented production, which DP handles as the accept
/// special case — both must agree there too.
fn oracle(grammar: &Grammar, lr0: &Lr0Automaton) -> LookaheadSets {
    let lr1 = Lr1Automaton::build(grammar);
    LookaheadSets::from(&merge_lr1(grammar, &lr1, lr0))
}

#[track_caller]
fn assert_all_methods_agree(name: &str, grammar: &Grammar) {
    let lr0 = Lr0Automaton::build(grammar);
    let dp_la = dp(grammar, &lr0);
    let prop_la = propagation_lookaheads(grammar, &lr0);
    let merge_la = oracle(grammar, &lr0);

    assert_eq!(dp_la, prop_la, "{name}: DP vs propagation");

    // The oracle covers exactly the reachable reductions; DP covers every
    // syntactic reduction point (plus accept). Compare on the oracle's
    // domain and check DP's extras are unreachable-reduction empties.
    for ((state, prod), set) in merge_la.iter() {
        let got = dp_la
            .la(state, prod)
            .unwrap_or_else(|| panic!("{name}: DP misses LA({}, {})", state.index(), prod.index()));
        assert_eq!(
            got,
            set,
            "{name}: LA({}, {}) differs: DP={:?} oracle={:?}",
            state.index(),
            prod.index(),
            got,
            set
        );
    }
    for ((state, prod), set) in dp_la.iter() {
        if merge_la.la(state, prod).is_none() && prod != ProdId::START {
            assert!(
                set.is_empty(),
                "{name}: DP found la for unreachable reduction ({}, {})",
                state.index(),
                prod.index()
            );
        }
    }
}

#[test]
fn corpus_grammars_agree() {
    for entry in lalr_corpus::all_entries() {
        assert_all_methods_agree(entry.name, &entry.grammar());
    }
}

#[test]
fn synthetic_families_agree() {
    for levels in [1, 3, 8] {
        assert_all_methods_agree(
            &format!("ladder{levels}"),
            &lalr_corpus::synthetic::expr_ladder(levels),
        );
    }
    for depth in [1, 5, 20] {
        assert_all_methods_agree(
            &format!("chain{depth}"),
            &lalr_corpus::synthetic::chain(depth),
        );
    }
    for n in [1, 4, 7] {
        assert_all_methods_agree(
            &format!("nullable{n}"),
            &lalr_corpus::synthetic::nullable_blocks(n),
        );
    }
    for n in [1, 3] {
        assert_all_methods_agree(
            &format!("lists{n}"),
            &lalr_corpus::synthetic::nested_lists(n),
        );
    }
}

#[test]
fn random_grammars_agree() {
    // 150 seeded random grammars, including ε-heavy ones (the regime where
    // reads/includes interact most).
    for seed in 0..100u64 {
        let g = random(seed, RandomConfig::default());
        assert_all_methods_agree(&format!("random{seed}"), &g);
    }
    let eps_heavy = RandomConfig {
        epsilon_prob: 0.4,
        ..RandomConfig::default()
    };
    for seed in 0..50u64 {
        let g = random(seed, eps_heavy);
        assert_all_methods_agree(&format!("eps{seed}"), &g);
    }
}

#[test]
fn selective_agrees_with_full_on_corpus_and_random() {
    let check = |name: &str, grammar: &Grammar| {
        let lr0 = Lr0Automaton::build(grammar);
        let full = dp(grammar, &lr0);
        let sel = lalr_core::selective_lookaheads(grammar, &lr0);
        for ((state, prod), la) in sel.lookaheads().iter() {
            assert_eq!(
                full.la(state, prod),
                Some(la),
                "{name}: selective LA({}, {})",
                state.index(),
                prod.index()
            );
        }
        // Every inadequate reduction is covered.
        for &state in sel.inadequate_states() {
            for &prod in lr0.reductions(state) {
                assert!(sel.lookaheads().la(state, prod).is_some(), "{name}");
            }
        }
    };
    for entry in lalr_corpus::all_entries() {
        check(entry.name, &entry.grammar());
    }
    for seed in 0..60u64 {
        check(
            &format!("random{seed}"),
            &random(seed, RandomConfig::default()),
        );
    }
}

/// The dense-layout differential over the path every daemon compile
/// runs: on every corpus grammar, DeRemer–Pennello computed under a
/// collecting recorder matches yacc-style propagation and the
/// merged-LR(1) oracle exactly, and SLR/NQLALR remain supersets. This
/// pins down the dense `LookaheadSets` rows and the CSR lookback slab as
/// result-identical representations, and shows that recording only
/// observes.
#[test]
fn corpus_methods_agree_with_recorded_dp() {
    for entry in lalr_corpus::all_entries() {
        let name = entry.name;
        let g = entry.grammar();
        let lr0 = Lr0Automaton::build(&g);
        let rec = lalr_obs::CollectingRecorder::new();
        let recorded = LalrAnalysis::compute_recorded(&g, &lr0, &rec).into_lookaheads();
        let prop_la = propagation_lookaheads(&g, &lr0);
        let slr = lalr_core::slr_lookaheads(&g, &lr0);
        let nq = lalr_core::NqlalrAnalysis::compute(&g, &lr0).into_lookaheads();
        let merge_la = oracle(&g, &lr0);
        assert_eq!(recorded, prop_la, "{name}: recorded DP vs propagation");
        for ((state, prod), set) in merge_la.iter() {
            assert_eq!(
                recorded.la(state, prod),
                Some(set),
                "{name}: recorded DP vs merged LR(1) at ({}, {})",
                state.index(),
                prod.index()
            );
        }
        for ((state, prod), set) in recorded.iter() {
            if prod == ProdId::START {
                continue;
            }
            if let Some(s) = slr.la(state, prod) {
                assert!(set.is_subset(s), "{name}: SLR ⊇ recorded DP");
            }
            if let Some(s) = nq.la(state, prod) {
                assert!(set.is_subset(s), "{name}: NQLALR ⊇ recorded DP");
            }
        }
        assert!(
            rec.report().phase("digraph.includes").is_some(),
            "{name}: the recorder saw the traversal"
        );
    }
}

#[test]
fn slr_is_superset_and_nqlalr_is_superset_on_corpus() {
    for entry in lalr_corpus::all_entries() {
        let g = entry.grammar();
        let lr0 = Lr0Automaton::build(&g);
        let dp_la = dp(&g, &lr0);
        let slr = lalr_core::slr_lookaheads(&g, &lr0);
        let nq = lalr_core::NqlalrAnalysis::compute(&g, &lr0).into_lookaheads();
        for ((state, prod), set) in dp_la.iter() {
            if prod == ProdId::START {
                continue; // accept special case is not an SLR reduction
            }
            if let Some(slr_set) = slr.la(state, prod) {
                assert!(set.is_subset(slr_set), "{}: SLR ⊇ LALR", entry.name);
            }
            if let Some(nq_set) = nq.la(state, prod) {
                assert!(set.is_subset(nq_set), "{}: NQLALR ⊇ LALR", entry.name);
            }
        }
    }
}
