//! `NqlalrAnalysis` against the forward-walk NQLALR(1) it replaced.
//!
//! The reference builds the state-level relations straight from the
//! grammar: `NQDR(r)` from the shifts of each `GOTO` target, a `reads`
//! edge for each nullable nonterminal transition out of a target, an
//! `includes` edge for each production body walked forward from every
//! source of a transition on its left-hand side, and the lookback entries
//! of the same walks. `NqlalrAnalysis` maps the DeRemer–Pennello
//! relations to `GOTO` targets instead; the look-ahead sets and every
//! state's follow set must be equal.

use lalr_automata::{Lr0Automaton, ReductionId, ReductionIndex, StateId};
use lalr_bitset::BitMatrix;
use lalr_core::{LookaheadSets, NqlalrAnalysis, Relations};
use lalr_corpus::synthetic::{self, RandomConfig};
use lalr_digraph::{digraph, Graph};
use lalr_grammar::analysis::nullable;
use lalr_grammar::{Grammar, Symbol, Terminal};

/// NQLALR(1) by the forward walk: the per-state follow sets and the
/// look-ahead sets.
fn reference(grammar: &Grammar, lr0: &Lr0Automaton) -> (BitMatrix, LookaheadSets) {
    let nullable = nullable(grammar);
    let n_states = lr0.state_count();
    let accept = lr0.accept_state(grammar);

    // NQDR(r) = shiftable terminals of r (all transitions into r merged),
    // plus $ at the accept state.
    let mut follow = BitMatrix::new(n_states, grammar.terminal_count());
    let mut edges = Vec::new();
    let mut is_goto_target = vec![false; n_states];
    for t in lr0.nt_transitions() {
        let r = t.to.index();
        if is_goto_target[r] {
            continue;
        }
        is_goto_target[r] = true;
        for term in lr0.shift_symbols(t.to) {
            follow.set(r, term.index());
        }
        if t.to == accept {
            follow.set(r, Terminal::EOF.index());
        }
    }

    // State-level reads: r --C--> r' with C nullable.
    for t in lr0.nt_transitions() {
        for &(sym, to) in lr0.transitions(t.to) {
            if let Symbol::NonTerminal(c) = sym {
                if nullable.contains(c) {
                    edges.push((t.to.index(), to.index()));
                }
            }
        }
    }

    // State-level includes: for each transition (p', B) and production
    // B → β A γ with γ nullable, GOTO(state-after-β, A) inherits
    // NQFollow(GOTO(p', B)).
    for t in lr0.nt_transitions() {
        let target_b = t.to.index();
        for &pid in grammar.productions_of(t.nt) {
            let rhs = grammar.production(pid).rhs();
            let mut state = t.from;
            for (k, &sym) in rhs.iter().enumerate() {
                if let Symbol::NonTerminal(a) = sym {
                    let gamma_nullable = rhs[k + 1..]
                        .iter()
                        .all(|&s| matches!(s, Symbol::NonTerminal(n) if nullable.contains(n)));
                    if gamma_nullable {
                        let r_a = lr0
                            .transition(state, Symbol::NonTerminal(a))
                            .expect("closure guarantees the transition");
                        edges.push((r_a.index(), target_b));
                    }
                }
                state = lr0.transition(state, sym).expect("viable prefix");
            }
        }
    }

    digraph(&Graph::from_edges_dedup(n_states, edges), &mut follow);

    // State-level lookback: LA(q, A→ω) = ⋃ NQFollow(GOTO(p, A)) over
    // p --ω--> q.
    let reductions = ReductionIndex::from_lr0(lr0);
    let mut la = LookaheadSets::with_index(reductions.clone(), grammar.terminal_count());
    let mut lookback: Vec<(ReductionId, StateId)> = Vec::new();
    for t in lr0.nt_transitions() {
        for &pid in grammar.productions_of(t.nt) {
            let rhs = grammar.production(pid).rhs();
            let q = lr0.walk(t.from, rhs).expect("viable prefix");
            let rid = reductions.id(q, pid).expect("walked bodies reduce");
            lookback.push((rid, t.to));
        }
    }
    for &(rid, r) in &lookback {
        la.touch_id(rid);
        la.union_words(rid, follow.row_words(r.index()));
    }
    la.insert(accept, lalr_grammar::ProdId::START, Terminal::EOF);
    (follow, la)
}

fn assert_same(name: &str, grammar: &Grammar) {
    let lr0 = Lr0Automaton::build(grammar);
    let (follow, want) = reference(grammar, &lr0);
    let relations = Relations::build(grammar, &lr0);
    let got = NqlalrAnalysis::from_relations(grammar, &lr0, &relations);
    assert!(got.lookaheads() == &want, "{name}: look-ahead sets");
    assert!(
        NqlalrAnalysis::compute(grammar, &lr0).lookaheads() == &want,
        "{name}: look-ahead sets of compute"
    );
    for state in lr0.states() {
        assert_eq!(
            got.state_follow(state),
            follow.row_to_bitset(state.index()),
            "{name}: NQFollow of state {}",
            state.index()
        );
    }
}

#[test]
fn corpus_nqlalr_matches_the_forward_walk() {
    for entry in lalr_corpus::all_entries() {
        assert_same(entry.name, &entry.grammar());
    }
}

#[test]
fn synthetic_family_nqlalr_matches_the_forward_walk() {
    assert_same("expr_ladder(80)", &synthetic::expr_ladder(80));
    assert_same("wide_forest(100)", &synthetic::wide_forest(100));
    for n in [2usize, 5, 20] {
        assert_same(&format!("includes_scc({n})"), &synthetic::includes_scc(n));
        assert_same(
            &format!("nullable_blocks({n})"),
            &synthetic::nullable_blocks(n),
        );
        assert_same(&format!("nested_lists({n})"), &synthetic::nested_lists(n));
    }
}

#[test]
fn large_random_nqlalr_matches_the_forward_walk() {
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
fn small_random_nqlalr_matches_the_forward_walk() {
    for nonterminals in [3usize, 6, 12] {
        for epsilon_prob in [0.0, 0.15, 0.3, 0.5] {
            let config = RandomConfig {
                nonterminals,
                terminals: 6,
                productions: 3 * nonterminals,
                max_rhs: 5,
                epsilon_prob,
            };
            for seed in 0..60u64 {
                assert_same(
                    &format!("random({seed};{nonterminals}nt,eps {epsilon_prob})"),
                    &synthetic::random(seed, config),
                );
            }
        }
    }
}
