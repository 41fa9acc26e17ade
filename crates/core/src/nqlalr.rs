//! NQLALR(1) — the unsound "not quite LALR" shortcut.
//!
//! The paper devotes a section to warning against this tempting
//! simplification: instead of keeping one `Follow` set per *nonterminal
//! transition* `(p, A)`, keep one per *target state* `r = GOTO(p, A)` —
//! merging every `A`-transition that happens to land in the same state.
//! The computation becomes simpler (no `includes` relation over
//! transitions, just state-level propagation), but the merged sets are
//! **supersets** of the true LALR(1) look-aheads: some LALR(1) grammars are
//! spuriously rejected. [`NqlalrAnalysis`] reproduces the shortcut exactly
//! so that experiment **E3** can exhibit the failure.

use lalr_automata::{Lr0Automaton, ReductionId, ReductionIndex, StateId};
use lalr_bitset::BitMatrix;
use lalr_digraph::{digraph, Graph};
use lalr_grammar::analysis::nullable;
use lalr_grammar::{Grammar, Symbol, Terminal};

use crate::lookahead::LookaheadSets;

/// The NQLALR(1) computation and its per-state follow sets.
#[derive(Debug, Clone)]
pub struct NqlalrAnalysis {
    /// `NQFollow` per automaton state (meaningful only for GOTO targets).
    follow: BitMatrix,
    la: LookaheadSets,
}

impl NqlalrAnalysis {
    /// Runs the state-merged computation.
    ///
    /// # Examples
    ///
    /// ```
    /// use lalr_automata::Lr0Automaton;
    /// use lalr_core::NqlalrAnalysis;
    /// use lalr_grammar::parse_grammar;
    ///
    /// let g = parse_grammar("s : \"a\" s | \"b\" ;")?;
    /// let lr0 = Lr0Automaton::build(&g);
    /// let nq = NqlalrAnalysis::compute(&g, &lr0);
    /// assert!(nq.lookaheads().reduction_count() > 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn compute(grammar: &Grammar, lr0: &Lr0Automaton) -> NqlalrAnalysis {
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
                continue; // already seeded — this merging is the defect
            }
            is_goto_target[r] = true;
            for term in lr0.shift_symbols(t.to) {
                follow.set(r, term.index());
            }
            if t.to == accept {
                follow.set(r, Terminal::EOF.index());
            }
        }

        // State-level reads: r --C--> r' with C nullable adds NQFollow(r) ⊇
        // NQFollow(r').
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
        // p --ω--> q. Reduction points are dense ids, so the per-point
        // source lists are one flat pair list instead of a keyed map (and
        // the iteration below is deterministic, in dense-id order).
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
        // Same accept special-case as the exact algorithm.
        la.insert(accept, lalr_grammar::ProdId::START, Terminal::EOF);

        NqlalrAnalysis { follow, la }
    }

    /// The per-state follow sets.
    pub fn state_follow(&self, state: StateId) -> lalr_bitset::BitSet {
        self.follow.row_to_bitset(state.index())
    }

    /// The NQLALR look-ahead sets.
    pub fn lookaheads(&self) -> &LookaheadSets {
        &self.la
    }

    /// Consumes the analysis, returning the look-ahead sets.
    pub fn into_lookaheads(self) -> LookaheadSets {
        self.la
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflicts::find_conflicts;
    use crate::engine::LalrAnalysis;
    use lalr_grammar::parse_grammar;

    /// The witness grammar: LALR(1)-adequate, but NQLALR's state merging
    /// smears `y` into the look-ahead of `a → g` after `z g`, colliding
    /// with `d → g`.
    pub(crate) const NQLALR_WITNESS: &str = r#"
        %start s
        s : "x" c "y" | "x" "g" "h" | "z" c "w" | "z" d "y" ;
        c : a r ;
        r : "t" | ;
        a : "g" ;
        d : "g" ;
    "#;

    #[test]
    fn nqlalr_is_superset_of_lalr() {
        for src in [
            "s : \"a\" s | \"b\" ;",
            "e : e \"+\" t | t ; t : \"x\" ;",
            NQLALR_WITNESS,
        ] {
            let g = parse_grammar(src).unwrap();
            let lr0 = Lr0Automaton::build(&g);
            let nq = NqlalrAnalysis::compute(&g, &lr0).into_lookaheads();
            let dp = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
            for ((state, prod), la) in dp.iter() {
                let nq_la = nq.la(state, prod).expect("NQLALR covers reductions");
                assert!(la.is_subset(nq_la), "at state {}", state.index());
            }
        }
    }

    #[test]
    fn witness_grammar_shows_unsoundness() {
        let g = parse_grammar(NQLALR_WITNESS).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let dp = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        let nq = NqlalrAnalysis::compute(&g, &lr0).into_lookaheads();
        assert!(
            find_conflicts(&g, &lr0, &dp).is_empty(),
            "the witness is LALR(1)"
        );
        let nq_conflicts = find_conflicts(&g, &lr0, &nq);
        assert!(
            !nq_conflicts.is_empty(),
            "NQLALR must report a spurious conflict"
        );
    }

    #[test]
    fn nqlalr_agrees_on_grammars_without_goto_merging() {
        // When every nonterminal transition has a unique target state the
        // shortcut is harmless.
        let src = "e : e \"+\" t | t ; t : \"x\" ;";
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let nq = NqlalrAnalysis::compute(&g, &lr0).into_lookaheads();
        let dp = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        assert_eq!(nq, dp);
    }
}
