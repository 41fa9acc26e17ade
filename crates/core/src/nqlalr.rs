//! NQLALR(1) — the unsound "not quite LALR" shortcut.
//!
//! The paper devotes a section to warning against this tempting
//! simplification: instead of keeping one `Follow` set per *nonterminal
//! transition* `(p, A)`, keep one per *target state* `r = GOTO(p, A)` —
//! merging every `A`-transition that happens to land in the same state.
//! The merged sets are **supersets** of the true LALR(1) look-aheads:
//! some LALR(1) grammars are spuriously rejected. [`NqlalrAnalysis`]
//! reproduces the shortcut exactly so that experiment **E3** can exhibit
//! the failure.
//!
//! The merge is taken literally: every `reads` and `includes` edge and
//! every lookback entry of the DeRemer–Pennello [`Relations`] is mapped
//! from its nonterminal transition to that transition's `GOTO` target,
//! and one Digraph pass over the merged edges gives `NQFollow`.

use lalr_automata::{Lr0Automaton, StateId};
use lalr_bitset::BitMatrix;
use lalr_digraph::{digraph, Graph};
use lalr_grammar::{Grammar, Terminal};

use crate::lookahead::LookaheadSets;
use crate::relations::Relations;

/// The NQLALR(1) computation and its per-state follow sets.
#[derive(Debug, Clone)]
pub struct NqlalrAnalysis {
    /// `NQFollow` per automaton state (meaningful only for GOTO targets).
    follow: BitMatrix,
    la: LookaheadSets,
}

impl NqlalrAnalysis {
    /// Runs the state-merged computation, building the relations it
    /// merges.
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
        NqlalrAnalysis::from_relations(grammar, lr0, &Relations::build(grammar, lr0))
    }

    /// Runs the state-merged computation over prebuilt DeRemer–Pennello
    /// relations:
    ///
    /// * `NQDR(r)` is `DR` of the transitions into `r` (the same row for
    ///   each: the shifts of `r`, plus `$` at the accept state);
    /// * `r` reaches `r'` when a transition into `r` reads or includes one
    ///   into `r'`, and `NQFollow = Digraph(reaches, NQDR)`;
    /// * `LA(q, A→ω) = ⋃ NQFollow(GOTO(p, A))` over the lookback entries
    ///   `(p, A)` of `(q, A→ω)`.
    pub fn from_relations(
        grammar: &Grammar,
        lr0: &Lr0Automaton,
        relations: &Relations,
    ) -> NqlalrAnalysis {
        let nts = lr0.nt_transitions();
        let target = |t: usize| nts[t].to.index();
        let n_states = lr0.state_count();

        let mut follow = BitMatrix::new(n_states, grammar.terminal_count());
        for t in 0..nts.len() {
            follow.union_row_with_words(target(t), relations.dr().row_words(t));
        }
        let edges = relations
            .reads()
            .edges()
            .chain(relations.includes().edges())
            .map(|(t, u)| (target(t), target(u)));
        digraph(&Graph::from_edges_dedup(n_states, edges), &mut follow);

        let mut la = LookaheadSets::with_index(
            relations.reduction_index().clone(),
            grammar.terminal_count(),
        );
        for (rid, transitions) in relations.lookback_entries() {
            la.touch_id(rid);
            for &t in transitions {
                la.union_words(rid, follow.row_words(target(t.index())));
            }
        }
        // Same accept special-case as the exact algorithm.
        la.insert(
            lr0.accept_state(grammar),
            lalr_grammar::ProdId::START,
            Terminal::EOF,
        );

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
