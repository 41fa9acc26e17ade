//! The full DeRemer–Pennello pipeline.

use lalr_automata::{Lr0Automaton, NtTransId};
use lalr_bitset::{BitMatrix, BitSet};
use lalr_digraph::{digraph_counting, DigraphStats, Graph, TraversalCounts};
use lalr_grammar::Grammar;
use lalr_obs::Recorder;

use crate::conflicts::{find_conflicts, Conflict};
use crate::lookahead::LookaheadSets;
use crate::parallel::Parallelism;
use crate::relations::{RelationStats, Relations};

/// The result of running the paper's algorithm: `Read`, `Follow` and `LA`
/// sets, plus the structural statistics the evaluation reports.
///
/// # Examples
///
/// ```
/// use lalr_automata::Lr0Automaton;
/// use lalr_core::LalrAnalysis;
/// use lalr_grammar::parse_grammar;
///
/// let g = parse_grammar(
///     "e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"id\" ;",
/// )?;
/// let lr0 = Lr0Automaton::build(&g);
/// let lalr = LalrAnalysis::compute(&g, &lr0);
/// assert!(!lalr.grammar_not_lr_k()); // `reads` is acyclic here
/// assert!(lalr.conflicts(&g, &lr0).is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LalrAnalysis {
    read: BitMatrix,
    follow: BitMatrix,
    la: LookaheadSets,
    relation_stats: RelationStats,
    reads_traversal: DigraphStats,
    includes_traversal: DigraphStats,
}

impl LalrAnalysis {
    /// Runs the complete computation: relations → `Read` → `Follow` → `LA`.
    pub fn compute(grammar: &Grammar, lr0: &Lr0Automaton) -> LalrAnalysis {
        LalrAnalysis::compute_recorded(grammar, lr0, &lalr_obs::NULL)
    }

    /// [`LalrAnalysis::compute`] under an observer.
    ///
    /// Phases are bracketed by spans (`relations.build`,
    /// `digraph.reads`, `digraph.includes`, `la.union`) and, when the
    /// recorder is enabled, the structural pipeline counters (relation
    /// edges, SCC counts, bitset OR operations, LA unions) are reported. The recorder only
    /// observes: enabled or not, the same traversals run, so a recorded
    /// compile costs the plain one plus the recorder's own bookkeeping.
    pub fn compute_recorded(
        grammar: &Grammar,
        lr0: &Lr0Automaton,
        rec: &dyn Recorder,
    ) -> LalrAnalysis {
        let relations = Relations::build_recorded(grammar, lr0, rec);
        LalrAnalysis::digraph_phases(grammar, lr0, &relations, rec)
    }

    /// Runs the Digraph phases over prebuilt relations (lets benchmarks
    /// time the phases separately).
    pub fn from_relations(
        grammar: &Grammar,
        lr0: &Lr0Automaton,
        relations: &Relations,
    ) -> LalrAnalysis {
        LalrAnalysis::digraph_phases(grammar, lr0, relations, &lalr_obs::NULL)
    }

    /// Recorded analogue of [`LalrAnalysis::from_relations`]; see
    /// [`LalrAnalysis::compute_recorded`] for the span and counter
    /// vocabulary.
    ///
    /// `_parallelism` is ignored — the phases always run sequentially.
    /// The argument remains only so existing callers build unchanged.
    pub fn from_relations_recorded(
        grammar: &Grammar,
        lr0: &Lr0Automaton,
        relations: &Relations,
        _parallelism: &Parallelism,
        rec: &dyn Recorder,
    ) -> LalrAnalysis {
        LalrAnalysis::digraph_phases(grammar, lr0, relations, rec)
    }

    fn digraph_phases(
        grammar: &Grammar,
        lr0: &Lr0Automaton,
        relations: &Relations,
        rec: &dyn Recorder,
    ) -> LalrAnalysis {
        // One Digraph pass under a named span. The counting traversal
        // runs whatever the recorder; its union and SCC tallies are
        // reported under `prefix.*` counters only when it is enabled.
        let traverse = |graph: &Graph,
                        sets: &mut BitMatrix,
                        name: &'static str,
                        [or_ops, sccs]: [&'static str; 2]|
         -> (DigraphStats, TraversalCounts) {
            let _span = lalr_obs::span(rec, name);
            let (stats, counts) = digraph_counting(graph, sets);
            if rec.is_enabled() {
                rec.add(or_ops, counts.unions);
                rec.add(sccs, stats.scc_count as u64);
            }
            (stats, counts)
        };

        // Phase 1: Read = Digraph(reads, DR).
        let mut read = relations.dr().clone();
        let (reads_traversal, reads_counts) = traverse(
            relations.reads(),
            &mut read,
            "digraph.reads",
            ["digraph.reads.or_ops", "digraph.reads.sccs"],
        );

        // Phase 2: Follow = Digraph(includes, Read).
        let mut follow = read.clone();
        let (includes_traversal, _) = traverse(
            relations.includes(),
            &mut follow,
            "digraph.includes",
            ["digraph.includes.or_ops", "digraph.includes.sccs"],
        );

        // Phase 3: LA(q, A→ω) = ⋃ Follow(p, A) over lookback. Pure dense
        // index arithmetic: each union ORs a Follow matrix row straight
        // into the LA matrix row of the reduction point — no hashing, no
        // per-edge allocation.
        let la_span = lalr_obs::span(rec, "la.union");
        let mut la = LookaheadSets::with_index(
            relations.reduction_index().clone(),
            grammar.terminal_count(),
        );
        let mut la_reductions = 0u64;
        let mut la_unions = 0u64;
        for (rid, transitions) in relations.lookback_entries() {
            la.touch_id(rid);
            la_reductions += 1;
            for &t in transitions {
                la.union_words(rid, follow.row_words(t.index()));
            }
            la_unions += transitions.len() as u64;
        }
        // The augmented production has no lookback (no transition ever reads
        // `<start>`); its "reduction" is the accept action on $.
        la.insert(
            lr0.accept_state(grammar),
            lalr_grammar::ProdId::START,
            lalr_grammar::Terminal::EOF,
        );
        if rec.is_enabled() {
            rec.add("la.reduction_points", la_reductions);
            rec.add("la.or_ops", la_unions);
            rec.add("kernel.row_words", la.layout().words() as u64);
        }
        drop(la_span);

        // The traversals popped every SCC of both relations: the
        // structural statistics need no pass of their own.
        let relation_stats =
            relations.stats_from_traversals(reads_counts.cycles, &includes_traversal);

        LalrAnalysis {
            read,
            follow,
            la,
            relation_stats,
            reads_traversal,
            includes_traversal,
        }
    }

    /// The LALR(1) look-ahead sets.
    pub fn lookaheads(&self) -> &LookaheadSets {
        &self.la
    }

    /// Consumes the analysis, returning the look-ahead sets.
    pub fn into_lookaheads(self) -> LookaheadSets {
        self.la
    }

    /// `Read(p, A)` for a nonterminal transition.
    pub fn read_set(&self, t: NtTransId) -> BitSet {
        self.read.row_to_bitset(t.index())
    }

    /// `Follow(p, A)` for a nonterminal transition.
    pub fn follow_set(&self, t: NtTransId) -> BitSet {
        self.follow.row_to_bitset(t.index())
    }

    /// Statistics of the relations (Table 1 columns).
    pub fn relation_stats(&self) -> &RelationStats {
        &self.relation_stats
    }

    /// Digraph statistics of the `reads` pass.
    pub fn reads_traversal(&self) -> &DigraphStats {
        &self.reads_traversal
    }

    /// Digraph statistics of the `includes` pass.
    pub fn includes_traversal(&self) -> &DigraphStats {
        &self.includes_traversal
    }

    /// The paper's Theorem: a nontrivial cycle in `reads` proves the
    /// grammar is not LR(k) for any k.
    pub fn grammar_not_lr_k(&self) -> bool {
        self.reads_traversal.has_cycle()
    }

    /// Raw (unresolved) parse-table conflicts under these look-aheads.
    pub fn conflicts(&self, grammar: &Grammar, lr0: &Lr0Automaton) -> Vec<Conflict> {
        find_conflicts(grammar, lr0, &self.la)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_automata::StateId;
    use lalr_grammar::{parse_grammar, ProdId, Symbol, Terminal};

    fn names(g: &Grammar, set: lalr_bitset::BitSetRef<'_>) -> Vec<String> {
        set.iter()
            .map(|i| g.terminal_name(Terminal::new(i)).to_string())
            .collect()
    }

    #[test]
    fn dragon_expression_lookaheads() {
        let g =
            parse_grammar("e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"id\" ;")
                .unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let a = LalrAnalysis::compute(&g, &lr0);

        // State reached by "id" reduces f → id with LA = FOLLOW(f) here
        // = {$, +, *, )}.
        let id = g.terminal_by_name("id").unwrap();
        let q = lr0.transition(StateId::START, id.into()).unwrap();
        let f = g.nonterminal_by_name("f").unwrap();
        let f_id = g.productions_of(f)[1];
        let la = a.lookaheads().la(q, f_id).unwrap();
        assert_eq!(names(&g, la), vec!["$", "+", "*", ")"]);
    }

    #[test]
    fn lalr_but_not_slr_grammar_is_conflict_free() {
        // The classic LALR-not-SLR grammar (dragon book 4.48-style):
        // S → L = R | R ;  L → * R | id ;  R → L
        let g = parse_grammar("s : l \"=\" r | r ; l : \"*\" r | \"id\" ; r : l ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let a = LalrAnalysis::compute(&g, &lr0);
        assert!(
            a.conflicts(&g, &lr0).is_empty(),
            "LALR(1) must resolve this"
        );

        // The telltale state: after `l`, reduce r → l must NOT carry "=".
        let l = g.nonterminal_by_name("l").unwrap();
        let r = g.nonterminal_by_name("r").unwrap();
        let q = lr0
            .transition(StateId::START, Symbol::NonTerminal(l))
            .unwrap();
        let r_l = g.productions_of(r)[0];
        let la = a.lookaheads().la(q, r_l).unwrap();
        assert_eq!(names(&g, la), vec!["$"], "SLR would wrongly include '='");
    }

    #[test]
    fn accept_reduction_has_eof() {
        let g = parse_grammar("s : \"a\" ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let a = LalrAnalysis::compute(&g, &lr0);
        let acc = lr0.accept_state(&g);
        let la = a.lookaheads().la(acc, ProdId::START).unwrap();
        assert_eq!(names(&g, la), vec!["$"]);
    }

    #[test]
    fn reads_cycle_flags_non_lr_k() {
        // From the paper: a grammar whose `reads` relation is cyclic is not
        // LR(k) for any k. Classic witness: S → A x, A → B C nullable chain
        // cycling: here B and C both nullable with transitions following
        // each other cyclically requires an ambiguous-ish grammar:
        //   s : a "x" ; a : b c | ; b : c a | ; c : a b | ;
        let g = parse_grammar("s : a \"x\" ; a : b c | ; b : c a | ; c : a b | ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let a = LalrAnalysis::compute(&g, &lr0);
        assert!(a.grammar_not_lr_k());
    }

    #[test]
    fn acyclic_reads_on_plain_grammar() {
        let g = parse_grammar("s : \"a\" s | \"b\" ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let a = LalrAnalysis::compute(&g, &lr0);
        assert!(!a.grammar_not_lr_k());
        assert_eq!(a.reads_traversal().cyclic_nodes, 0);
    }

    #[test]
    fn follow_sets_contain_read_sets() {
        let g = parse_grammar("s : a b ; a : \"x\" | ; b : \"y\" | ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let a = LalrAnalysis::compute(&g, &lr0);
        for i in 0..lr0.nt_transitions().len() {
            let id = lalr_automata::NtTransId::new(i);
            assert!(a.read_set(id).is_subset(&a.follow_set(id)));
        }
    }
}
