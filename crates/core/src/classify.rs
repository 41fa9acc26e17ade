//! Grammar-class classification (the adequacy hierarchy of Table 3).

use lalr_automata::{count_lr1_conflicts, Lr0Automaton};
use lalr_grammar::Grammar;

use crate::conflicts::{conflict_count, state_conflict_count};
use crate::engine::LalrAnalysis;
use crate::nqlalr::NqlalrAnalysis;
use crate::parallel::Parallelism;
use crate::relations::Relations;
use crate::slr::slr_lookaheads;

/// The strongest class in `LR(0) ⊂ SLR(1) ⊂ LALR(1) ⊂ LR(1)` a grammar
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GrammarClass {
    /// Conflict-free with no look-ahead at all.
    Lr0,
    /// SLR(1) but not LR(0).
    Slr1,
    /// LALR(1) but not SLR(1).
    Lalr1,
    /// LR(1) but not LALR(1).
    Lr1,
    /// Not LR(1) (ambiguous, or needs k > 1, or not LR(k) at all).
    NotLr1,
}

impl std::fmt::Display for GrammarClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GrammarClass::Lr0 => "LR(0)",
            GrammarClass::Slr1 => "SLR(1)",
            GrammarClass::Lalr1 => "LALR(1)",
            GrammarClass::Lr1 => "LR(1)",
            GrammarClass::NotLr1 => "not LR(1)",
        };
        f.write_str(s)
    }
}

/// Conflict counts per method for one grammar — one row of Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodAdequacy {
    /// Conflicts with no look-ahead (LR(0) test).
    pub lr0_conflicts: usize,
    /// Conflicts under SLR(1) look-aheads.
    pub slr_conflicts: usize,
    /// Conflicts under NQLALR(1) look-aheads (may exceed LALR's — that gap
    /// is the unsoundness the paper warns about).
    pub nqlalr_conflicts: usize,
    /// Conflicts under true LALR(1) look-aheads.
    pub lalr_conflicts: usize,
    /// Conflicts in the canonical LR(1) machine.
    pub lr1_conflicts: usize,
    /// `reads`-cycle detected (grammar not LR(k) for any k).
    pub not_lr_k: bool,
    /// The resulting classification.
    pub class: GrammarClass,
}

/// The conflicts of the LR(0) test, in closed form: every reduction
/// answers to the whole alphabet, so a state with `s` shifted terminals
/// and `r` reductions has `s·r` shift/reduce conflicts and, for `t`
/// terminals, `t·r(r−1)/2` reduce/reduce ones.
pub(crate) fn lr0_conflict_count(grammar: &Grammar, lr0: &Lr0Automaton) -> usize {
    let terminals = grammar.terminal_count();
    lr0.states()
        .map(|state| {
            let r = lr0.reductions(state).len();
            lr0.shift_symbols(state).count() * r + terminals * r * r.saturating_sub(1) / 2
        })
        .sum()
}

/// An LR(0)-style look-ahead assignment: every reduction answers to the
/// full terminal alphabet (so any state with a reduction plus anything else
/// conflicts). The reference for [`lr0_conflict_count`].
#[cfg(test)]
pub(crate) fn lr0_lookaheads(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
) -> crate::lookahead::LookaheadSets {
    let mut las = crate::lookahead::LookaheadSets::for_automaton(lr0, grammar.terminal_count());
    let full = lalr_bitset::BitSet::full(grammar.terminal_count());
    for state in lr0.states() {
        for &prod in lr0.reductions(state) {
            las.union_into(state, prod, &full);
        }
    }
    las
}

/// Classifies a grammar by running all five methods.
///
/// The canonical LR(1) conflicts are counted without building the
/// canonical machine: its states are explored as LR(0) cores with one
/// look-ahead row per kernel item ([`count_lr1_conflicts`]), and only
/// cores from which an LALR(1)-conflicted state is reachable. Every
/// conflict of the canonical machine survives the merge of its state into
/// its LR(0) core, so it sits on an LALR(1)-conflicted core; a grammar
/// with no LALR(1) conflict explores nothing and has `lr1_conflicts` 0.
/// NQLALR(1) comes from the DeRemer–Pennello relations, merged by `GOTO`
/// target ([`NqlalrAnalysis::from_relations`]).
///
/// # Examples
///
/// ```
/// use lalr_core::{classify, GrammarClass};
/// use lalr_grammar::parse_grammar;
///
/// let g = parse_grammar("s : l \"=\" r | r ; l : \"*\" r | \"id\" ; r : l ;")?;
/// let adequacy = classify(&g);
/// assert_eq!(adequacy.class, GrammarClass::Lalr1);
/// assert!(adequacy.slr_conflicts > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn classify(grammar: &Grammar) -> MethodAdequacy {
    let lr0 = Lr0Automaton::build(grammar);
    let relations = Relations::build(grammar, &lr0);
    let analysis = LalrAnalysis::from_relations(grammar, &lr0, &relations);
    classify_inner(grammar, &lr0, &relations, &analysis, &lalr_obs::NULL)
}

/// Recorded analogue of [`classify_from`] over the relations `analysis`
/// was computed from: each method runs inside its own span
/// (`classify.lalr`, `classify.lr0`, `classify.slr`, `classify.nqlalr`,
/// and `classify.lr1` when some state has an LALR(1) conflict).
pub fn classify_recorded(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    relations: &Relations,
    analysis: &LalrAnalysis,
    rec: &dyn lalr_obs::Recorder,
) -> MethodAdequacy {
    classify_inner(grammar, lr0, relations, analysis, rec)
}

/// Classifies from a prebuilt LR(0) automaton and DeRemer–Pennello
/// analysis, running only the remaining methods: it counts the LALR(1)
/// conflicts of `analysis`, the LR(0)/SLR/NQLALR baselines, and the
/// canonical LR(1) conflicts over the LALR(1)-conflicted cores (see
/// [`classify`]). The relations are built once more here for NQLALR;
/// [`classify_recorded`] takes them prebuilt. The counts are identical
/// to [`classify`]'s.
///
/// `_parallelism` is ignored — the methods always run one after another.
/// The argument remains only so existing callers build unchanged.
pub fn classify_from(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    analysis: &LalrAnalysis,
    _parallelism: &Parallelism,
) -> MethodAdequacy {
    let relations = Relations::build(grammar, lr0);
    classify_inner(grammar, lr0, &relations, analysis, &lalr_obs::NULL)
}

/// Counts each method's conflicts without materialising them: a grammar
/// can have millions of raw conflicts.
fn classify_inner(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    relations: &Relations,
    analysis: &LalrAnalysis,
    rec: &dyn lalr_obs::Recorder,
) -> MethodAdequacy {
    let (lalr_c, conflicted) = {
        let _span = lalr_obs::span(rec, "classify.lalr");
        let mut conflicted = Vec::new();
        let mut count = 0;
        for state in lr0.states() {
            let c = state_conflict_count(lr0, analysis.lookaheads(), state);
            if c > 0 {
                conflicted.push(state);
                count += c;
            }
        }
        (count, conflicted)
    };
    let lr0_c = {
        let _span = lalr_obs::span(rec, "classify.lr0");
        lr0_conflict_count(grammar, lr0)
    };
    let slr_c = {
        let _span = lalr_obs::span(rec, "classify.slr");
        conflict_count(lr0, &slr_lookaheads(grammar, lr0))
    };
    let nq_c = {
        let _span = lalr_obs::span(rec, "classify.nqlalr");
        let nqlalr = NqlalrAnalysis::from_relations(grammar, lr0, relations);
        conflict_count(lr0, nqlalr.lookaheads())
    };
    // Canonical conflicts sit only on LALR(1)-conflicted cores.
    let lr1_c = if conflicted.is_empty() {
        0
    } else {
        let _span = lalr_obs::span(rec, "classify.lr1");
        count_lr1_conflicts(grammar, lr0, conflicted).conflicts
    };

    let class = if lr0_c == 0 {
        GrammarClass::Lr0
    } else if slr_c == 0 {
        GrammarClass::Slr1
    } else if lalr_c == 0 {
        GrammarClass::Lalr1
    } else if lr1_c == 0 {
        GrammarClass::Lr1
    } else {
        GrammarClass::NotLr1
    };

    MethodAdequacy {
        lr0_conflicts: lr0_c,
        slr_conflicts: slr_c,
        nqlalr_conflicts: nq_c,
        lalr_conflicts: lalr_c,
        lr1_conflicts: lr1_c,
        not_lr_k: analysis.grammar_not_lr_k(),
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_grammar::parse_grammar;

    fn class_of(src: &str) -> GrammarClass {
        classify(&parse_grammar(src).unwrap()).class
    }

    #[test]
    fn lr0_grammar() {
        // Every sentence ends in a distinct way; no look-ahead needed.
        assert_eq!(class_of("s : \"a\" s \"b\" | \"c\" ;"), GrammarClass::Lr0);
    }

    #[test]
    fn slr_grammar() {
        assert_eq!(
            class_of("e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"id\" ;"),
            GrammarClass::Slr1
        );
    }

    #[test]
    fn lalr_grammar() {
        assert_eq!(
            class_of("s : l \"=\" r | r ; l : \"*\" r | \"id\" ; r : l ;"),
            GrammarClass::Lalr1
        );
    }

    #[test]
    fn lr1_but_not_lalr_grammar() {
        // The canonical example: merging the two `a → c` contexts creates a
        // reduce/reduce conflict that canonical LR(1) does not have.
        assert_eq!(
            class_of("s : \"u\" a \"d\" | \"v\" b \"d\" | \"u\" b \"e\" | \"v\" a \"e\" ; a : \"c\" ; b : \"c\" ;"),
            GrammarClass::Lr1
        );
    }

    #[test]
    fn ambiguous_grammar_is_not_lr1() {
        assert_eq!(class_of("e : e \"+\" e | \"x\" ;"), GrammarClass::NotLr1);
    }

    #[test]
    fn hierarchy_is_monotone() {
        // Conflicts can only shrink as the method gets stronger.
        for src in [
            "s : \"a\" s \"b\" | \"c\" ;",
            "e : e \"+\" t | t ; t : \"x\" ;",
            "s : l \"=\" r | r ; l : \"*\" r | \"id\" ; r : l ;",
            "e : e \"+\" e | \"x\" ;",
        ] {
            let g = parse_grammar(src).unwrap();
            let m = classify(&g);
            assert!(m.slr_conflicts <= m.lr0_conflicts, "{src}");
            assert!(m.lalr_conflicts <= m.slr_conflicts, "{src}");
            // LR(1) splits states, so conflict *counts* may grow; what is
            // monotone is adequacy (conflict-freedom). Checked against the
            // canonical machine, which `classify` never builds.
            let lr1 = lalr_automata::Lr1Automaton::build(&g).conflict_count();
            assert!(m.lalr_conflicts > 0 || lr1 == 0, "{src}");
            assert_eq!(m.lr1_conflicts, lr1, "{src}");
            assert!(m.nqlalr_conflicts >= m.lalr_conflicts, "{src}");
        }
    }

    #[test]
    fn class_display() {
        assert_eq!(GrammarClass::Lalr1.to_string(), "LALR(1)");
        assert_eq!(GrammarClass::NotLr1.to_string(), "not LR(1)");
    }
}
