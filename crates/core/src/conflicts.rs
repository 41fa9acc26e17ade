//! Method-agnostic conflict detection.

use lalr_automata::{Lr0Automaton, StateId};
use lalr_grammar::{Grammar, ProdId, Terminal};

use crate::lookahead::LookaheadSets;

/// The two LR conflict species.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// A terminal both shifts and triggers a reduction.
    ShiftReduce {
        /// The reduction involved.
        reduce: ProdId,
    },
    /// A terminal triggers two different reductions.
    ReduceReduce {
        /// The smaller-id reduction.
        first: ProdId,
        /// The larger-id reduction.
        second: ProdId,
    },
}

/// One conflict: a state, the terminal, and what collided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conflict {
    /// The state the conflict occurs in.
    pub state: StateId,
    /// The look-ahead terminal both actions claim.
    pub terminal: Terminal,
    /// What collided.
    pub kind: ConflictKind,
}

impl Conflict {
    /// Renders `state/terminal: kind` with grammar names.
    pub fn display(&self, grammar: &Grammar) -> String {
        match self.kind {
            ConflictKind::ShiftReduce { reduce } => format!(
                "state {} on {:?}: shift/reduce with {}",
                self.state.index(),
                grammar.terminal_name(self.terminal),
                grammar.production_to_string(reduce),
            ),
            ConflictKind::ReduceReduce { first, second } => format!(
                "state {} on {:?}: reduce/reduce between {} and {}",
                self.state.index(),
                grammar.terminal_name(self.terminal),
                grammar.production_to_string(first),
                grammar.production_to_string(second),
            ),
        }
    }
}

/// Finds every raw (pre-precedence) conflict of a parse table built from
/// `lookaheads`.
///
/// A reduction with no recorded look-ahead set (possible for methods that
/// only record reachable reductions) is skipped.
///
/// # Examples
///
/// ```
/// use lalr_automata::Lr0Automaton;
/// use lalr_core::{find_conflicts, LalrAnalysis};
/// use lalr_grammar::parse_grammar;
///
/// // The dangling-else grammar has its famous shift/reduce conflict.
/// let g = parse_grammar(
///     "s : \"if\" s \"else\" s | \"if\" s | \"x\" ;",
/// )?;
/// let lr0 = Lr0Automaton::build(&g);
/// let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
/// let conflicts = find_conflicts(&g, &lr0, &la);
/// assert_eq!(conflicts.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn find_conflicts(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    lookaheads: &LookaheadSets,
) -> Vec<Conflict> {
    // `grammar` is kept in the signature for future diagnostics symmetry
    // with `Conflict::display`.
    let _ = grammar;
    let mut out = Vec::new();
    for state in lr0.states() {
        let reductions = lr0.reductions(state);
        if reductions.is_empty() {
            continue;
        }
        // Shift/reduce.
        for &prod in reductions {
            let Some(la) = lookaheads.la(state, prod) else {
                continue;
            };
            for t in lr0.shift_symbols(state) {
                if la.contains(t.index()) {
                    out.push(Conflict {
                        state,
                        terminal: t,
                        kind: ConflictKind::ShiftReduce { reduce: prod },
                    });
                }
            }
        }
        // Reduce/reduce.
        for (i, &p1) in reductions.iter().enumerate() {
            for &p2 in &reductions[i + 1..] {
                let (Some(la1), Some(la2)) = (lookaheads.la(state, p1), lookaheads.la(state, p2))
                else {
                    continue;
                };
                let overlap = la1 & la2;
                for t in &overlap {
                    out.push(Conflict {
                        state,
                        terminal: Terminal::new(t),
                        kind: ConflictKind::ReduceReduce {
                            first: p1,
                            second: p2,
                        },
                    });
                }
            }
        }
    }
    out.sort_unstable_by_key(|c| (c.state, c.terminal));
    out
}

/// The number of conflicts [`find_conflicts`] reports, counted without
/// building, sorting or storing them. Mirrors
/// `Lr1Automaton::conflict_count`.
pub(crate) fn conflict_count(lr0: &Lr0Automaton, lookaheads: &LookaheadSets) -> usize {
    lr0.states()
        .map(|state| state_conflict_count(lr0, lookaheads, state))
        .sum()
}

/// The conflicts [`find_conflicts`] reports in one state: how many shifted
/// terminals each reduction's look-ahead set holds, plus one intersection
/// popcount per pair of reductions.
pub(crate) fn state_conflict_count(
    lr0: &Lr0Automaton,
    lookaheads: &LookaheadSets,
    state: StateId,
) -> usize {
    let reductions = lr0.reductions(state);
    let mut count = 0;
    for (i, &p1) in reductions.iter().enumerate() {
        let Some(la1) = lookaheads.la(state, p1) else {
            continue;
        };
        count += lr0
            .shift_symbols(state)
            .filter(|t| la1.contains(t.index()))
            .count();
        for &p2 in &reductions[i + 1..] {
            if let Some(la2) = lookaheads.la(state, p2) {
                count += la1
                    .as_words()
                    .iter()
                    .zip(la2.as_words())
                    .map(|(a, b)| (a & b).count_ones() as usize)
                    .sum::<usize>();
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LalrAnalysis;
    use lalr_grammar::parse_grammar;

    fn conflicts_of(src: &str) -> (Grammar, Vec<Conflict>) {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        let cs = find_conflicts(&g, &lr0, &la);
        (g, cs)
    }

    #[test]
    fn unambiguous_grammar_has_no_conflicts() {
        let (_, cs) = conflicts_of("s : \"a\" s | \"b\" ;");
        assert!(cs.is_empty());
    }

    #[test]
    fn ambiguous_expression_grammar_conflicts() {
        let (g, cs) = conflicts_of("e : e \"+\" e | \"x\" ;");
        // In the state with e → e + e · and e → e · + e, "+" both shifts
        // and reduces.
        assert_eq!(cs.len(), 1);
        let c = cs[0];
        assert_eq!(g.terminal_name(c.terminal), "+");
        assert!(matches!(c.kind, ConflictKind::ShiftReduce { .. }));
        assert!(c.display(&g).contains("shift/reduce"));
    }

    #[test]
    fn reduce_reduce_conflict_detected() {
        // Both a → x and b → x reducible on $.
        let (g, cs) = conflicts_of("s : a | b ; a : \"x\" ; b : \"x\" ;");
        assert_eq!(cs.len(), 1);
        assert!(matches!(cs[0].kind, ConflictKind::ReduceReduce { .. }));
        assert_eq!(g.terminal_name(cs[0].terminal), "$");
        assert!(cs[0].display(&g).contains("reduce/reduce"));
    }

    #[test]
    fn conflicts_sorted_by_state_then_terminal() {
        let (_, cs) = conflicts_of("e : e \"+\" e | e \"*\" e | \"x\" ;");
        let keys: Vec<_> = cs.iter().map(|c| (c.state, c.terminal)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert!(cs.len() >= 4, "two binary ops, two conflict states each");
    }

    #[test]
    fn conflict_count_equals_the_number_of_conflicts_found() {
        use crate::classify::{lr0_conflict_count, lr0_lookaheads};
        use crate::nqlalr::NqlalrAnalysis;
        use crate::slr::slr_lookaheads;
        use lalr_corpus::synthetic::{random, RandomConfig};

        let mut grammars: Vec<(String, Grammar)> = lalr_corpus::all_entries()
            .iter()
            .map(|e| (e.name.to_string(), e.grammar()))
            .collect();
        let nullable_heavy = RandomConfig {
            epsilon_prob: 0.3,
            ..RandomConfig::default()
        };
        for seed in 0..32 {
            grammars.push((
                format!("random{seed}"),
                random(seed, RandomConfig::default()),
            ));
            grammars.push((format!("random{seed}/eps0.3"), random(seed, nullable_heavy)));
        }
        for (name, g) in &grammars {
            let lr0 = Lr0Automaton::build(g);
            assert_eq!(
                lr0_conflict_count(g, &lr0),
                find_conflicts(g, &lr0, &lr0_lookaheads(g, &lr0)).len(),
                "{name}: lr0 closed form"
            );
            for (method, la) in [
                ("lr0", lr0_lookaheads(g, &lr0)),
                ("slr", slr_lookaheads(g, &lr0)),
                ("nqlalr", NqlalrAnalysis::compute(g, &lr0).into_lookaheads()),
                ("lalr", LalrAnalysis::compute(g, &lr0).into_lookaheads()),
            ] {
                assert_eq!(
                    conflict_count(&lr0, &la),
                    find_conflicts(g, &lr0, &la).len(),
                    "{name}: {method} conflict count"
                );
            }
        }
    }
}
