//! Table construction and conflict resolution.

use lalr_automata::Lr0Automaton;
use lalr_core::LookaheadSets;
use lalr_grammar::{Assoc, Grammar, Precedence, ProdId, Symbol, Terminal};

use crate::action::Action;
use crate::table::{ParseTable, ProductionInfo, NO_GOTO};

/// How conflicts that precedence does not settle are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOptions {
    /// Apply yacc defaults to unresolved conflicts: shift over reduce,
    /// earlier production over later. When `false` (strict mode),
    /// unresolved conflicts become [`Action::Error`] entries — the parser
    /// rejects the ambiguous continuations instead of guessing. Either
    /// way every decision is logged.
    pub yacc_defaults: bool,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            yacc_defaults: true,
        }
    }
}

/// Why a conflict was resolved the way it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ResolutionReason {
    /// The production's precedence level beat the terminal's.
    PrecedenceReduce,
    /// The terminal's precedence level beat the production's.
    PrecedenceShift,
    /// Same level, `%left` ⇒ reduce.
    AssocReduce,
    /// Same level, `%right` ⇒ shift.
    AssocShift,
    /// Same level, `%nonassoc` ⇒ error entry.
    NonAssocError,
    /// yacc default: shift over reduce.
    DefaultShift,
    /// yacc default: the earlier production wins a reduce/reduce.
    DefaultEarlierProduction,
    /// Strict mode (`yacc_defaults = false`): unresolved conflicts become
    /// error entries.
    StrictError,
}

/// A logged conflict resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Resolution {
    /// The state the conflict was in.
    pub state: u32,
    /// The look-ahead terminal.
    pub terminal: u32,
    /// The action that lost.
    pub discarded: Action,
    /// The action that won (or [`Action::Error`] for `%nonassoc`).
    pub kept: Action,
    /// Why.
    pub reason: ResolutionReason,
}

/// Builds the dense ACTION/GOTO table from look-ahead sets.
///
/// Precedence declarations resolve shift/reduce conflicts exactly as in
/// yacc: compare the terminal's precedence with the production's (its
/// `%prec` override or rightmost terminal); on a tie, associativity
/// decides. Unresolved conflicts fall back to yacc defaults (shift;
/// earlier production) when [`TableOptions::yacc_defaults`] is set. Every
/// decision lands in [`ParseTable`]-accompanying [`Resolution`] log —
/// retrieved via [`ParseTable::resolutions`].
///
/// # Examples
///
/// ```
/// use lalr_automata::Lr0Automaton;
/// use lalr_core::LalrAnalysis;
/// use lalr_grammar::parse_grammar;
/// use lalr_tables::{build_table, TableOptions};
///
/// // Ambiguous expression grammar tamed by precedence, as in yacc.
/// let g = parse_grammar(
///     "%left \"+\"  %left \"*\"  e : e \"+\" e | e \"*\" e | \"x\" ;",
/// )?;
/// let lr0 = Lr0Automaton::build(&g);
/// let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
/// let t = build_table(&g, &lr0, &la, TableOptions::default());
/// assert!(t.resolutions().iter().all(|r| !matches!(
///     r.reason,
///     lalr_tables::ResolutionReason::DefaultShift
/// )), "precedence settles everything");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_table(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    lookaheads: &LookaheadSets,
    options: TableOptions,
) -> ParseTable {
    let states = lr0.state_count() as u32;
    let terminals = grammar.terminal_count() as u32;
    let nonterminals = grammar.nonterminal_count() as u32;
    let mut actions = vec![Action::Error; (states * terminals) as usize];
    let mut gotos = vec![NO_GOTO; (states * nonterminals) as usize];
    let mut resolutions = Vec::new();

    let accept_state = lr0.accept_state(grammar);

    // Shifts and gotos.
    for state in lr0.states() {
        for &(sym, to) in lr0.transitions(state) {
            match sym {
                Symbol::Terminal(t) => {
                    actions[state.index() * terminals as usize + t.index()] =
                        Action::Shift(to.index() as u32);
                }
                Symbol::NonTerminal(n) => {
                    gotos[state.index() * nonterminals as usize + n.index()] = to.index() as u32;
                }
            }
        }
    }

    // Reductions (with conflict resolution), then the accept action. A
    // reduction point's action and precedence are resolved once, not once
    // per look-ahead terminal.
    for state in lr0.states() {
        for &prod in lr0.reductions(state) {
            let Some(la) = lookaheads.la(state, prod) else {
                continue;
            };
            let new = if prod == ProdId::START {
                Action::Accept
            } else {
                Action::Reduce(prod.index() as u32)
            };
            let precedence = grammar.production_precedence(prod);
            for t in la.iter() {
                let slot = state.index() * terminals as usize + t;
                let old = actions[slot];
                let (kept, resolution) = resolve(
                    grammar,
                    old,
                    new,
                    Terminal::new(t),
                    prod,
                    precedence,
                    options,
                );
                if let Some(reason) = resolution {
                    resolutions.push(Resolution {
                        state: state.index() as u32,
                        terminal: t as u32,
                        discarded: if kept == old { new } else { old },
                        kept,
                        reason,
                    });
                }
                actions[slot] = kept;
            }
        }
    }
    // Accept: reached by reducing the start production's RHS; the LA entry
    // for the augmented production covers it, but ensure it even when the
    // caller passed a method that skips it (e.g. raw SLR sets include it
    // via FOLLOW(<start>) = {$}).
    actions[accept_state.index() * terminals as usize + Terminal::EOF.index()] = Action::Accept;

    let productions = grammar
        .iter_productions()
        .map(|(id, p)| ProductionInfo {
            lhs: p.lhs().index() as u32,
            rhs_len: p.len() as u32,
            display: grammar.production_to_string(id),
        })
        .collect();

    ParseTable {
        actions,
        gotos,
        states,
        terminals,
        nonterminals,
        productions,
        terminal_names: grammar
            .terminals()
            .map(|t| grammar.terminal_name(t).to_string())
            .collect(),
        nonterminal_names: grammar
            .nonterminals()
            .map(|n| grammar.nonterminal_name(n).to_string())
            .collect(),
        resolutions,
    }
}

/// Decides between an existing entry and a new reduce/accept action for
/// `prod`, whose precedence is `prod_precedence`. Returns the kept action
/// and, when there was a conflict, the reason.
fn resolve(
    grammar: &Grammar,
    old: Action,
    new: Action,
    terminal: Terminal,
    prod: ProdId,
    prod_precedence: Option<Precedence>,
    options: TableOptions,
) -> (Action, Option<ResolutionReason>) {
    match old {
        Action::Error => (new, None),
        Action::Accept => (old, None),
        Action::Shift(_) => {
            // Shift/reduce: try precedence.
            let tp = grammar.precedence_of(terminal);
            match (tp, prod_precedence) {
                (Some(t), Some(p)) => {
                    if p.level > t.level {
                        (new, Some(ResolutionReason::PrecedenceReduce))
                    } else if t.level > p.level {
                        (old, Some(ResolutionReason::PrecedenceShift))
                    } else {
                        match t.assoc {
                            Assoc::Left => (new, Some(ResolutionReason::AssocReduce)),
                            Assoc::Right => (old, Some(ResolutionReason::AssocShift)),
                            Assoc::NonAssoc => {
                                (Action::Error, Some(ResolutionReason::NonAssocError))
                            }
                        }
                    }
                }
                _ => {
                    if options.yacc_defaults {
                        (old, Some(ResolutionReason::DefaultShift))
                    } else {
                        (Action::Error, Some(ResolutionReason::StrictError))
                    }
                }
            }
        }
        Action::Reduce(p_old) => {
            if options.yacc_defaults {
                // Reduce/reduce: earlier production wins.
                let keep_old = (p_old as usize) <= prod.index();
                let kept = if keep_old { old } else { new };
                (kept, Some(ResolutionReason::DefaultEarlierProduction))
            } else {
                (Action::Error, Some(ResolutionReason::StrictError))
            }
        }
    }
}

impl ParseTable {
    /// The conflict resolutions performed during construction.
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolutions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_core::LalrAnalysis;
    use lalr_grammar::parse_grammar;

    fn build(src: &str) -> (Grammar, ParseTable) {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        let t = build_table(&g, &lr0, &la, TableOptions::default());
        (g, t)
    }

    #[test]
    fn accept_on_eof() {
        let (_, t) = build("s : \"a\" ;");
        // Find the accept entry.
        let accepts = (0..t.state_count())
            .flat_map(|s| (0..t.terminal_count()).map(move |x| (s, x)))
            .filter(|&(s, x)| t.action(s, x) == Action::Accept)
            .collect::<Vec<_>>();
        assert_eq!(accepts.len(), 1);
        assert_eq!(accepts[0].1, 0, "accept only on $");
    }

    #[test]
    fn precedence_left_assoc_prefers_reduce() {
        let (g, t) = build("%left \"+\"  e : e \"+\" e | \"x\" ;");
        assert!(t
            .resolutions()
            .iter()
            .any(|r| r.reason == ResolutionReason::AssocReduce));
        // In the conflict state, the "+" entry must be a reduce.
        let plus = g.terminal_by_name("+").unwrap().index() as u32;
        let reduces = (0..t.state_count())
            .filter(|&s| t.action(s, plus).is_reduce())
            .count();
        assert!(reduces >= 1);
    }

    #[test]
    fn precedence_right_assoc_prefers_shift() {
        let (_, t) = build("%right \"^\"  e : e \"^\" e | \"x\" ;");
        assert!(t
            .resolutions()
            .iter()
            .any(|r| r.reason == ResolutionReason::AssocShift));
    }

    #[test]
    fn nonassoc_produces_error_entry() {
        let (g, t) = build("%nonassoc \"<\"  e : e \"<\" e | \"x\" ;");
        assert!(t
            .resolutions()
            .iter()
            .any(|r| r.reason == ResolutionReason::NonAssocError));
        let lt = g.terminal_by_name("<").unwrap().index() as u32;
        // Some state must have an explicit error on "<" where a shift or
        // reduce would otherwise be.
        let has_error_entry = (0..t.state_count()).any(|s| {
            t.action(s, lt).is_error()
                && t.resolutions()
                    .iter()
                    .any(|r| r.state == s && r.terminal == lt)
        });
        assert!(has_error_entry);
    }

    #[test]
    fn different_levels_resolve_by_level() {
        let (g, t) = build("%left \"+\"  %left \"*\"  e : e \"+\" e | e \"*\" e | \"x\" ;");
        // e → e * e · with look-ahead "+": reduce (PrecedenceReduce).
        // e → e + e · with look-ahead "*": shift (PrecedenceShift).
        assert!(t
            .resolutions()
            .iter()
            .any(|r| r.reason == ResolutionReason::PrecedenceReduce));
        assert!(t
            .resolutions()
            .iter()
            .any(|r| r.reason == ResolutionReason::PrecedenceShift));
        let _ = g;
    }

    #[test]
    fn default_shift_for_dangling_else() {
        let (g, t) = build("s : \"if\" s \"else\" s | \"if\" s | \"x\" ;");
        let else_t = g.terminal_by_name("else").unwrap().index() as u32;
        let r: Vec<_> = t
            .resolutions()
            .iter()
            .filter(|r| r.reason == ResolutionReason::DefaultShift)
            .collect();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].terminal, else_t);
        assert!(r[0].kept.is_shift(), "yacc shifts the else");
    }

    #[test]
    fn reduce_reduce_prefers_earlier_production() {
        let (_, t) = build("s : a | b ; a : \"x\" ; b : \"x\" ;");
        let r: Vec<_> = t
            .resolutions()
            .iter()
            .filter(|r| r.reason == ResolutionReason::DefaultEarlierProduction)
            .collect();
        assert_eq!(r.len(), 1);
        let Action::Reduce(kept) = r[0].kept else {
            panic!("kept must be a reduce");
        };
        let Action::Reduce(discarded) = r[0].discarded else {
            panic!("discarded must be a reduce");
        };
        assert!(kept < discarded);
    }

    #[test]
    fn conflict_free_grammar_logs_nothing() {
        let (_, t) = build("e : e \"+\" t | t ; t : \"x\" ;");
        assert!(t.resolutions().is_empty());
    }

    fn build_strict(src: &str) -> (Grammar, ParseTable) {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        let t = build_table(
            &g,
            &lr0,
            &la,
            TableOptions {
                yacc_defaults: false,
            },
        );
        (g, t)
    }

    #[test]
    fn strict_mode_turns_dangling_else_into_error_entry() {
        let (g, t) = build_strict("s : \"if\" s \"else\" s | \"if\" s | \"x\" ;");
        let else_t = g.terminal_by_name("else").unwrap().index() as u32;
        let strict: Vec<_> = t
            .resolutions()
            .iter()
            .filter(|r| r.reason == ResolutionReason::StrictError)
            .collect();
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].terminal, else_t);
        assert!(t.action(strict[0].state, else_t).is_error());
    }

    #[test]
    fn strict_mode_errors_reduce_reduce() {
        let (_, t) = build_strict("s : a | b ; a : \"x\" ; b : \"x\" ;");
        assert!(t
            .resolutions()
            .iter()
            .any(|r| r.reason == ResolutionReason::StrictError));
    }

    #[test]
    fn strict_mode_still_honours_precedence() {
        let (_, t) = build_strict("%left \"+\"  e : e \"+\" e | \"x\" ;");
        // Precedence settles it; strict mode never fires.
        assert!(t
            .resolutions()
            .iter()
            .all(|r| r.reason != ResolutionReason::StrictError));
    }
}
