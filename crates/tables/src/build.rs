//! Table construction and conflict resolution.

use lalr_automata::{Lr0Automaton, StateId};
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
    /// way every decision is counted.
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
/// decision is counted ([`ParseTable::resolution_count`]); [`resolutions`]
/// recomputes the decisions themselves from the same inputs.
///
/// Each state's ACTION row is filled a machine word at a time: a
/// look-ahead bit on a cell that no action holds yet is written with no
/// decision, and only the bits that meet an existing action are resolved
/// (see `RowBuilder`).
///
/// # Examples
///
/// ```
/// use lalr_automata::Lr0Automaton;
/// use lalr_core::LalrAnalysis;
/// use lalr_grammar::parse_grammar;
/// use lalr_tables::{build_table, resolutions, TableOptions};
///
/// // Ambiguous expression grammar tamed by precedence, as in yacc.
/// let g = parse_grammar(
///     "%left \"+\"  %left \"*\"  e : e \"+\" e | e \"*\" e | \"x\" ;",
/// )?;
/// let lr0 = Lr0Automaton::build(&g);
/// let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
/// let t = build_table(&g, &lr0, &la, TableOptions::default());
/// let log = resolutions(&g, &lr0, &la, TableOptions::default());
/// assert_eq!(t.resolution_count(), log.len());
/// assert!(log.iter().all(|r| !matches!(
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

    for state in lr0.states() {
        for &(sym, to) in lr0.transitions(state) {
            if let Symbol::NonTerminal(n) = sym {
                gotos[state.index() * nonterminals as usize + n.index()] = to.index() as u32;
            }
        }
    }

    let mut rows = RowBuilder::new(grammar, lookaheads, options);
    let mut resolution_count = 0;
    for (state, row) in lr0
        .states()
        .zip(actions.chunks_exact_mut(terminals as usize))
    {
        resolution_count += rows.fill(lr0, state, row, None);
    }
    // Accept: reached by reducing the start production's RHS; the LA entry
    // for the augmented production covers it, but ensure it even when the
    // caller passed a method that skips it (e.g. raw SLR sets include it
    // via FOLLOW(<start>) = {$}).
    let accept_state = lr0.accept_state(grammar);
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
        resolution_count,
    }
}

/// The conflict resolutions [`build_table`] performs on the same inputs,
/// in (state, reduction, terminal) order — the log behind
/// [`ParseTable::resolution_count`], recomputed on demand rather than
/// kept in every table.
///
/// # Examples
///
/// ```
/// use lalr_automata::Lr0Automaton;
/// use lalr_core::LalrAnalysis;
/// use lalr_grammar::parse_grammar;
/// use lalr_tables::{resolutions, ResolutionReason, TableOptions};
///
/// let g = parse_grammar("s : \"if\" s \"else\" s | \"if\" s | \"x\" ;")?;
/// let lr0 = Lr0Automaton::build(&g);
/// let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
/// let log = resolutions(&g, &lr0, &la, TableOptions::default());
/// assert_eq!(log.len(), 1);
/// assert_eq!(log[0].reason, ResolutionReason::DefaultShift, "dangling else");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn resolutions(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    lookaheads: &LookaheadSets,
    options: TableOptions,
) -> Vec<Resolution> {
    let mut rows = RowBuilder::new(grammar, lookaheads, options);
    let mut row = vec![Action::Error; grammar.terminal_count()];
    let mut log = Vec::new();
    for state in lr0.states() {
        row.fill(Action::Error);
        rows.fill(lr0, state, &mut row, Some(&mut log));
    }
    log
}

const WORD_BITS: usize = usize::BITS as usize;

/// The terminals of the set bits of `word`, the `w`-th word of a row.
fn terminals_of(word: usize, w: usize) -> impl Iterator<Item = usize> {
    let mut rest = word;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            w * WORD_BITS + bit
        })
    })
}

/// Fills ACTION rows, one state at a time, for [`build_table`] and
/// [`resolutions`] alike.
struct RowBuilder<'a> {
    grammar: &'a Grammar,
    lookaheads: &'a LookaheadSets,
    options: TableOptions,
    /// The current row's non-error cells, one bit per terminal.
    occupied: Vec<usize>,
    /// The current row's `Accept` cells.
    accept: Vec<usize>,
}

impl<'a> RowBuilder<'a> {
    fn new(
        grammar: &'a Grammar,
        lookaheads: &'a LookaheadSets,
        options: TableOptions,
    ) -> RowBuilder<'a> {
        let words = grammar.terminal_count().div_ceil(WORD_BITS);
        RowBuilder {
            grammar,
            lookaheads,
            options,
            occupied: vec![0; words],
            accept: vec![0; words],
        }
    }

    /// Fills `state`'s all-`Error` ACTION `row`: its shifts, then each
    /// reduction in production order. Returns the number of conflict
    /// decisions, and pushes each onto `log` when one is given.
    ///
    /// Per look-ahead word, the bits on unoccupied cells are written as
    /// the reduction's action with no decision — `resolve` would keep
    /// `new` over `Error` and log nothing. The bits on occupied cells go
    /// through `resolve` one by one, except in one case, which is only
    /// counted: yacc defaults, a production without precedence, not the
    /// start production, and no log wanted. That count is exact.
    /// `Lr0Automaton::reductions` is sorted and deduplicated, so an
    /// occupied cell holds a Shift, the `Accept` of the start production
    /// (production 0), or the Reduce of an earlier production. `resolve`
    /// keeps a Shift (`DefaultShift`) and an earlier Reduce
    /// (`DefaultEarlierProduction`), one decision each, and keeps an
    /// `Accept` with none. So the cell is unchanged either way, and the
    /// decisions are the occupied bits that are not `Accept` cells. (The
    /// start production would count exactly too: it is production 0, so
    /// it meets only shifts, and it has no precedence. It is left to
    /// `resolve` by choice, not need.)
    ///
    /// A decision that leaves `Error` frees its cell, so a later
    /// reduction takes it with no decision, as `resolve` does.
    fn fill(
        &mut self,
        lr0: &Lr0Automaton,
        state: StateId,
        row: &mut [Action],
        mut log: Option<&mut Vec<Resolution>>,
    ) -> usize {
        self.occupied.fill(0);
        self.accept.fill(0);
        for &(sym, to) in lr0.transitions(state) {
            if let Symbol::Terminal(t) = sym {
                row[t.index()] = Action::Shift(to.index() as u32);
                self.occupied[t.index() / WORD_BITS] |= 1 << (t.index() % WORD_BITS);
            }
        }
        let mut decisions = 0;
        for &prod in lr0.reductions(state) {
            let Some(la) = self.lookaheads.la(state, prod) else {
                continue;
            };
            let new = if prod == ProdId::START {
                Action::Accept
            } else {
                Action::Reduce(prod.index() as u32)
            };
            let precedence = self.grammar.production_precedence(prod);
            let counted = log.is_none()
                && self.options.yacc_defaults
                && precedence.is_none()
                && prod != ProdId::START;
            for (w, &bits) in la.as_words().iter().enumerate() {
                let fresh = bits & !self.occupied[w];
                let conflict = bits & self.occupied[w];
                for t in terminals_of(fresh, w) {
                    row[t] = new;
                }
                self.occupied[w] |= fresh;
                if new == Action::Accept {
                    self.accept[w] |= fresh;
                }
                if counted {
                    decisions += (conflict & !self.accept[w]).count_ones() as usize;
                    continue;
                }
                for t in terminals_of(conflict, w) {
                    let old = row[t];
                    let (kept, reason) = resolve(
                        self.grammar,
                        old,
                        new,
                        Terminal::new(t),
                        prod,
                        precedence,
                        self.options,
                    );
                    if let Some(reason) = reason {
                        decisions += 1;
                        if let Some(log) = log.as_deref_mut() {
                            log.push(Resolution {
                                state: state.index() as u32,
                                terminal: t as u32,
                                discarded: if kept == old { new } else { old },
                                kept,
                                reason,
                            });
                        }
                    }
                    if kept.is_error() {
                        self.occupied[w] &= !(1 << (t % WORD_BITS));
                    }
                    row[t] = kept;
                }
            }
        }
        decisions
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
    /// The number of conflict resolutions performed during construction
    /// (see [`resolutions`] for the decisions themselves).
    pub fn resolution_count(&self) -> usize {
        self.resolution_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_core::LalrAnalysis;
    use lalr_grammar::parse_grammar;

    /// The table and its resolution log under `options`.
    fn build_with(src: &str, options: TableOptions) -> (Grammar, ParseTable, Vec<Resolution>) {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        let t = build_table(&g, &lr0, &la, options);
        let log = resolutions(&g, &lr0, &la, options);
        assert_eq!(t.resolution_count(), log.len(), "{src}");
        (g, t, log)
    }

    fn build(src: &str) -> (Grammar, ParseTable, Vec<Resolution>) {
        build_with(src, TableOptions::default())
    }

    #[test]
    fn accept_on_eof() {
        let (_, t, _) = build("s : \"a\" ;");
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
        let (g, t, log) = build("%left \"+\"  e : e \"+\" e | \"x\" ;");
        assert!(log
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
        let (_, _, log) = build("%right \"^\"  e : e \"^\" e | \"x\" ;");
        assert!(log.iter().any(|r| r.reason == ResolutionReason::AssocShift));
    }

    #[test]
    fn nonassoc_produces_error_entry() {
        let (g, t, log) = build("%nonassoc \"<\"  e : e \"<\" e | \"x\" ;");
        assert!(log
            .iter()
            .any(|r| r.reason == ResolutionReason::NonAssocError));
        let lt = g.terminal_by_name("<").unwrap().index() as u32;
        // Some state must have an explicit error on "<" where a shift or
        // reduce would otherwise be.
        let has_error_entry = (0..t.state_count()).any(|s| {
            t.action(s, lt).is_error() && log.iter().any(|r| r.state == s && r.terminal == lt)
        });
        assert!(has_error_entry);
    }

    #[test]
    fn different_levels_resolve_by_level() {
        let (_, _, log) = build("%left \"+\"  %left \"*\"  e : e \"+\" e | e \"*\" e | \"x\" ;");
        // e → e * e · with look-ahead "+": reduce (PrecedenceReduce).
        // e → e + e · with look-ahead "*": shift (PrecedenceShift).
        assert!(log
            .iter()
            .any(|r| r.reason == ResolutionReason::PrecedenceReduce));
        assert!(log
            .iter()
            .any(|r| r.reason == ResolutionReason::PrecedenceShift));
    }

    #[test]
    fn default_shift_for_dangling_else() {
        let (g, _, log) = build("s : \"if\" s \"else\" s | \"if\" s | \"x\" ;");
        let else_t = g.terminal_by_name("else").unwrap().index() as u32;
        let r: Vec<_> = log
            .iter()
            .filter(|r| r.reason == ResolutionReason::DefaultShift)
            .collect();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].terminal, else_t);
        assert!(r[0].kept.is_shift(), "yacc shifts the else");
    }

    #[test]
    fn reduce_reduce_prefers_earlier_production() {
        let (_, _, log) = build("s : a | b ; a : \"x\" ; b : \"x\" ;");
        let r: Vec<_> = log
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
        let (_, _, log) = build("e : e \"+\" t | t ; t : \"x\" ;");
        assert!(log.is_empty());
    }

    fn build_strict(src: &str) -> (Grammar, ParseTable, Vec<Resolution>) {
        build_with(
            src,
            TableOptions {
                yacc_defaults: false,
            },
        )
    }

    #[test]
    fn strict_mode_turns_dangling_else_into_error_entry() {
        let (g, t, log) = build_strict("s : \"if\" s \"else\" s | \"if\" s | \"x\" ;");
        let else_t = g.terminal_by_name("else").unwrap().index() as u32;
        let strict: Vec<_> = log
            .iter()
            .filter(|r| r.reason == ResolutionReason::StrictError)
            .collect();
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].terminal, else_t);
        assert!(t.action(strict[0].state, else_t).is_error());
    }

    #[test]
    fn strict_mode_errors_reduce_reduce() {
        let (_, _, log) = build_strict("s : a | b ; a : \"x\" ; b : \"x\" ;");
        assert!(log
            .iter()
            .any(|r| r.reason == ResolutionReason::StrictError));
    }

    #[test]
    fn strict_mode_still_honours_precedence() {
        let (_, _, log) = build_strict("%left \"+\"  e : e \"+\" e | \"x\" ;");
        // Precedence settles it; strict mode never fires.
        assert!(log
            .iter()
            .all(|r| r.reason != ResolutionReason::StrictError));
    }
}
