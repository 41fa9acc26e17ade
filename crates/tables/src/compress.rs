//! Default-reduction row compression.

use crate::action::Action;
use crate::table::ParseTable;

/// A row-compressed view of a [`ParseTable`].
///
/// Per state, explicit `(terminal, action)` pairs are kept only where the
/// action differs from the state's *default* action — chosen as its most
/// frequent reduce action (the classic yacc/bison compression). Lookup is
/// a binary search plus a fallback.
///
/// Error detection note: like yacc, a state whose default is a reduce will
/// perform that reduce on erroneous look-aheads and detect the error a few
/// (non-consuming) steps later — language accepted is unchanged.
///
/// # Examples
///
/// ```
/// use lalr_automata::Lr0Automaton;
/// use lalr_core::LalrAnalysis;
/// use lalr_grammar::parse_grammar;
/// use lalr_tables::{build_table, CompressedTable, TableOptions};
///
/// let g = parse_grammar("e : e \"+\" t | t ; t : \"x\" ;")?;
/// let lr0 = Lr0Automaton::build(&g);
/// let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
/// let dense = build_table(&g, &lr0, &la, TableOptions::default());
/// let compressed = CompressedTable::from_dense(&dense);
/// assert!(compressed.explicit_entries() < dense.stats().action_entries);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CompressedTable {
    /// Per state: sorted explicit entries.
    rows: Vec<Vec<(u32, Action)>>,
    /// Per state: the default action for terminals without an entry.
    defaults: Vec<Action>,
    terminals: u32,
}

impl CompressedTable {
    /// Compresses a dense table, each row in one scan: the scan keeps the
    /// row's non-error entries and counts its reduces, and the default is
    /// then filtered out of the kept entries.
    pub fn from_dense(table: &ParseTable) -> CompressedTable {
        let terminals = table.terminal_count();
        let mut rows = Vec::with_capacity(table.state_count() as usize);
        let mut defaults = Vec::with_capacity(table.state_count() as usize);
        let mut entries: Vec<(u32, Action)> = Vec::new();
        // Each distinct reduce with its count, in first-seen order.
        let mut counts: Vec<(Action, usize)> = Vec::new();
        let width = terminals as usize;
        for state in 0..table.state_count() as usize {
            let row = &table.actions_raw()[state * width..(state + 1) * width];
            entries.clear();
            counts.clear();
            for (t, &a) in (0u32..).zip(row) {
                if a.is_error() {
                    continue;
                }
                entries.push((t, a));
                if a.is_reduce() {
                    match counts.iter_mut().find(|(x, _)| *x == a) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((a, 1)),
                    }
                }
            }
            // The most frequent reduce becomes the default; of tied
            // reduces, `max_by_key` keeps the last one seen first.
            let (default, defaulted) = counts
                .iter()
                .copied()
                .max_by_key(|&(_, c)| c)
                .unwrap_or((Action::Error, 0));
            let mut kept = Vec::with_capacity(entries.len() - defaulted);
            kept.extend(entries.iter().copied().filter(|&(_, a)| a != default));
            rows.push(kept);
            defaults.push(default);
        }
        CompressedTable {
            rows,
            defaults,
            terminals,
        }
    }

    /// The action for `(state, terminal)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `terminal` is out of range.
    pub fn action(&self, state: u32, terminal: u32) -> Action {
        assert!(terminal < self.terminals);
        let row = &self.rows[state as usize];
        match row.binary_search_by_key(&terminal, |&(t, _)| t) {
            Ok(i) => row[i].1,
            Err(_) => self.defaults[state as usize],
        }
    }

    /// Total number of explicit entries kept.
    pub fn explicit_entries(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.rows.len()
    }

    /// The default action of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn default_action(&self, state: u32) -> Action {
        self.defaults[state as usize]
    }

    /// Per-state sorted explicit entries, for serializers.
    pub fn rows_raw(&self) -> &[Vec<(u32, Action)>] {
        &self.rows
    }

    /// Per-state default actions, for serializers.
    pub fn defaults_raw(&self) -> &[Action] {
        &self.defaults
    }

    /// Terminal count (ACTION columns).
    pub fn terminal_count(&self) -> u32 {
        self.terminals
    }

    /// Reassembles a compressed table from its raw parts — the inverse
    /// of [`CompressedTable::rows_raw`]/[`CompressedTable::defaults_raw`],
    /// used by the on-disk artifact store.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `defaults` disagree in length or a row is
    /// unsorted.
    pub fn from_raw_parts(
        rows: Vec<Vec<(u32, Action)>>,
        defaults: Vec<Action>,
        terminals: u32,
    ) -> CompressedTable {
        assert_eq!(rows.len(), defaults.len());
        for row in &rows {
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "explicit entries must be sorted by terminal"
            );
        }
        CompressedTable {
            rows,
            defaults,
            terminals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_table, TableOptions};
    use lalr_automata::Lr0Automaton;
    use lalr_core::LalrAnalysis;
    use lalr_grammar::parse_grammar;

    fn dense(src: &str) -> ParseTable {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        build_table(&g, &lr0, &la, TableOptions::default())
    }

    /// The compressed table must agree with the dense one everywhere except
    /// that error entries may become the default reduce (yacc semantics).
    #[test]
    fn lookup_agrees_modulo_late_error_detection() {
        for src in [
            "s : \"a\" s | \"b\" ;",
            "e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"id\" ;",
            "s : a \"x\" | ; a : ;",
        ] {
            let d = dense(src);
            let c = CompressedTable::from_dense(&d);
            for s in 0..d.state_count() {
                for t in 0..d.terminal_count() {
                    let da = d.action(s, t);
                    let ca = c.action(s, t);
                    if da.is_error() {
                        assert!(
                            ca.is_error() || ca.is_reduce(),
                            "errors may only become default reduces"
                        );
                    } else {
                        assert_eq!(da, ca, "state {s} terminal {t} in {src}");
                    }
                }
            }
        }
    }

    #[test]
    fn compression_shrinks_expression_table() {
        let d = dense("e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"id\" ;");
        let c = CompressedTable::from_dense(&d);
        assert!(c.explicit_entries() < d.stats().action_entries);
        assert_eq!(c.state_count(), d.state_count() as usize);
    }

    #[test]
    fn states_without_reductions_default_to_error() {
        let d = dense("s : \"a\" \"b\" ;");
        let c = CompressedTable::from_dense(&d);
        // State 0 only shifts.
        assert_eq!(c.default_action(0), Action::Error);
    }
}
