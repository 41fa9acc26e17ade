//! The dense [`ParseTable`].

use crate::action::Action;

/// What the runtime needs to know about one production.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProductionInfo {
    /// LHS nonterminal index.
    pub lhs: u32,
    /// RHS length (how many stack entries a reduce pops).
    pub rhs_len: u32,
    /// Rendering like `expr -> expr "+" term` for diagnostics.
    pub display: String,
}

/// Size/occupancy statistics of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Number of automaton states.
    pub states: usize,
    /// Terminal count (ACTION columns).
    pub terminals: usize,
    /// Nonterminal count (GOTO columns).
    pub nonterminals: usize,
    /// Non-error ACTION entries.
    pub action_entries: usize,
    /// Present GOTO entries.
    pub goto_entries: usize,
}

/// A dense LALR parse table: `ACTION[state][terminal]` and
/// `GOTO[state][nonterminal]`, plus production metadata and symbol names.
///
/// Self-contained: the runtime drives parses from this value alone.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ParseTable {
    pub(crate) actions: Vec<Action>,
    pub(crate) gotos: Vec<u32>, // u32::MAX = absent
    pub(crate) states: u32,
    pub(crate) terminals: u32,
    pub(crate) nonterminals: u32,
    pub(crate) productions: Vec<ProductionInfo>,
    pub(crate) terminal_names: Vec<String>,
    pub(crate) nonterminal_names: Vec<String>,
    pub(crate) resolution_count: usize,
}

pub(crate) const NO_GOTO: u32 = u32::MAX;

impl ParseTable {
    /// `ACTION[state][terminal]`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn action(&self, state: u32, terminal: u32) -> Action {
        assert!(state < self.states && terminal < self.terminals);
        self.actions[(state * self.terminals + terminal) as usize]
    }

    /// `GOTO[state][nonterminal]`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn goto(&self, state: u32, nonterminal: u32) -> Option<u32> {
        assert!(state < self.states && nonterminal < self.nonterminals);
        let v = self.gotos[(state * self.nonterminals + nonterminal) as usize];
        (v != NO_GOTO).then_some(v)
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> u32 {
        self.states
    }

    /// Number of terminals (including `$` at index 0).
    #[inline]
    pub fn terminal_count(&self) -> u32 {
        self.terminals
    }

    /// Number of nonterminals (including `<start>` at index 0).
    #[inline]
    pub fn nonterminal_count(&self) -> u32 {
        self.nonterminals
    }

    /// Metadata for a production.
    ///
    /// # Panics
    ///
    /// Panics if `prod` is out of range.
    #[inline]
    pub fn production(&self, prod: u32) -> &ProductionInfo {
        &self.productions[prod as usize]
    }

    /// Number of productions.
    pub fn production_count(&self) -> usize {
        self.productions.len()
    }

    /// The name of a terminal.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range.
    pub fn terminal_name(&self, terminal: u32) -> &str {
        &self.terminal_names[terminal as usize]
    }

    /// Looks up a terminal index by name.
    pub fn terminal_by_name(&self, name: &str) -> Option<u32> {
        self.terminal_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u32)
    }

    /// The name of a nonterminal.
    ///
    /// # Panics
    ///
    /// Panics if `nonterminal` is out of range.
    pub fn nonterminal_name(&self, nonterminal: u32) -> &str {
        &self.nonterminal_names[nonterminal as usize]
    }

    /// The terminals with a non-error action in `state` (error-message
    /// material).
    pub fn expected_terminals(&self, state: u32) -> Vec<u32> {
        (0..self.terminals)
            .filter(|&t| !self.action(state, t).is_error())
            .collect()
    }

    /// The flat row-major `ACTION` array (`states × terminals`), for
    /// serializers.
    pub fn actions_raw(&self) -> &[Action] {
        &self.actions
    }

    /// The flat row-major `GOTO` array (`states × nonterminals`,
    /// `u32::MAX` = absent), for serializers.
    pub fn gotos_raw(&self) -> &[u32] {
        &self.gotos
    }

    /// All production metadata, in production order.
    pub fn production_infos(&self) -> &[ProductionInfo] {
        &self.productions
    }

    /// All terminal names, in index order.
    pub fn terminal_names(&self) -> &[String] {
        &self.terminal_names
    }

    /// All nonterminal names, in index order.
    pub fn nonterminal_names(&self) -> &[String] {
        &self.nonterminal_names
    }

    /// Reassembles a table from its raw parts — the inverse of the
    /// `*_raw`/name/production/[`ParseTable::resolution_count`]
    /// accessors, used by the on-disk artifact store. Dimensions are
    /// validated.
    ///
    /// # Panics
    ///
    /// Panics if the array lengths disagree with the dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        actions: Vec<Action>,
        gotos: Vec<u32>,
        states: u32,
        terminals: u32,
        nonterminals: u32,
        productions: Vec<ProductionInfo>,
        terminal_names: Vec<String>,
        nonterminal_names: Vec<String>,
        resolution_count: usize,
    ) -> ParseTable {
        assert_eq!(actions.len(), (states * terminals) as usize);
        assert_eq!(gotos.len(), (states * nonterminals) as usize);
        assert_eq!(terminal_names.len(), terminals as usize);
        assert_eq!(nonterminal_names.len(), nonterminals as usize);
        ParseTable {
            actions,
            gotos,
            states,
            terminals,
            nonterminals,
            productions,
            terminal_names,
            nonterminal_names,
            resolution_count,
        }
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> TableStats {
        TableStats {
            states: self.states as usize,
            terminals: self.terminals as usize,
            nonterminals: self.nonterminals as usize,
            action_entries: self.actions.iter().filter(|a| !a.is_error()).count(),
            goto_entries: self.gotos.iter().filter(|&&g| g != NO_GOTO).count(),
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

    fn table(src: &str) -> ParseTable {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        build_table(&g, &lr0, &la, TableOptions::default())
    }

    #[test]
    fn dimensions_and_metadata() {
        let t = table("s : \"a\" s | \"b\" ;");
        assert_eq!(t.terminal_count(), 3);
        assert_eq!(t.nonterminal_count(), 2);
        assert_eq!(t.production_count(), 3);
        assert_eq!(t.production(1).rhs_len, 2);
        assert_eq!(t.production(1).lhs, 1);
        assert_eq!(t.terminal_name(0), "$");
        assert_eq!(t.terminal_by_name("a"), Some(1));
        assert_eq!(t.terminal_by_name("zz"), None);
        assert_eq!(t.nonterminal_name(1), "s");
    }

    #[test]
    fn stats_count_nonerror_entries() {
        let t = table("s : \"a\" ;");
        let st = t.stats();
        assert!(st.action_entries >= 3, "shift a, accept, reduce on $");
        assert!(st.goto_entries >= 1);
        assert_eq!(st.states, t.state_count() as usize);
    }

    #[test]
    fn expected_terminals_in_start_state() {
        let t = table("s : \"a\" s | \"b\" ;");
        let expected: Vec<String> = t
            .expected_terminals(0)
            .into_iter()
            .map(|i| t.terminal_name(i).to_string())
            .collect();
        assert_eq!(expected, vec!["a", "b"]);
    }
}
