//! `FIRST` sets.

use lalr_bitset::BitMatrix;
use lalr_bitset::BitSet;
use lalr_digraph::{digraph, Graph};

use crate::analysis::nullable::NullableSet;
use crate::grammar::Grammar;
use crate::symbol::{NonTerminal, Symbol, Terminal};

/// `FIRST(A)` for every nonterminal: the terminals that can begin a string
/// derived from `A`.
///
/// Computed with the same Digraph machinery the look-ahead computation uses:
/// the *initial* set of `A` holds the terminals directly beginning some
/// alternative of `A` (after skipping nullable prefixes), and the relation
/// `A → B` holds when `B` appears in such a first position — `FIRST` is then
/// exactly the reachability union the Digraph algorithm computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstSets {
    sets: BitMatrix,
    nullable: NullableSet,
}

impl FirstSets {
    /// Computes `FIRST` for all nonterminals of `grammar`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lalr_grammar::{analysis::{nullable, FirstSets}, parse_grammar};
    ///
    /// let g = parse_grammar("e : t \"+\" e | t ; t : \"x\" ;")?;
    /// let first = FirstSets::compute(&g, &nullable(&g));
    /// let e = g.nonterminal_by_name("e").unwrap();
    /// let x = g.terminal_by_name("x").unwrap();
    /// assert!(first.contains(e, x));
    /// # Ok::<(), lalr_grammar::GrammarError>(())
    /// ```
    pub fn compute(grammar: &Grammar, nullable: &NullableSet) -> FirstSets {
        let n = grammar.nonterminal_count();
        let mut sets = BitMatrix::new(n, grammar.terminal_count());
        let mut edges = Vec::new();
        for p in grammar.productions() {
            let lhs = p.lhs().index();
            for &sym in p.rhs() {
                match sym {
                    Symbol::Terminal(t) => {
                        sets.set(lhs, t.index());
                        break;
                    }
                    Symbol::NonTerminal(b) => {
                        edges.push((lhs, b.index()));
                        if !nullable.contains(b) {
                            break;
                        }
                    }
                }
            }
        }
        digraph(
            &Graph::from_edges_dedup(n, edges.iter().copied()),
            &mut sets,
        );
        FirstSets {
            sets,
            nullable: nullable.clone(),
        }
    }

    /// `true` when `t ∈ FIRST(nt)`.
    #[inline]
    pub fn contains(&self, nt: NonTerminal, t: Terminal) -> bool {
        self.sets.get(nt.index(), t.index())
    }

    /// `FIRST(nt)` as an owned bit set over terminal indices.
    pub fn of(&self, nt: NonTerminal) -> BitSet {
        self.sets.row_to_bitset(nt.index())
    }

    /// Iterates over `FIRST(nt)`.
    pub fn iter(&self, nt: NonTerminal) -> impl Iterator<Item = Terminal> + '_ {
        self.sets.iter_row(nt.index()).map(Terminal::new)
    }

    /// The nullable set this was computed with.
    pub fn nullable(&self) -> &NullableSet {
        &self.nullable
    }

    /// `FIRST` of a symbol string, with a flag reporting whether the entire
    /// string is nullable (i.e. whether `FOLLOW`-style continuation applies).
    pub fn first_of(&self, symbols: &[Symbol]) -> (BitSet, bool) {
        first_of_sequence(self, symbols)
    }
}

/// `FIRST(X₁…Xₙ)` plus whether the whole string derives ε.
///
/// This is the helper the canonical-LR(1) item closure uses to compute the
/// look-aheads `FIRST(γ a)`.
pub fn first_of_sequence(first: &FirstSets, symbols: &[Symbol]) -> (BitSet, bool) {
    let mut out = BitSet::new(first.sets.cols());
    for &sym in symbols {
        match sym {
            Symbol::Terminal(t) => {
                out.insert(t.index());
                return (out, false);
            }
            Symbol::NonTerminal(n) => {
                for t in first.iter(n) {
                    out.insert(t.index());
                }
                if !first.nullable.contains(n) {
                    return (out, false);
                }
            }
        }
    }
    (out, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::nullable;
    use crate::parse_grammar;

    fn first_names(g: &Grammar, f: &FirstSets, nt: &str) -> Vec<String> {
        let n = g.nonterminal_by_name(nt).unwrap();
        f.iter(n).map(|t| g.terminal_name(t).to_string()).collect()
    }

    #[test]
    fn classic_expression_grammar() {
        let g = parse_grammar(
            r#"
            e : e "+" t | t ;
            t : t "*" f | f ;
            f : "(" e ")" | "id" ;
            "#,
        )
        .unwrap();
        let f = FirstSets::compute(&g, &nullable(&g));
        for nt in ["e", "t", "f"] {
            assert_eq!(first_names(&g, &f, nt), vec!["(", "id"], "FIRST({nt})");
        }
    }

    #[test]
    fn nullable_prefix_exposes_next_symbol() {
        let g = parse_grammar("s : a \"x\" ; a : \"y\" | ;").unwrap();
        let f = FirstSets::compute(&g, &nullable(&g));
        assert_eq!(first_names(&g, &f, "s"), vec!["x", "y"]);
    }

    #[test]
    fn left_recursive_cycle_converges() {
        let g = parse_grammar("a : b \"x\" | ; b : a \"y\" | \"z\" ;").unwrap();
        let f = FirstSets::compute(&g, &nullable(&g));
        // a and b feed each other; b is never nullable, so "x" can never be
        // first: FIRST(a) = FIRST(b) = {y, z}.
        assert_eq!(first_names(&g, &f, "a"), vec!["y", "z"]);
        assert_eq!(first_names(&g, &f, "b"), vec!["y", "z"]);
    }

    #[test]
    fn sequence_first_handles_nullable_chain() {
        let g = parse_grammar("s : a b \"c\" ; a : \"a1\" | ; b : \"b1\" | ;").unwrap();
        let f = FirstSets::compute(&g, &nullable(&g));
        let a: Symbol = g.nonterminal_by_name("a").unwrap().into();
        let b: Symbol = g.nonterminal_by_name("b").unwrap().into();
        let c: Symbol = g.terminal_by_name("c").unwrap().into();

        let sorted_names = |set: &lalr_bitset::BitSet| {
            let mut v: Vec<&str> = set
                .iter()
                .map(|i| g.terminal_name(Terminal::new(i)))
                .collect();
            v.sort_unstable();
            v
        };
        let (set, eps) = f.first_of(&[a, b]);
        assert_eq!(sorted_names(&set), vec!["a1", "b1"]);
        assert!(eps);

        let (set, eps) = f.first_of(&[a, b, c]);
        assert_eq!(sorted_names(&set), vec!["a1", "b1", "c"]);
        assert!(!eps);

        let (set, eps) = f.first_of(&[]);
        assert!(set.is_empty());
        assert!(eps);
    }

    #[test]
    fn eof_never_in_first_of_user_nonterminals() {
        let g = parse_grammar("s : \"a\" ;").unwrap();
        let f = FirstSets::compute(&g, &nullable(&g));
        for nt in g.nonterminals() {
            assert!(!f.contains(nt, Terminal::EOF));
        }
    }
}
