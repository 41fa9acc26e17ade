//! `FOLLOW` sets (the SLR(1) baseline's look-ahead approximation).

use lalr_bitset::{BitMatrix, BitSet};
use lalr_digraph::{digraph, Graph};

use crate::analysis::first::FirstSets;
use crate::grammar::Grammar;
use crate::symbol::{NonTerminal, Symbol, Terminal};

/// `FOLLOW(A)` for every nonterminal: the terminals that can appear
/// immediately after `A` in a sentential form (with `$` after the start
/// symbol).
///
/// Computed, like everything in this suite, as a Digraph instance: the
/// initial set of `A` collects `FIRST(β)` over occurrences `B → α A β`, and
/// `A` points at `B` whenever `β ⇒* ε` (then `FOLLOW(A) ⊇ FOLLOW(B)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowSets {
    sets: BitMatrix,
}

impl FollowSets {
    /// Computes `FOLLOW` for all nonterminals.
    ///
    /// # Examples
    ///
    /// ```
    /// use lalr_grammar::{analysis::{nullable, FirstSets, FollowSets}, parse_grammar};
    ///
    /// let g = parse_grammar("s : a \"b\" ; a : \"x\" ;")?;
    /// let n = nullable(&g);
    /// let first = FirstSets::compute(&g, &n);
    /// let follow = FollowSets::compute(&g, &first);
    /// let a = g.nonterminal_by_name("a").unwrap();
    /// let b = g.terminal_by_name("b").unwrap();
    /// assert!(follow.contains(a, b));
    /// # Ok::<(), lalr_grammar::GrammarError>(())
    /// ```
    pub fn compute(grammar: &Grammar, first: &FirstSets) -> FollowSets {
        let n = grammar.nonterminal_count();
        let mut sets = BitMatrix::new(n, grammar.terminal_count());
        let mut edges = Vec::new();

        // FOLLOW(<start>) = {$}; the user start inherits it through the
        // augmented production <start> → S (handled by the generic loop).
        sets.set(NonTerminal::AUGMENTED_START.index(), Terminal::EOF.index());

        for p in grammar.productions() {
            let rhs = p.rhs();
            for (i, &sym) in rhs.iter().enumerate() {
                let Symbol::NonTerminal(a) = sym else {
                    continue;
                };
                let beta = &rhs[i + 1..];
                let (first_beta, beta_nullable) = first.first_of(beta);
                sets.union_row_with_words(
                    a.index(),
                    bitset_words(&first_beta, grammar.terminal_count()),
                );
                if beta_nullable {
                    // FOLLOW(A) ⊇ FOLLOW(lhs)
                    edges.push((a.index(), p.lhs().index()));
                }
            }
        }
        digraph(
            &Graph::from_edges_dedup(n, edges.iter().copied()),
            &mut sets,
        );
        FollowSets { sets }
    }

    /// `true` when `t ∈ FOLLOW(nt)`.
    #[inline]
    pub fn contains(&self, nt: NonTerminal, t: Terminal) -> bool {
        self.sets.get(nt.index(), t.index())
    }

    /// `FOLLOW(nt)` as an owned bit set over terminal indices.
    pub fn of(&self, nt: NonTerminal) -> BitSet {
        self.sets.row_to_bitset(nt.index())
    }

    /// Iterates over `FOLLOW(nt)`.
    pub fn iter(&self, nt: NonTerminal) -> impl Iterator<Item = Terminal> + '_ {
        self.sets.iter_row(nt.index()).map(Terminal::new)
    }
}

/// Views a `BitSet` over `0..cols` as raw words for a row-union.
fn bitset_words(set: &BitSet, cols: usize) -> &[usize] {
    debug_assert_eq!(set.len(), cols);
    // BitSet doesn't expose words publicly; rebuild via iteration would cost
    // allocations, so we keep a crate-private accessor here instead.
    set.as_words()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{nullable, FirstSets};
    use crate::parse_grammar;

    fn follow_names(src: &str, nt: &str) -> Vec<String> {
        let g = parse_grammar(src).unwrap();
        let f = FirstSets::compute(&g, &nullable(&g));
        let fo = FollowSets::compute(&g, &f);
        let n = g.nonterminal_by_name(nt).unwrap();
        fo.iter(n).map(|t| g.terminal_name(t).to_string()).collect()
    }

    const EXPR: &str = r#"
        e : e "+" t | t ;
        t : t "*" f | f ;
        f : "(" e ")" | "id" ;
    "#;

    #[test]
    fn dragon_book_expression_follow_sets() {
        // The classic: FOLLOW(E) = {+, ), $}, FOLLOW(T) = {+, *, ), $},
        // FOLLOW(F) = {+, *, ), $}.
        assert_eq!(follow_names(EXPR, "e"), vec!["$", "+", ")"]);
        assert_eq!(follow_names(EXPR, "t"), vec!["$", "+", "*", ")"]);
        assert_eq!(follow_names(EXPR, "f"), vec!["$", "+", "*", ")"]);
    }

    #[test]
    fn start_symbol_followed_by_eof() {
        assert_eq!(follow_names("s : \"a\" ;", "s"), vec!["$"]);
    }

    #[test]
    fn nullable_tail_propagates_lhs_follow() {
        // In s → a b, b nullable ⇒ FOLLOW(a) ⊇ FOLLOW(s) = {$}.
        assert_eq!(
            follow_names("s : a b ; a : \"x\" ; b : \"y\" | ;", "a"),
            vec!["$", "y"]
        );
    }

    #[test]
    fn follow_through_mutual_recursion() {
        let names = follow_names("s : a \"q\" ; a : b ; b : a | \"z\" ;", "b");
        assert_eq!(names, vec!["q"]);
    }
}
