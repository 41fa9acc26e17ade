//! Recursion structure of a grammar.

use lalr_digraph::{tarjan_scc, Graph};

use crate::analysis::nullable::NullableSet;
use crate::grammar::Grammar;
use crate::symbol::{NonTerminal, Symbol};

/// How a nonterminal recurses (relevant because left recursion is what LR
/// handles natively and LL cannot; the corpus statistics report it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecursionKind {
    /// `A ⇒+ A γ` — the recursive occurrence can be leftmost.
    Left,
}

/// The nonterminals `A` with `A ⇒+ A γ` (left recursion, possibly through
/// nullable prefixes and other nonterminals).
///
/// # Examples
///
/// ```
/// use lalr_grammar::{analysis::{left_recursive_nonterminals, nullable}, parse_grammar};
///
/// let g = parse_grammar("e : e \"+\" t | t ; t : \"x\" ;")?;
/// let lr = left_recursive_nonterminals(&g, &nullable(&g));
/// assert_eq!(lr, vec![g.nonterminal_by_name("e").unwrap()]);
/// # Ok::<(), lalr_grammar::GrammarError>(())
/// ```
pub fn left_recursive_nonterminals(grammar: &Grammar, nullable: &NullableSet) -> Vec<NonTerminal> {
    // Build the "can begin with" relation: A -> B when A → αBβ with α ⇒* ε.
    let n = grammar.nonterminal_count();
    let mut edges = Vec::new();
    for p in grammar.productions() {
        for &sym in p.rhs() {
            match sym {
                Symbol::Terminal(_) => break,
                Symbol::NonTerminal(b) => {
                    edges.push((p.lhs().index(), b.index()));
                    if !nullable.contains(b) {
                        break;
                    }
                }
            }
        }
    }
    let graph = Graph::from_edges_dedup(n, edges.iter().copied());
    // A is left-recursive iff it lies on a cycle of this relation.
    let scc = tarjan_scc(&graph);
    let sizes = scc.sizes();
    (0..n)
        .filter(|&i| sizes[scc.component(i)] > 1 || graph.has_self_loop(i))
        .map(NonTerminal::new)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::nullable;
    use crate::parse_grammar;

    fn left_rec(src: &str) -> Vec<String> {
        let g = parse_grammar(src).unwrap();
        left_recursive_nonterminals(&g, &nullable(&g))
            .into_iter()
            .map(|nt| g.nonterminal_name(nt).to_string())
            .collect()
    }

    #[test]
    fn direct_left_recursion() {
        assert_eq!(left_rec("e : e \"+\" \"x\" | \"x\" ;"), vec!["e"]);
    }

    #[test]
    fn right_recursion_is_not_left() {
        assert!(left_rec("e : \"x\" \"+\" e | \"x\" ;").is_empty());
    }

    #[test]
    fn indirect_left_recursion() {
        assert_eq!(
            left_rec("a : b \"x\" | \"q\" ; b : a \"y\" ;"),
            vec!["a", "b"]
        );
    }

    #[test]
    fn hidden_left_recursion_through_nullable() {
        // a → n a "x": n nullable, so `a` can begin with `a`.
        assert_eq!(left_rec("a : n a \"x\" | \"q\" ; n : | \"m\" ;"), vec!["a"]);
    }

    #[test]
    fn nonnullable_prefix_blocks() {
        assert!(left_rec("a : n a \"x\" | \"q\" ; n : \"m\" ;").is_empty());
    }
}
