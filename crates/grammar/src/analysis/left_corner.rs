//! The nullable-tail left-corner relation (the canonical-LR(1) closure's
//! look-ahead flow).

use lalr_digraph::{tarjan_scc, Graph, SccInfo};

use crate::analysis::nullable::NullableSet;
use crate::grammar::Grammar;
use crate::symbol::Symbol;

/// Strongly connected components of the nullable-tail left-corner
/// relation: `X → C` for every production `X → C η` with `η ⇒* ε`.
///
/// In an LR(1) item closure the items `[C → · γ]` inherit every look-ahead
/// of the items `[X → · η]` along exactly these edges, so the members of
/// one component always share one look-ahead set. Component ids are in
/// reverse topological order: an edge between two components runs from
/// the higher id to the lower.
///
/// # Examples
///
/// ```
/// use lalr_grammar::analysis::{nullable, nullable_left_corner_components};
/// use lalr_grammar::parse_grammar;
///
/// // a ⇄ b through the nullable tail o; s → a has the non-nullable tail "x".
/// let g = parse_grammar("s : a \"x\" ; a : b o | \"y\" ; b : a o ; o : \"w\" | ;")?;
/// let scc = nullable_left_corner_components(&g, &nullable(&g));
/// let id = |name| scc.component(g.nonterminal_by_name(name).unwrap().index());
/// assert_eq!(id("a"), id("b"));
/// assert_ne!(id("s"), id("a"));
/// # Ok::<(), lalr_grammar::GrammarError>(())
/// ```
pub fn nullable_left_corner_components(grammar: &Grammar, nullable: &NullableSet) -> SccInfo {
    let edges = grammar
        .productions()
        .iter()
        .filter_map(|p| match p.rhs().split_first() {
            Some((&Symbol::NonTerminal(c), tail)) if nullable.string_nullable(tail) => {
                Some((p.lhs().index(), c.index()))
            }
            _ => None,
        });
    tarjan_scc(&Graph::from_edges_dedup(grammar.nonterminal_count(), edges))
}
