//! Graph machinery for the DeRemer–Pennello LALR(1) look-ahead computation.
//!
//! The heart of the paper is the observation that both
//!
//! * `Read(p, A)  = DR(p, A)  ∪ ⋃ { Read(r, C)   : (p, A) reads (r, C) }` and
//! * `Follow(p,A) = Read(p,A) ∪ ⋃ { Follow(p',B) : (p, A) includes (p', B) }`
//!
//! are instances of one generic problem: given a finite set `X`, a relation
//! `R ⊆ X × X` and an initial set-valued function `F'`, compute the smallest
//! `F` such that `F(x) = F'(x) ∪ ⋃ { F(y) : x R y }`.
//!
//! The paper's **Digraph** algorithm ([`digraph`]) solves this with a single
//! Tarjan-style depth-first traversal that collapses strongly connected
//! components on the fly, performing `O(|X| + |R|)` set unions. This crate
//! provides:
//!
//! * [`Graph`] — a compressed-sparse-row digraph, built once from an edge
//!   list.
//! * [`digraph`] / [`digraph_on`] — the paper's algorithm over
//!   [`lalr_bitset::BitMatrix`] rows.
//! * [`naive_closure`] — the quadratic reference implementation (repeated
//!   relaxation until fixpoint) used by the ablation benchmark **E6**.
//! * [`tarjan_scc`] / [`Condensation`] — explicit SCC computation, used for
//!   the relation-structure statistics (figure **E5**) and for detecting
//!   non-trivial `reads` cycles (which prove a grammar not LR(k)).
//!
//! # Examples
//!
//! ```
//! use lalr_bitset::BitMatrix;
//! use lalr_digraph::{digraph, Graph};
//!
//! // F(0) ⊇ {0}; 0 R 1; F(1) ⊇ {1}  ⇒  F(0) = {0,1}, F(1) = {1}
//! let g = Graph::from_edges(2, [(0, 1)]);
//! let mut sets = BitMatrix::new(2, 8);
//! sets.set(0, 0);
//! sets.set(1, 1);
//! digraph(&g, &mut sets);
//! assert!(sets.get(0, 1));
//! assert!(!sets.get(1, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod condensation;
mod graph;
mod naive;
mod tarjan;
mod traversal;

pub use condensation::Condensation;
pub use graph::Graph;
pub use naive::naive_closure;
pub use tarjan::{tarjan_scc, SccInfo};
pub use traversal::{
    digraph, digraph_counting, digraph_from, digraph_from_on, digraph_on, DigraphStats,
    TraversalCounts, UnionSets,
};
