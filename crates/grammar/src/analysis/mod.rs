//! Classical grammar analyses.
//!
//! These are the fixpoint computations the DeRemer–Pennello relations are
//! built from: nullability (needed by `reads` and `includes`), `FIRST`
//! and the nullable-tail left-corner components (needed by the
//! canonical-LR(1) baseline's closure), and `FOLLOW` (needed by the
//! SLR(1) baseline). Reachability, productivity and recursion structure
//! round out the grammar-statistics table (experiment **E1**).

mod first;
mod follow;
mod left_corner;
mod nullable;
mod recursion;
mod useful;

pub use first::{first_of_sequence, FirstSets};
pub use follow::FollowSets;
pub use left_corner::nullable_left_corner_components;
pub use nullable::{nullable, NullableSet};
pub use recursion::{left_recursive_nonterminals, RecursionKind};
pub use useful::{productive_nonterminals, reachable_symbols, Reachability};
