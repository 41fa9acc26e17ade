//! ACTION/GOTO parse tables.
//!
//! Turns look-ahead sets (from any method in `lalr-core`) into the driver
//! tables an LR parser executes, the way yacc/bison do:
//!
//! * [`build_table`] — table construction with precedence/associativity
//!   conflict resolution and yacc-style defaults (shift over reduce,
//!   earlier production over later), every decision counted;
//!   [`resolutions`] lists the decisions, recomputed on demand.
//! * [`ParseTable`] — the dense table: `ACTION[state][terminal]`,
//!   `GOTO[state][nonterminal]`, plus the production metadata the runtime
//!   needs (so parsing needs no `Grammar` object).
//! * [`CompressedTable`] — default-reduction row compression, the classic
//!   space optimization, with equivalence tests against the dense table.
//!
//! # Examples
//!
//! ```
//! use lalr_automata::Lr0Automaton;
//! use lalr_core::LalrAnalysis;
//! use lalr_grammar::parse_grammar;
//! use lalr_tables::{build_table, TableOptions};
//!
//! let g = parse_grammar("e : e \"+\" t | t ; t : \"x\" ;")?;
//! let lr0 = Lr0Automaton::build(&g);
//! let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
//! let table = build_table(&g, &lr0, &la, TableOptions::default());
//! assert_eq!(table.resolution_count(), 0, "grammar is conflict-free");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod build;
mod compress;
mod display;
mod table;

pub use action::Action;
pub use build::{build_table, resolutions, Resolution, ResolutionReason, TableOptions};
pub use compress::CompressedTable;
pub use table::{ParseTable, ProductionInfo, TableStats};
