//! The LR parsing runtime: drive a [`lalr_tables::ParseTable`] over a
//! token stream.
//!
//! * [`Token`] / [`Lexer`] — a small configurable lexer that derives its
//!   literal and keyword tables from the parse table's terminal names;
//!   tokens borrow their text from the input. [`terminal_index`] maps
//!   terminal names to indices for documents written as names.
//! * [`Parser`] — the classic shift-reduce driver, generic over
//!   [`ActionSource`] so it runs identically on dense and compressed
//!   tables; builds a [`ParseTree`], a flat postorder forest walked
//!   through [`Subtree`] views.
//! * [`ParseError`] — positioned errors listing the expected terminals.
//! * Panic-mode error recovery via [`Parser::parse_with_recovery`].
//! * [`reduce_loop`] — finds the conflict-resolved tables on which the
//!   parser would reduce forever, once per table, so callers can refuse
//!   them instead of counting the parser's steps.
//!
//! # Examples
//!
//! ```
//! use lalr_automata::Lr0Automaton;
//! use lalr_core::LalrAnalysis;
//! use lalr_grammar::parse_grammar;
//! use lalr_runtime::{Lexer, Parser};
//! use lalr_tables::{build_table, TableOptions};
//!
//! let g = parse_grammar("e : e \"+\" t | t ; t : NUM ;")?;
//! let lr0 = Lr0Automaton::build(&g);
//! let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
//! let table = build_table(&g, &lr0, &la, TableOptions::default());
//!
//! let lexer = Lexer::for_table(&table).number("NUM").build();
//! let tokens = lexer.tokenize("1 + 2 + 3")?;
//! let tree = Parser::new(&table).parse(tokens)?;
//! assert_eq!(tree.leaf_count(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycle;
mod error;
mod lexer;
mod parser;
mod token;
mod tree;

pub use cycle::{reduce_loop, ReduceLoop};
pub use error::{LexError, ParseError};
pub use lexer::{terminal_index, Lexer, LexerBuilder};
pub use parser::{ActionSource, CompressedSource, Parser};
pub use token::Token;
pub use tree::{NodeView, ParseTree, Subtree};
