//! `Parser::parse` allocates a few arrays per document, not one per token
//! or per reduction.
//!
//! The flat forest holds the tokens, the reduction records and the child
//! ids in arrays sized from the input's length, so a 1,500-token document
//! costs a handful of allocations plus the few times an array outgrows
//! its first size. A tree of one `Vec` of children per reduction made
//! thousands. The counters are process-global, so this file holds a
//! single test and runs in its own binary.

use lalr_automata::Lr0Automaton;
use lalr_bench::alloc_counter::measure;
use lalr_core::LalrAnalysis;
use lalr_corpus::sentences::generate_many;
use lalr_runtime::{Parser, Token};
use lalr_tables::{build_table, TableOptions};

/// Allocations one parse may make, whatever the document's length.
const PARSE_ALLOC_BUDGET: usize = 64;

#[test]
fn parse_allocations_do_not_grow_with_the_document() {
    let grammar = lalr_corpus::by_name("c_subset")
        .expect("in corpus")
        .grammar();
    let lr0 = Lr0Automaton::build(&grammar);
    let la = LalrAnalysis::compute(&grammar, &lr0).into_lookaheads();
    let table = build_table(&grammar, &lr0, &la, TableOptions::default());
    let sentence = generate_many(&grammar, 0xA110C, 64, 1_500)
        .into_iter()
        .find(|s| (1_300..=1_700).contains(&s.len()))
        .expect("a ~1,500-token sentence");
    // Built outside the window, as the service builds them from a
    // document's words.
    let tokens: Vec<Token> = sentence
        .iter()
        .enumerate()
        .map(|(i, &t)| Token::new(t.index() as u32, grammar.terminal_name(t), i))
        .collect();
    let n = tokens.len();

    let (tree, stats) = measure(|| Parser::new(&table).parse(tokens));
    let tree = tree.expect("generated sentences parse");
    assert_eq!(tree.leaf_count(), n);
    assert!(
        stats.allocations <= PARSE_ALLOC_BUDGET,
        "parsing {n} tokens ({} reductions) made {} allocations ({} B)",
        tree.node_count(),
        stats.allocations,
        stats.bytes,
    );
}
