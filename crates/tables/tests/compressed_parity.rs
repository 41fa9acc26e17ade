//! Corpus-wide parity between the dense `ParseTable` and the
//! default-reduction `CompressedTable` when driving the runtime parser:
//! identical accept/reject verdicts on every input, and identical parse
//! trees on every accepted one.
//!
//! Inputs per grammar: generated sample sentences (positives) plus
//! systematic mutations of each (truncation, duplication, adjacent
//! swap) whose verdicts the two tables must also agree on.

use lalr_automata::Lr0Automaton;
use lalr_core::LalrAnalysis;
use lalr_runtime::{CompressedSource, Parser, Token};
use lalr_tables::{build_table, CompressedTable, ParseTable, TableOptions};

fn tokens<'w>(table: &ParseTable, words: &'w [String]) -> Vec<Token<'w>> {
    words
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let t = table
                .terminal_by_name(w)
                .unwrap_or_else(|| panic!("terminal {w:?} missing from table"));
            Token::new(t, w, i)
        })
        .collect()
}

/// Each positive sentence plus a handful of deterministic mutations.
fn variants(sentence: &[String]) -> Vec<Vec<String>> {
    let mut out = vec![sentence.to_vec()];
    if !sentence.is_empty() {
        // Drop the last token (often an unfinished phrase).
        out.push(sentence[..sentence.len() - 1].to_vec());
        // Duplicate the first token.
        let mut dup = sentence.to_vec();
        dup.insert(0, sentence[0].clone());
        out.push(dup);
    }
    if sentence.len() >= 2 {
        // Swap the first adjacent pair.
        let mut swapped = sentence.to_vec();
        swapped.swap(0, 1);
        out.push(swapped);
        // Drop the first token.
        out.push(sentence[1..].to_vec());
    }
    out
}

#[test]
fn compressed_and_dense_tables_parse_identically_across_the_corpus() {
    let mut grammars = 0usize;
    let mut cases = 0usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;

    for entry in lalr_corpus::all_entries() {
        let grammar = entry.grammar();
        let lr0 = Lr0Automaton::build(&grammar);
        let la = LalrAnalysis::compute(&grammar, &lr0).into_lookaheads();
        let dense = build_table(&grammar, &lr0, &la, TableOptions::default());
        let compressed = CompressedTable::from_dense(&dense);
        let source = CompressedSource::new(&compressed, &dense);
        let dense_parser = Parser::new(&dense);
        let compressed_parser = Parser::new(&source);
        grammars += 1;

        let word_sets: Vec<Vec<String>> = lalr_corpus::sentences::generate_many(&grammar, 1, 8, 25)
            .iter()
            .map(|s| {
                s.iter()
                    .map(|&t| grammar.terminal_name(t).to_string())
                    .collect()
            })
            .collect();

        for words in &word_sets {
            for variant in variants(words) {
                cases += 1;
                let dense_result = dense_parser.parse(tokens(&dense, &variant));
                let compressed_result = compressed_parser.parse(tokens(&dense, &variant));
                match (&dense_result, &compressed_result) {
                    (Ok(a), Ok(b)) => {
                        accepted += 1;
                        assert_eq!(a, b, "{}: trees diverge on {:?}", entry.name, variant);
                    }
                    (Err(_), Err(_)) => rejected += 1,
                    _ => panic!(
                        "{}: verdicts diverge on {:?}: dense={:?} compressed={:?}",
                        entry.name,
                        variant,
                        dense_result.is_ok(),
                        compressed_result.is_ok()
                    ),
                }
            }
        }
    }

    // The corpus really exercised both verdicts at scale.
    assert!(grammars >= 10, "corpus too small: {grammars}");
    assert!(accepted >= 50, "too few accepted cases: {accepted}/{cases}");
    assert!(rejected >= 50, "too few rejected cases: {rejected}/{cases}");
}
