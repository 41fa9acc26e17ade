//! Language-level closure test: every sentence sampled from a grammar must
//! be accepted by the parser generated from that grammar — across the
//! corpus and the synthetic families.

use lalr::corpus::sentences::generate_many;
use lalr::prelude::*;
use lalr::runtime::Token;

fn tokens_for<'g>(sentence: &[lalr::grammar::Terminal], grammar: &'g Grammar) -> Vec<Token<'g>> {
    sentence
        .iter()
        .enumerate()
        .map(|(i, &t)| Token::new(t.index() as u32, grammar.terminal_name(t), i))
        .collect()
}

fn check_grammar(name: &str, grammar: &Grammar, samples: usize) {
    let lr0 = Lr0Automaton::build(grammar);
    let analysis = LalrAnalysis::compute(grammar, &lr0);
    if !analysis.conflicts(grammar, &lr0).is_empty() {
        // Default conflict resolution may change the accepted language;
        // the closure property is only guaranteed for conflict-free
        // grammars.
        return;
    }
    let table = build_table(
        grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    );
    let parser = Parser::new(&table);
    for (i, sentence) in generate_many(grammar, 0xC0FFEE, samples, 40)
        .into_iter()
        .enumerate()
    {
        let toks = tokens_for(&sentence, grammar);
        let n = toks.len();
        let result = parser.parse(toks);
        assert!(
            result.is_ok(),
            "{name}: generated sentence #{i} ({n} tokens) rejected: {result:?}"
        );
        assert_eq!(result.unwrap().leaf_count(), n, "{name}: leaves round-trip");
    }
}

#[test]
fn corpus_sentences_parse() {
    for entry in lalr::corpus::all_entries() {
        check_grammar(entry.name, &entry.grammar(), 30);
    }
}

#[test]
fn synthetic_family_sentences_parse() {
    use lalr::corpus::synthetic;
    check_grammar("ladder6", &synthetic::expr_ladder(6), 30);
    check_grammar("chain12", &synthetic::chain(12), 10);
    check_grammar("nullable5", &synthetic::nullable_blocks(5), 30);
    check_grammar("lists3", &synthetic::nested_lists(3), 30);
}

#[test]
fn random_grammar_sentences_parse_when_conflict_free() {
    use lalr::corpus::synthetic::{random, RandomConfig};
    let mut tested = 0;
    for seed in 0..200u64 {
        let g = random(seed, RandomConfig::default());
        let lr0 = Lr0Automaton::build(&g);
        let analysis = LalrAnalysis::compute(&g, &lr0);
        if analysis.conflicts(&g, &lr0).is_empty() {
            check_grammar(&format!("random{seed}"), &g, 10);
            tested += 1;
        }
    }
    assert!(
        tested >= 10,
        "enough conflict-free random grammars: {tested}"
    );
}
