//! Language-preservation tests for the grammar transformations, using the
//! sentence sampler as the witness generator and LALR parsers as the
//! membership oracles.

use lalr::corpus::sentences::generate_many;
use lalr::grammar::transform::{reduce, remove_epsilon};
use lalr::prelude::*;
use lalr::runtime::Token;

/// A membership oracle for `grammar`'s language, or `None` when the
/// grammar is not adequate under plain LALR(1) (no oracle then).
fn oracle(grammar: &Grammar) -> Option<(ParseTable, Grammar)> {
    let lr0 = Lr0Automaton::build(grammar);
    let analysis = LalrAnalysis::compute(grammar, &lr0);
    if !analysis.conflicts(grammar, &lr0).is_empty() {
        return None;
    }
    Some((
        build_table(
            grammar,
            &lr0,
            analysis.lookaheads(),
            TableOptions::default(),
        ),
        grammar.clone(),
    ))
}

/// Re-encodes a sentence of `from` into tokens of `to` by terminal *name*
/// (transformations re-intern symbols, so indices shift).
fn reencode<'g>(
    sentence: &[lalr::grammar::Terminal],
    from: &'g Grammar,
    to: &ParseTable,
) -> Option<Vec<Token<'g>>> {
    sentence
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            to.terminal_by_name(from.terminal_name(t))
                .map(|idx| Token::new(idx, from.terminal_name(t), i))
        })
        .collect()
}

#[test]
fn epsilon_removal_preserves_nonempty_sentences() {
    // Note: ε-removal does not preserve *unambiguity* in general (e.g.
    // `s : a s a` with nullable `a` becomes ambiguous), so the oracle-based
    // check uses grammars whose transformed form stays LALR(1)-adequate.
    let sources = [
        "s : a s | \"x\" ; a : \"y\" | ;",
        "s : b \"end\" ; b : \"t\" b | ;",
        "s : a b c ; a : \"1\" | ; b : \"2\" | ; c : \"3\" | ;",
    ];
    for src in sources {
        let g = parse_grammar(src).unwrap();
        let g2 = remove_epsilon(&g).expect("removable");
        let Some((table2, _)) = oracle(&g2) else {
            panic!("{src}: transformed grammar must stay adequate here");
        };
        let parser = Parser::new(&table2);
        let mut checked = 0;
        for sentence in generate_many(&g, 5, 60, 25) {
            if sentence.is_empty() {
                continue; // ε is the one string legitimately lost
            }
            let toks =
                reencode(&sentence, &g, &table2).expect("transformed grammar keeps used terminals");
            assert!(
                parser.parse(toks).is_ok(),
                "{src}: sentence lost by ε-removal: {:?}",
                sentence
                    .iter()
                    .map(|&t| g.terminal_name(t))
                    .collect::<Vec<_>>()
            );
            checked += 1;
        }
        assert!(checked > 10, "{src}: enough non-empty samples ({checked})");
    }
}

#[test]
fn epsilon_removal_introduces_no_new_sentences() {
    let src = "s : a \"m\" a ; a : \"y\" | ;";
    let g = parse_grammar(src).unwrap();
    let g2 = remove_epsilon(&g).unwrap();
    let (table, _) = oracle(&g).expect("original adequate");
    let parser = Parser::new(&table);
    for sentence in generate_many(&g2, 17, 60, 25) {
        let toks = reencode(&sentence, &g2, &table).expect("same terminal names");
        assert!(
            parser.parse(toks).is_ok(),
            "ε-removal invented a sentence: {:?}",
            sentence
                .iter()
                .map(|&t| g2.terminal_name(t))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn reduction_preserves_the_language_both_ways() {
    // u is unproductive, dead unreachable; the trimmed grammar must accept
    // exactly the same strings.
    let src = "s : \"a\" s | \"b\" | u ; u : u \"x\" ; dead : \"d\" ;";
    let g = parse_grammar(src).unwrap();
    let out = reduce(&g).unwrap();
    let (t1, _) = oracle(&g).expect("original adequate");
    let (t2, _) = oracle(&out.grammar).expect("reduced adequate");

    for sentence in generate_many(&g, 3, 40, 25) {
        let toks = reencode(&sentence, &g, &t2).expect("kept terminals suffice");
        assert!(Parser::new(&t2).parse(toks).is_ok(), "lost by reduction");
    }
    for sentence in generate_many(&out.grammar, 4, 40, 25) {
        let toks = reencode(&sentence, &out.grammar, &t1).expect("subset of terminals");
        assert!(
            Parser::new(&t1).parse(toks).is_ok(),
            "invented by reduction"
        );
    }
}
