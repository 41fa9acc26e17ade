//! Property tests for the runtime lexer.

use lalr_automata::Lr0Automaton;
use lalr_core::LalrAnalysis;
use lalr_grammar::parse_grammar;
use lalr_runtime::Lexer;
use lalr_tables::{build_table, ParseTable, TableOptions};
use proptest::prelude::*;

fn rich_table() -> ParseTable {
    let g = parse_grammar(
        r#"
        s : WHILE ID DO s | ID ASSIGN expr | ;
        expr : expr "+" atom | atom ;
        atom : NUM | ID | STR | "(" expr ")" ;
        "#,
    )
    .unwrap();
    let lr0 = Lr0Automaton::build(&g);
    let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
    build_table(&g, &lr0, &la, TableOptions::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer must never panic, whatever bytes arrive.
    #[test]
    fn tokenize_never_panics(input in ".{0,120}") {
        let table = rich_table();
        let lexer = Lexer::for_table(&table)
            .number("NUM")
            .identifier("ID")
            .string("STR")
            .build();
        let _ = lexer.tokenize(&input);
    }

    /// On success, offsets are strictly increasing and each token's text
    /// occurs at its offset.
    #[test]
    fn token_offsets_are_faithful(input in "[ a-z0-9+()]{0,80}") {
        let table = rich_table();
        let lexer = Lexer::for_table(&table)
            .number("NUM")
            .identifier("ID")
            .string("STR")
            .build();
        if let Ok(tokens) = lexer.tokenize(&input) {
            let mut last_end = 0usize;
            for t in &tokens {
                prop_assert!(t.offset() >= last_end);
                prop_assert!(input[t.offset()..].starts_with(t.text()), "{t}");
                last_end = t.offset() + t.text().len();
            }
        }
    }

    /// Concatenating token texts with spaces re-tokenizes to the same
    /// terminal sequence (idempotence of the lexeme stream).
    #[test]
    fn retokenization_is_stable(input in "[ a-z0-9+()]{0,80}") {
        let table = rich_table();
        let lexer = Lexer::for_table(&table)
            .number("NUM")
            .identifier("ID")
            .string("STR")
            .build();
        if let Ok(tokens) = lexer.tokenize(&input) {
            let rebuilt: Vec<String> = tokens.iter().map(|t| t.text().to_string()).collect();
            let rebuilt = rebuilt.join(" ");
            let again = lexer.tokenize(&rebuilt).expect("re-lexable");
            let a: Vec<u32> = tokens.iter().map(|t| t.terminal()).collect();
            let b: Vec<u32> = again.iter().map(|t| t.terminal()).collect();
            prop_assert_eq!(a, b);
        }
    }
}
