//! Cross-crate property tests.

use lalr::corpus::synthetic::{random, RandomConfig};
use lalr::prelude::*;
use proptest::prelude::*;

/// Random well-formed inputs for the right-recursive list language
/// `s : "a" s | "b" ;` — strings a^n b.
fn list_input() -> impl Strategy<Value = String> {
    (0usize..64).prop_map(|n| {
        let mut s = "a ".repeat(n);
        s.push('b');
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn list_language_membership(input in list_input()) {
        let grammar = parse_grammar("s : \"a\" s | \"b\" ;").unwrap();
        let lr0 = Lr0Automaton::build(&grammar);
        let analysis = LalrAnalysis::compute(&grammar, &lr0);
        let table = build_table(&grammar, &lr0, analysis.lookaheads(), TableOptions::default());
        let lexer = Lexer::for_table(&table).build();
        let parser = Parser::new(&table);
        let tree = parser.parse(lexer.tokenize(&input).unwrap()).unwrap();
        prop_assert_eq!(tree.leaf_count(), input.split_whitespace().count());
    }

    #[test]
    fn balanced_parens_membership(depth in 0usize..40) {
        // p : "(" p ")" | ε  recognizes (^n )^n exactly.
        let grammar = parse_grammar("p : \"(\" p \")\" | ;").unwrap();
        let lr0 = Lr0Automaton::build(&grammar);
        let analysis = LalrAnalysis::compute(&grammar, &lr0);
        let table = build_table(&grammar, &lr0, analysis.lookaheads(), TableOptions::default());
        let lexer = Lexer::for_table(&table).build();
        let parser = Parser::new(&table);

        let good = format!("{}{}", "( ".repeat(depth), ") ".repeat(depth));
        prop_assert!(parser.parse(lexer.tokenize(&good).unwrap()).is_ok());

        let unbalanced = format!("{}{}", "( ".repeat(depth + 1), ") ".repeat(depth));
        prop_assert!(parser.parse(lexer.tokenize(&unbalanced).unwrap()).is_err());
    }

    #[test]
    fn random_grammar_pipeline_never_panics(seed in 0u64..500) {
        // Arbitrary grammars must flow through the whole pipeline without
        // panicking, whatever their class.
        let grammar = random(seed, RandomConfig::default());
        let lr0 = Lr0Automaton::build(&grammar);
        let analysis = LalrAnalysis::compute(&grammar, &lr0);
        let table = build_table(&grammar, &lr0, analysis.lookaheads(), TableOptions::default());
        prop_assert!(table.state_count() as usize == lr0.state_count());
        let compressed = CompressedTable::from_dense(&table);
        prop_assert_eq!(compressed.state_count(), lr0.state_count());
    }

    #[test]
    fn display_round_trip_preserves_structure(seed in 0u64..200) {
        let grammar = random(seed, RandomConfig::default());
        let text = grammar.to_string();
        let again = parse_grammar(&text).unwrap();
        prop_assert_eq!(grammar.production_count(), again.production_count());
        prop_assert_eq!(grammar.nonterminal_count(), again.nonterminal_count());
        // Re-display must be a fixpoint.
        prop_assert_eq!(text, again.to_string());
    }

    #[test]
    fn random_grammar_lookahead_methods_agree(seed in 0u64..120) {
        // DeRemer–Pennello against both baselines, one of them the
        // definition of LALR(1): canonical LR(1) merged by core.
        use lalr::automata::merge_lr1;
        use lalr::core::propagation_lookaheads;
        let grammar = random(seed, RandomConfig { epsilon_prob: 0.3, ..RandomConfig::default() });
        let lr0 = Lr0Automaton::build(&grammar);
        let dp = LalrAnalysis::compute(&grammar, &lr0).into_lookaheads();
        let prop_la = propagation_lookaheads(&grammar, &lr0);
        let merged = merge_lr1(&grammar, &Lr1Automaton::build(&grammar), &lr0);
        prop_assert_eq!(&dp, &prop_la, "DP vs yacc propagation");
        prop_assert_eq!(&dp, &LookaheadSets::from(&merged), "DP vs LR(1)-then-merge");
    }
}
