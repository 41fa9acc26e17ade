//! Differential language test: for a grammar on which a method is
//! *adequate* (no conflicts), the parse table built from that method's
//! look-ahead sets accepts exactly the grammar's language. So tables from
//! DP, propagation, LR(1)-merge, SLR and NQLALR must agree on every input
//! — positive samples from the sentence generator and mutated near-misses.

use lalr::automata::merge_lr1;
use lalr::core::{find_conflicts, propagation_lookaheads, NqlalrAnalysis};
use lalr::prelude::*;
use lalr::runtime::Token;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tokens<'g>(sentence: &[lalr::grammar::Terminal], g: &'g Grammar) -> Vec<Token<'g>> {
    sentence
        .iter()
        .enumerate()
        .map(|(i, &t)| Token::new(t.index() as u32, g.terminal_name(t), i))
        .collect()
}

/// Random single-token mutations: delete, duplicate, or substitute.
fn mutate(
    sentence: &[lalr::grammar::Terminal],
    g: &Grammar,
    rng: &mut StdRng,
) -> Vec<lalr::grammar::Terminal> {
    let mut s = sentence.to_vec();
    let n_terms = g.terminal_count();
    match rng.gen_range(0..3) {
        0 if !s.is_empty() => {
            let i = rng.gen_range(0..s.len());
            s.remove(i);
        }
        1 if !s.is_empty() => {
            let i = rng.gen_range(0..s.len());
            let t = s[i];
            s.insert(i, t);
        }
        _ => {
            // Substitute (or append when empty) a random non-EOF terminal.
            let t = lalr::grammar::Terminal::new(rng.gen_range(1..n_terms.max(2)));
            if s.is_empty() {
                s.push(t);
            } else {
                let i = rng.gen_range(0..s.len());
                s[i] = t;
            }
        }
    }
    s
}

#[test]
fn adequate_methods_accept_identical_languages() {
    for name in [
        "expr",
        "json",
        "lalr_not_slr",
        "nqlalr_witness",
        "sql_subset",
    ] {
        let g = lalr::corpus::by_name(name).expect("corpus entry").grammar();
        let lr0 = Lr0Automaton::build(&g);

        // Gather every adequate method's table.
        let candidates: Vec<(&str, LookaheadSets)> = vec![
            ("DP", LalrAnalysis::compute(&g, &lr0).into_lookaheads()),
            ("prop", propagation_lookaheads(&g, &lr0)),
            (
                "merge",
                LookaheadSets::from(&merge_lr1(&g, &Lr1Automaton::build(&g), &lr0)),
            ),
            ("slr", slr_lookaheads(&g, &lr0)),
            (
                "nqlalr",
                NqlalrAnalysis::compute(&g, &lr0).into_lookaheads(),
            ),
        ];
        let tables: Vec<(&str, ParseTable)> = candidates
            .into_iter()
            .filter(|(_, la)| find_conflicts(&g, &lr0, la).is_empty())
            .map(|(m, la)| (m, build_table(&g, &lr0, &la, TableOptions::default())))
            .collect();
        assert!(tables.len() >= 3, "{name}: DP, prop, merge at least");

        let mut rng = StdRng::seed_from_u64(7);
        let sentences = lalr::corpus::sentences::generate_many(&g, 11, 25, 30);
        for sentence in &sentences {
            // Positive sample plus three mutations of it.
            let mut inputs = vec![sentence.clone()];
            for _ in 0..3 {
                inputs.push(mutate(sentence, &g, &mut rng));
            }
            for input in inputs {
                let verdicts: Vec<(&str, bool)> = tables
                    .iter()
                    .map(|(m, t)| (*m, Parser::new(t).parse(tokens(&input, &g)).is_ok()))
                    .collect();
                let first = verdicts[0].1;
                assert!(
                    verdicts.iter().all(|&(_, v)| v == first),
                    "{name}: methods disagree on {:?}: {verdicts:?}",
                    input
                        .iter()
                        .map(|&t| g.terminal_name(t))
                        .collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn dp_table_equals_propagation_and_merge_tables_exactly() {
    // Stronger than language equality: same LA sets means byte-identical
    // tables for the exact methods.
    for name in [
        "expr",
        "json",
        "pascal",
        "lua_subset",
        "ada_subset",
        "sql_subset",
    ] {
        let g = lalr::corpus::by_name(name).expect("corpus entry").grammar();
        let lr0 = Lr0Automaton::build(&g);
        let dp = build_table(
            &g,
            &lr0,
            &LalrAnalysis::compute(&g, &lr0).into_lookaheads(),
            TableOptions::default(),
        );
        let prop = build_table(
            &g,
            &lr0,
            &propagation_lookaheads(&g, &lr0),
            TableOptions::default(),
        );
        assert_eq!(dp, prop, "{name}: DP and propagation tables identical");
    }
}
