//! Runtime sanity benchmark: tokens/second through the LR driver, dense
//! vs compressed tables, and through `to_sexpr` on the trees it builds —
//! including one document whose tree is as deep as it is long.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lalr_automata::Lr0Automaton;
use lalr_core::LalrAnalysis;
use lalr_runtime::{CompressedSource, Lexer, Parser, Token};
use lalr_tables::{build_table, CompressedTable, ParseTable, TableOptions};

/// Tokens of the deep document: one tree level per token.
const DEEP_TOKENS: usize = 100_000;

fn table_for(g: &lalr_grammar::Grammar) -> ParseTable {
    let lr0 = Lr0Automaton::build(g);
    let la = LalrAnalysis::compute(g, &lr0).into_lookaheads();
    build_table(g, &lr0, &la, TableOptions::default())
}

fn expr_tokens(n_terms: usize) -> (ParseTable, Vec<Token>) {
    let table = table_for(&lalr_corpus::by_name("expr").expect("exists").grammar());
    let lexer = Lexer::for_table(&table).number("NUM").build();
    let mut src = String::from("1");
    for i in 0..n_terms {
        let op = if i % 3 == 0 { "*" } else { "+" };
        src.push_str(&format!(" {op} ({i} + 2)"));
    }
    let tokens = lexer.tokenize(&src).expect("valid expression");
    (table, tokens)
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse_throughput");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [100usize, 1000] {
        let (table, tokens) = expr_tokens(n);
        let compressed = CompressedTable::from_dense(&table);
        group.throughput(Throughput::Elements(tokens.len() as u64));
        group.bench_with_input(BenchmarkId::new("dense", n), &tokens, |b, toks| {
            let parser = Parser::new(&table);
            b.iter(|| parser.parse(toks.clone()).expect("parses"))
        });
        let source = CompressedSource::new(&compressed, &table);
        group.bench_with_input(BenchmarkId::new("compressed", n), &tokens, |b, toks| {
            let parser = Parser::new(&source);
            b.iter(|| parser.parse(toks.clone()).expect("parses"))
        });
        let tree = Parser::new(&table).parse(tokens).expect("parses");
        group.bench_with_input(BenchmarkId::new("to_sexpr", n), &tree, |b, tree| {
            b.iter(|| tree.to_sexpr(&table))
        });
    }
    // A right-recursive list nests one level per token.
    let grammar = lalr_grammar::parse_grammar("s : \"a\" s | ;").expect("valid grammar");
    let table = table_for(&grammar);
    let a = table.terminal_by_name("a").expect("declared");
    let tokens = (0..DEEP_TOKENS).map(|i| Token::new(a, "a", i));
    let tree = Parser::new(&table).parse(tokens).expect("parses");
    group.throughput(Throughput::Elements(DEEP_TOKENS as u64));
    group.bench_with_input(
        BenchmarkId::new("to_sexpr_deep", DEEP_TOKENS),
        &tree,
        |b, tree| b.iter(|| tree.to_sexpr(&table)),
    );
    group.finish();
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
