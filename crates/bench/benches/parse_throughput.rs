//! Runtime sanity benchmark: tokens/second through the LR driver, dense
//! vs compressed tables, and through `to_sexpr` on the trees it builds —
//! including one document whose tree is as deep as it is long — plus the
//! service lane's per-document work on c_subset sentences: words through
//! a name map, the parse, and the rendering — and the encoding of a
//! c_subset parse reply by the `Value` encoder and by the direct writer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lalr_automata::Lr0Automaton;
use lalr_core::LalrAnalysis;
use lalr_runtime::{terminal_index, CompressedSource, Lexer, Parser, Token};
use lalr_tables::{build_table, CompressedTable, ParseTable, TableOptions};

/// Tokens of the deep document: one tree level per token.
const DEEP_TOKENS: usize = 100_000;

fn table_for(g: &lalr_grammar::Grammar) -> ParseTable {
    let lr0 = Lr0Automaton::build(g);
    let la = LalrAnalysis::compute(g, &lr0).into_lookaheads();
    build_table(g, &lr0, &la, TableOptions::default())
}

/// An expression of `n_terms` parenthesised terms.
fn expr_source(n_terms: usize) -> String {
    let mut src = String::from("1");
    for i in 0..n_terms {
        let op = if i % 3 == 0 { "*" } else { "+" };
        src.push_str(&format!(" {op} ({i} + 2)"));
    }
    src
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse_throughput");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let table = table_for(&lalr_corpus::by_name("expr").expect("exists").grammar());
    let lexer = Lexer::for_table(&table).number("NUM").build();
    let compressed = CompressedTable::from_dense(&table);
    for n in [100usize, 1000] {
        let src = expr_source(n);
        let tokens = lexer.tokenize(&src).expect("valid expression");
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

    // The parse lane's per-document work, as the service runs it: each
    // word through a name map built once, then the parse, the counts and
    // `to_sexpr`.
    let grammar = lalr_corpus::by_name("c_subset").expect("exists").grammar();
    let table = table_for(&grammar);
    let docs: Vec<String> = lalr_corpus::sentences::generate_many(&grammar, 0xC5B, 32, 200)
        .iter()
        .map(|s| {
            let words: Vec<&str> = s.iter().map(|&t| grammar.terminal_name(t)).collect();
            words.join(" ")
        })
        .collect();
    let words: usize = docs.iter().map(|d| d.split_whitespace().count()).sum();
    group.throughput(Throughput::Elements(words as u64));
    group.bench_with_input(
        BenchmarkId::new("c_subset_lane", docs.len()),
        &docs,
        |b, docs| {
            let names = terminal_index(&table);
            let parser = Parser::new(&table);
            b.iter(|| {
                let mut bytes = 0usize;
                for doc in docs {
                    let tokens: Vec<Token> = doc
                        .split_whitespace()
                        .enumerate()
                        .map(|(i, w)| Token::new(names[w], w, i))
                        .collect();
                    let tree = parser.parse(tokens).expect("generated sentences parse");
                    bytes += tree.to_sexpr(&table).len() + tree.leaf_count() + tree.node_count();
                }
                bytes
            })
        },
    );

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

/// One parse reply of 32 c_subset sentences, encoded as the daemon's
/// `Value` encoder did (`value_line`, the oracle) and by the direct
/// writer (`direct_line`, which consumes its reply, so each iteration
/// pays a clone that `reply_clone` measures alone); per token.
fn bench_reply_encode(c: &mut Criterion) {
    use lalr_service::protocol::{response_into_line, response_to_line};
    use lalr_service::{GrammarFormat, ParseTarget, Request, Service, ServiceConfig};
    let mut group = c.benchmark_group("reply_encode");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let entry = lalr_corpus::by_name("c_subset").expect("exists");
    let grammar = entry.grammar();
    let documents: Vec<String> = lalr_corpus::sentences::generate_many(&grammar, 0xC5B, 32, 200)
        .iter()
        .map(|s| {
            let words: Vec<&str> = s.iter().map(|&t| grammar.terminal_name(t)).collect();
            words.join(" ")
        })
        .collect();
    let words: usize = documents.iter().map(|d| d.split_whitespace().count()).sum();
    let service = Service::new(ServiceConfig::default());
    let reply = service.call(
        Request::Parse {
            target: ParseTarget::Text {
                grammar: entry.source.to_string(),
                format: GrammarFormat::Native,
            },
            documents,
            recover: false,
            sync: Vec::new(),
        },
        None,
    );
    assert!(reply.is_ok(), "{reply:?}");
    group.throughput(Throughput::Elements(words as u64));
    group.bench_function("value_line", |b| b.iter(|| response_to_line(&reply)));
    group.bench_function("direct_line", |b| {
        b.iter(|| response_into_line(reply.clone()))
    });
    group.bench_function("reply_clone", |b| b.iter(|| reply.clone()));
    group.finish();
}

criterion_group!(benches, bench_parse, bench_reply_encode);
criterion_main!(benches);
