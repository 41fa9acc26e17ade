//! Three-way differential over the whole corpus: dense tables, the
//! compressed row-displacement tables, and the service's batched
//! `parse` op must agree verdict-for-verdict and
//! tree-shape-for-tree-shape.
//!
//! Valid sentences come from the seeded derivation generator; invalid
//! (or at least perturbed) documents come from its single-token
//! mutation operator. A mutant is *not* guaranteed out-of-language, so
//! the property compared is agreement, not rejection: whatever one lane
//! decides — accept with this exact tree, or reject at this exact
//! offset with this exact expected set — the other two must decide
//! identically.
//!
//! Restricted to conflict-free grammars: default conflict resolution
//! changes the accepted language, so only there is lane agreement a
//! theorem rather than a coincidence (same convention as
//! `generated_sentences.rs`).

use std::sync::mpsc::RecvTimeoutError;

use lalr::corpus::sentences::{generate_many, mutate_many};
use lalr::grammar::Terminal;
use lalr::prelude::*;
use lalr::runtime::{CompressedSource, ParseTree, Subtree};
use lalr_service::{
    DocVerdict, GrammarFormat, ParseTarget, Request, Response, Service, ServiceConfig,
};

/// Dense table for `grammar`, or `None` when it has LALR(1) conflicts.
fn conflict_free_table(grammar: &Grammar) -> Option<ParseTable> {
    let lr0 = Lr0Automaton::build(grammar);
    let analysis = LalrAnalysis::compute(grammar, &lr0);
    if !analysis.conflicts(grammar, &lr0).is_empty() {
        return None;
    }
    Some(build_table(
        grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    ))
}

/// Service-convention tokens: text = terminal name, offset = token
/// index. Identical to what the daemon's lane does with the document.
fn tokens_for<'g>(sentence: &[Terminal], grammar: &'g Grammar) -> Vec<Token<'g>> {
    sentence
        .iter()
        .enumerate()
        .map(|(i, &t)| Token::new(t.index() as u32, grammar.terminal_name(t), i))
        .collect()
}

/// The same sentence as a service document: space-separated names.
fn doc_for(sentence: &[Terminal], grammar: &Grammar) -> String {
    sentence
        .iter()
        .map(|&t| grammar.terminal_name(t))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The recursive renderer `ParseTree::to_sexpr` used to be, which
/// rebuilds every subtree's text at each ancestor: the byte-identity
/// reference for the one-pass renderer.
fn reference_sexpr(tree: &ParseTree, table: &ParseTable) -> String {
    render_subtree(tree.root(), table)
}

fn render_subtree(tree: Subtree<'_, '_>, table: &ParseTable) -> String {
    match tree {
        Subtree::Leaf(t) => t.text().to_string(),
        Subtree::Node(node) => {
            let name = table.nonterminal_name(node.nonterminal());
            if node.children().len() == 0 {
                format!("({name})")
            } else {
                let inner: Vec<String> =
                    node.children().map(|c| render_subtree(c, table)).collect();
                format!("({} {})", name, inner.join(" "))
            }
        }
    }
}

/// One batched parse call; panics on a non-parse response.
fn call_parse(service: &Service, grammar: &str, documents: &[String]) -> Vec<DocVerdict> {
    let response = service.call(
        Request::Parse {
            target: ParseTarget::Text {
                grammar: grammar.to_string(),
                format: GrammarFormat::Native,
            },
            documents: documents.to_vec(),
            recover: false,
            sync: Vec::new(),
        },
        None,
    );
    match response {
        Response::Parse(summary) => summary.docs,
        other => panic!("parse request failed: {other:?}"),
    }
}

/// Asserts one document decides identically on all three lanes.
fn check_document(
    name: &str,
    grammar: &Grammar,
    table: &ParseTable,
    source: &CompressedSource<'_>,
    sentence: &[Terminal],
    verdict: &DocVerdict,
) {
    let toks = tokens_for(sentence, grammar);
    let dense = Parser::new(table).parse(toks.clone());
    let compressed = Parser::new(source).parse(toks);
    match (&dense, &compressed) {
        (Ok(d), Ok(c)) => {
            let sexpr = d.to_sexpr(table);
            assert_eq!(sexpr, c.to_sexpr(table), "{name}: tree shape diverged");
            assert_eq!(d.leaf_count(), c.leaf_count(), "{name}");
            assert_eq!(d.node_count(), c.node_count(), "{name}");
            assert!(verdict.accepted, "{name}: service rejected a valid doc");
            assert_eq!(verdict.leaves, d.leaf_count() as u64, "{name}");
            assert_eq!(verdict.nodes, d.node_count() as u64, "{name}");
            assert_eq!(verdict.tree.as_deref(), Some(sexpr.as_str()), "{name}");
        }
        (Err(d), Err(c)) => {
            // Dense vs compressed: same position and offending token.
            // The expected *set* may differ — default reductions land
            // the compressed driver in a different state before it
            // detects the error on the same lookahead.
            assert_eq!(d.offset, c.offset, "{name}: error position diverged");
            assert_eq!(
                d.found.as_ref().map(|t| t.text()),
                c.found.as_ref().map(|t| t.text()),
                "{name}"
            );
            assert!(!verdict.accepted, "{name}: service accepted a bad doc");
            let err = verdict.error.as_ref().expect("rejected verdict has error");
            assert_eq!(err.offset, d.offset as u64, "{name}: service offset");
            assert_eq!(err.expected, d.expected, "{name}: service expected set");
            assert_eq!(
                err.found.as_deref(),
                d.found.as_ref().map(|t| t.text()),
                "{name}"
            );
        }
        other => panic!("{name}: dense/compressed verdicts diverged: {other:?}"),
    }
}

#[test]
fn valid_sentences_parse_identically_on_all_three_lanes() {
    let service = Service::new(ServiceConfig::default());
    let mut checked = 0;
    for entry in lalr::corpus::all_entries() {
        let grammar = entry.grammar();
        let Some(table) = conflict_free_table(&grammar) else {
            continue;
        };
        let compressed = CompressedTable::from_dense(&table);
        let source = CompressedSource::new(&compressed, &table);
        let sentences = generate_many(&grammar, 0xD1FF, 24, 30);
        if sentences.is_empty() {
            continue;
        }
        let docs: Vec<String> = sentences.iter().map(|s| doc_for(s, &grammar)).collect();
        let verdicts = call_parse(&service, entry.source, &docs);
        assert_eq!(verdicts.len(), docs.len(), "{}: batch length", entry.name);
        for (sentence, verdict) in sentences.iter().zip(&verdicts) {
            check_document(entry.name, &grammar, &table, &source, sentence, verdict);
            assert!(
                verdict.accepted,
                "{}: generated sentence rejected: {verdict:?}",
                entry.name
            );
        }
        checked += 1;
    }
    assert!(checked >= 5, "too few conflict-free grammars: {checked}");
}

#[test]
fn mutated_sentences_decide_identically_on_all_three_lanes() {
    let service = Service::new(ServiceConfig::default());
    let mut rejected_somewhere = 0usize;
    for entry in lalr::corpus::all_entries() {
        let grammar = entry.grammar();
        let Some(table) = conflict_free_table(&grammar) else {
            continue;
        };
        let compressed = CompressedTable::from_dense(&table);
        let source = CompressedSource::new(&compressed, &table);
        let sentences = generate_many(&grammar, 0xD1FF, 12, 30);
        let pairs = mutate_many(&grammar, &sentences, 0xBAD5EED, 24);
        if pairs.is_empty() {
            continue;
        }
        let docs: Vec<String> = pairs.iter().map(|(_, m)| doc_for(m, &grammar)).collect();
        let verdicts = call_parse(&service, entry.source, &docs);
        for ((_, mutant), verdict) in pairs.iter().zip(&verdicts) {
            check_document(entry.name, &grammar, &table, &source, mutant, verdict);
            if !verdict.accepted {
                rejected_somewhere += 1;
            }
        }
    }
    // Mutation is not guaranteed to leave the language, but corpus-wide
    // it overwhelmingly does; a harness where nothing ever gets rejected
    // would be vacuous.
    assert!(
        rejected_somewhere >= 20,
        "mutation harness is vacuous: only {rejected_somewhere} rejections"
    );
}

#[test]
fn fingerprint_target_replays_the_batch_from_the_cache() {
    let service = Service::new(ServiceConfig::default());
    let entry = lalr::corpus::by_name("expr").expect("expr in corpus");
    let grammar = entry.grammar();
    let sentences = generate_many(&grammar, 0xFEED, 8, 30);
    let docs: Vec<String> = sentences.iter().map(|s| doc_for(s, &grammar)).collect();

    let by_text = match service.call(
        Request::Parse {
            target: ParseTarget::Text {
                grammar: entry.source.to_string(),
                format: GrammarFormat::Native,
            },
            documents: docs.clone(),
            recover: false,
            sync: Vec::new(),
        },
        None,
    ) {
        Response::Parse(summary) => summary,
        other => panic!("{other:?}"),
    };

    let fp = lalr_service::fingerprint::parse_fingerprint(&by_text.fingerprint)
        .expect("well-formed fingerprint");
    let by_fp = match service.call(
        Request::Parse {
            target: ParseTarget::Fingerprint(fp),
            documents: docs,
            recover: false,
            sync: Vec::new(),
        },
        None,
    ) {
        Response::Parse(summary) => summary,
        other => panic!("{other:?}"),
    };

    assert!(
        by_fp.cached,
        "fingerprint target is a cache hit by definition"
    );
    assert_eq!(by_fp.fingerprint, by_text.fingerprint);
    assert_eq!(
        by_fp.docs, by_text.docs,
        "verdicts must not depend on the target form"
    );

    let stats = service.stats();
    assert_eq!(stats.parse.batches, 2);
    assert_eq!(
        stats.parse.resolutions, 2,
        "exactly one artifact resolution per batch"
    );
    assert_eq!(stats.parse.documents, 2 * by_text.docs.len() as u64);
}

#[test]
fn rendering_matches_the_recursive_reference_on_short_and_long_sentences() {
    let service = Service::new(ServiceConfig::default());
    let (mut accepted, mut longest) = (0usize, 0usize);
    for entry in lalr::corpus::all_entries() {
        let grammar = entry.grammar();
        let Some(table) = conflict_free_table(&grammar) else {
            continue;
        };
        let compressed = CompressedTable::from_dense(&table);
        let source = CompressedSource::new(&compressed, &table);
        for budget in [30, 1_500] {
            let mut documents = generate_many(&grammar, 0x5E4D, 16, budget);
            let mutants = mutate_many(&grammar, &documents, 0xBAD5EED, 16);
            documents.extend(mutants.into_iter().map(|(_, m)| m));
            let docs: Vec<String> = documents.iter().map(|s| doc_for(s, &grammar)).collect();
            let verdicts = call_parse(&service, entry.source, &docs);
            for (sentence, verdict) in documents.iter().zip(&verdicts) {
                check_document(entry.name, &grammar, &table, &source, sentence, verdict);
                let Ok(tree) = Parser::new(&table).parse(tokens_for(sentence, &grammar)) else {
                    continue;
                };
                let reference = reference_sexpr(&tree, &table);
                assert_eq!(tree.to_sexpr(&table), reference, "{}", entry.name);
                assert_eq!(verdict.tree.as_deref(), Some(reference.as_str()));
                accepted += 1;
                longest = longest.max(sentence.len());
            }
        }
    }
    assert!(accepted >= 200, "too few accepted documents: {accepted}");
    assert!(
        longest > 1_000,
        "budget 1500 yields long documents: {longest}"
    );
}

#[test]
fn recovered_trees_render_like_the_recursive_reference() {
    // yacc's statement-level pattern. After `error` is shifted only `;`
    // or the end of input is actionable, so recovery always resumes by
    // consuming input and terminates on every mutant.
    let src = "stmts : stmt | stmts \";\" stmt ; stmt : ID \"=\" NUM | error ;";
    let grammar = parse_grammar(src).expect("valid grammar");
    let table = conflict_free_table(&grammar).expect("conflict-free");
    let error = table.terminal_by_name("error").expect("declared");
    let mut recovered = 0usize;
    for budget in [30, 200] {
        let sentences = generate_many(&grammar, 0xE770, 40, budget);
        for (_, mutant) in mutate_many(&grammar, &sentences, 0xBAD5EED, 200) {
            let toks = tokens_for(&mutant, &grammar);
            let (tree, _) = Parser::new(&table).parse_with_error_token(toks, error, 8);
            let Some(tree) = tree else { continue };
            let sexpr = tree.to_sexpr(&table);
            assert_eq!(sexpr, reference_sexpr(&tree, &table));
            if sexpr.contains("<error>") {
                recovered += 1;
            }
        }
    }
    assert!(
        recovered >= 300,
        "too few trees with <error> leaves: {recovered}"
    );
}

#[test]
fn error_recovery_terminates_on_every_mutant() {
    // yacc's statement pattern with `;` inside both alternatives: after
    // `error` is shifted only `;` is actionable, so a token that errors
    // again before anything is shifted must be dropped (byacc's rule),
    // not answered by re-shifting `error` in place forever.
    let src = "stmts : stmt | stmts stmt ; stmt : ID \"=\" NUM \";\" | error \";\" ;";
    let grammar = parse_grammar(src).expect("valid grammar");
    let table = conflict_free_table(&grammar).expect("conflict-free");
    let error = table.terminal_by_name("error").expect("declared");
    let semi = table.terminal_by_name(";").expect("declared");
    let mut mutants = Vec::new();
    for (seed, budget) in [(0xE770, 30), (0x5EED, 200)] {
        let sentences = generate_many(&grammar, seed, 40, budget);
        for (_, mutant) in mutate_many(&grammar, &sentences, 0xBAD5EED ^ seed, 400) {
            // Owned text: the tokens move to the helper thread below.
            let toks: Vec<Token<'static>> = tokens_for(&mutant, &grammar)
                .into_iter()
                .map(Token::into_owned)
                .collect();
            mutants.push(toks);
        }
    }
    assert_eq!(mutants.len(), 800);

    // A parse that never returns would hang the suite: run them on a
    // helper thread and fail on a deadline instead.
    let (done, outcomes) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let parser = Parser::new(&table);
        for toks in mutants {
            let plain = parser.parse(toks.clone()).err().map(|e| e.offset);
            let with_error = parser.parse_with_error_token(toks.clone(), error, 8);
            let with_sync = parser.parse_with_recovery(toks, &[semi], 8);
            if done.send((plain, with_error, with_sync)).is_err() {
                return;
            }
        }
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut recovered = 0usize;
    for i in 0..800 {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        let (plain, (tree, errors), (sync_tree, sync_errors)) = match outcomes.recv_timeout(left) {
            Ok(outcome) => outcome,
            Err(RecvTimeoutError::Timeout) => {
                panic!("mutant {i}: a recovering parse did not terminate within 30 s")
            }
            // The helper panicked: surface its panic.
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(helper.join().expect_err("helper stopped early"))
            }
        };
        // Both recovering parsers report the plain parser's first error
        // (and nothing on accepted input).
        assert_eq!(errors.first().map(|e| e.offset), plain, "mutant {i}");
        assert_eq!(sync_errors.first().map(|e| e.offset), plain, "mutant {i}");
        if plain.is_none() {
            assert!(tree.is_some() && sync_tree.is_some(), "mutant {i}");
        } else if tree.is_some() {
            recovered += 1;
        }
    }
    helper.join().expect("helper finished");
    assert!(recovered >= 600, "too few recovered parses: {recovered}");
}
