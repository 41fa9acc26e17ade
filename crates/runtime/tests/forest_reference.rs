//! The flat forest against the tree it replaced.
//!
//! `reference` below is the runtime as it was before the forest: a
//! recursive `ParseTree` enum and three copied driver loops (plain,
//! panic-mode recovery, `error`-token recovery), with recursive walks. For
//! every input, dense and compressed, all three drivers must give the same
//! rendering, counts, height, leaves, reverse rightmost derivation and
//! diagnostics (every `ParseError` field) as their reference loop.
//!
//! Inputs never contain the end marker `$`: the reference accepts a
//! document at a `$` token and drops the rest, which the forest driver
//! reports as an error (`an_end_marker_token_does_not_end_the_input_early`).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use lalr_automata::Lr0Automaton;
use lalr_core::LalrAnalysis;
use lalr_corpus::sentences::{generate_many, mutate_many};
use lalr_corpus::synthetic::{random, RandomConfig};
use lalr_grammar::{parse_grammar, Grammar, Terminal};
use lalr_runtime::{ActionSource, CompressedSource, ParseError, ParseTree, Parser, Token};
use lalr_tables::{build_table, CompressedTable, ParseTable, TableOptions};

/// The runtime's tree and drivers before the flat forest, kept as the
/// oracle the forest is compared with.
mod reference {
    use lalr_runtime::{ActionSource, ParseError, Token};
    use lalr_tables::{Action, ParseTable};

    /// The recursive tree: interior nodes are reductions, leaves tokens.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ParseTree<'a> {
        Node {
            nonterminal: u32,
            production: u32,
            children: Vec<ParseTree<'a>>,
        },
        Leaf(Token<'a>),
    }

    impl<'a> ParseTree<'a> {
        pub fn leaf_count(&self) -> usize {
            match self {
                ParseTree::Leaf(_) => 1,
                ParseTree::Node { children, .. } => children.iter().map(Self::leaf_count).sum(),
            }
        }

        pub fn node_count(&self) -> usize {
            match self {
                ParseTree::Leaf(_) => 0,
                ParseTree::Node { children, .. } => {
                    1 + children.iter().map(Self::node_count).sum::<usize>()
                }
            }
        }

        pub fn height(&self) -> usize {
            match self {
                ParseTree::Leaf(_) => 0,
                ParseTree::Node { children, .. } => {
                    1 + children.iter().map(Self::height).max().unwrap_or(0)
                }
            }
        }

        pub fn leaves(&self) -> Vec<&Token<'a>> {
            match self {
                ParseTree::Leaf(t) => vec![t],
                ParseTree::Node { children, .. } => {
                    children.iter().flat_map(|c| c.leaves()).collect()
                }
            }
        }

        pub fn reverse_rightmost_derivation(&self) -> Vec<u32> {
            match self {
                ParseTree::Leaf(_) => Vec::new(),
                ParseTree::Node {
                    production,
                    children,
                    ..
                } => {
                    let mut out: Vec<u32> = children
                        .iter()
                        .flat_map(|c| c.reverse_rightmost_derivation())
                        .collect();
                    out.push(*production);
                    out
                }
            }
        }

        pub fn to_sexpr(&self, table: &ParseTable) -> String {
            match self {
                ParseTree::Leaf(t) => t.text().to_string(),
                ParseTree::Node {
                    nonterminal,
                    children,
                    ..
                } => {
                    let name = table.nonterminal_name(*nonterminal);
                    if children.is_empty() {
                        format!("({name})")
                    } else {
                        let inner: Vec<String> =
                            children.iter().map(|c| c.to_sexpr(table)).collect();
                        format!("({} {})", name, inner.join(" "))
                    }
                }
            }
        }
    }

    pub struct Parser<'t, S: ActionSource> {
        table: &'t S,
    }

    impl<'t, S: ActionSource> Parser<'t, S> {
        pub fn new(table: &'t S) -> Self {
            Parser { table }
        }

        pub fn parse<'a, I>(&self, tokens: I) -> Result<ParseTree<'a>, ParseError>
        where
            I: IntoIterator<Item = Token<'a>>,
        {
            let mut states: Vec<u32> = vec![0];
            let mut forest: Vec<ParseTree> = Vec::new();
            let mut input = tokens.into_iter().peekable();
            let mut end = 0usize; // one past the last consumed token

            loop {
                let state = *states.last().expect("stack never empties");
                let terminal = input.peek().map_or(0, Token::terminal); // $ is terminal 0
                match self.table.action(state, terminal) {
                    Action::Shift(next) => {
                        let tok = input.next().expect("shift only on real tokens");
                        end = tok.offset() + tok.text().len();
                        forest.push(ParseTree::Leaf(tok));
                        states.push(next);
                    }
                    Action::Reduce(prod) => {
                        let info = self.table.production(prod);
                        let n = info.rhs_len as usize;
                        let children = forest.split_off(forest.len() - n);
                        for _ in 0..n {
                            states.pop();
                        }
                        let top = *states.last().expect("stack never empties");
                        let Some(next) = self.table.goto(top, info.lhs) else {
                            return Err(self.error(top, input.peek().cloned(), end));
                        };
                        forest.push(ParseTree::Node {
                            nonterminal: info.lhs,
                            production: prod,
                            children,
                        });
                        states.push(next);
                    }
                    Action::Accept => {
                        let tree = forest.pop().expect("accept implies a full tree");
                        return Ok(tree);
                    }
                    Action::Error => {
                        return Err(self.error(state, input.peek().cloned(), end));
                    }
                }
            }
        }

        fn error(&self, state: u32, found: Option<Token>, end: usize) -> ParseError {
            let offset = found.as_ref().map_or(end, Token::offset);
            ParseError {
                state,
                found: found.map(Token::into_owned),
                expected: self.table.expected(state),
                offset,
            }
        }

        pub fn parse_with_error_token<'a, I>(
            &self,
            tokens: I,
            error_terminal: u32,
            max_errors: usize,
        ) -> (Option<ParseTree<'a>>, Vec<ParseError>)
        where
            I: IntoIterator<Item = Token<'a>>,
        {
            let mut errors = Vec::new();
            let mut states: Vec<u32> = vec![0];
            let mut forest: Vec<ParseTree> = Vec::new();
            let mut input = tokens.into_iter().peekable();
            let mut clean_shifts = 3usize; // suppression counter
            let mut end = 0usize;

            loop {
                let state = *states.last().expect("stack never empties");
                let terminal = input.peek().map_or(0, Token::terminal);
                match self.table.action(state, terminal) {
                    Action::Shift(next) => {
                        let tok = input.next().expect("shift only on real tokens");
                        end = tok.offset() + tok.text().len();
                        forest.push(ParseTree::Leaf(tok));
                        states.push(next);
                        clean_shifts += 1;
                    }
                    Action::Reduce(prod) => {
                        let info = self.table.production(prod);
                        let n = info.rhs_len as usize;
                        let children = forest.split_off(forest.len() - n);
                        states.truncate(states.len() - n);
                        let top = *states.last().expect("stack never empties");
                        match self.table.goto(top, info.lhs) {
                            Some(next) => {
                                forest.push(ParseTree::Node {
                                    nonterminal: info.lhs,
                                    production: prod,
                                    children,
                                });
                                states.push(next);
                            }
                            None => {
                                errors.push(self.error(top, input.peek().cloned(), end));
                                return (None, errors);
                            }
                        }
                    }
                    Action::Accept => {
                        let tree = forest.pop().expect("accept implies a full tree");
                        return (Some(tree), errors);
                    }
                    Action::Error => {
                        if clean_shifts == 0 {
                            let Some(skipped) = input.next() else {
                                return (None, errors);
                            };
                            end = skipped.offset() + skipped.text().len();
                            continue;
                        }
                        if clean_shifts >= 3 {
                            errors.push(self.error(state, input.peek().cloned(), end));
                        }
                        if errors.len() >= max_errors {
                            return (None, errors);
                        }
                        clean_shifts = 0;
                        loop {
                            let Some(&s) = states.last() else {
                                return (None, errors);
                            };
                            if let Action::Shift(next) = self.table.action(s, error_terminal) {
                                let offset = input.peek().map(Token::offset).unwrap_or(usize::MAX);
                                forest.push(ParseTree::Leaf(Token::new(
                                    error_terminal,
                                    "<error>",
                                    offset,
                                )));
                                states.push(next);
                                break;
                            }
                            states.pop();
                            forest.pop();
                        }
                        let s = *states.last().expect("just pushed");
                        loop {
                            match input.peek() {
                                None => break,
                                Some(t) if !self.table.action(s, t.terminal()).is_error() => {
                                    break;
                                }
                                Some(_) => {
                                    let skipped = input.next().expect("peeked");
                                    end = skipped.offset() + skipped.text().len();
                                }
                            }
                        }
                    }
                }
            }
        }

        pub fn parse_with_recovery<'a, I>(
            &self,
            tokens: I,
            sync: &[u32],
            max_errors: usize,
        ) -> (Option<ParseTree<'a>>, Vec<ParseError>)
        where
            I: IntoIterator<Item = Token<'a>>,
        {
            let mut errors = Vec::new();
            let mut states: Vec<u32> = vec![0];
            let mut forest: Vec<ParseTree> = Vec::new();
            let mut input = tokens.into_iter().peekable();
            let mut end = 0usize;

            loop {
                let state = *states.last().expect("stack never empties");
                let terminal = input.peek().map_or(0, Token::terminal);
                match self.table.action(state, terminal) {
                    Action::Shift(next) => {
                        let tok = input.next().expect("shift only on real tokens");
                        end = tok.offset() + tok.text().len();
                        forest.push(ParseTree::Leaf(tok));
                        states.push(next);
                    }
                    Action::Reduce(prod) => {
                        let info = self.table.production(prod);
                        let n = info.rhs_len as usize;
                        let children = forest.split_off(forest.len() - n);
                        states.truncate(states.len() - n);
                        let top = *states.last().expect("stack never empties");
                        match self.table.goto(top, info.lhs) {
                            Some(next) => {
                                forest.push(ParseTree::Node {
                                    nonterminal: info.lhs,
                                    production: prod,
                                    children,
                                });
                                states.push(next);
                            }
                            None => {
                                errors.push(self.error(top, input.peek().cloned(), end));
                                return (None, errors);
                            }
                        }
                    }
                    Action::Accept => {
                        let tree = forest.pop().expect("accept implies a full tree");
                        let ok = errors.is_empty();
                        return (ok.then_some(tree), errors);
                    }
                    Action::Error => {
                        errors.push(self.error(state, input.peek().cloned(), end));
                        if errors.len() >= max_errors {
                            return (None, errors);
                        }
                        let mut recovered = false;
                        'recover: while !states.is_empty() {
                            let s = *states.last().expect("checked non-empty");
                            for &sync_t in sync {
                                if self.table.action(s, sync_t).is_shift() {
                                    while let Some(t) = input.peek() {
                                        if sync.contains(&t.terminal()) {
                                            recovered = true;
                                            break 'recover;
                                        }
                                        let skipped = input.next().expect("peeked");
                                        end = skipped.offset() + skipped.text().len();
                                    }
                                    break 'recover;
                                }
                            }
                            states.pop();
                            forest.pop();
                        }
                        if !recovered || states.is_empty() {
                            return (None, errors);
                        }
                    }
                }
            }
        }
    }
}

fn table_for(grammar: &Grammar) -> ParseTable {
    let lr0 = Lr0Automaton::build(grammar);
    let la = LalrAnalysis::compute(grammar, &lr0).into_lookaheads();
    build_table(grammar, &lr0, &la, TableOptions::default())
}

fn conflict_free(grammar: &Grammar) -> bool {
    let lr0 = Lr0Automaton::build(grammar);
    LalrAnalysis::compute(grammar, &lr0)
        .conflicts(grammar, &lr0)
        .is_empty()
}

/// Service-convention tokens: text = terminal name, offset = token index.
fn tokens_for<'g>(sentence: &[Terminal], grammar: &'g Grammar) -> Vec<Token<'g>> {
    sentence
        .iter()
        .enumerate()
        .map(|(i, &t)| Token::new(t.index() as u32, grammar.terminal_name(t), i))
        .collect()
}

/// Generated sentences of two lengths, then mutants of them.
fn documents(grammar: &Grammar, seed: u64, count: usize) -> Vec<Vec<Terminal>> {
    let mut docs = generate_many(grammar, seed, count, 30);
    docs.extend(generate_many(grammar, seed ^ 0x5A5A, count / 2, 300));
    let mutants = mutate_many(grammar, &docs, seed ^ 0xBAD5EED, 2 * count);
    docs.extend(mutants.into_iter().map(|(_, m)| m));
    docs
}

/// Which terminals the recovering drivers use on a grammar: its `error`
/// terminal, or else its first real terminal; its `;`, if any, plus that
/// first terminal as sync tokens.
fn recovery_terminals(table: &ParseTable) -> (u32, Vec<u32>) {
    let error = table.terminal_by_name("error").unwrap_or(1);
    let mut sync = vec![1];
    sync.extend(table.terminal_by_name(";"));
    (error, sync)
}

fn same_tree(what: &str, names: &ParseTable, forest: &ParseTree, old: &reference::ParseTree) {
    assert_eq!(
        forest.to_sexpr(names),
        old.to_sexpr(names),
        "{what}: to_sexpr"
    );
    assert_eq!(forest.leaf_count(), old.leaf_count(), "{what}: leaf_count");
    assert_eq!(forest.node_count(), old.node_count(), "{what}: node_count");
    assert_eq!(forest.height(), old.height(), "{what}: height");
    assert_eq!(forest.leaves(), old.leaves(), "{what}: leaves");
    assert_eq!(
        forest.reverse_rightmost_derivation(),
        old.reverse_rightmost_derivation(),
        "{what}: derivation"
    );
}

fn same_outcome(
    what: &str,
    names: &ParseTable,
    forest: (Option<ParseTree>, Vec<ParseError>),
    old: (Option<reference::ParseTree>, Vec<ParseError>),
) {
    assert_eq!(forest.1, old.1, "{what}: diagnostics");
    match (&forest.0, &old.0) {
        (Some(f), Some(o)) => same_tree(what, names, f, o),
        (None, None) => {}
        other => panic!("{what}: one driver built a tree: {other:?}"),
    }
}

/// All three drivers against their reference loops on one input.
fn check<S: ActionSource>(
    what: &str,
    names: &ParseTable,
    source: &S,
    toks: &[Token],
    (error, sync): (u32, &[u32]),
) {
    let forest = Parser::new(source);
    let old = reference::Parser::new(source);
    match (forest.parse(toks.to_vec()), old.parse(toks.to_vec())) {
        (Ok(f), Ok(o)) => same_tree(what, names, &f, &o),
        (Err(f), Err(o)) => assert_eq!(f, o, "{what}: parse error"),
        other => panic!("{what}: verdicts diverged: {other:?}"),
    }
    same_outcome(
        &format!("{what} (panic mode)"),
        names,
        forest.parse_with_recovery(toks.to_vec(), sync, 8),
        old.parse_with_recovery(toks.to_vec(), sync, 8),
    );
    same_outcome(
        &format!("{what} (error token)"),
        names,
        forest.parse_with_error_token(toks.to_vec(), error, 8),
        old.parse_with_error_token(toks.to_vec(), error, 8),
    );
}

/// Every driver on every document, over the dense and the compressed
/// table; returns how many documents the plain driver accepted.
fn check_grammar(name: &str, grammar: &Grammar, docs: &[Vec<Terminal>]) -> usize {
    let table = table_for(grammar);
    let compressed = CompressedTable::from_dense(&table);
    let source = CompressedSource::new(&compressed, &table);
    let (error, sync) = recovery_terminals(&table);
    let mut accepted = 0;
    for (i, doc) in docs.iter().enumerate() {
        let toks = tokens_for(doc, grammar);
        let what = format!("{name} doc {i}");
        check(&what, &table, &table, &toks, (error, &sync));
        check(
            &format!("{what} compressed"),
            &table,
            &source,
            &toks,
            (error, &sync),
        );
        accepted += usize::from(Parser::new(&table).parse(toks).is_ok());
    }
    accepted
}

#[test]
fn corpus_documents_match_the_recursive_reference() {
    let (mut docs, mut accepted) = (0, 0);
    for entry in lalr_corpus::all_entries() {
        let grammar = entry.grammar();
        let inputs = documents(&grammar, 0xF0E5, 12);
        accepted += check_grammar(entry.name, &grammar, &inputs);
        docs += inputs.len();
    }
    assert!(docs >= 500, "too few corpus documents: {docs}");
    assert!(accepted >= 200, "too few accepted documents: {accepted}");
}

#[test]
fn recovery_mutants_match_the_recursive_reference() {
    // The 800 mutants of `error_recovery_terminates_on_every_mutant`.
    let src = "stmts : stmt | stmts stmt ; stmt : ID \"=\" NUM \";\" | error \";\" ;";
    let grammar = parse_grammar(src).expect("valid grammar");
    let mut mutants = Vec::new();
    for (seed, budget) in [(0xE770, 30), (0x5EED, 200)] {
        let sentences = generate_many(&grammar, seed, 40, budget);
        for (_, mutant) in mutate_many(&grammar, &sentences, 0xBAD5EED ^ seed, 400) {
            mutants.push(mutant);
        }
    }
    assert_eq!(mutants.len(), 800);
    check_grammar("stmts", &grammar, &mutants);

    // Not vacuous: most mutants recover to a tree with `error` leaves.
    let table = table_for(&grammar);
    let error = table.terminal_by_name("error").expect("declared");
    let recovered = mutants
        .iter()
        .filter_map(|m| {
            let toks = tokens_for(m, &grammar);
            Parser::new(&table).parse_with_error_token(toks, error, 8).0
        })
        .filter(|tree| tree.to_sexpr(&table).contains("<error>"))
        .count();
    assert!(recovered >= 300, "too few recovered trees: {recovered}");
}

/// Conflict-free random grammars. A conflict-resolved table of a cyclic
/// grammar can reduce forever without reading input, which no recovery
/// rule addresses, so only conflict-free grammars are drawn.
fn conflict_free_random(count: usize) -> impl Iterator<Item = (u64, Grammar)> {
    let small = RandomConfig {
        nonterminals: 4,
        terminals: 4,
        productions: 8,
        max_rhs: 3,
        epsilon_prob: 0.1,
    };
    (0..20_000u64)
        .map(move |seed| {
            let config = if seed % 2 == 0 {
                small
            } else {
                RandomConfig::default()
            };
            (seed, random(seed, config))
        })
        .filter(|(_, g)| conflict_free(g) && !generate_many(g, 1, 1, 30).is_empty())
        .take(count)
}

/// Runs `work` on a helper thread that sends one message per finished
/// unit, and fails when a unit does not arrive before `deadline` or the
/// helper panics. Returns the units received.
fn under_deadline(
    deadline: Duration,
    work: impl FnOnce(mpsc::Sender<u64>) + Send + 'static,
) -> Vec<u64> {
    let (done, finished) = mpsc::channel();
    let helper = std::thread::spawn(move || work(done));
    let deadline = Instant::now() + deadline;
    let mut units = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match finished.recv_timeout(left) {
            Ok(unit) => units.push(unit),
            Err(RecvTimeoutError::Timeout) => {
                panic!("unit after {units:?} did not finish before the deadline")
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if let Err(panic) = helper.join() {
        std::panic::resume_unwind(panic);
    }
    units
}

#[test]
fn random_grammars_match_the_recursive_reference() {
    let grammars = under_deadline(Duration::from_secs(120), |done| {
        for (seed, grammar) in conflict_free_random(40) {
            check_grammar(
                &format!("random{seed}"),
                &grammar,
                &documents(&grammar, seed, 6),
            );
            if done.send(seed).is_err() {
                return;
            }
        }
    });
    assert_eq!(grammars.len(), 40);
}

#[test]
fn both_recovering_drivers_terminate_on_random_grammar_mutants() {
    let grammars = under_deadline(Duration::from_secs(120), |done| {
        for (seed, grammar) in conflict_free_random(120) {
            let table = table_for(&grammar);
            let (error, sync) = recovery_terminals(&table);
            let parser = Parser::new(&table);
            let sentences = generate_many(&grammar, seed, 8, 60);
            for (_, mutant) in mutate_many(&grammar, &sentences, seed ^ 0xBAD5EED, 24) {
                let toks = tokens_for(&mutant, &grammar);
                let plain = parser.parse(toks.clone()).err().map(|e| e.offset);
                let (tree, errors) = parser.parse_with_error_token(toks.clone(), error, 8);
                let (sync_tree, sync_errors) = parser.parse_with_recovery(toks, &sync, 8);
                // Both report the plain parser's first error, and nothing
                // (with a tree) on accepted input.
                assert_eq!(errors.first().map(|e| e.offset), plain, "random{seed}");
                assert_eq!(sync_errors.first().map(|e| e.offset), plain, "random{seed}");
                if plain.is_none() {
                    assert!(tree.is_some() && sync_tree.is_some(), "random{seed}");
                }
            }
            if done.send(seed).is_err() {
                return;
            }
        }
    });
    assert!(
        grammars.len() >= 100,
        "too few random grammars: {}",
        grammars.len()
    );
}
