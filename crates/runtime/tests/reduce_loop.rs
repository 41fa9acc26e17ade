//! `reduce_loop` against a parser that counts its reductions: a table it
//! clears must never make the parser reduce without end, and the tables
//! it names must be the ones that can.

use lalr_automata::Lr0Automaton;
use lalr_core::LalrAnalysis;
use lalr_corpus::synthetic::{random, RandomConfig};
use lalr_grammar::{parse_grammar, Grammar};
use lalr_runtime::{reduce_loop, Parser, Token};
use lalr_tables::{build_table, Action, ParseTable, TableOptions};

fn table_of(g: &Grammar) -> ParseTable {
    let lr0 = Lr0Automaton::build(g);
    let la = LalrAnalysis::compute(g, &lr0).into_lookaheads();
    build_table(g, &lr0, &la, TableOptions::default())
}

/// How a run of [`run_capped`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Accepted,
    /// Rejected with this many diagnostics.
    Rejected(usize),
    /// More reductions between two shifts than the cap.
    Capped,
}

/// The diagnostics a recovering run stops at.
const MAX_ERRORS: usize = 8;

/// The parser's drivers over states alone, with a cap on the reductions
/// between two shifts: `Parser::parse` when `sync` is `None`, else
/// `Parser::parse_with_recovery` with those sync terminals.
fn run_capped(table: &ParseTable, tokens: &[u32], sync: Option<&[u32]>, cap: usize) -> End {
    let mut stack = vec![0u32];
    let mut at = 0;
    let mut errors = 0;
    let mut since_shift = 0;
    loop {
        let state = *stack.last().expect("never empty");
        let terminal = tokens.get(at).copied().unwrap_or(0);
        match table.action(state, terminal) {
            Action::Shift(next) => {
                at += 1;
                stack.push(next);
                since_shift = 0;
                continue;
            }
            Action::Reduce(prod) => {
                let info = table.production(prod);
                let base = stack
                    .len()
                    .checked_sub(info.rhs_len as usize)
                    .filter(|&base| base > 0)
                    .expect("a reduction pops only what was pushed");
                let Some(next) = table.goto(stack[base - 1], info.lhs) else {
                    return End::Rejected(errors + 1);
                };
                stack.truncate(base);
                stack.push(next);
                since_shift += 1;
                if since_shift > cap {
                    return End::Capped;
                }
                continue;
            }
            Action::Accept if at == tokens.len() => {
                return match errors {
                    0 => End::Accepted,
                    n => End::Rejected(n),
                };
            }
            Action::Accept | Action::Error => {}
        }
        errors += 1;
        let Some(sync) = sync else {
            return End::Rejected(errors);
        };
        if errors >= MAX_ERRORS {
            return End::Rejected(errors);
        }
        // Pop to a state that shifts a sync terminal, then skip input up
        // to a sync token.
        let mut recovered = false;
        while let Some(&s) = stack.last() {
            if sync.iter().any(|&t| table.action(s, t).is_shift()) {
                while let Some(t) = tokens.get(at) {
                    if sync.contains(t) {
                        recovered = true;
                        break;
                    }
                    at += 1;
                }
                break;
            }
            stack.pop();
        }
        if !recovered {
            return End::Rejected(errors);
        }
    }
}

/// What the real driver does with `tokens`, in [`End`]'s terms; only
/// called where [`run_capped`] ended, so it ends too.
fn run_parser(table: &ParseTable, tokens: &[u32], sync: Option<&[u32]>) -> End {
    let parser = Parser::new(table);
    let tokens = tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| Token::new(t, "w", 2 * i));
    match sync {
        None => match parser.parse(tokens) {
            Ok(_) => End::Accepted,
            Err(_) => End::Rejected(1),
        },
        Some(sync) => match parser.parse_with_recovery(tokens, sync, MAX_ERRORS) {
            (Some(_), _) => End::Accepted,
            (None, errors) => End::Rejected(errors.len()),
        },
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

#[test]
fn a_unit_cycle_is_found() {
    // perfbench's random9 has `n6 : n6 ;`; the one-token document `t33`
    // reduces it forever.
    let config = RandomConfig {
        nonterminals: 10,
        terminals: 300,
        productions: 150,
        max_rhs: 4,
        epsilon_prob: 0.1,
    };
    let grammar = random(9, config);
    let table = table_of(&grammar);
    let t33 = table.terminal_by_name("t33").expect("t33");
    assert_eq!(run_capped(&table, &[t33], None, 10_000), End::Capped);
    assert!(reduce_loop(&grammar, &table).is_some());

    // `n : n` listed first wins the reduce/reduce conflict with `s : n`.
    let g = parse_grammar("%start s n : n | \"u\" ; s : n ;").unwrap();
    let table = table_of(&g);
    let u = table.terminal_by_name("u").unwrap();
    assert_eq!(run_capped(&table, &[u], None, 10_000), End::Capped);
    assert!(reduce_loop(&g, &table).is_some());
}

#[test]
fn an_empty_reduction_kept_over_a_shift_is_found() {
    // Cycle-free, but precedence keeps `a : ;` over shifting "b", and the
    // goto on `a` leads back to the same state: the stack grows forever.
    let g =
        parse_grammar("%left \"b\" %left HIGH s : a s \"c\" | \"b\" ; a : %prec HIGH ;").unwrap();
    let table = table_of(&g);
    let b = table.terminal_by_name("b").unwrap();
    assert_eq!(run_capped(&table, &[b], None, 10_000), End::Capped);
    let found = reduce_loop(&g, &table).expect("a loop");
    assert_eq!(found.terminal, b);

    // The same grammar without the precedence keeps the shift, and ends.
    let g = parse_grammar("s : a s \"c\" | \"b\" ; a : ;").unwrap();
    assert_eq!(reduce_loop(&g, &table_of(&g)), None);
}

#[test]
fn a_loop_only_recovery_reaches_is_found() {
    // In GOTO(0, n) the cell on "t" reduces `n : n` (listed before
    // `z : n`), but the plain driver only gets there from "u", whose
    // reduction loses to shifting "t" (`y`). Recovery with sync "v" and
    // "t" resumes there: "u v u t" errs at the second "u", pops back to
    // the state that shifted "v", skips to "t", and reduces forever.
    let g = parse_grammar(
        "%start s0 n : n | \"u\" ; s0 : z \"t\" | w | y ; z : n ; w : n \"v\" ; y : \"u\" \"t\" ;",
    )
    .unwrap();
    let table = table_of(&g);
    let [u, v, t] = ["u", "v", "t"].map(|name| table.terminal_by_name(name).unwrap());
    let doc = [u, v, u, t];
    assert_eq!(run_capped(&table, &doc, None, 10_000), End::Rejected(1));
    assert_eq!(run_capped(&table, &doc, Some(&[v, t]), 10_000), End::Capped);
    let found = reduce_loop(&g, &table).expect("a loop");
    assert_eq!(found.terminal, t);
}

#[test]
fn corpus_tables_have_no_loop() {
    for entry in lalr_corpus::all_entries() {
        let grammar = entry.grammar();
        let table = table_of(&grammar);
        assert_eq!(reduce_loop(&grammar, &table), None, "{}", entry.name);
    }
}

/// Over random grammars with empty productions and resolved conflicts,
/// each document run plainly and with a random sync list: when
/// `reduce_loop` clears a table, no run passes the cap, and when a run
/// does, `reduce_loop` names the table. Every run that ends is checked
/// against the real driver, so the mirror is the parser's.
#[test]
fn cleared_tables_always_end_and_looping_ones_are_named() {
    let mut named = 0;
    let mut looped = 0;
    let mut only_recovery_looped = 0;
    let mut recovered = 0;
    for seed in 0..400u64 {
        let config = RandomConfig {
            nonterminals: 2 + (seed % 5) as usize,
            terminals: 2 + (seed % 3) as usize,
            productions: 4 + (seed % 9) as usize,
            max_rhs: 3,
            epsilon_prob: 0.3,
        };
        let grammar = random(seed, config);
        let table = table_of(&grammar);
        let found = reduce_loop(&grammar, &table);
        named += usize::from(found.is_some());
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let terminals = u64::from(table.terminal_count());
        if terminals < 2 {
            continue;
        }
        let mut loops = (false, false);
        for _ in 0..60 {
            let len = rng.below(9);
            let doc: Vec<u32> = (0..len)
                .map(|_| 1 + rng.below(terminals - 1) as u32)
                .collect();
            let sync: Vec<u32> = (0..1 + rng.below(2))
                .map(|_| 1 + rng.below(terminals - 1) as u32)
                .collect();
            for sync in [None, Some(sync.as_slice())] {
                let end = run_capped(&table, &doc, sync, 2_000);
                if end == End::Capped {
                    assert!(
                        found.is_some(),
                        "seed {seed}: {doc:?} {sync:?} loops unnamed"
                    );
                    if sync.is_some() {
                        loops.1 = true;
                    } else {
                        loops.0 = true;
                    }
                    continue;
                }
                assert_eq!(
                    run_parser(&table, &doc, sync),
                    end,
                    "seed {seed}: {doc:?} {sync:?}"
                );
                recovered +=
                    usize::from(sync.is_some() && matches!(end, End::Rejected(n) if n > 1));
            }
        }
        looped += usize::from(loops.0 || loops.1);
        only_recovery_looped += usize::from(loops.1 && !loops.0);
    }
    // The sample holds both kinds of table, loops that only recovery
    // reaches, and runs that resume after an error and err again.
    assert!(looped > 10, "{looped} looping tables");
    assert!(named >= looped, "{named} named, {looped} looped");
    assert!(only_recovery_looped > 0, "no loop needs recovery");
    assert!(recovered > 100, "{recovered} runs erred after resuming");
}
