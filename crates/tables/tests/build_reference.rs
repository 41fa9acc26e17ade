//! The word-at-a-time table builder against a per-bit reference.
//!
//! `reference_build` below is the table build as it was before rows
//! were filled a machine word at a time: every look-ahead bit of every
//! reduction goes through the conflict rules, and every decision is
//! logged. `build_table` must produce the same ACTION, GOTO, production
//! and name arrays, a `resolution_count` equal to the log's length, and
//! `resolutions` must return the log itself, entry for entry — under
//! both `TableOptions` values, on the corpus, the synthetic families and
//! seeded random grammars with and without precedence declarations.
//!
//! The inputs are also checked to reach the cases the word-at-a-time
//! builder treats specially: every `ResolutionReason`, a cell that an
//! error decision empties and a later reduction retakes, and an
//! `Accept` cell that a later reduction's look-ahead meets.

use std::collections::HashSet;

use lalr_automata::Lr0Automaton;
use lalr_core::{LalrAnalysis, LookaheadSets};
use lalr_corpus::synthetic::{self, RandomConfig};
use lalr_grammar::{
    parse_grammar, Assoc, Grammar, GrammarBuilder, Precedence, ProdId, Symbol, Terminal,
};
use lalr_tables::{
    build_table, resolutions, Action, ProductionInfo, Resolution, ResolutionReason, TableOptions,
};

const NO_GOTO: u32 = u32::MAX;

/// What the reference build produced, plus which special cases it met.
struct Reference {
    actions: Vec<Action>,
    gotos: Vec<u32>,
    productions: Vec<ProductionInfo>,
    terminal_names: Vec<String>,
    nonterminal_names: Vec<String>,
    log: Vec<Resolution>,
    reach: Reach,
}

/// The special cases a reference build met.
#[derive(Default)]
struct Reach {
    reasons: HashSet<&'static str>,
    /// A cell emptied by `NonAssocError` under yacc defaults, retaken by
    /// a later reduction of a production without precedence.
    nonassoc_retaken_by_plain: usize,
    /// A cell emptied by `StrictError`, retaken by a later reduction.
    strict_retaken: usize,
    /// An `Accept` cell met by the look-ahead of a later reduction of a
    /// production without precedence, under yacc defaults.
    accept_met_by_plain: usize,
}

impl Reach {
    fn absorb(&mut self, other: Reach) {
        self.reasons.extend(other.reasons);
        self.nonassoc_retaken_by_plain += other.nonassoc_retaken_by_plain;
        self.strict_retaken += other.strict_retaken;
        self.accept_met_by_plain += other.accept_met_by_plain;
    }
}

fn reason_name(r: ResolutionReason) -> &'static str {
    match r {
        ResolutionReason::PrecedenceReduce => "PrecedenceReduce",
        ResolutionReason::PrecedenceShift => "PrecedenceShift",
        ResolutionReason::AssocReduce => "AssocReduce",
        ResolutionReason::AssocShift => "AssocShift",
        ResolutionReason::NonAssocError => "NonAssocError",
        ResolutionReason::DefaultShift => "DefaultShift",
        ResolutionReason::DefaultEarlierProduction => "DefaultEarlierProduction",
        ResolutionReason::StrictError => "StrictError",
    }
}

/// The production rendering the tables carried before it was written
/// into one `String`.
fn reference_display(g: &Grammar, id: ProdId) -> String {
    let p = g.production(id);
    let rhs = if p.is_empty() {
        "%empty".to_string()
    } else {
        p.rhs()
            .iter()
            .map(|&s| g.name_of(s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!("{} -> {}", g.nonterminal_name(p.lhs()), rhs)
}

/// The table build, one look-ahead bit at a time, every decision logged.
fn reference_build(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    lookaheads: &LookaheadSets,
    options: TableOptions,
) -> Reference {
    let states = lr0.state_count();
    let terminals = grammar.terminal_count();
    let nonterminals = grammar.nonterminal_count();
    let mut actions = vec![Action::Error; states * terminals];
    let mut gotos = vec![NO_GOTO; states * nonterminals];
    let mut log = Vec::new();
    let mut reach = Reach::default();
    // Cells an error decision emptied, with the reason that did it.
    let mut emptied: Vec<Option<ResolutionReason>> = vec![None; states * terminals];

    for state in lr0.states() {
        for &(sym, to) in lr0.transitions(state) {
            match sym {
                Symbol::Terminal(t) => {
                    actions[state.index() * terminals + t.index()] =
                        Action::Shift(to.index() as u32);
                }
                Symbol::NonTerminal(n) => {
                    gotos[state.index() * nonterminals + n.index()] = to.index() as u32;
                }
            }
        }
    }

    for state in lr0.states() {
        for &prod in lr0.reductions(state) {
            let Some(la) = lookaheads.la(state, prod) else {
                continue;
            };
            let new = if prod == ProdId::START {
                Action::Accept
            } else {
                Action::Reduce(prod.index() as u32)
            };
            let precedence = grammar.production_precedence(prod);
            let plain = options.yacc_defaults && precedence.is_none() && prod != ProdId::START;
            for t in la.iter() {
                let slot = state.index() * terminals + t;
                let old = actions[slot];
                match (old, emptied[slot]) {
                    (Action::Error, Some(ResolutionReason::NonAssocError)) if plain => {
                        reach.nonassoc_retaken_by_plain += 1;
                    }
                    (Action::Error, Some(ResolutionReason::StrictError)) => {
                        reach.strict_retaken += 1;
                    }
                    (Action::Accept, _) if plain => reach.accept_met_by_plain += 1,
                    _ => {}
                }
                let (kept, resolution) = reference_resolve(
                    grammar,
                    old,
                    new,
                    Terminal::new(t),
                    prod,
                    precedence,
                    options,
                );
                if let Some(reason) = resolution {
                    reach.reasons.insert(reason_name(reason));
                    if kept.is_error() {
                        emptied[slot] = Some(reason);
                    }
                    log.push(Resolution {
                        state: state.index() as u32,
                        terminal: t as u32,
                        discarded: if kept == old { new } else { old },
                        kept,
                        reason,
                    });
                }
                actions[slot] = kept;
            }
        }
    }
    let accept_state = lr0.accept_state(grammar);
    actions[accept_state.index() * terminals + Terminal::EOF.index()] = Action::Accept;

    Reference {
        actions,
        gotos,
        productions: grammar
            .iter_productions()
            .map(|(id, p)| ProductionInfo {
                lhs: p.lhs().index() as u32,
                rhs_len: p.len() as u32,
                display: reference_display(grammar, id),
            })
            .collect(),
        terminal_names: grammar
            .terminals()
            .map(|t| grammar.terminal_name(t).to_string())
            .collect(),
        nonterminal_names: grammar
            .nonterminals()
            .map(|n| grammar.nonterminal_name(n).to_string())
            .collect(),
        log,
        reach,
    }
}

/// yacc's conflict rules, one cell at a time.
fn reference_resolve(
    grammar: &Grammar,
    old: Action,
    new: Action,
    terminal: Terminal,
    prod: ProdId,
    prod_precedence: Option<Precedence>,
    options: TableOptions,
) -> (Action, Option<ResolutionReason>) {
    match old {
        Action::Error => (new, None),
        Action::Accept => (old, None),
        Action::Shift(_) => match (grammar.precedence_of(terminal), prod_precedence) {
            (Some(t), Some(p)) => {
                if p.level > t.level {
                    (new, Some(ResolutionReason::PrecedenceReduce))
                } else if t.level > p.level {
                    (old, Some(ResolutionReason::PrecedenceShift))
                } else {
                    match t.assoc {
                        Assoc::Left => (new, Some(ResolutionReason::AssocReduce)),
                        Assoc::Right => (old, Some(ResolutionReason::AssocShift)),
                        Assoc::NonAssoc => (Action::Error, Some(ResolutionReason::NonAssocError)),
                    }
                }
            }
            _ if options.yacc_defaults => (old, Some(ResolutionReason::DefaultShift)),
            _ => (Action::Error, Some(ResolutionReason::StrictError)),
        },
        Action::Reduce(p_old) => {
            if options.yacc_defaults {
                let kept = if (p_old as usize) <= prod.index() {
                    old
                } else {
                    new
                };
                (kept, Some(ResolutionReason::DefaultEarlierProduction))
            } else {
                (Action::Error, Some(ResolutionReason::StrictError))
            }
        }
    }
}

const OPTIONS: [TableOptions; 2] = [
    TableOptions {
        yacc_defaults: true,
    },
    TableOptions {
        yacc_defaults: false,
    },
];

/// Builds `g` both ways under both options, asserts agreement, and
/// returns what the reference met.
fn check(name: &str, g: &Grammar) -> Reach {
    let lr0 = Lr0Automaton::build(g);
    let la = LalrAnalysis::compute(g, &lr0).into_lookaheads();
    let mut reach = Reach::default();
    for options in OPTIONS {
        let want = reference_build(g, &lr0, &la, options);
        let table = build_table(g, &lr0, &la, options);
        let ctx = format!("{name} (yacc_defaults = {})", options.yacc_defaults);
        assert!(table.actions_raw() == want.actions, "{ctx}: ACTION differs");
        assert!(table.gotos_raw() == want.gotos, "{ctx}: GOTO differs");
        assert_eq!(table.production_infos(), want.productions, "{ctx}");
        assert_eq!(table.terminal_names(), want.terminal_names, "{ctx}");
        assert_eq!(table.nonterminal_names(), want.nonterminal_names, "{ctx}");
        assert_eq!(table.resolution_count(), want.log.len(), "{ctx}: count");
        let log = resolutions(g, &lr0, &la, options);
        assert!(log == want.log, "{ctx}: the resolution log differs");
        reach.absorb(want.reach);
    }
    reach
}

/// xorshift64*: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as usize % bound
    }
}

/// `g` rebuilt with seeded `%left`/`%right`/`%nonassoc` levels over a
/// random subset of its terminals and `%prec` on some productions.
/// Production order, and so every production id, is kept.
fn with_precedence(g: &Grammar, seed: u64) -> Grammar {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let names: Vec<&str> = g.terminals().skip(1).map(|t| g.terminal_name(t)).collect();
    let mut b = GrammarBuilder::new();
    let levels = 1 + rng.below(4);
    let mut declared = HashSet::new();
    for _ in 0..levels {
        let assoc = [Assoc::Left, Assoc::Right, Assoc::NonAssoc][rng.below(3)];
        let group: Vec<&str> = (0..1 + rng.below(3))
            .map(|_| names[rng.below(names.len())])
            .filter(|n| declared.insert(*n))
            .collect();
        if !group.is_empty() {
            b.precedence(assoc, group);
        }
    }
    for (_, p) in g.iter_productions().skip(1) {
        let lhs = g.nonterminal_name(p.lhs());
        let rhs = p.rhs().iter().map(|&s| g.name_of(s));
        if rng.below(5) == 0 {
            let prec = names[rng.below(names.len())];
            b.rule_with_prec(lhs, rhs, prec);
        } else {
            b.rule(lhs, rhs);
        }
    }
    b.start(g.nonterminal_name(g.start()));
    b.build()
        .expect("a random grammar with precedence is valid")
}

#[test]
fn word_at_a_time_tables_match_the_per_bit_reference() {
    let mut reach = Reach::default();

    for entry in lalr_corpus::all_entries() {
        reach.absorb(check(entry.name, &entry.grammar()));
    }
    for n in [2, 5, 20] {
        reach.absorb(check(
            &format!("expr_ladder({n})"),
            &synthetic::expr_ladder(n),
        ));
        reach.absorb(check(
            &format!("wide_forest({n})"),
            &synthetic::wide_forest(n),
        ));
        reach.absorb(check(
            &format!("nullable_blocks({n})"),
            &synthetic::nullable_blocks(n),
        ));
        reach.absorb(check(
            &format!("includes_scc({n})"),
            &synthetic::includes_scc(n),
        ));
    }
    reach.absorb(check("wide_forest(100)", &synthetic::wide_forest(100)));

    // The benchmark's two random grammars, through their text as the
    // benchmark sends them.
    for (seed, nonterminals, productions) in [(9, 10, 150), (8, 16, 200)] {
        let g = synthetic::random(
            seed,
            RandomConfig {
                nonterminals,
                terminals: 300,
                productions,
                max_rhs: 4,
                epsilon_prob: 0.1,
            },
        );
        let g = parse_grammar(&g.to_string()).expect("Display re-parses");
        reach.absorb(check(&format!("random({seed};{nonterminals}nt)"), &g));
    }

    let configs = [
        RandomConfig::default(),
        RandomConfig {
            nonterminals: 8,
            terminals: 12,
            productions: 30,
            max_rhs: 4,
            epsilon_prob: 0.15,
        },
        RandomConfig {
            nonterminals: 5,
            terminals: 70,
            productions: 24,
            max_rhs: 3,
            epsilon_prob: 0.1,
        },
    ];
    for (c, config) in configs.into_iter().enumerate() {
        for seed in 0..150 {
            let g = synthetic::random(seed, config);
            reach.absorb(check(&format!("random({seed}; config {c})"), &g));
            let p = with_precedence(&g, seed);
            reach.absorb(check(&format!("random({seed}; config {c}) + prec"), &p));
        }
    }

    for reason in [
        ResolutionReason::PrecedenceReduce,
        ResolutionReason::PrecedenceShift,
        ResolutionReason::AssocReduce,
        ResolutionReason::AssocShift,
        ResolutionReason::NonAssocError,
        ResolutionReason::DefaultShift,
        ResolutionReason::DefaultEarlierProduction,
        ResolutionReason::StrictError,
    ] {
        let name = reason_name(reason);
        assert!(reach.reasons.contains(name), "no input reaches {name}");
    }
    assert!(
        reach.nonassoc_retaken_by_plain > 0,
        "no %nonassoc-emptied cell is retaken by a counted reduction"
    );
    assert!(
        reach.strict_retaken > 0,
        "no strict-emptied cell is retaken"
    );
    assert!(
        reach.accept_met_by_plain > 0,
        "no Accept cell meets a counted reduction's look-ahead"
    );
}
