//! `Relations::build` against the straightforward forward-walk builder.
//!
//! The reference walks every production body forward from every source of
//! a transition on its left-hand side: one `Lr0Automaton::transition`
//! binary search per symbol, a nullable-suffix scan at every nonterminal
//! position, and first-occurrence deduplication of `includes` edges. It
//! returns plain adjacency lists, so every `DR` row, every successor list
//! (in order) and every lookback row of the CSR builder can be compared
//! against it. On the same inputs, the relation statistics the analysis
//! takes from its two Digraph traversals must equal those of
//! `Relations::stats`' own SCC pass.

use lalr_automata::{Lr0Automaton, ReductionId, ReductionIndex};
use lalr_core::{LalrAnalysis, Relations};
use lalr_corpus::synthetic::{self, RandomConfig};
use lalr_grammar::{Grammar, Symbol, Terminal};

/// The four relations as the forward walk builds them.
struct Reference {
    /// `DR` rows as sorted terminal indices.
    dr: Vec<Vec<usize>>,
    reads: Vec<Vec<u32>>,
    includes: Vec<Vec<u32>>,
    /// Lookback rows, indexed by reduction id.
    lookback: Vec<Vec<u32>>,
}

fn reference(grammar: &Grammar, lr0: &Lr0Automaton) -> Reference {
    let nullable = lalr_grammar::analysis::nullable(grammar);
    let nts = lr0.nt_transitions();
    let accept = lr0.accept_state(grammar);

    let dr = nts
        .iter()
        .map(|t| {
            let mut row: Vec<usize> = lr0.shift_symbols(t.to).map(|s| s.index()).collect();
            if t.to == accept {
                row.push(Terminal::EOF.index());
            }
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect();

    let mut reads = vec![Vec::new(); nts.len()];
    for (i, t) in nts.iter().enumerate() {
        for &(sym, _) in lr0.transitions(t.to) {
            if let Symbol::NonTerminal(c) = sym {
                if nullable.contains(c) {
                    let j = lr0
                        .nt_transition_id(t.to, c)
                        .expect("transition enumerated");
                    reads[i].push(j.index() as u32);
                }
            }
        }
    }

    let reductions = ReductionIndex::from_lr0(lr0);
    let mut includes: Vec<Vec<u32>> = vec![Vec::new(); nts.len()];
    let mut lookback = vec![Vec::new(); reductions.len()];
    for (j, t) in nts.iter().enumerate() {
        for &pid in grammar.productions_of(t.nt) {
            let rhs = grammar.production(pid).rhs();
            let mut state = t.from;
            for (k, &sym) in rhs.iter().enumerate() {
                if let Symbol::NonTerminal(a) = sym {
                    let gamma_nullable = rhs[k + 1..]
                        .iter()
                        .all(|&s| matches!(s, Symbol::NonTerminal(n) if nullable.contains(n)));
                    if gamma_nullable {
                        let i = lr0
                            .nt_transition_id(state, a)
                            .expect("closure guarantees the transition");
                        let row = &mut includes[i.index()];
                        if !row.contains(&(j as u32)) {
                            row.push(j as u32);
                        }
                    }
                }
                state = lr0
                    .transition(state, sym)
                    .expect("the automaton contains every viable prefix");
            }
            let rid = reductions
                .id(state, pid)
                .expect("a walked body ends in a reducing state");
            lookback[rid.index()].push(j as u32);
        }
    }

    Reference {
        dr,
        reads,
        includes,
        lookback,
    }
}

/// Checks every relation against the reference; returns whether `reads`
/// has a cycle.
fn assert_same(name: &str, grammar: &Grammar) -> bool {
    let lr0 = Lr0Automaton::build(grammar);
    let rel = Relations::build(grammar, &lr0);
    let want = reference(grammar, &lr0);
    let n = lr0.nt_transitions().len();
    assert_eq!(rel.dr().rows(), n, "{name}: DR rows");
    for i in 0..n {
        let row: Vec<usize> = rel.dr().iter_row(i).collect();
        assert_eq!(row, want.dr[i], "{name}: DR row {i}");
        assert_eq!(
            rel.reads().successors(i),
            want.reads[i].as_slice(),
            "{name}: reads successors of {i}"
        );
        assert_eq!(
            rel.includes().successors(i),
            want.includes[i].as_slice(),
            "{name}: includes successors of {i}"
        );
    }
    assert_eq!(rel.reads().node_count(), n, "{name}: reads nodes");
    assert_eq!(rel.includes().node_count(), n, "{name}: includes nodes");
    assert_eq!(
        rel.reduction_index().len(),
        want.lookback.len(),
        "{name}: reduction points"
    );
    for (r, row) in want.lookback.iter().enumerate() {
        let got: Vec<u32> = rel
            .lookback_row(ReductionId::new(r))
            .iter()
            .map(|t| t.index() as u32)
            .collect();
        assert_eq!(&got, row, "{name}: lookback row {r}");
    }
    let stats = rel.stats();
    assert_eq!(
        LalrAnalysis::compute(grammar, &lr0).relation_stats(),
        &stats,
        "{name}: relation stats from the traversals"
    );
    stats.reads_nontrivial_sccs > 0
}

#[test]
fn corpus_relations_match_the_forward_walk() {
    for entry in lalr_corpus::all_entries() {
        assert_same(entry.name, &entry.grammar());
    }
}

#[test]
fn synthetic_family_relations_match_the_forward_walk() {
    for n in [2usize, 5, 20] {
        assert_same(&format!("expr_ladder({n})"), &synthetic::expr_ladder(n));
        assert_same(&format!("wide_forest({n})"), &synthetic::wide_forest(n));
        assert_same(&format!("includes_scc({n})"), &synthetic::includes_scc(n));
        assert_same(
            &format!("nullable_blocks({n})"),
            &synthetic::nullable_blocks(n),
        );
    }
}

#[test]
fn large_random_relations_match_the_forward_walk() {
    for (seed, nonterminals, productions) in [(9u64, 10usize, 150usize), (8, 16, 200)] {
        let config = RandomConfig {
            nonterminals,
            terminals: 300,
            productions,
            max_rhs: 4,
            epsilon_prob: 0.1,
        };
        assert_same(
            &format!("random({seed};{nonterminals}nt,300t,{productions}p)"),
            &synthetic::random(seed, config),
        );
    }
}

#[test]
fn small_random_relations_match_the_forward_walk() {
    let mut reads_cycles = 0;
    for nonterminals in [3usize, 6, 12] {
        for epsilon_prob in [0.0, 0.15, 0.3, 0.5] {
            let config = RandomConfig {
                nonterminals,
                terminals: 6,
                productions: 3 * nonterminals,
                max_rhs: 5,
                epsilon_prob,
            };
            for seed in 0..150u64 {
                reads_cycles += usize::from(assert_same(
                    &format!("random({seed};{nonterminals}nt,eps {epsilon_prob})"),
                    &synthetic::random(seed, config),
                ));
            }
        }
    }
    assert!(
        reads_cycles >= 50,
        "only {reads_cycles} inputs with reads cycles"
    );
}
