//! Structural invariants of the LR automata, checked on the corpus and on
//! random grammars.

use lalr_automata::{Item, Lr0Automaton, Lr1Automaton, StateId};
use lalr_bitset::BitSet;
use lalr_corpus::synthetic::{
    chain, expr_ladder, nested_lists, nullable_blocks, random, wide_forest, RandomConfig,
};
use lalr_grammar::analysis::{nullable, FirstSets};
use lalr_grammar::{Grammar, ProdId, Symbol, Terminal};
use proptest::prelude::*;
use rustc_hash::FxHashMap;

fn grammars_under_test() -> Vec<(String, Grammar)> {
    lalr_corpus::all_entries()
        .into_iter()
        .map(|e| (e.name.to_string(), e.grammar()))
        .collect()
}

/// Every viable prefix (path from the start state) ends in a state whose
/// kernel items all have their marked prefix consistent with the path —
/// spot-checked via production-body walks.
#[test]
fn production_bodies_are_walkable_from_their_lhs_transitions() {
    for (name, g) in grammars_under_test() {
        let lr0 = Lr0Automaton::build(&g);
        for t in lr0.nt_transitions() {
            for &pid in g.productions_of(t.nt) {
                let q = lr0
                    .walk(t.from, g.production(pid).rhs())
                    .unwrap_or_else(|| panic!("{name}: body of {} not walkable", pid.index()));
                assert!(
                    lr0.reductions(q).contains(&pid),
                    "{name}: walked body must end in a reducing state"
                );
            }
        }
    }
}

#[test]
fn kernels_are_nonempty_and_kernel_items_have_dot_gt_zero() {
    for (name, g) in grammars_under_test() {
        let lr0 = Lr0Automaton::build(&g);
        for s in lr0.states() {
            let kernel = lr0.kernel(s);
            assert!(!kernel.is_empty(), "{name}: state {} empty", s.index());
            if s != StateId::START {
                for item in kernel.items() {
                    assert!(
                        item.dot() > 0 || g.production(item.production()).is_empty(),
                        "{name}: non-start kernels hold advanced items"
                    );
                }
            }
        }
    }
}

#[test]
fn closures_contain_kernels_and_are_closed() {
    for (name, g) in grammars_under_test() {
        let lr0 = Lr0Automaton::build(&g);
        for s in lr0.states() {
            let kernel = lr0.kernel(s);
            let closure = lr0.closure(&g, s);
            for item in kernel {
                assert!(closure.contains(item), "{name}: kernel ⊆ closure");
            }
            // Closed: every ·B item pulls in all B-productions.
            for item in &closure {
                if let Some(Symbol::NonTerminal(b)) = item.next_symbol(&g) {
                    for &pid in g.productions_of(b) {
                        assert!(
                            closure.contains(lalr_automata::Item::start_of(pid)),
                            "{name}: closure is transitively closed"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn lr1_cores_project_onto_lr0_states() {
    for (name, g) in grammars_under_test() {
        // The canonical LR(1) machine, merged by core, must have exactly
        // the LR(0) states (the classic theorem behind LALR).
        let lr0 = Lr0Automaton::build(&g);
        let lr1 = Lr1Automaton::build(&g);
        let mut cores: Vec<_> = lr1.states().map(|s| lr1.state(s).core()).collect();
        cores.sort_by(|a, b| a.items().cmp(b.items()));
        cores.dedup();
        assert_eq!(cores.len(), lr0.state_count(), "{name}");
    }
}

#[test]
fn lr1_transitions_commute_with_core_projection() {
    for (name, g) in grammars_under_test() {
        let lr0 = Lr0Automaton::build(&g);
        let lr1 = Lr1Automaton::build(&g);
        let by_kernel: FxHashMap<_, _> = lr0.states().map(|s0| (lr0.kernel(s0), s0)).collect();
        let core_to_lr0 = |s1| {
            *by_kernel
                .get(&lr1.state(s1).core())
                .expect("core exists in LR(0)")
        };
        for s1 in lr1.states() {
            let s0 = core_to_lr0(s1);
            for &(sym, t1) in lr1.transitions(s1) {
                let t0 = lr0.transition(s0, sym).expect("projection preserves edges");
                assert_eq!(core_to_lr0(t1), t0, "{name}: GOTO commutes");
            }
        }
    }
}

/// The worklist LR(1) closure `Lr1Automaton::build` used before its
/// left-corner tables, kept as the reference they are checked against:
/// every item `[A → α · B γ, L]` sends `FIRST(γ)` (plus `L` when
/// `γ ⇒* ε`) to each `B`-production, and an item is queued again each
/// time its set grows. Returns the closure sorted by item.
fn reference_closure(
    grammar: &Grammar,
    first: &FirstSets,
    kernel: &[(Item, BitSet)],
) -> Vec<(Item, BitSet)> {
    let mut las: FxHashMap<Item, BitSet> = FxHashMap::default();
    let mut work: Vec<Item> = Vec::new();
    for (item, la) in kernel {
        las.insert(*item, la.clone());
        work.push(*item);
    }
    while let Some(item) = work.pop() {
        let Some(Symbol::NonTerminal(b)) = item.next_symbol(grammar) else {
            continue;
        };
        let (mut look, gamma_nullable) = first.first_of(item.tail_after_next(grammar));
        if gamma_nullable {
            look.union_with(&las[&item]);
        }
        for &pid in grammar.productions_of(b) {
            let fresh = Item::start_of(pid);
            match las.get_mut(&fresh) {
                Some(existing) => {
                    if existing.union_with(&look) {
                        work.push(fresh);
                    }
                }
                None => {
                    las.insert(fresh, look.clone());
                    work.push(fresh);
                }
            }
        }
    }
    let mut out: Vec<(Item, BitSet)> = las.into_iter().collect();
    out.sort_unstable_by_key(|&(i, _)| i);
    out
}

/// The canonical collection as built around [`reference_closure`]: goto
/// kernels bucketed by next symbol in first-seen order, interned by
/// kernel, explored from a LIFO worklist — the construction order
/// `Lr1Automaton::build` keeps, so state numbers must agree.
struct ReferenceLr1 {
    kernels: Vec<Vec<(Item, BitSet)>>,
    transitions: Vec<Vec<(Symbol, StateId)>>,
    reductions: Vec<Vec<(ProdId, BitSet)>>,
}

fn reference_lr1(grammar: &Grammar) -> ReferenceLr1 {
    let first = FirstSets::compute(grammar, &nullable(grammar));
    let mut eof_only = BitSet::new(grammar.terminal_count());
    eof_only.insert(Terminal::EOF.index());
    let start = vec![(Item::start_of(ProdId::START), eof_only)];
    let mut ids: FxHashMap<Vec<(Item, BitSet)>, StateId> = FxHashMap::default();
    ids.insert(start.clone(), StateId::START);
    let mut lr1 = ReferenceLr1 {
        kernels: vec![start],
        transitions: vec![Vec::new()],
        reductions: vec![Vec::new()],
    };
    let mut work = vec![StateId::START];
    while let Some(sid) = work.pop() {
        let closed = reference_closure(grammar, &first, &lr1.kernels[sid.index()]);
        let mut order: Vec<Symbol> = Vec::new();
        let mut buckets: FxHashMap<Symbol, Vec<(Item, BitSet)>> = FxHashMap::default();
        for (item, la) in closed {
            match item.next_symbol(grammar) {
                None => lr1.reductions[sid.index()].push((item.production(), la)),
                Some(sym) => buckets
                    .entry(sym)
                    .or_insert_with(|| {
                        order.push(sym);
                        Vec::new()
                    })
                    .push((item.advanced(), la)),
            }
        }
        let mut ts = Vec::new();
        for sym in order {
            let kernel = buckets.remove(&sym).expect("bucket exists");
            let next = StateId::new(lr1.kernels.len());
            let target = *ids.entry(kernel.clone()).or_insert_with(|| {
                lr1.kernels.push(kernel);
                lr1.transitions.push(Vec::new());
                lr1.reductions.push(Vec::new());
                work.push(next);
                next
            });
            ts.push((sym, target));
        }
        ts.sort_unstable_by_key(|&(sym, _)| sym);
        lr1.transitions[sid.index()] = ts;
    }
    lr1
}

fn assert_lr1_matches_reference(name: &str, g: &Grammar) {
    let reference = reference_lr1(g);
    let lr1 = Lr1Automaton::build(g);
    assert_eq!(
        lr1.state_count(),
        reference.kernels.len(),
        "{name}: state count"
    );
    for s in lr1.states() {
        let i = s.index();
        assert_eq!(
            lr1.state(s).kernel(),
            reference.kernels[i].as_slice(),
            "{name}: kernel look-aheads of state {i}"
        );
        assert_eq!(
            lr1.transitions(s),
            reference.transitions[i].as_slice(),
            "{name}: transitions of state {i}"
        );
        assert_eq!(
            lr1.reductions(s),
            reference.reductions[i].as_slice(),
            "{name}: reductions of state {i}"
        );
    }
}

#[test]
fn lr1_build_matches_worklist_closure_on_corpus_and_families() {
    for (name, g) in grammars_under_test() {
        assert_lr1_matches_reference(&name, &g);
    }
    let families = [
        ("expr_ladder(1)", expr_ladder(1)),
        ("expr_ladder(8)", expr_ladder(8)),
        ("expr_ladder(80)", expr_ladder(80)),
        ("chain(40)", chain(40)),
        ("nullable_blocks(8)", nullable_blocks(8)),
        ("nested_lists(6)", nested_lists(6)),
        ("wide_forest(100)", wide_forest(100)),
    ];
    for (name, g) in &families {
        assert_lr1_matches_reference(name, g);
    }
}

#[test]
fn lr1_build_matches_worklist_closure_on_random_grammars() {
    let configs = [
        RandomConfig::default(),
        RandomConfig {
            epsilon_prob: 0.4,
            ..RandomConfig::default()
        },
        // More nonterminals than terminals: long left-corner chains and
        // nullable-tail cycles, so the components are non-trivial.
        RandomConfig {
            nonterminals: 12,
            terminals: 6,
            productions: 30,
            max_rhs: 3,
            epsilon_prob: 0.4,
        },
    ];
    for config in configs {
        for seed in 0..50 {
            let g = random(seed, config);
            assert_lr1_matches_reference(&format!("random({seed}, {config:?})"), &g);
        }
    }
}

/// The canonical LR(0) collection as `Lr0Automaton::build` made it before
/// its left-corner closure tables, kept as the reference they are checked
/// against: every state is closed item by item by a worklist and sorted,
/// goto kernels are bucketed by next symbol in first-seen order, interned
/// by kernel, and explored from a LIFO worklist — the construction order
/// the build keeps, so state numbers must agree.
struct ReferenceLr0 {
    kernels: Vec<Vec<Item>>,
    transitions: Vec<Vec<(Symbol, StateId)>>,
    reductions: Vec<Vec<ProdId>>,
    accessing: Vec<Option<Symbol>>,
}

fn reference_lr0_closure(grammar: &Grammar, kernel: &[Item]) -> Vec<Item> {
    let mut closed = kernel.to_vec();
    let mut work = kernel.to_vec();
    let mut added = vec![false; grammar.nonterminal_count()];
    while let Some(item) = work.pop() {
        let Some(Symbol::NonTerminal(b)) = item.next_symbol(grammar) else {
            continue;
        };
        if added[b.index()] {
            continue;
        }
        added[b.index()] = true;
        for &pid in grammar.productions_of(b) {
            closed.push(Item::start_of(pid));
            work.push(Item::start_of(pid));
        }
    }
    closed.sort_unstable();
    closed.dedup();
    closed
}

fn reference_lr0(grammar: &Grammar) -> ReferenceLr0 {
    let start = vec![Item::start_of(ProdId::START)];
    let mut ids: FxHashMap<Vec<Item>, StateId> = FxHashMap::default();
    ids.insert(start.clone(), StateId::START);
    let mut lr0 = ReferenceLr0 {
        kernels: vec![start],
        transitions: vec![Vec::new()],
        reductions: vec![Vec::new()],
        accessing: vec![None],
    };
    let mut work = vec![StateId::START];
    while let Some(sid) = work.pop() {
        let closed = reference_lr0_closure(grammar, &lr0.kernels[sid.index()]);
        let mut order: Vec<Symbol> = Vec::new();
        let mut buckets: FxHashMap<Symbol, Vec<Item>> = FxHashMap::default();
        for item in closed {
            match item.next_symbol(grammar) {
                None => lr0.reductions[sid.index()].push(item.production()),
                Some(sym) => buckets
                    .entry(sym)
                    .or_insert_with(|| {
                        order.push(sym);
                        Vec::new()
                    })
                    .push(item.advanced()),
            }
        }
        let mut ts = Vec::new();
        for sym in order {
            let kernel = buckets.remove(&sym).expect("bucket exists");
            let next = StateId::new(lr0.kernels.len());
            let target = *ids.entry(kernel.clone()).or_insert_with(|| {
                lr0.kernels.push(kernel);
                lr0.transitions.push(Vec::new());
                lr0.reductions.push(Vec::new());
                lr0.accessing.push(Some(sym));
                work.push(next);
                next
            });
            ts.push((sym, target));
        }
        ts.sort_unstable_by_key(|&(sym, _)| sym);
        lr0.transitions[sid.index()] = ts;
    }
    lr0
}

fn assert_lr0_matches_reference(name: &str, g: &Grammar) {
    let reference = reference_lr0(g);
    let lr0 = Lr0Automaton::build(g);
    assert_eq!(
        lr0.state_count(),
        reference.kernels.len(),
        "{name}: state count"
    );
    let mut nt_transitions = Vec::new();
    for s in lr0.states() {
        let i = s.index();
        assert_eq!(
            lr0.kernel(s).items(),
            reference.kernels[i].as_slice(),
            "{name}: kernel of state {i}"
        );
        assert_eq!(
            lr0.transitions(s),
            reference.transitions[i].as_slice(),
            "{name}: transitions of state {i}"
        );
        assert_eq!(
            lr0.reductions(s),
            reference.reductions[i].as_slice(),
            "{name}: reductions of state {i}"
        );
        assert_eq!(
            lr0.accessing_symbol(s),
            reference.accessing[i],
            "{name}: accessing symbol of state {i}"
        );
        for &(sym, to) in &reference.transitions[i] {
            if let Symbol::NonTerminal(nt) = sym {
                nt_transitions.push((s, nt, to));
            }
        }
    }
    let got: Vec<_> = lr0
        .nt_transitions()
        .iter()
        .map(|t| (t.from, t.nt, t.to))
        .collect();
    assert_eq!(got, nt_transitions, "{name}: nonterminal transitions");
}

#[test]
fn lr0_build_matches_worklist_closure_on_corpus_and_families() {
    for (name, g) in grammars_under_test() {
        assert_lr0_matches_reference(&name, &g);
    }
    let families = [
        ("expr_ladder(1)", expr_ladder(1)),
        ("expr_ladder(80)", expr_ladder(80)),
        ("chain(40)", chain(40)),
        ("nullable_blocks(8)", nullable_blocks(8)),
        ("nested_lists(6)", nested_lists(6)),
        ("wide_forest(100)", wide_forest(100)),
    ];
    for (name, g) in &families {
        assert_lr0_matches_reference(name, g);
    }
}

/// Whether some nonterminal derives itself as its own leftmost symbol.
fn has_left_corner_cycle(g: &Grammar) -> bool {
    g.nonterminals().any(|a| {
        let mut seen = vec![false; g.nonterminal_count()];
        let mut work = vec![a];
        while let Some(x) = work.pop() {
            for &pid in g.productions_of(x) {
                if let Some(&Symbol::NonTerminal(b)) = g.production(pid).rhs().first() {
                    if b == a {
                        return true;
                    }
                    if !std::mem::replace(&mut seen[b.index()], true) {
                        work.push(b);
                    }
                }
            }
        }
        false
    })
}

/// 600 seeded random grammars, ε-productions from none to half of them.
/// The configurations with more nonterminals than terminals make long
/// left-corner chains and left-corner cycles; the 300-terminal one is
/// the benchmark's shape.
#[test]
fn lr0_build_matches_worklist_closure_on_random_grammars() {
    let (mut checked, mut cyclic) = (0, 0);
    for epsilon_prob in [0.0, 0.1, 0.25, 0.5] {
        let configs = [
            RandomConfig {
                epsilon_prob,
                ..RandomConfig::default()
            },
            RandomConfig {
                nonterminals: 12,
                terminals: 4,
                productions: 30,
                max_rhs: 3,
                epsilon_prob,
            },
            RandomConfig {
                nonterminals: 10,
                terminals: 300,
                productions: 150,
                max_rhs: 4,
                epsilon_prob,
            },
        ];
        for config in configs {
            for seed in 0..50 {
                let g = random(seed, config);
                assert_lr0_matches_reference(&format!("random({seed}, {config:?})"), &g);
                checked += 1;
                cyclic += usize::from(has_left_corner_cycle(&g));
            }
        }
    }
    assert_eq!(checked, 600);
    assert!(
        cyclic >= 100,
        "only {cyclic} grammars with a left-corner cycle"
    );
}

/// The no-clone interning guarantee of the dense-index overhaul: building
/// the LR(0) machine must never clone an `ItemSet` — kernels are stored
/// once in the state table and interned by hash + slice comparison.
#[test]
fn lr0_build_performs_zero_kernel_clones() {
    for (name, g) in grammars_under_test() {
        let before = lalr_automata::item_set_clone_count();
        let lr0 = Lr0Automaton::build(&g);
        let after = lalr_automata::item_set_clone_count();
        assert_eq!(
            after - before,
            0,
            "{name}: Lr0Automaton::build cloned an ItemSet"
        );
        assert!(lr0.state_count() > 0);
    }
}

#[test]
fn nt_transition_id_misses_cleanly() {
    for (name, g) in grammars_under_test() {
        let lr0 = Lr0Automaton::build(&g);
        for s in lr0.states() {
            let here: Vec<_> = lr0
                .transitions(s)
                .iter()
                .filter_map(|&(sym, _)| sym.nonterminal())
                .collect();
            for nt in g.nonterminals() {
                let id = lr0.nt_transition_id(s, nt);
                assert_eq!(
                    id.is_some(),
                    here.contains(&nt),
                    "{name}: state {}",
                    s.index()
                );
            }
        }
    }
}

#[test]
fn start_production_reachable_to_accept() {
    for (name, g) in grammars_under_test() {
        let lr0 = Lr0Automaton::build(&g);
        let acc = lr0.accept_state(&g);
        assert!(
            lr0.reductions(acc).contains(&ProdId::START),
            "{name}: accept state holds the start reduction"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_grammar_automaton_invariants(seed in 0u64..2000) {
        let g = random(seed, RandomConfig::default());
        let lr0 = Lr0Automaton::build(&g);
        // Transition targets in range; accessing symbols consistent.
        for s in lr0.states() {
            for &(sym, to) in lr0.transitions(s) {
                prop_assert!(to.index() < lr0.state_count());
                prop_assert_eq!(lr0.accessing_symbol(to), Some(sym));
            }
        }
        // Nonterminal transition index is a bijection with the enumeration.
        for (i, t) in lr0.nt_transitions().iter().enumerate() {
            prop_assert_eq!(
                lr0.nt_transition_id(t.from, t.nt).map(|x| x.index()),
                Some(i)
            );
        }
    }

    #[test]
    fn random_grammar_walks_match_transitions(seed in 0u64..500) {
        let g = random(seed, RandomConfig::default());
        let lr0 = Lr0Automaton::build(&g);
        // walk() == folding transition() by definition; check on bodies.
        for (pid, p) in g.iter_productions() {
            let mut state = Some(StateId::START);
            for &sym in p.rhs() {
                state = state.and_then(|s| lr0.transition(s, sym));
            }
            prop_assert_eq!(state, lr0.walk(StateId::START, p.rhs()), "prod {}", pid.index());
        }
    }
}
