//! Parameterized grammar families and a seeded random generator.
//!
//! The scaling figure (experiment **E4**) sweeps these families; property
//! tests use [`random`] to cross-validate the look-ahead methods on
//! thousands of arbitrary grammars.

use lalr_grammar::{Grammar, GrammarBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An expression grammar with `levels` left-associative binary-operator
/// precedence levels over parenthesised atoms.
///
/// `levels = 2` is exactly the dragon-book grammar. The LR(0) state count
/// grows linearly in `levels`, which makes the family ideal for the
/// scaling sweep.
///
/// # Panics
///
/// Panics if `levels == 0`.
///
/// # Examples
///
/// ```
/// let g = lalr_corpus::synthetic::expr_ladder(5);
/// assert_eq!(g.production_count(), 1 + 2 * 5 + 2);
/// ```
pub fn expr_ladder(levels: usize) -> Grammar {
    assert!(levels > 0, "at least one precedence level");
    let mut b = GrammarBuilder::new();
    let nt = |i: usize| format!("e{i}");
    for i in 0..levels {
        let op = format!("op{i}");
        b.rule(nt(i), [nt(i), op, nt(i + 1)]);
        b.rule(nt(i), [nt(i + 1)]);
    }
    b.rule(nt(levels), ["(".to_string(), nt(0), ")".to_string()]);
    b.rule(nt(levels), ["atom".to_string()]);
    b.start(nt(0));
    b.build().expect("ladder family is well-formed")
}

/// A unit-production chain of `depth` nonterminals ending in one terminal —
/// the worst case for `includes`-chain traversal (every link is an
/// includes edge).
///
/// # Panics
///
/// Panics if `depth == 0`.
///
/// # Examples
///
/// ```
/// let g = lalr_corpus::synthetic::chain(100);
/// // 100 links + the terminal rule + the `top` wrapper + the augmentation.
/// assert_eq!(g.production_count(), 103);
/// ```
pub fn chain(depth: usize) -> Grammar {
    assert!(depth > 0, "at least one link");
    let mut b = GrammarBuilder::new();
    for i in 0..depth {
        b.rule(format!("c{i}"), [format!("c{}", i + 1)]);
    }
    b.rule(format!("c{depth}"), ["x"]);
    // A trailing marker so the chain's FOLLOW is not just $.
    b.rule("top", [String::from("c0"), String::from("mark")]);
    b.start("top");
    b.build().expect("chain family is well-formed")
}

/// `n` optional (nullable) blocks followed by a terminator — produces a
/// dense `reads` relation (every block transition reads through all the
/// following nullable blocks).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use lalr_grammar::analysis::nullable;
///
/// let g = lalr_corpus::synthetic::nullable_blocks(8);
/// assert_eq!(nullable(&g).count(), 8);
/// ```
pub fn nullable_blocks(n: usize) -> Grammar {
    assert!(n > 0, "at least one block");
    let mut b = GrammarBuilder::new();
    let rhs: Vec<String> = (0..n)
        .map(|i| format!("b{i}"))
        .chain(std::iter::once("end".to_string()))
        .collect();
    b.rule("s", rhs);
    for i in 0..n {
        b.rule(format!("b{i}"), [format!("t{i}")]);
        b.rule(format!("b{i}"), Vec::<String>::new());
    }
    b.start("s");
    b.build().expect("nullable family is well-formed")
}

/// `n` left-recursive, comma-separated list nonterminals nested inside one
/// another — a statement/declaration-list shape common in real grammars.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn nested_lists(n: usize) -> Grammar {
    assert!(n > 0, "at least one list");
    let mut b = GrammarBuilder::new();
    for i in 0..n {
        let list = format!("list{i}");
        let item = format!("item{i}");
        let sep = format!("sep{i}");
        b.rule(list.clone(), [item.clone()]);
        b.rule(list.clone(), [list.clone(), sep, item.clone()]);
        if i + 1 < n {
            b.rule(
                item.clone(),
                [
                    format!("open{i}"),
                    format!("list{}", i + 1),
                    format!("close{i}"),
                ],
            );
        }
        b.rule(item, [format!("leaf{i}")]);
    }
    b.start("list0");
    b.build().expect("list family is well-formed")
}

/// A right-recursive cluster whose `includes` relation forms one big
/// strongly connected component per context — the stress case for the
/// Digraph SCC collapse: `a0 → a1 → … → a(n-1) → a0 tail | leaf`, all
/// links carrying nullable tails.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn includes_scc(n: usize) -> Grammar {
    assert!(n >= 2, "a cycle needs at least two nonterminals");
    let mut b = GrammarBuilder::new();
    b.rule("top", [String::from("a0"), String::from("mark")]);
    for i in 0..n {
        let next = format!("a{}", (i + 1) % n);
        // a_i : a_{i+1} opt  — opt nullable keeps the includes edge.
        b.rule(format!("a{i}"), [next, "opt".to_string()]);
        b.rule(format!("a{i}"), [format!("leaf{i}")]);
    }
    b.rule("opt", ["o"]);
    b.rule("opt", Vec::<String>::new());
    b.start("top");
    b.build().expect("scc family is well-formed")
}

/// `n` independent expression sub-grammars under one root — the `includes`
/// condensation is a wide forest (every sub-grammar is its own weakly
/// connected component hanging off the root transition), and every
/// sub-grammar brings its own four terminals, so the look-ahead rows
/// widen with `n`. This is the wide, shallow stress case, complementing
/// [`chain`] (deep and narrow) and [`includes_scc`] (one big component).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// let g = lalr_corpus::synthetic::wide_forest(16);
/// // Per sub-grammar: 2 rules for u, 2 for v; plus n root alternatives
/// // and the augmentation rule.
/// assert_eq!(g.production_count(), 5 * 16 + 1);
/// ```
pub fn wide_forest(n: usize) -> Grammar {
    assert!(n > 0, "at least one sub-grammar");
    let mut b = GrammarBuilder::new();
    for i in 0..n {
        let u = format!("u{i}");
        let v = format!("v{i}");
        b.rule("s", [u.clone()]);
        b.rule(u.clone(), [u.clone(), format!("plus{i}"), v.clone()]);
        b.rule(u, [v.clone()]);
        b.rule(
            v.clone(),
            [format!("open{i}"), format!("u{i}"), format!("close{i}")],
        );
        b.rule(v, [format!("x{i}")]);
    }
    b.start("s");
    b.build().expect("forest family is well-formed")
}

/// Configuration for [`random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomConfig {
    /// Number of nonterminals.
    pub nonterminals: usize,
    /// Number of terminals.
    pub terminals: usize,
    /// Number of productions (at least one per nonterminal is forced).
    pub productions: usize,
    /// Maximum right-hand-side length.
    pub max_rhs: usize,
    /// Probability that a production is an ε-production.
    pub epsilon_prob: f64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            nonterminals: 6,
            terminals: 5,
            productions: 14,
            max_rhs: 4,
            epsilon_prob: 0.15,
        }
    }
}

/// A seeded random grammar. Deterministic for a given `(seed, config)`.
///
/// The grammar may be ambiguous, non-LR, or contain useless symbols — the
/// point: the property tests assert that all LALR methods agree on
/// *arbitrary* grammars, not just polished ones.
///
/// # Panics
///
/// Panics if the config has zero nonterminals or terminals.
///
/// # Examples
///
/// ```
/// use lalr_corpus::synthetic::{random, RandomConfig};
///
/// let a = random(42, RandomConfig::default());
/// let b = random(42, RandomConfig::default());
/// assert_eq!(a, b, "same seed, same grammar");
/// ```
pub fn random(seed: u64, config: RandomConfig) -> Grammar {
    assert!(config.nonterminals > 0 && config.terminals > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GrammarBuilder::new();
    let nt = |i: usize| format!("n{i}");
    let t = |i: usize| format!("t{i}");

    let add_random_rule = |b: &mut GrammarBuilder, rng: &mut StdRng, lhs: usize| {
        if rng.gen_bool(config.epsilon_prob) {
            b.rule(nt(lhs), Vec::<String>::new());
            return;
        }
        let len = rng.gen_range(1..=config.max_rhs);
        let rhs: Vec<String> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    nt(rng.gen_range(0..config.nonterminals))
                } else {
                    t(rng.gen_range(0..config.terminals))
                }
            })
            .collect();
        b.rule(nt(lhs), rhs);
    };

    // One production per nonterminal, then the rest at random.
    for i in 0..config.nonterminals {
        add_random_rule(&mut b, &mut rng, i);
    }
    for _ in config.nonterminals..config.productions.max(config.nonterminals) {
        let lhs = rng.gen_range(0..config.nonterminals);
        add_random_rule(&mut b, &mut rng, lhs);
    }
    b.start(nt(0));
    b.build().expect("random grammars are structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_grammar::GrammarStats;

    #[test]
    fn ladder_sizes_scale_linearly() {
        let s5 = GrammarStats::compute(&expr_ladder(5));
        let s10 = GrammarStats::compute(&expr_ladder(10));
        assert_eq!(s5.productions, 12);
        assert_eq!(s10.productions, 22);
        assert_eq!(s10.nonterminals, 11);
    }

    #[test]
    fn chain_depth_matches() {
        let g = chain(10);
        let stats = GrammarStats::compute(&g);
        assert_eq!(stats.nonterminals, 12); // c0..c10 + top
        assert_eq!(stats.left_recursive, 0);
    }

    #[test]
    fn nullable_blocks_are_all_nullable() {
        let g = nullable_blocks(5);
        let n = lalr_grammar::analysis::nullable(&g);
        assert_eq!(n.count(), 5);
    }

    #[test]
    fn nested_lists_are_left_recursive() {
        let g = nested_lists(3);
        let stats = GrammarStats::compute(&g);
        assert_eq!(stats.left_recursive, 3);
    }

    #[test]
    fn includes_scc_family_is_cyclic() {
        use lalr_digraph::tarjan_scc;
        let g = includes_scc(6);
        let lr0 = lalr_automata::Lr0Automaton::build(&g);
        let rel = lalr_core_free_includes(&g, &lr0);
        let scc = tarjan_scc(&rel);
        let sizes = scc.sizes();
        assert!(
            sizes.iter().any(|&s| s >= 6),
            "a big includes SCC exists: {sizes:?}"
        );
    }

    /// Builds just the includes graph without depending on lalr-core
    /// (corpus sits below core in the crate DAG).
    fn lalr_core_free_includes(
        g: &Grammar,
        lr0: &lalr_automata::Lr0Automaton,
    ) -> lalr_digraph::Graph {
        use lalr_grammar::Symbol;
        let nullable = lalr_grammar::analysis::nullable(g);
        let nts = lr0.nt_transitions();
        let mut edges = Vec::new();
        for (j, t) in nts.iter().enumerate() {
            for &pid in g.productions_of(t.nt) {
                let rhs = g.production(pid).rhs();
                let mut state = t.from;
                for (k, &sym) in rhs.iter().enumerate() {
                    if let Symbol::NonTerminal(a) = sym {
                        let tail_nullable = rhs[k + 1..]
                            .iter()
                            .all(|&s| matches!(s, Symbol::NonTerminal(n) if nullable.contains(n)));
                        if tail_nullable {
                            let i = lr0.nt_transition_id(state, a).unwrap();
                            edges.push((i.index(), j));
                        }
                    }
                    state = lr0.transition(state, sym).unwrap();
                }
            }
        }
        lalr_digraph::Graph::from_edges_dedup(nts.len(), edges.iter().copied())
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let cfg = RandomConfig::default();
        assert_eq!(random(7, cfg), random(7, cfg));
        assert_ne!(random(7, cfg), random(8, cfg));
    }

    #[test]
    fn random_respects_size_bounds() {
        let cfg = RandomConfig {
            nonterminals: 4,
            terminals: 3,
            productions: 10,
            max_rhs: 3,
            epsilon_prob: 0.0,
        };
        let g = random(1, cfg);
        let stats = GrammarStats::compute(&g);
        assert_eq!(stats.productions, 10);
        assert!(stats.max_rhs_len <= 3);
        assert!(stats.nonterminals <= 4);
        assert_eq!(stats.epsilon_productions, 0);
    }
}
