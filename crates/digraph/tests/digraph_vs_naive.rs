//! Property tests: the Digraph algorithm must agree with the naive fixpoint
//! reference on random graphs, and with reachability semantics.

use lalr_bitset::BitMatrix;
use lalr_digraph::{digraph, digraph_counting, naive_closure, tarjan_scc, DigraphStats, Graph};
use proptest::prelude::*;

const COLS: usize = 64;

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    edges: Vec<(usize, usize)>,
    init: Vec<(usize, usize)>,
}

fn case() -> impl Strategy<Value = Case> {
    (1usize..24).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..80);
        let init = prop::collection::vec((0..n, 0..COLS), 0..40);
        (Just(n), edges, init).prop_map(|(n, edges, init)| Case { n, edges, init })
    })
}

fn setup(c: &Case) -> (Graph, BitMatrix) {
    let g = Graph::from_edges(c.n, c.edges.iter().copied());
    let mut m = BitMatrix::new(c.n, COLS);
    for &(r, col) in &c.init {
        m.set(r, col);
    }
    (g, m)
}

/// The statistics a traversal must report, derived independently from
/// Tarjan's component sizes: a node is cyclic when its component has
/// more than one member or it carries a self-loop.
fn stats_from_sccs(g: &Graph) -> DigraphStats {
    let scc = tarjan_scc(g);
    let sizes = scc.sizes();
    let mut stats = DigraphStats {
        scc_count: scc.count(),
        ..DigraphStats::default()
    };
    for &s in &sizes {
        stats.max_scc_size = stats.max_scc_size.max(s);
        if s > 1 {
            stats.nontrivial_sccs += 1;
            stats.cyclic_nodes += s;
        }
    }
    for node in 0..g.node_count() {
        if sizes[scc.component(node)] == 1 && g.has_self_loop(node) {
            stats.cyclic_nodes += 1;
        }
    }
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn digraph_equals_naive_closure(c in case()) {
        let (g, init) = setup(&c);
        let mut fast = init.clone();
        let mut slow = init;
        digraph(&g, &mut fast);
        naive_closure(&g, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn digraph_result_is_reachability_union(c in case()) {
        // F(x) must equal the union of F'(y) over all y reachable from x
        // (including x itself), computed here by plain BFS.
        let (g, init) = setup(&c);
        let mut fast = init.clone();
        digraph(&g, &mut fast);
        for x in 0..c.n {
            let mut seen = vec![false; c.n];
            let mut queue = vec![x];
            seen[x] = true;
            let mut want = lalr_bitset::BitSet::new(COLS);
            while let Some(u) = queue.pop() {
                for col in init.iter_row(u) {
                    want.insert(col);
                }
                for &v in g.successors(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        queue.push(v as usize);
                    }
                }
            }
            prop_assert_eq!(fast.row_to_bitset(x), want, "node {}", x);
        }
    }

    #[test]
    fn scc_members_get_identical_sets(c in case()) {
        let (g, init) = setup(&c);
        let mut fast = init;
        digraph(&g, &mut fast);
        let scc = tarjan_scc(&g);
        for a in 0..c.n {
            for b in 0..c.n {
                if scc.same_component(a, b) {
                    prop_assert_eq!(fast.row_to_bitset(a), fast.row_to_bitset(b));
                }
            }
        }
    }

    #[test]
    fn digraph_is_monotone_in_init(c in case(), extra in prop::collection::vec((0usize..24, 0..COLS), 0..10)) {
        let (g, init) = setup(&c);
        let mut bigger = init.clone();
        for &(r, col) in &extra {
            if r < c.n {
                bigger.set(r, col);
            }
        }
        let mut f_small = init;
        let mut f_big = bigger;
        digraph(&g, &mut f_small);
        digraph(&g, &mut f_big);
        for x in 0..c.n {
            prop_assert!(f_small.row_to_bitset(x).is_subset(&f_big.row_to_bitset(x)));
        }
    }

    #[test]
    fn scc_count_plus_sizes_consistent(c in case()) {
        let (g, _) = setup(&c);
        let scc = tarjan_scc(&g);
        let sizes = scc.sizes();
        prop_assert_eq!(sizes.len(), scc.count());
        prop_assert_eq!(sizes.iter().sum::<usize>(), c.n);
        prop_assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn three_traversals_agree_on_random_relations(c in case()) {
        // naive fixpoint vs Tarjan-style DFS vs the counting DFS the
        // recorded pipeline runs: identical closures AND identical cycle
        // diagnostics, on graphs that include cyclic ones (edges are
        // unrestricted, so self-loops and multi-node cycles occur
        // routinely).
        let (g, init) = setup(&c);
        let mut slow = init.clone();
        naive_closure(&g, &mut slow);
        let mut dfs = init.clone();
        let dfs_stats = digraph(&g, &mut dfs);
        prop_assert_eq!(&dfs, &slow, "DFS closure != naive closure");
        let mut counted = init;
        let (counted_stats, _) = digraph_counting(&g, &mut counted);
        prop_assert_eq!(&counted, &slow, "counting closure != naive closure");
        prop_assert_eq!(&counted_stats, &dfs_stats, "counting stats diverge");
        prop_assert_eq!(&dfs_stats, &stats_from_sccs(&g), "stats disagree with Tarjan");
    }
}
