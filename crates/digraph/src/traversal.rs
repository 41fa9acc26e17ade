//! The DeRemer–Pennello **Digraph** algorithm.
//!
//! Given a digraph `R` over nodes `0..n` and an array of initial sets
//! `F'(x)` (one [`lalr_bitset::BitMatrix`] row per node), compute in place
//! the smallest `F` with
//!
//! ```text
//! F(x) = F'(x) ∪ ⋃ { F(y) : x R y }
//! ```
//!
//! i.e. `F(x)` becomes the union of the initial sets of every node reachable
//! from `x`. The traversal is a single DFS that assigns every node of a
//! strongly connected component the same (complete) set, so the total work is
//! `O(n + m)` set operations — the efficiency claim at the heart of the
//! paper.

use lalr_bitset::BitMatrix;

use crate::Graph;

/// Sentinel marking a node whose component has been completed.
const INFINITY: u32 = u32::MAX;

/// Abstraction over the per-node set storage so that the same traversal can
/// run on bit-matrix rows (the paper's representation) or any alternative
/// (e.g. hash sets, for the representation ablation in experiment **E7**).
pub trait UnionSets {
    /// `F(dst) ∪= F(src)`.
    fn union(&mut self, dst: usize, src: usize);
    /// `F(dst) := F(src)` (used when collapsing a strongly connected
    /// component onto its root).
    fn assign(&mut self, dst: usize, src: usize);
}

/// Both operations bottom out in the width-dispatched row kernels of
/// `lalr_bitset::kernels` (and `assign` is a straight row copy with no
/// temporary allocation).
impl UnionSets for BitMatrix {
    fn union(&mut self, dst: usize, src: usize) {
        self.union_rows(dst, src);
    }

    fn assign(&mut self, dst: usize, src: usize) {
        self.copy_row(dst, src);
    }
}

/// Statistics reported by a Digraph run, used by experiment **E5** (relation
/// structure) and by the non-LR(k) cycle test on the `reads` relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DigraphStats {
    /// Total number of strongly connected components encountered.
    pub scc_count: usize,
    /// Number of components with more than one node.
    pub nontrivial_sccs: usize,
    /// Size of the largest component.
    pub max_scc_size: usize,
    /// Number of nodes on some cycle (member of a nontrivial component or
    /// carrying a self-loop).
    pub cyclic_nodes: usize,
}

impl DigraphStats {
    /// `true` when the relation contains a cycle (including self-loops).
    pub fn has_cycle(&self) -> bool {
        self.cyclic_nodes > 0
    }
}

/// Tallies from a counting traversal: the set operations behind the
/// "bitset OR operations" pipeline counter of the observability layer,
/// and the cycles the traversal closed. The counts are structural (one
/// per relation edge / component member / component), so they are
/// deterministic for a fixed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraversalCounts {
    /// Number of `F(dst) ∪= F(src)` row unions performed.
    pub unions: u64,
    /// Number of `F(dst) := F(src)` row copies (SCC collapses).
    pub assigns: u64,
    /// Components that are cycles: the nontrivial ones plus the
    /// single nodes with a self-loop. On `reads`, each one proves the
    /// grammar not LR(k).
    pub cycles: u64,
}

/// A [`UnionSets`] adapter that forwards to an inner store while
/// tallying every operation.
struct CountingSets<'a, S> {
    inner: &'a mut S,
    counts: TraversalCounts,
}

impl<S: UnionSets> UnionSets for CountingSets<'_, S> {
    fn union(&mut self, dst: usize, src: usize) {
        self.counts.unions += 1;
        self.inner.union(dst, src);
    }

    fn assign(&mut self, dst: usize, src: usize) {
        self.counts.assigns += 1;
        self.inner.assign(dst, src);
    }
}

/// [`digraph`] plus a [`TraversalCounts`] tally of the set operations it
/// performed and the cycles it closed. The resulting matrix and stats are
/// identical to [`digraph`]'s; the profiling layer uses this for its
/// OR-operation counters, and the analysis takes its relation statistics
/// from it instead of a second SCC pass.
pub fn digraph_counting(graph: &Graph, sets: &mut BitMatrix) -> (DigraphStats, TraversalCounts) {
    assert_eq!(
        sets.rows(),
        graph.node_count(),
        "one set row is required per graph node"
    );
    let mut counting = CountingSets {
        inner: sets,
        counts: TraversalCounts::default(),
    };
    let (stats, cycles) = traverse(graph, &mut counting, 0..graph.node_count());
    counting.counts.cycles = cycles;
    (stats, counting.counts)
}

/// Runs the Digraph algorithm over bit-matrix rows.
///
/// `sets` must have exactly one row per graph node; rows enter holding
/// `F'(x)` and leave holding `F(x)`.
///
/// # Panics
///
/// Panics if `sets.rows() != graph.node_count()`.
///
/// # Examples
///
/// ```
/// use lalr_bitset::BitMatrix;
/// use lalr_digraph::{digraph, Graph};
///
/// // A two-node cycle: both nodes end with the union of both initial sets.
/// let g = Graph::from_edges(2, [(0, 1), (1, 0)]);
/// let mut f = BitMatrix::new(2, 8);
/// f.set(0, 0);
/// f.set(1, 1);
/// let stats = digraph(&g, &mut f);
/// assert!(f.get(0, 1) && f.get(1, 0));
/// assert_eq!(stats.nontrivial_sccs, 1);
/// ```
pub fn digraph(graph: &Graph, sets: &mut BitMatrix) -> DigraphStats {
    assert_eq!(
        sets.rows(),
        graph.node_count(),
        "one set row is required per graph node"
    );
    digraph_on(graph, sets)
}

/// Runs the Digraph algorithm over any [`UnionSets`] store.
///
/// This is the generic entry point; see [`digraph`] for the bit-matrix
/// convenience wrapper and an example.
pub fn digraph_on<S: UnionSets>(graph: &Graph, sets: &mut S) -> DigraphStats {
    digraph_from_on(graph, sets, 0..graph.node_count())
}

/// Runs the Digraph algorithm starting only from `roots` (over bit-matrix
/// rows).
///
/// Only nodes reachable from some root are completed; unreached rows keep
/// their initial value. This is the paper's *selective* variant: when
/// look-aheads are needed only for the reductions of inadequate states, the
/// traversal is restricted to the relation nodes those reductions look back
/// to.
///
/// # Panics
///
/// Panics if `sets.rows() != graph.node_count()` or a root is out of range.
///
/// # Examples
///
/// ```
/// use lalr_bitset::BitMatrix;
/// use lalr_digraph::{digraph_from, Graph};
///
/// // 0 -> 1, 2 -> 1: starting from 0 leaves node 2 untouched.
/// let g = Graph::from_edges(3, [(0, 1), (2, 1)]);
/// let mut f = BitMatrix::new(3, 4);
/// f.set(1, 3);
/// digraph_from(&g, &mut f, [0]);
/// assert!(f.get(0, 3));
/// assert!(!f.get(2, 3), "node 2 was not traversed");
/// ```
pub fn digraph_from<I>(graph: &Graph, sets: &mut BitMatrix, roots: I) -> DigraphStats
where
    I: IntoIterator<Item = usize>,
{
    assert_eq!(
        sets.rows(),
        graph.node_count(),
        "one set row is required per graph node"
    );
    digraph_from_on(graph, sets, roots)
}

/// Generic root-restricted traversal; see [`digraph_from`].
pub fn digraph_from_on<S, I>(graph: &Graph, sets: &mut S, roots: I) -> DigraphStats
where
    S: UnionSets,
    I: IntoIterator<Item = usize>,
{
    traverse(graph, sets, roots).0
}

/// The traversal behind every entry point: its stats, and the number of
/// components that are cycles (see [`TraversalCounts::cycles`]).
fn traverse<S, I>(graph: &Graph, sets: &mut S, roots: I) -> (DigraphStats, u64)
where
    S: UnionSets,
    I: IntoIterator<Item = usize>,
{
    let n = graph.node_count();
    let mut cycles = 0u64;
    let mut index = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut stats = DigraphStats::default();

    struct Frame {
        node: u32,
        next_succ: u32,
        depth: u32,
    }
    let mut frames: Vec<Frame> = Vec::new();

    for root in roots {
        assert!(root < n, "root {root} out of range");
        if index[root] != 0 {
            continue;
        }
        stack.push(root as u32);
        index[root] = stack.len() as u32;
        frames.push(Frame {
            node: root as u32,
            next_succ: 0,
            depth: stack.len() as u32,
        });

        while let Some(frame) = frames.last_mut() {
            let x = frame.node as usize;
            let succs = graph.successors(x);
            if (frame.next_succ as usize) < succs.len() {
                let y = succs[frame.next_succ as usize] as usize;
                frame.next_succ += 1;
                if index[y] == 0 {
                    // Tree edge: descend.
                    stack.push(y as u32);
                    index[y] = stack.len() as u32;
                    frames.push(Frame {
                        node: y as u32,
                        next_succ: 0,
                        depth: stack.len() as u32,
                    });
                } else {
                    // Back / cross / forward edge (or self-loop).
                    index[x] = index[x].min(index[y]);
                    sets.union(x, y);
                }
            } else {
                // All successors of `x` processed.
                let depth = frame.depth;
                frames.pop();
                if index[x] == depth {
                    // `x` is the root of a completed component: pop it and
                    // assign every member the root's (now complete) set.
                    let mut size = 0usize;
                    loop {
                        let top = stack.pop().expect("stack holds the open component") as usize;
                        index[top] = INFINITY;
                        size += 1;
                        if top == x {
                            break;
                        }
                        sets.assign(top, x);
                    }
                    stats.scc_count += 1;
                    stats.max_scc_size = stats.max_scc_size.max(size);
                    if size > 1 {
                        stats.nontrivial_sccs += 1;
                        stats.cyclic_nodes += size;
                        cycles += 1;
                    } else if graph.has_self_loop(x) {
                        stats.cyclic_nodes += 1;
                        cycles += 1;
                    }
                }
                // Propagate low-link and set to the parent frame.
                if let Some(parent) = frames.last() {
                    let p = parent.node as usize;
                    index[p] = index[p].min(index[x]);
                    sets.union(p, x);
                }
            }
        }
    }
    (stats, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_bitset::BitMatrix;

    fn run(
        n: usize,
        cols: usize,
        edges: &[(usize, usize)],
        init: &[(usize, usize)],
    ) -> (BitMatrix, DigraphStats) {
        let g = Graph::from_edges(n, edges.iter().copied());
        let mut m = BitMatrix::new(n, cols);
        for &(r, c) in init {
            m.set(r, c);
        }
        let stats = digraph(&g, &mut m);
        (m, stats)
    }

    fn row(m: &BitMatrix, r: usize) -> Vec<usize> {
        m.iter_row(r).collect()
    }

    #[test]
    fn chain_accumulates_downstream_sets() {
        // 0 -> 1 -> 2, F'(i) = {i}
        let (m, stats) = run(3, 8, &[(0, 1), (1, 2)], &[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(row(&m, 0), vec![0, 1, 2]);
        assert_eq!(row(&m, 1), vec![1, 2]);
        assert_eq!(row(&m, 2), vec![2]);
        assert_eq!(stats.scc_count, 3);
        assert!(!stats.has_cycle());
    }

    #[test]
    fn cycle_members_share_one_set() {
        let (m, stats) = run(3, 8, &[(0, 1), (1, 2), (2, 0)], &[(0, 0), (1, 1), (2, 2)]);
        for r in 0..3 {
            assert_eq!(row(&m, r), vec![0, 1, 2]);
        }
        assert_eq!(stats.scc_count, 1);
        assert_eq!(stats.max_scc_size, 3);
        assert_eq!(stats.cyclic_nodes, 3);
    }

    #[test]
    fn scc_with_external_successor() {
        // {0,1} cycle -> 2; everything in the SCC sees F'(2).
        let (m, _) = run(3, 8, &[(0, 1), (1, 0), (1, 2)], &[(2, 7)]);
        assert_eq!(row(&m, 0), vec![7]);
        assert_eq!(row(&m, 1), vec![7]);
    }

    #[test]
    fn diamond_joins_at_bottom() {
        // 0 -> {1,2} -> 3
        let (m, stats) = run(
            4,
            8,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[(1, 1), (2, 2), (3, 3)],
        );
        assert_eq!(row(&m, 0), vec![1, 2, 3]);
        assert_eq!(row(&m, 3), vec![3]);
        assert_eq!(stats.scc_count, 4);
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        let (_, stats) = run(2, 4, &[(0, 0)], &[]);
        assert!(stats.has_cycle());
        assert_eq!(stats.nontrivial_sccs, 0);
        assert_eq!(stats.cyclic_nodes, 1);
    }

    #[test]
    fn disconnected_components_are_independent() {
        let (m, stats) = run(4, 8, &[(0, 1), (2, 3)], &[(1, 1), (3, 3)]);
        assert_eq!(row(&m, 0), vec![1]);
        assert_eq!(row(&m, 2), vec![3]);
        assert!(row(&m, 0) != row(&m, 2));
        assert_eq!(stats.scc_count, 4);
    }

    #[test]
    fn empty_graph_is_fine() {
        let (m, stats) = run(0, 4, &[], &[]);
        assert_eq!(m.rows(), 0);
        assert_eq!(stats.scc_count, 0);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 10_000-node chain exercises the iterative implementation.
        let n = 10_000;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(n, edges);
        let mut m = BitMatrix::new(n, 4);
        m.set(n - 1, 0);
        let stats = digraph(&g, &mut m);
        assert!(m.get(0, 0));
        assert_eq!(stats.scc_count, n);
    }

    #[test]
    fn counting_traversal_matches_and_tallies() {
        // A 3-cycle: the DFS performs one union per non-tree edge plus
        // one per parent propagation, and two assigns collapsing the
        // component onto its root.
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let mut plain = BitMatrix::new(3, 8);
        plain.set(1, 4);
        let mut counted = plain.clone();
        let plain_stats = digraph(&g, &mut plain);
        let (stats, counts) = digraph_counting(&g, &mut counted);
        assert_eq!(plain, counted, "counting adapter must not change results");
        assert_eq!(plain_stats, stats);
        assert_eq!(counts.assigns, 2, "two members collapse onto the root");
        assert_eq!(counts.unions, 3, "back edge + two parent propagations");
        assert_eq!(counts.cycles, 1);
    }

    #[test]
    fn cycles_count_nontrivial_components_and_self_loops() {
        // {0,1} is a cycle, 2 loops on itself, 3 is a plain singleton.
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 2), (2, 3)]);
        let mut m = BitMatrix::new(4, 4);
        let (stats, counts) = digraph_counting(&g, &mut m);
        assert_eq!(counts.cycles, 2);
        assert_eq!(stats.nontrivial_sccs, 1);
        assert_eq!(stats.cyclic_nodes, 3);
    }

    #[test]
    #[should_panic(expected = "one set row")]
    fn row_count_mismatch_panics() {
        let g = Graph::new(2);
        let mut m = BitMatrix::new(1, 4);
        digraph(&g, &mut m);
    }
}
