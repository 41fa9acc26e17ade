//! Compact compressed-sparse-row digraph.

use std::fmt;

/// A directed graph over nodes `0..n`, stored in compressed sparse row
/// (CSR) form: the successors of `u` are
/// `targets[offsets[u] .. offsets[u + 1]]`.
///
/// A graph is built once, from an edge list, by a stable counting sort on
/// the source: every node's successors keep the order in which their
/// edges were listed. The whole adjacency is two allocations, however many
/// nodes the graph has. Nodes are plain indices so callers (the relation
/// builders in `lalr-core`) can index them into parallel arrays of sets.
///
/// # Examples
///
/// ```
/// use lalr_digraph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 2), (1, 0), (0, 1)]);
/// assert_eq!(g.successors(0), &[2, 1]);
/// assert_eq!(g.edge_count(), 3);
///
/// // The deduplicating constructor keeps the first occurrence of an edge.
/// let d = Graph::from_edges_dedup(2, [(0, 1), (1, 1), (0, 1)]);
/// assert_eq!(d.successors(0), &[1]);
/// assert_eq!(d.edge_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `n + 1` row boundaries into `targets`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds a graph from an edge list. Parallel edges are kept, and each
    /// node's successors are in list order. The list is walked twice, to
    /// count and then to place the edges, so it is never copied.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: Clone,
    {
        Graph::build(n, edges.into_iter(), false)
    }

    /// Builds a graph from an edge list, keeping only the first occurrence
    /// of each edge. Each node's successors are in the order of their
    /// first occurrence. The list is walked twice, as by
    /// [`Graph::from_edges`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges_dedup<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: Clone,
    {
        Graph::build(n, edges.into_iter(), true)
    }

    /// Takes a graph already in CSR form: node `u`'s successors are
    /// `targets[offsets[u] .. offsets[u + 1]]`, so there are
    /// `offsets.len() - 1` nodes. For builders that produce their rows in
    /// node order; nothing is copied or sorted.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, does not start at 0, decreases, or
    /// does not end at `targets.len()`, or if a target is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use lalr_digraph::Graph;
    ///
    /// let g = Graph::from_csr(vec![0, 2, 2, 3], vec![2, 1, 0]);
    /// assert_eq!(g, Graph::from_edges(3, [(0, 2), (0, 1), (2, 0)]));
    /// ```
    pub fn from_csr(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets never decrease"
        );
        assert_eq!(
            offsets[offsets.len() - 1] as usize,
            targets.len(),
            "offsets end at the target count"
        );
        let n = offsets.len() - 1;
        if let Some(&v) = targets.iter().find(|&&v| v as usize >= n) {
            panic!("target {v} out of range");
        }
        Graph { offsets, targets }
    }

    fn build(n: usize, edges: impl Iterator<Item = (usize, usize)> + Clone, dedup: bool) -> Self {
        // Stable counting sort by source: count, prefix-sum, scatter with
        // `offsets[u]` as row `u`'s cursor, then shift the cursors (which
        // end on the next row's start) back into row starts.
        let mut offsets = vec![0u32; n + 1];
        for (u, v) in edges.clone() {
            assert!(u < n, "source {u} out of range");
            assert!(v < n, "target {v} out of range");
            offsets[u + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        for (u, v) in edges {
            let cursor = &mut offsets[u];
            targets[*cursor as usize] = v as u32;
            *cursor += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        if dedup {
            // Compact in place; `seen[v] == u` marks `u -> v` as kept.
            let mut seen = vec![u32::MAX; n];
            let mut kept = 0u32;
            for u in 0..n {
                let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
                offsets[u] = kept;
                for k in lo..hi {
                    let v = targets[k];
                    if seen[v as usize] != u as u32 {
                        seen[v as usize] = u as u32;
                        targets[kept as usize] = v;
                        kept += 1;
                    }
                }
            }
            offsets[n] = kept;
            targets.truncate(kept as usize);
        }
        Graph { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (parallel edges counted individually).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// The successors of `u`, in edge-list order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn successors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Iterates over all edges as `(source, target)` pairs, by source.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + Clone + '_ {
        let mut u = 0;
        self.targets.iter().enumerate().map(move |(k, &v)| {
            while self.offsets[u + 1] as usize <= k {
                u += 1;
            }
            (u, v as usize)
        })
    }

    /// The graph with every edge reversed.
    pub fn reversed(&self) -> Graph {
        Graph::from_edges(self.node_count(), self.edges().map(|(u, v)| (v, u)))
    }

    /// Returns `true` if node `u` has an edge to itself.
    pub fn has_self_loop(&self, u: usize) -> bool {
        self.successors(u).contains(&(u as u32))
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn out_degree(&self, u: usize) -> usize {
        self.successors(u).len()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.node_count(), self.edge_count())?;
        for u in 0..self.node_count() {
            let vs = self.successors(u);
            if !vs.is_empty() {
                write!(f, " {u}->{vs:?}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (1, 3)]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.successors(1), &[2, 3]);
        assert_eq!(g.successors(3), &[] as &[u32]);
        assert_eq!(g.out_degree(1), 2);
    }

    #[test]
    fn successors_keep_edge_list_order() {
        let g = Graph::from_edges(3, [(2, 1), (0, 2), (2, 0), (0, 1), (2, 1)]);
        assert_eq!(g.successors(0), &[2, 1]);
        assert_eq!(g.successors(1), &[] as &[u32]);
        assert_eq!(g.successors(2), &[1, 0, 1]);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn dedup_keeps_first_occurrences() {
        let g = Graph::from_edges_dedup(3, [(0, 2), (1, 0), (0, 1), (0, 2), (1, 0), (0, 1)]);
        assert_eq!(g.successors(0), &[2, 1]);
        assert_eq!(g.successors(1), &[0]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "target 2 out of range")]
    fn out_of_range_endpoints_panic() {
        let _ = Graph::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn csr_rows_are_taken_as_given() {
        let g = Graph::from_csr(vec![0, 0, 3], vec![1, 0, 1]);
        assert_eq!(g.successors(0), &[] as &[u32]);
        assert_eq!(g.successors(1), &[1, 0, 1]);
        assert_eq!(Graph::from_csr(vec![0], Vec::new()), Graph::new(0));
    }

    #[test]
    #[should_panic(expected = "target 2 out of range")]
    fn csr_targets_are_checked() {
        let _ = Graph::from_csr(vec![0, 1, 1], vec![2]);
    }

    #[test]
    #[should_panic(expected = "offsets never decrease")]
    fn csr_offsets_are_checked() {
        let _ = Graph::from_csr(vec![0, 2, 1], vec![0, 0]);
    }

    #[test]
    fn reversal_swaps_endpoints() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let r = g.reversed();
        assert_eq!(r.successors(1), &[0]);
        assert_eq!(r.successors(2), &[1]);
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn self_loops_detected() {
        let g = Graph::from_edges(2, [(0, 0), (0, 1)]);
        assert!(g.has_self_loop(0));
        assert!(!g.has_self_loop(1));
    }

    #[test]
    fn edges_iterator_lists_all() {
        let g = Graph::from_edges(3, [(2, 0), (0, 1)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.edges().count(), 0);
        assert_eq!(Graph::default(), g);
    }
}
