//! Condensation (SCC quotient graph).

use crate::{tarjan_scc, Graph, SccInfo};

/// The quotient of a graph by its strongly connected components.
///
/// Used by the relation-structure experiment (**E5**) to report how cyclic
/// the `reads` and `includes` relations are on real grammars, and by the
/// non-LR(k) diagnosis to name the offending component.
///
/// # Examples
///
/// ```
/// use lalr_digraph::{Condensation, Graph};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
/// let c = Condensation::of(&g);
/// assert_eq!(c.graph().node_count(), 2);
/// assert!(c.graph().edge_count() == 1);
/// assert!(c.is_dag_nontrivial() == false || c.scc().count() < 3);
/// ```
#[derive(Debug, Clone)]
pub struct Condensation {
    scc: SccInfo,
    graph: Graph,
}

impl Condensation {
    /// Computes the condensation of `graph`.
    pub fn of(graph: &Graph) -> Self {
        let scc = tarjan_scc(graph);
        let quotient = Graph::from_edges_dedup(
            scc.count(),
            graph.edges().filter_map(|(u, v)| {
                let (cu, cv) = (scc.component(u), scc.component(v));
                (cu != cv).then_some((cu, cv))
            }),
        );
        Condensation {
            scc,
            graph: quotient,
        }
    }

    /// The component structure.
    pub fn scc(&self) -> &SccInfo {
        &self.scc
    }

    /// The quotient graph (always a DAG).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// `true` when the original graph had at least one nontrivial component,
    /// i.e. it was *not* already a DAG of singletons (ignoring self-loops).
    pub fn is_dag_nontrivial(&self) -> bool {
        self.scc.sizes().iter().any(|&s| s > 1)
    }

    /// A topological order of the component ids (sources first).
    ///
    /// Tarjan numbers components in reverse topological order, so this is
    /// simply descending id order.
    pub fn topological_components(&self) -> Vec<usize> {
        (0..self.scc.count()).rev().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condensation_is_acyclic() {
        let g = Graph::from_edges(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]);
        let c = Condensation::of(&g);
        assert_eq!(c.scc().count(), 3);
        // Re-condensing the quotient must be the identity partition.
        let c2 = Condensation::of(c.graph());
        assert_eq!(c2.scc().count(), c.graph().node_count());
        assert!(c.is_dag_nontrivial());
    }

    #[test]
    fn quotient_edges_are_deduped() {
        // Two parallel inter-component edges collapse to one.
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)]);
        let c = Condensation::of(&g);
        assert_eq!(c.graph().edge_count(), 2);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let c = Condensation::of(&g);
        let order = c.topological_components();
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (i, &c) in order.iter().enumerate() {
                p[c] = i;
            }
            p
        };
        for (u, v) in c.graph().edges() {
            assert!(pos[u] < pos[v], "edge {u}->{v} violates topo order");
        }
    }
}
