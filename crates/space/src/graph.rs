//! Operation-on-nodes DAG ("line graph") representation.
//!
//! Both spaces put operations on *edges* (NB201) or in a *chain* (FBNet);
//! GNN predictors want operations on *nodes*. The conversion follows
//! BRP-NAS: every operation becomes a node, plus distinguished `INPUT`
//! (op id 0) and `OUTPUT` (op id 1) nodes; an edge `u→v` exists when the
//! output of operation `u` feeds operation `v`.

/// Special op id for the graph input node.
pub(crate) const OP_INPUT: usize = 0;
/// Special op id for the graph output node.
pub(crate) const OP_OUTPUT: usize = 1;
/// First op id available to real operations.
pub(crate) const OP_BASE: usize = 2;

/// Operation ids of a genotype's line-graph nodes: `INPUT`, one node per
/// genotype op, `OUTPUT` (the node order of both spaces' graphs).
pub(crate) fn node_ops(genotype: &[u8]) -> impl Iterator<Item = usize> + '_ {
    std::iter::once(OP_INPUT)
        .chain(genotype.iter().map(|&g| OP_BASE + g as usize))
        .chain(std::iter::once(OP_OUTPUT))
}

/// A DAG with one operation id per node and a dense adjacency matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchGraph {
    num_nodes: usize,
    /// Row-major `num_nodes × num_nodes`; `adj[i*n + j] = 1.0` iff `i → j`.
    adj: Vec<f32>,
    /// Operation vocabulary index per node (including INPUT/OUTPUT).
    ops: Vec<usize>,
}

impl ArchGraph {
    /// Builds a graph from an edge list.
    ///
    /// # Panics
    /// Panics if any edge endpoint or op id is out of range, or if an edge
    /// is not forward (`u >= v`), which would make the graph cyclic.
    pub fn new(num_nodes: usize, edges: &[(usize, usize)], ops: Vec<usize>) -> Self {
        assert_eq!(ops.len(), num_nodes, "one op per node required");
        let mut adj = vec![0.0f32; num_nodes * num_nodes];
        for &(u, v) in edges {
            assert!(u < num_nodes && v < num_nodes, "edge endpoint out of range");
            assert!(
                u < v,
                "edges must be topologically forward (got {u} -> {v})"
            );
            adj[u * num_nodes + v] = 1.0;
        }
        ArchGraph {
            num_nodes,
            adj,
            ops,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adjacency entry `i → j` as 0.0/1.0.
    pub fn adj(&self, i: usize, j: usize) -> f32 {
        self.adj[i * self.num_nodes + j]
    }

    /// Operation id per node.
    pub fn ops(&self) -> &[usize] {
        &self.ops
    }

    /// Predecessors of node `j` in index order.
    pub fn preds(&self, j: usize) -> Vec<usize> {
        (0..self.num_nodes)
            .filter(|&i| self.adj(i, j) != 0.0)
            .collect()
    }

    /// Successors of node `i` in index order.
    pub fn succs(&self, i: usize) -> Vec<usize> {
        (0..self.num_nodes)
            .filter(|&j| self.adj(i, j) != 0.0)
            .collect()
    }

    /// Length (in op nodes) of the longest INPUT→OUTPUT path; a depth
    /// measure used by zero-cost proxies.
    pub fn longest_path(&self) -> usize {
        let n = self.num_nodes;
        let mut dist = vec![0usize; n];
        for j in 0..n {
            for i in 0..j {
                if self.adj(i, j) != 0.0 {
                    dist[j] = dist[j].max(dist[i] + 1);
                }
            }
        }
        dist[n - 1]
    }

    /// Maximum number of nodes at the same depth ("width" proxy).
    pub fn max_width(&self) -> usize {
        let n = self.num_nodes;
        let mut depth = vec![0usize; n];
        for j in 0..n {
            for i in 0..j {
                if self.adj(i, j) != 0.0 {
                    depth[j] = depth[j].max(depth[i] + 1);
                }
            }
        }
        let maxd = depth.iter().copied().max().unwrap_or(0);
        (0..=maxd)
            .map(|d| depth.iter().filter(|&&x| x == d).count())
            .max()
            .unwrap_or(1)
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().filter(|&&a| a != 0.0).count()
    }

    /// The `Aᵀ + I` propagation matrix used by GCN-style modules: row `i`
    /// has ones at `i`'s *predecessors* and itself, so `P · X` aggregates
    /// each node's features from the nodes feeding it (GATES-style forward
    /// information flow, ending at the OUTPUT node used for readout).
    pub fn propagation_matrix(&self) -> Vec<f32> {
        let n = self.num_nodes;
        let mut m = vec![0.0f32; n * n];
        for i in 0..n {
            m[i * n + i] = 1.0;
            for j in 0..n {
                if self.adj[j * n + i] != 0.0 {
                    m[i * n + j] = 1.0;
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> ArchGraph {
        // INPUT -> op -> OUTPUT
        ArchGraph::new(3, &[(0, 1), (1, 2)], vec![OP_INPUT, OP_BASE, OP_OUTPUT])
    }

    #[test]
    fn adjacency_and_neighbours() {
        let g = chain3();
        assert_eq!(g.adj(0, 1), 1.0);
        assert_eq!(g.adj(1, 0), 0.0);
        assert_eq!(g.preds(2), vec![1]);
        assert_eq!(g.succs(0), vec![1]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn longest_path_of_chain() {
        assert_eq!(chain3().longest_path(), 2);
    }

    #[test]
    fn width_of_diamond() {
        // 0 -> {1,2} -> 3
        let g = ArchGraph::new(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![OP_INPUT, OP_BASE, OP_BASE, OP_OUTPUT],
        );
        assert_eq!(g.max_width(), 2);
        assert_eq!(g.longest_path(), 2);
    }

    #[test]
    #[should_panic(expected = "topologically forward")]
    fn rejects_backward_edges() {
        let _ = ArchGraph::new(3, &[(2, 1)], vec![OP_INPUT, OP_BASE, OP_OUTPUT]);
    }

    #[test]
    fn propagation_matrix_aggregates_from_predecessors() {
        let g = chain3();
        let p = g.propagation_matrix();
        for i in 0..3 {
            assert_eq!(p[i * 3 + i], 1.0, "self-loop at {i}");
        }
        // node 1's row has a one at its predecessor 0
        assert_eq!(p[3], 1.0);
        // node 0 (INPUT) has no predecessors besides itself
        assert_eq!(p[1], 0.0);
        assert_eq!(p[2], 0.0);
        // the OUTPUT node sees its predecessor 1
        assert_eq!(p[2 * 3 + 1], 1.0);
    }
}
