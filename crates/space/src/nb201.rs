//! NASBench-201 micro cell space (Dong & Yang 2020).
//!
//! A cell has 4 activation nodes; each of the 6 ordered node pairs carries
//! one of 5 operations. The assembled network is: stem (16 channels), three
//! stages of 5 cells at 16/32/64 channels and 32/16/8 spatial resolution,
//! then pooling and a classifier.

use crate::cost::{CostProfile, OpCost};
use crate::graph::{node_ops, ArchGraph};

/// The five NB201 edge operations, indexed by genotype value.
pub const NB201_OPS: &[&str] = &[
    "none",
    "skip_connect",
    "nor_conv_1x1",
    "nor_conv_3x3",
    "avg_pool_3x3",
];

/// Cell edges `(tail, head)` in canonical NB201 order.
pub const NB201_EDGES: &[(usize, usize)] = &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)];

/// Total number of architectures: 5^6.
pub const NB201_NUM_ARCHS: u64 = 15_625;

/// Genotype op ids.
const OP_NONE: u8 = 0;
const OP_SKIP: u8 = 1;
const OP_CONV1X1: u8 = 2;
const OP_CONV3X3: u8 = 3;
const OP_AVGPOOL: u8 = 4;

/// (channels, spatial, cell repetitions) for the three stages.
const STAGES: &[(f64, f64, f64)] = &[(16.0, 32.0, 5.0), (32.0, 16.0, 5.0), (64.0, 8.0, 5.0)];

/// Converts a 6-op genotype to the operation-on-nodes line graph:
/// `INPUT` + one node per edge + `OUTPUT` (8 nodes).
pub fn to_graph(genotype: &[u8]) -> ArchGraph {
    assert_eq!(genotype.len(), NB201_EDGES.len());
    let n = NB201_EDGES.len() + 2;
    let out_node = n - 1;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (i, &(tail, head)) in NB201_EDGES.iter().enumerate() {
        let node = i + 1;
        if tail == 0 {
            edges.push((0, node));
        }
        if head == 3 {
            edges.push((node, out_node));
        }
        for (j, &(tail2, _)) in NB201_EDGES.iter().enumerate() {
            if tail2 == head {
                // i's edge feeds j's edge through cell node `head`
                edges.push((node, j + 1));
            }
        }
    }
    ArchGraph::new(n, &edges, node_ops(genotype).collect())
}

/// Cost of one edge op at `c` channels and `s×s` spatial resolution.
fn edge_cost(op: u8, c: f64, s: f64) -> OpCost {
    let hw = s * s;
    match op {
        OP_NONE => OpCost::ZERO,
        OP_SKIP => OpCost {
            flops: 0.0,
            params: 0.0,
            mem: c * hw,
        },
        OP_CONV1X1 => OpCost {
            flops: c * c * hw,
            params: c * c + 2.0 * c,
            mem: 2.0 * c * hw,
        },
        OP_CONV3X3 => OpCost {
            flops: 9.0 * c * c * hw,
            params: 9.0 * c * c + 2.0 * c,
            mem: 2.0 * c * hw,
        },
        OP_AVGPOOL => OpCost {
            flops: 9.0 * c * hw,
            params: 0.0,
            mem: 2.0 * c * hw,
        },
        _ => unreachable!("invalid NB201 op id {op}"),
    }
}

/// Per-node cost profile over the whole assembled network (edge costs are
/// summed over every stage and cell repetition).
pub fn cost_profile(genotype: &[u8]) -> CostProfile {
    let n = NB201_EDGES.len() + 2;
    let mut node_costs = vec![OpCost::ZERO; n];
    for (i, &op) in genotype.iter().enumerate() {
        let mut total = OpCost::ZERO;
        for &(c, s, reps) in STAGES {
            total = total + edge_cost(op, c, s).scale(reps);
        }
        node_costs[i + 1] = total;
    }
    CostProfile::from_nodes(node_costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shape() {
        let g = to_graph(&[3, 3, 3, 3, 3, 3]);
        assert_eq!(g.num_nodes(), 8);
        // INPUT feeds edges with tail 0: line nodes 1, 2, 4.
        assert_eq!(g.succs(0), vec![1, 2, 4]);
        // Edges with head 3 feed OUTPUT: line nodes 4, 5, 6.
        assert_eq!(g.preds(7), vec![4, 5, 6]);
        // Edge (0,1) feeds edges with tail 1: (1,2) -> node 3, (1,3) -> node 5.
        assert_eq!(g.succs(1), vec![3, 5]);
    }

    #[test]
    fn longest_path_three_hops() {
        // (0,1) -> (1,2) -> (2,3) plus INPUT/OUTPUT = 4 hops
        let g = to_graph(&[3, 0, 3, 0, 0, 3]);
        assert_eq!(g.longest_path(), 4);
    }

    #[test]
    fn all_none_costs_nothing() {
        let p = cost_profile(&[0; 6]);
        assert_eq!(p.total_flops, 0.0);
        assert_eq!(p.total_params, 0.0);
    }

    #[test]
    fn conv3x3_is_nine_times_conv1x1_flops() {
        let p1 = cost_profile(&[OP_CONV1X1, 0, 0, 0, 0, 0]);
        let p3 = cost_profile(&[OP_CONV3X3, 0, 0, 0, 0, 0]);
        assert!((p3.total_flops / p1.total_flops - 9.0).abs() < 1e-9);
    }

    #[test]
    fn pool_has_no_params() {
        let p = cost_profile(&[OP_AVGPOOL; 6]);
        assert_eq!(p.total_params, 0.0);
        assert!(p.total_flops > 0.0);
    }

    #[test]
    fn node_costs_align_with_graph() {
        let p = cost_profile(&[3, 0, 1, 2, 4, 0]);
        assert_eq!(p.node_costs.len(), 8);
        assert_eq!(p.node_costs[0], OpCost::ZERO); // INPUT
        assert_eq!(p.node_costs[7], OpCost::ZERO); // OUTPUT
        assert_eq!(p.node_costs[2], OpCost::ZERO); // none edge
        assert!(p.node_costs[1].flops > 0.0); // conv3x3 edge
    }
}
