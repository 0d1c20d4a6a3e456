//! FBNet macro space (Wu et al. 2019).
//!
//! A fixed macro skeleton with 22 searchable block positions; each position
//! picks one of 9 candidate blocks (MBConv variants differing in kernel
//! size, expansion ratio, and grouping, plus a skip block). Following
//! HW-NAS-Bench, latency experiments run on a fixed pool of sampled
//! architectures rather than the full ~9^22 space.

use rand::Rng;
use std::collections::HashSet;

use crate::arch::{Arch, Space};
use crate::cost::{CostProfile, OpCost};
use crate::graph::{node_ops, ArchGraph};

/// The nine FBNet candidate blocks, indexed by genotype value.
pub const FBNET_BLOCKS: &[&str] = &[
    "k3_e1", "k3_e1_g2", "k3_e3", "k3_e6", "k5_e1", "k5_e1_g2", "k5_e3", "k5_e6", "skip",
];

/// Number of searchable block positions.
pub const FBNET_POSITIONS: usize = 22;

/// One stage of the FBNet macro skeleton.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbnetStage {
    /// Searchable blocks in this stage.
    pub blocks: usize,
    /// Output channels of every block in the stage.
    pub channels: f64,
    /// Stride of the first block in the stage.
    pub stride: usize,
}

/// The macro skeleton: 22 searchable positions across 7 stages
/// (channel progression follows the FBNet paper).
pub const FBNET_STAGES: &[FbnetStage] = &[
    FbnetStage {
        blocks: 1,
        channels: 16.0,
        stride: 1,
    },
    FbnetStage {
        blocks: 4,
        channels: 24.0,
        stride: 2,
    },
    FbnetStage {
        blocks: 4,
        channels: 32.0,
        stride: 2,
    },
    FbnetStage {
        blocks: 4,
        channels: 64.0,
        stride: 2,
    },
    FbnetStage {
        blocks: 4,
        channels: 112.0,
        stride: 1,
    },
    FbnetStage {
        blocks: 4,
        channels: 184.0,
        stride: 2,
    },
    FbnetStage {
        blocks: 1,
        channels: 352.0,
        stride: 1,
    },
];

/// Input spatial resolution at the first searchable block.
const INPUT_SPATIAL: f64 = 32.0;
/// Channels entering the first searchable block (stem output).
const STEM_CHANNELS: f64 = 16.0;

/// Per-position `(c_in, c_out, stride, spatial_in)` derived from the stages.
pub(crate) fn position_configs() -> Vec<(f64, f64, usize, f64)> {
    let mut out = Vec::with_capacity(FBNET_POSITIONS);
    let mut c_in = STEM_CHANNELS;
    let mut spatial = INPUT_SPATIAL;
    for stage in FBNET_STAGES {
        for b in 0..stage.blocks {
            let stride = if b == 0 { stage.stride } else { 1 };
            out.push((c_in, stage.channels, stride, spatial));
            if stride == 2 {
                spatial /= 2.0;
            }
            c_in = stage.channels;
        }
    }
    debug_assert_eq!(out.len(), FBNET_POSITIONS);
    out
}

/// Decodes a block id to `(kernel, expansion, groups, is_skip)`.
pub(crate) fn block_params(block: u8) -> (f64, f64, f64, bool) {
    match block {
        0 => (3.0, 1.0, 1.0, false),
        1 => (3.0, 1.0, 2.0, false),
        2 => (3.0, 3.0, 1.0, false),
        3 => (3.0, 6.0, 1.0, false),
        4 => (5.0, 1.0, 1.0, false),
        5 => (5.0, 1.0, 2.0, false),
        6 => (5.0, 3.0, 1.0, false),
        7 => (5.0, 6.0, 1.0, false),
        8 => (0.0, 0.0, 1.0, true),
        _ => unreachable!("invalid FBNet block id {block}"),
    }
}

/// Converts a 22-block genotype into the chain graph
/// `INPUT → b1 → … → b22 → OUTPUT` (24 nodes).
pub fn to_graph(genotype: &[u8]) -> ArchGraph {
    assert_eq!(genotype.len(), FBNET_POSITIONS);
    let n = FBNET_POSITIONS + 2;
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    ArchGraph::new(n, &edges, node_ops(genotype).collect())
}

/// Cost of one block at a position config.
fn block_cost(block: u8, c_in: f64, c_out: f64, stride: usize, spatial_in: f64) -> OpCost {
    let (k, e, g, is_skip) = block_params(block);
    let s_out = if stride == 2 {
        spatial_in / 2.0
    } else {
        spatial_in
    };
    let hw_in = spatial_in * spatial_in;
    let hw_out = s_out * s_out;
    if is_skip {
        if c_in == c_out && stride == 1 {
            return OpCost {
                flops: 0.0,
                params: 0.0,
                mem: c_in * hw_in,
            };
        }
        // Shape-changing skip needs a 1x1 projection.
        return OpCost {
            flops: c_in * c_out * hw_out,
            params: c_in * c_out,
            mem: (c_in * hw_in + c_out * hw_out),
        };
    }
    let c_mid = c_in * e;
    let mut flops = 0.0;
    let mut params = 0.0;
    if e > 1.0 {
        // 1x1 expansion (grouped)
        flops += c_in * c_mid / g * hw_in;
        params += c_in * c_mid / g;
    }
    // depthwise kxk
    flops += k * k * c_mid * hw_out;
    params += k * k * c_mid;
    // 1x1 projection (grouped)
    flops += c_mid * c_out / g * hw_out;
    params += c_mid * c_out / g;
    // batch norms
    params += 2.0 * (c_mid + c_out);
    OpCost {
        flops,
        params,
        mem: c_in * hw_in + c_mid * hw_out + c_out * hw_out,
    }
}

/// Per-node cost profile over the 24-node chain graph.
pub fn cost_profile(genotype: &[u8]) -> CostProfile {
    assert_eq!(genotype.len(), FBNET_POSITIONS);
    let configs = position_configs();
    let mut node_costs = vec![OpCost::ZERO; FBNET_POSITIONS + 2];
    for (i, (&block, &(c_in, c_out, stride, spatial))) in
        genotype.iter().zip(configs.iter()).enumerate()
    {
        node_costs[i + 1] = block_cost(block, c_in, c_out, stride, spatial);
    }
    CostProfile::from_nodes(node_costs)
}

/// Deterministic pool of `n` unique FBNet architectures (the HW-NAS-Bench
/// style 5 000-architecture latency subset).
pub fn fbnet_pool(seed: u64, n: usize) -> Vec<Arch> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(n);
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let geno: Vec<u8> = (0..FBNET_POSITIONS)
            .map(|_| rng.random_range(0..FBNET_BLOCKS.len()) as u8)
            .collect();
        if seen.insert(geno.clone()) {
            pool.push(Arch::new(Space::Fbnet, geno));
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_configs_cover_all_positions() {
        let cfgs = position_configs();
        assert_eq!(cfgs.len(), FBNET_POSITIONS);
        // spatial shrinks across stride-2 stages: 32 -> 16 -> 8 -> 4 -> 4 -> 2
        assert_eq!(cfgs[0].3, 32.0);
        assert_eq!(cfgs.last().unwrap().3, 2.0);
        // channels ramp up
        assert_eq!(cfgs[0].0, 16.0);
        assert_eq!(cfgs.last().unwrap().1, 352.0);
    }

    #[test]
    fn chain_graph_shape() {
        let g = to_graph(&[0; FBNET_POSITIONS]);
        assert_eq!(g.num_nodes(), 24);
        assert_eq!(g.num_edges(), 23);
        assert_eq!(g.longest_path(), 23);
    }

    #[test]
    fn expansion_increases_cost() {
        let lo = cost_profile(&[0; FBNET_POSITIONS]); // k3_e1
        let hi = cost_profile(&[3; FBNET_POSITIONS]); // k3_e6
        assert!(hi.total_flops > 3.0 * lo.total_flops);
        assert!(hi.total_params > lo.total_params);
    }

    #[test]
    fn grouping_reduces_cost() {
        let dense = cost_profile(&[0; FBNET_POSITIONS]); // k3_e1 g1
        let grouped = cost_profile(&[1; FBNET_POSITIONS]); // k3_e1 g2
        assert!(grouped.total_flops < dense.total_flops);
    }

    #[test]
    fn skip_blocks_are_cheap_where_shapes_match() {
        let mut geno = vec![3u8; FBNET_POSITIONS];
        // position 2 is a non-first block of stage 2: c_in == c_out, stride 1
        geno[2] = 8;
        let with_skip = cost_profile(&geno);
        let without = cost_profile(&[3; FBNET_POSITIONS]);
        assert!(with_skip.total_flops < without.total_flops);
        assert_eq!(with_skip.node_costs[3].params, 0.0);
    }

    #[test]
    fn pool_is_unique_and_deterministic() {
        let a = fbnet_pool(42, 500);
        let b = fbnet_pool(42, 500);
        assert_eq!(a, b);
        let set: HashSet<_> = a.iter().map(|x| x.genotype().to_vec()).collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn kernel5_costs_more_than_kernel3() {
        let k3 = cost_profile(&[2; FBNET_POSITIONS]); // k3_e3
        let k5 = cost_profile(&[6; FBNET_POSITIONS]); // k5_e3
        assert!(k5.total_flops > k3.total_flops);
    }
}
