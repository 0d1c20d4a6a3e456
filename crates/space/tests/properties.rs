//! Property-based tests on the search-space substrate: genotype/graph
//! round-trips, DAG invariants, and cost-model monotonicity.

use proptest::prelude::*;

use nasflat_space::{Arch, Space, NB201_NUM_ARCHS};

fn nb201_genotype() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..5, 6)
}

fn fbnet_genotype() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..9, 22)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nb201_index_round_trip(idx in 0u64..NB201_NUM_ARCHS) {
        let a = Arch::nb201_from_index(idx);
        prop_assert_eq!(a.nb201_index(), idx);
        prop_assert_eq!(a.genotype().len(), 6);
    }

    #[test]
    fn nb201_graph_invariants(geno in nb201_genotype()) {
        let a = Arch::new(Space::Nb201, geno);
        let g = a.to_graph();
        prop_assert_eq!(g.num_nodes(), 8);
        // INPUT first, OUTPUT last
        prop_assert_eq!(g.ops()[0], 0);
        prop_assert_eq!(g.ops()[7], 1);
        // all edges forward; INPUT has no preds, OUTPUT no succs
        prop_assert!(g.preds(0).is_empty());
        prop_assert!(g.succs(7).is_empty());
        prop_assert!(g.longest_path() <= 7);
        // line-graph structure of the fixed cell: always the same adjacency
        // (INPUT feeds 3 edge-nodes, 3 edge-nodes feed OUTPUT, and the six
        // cell edges induce 4 edge-to-edge links: 10 total)
        prop_assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn fbnet_graph_is_a_chain(geno in fbnet_genotype()) {
        let a = Arch::new(Space::Fbnet, geno);
        let g = a.to_graph();
        prop_assert_eq!(g.num_nodes(), 24);
        prop_assert_eq!(g.num_edges(), 23);
        prop_assert_eq!(g.longest_path(), 23);
        for i in 1..23 {
            prop_assert_eq!(g.preds(i), vec![i - 1]);
        }
    }

    #[test]
    fn cost_profile_totals_are_sums(geno in nb201_genotype()) {
        let a = Arch::new(Space::Nb201, geno);
        let p = a.cost_profile();
        let sum_flops: f64 = p.node_costs.iter().map(|c| c.flops).sum();
        let sum_params: f64 = p.node_costs.iter().map(|c| c.params).sum();
        prop_assert!((p.total_flops - sum_flops).abs() < 1e-6);
        prop_assert!((p.total_params - sum_params).abs() < 1e-6);
        prop_assert!(p.node_costs.iter().all(|c| c.flops >= 0.0 && c.params >= 0.0 && c.mem >= 0.0));
    }

    #[test]
    fn upgrading_none_to_conv_increases_cost(geno in nb201_genotype(), slot in 0usize..6) {
        let mut lo = geno.clone();
        lo[slot] = 0; // none
        let mut hi = geno;
        hi[slot] = 3; // conv3x3
        let a = Arch::new(Space::Nb201, lo).cost_profile();
        let b = Arch::new(Space::Nb201, hi).cost_profile();
        prop_assert!(b.total_flops > a.total_flops);
        prop_assert!(b.total_params > a.total_params);
    }

    #[test]
    fn adjop_encoding_shape_and_onehot(geno in nb201_genotype()) {
        let a = Arch::new(Space::Nb201, geno);
        let enc = a.adjop_encoding();
        let n = 8;
        let vocab = Space::Nb201.vocab_size();
        prop_assert_eq!(enc.len(), n * n + n * vocab);
        // each one-hot block sums to exactly 1
        for node in 0..n {
            let block = &enc[n * n + node * vocab..n * n + (node + 1) * vocab];
            let s: f32 = block.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-6);
            prop_assert!(block.iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn propagation_matrix_rows_have_self_loops(geno in fbnet_genotype()) {
        let a = Arch::new(Space::Fbnet, geno);
        let g = a.to_graph();
        let n = g.num_nodes();
        let p = g.propagation_matrix();
        for i in 0..n {
            prop_assert_eq!(p[i * n + i], 1.0);
            // row i marks predecessors of i
            for j in 0..n {
                if i != j {
                    prop_assert_eq!(p[i * n + j] != 0.0, g.adj(j, i) != 0.0);
                }
            }
        }
    }

    #[test]
    fn op_desc_covers_whole_vocab(space_id in 0usize..2) {
        let space = if space_id == 0 { Space::Nb201 } else { Space::Fbnet };
        for vid in 0..space.vocab_size() {
            let d = space.op_desc(vid);
            prop_assert!(d.groups >= 1);
            prop_assert!((0.0..=1.0).contains(&d.dw_fraction));
        }
    }
}

/// The predictor stacks one cached propagation block per space and reads
/// node op ids straight from the genotype; both must agree with the graph
/// of every architecture it is asked about.
#[test]
fn shared_propagation_matrix_and_node_ops_match_every_graph() {
    let nb201: Vec<Arch> = (0..NB201_NUM_ARCHS).map(Arch::nb201_from_index).collect();
    let fbnet = nasflat_space::fbnet_pool(7, 1_000);
    assert_eq!((nb201.len(), fbnet.len()), (15_625, 1_000));
    for (space, archs) in [(Space::Nb201, nb201), (Space::Fbnet, fbnet)] {
        let shared = space.propagation_matrix();
        for a in &archs {
            let g = a.to_graph();
            assert_eq!(g.propagation_matrix(), shared, "{a:?}");
            assert_eq!(a.node_ops().collect::<Vec<_>>(), g.ops(), "{a:?}");
        }
    }
}
