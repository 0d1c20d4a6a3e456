//! Finite-difference gradient checks for every differentiable op.
//!
//! Each check builds the same scalar-valued computation twice: once through
//! the tape to get analytic gradients, and once per perturbed input element
//! to get central-difference numeric gradients.

use nasflat_tensor::{mse_loss_stacked, pairwise_hinge_loss_stacked, Graph, Tensor, Var};
use proptest::prelude::*;

/// Builds the computation on a fresh tape and returns (graph, leaves, root).
type Builder = dyn Fn(&mut Graph, &[Tensor]) -> (Vec<Var>, Var);

fn check_grads(build: &Builder, inputs: &[Tensor], tol: f32) {
    // Analytic.
    let mut g = Graph::new();
    let (leaves, root) = build(&mut g, inputs);
    assert_eq!(leaves.len(), inputs.len());
    g.backward(root);
    let analytic: Vec<Tensor> = leaves.iter().map(|&v| g.grad(v).clone()).collect();

    // Numeric (central differences).
    let h = 1e-2f32;
    for (ti, input) in inputs.iter().enumerate() {
        for k in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[ti].data_mut()[k] += h;
            let mut minus = inputs.to_vec();
            minus[ti].data_mut()[k] -= h;
            let eval = |ins: &[Tensor]| -> f32 {
                let mut g = Graph::new();
                let (_, root) = build(&mut g, ins);
                g.value(root).item()
            };
            let num = (eval(&plus) - eval(&minus)) / (2.0 * h);
            let ana = analytic[ti].data()[k];
            let denom = 1.0f32.max(num.abs()).max(ana.abs());
            assert!(
                (num - ana).abs() / denom < tol,
                "input {ti} elem {k}: numeric {num} vs analytic {ana}"
            );
        }
    }
}

fn leaves(g: &mut Graph, inputs: &[Tensor]) -> Vec<Var> {
    inputs.iter().map(|t| g.leaf(t.clone())).collect()
}

#[test]
fn grad_matmul_chain() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let y = g.matmul(ls[0], ls[1]);
        let s = g.sum_all(y);
        (ls, s)
    });
    let a = Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.3, 0.7, -0.2]);
    let b = Tensor::from_vec(3, 2, vec![1.0, 0.5, -0.5, 0.2, 0.8, -1.5]);
    check_grads(&build, &[a, b], 1e-2);
}

#[test]
fn grad_sigmoid_tanh_mix() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let s = g.sigmoid(ls[0]);
        let t = g.tanh(ls[1]);
        let m = g.mul(s, t);
        let out = g.sum_all(m);
        (ls, out)
    });
    let a = Tensor::from_vec(2, 2, vec![0.4, -0.9, 1.3, 0.0]);
    let b = Tensor::from_vec(2, 2, vec![-0.2, 0.8, 0.1, -1.1]);
    check_grads(&build, &[a, b], 1e-2);
}

#[test]
fn grad_leaky_relu_away_from_kink() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let y = g.leaky_relu(ls[0], 0.2);
        let s = g.sum_all(y);
        (ls, s)
    });
    // keep values away from 0 so finite differences are valid
    let a = Tensor::from_vec(1, 4, vec![0.5, -0.7, 1.4, -2.0]);
    check_grads(&build, &[a], 1e-2);
}

#[test]
fn grad_softmax_rows() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let y = g.softmax_rows_masked(ls[0], None);
        let w = g.constant(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.2]));
        let m = g.mul(y, w);
        let s = g.sum_all(m);
        (ls, s)
    });
    let a = Tensor::from_vec(2, 3, vec![0.1, 0.9, -0.4, 1.2, 0.3, 0.0]);
    check_grads(&build, &[a], 1e-2);
}

#[test]
fn grad_masked_softmax() {
    let mask = Tensor::from_vec(2, 3, vec![1.0, 0.0, 1.0, 1.0, 1.0, 0.0]);
    let build: Box<Builder> = Box::new(move |g, ins| {
        let ls = leaves(g, ins);
        let m = g.constant(mask.clone());
        let y = g.softmax_rows_masked(ls[0], Some(m));
        let w = g.constant(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.2]));
        let m = g.mul(y, w);
        let s = g.sum_all(m);
        (ls, s)
    });
    let a = Tensor::from_vec(2, 3, vec![0.1, 0.9, -0.4, 1.2, 0.3, 0.0]);
    check_grads(&build, &[a], 1e-2);
}

#[test]
fn grad_layer_norm() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let y = g.layer_norm_rows(ls[0], ls[1], ls[2]);
        let w = g.constant(Tensor::from_vec(2, 3, vec![0.3, -0.8, 1.0, 0.5, 0.1, -0.4]));
        let m = g.mul(y, w);
        let s = g.sum_all(m);
        (ls, s)
    });
    let x = Tensor::from_vec(2, 3, vec![0.5, 1.5, -0.7, 2.0, 0.1, 0.4]);
    let gamma = Tensor::from_vec(1, 3, vec![1.1, 0.9, 1.3]);
    let beta = Tensor::from_vec(1, 3, vec![0.1, -0.2, 0.0]);
    check_grads(&build, &[x, gamma, beta], 2e-2);
}

#[test]
fn grad_concat_slice_transpose() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let cat = g.concat_cols(ls[0], ls[1]);
        let t = g.transpose(cat);
        let sl = g.slice_rows(t, 1, 2);
        let s = g.sum_all(sl);
        (ls, s)
    });
    let a = Tensor::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.3]);
    let b = Tensor::from_vec(2, 1, vec![0.9, -0.4]);
    check_grads(&build, &[a, b], 1e-2);
}

#[test]
fn grad_gather_repeat_mean() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let picked = g.gather_rows(ls[0], &[0, 2, 2]);
        let mean = g.mean_rows(picked);
        let rep = g.gather_rows(mean, &[0, 0, 0]);
        let m = g.mul(rep, picked);
        let s = g.sum_all(m);
        (ls, s)
    });
    let a = Tensor::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.3, 0.8, -0.6]);
    check_grads(&build, &[a], 1e-2);
}

#[test]
fn grad_block_matmul_both_operands() {
    // Two stacked 2x2 square blocks times stacked 2x3 features; gradients
    // flow into both the block operand and the features.
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let y = g.block_matmul(ls[0], ls[1], 2);
        let w = g.constant(Tensor::from_vec(
            4,
            3,
            vec![
                1.0, -0.5, 0.2, 0.8, -1.1, 0.4, 0.6, -0.3, 0.9, 1.2, 0.1, -0.7,
            ],
        ));
        let m = g.mul(y, w);
        let s = g.sum_all(m);
        (ls, s)
    });
    let a = Tensor::from_vec(4, 2, vec![0.5, -1.0, 2.0, 0.3, 0.8, -0.6, 1.4, 0.1]);
    let b = Tensor::from_vec(
        4,
        3,
        vec![
            0.9, -0.4, 0.7, 0.2, -1.0, 0.5, 1.1, 0.3, -0.8, 0.6, -0.2, 1.3,
        ],
    );
    check_grads(&build, &[a, b], 1e-2);
}

#[test]
fn grad_block_matmul_nt_both_operands() {
    // Two stacked 2x3 blocks; per-block logits a_i · b_iᵀ; gradients flow
    // into both operands.
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let y = g.block_matmul_nt(ls[0], ls[1], 2);
        let w = g.constant(Tensor::from_vec(
            4,
            2,
            vec![1.0, -0.5, 0.2, 0.8, -1.1, 0.4, 0.6, -0.3],
        ));
        let m = g.mul(y, w);
        let s = g.sum_all(m);
        (ls, s)
    });
    let a = Tensor::from_vec(
        4,
        3,
        vec![
            0.5, -1.0, 2.0, 0.3, 0.8, -0.6, 1.4, 0.1, -0.9, 0.7, 0.4, -1.2,
        ],
    );
    let b = Tensor::from_vec(
        4,
        3,
        vec![
            0.9, -0.4, 0.7, 0.2, -1.0, 0.5, 1.1, 0.3, -0.8, 0.6, -0.2, 1.3,
        ],
    );
    check_grads(&build, &[a, b], 1e-2);
}

#[test]
fn grad_block_mean_rows() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let bm = g.block_mean_rows(ls[0], &[2, 3]);
        let w = g.constant(Tensor::from_vec(2, 2, vec![1.0, -0.5, 0.2, 0.8]));
        let m = g.mul(bm, w);
        let s = g.sum_all(m);
        (ls, s)
    });
    let a = Tensor::from_vec(
        5,
        2,
        vec![0.5, -1.0, 2.0, 0.3, 0.8, -0.6, 1.4, 0.1, -0.9, 0.7],
    );
    check_grads(&build, &[a], 1e-2);
}

#[test]
fn grad_broadcast_ops() {
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let added = g.add_row_broadcast(ls[0], ls[1]);
        let tiled = g.gather_rows(ls[2], &[0, 0, 0]);
        let scaled = g.mul(added, tiled);
        let s = g.sum_all(scaled);
        (ls, s)
    });
    let a = Tensor::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.3, 0.8, -0.6]);
    let b = Tensor::from_vec(1, 2, vec![0.7, -0.3]);
    let c = Tensor::from_vec(1, 2, vec![1.2, 0.4]);
    check_grads(&build, &[a, b, c], 1e-2);
}

#[test]
fn grad_mse_loss_stacked() {
    // The batched training step's MSE: one B×1 score column straight into
    // the loss, gradient flowing back through the stack.
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let l = mse_loss_stacked(g, ls[0], &[0.5, -1.0, 0.0, 2.0]);
        (ls, l)
    });
    let scores = Tensor::from_vec(4, 1, vec![0.37, -1.2, 0.05, 2.6]);
    check_grads(&build, &[scores], 1e-2);
}

#[test]
fn grad_pairwise_hinge_loss_stacked() {
    // Score gaps sit well away from the hinge kink (|margin - gap| >> h) so
    // central differences stay valid; the pair set mixes active and
    // saturated hinges to exercise both relu branches.
    let build: Box<Builder> = Box::new(|g, ins| {
        let ls = leaves(g, ins);
        let l = pairwise_hinge_loss_stacked(g, ls[0], &[3.0, 1.0, 2.0], 0.6).unwrap();
        (ls, l)
    });
    let scores = Tensor::from_vec(3, 1, vec![0.9, 0.1, 0.4]);
    check_grads(&build, &[scores], 1e-2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_matmul_grads_match_numeric(
        av in proptest::collection::vec(-1.5f32..1.5, 6),
        bv in proptest::collection::vec(-1.5f32..1.5, 6),
    ) {
        let build: Box<Builder> = Box::new(|g, ins| {
            let ls = leaves(g, ins);
            let y = g.matmul(ls[0], ls[1]);
            let act = g.tanh(y);
            let s = g.sum_all(act);
            (ls, s)
        });
        let a = Tensor::from_vec(2, 3, av);
        let b = Tensor::from_vec(3, 2, bv);
        check_grads(&build, &[a, b], 3e-2);
    }

    #[test]
    fn prop_elementwise_grads_match_numeric(
        xv in proptest::collection::vec(0.2f32..1.5, 4),
    ) {
        // strictly positive input keeps relu away from its kink
        let build: Box<Builder> = Box::new(|g, ins| {
            let ls = leaves(g, ins);
            let r = g.relu(ls[0]);
            let sg = g.sigmoid(r);
            let s = g.sum_all(sg);
            (ls, s)
        });
        let x = Tensor::from_vec(2, 2, xv);
        check_grads(&build, &[x], 3e-2);
    }

    #[test]
    fn prop_layernorm_grads_match_numeric(
        xv in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        // skip near-constant rows where layernorm is ill-conditioned
        prop_assume!({
            let r0: &[f32] = &xv[..3];
            let r1: &[f32] = &xv[3..];
            let spread = |r: &[f32]| {
                let mx = r.iter().cloned().fold(f32::MIN, f32::max);
                let mn = r.iter().cloned().fold(f32::MAX, f32::min);
                mx - mn
            };
            spread(r0) > 0.5 && spread(r1) > 0.5
        });
        let build: Box<Builder> = Box::new(|g, ins| {
            let ls = leaves(g, ins);
            let gamma = g.constant(Tensor::from_vec(1, 3, vec![1.0, 1.0, 1.0]));
            let beta = g.constant(Tensor::from_vec(1, 3, vec![0.0, 0.0, 0.0]));
            let y = g.layer_norm_rows(ls[0], gamma, beta);
            let w = g.constant(Tensor::from_vec(2, 3, vec![0.5, -0.25, 0.75, 0.1, 0.9, -0.3]));
            let m = g.mul(y, w);
            let s = g.sum_all(m);
            (ls, s)
        });
        let x = Tensor::from_vec(2, 3, xv);
        check_grads(&build, &[x], 5e-2);
    }
}
