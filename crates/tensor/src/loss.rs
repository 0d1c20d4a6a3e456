//! Training losses.
//!
//! The paper trains its predictor with the pairwise hinge (ranking) loss of
//! Ning et al. 2022; MSE is kept for baselines and ablations.

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Mean-squared error between scalar predictions and targets.
///
/// # Panics
/// Panics if lengths differ or are zero.
pub fn mse_loss(g: &mut Graph, preds: &[Var], targets: &[f32]) -> Var {
    assert_eq!(preds.len(), targets.len(), "mse length mismatch");
    assert!(!preds.is_empty(), "mse on empty batch");
    let mut terms = Vec::with_capacity(preds.len());
    for (&p, &t) in preds.iter().zip(targets) {
        let tv = g.constant(Tensor::scalar(t));
        let d = g.sub(p, tv);
        terms.push(g.mul(d, d));
    }
    let total = g.sum_vars(&terms);
    g.scale(total, 1.0 / preds.len() as f32)
}

/// [`mse_loss`] over a **stacked** `B×1` score column (one multi-query tape
/// node instead of B scalar vars): `mean((scores - targets)^2)`.
///
/// The per-element subtract/square and the sequential `sum` accumulate in
/// exactly the per-var order, so the loss *value* is bit-identical to
/// [`mse_loss`] over the sliced rows; only the gradient bookkeeping differs
/// (one backward through the stack instead of B scatter paths).
///
/// # Panics
/// Panics if `scores` is not a `targets.len()×1` column or the batch is
/// empty.
pub fn mse_loss_stacked(g: &mut Graph, scores: Var, targets: &[f32]) -> Var {
    let shape = g.value(scores).shape();
    assert_eq!(
        shape,
        (targets.len(), 1),
        "stacked mse expects a {}x1 score column, got {shape:?}",
        targets.len()
    );
    assert!(!targets.is_empty(), "mse on empty batch");
    let tv = g.constant(Tensor::from_vec(targets.len(), 1, targets.to_vec()));
    let d = g.sub(scores, tv);
    let sq = g.mul(d, d);
    let total = g.sum_all(sq);
    g.scale(total, 1.0 / targets.len() as f32)
}

/// Pairwise hinge ranking loss: for every pair with `target_i > target_j`,
/// penalizes `max(0, margin - (score_i - score_j))`, averaged over pairs.
///
/// Returns `None` when no comparable pair exists (all targets equal or a
/// single-element batch) — callers should skip the update in that case.
pub fn pairwise_hinge_loss(
    g: &mut Graph,
    scores: &[Var],
    targets: &[f32],
    margin: f32,
) -> Option<Var> {
    assert_eq!(scores.len(), targets.len(), "hinge length mismatch");
    let mut terms = Vec::new();
    for i in 0..scores.len() {
        for j in 0..scores.len() {
            if targets[i] > targets[j] {
                // want score_i - score_j >= margin
                let d = g.sub(scores[i], scores[j]);
                let neg = g.scale(d, -1.0);
                let m = g.add_scalar(neg, margin);
                terms.push(g.relu(m));
            }
        }
    }
    if terms.is_empty() {
        return None;
    }
    let total = g.sum_vars(&terms);
    Some(g.scale(total, 1.0 / terms.len() as f32))
}

/// [`pairwise_hinge_loss`] over a **stacked** `B×1` score column: the
/// comparable pairs are gathered into two aligned `P×1` columns
/// (`gather_rows`, whose backward scatter-adds into the stack), and the whole
/// pair set goes through ONE subtract/scale/relu/sum chain — a handful of
/// tape nodes instead of ~4·P scalar vars, which is what keeps the batched
/// gradient step's tape short. The score column is one value wide, so its
/// pair gathers carry no row classes and the chain classifies nothing.
///
/// Pairs are enumerated in the same `i`-major order and summed by the same
/// sequential fold as [`pairwise_hinge_loss`], so the loss *value* is
/// bit-identical to the per-var form on the sliced rows.
///
/// # Panics
/// Panics if `scores` is not a `targets.len()×1` column.
pub fn pairwise_hinge_loss_stacked(
    g: &mut Graph,
    scores: Var,
    targets: &[f32],
    margin: f32,
) -> Option<Var> {
    let shape = g.value(scores).shape();
    assert_eq!(
        shape,
        (targets.len(), 1),
        "stacked hinge expects a {}x1 score column, got {shape:?}",
        targets.len()
    );
    let mut hi = Vec::new();
    let mut lo = Vec::new();
    for i in 0..targets.len() {
        for j in 0..targets.len() {
            if targets[i] > targets[j] {
                hi.push(i);
                lo.push(j);
            }
        }
    }
    if hi.is_empty() {
        return None;
    }
    let si = g.gather_rows(scores, &hi);
    let sj = g.gather_rows(scores, &lo);
    // want score_i - score_j >= margin, elementwise over the pair columns
    let d = g.sub(si, sj);
    let neg = g.scale(d, -1.0);
    let m = g.add_scalar(neg, margin);
    let r = g.relu(m);
    let total = g.sum_all(r);
    Some(g.scale(total, 1.0 / hi.len() as f32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_when_exact() {
        let mut g = Graph::new();
        let p1 = g.leaf(Tensor::scalar(2.0));
        let p2 = g.leaf(Tensor::scalar(-1.0));
        let l = mse_loss(&mut g, &[p1, p2], &[2.0, -1.0]);
        assert_eq!(g.value(l).item(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let mut g = Graph::new();
        let p1 = g.leaf(Tensor::scalar(0.0));
        let p2 = g.leaf(Tensor::scalar(0.0));
        let l = mse_loss(&mut g, &[p1, p2], &[1.0, 3.0]);
        assert_eq!(g.value(l).item(), 5.0); // (1 + 9) / 2
    }

    #[test]
    fn hinge_zero_when_well_separated() {
        let mut g = Graph::new();
        let lo = g.leaf(Tensor::scalar(0.0));
        let hi = g.leaf(Tensor::scalar(5.0));
        let l = pairwise_hinge_loss(&mut g, &[lo, hi], &[1.0, 2.0], 0.1).unwrap();
        assert_eq!(g.value(l).item(), 0.0);
    }

    #[test]
    fn hinge_penalizes_misranked_pair() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::scalar(1.0));
        let b = g.leaf(Tensor::scalar(0.0));
        // target says b should outrank a
        let l = pairwise_hinge_loss(&mut g, &[a, b], &[1.0, 2.0], 0.1).unwrap();
        // margin 0.1 - (0 - 1) = 1.1
        assert!((g.value(l).item() - 1.1).abs() < 1e-6);
    }

    #[test]
    fn hinge_none_for_constant_targets() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::scalar(1.0));
        let b = g.leaf(Tensor::scalar(0.0));
        assert!(pairwise_hinge_loss(&mut g, &[a, b], &[2.0, 2.0], 0.1).is_none());
    }

    /// Splits a stacked column into per-row slice vars (what the per-var
    /// losses see when fed from a multi-query pass).
    fn slice_scores(g: &mut Graph, stacked: Var, n: usize) -> Vec<Var> {
        (0..n).map(|i| g.slice_rows(stacked, i, 1)).collect()
    }

    #[test]
    fn stacked_mse_matches_per_var_bitwise() {
        let vals = vec![0.37f32, -1.2, 0.05, 2.6];
        let targets = vec![0.5f32, -1.0, 0.0, 2.0];
        let mut g = Graph::new();
        let stacked = g.leaf(Tensor::from_vec(4, 1, vals.clone()));
        let per_var = {
            let scores = slice_scores(&mut g, stacked, 4);
            let l = mse_loss(&mut g, &scores, &targets);
            g.value(l).item()
        };
        let l = mse_loss_stacked(&mut g, stacked, &targets);
        assert_eq!(g.value(l).item().to_bits(), per_var.to_bits());
    }

    #[test]
    fn stacked_hinge_matches_per_var_bitwise() {
        let vals = vec![0.9f32, 0.1, 0.4, -0.3, 0.7];
        let targets = vec![3.0f32, 1.0, 2.0, 1.0, 2.0];
        let mut g = Graph::new();
        let stacked = g.leaf(Tensor::from_vec(5, 1, vals.clone()));
        let per_var = {
            let scores = slice_scores(&mut g, stacked, 5);
            let l = pairwise_hinge_loss(&mut g, &scores, &targets, 0.25).unwrap();
            g.value(l).item()
        };
        let l = pairwise_hinge_loss_stacked(&mut g, stacked, &targets, 0.25).unwrap();
        assert_eq!(g.value(l).item().to_bits(), per_var.to_bits());
    }

    #[test]
    fn stacked_hinge_none_for_constant_targets() {
        let mut g = Graph::new();
        let stacked = g.leaf(Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        assert!(pairwise_hinge_loss_stacked(&mut g, stacked, &[2.0, 2.0, 2.0], 0.1).is_none());
    }

    #[test]
    fn stacked_hinge_gradient_pushes_ranking_apart() {
        let mut g = Graph::new();
        let stacked = g.leaf(Tensor::from_vec(2, 1, vec![0.0, 0.0]));
        let l = pairwise_hinge_loss_stacked(&mut g, stacked, &[1.0, 2.0], 1.0).unwrap();
        g.backward(l);
        // loss = margin - (s_1 - s_0); d/ds_0 = +1, d/ds_1 = -1
        let grad = g.grad(stacked);
        assert!(grad.get(0, 0) > 0.0);
        assert!(grad.get(1, 0) < 0.0);
    }

    #[test]
    fn hinge_gradient_pushes_ranking_apart() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::scalar(0.0));
        let b = g.leaf(Tensor::scalar(0.0));
        let l = pairwise_hinge_loss(&mut g, &[a, b], &[1.0, 2.0], 1.0).unwrap();
        g.backward(l);
        // loss = margin - (s_b - s_a); d/ds_a = +1, d/ds_b = -1
        assert!(g.grad(a).item() > 0.0);
        assert!(g.grad(b).item() < 0.0);
    }
}
