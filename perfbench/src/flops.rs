//! First-principles cost of one forward query, derived from the predictor
//! configuration and the search space's node count.
//!
//! Counts follow the forward pass layer by layer: a dense `r×in → r×out`
//! projection costs `2·r·in·out` FLOPs for the multiply-adds plus `r·out`
//! for the bias; elementwise ops cost one FLOP per element; the `n×n`
//! aggregation and attention matmuls cost `2·n·n·width`. Embedding gathers,
//! concatenations and slices move bytes but do no arithmetic.

use nasflat::core::{GnnModuleKind, PredictorConfig};
use nasflat::space::Space;

fn linear(rows: f64, input: f64, output: f64) -> f64 {
    2.0 * rows * input * output + rows * output
}

fn dgf(n: f64, input: f64, output: f64, gate: f64) -> f64 {
    linear(n, gate, output) + linear(n, input, output) + 2.0 * n * n * output + 3.0 * n * output
}

fn gat(n: f64, input: f64, output: f64, gate: f64) -> f64 {
    let projections =
        linear(n, input, output) + linear(n, output, output) + linear(n, gate, output);
    let attention = 2.0 * n * n * output + 5.0 * n * n + 2.0 * n * n * output;
    // sigmoid gate, gating product, LayerNorm (mean, variance, scale, shift)
    projections + attention + 2.0 * n * output + 7.0 * n * output
}

fn stack(kind: GnnModuleKind, n: f64, input: usize, dims: &[usize], gate: f64) -> f64 {
    let mut total = 0.0;
    let mut d_in = input as f64;
    for &d in dims {
        let d_out = d as f64;
        total += match kind {
            GnnModuleKind::Dgf => dgf(n, d_in, d_out, gate),
            GnnModuleKind::Gat => gat(n, d_in, d_out, gate),
            GnnModuleKind::Ensemble => {
                dgf(n, d_in, d_out, gate) + gat(n, d_in, d_out, gate) + 2.0 * n * d_out
            }
        };
        d_in = d_out;
    }
    total
}

fn mlp(rows: f64, dims: &[usize]) -> f64 {
    dims.windows(2)
        .map(|w| linear(rows, w[0] as f64, w[1] as f64) + rows * w[1] as f64)
        .sum()
}

/// FLOPs of one single-architecture forward pass of a predictor built with
/// `cfg` on `space`, with a supplementary encoding of width `supp_dim`.
pub fn forward_flops(cfg: &PredictorConfig, space: Space, supp_dim: usize) -> f64 {
    let n = space.graph_nodes() as f64;
    let joint = cfg.joint_dim();
    let gate = joint as f64;
    let ophw_out = *cfg.ophw_gnn_dims.last().unwrap_or(&joint);
    let mut ophw_mlp_dims = vec![ophw_out];
    ophw_mlp_dims.extend_from_slice(&cfg.ophw_mlp_dims);
    ophw_mlp_dims.push(joint);
    let main_out = *cfg.gnn_dims.last().unwrap_or(&cfg.node_dim);
    let head_extra = if cfg.op_hw { 0 } else { cfg.hw_dim };
    let mut head_dims = vec![2 * main_out + supp_dim + head_extra];
    head_dims.extend_from_slice(&cfg.head_dims);
    head_dims.push(1);

    stack(GnnModuleKind::Dgf, n, joint, &cfg.ophw_gnn_dims, gate)
        + mlp(n, &ophw_mlp_dims)
        + stack(cfg.gnn_module, n, cfg.node_dim, &cfg.gnn_dims, gate)
        + n * main_out as f64 // mean-pool readout
        + mlp(1.0, &head_dims)
}
