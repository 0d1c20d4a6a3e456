//! Training-analogous iterative refinement — the appendix predictor-design
//! ablation (paper §A.4, Figure 7, Tables 10–19).
//!
//! TA-GATES refines operation embeddings for `T` timesteps: each step runs a
//! forward GNN pass, derives backward information, and updates the operation
//! embeddings through an MLP, mimicking how training updates architecture
//! parameters. The paper ablates every piece:
//!
//! - `timesteps` (`T`, Figure 7);
//! - the backward module: full backward **GCN** vs a small **BMLP**
//!   (Tables 12–15 — BMLP wins);
//! - whether the update sees the forward output (**BYI**) and/or the previous
//!   operation embedding (**BOpE**);
//! - gradient detachment mode (Tables 16–19 — `none` or `default`);
//! - unrolled 2-step variants (Table 11) that lead to the final simplified
//!   NASFLAT architecture.
//!
//! The refined predictor scores any scalar target (the appendix uses
//! accuracy; Kendall tau is the reported metric).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nasflat_metrics::kendall_tau;
use nasflat_space::{Arch, Space};
use nasflat_tensor::{
    pairwise_hinge_loss, Activation, AdamConfig, Embedding, Graph, Mlp, ParamStore, Tensor, Var,
};

use crate::config::GnnModuleKind;
use crate::gnn::GnnStack;

/// Backward-information module choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackwardKind {
    /// No backward pass: plain iterated forward GNN.
    None,
    /// Full backward GCN over the transposed adjacency (original TA-GATES).
    Bgcn,
    /// Small 2-layer MLP replacement (the appendix's "BMLP").
    Bmlp,
}

/// Which inputs of the operation-update MLP are detached from the gradient
/// tape (appendix §A.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetachMode {
    /// TA-GATES default: detach the previous operation embedding only.
    Default,
    /// Detach every update input.
    All,
    /// Detach nothing.
    None,
}

/// Unrolled 2-step variants of appendix §A.4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnrolledKind {
    /// Forward-GNN output + op embedding → MLP → encoding for the next GNN
    /// ("DOpEmbUnrolled BMLP" — the shape of the final NASFLAT predictor).
    Bmlp,
    /// Forward-GNN output routed through the backward GCN instead
    /// ("DOpEmbUnrolled GCN").
    Bgcn,
}

/// Full option set for the refinement ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefineOptions {
    /// Refinement timesteps `T ≥ 1`.
    pub timesteps: usize,
    /// Backward module.
    pub backward: BackwardKind,
    /// Feed the backward output into the op update ("BYI").
    pub use_byi: bool,
    /// Feed the previous op embedding into the op update ("BOpE").
    pub use_bope: bool,
    /// Gradient detachment mode.
    pub detach: DetachMode,
    /// Use every node's encoding (vs only the output node) as backward input.
    pub all_node_encoding: bool,
    /// Replace iteration with an unrolled 2-step variant.
    pub unrolled: Option<UnrolledKind>,
}

impl Default for RefineOptions {
    /// TA-GATES-like default: 2 timesteps, BMLP backward, BYI+BOpE, default
    /// detachment, output-node encoding only.
    fn default() -> Self {
        RefineOptions {
            timesteps: 2,
            backward: BackwardKind::Bmlp,
            use_byi: true,
            use_bope: true,
            detach: DetachMode::Default,
            all_node_encoding: false,
            unrolled: None,
        }
    }
}

/// A scalar-target predictor with training-analogous refinement.
#[derive(Debug)]
pub struct RefinedPredictor {
    space: Space,
    opts: RefineOptions,
    /// The space's `n×n` propagation matrix (`A + I`) and its transpose,
    /// which the backward GCN propagates over.
    prop: Tensor,
    prop_t: Tensor,
    store: ParamStore,
    op_emb: Embedding,
    fwd_gnn: GnnStack,
    back_gcn: GnnStack,
    back_mlp: Mlp,
    update_mlp: Mlp,
    head: Mlp,
}

impl RefinedPredictor {
    /// Builds the predictor with embedding width `dim` and GNN width
    /// `hidden`.
    ///
    /// # Panics
    /// Panics if `opts.timesteps == 0`.
    pub fn new(space: Space, opts: RefineOptions, dim: usize, hidden: usize, seed: u64) -> Self {
        assert!(opts.timesteps >= 1, "need at least one timestep");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let op_emb = Embedding::new(&mut store, "ref.op", space.vocab_size(), dim, &mut rng);
        let fwd_gnn = GnnStack::new(
            &mut store,
            "ref.fwd",
            GnnModuleKind::Dgf,
            dim,
            &[hidden, hidden],
            dim,
            &mut rng,
        );
        let back_gcn = GnnStack::new(
            &mut store,
            "ref.bgcn",
            GnnModuleKind::Dgf,
            hidden,
            &[hidden],
            dim,
            &mut rng,
        );
        let back_mlp = Mlp::new(
            &mut store,
            "ref.bmlp",
            &[hidden, hidden, hidden],
            Activation::Relu,
            &mut rng,
        );
        // Update MLP input: optional BYI (hidden) + optional BOpE (dim); at
        // least the forward summary (hidden) when both are disabled.
        let upd_in = {
            let mut w = 0;
            if opts.use_byi {
                w += hidden;
            }
            if opts.use_bope {
                w += dim;
            }
            if w == 0 {
                w = hidden;
            }
            w
        };
        let update_mlp = Mlp::new(
            &mut store,
            "ref.upd",
            &[upd_in, hidden, dim],
            Activation::Relu,
            &mut rng,
        );
        let head = Mlp::new(
            &mut store,
            "ref.head",
            &[hidden, hidden, 1],
            Activation::Relu,
            &mut rng,
        );
        let n = space.graph_nodes();
        let prop = Tensor::from_vec(n, n, space.propagation_matrix());
        RefinedPredictor {
            space,
            opts,
            prop_t: prop.transpose(),
            prop,
            store,
            op_emb,
            fwd_gnn,
            back_gcn,
            back_mlp,
            update_mlp,
            head,
        }
    }

    fn detach(&self, g: &mut Graph, v: Var) -> Var {
        let t = g.value(v).clone();
        g.constant(t)
    }

    /// Forward pass on an existing tape: every GNN call is a one-block
    /// pass ([`GnnStack::forward`] with `block = n`).
    pub fn forward(&self, g: &mut Graph, arch: &Arch) -> Var {
        assert_eq!(
            arch.space(),
            self.space,
            "architecture from a different space"
        );
        let n = self.space.graph_nodes();
        let prop = g.constant(self.prop.clone());
        let prop_t = g.constant(self.prop_t.clone());

        let ops: Vec<usize> = arch.node_ops().collect();
        let mut op_e = self.op_emb.forward(g, &self.store, &ops);

        if let Some(kind) = self.opts.unrolled {
            // Unrolled 2-step: GNN pass, combine with op embedding, map
            // through BMLP (or backward GCN), second GNN pass.
            let h1 = self.fwd_gnn.forward(g, &self.store, prop, n, op_e, op_e);
            let combined = match kind {
                UnrolledKind::Bmlp => {
                    let y = self.back_mlp.forward(g, &self.store, h1);
                    let joined = g.concat_cols(y, op_e);
                    self.update_of(g, joined)
                }
                UnrolledKind::Bgcn => {
                    let y = self.back_gcn.forward(g, &self.store, prop_t, n, h1, op_e);
                    let joined = g.concat_cols(y, op_e);
                    self.update_of(g, joined)
                }
            };
            let h2 = self
                .fwd_gnn
                .forward(g, &self.store, prop, n, combined, combined);
            let readout = g.slice_rows(h2, n - 1, 1);
            return self.head.forward(g, &self.store, readout);
        }

        let mut h = self.fwd_gnn.forward(g, &self.store, prop, n, op_e, op_e);
        for _t in 1..self.opts.timesteps {
            // Backward information from the forward pass.
            let byi_full = match self.opts.backward {
                BackwardKind::None => h,
                BackwardKind::Bgcn => self.back_gcn.forward(g, &self.store, prop_t, n, h, op_e),
                BackwardKind::Bmlp => {
                    let src = if self.opts.all_node_encoding {
                        h
                    } else {
                        // broadcast the output-node encoding to all nodes
                        g.gather_rows(h, &vec![n - 1; n])
                    };
                    self.back_mlp.forward(g, &self.store, src)
                }
            };
            // Detachment per appendix §A.4.3.
            let byi_in = match self.opts.detach {
                DetachMode::All => self.detach(g, byi_full),
                DetachMode::Default | DetachMode::None => byi_full,
            };
            let bope_in = match self.opts.detach {
                DetachMode::Default | DetachMode::All => self.detach(g, op_e),
                DetachMode::None => op_e,
            };
            let upd_in = match (self.opts.use_byi, self.opts.use_bope) {
                (true, true) => g.concat_cols(byi_in, bope_in),
                (true, false) => byi_in,
                (false, true) => bope_in,
                (false, false) => byi_in, // fall back to backward info
            };
            op_e = self.update_of(g, upd_in);
            h = self.fwd_gnn.forward(g, &self.store, prop, n, op_e, op_e);
        }
        let readout = g.slice_rows(h, n - 1, 1);
        self.head.forward(g, &self.store, readout)
    }

    fn update_of(&self, g: &mut Graph, joined: Var) -> Var {
        // The update MLP's input width is fixed at construction from the
        // option flags; a mismatch means the flags and the MLP disagree.
        let expected = self.update_mlp.in_dim();
        let got = g.value(joined).cols();
        assert_eq!(
            got, expected,
            "update-MLP width mismatch (got {got}, expected {expected}); \
             options changed after construction?"
        );
        self.update_mlp.forward(g, &self.store, joined)
    }

    /// Predicts the score of one architecture.
    pub fn predict(&self, arch: &Arch) -> f32 {
        let mut g = Graph::new();
        let y = self.forward(&mut g, arch);
        g.value(y).item()
    }

    /// Trains with the pairwise hinge loss on `(architecture, target)` pairs.
    pub fn train(&mut self, data: &[(Arch, f32)], epochs: usize, lr: f32, batch: usize, seed: u64) {
        let adam = AdamConfig::default().with_lr(lr);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch) {
                self.store.zero_grads();
                let mut g = Graph::new();
                let mut scores = Vec::with_capacity(chunk.len());
                let mut targets = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    scores.push(self.forward(&mut g, &data[i].0));
                    targets.push(data[i].1);
                }
                let Some(loss) = pairwise_hinge_loss(&mut g, &scores, &targets, 0.1) else {
                    continue;
                };
                g.backward(loss);
                g.write_grads(&mut self.store);
                self.store.clip_grad_norm(5.0);
                self.store.adam_step(&adam);
            }
        }
    }

    /// Kendall tau of predictions against targets (the appendix metric).
    pub fn kendall(&self, data: &[(Arch, f32)]) -> f32 {
        let preds: Vec<f32> = data.iter().map(|(a, _)| self.predict(a)).collect();
        let targets: Vec<f32> = data.iter().map(|&(_, t)| t).collect();
        kendall_tau(&preds, &targets).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_data(n: usize) -> Vec<(Arch, f32)> {
        // target = normalized flops (a smooth learnable scalar)
        (0..n as u64)
            .map(|i| {
                let a = Arch::nb201_from_index(i * 531 % 15625);
                let t = (a.cost_profile().total_flops as f32 + 1.0).ln();
                (a, t)
            })
            .collect()
    }

    #[test]
    fn all_option_combos_forward_finite() {
        let arch = Arch::nb201_from_index(100);
        for backward in [BackwardKind::None, BackwardKind::Bgcn, BackwardKind::Bmlp] {
            for detach in [DetachMode::Default, DetachMode::All, DetachMode::None] {
                for (byi, bope) in [(true, true), (true, false), (false, true)] {
                    let opts = RefineOptions {
                        timesteps: 3,
                        backward,
                        use_byi: byi,
                        use_bope: bope,
                        detach,
                        all_node_encoding: false,
                        unrolled: None,
                    };
                    let p = RefinedPredictor::new(Space::Nb201, opts, 8, 12, 0);
                    let y = p.predict(&arch);
                    assert!(y.is_finite(), "{opts:?}");
                }
            }
        }
    }

    #[test]
    fn unrolled_variants_forward_finite() {
        let arch = Arch::nb201_from_index(200);
        for kind in [UnrolledKind::Bmlp, UnrolledKind::Bgcn] {
            let opts = RefineOptions {
                unrolled: Some(kind),
                ..RefineOptions::default()
            };
            let p = RefinedPredictor::new(Space::Nb201, opts, 8, 12, 1);
            assert!(p.predict(&arch).is_finite(), "{kind:?}");
        }
    }

    #[test]
    fn training_improves_kendall() {
        let data = synthetic_data(40);
        let mut p = RefinedPredictor::new(Space::Nb201, RefineOptions::default(), 8, 12, 2);
        let before = p.kendall(&data);
        p.train(&data, 15, 3e-3, 8, 3);
        let after = p.kendall(&data);
        assert!(
            after > before.max(0.3),
            "kendall should improve: {before} -> {after}"
        );
    }

    #[test]
    fn one_timestep_skips_refinement() {
        let opts = RefineOptions {
            timesteps: 1,
            ..RefineOptions::default()
        };
        let p = RefinedPredictor::new(Space::Nb201, opts, 8, 12, 4);
        assert!(p.predict(&Arch::nb201_from_index(3)).is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one timestep")]
    fn zero_timesteps_rejected() {
        let opts = RefineOptions {
            timesteps: 0,
            ..RefineOptions::default()
        };
        let _ = RefinedPredictor::new(Space::Nb201, opts, 8, 12, 0);
    }
}
