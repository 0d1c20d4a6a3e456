//! Graph-neural-network modules: Dense Graph Flow, Graph Attention, and
//! their ensemble (paper §3.2, appendix A.3.1).
//!
//! Both modules propagate node features `X` over the DAG's `A + I`
//! propagation matrix while gating the aggregation with the operation
//! features `O` (the hardware-aware joint embedding in NASFLAT):
//!
//! - **DGF** (Eq. 1): `X' = σ(O·Wo) ⊙ (P·X·Wf) + X·Wf + bf` — the residual
//!   term keeps node features discriminative across depth.
//! - **GAT** (Eq. 2–3): adjacency-masked single-head attention over pairwise
//!   node interactions, gated by `σ(O·Wo)` and stabilized with LayerNorm.

use rand::Rng;

use nasflat_tensor::{Graph, LayerNorm, Linear, ParamStore, Var};

use crate::config::GnnModuleKind;

/// One Dense Graph Flow layer.
#[derive(Debug, Clone)]
pub struct DgfLayer {
    wo: Linear,
    wf: Linear,
}

impl DgfLayer {
    /// Registers parameters for a layer mapping `in_dim → out_dim` with
    /// operation features of width `op_dim`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        op_dim: usize,
        rng: &mut R,
    ) -> Self {
        DgfLayer {
            wo: Linear::new(store, &format!("{name}.wo"), op_dim, out_dim, rng),
            wf: Linear::new(store, &format!("{name}.wf"), in_dim, out_dim, rng),
        }
    }

    /// Forward pass over B equal-size blocks stacked into a `B·block×in`
    /// feature matrix `x`, with `ops` the matching `B·block×op_dim`
    /// operation features. `prop` stacks the B `block×block` propagation
    /// matrices (`A + I`); a lone architecture is one block with
    /// `block = n`. The dense projections run once over the whole stack and
    /// aggregation is one [`Graph::block_matmul`] node, which runs each
    /// block's product exactly as a lone pass would, so every block's rows
    /// are bit-identical to a one-block pass over that architecture.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        prop: Var,
        block: usize,
        x: Var,
        ops: Var,
    ) -> Var {
        let gate = self.wo.forward(g, store, ops);
        let gate = g.sigmoid(gate);
        let xf = self.wf.forward(g, store, x);
        let agg = g.block_matmul(prop, xf, block);
        let gated = g.mul(gate, agg);
        g.add(gated, xf)
    }
}

/// One Graph Attention layer with operation gating and LayerNorm.
#[derive(Debug, Clone)]
pub struct GatLayer {
    wp: Linear,
    wo: Linear,
    attn: Linear,
    norm: LayerNorm,
}

impl GatLayer {
    /// Registers parameters for a layer mapping `in_dim → out_dim` with
    /// operation features of width `op_dim`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        op_dim: usize,
        rng: &mut R,
    ) -> Self {
        GatLayer {
            wp: Linear::new(store, &format!("{name}.wp"), in_dim, out_dim, rng),
            wo: Linear::new(store, &format!("{name}.wo"), op_dim, out_dim, rng),
            attn: Linear::new(store, &format!("{name}.attn"), out_dim, out_dim, rng),
            norm: LayerNorm::new(store, &format!("{name}.ln"), out_dim),
        }
    }

    /// Forward pass over B equal-size blocks stacked into a `B·block×in`
    /// feature matrix; `prop` stacks the B propagation matrices and doubles
    /// as the attention mask, so a node attends only to itself and its
    /// in-neighbours. A lone architecture is one block with `block = n`.
    /// The dense projections (`wp`, `attn`, gate, LayerNorm) are row-wise
    /// and run once over the whole stack; attention is one
    /// [`Graph::block_matmul_nt`] node for all B logit blocks, one stacked
    /// masked softmax and one [`Graph::block_matmul`] node for all B context
    /// blocks. Every block runs the kernel sequence of a lone pass, so the
    /// layer is bit-identical to B one-block passes.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        prop: Var,
        block: usize,
        x: Var,
        ops: Var,
    ) -> Var {
        let h = self.wp.forward(g, store, x);
        let ah = self.attn.forward(g, store, h);
        let logits = g.block_matmul_nt(ah, h, block);
        let scaled = g.scale(logits, 1.0 / (self.wp.out_dim() as f32).sqrt());
        let e = g.leaky_relu(scaled, 0.2);
        let attn = g.softmax_rows_masked(e, Some(prop));
        let ctx = g.block_matmul(attn, h, block);
        let gate = self.wo.forward(g, store, ops);
        let gate = g.sigmoid(gate);
        let gated = g.mul(gate, ctx);
        self.norm.forward(g, store, gated)
    }
}

/// One ensemble slot: a DGF layer, a GAT layer, or both (averaged).
#[derive(Debug, Clone)]
enum StackLayer {
    Dgf(DgfLayer),
    Gat(GatLayer),
    Both(DgfLayer, GatLayer),
}

/// A stack of GNN layers of a chosen module kind (paper Table 5 compares the
/// three kinds; NASFLAT uses the ensemble).
#[derive(Debug, Clone)]
pub struct GnnStack {
    layers: Vec<StackLayer>,
    out_dim: usize,
}

impl GnnStack {
    /// Builds a stack mapping `in_dim` through `dims`, gated by operation
    /// features of width `op_dim` at every layer.
    ///
    /// # Panics
    /// Panics if `dims` is empty.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        kind: GnnModuleKind,
        in_dim: usize,
        dims: &[usize],
        op_dim: usize,
        rng: &mut R,
    ) -> Self {
        assert!(!dims.is_empty(), "GNN stack needs at least one layer");
        let mut layers = Vec::with_capacity(dims.len());
        let mut d_in = in_dim;
        for (i, &d_out) in dims.iter().enumerate() {
            let lname = format!("{name}.{i}");
            let layer = match kind {
                GnnModuleKind::Dgf => {
                    StackLayer::Dgf(DgfLayer::new(store, &lname, d_in, d_out, op_dim, rng))
                }
                GnnModuleKind::Gat => {
                    StackLayer::Gat(GatLayer::new(store, &lname, d_in, d_out, op_dim, rng))
                }
                GnnModuleKind::Ensemble => StackLayer::Both(
                    DgfLayer::new(store, &format!("{lname}.dgf"), d_in, d_out, op_dim, rng),
                    GatLayer::new(store, &format!("{lname}.gat"), d_in, d_out, op_dim, rng),
                ),
            };
            layers.push(layer);
            d_in = d_out;
        }
        GnnStack {
            layers,
            out_dim: d_in,
        }
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Propagates B equal-size blocks stacked into a `B·block×in` feature
    /// matrix through the stack in one pass. `prop` is the stacked
    /// `B·block×block` propagation matrices, already on the tape (one
    /// `prop` serves both GNN stacks of a predictor pass), and `ops` the
    /// stacked gate features shared by all layers, as in GATES. A lone
    /// architecture is one block with `block = n`.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        prop: Var,
        block: usize,
        x: Var,
        ops: Var,
    ) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = match layer {
                StackLayer::Dgf(d) => d.forward(g, store, prop, block, h, ops),
                StackLayer::Gat(a) => a.forward(g, store, prop, block, h, ops),
                StackLayer::Both(d, a) => {
                    let hd = d.forward(g, store, prop, block, h, ops);
                    let ha = a.forward(g, store, prop, block, h, ops);
                    let sum = g.add(hd, ha);
                    g.scale(sum, 0.5)
                }
            };
        }
        h
    }
}

/// The dense single-architecture layer compositions the predictor's
/// bitwise reference (`predictor::reference`) is built from: plain
/// `n×n` products and an explicit transpose where [`GnnStack::forward`]
/// runs block ops.
#[cfg(test)]
pub(crate) mod dense {
    use super::*;

    fn dgf(l: &DgfLayer, g: &mut Graph, store: &ParamStore, prop: Var, x: Var, ops: Var) -> Var {
        let gate = l.wo.forward(g, store, ops);
        let gate = g.sigmoid(gate);
        let xf = l.wf.forward(g, store, x);
        let agg = g.matmul(prop, xf);
        let gated = g.mul(gate, agg);
        g.add(gated, xf)
    }

    fn gat(l: &GatLayer, g: &mut Graph, store: &ParamStore, prop: Var, x: Var, ops: Var) -> Var {
        let h = l.wp.forward(g, store, x);
        let ah = l.attn.forward(g, store, h);
        let ht = g.transpose(h);
        let logits = g.matmul(ah, ht);
        let scaled = g.scale(logits, 1.0 / (l.wp.out_dim() as f32).sqrt());
        let e = g.leaky_relu(scaled, 0.2);
        let attn = g.softmax_rows_masked(e, Some(prop));
        let ctx = g.matmul(attn, h);
        let gate = l.wo.forward(g, store, ops);
        let gate = g.sigmoid(gate);
        let gated = g.mul(gate, ctx);
        l.norm.forward(g, store, gated)
    }

    /// Propagates one architecture's `n×in` features through `stack` over
    /// its `n×n` propagation matrix `prop`.
    pub(crate) fn stack(
        s: &GnnStack,
        g: &mut Graph,
        store: &ParamStore,
        prop: Var,
        x: Var,
        ops: Var,
    ) -> Var {
        let mut h = x;
        for layer in &s.layers {
            h = match layer {
                StackLayer::Dgf(d) => dgf(d, g, store, prop, h, ops),
                StackLayer::Gat(a) => gat(a, g, store, prop, h, ops),
                StackLayer::Both(d, a) => {
                    let hd = dgf(d, g, store, prop, h, ops);
                    let ha = gat(a, g, store, prop, h, ops);
                    let sum = g.add(hd, ha);
                    g.scale(sum, 0.5)
                }
            };
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_space::{Arch, Space};
    use nasflat_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(kind: GnnModuleKind) -> (ParamStore, GnnStack) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let stack = GnnStack::new(&mut store, "t", kind, 8, &[16, 16], 12, &mut rng);
        (store, stack)
    }

    /// One architecture's `n×n` propagation matrix, as a constant.
    fn prop_constant(g: &mut Graph, arch: &Arch) -> Var {
        let n = arch.space().graph_nodes();
        g.constant(Tensor::from_vec(n, n, arch.to_graph().propagation_matrix()))
    }

    fn arch_inputs(g: &mut Graph) -> (Var, Var, Var) {
        let arch = Arch::new(Space::Nb201, vec![3, 1, 2, 4, 0, 3]);
        let n = arch.space().graph_nodes();
        let prop = prop_constant(g, &arch);
        let mut rng = StdRng::seed_from_u64(1);
        let x = g.constant(Tensor::xavier_uniform(n, 8, &mut rng));
        let ops = g.constant(Tensor::xavier_uniform(n, 12, &mut rng));
        (prop, x, ops)
    }

    #[test]
    fn all_kinds_produce_finite_outputs_of_right_shape() {
        for kind in [
            GnnModuleKind::Dgf,
            GnnModuleKind::Gat,
            GnnModuleKind::Ensemble,
        ] {
            let (store, stack) = setup(kind);
            let mut g = Graph::new();
            let (prop, x, ops) = arch_inputs(&mut g);
            let h = stack.forward(&mut g, &store, prop, 8, x, ops);
            assert_eq!(g.value(h).shape(), (8, 16), "{kind:?}");
            assert!(!g.value(h).has_non_finite(), "{kind:?}");
            assert_eq!(stack.out_dim(), 16);
            assert_eq!(stack.depth(), 2);
        }
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        for kind in [
            GnnModuleKind::Dgf,
            GnnModuleKind::Gat,
            GnnModuleKind::Ensemble,
        ] {
            let (mut store, stack) = setup(kind);
            store.zero_grads();
            let mut g = Graph::new();
            let (prop, x, ops) = arch_inputs(&mut g);
            let h = stack.forward(&mut g, &store, prop, 8, x, ops);
            let loss = g.sum_all(h);
            g.backward(loss);
            g.write_grads(&mut store);
            // at least half the parameters should receive non-zero gradient
            // (biases of dead ReLUs etc. may legitimately be zero)
            let mut nonzero = 0usize;
            let mut total = 0usize;
            for pid in store.ids() {
                total += 1;
                if store.grad(pid).data().iter().any(|&v| v != 0.0) {
                    nonzero += 1;
                }
            }
            assert!(
                nonzero * 2 >= total,
                "{kind:?}: {nonzero}/{total} params got grads"
            );
        }
    }

    #[test]
    fn attention_respects_adjacency_mask() {
        // A node with no in-edges other than itself must only self-attend;
        // with LayerNorm the check is that outputs stay finite when entire
        // rows of the mask are sparse.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = GatLayer::new(&mut store, "gat", 4, 4, 4, &mut rng);
        let mut g = Graph::new();
        let arch = Arch::new(Space::Nb201, vec![0, 0, 0, 0, 0, 0]); // all none
        let n = arch.space().graph_nodes();
        let prop = prop_constant(&mut g, &arch);
        let x = g.constant(Tensor::xavier_uniform(n, 4, &mut rng));
        let ops = g.constant(Tensor::xavier_uniform(n, 4, &mut rng));
        let h = layer.forward(&mut g, &store, prop, n, x, ops);
        assert!(!g.value(h).has_non_finite());
    }
}
