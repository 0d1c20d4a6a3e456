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

use nasflat_tensor::{Graph, LayerNorm, Linear, ParamStore, Tensor, Var};

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

    /// Forward pass. `prop` is the `n×n` propagation matrix (`A + I`), `x`
    /// the `n×in` node features, `ops` the `n×op_dim` operation features.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, prop: Var, x: Var, ops: Var) -> Var {
        let gate = self.wo.forward(g, store, ops);
        let gate = g.sigmoid(gate);
        let xf = self.wf.forward(g, store, x);
        let agg = g.matmul(prop, xf);
        let gated = g.mul(gate, agg);
        g.add(gated, xf)
    }

    /// Multi-query forward over B equal-size blocks stacked into a
    /// `B·n×in` feature matrix: the dense projections run once over the
    /// whole stack, the propagation matrices live on the tape as one stacked
    /// `B·n×n` node (`prop_stack`), and aggregation is a single
    /// [`Graph::block_matmul`] node. Bit-identical to B separate
    /// [`DgfLayer::forward`] calls.
    pub fn forward_batched(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        prop_stack: Var,
        block: usize,
        x: Var,
        ops: Var,
    ) -> Var {
        let gate = self.wo.forward(g, store, ops);
        let gate = g.sigmoid(gate);
        let xf = self.wf.forward(g, store, x);
        let agg = g.block_matmul(prop_stack, xf, block);
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

    /// Forward pass; `prop` doubles as the attention mask, so a node attends
    /// only to itself and its in-neighbours.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, prop: Var, x: Var, ops: Var) -> Var {
        let h = self.wp.forward(g, store, x); // n×out
                                              // Pairwise interaction logits: (a(H) · Hᵀ), LeakyReLU, masked softmax.
        let ah = self.attn.forward(g, store, h);
        let ht = g.transpose(h);
        let logits = g.matmul(ah, ht); // n×n
        let scaled = g.scale(logits, 1.0 / (self.wp.out_dim() as f32).sqrt());
        let e = g.leaky_relu(scaled, 0.2);
        let attn = g.softmax_rows_masked(e, Some(prop));
        let ctx = g.matmul(attn, h);
        let gate = self.wo.forward(g, store, ops);
        let gate = g.sigmoid(gate);
        let gated = g.mul(gate, ctx);
        self.norm.forward(g, store, gated)
    }

    /// Multi-query forward over B equal-size blocks stacked into a
    /// `B·n×in` feature matrix. The dense projections (`wp`, `attn`, gate,
    /// LayerNorm) are row-wise and run once over the whole stack; attention
    /// runs over rectangular stacks — one [`Graph::block_matmul_nt`] node
    /// for all B logit blocks, one stacked masked softmax (`prop_stack`'s
    /// value is the row-aligned mask), one [`Graph::block_matmul`] node for
    /// all B context blocks. Every block computes the identical kernel
    /// sequence of a lone pass, so the layer stays bit-identical to B
    /// separate [`GatLayer::forward`] calls.
    pub fn forward_batched(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        prop_stack: Var,
        block: usize,
        x: Var,
        ops: Var,
    ) -> Var {
        let h = self.wp.forward(g, store, x);
        let ah = self.attn.forward(g, store, h);
        let logits = g.block_matmul_nt(ah, h, block);
        let scaled = g.scale(logits, 1.0 / (self.wp.out_dim() as f32).sqrt());
        let e = g.leaky_relu(scaled, 0.2);
        let attn = g.softmax_rows_masked(e, Some(prop_stack));
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

    /// Propagates `x` (`n×in`) through the stack. `prop` is the `n×n`
    /// propagation matrix and `ops` the `n×op_dim` gate features (shared by
    /// all layers, as in GATES).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, prop: Var, x: Var, ops: Var) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = match layer {
                StackLayer::Dgf(d) => d.forward(g, store, prop, h, ops),
                StackLayer::Gat(a) => a.forward(g, store, prop, h, ops),
                StackLayer::Both(d, a) => {
                    let hd = d.forward(g, store, prop, h, ops);
                    let ha = a.forward(g, store, prop, h, ops);
                    let sum = g.add(hd, ha);
                    g.scale(sum, 0.5)
                }
            };
        }
        h
    }

    /// Multi-query forward: propagates B equal-size blocks stacked into a
    /// `B·block×in` feature matrix through the stack in one pass, with the
    /// stacked `B·block×block` propagation matrices already on the tape
    /// (one shared `prop_stack` serves both GNN stacks of a predictor
    /// pass). Bit-identical to B separate [`GnnStack::forward`] calls.
    pub fn forward_batched(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        prop_stack: Var,
        block: usize,
        x: Var,
        ops: Var,
    ) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = match layer {
                StackLayer::Dgf(d) => d.forward_batched(g, store, prop_stack, block, h, ops),
                StackLayer::Gat(a) => a.forward_batched(g, store, prop_stack, block, h, ops),
                StackLayer::Both(d, a) => {
                    let hd = d.forward_batched(g, store, prop_stack, block, h, ops);
                    let ha = a.forward_batched(g, store, prop_stack, block, h, ops);
                    let sum = g.add(hd, ha);
                    g.scale(sum, 0.5)
                }
            };
        }
        h
    }
}

/// Builds the `n×n` propagation matrix (`A + I`) constant for a graph.
pub fn propagation_constant(g: &mut Graph, graph: &nasflat_space::ArchGraph) -> Var {
    let n = graph.num_nodes();
    g.constant(Tensor::from_vec(n, n, graph.propagation_matrix()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_space::{Arch, Space};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(kind: GnnModuleKind) -> (ParamStore, GnnStack) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let stack = GnnStack::new(&mut store, "t", kind, 8, &[16, 16], 12, &mut rng);
        (store, stack)
    }

    fn arch_inputs(g: &mut Graph) -> (Var, Var, Var) {
        let arch = Arch::new(Space::Nb201, vec![3, 1, 2, 4, 0, 3]);
        let graph = arch.to_graph();
        let n = graph.num_nodes();
        let prop = propagation_constant(g, &graph);
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
            let h = stack.forward(&mut g, &store, prop, x, ops);
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
            let h = stack.forward(&mut g, &store, prop, x, ops);
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
        let graph = arch.to_graph();
        let n = graph.num_nodes();
        let prop = propagation_constant(&mut g, &graph);
        let x = g.constant(Tensor::xavier_uniform(n, 4, &mut rng));
        let ops = g.constant(Tensor::xavier_uniform(n, 4, &mut rng));
        let h = layer.forward(&mut g, &store, prop, x, ops);
        assert!(!g.value(h).has_non_finite());
    }
}
