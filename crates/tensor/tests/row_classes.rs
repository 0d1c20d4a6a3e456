//! Property suite for row classes.
//!
//! The contract: a pass whose inputs come from gathers — so they carry row
//! classes, and class-aware ops compute one row per class and copy the
//! rest — is **bit-identical** to the same pass whose inputs are leaves and
//! constants holding the same values, where every row is computed: every
//! node value, every gradient, and every parameter gradient.
//!
//! The pass has the predictor's shape: op, hardware and node embedding
//! lookups over B stacked n-node blocks, a propagation block stamped per
//! block, two gated DGF aggregations (one over op–hardware features, one
//! over node features), masked GAT attention with LayerNorm, and a
//! per-block readout into a head. Indices are drawn from small ranges so
//! that rows repeat within and across blocks, and the propagation block
//! holds `-0.0` terms and sometimes a zero diagonal.

use proptest::prelude::*;

use nasflat_tensor::{Graph, ParamId, ParamStore, Tensor, Var};

const MAX_BLOCKS: usize = 6;
const MAX_N: usize = 7;
const VOCAB: usize = 4;
const DEVICES: usize = 3;
/// Feature width.
const W: usize = 6;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Propagation entries: mostly exact ones and zeros of both signs (the
/// kernels skip both zeros), plus arbitrary weights.
fn prop_entry() -> impl Strategy<Value = f32> {
    prop_oneof![Just(1.0f32), Just(0.0f32), Just(-0.0f32), -2.0f32..2.0]
}

fn weight() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), -1.5f32..1.5]
}

fn take(pool: &[f32], at: &mut usize, rows: usize, cols: usize) -> Tensor {
    let start = *at % (pool.len() - rows * cols);
    *at += rows * cols + 5;
    Tensor::from_vec(rows, cols, pool[start..start + rows * cols].to_vec())
}

/// The parameters, in a fixed order.
struct Params {
    store: ParamStore,
    /// op table, hw table, node table, gate weight and bias, feature
    /// weight and bias, attention weight, LayerNorm gamma and beta, head,
    /// op–hw feature weight and bias.
    ids: Vec<ParamId>,
}

fn params(pool: &[f32]) -> Params {
    let shapes = [
        (VOCAB, W),
        (DEVICES, W),
        (MAX_N, W),
        (2 * W, W),
        (1, W),
        (W, W),
        (1, W),
        (W, W),
        (1, W),
        (1, W),
        (2 * W, 1),
        (2 * W, W),
        (1, W),
    ];
    let mut store = ParamStore::new();
    let mut at = 0;
    let ids = shapes
        .iter()
        .enumerate()
        .map(|(i, &(r, c))| store.add(format!("p{i}"), take(pool, &mut at, r, c)))
        .collect();
    Params { store, ids }
}

/// The lookups of one pass: per-row op ids, per-block devices, and the
/// `n×n` propagation block.
struct Inputs {
    blocks: usize,
    n: usize,
    ops: Vec<usize>,
    devices: Vec<usize>,
    prop: Tensor,
}

impl Inputs {
    fn rows(&self) -> usize {
        self.blocks * self.n
    }

    fn hw_ids(&self) -> Vec<usize> {
        let n = self.n;
        self.devices
            .iter()
            .flat_map(|&d| std::iter::repeat_n(d, n))
            .collect()
    }

    fn node_ids(&self) -> Vec<usize> {
        (0..self.blocks).flat_map(|_| 0..self.n).collect()
    }
}

/// Rows `indices` of `table`, as a fresh tensor.
fn gathered(table: &Tensor, indices: &[usize]) -> Tensor {
    let data = indices
        .iter()
        .flat_map(|&i| table.row(i).to_vec())
        .collect();
    Tensor::from_vec(indices.len(), table.cols(), data)
}

/// Builds the pass; with `classed`, the embeddings and the propagation
/// stack are gathers (carrying row classes), otherwise gradient leaves and
/// a constant with the same values. Returns every node worth comparing
/// and the loss.
fn pass(g: &mut Graph, p: &Params, x: &Inputs, classed: bool) -> (Vec<Var>, Var) {
    let v = |g: &mut Graph, i: usize| g.param(&p.store, p.ids[i]);
    let lookup = |g: &mut Graph, i: usize, indices: &[usize]| {
        if classed {
            let table = g.param(&p.store, p.ids[i]);
            g.gather_rows(table, indices)
        } else {
            g.leaf(gathered(p.store.value(p.ids[i]), indices))
        }
    };
    let n = x.n;
    let op_e = lookup(g, 0, &x.ops);
    let hw = lookup(g, 1, &x.hw_ids());
    let node_e = lookup(g, 2, &x.node_ids());
    let prop = if classed {
        let block = g.constant(x.prop.clone());
        g.gather_rows(block, &x.node_ids())
    } else {
        g.constant(gathered(&x.prop, &x.node_ids()))
    };
    let (wo, bo, wf, bf) = (v(g, 3), v(g, 4), v(g, 5), v(g, 6));
    let (attn, gamma, beta, head) = (v(g, 7), v(g, 8), v(g, 9), v(g, 10));
    let (wj, bj) = (v(g, 11), v(g, 12));

    // DGF over the op–hw joint rows, gated by them: rows differ by the ops
    // of their in-neighbours.
    let joint = g.concat_cols(op_e, hw);
    let gate = g.matmul(joint, wo);
    let gate = g.add_row_broadcast(gate, bo);
    let gate = g.sigmoid(gate);
    let xj = g.matmul(joint, wj);
    let xj = g.add_row_broadcast(xj, bj);
    let agg_j = g.block_matmul(prop, xj, n);
    let gated_j = g.mul(gate, agg_j);
    let refined = g.add(gated_j, xj);

    // DGF over node features plus the refined rows, gated the same way.
    // Node rows repeat in every block, so their map always shares rows.
    let node_act = g.sigmoid(node_e);
    let x0 = g.add(node_act, refined);
    let xf = g.matmul(x0, wf);
    let xf = g.add_row_broadcast(xf, bf);
    let agg = g.block_matmul(prop, xf, n);
    let gated = g.mul(gate, agg);
    let h = g.add(gated, xf);

    // GAT: masked attention over the stack, gated and normalized.
    let ah = g.matmul(h, attn);
    let logits = g.block_matmul_nt(ah, h, n);
    let scaled = g.scale(logits, 0.5);
    let e = g.leaky_relu(scaled, 0.2);
    let att = g.softmax_rows_masked(e, Some(prop));
    let ctx = g.block_matmul(att, h, n);
    let gated2 = g.mul(gate, ctx);
    let normed = g.layer_norm_rows(gated2, gamma, beta);
    let both = g.sub(normed, h);
    let act = g.tanh(both);
    let act = g.relu(act);

    // Readout: last node of each block next to the block mean, into a head.
    let last: Vec<usize> = (1..=x.blocks).map(|k| k * n - 1).collect();
    let out_rows = g.gather_rows(act, &last);
    let means = g.block_mean_rows(act, &vec![n; x.blocks]);
    let readout = g.concat_cols(out_rows, means);
    let score = g.matmul(readout, head);
    let sq = g.mul(score, score);
    let loss = g.sum_all(sq);
    let nodes = vec![
        op_e, hw, node_e, prop, joint, gate, xj, agg_j, gated_j, refined, node_act, x0, xf, agg,
        gated, h, ah, logits, scaled, e, att, ctx, gated2, normed, both, act, out_rows, means,
        readout, score, sq,
    ];
    (nodes, loss)
}

/// Value bits, gradient bits and parameter gradient bits of one pass, plus
/// its row counts.
fn run(p: &Params, x: &Inputs, classed: bool) -> (Vec<Vec<u32>>, (usize, usize)) {
    let mut g = Graph::new();
    let (nodes, loss) = pass(&mut g, p, x, classed);
    g.backward(loss);
    let mut out: Vec<Vec<u32>> = nodes.iter().map(|&v| bits(g.value(v))).collect();
    out.extend(nodes.iter().map(|&v| bits(g.grad(v))));
    let mut store = p.store.clone();
    store.zero_grads();
    g.write_grads(&mut store);
    // The tables get gradients only through the gathers.
    out.extend(p.ids[3..].iter().map(|&id| bits(store.grad(id))));
    let counts = g.row_counts();
    (out, (counts.produced, counts.computed))
}

fn inputs(blocks: usize, n: usize, seed: usize, prop_pool: &[f32]) -> Inputs {
    let rows = blocks * n;
    let pick =
        |i: usize, m: usize| (seed.wrapping_mul(2_654_435_761) >> (i % 17)).wrapping_add(i * i) % m;
    let ops = (0..rows).map(|i| pick(i, VOCAB)).collect();
    let devices = (0..blocks).map(|i| pick(i + 101, DEVICES)).collect();
    let mut prop = Tensor::from_vec(n, n, prop_pool[..n * n].to_vec());
    if seed % 3 != 0 {
        // Most blocks keep every self-loop, like the predictor's.
        for i in 0..n {
            prop.set(i, i, 1.0);
        }
    }
    Inputs {
        blocks,
        n,
        ops,
        devices,
        prop,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn classed_pass_is_bit_identical_to_unclassed(
        blocks in 1usize..MAX_BLOCKS + 1,
        n in 1usize..MAX_N + 1,
        seed in 0usize..1_000_000,
        weights in proptest::collection::vec(weight(), 600),
        prop_pool in proptest::collection::vec(prop_entry(), MAX_N * MAX_N),
    ) {
        let p = params(&weights);
        let x = inputs(blocks, n, seed, &prop_pool);
        let (classed, (produced, computed)) = run(&p, &x, true);
        let (plain, (plain_produced, plain_computed)) = run(&p, &x, false);
        prop_assert_eq!(classed.len(), plain.len());
        for (i, (a, b)) in classed.iter().zip(&plain).enumerate() {
            prop_assert!(a == b, "entry {i} differs (blocks {blocks}, n {n}, seed {seed})");
        }
        // Without classes every row is computed; with them, repeated
        // blocks share at least their node-embedding rows.
        prop_assert_eq!(plain_produced, produced);
        prop_assert_eq!(plain_computed, plain_produced);
        if blocks > 1 {
            prop_assert!(computed < produced, "nothing was shared: {computed} of {produced}");
        }
        prop_assert_eq!(produced, 13 * x.rows() + blocks);
    }
}
