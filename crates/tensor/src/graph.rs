//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a reusable tape: ops append nodes, [`Graph::backward`]
//! walks the tape in reverse accumulating gradients, and [`Graph::clear`]
//! resets it for the next forward pass while **retaining its arenas** — the
//! node vector's capacity and every node's `f32` buffer go back into a free
//! pool that subsequent passes draw from, so steady-state forward passes
//! allocate nothing. Parameters live outside the graph in a
//! [`ParamStore`](crate::ParamStore) and are inserted as leaves that remember
//! their [`ParamId`](crate::ParamId) so gradients can be written back.
//!
//! The op set is exactly what the NASFLAT predictor needs: matrix products,
//! element-wise arithmetic and activations, adjacency-masked softmax (for
//! graph attention), LayerNorm, row gather/scatter (embedding lookup), a
//! few reductions, and the multi-query block ops ([`Graph::block_matmul`],
//! [`Graph::block_matmul_nt`], [`Graph::block_mean_rows`]) that evaluate B
//! stacked queries per tape node. All dense inner loops run on the tiled and
//! unrolled [`kernels`](crate::kernels); `MatMul` backward uses the
//! transposed fast paths (`A·Bᵀ`, `Aᵀ·B`) instead of materializing
//! `transpose()` copies. The product ops skip the gradient of an operand
//! that requires none, such as the constant DGF propagation stack.
//!
//! Gradient buffers are **lazy**: nodes are pushed without them and
//! [`Graph::backward`] materializes the tape prefix's gradients (pooled,
//! zero-filled) before walking, so forward-only passes — batched prediction
//! sweeps — never allocate or zero a single gradient buffer.

use crate::kernels;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
#[allow(dead_code)] // scalar operands are kept for informative Debug output
enum Op {
    Leaf,
    MatMul(Var, Var),
    BlockMatMul(Var, Var, usize),
    BlockMatMulNt(Var, Var, usize),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    AddRowBroadcast(Var, Var),
    MulRowBroadcast(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    SoftmaxRowsMasked(Var, Option<Tensor>),
    LayerNormRows { x: Var, gamma: Var, beta: Var },
    ConcatCols(Var, Var),
    SliceRows(Var, usize, usize),
    BlockMeanRows(Var, Vec<usize>),
    Transpose(Var),
    Gather(Var, Vec<usize>),
    RepeatRow(Var, usize),
    MeanRows(Var),
    SumAll(Var),
    SumVars(Vec<Var>),
}

struct Node {
    value: Tensor,
    grad: Tensor,
    op: Op,
    requires_grad: bool,
    param: Option<ParamId>,
    /// Saved intermediates needed by backward (e.g. LayerNorm's normalized
    /// input and inverse std).
    aux: Vec<Tensor>,
}

/// A reverse-mode autodiff tape with a reusable buffer arena.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Recycled `f32` buffers from cleared passes; [`Graph::clear`] refills
    /// it, the private allocators below drain it.
    free: Vec<Vec<f32>>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(256),
            free: Vec::new(),
        }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Resets the tape for the next forward pass while retaining capacity:
    /// the node vector keeps its allocation and every node's value, gradient,
    /// aux, and mask buffer is recycled into the arena, so a cleared graph
    /// re-runs a same-shaped forward pass with (at most) a bounded handful
    /// of fresh allocations — pooled ops, gradients, and parameter leaves
    /// all draw from the arena.
    ///
    /// The arena is capped relative to the pass that was just cleared: a
    /// pass also *donates* buffers it allocated outside the pool (constants
    /// such as propagation matrices, attention-mask clones), and without a
    /// cap those would accumulate across thousands of session queries.
    /// Surplus buffers are dropped here instead.
    ///
    /// A cleared graph is indistinguishable from a fresh one — recycled
    /// buffers are re-zeroed on reuse, so outputs are bit-identical to
    /// building each pass on `Graph::new()`.
    pub fn clear(&mut self) {
        let nodes = self.nodes.len();
        for node in self.nodes.drain(..) {
            self.free.push(node.value.into_vec());
            let grad = node.grad.into_vec();
            if !grad.is_empty() {
                self.free.push(grad);
            }
            for aux in node.aux {
                self.free.push(aux.into_vec());
            }
            if let Op::SoftmaxRowsMasked(_, Some(mask)) = node.op {
                self.free.push(mask.into_vec());
            }
        }
        // One pass pops at most value + grad + aux buffers per node
        // (< 4 per node); anything beyond that bound can never be reused.
        self.free.truncate(4 * nodes + 16);
    }

    /// A zero-filled buffer of `len`, recycled from the arena when possible.
    fn take_buf(&mut self, len: usize) -> Vec<f32> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// A pooled zeros tensor.
    fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        let buf = self.take_buf(rows * cols);
        Tensor::from_vec(rows, cols, buf)
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.push_aux(value, op, requires_grad, Vec::new())
    }

    fn push_aux(&mut self, value: Tensor, op: Op, requires_grad: bool, aux: Vec<Tensor>) -> Var {
        // Gradient buffers are *lazy*: forward-only passes (batched
        // prediction sweeps) never pay for allocating or zeroing them —
        // `backward` materializes every tape-prefix gradient before walking.
        self.nodes.push(Node {
            value,
            grad: Tensor::zeros(0, 0),
            op,
            requires_grad,
            param: None,
            aux,
        });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Inserts a constant (no gradient will flow into it).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, false)
    }

    /// Inserts a leaf that participates in gradients but is not a stored
    /// parameter (used by tests and finite-difference checks).
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, true)
    }

    /// Inserts a parameter from `store`, remembering its id for
    /// [`Graph::write_grads`]. The on-tape copy uses a pooled buffer.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let src = store.value(id);
        let (rows, cols) = src.shape();
        let mut buf = match self.free.pop() {
            Some(mut b) => {
                b.clear();
                b
            }
            None => Vec::with_capacity(rows * cols),
        };
        buf.extend_from_slice(src.data());
        let v = self.push(Tensor::from_vec(rows, cols, buf), Op::Leaf, true);
        self.nodes[v.0].param = Some(id);
        v
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a node. Gradient storage is materialized by
    /// [`Graph::backward`] for gradient-requiring nodes; before it runs —
    /// or for constants and nodes pushed after the backward root — this is
    /// an empty `0×0` tensor.
    pub fn grad(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].grad
    }

    // ---- ops -------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, ka) = self.nodes[a.0].value.shape();
        let (kb, n) = self.nodes[b.0].value.shape();
        assert_eq!(
            ka,
            kb,
            "matmul shape mismatch: {:?} x {:?}",
            (m, ka),
            (kb, n)
        );
        let mut v = self.zeros(m, n);
        kernels::matmul(
            m,
            ka,
            n,
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            v.data_mut(),
        );
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MatMul(a, b), rg)
    }

    /// Per-block matrix product over **equal-size** stacked blocks: `a`
    /// holds B square `block×block` matrices stacked vertically
    /// (`B·block × block`), `b` holds B feature blocks (`B·block × c`), and
    /// output block `i` is `a_i · b_i`. The multi-query form of B separate
    /// [`Graph::matmul`]s — each block runs the identical kernel call, so
    /// results are bit-identical to the per-query passes (and to the dense
    /// block-diagonal product), at `Σ block²·c` cost and **one** tape node.
    ///
    /// # Panics
    /// Panics if `block` is 0, `a` is not `B·block × block`, or `b` has a
    /// different row count.
    pub fn block_matmul(&mut self, a: Var, b: Var, block: usize) -> Var {
        let (ra, ca) = self.nodes[a.0].value.shape();
        let (rb, cb) = self.nodes[b.0].value.shape();
        assert!(block > 0, "block_matmul needs a positive block size");
        assert!(
            ca == block && ra % block == 0,
            "block_matmul lhs must be stacked {block}x{block} blocks"
        );
        assert_eq!(ra, rb, "block_matmul row mismatch");
        let mut v = self.zeros(ra, cb);
        {
            let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
            for blk in 0..ra / block {
                let off = blk * block;
                kernels::matmul(
                    block,
                    block,
                    cb,
                    &ta.data()[off * block..(off + block) * block],
                    &tb.data()[off * cb..(off + block) * cb],
                    &mut v.data_mut()[off * cb..(off + block) * cb],
                );
            }
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::BlockMatMul(a, b, block), rg)
    }

    /// Per-block transposed product over equal-size stacked blocks: `a` and
    /// `b` both hold B `block×k` blocks stacked vertically, and output
    /// block `i` is `a_i · b_iᵀ` (`B·block × block`) — the multi-query form
    /// of the attention-logit product `matmul(a, transpose(b))`. Each block
    /// materializes `b_iᵀ` into a pooled scratch buffer and runs the same
    /// [`kernels::matmul`] call the per-query pass would, so results are
    /// bit-identical, and the B passes cost **one** tape node.
    ///
    /// # Panics
    /// Panics if `block` is 0, shapes differ, or the row count is not a
    /// multiple of `block`.
    pub fn block_matmul_nt(&mut self, a: Var, b: Var, block: usize) -> Var {
        let (ra, k) = self.nodes[a.0].value.shape();
        assert!(block > 0, "block_matmul_nt needs a positive block size");
        assert_eq!(
            self.nodes[b.0].value.shape(),
            (ra, k),
            "block_matmul_nt shape mismatch"
        );
        assert_eq!(ra % block, 0, "rows must be a multiple of the block size");
        let mut scratch = self.take_buf(k * block);
        let mut v = self.zeros(ra, block);
        {
            let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
            for blk in 0..ra / block {
                let off = blk * block;
                // b_iᵀ, laid out exactly like the per-query transpose node.
                for i in 0..block {
                    for j in 0..k {
                        scratch[j * block + i] = tb.get(off + i, j);
                    }
                }
                kernels::matmul(
                    block,
                    k,
                    block,
                    &ta.data()[off * k..(off + block) * k],
                    &scratch,
                    &mut v.data_mut()[off * block..(off + block) * block],
                );
            }
        }
        self.free.push(scratch);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::BlockMatMulNt(a, b, block), rg)
    }

    /// Element-wise sum. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (sa, sb) = (self.nodes[a.0].value.shape(), self.nodes[b.0].value.shape());
        assert_eq!(sa, sb, "add shape mismatch");
        let mut v = self.zeros(sa.0, sa.1);
        kernels::add(
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            v.data_mut(),
        );
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg)
    }

    /// Element-wise difference `a - b`. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (sa, sb) = (self.nodes[a.0].value.shape(), self.nodes[b.0].value.shape());
        assert_eq!(sa, sb, "sub shape mismatch");
        let mut v = self.zeros(sa.0, sa.1);
        kernels::sub(
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            v.data_mut(),
        );
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg)
    }

    /// Hadamard (element-wise) product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (sa, sb) = (self.nodes[a.0].value.shape(), self.nodes[b.0].value.shape());
        assert_eq!(sa, sb, "mul shape mismatch");
        let mut v = self.zeros(sa.0, sa.1);
        kernels::mul(
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            v.data_mut(),
        );
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MulElem(a, b), rg)
    }

    /// Adds a `1×c` row vector to every row of an `r×c` matrix.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        {
            let tb = &self.nodes[b.0].value;
            assert_eq!(tb.rows(), 1, "broadcast rhs must be a row vector");
            assert_eq!(c, tb.cols(), "broadcast col mismatch");
        }
        let mut v = self.zeros(r, c);
        {
            let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
            for i in 0..r {
                kernels::add(ta.row(i), tb.row(0), v.row_mut(i));
            }
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::AddRowBroadcast(a, b), rg)
    }

    /// Multiplies every row of an `r×c` matrix by a `1×c` row vector.
    pub fn mul_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        {
            let tb = &self.nodes[b.0].value;
            assert_eq!(tb.rows(), 1, "broadcast rhs must be a row vector");
            assert_eq!(c, tb.cols(), "broadcast col mismatch");
        }
        let mut v = self.zeros(r, c);
        {
            let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
            for i in 0..r {
                kernels::mul(ta.row(i), tb.row(0), v.row_mut(i));
            }
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MulRowBroadcast(a, b), rg)
    }

    /// Scalar multiple `s * a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.zeros(r, c);
        kernels::scale(s, self.nodes[a.0].value.data(), v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, s), rg)
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.zeros(r, c);
        kernels::add_scalar(s, self.nodes[a.0].value.data(), v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a, s), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.zeros(r, c);
        kernels::sigmoid(self.nodes[a.0].value.data(), v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::Sigmoid(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.zeros(r, c);
        kernels::tanh(self.nodes[a.0].value.data(), v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.zeros(r, c);
        kernels::relu(self.nodes[a.0].value.data(), v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.zeros(r, c);
        kernels::leaky_relu(slope, self.nodes[a.0].value.data(), v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::LeakyRelu(a, slope), rg)
    }

    /// Row-wise softmax. With `mask`, entries where `mask == 0` receive zero
    /// probability; an all-masked row becomes all zeros (no NaNs).
    pub fn softmax_rows_masked(&mut self, a: Var, mask: Option<Tensor>) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        if let Some(m) = &mask {
            assert_eq!(m.shape(), (r, c), "softmax mask shape mismatch");
        }
        let mut v = self.zeros(r, c);
        {
            let ta = &self.nodes[a.0].value;
            for row in 0..r {
                let allowed = |col: usize| mask.as_ref().is_none_or(|m| m.get(row, col) != 0.0);
                let mut maxv = f32::NEG_INFINITY;
                for col in 0..c {
                    if allowed(col) {
                        maxv = maxv.max(ta.get(row, col));
                    }
                }
                if !maxv.is_finite() {
                    continue; // fully masked row stays zero
                }
                let mut sum = 0.0;
                for col in 0..c {
                    if allowed(col) {
                        let e = (ta.get(row, col) - maxv).exp();
                        v.set(row, col, e);
                        sum += e;
                    }
                }
                if sum > 0.0 {
                    for col in 0..c {
                        v.set(row, col, v.get(row, col) / sum);
                    }
                }
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::SoftmaxRowsMasked(a, mask), rg)
    }

    /// Row-wise LayerNorm with per-column affine parameters
    /// (`gamma`, `beta` are `1×c`).
    pub fn layer_norm_rows(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        const EPS: f32 = 1e-5;
        let (r, c) = self.nodes[x.0].value.shape();
        assert_eq!(
            self.nodes[gamma.0].value.shape(),
            (1, c),
            "gamma must be 1xC"
        );
        assert_eq!(self.nodes[beta.0].value.shape(), (1, c), "beta must be 1xC");
        let mut xhat = self.zeros(r, c);
        let mut inv_std = self.zeros(r, 1);
        let mut out = self.zeros(r, c);
        {
            let tx = &self.nodes[x.0].value;
            let tg = &self.nodes[gamma.0].value;
            let tb = &self.nodes[beta.0].value;
            for i in 0..r {
                let row = tx.row(i);
                let mu = row.iter().sum::<f32>() / c as f32;
                let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / c as f32;
                let is = 1.0 / (var + EPS).sqrt();
                inv_std.set(i, 0, is);
                for (j, &rv) in row.iter().enumerate() {
                    let xh = (rv - mu) * is;
                    xhat.set(i, j, xh);
                    out.set(i, j, xh * tg.get(0, j) + tb.get(0, j));
                }
            }
        }
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        self.push_aux(
            out,
            Op::LayerNormRows { x, gamma, beta },
            rg,
            vec![xhat, inv_std],
        )
    }

    /// Horizontal concatenation `[a | b]`. Row counts must match.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (r, ca) = self.nodes[a.0].value.shape();
        let (rb, cb) = self.nodes[b.0].value.shape();
        assert_eq!(r, rb, "concat_cols row mismatch");
        let mut v = self.zeros(r, ca + cb);
        {
            let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
            for i in 0..r {
                v.row_mut(i)[..ca].copy_from_slice(ta.row(i));
                v.row_mut(i)[ca..].copy_from_slice(tb.row(i));
            }
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatCols(a, b), rg)
    }

    /// Contiguous row slice `a[start .. start+len]`.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        assert!(start + len <= r, "slice_rows out of range");
        let mut v = self.zeros(len, c);
        {
            let ta = &self.nodes[a.0].value;
            for i in 0..len {
                v.row_mut(i).copy_from_slice(ta.row(start + i));
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::SliceRows(a, start, len), rg)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.zeros(c, r);
        {
            let ta = &self.nodes[a.0].value;
            for i in 0..r {
                for j in 0..c {
                    v.set(j, i, ta.get(i, j));
                }
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::Transpose(a), rg)
    }

    /// Row gather: output row `i` is input row `indices[i]` (embedding
    /// lookup). Indices may repeat; backward scatter-adds.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let (rows, c) = self.nodes[a.0].value.shape();
        let mut v = self.zeros(indices.len(), c);
        {
            let ta = &self.nodes[a.0].value;
            for (i, &ix) in indices.iter().enumerate() {
                assert!(ix < rows, "gather index {ix} out of range ({rows} rows)");
                v.row_mut(i).copy_from_slice(ta.row(ix));
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::Gather(a, indices.to_vec()), rg)
    }

    /// Tiles a `1×c` row vector into an `n×c` matrix.
    pub fn repeat_row(&mut self, a: Var, n: usize) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        assert_eq!(r, 1, "repeat_row needs a row vector");
        let mut v = self.zeros(n, c);
        {
            let ta = &self.nodes[a.0].value;
            for i in 0..n {
                v.row_mut(i).copy_from_slice(ta.row(0));
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::RepeatRow(a, n), rg)
    }

    /// Mean over rows: `r×c → 1×c`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        assert!(r > 0, "mean_rows on empty matrix");
        let mut v = self.zeros(1, c);
        {
            let ta = &self.nodes[a.0].value;
            for i in 0..r {
                for j in 0..c {
                    v.set(0, j, v.get(0, j) + ta.get(i, j) / r as f32);
                }
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::MeanRows(a), rg)
    }

    /// Per-block row means over consecutive row blocks: with `sizes =
    /// [n_0, …, n_{B-1}]` (summing to `a`'s row count), output row `b` is
    /// the mean of `a`'s rows `[offset(b), offset(b)+n_b)` — `Σn_b×c → B×c`.
    ///
    /// Each block accumulates with exactly the loop order of
    /// [`Graph::mean_rows`] on that block alone, so a stacked multi-query
    /// pass reproduces the per-query readout bit-for-bit.
    ///
    /// # Panics
    /// Panics if `sizes` is empty, contains a zero, or does not sum to the
    /// row count.
    pub fn block_mean_rows(&mut self, a: Var, sizes: &[usize]) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        assert!(
            !sizes.is_empty(),
            "block_mean_rows needs at least one block"
        );
        assert_eq!(
            sizes.iter().sum::<usize>(),
            r,
            "block_mean_rows sizes must sum to the row count"
        );
        let mut v = self.zeros(sizes.len(), c);
        {
            let ta = &self.nodes[a.0].value;
            let mut off = 0usize;
            for (b, &n) in sizes.iter().enumerate() {
                assert!(n > 0, "block_mean_rows zero-row block");
                for i in 0..n {
                    for j in 0..c {
                        v.set(b, j, v.get(b, j) + ta.get(off + i, j) / n as f32);
                    }
                }
                off += n;
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::BlockMeanRows(a, sizes.to_vec()), rg)
    }

    /// Sum of all elements: `r×c → 1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let mut v = self.zeros(1, 1);
        v.set(0, 0, self.nodes[a.0].value.sum());
        let rg = self.rg(a);
        self.push(v, Op::SumAll(a), rg)
    }

    /// Sums several same-shaped vars (used to accumulate per-pair losses).
    ///
    /// # Panics
    /// Panics if `vars` is empty or shapes differ.
    pub fn sum_vars(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "sum_vars on empty list");
        let shape = self.nodes[vars[0].0].value.shape();
        let mut v = self.zeros(shape.0, shape.1);
        let mut rg = false;
        for &x in vars {
            assert_eq!(
                self.nodes[x.0].value.shape(),
                shape,
                "sum_vars shape mismatch"
            );
            v.axpy(1.0, &self.nodes[x.0].value);
            rg |= self.rg(x);
        }
        self.push(v, Op::SumVars(vars.to_vec()), rg)
    }

    // ---- backward ---------------------------------------------------------

    /// Runs reverse-mode differentiation from `root`, which must be `1×1`.
    ///
    /// Gradients accumulate in the tape; call [`Graph::write_grads`] to move
    /// parameter gradients into the store.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.nodes[root.0].value.shape(),
            (1, 1),
            "backward root must be a scalar"
        );
        // Materialize the lazy gradient buffers for the tape prefix (pooled,
        // zero-filled) — push defers them so forward-only passes skip the
        // allocation and zeroing entirely. Constants stay empty: the walk
        // skips them, accum is requires_grad-guarded, and zeroing the tape's
        // largest buffers (propagation matrices, masks) every training step
        // would be pure waste.
        for i in 0..=root.0 {
            if self.nodes[i].requires_grad && self.nodes[i].grad.is_empty() {
                let (r, c) = self.nodes[i].value.shape();
                let zeros = self.zeros(r, c);
                self.nodes[i].grad = zeros;
            }
        }
        self.nodes[root.0].grad = Tensor::scalar(1.0);
        for i in (0..=root.0).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            if self.nodes[i].grad.data().iter().all(|&g| g == 0.0) {
                continue;
            }
            self.backprop_node(i);
        }
    }

    fn accum(&mut self, v: Var, delta: &Tensor) {
        if self.nodes[v.0].requires_grad {
            self.nodes[v.0].grad.axpy(1.0, delta);
        }
    }

    /// [`Graph::accum`] for a gradient that is only computed when `v`
    /// requires one (`None` otherwise).
    fn accum_some(&mut self, v: Var, delta: Option<Tensor>) {
        if let Some(delta) = delta {
            self.accum(v, &delta);
        }
    }

    fn backprop_node(&mut self, i: usize) {
        let g = self.nodes[i].grad.clone();
        // Temporarily take the op out (restored below) instead of deep-cloning
        // it: softmax masks and gather index lists stay in place.
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
        match &op {
            Op::Leaf => {}
            &Op::BlockMatMul(a, b, block) => {
                // Per block: dA_i = g_i·B_iᵀ, dB_i = A_iᵀ·g_i — the same
                // transposed fast paths as `MatMul`, block by block. An
                // operand that needs no gradient (the DGF propagation stack
                // is a constant) gets none computed.
                let (da, db) = {
                    let ta = &self.nodes[a.0].value;
                    let tb = &self.nodes[b.0].value;
                    let c = tb.cols();
                    let mut da = self.rg(a).then(|| Tensor::zeros(ta.rows(), ta.cols()));
                    let mut db = self.rg(b).then(|| Tensor::zeros(tb.rows(), tb.cols()));
                    for blk in 0..ta.rows() / block {
                        let off = blk * block;
                        if let Some(da) = &mut da {
                            kernels::matmul_nt(
                                block,
                                c,
                                block,
                                &g.data()[off * c..(off + block) * c],
                                &tb.data()[off * c..(off + block) * c],
                                &mut da.data_mut()[off * block..(off + block) * block],
                            );
                        }
                        if let Some(db) = &mut db {
                            kernels::matmul_tn(
                                block,
                                block,
                                c,
                                &ta.data()[off * block..(off + block) * block],
                                &g.data()[off * c..(off + block) * c],
                                &mut db.data_mut()[off * c..(off + block) * c],
                            );
                        }
                    }
                    (da, db)
                };
                self.accum_some(a, da);
                self.accum_some(b, db);
            }
            &Op::BlockMatMulNt(a, b, block) => {
                // Per block (logits L_i = A_i·B_iᵀ): dA_i = g_i·B_i,
                // dB_i = g_iᵀ·A_i.
                let (da, db) = {
                    let ta = &self.nodes[a.0].value;
                    let tb = &self.nodes[b.0].value;
                    let k = ta.cols();
                    let mut da = self.rg(a).then(|| Tensor::zeros(ta.rows(), k));
                    let mut db = self.rg(b).then(|| Tensor::zeros(tb.rows(), k));
                    for blk in 0..ta.rows() / block {
                        let off = blk * block;
                        if let Some(da) = &mut da {
                            kernels::matmul(
                                block,
                                block,
                                k,
                                &g.data()[off * block..(off + block) * block],
                                &tb.data()[off * k..(off + block) * k],
                                &mut da.data_mut()[off * k..(off + block) * k],
                            );
                        }
                        if let Some(db) = &mut db {
                            kernels::matmul_tn(
                                block,
                                block,
                                k,
                                &g.data()[off * block..(off + block) * block],
                                &ta.data()[off * k..(off + block) * k],
                                &mut db.data_mut()[off * k..(off + block) * k],
                            );
                        }
                    }
                    (da, db)
                };
                self.accum_some(a, da);
                self.accum_some(b, db);
            }
            &Op::MatMul(a, b) => {
                // Transposed fast paths: dA = g·Bᵀ, dB = Aᵀ·g — bit-identical
                // to the former transpose()-then-matmul, without the copies.
                let da = self.rg(a).then(|| g.matmul_nt(&self.nodes[b.0].value));
                let db = self.rg(b).then(|| self.nodes[a.0].value.matmul_tn(&g));
                self.accum_some(a, da);
                self.accum_some(b, db);
            }
            &Op::Add(a, b) => {
                self.accum(a, &g);
                self.accum(b, &g);
            }
            &Op::Sub(a, b) => {
                self.accum(a, &g);
                let neg = g.map(|x| -x);
                self.accum(b, &neg);
            }
            &Op::MulElem(a, b) => {
                let da = self.rg(a).then(|| elem_mul(&g, &self.nodes[b.0].value));
                let db = self.rg(b).then(|| elem_mul(&g, &self.nodes[a.0].value));
                self.accum_some(a, da);
                self.accum_some(b, db);
            }
            &Op::AddRowBroadcast(a, b) => {
                self.accum(a, &g);
                let db = col_sums(&g);
                self.accum(b, &db);
            }
            &Op::MulRowBroadcast(a, b) => {
                let (da, db) = {
                    let va = &self.nodes[a.0].value;
                    let vb = &self.nodes[b.0].value;
                    let mut da = g.clone();
                    for r in 0..da.rows() {
                        kernels::mul(g.row(r), vb.row(0), da.row_mut(r));
                    }
                    let mut db = Tensor::zeros(1, vb.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            db.set(0, c, db.get(0, c) + g.get(r, c) * va.get(r, c));
                        }
                    }
                    (da, db)
                };
                self.accum(a, &da);
                self.accum(b, &db);
            }
            &Op::Scale(a, s) => {
                let da = g.map(|x| x * s);
                self.accum(a, &da);
            }
            &Op::AddScalar(a, _) => self.accum(a, &g),
            &Op::Sigmoid(a) => {
                let mut da = g.clone();
                for (d, &yv) in da.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                    *d *= yv * (1.0 - yv);
                }
                self.accum(a, &da);
            }
            &Op::Tanh(a) => {
                let mut da = g.clone();
                for (d, &yv) in da.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                    *d *= 1.0 - yv * yv;
                }
                self.accum(a, &da);
            }
            &Op::Relu(a) => {
                let mut da = g.clone();
                for (d, &xv) in da.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
                    if xv <= 0.0 {
                        *d = 0.0;
                    }
                }
                self.accum(a, &da);
            }
            &Op::LeakyRelu(a, slope) => {
                let mut da = g.clone();
                for (d, &xv) in da.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
                    if xv <= 0.0 {
                        *d *= slope;
                    }
                }
                self.accum(a, &da);
            }
            Op::SoftmaxRowsMasked(a, _mask) => {
                let a = *a;
                let da = {
                    let y = &self.nodes[i].value;
                    let (r, c) = y.shape();
                    let mut da = Tensor::zeros(r, c);
                    for row in 0..r {
                        let mut dot = 0.0;
                        for col in 0..c {
                            dot += g.get(row, col) * y.get(row, col);
                        }
                        for col in 0..c {
                            let yv = y.get(row, col);
                            da.set(row, col, yv * (g.get(row, col) - dot));
                        }
                    }
                    da
                };
                self.accum(a, &da);
            }
            &Op::LayerNormRows { x, gamma, beta } => {
                let (dgamma, dbeta, dx) = {
                    let xhat = &self.nodes[i].aux[0];
                    let inv_std = &self.nodes[i].aux[1];
                    let tg = &self.nodes[gamma.0].value;
                    let (r, c) = xhat.shape();
                    let mut dgamma = Tensor::zeros(1, c);
                    let mut dbeta = Tensor::zeros(1, c);
                    for row in 0..r {
                        for col in 0..c {
                            dgamma.set(
                                0,
                                col,
                                dgamma.get(0, col) + g.get(row, col) * xhat.get(row, col),
                            );
                            dbeta.set(0, col, dbeta.get(0, col) + g.get(row, col));
                        }
                    }
                    let mut dx = Tensor::zeros(r, c);
                    for row in 0..r {
                        let is = inv_std.get(row, 0);
                        let mut mean_dxhat = 0.0;
                        let mut mean_dxhat_xhat = 0.0;
                        for col in 0..c {
                            let dxh = g.get(row, col) * tg.get(0, col);
                            mean_dxhat += dxh;
                            mean_dxhat_xhat += dxh * xhat.get(row, col);
                        }
                        mean_dxhat /= c as f32;
                        mean_dxhat_xhat /= c as f32;
                        for col in 0..c {
                            let dxh = g.get(row, col) * tg.get(0, col);
                            let v = is * (dxh - mean_dxhat - xhat.get(row, col) * mean_dxhat_xhat);
                            dx.set(row, col, v);
                        }
                    }
                    (dgamma, dbeta, dx)
                };
                self.accum(gamma, &dgamma);
                self.accum(beta, &dbeta);
                self.accum(x, &dx);
            }
            &Op::ConcatCols(a, b) => {
                let ca = self.nodes[a.0].value.cols();
                let cb = self.nodes[b.0].value.cols();
                let r = g.rows();
                let mut da = Tensor::zeros(r, ca);
                let mut db = Tensor::zeros(r, cb);
                for row in 0..r {
                    da.row_mut(row).copy_from_slice(&g.row(row)[..ca]);
                    db.row_mut(row).copy_from_slice(&g.row(row)[ca..]);
                }
                self.accum(a, &da);
                self.accum(b, &db);
            }
            Op::BlockMeanRows(a, sizes) => {
                let a = *a;
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = Tensor::zeros(r, c);
                let mut off = 0usize;
                for (b, &n) in sizes.iter().enumerate() {
                    for i in 0..n {
                        for j in 0..c {
                            da.set(off + i, j, g.get(b, j) / n as f32);
                        }
                    }
                    off += n;
                }
                self.accum(a, &da);
            }
            &Op::SliceRows(a, start, len) => {
                let ta_shape = self.nodes[a.0].value.shape();
                let mut da = Tensor::zeros(ta_shape.0, ta_shape.1);
                for i2 in 0..len {
                    da.row_mut(start + i2).copy_from_slice(g.row(i2));
                }
                self.accum(a, &da);
            }
            &Op::Transpose(a) => {
                let da = g.transpose();
                self.accum(a, &da);
            }
            Op::Gather(a, indices) => {
                let a = *a;
                let ta_shape = self.nodes[a.0].value.shape();
                let mut da = Tensor::zeros(ta_shape.0, ta_shape.1);
                for (row, &ix) in indices.iter().enumerate() {
                    kernels::axpy(1.0, g.row(row), da.row_mut(ix));
                }
                self.accum(a, &da);
            }
            &Op::RepeatRow(a, _n) => {
                let da = col_sums(&g);
                self.accum(a, &da);
            }
            &Op::MeanRows(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = Tensor::zeros(r, c);
                for row in 0..r {
                    for col in 0..c {
                        da.set(row, col, g.get(0, col) / r as f32);
                    }
                }
                self.accum(a, &da);
            }
            &Op::SumAll(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let da = Tensor::full(r, c, g.item());
                self.accum(a, &da);
            }
            Op::SumVars(vars) => {
                for &v in vars {
                    self.accum(v, &g);
                }
            }
        }
        self.nodes[i].op = op;
    }

    /// Accumulates gradients of all parameter leaves into the store. Leaves
    /// whose gradient was never materialized (no `backward` reached them)
    /// contribute nothing.
    pub fn write_grads(&self, store: &mut ParamStore) {
        for node in &self.nodes {
            if let Some(pid) = node.param {
                if !node.grad.is_empty() {
                    store.grad_mut(pid).axpy(1.0, &node.grad);
                }
            }
        }
    }
}

fn elem_mul(a: &Tensor, b: &Tensor) -> Tensor {
    debug_assert_eq!(a.shape(), b.shape());
    let mut out = Tensor::zeros(a.rows(), a.cols());
    kernels::mul(a.data(), b.data(), out.data_mut());
    out
}

fn col_sums(g: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(1, g.cols());
    for r in 0..g.rows() {
        kernels::axpy(1.0, g.row(r), out.row_mut(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `sum(mask ⊙ (P ⊛ X)·W) + sum((P ⊛ X) ⊛ Qᵀ)` (`⊛` per
    /// 3-row block) with `P`, `mask` and `Q` as constants or as gradient
    /// leaves, and returns the gradients of P, mask, Q, X and W.
    fn constant_operand_grads(constants: bool) -> [Tensor; 5] {
        let ramp = |rows: usize, cols: usize, seed: f32| {
            let data = (0..rows * cols)
                .map(|i| ((i as f32 * 0.43 + seed).sin() * 2.0) - 0.3)
                .collect();
            Tensor::from_vec(rows, cols, data)
        };
        let mut g = Graph::new();
        let input = |g: &mut Graph, t: Tensor| {
            if constants {
                g.constant(t)
            } else {
                g.leaf(t)
            }
        };
        let p = input(&mut g, ramp(6, 3, 0.1));
        let mask = input(&mut g, ramp(6, 2, 0.9));
        let q = input(&mut g, ramp(6, 4, 2.3));
        let x = g.leaf(ramp(6, 4, 0.5));
        let w = g.leaf(ramp(4, 2, 1.7));
        let px = g.block_matmul(p, x, 3);
        let h = g.matmul(px, w);
        let masked = g.mul(mask, h);
        let logits = g.block_matmul_nt(px, q, 3);
        let (s1, s2) = (g.sum_all(masked), g.sum_all(logits));
        let loss = g.add(s1, s2);
        g.backward(loss);
        [p, mask, q, x, w].map(|v| g.grad(v).clone())
    }

    #[test]
    fn constant_operands_get_no_gradient_and_leave_the_rest_unchanged() {
        let [p, mask, q, x, w] = constant_operand_grads(true);
        for (name, grad) in [("P", &p), ("mask", &mask), ("Q", &q)] {
            assert_eq!(grad.shape(), (0, 0), "constant {name} got a gradient");
        }
        let [p_leaf, mask_leaf, q_leaf, x_leaf, w_leaf] = constant_operand_grads(false);
        assert_eq!(p_leaf.shape(), (6, 3));
        assert_eq!(mask_leaf.shape(), (6, 2));
        assert_eq!(q_leaf.shape(), (6, 4));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&x_leaf));
        assert_eq!(bits(&w), bits(&w_leaf));
    }

    #[test]
    fn matmul_forward_and_backward() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = g.leaf(Tensor::from_vec(2, 1, vec![3.0, 4.0]));
        let y = g.matmul(a, b);
        assert_eq!(g.value(y).item(), 11.0);
        g.backward(y);
        assert_eq!(g.grad(a).data(), &[3.0, 4.0]);
        assert_eq!(g.grad(b).data(), &[1.0, 2.0]);
    }

    #[test]
    fn chain_rule_through_sigmoid() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(0.0));
        let y = g.sigmoid(x);
        let z = g.scale(y, 4.0);
        g.backward(z);
        // d/dx 4*sigmoid(x) at 0 = 4 * 0.25 = 1
        assert!((g.grad(x).item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gather_scatter_adds_for_repeats() {
        let mut g = Graph::new();
        let table = g.leaf(Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let picked = g.gather_rows(table, &[1, 1, 2]);
        let s = g.sum_all(picked);
        g.backward(s);
        assert_eq!(g.grad(table).data(), &[0.0, 2.0, 1.0]);
    }

    #[test]
    fn masked_softmax_zeroes_masked_and_all_masked_rows() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(2, 2, vec![1.0, 2.0, 5.0, 5.0]));
        let mask = Tensor::from_vec(2, 2, vec![1.0, 1.0, 0.0, 0.0]);
        let y = g.softmax_rows_masked(x, Some(mask));
        let v = g.value(y);
        assert!((v.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(v.row(1), &[0.0, 0.0]);
        assert!(!v.has_non_finite());
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::scalar(2.0));
        let x = g.leaf(Tensor::scalar(3.0));
        let y = g.mul(c, x);
        g.backward(y);
        // Constants never get gradient storage — backward materializes
        // buffers only for gradient-requiring nodes.
        assert!(g.grad(c).is_empty());
        assert!(g.grad(c).data().iter().all(|&v| v == 0.0));
        assert_eq!(g.grad(x).item(), 2.0);
    }

    #[test]
    fn sum_vars_fans_out_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::scalar(1.0));
        let b = g.leaf(Tensor::scalar(2.0));
        let c = g.leaf(Tensor::scalar(3.0));
        let s = g.sum_vars(&[a, b, c]);
        assert_eq!(g.value(s).item(), 6.0);
        g.backward(s);
        for v in [a, b, c] {
            assert_eq!(g.grad(v).item(), 1.0);
        }
    }

    #[test]
    fn block_mean_rows_matches_per_block_mean_rows_bitwise() {
        // Awkward values whose division is rounding-sensitive: the block op
        // must reproduce mean_rows on each slice exactly.
        let data: Vec<f32> = (0..7 * 3).map(|i| (i as f32 * 0.31).tan()).collect();
        let sizes = [1usize, 4, 2];
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(7, 3, data.clone()));
        let bm = g.block_mean_rows(x, &sizes);
        assert_eq!(g.value(bm).shape(), (3, 3));
        let mut off = 0;
        for (b, &n) in sizes.iter().enumerate() {
            let mut g2 = Graph::new();
            let xb = g2.leaf(Tensor::from_vec(
                n,
                3,
                data[off * 3..(off + n) * 3].to_vec(),
            ));
            let m = g2.mean_rows(xb);
            assert_eq!(
                g.value(bm)
                    .row(b)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                g2.value(m)
                    .row(0)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "block {b}"
            );
            off += n;
        }
        // gradient: each input row receives g_row / n_block
        let s = g.sum_all(bm);
        g.backward(s);
        assert_eq!(g.grad(x).get(0, 0), 1.0);
        assert_eq!(g.grad(x).get(2, 1), 0.25);
        assert_eq!(g.grad(x).get(6, 2), 0.5);
    }

    #[test]
    #[should_panic(expected = "sizes must sum to the row count")]
    fn block_mean_rows_rejects_bad_layout() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(5, 2));
        let _ = g.block_mean_rows(x, &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "backward root must be a scalar")]
    fn backward_requires_scalar_root() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::zeros(2, 2));
        g.backward(a);
    }

    /// A small forward+backward pass used by the arena-reuse tests.
    fn run_pass(g: &mut Graph, seed: f32) -> (Vec<u32>, Vec<u32>) {
        let x = g.leaf(Tensor::from_vec(
            2,
            3,
            vec![seed, -1.0, 2.5, 0.0, seed, 3.0],
        ));
        let w = g.leaf(Tensor::from_vec(
            3,
            2,
            vec![0.5, -0.25, seed, 1.0, -2.0, 0.75],
        ));
        let h = g.matmul(x, w);
        let act = g.tanh(h);
        let mask = Tensor::from_vec(2, 2, vec![1.0, 0.0, 1.0, 1.0]);
        let sm = g.softmax_rows_masked(act, Some(mask));
        let loss = g.sum_all(sm);
        g.backward(loss);
        let out = g.value(sm).data().iter().map(|v| v.to_bits()).collect();
        let gx = g.grad(x).data().iter().map(|v| v.to_bits()).collect();
        (out, gx)
    }

    #[test]
    fn cleared_graph_is_bit_identical_to_a_fresh_one() {
        let mut fresh = Graph::new();
        let expect = run_pass(&mut fresh, 1.25);

        let mut reused = Graph::new();
        // Warm the arena with a *different* pass first, then clear.
        let _ = run_pass(&mut reused, -3.5);
        reused.clear();
        assert!(reused.is_empty());
        let got = run_pass(&mut reused, 1.25);
        assert_eq!(expect, got, "arena reuse changed bits");

        // And again: repeated reuse stays exact.
        reused.clear();
        assert_eq!(expect, run_pass(&mut reused, 1.25));
    }

    #[test]
    fn clear_recycles_buffers_into_the_arena() {
        let mut g = Graph::new();
        let _ = run_pass(&mut g, 0.5);
        let nodes = g.len();
        assert!(nodes > 0);
        g.clear();
        assert_eq!(g.len(), 0);
        // The next pass pops recycled buffers instead of allocating: the
        // free list shrinks while the pass runs.
        let before = g.free.len();
        assert!(before >= nodes, "expected >= {nodes} pooled buffers");
        let _ = run_pass(&mut g, 0.5);
        assert!(g.free.len() < before, "pass did not draw from the arena");
    }

    #[test]
    fn arena_stays_bounded_across_many_reuses() {
        // Leaves and masks are allocated outside the pool and donated on
        // clear(); the cap must stop them from accumulating forever.
        let mut g = Graph::new();
        let mut sizes = Vec::new();
        for _ in 0..60 {
            let _ = run_pass(&mut g, 0.5);
            g.clear();
            sizes.push(g.free.len());
        }
        assert_eq!(
            sizes[40],
            *sizes.last().unwrap(),
            "free pool kept growing: {sizes:?}"
        );
    }

    #[test]
    fn param_copies_draw_from_the_arena_and_write_grads_back() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 2, vec![2.0, -1.0]));
        store.zero_grads();
        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let x = g.constant(Tensor::from_vec(2, 1, vec![3.0, 4.0]));
        let y = g.matmul(wv, x);
        g.backward(y);
        g.write_grads(&mut store);
        assert_eq!(store.grad(w).data(), &[3.0, 4.0]);
        // Reuse: same computation after clear gives the same gradient again.
        g.clear();
        store.zero_grads();
        let wv = g.param(&store, w);
        let x = g.constant(Tensor::from_vec(2, 1, vec![3.0, 4.0]));
        let y = g.matmul(wv, x);
        g.backward(y);
        g.write_grads(&mut store);
        assert_eq!(store.grad(w).data(), &[3.0, 4.0]);
    }
}
