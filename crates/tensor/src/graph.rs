//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a reusable tape: ops append nodes, [`Graph::backward`]
//! walks the tape in reverse accumulating gradients, and [`Graph::clear`]
//! resets it for the next forward pass while **retaining its arenas** — the
//! node vector's capacity and every node's `f32` buffer go back into a free
//! pool that subsequent passes draw from, so steady-state forward passes
//! allocate next to nothing and a steady-state backward pass allocates
//! nothing at all. Parameters live outside the graph in a
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
//! Gradients are **first-touch**: nodes are pushed without gradient
//! storage, and a node's gradient stays empty until the backward walk
//! delivers its first contribution, which *becomes* the gradient (as
//! `x + 0.0` per element — the bits of adding it onto zeros); later
//! contributions accumulate onto it in walk order. Every contribution is a
//! pooled temporary that either moves into the operand's gradient or goes
//! back to the pool, so the walk neither zero-fills nor clones a buffer.
//! After the walk, gradient-requiring nodes that the root never reached get
//! pooled zeros, so [`Graph::grad`] reads exactly what accumulating onto
//! zero-filled buffers would give. Forward-only passes — batched prediction
//! sweeps — never touch a gradient buffer.
//!
//! The pool is **best-fit**: free buffers are filed by capacity, and an
//! allocation takes the most recently freed buffer of the smallest
//! capacity that fits. Small requests therefore never take (and large ones
//! never grow) a buffer another shape on the tape needs, and passes of
//! alternating shapes — a 16-architecture batch, then a 4-architecture
//! one — find their buffers wherever the previous pass left them.
//!
//! # Row classes
//!
//! A stacked pass repeats rows: every block has the same topology, many
//! share ops, and a training batch shares its device. The forward pass
//! therefore tracks, per node, which rows are equal **by provenance** — a
//! class set, derived from how rows were computed, never from comparing
//! `f32` bits:
//!
//! - [`Graph::gather_rows`] is the source: rows gathered from one row (or
//!   from one class of a classed input) are one class. A gather from a
//!   1-column source carries none: its rows hold one value each, so a
//!   class set could pay off only through a later product that widens
//!   them, and no tape here builds one (the stacked hinge loss's pair
//!   gathers feed element-wise maps). Leaves, constants and parameters
//!   carry none either: all their rows are distinct.
//! - Row-wise ops keep their input's classes: `MatMul`, the row broadcast
//!   (whose right operand is a single row), the element-wise maps and
//!   `LayerNormRows`.
//! - Same-shape binary ops, `ConcatCols` and the masked softmax (with its
//!   mask) pair their two inputs' classes: rows are equal where both are.
//! - `BlockMatMul` keys each row by its left row's class plus the right
//!   operand's classes at that row's nonzero columns — exactly the terms
//!   the kernel does not skip. `BlockMatMulNt` keys each row by its left
//!   row's class and its block's classes on the right, so a stack whose
//!   blocks all carry the same classes computes one block.
//! - Every other op produces distinct rows.
//!
//! The class-aware ops — the products, `Sigmoid`, `Tanh`, the masked
//! softmax and `LayerNormRows` — compute one representative row per class
//! with the same kernel and per-row order, then copy it to the other rows;
//! the cheap maps compute every row. A row's bits depend only on its
//! inputs' rows, so the copy is bit for bit what computing the row would
//! give. Every node value is therefore unchanged and fully materialized,
//! and the backward pass — which reads only values, `aux` and gradients —
//! is untouched. [`Graph::row_counts`] reports the rows a pass produced
//! and computed.

use crate::classes::{
    copy_class_rows, for_each_block_run, for_each_rep_run, ClassId, RowClasses, RowCounts, NONE,
};
use crate::kernels;
use crate::params::{ParamId, ParamStore};
use crate::pool::Pool;
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
    Scale(Var, f32),
    AddScalar(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    SoftmaxRowsMasked(Var, Option<Var>),
    LayerNormRows { x: Var, gamma: Var, beta: Var },
    ConcatCols(Var, Var),
    SliceRows(Var, usize, usize),
    BlockMeanRows(Var, Vec<usize>),
    Transpose(Var),
    Gather(Var, Vec<usize>),
    MeanRows(Var),
    SumAll(Var),
    SumVars(Vec<Var>),
}

struct Node {
    value: Tensor,
    /// Empty until the backward walk's first contribution arrives.
    grad: Tensor,
    op: Op,
    requires_grad: bool,
    param: Option<ParamId>,
    /// Saved intermediates needed by backward (e.g. LayerNorm's normalized
    /// input and inverse std).
    aux: Vec<Tensor>,
    /// Row classes: the set of rows equal by provenance ([`NONE`] when
    /// all rows are distinct).
    classes: ClassId,
}

/// A reverse-mode autodiff tape with a reusable buffer arena.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    pool: Pool<f32>,
    classes: RowClasses,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(256),
            ..Graph::default()
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

    /// Rows produced and computed by class-aware ops since the last
    /// [`Graph::clear`].
    pub fn row_counts(&self) -> RowCounts {
        self.classes.counts()
    }

    /// Resets the tape for the next forward pass while retaining capacity:
    /// the node vector keeps its allocation and every buffer the pass took
    /// from the arena — op values, parameter copies, gradients, aux, row
    /// classes — goes back to it, so a cleared graph re-runs a same-shaped
    /// forward pass with (at most) a bounded handful of fresh allocations
    /// and its backward pass with none.
    ///
    /// Constants and plain leaves hold buffers their caller allocated
    /// (propagation matrices, node features); those are dropped here rather
    /// than pooled, so the arena holds only what passes draw from it. It is
    /// also capped relative to the pass just cleared, largest buffers
    /// dropped first, so a long run of ever-changing shapes cannot grow it
    /// without bound.
    ///
    /// A cleared graph is indistinguishable from a fresh one — recycled
    /// buffers are overwritten on reuse, so outputs are bit-identical to
    /// building each pass on `Graph::new()`.
    pub fn clear(&mut self) {
        let nodes = self.nodes.len();
        for node in self.nodes.drain(..) {
            if node.param.is_some() || !matches!(node.op, Op::Leaf) {
                self.pool.give(node.value.into_vec());
            }
            let grad = node.grad.into_vec();
            if !grad.is_empty() {
                self.pool.give(grad);
            }
            for aux in node.aux {
                self.pool.put(aux);
            }
        }
        // One pass takes fewer than 4 buffers per node (value, gradient,
        // aux); room for two passes' worth lets alternating shapes — a full
        // batch and a remainder batch — both keep theirs.
        self.pool.trim(8 * nodes + 16);
        self.classes.clear();
    }

    /// A pooled zeros tensor.
    fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        self.pool.zeros(rows, cols)
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.push_classed(value, op, requires_grad, Vec::new(), NONE)
    }

    fn push_classed(
        &mut self,
        value: Tensor,
        op: Op,
        requires_grad: bool,
        aux: Vec<Tensor>,
        classes: ClassId,
    ) -> Var {
        // Gradients are first-touch: forward-only passes (batched
        // prediction sweeps) never pay for them, and `backward` gives a node
        // storage only when its first contribution arrives.
        self.nodes.push(Node {
            value,
            grad: Tensor::zeros(0, 0),
            op,
            requires_grad,
            param: None,
            aux,
            classes,
        });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The row classes of `v`'s node.
    fn class(&self, v: Var) -> ClassId {
        self.nodes[v.0].classes
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
        let mut buf = self.pool.take(rows * cols);
        buf.extend_from_slice(src.data());
        let v = self.push(Tensor::from_vec(rows, cols, buf), Op::Leaf, true);
        self.nodes[v.0].param = Some(id);
        v
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a node. After [`Graph::backward`], every
    /// gradient-requiring node up to the root holds its accumulated
    /// gradient, or zeros of its value's shape if the root never reached
    /// it. Before backward runs — and for constants and nodes pushed after
    /// the backward root — this is an empty `0×0` tensor.
    pub fn grad(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].grad
    }

    // ---- ops -------------------------------------------------------------

    /// Matrix product. Class-aware: computes one row per class of `a`.
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
        let classes = self.class(a);
        let mut v = self.zeros(m, n);
        {
            let (ta, tb) = (self.nodes[a.0].value.data(), self.nodes[b.0].value.data());
            let (first, out) = (self.classes.first(classes), v.data_mut());
            for_each_rep_run(first, m, |s, e| {
                kernels::matmul(
                    e - s,
                    ka,
                    n,
                    &ta[s * ka..e * ka],
                    tb,
                    &mut out[s * n..e * n],
                );
            });
            copy_class_rows(first, out, n);
        }
        self.classes.record(classes, m);
        let rg = self.rg(a) || self.rg(b);
        self.push_classed(v, Op::MatMul(a, b), rg, Vec::new(), classes)
    }

    /// Per-block matrix product over **equal-size** stacked blocks: `a`
    /// holds B square `block×block` matrices stacked vertically
    /// (`B·block × block`), `b` holds B feature blocks (`B·block × c`), and
    /// output block `i` is `a_i · b_i`. The multi-query form of B separate
    /// [`Graph::matmul`]s — each row runs the identical kernel call, so
    /// results are bit-identical to the per-query passes (and to the dense
    /// block-diagonal product), at `Σ block²·c` cost and **one** tape node.
    ///
    /// Class-aware: two rows are equal when their rows of `a` are and
    /// `b`'s rows at the nonzero columns of that row are; one row per
    /// class is computed.
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
        let classes = self.classes.block_matmul(
            self.class(a),
            self.class(b),
            self.nodes[a.0].value.data(),
            block,
        );
        let mut v = self.zeros(ra, cb);
        {
            let (ta, tb) = (self.nodes[a.0].value.data(), self.nodes[b.0].value.data());
            let (first, out) = (self.classes.first(classes), v.data_mut());
            for_each_block_run(first, ra, block, |blk, s, e| {
                let off = blk * block;
                kernels::matmul(
                    e - s,
                    block,
                    cb,
                    &ta[s * block..e * block],
                    &tb[off * cb..(off + block) * cb],
                    &mut out[s * cb..e * cb],
                );
            });
            copy_class_rows(first, out, cb);
        }
        self.classes.record(classes, ra);
        let rg = self.rg(a) || self.rg(b);
        self.push_classed(v, Op::BlockMatMul(a, b, block), rg, Vec::new(), classes)
    }

    /// Per-block transposed product over equal-size stacked blocks: `a` and
    /// `b` both hold B `block×k` blocks stacked vertically, and output
    /// block `i` is `a_i · b_iᵀ` (`B·block × block`) — the multi-query form
    /// of the attention-logit product `matmul(a, transpose(b))`. Each block
    /// materializes `b_iᵀ` into a pooled scratch buffer and runs the same
    /// [`kernels::matmul`] call the per-query pass would, so results are
    /// bit-identical, and the B passes cost **one** tape node.
    ///
    /// Class-aware: two rows are equal when their rows of `a` are and their
    /// blocks of `b` carry the same classes, so a stack whose blocks all
    /// carry the same classes computes one block.
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
        let classes = self
            .classes
            .block_matmul_nt(self.class(a), self.class(b), ra, block);
        let mut scratch = self.pool.zeros(k, block);
        let mut v = self.zeros(ra, block);
        {
            let (ta, tb) = (self.nodes[a.0].value.data(), self.nodes[b.0].value.data());
            let (first, out) = (self.classes.first(classes), v.data_mut());
            let mut transposed = None;
            for_each_block_run(first, ra, block, |blk, s, e| {
                let off = blk * block;
                if transposed != Some(blk) {
                    // b_iᵀ, laid out exactly like the per-query transpose node.
                    let bt = scratch.data_mut();
                    for (i, row) in tb[off * k..(off + block) * k].chunks_exact(k).enumerate() {
                        for (j, &x) in row.iter().enumerate() {
                            bt[j * block + i] = x;
                        }
                    }
                    transposed = Some(blk);
                }
                kernels::matmul(
                    e - s,
                    k,
                    block,
                    &ta[s * k..e * k],
                    scratch.data(),
                    &mut out[s * block..e * block],
                );
            });
            copy_class_rows(first, out, block);
        }
        self.pool.put(scratch);
        self.classes.record(classes, ra);
        let rg = self.rg(a) || self.rg(b);
        self.push_classed(v, Op::BlockMatMulNt(a, b, block), rg, Vec::new(), classes)
    }

    /// A same-shape element-wise op: every row computed, the row classes
    /// paired.
    fn elementwise(
        &mut self,
        a: Var,
        b: Var,
        op: Op,
        kernel: fn(&[f32], &[f32], &mut [f32]),
    ) -> Var {
        let (sa, sb) = (self.nodes[a.0].value.shape(), self.nodes[b.0].value.shape());
        assert_eq!(sa, sb, "{op:?}: shape mismatch");
        let mut v = self.zeros(sa.0, sa.1);
        kernel(
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            v.data_mut(),
        );
        let classes = self.classes.pair(self.class(a), self.class(b));
        let rg = self.rg(a) || self.rg(b);
        self.push_classed(v, op, rg, Vec::new(), classes)
    }

    /// Element-wise sum. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(a, b, Op::Add(a, b), kernels::add)
    }

    /// Element-wise difference `a - b`. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(a, b, Op::Sub(a, b), kernels::sub)
    }

    /// Hadamard (element-wise) product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(a, b, Op::MulElem(a, b), kernels::mul)
    }

    /// A `1×c` row `b` combined into every row of `a`: every row computed,
    /// `a`'s row classes kept.
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
        self.push_classed(v, Op::AddRowBroadcast(a, b), rg, Vec::new(), self.class(a))
    }

    /// An element-wise map, keeping `a`'s row classes. The `exp`-based
    /// maps are class-aware, computing one row per class; the cheap ones
    /// compute every row, which costs no more than copying them.
    fn unary(&mut self, a: Var, op: Op, kernel: impl Fn(&[f32], &mut [f32])) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let classes = self.class(a);
        let by_class = matches!(op, Op::Sigmoid(_) | Op::Tanh(_));
        let mut v = self.zeros(r, c);
        {
            let (x, out) = (self.nodes[a.0].value.data(), v.data_mut());
            let first = if by_class {
                self.classes.first(classes)
            } else {
                &[]
            };
            for_each_rep_run(first, r, |s, e| {
                kernel(&x[s * c..e * c], &mut out[s * c..e * c]);
            });
            copy_class_rows(first, out, c);
        }
        if by_class {
            self.classes.record(classes, r);
        }
        let rg = self.rg(a);
        self.push_classed(v, op, rg, Vec::new(), classes)
    }

    /// Scalar multiple `s * a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.unary(a, Op::Scale(a, s), |x, o| kernels::scale(s, x, o))
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        self.unary(a, Op::AddScalar(a, s), |x, o| kernels::add_scalar(s, x, o))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(a, Op::Sigmoid(a), kernels::sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, Op::Tanh(a), kernels::tanh)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, Op::Relu(a), kernels::relu)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.unary(a, Op::LeakyRelu(a, slope), |x, o| {
            kernels::leaky_relu(slope, x, o)
        })
    }

    /// Row-wise softmax. With `mask` (a node of the same shape, typically a
    /// constant already on the tape), entries where `mask == 0` receive
    /// zero probability; an all-masked row becomes all zeros (no NaNs). No
    /// gradient flows into the mask.
    ///
    /// Class-aware: rows are equal when their rows of `a` and of the mask
    /// are; one row per class is computed.
    pub fn softmax_rows_masked(&mut self, a: Var, mask: Option<Var>) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let classes = match mask {
            Some(m) => {
                assert_eq!(
                    self.nodes[m.0].value.shape(),
                    (r, c),
                    "softmax mask shape mismatch"
                );
                self.classes.pair(self.class(a), self.class(m))
            }
            None => self.class(a),
        };
        let mut v = self.zeros(r, c);
        {
            let ta = &self.nodes[a.0].value;
            let tm = mask.map(|m| &self.nodes[m.0].value);
            let (first, out) = (self.classes.first(classes), v.data_mut());
            let allowed = |row: usize, col: usize| tm.is_none_or(|m| m.get(row, col) != 0.0);
            for_each_rep_run(first, r, |s, e| {
                // Shift each row by its masked max, exponentiate the run at
                // once, then normalize each row over its allowed entries. A
                // fully masked row (no finite max) exponentiates -inf, so
                // it stays all zeros.
                let run = &mut out[s * c..e * c];
                for (row, vr) in (s..e).zip(run.chunks_exact_mut(c)) {
                    let xr = ta.row(row);
                    let mut maxv = f32::NEG_INFINITY;
                    for (col, &x) in xr.iter().enumerate() {
                        if allowed(row, col) {
                            maxv = maxv.max(x);
                        }
                    }
                    if !maxv.is_finite() {
                        vr.fill(f32::NEG_INFINITY);
                        continue;
                    }
                    for (col, (&x, o)) in xr.iter().zip(vr.iter_mut()).enumerate() {
                        if allowed(row, col) {
                            *o = x - maxv;
                        }
                    }
                }
                kernels::exp_in_place(run);
                for (row, vr) in (s..e).zip(run.chunks_exact_mut(c)) {
                    let mut sum = 0.0;
                    for (col, o) in vr.iter_mut().enumerate() {
                        if allowed(row, col) {
                            sum += *o;
                        } else {
                            *o = 0.0;
                        }
                    }
                    if sum > 0.0 {
                        for o in vr.iter_mut() {
                            *o /= sum;
                        }
                    }
                }
            });
            copy_class_rows(first, out, c);
        }
        self.classes.record(classes, r);
        let rg = self.rg(a);
        self.push_classed(v, Op::SoftmaxRowsMasked(a, mask), rg, Vec::new(), classes)
    }

    /// Row-wise LayerNorm with per-column affine parameters
    /// (`gamma`, `beta` are `1×c`). Class-aware: one row per class of `x`
    /// is computed, its saved normalized row and inverse std included.
    pub fn layer_norm_rows(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        const EPS: f32 = 1e-5;
        let (r, c) = self.nodes[x.0].value.shape();
        assert_eq!(
            self.nodes[gamma.0].value.shape(),
            (1, c),
            "gamma must be 1xC"
        );
        assert_eq!(self.nodes[beta.0].value.shape(), (1, c), "beta must be 1xC");
        let classes = self.class(x);
        let mut xhat = self.zeros(r, c);
        let mut inv_std = self.zeros(r, 1);
        let mut out = self.zeros(r, c);
        {
            let tx = &self.nodes[x.0].value;
            let (tg, tb) = (
                self.nodes[gamma.0].value.data(),
                self.nodes[beta.0].value.data(),
            );
            let first = self.classes.first(classes);
            for_each_rep_run(first, r, |s, e| {
                for i in s..e {
                    let row = tx.row(i);
                    let mu = row.iter().sum::<f32>() / c as f32;
                    let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / c as f32;
                    let is = 1.0 / (var + EPS).sqrt();
                    inv_std.data_mut()[i] = is;
                    let (xr, or) = (xhat.row_mut(i), out.row_mut(i));
                    for ((&rv, (xh_out, o)), (&gv, &bv)) in row
                        .iter()
                        .zip(xr.iter_mut().zip(or.iter_mut()))
                        .zip(tg.iter().zip(tb))
                    {
                        let xh = (rv - mu) * is;
                        *xh_out = xh;
                        *o = xh * gv + bv;
                    }
                }
            });
            copy_class_rows(first, xhat.data_mut(), c);
            copy_class_rows(first, inv_std.data_mut(), 1);
            copy_class_rows(first, out.data_mut(), c);
        }
        self.classes.record(classes, r);
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        self.push_classed(
            out,
            Op::LayerNormRows { x, gamma, beta },
            rg,
            vec![xhat, inv_std],
            classes,
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
        let classes = self.classes.pair(self.class(a), self.class(b));
        let rg = self.rg(a) || self.rg(b);
        self.push_classed(v, Op::ConcatCols(a, b), rg, Vec::new(), classes)
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
    ///
    /// The source of row classes: output rows are equal when they gather
    /// the same row of `a`, or rows of one class of `a`. A 1-column `a`
    /// gives no class set (see the module docs), so its gathers skip the
    /// classification.
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
        let classes = if c == 1 {
            NONE
        } else {
            self.classes.gather(self.class(a), rows, indices)
        };
        let rg = self.rg(a);
        self.push_classed(v, Op::Gather(a, indices.to_vec()), rg, Vec::new(), classes)
    }

    /// Mean over rows: `r×c → 1×c`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        assert!(r > 0, "mean_rows on empty matrix");
        let mut v = self.zeros(1, c);
        {
            let ta = &self.nodes[a.0].value;
            let out = v.data_mut();
            for i in 0..r {
                for (o, &x) in out.iter_mut().zip(ta.row(i)) {
                    *o += x / r as f32;
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
        assert!(
            sizes.iter().all(|&n| n > 0),
            "block_mean_rows zero-row block"
        );
        let mut v = self.zeros(sizes.len(), c);
        {
            let ta = &self.nodes[a.0].value;
            let mut off = 0usize;
            for (b, &n) in sizes.iter().enumerate() {
                let out = v.row_mut(b);
                for i in off..off + n {
                    for (o, &x) in out.iter_mut().zip(ta.row(i)) {
                        *o += x / n as f32;
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
    /// Gradients are first-touch (see the module docs): a node gets
    /// gradient storage when its first contribution arrives, the walk skips
    /// nodes whose gradient is empty or all zeros, and afterwards every
    /// gradient-requiring node up to `root` that received nothing holds
    /// zeros of its value's shape. Gradients, temporaries and transpose
    /// scratch all come from the tape's pool, so on a warmed-up tape
    /// backward allocates nothing. Gradients accumulate in the tape; call
    /// [`Graph::write_grads`] to move parameter gradients into the store.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.nodes[root.0].value.shape(),
            (1, 1),
            "backward root must be a scalar"
        );
        if self.nodes[root.0].grad.is_empty() {
            let one = self.pool.filled(1, 1, [1.0]);
            self.nodes[root.0].grad = one;
        } else {
            self.nodes[root.0].grad.data_mut()[0] = 1.0;
        }
        for i in (0..=root.0).rev() {
            let node = &self.nodes[i];
            if node.requires_grad && node.grad.data().iter().any(|&g| g != 0.0) {
                self.backprop_node(i);
            }
        }
        for i in 0..=root.0 {
            let node = &self.nodes[i];
            if node.requires_grad && node.grad.is_empty() {
                let (r, c) = node.value.shape();
                let zeros = self.pool.zeros(r, c);
                self.nodes[i].grad = zeros;
            }
        }
    }

    /// Adds the pooled contribution `delta` into `v`'s gradient. On first
    /// touch it *becomes* the gradient, as `x + 0.0` per element — the bits
    /// of accumulating onto zeros, `-0.0` included; otherwise it
    /// accumulates and its buffer goes back to the pool.
    fn accum(&mut self, v: Var, mut delta: Tensor) {
        let node = &mut self.nodes[v.0];
        if !node.requires_grad {
            self.pool.put(delta);
        } else if node.grad.is_empty() {
            assert_eq!(delta.shape(), node.value.shape(), "gradient shape mismatch");
            for x in delta.data_mut() {
                // `x + 0.0` is not an identity: it turns `-0.0` into `+0.0`.
                *x += 0.0;
            }
            node.grad = delta;
        } else {
            node.grad.axpy(1.0, &delta);
            self.pool.put(delta);
        }
    }

    /// [`Graph::accum`] for a gradient that is only computed when `v`
    /// requires one (`None` otherwise).
    fn accum_some(&mut self, v: Var, delta: Option<Tensor>) {
        if let Some(delta) = delta {
            self.accum(v, delta);
        }
    }

    /// [`Graph::accum`] for a contribution the caller keeps (a gradient
    /// passed through unchanged): a first touch copies it into a pooled
    /// buffer.
    fn accum_ref(&mut self, v: Var, delta: &Tensor) {
        let node = &mut self.nodes[v.0];
        if !node.requires_grad {
            return;
        }
        if node.grad.is_empty() {
            let (r, c) = delta.shape();
            assert_eq!((r, c), node.value.shape(), "gradient shape mismatch");
            node.grad = self
                .pool
                .filled(r, c, delta.data().iter().map(|&x| x + 0.0));
        } else {
            node.grad.axpy(1.0, delta);
        }
    }

    fn backprop_node(&mut self, i: usize) {
        // Take the gradient and the op out (both restored below) instead of
        // cloning them: the gradient, softmax masks and index lists stay in
        // place.
        let g = std::mem::replace(&mut self.nodes[i].grad, Tensor::zeros(0, 0));
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
        let (gr, gc) = g.shape();
        match &op {
            Op::Leaf => {}
            &Op::BlockMatMul(a, b, block) => {
                // Per block: dA_i = g_i·B_iᵀ, dB_i = A_iᵀ·g_i — the same
                // transposed fast paths as `MatMul`, block by block. An
                // operand that needs no gradient (the DGF propagation stack
                // is a constant) gets none computed.
                let (ra, ca) = self.nodes[a.0].value.shape();
                let c = gc;
                let mut da = self.rg(a).then(|| self.pool.zeros(ra, ca));
                let mut db = self.rg(b).then(|| self.pool.zeros(gr, c));
                let mut scratch = self.pool.take(c * block);
                {
                    let ta = &self.nodes[a.0].value;
                    let tb = &self.nodes[b.0].value;
                    for blk in 0..ra / block {
                        let off = blk * block;
                        if let Some(da) = &mut da {
                            kernels::matmul_nt(
                                block,
                                c,
                                block,
                                &g.data()[off * c..(off + block) * c],
                                &tb.data()[off * c..(off + block) * c],
                                &mut da.data_mut()[off * block..(off + block) * block],
                                &mut scratch,
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
                }
                self.pool.give(scratch);
                self.accum_some(a, da);
                self.accum_some(b, db);
            }
            &Op::BlockMatMulNt(a, b, block) => {
                // Per block (logits L_i = A_i·B_iᵀ): dA_i = g_i·B_i,
                // dB_i = g_iᵀ·A_i.
                let (ra, k) = self.nodes[a.0].value.shape();
                let mut da = self.rg(a).then(|| self.pool.zeros(ra, k));
                let mut db = self.rg(b).then(|| self.pool.zeros(ra, k));
                {
                    let ta = &self.nodes[a.0].value;
                    let tb = &self.nodes[b.0].value;
                    for blk in 0..ra / block {
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
                }
                self.accum_some(a, da);
                self.accum_some(b, db);
            }
            &Op::MatMul(a, b) => {
                // Transposed fast paths: dA = g·Bᵀ, dB = Aᵀ·g — bit-identical
                // to the former transpose()-then-matmul, without the copies.
                let (m, k) = self.nodes[a.0].value.shape();
                let mut da = self.rg(a).then(|| self.pool.zeros(m, k));
                let mut db = self.rg(b).then(|| self.pool.zeros(k, gc));
                if let Some(da) = &mut da {
                    let mut scratch = self.pool.take(k * gc);
                    let tb = self.nodes[b.0].value.data();
                    kernels::matmul_nt(m, gc, k, g.data(), tb, da.data_mut(), &mut scratch);
                    self.pool.give(scratch);
                }
                if let Some(db) = &mut db {
                    let ta = self.nodes[a.0].value.data();
                    kernels::matmul_tn(m, k, gc, ta, g.data(), db.data_mut());
                }
                self.accum_some(a, da);
                self.accum_some(b, db);
            }
            &Op::Add(a, b) => {
                self.accum_ref(a, &g);
                self.accum_ref(b, &g);
            }
            &Op::Sub(a, b) => {
                self.accum_ref(a, &g);
                if self.rg(b) {
                    let neg = self.pool.filled(gr, gc, g.data().iter().map(|&x| -x));
                    self.accum(b, neg);
                }
            }
            &Op::MulElem(a, b) => {
                // g ⊙ other, in that operand order.
                let da = self.rg(a).then(|| {
                    let tb = self.nodes[b.0].value.data();
                    let prod = g.data().iter().zip(tb).map(|(&x, &y)| x * y);
                    self.pool.filled(gr, gc, prod)
                });
                let db = self.rg(b).then(|| {
                    let ta = self.nodes[a.0].value.data();
                    let prod = g.data().iter().zip(ta).map(|(&x, &y)| x * y);
                    self.pool.filled(gr, gc, prod)
                });
                self.accum_some(a, da);
                self.accum_some(b, db);
            }
            &Op::AddRowBroadcast(a, b) => {
                self.accum_ref(a, &g);
                if self.rg(b) {
                    let db = col_sums(&mut self.pool, &g);
                    self.accum(b, db);
                }
            }
            &Op::Scale(a, s) => {
                let da = self.pool.filled(gr, gc, g.data().iter().map(|&x| x * s));
                self.accum(a, da);
            }
            &Op::AddScalar(a, _) => self.accum_ref(a, &g),
            &Op::Sigmoid(a) => {
                let y = self.nodes[i].value.data();
                let terms = g.data().iter().zip(y);
                let da = self
                    .pool
                    .filled(gr, gc, terms.map(|(&d, &yv)| d * (yv * (1.0 - yv))));
                self.accum(a, da);
            }
            &Op::Tanh(a) => {
                let y = self.nodes[i].value.data();
                let terms = g.data().iter().zip(y);
                let da = self
                    .pool
                    .filled(gr, gc, terms.map(|(&d, &yv)| d * (1.0 - yv * yv)));
                self.accum(a, da);
            }
            &Op::Relu(a) => {
                let x = self.nodes[a.0].value.data();
                let terms = g.data().iter().zip(x);
                let da = self.pool.filled(
                    gr,
                    gc,
                    terms.map(|(&d, &xv)| if xv <= 0.0 { 0.0 } else { d }),
                );
                self.accum(a, da);
            }
            &Op::LeakyRelu(a, slope) => {
                let x = self.nodes[a.0].value.data();
                let terms = g.data().iter().zip(x);
                let da = self.pool.filled(
                    gr,
                    gc,
                    terms.map(|(&d, &xv)| if xv <= 0.0 { d * slope } else { d }),
                );
                self.accum(a, da);
            }
            &Op::SoftmaxRowsMasked(a, _) => {
                let mut da = self.pool.take(gr * gc);
                {
                    let y = &self.nodes[i].value;
                    for row in 0..gr {
                        let (grow, yrow) = (g.row(row), y.row(row));
                        let mut dot = 0.0;
                        for (&gv, &yv) in grow.iter().zip(yrow) {
                            dot += gv * yv;
                        }
                        da.extend(grow.iter().zip(yrow).map(|(&gv, &yv)| yv * (gv - dot)));
                    }
                }
                self.accum(a, Tensor::from_vec(gr, gc, da));
            }
            &Op::LayerNormRows { x, gamma, beta } => {
                let c = gc;
                let mut dgamma = self.pool.zeros(1, c);
                let mut dbeta = self.pool.zeros(1, c);
                let mut dx = self.pool.take(gr * c);
                {
                    let (xhat, inv_std) = (&self.nodes[i].aux[0], &self.nodes[i].aux[1]);
                    let tg = self.nodes[gamma.0].value.data();
                    for row in 0..gr {
                        let (grow, xrow) = (g.row(row), xhat.row(row));
                        let sums = dgamma.data_mut().iter_mut().zip(dbeta.data_mut());
                        for ((dg, db), (&gv, &xh)) in sums.zip(grow.iter().zip(xrow)) {
                            *dg += gv * xh;
                            *db += gv;
                        }
                        let is = inv_std.data()[row];
                        let mut mean_dxhat = 0.0;
                        let mut mean_dxhat_xhat = 0.0;
                        for ((&gv, &tgv), &xh) in grow.iter().zip(tg).zip(xrow) {
                            let dxh = gv * tgv;
                            mean_dxhat += dxh;
                            mean_dxhat_xhat += dxh * xh;
                        }
                        mean_dxhat /= c as f32;
                        mean_dxhat_xhat /= c as f32;
                        dx.extend(grow.iter().zip(tg).zip(xrow).map(|((&gv, &tgv), &xh)| {
                            let dxh = gv * tgv;
                            is * (dxh - mean_dxhat - xh * mean_dxhat_xhat)
                        }));
                    }
                }
                self.accum(gamma, dgamma);
                self.accum(beta, dbeta);
                self.accum(x, Tensor::from_vec(gr, c, dx));
            }
            &Op::ConcatCols(a, b) => {
                let ca = self.nodes[a.0].value.cols();
                for (v, cols) in [(a, 0..ca), (b, ca..gc)] {
                    if self.rg(v) {
                        let mut dv = self.pool.take(gr * cols.len());
                        for row in 0..gr {
                            dv.extend_from_slice(&g.row(row)[cols.clone()]);
                        }
                        self.accum(v, Tensor::from_vec(gr, cols.len(), dv));
                    }
                }
            }
            Op::BlockMeanRows(a, sizes) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = self.pool.take(r * c);
                for (b, &n) in sizes.iter().enumerate() {
                    for _ in 0..n {
                        da.extend(g.row(b).iter().map(|&gv| gv / n as f32));
                    }
                }
                self.accum(*a, Tensor::from_vec(r, c, da));
            }
            &Op::SliceRows(a, start, _) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = self.pool.zeros(r, c);
                da.data_mut()[start * c..(start + gr) * c].copy_from_slice(g.data());
                self.accum(a, da);
            }
            &Op::Transpose(a) => {
                let mut da = self.pool.zeros(gc, gr);
                for r in 0..gr {
                    for (c, &v) in g.row(r).iter().enumerate() {
                        da.set(c, r, v);
                    }
                }
                self.accum(a, da);
            }
            Op::Gather(a, indices) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = self.pool.zeros(r, c);
                for (row, &ix) in indices.iter().enumerate() {
                    kernels::axpy(1.0, g.row(row), da.row_mut(ix));
                }
                self.accum(*a, da);
            }
            &Op::MeanRows(a) => {
                let r = self.nodes[a.0].value.rows();
                let mut da = self.pool.take(r * gc);
                for _ in 0..r {
                    da.extend(g.row(0).iter().map(|&gv| gv / r as f32));
                }
                self.accum(a, Tensor::from_vec(r, gc, da));
            }
            &Op::SumAll(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let da = self.pool.filled(r, c, std::iter::repeat_n(g.item(), r * c));
                self.accum(a, da);
            }
            Op::SumVars(vars) => {
                for &v in vars {
                    self.accum_ref(v, &g);
                }
            }
        }
        self.nodes[i].grad = g;
        self.nodes[i].op = op;
    }

    /// Accumulates gradients of all parameter leaves into the store. Leaves
    /// without gradient storage (no `backward` has run on this pass)
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

/// Column sums of `g` into a pooled `1×c` row, accumulated row by row.
fn col_sums(pool: &mut Pool<f32>, g: &Tensor) -> Tensor {
    let mut out = pool.zeros(1, g.cols());
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
        let mask = g.constant(Tensor::from_vec(2, 2, vec![1.0, 1.0, 0.0, 0.0]));
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
        let mask = g.constant(Tensor::from_vec(2, 2, vec![1.0, 0.0, 1.0, 1.0]));
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
        let before = g.pool.len;
        assert!(before >= nodes, "expected >= {nodes} pooled buffers");
        let _ = run_pass(&mut g, 0.5);
        assert!(g.pool.len < before, "pass did not draw from the arena");
    }

    #[test]
    fn arena_stays_bounded_across_many_reuses() {
        // Leaves and masks are allocated outside the pool; clear() must not
        // let them accumulate in the arena.
        let mut g = Graph::new();
        let mut sizes = Vec::new();
        for _ in 0..60 {
            let _ = run_pass(&mut g, 0.5);
            g.clear();
            sizes.push(g.pool.len);
        }
        assert_eq!(
            sizes[40],
            *sizes.last().unwrap(),
            "free pool kept growing: {sizes:?}"
        );
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_lone_negative_zero_contribution_reads_positive_zero() {
        // d(sum(x ⊙ c))/dx = c: the only contribution is `-0.0` in two
        // places, and first touch stores `0.0 + -0.0 = +0.0`, exactly what
        // accumulating onto a zeroed buffer gives.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(vec![1.0, 2.0, 3.0]));
        let c = g.constant(Tensor::row_vector(vec![-0.0, 2.0, -0.0]));
        let xc = g.mul(x, c);
        let loss = g.sum_all(xc);
        g.backward(loss);
        assert_eq!(
            bits(g.grad(x)),
            bits(&Tensor::row_vector(vec![0.0, 2.0, 0.0]))
        );
    }

    #[test]
    fn nodes_the_root_does_not_reach_read_zeros_of_their_shape() {
        let mut g = Graph::new();
        let used = g.leaf(Tensor::full(2, 3, 0.5));
        let unused = g.leaf(Tensor::full(3, 1, 4.0));
        let dangling = g.tanh(used);
        let loss = g.sum_all(used);
        let after = g.leaf(Tensor::full(2, 2, 1.0));
        g.backward(loss);
        assert_eq!(g.grad(used), &Tensor::full(2, 3, 1.0));
        assert_eq!(g.grad(unused), &Tensor::zeros(3, 1));
        assert_eq!(g.grad(dangling), &Tensor::zeros(2, 3));
        // Past the root nothing is materialized.
        assert!(g.grad(after).is_empty());
    }

    #[test]
    fn three_consumers_sum_onto_zeros_in_walk_order() {
        let x0 = Tensor::from_vec(2, 3, vec![0.3, -1.7, 2.9, 0.011, -0.45, 7.3]);
        let consumers: [fn(&mut Graph, Var) -> Var; 3] = [
            |g, x| g.sigmoid(x),
            |g, x| g.scale(x, 0.3),
            |g, x| g.mul(x, x),
        ];
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let outs: Vec<Var> = consumers.iter().map(|f| f(&mut g, x)).collect();
        let sums: Vec<Var> = outs.iter().map(|&o| g.sum_all(o)).collect();
        let loss = g.sum_vars(&sums);
        g.backward(loss);

        // Each consumer's contribution alone, then summed onto zeros in the
        // order the reverse walk meets the consumers: last pushed first.
        let mut expect = Tensor::zeros(2, 3);
        for f in consumers.iter().rev() {
            let mut alone = Graph::new();
            let xa = alone.leaf(x0.clone());
            let o = f(&mut alone, xa);
            let s = alone.sum_all(o);
            alone.backward(s);
            expect.axpy(1.0, alone.grad(xa));
        }
        assert_eq!(bits(g.grad(x)), bits(&expect));
    }

    /// A DGF-shaped pass over `blocks` stacked 8-row blocks.
    fn block_pass(g: &mut Graph, blocks: usize) {
        let rows = 8 * blocks;
        let x = g.leaf(Tensor::from_vec(
            rows,
            16,
            (0..rows * 16).map(|i| (i as f32 * 0.1).sin()).collect(),
        ));
        let w = g.leaf(Tensor::full(16, 16, 0.05));
        let prop = g.constant(Tensor::full(rows, 8, 1.0));
        let h = g.matmul(x, w);
        let agg = g.block_matmul(prop, h, 8);
        let act = g.tanh(agg);
        let pooled = g.block_mean_rows(act, &vec![8; blocks]);
        let loss = g.sum_all(pooled);
        g.backward(loss);
        g.clear();
    }

    #[test]
    fn alternating_pass_sizes_keep_the_arena_bounded() {
        let total = |g: &Graph| -> usize {
            let stacks = g.pool.stacks.iter();
            stacks.map(|(cap, stack)| cap * stack.len()).sum()
        };
        let mut g = Graph::new();
        let mut totals = Vec::new();
        for _ in 0..40 {
            for blocks in [1, 16] {
                block_pass(&mut g, blocks);
                totals.push(total(&g));
            }
        }
        // After one round the arena holds what a 16-block pass needs and
        // never grows again.
        let after_warmup = &totals[2..];
        assert!(
            after_warmup.iter().all(|&t| t <= totals[1]),
            "arena grew: {totals:?}"
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
