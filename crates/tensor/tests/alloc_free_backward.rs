//! A steady-state backward pass allocates nothing.
//!
//! The tape builds a pass out of every op the predictor uses (dense and
//! per-block products, masked softmax, LayerNorm, gather, block means,
//! concatenation, row slices, element-wise maps, broadcasts and sums),
//! runs two warm-up passes with `clear()` in between, and then counts the
//! heap allocations that the third pass's `Graph::backward` makes on this
//! thread: first-touch gradients, backward temporaries and the `matmul_nt`
//! transpose scratch all come from the tape's pool, so there must be none.
//! The forward pass's row classes come from the tape too, so a steady-state
//! forward makes only the pinned allocations of the lists it builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nasflat_tensor::{Graph, ParamStore, Tensor, Var};

/// Counts allocations and reallocations made on the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

fn ramp(rows: usize, cols: usize, seed: f32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i as f32 * 0.37 + seed).sin() * 1.5) - 0.2)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Parameters of the test pass: `B = 4` stacked 8-node blocks, 32 wide,
/// like a small predictor pass.
struct Params {
    store: ParamStore,
    ids: Vec<nasflat_tensor::ParamId>,
}

const BLOCKS: usize = 4;
const N: usize = 8;
const W: usize = 32;

fn params() -> Params {
    let mut store = ParamStore::new();
    let shapes = [
        ("table", 6, W),
        ("w1", W, W),
        ("b1", 1, W),
        ("attn", W, W),
        ("gamma", 1, W),
        ("beta", 1, W),
        ("scale", 1, W),
        ("head", 2 * W, 1),
    ];
    let ids = shapes
        .iter()
        .enumerate()
        .map(|(i, &(name, r, c))| store.add(name, ramp(r, c, i as f32)))
        .collect();
    Params { store, ids }
}

/// Allocations of a steady-state [`forward`]: the op index list and the
/// two buffers of the propagation constant that it builds, the lists the
/// two gather nodes, the block-mean node and the sum node keep, and
/// LayerNorm's `aux` vector. Values, row classes and the tables that find
/// them all come from the tape's pools.
const FORWARD_ALLOCS: usize = 8;

/// One forward pass touching every predictor op; returns the scalar loss.
fn forward(g: &mut Graph, p: &Params) -> Var {
    let rows = BLOCKS * N;
    let v = |g: &mut Graph, i: usize| g.param(&p.store, p.ids[i]);
    let (table, w1, b1, attn) = (v(g, 0), v(g, 1), v(g, 2), v(g, 3));
    let (gamma, beta, scale, head) = (v(g, 4), v(g, 5), v(g, 6), v(g, 7));

    // Embedding lookup and a dense layer with a broadcast bias.
    let ops: Vec<usize> = (0..rows).map(|i| (i * 5 + 1) % 6).collect();
    let x = g.gather_rows(table, &ops);
    let xw = g.matmul(x, w1);
    let h = g.add_row_broadcast(xw, b1);
    let h = g.tanh(h);

    // DGF-style aggregation over a constant propagation stack.
    let prop = ramp(rows, N, 0.7).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    let prop = g.constant(prop);
    let agg = g.block_matmul(prop, h, N);
    let gate = g.sigmoid(agg);
    let gated = g.mul(gate, h);

    // GAT-style masked attention, gated and normalized.
    let ah = g.matmul(gated, attn);
    let logits = g.block_matmul_nt(ah, gated, N);
    let logits = g.scale(logits, 0.25);
    let e = g.leaky_relu(logits, 0.2);
    let att = g.softmax_rows_masked(e, Some(prop));
    let ctx = g.block_matmul(att, gated, N);
    let ctx = g.sub(ctx, h);
    let normed = g.layer_norm_rows(ctx, gamma, beta);
    let normed = g.add_row_broadcast(normed, scale);
    let normed = g.relu(normed);

    // Readout: per-block means next to a tiled whole-stack mean.
    let sizes = [N; BLOCKS];
    let pooled = g.block_mean_rows(normed, &sizes);
    let first = g.slice_rows(normed, 0, N);
    let global = g.mean_rows(first);
    let global = g.gather_rows(global, &[0; BLOCKS]);
    let joint = g.concat_cols(pooled, global);
    let score = g.matmul(joint, head);
    let score = g.add_scalar(score, 0.5);
    let t = g.transpose(score);
    let sq = g.mul(t, t);
    let a = g.sum_all(sq);
    let b = g.sum_all(score);
    let total = g.sum_vars(&[a, b]);
    g.add(total, a)
}

#[test]
fn steady_state_backward_makes_no_allocations() {
    let p = params();
    let mut g = Graph::new();
    let mut counts = Vec::new();
    let mut forward_counts = Vec::new();
    for _ in 0..3 {
        g.clear();
        let before = allocs();
        let loss = forward(&mut g, &p);
        forward_counts.push(allocs() - before);
        let before = allocs();
        g.backward(loss);
        counts.push(allocs() - before);
    }
    assert!(counts[0] > 0, "the counting allocator saw nothing");
    assert_eq!(counts[2], 0, "backward allocations per pass: {counts:?}");
    assert_eq!(
        forward_counts[2], FORWARD_ALLOCS,
        "forward allocations per pass: {forward_counts:?}"
    );
}

#[test]
fn backward_on_a_warm_tape_keeps_the_gradients_of_a_fresh_one() {
    let p = params();
    let grads = |g: &mut Graph| {
        let loss = forward(g, &p);
        g.backward(loss);
        let mut store = p.store.clone();
        store.zero_grads();
        g.write_grads(&mut store);
        p.ids
            .iter()
            .flat_map(|&id| store.grad(id).data().to_vec())
            .map(f32::to_bits)
            .collect::<Vec<_>>()
    };
    let expect = grads(&mut Graph::new());
    let mut g = Graph::new();
    for _ in 0..3 {
        g.clear();
        assert_eq!(grads(&mut g), expect);
    }
}
