//! A steady-state gradient step allocates at most a pinned handful.
//!
//! Few-shot transfer runs 20-sample fine-tunes in batches of 16 and 4, so
//! the test alternates those two batch sizes on one `TrainTape` and counts
//! the heap allocations a warmed-up `train_step_on` makes on this thread.
//! The backward pass, the optimizer, the tape's buffers and its row-class
//! sets allocate nothing; what remains comes from building the forward
//! pass:
//!
//! - the batch's `archs` list;
//! - the copy of the predictor's propagation block that the pass stamps
//!   into its stack;
//! - the index lists that `gather_rows` and `block_mean_rows` keep on the
//!   tape, one per embedding lookup, propagation stamp and readout;
//! - LayerNorm's `aux` vector;
//! - the loss: the hinge's pair index lists and their gathers.
//!
//! The same fixture pins the tape's row counts: how many rows the
//! class-aware ops of a 16-architecture forward pass produce, and how many
//! of them they compute rather than copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nasflat_core::{train_step_on, LatencyPredictor, PredictorConfig, TrainContext, TrainTape};
use nasflat_space::{Arch, Space};
use nasflat_tensor::{AdamConfig, Graph, RowCounts};

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

/// Allocations per steady-state step, pinned a little above the measured
/// 25 (16-architecture batch) and 17 (4-architecture batch). Building every
/// architecture's graph made it 104 and 36; before the backward pass drew
/// everything from the tape's pool, the same steps made 383–434 and
/// 290–300.
const MAX_STEP_ALLOCS: usize = 30;

/// Rows produced by the class-aware ops of the fixture's 16-architecture
/// forward pass — 30 row-wide ops over 128 stacked node rows and the
/// 3-layer head over 16 — and rows they computed.
const PRODUCED: usize = 3_888;
const COMPUTED: usize = 1_885;

/// The fixture's architectures.
fn fixture_pool() -> Vec<Arch> {
    (0..40u64)
        .map(|i| Arch::nb201_from_index((i * 389 + 7) % 15_625))
        .collect()
}

fn fixture_predictor() -> LatencyPredictor {
    let devices = vec!["dev_a".to_string(), "dev_b".to_string()];
    LatencyPredictor::new(Space::Nb201, devices, 0, PredictorConfig::quick())
}

#[test]
fn a_stacked_pass_computes_a_pinned_share_of_its_rows() {
    let pool = fixture_pool();
    let pred = fixture_predictor();
    let batch: Vec<&Arch> = pool[..16].iter().collect();
    let mut g = Graph::new();
    let y = pred.forward_batched_devices(&mut g, &batch, &[1; 16], None);
    let counts = g.row_counts();
    assert_eq!(
        (counts.produced, counts.computed),
        (PRODUCED, COMPUTED),
        "row counts of the fixture batch"
    );
    // A cleared tape counts afresh and gives the same scores.
    let scores = g.value(y).clone();
    g.clear();
    assert_eq!(g.row_counts(), RowCounts::default());
    let y = pred.forward_batched_devices(&mut g, &batch, &[1; 16], None);
    assert_eq!(g.row_counts(), counts);
    assert_eq!(g.value(y).data(), scores.data());
}

#[test]
fn a_steady_state_train_step_allocates_a_pinned_handful() {
    let pool = fixture_pool();
    let ctx = TrainContext::new(&pool);
    let mut pred = fixture_predictor();
    let batch = |start: usize, len: usize| -> Vec<(usize, f32)> {
        (start..start + len)
            .map(|i| (i, ((i * 7) % 13) as f32 * 0.1))
            .collect()
    };
    let (full, rest) = (batch(0, 16), batch(16, 4));
    let adam = AdamConfig::default();
    let mut tape = TrainTape::new();
    let mut counts = Vec::new();
    for step in 0..8 {
        let b = if step % 2 == 0 { &full } else { &rest };
        let before = allocs();
        let loss = train_step_on(&mut pred, &ctx, 1, b, &adam, &mut tape);
        counts.push(allocs() - before);
        assert!(
            loss.is_some_and(f32::is_finite),
            "step {step} made no update"
        );
    }
    assert!(
        counts[0] > MAX_STEP_ALLOCS,
        "the counting allocator saw nothing"
    );
    let steady = &counts[4..];
    assert!(
        steady.iter().all(|&n| n <= MAX_STEP_ALLOCS),
        "allocations per step: {counts:?}"
    );
}
