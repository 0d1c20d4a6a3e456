//! A steady-state gradient step allocates at most a pinned handful.
//!
//! Few-shot transfer runs 20-sample fine-tunes in batches of 16 and 4, so
//! the test alternates those two batch sizes on one `TrainTape` and counts
//! the heap allocations a warmed-up `train_step_on` makes on this thread.
//! The backward pass, the optimizer and the tape's buffers allocate
//! nothing; what remains comes from building the forward pass:
//!
//! - `Arch::to_graph` per architecture, and the batch's `archs` list;
//! - the stacked propagation constant;
//! - the index lists that `gather_rows` and `block_mean_rows` keep on the
//!   tape, one per embedding lookup and readout;
//! - LayerNorm's `aux` vector;
//! - the loss: the hinge's pair index lists and their gathers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nasflat_core::{train_step_on, LatencyPredictor, PredictorConfig, TrainContext, TrainTape};
use nasflat_space::{Arch, Space};
use nasflat_tensor::AdamConfig;

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
/// 104 (16-architecture batch) and 36 (4-architecture batch). Before the
/// backward pass drew everything from the tape's pool, the same steps made
/// 383–434 and 290–300.
const MAX_STEP_ALLOCS: usize = 120;

#[test]
fn a_steady_state_train_step_allocates_a_pinned_handful() {
    let pool: Vec<Arch> = (0..40u64)
        .map(|i| Arch::nb201_from_index((i * 389 + 7) % 15_625))
        .collect();
    let ctx = TrainContext::new(&pool);
    let devices = vec!["dev_a".to_string(), "dev_b".to_string()];
    let mut pred = LatencyPredictor::new(Space::Nb201, devices, 0, PredictorConfig::quick());
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
