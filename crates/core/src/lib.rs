//! `nasflat-core`: the NASFLAT few-shot latency predictor (the paper's
//! primary contribution — §3, §5, and the appendix predictor-design study).
//!
//! The predictor keeps separate **operation** and **hardware** embedding
//! tables; a small GNN + MLP refines the hardware-aware operation embeddings
//! ([`LatencyPredictor`], Figure 3); the main GNN is a
//! [DGF ‖ GAT](GnnModuleKind) stack whose output-node encoding — optionally
//! concatenated with a supplementary encoding (Arch2Vec / CATE / ZCP / CAZ) —
//! feeds an MLP prediction head. Training uses the pairwise hinge ranking
//! loss; transfer re-initializes the learning schedule and fine-tunes on the
//! target device's few samples, optionally seeding its hardware embedding
//! from the most-correlated source device ([`hw_init_from_correlation`],
//! §5.2).
//!
//! [`PretrainedTask`] / [`run_trials`] package the full experimental protocol
//! of §6.2 (pretrain once, transfer to every target, Spearman over held-out
//! architectures); [`RefinedPredictor`] reproduces the appendix's
//! training-analogous refinement ablation.
//!
//! # Batch evaluation and the determinism contract
//!
//! Every batch-scoring path ([`LatencyPredictor::predict_batch`],
//! [`predict_indices`], `TransferredPredictor::score_indices`/`score_batch`)
//! fans contiguous chunks out over `nasflat-parallel` workers
//! (`NASFLAT_THREADS`), one reusable [`BatchSession`] tape per worker, each
//! chunk evaluated as **multi-query tape passes** of [`TAPE_BLOCK`]
//! architectures ([`LatencyPredictor::forward_batched_devices`]): B queries
//! stacked into one shared topology, sliced back to per-query scores. A
//! single query ([`LatencyPredictor::predict`]) is the same pass with one
//! block: every GNN layer has one forward ([`GnnStack::forward`]) over
//! stacked blocks, and [`RefinedPredictor`] runs it with one block per
//! architecture. The invariant every layer upholds is that session reuse,
//! thread count, and block size are **bit-invisible**: scores equal
//! one-block passes on fresh tapes down to the last ulp
//! (`tests/determinism.rs` at 1/2/8 threads, `tests/batched_tape.rs` for
//! chunked runs), and the crate's unit tests pin the stacked pass for
//! B = 1..16 to a dense single-architecture reference built from plain
//! `n×n` products, which exists only in test builds.
//!
//! **Training** runs the same pass: every gradient step builds its whole
//! mini-batch as one stacked forward plus ONE backward ([`train_step_on`]).
//! The training contract has one arm: the loss **value** is bit-identical to
//! a per-architecture reference, and trained weights are bit-identical at
//! any thread count — `tests/determinism.rs` pins it.
//!
//! # Example
//! ```no_run
//! use nasflat_core::{FewShotConfig, PretrainedTask};
//! use nasflat_hw::{DeviceRegistry, LatencyTable};
//! use nasflat_sample::Sampler;
//! use nasflat_tasks::{paper_task, probe_pool};
//! use nasflat_space::Space;
//!
//! let task = paper_task("N1").expect("paper task");
//! let pool = probe_pool(Space::Nb201, 500, 0);
//! let table = LatencyTable::build(DeviceRegistry::nb201().devices(), &pool);
//! let mut pre = PretrainedTask::build(&task, &pool, &table, None, FewShotConfig::quick());
//! let outcome = pre.transfer_to("1080ti_1", &nasflat_sample::Sampler::Random, 0)?;
//! println!("Spearman on 1080ti_1: {:.3}", outcome.spearman);
//! # let _ = Sampler::Random;
//! # Ok::<(), nasflat_sample::SelectError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod data;
mod ensemble;
mod fewshot;
mod gnn;
mod persist;
mod predictor;
mod refine;
mod trainer;

pub use config::{GnnModuleKind, LossKind, PredictorConfig};
pub use data::{DeviceSamples, LatencyNorm, PretrainData};
pub use ensemble::{
    build_ensemble, ensemble_disagreement, ensemble_transfer_scores, rank_ensemble, EnsembleScores,
};
pub use fewshot::{
    run_trials, DeviceOutcome, FewShotConfig, PretrainedTask, TaskOutcome, TransferredPredictor,
};
pub use gnn::{DgfLayer, GatLayer, GnnStack};
pub use persist::ModelIoError;
pub use predictor::{BatchSession, LatencyPredictor, TAPE_BLOCK};
pub use refine::{BackwardKind, DetachMode, RefineOptions, RefinedPredictor, UnrolledKind};
pub use trainer::{
    evaluate_spearman, fine_tune, hw_init_from_correlation, predict_indices, pretrain, train_step,
    train_step_on, TrainContext, TrainTape,
};
