//! Determinism suite for the parallel execution layer.
//!
//! The contract: every parallelized pipeline stage — ensemble training,
//! batch prediction (multi-query tape passes of any block size), training,
//! multi-target transfer, full trial loops — produces **bit-identical**
//! outputs at `NASFLAT_THREADS=1`, `2`, and `8`, and every score equals a
//! one-block [`LatencyPredictor::predict`] pass on a fresh tape. The tests
//! pin the thread count in-process via [`nasflat_parallel::with_threads`],
//! the programmatic equivalent of launching under each `NASFLAT_THREADS`
//! value (the env var is read once per process, so one process can't re-set
//! it per case); it is thread-local, so tests running concurrently in one
//! binary cannot see each other's setting.

use nasflat_core::{
    build_ensemble, ensemble_transfer_scores, run_trials, FewShotConfig, LatencyPredictor,
    PretrainedTask,
};
use nasflat_hw::{DeviceRegistry, LatencyTable};
use nasflat_parallel::with_threads;
use nasflat_sample::Sampler;
use nasflat_space::{Arch, Space};
use nasflat_tasks::{paper_task, probe_pool};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny() -> FewShotConfig {
    let mut f = FewShotConfig::quick();
    f.predictor.op_dim = 8;
    f.predictor.hw_dim = 8;
    f.predictor.node_dim = 8;
    f.predictor.ophw_gnn_dims = vec![12];
    f.predictor.ophw_mlp_dims = vec![12];
    f.predictor.gnn_dims = vec![12];
    f.predictor.head_dims = vec![16];
    f.predictor.epochs = 4;
    f.predictor.transfer_epochs = 4;
    f.pretrain_per_device = 12;
    f.transfer_samples = 8;
    f.eval_samples = 30;
    f
}

/// Bitwise view of an `f32` vector (NaN-safe, rounding-exact equality).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Ground truth: a one-block pass per architecture, each on a fresh tape.
fn reference_bits(pred: &LatencyPredictor, pool: &[Arch], device: usize) -> Vec<u32> {
    pool.iter()
        .map(|a| pred.predict(a, device, None).to_bits())
        .collect()
}

#[test]
fn batch_prediction_is_bit_identical_across_thread_counts() {
    let pool = probe_pool(Space::Nb201, 80, 0);
    let pred = LatencyPredictor::new(
        Space::Nb201,
        vec!["a".into(), "b".into()],
        0,
        tiny().predictor,
    );
    let runs: Vec<Vec<u32>> = THREAD_COUNTS
        .iter()
        .map(|&t| with_threads(t, || bits(&pred.predict_batch(&pool, 1, None))))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 8 threads diverged");
}

#[test]
fn batch_session_is_bit_identical_to_per_arch_tapes_across_thread_counts() {
    let pool = probe_pool(Space::Nb201, 64, 7);
    let pred = LatencyPredictor::new(
        Space::Nb201,
        vec!["a".into(), "b".into()],
        0,
        tiny().predictor,
    );
    let per_arch = reference_bits(&pred, &pool, 0);

    // A single session sweeping the whole pool on one reused tape.
    let mut session = pred.session();
    let swept: Vec<u32> = pool
        .iter()
        .map(|a| session.predict(a, 0, None).to_bits())
        .collect();
    assert_eq!(per_arch, swept, "session tape diverged from fresh tapes");

    // The chunked-session batch path at 1/2/8 threads (chunk boundaries —
    // and therefore which queries share a tape — differ per thread count).
    for &t in &THREAD_COUNTS {
        let batched = with_threads(t, || bits(&pred.predict_batch(&pool, 0, None)));
        assert_eq!(per_arch, batched, "predict_batch diverged at {t} threads");
    }
}

#[test]
fn multi_query_tape_is_bit_identical_across_thread_counts_and_batch_sizes() {
    // Multi-query passes are bit-identical to one-block passes at any
    // block size (one session sweeping the pool in passes of B) and at
    // 1/2/8 threads (thread count changes worker chunk boundaries and
    // therefore which queries share a pass). None of it may move a bit.
    let pool = probe_pool(Space::Nb201, 72, 9);
    let pred = LatencyPredictor::new(
        Space::Nb201,
        vec!["a".into(), "b".into()],
        0,
        tiny().predictor,
    );
    let per_arch = reference_bits(&pred, &pool, 1);
    let refs: Vec<&Arch> = pool.iter().collect();
    for block in [1usize, 3, 8, 16] {
        let mut session = pred.session();
        let got: Vec<f32> = refs
            .chunks(block)
            .flat_map(|c| session.predict_batched_tape_devices(c, &vec![1; c.len()], None))
            .collect();
        assert_eq!(per_arch, bits(&got), "passes of {block} diverged");
        assert_eq!(session.passes(), pool.len().div_ceil(block));
    }
    for &t in &THREAD_COUNTS {
        let got = with_threads(t, || bits(&pred.predict_batch(&pool, 1, None)));
        assert_eq!(per_arch, got, "batched tape diverged at {t} threads");
    }
}

#[test]
fn ensemble_training_and_scoring_are_bit_identical_across_thread_counts() {
    let task = paper_task("ND").unwrap();
    let pool = probe_pool(Space::Nb201, 60, 1);
    let table = LatencyTable::build(DeviceRegistry::nb201().devices(), &pool);
    let cfg = tiny();
    let indices: Vec<usize> = (0..25).collect();
    let runs: Vec<(Vec<u32>, Vec<Vec<u32>>)> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let mut members = build_ensemble(&task, &pool, &table, None, &cfg, 3);
                let out = ensemble_transfer_scores(&mut members, "raspi4", 9, &indices).unwrap();
                (
                    bits(&out.scores),
                    out.member_scores.iter().map(|m| bits(m)).collect(),
                )
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 8 threads diverged");
}

#[test]
fn transfer_all_and_trials_are_bit_identical_across_thread_counts() {
    let task = paper_task("ND").unwrap();
    let pool = probe_pool(Space::Nb201, 60, 2);
    let table = LatencyTable::build(DeviceRegistry::nb201().devices(), &pool);
    let cfg = tiny();
    let outcomes: Vec<Vec<u32>> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let mut pre = PretrainedTask::build(&task, &pool, &table, None, cfg.clone());
                let out = pre.transfer_all(3).unwrap();
                bits(&out.devices.iter().map(|d| d.spearman).collect::<Vec<_>>())
            })
        })
        .collect();
    assert_eq!(
        outcomes[0], outcomes[1],
        "transfer_all diverged at 2 threads"
    );
    assert_eq!(
        outcomes[0], outcomes[2],
        "transfer_all diverged at 8 threads"
    );

    let cells: Vec<(u32, u32)> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let ms = run_trials(&task, &pool, &table, None, &cfg, 2).unwrap();
                (ms.mean.to_bits(), ms.std.to_bits())
            })
        })
        .collect();
    assert_eq!(cells[0], cells[1], "run_trials diverged at 2 threads");
    assert_eq!(cells[0], cells[2], "run_trials diverged at 8 threads");
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    // Every gradient step is one stacked pass plus one backward, so the full
    // pretrain -> transfer -> predict pipeline is **bit-identical** at 1/2/8
    // threads (each predictor trains sequentially; prediction is
    // bit-invisible to threading).
    let task = paper_task("ND").unwrap();
    let pool = probe_pool(Space::Nb201, 60, 5);
    let table = LatencyTable::build(DeviceRegistry::nb201().devices(), &pool);
    let cfg = tiny();
    let indices: Vec<usize> = (0..40).collect();
    let runs: Vec<Vec<u32>> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let mut pre = PretrainedTask::build(&task, &pool, &table, None, cfg.clone());
                bits(
                    &pre.transfer_predict("raspi4", &Sampler::Random, 5, &indices)
                        .unwrap(),
                )
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 8 threads diverged");
}

#[test]
fn transferred_scorer_is_bit_identical_across_thread_counts() {
    let task = paper_task("ND").unwrap();
    let pool = probe_pool(Space::Nb201, 60, 4);
    let table = LatencyTable::build(DeviceRegistry::nb201().devices(), &pool);
    let probe: Vec<Arch> = (0..30u64).map(|i| Arch::nb201_from_index(i * 91)).collect();
    let runs: Vec<Vec<u32>> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let mut pre = PretrainedTask::build(&task, &pool, &table, None, tiny());
                let scorer = pre.transfer_scorer("fpga", &Sampler::Random, 2, 8).unwrap();
                bits(&scorer.score_batch(&probe))
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 8 threads diverged");
}
