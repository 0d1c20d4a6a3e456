//! Pre-training, transfer, and evaluation of the latency predictor
//! (paper §3.4, §5.2, §6.2).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nasflat_encode::{EncodingKind, EncodingSuite};
use nasflat_hw::LatencyTable;
use nasflat_metrics::spearman_rho;
use nasflat_space::Arch;
use nasflat_tensor::{mse_loss_stacked, pairwise_hinge_loss_stacked, AdamConfig, Graph};

use crate::config::{LossKind, PredictorConfig};
use crate::data::{DeviceSamples, PretrainData};
use crate::predictor::{BatchScratch, LatencyPredictor};

/// Shared references the trainer needs: the architecture pool and (when a
/// supplementary encoding is configured) the encoding suite over that pool.
#[derive(Debug, Clone, Copy)]
pub struct TrainContext<'a> {
    /// The architecture pool; sample indices refer into this.
    pub pool: &'a [Arch],
    /// Encodings over the pool (required iff the config sets a supplement).
    pub suite: Option<&'a EncodingSuite>,
}

impl<'a> TrainContext<'a> {
    /// Context without supplementary encodings.
    pub fn new(pool: &'a [Arch]) -> Self {
        TrainContext { pool, suite: None }
    }

    /// Context with an encoding suite.
    pub fn with_suite(pool: &'a [Arch], suite: &'a EncodingSuite) -> Self {
        TrainContext {
            pool,
            suite: Some(suite),
        }
    }

    /// The supplementary vector for a pool architecture, per config — a
    /// borrow straight out of the suite (the trainer used to clone a fresh
    /// `Vec<f32>` per forward here, which dominated small-batch step setup).
    ///
    /// # Panics
    /// Panics if the config requires a supplement but no suite is attached.
    pub fn supplement(&self, cfg: &PredictorConfig, arch_idx: usize) -> Option<&'a [f32]> {
        cfg.supplement
            .map(|kind| self.supplement_row(kind, arch_idx))
    }

    /// The suite's row for one pool architecture under encoding `kind`.
    ///
    /// # Panics
    /// Panics if the context has no suite attached.
    pub fn supplement_row(&self, kind: EncodingKind, arch_idx: usize) -> &'a [f32] {
        let suite = self
            .suite
            .expect("config sets a supplement but context has no suite");
        &suite.rows(kind)[arch_idx]
    }

    /// Width the predictor's head must reserve for the supplement.
    pub fn supp_dim(&self, cfg: &PredictorConfig) -> usize {
        match cfg.supplement {
            Some(kind) => self
                .suite
                .expect("config sets a supplement but context has no suite")
                .dim(kind),
            None => 0,
        }
    }
}

/// Reusable scratch for [`train_step_on`]: the autodiff tape plus the
/// index/row buffers the stacked batch forward gathers into. One `TrainTape`
/// serves a whole training run — every buffer is cleared (arenas retained)
/// per step, so graph construction stops allocating once the first step has
/// sized them.
#[derive(Default)]
pub struct TrainTape {
    graph: Graph,
    batch: BatchScratch,
    devices: Vec<usize>,
    supp: Vec<Vec<f32>>,
    targets: Vec<f32>,
}

impl TrainTape {
    /// A fresh tape with empty arenas; they grow to steady-state size over
    /// the first gradient step and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `true` iff some pair of targets satisfies the hinge predicate
/// `t_i > t_j` — the exact comparison the ranking losses enumerate, so the
/// skip decision is NaN-correct.
fn has_comparable_pair(batch: &[(usize, f32)]) -> bool {
    batch
        .iter()
        .any(|&(_, a)| batch.iter().any(|&(_, b)| a > b))
}

/// One gradient step on a batch of `(arch index, normalized target)` pairs
/// for a single device. Returns the batch loss (`None` when the ranking loss
/// had no comparable pairs and the step was skipped).
///
/// Builds each step on a fresh [`TrainTape`]; the epoch loops ([`pretrain`],
/// [`fine_tune`]) use [`train_step_on`] with one reused tape instead.
pub fn train_step(
    pred: &mut LatencyPredictor,
    ctx: &TrainContext<'_>,
    device: usize,
    batch: &[(usize, f32)],
    adam: &AdamConfig,
) -> Option<f32> {
    let mut tape = TrainTape::new();
    train_step_on(pred, ctx, device, batch, adam, &mut tape)
}

/// [`train_step`] on a caller-owned [`TrainTape`].
///
/// The whole batch is built as ONE multi-query forward over the `B·n`-row
/// stack (the same stacked pass the serving layer batches on), the loss
/// closes over the stacked `B×1` score column, and a single `backward`
/// sweeps the entire batch. A one-sample batch is a pass with one block;
/// under the ranking loss it never reaches the tape, having no comparable
/// pair.
///
/// # Determinism contract
/// The stacked pass's per-row scores, and hence the **loss value**, are
/// bit-identical to a per-architecture dense reference forward (pinned by
/// unit tests), and every step is sequential
/// arithmetic on one tape, so trained weights are **bit-identical at any
/// thread count** — the determinism suite pins this.
pub fn train_step_on(
    pred: &mut LatencyPredictor,
    ctx: &TrainContext<'_>,
    device: usize,
    batch: &[(usize, f32)],
    adam: &AdamConfig,
    tape: &mut TrainTape,
) -> Option<f32> {
    if batch.is_empty() {
        return None;
    }
    let (loss_kind, margin, grad_clip, supp_kind) = {
        let c = pred.config();
        (c.loss, c.hinge_margin, c.grad_clip, c.supplement)
    };
    // A ranking batch with no comparable pair is a skipped step either way;
    // deciding before the forward saves building a tape just to discard it.
    if matches!(loss_kind, LossKind::PairwiseHinge) && !has_comparable_pair(batch) {
        return None;
    }
    pred.store.zero_grads();
    let TrainTape {
        graph: g,
        batch: scratch,
        devices,
        supp,
        targets,
    } = tape;
    g.clear();
    targets.clear();
    targets.extend(batch.iter().map(|&(_, t)| t));
    let archs: Vec<&Arch> = batch.iter().map(|&(i, _)| &ctx.pool[i]).collect();
    devices.clear();
    devices.resize(batch.len(), device);
    let supp_ref: Option<&[Vec<f32>]> = match supp_kind {
        Some(kind) => {
            // Gather the batch's supplement rows into retained row buffers
            // (inner capacity survives across steps).
            supp.resize_with(batch.len(), Vec::new);
            supp.truncate(batch.len());
            for (dst, &(i, _)) in supp.iter_mut().zip(batch) {
                dst.clear();
                dst.extend_from_slice(ctx.supplement_row(kind, i));
            }
            Some(&supp[..])
        }
        None => None,
    };
    let ys = pred.forward_batched_with_scratch(g, scratch, &archs, devices, supp_ref);
    let loss = match loss_kind {
        LossKind::PairwiseHinge => pairwise_hinge_loss_stacked(g, ys, targets, margin)?,
        LossKind::Mse => mse_loss_stacked(g, ys, targets),
    };
    let value = g.value(loss).item();
    g.backward(loss);
    g.write_grads(&mut pred.store);
    pred.store.clip_grad_norm(grad_clip);
    pred.store.adam_step(adam);
    Some(value)
}

/// Resets `perm` to the identity permutation `0..n`, reusing its capacity.
///
/// Shuffling a freshly reset identity draws the exact RNG sequence an
/// in-place shuffle of the sample vector would (Fisher–Yates consumes draws
/// by slice length alone), and indexing samples through the shuffled
/// identity reproduces the shuffled vector element-for-element — so the
/// epoch loops below stay bit-identical to the old clone-and-shuffle while
/// never copying the sample set.
fn reset_identity(perm: &mut Vec<usize>, n: usize) {
    perm.clear();
    perm.extend(0..n);
}

/// Pre-trains on all source devices of a task (paper §3.4: conventional
/// multi-device training with per-device ranking batches).
///
/// Every gradient step runs through [`train_step_on`]'s stacked batched path
/// (one tape pass + one backward per mini-batch) on a single reused
/// [`TrainTape`]; epoch shuffles permute hoisted index buffers instead of
/// cloning the sample vectors.
pub fn pretrain(pred: &mut LatencyPredictor, ctx: &TrainContext<'_>, data: &PretrainData) {
    let (epochs, batch_size, lr, weight_decay, seed) = {
        let c = pred.config();
        (c.epochs, c.batch_size, c.lr, c.weight_decay, c.seed)
    };
    let adam = AdamConfig {
        lr,
        weight_decay,
        ..AdamConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51ED_1234);
    let mut tape = TrainTape::new(); // one tape for the whole pre-training
    let mut device_order: Vec<usize> = Vec::new();
    let mut perm: Vec<usize> = Vec::new();
    let mut batch_buf: Vec<(usize, f32)> = Vec::new();
    for _ in 0..epochs {
        reset_identity(&mut device_order, data.devices.len());
        device_order.shuffle(&mut rng);
        for &d in &device_order {
            let ds: &DeviceSamples = &data.devices[d];
            reset_identity(&mut perm, ds.samples.len());
            perm.shuffle(&mut rng);
            for chunk in perm.chunks(batch_size) {
                batch_buf.clear();
                batch_buf.extend(chunk.iter().map(|&k| ds.samples[k]));
                train_step_on(pred, ctx, ds.device, &batch_buf, &adam, &mut tape);
            }
        }
    }
}

/// Fine-tunes on the target device's few samples with a re-initialized
/// learning schedule (paper §3.4 / MultiPredict-style transfer).
///
/// Like [`pretrain`], every step takes the stacked batched gradient path on
/// one reused [`TrainTape`], with permutation-buffer shuffles.
pub fn fine_tune(
    pred: &mut LatencyPredictor,
    ctx: &TrainContext<'_>,
    device: usize,
    samples: &DeviceSamples,
) {
    let (transfer_epochs, batch_size, transfer_lr, weight_decay, seed) = {
        let c = pred.config();
        (
            c.transfer_epochs,
            c.batch_size,
            c.transfer_lr,
            c.weight_decay,
            c.seed,
        )
    };
    pred.store.reset_optimizer_state();
    let adam = AdamConfig {
        lr: transfer_lr,
        weight_decay,
        ..AdamConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF17E_704E ^ device as u64);
    let mut tape = TrainTape::new(); // one tape for the whole fine-tuning
    let mut perm: Vec<usize> = Vec::new();
    let mut batch_buf: Vec<(usize, f32)> = Vec::new();
    for _ in 0..transfer_epochs {
        reset_identity(&mut perm, samples.samples.len());
        perm.shuffle(&mut rng);
        for chunk in perm.chunks(batch_size) {
            batch_buf.clear();
            batch_buf.extend(chunk.iter().map(|&k| samples.samples[k]));
            train_step_on(pred, ctx, device, &batch_buf, &adam, &mut tape);
        }
    }
}

/// Hardware-embedding initialization (§5.2): rank-correlates the target's
/// few measured latencies against each *source* device's latencies on the
/// same architectures and copies the best-matching source's embedding row.
///
/// Returns the chosen source index (`None` if no correlation was computable,
/// in which case the embedding is left at its random initialization).
pub fn hw_init_from_correlation(
    pred: &mut LatencyPredictor,
    target_device: usize,
    transfer_raw: &[(usize, f32)],
    table: &LatencyTable,
    source_names: &[String],
) -> Option<usize> {
    let target_lat: Vec<f32> = transfer_raw.iter().map(|&(_, l)| l).collect();
    let mut best: Option<(usize, f32)> = None;
    for (s, name) in source_names.iter().enumerate() {
        let row = table.device_row(name)?;
        let src_lat: Vec<f32> = transfer_raw.iter().map(|&(i, _)| row[i]).collect();
        if let Ok(rho) = spearman_rho(&target_lat, &src_lat) {
            if best.is_none_or(|(_, b)| rho > b) {
                best = Some((s, rho));
            }
        }
    }
    let (source, _) = best?;
    pred.copy_hw_embedding(target_device, source);
    Some(source)
}

/// Predicts latency scores for pool architectures by index.
///
/// Predictions run in parallel over the `nasflat-parallel` layer (bounded by
/// `NASFLAT_THREADS`); each worker reuses one
/// [`BatchSession`](crate::BatchSession) tape over its contiguous chunk,
/// evaluated as multi-query tape passes of
/// [`TAPE_BLOCK`](crate::TAPE_BLOCK) architectures. Every pass row is
/// bit-identical to the per-architecture reference and each forward is
/// pure, so the output is bit-identical at any thread count.
pub fn predict_indices(
    pred: &LatencyPredictor,
    ctx: &TrainContext<'_>,
    device: usize,
    indices: &[usize],
) -> Vec<f32> {
    let cfg = pred.config();
    let archs: Vec<&Arch> = indices.iter().map(|&i| &ctx.pool[i]).collect();
    let supp: Option<Vec<Vec<f32>>> = cfg.supplement.map(|kind| {
        indices
            .iter()
            .map(|&i| ctx.supplement_row(kind, i).to_vec())
            .collect()
    });
    pred.batch_scores(&archs, device, supp.as_deref())
}

/// Spearman rank correlation of predicted scores against ground-truth
/// latencies on an evaluation set. Returns 0.0 when undefined (constant
/// predictions), matching how a useless predictor scores.
pub fn evaluate_spearman(
    pred: &LatencyPredictor,
    ctx: &TrainContext<'_>,
    device: usize,
    eval: &[(usize, f32)],
) -> f32 {
    let indices: Vec<usize> = eval.iter().map(|&(i, _)| i).collect();
    let truth: Vec<f32> = eval.iter().map(|&(_, l)| l).collect();
    let scores = predict_indices(pred, ctx, device, &indices);
    spearman_rho(&scores, &truth).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorConfig;
    use crate::predictor::reference;
    use nasflat_hw::DeviceRegistry;
    use nasflat_space::Space;
    use nasflat_tasks::{paper_task, probe_pool};
    use nasflat_tensor::{mse_loss, pairwise_hinge_loss, Var};

    fn tiny_cfg() -> PredictorConfig {
        let mut c = PredictorConfig::quick();
        c.op_dim = 8;
        c.hw_dim = 8;
        c.node_dim = 8;
        c.ophw_gnn_dims = vec![12];
        c.ophw_mlp_dims = vec![12];
        c.gnn_dims = vec![12];
        c.head_dims = vec![16];
        c.epochs = 8;
        c.transfer_epochs = 8;
        c
    }

    #[test]
    fn training_improves_single_device_ranking() {
        let pool = probe_pool(Space::Nb201, 60, 0);
        let reg = DeviceRegistry::nb201();
        let device = reg.get("raspi4").unwrap();
        let lats = nasflat_hw::measure_all(device, &pool);
        let raw: Vec<(usize, f32)> = (0..40).map(|i| (i, lats[i])).collect();
        let eval: Vec<(usize, f32)> = (40..60).map(|i| (i, lats[i])).collect();
        let samples = DeviceSamples::new(0, &raw);
        let ctx = TrainContext::new(&pool);

        let mut pred = LatencyPredictor::new(Space::Nb201, vec!["raspi4".into()], 0, tiny_cfg());
        let before = evaluate_spearman(&pred, &ctx, 0, &eval);
        let data = PretrainData {
            devices: vec![samples],
        };
        pretrain(&mut pred, &ctx, &data);
        let after = evaluate_spearman(&pred, &ctx, 0, &eval);
        assert!(
            after > before.max(0.3),
            "training should lift rank correlation: before {before}, after {after}"
        );
    }

    #[test]
    fn hw_init_picks_a_correlated_source() {
        let pool = probe_pool(Space::Nb201, 50, 1);
        let task = paper_task("ND").unwrap();
        let reg = DeviceRegistry::nb201();
        let table = nasflat_hw::LatencyTable::build(reg.devices(), &pool);
        let mut devices = task.train.clone();
        devices.extend(task.test.clone());
        let mut pred = LatencyPredictor::new(Space::Nb201, devices, 0, tiny_cfg());
        // target pixel2 (an mCPU): its transfer samples
        let target_idx = pred.device_index("pixel2").unwrap();
        let row = table.device_row("pixel2").unwrap();
        let transfer: Vec<(usize, f32)> = (0..10).map(|i| (i, row[i])).collect();
        let chosen =
            hw_init_from_correlation(&mut pred, target_idx, &transfer, &table, &task.train)
                .expect("correlation should be computable");
        // CPU-like sources should beat desktop GPUs for pixel2 (paper
        // Table 21: pixel2 correlates ~0.87-0.89 with both server CPUs and
        // mobile CPUs, but only ~0.78-0.81 with batch-1 GPUs).
        let chosen_name = &task.train[chosen];
        let cpu_like = [
            "samsung_a50",
            "pixel3",
            "samsung_s7",
            "essential_ph_1",
            "silver_4114",
            "silver_4210r",
        ];
        assert!(
            cpu_like.contains(&chosen_name.as_str()),
            "expected a CPU-like source for pixel2, got {chosen_name}"
        );
        assert_eq!(
            pred.hw_embedding_row(target_idx),
            pred.hw_embedding_row(chosen)
        );
    }

    /// The stacked step's loss VALUE is bit-identical to a reference built
    /// from per-architecture dense forwards and the scalar-var losses on
    /// the same weights, for both loss kinds (the stacked pass's rows and
    /// the stacked losses' folds reproduce the per-arch arithmetic exactly).
    #[test]
    fn stacked_step_loss_matches_per_arch_bitwise() {
        let pool = probe_pool(Space::Nb201, 20, 4);
        let ctx = TrainContext::new(&pool);
        let adam = AdamConfig::default();
        let batch: Vec<(usize, f32)> = (0..8).map(|i| (i, (i as f32 * 0.37).sin())).collect();
        let targets: Vec<f32> = batch.iter().map(|&(_, t)| t).collect();
        for loss in [LossKind::PairwiseHinge, LossKind::Mse] {
            let mut cfg = tiny_cfg();
            cfg.loss = loss;
            let mut pred = LatencyPredictor::new(Space::Nb201, vec!["x".into()], 0, cfg.clone());
            let mut g = Graph::new();
            let scores: Vec<Var> = batch
                .iter()
                .map(|&(i, _)| reference::forward(&pred, &mut g, &pool[i], 0, None))
                .collect();
            let reference = match loss {
                LossKind::PairwiseHinge => {
                    pairwise_hinge_loss(&mut g, &scores, &targets, cfg.hinge_margin)
                        .expect("batch has comparable pairs")
                }
                LossKind::Mse => mse_loss(&mut g, &scores, &targets),
            };
            let expect = g.value(reference).item();
            let got =
                train_step(&mut pred, &ctx, 0, &batch, &adam).expect("stacked step should run");
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "stacked vs per-arch first-step loss diverged for {loss:?}"
            );
        }
    }

    #[test]
    fn train_step_returns_none_for_tied_targets() {
        let pool = probe_pool(Space::Nb201, 4, 2);
        let ctx = TrainContext::new(&pool);
        let mut pred = LatencyPredictor::new(Space::Nb201, vec!["x".into()], 0, tiny_cfg());
        let adam = AdamConfig::default();
        let out = train_step(&mut pred, &ctx, 0, &[(0, 1.0), (1, 1.0)], &adam);
        assert!(out.is_none());
        assert!(train_step(&mut pred, &ctx, 0, &[], &adam).is_none());
    }

    #[test]
    fn mse_loss_path_works_too() {
        let pool = probe_pool(Space::Nb201, 20, 3);
        let ctx = TrainContext::new(&pool);
        let mut cfg = tiny_cfg();
        cfg.loss = LossKind::Mse;
        let mut pred = LatencyPredictor::new(Space::Nb201, vec!["x".into()], 0, cfg);
        let adam = AdamConfig::default();
        let batch: Vec<(usize, f32)> = (0..8).map(|i| (i, i as f32 / 8.0)).collect();
        let l1 = train_step(&mut pred, &ctx, 0, &batch, &adam).unwrap();
        for _ in 0..30 {
            train_step(&mut pred, &ctx, 0, &batch, &adam);
        }
        let l2 = train_step(&mut pred, &ctx, 0, &batch, &adam).unwrap();
        assert!(l2 < l1, "MSE should fall: {l1} -> {l2}");
    }
}
