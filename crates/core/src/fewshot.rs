//! The end-to-end few-shot experiment: pretrain on source devices, transfer
//! to each target device with a handful of sampled measurements, report
//! Spearman rank correlation (paper §6.2's protocol behind Tables 2–7).

use rand::rngs::StdRng;
use rand::SeedableRng;

use nasflat_encode::EncodingSuite;
use nasflat_hw::LatencyTable;
use nasflat_metrics::{mean, MeanStd};
use nasflat_sample::{Sampler, SamplerContext, SelectError};
use nasflat_space::Arch;
use nasflat_tasks::Task;

use crate::config::PredictorConfig;
use crate::data::{DeviceSamples, PretrainData};
use crate::predictor::LatencyPredictor;
use crate::trainer::{
    evaluate_spearman, fine_tune, hw_init_from_correlation, pretrain, TrainContext,
};

/// Experiment-level configuration around a [`PredictorConfig`].
#[derive(Debug, Clone)]
pub struct FewShotConfig {
    /// Predictor architecture + training hyperparameters.
    pub predictor: PredictorConfig,
    /// Latency samples drawn from each source device for pre-training
    /// (paper Fig. 6 sweeps 32–512; Table 7 uses as few as 25 total).
    pub pretrain_per_device: usize,
    /// Few-shot samples measured on the target device (paper default: 20).
    pub transfer_samples: usize,
    /// Held-out architectures used to score the transferred predictor.
    pub eval_samples: usize,
    /// How the transfer set is chosen.
    pub sampler: Sampler,
}

impl FewShotConfig {
    /// Paper-protocol defaults around a given predictor config.
    pub fn new(predictor: PredictorConfig) -> Self {
        FewShotConfig {
            predictor,
            pretrain_per_device: 128,
            transfer_samples: 20,
            eval_samples: 200,
            sampler: Sampler::Random,
        }
    }

    /// Reduced-budget profile for CPU-only runs.
    pub fn quick() -> Self {
        FewShotConfig {
            predictor: PredictorConfig::quick(),
            pretrain_per_device: 32,
            transfer_samples: 20,
            eval_samples: 100,
            sampler: Sampler::Random,
        }
    }

    /// Same config with a different sampler.
    pub fn with_sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = sampler;
        self
    }
}

/// Result of transferring to one target device.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// Target device name.
    pub device: String,
    /// Spearman rank correlation on the evaluation set.
    pub spearman: f32,
    /// Which source device seeded the hardware embedding (when HWInit ran).
    pub hw_init_source: Option<String>,
}

/// Result of one few-shot run over a full task.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Task name ("N1", …).
    pub task: String,
    /// Per-target-device outcomes.
    pub devices: Vec<DeviceOutcome>,
}

impl TaskOutcome {
    /// Mean Spearman over target devices (the paper's per-task cell).
    pub fn mean_spearman(&self) -> f32 {
        let v: Vec<f32> = self.devices.iter().map(|d| d.spearman).collect();
        mean(&v)
    }
}

/// A pre-trained predictor bundled with everything needed to run transfer
/// experiments repeatedly (restores the pre-trained weights between
/// targets/samplers, so one pre-training serves many ablation rows).
///
/// The pre-trained snapshot lives behind an [`Arc`](std::sync::Arc): it is
/// immutable after [`PretrainedTask::build`], so per-target forks share one
/// copy instead of deep-cloning every parameter tensor per thread.
pub struct PretrainedTask<'a> {
    task: &'a Task,
    table: &'a LatencyTable,
    pool: &'a [Arch],
    suite: Option<&'a EncodingSuite>,
    cfg: FewShotConfig,
    predictor: LatencyPredictor,
    snapshot: std::sync::Arc<Vec<nasflat_tensor::Tensor>>,
}

impl<'a> PretrainedTask<'a> {
    /// Pre-trains a predictor for `task` on the source devices.
    ///
    /// # Panics
    /// Panics if a supplement is configured without a suite, or pool/table
    /// sizes disagree.
    pub fn build(
        task: &'a Task,
        pool: &'a [Arch],
        table: &'a LatencyTable,
        suite: Option<&'a EncodingSuite>,
        cfg: FewShotConfig,
    ) -> Self {
        assert_eq!(
            pool.len(),
            table.num_archs(),
            "pool and latency table disagree"
        );
        let ctx = match suite {
            Some(s) => TrainContext::with_suite(pool, s),
            None => TrainContext::new(pool),
        };
        let supp_dim = ctx.supp_dim(&cfg.predictor);
        let mut devices = task.train.clone();
        devices.extend(task.test.clone());
        let mut predictor =
            LatencyPredictor::new(task.space, devices, supp_dim, cfg.predictor.clone());
        let data =
            PretrainData::from_task(task, table, cfg.pretrain_per_device, cfg.predictor.seed);
        pretrain(&mut predictor, &ctx, &data);
        let snapshot = std::sync::Arc::new(predictor.snapshot());
        PretrainedTask {
            task,
            table,
            pool,
            suite,
            cfg,
            predictor,
            snapshot,
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &FewShotConfig {
        &self.cfg
    }

    /// The architecture pool this task was pre-trained over.
    pub fn pool(&self) -> &'a [Arch] {
        self.pool
    }

    /// The predictor in its current state (pre-trained, or adapted by the
    /// most recent transfer). This is the export point for the serving
    /// layer: `pre.predictor().to_bytes()` ships the pre-trained artifact.
    pub fn predictor(&self) -> &LatencyPredictor {
        &self.predictor
    }

    /// An independent copy sharing the same borrowed pool/table/suite AND
    /// the same immutable pre-trained snapshot (an `Arc` bump, not a deep
    /// clone — only the working predictor's parameters are copied, since the
    /// fork fine-tunes those in place). This is what lets
    /// [`PretrainedTask::transfer_all`] fan targets out across threads
    /// without T× snapshot memory.
    fn fork(&self) -> PretrainedTask<'a> {
        PretrainedTask {
            task: self.task,
            table: self.table,
            pool: self.pool,
            suite: self.suite,
            cfg: self.cfg.clone(),
            predictor: self.predictor.clone(),
            snapshot: std::sync::Arc::clone(&self.snapshot),
        }
    }

    fn ctx(&self) -> TrainContext<'a> {
        match self.suite {
            Some(s) => TrainContext::with_suite(self.pool, s),
            None => TrainContext::new(self.pool),
        }
    }

    /// Restores the snapshot, samples a transfer set of size `k`, runs
    /// HWInit + fine-tuning, and leaves the predictor adapted to `target`.
    /// Returns the target's device index, the transfer indices, and the
    /// HWInit source (if enabled).
    fn transfer_core(
        &mut self,
        target: &str,
        sampler: &Sampler,
        seed: u64,
        k: usize,
    ) -> Result<(usize, Vec<usize>, Option<String>), SelectError> {
        let target_pos = self
            .task
            .test
            .iter()
            .position(|d| d == target)
            .unwrap_or_else(|| panic!("'{target}' is not a test device of {}", self.task.name));
        let device_idx = self.task.train.len() + target_pos;
        let row = self
            .table
            .device_row(target)
            .unwrap_or_else(|| panic!("device '{target}' missing from latency table"));

        self.predictor.restore(&self.snapshot);

        // Pick the transfer set.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sctx = SamplerContext::new(self.pool);
        if let Some(s) = self.suite {
            sctx = sctx.with_encodings(s);
        }
        sctx = sctx.with_target_latencies(row);
        let picked = sampler.select(k, &sctx, &mut rng)?;
        let transfer_raw: Vec<(usize, f32)> = picked.iter().map(|&i| (i, row[i])).collect();

        // Hardware-embedding initialization from the most correlated source.
        let hw_init_source = if self.cfg.predictor.hw_init {
            hw_init_from_correlation(
                &mut self.predictor,
                device_idx,
                &transfer_raw,
                self.table,
                &self.task.train,
            )
            .map(|s| self.task.train[s].clone())
        } else {
            None
        };

        // Fine-tune on the measured samples.
        let ctx = self.ctx();
        let samples = DeviceSamples::new(device_idx, &transfer_raw);
        fine_tune(&mut self.predictor, &ctx, device_idx, &samples);
        Ok((device_idx, picked, hw_init_source))
    }

    /// Transfers the pre-trained predictor to one target device using
    /// `sampler`, returning the outcome. The pre-trained weights are restored
    /// first, so calls are independent.
    ///
    /// # Errors
    /// Propagates sampler failures (pool too small, degenerate k-means).
    pub fn transfer_to(
        &mut self,
        target: &str,
        sampler: &Sampler,
        seed: u64,
    ) -> Result<DeviceOutcome, SelectError> {
        let k = self.cfg.transfer_samples;
        let (device_idx, picked, hw_init_source) = self.transfer_core(target, sampler, seed, k)?;
        let row = self
            .table
            .device_row(target)
            .expect("validated by transfer_core");
        let eval = eval_set(self.pool.len(), &picked, self.cfg.eval_samples, row);
        let ctx = self.ctx();
        let spearman = evaluate_spearman(&self.predictor, &ctx, device_idx, &eval);
        Ok(DeviceOutcome {
            device: target.to_string(),
            spearman,
            hw_init_source,
        })
    }

    /// Transfers to `target` with an explicit sample budget and returns a
    /// standalone scorer over the adapted predictor — the entry point for
    /// NAS, where the search must query latencies of arbitrary (out-of-pool)
    /// architectures (paper §6.8, Figure 5's sample-size sweep).
    ///
    /// # Errors
    /// Propagates sampler failures.
    pub fn transfer_scorer(
        &mut self,
        target: &str,
        sampler: &Sampler,
        seed: u64,
        transfer_samples: usize,
    ) -> Result<TransferredPredictor<'a>, SelectError> {
        let (device_idx, _picked, _) =
            self.transfer_core(target, sampler, seed, transfer_samples)?;
        Ok(TransferredPredictor {
            predictor: self.predictor.clone(),
            device: device_idx,
            suite: self.suite,
            target: target.to_string(),
        })
    }

    /// Transfers to `target` and predicts scores for `indices` of the pool
    /// with the adapted predictor (pre-trained weights are restored first,
    /// so calls are independent). Predictions run in parallel.
    ///
    /// # Errors
    /// Propagates sampler failures.
    pub fn transfer_predict(
        &mut self,
        target: &str,
        sampler: &Sampler,
        seed: u64,
        indices: &[usize],
    ) -> Result<Vec<f32>, SelectError> {
        let k = self.cfg.transfer_samples;
        let (device_idx, _picked, _) = self.transfer_core(target, sampler, seed, k)?;
        let ctx = self.ctx();
        Ok(crate::trainer::predict_indices(
            &self.predictor,
            &ctx,
            device_idx,
            indices,
        ))
    }

    /// Transfers to every test device of the task, fanning the targets out
    /// across threads. Each fork shares the immutable pre-trained snapshot
    /// (restored into its own working weights first, so the outcome is
    /// bit-identical to transferring sequentially). Each fork fine-tunes
    /// with one stacked forward and one backward per mini-batch (see
    /// [`train_step_on`](crate::train_step_on)) and evaluates its held-out
    /// architectures in stacked passes of
    /// [`TAPE_BLOCK`](crate::TAPE_BLOCK), so the architectures of a pass
    /// share its fixed costs.
    ///
    /// # Errors
    /// Propagates the first (in device order) sampler failure.
    pub fn transfer_all(&mut self, seed: u64) -> Result<TaskOutcome, SelectError> {
        let sampler = self.cfg.sampler;
        let this = &*self;
        let jobs: Vec<(usize, String)> = this.task.test.iter().cloned().enumerate().collect();
        let results = nasflat_parallel::par_map(&jobs, |job| {
            let (t, target) = job;
            let mut fork = this.fork();
            fork.transfer_to(target, &sampler, seed.wrapping_add(*t as u64 * 101))
        });
        let mut devices = Vec::with_capacity(results.len());
        for outcome in results {
            devices.push(outcome?);
        }
        Ok(TaskOutcome {
            task: self.task.name.clone(),
            devices,
        })
    }
}

/// A predictor adapted to one target device, usable as a standalone latency
/// scorer for arbitrary architectures (including ones outside the pool —
/// supplementary encodings are computed on the fly via the suite).
pub struct TransferredPredictor<'a> {
    predictor: LatencyPredictor,
    device: usize,
    suite: Option<&'a EncodingSuite>,
    target: String,
}

impl TransferredPredictor<'_> {
    /// The target device this scorer was adapted to.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Latency score of an architecture on the adapted device.
    ///
    /// # Panics
    /// Panics if a supplement is configured but the pre-training ran without
    /// an encoding suite.
    pub fn score(&self, arch: &Arch) -> f32 {
        self.predictor
            .predict(arch, self.device, self.supp_for(arch).as_deref())
    }

    /// The supplementary encoding for an (arbitrary) architecture, per the
    /// predictor config.
    fn supp_for(&self, arch: &Arch) -> Option<Vec<f32>> {
        self.predictor.config().supplement.map(|kind| {
            self.suite
                .expect("supplement configured but no encoding suite attached")
                .encode(kind, arch)
        })
    }

    /// Supplementary rows for a batch (computed iff the config sets a
    /// supplement). Encoding fans out over the parallel layer — per-arch
    /// encodes are pure, so the rows are bit-identical to a sequential
    /// loop at any thread count.
    fn supp_batch(&self, archs: &[&Arch]) -> Option<Vec<Vec<f32>>> {
        self.predictor.config().supplement.map(|kind| {
            let suite = self
                .suite
                .expect("supplement configured but no encoding suite attached");
            nasflat_parallel::par_map(archs, |a| suite.encode(kind, a))
        })
    }

    /// Scores for pool architectures by index, evaluated in parallel with
    /// one [`BatchSession`](crate::BatchSession) tape per worker, each
    /// worker evaluating multi-query tape passes of
    /// [`TAPE_BLOCK`](crate::TAPE_BLOCK) architectures. Bit-identical to a
    /// sequential fresh-tape loop at any thread count.
    pub fn score_indices(&self, pool: &[Arch], indices: &[usize]) -> Vec<f32> {
        let archs: Vec<&Arch> = indices.iter().map(|&i| &pool[i]).collect();
        let supp = self.supp_batch(&archs);
        self.predictor
            .batch_scores(&archs, self.device, supp.as_deref())
    }

    /// Scores for a batch of arbitrary architectures, evaluated like
    /// [`TransferredPredictor::score_indices`] (one session per worker,
    /// multi-query tape passes).
    pub fn score_batch(&self, archs: &[Arch]) -> Vec<f32> {
        let refs: Vec<&Arch> = archs.iter().collect();
        let supp = self.supp_batch(&refs);
        self.predictor
            .batch_scores(&refs, self.device, supp.as_deref())
    }
}

/// Held-out evaluation set: strided pool indices excluding the transfer set.
fn eval_set(pool_len: usize, exclude: &[usize], n: usize, row: &[f32]) -> Vec<(usize, f32)> {
    let excl: std::collections::HashSet<usize> = exclude.iter().copied().collect();
    let stride = (pool_len / n.max(1)).max(1);
    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    while out.len() < n && i < pool_len {
        let idx = (i * stride + 1) % pool_len;
        if !excl.contains(&idx) && !out.iter().any(|&(j, _)| j == idx) {
            out.push((idx, row[idx]));
        }
        i += 1;
    }
    out
}

/// Runs a full few-shot experiment over `trials` seeds, aggregating the
/// per-task mean Spearman into a `mean ± std` cell (the paper's table entry).
///
/// Trials are independent (each seeds its own pre-training), so they run in
/// parallel; the aggregate is bit-identical at any thread count.
///
/// # Errors
/// Propagates the first (in trial order) sampler failure (the paper reports
/// these as NaN). Unlike the old sequential loop, concurrently running
/// trials finish before the error is returned — the cost of parallel trial
/// execution on the (rare, deterministic-per-config) failure path.
pub fn run_trials(
    task: &Task,
    pool: &[Arch],
    table: &LatencyTable,
    suite: Option<&EncodingSuite>,
    cfg: &FewShotConfig,
    trials: usize,
) -> Result<MeanStd, SelectError> {
    let trial_ids: Vec<usize> = (0..trials).collect();
    let results = nasflat_parallel::par_map(&trial_ids, |&t| {
        let mut trial_cfg = cfg.clone();
        trial_cfg.predictor.seed = cfg.predictor.seed.wrapping_add(t as u64 * 7919);
        let mut pre = PretrainedTask::build(task, pool, table, suite, trial_cfg);
        pre.transfer_all(0xBEEF ^ (t as u64))
            .map(|outcome| outcome.mean_spearman())
    });
    let mut per_trial = Vec::with_capacity(trials);
    for r in results {
        per_trial.push(r?);
    }
    Ok(MeanStd::from_slice(&per_trial))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_hw::DeviceRegistry;
    use nasflat_space::Space;
    use nasflat_tasks::{paper_task, probe_pool};

    fn tiny() -> FewShotConfig {
        let mut f = FewShotConfig::quick();
        f.predictor.op_dim = 8;
        f.predictor.hw_dim = 8;
        f.predictor.node_dim = 8;
        f.predictor.ophw_gnn_dims = vec![12];
        f.predictor.ophw_mlp_dims = vec![12];
        f.predictor.gnn_dims = vec![12];
        f.predictor.head_dims = vec![16];
        f.predictor.epochs = 6;
        f.predictor.transfer_epochs = 6;
        f.pretrain_per_device = 16;
        f.transfer_samples = 10;
        f.eval_samples = 40;
        f
    }

    #[test]
    fn easy_task_transfers_well_above_chance() {
        let task = paper_task("ND").unwrap();
        let pool = probe_pool(Space::Nb201, 120, 0);
        let reg = DeviceRegistry::nb201();
        let table = nasflat_hw::LatencyTable::build(reg.devices(), &pool);
        let mut pre = PretrainedTask::build(&task, &pool, &table, None, tiny());
        let out = pre.transfer_to("raspi4", &Sampler::Random, 1).unwrap();
        assert!(
            out.spearman > 0.4,
            "ND -> raspi4 should transfer decently, got {}",
            out.spearman
        );
    }

    #[test]
    fn transfer_is_repeatable_after_restore() {
        let task = paper_task("ND").unwrap();
        let pool = probe_pool(Space::Nb201, 80, 1);
        let reg = DeviceRegistry::nb201();
        let table = nasflat_hw::LatencyTable::build(reg.devices(), &pool);
        let mut pre = PretrainedTask::build(&task, &pool, &table, None, tiny());
        let a = pre.transfer_to("fpga", &Sampler::Random, 9).unwrap();
        let b = pre.transfer_to("fpga", &Sampler::Random, 9).unwrap();
        assert_eq!(
            a.spearman, b.spearman,
            "restore must make transfers independent"
        );
    }

    #[test]
    fn eval_set_excludes_transfer_indices() {
        let row: Vec<f32> = (0..50).map(|i| i as f32 + 1.0).collect();
        let eval = eval_set(50, &[1, 11, 21], 20, &row);
        assert!(eval.len() >= 15);
        for &(i, _) in &eval {
            assert!(![1usize, 11, 21].contains(&i));
        }
        let distinct: std::collections::HashSet<_> = eval.iter().map(|&(i, _)| i).collect();
        assert_eq!(distinct.len(), eval.len());
    }

    #[test]
    fn run_trials_reports_mean_and_std() {
        let task = paper_task("ND").unwrap();
        let pool = probe_pool(Space::Nb201, 80, 2);
        let reg = DeviceRegistry::nb201();
        let table = nasflat_hw::LatencyTable::build(reg.devices(), &pool);
        let ms = run_trials(&task, &pool, &table, None, &tiny(), 2).unwrap();
        assert!(ms.mean.is_finite());
        assert!(ms.std >= 0.0);
    }
}
