//! `nasflat`: a pure-Rust reproduction of *“On Latency Predictors for Neural
//! Architecture Search”* (Akhauri & Abdelfattah, MLSys 2024).
//!
//! NASFLAT is a few-shot hardware-latency predictor: pre-train a GNN
//! predictor on a pool of *source* devices, then transfer it to a new
//! *target* device with ~20 measured samples. This umbrella crate re-exports
//! the whole workspace and adds [`Pipeline`], a one-stop builder that wires
//! the pieces together the way the paper's experiments do:
//!
//! 1. a search space and architecture pool ([`space`]),
//! 2. synthetic devices and a latency table ([`hw`] — the substitute for the
//!    HW-NAS-Bench/EAGLE measurement files, see `DESIGN.md`),
//! 3. a (train devices, test devices) task ([`tasks`]),
//! 4. architecture encodings and the transfer-set sampler
//!    ([`encode`], [`sample`]),
//! 5. the predictor with operation-specific hardware embeddings ([`core`]),
//! 6. baselines and hardware-aware NAS ([`baselines`], [`nas`]).
//!
//! # Quickstart
//! ```no_run
//! use nasflat::Pipeline;
//!
//! // Pretrain on task N1's source devices and transfer to its targets.
//! let report = Pipeline::new("N1")
//!     .pool_size(500)
//!     .quick() // reduced-budget profile; use .paper() for Table-20 settings
//!     .run(0)
//!     .expect("N1 is a paper task");
//! println!("mean Spearman over targets: {:.3}", report.mean_spearman());
//! ```

#![warn(missing_docs)]

/// Baseline predictors (HELP, MultiPredict, BRP-NAS, layer-wise, FLOPs).
pub use nasflat_baselines as baselines;
/// The paper's primary contribution: predictor, training, transfer.
pub use nasflat_core as core;
/// Architecture encodings (ZCP, Arch2Vec, CATE, CAZ).
pub use nasflat_encode as encode;
/// Synthetic hardware devices and the latency simulator.
pub use nasflat_hw as hw;
/// Rank-correlation metrics and summary statistics.
pub use nasflat_metrics as metrics;
/// Hardware-aware NAS: accuracy oracle, constrained search, Pareto fronts.
pub use nasflat_nas as nas;
/// Deterministic parallel execution layer (`NASFLAT_THREADS`).
pub use nasflat_parallel as parallel;
/// Transfer-set samplers.
pub use nasflat_sample as sample;
/// The serving layer: model bundles, the bundle store, the predictor registry
/// and the TCP ingress.
pub use nasflat_serve as serve;
/// NASBench-201 and FBNet search spaces.
pub use nasflat_space as space;
/// Device-set tasks and the Kernighan–Lin partitioner.
pub use nasflat_tasks as tasks;
/// The tape-based autograd substrate.
pub use nasflat_tensor as tensor;

use nasflat_core::{FewShotConfig, PredictorConfig, PretrainedTask, TaskOutcome};
use nasflat_encode::{EncodingKind, EncodingSuite, SuiteConfig};
use nasflat_hw::{DeviceRegistry, LatencyTable};
use nasflat_sample::{Sampler, SelectError, SelectionMethod};
use nasflat_tasks::{paper_task, probe_pool, Task};

/// Everything a [`Pipeline::run`] produces.
pub type Report = TaskOutcome;

/// Errors a pipeline run can produce.
#[derive(Debug)]
pub enum PipelineError {
    /// The task name is not one of the paper's 12 tasks.
    UnknownTask(String),
    /// The transfer-set sampler failed (pool too small / degenerate k-means).
    Sampler(SelectError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::UnknownTask(name) => write!(f, "unknown paper task '{name}'"),
            PipelineError::Sampler(e) => write!(f, "sampler failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SelectError> for PipelineError {
    fn from(e: SelectError) -> Self {
        PipelineError::Sampler(e)
    }
}

/// Where a pipeline's task comes from.
#[derive(Debug, Clone)]
enum TaskSource {
    /// One of the paper's 12 named tasks, resolved at [`Pipeline::run`].
    Paper(String),
    /// A caller-supplied task (e.g. generated by
    /// [`generate_task`](nasflat_tasks::generate_task)).
    Custom(Task),
}

/// High-level builder running the paper's few-shot protocol on one task.
///
/// Defaults: 500-architecture pool, NASFLAT configuration (CAZ sampler, ZCP
/// supplement, OpHW + HWInit on) at the reduced `quick` budget.
#[derive(Debug, Clone)]
pub struct Pipeline {
    task: TaskSource,
    pool_size: usize,
    fewshot: FewShotConfig,
}

impl Pipeline {
    /// Starts a pipeline for one of the paper's 12 tasks ("ND", "N1", …,
    /// "FA"). Validation happens at [`Pipeline::run`].
    pub fn new(task_name: &str) -> Self {
        Self::from_source(TaskSource::Paper(task_name.to_string()))
    }

    /// Starts a pipeline for a custom task — e.g. one produced by the
    /// Algorithm 1 partitioner ([`generate_task`](nasflat_tasks::generate_task)).
    pub fn for_task(task: Task) -> Self {
        Self::from_source(TaskSource::Custom(task))
    }

    fn from_source(task: TaskSource) -> Self {
        let mut fewshot = FewShotConfig::quick();
        fewshot.predictor.supplement = Some(EncodingKind::Zcp);
        fewshot.sampler = Sampler::Encoding {
            kind: EncodingKind::Caz,
            method: SelectionMethod::Cosine,
        };
        Pipeline {
            task,
            pool_size: 500,
            fewshot,
        }
    }

    /// Sets the working architecture-pool size.
    pub fn pool_size(mut self, n: usize) -> Self {
        self.pool_size = n;
        self
    }

    /// Uses the reduced-budget profile (default).
    pub fn quick(mut self) -> Self {
        let keep_supp = self.fewshot.predictor.supplement;
        let keep_sampler = self.fewshot.sampler;
        self.fewshot = FewShotConfig::quick().with_sampler(keep_sampler);
        self.fewshot.predictor.supplement = keep_supp;
        self
    }

    /// Uses the paper's Table 20 configuration (slow on CPU).
    pub fn paper(mut self) -> Self {
        let keep_supp = self.fewshot.predictor.supplement;
        let keep_sampler = self.fewshot.sampler;
        self.fewshot = FewShotConfig::new(PredictorConfig::paper()).with_sampler(keep_sampler);
        self.fewshot.predictor.supplement = keep_supp;
        self
    }

    /// Overrides the transfer-set sampler.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.fewshot.sampler = sampler;
        self
    }

    /// Overrides the supplementary encoding (`None` disables it).
    pub fn supplement(mut self, supplement: Option<EncodingKind>) -> Self {
        self.fewshot.predictor.supplement = supplement;
        self
    }

    /// Overrides the number of target-device samples.
    pub fn transfer_samples(mut self, n: usize) -> Self {
        self.fewshot.transfer_samples = n;
        self
    }

    /// Full few-shot config access for fine-grained control.
    pub fn config_mut(&mut self) -> &mut FewShotConfig {
        &mut self.fewshot
    }

    /// Resolves the task, builds the pool/table/encodings, pre-trains, and
    /// transfers to every target device.
    ///
    /// # Errors
    /// [`PipelineError::UnknownTask`] for a bad task name,
    /// [`PipelineError::Sampler`] if the transfer sampler fails.
    pub fn run(&self, seed: u64) -> Result<Report, PipelineError> {
        let task: Task = match &self.task {
            TaskSource::Paper(name) => {
                paper_task(name).ok_or_else(|| PipelineError::UnknownTask(name.clone()))?
            }
            TaskSource::Custom(task) => task.clone(),
        };
        let pool = probe_pool(task.space, self.pool_size, seed);
        let registry = DeviceRegistry::for_space(task.space);
        let table = LatencyTable::build(registry.devices(), &pool);
        let suite = EncodingSuite::build(&pool, &SuiteConfig::quick().with_seed(seed));
        let mut cfg = self.fewshot.clone();
        cfg.predictor.seed = cfg.predictor.seed.wrapping_add(seed);
        if task.space == nasflat_space::Space::Fbnet {
            cfg.predictor = cfg.predictor.for_fbnet();
        }
        let mut pre = PretrainedTask::build(&task, &pool, &table, Some(&suite), cfg);
        Ok(pre.transfer_all(seed)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_task_is_reported() {
        let err = Pipeline::new("Z9").pool_size(50).run(0).unwrap_err();
        assert!(matches!(err, PipelineError::UnknownTask(_)));
        assert!(err.to_string().contains("Z9"));
    }

    #[test]
    fn custom_task_pipeline_runs() {
        use nasflat_space::Space;
        // Partition a fresh split with Algorithm 1 and run the pipeline on it.
        let corr = nasflat_tasks::CorrelationMatrix::for_space(Space::Nb201, 60, 0);
        let task =
            nasflat_tasks::generate_task(Space::Nb201, &corr, 3, 2, 1).expect("partition succeeds");
        let mut p = Pipeline::for_task(task).pool_size(80).transfer_samples(8);
        {
            let cfg = p.config_mut();
            cfg.predictor.op_dim = 8;
            cfg.predictor.hw_dim = 8;
            cfg.predictor.node_dim = 8;
            cfg.predictor.ophw_gnn_dims = vec![10];
            cfg.predictor.ophw_mlp_dims = vec![10];
            cfg.predictor.gnn_dims = vec![10];
            cfg.predictor.head_dims = vec![12];
            cfg.predictor.epochs = 3;
            cfg.predictor.transfer_epochs = 3;
            cfg.pretrain_per_device = 10;
            cfg.eval_samples = 30;
        }
        let report = p.run(0).expect("custom task should run");
        assert_eq!(report.devices.len(), 2);
    }

    #[test]
    fn builder_overrides_apply() {
        let mut p = Pipeline::new("N1").transfer_samples(7).supplement(None);
        assert_eq!(p.config_mut().transfer_samples, 7);
        assert!(p.config_mut().predictor.supplement.is_none());
        let q = p.clone().sampler(Sampler::Random);
        assert_eq!(q.fewshot.sampler, Sampler::Random);
    }
}
