//! Shared harness for the paper-table benchmark targets.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the paper.
//! This library centralizes the pieces they share: the budget (env-tunable),
//! per-task workbenches (pool + latency table + encodings), the canonical
//! NASFLAT configuration, shared-pretraining experiment loops, and table
//! printing.
//!
//! Budget environment variables (read once per process):
//!
//! | Variable | Effect |
//! |---|---|
//! | `NASFLAT_BENCH_FAST=1` | smaller pools, fewer trials/epochs |
//! | `NASFLAT_BENCH_PAPER=1` | the paper's Table-20 widths/epochs (slow on CPU) |
//! | `NASFLAT_BENCH_TRIALS=n` | override trial count |
//! | `NASFLAT_THREADS=n` | thread budget of the parallel execution layer |
//!
//! The [`parallel_harness`] module additionally provides the `parallel`
//! bench's two checks: 1-vs-N-thread scaling of `ensemble_train_transfer`
//! and `batch_predict`, and the scalar-vs-tiled kernel micro-bench. Both
//! land in `BENCH_parallel.json` for the CI `bench-quick` gate.

#![warn(missing_docs)]

pub mod nas_support;
pub mod parallel_harness;

use nasflat_core::{FewShotConfig, PredictorConfig, PretrainedTask};
use nasflat_encode::{EncodingKind, EncodingSuite, SuiteConfig};
use nasflat_hw::{DeviceRegistry, LatencyTable};
use nasflat_metrics::MeanStd;
use nasflat_sample::{Sampler, SelectError, SelectionMethod};
use nasflat_space::{Arch, Space};
use nasflat_tasks::{paper_task, probe_pool, Task};

/// Experiment scale, resolved from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Reduced widths/epochs; default for CPU-only runs.
    Quick,
    /// Even smaller (`NASFLAT_BENCH_FAST=1`).
    Fast,
    /// The paper's Table 20 settings (`NASFLAT_BENCH_PAPER=1`).
    Paper,
}

/// The resolved benchmark budget.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Scale profile.
    pub profile: Profile,
    /// Trials (seeds) per table cell.
    pub trials: usize,
    /// Architecture-pool size for NASBench-201 experiments.
    pub pool_nb201: usize,
    /// Architecture-pool size for FBNet experiments.
    pub pool_fbnet: usize,
}

impl Budget {
    /// Reads the budget from the environment.
    pub fn from_env() -> Self {
        let fast = std::env::var("NASFLAT_BENCH_FAST").is_ok_and(|v| v != "0");
        let paper = std::env::var("NASFLAT_BENCH_PAPER").is_ok_and(|v| v != "0");
        let profile = if paper {
            Profile::Paper
        } else if fast {
            Profile::Fast
        } else {
            Profile::Quick
        };
        let default_trials = match profile {
            Profile::Fast => 2,
            Profile::Quick => 3,
            Profile::Paper => 3,
        };
        let trials = std::env::var("NASFLAT_BENCH_TRIALS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_trials);
        let (pool_nb201, pool_fbnet) = match profile {
            Profile::Fast => (300, 300),
            Profile::Quick => (600, 600),
            Profile::Paper => (2000, 2000),
        };
        Budget {
            profile,
            trials,
            pool_nb201,
            pool_fbnet,
        }
    }

    /// Pool size for a space.
    pub fn pool_size(&self, space: Space) -> usize {
        match space {
            Space::Nb201 => self.pool_nb201,
            Space::Fbnet => self.pool_fbnet,
        }
    }

    /// The base predictor configuration for this budget.
    pub fn predictor(&self) -> PredictorConfig {
        match self.profile {
            Profile::Paper => PredictorConfig::paper(),
            Profile::Quick => PredictorConfig::quick(),
            Profile::Fast => {
                let mut c = PredictorConfig::quick();
                c.epochs = 15;
                c.transfer_epochs = 15;
                c
            }
        }
    }

    /// The base few-shot configuration (random sampler, no supplement).
    pub fn fewshot(&self, space: Space) -> FewShotConfig {
        let mut predictor = self.predictor();
        if space == Space::Fbnet {
            predictor = predictor.for_fbnet();
        }
        let mut cfg = FewShotConfig::new(predictor);
        cfg.pretrain_per_device = match self.profile {
            Profile::Fast => 24,
            Profile::Quick => 48,
            Profile::Paper => 128,
        };
        cfg.eval_samples = match self.profile {
            Profile::Fast => 80,
            Profile::Quick => 150,
            Profile::Paper => 250,
        };
        cfg
    }

    /// Encoding-suite configuration matched to the budget.
    pub fn suite(&self) -> SuiteConfig {
        match self.profile {
            Profile::Paper => SuiteConfig::default(),
            _ => SuiteConfig::quick(),
        }
    }
}

/// The NASFLAT configuration of Table 7: CAZ sampler + ZCP supplement for
/// NASBench-201, CATE sampler + Arch2Vec supplement for FBNet (appendix
/// A.2), OPHW + HWInit on.
pub fn nasflat_config(budget: &Budget, space: Space) -> FewShotConfig {
    let mut cfg = budget.fewshot(space);
    match space {
        Space::Nb201 => {
            cfg.sampler = Sampler::Encoding {
                kind: EncodingKind::Caz,
                method: SelectionMethod::Cosine,
            };
            cfg.predictor.supplement = Some(EncodingKind::Zcp);
        }
        Space::Fbnet => {
            cfg.sampler = Sampler::Encoding {
                kind: EncodingKind::Cate,
                method: SelectionMethod::Cosine,
            };
            cfg.predictor.supplement = Some(EncodingKind::Arch2Vec);
        }
    }
    cfg
}

/// Pool, latency table, and encodings for one task.
pub struct Workbench {
    /// The task.
    pub task: Task,
    /// Architecture pool.
    pub pool: Vec<Arch>,
    /// device × pool latency table (full roster).
    pub table: LatencyTable,
    /// Encoding suite over the pool (present unless disabled).
    pub suite: Option<EncodingSuite>,
}

impl Workbench {
    /// Builds the workbench for a paper task.
    ///
    /// # Panics
    /// Panics on an unknown task name.
    pub fn new(task_name: &str, budget: &Budget, with_suite: bool) -> Self {
        let task =
            paper_task(task_name).unwrap_or_else(|| panic!("unknown paper task '{task_name}'"));
        let pool = probe_pool(task.space, budget.pool_size(task.space), 0);
        let registry = DeviceRegistry::for_space(task.space);
        let table = LatencyTable::build(registry.devices(), &pool);
        let suite = with_suite.then(|| EncodingSuite::build(&pool, &budget.suite().with_seed(17)));
        Workbench {
            task,
            pool,
            table,
            suite,
        }
    }

    /// One `mean ± std` cell: `trials` independent pretrain+transfer runs.
    ///
    /// # Errors
    /// Propagates sampler failures (rendered as NaN by the tables).
    pub fn cell(&self, cfg: &FewShotConfig, trials: usize) -> Result<MeanStd, SelectError> {
        nasflat_core::run_trials(
            &self.task,
            &self.pool,
            &self.table,
            self.suite.as_ref(),
            cfg,
            trials,
        )
    }

    /// Rows that share pre-training: pre-trains once per trial, then runs
    /// every `(label, sampler)` variant against the same weights — the
    /// protocol for sampler comparisons (Tables 3 & 9, Figure 4).
    ///
    /// Returns, per variant, the per-trial task-mean Spearman values
    /// (`Err` marks the paper's NaN cells).
    pub fn sampler_rows(
        &self,
        cfg: &FewShotConfig,
        samplers: &[(String, Sampler)],
        trials: usize,
    ) -> Vec<(String, Result<Vec<f32>, SelectError>)> {
        let mut results: Vec<(String, Result<Vec<f32>, SelectError>)> = samplers
            .iter()
            .map(|(l, _)| (l.clone(), Ok(Vec::new())))
            .collect();
        for t in 0..trials {
            let mut trial_cfg = cfg.clone();
            trial_cfg.predictor.seed = cfg.predictor.seed.wrapping_add(t as u64 * 7919);
            let mut pre = PretrainedTask::build(
                &self.task,
                &self.pool,
                &self.table,
                self.suite.as_ref(),
                trial_cfg,
            );
            for ((_, sampler), slot) in samplers.iter().zip(results.iter_mut()) {
                if slot.1.is_err() {
                    continue;
                }
                let mut rhos = Vec::new();
                let mut failed: Option<SelectError> = None;
                for (d, target) in self.task.test.clone().iter().enumerate() {
                    match pre.transfer_to(target, sampler, 0xACE ^ (t as u64) ^ (d as u64) << 8) {
                        Ok(out) => rhos.push(out.spearman),
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                match failed {
                    Some(e) => slot.1 = Err(e),
                    None => {
                        if let Ok(v) = slot.1.as_mut() {
                            v.push(nasflat_metrics::mean(&rhos));
                        }
                    }
                }
            }
        }
        results
    }
}

/// Formats a `mean ± std` cell like the paper (`0.806±0.038`), or `NaN` for
/// sampler failures.
pub fn fmt_cell(cell: &Result<MeanStd, SelectError>) -> String {
    match cell {
        Ok(ms) => format!("{:.3}±{:.3}", ms.mean, ms.std),
        Err(_) => "NaN".to_string(),
    }
}

/// Prints a markdown-ish table: header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The paper's task rosters per table.
pub mod rosters {
    /// The 12 Table 2/3/4 tasks in paper column order.
    pub const ALL: [&str; 12] = [
        "ND", "N1", "N2", "N3", "N4", "NA", "FD", "F1", "F2", "F3", "F4", "FA",
    ];
    /// Table 5's eight tasks.
    pub const GNN: [&str; 8] = ["ND", "N1", "N2", "N3", "FD", "F1", "F2", "F3"];
    /// Table 6's eight tasks.
    pub const CUMULATIVE: [&str; 8] = ["F1", "F2", "F3", "F4", "N1", "N2", "N3", "N4"];
    /// Table 7 order.
    pub const END_TO_END_NB: [&str; 6] = ["ND", "NA", "N1", "N2", "N3", "N4"];
    /// Table 7 order (FBNet half).
    pub const END_TO_END_FB: [&str; 6] = ["FD", "FA", "F1", "F2", "F3", "F4"];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_defaults_without_env() {
        // Note: assumes the test environment doesn't set the bench vars.
        let b = Budget::from_env();
        assert!(b.trials >= 2);
        assert!(b.pool_size(Space::Nb201) >= 300);
    }

    #[test]
    fn nasflat_config_differs_per_space() {
        let b = Budget::from_env();
        let nb = nasflat_config(&b, Space::Nb201);
        let fb = nasflat_config(&b, Space::Fbnet);
        assert_eq!(nb.predictor.supplement, Some(EncodingKind::Zcp));
        assert_eq!(fb.predictor.supplement, Some(EncodingKind::Arch2Vec));
        assert_ne!(nb.sampler, fb.sampler);
    }

    #[test]
    fn fmt_cell_renders_nan_for_errors() {
        let ok: Result<MeanStd, SelectError> = Ok(MeanStd {
            mean: 0.5,
            std: 0.1,
        });
        assert_eq!(fmt_cell(&ok), "0.500±0.100");
        let err: Result<MeanStd, SelectError> = Err(SelectError::DegenerateClusters {
            nonempty: 1,
            requested: 3,
        });
        assert_eq!(fmt_cell(&err), "NaN");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "smoke",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
