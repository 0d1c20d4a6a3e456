//! Quick-mode harness behind the `parallel` bench: the two performance
//! checks that no other suite provides.
//!
//! - **Thread scaling.** `ensemble_train_transfer` and `batch_predict` run
//!   the same workload pinned to 1 thread and to N threads via
//!   [`nasflat_parallel::with_threads`]. The two outputs are compared
//!   **bitwise** (every `f32` via `to_bits`), and the wall-clock ratio is
//!   the scaling the CI `bench-quick` job holds at ≥ 2× on runners with
//!   ≥ 4 cores.
//! - **Kernel micro-bench.** The scalar triple loop against the
//!   register-tiled kernels (`A·B`, `A·Bᵀ`, `Aᵀ·B`) over four
//!   predictor-shaped products, compared bitwise. The `A·B` rows give the
//!   `kernel_matmul` ratio CI holds at ≥ 2.0×; all rows render as
//!   `BENCH_kernels.md` ([`kernel_table_markdown`]).
//!
//! End-to-end performance (serving throughput, per-query pass cost,
//! telemetry overhead, store fetch) is measured by the benchmark in
//! `perfbench/`, in absolute units. The bitwise contracts are pinned by the
//! tier-1 suites and the workspace fingerprint (`tests/fingerprint.rs`).
//!
//! The report serializes to `BENCH_parallel.json` with schema
//! [`PARALLEL_SCHEMA`]:
//!
//! ```json
//! {
//!   "schema": "nasflat-bench-parallel/v3",
//!   "threads_parallel": 4,
//!   "host_parallelism": 4,
//!   "profile": "fast",
//!   "targets": [
//!     { "name": "ensemble_train_transfer",
//!       "wall_ms_single": 4821.3, "wall_ms_parallel": 1310.9,
//!       "speedup": 3.68, "outputs_match": true }
//!   ],
//!   "kernel_matmul": { "scalar_ms": 61.2, "kernel_ms": 13.9,
//!                      "speedup": 4.40, "outputs_match": true }
//! }
//! ```

use std::num::NonZeroUsize;
use std::time::Instant;

use nasflat_core::{build_ensemble, ensemble_transfer_scores, FewShotConfig, PretrainedTask};
use nasflat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Budget, Profile, Workbench};

/// Schema identifier embedded in `BENCH_parallel.json`.
pub const PARALLEL_SCHEMA: &str = "nasflat-bench-parallel/v3";

/// One workload timed at 1 thread and at N threads.
#[derive(Debug, Clone)]
pub struct ParallelTarget {
    /// Workload name.
    pub name: String,
    /// Wall-clock at 1 thread, milliseconds.
    pub wall_ms_single: f64,
    /// Wall-clock at N threads, milliseconds.
    pub wall_ms_parallel: f64,
    /// Whether the two runs produced bit-identical outputs.
    pub outputs_match: bool,
}

impl ParallelTarget {
    /// 1-thread time over N-thread time (> 1 means the parallel run was
    /// faster).
    pub fn speedup(&self) -> f64 {
        self.wall_ms_single / self.wall_ms_parallel.max(1e-9)
    }
}

/// The full quick-mode parallel bench report.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Thread count of the parallel runs.
    pub threads: usize,
    /// What the host reports as available parallelism.
    pub host_parallelism: usize,
    /// Budget profile the workloads were sized by.
    pub profile: Profile,
    /// Thread-scaling comparisons.
    pub targets: Vec<ParallelTarget>,
    /// Kernel micro-bench rows.
    pub kernels: Vec<KernelBenchRow>,
}

impl ParallelReport {
    /// True iff every thread-scaling target and every kernel row produced
    /// bit-identical outputs — the bench's exit gate.
    pub fn all_match(&self) -> bool {
        self.targets.iter().all(|t| t.outputs_match) && self.kernels.iter().all(|r| r.outputs_match)
    }

    /// The `A·B` rows of the kernel micro-bench summed into one comparison:
    /// `(scalar ms, kernel ms, every row bit-identical)`.
    fn kernel_matmul(&self) -> (f64, f64, bool) {
        self.kernels
            .iter()
            .filter(|r| r.op == "matmul")
            .fold((0.0, 0.0, true), |(s, k, m), r| {
                (s + r.scalar_ms, k + r.kernel_ms, m && r.outputs_match)
            })
    }

    /// Serializes the report as `BENCH_parallel.json` content.
    pub fn to_json(&self) -> String {
        let profile = match self.profile {
            Profile::Fast => "fast",
            Profile::Quick => "quick",
            Profile::Paper => "paper",
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{PARALLEL_SCHEMA}\",\n"));
        out.push_str(&format!("  \"threads_parallel\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
        out.push_str("  \"targets\": [\n");
        for (i, t) in self.targets.iter().enumerate() {
            let comma = if i + 1 < self.targets.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"wall_ms_single\": {:.1}, \
                 \"wall_ms_parallel\": {:.1}, \"speedup\": {:.2}, \"outputs_match\": {} }}{comma}\n",
                t.name,
                t.wall_ms_single,
                t.wall_ms_parallel,
                t.speedup(),
                t.outputs_match
            ));
        }
        out.push_str("  ],\n");
        let (scalar_ms, kernel_ms, matmul_match) = self.kernel_matmul();
        out.push_str(&format!(
            "  \"kernel_matmul\": {{ \"scalar_ms\": {scalar_ms:.2}, \"kernel_ms\": {kernel_ms:.2}, \
             \"speedup\": {:.2}, \"outputs_match\": {matmul_match} }}\n}}\n",
            scalar_ms / kernel_ms.max(1e-9)
        ));
        out
    }
}

/// Bit-stable digest of an `f32` sequence.
fn digest_f32(acc: &mut Vec<u64>, values: &[f32]) {
    acc.extend(values.iter().map(|v| v.to_bits() as u64));
}

/// Sweeps over the pool per timed `batch_predict` run. One sweep of the
/// quick-mode pool takes ~1.3–2 ms at 1 thread on a 2-vCPU host, short
/// enough that worker spawns and scheduler noise decide the ratio (one
/// sweep read 0.90–1.51× at 4 threads over six runs); sixteen make each
/// timed run 20–35 ms of forward passes, still under
/// [`THREADS_REP_CUTOFF_MS`], so it is timed best-of-[`THREADS_REPS`].
const BATCH_PASSES: usize = 16;

/// How many alternating 1-thread/N-thread repetitions [`measure`] times for
/// the *short* workloads the CI scaling gate hard-fails on. Long workloads
/// (above [`THREADS_REP_CUTOFF_MS`]) run once per side — their duration
/// already averages over scheduler noise, and repeating them would dominate
/// the bench wall-clock.
const THREADS_REPS: usize = 3;

/// First-repetition duration above which [`measure`] skips further
/// repetitions.
const THREADS_REP_CUTOFF_MS: f64 = 50.0;

/// Times `workload` at 1 thread and at `threads` threads (alternating,
/// best-of-[`THREADS_REPS`] while the workload stays under
/// [`THREADS_REP_CUTOFF_MS`]) and compares the output digests bitwise. The
/// workload must be pure given the pinned thread count (all NASFLAT
/// parallel paths are).
///
/// One untimed run at `threads` threads comes first, so both timed sides
/// run warm: the first runs in a process pay one-off costs (most likely
/// fresh allocator arenas for new threads and first-touch page faults).
/// Cold, a 4-thread `ensemble_train_transfer` on a 2-vCPU host read 0.9×;
/// warm, 1.5–1.7× in most runs.
fn measure(name: &str, threads: usize, mut workload: impl FnMut() -> Vec<u64>) -> ParallelTarget {
    nasflat_parallel::with_threads(threads, &mut workload);
    let mut wall_single = f64::MAX;
    let mut wall_parallel = f64::MAX;
    let mut single = Vec::new();
    let mut parallel = Vec::new();
    for rep in 0..THREADS_REPS {
        let t0 = Instant::now();
        single = nasflat_parallel::with_threads(1, &mut workload);
        wall_single = wall_single.min(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        parallel = nasflat_parallel::with_threads(threads, &mut workload);
        wall_parallel = wall_parallel.min(t1.elapsed().as_secs_f64() * 1e3);
        if rep == 0 && wall_single.max(wall_parallel) > THREADS_REP_CUTOFF_MS {
            break;
        }
    }
    ParallelTarget {
        name: name.to_string(),
        wall_ms_single: wall_single,
        wall_ms_parallel: wall_parallel,
        outputs_match: single == parallel,
    }
}

// ---- kernel micro-bench ---------------------------------------------------

/// The pre-kernel scalar triple loop (sparse skip included): the baseline
/// the kernel layer is gated against.
fn matmul_scalar_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

/// Deterministic operand with a sprinkling of exact zeros (exercises the
/// sparse skip the way GNN propagation matrices do).
fn bench_operand(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tensor::uniform(rows, cols, -1.5, 1.5, &mut rng);
    for i in (0..t.len()).step_by(7) {
        let (r, c) = (i / cols, i % cols);
        t.set(r, c, 0.0);
    }
    t
}

/// `(m, k, n)` shapes spanning the predictor's working set: tiny GNN-layer
/// products up to head-sized blocks.
const KERNEL_SHAPES: [(usize, usize, usize); 4] =
    [(8, 8, 12), (24, 64, 64), (64, 64, 64), (96, 128, 64)];

/// Alternating scalar/kernel rounds per row; each side reports its fastest
/// round, since interference on a shared runner only ever adds time.
const KERNEL_ROUNDS: usize = 3;

/// One row of the kernel micro-bench table (scalar reference vs kernel
/// layer, same operands, bitwise-compared outputs).
#[derive(Debug, Clone)]
pub struct KernelBenchRow {
    /// Which product variant ("matmul", "matmul_nt", "matmul_tn").
    pub op: &'static str,
    /// The product's `(m, k, n)`: `m×k · k×n`.
    pub shape: (usize, usize, usize),
    /// Scalar reference wall-clock, milliseconds.
    pub scalar_ms: f64,
    /// Kernel-layer wall-clock, milliseconds.
    pub kernel_ms: f64,
    /// Whether both paths produced bit-identical outputs.
    pub outputs_match: bool,
}

impl KernelBenchRow {
    /// Scalar time over kernel time.
    pub fn speedup(&self) -> f64 {
        self.scalar_ms / self.kernel_ms.max(1e-9)
    }

    /// `m×k·k×n` shape label.
    pub fn shape_label(&self) -> String {
        let (m, k, n) = self.shape;
        format!("{m}x{k}·{k}x{n}")
    }
}

/// Runs `f` `reps` times, returning wall-clock ms and the last output's
/// bits.
fn timed_product(reps: usize, f: &dyn Fn() -> Tensor) -> (f64, Vec<u32>) {
    let t0 = Instant::now();
    let mut last = Tensor::zeros(0, 0);
    for _ in 0..reps {
        last = f();
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, last.data().iter().map(|v| v.to_bits()).collect())
}

/// Times the scalar reference against the kernel layer per shape and product
/// variant (`A·B`, `A·Bᵀ`, `Aᵀ·B` — the transposed variants' baselines
/// materialize the transpose first, exactly like the pre-kernel backward
/// pass), `reps` products per round.
fn kernel_microbench(reps: usize) -> Vec<KernelBenchRow> {
    let mut rows = Vec::new();
    for &(m, k, n) in &KERNEL_SHAPES {
        let a = bench_operand(m, k, 11 + m as u64);
        let b = bench_operand(k, n, 23 + n as u64);
        let bt = bench_operand(n, k, 23 + n as u64); // B stored transposed
        let at = bench_operand(k, m, 11 + m as u64); // A stored transposed

        type ProductFn<'a> = &'a dyn Fn() -> Tensor;
        let variants: [(&'static str, ProductFn<'_>, ProductFn<'_>); 3] = [
            ("matmul", &|| matmul_scalar_reference(&a, &b), &|| {
                a.matmul(&b)
            }),
            (
                "matmul_nt",
                &|| matmul_scalar_reference(&a, &bt.transpose()),
                &|| a.matmul_nt(&bt),
            ),
            (
                "matmul_tn",
                &|| matmul_scalar_reference(&at.transpose(), &b),
                &|| at.matmul_tn(&b),
            ),
        ];
        for (op, slow, fast) in variants {
            let (mut scalar_ms, mut kernel_ms) = (f64::MAX, f64::MAX);
            let mut outputs_match = true;
            for _ in 0..KERNEL_ROUNDS {
                let (ms, slow_bits) = timed_product(reps, slow);
                scalar_ms = scalar_ms.min(ms);
                let (ms, fast_bits) = timed_product(reps, fast);
                kernel_ms = kernel_ms.min(ms);
                outputs_match &= slow_bits == fast_bits;
            }
            rows.push(KernelBenchRow {
                op,
                shape: (m, k, n),
                scalar_ms,
                kernel_ms,
                outputs_match,
            });
        }
    }
    rows
}

/// Renders the micro-bench rows as the markdown table uploaded by the CI
/// `bench-quick` job (`BENCH_kernels.md`).
pub fn kernel_table_markdown(rows: &[KernelBenchRow]) -> String {
    let mut out = String::from(
        "# Kernel micro-bench (scalar reference vs vectorized kernels)\n\n\
         | op | shape | scalar ms | kernel ms | speedup | bit-identical |\n\
         |---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.2} | {:.2}x | {} |\n",
            r.op,
            r.shape_label(),
            r.scalar_ms,
            r.kernel_ms,
            r.speedup(),
            if r.outputs_match { "yes" } else { "NO" }
        ));
    }
    out
}

/// The reduced predictor the parallel workloads share: real architecture,
/// small widths — sized so quick mode finishes in seconds while leaving
/// enough per-item work for parallelism to show.
fn harness_config(budget: &Budget) -> FewShotConfig {
    let mut cfg = FewShotConfig::quick();
    cfg.predictor.op_dim = 8;
    cfg.predictor.hw_dim = 8;
    cfg.predictor.node_dim = 8;
    cfg.predictor.ophw_gnn_dims = vec![12];
    cfg.predictor.ophw_mlp_dims = vec![12];
    cfg.predictor.gnn_dims = vec![12];
    cfg.predictor.head_dims = vec![16];
    let (epochs, pretrain) = match budget.profile {
        Profile::Fast => (5, 16),
        _ => (8, 24),
    };
    cfg.predictor.epochs = epochs;
    cfg.predictor.transfer_epochs = epochs;
    cfg.pretrain_per_device = pretrain;
    cfg.transfer_samples = 10;
    cfg.eval_samples = 40;
    cfg
}

/// Runs both thread-scaling workloads at 1 and `threads` threads and the
/// kernel micro-bench, and collects the report. Workload sizes follow the
/// `NASFLAT_BENCH_*` budget (pass `NASFLAT_BENCH_FAST=1` for the CI quick
/// mode).
pub fn run_parallel_bench(threads: usize) -> ParallelReport {
    let budget = Budget::from_env();
    let pool_n = match budget.profile {
        Profile::Fast => 100,
        _ => 200,
    };
    let cfg = harness_config(&budget);
    let wb = Workbench::new("ND", &budget, false);
    let task = &wb.task;
    let pool = &wb.pool[..pool_n.min(wb.pool.len())];
    let table = nasflat_hw::LatencyTable::build(
        nasflat_hw::DeviceRegistry::for_space(task.space).devices(),
        pool,
    );
    let eval_indices: Vec<usize> = (0..60.min(pool_n)).collect();

    // Ensemble training + transfer: K members pre-trained and adapted
    // concurrently — the paper's variability remedy made multi-core.
    let ensemble = measure("ensemble_train_transfer", threads, || {
        let mut ens = build_ensemble(task, pool, &table, None, &cfg, 4);
        let out = ensemble_transfer_scores(&mut ens, &task.test[0], 7, &eval_indices)
            .expect("random-free transfer cannot fail on this pool");
        let mut digest = Vec::new();
        digest_f32(&mut digest, &out.scores);
        for m in &out.member_scores {
            digest_f32(&mut digest, m);
        }
        digest
    });

    // Batch prediction: a transferred predictor scoring the full pool,
    // `BATCH_PASSES` times per timed run. Transfer happens outside the
    // timed region, which isolates the forward passes.
    let mut pre = PretrainedTask::build(task, pool, &table, None, cfg.clone());
    let scorer = pre
        .transfer_scorer(&task.test[0], &cfg.sampler, 3, cfg.transfer_samples)
        .expect("random sampler cannot fail");
    let all: Vec<usize> = (0..wb.pool.len()).collect();
    let batch = measure("batch_predict", threads, || {
        let mut digest = Vec::new();
        for _ in 0..BATCH_PASSES {
            digest_f32(&mut digest, &scorer.score_indices(&wb.pool, &all));
        }
        digest
    });

    let reps = match budget.profile {
        Profile::Fast => 20,
        _ => 40,
    };
    ParallelReport {
        threads,
        host_parallelism: std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        profile: budget.profile,
        targets: vec![ensemble, batch],
        kernels: kernel_microbench(reps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(
        op: &'static str,
        scalar_ms: f64,
        kernel_ms: f64,
        outputs_match: bool,
    ) -> KernelBenchRow {
        KernelBenchRow {
            op,
            shape: (8, 8, 12),
            scalar_ms,
            kernel_ms,
            outputs_match,
        }
    }

    #[test]
    fn report_json_is_well_formed_and_gates_on_divergence() {
        let mut report = ParallelReport {
            threads: 4,
            host_parallelism: 8,
            profile: Profile::Fast,
            targets: vec![ParallelTarget {
                name: "demo".into(),
                wall_ms_single: 100.0,
                wall_ms_parallel: 25.0,
                outputs_match: true,
            }],
            kernels: vec![
                row("matmul", 30.0, 10.0, true),
                row("matmul_nt", 50.0, 1.0, true),
                row("matmul", 10.0, 10.0, true),
            ],
        };
        assert!(report.all_match());
        assert!((report.targets[0].speedup() - 4.0).abs() < 1e-9);
        assert_eq!(report.kernel_matmul(), (40.0, 20.0, true));
        let json = report.to_json();
        assert!(json.contains(PARALLEL_SCHEMA));
        assert!(json.contains("\"threads_parallel\": 4"));
        assert!(json.contains("\"speedup\": 4.00"));
        assert!(json.contains(
            "\"kernel_matmul\": { \"scalar_ms\": 40.00, \"kernel_ms\": 20.00, \
             \"speedup\": 2.00, \"outputs_match\": true }"
        ));
        report.kernels[1].outputs_match = false;
        assert!(!report.all_match());
        report.kernels[1].outputs_match = true;
        report.targets[0].outputs_match = false;
        assert!(!report.all_match());
    }

    #[test]
    fn kernel_table_renders_every_row_and_flags_divergence() {
        let rows = [
            row("matmul", 4.0, 1.0, true),
            row("matmul_nt", 4.0, 1.0, true),
            row("matmul_tn", 4.0, 2.0, false),
        ];
        let md = kernel_table_markdown(&rows);
        assert_eq!(md.lines().filter(|l| l.starts_with("| matmul")).count(), 3);
        assert!(md.contains("| matmul | 8x8·8x12 | 4.00 | 1.00 | 4.00x | yes |"));
        assert!(md.contains("| matmul_tn | 8x8·8x12 | 4.00 | 2.00 | 2.00x | NO |"));
    }
}
