//! Quick-mode wall-clock harness for the parallel execution layer and the
//! vectorized kernel / batched-forward paths.
//!
//! Two comparison kinds share the report:
//!
//! - [`ComparisonKind::Threads`]: the same workload pinned to 1 thread and
//!   to N threads via [`nasflat_parallel::with_threads`] — the PR-2 scaling
//!   gate;
//! - [`ComparisonKind::Baseline`]: a *baseline* implementation vs the
//!   *optimized* one at the **same** thread count — `kernel_matmul` (scalar
//!   reference matmul vs the kernel layer), `batch_forward`
//!   (per-architecture one-block passes on fresh tapes vs chunked
//!   `BatchSession` multi-query passes), `mixed_device_tape`
//!   (a per-(arch, device) query loop vs mixed-device stacking via the
//!   per-row hardware-embedding gather), `serve_throughput` (the serving
//!   layer's `DynamicBatcher` at batch 1 vs dynamic micro-batching over a
//!   256-query mixed-device stream), `serve_ingress` (the TCP front
//!   door: one strict request/response connection vs 4 pipelined
//!   connections coalesced by the scheduler), `serve_deadline` (the
//!   deadline-aware ingress scheduler: the FIFO drain vs EDF + aging over
//!   an adversarial tight-budget/best-effort mix, `outputs_match` also
//!   requiring zero missed or expired deadlines), and `telemetry_overhead`
//!   (the same pipelined ingress stream with telemetry off vs on — the
//!   observability layer must stay within ~5% and bit-invisible, with the
//!   `METRICS` scrape carrying every per-stage histogram). Baseline entries
//!   are timed best-of-3 alternating repetitions.
//!
//! Either way the two runs' outputs are compared **bitwise** (every `f32`
//! via `to_bits`). A divergence is reported as a failure, and the
//! wall-clock ratio is the speedup the CI `bench-quick` job tracks over
//! time (it fails the build when `batch_forward` regresses below 1.3×,
//! `mixed_device_tape`, `serve_throughput`, or `serve_ingress` below their
//! 1.2× targets, `telemetry_overhead` below 0.95×, or — on ≥4-core
//! runners — the `ensemble_train_transfer` / `batch_predict` thread
//! scaling below 2×).
//!
//! The report serializes to `BENCH_parallel.json` with schema
//! [`PARALLEL_SCHEMA`]:
//!
//! ```json
//! {
//!   "schema": "nasflat-bench-parallel/v2",
//!   "threads_single": 1,
//!   "threads_parallel": 4,
//!   "host_parallelism": 4,
//!   "profile": "fast",
//!   "targets": [
//!     { "name": "ensemble_train_transfer", "kind": "threads",
//!       "wall_ms_single": 4821.3, "wall_ms_parallel": 1310.9,
//!       "speedup": 3.68, "outputs_match": true },
//!     { "name": "batch_forward", "kind": "baseline",
//!       "wall_ms_single": 310.2, "wall_ms_parallel": 141.0,
//!       "speedup": 2.20, "outputs_match": true }
//!   ]
//! }
//! ```
//!
//! For `"kind": "baseline"` entries, `wall_ms_single` is the **baseline**
//! implementation and `wall_ms_parallel` the **optimized** one (both at the
//! parallel thread count); the field names are kept stable for the trend
//! tooling.

use std::num::NonZeroUsize;
use std::time::Instant;

use nasflat_core::{build_ensemble, ensemble_transfer_scores, FewShotConfig, PretrainedTask};
use nasflat_nas::{constrained_search, AccuracyOracle, SearchConfig};
use nasflat_sample::{cosine_select, kmeans_select};
use nasflat_space::{Arch, Space};
use nasflat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Budget, Profile, Workbench};

/// Schema identifier embedded in `BENCH_parallel.json`.
pub const PARALLEL_SCHEMA: &str = "nasflat-bench-parallel/v2";

/// What a [`ParallelTarget`]'s two timed runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComparisonKind {
    /// 1 thread vs N threads, same implementation.
    Threads,
    /// Baseline implementation vs optimized implementation, same thread
    /// count.
    Baseline,
}

impl ComparisonKind {
    /// JSON/table label.
    pub fn label(self) -> &'static str {
        match self {
            ComparisonKind::Threads => "threads",
            ComparisonKind::Baseline => "baseline",
        }
    }
}

/// One workload's two-run comparison (see [`ComparisonKind`]).
#[derive(Debug, Clone)]
pub struct ParallelTarget {
    /// Workload name.
    pub name: String,
    /// What the two runs compare.
    pub kind: ComparisonKind,
    /// Wall-clock of the first run (1 thread, or the baseline
    /// implementation), milliseconds.
    pub wall_ms_single: f64,
    /// Wall-clock of the second run (N threads, or the optimized
    /// implementation), milliseconds.
    pub wall_ms_parallel: f64,
    /// Whether the two runs produced bit-identical outputs.
    pub outputs_match: bool,
}

impl ParallelTarget {
    /// First-run time over second-run time (> 1 means the parallel /
    /// optimized run was faster).
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
    /// Per-workload comparisons.
    pub targets: Vec<ParallelTarget>,
}

impl ParallelReport {
    /// True iff every target produced bit-identical outputs at both thread
    /// counts — the correctness gate for the CI `bench-quick` job.
    pub fn all_match(&self) -> bool {
        self.targets.iter().all(|t| t.outputs_match)
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
        out.push_str("  \"threads_single\": 1,\n");
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
                "    {{ \"name\": \"{}\", \"kind\": \"{}\", \"wall_ms_single\": {:.1}, \
                 \"wall_ms_parallel\": {:.1}, \"speedup\": {:.2}, \"outputs_match\": {} }}{comma}\n",
                t.name,
                t.kind.label(),
                t.wall_ms_single,
                t.wall_ms_parallel,
                t.speedup(),
                t.outputs_match
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Bit-stable digest of an `f32` sequence.
fn digest_f32(acc: &mut Vec<u64>, values: &[f32]) {
    acc.extend(values.iter().map(|v| v.to_bits() as u64));
}

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
fn measure(name: &str, threads: usize, mut workload: impl FnMut() -> Vec<u64>) -> ParallelTarget {
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
        kind: ComparisonKind::Threads,
        wall_ms_single: wall_single,
        wall_ms_parallel: wall_parallel,
        outputs_match: single == parallel,
    }
}

/// How many alternating baseline/optimized repetitions [`measure_pair`]
/// times. Reported wall-clocks are the **minimum** over the repetitions —
/// the standard noise-robust estimator for millisecond-scale comparisons on
/// shared runners (transient scheduler/allocator interference only ever
/// *adds* time, so the minimum is the cleanest observation of each side).
const PAIR_REPS: usize = 3;

/// Times `baseline` and `optimized` at the **same** thread count
/// (alternating, best-of-[`PAIR_REPS`] each) and compares their digests
/// bitwise — the gate for same-semantics optimizations (kernels, batched
/// tapes).
fn measure_pair(
    name: &str,
    threads: usize,
    mut baseline: impl FnMut() -> Vec<u64>,
    mut optimized: impl FnMut() -> Vec<u64>,
) -> ParallelTarget {
    let mut wall_base = f64::MAX;
    let mut wall_opt = f64::MAX;
    let mut base = Vec::new();
    let mut opt = Vec::new();
    for _ in 0..PAIR_REPS {
        let t0 = Instant::now();
        base = nasflat_parallel::with_threads(threads, &mut baseline);
        wall_base = wall_base.min(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        opt = nasflat_parallel::with_threads(threads, &mut optimized);
        wall_opt = wall_opt.min(t1.elapsed().as_secs_f64() * 1e3);
    }
    ParallelTarget {
        name: name.to_string(),
        kind: ComparisonKind::Baseline,
        wall_ms_single: wall_base,
        wall_ms_parallel: wall_opt,
        outputs_match: base == opt,
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

/// One row of the kernel micro-bench table (scalar reference vs kernel
/// layer, same operands, bitwise-compared outputs).
#[derive(Debug, Clone)]
pub struct KernelBenchRow {
    /// Which product variant ("matmul", "matmul_nt", "matmul_tn").
    pub op: &'static str,
    /// `m×k·k×n` shape label.
    pub shape: String,
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
/// pass). Repetitions follow the `NASFLAT_BENCH_*` budget.
pub fn kernel_microbench() -> Vec<KernelBenchRow> {
    let reps = match Budget::from_env().profile {
        Profile::Fast => 40,
        _ => 80,
    };
    let mut rows = Vec::new();
    for &(m, k, n) in &KERNEL_SHAPES {
        let shape = format!("{m}x{k}·{k}x{n}");
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
            let (scalar_ms, slow_bits) = timed_product(reps, slow);
            let (kernel_ms, fast_bits) = timed_product(reps, fast);
            rows.push(KernelBenchRow {
                op,
                shape: shape.clone(),
                scalar_ms,
                kernel_ms,
                outputs_match: slow_bits == fast_bits,
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
            r.shape,
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

/// Runs every parallel-layer workload at 1 and `threads` threads and
/// collects the report. Workload sizes follow the `NASFLAT_BENCH_*` budget
/// (pass `NASFLAT_BENCH_FAST=1` for the CI quick mode).
pub fn run_parallel_bench(threads: usize) -> ParallelReport {
    let budget = Budget::from_env();
    let pool_n = match budget.profile {
        Profile::Fast => 100,
        _ => 200,
    };
    let cfg = harness_config(&budget);
    let wb = Workbench::new("ND", &budget, true);
    let task = &wb.task;
    let eval_indices: Vec<usize> = (0..60.min(pool_n)).collect();

    let mut targets = Vec::new();

    // 1. Ensemble training + transfer: K members pre-trained and adapted
    //    concurrently — the paper's variability remedy made multi-core.
    {
        let members = 4;
        let pool = &wb.pool[..pool_n.min(wb.pool.len())];
        let table = nasflat_hw::LatencyTable::build(
            nasflat_hw::DeviceRegistry::for_space(task.space).devices(),
            pool,
        );
        targets.push(measure("ensemble_train_transfer", threads, || {
            let mut ens = build_ensemble(task, pool, &table, None, &cfg, members);
            let out = ensemble_transfer_scores(&mut ens, &task.test[0], 7, &eval_indices)
                .expect("random-free transfer cannot fail on this pool");
            let mut digest = Vec::new();
            digest_f32(&mut digest, &out.scores);
            for m in &out.member_scores {
                digest_f32(&mut digest, m);
            }
            digest
        }));
    }

    // 2. Batch prediction: a transferred predictor scoring the full pool.
    //    Transfer happens outside the timed region — this isolates the
    //    forward passes. Two gates share the scorer: `batch_predict` (1 vs N
    //    threads on the batched path) and `batch_forward` (per-arch fresh
    //    tapes vs `BatchSession` multi-query passes at the same N threads).
    {
        let pool = &wb.pool[..pool_n.min(wb.pool.len())];
        let table = nasflat_hw::LatencyTable::build(
            nasflat_hw::DeviceRegistry::for_space(task.space).devices(),
            pool,
        );
        let mut pre = PretrainedTask::build(task, pool, &table, None, cfg.clone());
        let scorer = pre
            .transfer_scorer(&task.test[0], &cfg.sampler, 3, cfg.transfer_samples)
            .expect("random sampler cannot fail");
        let all: Vec<usize> = (0..wb.pool.len()).collect();
        let full_pool = &wb.pool;
        targets.push(measure("batch_predict", threads, || {
            let mut digest = Vec::new();
            digest_f32(&mut digest, &scorer.score_indices(full_pool, &all));
            digest
        }));
        // `batch_forward` is the stacking gate: one-block passes on fresh
        // tapes vs passes of `TAPE_BLOCK` queries on reused session tapes,
        // same thread count, same scorer. Each side sweeps the pool several
        // times (on top of measure_pair's best-of-reps) so the
        // ~millisecond workload rises above scheduler noise on shared CI
        // runners.
        let sweeps = 4;
        targets.push(measure_pair(
            "batch_forward",
            threads,
            || {
                // Baseline: one fresh autograd tape (a one-block pass) per
                // architecture, parallel map over the pool.
                let mut digest = Vec::new();
                for _ in 0..sweeps {
                    digest.clear();
                    let scores = nasflat_parallel::par_map(&all, |&i| scorer.score(&full_pool[i]));
                    digest_f32(&mut digest, &scores);
                }
                digest
            },
            || {
                // Optimized: chunked BatchSession tapes (graph built once
                // per worker, buffers recycled per pass) evaluating
                // multi-query tape passes.
                let mut digest = Vec::new();
                for _ in 0..sweeps {
                    digest.clear();
                    digest_f32(&mut digest, &scorer.score_indices(full_pool, &all));
                }
                digest
            },
        ));
    }

    // 2b. Kernel layer: scalar reference matmul vs the cache-blocked
    //     unrolled kernels over predictor-shaped operands (single-threaded
    //     compute on both sides; the comparison is implementation, not
    //     scaling).
    {
        let reps = match budget.profile {
            Profile::Fast => 60,
            _ => 120,
        };
        let operands: Vec<(Tensor, Tensor)> = KERNEL_SHAPES
            .iter()
            .map(|&(m, k, n)| {
                (
                    bench_operand(m, k, 31 + m as u64),
                    bench_operand(k, n, 47 + n as u64),
                )
            })
            .collect();
        let digest_products = |f: &dyn Fn(&Tensor, &Tensor) -> Tensor| -> Vec<u64> {
            let mut digest = Vec::new();
            for (a, b) in &operands {
                let mut last = Tensor::zeros(0, 0);
                for _ in 0..reps {
                    last = f(a, b);
                }
                digest_f32(&mut digest, last.data());
            }
            digest
        };
        targets.push(measure_pair(
            "kernel_matmul",
            threads,
            || digest_products(&matmul_scalar_reference),
            || digest_products(&|a, b| a.matmul(b)),
        ));
    }

    // 2c. Serving layer. Three gates over the same untrained-but-real
    //     predictor (weights don't affect timing; the bitwise comparison is
    //     what matters):
    //
    //     - `mixed_device_tape`: a per-query session loop over 256
    //       (arch, device) pairs cycling every device vs the same pairs
    //       stacked into mixed-device multi-query passes — the pure win of
    //       the new per-row hardware-embedding gather, closing the ROADMAP
    //       "multi-device multi-query passes" item;
    //     - `serve_throughput`: the in-process DynamicBatcher at batch 1
    //       (per-query serving) vs the coalescing default — the acceptance
    //       gate that batched serving beats per-query serving with
    //       bit-identical drained results;
    //     - `serve_ingress`: the always-on TCP service end to end — one
    //       strict request/response connection vs 4 pipelined connections
    //       whose queries the scheduler coalesces into shared passes, both
    //       pinned bitwise to the sequential predict_one loop.
    {
        use nasflat_serve::{DynamicBatcher, ModelBundle, ServeConfig, ServeQuery};

        let device_names = nasflat_hw::DeviceRegistry::nb201().owned_names();
        let predictor = nasflat_core::LatencyPredictor::new(
            Space::Nb201,
            device_names.clone(),
            0,
            cfg.predictor.clone(),
        );
        let num_devices = device_names.len();
        let queries: Vec<ServeQuery> = (0..256)
            .map(|i| {
                ServeQuery::new(
                    Arch::nb201_from_index((i as u64 * 421 + 7) % 15_625),
                    i % num_devices,
                )
            })
            .collect();
        let pairs: Vec<(&Arch, usize)> = queries.iter().map(|q| (&q.arch, q.device)).collect();
        let archs: Vec<&Arch> = pairs.iter().map(|&(a, _)| a).collect();
        let devices: Vec<usize> = pairs.iter().map(|&(_, d)| d).collect();
        let serve_reps = 2;
        targets.push(measure_pair(
            "mixed_device_tape",
            threads,
            || {
                // Baseline: one session, every (arch, device) pair queried
                // alone (one-block passes — no cross-device stacking).
                let mut digest = Vec::new();
                for _ in 0..serve_reps {
                    digest.clear();
                    let mut session = predictor.session();
                    let scores: Vec<f32> = pairs
                        .iter()
                        .map(|&(a, d)| session.predict(a, d, None))
                        .collect();
                    digest_f32(&mut digest, &scores);
                }
                digest
            },
            || {
                // Optimized: the same pairs stacked into mixed-device
                // block-diagonal passes via the per-row hardware gather.
                let mut digest = Vec::new();
                for _ in 0..serve_reps {
                    digest.clear();
                    let mut session = predictor.session();
                    let scores = session.predict_many_devices(&archs, &devices, None);
                    digest_f32(&mut digest, &scores);
                }
                digest
            },
        ));

        let bundle = ModelBundle::single(predictor.clone()).expect("no supplement configured");
        let serve_cfg = ServeConfig::builder().workers(threads).build();
        targets.push(measure_pair(
            "serve_throughput",
            threads,
            || {
                // Baseline: per-query serving — same chunking, same workers,
                // coalescing disabled.
                let mut digest = Vec::new();
                let batcher = DynamicBatcher::new(&bundle, serve_cfg.clone().with_batch(1));
                for _ in 0..serve_reps {
                    digest.clear();
                    let scores = batcher.serve(&queries).expect("validated stream");
                    digest_f32(&mut digest, &scores);
                }
                digest
            },
            || {
                // Optimized: dynamic micro-batching at the serving default.
                let mut digest = Vec::new();
                let batcher = DynamicBatcher::new(
                    &bundle,
                    serve_cfg
                        .clone()
                        .with_batch(nasflat_serve::DEFAULT_SERVE_BATCH),
                );
                for _ in 0..serve_reps {
                    digest.clear();
                    let scores = batcher.serve(&queries).expect("validated stream");
                    digest_f32(&mut digest, &scores);
                }
                digest
            },
        ));

        // `serve_ingress`: the TCP front door end to end — accept loop, wire
        // protocol, admission, and the cross-connection coalescing scheduler.
        // Baseline: one strict request/response connection (window 1, so no
        // coalescing ever happens). Optimized: 4 pipelined connections whose
        // queries share the scheduler's mixed-device tape passes. The gate is
        // the ingress acceptance criterion: N connections >= 1.2x one
        // connection, both streams bitwise equal to the sequential
        // `predict_one` loop.
        use nasflat_serve::{IngressClient, IngressServer, PredictorRegistry, ServeRequest};

        let requests: Vec<ServeRequest> = queries
            .iter()
            .map(|q| ServeRequest::new("bench", q.arch.clone(), q.device))
            .collect();
        let reference: Vec<u32> = requests
            .iter()
            .map(|r| bundle.predict_one(&r.arch, r.device).to_bits())
            .collect();
        let mut registry = PredictorRegistry::new(0); // no result cache: real passes only
        registry
            .insert(
                "bench",
                ModelBundle::single(predictor).expect("no supplement configured"),
            )
            .expect("in-memory publish");
        let shared = registry.into_shared();
        // `outputs_match` compares baseline vs optimized; this cell pins both
        // to the sequential reference as well, so a shared serving bug cannot
        // cancel out.
        let ingress_matches = std::cell::Cell::new(true);
        let run_ingress = |conns: usize, window: usize| -> Vec<u64> {
            let cfg = ServeConfig::builder().workers(threads).build();
            let server = IngressServer::bind(shared.clone(), &cfg).expect("bind ingress");
            let addr = server.local_addr();
            let per_conn = requests.len() / conns;
            let scores: Vec<f32> = std::thread::scope(|scope| {
                let handles: Vec<_> = requests
                    .chunks(per_conn)
                    .map(|reqs| {
                        scope.spawn(move || {
                            let mut client = IngressClient::connect(addr).expect("connect ingress");
                            client
                                .predict_many(reqs, window)
                                .into_iter()
                                .map(|r| r.expect("valid query").score)
                                .collect::<Vec<f32>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            server.shutdown();
            if scores
                .iter()
                .zip(&reference)
                .any(|(s, &r)| s.to_bits() != r)
            {
                ingress_matches.set(false);
            }
            let mut digest = Vec::new();
            digest_f32(&mut digest, &scores);
            digest
        };
        let mut ingress = measure_pair(
            "serve_ingress",
            threads,
            || run_ingress(1, 1),
            || run_ingress(4, 8),
        );
        ingress.outputs_match &= ingress_matches.get();
        targets.push(ingress);

        // `serve_deadline`: the deadline-aware scheduler under the
        // adversarial mix (every 9th query carries a tight budget inside a
        // best-effort flood), FIFO drain vs EDF + aging. Budgets are
        // generous (10 s) so neither side expires anything — wall-clock
        // compares pure scheduling overhead, and the gate rides in
        // `outputs_match`: both policies bitwise the sequential reference,
        // AND the EDF side answers every tight query in budget
        // (deadline_missed == deadline_expired == 0).
        use nasflat_serve::SchedPolicy;

        let deadline_requests: Vec<ServeRequest> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if i % 9 == 0 {
                    r.clone().with_deadline_ms(10_000)
                } else {
                    r.clone()
                }
            })
            .collect();
        let deadline_matches = std::cell::Cell::new(true);
        let run_deadline = |policy: SchedPolicy| -> Vec<u64> {
            let cfg = ServeConfig::builder()
                .workers(threads)
                .queue_depth(1024)
                .max_inflight(1024)
                .sched_policy(policy)
                .deadline_default_ms(30_000)
                .build();
            let server = IngressServer::bind(shared.clone(), &cfg).expect("bind ingress");
            let addr = server.local_addr();
            let conns = 4;
            let per_conn = deadline_requests.len() / conns;
            let scores: Vec<f32> = std::thread::scope(|scope| {
                let handles: Vec<_> = deadline_requests
                    .chunks(per_conn)
                    .map(|reqs| {
                        scope.spawn(move || {
                            let mut client = IngressClient::connect(addr).expect("connect ingress");
                            client
                                .predict_many(reqs, 8)
                                .into_iter()
                                .map(|r| r.expect("10 s budgets never expire in-bench").score)
                                .collect::<Vec<f32>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            let metrics = server.shutdown();
            if scores
                .iter()
                .zip(&reference)
                .any(|(s, &r)| s.to_bits() != r)
            {
                deadline_matches.set(false);
            }
            // The tight-miss gate: every deadline query answered in budget.
            if metrics.deadline_missed != 0 || metrics.deadline_expired != 0 {
                deadline_matches.set(false);
            }
            let mut digest = Vec::new();
            digest_f32(&mut digest, &scores);
            digest
        };
        let mut deadline = measure_pair(
            "serve_deadline",
            threads,
            || run_deadline(SchedPolicy::Fifo),
            || run_deadline(SchedPolicy::Edf),
        );
        deadline.outputs_match &= deadline_matches.get();
        targets.push(deadline);

        // `telemetry_overhead`: the observability gate — the identical
        // 4-connection pipelined stream through the ingress with telemetry
        // off (baseline side) vs on (optimized side). Recording is relaxed
        // atomics with no floats, so CI gates the ratio at >= 0.95x (the
        // telemetered drain may cost at most ~5%) with bitwise-identical
        // drained scores. Both sides scrape the METRICS endpoint inside the
        // run (equal work, and it pins the endpoint staying up when
        // telemetry is off); `outputs_match` additionally requires the
        // telemetered scrape to carry the per-stage histogram families and
        // a serve total balancing the stream.
        let telemetry_matches = std::cell::Cell::new(true);
        // The per-stream wall-clock (~ms) sits inside shared-runner noise,
        // so each side boots one server and drives the stream several
        // times — the 5% gate needs the larger, steadier measured region.
        let telemetry_reps = 3;
        let run_telemetry = |on: bool| -> Vec<u64> {
            let cfg = ServeConfig::builder()
                .workers(threads)
                .telemetry(on)
                .build();
            let server = IngressServer::bind(shared.clone(), &cfg).expect("bind ingress");
            let addr = server.local_addr();
            let conns = 4;
            let per_conn = requests.len() / conns;
            let mut scores = Vec::new();
            for _ in 0..telemetry_reps {
                scores = std::thread::scope(|scope| {
                    let handles: Vec<_> = requests
                        .chunks(per_conn)
                        .map(|reqs| {
                            scope.spawn(move || {
                                let mut client =
                                    IngressClient::connect(addr).expect("connect ingress");
                                client
                                    .predict_many(reqs, 8)
                                    .into_iter()
                                    .map(|r| r.expect("valid query").score)
                                    .collect::<Vec<f32>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().unwrap())
                        .collect::<Vec<f32>>()
                });
                if scores
                    .iter()
                    .zip(&reference)
                    .any(|(s, &r)| s.to_bits() != r)
                {
                    telemetry_matches.set(false);
                }
            }
            let text = IngressClient::connect(addr)
                .and_then(|mut c| c.metrics())
                .unwrap_or_default();
            if on {
                let served = text.lines().find_map(|line| {
                    line.strip_prefix("nasflat_queries_served_total ")
                        .and_then(|v| v.parse::<u64>().ok())
                });
                if served != Some((telemetry_reps * requests.len()) as u64)
                    || !text.contains("nasflat_queue_wait_us_bucket")
                    || !text.contains("nasflat_tape_eval_us_bucket")
                    || !text.contains("nasflat_response_write_us_bucket")
                {
                    telemetry_matches.set(false);
                }
            } else if text.is_empty() {
                telemetry_matches.set(false); // endpoint must stay up when off
            }
            server.shutdown();
            let mut digest = Vec::new();
            digest_f32(&mut digest, &scores);
            digest
        };
        let mut telemetry = measure_pair(
            "telemetry_overhead",
            threads,
            || run_telemetry(false),
            || run_telemetry(true),
        );
        telemetry.outputs_match &= telemetry_matches.get();
        targets.push(telemetry);

        // `bundle_cold_load`: serving-process boot over a directory of K
        // durable bundles when the query stream only touches 2 of them.
        // Baseline: the pre-store registry boot — decode every bundle up
        // front. Optimized: open the tiered BundleStore lazily, so only
        // the queried models' weights are ever deserialized. Both sides
        // answer the same stream bitwise.
        use nasflat_serve::BundleStore;

        let num_models = match budget.profile {
            Profile::Fast => 6,
            _ => 12,
        };
        let store_dir =
            std::env::temp_dir().join(format!("nasflat_bench_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        {
            let seeded = BundleStore::open(&store_dir, 0).expect("bench store dir");
            for m in 0..num_models {
                let member = nasflat_core::LatencyPredictor::new(
                    Space::Nb201,
                    device_names.clone(),
                    0,
                    cfg.predictor.clone().with_seed(100 + m as u64),
                );
                seeded
                    .publish(
                        &format!("model_{m}"),
                        ModelBundle::single(member).expect("no supplement configured"),
                    )
                    .expect("publish bundle");
            }
        }
        let cold_requests: Vec<ServeRequest> = (0..8)
            .map(|i| {
                ServeRequest::new(
                    format!("model_{}", i % 2),
                    Arch::nb201_from_index((i as u64 * 911 + 3) % 15_625),
                    i % num_devices,
                )
            })
            .collect();
        let serve_cold = |reg: &PredictorRegistry| -> Vec<u64> {
            let scores: Vec<f32> = cold_requests
                .iter()
                .map(|r| reg.serve_one(r).expect("valid query").score)
                .collect();
            let mut digest = Vec::new();
            digest_f32(&mut digest, &scores);
            digest
        };
        targets.push(measure_pair(
            "bundle_cold_load",
            threads,
            || {
                let reg = PredictorRegistry::with_store(
                    BundleStore::open(&store_dir, 0).expect("bench store dir"),
                    0,
                );
                for name in reg.store().names() {
                    let _ = reg.get(&name).expect("bundle decodes");
                }
                serve_cold(&reg)
            },
            || {
                let reg = PredictorRegistry::with_store(
                    BundleStore::open(&store_dir, 0).expect("bench store dir"),
                    0,
                );
                serve_cold(&reg)
            },
        ));
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    // 3. Sampler pool evaluation: cosine + k-means over the encoding rows.
    {
        let rows = wb
            .suite
            .as_ref()
            .expect("workbench built with suite")
            .rows(nasflat_encode::EncodingKind::Caz);
        targets.push(measure("sampler_pool_eval", threads, || {
            let mut digest = Vec::new();
            let mut rng = StdRng::seed_from_u64(11);
            let cos = cosine_select(rows, 24.min(rows.len()), &mut rng).expect("pool big enough");
            digest.extend(cos.iter().map(|&i| i as u64));
            let mut rng = StdRng::seed_from_u64(13);
            match kmeans_select(rows, 24.min(rows.len()), &mut rng) {
                Ok(km) => digest.extend(km.iter().map(|&i| i as u64)),
                Err(_) => digest.push(u64::MAX), // degenerate — still must agree
            }
            digest
        }));
    }

    // 4. NAS population scoring: regularized evolution under a latency
    //    constraint, seed population scored in parallel.
    {
        let oracle = AccuracyOracle::new(Space::Nb201, 0);
        let mut search = SearchConfig::quick();
        if budget.profile == Profile::Fast {
            search.cycles = 40;
        }
        targets.push(measure("nas_population_scoring", threads, move || {
            let result = constrained_search(
                Space::Nb201,
                &oracle,
                |a: &Arch| a.cost_profile().total_flops as f32 / 1e7 + 1.0,
                50.0,
                &search,
            );
            let mut digest: Vec<u64> = result.arch.genotype().iter().map(|&g| g as u64).collect();
            digest.push(result.accuracy.to_bits() as u64);
            digest.push(result.predictor_queries as u64);
            digest
        }));
    }

    ParallelReport {
        threads,
        host_parallelism: std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        profile: budget.profile,
        targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed_and_gates_on_divergence() {
        let mut report = ParallelReport {
            threads: 4,
            host_parallelism: 8,
            profile: Profile::Fast,
            targets: vec![
                ParallelTarget {
                    name: "demo".into(),
                    kind: ComparisonKind::Threads,
                    wall_ms_single: 100.0,
                    wall_ms_parallel: 25.0,
                    outputs_match: true,
                },
                ParallelTarget {
                    name: "batch_forward".into(),
                    kind: ComparisonKind::Baseline,
                    wall_ms_single: 50.0,
                    wall_ms_parallel: 20.0,
                    outputs_match: true,
                },
            ],
        };
        assert!(report.all_match());
        assert!((report.targets[0].speedup() - 4.0).abs() < 1e-9);
        let json = report.to_json();
        assert!(json.contains(PARALLEL_SCHEMA));
        assert!(json.contains("\"threads_parallel\": 4"));
        assert!(json.contains("\"speedup\": 4.00"));
        assert!(json.contains("\"kind\": \"threads\""));
        assert!(json.contains("\"kind\": \"baseline\""));
        report.targets[0].outputs_match = false;
        assert!(!report.all_match());
    }

    #[test]
    fn kernel_microbench_is_bit_exact_and_renders() {
        let rows = kernel_microbench();
        assert_eq!(rows.len(), KERNEL_SHAPES.len() * 3);
        assert!(
            rows.iter().all(|r| r.outputs_match),
            "kernel diverged from the scalar reference: {rows:?}"
        );
        let md = kernel_table_markdown(&rows);
        assert!(md.contains("| matmul |"));
        assert!(md.contains("| matmul_nt |"));
        assert!(md.contains("| matmul_tn |"));
        assert!(!md.contains("| NO |"), "table reports a divergence:\n{md}");
    }
}
