//! `fewshot_n1`: the paper's headline protocol on task N1 — pretrain once,
//! then transfer to a target device from 20 samples, one op per transfer.
//!
//! Set-up builds the pool, latency table, encoding suite and the pretrained
//! task with the `Pipeline` defaults (NB201, CAZ-cosine sampler, ZCP
//! supplement, quick config). Each op is one `PretrainedTask::transfer_to`;
//! the target rotates through N1's test devices and the op's seed derives
//! from the workload seed. The traced phase composes the same op out of
//! the public steps, each timed on its own, then measures the NAS layer
//! (see `nas`).

use std::time::{Duration, Instant};

use nasflat::core::{
    evaluate_spearman, fine_tune, hw_init_from_correlation, DeviceSamples, FewShotConfig,
    LatencyPredictor, PretrainedTask, TrainContext,
};
use nasflat::encode::{EncodingSuite, SuiteConfig};
use nasflat::hw::{DeviceRegistry, LatencyTable};
use nasflat::sample::SamplerContext;
use nasflat::space::{Arch, Space};
use nasflat::tasks::{paper_task, probe_pool, Task};
use nasflat::tensor::Tensor;
use nasflat::Pipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::flops::forward_flops;
use crate::report::{mean, quantile, Outcome, Samples, Tally};
use crate::{nas, span, speed, Ctx, SetupLog, Spans};

struct Fixture {
    task: Task,
    pool: Vec<Arch>,
    table: LatencyTable,
    suite: EncodingSuite,
    cfg: FewShotConfig,
}

/// One timed op: which target, which seed, its Spearman (`None` when the
/// sampler failed).
#[derive(Clone, Copy)]
struct OpResult {
    target: usize,
    seed: u64,
    spearman: Option<f32>,
}

/// The pretrained weights and a working copy the composed op adapts.
struct Composer {
    snapshot: Vec<Tensor>,
    work: LatencyPredictor,
}

fn config(smoke: bool) -> (usize, FewShotConfig) {
    let mut cfg = Pipeline::new("N1").config_mut().clone();
    if !smoke {
        return (500, cfg);
    }
    let p = &mut cfg.predictor;
    (p.op_dim, p.hw_dim, p.node_dim) = (8, 8, 8);
    (p.ophw_gnn_dims, p.ophw_mlp_dims) = (vec![12], vec![12]);
    (p.gnn_dims, p.head_dims) = (vec![12], vec![16]);
    (p.epochs, p.transfer_epochs) = (2, 2);
    cfg.pretrain_per_device = 8;
    cfg.transfer_samples = 8;
    cfg.eval_samples = 20;
    (80, cfg)
}

fn build_fixture(smoke: bool, log: &mut SetupLog) -> Fixture {
    let task = paper_task("N1").expect("N1 is a paper task");
    let (pool_size, cfg) = config(smoke);
    let pool = log.step("space.probe_pool_ms", || {
        probe_pool(Space::Nb201, pool_size, 0)
    });
    let table = log.step("hw.latency_table_ms", || {
        LatencyTable::build(DeviceRegistry::nb201().devices(), &pool)
    });
    let suite = log.step("encode.suite_build_ms", || {
        EncodingSuite::build(&pool, &SuiteConfig::quick().with_seed(0))
    });
    Fixture {
        task,
        pool,
        table,
        suite,
        cfg,
    }
}

/// Held-out evaluation set, built exactly as `transfer_to` builds it:
/// strided pool indices that skip the transfer set.
fn eval_set(pool_len: usize, exclude: &[usize], n: usize, row: &[f32]) -> Vec<(usize, f32)> {
    let stride = (pool_len / n.max(1)).max(1);
    let mut out: Vec<(usize, f32)> = Vec::with_capacity(n);
    let mut i = 0usize;
    while out.len() < n && i < pool_len {
        let idx = (i * stride + 1) % pool_len;
        if !exclude.contains(&idx) && !out.iter().any(|&(j, _)| j == idx) {
            out.push((idx, row[idx]));
        }
        i += 1;
    }
    out
}

/// `transfer_to` composed from its public steps, each timed into `spans`.
/// Leaves `work` adapted to the target.
fn composed_transfer(
    fx: &Fixture,
    composer: &mut Composer,
    target: usize,
    seed: u64,
    spans: &mut Spans,
) -> Option<f32> {
    let name = &fx.task.test[target];
    let device = fx.task.train.len() + target;
    let row = fx.table.device_row(name).expect("target row");
    let Composer { snapshot, work } = composer;
    span(spans, "core.restore_ms", || work.restore(snapshot));
    let picked = span(spans, "sample.select_ms", || {
        let mut rng = StdRng::seed_from_u64(seed);
        let sctx = SamplerContext::new(&fx.pool)
            .with_encodings(&fx.suite)
            .with_target_latencies(row);
        fx.cfg
            .sampler
            .select(fx.cfg.transfer_samples, &sctx, &mut rng)
    });
    let picked = picked.ok()?;
    let raw: Vec<(usize, f32)> = picked.iter().map(|&i| (i, row[i])).collect();
    if fx.cfg.predictor.hw_init {
        span(spans, "core.hw_init_ms", || {
            hw_init_from_correlation(work, device, &raw, &fx.table, &fx.task.train)
        });
    }
    let ctx = TrainContext::with_suite(&fx.pool, &fx.suite);
    span(spans, "core.fine_tune_ms", || {
        fine_tune(work, &ctx, device, &DeviceSamples::new(device, &raw))
    });
    let eval = eval_set(fx.pool.len(), &picked, fx.cfg.eval_samples, row);
    Some(span(spans, "core.eval_ms", || {
        evaluate_spearman(work, &ctx, device, &eval)
    }))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut log = SetupLog::new(ctx);
    for rep in 0..ctx.setups() {
        let began = log.begin(ctx);
        let fx = build_fixture(ctx.smoke, &mut log);
        let mut pre = log.step("core.pretrain_ms", || {
            PretrainedTask::build(
                &fx.task,
                &fx.pool,
                &fx.table,
                Some(&fx.suite),
                fx.cfg.clone(),
            )
        });
        let mut composer = Composer {
            snapshot: pre.predictor().snapshot(),
            work: pre.predictor().clone(),
        };
        // Warm-up: one discarded transfer.
        let sampler = fx.cfg.sampler;
        let warm = pre.transfer_to(&fx.task.test[0], &sampler, ctx.op_seed(u64::MAX));
        log.finish(began);
        if rep + 1 < ctx.setups() {
            continue;
        }
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        let mut warm_tally = Tally::default();
        warm_tally.add(warm.is_ok());
        out.phase("warm-up", warm_tally);
        log.report(&mut out);
        measure(ctx, &fx, &mut pre, &mut composer, log.setup_s(), &mut out);
        return out;
    }
    unreachable!("setups >= 1")
}

fn measure<'a>(
    ctx: &Ctx,
    fx: &'a Fixture,
    pre: &mut PretrainedTask<'a>,
    composer: &mut Composer,
    setup_s: f64,
    out: &mut Outcome,
) {
    let targets = fx.task.test.len();
    let offset = (ctx.seed % targets as u64) as usize;
    let op = |i: usize| ((i + offset) % targets, ctx.op_seed(i as u64));
    let sampler = fx.cfg.sampler;

    // Untraced phase: every op is `transfer_to`, timed end to end and scaled
    // by the mean of the host-speed factors sampled just before and just
    // after it. It runs at least one full rotation of targets.
    let mut samples = Samples::default();
    let mut results: Vec<OpResult> = Vec::new();
    let mut before = speed::factor();
    let t0 = Instant::now();
    while t0.elapsed() < ctx.phase() || results.len() < targets {
        let (target, seed) = op(results.len());
        let t = Instant::now();
        let r = pre.transfer_to(&fx.task.test[target], &sampler, seed);
        let wall = t.elapsed().as_secs_f64();
        let after = speed::factor();
        let factor = (before + after) / 2.0;
        before = after;
        out.timed.add(r.is_ok());
        samples.add_time(wall, factor);
        if r.is_ok() {
            samples.push(wall * 1e3, factor);
        }
        results.push(OpResult {
            target,
            seed,
            spearman: r.ok().map(|o| o.spearman),
        });
    }
    out.phase("timed", out.timed);
    out.latency_metrics(&samples, setup_s);

    // Quality: mean over targets of each target's mean Spearman.
    let per_target: Vec<f64> = (0..targets)
        .map(|t| {
            let v: Vec<f64> = results
                .iter()
                .filter(|r| r.target == t)
                .filter_map(|r| r.spearman.map(f64::from))
                .collect();
            mean(&v)
        })
        .collect();
    out.e2e.insert("quality", mean(&per_target));
    let sane = results
        .iter()
        .filter_map(|r| r.spearman)
        .all(|s| s.is_finite() && (-1.0..=1.0).contains(&s));
    out.check(
        "spearman_range",
        sane && out.timed.ok > 0,
        format!("{} transfers", out.timed.ok),
    );

    // Gate: repeating op 0 reproduces its Spearman bit for bit, and the
    // public-step composition reproduces `transfer_to`'s adapted weights
    // and Spearman bit for bit.
    let first = results[0];
    let again = pre
        .transfer_to(&fx.task.test[first.target], &sampler, first.seed)
        .map(|o| o.spearman);
    let mut reference = first.spearman.map(f32::to_bits);
    if ctx.corrupt {
        reference = reference.map(|b| b ^ 1);
    }
    out.check(
        "transfer_repeatable",
        again.as_ref().ok().map(|s| s.to_bits()) == reference && reference.is_some(),
        format!("op 0 on {}", fx.task.test[first.target]),
    );
    let adapted = pre.predictor().save_weights();
    let composed = composed_transfer(fx, composer, first.target, first.seed, &mut Spans::new());
    out.check(
        "composition_bitwise",
        composed.map(f32::to_bits) == reference && composer.work.save_weights() == adapted,
        "Sampler::select + hw_init_from_correlation + fine_tune + evaluate_spearman == transfer_to"
            .into(),
    );
    let mut verify = Tally::default();
    verify.add(again.is_ok());
    verify.add(composed.is_some());
    out.phase("verify", verify);

    if !ctx.trace {
        return;
    }

    // Traced phase: the same op sequence, composed from the public steps,
    // each step timed on its own; every op is checked against the
    // untraced one.
    let mut spans = Spans::new();
    let mut op_time = Duration::ZERO;
    let mut traced_ms = Vec::new();
    let mut children_ms = Vec::new();
    let mut traced_samples = Samples::default();
    let mut before = speed::factor();
    let mut traced = Tally::default();
    let mut compared = 0usize;
    let mut mismatches = 0usize;
    let t1 = Instant::now();
    while t1.elapsed() < ctx.phase() || traced_ms.len() < targets {
        let i = traced_ms.len();
        let (target, seed) = op(i);
        let steps_before = spans.values().sum::<Duration>();
        let t = Instant::now();
        let s = composed_transfer(fx, composer, target, seed, &mut spans);
        let d = t.elapsed();
        let after = speed::factor();
        traced_samples.push(d.as_secs_f64() * 1e3, (before + after) / 2.0);
        before = after;
        op_time += d;
        traced_ms.push(d.as_secs_f64() * 1e3);
        children_ms.push((spans.values().sum::<Duration>() - steps_before).as_secs_f64() * 1e3);
        traced.add(s.is_some());
        if let Some(r) = results.get(i) {
            compared += 1;
            mismatches += usize::from(s.map(f32::to_bits) != r.spearman.map(f32::to_bits));
        }
    }
    out.phase("traced", traced);
    out.check(
        "traced_composition_bitwise",
        compared > 0 && mismatches == 0,
        format!("{compared} traced ops compared, {mismatches} differ"),
    );
    let ops = traced_ms.len() as f64;
    let traced_p50 = quantile(&traced_ms, 0.5);
    let children = spans.values().sum::<Duration>();
    let children_p50 = quantile(&children_ms, 0.5);
    for (name, d) in &spans {
        out.layers.insert(name, d.as_secs_f64() * 1e3 / ops);
    }
    let steps = fx.cfg.predictor.transfer_epochs
        * fx.cfg
            .transfer_samples
            .div_ceil(fx.cfg.predictor.batch_size.max(1));
    let fine_tune_ms = out.layers.get("core.fine_tune_ms").copied().unwrap_or(0.0);
    out.layers.insert(
        "core.fine_tune_step_us",
        fine_tune_ms * 1e3 / steps.max(1) as f64,
    );
    out.layers.insert("core.transfer_ms", mean(&traced_ms));
    out.layers
        .insert("trace.coverage_ratio", children_p50 / traced_p50);
    out.layers.insert(
        "trace.overhead_ratio",
        quantile(&traced_samples.scaled_ms, 0.5) / quantile(&samples.scaled_ms, 0.5),
    );
    out.notes.push(format!(
        "traced ops {}: p50 of the children's time sum {children_p50:.3} ms vs traced p50 {traced_p50:.3} ms; \
         glue (op self) {:.3} ms/op; {steps} fine-tune steps per op",
        traced_ms.len(),
        op_time.saturating_sub(children).as_secs_f64() * 1e3 / ops,
    ));

    let flops = forward_flops(&fx.cfg.predictor, Space::Nb201, pre.predictor().supp_dim());
    nas::traced_searches(ctx, pre, &fx.pool, &fx.table, &fx.task.test[0], flops, out);
}
