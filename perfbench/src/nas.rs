//! The NAS layer, measured in `fewshot_n1`'s traced run: latency-constrained
//! search (paper §6.8) on the NB201 space through
//! `nas_support::nasflat_estimator`, which transfers the already-pretrained
//! predictor to a target with 20 samples and calibrates scores to
//! milliseconds.
//!
//! A fixed number of searches runs with the default `SearchConfig`, per-search
//! seeds and the target's pool-median latency as the constraint. Every
//! estimator call is timed, so the search's own time (the search loop and
//! the accuracy oracle) is the search's wall time minus the estimator's.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use nasflat::core::PretrainedTask;
use nasflat::hw::{latency_ms, DeviceRegistry, LatencyTable};
use nasflat::nas::{
    constrained_search, AccuracyOracle, BatchedLatency, SearchConfig, SearchResult,
};
use nasflat::space::{Arch, Space};
use nasflat_bench::nas_support::{nasflat_estimator, NasEstimator};

use crate::report::{mean, Outcome, Tally};
use crate::Ctx;

/// Searches per traced run.
const SEARCHES: u64 = 12;
/// Target samples the estimator transfers with.
const TRANSFER_SAMPLES: usize = 20;

/// Estimator calls of one search, per path (single, batched):
/// (calls, architectures scored, wall time).
type CallLog = Mutex<[(u64, u64, Duration); 2]>;

fn search_config(smoke: bool, seed: u64) -> SearchConfig {
    let mut cfg = SearchConfig {
        seed,
        ..SearchConfig::default()
    };
    if smoke {
        (cfg.population, cfg.cycles) = (8, 16);
    }
    cfg
}

/// One search on NB201; every estimator call is timed into `calls`.
fn search(
    est: &NasEstimator<'_>,
    oracle: &AccuracyOracle,
    constraint: f32,
    cfg: &SearchConfig,
    calls: &CallLog,
) -> SearchResult {
    let single = &est.latency_ms;
    let batch = est
        .latency_batch
        .as_deref()
        .expect("NASFLAT has a batched path");
    let log = |path: usize, archs: usize, t: Instant| {
        let e = t.elapsed();
        let mut c = calls.lock().expect("call log");
        c[path].0 += 1;
        c[path].1 += archs as u64;
        c[path].2 += e;
    };
    constrained_search(
        Space::Nb201,
        oracle,
        BatchedLatency {
            single: |a: &Arch| {
                let t = Instant::now();
                let v = single(a);
                log(0, 1, t);
                v
            },
            batch: |archs: &[Arch]| {
                let t = Instant::now();
                let v = batch(archs);
                log(1, archs.len(), t);
                v
            },
        },
        constraint,
        cfg,
    )
}

/// Builds the estimator for `target` on `pre`, runs the searches, checks
/// them and writes the NAS per-layer metrics. `flops` is the analytic cost
/// of one forward query.
pub fn traced_searches<'a>(
    ctx: &Ctx,
    pre: &mut PretrainedTask<'a>,
    pool: &'a [Arch],
    table: &LatencyTable,
    target: &str,
    flops: f64,
    out: &mut Outcome,
) {
    let t = Instant::now();
    let est = nasflat_estimator(pre, pool, target, TRANSFER_SAMPLES, 0);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let device = DeviceRegistry::nb201()
        .get(target)
        .expect("target device")
        .clone();
    let oracle = AccuracyOracle::new(Space::Nb201, 0);
    let mut row = table.device_row(target).expect("target row").to_vec();
    row.sort_by(f32::total_cmp);
    let constraint = row[(row.len() - 1) / 2];
    let searches = if ctx.smoke { 1 } else { SEARCHES };
    let expected_queries = {
        let c = search_config(ctx.smoke, 0);
        c.population + c.cycles
    };

    let calls: CallLog = Mutex::new([(0, 0, Duration::ZERO); 2]);
    let mut search_s = 0.0;
    let mut results = Vec::new();
    let mut tally = Tally::default();
    let mut feasible = 0usize;
    for i in 0..searches {
        let cfg = search_config(ctx.smoke, ctx.op_seed(i));
        let t = Instant::now();
        let r = search(&est, &oracle, constraint, &cfg, &calls);
        search_s += t.elapsed().as_secs_f64();
        // Gates: the search reports exactly the estimator's latency for the
        // architecture it returns and makes the documented query count.
        let ok = r.predictor_queries == expected_queries
            && (est.latency_ms)(&r.arch).to_bits() == r.predicted_latency_ms.to_bits();
        tally.add(ok);
        // Feasibility is recomputed on the simulator.
        feasible += usize::from(latency_ms(&device, &r.arch) as f32 <= constraint);
        results.push(r);
    }
    out.phase("nas searches", tally);
    out.check(
        "search_reports_estimator",
        tally.failed == 0,
        format!(
            "{} of {searches} searches report the estimator's latency and make {expected_queries} queries",
            tally.ok
        ),
    );
    let again = search(
        &est,
        &oracle,
        constraint,
        &search_config(ctx.smoke, ctx.op_seed(0)),
        &Mutex::new([(0, 0, Duration::ZERO); 2]),
    );
    out.check(
        "search_repeatable",
        again.arch == results[0].arch
            && again.predicted_latency_ms.to_bits() == results[0].predicted_latency_ms.to_bits(),
        "search 0 re-run".into(),
    );

    let n = searches as f64;
    let [(single_calls, _, single_t), (batch_calls, batch_archs, batch_t)] =
        calls.into_inner().expect("call log");
    let score_s = (single_t + batch_t).as_secs_f64();
    let self_ms = (search_s - score_s) * 1e3 / n;
    let l = &mut out.layers;
    l.insert("nas.self_ms", self_ms);
    l.insert(
        "nas.queries",
        mean(
            &results
                .iter()
                .map(|r| r.predictor_queries as f64)
                .collect::<Vec<_>>(),
        ),
    );
    l.insert(
        "core.score_us",
        single_t.as_secs_f64() * 1e6 / single_calls.max(1) as f64,
    );
    l.insert(
        "core.score_batch_us",
        batch_t.as_secs_f64() * 1e6 / batch_archs.max(1) as f64,
    );
    l.insert("core.score_calls", (single_calls + batch_calls) as f64 / n);
    l.insert("core.flops_per_query", flops);
    l.insert(
        "core.achieved_gflops",
        flops * (single_calls + batch_archs) as f64 / score_s.max(1e-9) / 1e9,
    );
    out.notes.push(format!(
        "nas: target {target}, constraint {constraint} ms (pool median), estimator built in {build_ms:.1} ms; \
         {searches} searches, mean {:.3} ms = estimator {:.3} ms + search loop and oracle {self_ms:.3} ms; \
         {:.1} single + {:.1} batched estimator calls per search; feasible on the simulator: {feasible} of {searches}",
        search_s * 1e3 / n,
        score_s * 1e3 / n,
        single_calls as f64 / n,
        batch_calls as f64 / n,
    ));
}
