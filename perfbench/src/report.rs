//! Metric catalogue, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput", "1/s"),
    ("quality", "ratio"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A layer a
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
    ("space.probe_pool_ms", "ms"),
    ("hw.latency_table_ms", "ms"),
    ("encode.suite_build_ms", "ms"),
    ("core.pretrain_ms", "ms"),
    ("core.transfer_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("sample.select_ms", "ms"),
    ("core.hw_init_ms", "ms"),
    ("core.fine_tune_ms", "ms"),
    ("core.fine_tune_step_us", "us"),
    ("core.eval_ms", "ms"),
    ("core.score_us", "us"),
    ("core.score_batch_us", "us"),
    ("core.score_calls", "count"),
    ("nas.self_ms", "ms"),
    ("nas.queries", "count"),
    ("core.flops_per_query", "count"),
    ("core.achieved_gflops", "GFLOP/s"),
    ("serve.bundle_encode_ms", "ms"),
    ("serve.store_publish_ms", "ms"),
    ("serve.store_fetch_ms", "ms"),
    ("serve.bind_ms", "ms"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p90_us", "us"),
    ("serve.batch_assembly_us", "us"),
    ("serve.tape_eval_us", "us"),
    ("serve.response_write_us", "us"),
    ("serve.eval_us_per_query", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.stage_sum_us", "us"),
    ("serve.unaccounted_us", "us"),
    ("serve.inproc_qps", "1/s"),
    ("serve.ingress_overhead_us", "us"),
    ("serve.deadline_expired", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.busy", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("loadgen.open_p50_ms", "ms"),
    ("loadgen.open_p99_ms", "ms"),
    ("loadgen.open_lag_ms", "ms"),
];

/// Sent / succeeded / failed counts of one phase of a workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations or requests attempted.
    pub sent: u64,
    /// Of those, how many succeeded.
    pub ok: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt.
    pub fn add(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// Latencies of one timed phase, as measured and at the reference speed
/// (see `speed`).
#[derive(Debug, Default)]
pub struct Samples {
    /// Per-op wall latency, ms.
    pub wall_ms: Vec<f64>,
    /// Per-op latency at the reference speed, ms.
    pub scaled_ms: Vec<f64>,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// The same at the reference speed, s.
    pub scaled_s: f64,
}

impl Samples {
    /// Adds one op's wall latency, measured at host-speed `factor`.
    pub fn push(&mut self, wall_ms: f64, factor: f64) {
        self.wall_ms.push(wall_ms);
        self.scaled_ms.push(wall_ms * factor);
    }

    /// Adds a stretch of the phase's wall time, measured at `factor`.
    pub fn add_time(&mut self, wall_s: f64, factor: f64) {
        self.wall_s += wall_s;
        self.scaled_s += wall_s * factor;
    }

    /// Median wall latency, ms.
    pub fn wall_p50(&self) -> f64 {
        median(&self.wall_ms)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// All correctness checks passed.
    pub correct: bool,
    /// Timed operations attempted / failed.
    pub timed: Tally,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines: phases, checks, sample counts.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a phase's tally as a note.
    pub fn phase(&mut self, name: &str, t: Tally) {
        self.notes.push(format!(
            "phase {name}: sent {} ok {} failed {}",
            t.sent, t.ok, t.failed
        ));
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        self.notes.push(format!(
            "check {name}: {} ({detail})",
            if pass { "ok" } else { "FAILED" }
        ));
        if !pass {
            self.correct = false;
        }
    }

    /// Fills the end-to-end metrics shared by every workload from the
    /// timed phase's samples, at the reference speed; the wall-clock
    /// figures go into a note.
    pub fn latency_metrics(&mut self, s: &Samples, setup_s: f64) {
        let ok = self.timed.ok as f64;
        self.e2e.insert("setup_s", setup_s);
        self.e2e.insert("peak_rss_mb", peak_rss_mb());
        self.e2e.insert("p50_ms", quantile(&s.scaled_ms, 0.5));
        self.e2e.insert("p90_ms", quantile(&s.scaled_ms, 0.9));
        self.e2e.insert("throughput", ok / s.scaled_s.max(1e-9));
        self.e2e
            .insert("ok_ratio", ok / (self.timed.sent as f64).max(1.0));
        self.notes.push(format!(
            "latency samples {} (p90 has {} samples above it), timed phase {:.3} s",
            s.wall_ms.len(),
            s.wall_ms.len() / 10,
            s.wall_s,
        ));
        self.notes.push(format!(
            "wall clock: p50 {:.4} ms, p90 {:.4} ms, throughput {:.4}/s; mean host-speed factor {:.4}",
            quantile(&s.wall_ms, 0.5),
            quantile(&s.wall_ms, 0.9),
            ok / s.wall_s.max(1e-9),
            s.scaled_s / s.wall_s.max(1e-9),
        ));
    }
}

/// Linear-interpolated quantile of unsorted samples (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Prints the notes, every metric with its unit, and the result line. The
/// result line carries the end-to-end metrics, or the per-layer ones when
/// `traced`. Returns false when a metric is missing or not finite.
pub fn print(workload: &str, out: &Outcome, traced: bool) -> bool {
    for n in &out.notes {
        println!("[{workload}] {n}");
    }
    let mut complete = out.timed.sent > 0;
    let mut json_metrics = Vec::new();
    let mut emit = |section: &str,
                    catalogue: &[(&'static str, &'static str)],
                    values: &BTreeMap<&'static str, f64>,
                    into_json: bool,
                    fill_zero: bool| {
        for &(name, unit) in catalogue {
            let value = match values.get(name) {
                Some(&v) => v,
                None if fill_zero => 0.0,
                None => f64::NAN,
            };
            println!("[{workload}] {section} {name} = {value} {unit}");
            if !value.is_finite() {
                eprintln!("[{workload}] metric {name} is missing or not finite");
                complete = false;
            }
            if into_json {
                json_metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                ));
            }
        }
    };
    if !out.e2e.is_empty() {
        emit("end_to_end", END_TO_END, &out.e2e, !traced, false);
        // The result line carries `ok_ratio`: a gated metric must never be 0.
        println!(
            "[{workload}] end_to_end fail_ratio = {} ratio",
            out.timed.failed as f64 / out.timed.sent.max(1) as f64
        );
    }
    if traced {
        emit("per_layer", PER_LAYER, &out.layers, true, true);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct && complete,
        out.timed.sent.max(1),
        out.timed.failed,
        json_metrics.join(", ")
    );
    complete
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every significant digit and always marks floats.
        format!("{v:?}")
    } else {
        "null".into()
    }
}
