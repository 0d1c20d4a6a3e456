//! Lock-cheap, deterministic serving telemetry: the counter ledger,
//! fixed-bucket histograms, gauges, and a bounded request-trace ring.
//!
//! The serving path must stay **bit-invisible** under observation: nothing
//! here touches a float on the hot path, takes a lock a request waits on,
//! or changes which queries share a tape pass. Every primitive is a plain
//! [`AtomicU64`] updated with `Relaxed` fetch-adds:
//!
//! - [`Histogram`]: power-of-two (log2) buckets over integer microsecond
//!   latencies or integer sizes. Bucket `i` holds observations
//!   `≤ 2^i` (the last bucket is `+Inf`), so recording is two shifts and
//!   three atomic adds — no float math, no allocation, no lock.
//! - [`Gauge`]: a saturating up/down counter for live quantities (queue
//!   depth is read straight off the queue; inflight slots go through
//!   here).
//! - [`Telemetry`]: the per-server bundle. It owns the **one counter
//!   ledger** of the serving layer (connections, served queries, busy
//!   rejections, faults, groups, deadline verdicts, tape passes; snapshot
//!   as [`ServeMetrics`]), every per-stage histogram (queue wait, batch
//!   assembly, tape evaluation, response write), the batch/group size
//!   histograms, and the trace ring.
//! - [`RequestTrace`]: one admitted request's lifecycle timestamps
//!   (admission → dequeue → evaluation → reply, µs from the server's
//!   epoch) plus its deadline verdict, kept in a bounded ring
//!   ([`Telemetry::traces`] dumps it on demand).
//!
//! The histograms and traces can be disabled ([`Telemetry::disabled`], or
//! `telemetry(false)` on the config builder): their record calls
//! early-return; perfbench's traced `serve_mixed` run reports what the
//! enabled path costs (`trace.overhead_ratio`). The ledger counts either
//! way; in-process drains run on a disabled bundle and read
//! their [`ServeMetrics`] off it.
//!
//! Rendering is Prometheus-style text exposition: histograms emit
//! cumulative `_bucket{le="..."}` samples plus `_sum`/`_count`, counters
//! emit `_total` samples. The ingress assembles the full page (the
//! registry counters, queue-depth and connection gauges) around
//! [`Telemetry::render_into`] and serves it through the `METRICS` wire op.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of histogram buckets: upper bounds `2^0 .. 2^26` (≈ 67 s in
/// microseconds) plus a final `+Inf` overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// A fixed-bucket log2 histogram over `u64` observations.
///
/// Bucket `i < HISTOGRAM_BUCKETS - 1` counts observations `v ≤ 2^i`; the
/// last bucket counts everything larger. All counters are relaxed atomics —
/// recording never locks, never allocates, and never touches a float.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index of observation `v`: the smallest `i` with
    /// `v ≤ 2^i`, capped at the overflow bucket.
    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            return 0;
        }
        // ceil(log2(v)) for v ≥ 2: bits needed to represent v - 1.
        let idx = (64 - (v - 1).leading_zeros()) as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation (three relaxed atomic adds).
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters (per-bucket counts are
    /// non-cumulative; [`HistogramSnapshot::cumulative`] converts).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    /// Renders the histogram as a Prometheus text-exposition family:
    /// cumulative `_bucket{le="..."}` samples, then `_sum` and `_count`.
    /// Empty buckets above the last occupied one are elided (except
    /// `+Inf`, which is always present).
    pub fn render_into(&self, out: &mut String, name: &str) {
        let snap = self.snapshot();
        let _ = writeln!(out, "# TYPE {name} histogram");
        let last_occupied = snap
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
            .min(HISTOGRAM_BUCKETS - 2);
        let mut cum = 0u64;
        for (i, &c) in snap.buckets.iter().enumerate().take(last_occupied + 1) {
            cum += c;
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", 1u64 << i);
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(out, "{name}_sum {}", snap.sum);
        let _ = writeln!(out, "{name}_count {}", snap.count);
    }
}

/// A point-in-time [`Histogram`] copy: per-bucket (non-cumulative) counts
/// plus the running sum and total count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; bucket `i` covers
    /// `(2^(i-1), 2^i]` (bucket 0 covers `0..=1`), the last bucket is
    /// the `+Inf` overflow.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of every observed value.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The cumulative bucket counts (Prometheus `le` semantics): entry `i`
    /// is the number of observations `≤ 2^i`; the last entry equals
    /// [`HistogramSnapshot::count`].
    pub fn cumulative(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        let mut cum = 0u64;
        for (o, &b) in out.iter_mut().zip(&self.buckets) {
            cum += b;
            *o = cum;
        }
        out
    }
}

/// A saturating live-quantity gauge (relaxed atomics; decrements clamp at
/// zero instead of wrapping).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Increments the gauge.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements the gauge, clamping at zero.
    pub fn dec(&self) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// How a deadline-bound request's budget resolved (best-effort requests
/// carry [`DeadlineVerdict::BestEffort`] for their whole life).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineVerdict {
    /// No deadline on the request.
    BestEffort,
    /// Evaluated and answered within the budget.
    Met,
    /// Evaluated, but the answer landed after the budget (the client still
    /// got its score).
    Missed,
    /// Already overdue at dequeue — answered
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)
    /// without evaluation.
    Expired,
}

impl core::fmt::Display for DeadlineVerdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            DeadlineVerdict::BestEffort => "best-effort",
            DeadlineVerdict::Met => "met",
            DeadlineVerdict::Missed => "missed",
            DeadlineVerdict::Expired => "expired",
        })
    }
}

/// One admitted request's lifecycle record: where its latency went, stage
/// by stage. Timestamps are microseconds from the server's telemetry
/// epoch; `0` marks a stage the request never reached (an expired request
/// has no `evaluated_us`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Client-chosen request id (unique per connection, not globally).
    pub request_id: u64,
    /// Registry name of the model the request targeted.
    pub model: String,
    /// When the request was admitted to the global queue.
    pub admitted_us: u64,
    /// When a scheduler worker dequeued it.
    pub dequeued_us: u64,
    /// When its tape pass finished (`0` for expired requests).
    pub evaluated_us: u64,
    /// When its reply frame was written back (`0` until the writer ran).
    pub replied_us: u64,
    /// The deadline verdict.
    pub verdict: DeadlineVerdict,
}

/// A point-in-time snapshot of the serving ledger ([`Telemetry::metrics`]):
/// what [`IngressServer::metrics`](crate::IngressServer::metrics) and the
/// in-process `*_with_metrics` drains report. Every field is `u64`, so the
/// snapshot renders uniformly into the text exposition.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Connections admitted by the accept loop.
    pub connections_accepted: u64,
    /// Connections refused at the
    /// [`ServeConfig::max_connections`](crate::ServeConfig::max_connections)
    /// gate.
    pub connections_refused: u64,
    /// Queries evaluated and answered with a score.
    pub queries_served: u64,
    /// Requests rejected with [`ServeError::Busy`](crate::ServeError::Busy)
    /// (global queue full).
    pub busy_rejections: u64,
    /// Requests that failed validation or framing (bad query, unknown
    /// model, malformed frame).
    pub faults: u64,
    /// Same-model groups evaluated (one tape pass per bundle member each).
    pub groups: u64,
    /// Largest evaluated group.
    pub max_group: u64,
    /// Deadline-bound queries answered within their budget.
    pub deadline_met: u64,
    /// Deadline-bound queries evaluated but answered late (they still got
    /// their score).
    pub deadline_missed: u64,
    /// Queries already overdue at dequeue, answered
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)
    /// without evaluation.
    pub deadline_expired: u64,
    /// Multi-query tape passes run by the member sessions.
    pub tape_passes: u64,
}

/// The per-server telemetry bundle: the counter ledger, per-stage latency
/// histograms, size histograms, the inflight gauge, and the bounded
/// request-trace ring. See the module docs for the determinism contract.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    epoch: Instant,
    connections_accepted: AtomicU64,
    connections_refused: AtomicU64,
    queries_served: AtomicU64,
    busy_rejections: AtomicU64,
    faults: AtomicU64,
    groups: AtomicU64,
    max_group: AtomicU64,
    deadline_met: AtomicU64,
    deadline_missed: AtomicU64,
    deadline_expired: AtomicU64,
    tape_passes: AtomicU64,
    /// Queue wait: admission → dequeue, µs (live and expired entries).
    queue_wait_us: Histogram,
    /// Batch assembly: dequeue → tape-pass start, µs (per model group).
    assembly_us: Histogram,
    /// Tape evaluation: the multi-query forward pass, µs (per model group).
    eval_us: Histogram,
    /// Response write: one reply frame onto the socket, µs.
    write_us: Histogram,
    /// Live entries per scheduler drain.
    batch_size: Histogram,
    /// Queries per same-model tape group.
    group_size: Histogram,
    inflight: Gauge,
    trace_capacity: usize,
    traces: Mutex<VecDeque<RequestTrace>>,
}

impl Telemetry {
    /// An enabled telemetry bundle whose trace ring holds up to
    /// `trace_capacity` records (0 disables tracing but keeps the
    /// histograms).
    pub fn new(trace_capacity: usize) -> Self {
        Telemetry {
            enabled: true,
            epoch: Instant::now(),
            connections_accepted: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            max_group: AtomicU64::new(0),
            deadline_met: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            tape_passes: AtomicU64::new(0),
            queue_wait_us: Histogram::new(),
            assembly_us: Histogram::new(),
            eval_us: Histogram::new(),
            write_us: Histogram::new(),
            batch_size: Histogram::new(),
            group_size: Histogram::new(),
            inflight: Gauge::new(),
            trace_capacity,
            traces: Mutex::new(VecDeque::new()),
        }
    }

    /// A ledger-only bundle: histogram and trace record calls early-return
    /// and their snapshots stay empty, while the ledger still counts. A
    /// server built with `telemetry(false)` serves through this, and every
    /// in-process drain records into a fresh one.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            ..Telemetry::new(0)
        }
    }

    /// Whether recording is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds elapsed since the bundle was created — the timestamp
    /// base of every [`RequestTrace`].
    pub fn now_us(&self) -> u64 {
        self.us_at(Instant::now())
    }

    /// Microseconds from the telemetry epoch to `t` (saturating to 0 when
    /// `t` predates the epoch).
    pub fn us_at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64
    }

    /// Records one queue wait (admission → dequeue), µs.
    pub fn observe_queue_wait(&self, us: u64) {
        if self.enabled {
            self.queue_wait_us.observe(us);
        }
    }

    /// Records one batch-assembly span (dequeue → tape-pass start), µs.
    pub fn observe_assembly(&self, us: u64) {
        if self.enabled {
            self.assembly_us.observe(us);
        }
    }

    /// Records one tape-evaluation span, µs.
    pub fn observe_eval(&self, us: u64) {
        if self.enabled {
            self.eval_us.observe(us);
        }
    }

    /// Records one response-write span, µs.
    pub fn observe_write(&self, us: u64) {
        if self.enabled {
            self.write_us.observe(us);
        }
    }

    /// Records the live size of one scheduler drain.
    pub fn observe_batch_size(&self, n: u64) {
        if self.enabled {
            self.batch_size.observe(n);
        }
    }

    /// Records the size of one same-model tape group.
    pub fn observe_group_size(&self, n: u64) {
        if self.enabled {
            self.group_size.observe(n);
        }
    }

    /// Counts one connection, admitted or refused at the connection cap.
    pub(crate) fn count_connection(&self, admitted: bool) {
        let counter = if admitted {
            &self.connections_accepted
        } else {
            &self.connections_refused
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one busy rejection (global queue full).
    pub(crate) fn count_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request that failed validation or framing.
    pub(crate) fn count_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Credits `n` queries retired as expired without evaluation.
    pub(crate) fn credit_expired(&self, n: u64) {
        self.deadline_expired.fetch_add(n, Ordering::Relaxed);
    }

    /// Credits one evaluated group of `size` queries: the tape passes its
    /// member sessions ran and its `met`/`missed` deadline verdicts.
    pub(crate) fn credit_group(&self, size: u64, passes: u64, met: u64, missed: u64) {
        self.groups.fetch_add(1, Ordering::Relaxed);
        self.max_group.fetch_max(size, Ordering::Relaxed);
        self.queries_served.fetch_add(size, Ordering::Relaxed);
        self.tape_passes.fetch_add(passes, Ordering::Relaxed);
        self.deadline_met.fetch_add(met, Ordering::Relaxed);
        self.deadline_missed.fetch_add(missed, Ordering::Relaxed);
    }

    /// A snapshot of the ledger. It counts whether or not histograms and
    /// traces are enabled.
    pub fn metrics(&self) -> ServeMetrics {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeMetrics {
            connections_accepted: get(&self.connections_accepted),
            connections_refused: get(&self.connections_refused),
            queries_served: get(&self.queries_served),
            busy_rejections: get(&self.busy_rejections),
            faults: get(&self.faults),
            groups: get(&self.groups),
            max_group: get(&self.max_group),
            deadline_met: get(&self.deadline_met),
            deadline_missed: get(&self.deadline_missed),
            deadline_expired: get(&self.deadline_expired),
            tape_passes: get(&self.tape_passes),
        }
    }

    /// The inflight-slot gauge (admitted, unanswered requests).
    pub fn inflight(&self) -> &Gauge {
        &self.inflight
    }

    /// Pushes one request trace, evicting the oldest past capacity.
    pub fn push_trace(&self, trace: RequestTrace) {
        if !self.enabled || self.trace_capacity == 0 {
            return;
        }
        let mut ring = self.traces.lock().expect("trace ring lock");
        if ring.len() >= self.trace_capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Dumps the trace ring, oldest first.
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.traces
            .lock()
            .expect("trace ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Snapshot of the queue-wait histogram.
    pub fn queue_wait(&self) -> HistogramSnapshot {
        self.queue_wait_us.snapshot()
    }

    /// Snapshot of the batch-assembly histogram.
    pub fn assembly(&self) -> HistogramSnapshot {
        self.assembly_us.snapshot()
    }

    /// Snapshot of the tape-evaluation histogram.
    pub fn eval(&self) -> HistogramSnapshot {
        self.eval_us.snapshot()
    }

    /// Snapshot of the response-write histogram.
    pub fn write(&self) -> HistogramSnapshot {
        self.write_us.snapshot()
    }

    /// Snapshot of the drain-size histogram.
    pub fn batch_sizes(&self) -> HistogramSnapshot {
        self.batch_size.snapshot()
    }

    /// Snapshot of the same-model group-size histogram.
    pub fn group_sizes(&self) -> HistogramSnapshot {
        self.group_size.snapshot()
    }

    /// Renders this bundle's families (the per-stage and size histograms,
    /// the inflight gauge, the ledger) into `out` as Prometheus text
    /// exposition. The ingress wraps this with the registry counters and
    /// the live queue-depth and connection gauges to form the full
    /// `METRICS` page.
    pub fn render_into(&self, out: &mut String) {
        self.queue_wait_us.render_into(out, "nasflat_queue_wait_us");
        self.assembly_us
            .render_into(out, "nasflat_batch_assembly_us");
        self.eval_us.render_into(out, "nasflat_tape_eval_us");
        self.write_us.render_into(out, "nasflat_response_write_us");
        self.batch_size.render_into(out, "nasflat_batch_size");
        self.group_size.render_into(out, "nasflat_group_size");
        render_gauge(out, "nasflat_inflight", self.inflight.get());
        let m = self.metrics();
        for (name, value) in [
            ("nasflat_tape_passes_total", m.tape_passes),
            ("nasflat_connections_accepted_total", m.connections_accepted),
            ("nasflat_connections_refused_total", m.connections_refused),
            ("nasflat_queries_served_total", m.queries_served),
            ("nasflat_busy_rejections_total", m.busy_rejections),
            ("nasflat_faults_total", m.faults),
            ("nasflat_groups_total", m.groups),
            ("nasflat_deadline_met_total", m.deadline_met),
            ("nasflat_deadline_missed_total", m.deadline_missed),
            ("nasflat_deadline_expired_total", m.deadline_expired),
        ] {
            render_counter(out, name, value);
        }
        render_gauge(out, "nasflat_max_group", m.max_group);
    }
}

/// Appends one `# TYPE ... counter` family with a single sample.
pub(crate) fn render_counter(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one `# TYPE ... gauge` family with a single sample.
pub(crate) fn render_gauge(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one labelled counter sample (caller emits the `# TYPE` line
/// once per family).
pub(crate) fn render_labelled(out: &mut String, name: &str, label: &str, key: &str, value: u64) {
    // Label values are registry model names; escape the three characters
    // the exposition format reserves.
    let mut escaped = String::with_capacity(key.len());
    for c in key.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            c => escaped.push(c),
        }
    }
    let _ = writeln!(out, "{name}{{{label}=\"{escaped}\"}} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // v ≤ 2^i lands in bucket i; 2^i + 1 lands in bucket i + 1.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_of(1u64 << i), i, "2^{i} in bucket {i}");
            assert_eq!(Histogram::bucket_of((1u64 << i) + 1), i + 1);
        }
        // Everything past the last finite bound overflows to +Inf.
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_sum_count_and_cumulative_agree() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 16, 17, 1 << 20, u64::MAX / 2] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 1 + 2 + 16 + 17 + (1 << 20) + u64::MAX / 2);
        let cum = snap.cumulative();
        assert_eq!(cum[HISTOGRAM_BUCKETS - 1], snap.count);
        // Cumulative counts are monotone.
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        // le="1" covers the two observations ≤ 1.
        assert_eq!(cum[0], 2);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // extra decrement clamps instead of wrapping
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let t = Telemetry::disabled();
        t.observe_queue_wait(5);
        t.observe_eval(5);
        t.observe_batch_size(3);
        t.credit_group(2, 4, 0, 0);
        t.push_trace(RequestTrace {
            request_id: 1,
            model: "m".into(),
            admitted_us: 1,
            dequeued_us: 2,
            evaluated_us: 3,
            replied_us: 4,
            verdict: DeadlineVerdict::BestEffort,
        });
        assert_eq!(t.queue_wait().count, 0);
        assert_eq!(t.eval().count, 0);
        assert!(t.traces().is_empty());
        assert!(!t.is_enabled());
        // The ledger is not gated: it counts either way.
        assert_eq!(t.metrics().tape_passes, 4);
        assert_eq!(t.metrics().queries_served, 2);
    }

    #[test]
    fn trace_ring_is_bounded_and_fifo() {
        let t = Telemetry::new(3);
        for i in 0..5u64 {
            t.push_trace(RequestTrace {
                request_id: i,
                model: "m".into(),
                admitted_us: i,
                dequeued_us: i,
                evaluated_us: i,
                replied_us: i,
                verdict: DeadlineVerdict::Met,
            });
        }
        let traces = t.traces();
        assert_eq!(traces.len(), 3, "ring bounded at capacity");
        let ids: Vec<u64> = traces.iter().map(|t| t.request_id).collect();
        assert_eq!(ids, [2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn rendered_exposition_is_well_formed() {
        let t = Telemetry::new(4);
        t.observe_queue_wait(100);
        t.observe_eval(1 << 24);
        t.inflight().inc();
        let mut out = String::new();
        t.render_into(&mut out);
        assert!(out.contains("# TYPE nasflat_queue_wait_us histogram"));
        assert!(out.contains("nasflat_queue_wait_us_bucket{le=\"128\"} 1"));
        assert!(out.contains("nasflat_queue_wait_us_bucket{le=\"+Inf\"} 1"));
        assert!(out.contains("nasflat_queue_wait_us_sum 100"));
        assert!(out.contains("nasflat_queue_wait_us_count 1"));
        assert!(out.contains("nasflat_tape_eval_us_count 1"));
        assert!(out.contains("nasflat_inflight 1"));
        // Every sample line is "name{labels} value" or "name value" with an
        // integer value — no floats anywhere in the exposition.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<u64>().is_ok(),
                "non-integer sample in {line:?}"
            );
        }
    }

    #[test]
    fn labelled_counter_escapes_model_names() {
        let mut out = String::new();
        render_labelled(
            &mut out,
            "nasflat_model_served_total",
            "model",
            "a\"b\\c",
            7,
        );
        assert_eq!(out, "nasflat_model_served_total{model=\"a\\\"b\\\\c\"} 7\n");
    }
}
