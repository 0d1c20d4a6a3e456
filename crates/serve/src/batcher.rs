//! The dynamic micro-batcher: a bounded MPSC queue drained by worker
//! threads that coalesce waiting queries into multi-query tape passes.
//!
//! The topology is synchronous-core: [`DynamicBatcher::serve`] pushes a
//! query stream into a bounded [`std::sync::mpsc::sync_channel`] (admission
//! control — the producer blocks when the queue is full) while
//! [`nasflat_parallel::with_workers`] worker threads drain it. A worker
//! blocks for one request, then greedily grabs up to
//! [`ServeConfig::batch`] − 1 more *without blocking*, and evaluates
//! whatever it got as one **mixed-device multi-query tape pass** on its
//! per-member [`BatchSession`](nasflat_core::BatchSession)s. Under load,
//! batches fill to the limit; at low arrival rates, queries go out alone —
//! dynamic batching in the classic serving-systems sense.
//!
//! Which queries share a pass is timing-dependent, but the block-diagonal
//! bit-identity contract makes the composition invisible: drained results
//! are bitwise a sequential per-query loop at any worker count, batch
//! limit, or arrival interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nasflat_space::Arch;

use crate::bundle::ModelBundle;
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::telemetry::Telemetry;

/// One latency query: an architecture and the device (embedding row of the
/// bundle's device list) to predict it on.
#[derive(Debug, Clone)]
pub struct ServeQuery {
    /// The architecture to score.
    pub arch: Arch,
    /// Device index into the serving bundle's ordered device list.
    pub device: usize,
    /// Relative deadline budget, milliseconds, measured from the start of
    /// the drain; `None` = best-effort (never expires). A query overdue at
    /// dequeue is answered [`ServeError::DeadlineExceeded`] without a tape
    /// pass — visible through [`DynamicBatcher::serve_each`]; the
    /// `Vec<f32>` entry points propagate the first such failure.
    pub deadline_ms: Option<u32>,
}

impl ServeQuery {
    /// A best-effort query for `arch` on device index `device`.
    pub fn new(arch: Arch, device: usize) -> Self {
        ServeQuery {
            arch,
            device,
            deadline_ms: None,
        }
    }

    /// The same query with a relative deadline budget of `ms` milliseconds.
    pub fn with_deadline_ms(mut self, ms: u32) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

/// What a drain actually did — the serving telemetry the smoke tests and
/// the bench harness assert on. The pass count comes straight from the
/// worker sessions' [`BatchSession::passes`](nasflat_core::BatchSession::passes).
/// Every numeric field is `u64` so the struct serializes uniformly into
/// wire snapshots and text expositions regardless of platform `usize`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeMetrics {
    /// Queries drained (evaluated **or** retired as expired).
    pub queries: u64,
    /// Coalesced groups evaluated (one tape pass per bundle member each).
    pub groups: u64,
    /// Largest coalesced group.
    pub max_group: u64,
    /// Deadline queries evaluated and answered within their budget.
    pub deadline_met: u64,
    /// Deadline queries evaluated, but the answer landed after the budget.
    pub deadline_missed: u64,
    /// Deadline queries already overdue at dequeue — answered
    /// [`ServeError::DeadlineExceeded`] without a tape pass.
    pub deadline_expired: u64,
    /// Tape passes run by the member sessions, summed over workers.
    pub tape_passes: u64,
}

/// The dynamic micro-batching server over one loaded [`ModelBundle`].
///
/// Cheap to construct (it borrows the bundle and owns only the config);
/// every [`DynamicBatcher::serve`] call runs its own queue and scoped
/// worker threads and returns when the stream is fully drained.
#[derive(Debug)]
pub struct DynamicBatcher<'m> {
    bundle: &'m ModelBundle,
    cfg: ServeConfig,
    telemetry: Option<Arc<Telemetry>>,
}

impl<'m> DynamicBatcher<'m> {
    /// A batcher over `bundle` with explicit tuning.
    pub fn new(bundle: &'m ModelBundle, cfg: ServeConfig) -> Self {
        DynamicBatcher {
            bundle,
            cfg,
            telemetry: None,
        }
    }

    /// The same batcher recording into `telemetry`: queue-wait and
    /// tape-evaluation latency histograms, batch/group-size histograms,
    /// and the session pass counters. Recording is relaxed atomics only
    /// and never changes drained bytes.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The bundle this batcher serves.
    pub fn bundle(&self) -> &'m ModelBundle {
        self.bundle
    }

    /// The active tuning.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Validates a query stream against the bundle (space and device
    /// range), so worker threads can assume well-formed input.
    fn validate(&self, queries: &[ServeQuery]) -> Result<(), ServeError> {
        let space = self.bundle.space();
        let num_devices = self.bundle.devices().len();
        for (i, q) in queries.iter().enumerate() {
            if q.arch.space() != space {
                return Err(ServeError::BadQuery(format!(
                    "query {i} is a {:?} architecture; the bundle serves {space:?}",
                    q.arch.space()
                )));
            }
            if q.device >= num_devices {
                return Err(ServeError::BadQuery(format!(
                    "query {i} targets device {} but the bundle has {num_devices} devices",
                    q.device
                )));
            }
        }
        Ok(())
    }

    /// Drains `queries` through the queue and returns their scores **in
    /// input order**, bitwise identical to
    /// [`ModelBundle::predict_one`] per query.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] describing the first malformed query (wrong
    /// space, device index out of range); validation happens before
    /// anything is enqueued. [`ServeError::DeadlineExceeded`] if any
    /// deadline query was overdue at dequeue — use
    /// [`DynamicBatcher::serve_each`] to keep the rest of the stream.
    pub fn serve(&self, queries: &[ServeQuery]) -> Result<Vec<f32>, ServeError> {
        self.serve_with_metrics(queries).map(|(scores, _)| scores)
    }

    /// [`DynamicBatcher::serve`] plus the drain's [`ServeMetrics`].
    ///
    /// # Errors
    /// Same conditions as [`DynamicBatcher::serve`].
    pub fn serve_with_metrics(
        &self,
        queries: &[ServeQuery],
    ) -> Result<(Vec<f32>, ServeMetrics), ServeError> {
        let (results, metrics) = self.serve_each_with_metrics(queries)?;
        let mut scores = Vec::with_capacity(results.len());
        for r in results {
            scores.push(r?);
        }
        Ok((scores, metrics))
    }

    /// Drains `queries` and returns a per-slot verdict **in input order**:
    /// `Ok(score)` (bitwise [`ModelBundle::predict_one`]) or
    /// [`ServeError::DeadlineExceeded`] for a deadline query that was
    /// already overdue when a worker dequeued it. Deadline budgets are
    /// relative to the start of the drain; best-effort queries never fail.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] describing the first malformed query (wrong
    /// space, device index out of range); validation happens before
    /// anything is enqueued. Per-slot outcomes are *not* stream errors.
    pub fn serve_each(
        &self,
        queries: &[ServeQuery],
    ) -> Result<Vec<Result<f32, ServeError>>, ServeError> {
        self.serve_each_with_metrics(queries).map(|(r, _)| r)
    }

    /// [`DynamicBatcher::serve_each`] plus the drain's [`ServeMetrics`].
    ///
    /// # Errors
    /// Same conditions as [`DynamicBatcher::serve_each`].
    pub fn serve_each_with_metrics(
        &self,
        queries: &[ServeQuery],
    ) -> Result<(Vec<Result<f32, ServeError>>, ServeMetrics), ServeError> {
        self.validate(queries)?;
        if queries.is_empty() {
            return Ok((Vec::new(), ServeMetrics::default()));
        }
        let coalesce = self.cfg.batch.max(1);
        // Deadline budgets are relative to this instant: the drain starts
        // now, and a query's deadline is `start + deadline_ms`.
        let start = Instant::now();
        // Items carry their enqueue instant so workers can histogram the
        // queue wait without a side table.
        let (tx, rx) = sync_channel::<(usize, &ServeQuery, Instant)>(self.cfg.queue_depth.max(1));
        let rx = Mutex::new(rx);
        let bundle = self.bundle;
        let telemetry = self.telemetry.as_deref();
        // Live-consumer count, decremented even on unwind: the feeder must
        // never block on a queue nobody will drain, or a worker panic would
        // become a permanent hang instead of propagating at join.
        let workers = self.cfg.workers.max(1);
        let alive = AtomicUsize::new(workers);
        let alive = &alive;

        let (per_worker, ()) = nasflat_parallel::with_workers(
            workers,
            |_id| {
                struct AliveGuard<'a>(&'a AtomicUsize);
                impl Drop for AliveGuard<'_> {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::Release);
                    }
                }
                let _alive = AliveGuard(alive);
                let mut sessions = bundle.open_sessions();
                let mut scored: Vec<(usize, Result<f32, ServeError>)> = Vec::new();
                let mut metrics = ServeMetrics::default();
                let mut group: Vec<(usize, &ServeQuery, Instant)> = Vec::with_capacity(coalesce);
                let mut live: Vec<(usize, &ServeQuery, Option<Instant>)> =
                    Vec::with_capacity(coalesce);
                let mut archs: Vec<&Arch> = Vec::with_capacity(coalesce);
                let mut devices: Vec<usize> = Vec::with_capacity(coalesce);
                loop {
                    group.clear();
                    {
                        // Hold the receiver only while *collecting*: block
                        // for the first request, then grab whatever else is
                        // already waiting, up to the coalescing limit.
                        let guard = rx.lock().expect("receiver lock");
                        match guard.recv() {
                            Ok(first) => group.push(first),
                            Err(_) => break, // producer done, queue drained
                        }
                        while group.len() < coalesce {
                            match guard.try_recv() {
                                Ok(next) => group.push(next),
                                Err(_) => break,
                            }
                        }
                    }
                    // Retire overdue deadline queries before spending a
                    // tape pass; best-effort queries (None) never expire.
                    let now = Instant::now();
                    if let Some(t) = telemetry {
                        t.observe_batch_size(group.len() as u64);
                        for &(_, _, enqueued) in &group {
                            t.observe_queue_wait(now.duration_since(enqueued).as_micros() as u64);
                        }
                    }
                    live.clear();
                    for &(i, q, _) in &group {
                        let deadline = q
                            .deadline_ms
                            .map(|ms| start + Duration::from_millis(ms as u64));
                        match deadline {
                            Some(d) if now > d => {
                                let missed_by_ms = now
                                    .saturating_duration_since(d)
                                    .as_millis()
                                    .min(u32::MAX as u128)
                                    as u32;
                                metrics.queries += 1;
                                metrics.deadline_expired += 1;
                                scored
                                    .push((i, Err(ServeError::DeadlineExceeded { missed_by_ms })));
                            }
                            _ => live.push((i, q, deadline)),
                        }
                    }
                    if live.is_empty() {
                        continue;
                    }
                    archs.clear();
                    devices.clear();
                    archs.extend(live.iter().map(|(_, q, _)| &q.arch));
                    devices.extend(live.iter().map(|(_, q, _)| q.device));
                    let eval_start = Instant::now();
                    let scores = bundle.score_batch_in(&mut sessions, &archs, &devices);
                    metrics.queries += live.len() as u64;
                    metrics.groups += 1;
                    metrics.max_group = metrics.max_group.max(live.len() as u64);
                    let finished = Instant::now();
                    if let Some(t) = telemetry {
                        t.observe_eval(finished.duration_since(eval_start).as_micros() as u64);
                        t.observe_group_size(live.len() as u64);
                    }
                    for (&(i, _, deadline), score) in live.iter().zip(scores) {
                        if let Some(d) = deadline {
                            if finished <= d {
                                metrics.deadline_met += 1;
                            } else {
                                metrics.deadline_missed += 1;
                            }
                        }
                        scored.push((i, Ok(score)));
                    }
                }
                metrics.tape_passes = sessions.iter().map(|s| s.passes() as u64).sum();
                if let Some(t) = telemetry {
                    t.add_tape_passes(metrics.tape_passes);
                }
                (scored, metrics)
            },
            move || {
                // Feed with try_send instead of a blocking send: the
                // Receiver lives in this frame (not in the workers), so if
                // every worker died — e.g. a panic poisoning the receiver
                // mutex — a blocked send would never return. Backing off
                // (a few yields, then short sleeps, so a full queue parks
                // the feeder instead of burning a core) while checking the
                // live-consumer count keeps the feeder responsive and lets
                // a worker panic propagate at join instead of deadlocking.
                'feed: for mut item in queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| (i, q, Instant::now()))
                {
                    let mut spins = 0u32;
                    loop {
                        match tx.try_send(item) {
                            Ok(()) => break,
                            Err(TrySendError::Full(back)) => {
                                if alive.load(Ordering::Acquire) == 0 {
                                    break 'feed; // join below re-raises the panic
                                }
                                item = back;
                                if spins < 16 {
                                    spins += 1;
                                    std::thread::yield_now();
                                } else {
                                    std::thread::sleep(std::time::Duration::from_micros(50));
                                }
                            }
                            Err(TrySendError::Disconnected(_)) => break 'feed,
                        }
                    }
                }
                // tx drops here: workers drain the queue and exit.
                drop(tx);
            },
        );

        let mut results: Vec<Option<Result<f32, ServeError>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut metrics = ServeMetrics::default();
        let mut delivered = 0usize;
        for (scored, m) in per_worker {
            metrics.queries += m.queries;
            metrics.groups += m.groups;
            metrics.max_group = metrics.max_group.max(m.max_group);
            metrics.deadline_met += m.deadline_met;
            metrics.deadline_missed += m.deadline_missed;
            metrics.deadline_expired += m.deadline_expired;
            metrics.tape_passes += m.tape_passes;
            for (i, s) in scored {
                results[i] = Some(s);
                delivered += 1;
            }
        }
        debug_assert_eq!(delivered, queries.len(), "every query answered once");
        let results = results
            .into_iter()
            .map(|r| r.expect("every query answered once"))
            .collect();
        Ok((results, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ModelBundle;
    use nasflat_core::{LatencyPredictor, PredictorConfig};
    use nasflat_space::Space;

    fn bundle() -> ModelBundle {
        let mut cfg = PredictorConfig::quick();
        cfg.op_dim = 8;
        cfg.hw_dim = 8;
        cfg.node_dim = 8;
        cfg.ophw_gnn_dims = vec![12];
        cfg.ophw_mlp_dims = vec![12];
        cfg.gnn_dims = vec![12];
        cfg.head_dims = vec![16];
        let devices = vec!["a".into(), "b".into(), "c".into(), "d".into()];
        ModelBundle::single(LatencyPredictor::new(Space::Nb201, devices, 0, cfg)).unwrap()
    }

    fn queries(n: usize) -> Vec<ServeQuery> {
        (0..n)
            .map(|i| ServeQuery::new(Arch::nb201_from_index((i as u64 * 547) % 15625), i % 4))
            .collect()
    }

    #[test]
    fn empty_stream_serves_empty() {
        let b = bundle();
        let batcher = DynamicBatcher::new(&b, ServeConfig::builder().build());
        let (scores, metrics) = batcher.serve_with_metrics(&[]).unwrap();
        assert!(scores.is_empty());
        assert_eq!(metrics.queries, 0);
    }

    #[test]
    fn malformed_queries_are_rejected_before_enqueue() {
        let b = bundle();
        let batcher = DynamicBatcher::new(&b, ServeConfig::builder().build());
        let bad_device = vec![ServeQuery::new(Arch::nb201_from_index(0), 99)];
        assert!(matches!(
            batcher.serve(&bad_device).unwrap_err(),
            ServeError::BadQuery(d) if d.contains("device 99")
        ));
        let bad_space = vec![ServeQuery::new(Arch::new(Space::Fbnet, vec![4; 22]), 0)];
        assert!(matches!(
            batcher.serve(&bad_space).unwrap_err(),
            ServeError::BadQuery(d) if d.contains("Fbnet")
        ));
    }

    #[test]
    fn metrics_account_for_every_query() {
        let b = bundle();
        let qs = queries(64);
        let cfg = ServeConfig::builder().workers(2).batch(8).build();
        let batcher = DynamicBatcher::new(&b, cfg);
        let (scores, metrics) = batcher.serve_with_metrics(&qs).unwrap();
        assert_eq!(scores.len(), 64);
        assert_eq!(metrics.queries, 64);
        assert!(metrics.groups >= 64u64.div_ceil(8));
        assert!(metrics.max_group <= 8);
        // For a single-member bundle, every coalesced group is exactly one
        // tape pass, singletons included.
        assert_eq!(metrics.tape_passes, metrics.groups);
    }

    #[test]
    fn telemetry_observes_the_drain_without_changing_bytes() {
        let b = bundle();
        let qs = queries(48);
        let cfg = ServeConfig::builder().workers(2).batch(8).build();
        let plain = DynamicBatcher::new(&b, cfg.clone()).serve(&qs).unwrap();
        let telemetry = Arc::new(Telemetry::new(16));
        let observed = DynamicBatcher::new(&b, cfg)
            .with_telemetry(Arc::clone(&telemetry))
            .serve_with_metrics(&qs)
            .unwrap();
        // Bit-invisible: identical scores with and without recording.
        for (a, b) in plain.iter().zip(&observed.0) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let metrics = observed.1;
        // The histograms balance the drain's ledger exactly: one queue-wait
        // observation per query, one eval/group-size observation per group,
        // and the group sizes sum back to the query count.
        assert_eq!(telemetry.queue_wait().count, metrics.queries);
        assert_eq!(telemetry.eval().count, metrics.groups);
        assert_eq!(telemetry.group_sizes().count, metrics.groups);
        assert_eq!(telemetry.group_sizes().sum, metrics.queries);
        assert_eq!(
            telemetry.tape_passes(),
            metrics.tape_passes,
            "session pass counts aggregate into telemetry exactly"
        );
    }

    #[test]
    fn deadline_queries_expire_or_meet_deterministically() {
        let b = bundle();
        let cfg = ServeConfig::builder().workers(2).batch(8).build();
        let batcher = DynamicBatcher::new(&b, cfg);
        // Budget 0: the deadline equals the drain start, so any strictly
        // later dequeue sees the query overdue — deterministic expiry.
        let expired: Vec<ServeQuery> = queries(8)
            .into_iter()
            .map(|q| q.with_deadline_ms(0))
            .collect();
        let (results, metrics) = batcher.serve_each_with_metrics(&expired).unwrap();
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(ServeError::DeadlineExceeded { .. }))));
        assert_eq!(metrics.deadline_expired, 8);
        assert_eq!(metrics.queries, 8);
        assert_eq!(metrics.groups, 0, "no tape pass for expired queries");
        // The Vec<f32> entry points propagate the first per-slot failure.
        assert!(matches!(
            batcher.serve(&expired).unwrap_err(),
            ServeError::DeadlineExceeded { .. }
        ));
        // Generous budgets: every query evaluates, bitwise the best-effort
        // answers, and counts as met.
        let generous: Vec<ServeQuery> = queries(16)
            .into_iter()
            .map(|q| q.with_deadline_ms(600_000))
            .collect();
        let (results, metrics) = batcher.serve_each_with_metrics(&generous).unwrap();
        let baseline = batcher.serve(&queries(16)).unwrap();
        for (r, want) in results.iter().zip(&baseline) {
            assert_eq!(r.as_ref().unwrap().to_bits(), want.to_bits());
        }
        assert_eq!(metrics.deadline_met, 16);
        assert_eq!(metrics.deadline_missed + metrics.deadline_expired, 0);
    }
}
