//! In-process serving: a query slice cut into
//! [`ServeConfig::batch`]-sized chunks and answered on the serving engine.
//!
//! The input is already in memory, so no queue sits in between:
//! [`DynamicBatcher::serve`] validates the slice, cuts it into chunks of
//! up to [`ServeConfig::batch`] queries, and [`ServeConfig::workers`]
//! workers of [`nasflat_parallel::par_map_with`] claim the chunks in
//! order. Each chunk is one drain of the engine that also answers the TCP
//! ingress: expired deadline queries are retired without a pass, and the
//! rest run as **one mixed-device multi-query tape pass** per bundle
//! member. Deadline budgets are relative to the start of the call.
//!
//! The chunks are fixed by the input order, so which queries share a pass
//! does not depend on timing, and results are bitwise a sequential
//! per-query loop at any worker count or batch limit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nasflat_space::Arch;

use crate::bundle::ModelBundle;
use crate::config::ServeConfig;
use crate::engine::{self, Query};
use crate::error::ServeError;
use crate::sched::{Drain, QueueEntry};
use crate::telemetry::{ServeMetrics, Telemetry};

/// One latency query: an architecture and the device (embedding row of the
/// bundle's device list) to predict it on.
#[derive(Debug, Clone)]
pub struct ServeQuery {
    /// The architecture to score.
    pub arch: Arch,
    /// Device index into the serving bundle's ordered device list.
    pub device: usize,
    /// Relative deadline budget, milliseconds, measured from the start of
    /// the call; `None` = best-effort (never expires). A query overdue
    /// when its chunk is drained is answered
    /// [`ServeError::DeadlineExceeded`] without a tape pass — visible
    /// through [`DynamicBatcher::serve_each`]; the `Vec<f32>` entry points
    /// propagate the first such failure.
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

/// One validated in-process query as the engine sees it: its input slot,
/// the model it is pinned to, and what to ask.
#[derive(Clone, Copy)]
pub(crate) struct Slot<'a> {
    pub index: usize,
    /// The engine's grouping key: one value per pinned model version.
    pub version: u64,
    pub bundle: &'a ModelBundle,
    pub arch: &'a Arch,
    pub device: usize,
    pub deadline_ms: Option<u32>,
}

impl Query for Slot<'_> {
    fn model(&self) -> (u64, &ModelBundle) {
        (self.version, self.bundle)
    }

    fn query(&self) -> (&Arch, usize) {
        (self.arch, self.device)
    }
}

/// Answers `slots` on the engine, one `cfg.batch`-sized chunk per drain
/// into `ledger`, on up to `cfg.workers` workers; budgets are relative to
/// the start of the call. `credit(version, served)` runs once per
/// evaluated group. Returns the answers in [`Slot::index`] order (the
/// indices must cover `0..slots.len()`).
pub(crate) fn drain_slots(
    cfg: &ServeConfig,
    slots: &[Slot<'_>],
    ledger: &Telemetry,
    credit: impl Fn(u64, u64) + Sync,
) -> Vec<Result<f32, ServeError>> {
    let start = Instant::now();
    let chunks: Vec<&[Slot<'_>]> = slots.chunks(cfg.batch.max(1)).collect();
    // Workers claim chunks in order, so a slow chunk never leaves a
    // worker's statically assigned share waiting behind it.
    let next = AtomicUsize::new(0);
    let workers: Vec<usize> = (0..cfg.workers.clamp(1, chunks.len().max(1))).collect();
    let per_worker = nasflat_parallel::par_map_with(workers.len(), &workers, |_| {
        let mut answered = Vec::new();
        while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
            let now = Instant::now();
            let (expired, live) = chunk
                .iter()
                .map(|&slot| QueueEntry {
                    item: slot,
                    deadline: slot
                        .deadline_ms
                        .map(|ms| start + Duration::from_millis(ms as u64)),
                    admitted: start,
                })
                .partition(|e| e.deadline.is_some_and(|d| now > d));
            engine::evaluate(Drain { live, expired }, now, ledger, |answers| {
                let served = answers.iter().filter(|a| a.result.is_ok()).count() as u64;
                if served > 0 {
                    credit(answers[0].entry.item.version, served);
                }
                answered.extend(answers.into_iter().map(|a| (a.entry.item.index, a.result)));
            });
        }
        answered
    });
    let mut answered: Vec<_> = per_worker.into_iter().flatten().collect();
    assert_eq!(answered.len(), slots.len(), "every query answered once");
    answered.sort_unstable_by_key(|&(index, _)| index);
    answered.into_iter().map(|(_, result)| result).collect()
}

/// The in-process server over one loaded [`ModelBundle`].
///
/// Cheap to construct (it borrows the bundle and owns only the config);
/// every call runs its own scoped workers and returns when the slice is
/// fully answered.
#[derive(Debug)]
pub struct DynamicBatcher<'m> {
    bundle: &'m ModelBundle,
    cfg: ServeConfig,
}

impl<'m> DynamicBatcher<'m> {
    /// A batcher over `bundle` with explicit tuning.
    pub fn new(bundle: &'m ModelBundle, cfg: ServeConfig) -> Self {
        DynamicBatcher { bundle, cfg }
    }

    /// The bundle this batcher serves.
    pub fn bundle(&self) -> &'m ModelBundle {
        self.bundle
    }

    /// The active tuning.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Answers `queries` and returns their scores **in input order**,
    /// bitwise identical to [`ModelBundle::predict_one`] per query.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] describing the first malformed query (wrong
    /// space, device index out of range); validation happens before
    /// anything runs. [`ServeError::DeadlineExceeded`] if any deadline
    /// query was overdue when drained — use [`DynamicBatcher::serve_each`]
    /// to keep the rest of the slice.
    pub fn serve(&self, queries: &[ServeQuery]) -> Result<Vec<f32>, ServeError> {
        self.serve_with_metrics(queries).map(|(scores, _)| scores)
    }

    /// [`DynamicBatcher::serve`] plus the call's [`ServeMetrics`].
    ///
    /// # Errors
    /// Same conditions as [`DynamicBatcher::serve`].
    pub fn serve_with_metrics(
        &self,
        queries: &[ServeQuery],
    ) -> Result<(Vec<f32>, ServeMetrics), ServeError> {
        let (results, metrics) = self.serve_each_with_metrics(queries)?;
        let scores = results.into_iter().collect::<Result<_, _>>()?;
        Ok((scores, metrics))
    }

    /// Answers `queries` with a per-slot verdict **in input order**:
    /// `Ok(score)` (bitwise [`ModelBundle::predict_one`]) or
    /// [`ServeError::DeadlineExceeded`] for a deadline query that was
    /// already overdue when its chunk was drained. Deadline budgets are
    /// relative to the start of the call; best-effort queries never fail.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] describing the first malformed query (wrong
    /// space, device index out of range); validation happens before
    /// anything runs. Per-slot outcomes are *not* stream errors.
    pub fn serve_each(
        &self,
        queries: &[ServeQuery],
    ) -> Result<Vec<Result<f32, ServeError>>, ServeError> {
        self.serve_each_with_metrics(queries).map(|(r, _)| r)
    }

    /// [`DynamicBatcher::serve_each`] plus the call's [`ServeMetrics`],
    /// read off a fresh ledger.
    ///
    /// # Errors
    /// Same conditions as [`DynamicBatcher::serve_each`].
    pub fn serve_each_with_metrics(
        &self,
        queries: &[ServeQuery],
    ) -> Result<(Vec<Result<f32, ServeError>>, ServeMetrics), ServeError> {
        let slots = queries
            .iter()
            .enumerate()
            .map(|(index, q)| {
                self.bundle
                    .check_query(&q.arch, q.device)
                    .map_err(|e| match e {
                        ServeError::BadQuery(d) => {
                            ServeError::BadQuery(format!("query {index}: {d}"))
                        }
                        other => other,
                    })?;
                Ok(Slot {
                    index,
                    version: 0,
                    bundle: self.bundle,
                    arch: &q.arch,
                    device: q.device,
                    deadline_ms: q.deadline_ms,
                })
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        let ledger = Telemetry::disabled();
        let results = drain_slots(&self.cfg, &slots, &ledger, |_, _| {});
        Ok((results, ledger.metrics()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(metrics.queries_served, 0);
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
        assert_eq!(metrics.queries_served, 64);
        assert!(metrics.groups >= 64u64.div_ceil(8));
        assert!(metrics.max_group <= 8);
        // For a single-member bundle, every coalesced group is exactly one
        // tape pass, singletons included.
        assert_eq!(metrics.tape_passes, metrics.groups);
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
        assert_eq!(metrics.queries_served, 0);
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
