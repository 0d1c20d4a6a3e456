//! The serving engine: the one function that answers a drained group of
//! queries.
//!
//! Both serving paths end here. A TCP ingress worker hands [`evaluate`]
//! what it popped off the [`DeadlineQueue`](crate::DeadlineQueue); the
//! in-process [`PredictorRegistry::serve_requests`] hands it one
//! `batch`-sized chunk of its input slice at a time through
//! [`drain_slots`]. The engine then:
//!
//! 1. answers expired entries with [`ServeError::DeadlineExceeded`]
//!    without running a pass;
//! 2. groups live entries by model version, in pop order;
//! 3. opens member sessions per group and scores the group as one
//!    mixed-device multi-query tape pass per member;
//! 4. records the stage histograms and deadline verdicts and credits the
//!    [`Telemetry`] ledger;
//! 5. hands that group's answers to the caller right away.
//!
//! Sessions are opened per group, not kept per worker: opening them is
//! part of the batch-assembly stage, which stays below a microsecond
//! against a tape pass of tens to hundreds of microseconds.
//!
//! In process, the input is already in memory, so no queue sits in
//! between: [`drain_slots`] cuts the slice into chunks of up to
//! [`ServeConfig::batch`] queries, and [`ServeConfig::workers`] workers of
//! [`nasflat_parallel::par_map_with`] claim the chunks in order. The chunks
//! are fixed by the input order, so which queries share a pass does not
//! depend on timing, and results are bitwise a sequential per-query loop
//! at any worker count or batch limit.
//!
//! [`PredictorRegistry::serve_requests`]: crate::PredictorRegistry::serve_requests

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nasflat_space::Arch;

use crate::bundle::ModelBundle;
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::sched::{Drain, QueueEntry};
use crate::telemetry::{DeadlineVerdict, Telemetry};

/// A query the engine can score.
pub(crate) trait Query {
    /// The model version the query is pinned to (the grouping key) and
    /// its bundle.
    fn model(&self) -> (u64, &ModelBundle);
    /// The architecture and device index to score.
    fn query(&self) -> (&Arch, usize);
}

/// One entry's outcome, handed to the caller of [`evaluate`].
pub(crate) struct Answer<T> {
    pub entry: QueueEntry<T>,
    /// The score (bitwise [`ModelBundle::predict_one`]) or the expiry.
    pub result: Result<f32, ServeError>,
    pub verdict: DeadlineVerdict,
    /// When the entry's tape pass finished; `None` for expired entries.
    pub evaluated: Option<Instant>,
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Answers one drain that left its queue at `dequeued` (see the module
/// docs). `deliver` runs once for the expired entries, if any, then once
/// per same-model group, each time after the ledger has been credited.
pub(crate) fn evaluate<T: Query>(
    drain: Drain<T>,
    dequeued: Instant,
    ledger: &Telemetry,
    mut deliver: impl FnMut(Vec<Answer<T>>),
) {
    // Every popped entry, expired or live, waited until `dequeued`, so the
    // queue-wait histogram counts `queries_served + deadline_expired`.
    let wait = |e: &QueueEntry<T>| micros(dequeued.saturating_duration_since(e.admitted));
    if !drain.expired.is_empty() {
        ledger.credit_expired(drain.expired.len() as u64);
        let answers = drain
            .expired
            .into_iter()
            .map(|entry| {
                ledger.observe_queue_wait(wait(&entry));
                let missed_by_ms = entry.deadline.map_or(0, |d| {
                    dequeued
                        .saturating_duration_since(d)
                        .as_millis()
                        .min(u32::MAX as u128) as u32
                });
                Answer {
                    entry,
                    result: Err(ServeError::DeadlineExceeded { missed_by_ms }),
                    verdict: DeadlineVerdict::Expired,
                    evaluated: None,
                }
            })
            .collect();
        deliver(answers);
    }
    let mut live = drain.live;
    if live.is_empty() {
        return;
    }
    ledger.observe_batch_size(live.len() as u64);
    for entry in &live {
        ledger.observe_queue_wait(wait(entry));
    }
    while !live.is_empty() {
        let assembly_start = Instant::now();
        // Stable split: the group keeps pop order, and so does the rest.
        let version = live[0].item.model().0;
        let (group, rest): (Vec<_>, Vec<_>) =
            live.into_iter().partition(|e| e.item.model().0 == version);
        live = rest;
        let bundle = group[0].item.model().1;
        let (archs, devices): (Vec<&Arch>, Vec<usize>) =
            group.iter().map(|e| e.item.query()).unzip();
        let mut sessions = bundle.open_sessions();
        let eval_start = Instant::now();
        let scores = bundle.score_batch_in(&mut sessions, &archs, &devices);
        let finished = Instant::now();
        let passes = sessions.iter().map(|s| s.passes() as u64).sum();
        drop((sessions, archs));
        ledger.observe_assembly(micros(eval_start - assembly_start));
        ledger.observe_eval(micros(finished - eval_start));
        ledger.observe_group_size(group.len() as u64);
        // A query evaluated late still gets its score, but counts as missed.
        let answers: Vec<Answer<T>> = group
            .into_iter()
            .zip(scores)
            .map(|(entry, score)| Answer {
                verdict: match entry.deadline {
                    Some(d) if finished <= d => DeadlineVerdict::Met,
                    Some(_) => DeadlineVerdict::Missed,
                    None => DeadlineVerdict::BestEffort,
                },
                entry,
                result: Ok(score),
                evaluated: Some(finished),
            })
            .collect();
        let count = |v| answers.iter().filter(|a| a.verdict == v).count() as u64;
        ledger.credit_group(
            answers.len() as u64,
            passes,
            count(DeadlineVerdict::Met),
            count(DeadlineVerdict::Missed),
        );
        deliver(answers);
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
            evaluate(Drain { live, expired }, now, ledger, |answers| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_core::{LatencyPredictor, PredictorConfig};
    use nasflat_space::Space;

    fn bundle(seed: u64) -> ModelBundle {
        let mut cfg = PredictorConfig::quick().with_seed(seed);
        cfg.op_dim = 8;
        cfg.hw_dim = 8;
        cfg.node_dim = 8;
        cfg.ophw_gnn_dims = vec![12];
        cfg.ophw_mlp_dims = vec![12];
        cfg.gnn_dims = vec![12];
        cfg.head_dims = vec![16];
        let devices = vec!["a".into(), "b".into(), "c".into()];
        ModelBundle::single(LatencyPredictor::new(Space::Nb201, devices, 0, cfg)).unwrap()
    }

    #[test]
    fn one_drain_answers_every_entry_once_and_balances_the_ledger() {
        let models = [bundle(1), bundle(2)];
        let archs: Vec<Arch> = (0..10u64)
            .map(|i| Arch::nb201_from_index(i * 611 % 15_625))
            .collect();
        let admitted = Instant::now();
        let dequeued = admitted + Duration::from_millis(2);
        // Odd slots ask model version 2, even slots version 1; every third
        // slot carries a deadline.
        let entry = |i: usize, deadline: Option<Instant>| QueueEntry {
            item: Slot {
                index: i,
                version: (i % 2) as u64 + 1,
                bundle: &models[i % 2],
                arch: &archs[i],
                device: i % 3,
                deadline_ms: None,
            },
            deadline,
            admitted,
        };
        let drain = Drain {
            expired: (0..3).map(|i| entry(i, Some(admitted))).collect(),
            live: (3..10)
                .map(|i| entry(i, (i % 3 == 0).then(|| admitted + Duration::from_secs(600))))
                .collect(),
        };
        let ledger = Telemetry::new(0);
        let mut answered = [0usize; 10];
        let mut deliveries = 0;
        evaluate(drain, dequeued, &ledger, |answers| {
            deliveries += 1;
            for answer in answers {
                let slot = answer.entry.item;
                answered[slot.index] += 1;
                match answer.result {
                    Ok(score) => {
                        assert!(slot.index >= 3, "expired slot {} evaluated", slot.index);
                        let want = slot.bundle.predict_one(slot.arch, slot.device);
                        assert_eq!(score.to_bits(), want.to_bits());
                        assert!(answer.evaluated.is_some());
                    }
                    Err(ServeError::DeadlineExceeded { missed_by_ms }) => {
                        assert!(slot.index < 3, "live slot {} expired", slot.index);
                        assert_eq!(missed_by_ms, 2);
                        assert_eq!(answer.verdict, DeadlineVerdict::Expired);
                    }
                    Err(e) => panic!("unexpected failure: {e}"),
                }
            }
        });
        assert_eq!(answered, [1; 10], "exactly one answer per entry");
        assert_eq!(deliveries, 3, "the expired entries, then one per version");

        let m = ledger.metrics();
        assert_eq!(m.queries_served + m.deadline_expired, 10);
        assert_eq!(m.deadline_expired, 3);
        assert_eq!(m.groups, 2);
        assert_eq!(ledger.group_sizes().sum, m.queries_served);
        assert_eq!(
            ledger.batch_sizes().sum,
            7,
            "one drain of seven live entries"
        );
        assert_eq!(ledger.queue_wait().count, 10);
        assert_eq!(m.tape_passes, m.groups, "single-member bundles");
        assert_eq!((m.deadline_met, m.deadline_missed), (3, 0));
    }

    /// `n` best-effort slots over `bundle`, cycling its three devices.
    fn slots<'a>(bundle: &'a ModelBundle, archs: &'a [Arch]) -> Vec<Slot<'a>> {
        archs
            .iter()
            .enumerate()
            .map(|(index, arch)| Slot {
                index,
                version: 0,
                bundle,
                arch,
                device: index % 3,
                deadline_ms: None,
            })
            .collect()
    }

    fn archs(n: usize) -> Vec<Arch> {
        (0..n)
            .map(|i| Arch::nb201_from_index((i as u64 * 547) % 15_625))
            .collect()
    }

    #[test]
    fn empty_stream_serves_empty() {
        let ledger = Telemetry::new(0);
        let cfg = ServeConfig::builder().build();
        assert!(drain_slots(&cfg, &[], &ledger, |_, _| {}).is_empty());
        assert_eq!(ledger.metrics().queries_served, 0);
    }

    #[test]
    fn metrics_account_for_every_query() {
        let b = bundle(3);
        let archs = archs(256);
        let slots = slots(&b, &archs);
        for batch in [1usize, 7, 16] {
            let ledger = Telemetry::new(0);
            let cfg = ServeConfig::builder().workers(2).batch(batch).build();
            let credited = AtomicUsize::new(0);
            let results = drain_slots(&cfg, &slots, &ledger, |_, served| {
                credited.fetch_add(served as usize, Ordering::Relaxed);
            });
            for (slot, r) in slots.iter().zip(&results) {
                let want = b.predict_one(slot.arch, slot.device);
                assert_eq!(r.as_ref().unwrap().to_bits(), want.to_bits());
            }
            let m = ledger.metrics();
            assert_eq!(m.queries_served, 256);
            assert_eq!(credited.into_inner(), 256);
            assert!(m.groups >= 256u64.div_ceil(batch as u64));
            assert!(m.max_group <= batch as u64, "batch {batch}");
            // For a single-member bundle, every coalesced group is exactly
            // one tape pass, singletons included.
            assert_eq!(m.tape_passes, m.groups);
            if batch == 1 {
                assert_eq!(m.tape_passes, 256);
            }
        }
    }

    #[test]
    fn deadline_queries_expire_or_meet_deterministically() {
        let b = bundle(4);
        let cfg = ServeConfig::builder().workers(2).batch(8).build();
        // Budget 0: the deadline equals the drain start, so any strictly
        // later dequeue sees the query overdue — deterministic expiry.
        let archs = archs(16);
        let with_budget = |ms: u32| -> Vec<Slot<'_>> {
            slots(&b, &archs)
                .into_iter()
                .map(|s| Slot {
                    deadline_ms: Some(ms),
                    ..s
                })
                .collect()
        };
        let ledger = Telemetry::new(0);
        let results = drain_slots(&cfg, &with_budget(0)[..8], &ledger, |_, _| {});
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(ServeError::DeadlineExceeded { .. }))));
        let m = ledger.metrics();
        assert_eq!(m.deadline_expired, 8);
        assert_eq!(m.queries_served, 0);
        assert_eq!(m.groups, 0, "no tape pass for expired queries");
        // Generous budgets: every query evaluates, bitwise the best-effort
        // answers, and counts as met.
        let ledger = Telemetry::new(0);
        let results = drain_slots(&cfg, &with_budget(600_000), &ledger, |_, _| {});
        let baseline = drain_slots(&cfg, &slots(&b, &archs), &ledger, |_, _| {});
        for (r, want) in results.iter().zip(&baseline) {
            assert_eq!(
                r.as_ref().unwrap().to_bits(),
                want.as_ref().unwrap().to_bits()
            );
        }
        let m = ledger.metrics();
        assert_eq!(m.deadline_met, 16);
        assert_eq!(m.deadline_missed + m.deadline_expired, 0);
    }
}
