//! The serving engine: the one function that answers a drained group of
//! queries.
//!
//! Both serving paths end here. A TCP ingress worker hands [`evaluate`]
//! what it popped off the [`DeadlineQueue`](crate::DeadlineQueue); the
//! in-process [`DynamicBatcher`](crate::DynamicBatcher) hands it one
//! `batch`-sized chunk of its input slice. The engine then:
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

use std::time::{Duration, Instant};

use nasflat_space::Arch;

use crate::bundle::ModelBundle;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::Slot;
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
}
