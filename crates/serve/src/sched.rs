//! Deadline-aware scheduling: the bounded priority queue behind the
//! ingress.
//!
//! [`DeadlineQueue`] replaces the ingress's former FIFO `sync_channel` with
//! a bounded, shutdown-aware priority queue ordered by **earliest absolute
//! deadline with an anti-starvation aging term**. Requests carry an
//! optional relative budget (`deadline_ms` on the wire); best-effort
//! requests (no budget) are ordered as if they carried the configured
//! default budget but **never expire**.
//!
//! # The priority key
//!
//! Earliest-deadline-first with aging means a request's urgency at time
//! `t` is
//!
//! ```text
//! urgency(t) = (deadline − t) − boost · (t − arrival)      (lower = sooner)
//! ```
//!
//! — the remaining slack, minus a bonus that grows the longer the request
//! has waited. Comparing two requests, the `−t·(1 + boost)` term is common
//! to both and cancels, so the order is **time-invariant** and one static
//! key per entry suffices:
//!
//! ```text
//! key = arrival_us · (1 + boost) + budget_us               (lower pops first)
//! ```
//!
//! `boost = 0` is pure EDF. Raising `boost` weights waiting time more
//! heavily, sliding the order toward FIFO — a flood of tight-budget
//! arrivals can then no longer indefinitely overtake an old best-effort
//! request. Ties (identical keys) break by push sequence, so equal-budget
//! traffic pops in exact arrival order — which also makes
//! [`SchedPolicy::Edf`] with uniform budgets behave identically to
//! [`SchedPolicy::Fifo`].
//!
//! # Deadline classes
//!
//! [`DeadlineQueue::pop_group`] never mixes deadline-bound and best-effort
//! entries in one group: a batch is only as fast as its slowest member, so
//! pulling best-effort work into a tight-deadline batch (or vice versa)
//! would let a flood inflate a tight query's tape pass. Entries whose
//! deadline already passed are split into [`Drain::expired`] — the caller
//! answers them without spending any evaluation on them — and do not count
//! toward the group-size limit.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How the ingress scheduler orders the global request queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict arrival order — the pre-deadline drain, bit-for-bit.
    /// Deadlines still expire (an overdue request is answered
    /// [`DeadlineExceeded`](crate::ServeError::DeadlineExceeded) instead of
    /// evaluated), but never reorder anything.
    Fifo,
    /// Earliest-deadline-first with the anti-starvation aging term (see
    /// the module docs). With uniform budgets this degenerates to exact
    /// arrival order, so it is safe as the default.
    Edf,
}

impl core::str::FromStr for SchedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("fifo") {
            Ok(SchedPolicy::Fifo)
        } else if s.eq_ignore_ascii_case("edf") {
            Ok(SchedPolicy::Edf)
        } else {
            Err(format!("unknown scheduling policy '{s}' (want fifo|edf)"))
        }
    }
}

impl core::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Edf => "edf",
        })
    }
}

/// Why a push was rejected. Both variants hand the item back, so the
/// caller can answer the request instead of losing it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; answer busy-retry-after.
    Full(T),
    /// [`DeadlineQueue::close`] was called — shutdown; answer accordingly.
    Closed(T),
}

/// One queued item with its admission metadata, as handed back by
/// [`DeadlineQueue::pop_group`].
#[derive(Debug)]
pub struct QueueEntry<T> {
    /// The queued payload.
    pub item: T,
    /// Absolute deadline (`admitted + deadline_ms`); `None` for
    /// best-effort entries, which never expire.
    pub deadline: Option<Instant>,
    /// When the entry was admitted to the queue.
    pub admitted: Instant,
}

/// One batch handed to a scheduler worker: entries to evaluate plus
/// entries already dead on arrival.
#[derive(Debug)]
pub struct Drain<T> {
    /// Same-class entries (all deadline-bound or all best-effort), in
    /// priority order, to evaluate as one coalesced group.
    pub live: Vec<QueueEntry<T>>,
    /// Entries whose deadline passed while queued: answer them with
    /// [`DeadlineExceeded`](crate::ServeError::DeadlineExceeded) — no
    /// evaluation is spent on them, and they do not count toward the
    /// group-size limit.
    pub expired: Vec<QueueEntry<T>>,
}

struct HeapEntry<T> {
    key: u64,
    seq: u64,
    entry: QueueEntry<T>,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.seq) == (other.key, other.seq)
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

/// The static, time-invariant priority key (module docs derive it).
fn priority_key(policy: SchedPolicy, arrival_us: u64, budget_us: u64, boost: u32) -> u64 {
    match policy {
        // FIFO: every key equal; the seq tie-break alone orders the heap.
        SchedPolicy::Fifo => 0,
        SchedPolicy::Edf => arrival_us
            .saturating_mul(1 + boost as u64)
            .saturating_add(budget_us),
    }
}

struct Inner<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    seq: u64,
    closed: bool,
}

/// A bounded, shutdown-aware deadline priority queue (see the module docs
/// for the ordering and grouping rules).
///
/// Producers [`try_push`](DeadlineQueue::try_push) — never blocking, so
/// overload surfaces as [`PushError::Full`] backpressure immediately.
/// Consumers block in [`pop_group`](DeadlineQueue::pop_group) until work
/// arrives or the queue is [`close`](DeadlineQueue::close)d and drained.
pub struct DeadlineQueue<T> {
    capacity: usize,
    policy: SchedPolicy,
    default_budget_us: u64,
    boost: u32,
    epoch: Instant,
    inner: Mutex<Inner<T>>,
    pushed: Condvar,
}

impl<T> core::fmt::Debug for DeadlineQueue<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let inner = self.inner.lock().expect("deadline queue lock");
        f.debug_struct("DeadlineQueue")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("len", &inner.heap.len())
            .field("closed", &inner.closed)
            .finish()
    }
}

impl<T> DeadlineQueue<T> {
    /// A queue holding at most `capacity` entries (0 = every push answers
    /// [`PushError::Full`]), ordered by `policy`. `deadline_default_ms` is
    /// the *ordering* budget assigned to best-effort entries — they sort
    /// as if due that far in the future but never expire. `boost` is the
    /// anti-starvation aging weight (0 = pure EDF).
    pub fn new(
        capacity: usize,
        policy: SchedPolicy,
        deadline_default_ms: u32,
        boost: u32,
    ) -> DeadlineQueue<T> {
        DeadlineQueue {
            capacity,
            policy,
            default_budget_us: deadline_default_ms as u64 * 1000,
            boost,
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                seq: 0,
                closed: false,
            }),
            pushed: Condvar::new(),
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("deadline queue lock").heap.len()
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item` with an optional relative deadline budget. Never
    /// blocks: a full queue is backpressure, answered now.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`DeadlineQueue::close`]; both return the item.
    pub fn try_push(&self, item: T, deadline_ms: Option<u32>) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("deadline queue lock");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.heap.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        let admitted = Instant::now();
        let arrival_us = admitted
            .saturating_duration_since(self.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let budget_us = deadline_ms.map_or(self.default_budget_us, |ms| ms as u64 * 1000);
        let key = priority_key(self.policy, arrival_us, budget_us, self.boost);
        inner.seq += 1;
        let seq = inner.seq;
        inner.heap.push(HeapEntry {
            key,
            seq,
            entry: QueueEntry {
                item,
                deadline: deadline_ms.map(|ms| admitted + Duration::from_millis(ms as u64)),
                admitted,
            },
        });
        drop(inner);
        self.pushed.notify_one();
        Ok(())
    }

    /// Blocks until work is available, then pops one batch: up to `max`
    /// live entries of one deadline class (in priority order), plus every
    /// expired entry encountered along the way (not counted toward `max`).
    /// Returns `None` once the queue is closed **and** drained — the
    /// worker-exit signal.
    pub fn pop_group(&self, max: usize) -> Option<Drain<T>> {
        let max = max.max(1);
        let mut inner = self.inner.lock().expect("deadline queue lock");
        loop {
            if !inner.heap.is_empty() {
                let now = Instant::now();
                let mut live: Vec<QueueEntry<T>> = Vec::new();
                let mut expired: Vec<QueueEntry<T>> = Vec::new();
                let mut class: Option<bool> = None;
                while live.len() < max {
                    let Some(head) = inner.heap.peek() else { break };
                    if head.entry.deadline.is_some_and(|d| now > d) {
                        expired.push(inner.heap.pop().expect("peeked").entry);
                        continue;
                    }
                    let head_class = head.entry.deadline.is_some();
                    match class {
                        Some(c) if c != head_class => break,
                        _ => class = Some(head_class),
                    }
                    live.push(inner.heap.pop().expect("peeked").entry);
                }
                // The heap was non-empty, so at least one entry was popped.
                return Some(Drain { live, expired });
            }
            if inner.closed {
                return None;
            }
            inner = self.pushed.wait(inner).expect("deadline queue lock");
        }
    }

    /// Closes the queue: later pushes answer [`PushError::Closed`];
    /// consumers drain what remains, then [`DeadlineQueue::pop_group`]
    /// returns `None`. Idempotent.
    pub fn close(&self) {
        self.inner.lock().expect("deadline queue lock").closed = true;
        self.pushed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_key_orders_edf_and_ages_with_boost() {
        let edf = |arrival, budget| priority_key(SchedPolicy::Edf, arrival, budget, 0);
        // Same arrival: tighter budget pops first.
        assert!(edf(1000, 5_000_000) < edf(1000, 30_000_000));
        // Same budget: earlier arrival pops first (aging tie-break).
        assert!(edf(1000, 5_000_000) < edf(2000, 5_000_000));
        // With a large boost, a long-waiting best-effort request overtakes
        // a much tighter later arrival: boost=9 makes 1 s of waiting worth
        // 9 s of budget.
        let aged = priority_key(SchedPolicy::Edf, 0, 30_000_000, 9);
        let fresh_tight = priority_key(SchedPolicy::Edf, 4_000_000, 1_000_000, 9);
        assert!(aged < fresh_tight);
        // FIFO ignores everything; the seq tie-break alone orders it.
        assert_eq!(priority_key(SchedPolicy::Fifo, 7, 9, 3), 0);
        // Saturation, not overflow, on absurd inputs.
        assert_eq!(
            priority_key(SchedPolicy::Edf, u64::MAX, u64::MAX, u32::MAX),
            u64::MAX
        );
    }

    #[test]
    fn fifo_pops_in_exact_arrival_order() {
        let q = DeadlineQueue::new(8, SchedPolicy::Fifo, 500, 0);
        for i in 0..5u32 {
            // Mixed budgets must not reorder anything under FIFO.
            let deadline = if i % 2 == 0 { Some(10_000) } else { None };
            q.try_push(i, deadline).unwrap();
        }
        let drain = q.pop_group(2).unwrap();
        // Class separation still applies: entry 0 is deadline-bound,
        // entry 1 is best-effort, so the first group stops at one.
        assert_eq!(drain.live.len(), 1);
        assert_eq!(drain.live[0].item, 0);
        assert!(drain.expired.is_empty());
        let drain = q.pop_group(2).unwrap();
        assert_eq!(drain.live[0].item, 1);
    }

    #[test]
    fn edf_pops_tight_budgets_first() {
        let q = DeadlineQueue::new(8, SchedPolicy::Edf, 60_000, 0);
        q.try_push("flood-a", None).unwrap();
        q.try_push("flood-b", None).unwrap();
        q.try_push("tight", Some(5_000)).unwrap();
        // Budgets differ by tens of seconds; the microsecond arrival skew
        // between pushes cannot flip the order.
        let drain = q.pop_group(4).unwrap();
        assert_eq!(drain.live.len(), 1, "tight entry forms its own class");
        assert_eq!(drain.live[0].item, "tight");
        let drain = q.pop_group(4).unwrap();
        let items: Vec<_> = drain.live.iter().map(|e| e.item).collect();
        assert_eq!(
            items,
            ["flood-a", "flood-b"],
            "equal budgets keep arrival order"
        );
    }

    #[test]
    fn expired_entries_split_out_without_counting_toward_max() {
        let q = DeadlineQueue::new(8, SchedPolicy::Edf, 60_000, 0);
        // Budget 0: due at admission, so any later pop sees them expired.
        q.try_push("dead-1", Some(0)).unwrap();
        q.try_push("dead-2", Some(0)).unwrap();
        q.try_push("live", None).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let drain = q.pop_group(1).unwrap();
        let mut dead: Vec<_> = drain.expired.iter().map(|e| e.item).collect();
        dead.sort_unstable();
        assert_eq!(dead, ["dead-1", "dead-2"]);
        assert_eq!(drain.live.len(), 1);
        assert_eq!(drain.live[0].item, "live");
        assert!(
            drain.live[0].deadline.is_none(),
            "best-effort never expires"
        );
    }

    #[test]
    fn zero_capacity_always_answers_full() {
        let q = DeadlineQueue::new(0, SchedPolicy::Edf, 500, 0);
        assert!(matches!(q.try_push(1u8, None), Err(PushError::Full(1))));
        assert!(q.is_empty());
    }

    #[test]
    fn close_rejects_pushes_and_drains_consumers() {
        let q = std::sync::Arc::new(DeadlineQueue::new(8, SchedPolicy::Edf, 500, 0));
        q.try_push(1u8, None).unwrap();
        q.close();
        assert!(matches!(q.try_push(2u8, None), Err(PushError::Closed(2))));
        // Remaining work still drains...
        let drain = q.pop_group(4).unwrap();
        assert_eq!(drain.live[0].item, 1);
        // ...then consumers see end-of-stream, including blocked ones.
        assert!(q.pop_group(4).is_none());
        let q2 = std::sync::Arc::new(DeadlineQueue::<u8>::new(8, SchedPolicy::Edf, 500, 0));
        let waiter = {
            let q2 = q2.clone();
            std::thread::spawn(move || q2.pop_group(1).is_none())
        };
        std::thread::sleep(Duration::from_millis(10));
        q2.close();
        assert!(waiter.join().unwrap(), "blocked pop wakes on close");
    }
}
