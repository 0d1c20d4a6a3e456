//! `nasflat-parallel`: a deterministic, rayon-flavored parallel execution
//! layer built on [`std::thread::scope`].
//!
//! The build environment has no crates.io access, so — like
//! `crates/rand-shim` and `crates/criterion-shim` — this workspace-local
//! crate implements the small API subset the reproduction needs instead of
//! pulling in [rayon](https://crates.io/crates/rayon):
//!
//! - [`par_map`] / [`par_map_mut`] / [`par_map_range`]: parallel map with
//!   results **always in input order**, bounded by [`current_threads`]
//!   (the `NASFLAT_THREADS` environment variable, default
//!   [`std::thread::available_parallelism`]); [`par_map_with`] takes an
//!   explicit bound,
//! - [`par_chunks`]: parallel map over fixed-size chunks,
//! - [`WorkerSet`]: **long-lived** named worker threads for always-on
//!   services (the serving layer's TCP ingress loop), with the same
//!   nested-serialization and panic-propagation guarantees.
//!
//! # Determinism
//!
//! Every combinator is **bit-deterministic at any thread count**: callers
//! pass pure per-item closures, items are partitioned into contiguous chunks,
//! and results are reassembled in input order. Reductions never combine
//! partial per-thread accumulators (which would make float sums depend on
//! chunk boundaries); callers fold the mapped results sequentially in input
//! order instead. Consequently a workload run under
//! [`with_threads`]`(1, …)` and `with_threads(64, …)` produces identical
//! bytes — the property the determinism suites assert at 1, 2 and 8
//! threads, and the `parallel` bench re-checks at 1 and 4.
//!
//! # Thread-count resolution
//!
//! [`current_threads`] resolves, in priority order:
//!
//! 1. `1` inside a worker spawned by this crate (nested parallel calls run
//!    sequentially instead of oversubscribing the machine),
//! 2. the innermost [`with_threads`] override on this thread,
//! 3. `NASFLAT_THREADS` from the environment (read once per process),
//! 4. [`std::thread::available_parallelism`].
//!
//! # Execution model
//!
//! Workers are *scoped*: each combinator spawns at most `current_threads()`
//! OS threads for its own duration via [`std::thread::scope`], so borrowed
//! (non-`'static`) data flows into workers without `Arc`. Spawn cost is a
//! few microseconds per worker — negligible against the millisecond-scale
//! items (predictor forwards, training epochs) this workspace parallelizes.
//!
//! This crate is one of the repository's performance layers — see
//! `ARCHITECTURE.md` at the workspace root for how it composes with the
//! tensor kernels, tape arenas, and multi-query batched tapes, and for the
//! determinism contract all four uphold.

#![warn(missing_docs)]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Reads an unsigned-integer environment variable, **warning on malformed
/// values instead of silently defaulting**.
///
/// Every NASFLAT tuning knob (`NASFLAT_THREADS`, `NASFLAT_SERVE_BATCH`)
/// parses through this helper so a typo like
/// `NASFLAT_THREADS=fourteen` or an out-of-range `NASFLAT_THREADS=0` is
/// surfaced on stderr exactly where the old code paths dropped it on the
/// floor. Returns:
///
/// - `None` when the variable is unset — the caller applies its default;
/// - `Some(v)` when it parses as a `usize` with `v >= min`;
/// - `None` **after printing a warning** when the value is not an integer
///   or is below `min` — again falling back to the caller's default, but
///   visibly.
pub fn env_usize(name: &str, min: usize) -> Option<usize> {
    parse_env_usize(name, &std::env::var(name).ok()?, min)
}

/// Reads a path-valued environment variable (e.g. `NASFLAT_STORE_DIR`):
/// `Some(path)` when the variable is set to a non-blank value, `None` when
/// unset or blank. Paths are taken verbatim after trimming whitespace — no
/// existence check, since the consumer may be about to create it.
pub fn env_path(name: &str) -> Option<std::path::PathBuf> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    (!trimmed.is_empty()).then(|| std::path::PathBuf::from(trimmed))
}

/// The pure parsing/validation half of [`env_usize`], split out so tests
/// can exercise it without mutating the process environment (`setenv`
/// races `getenv` across the test harness's threads).
fn parse_env_usize(name: &str, raw: &str, min: usize) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(v) if v >= min => Some(v),
        Ok(v) => {
            eprintln!(
                "warning: {name}={v} is below the minimum of {min}; \
                 ignoring it and using the default"
            );
            None
        }
        Err(_) => {
            eprintln!(
                "warning: {name}='{raw}' is not a valid unsigned integer; \
                 ignoring it and using the default"
            );
            None
        }
    }
}

/// The process-wide default thread count: `NASFLAT_THREADS` if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 where that is unavailable). Read once per process;
/// malformed values warn via [`env_usize`] and fall through to the default.
pub fn max_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        env_usize("NASFLAT_THREADS", 1).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// The thread count parallel combinators on *this* thread will use right
/// now: 1 inside a worker, else the innermost [`with_threads`] override,
/// else [`max_threads`].
pub fn current_threads() -> usize {
    if IN_WORKER.get() {
        return 1;
    }
    THREAD_OVERRIDE.get().unwrap_or_else(max_threads)
}

/// Runs `f` with the calling thread's parallelism pinned to `threads`
/// (clamped to at least 1), restoring the previous setting afterwards —
/// the programmatic equivalent of launching the process under
/// `NASFLAT_THREADS=<threads>`. Overrides nest; the innermost wins.
///
/// This is how the bench harness times the same workload at 1 and N threads
/// within one process, and how the determinism suite pins thread counts.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.set(self.0);
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.replace(Some(threads.max(1))));
    f()
}

/// How many workers to actually spawn for `len` items under `threads`.
/// Inside a worker this always collapses to 1, so the nested-serialization
/// invariant holds on every entry point — including explicit-budget calls
/// like [`par_map_with`].
fn plan(threads: usize, len: usize) -> usize {
    if IN_WORKER.get() {
        return 1;
    }
    threads.max(1).min(len)
}

/// Parallel map over a slice with an explicit thread budget; results are in
/// input order. Prefer [`par_map`] (which respects [`current_threads`])
/// unless the caller owns its own bound.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = plan(threads, n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = n.div_ceil(workers);
    let fref = &f;
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    IN_WORKER.set(true);
                    c.iter().map(fref).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out
}

/// Parallel map over a slice; results are in input order regardless of the
/// thread count. Sequential when [`current_threads`] is 1 (or inside a
/// worker), bit-identical either way for pure `f`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(current_threads(), items, f)
}

/// Parallel map with mutable access: the slice is split into disjoint
/// contiguous chunks, so each worker holds exclusive `&mut` access to its
/// items. Results are in input order.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let n = items.len();
    let workers = plan(current_threads(), n);
    if workers <= 1 {
        return items.iter_mut().map(&f).collect();
    }
    let chunk = n.div_ceil(workers);
    let fref = &f;
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|c| {
                s.spawn(move || {
                    IN_WORKER.set(true);
                    c.iter_mut().map(fref).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out
}

/// Parallel map over the index range `0..n`; results are in index order.
/// Convenient when the items live in several parallel arrays.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = plan(current_threads(), n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let fref = &f;
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n.div_ceil(chunk))
            .map(|w| {
                let start = w * chunk;
                let end = (start + chunk).min(n);
                s.spawn(move || {
                    IN_WORKER.set(true);
                    (start..end).map(fref).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out
}

/// Parallel map over fixed-size chunks of `items` (the last chunk may be
/// shorter). Chunk boundaries are set by `chunk_size` — *not* by the thread
/// count — so outputs are identical at any parallelism.
///
/// # Panics
/// Panics if `chunk_size` is 0.
pub fn par_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    par_map(&chunks, |c| f(c))
}

/// A set of **long-lived** worker threads — the lifecycle layer behind
/// always-on services, where scoped workers (which live exactly as long as
/// one call) are not enough.
///
/// Unlike the scoped combinators, threads spawned through a `WorkerSet`
/// outlive the spawning frame: closures must be `'static` and share state
/// via [`std::sync::Arc`] (typically a channel plus a shutdown flag). The
/// set only *tracks* its threads; signalling them to stop is the caller's
/// protocol — the serving layer's ingress loop, for example, sets an atomic
/// flag and disconnects the job queue, then calls [`WorkerSet::join`].
///
/// Two invariants carry over from the scoped layer:
///
/// - every spawned thread runs with the **nested-serialization flag** set,
///   so parallel combinators called inside a long-lived worker execute
///   sequentially instead of oversubscribing the host — exactly like
///   workers of [`par_map`];
/// - [`WorkerSet::join`] **propagates the first worker panic** to the
///   caller via [`std::panic::resume_unwind`], after joining every thread
///   (no detached stragglers, no swallowed panics).
#[derive(Debug, Default)]
pub struct WorkerSet {
    name: String,
    handles: std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerSet {
    /// An empty set; `name` prefixes the OS thread names (`{name}-{k}`) for
    /// debuggers and thread dumps.
    pub fn new(name: impl Into<String>) -> Self {
        WorkerSet {
            name: name.into(),
            handles: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Spawns one long-lived worker running `f` (with the
    /// nested-serialization flag set) and tracks its handle. Finished
    /// threads are reaped opportunistically on each spawn, so a set serving
    /// short-lived jobs (e.g. one thread per network connection) does not
    /// accumulate dead handles.
    ///
    /// # Errors
    /// Propagates the OS thread-creation failure.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let mut handles = self.handles.lock().expect("worker-set lock");
        // Reap finished threads first; a panicked thread is re-raised at
        // join(), not here, so its handle is kept.
        let mut kept = Vec::with_capacity(handles.len() + 1);
        for h in handles.drain(..) {
            if h.is_finished() {
                match h.join() {
                    Ok(()) => {}
                    Err(panic) => {
                        // Preserve the panic for join() by re-parking it in
                        // a pre-unwound handle substitute: simplest correct
                        // behavior is to propagate immediately — a dead
                        // worker means the service is already broken.
                        std::panic::resume_unwind(panic)
                    }
                }
            } else {
                kept.push(h);
            }
        }
        *handles = kept;
        let idx = handles.len();
        let handle = std::thread::Builder::new()
            .name(format!("{}-{idx}", self.name))
            .spawn(move || {
                IN_WORKER.set(true);
                f()
            })?;
        handles.push(handle);
        Ok(())
    }

    /// Number of tracked threads that have not yet finished.
    pub fn active(&self) -> usize {
        self.handles
            .lock()
            .expect("worker-set lock")
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// Joins every tracked thread. Callers must have signalled their stop
    /// protocol first (shutdown flag, channel disconnect, …) or this blocks
    /// forever. The first worker panic is re-raised after all threads have
    /// been joined.
    pub fn join(self) {
        let handles = self.handles.into_inner().expect("worker-set lock");
        let mut first_panic = None;
        for h in handles {
            if let Err(panic) = h.join() {
                first_panic.get_or_insert(panic);
            }
        }
        if let Some(panic) = first_panic {
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = with_threads(threads, || par_map(&items, |&i| i * 2));
            assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_is_bit_identical_across_thread_counts() {
        // Per-item float work is pure, so any thread count must agree bitwise.
        let items: Vec<f32> = (0..513).map(|i| i as f32 * 0.37 + 0.1).collect();
        let f = |&x: &f32| (x.sin() * 1e6).fract() + x.sqrt();
        let seq = with_threads(1, || par_map(&items, f));
        for threads in [2, 5, 16] {
            let par = with_threads(threads, || par_map(&items, f));
            let same = seq
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "outputs diverged at {threads} threads");
        }
    }

    #[test]
    fn par_map_mut_gives_each_item_exclusive_access() {
        let mut items: Vec<u64> = (0..100).collect();
        let out = with_threads(8, || {
            par_map_mut(&mut items, |x| {
                *x += 1;
                *x * 10
            })
        });
        assert_eq!(items, (1..=100).collect::<Vec<u64>>());
        assert_eq!(out, (1..=100).map(|x| x * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_range_matches_sequential() {
        for threads in [1, 3, 8] {
            let out = with_threads(threads, || par_map_range(37, |i| i * i));
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map_range(0, |i| i).is_empty());
    }

    #[test]
    fn par_chunks_boundaries_follow_chunk_size_not_threads() {
        let items: Vec<u32> = (0..103).collect();
        let expect: Vec<u32> = items.chunks(10).map(|c| c.iter().sum()).collect();
        for threads in [1, 4, 16] {
            let out = with_threads(threads, || {
                par_chunks(&items, 10, |c| c.iter().sum::<u32>())
            });
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn nested_parallelism_runs_sequentially_in_workers() {
        let outer: Vec<usize> = (0..4).collect();
        let seen: Vec<usize> = with_threads(4, || {
            par_map(&outer, |_| {
                // Inside a worker the effective parallelism must collapse
                // to 1 so nested calls don't oversubscribe.
                current_threads()
            })
        });
        assert!(seen.iter().all(|&t| t == 1), "nested threads: {seen:?}");
    }

    #[test]
    fn with_threads_overrides_nest_and_restore() {
        let base = current_threads();
        with_threads(5, || {
            assert_eq!(current_threads(), 5);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 5);
        });
        assert_eq!(current_threads(), base);
        // Zero is clamped rather than accepted.
        with_threads(0, || assert_eq!(current_threads(), 1));
    }

    #[test]
    fn explicit_pool_calls_also_serialize_inside_workers() {
        // par_map_with takes an explicit budget, but the
        // nested-serialization invariant must still hold inside workers.
        let outer: Vec<usize> = (0..4).collect();
        let nested_lens: Vec<usize> = with_threads(4, || {
            par_map(&outer, |_| {
                let inner = par_map_with(8, &[1, 2, 3], |&x| x);
                assert_eq!(inner, vec![1, 2, 3]);
                // Observable proxy for "no extra workers": plan() collapses.
                super::plan(8, 3)
            })
        });
        assert!(nested_lens.iter().all(|&w| w == 1), "{nested_lens:?}");
    }

    #[test]
    fn env_usize_parses_and_warns() {
        // Unset → None (caller defaults). Reading is safe; the remaining
        // cases go through the pure parser so the test never calls setenv
        // (which would race getenv on the harness's other threads).
        assert_eq!(env_usize("NASFLAT_TEST_ENV_UNSET_XYZ", 1), None);
        // Valid values parse; whitespace is tolerated.
        assert_eq!(parse_env_usize("T", "12", 1), Some(12));
        assert_eq!(parse_env_usize("T", " 7 ", 0), Some(7));
        // Malformed or below-minimum values are rejected (with a warning on
        // stderr), not silently misread.
        assert_eq!(parse_env_usize("T", "fourteen", 1), None);
        assert_eq!(parse_env_usize("T", "-3", 0), None);
        assert_eq!(parse_env_usize("T", "0", 1), None);
        // min = 0 admits zero (used by the tape/serve batch knobs, where 0
        // means "disable batching").
        assert_eq!(parse_env_usize("T", "0", 0), Some(0));
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&i| {
                    assert!(i != 9, "boom");
                    i
                })
            })
        });
        assert!(result.is_err(), "worker panic must not be swallowed");
    }

    #[test]
    fn worker_set_runs_long_lived_threads_and_joins() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let set = WorkerSet::new("test-worker");
        let stop = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let stop = stop.clone();
            let counter = counter.clone();
            set.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
            .expect("spawn");
        }
        // Workers are alive until the stop protocol fires.
        while counter.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        assert_eq!(set.active(), 3);
        stop.store(true, Ordering::SeqCst);
        set.join();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn worker_set_threads_serialize_nested_parallelism() {
        use std::sync::mpsc::channel;
        let set = WorkerSet::new("nested-check");
        let (tx, rx) = channel();
        set.spawn(move || {
            // Long-lived workers carry the same nested-serialization flag as
            // scoped workers: parallel calls inside collapse to 1 thread.
            tx.send(current_threads()).unwrap();
        })
        .expect("spawn");
        assert_eq!(rx.recv().unwrap(), 1);
        set.join();
    }

    #[test]
    fn worker_set_reaps_finished_threads_on_spawn() {
        let set = WorkerSet::new("reap-check");
        for _ in 0..8 {
            set.spawn(|| {}).expect("spawn");
        }
        // Let the short-lived workers finish, then spawn once more: the set
        // must not accumulate dead handles unboundedly.
        while set.active() > 0 {
            std::thread::yield_now();
        }
        set.spawn(|| {}).expect("spawn");
        assert!(set.handles.lock().unwrap().len() <= 2);
        set.join();
    }

    #[test]
    fn worker_set_join_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            let set = WorkerSet::new("panic-check");
            set.spawn(|| panic!("boom")).expect("spawn");
            set.join();
        });
        assert!(result.is_err(), "worker panic must not be swallowed");
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let empty: Vec<u8> = Vec::new();
        assert!(with_threads(8, || par_map(&empty, |&x| x)).is_empty());
        assert_eq!(with_threads(8, || par_map(&[7u8], |&x| x)), vec![7]);
    }
}
