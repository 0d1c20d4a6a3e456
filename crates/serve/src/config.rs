//! One configuration surface for the whole serving subsystem.
//!
//! [`ServeConfig::builder`] holds every serving knob — batching, queue
//! depth, worker count, the ingress bind address, admission limits, and
//! timeouts — behind one env-seeded builder. The environment is read only
//! here, when a builder is made, and parsing goes through
//! [`nasflat_parallel::env_usize`] so malformed values warn identically
//! everywhere.

use std::net::{Ipv4Addr, SocketAddr};
use std::path::PathBuf;

use crate::sched::SchedPolicy;
use crate::DEFAULT_SERVE_BATCH;

/// Tuning knobs of the serving subsystem: the [`DynamicBatcher`], the
/// in-process registry entry points, and the TCP [`IngressServer`].
///
/// Construct through [`ServeConfig::builder`] (env-seeded defaults) and
/// override per field. The struct is `#[non_exhaustive]`: new knobs can be
/// added without breaking downstream literals, so struct-literal
/// construction is reserved to this crate.
///
/// [`DynamicBatcher`]: crate::DynamicBatcher
/// [`IngressServer`]: crate::IngressServer
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads: in-process calls answer chunks on up to this
    /// many, the ingress runs this many scheduler workers (clamped to at
    /// least 1).
    pub workers: usize,
    /// Coalescing limit: the most queries one tape pass evaluates. Values
    /// 0/1 disable coalescing (per-query serving).
    pub batch: usize,
    /// Bound of the ingress request queue — the TCP service's **admission
    /// control**: a request arriving at this depth is *rejected* with a
    /// retry-after hint ([`ServeError::Busy`](crate::ServeError::Busy)),
    /// never buffered. In-process calls have no queue and ignore it.
    pub queue_depth: usize,
    /// Ingress bind address. Port 0 picks an ephemeral port (the bound
    /// address is reported by
    /// [`IngressServer::local_addr`](crate::IngressServer::local_addr)).
    pub bind: SocketAddr,
    /// Most concurrent client connections the ingress admits; connections
    /// beyond the limit are refused with a busy frame and closed.
    pub max_connections: usize,
    /// Most in-flight (enqueued, unanswered) requests one connection may
    /// hold; a connection's reader blocks past this — per-connection
    /// admission control, bounding a single client's queue share.
    pub max_inflight: usize,
    /// Retry hint attached to busy rejections, milliseconds.
    pub retry_after_ms: u32,
    /// Socket read poll interval, milliseconds: how quickly connection
    /// threads observe a shutdown while idle. Also the upper bound on
    /// shutdown latency added per idle connection.
    pub read_timeout_ms: u64,
    /// Durable bundle directory for the registry's tiered store
    /// ([`BundleStore`](crate::BundleStore)). `None` (the default) keeps
    /// the registry in-memory.
    pub store_dir: Option<PathBuf>,
    /// Hot-tier capacity of the tiered store: how many decoded bundles stay
    /// resident before LRU demotion to the warm tier. 0 (the default) is
    /// unbounded. Only disk-backed entries are ever demoted.
    pub hot_capacity: usize,
    /// Ingress queue ordering: [`SchedPolicy::Fifo`] drains in exact
    /// arrival order (the pre-deadline behavior, bit-for-bit);
    /// [`SchedPolicy::Edf`] (the default) is earliest-deadline-first with
    /// the [`starvation_boost`](ServeConfig::starvation_boost) aging term.
    /// With no deadlines on the wire the two are identical.
    pub sched_policy: SchedPolicy,
    /// Ordering budget assigned to best-effort requests (no `deadline_ms`
    /// on the wire), milliseconds. They sort as if due that far in the
    /// future but **never expire** — the knob only positions them relative
    /// to deadline-bound traffic.
    pub deadline_default_ms: u32,
    /// Anti-starvation aging weight of the EDF order: 0 (the default) is
    /// pure EDF; each increment makes one second of queue wait count as
    /// one extra second of urgency, sliding the order toward FIFO so
    /// best-effort traffic always makes progress under a tight-deadline
    /// flood.
    pub starvation_boost: u32,
    /// Whether the [`Telemetry`](crate::Telemetry) layer records: per-stage
    /// latency histograms, size histograms, gauges, and request traces.
    /// Telemetry never changes served bytes either way — disabling it only
    /// skips the atomic bookkeeping. The `METRICS` endpoint stays up
    /// regardless; with
    /// telemetry off its histogram families read zero while the ingress
    /// ledger and registry counters stay live.
    pub telemetry: bool,
    /// Bound of the per-request trace ring (0 keeps histograms but drops
    /// traces).
    pub trace_capacity: usize,
}

impl ServeConfig {
    /// An env-seeded builder: workers from the calling thread's parallelism
    /// (`NASFLAT_THREADS` / [`nasflat_parallel::with_threads`] overrides
    /// apply), batch from `NASFLAT_SERVE_BATCH`, the store knobs from
    /// `NASFLAT_STORE_DIR` / `NASFLAT_HOT_CAPACITY`, the scheduling knobs
    /// from `NASFLAT_SCHED_POLICY` / `NASFLAT_SCHED_DEADLINE_MS` /
    /// `NASFLAT_SCHED_BOOST`, the telemetry knobs from `NASFLAT_TELEMETRY`
    /// (0 disables) / `NASFLAT_TRACE_CAPACITY`, loopback ephemeral bind,
    /// and a queue deep enough to keep every worker's next batch waiting.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig {
                workers: nasflat_parallel::current_threads(),
                batch: nasflat_parallel::env_usize("NASFLAT_SERVE_BATCH", 0)
                    .unwrap_or(DEFAULT_SERVE_BATCH),
                queue_depth: 0, // derived at build() unless pinned
                bind: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
                max_connections: 64,
                max_inflight: 32,
                retry_after_ms: 10,
                read_timeout_ms: 25,
                store_dir: nasflat_parallel::env_path("NASFLAT_STORE_DIR"),
                hot_capacity: nasflat_parallel::env_usize("NASFLAT_HOT_CAPACITY", 0).unwrap_or(0),
                sched_policy: SchedPolicy::from_env(),
                deadline_default_ms: nasflat_parallel::env_usize("NASFLAT_SCHED_DEADLINE_MS", 1)
                    .map_or(500, |ms| ms.min(u32::MAX as usize) as u32),
                starvation_boost: nasflat_parallel::env_usize("NASFLAT_SCHED_BOOST", 0)
                    .map_or(0, |b| b.min(u32::MAX as usize) as u32),
                telemetry: nasflat_parallel::env_usize("NASFLAT_TELEMETRY", 0) != Some(0),
                trace_capacity: nasflat_parallel::env_usize("NASFLAT_TRACE_CAPACITY", 0)
                    .unwrap_or(256),
            },
            queue_depth_pinned: false,
        }
    }

    /// The default queue bound for a worker/batch combination: deep enough
    /// to keep every worker's *next* coalesced batch waiting.
    pub(crate) fn derived_depth(workers: usize, batch: usize) -> usize {
        (2 * workers.max(1) * batch.max(1)).max(8)
    }

    /// Same config with a different worker count. `queue_depth` is
    /// re-derived for the new shape; use the builder's
    /// [`queue_depth`](ServeConfigBuilder::queue_depth) to pin a custom
    /// bound.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self.queue_depth = Self::derived_depth(workers, self.batch);
        self
    }

    /// Same config with a different coalescing limit. `queue_depth` is
    /// re-derived for the new shape; use the builder's
    /// [`queue_depth`](ServeConfigBuilder::queue_depth) to pin a custom
    /// bound.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self.queue_depth = Self::derived_depth(self.workers, batch);
        self
    }
}

/// Builder for [`ServeConfig`] — see [`ServeConfig::builder`] for the
/// env-seeded defaults each field starts from.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
    queue_depth_pinned: bool,
}

impl ServeConfigBuilder {
    /// Worker threads (in-process calls and ingress scheduler).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Coalescing limit per tape pass (0/1 disable coalescing).
    pub fn batch(mut self, batch: usize) -> Self {
        self.cfg.batch = batch;
        self
    }

    /// Pins the ingress request-queue bound instead of deriving it from
    /// workers × batch.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth.max(1);
        self.queue_depth_pinned = true;
        self
    }

    /// Ingress bind address (default: loopback, ephemeral port).
    pub fn bind(mut self, addr: SocketAddr) -> Self {
        self.cfg.bind = addr;
        self
    }

    /// Most concurrent client connections the ingress admits.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.cfg.max_connections = n.max(1);
        self
    }

    /// Most in-flight requests one connection may hold.
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.cfg.max_inflight = n.max(1);
        self
    }

    /// Retry hint attached to busy rejections, milliseconds.
    pub fn retry_after_ms(mut self, ms: u32) -> Self {
        self.cfg.retry_after_ms = ms;
        self
    }

    /// Socket read poll interval, milliseconds (shutdown responsiveness).
    pub fn read_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.read_timeout_ms = ms.max(1);
        self
    }

    /// Durable bundle directory for the registry's tiered store. The
    /// default comes from `NASFLAT_STORE_DIR` (unset → in-memory).
    pub fn store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.store_dir = Some(dir.into());
        self
    }

    /// Hot-tier capacity of the tiered store (0 = unbounded). The default
    /// comes from `NASFLAT_HOT_CAPACITY`.
    pub fn hot_capacity(mut self, capacity: usize) -> Self {
        self.cfg.hot_capacity = capacity;
        self
    }

    /// Ingress queue ordering (`fifo` = pre-deadline arrival order, `edf` =
    /// deadline-first with aging). The default comes from
    /// `NASFLAT_SCHED_POLICY` (unset → edf).
    pub fn sched_policy(mut self, policy: SchedPolicy) -> Self {
        self.cfg.sched_policy = policy;
        self
    }

    /// Ordering budget for best-effort requests, milliseconds (clamped to
    /// at least 1; best-effort traffic never expires regardless). The
    /// default comes from `NASFLAT_SCHED_DEADLINE_MS` (unset → 500).
    pub fn deadline_default_ms(mut self, ms: u32) -> Self {
        self.cfg.deadline_default_ms = ms.max(1);
        self
    }

    /// Anti-starvation aging weight of the EDF order (0 = pure EDF). The
    /// default comes from `NASFLAT_SCHED_BOOST` (unset → 0).
    pub fn starvation_boost(mut self, boost: u32) -> Self {
        self.cfg.starvation_boost = boost;
        self
    }

    /// Enables or disables telemetry recording (histograms, gauges,
    /// traces). The default comes from `NASFLAT_TELEMETRY` (unset → on,
    /// `0` → off).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.cfg.telemetry = on;
        self
    }

    /// Bound of the per-request trace ring (0 disables tracing only). The
    /// default comes from `NASFLAT_TRACE_CAPACITY` (unset → 256).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.cfg.trace_capacity = capacity;
        self
    }

    /// Finalizes the config, deriving `queue_depth` from the final
    /// workers × batch shape unless it was pinned.
    pub fn build(mut self) -> ServeConfig {
        if !self.queue_depth_pinned {
            self.cfg.queue_depth = ServeConfig::derived_depth(self.cfg.workers, self.cfg.batch);
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane_and_env_seeded() {
        let cfg = ServeConfig::builder().build();
        assert!(cfg.workers >= 1);
        assert!(cfg.queue_depth >= 8);
        assert!(cfg.max_connections >= 1);
        assert!(cfg.max_inflight >= 1);
        assert!(cfg.bind.ip().is_loopback());
        assert_eq!(cfg.bind.port(), 0);
        // Store knobs default to an in-memory, unbounded-hot registry
        // unless the environment says otherwise.
        if std::env::var_os("NASFLAT_STORE_DIR").is_none() {
            assert!(cfg.store_dir.is_none());
        }
        if std::env::var_os("NASFLAT_HOT_CAPACITY").is_none() {
            assert_eq!(cfg.hot_capacity, 0);
        }
        let tiered = ServeConfig::builder()
            .store_dir("models/")
            .hot_capacity(2)
            .build();
        assert_eq!(
            tiered.store_dir.as_deref(),
            Some(std::path::Path::new("models/"))
        );
        assert_eq!(tiered.hot_capacity, 2);
        // Scheduling knobs: EDF with a 500 ms best-effort horizon and no
        // aging unless the environment says otherwise.
        if std::env::var_os("NASFLAT_SCHED_POLICY").is_none() {
            assert_eq!(cfg.sched_policy, SchedPolicy::Edf);
        }
        if std::env::var_os("NASFLAT_SCHED_DEADLINE_MS").is_none() {
            assert_eq!(cfg.deadline_default_ms, 500);
        }
        if std::env::var_os("NASFLAT_SCHED_BOOST").is_none() {
            assert_eq!(cfg.starvation_boost, 0);
        }
        // Telemetry defaults on with a bounded trace ring; the builder can
        // switch both off.
        if std::env::var_os("NASFLAT_TELEMETRY").is_none() {
            assert!(cfg.telemetry);
        }
        if std::env::var_os("NASFLAT_TRACE_CAPACITY").is_none() {
            assert_eq!(cfg.trace_capacity, 256);
        }
        let quiet = ServeConfig::builder()
            .telemetry(false)
            .trace_capacity(0)
            .build();
        assert!(!quiet.telemetry);
        assert_eq!(quiet.trace_capacity, 0);
    }

    #[test]
    fn scheduling_knobs_override_and_clamp() {
        let cfg = ServeConfig::builder()
            .sched_policy(SchedPolicy::Fifo)
            .deadline_default_ms(0) // clamped: a zero horizon is meaningless
            .starvation_boost(3)
            .build();
        assert_eq!(cfg.sched_policy, SchedPolicy::Fifo);
        assert_eq!(cfg.deadline_default_ms, 1);
        assert_eq!(cfg.starvation_boost, 3);
        assert_eq!("fifo".parse::<SchedPolicy>().unwrap(), SchedPolicy::Fifo);
        assert_eq!("EDF".parse::<SchedPolicy>().unwrap(), SchedPolicy::Edf);
        assert!("lifo".parse::<SchedPolicy>().is_err());
        assert_eq!(SchedPolicy::Edf.to_string(), "edf");
    }

    #[test]
    fn builder_overrides_and_queue_derivation() {
        let cfg = ServeConfig::builder().workers(3).batch(5).build();
        assert_eq!((cfg.workers, cfg.batch), (3, 5));
        assert_eq!(cfg.queue_depth, ServeConfig::derived_depth(3, 5));
        // Pinning wins over derivation, in any order.
        let pinned = ServeConfig::builder().queue_depth(2).workers(8).build();
        assert_eq!(pinned.queue_depth, 2);
        // with_* re-derive unless re-pinned.
        let tuned = cfg.with_workers(1).with_batch(1);
        assert_eq!(tuned.queue_depth, 8);
        let bound: SocketAddr = "127.0.0.1:9099".parse().unwrap();
        assert_eq!(ServeConfig::builder().bind(bound).build().bind, bound);
    }
}
