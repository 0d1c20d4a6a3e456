//! `nasflat-serve`: latency prediction as an always-on service.
//!
//! The crates below this one answer "how do I *train* a latency predictor";
//! this crate answers "how do I *run* one under traffic". It is the
//! workspace's serving layer:
//!
//! - [`ModelBundle`]: versioned binary **persistence** for one-or-more
//!   trained predictors (an ensemble ships as one file) plus the snapshot of
//!   the encoding-suite normalization its supplement needs. A bundle saved
//!   with [`ModelBundle::to_bytes`] and reloaded with
//!   [`ModelBundle::from_bytes`] serves **bit-identical** predictions.
//! - [`BundleStore`]: the **model store** behind the registry. A model is
//!   *hot* (decoded, ready to predict) or *durable* (one `NFB1` file in the
//!   store directory, named after the model). Publishing writes atomically
//!   (write-then-rename), a lookup decodes a durable file on first use, a
//!   bounded hot tier evicts by LRU back to durable, and corrupt files are
//!   quarantined instead of retried.
//! - [`PredictorRegistry`]: named models over a [`BundleStore`] behind one
//!   lookup, with an LRU **result cache** keyed on (model, architecture,
//!   device) — repeat queries for the same pair are answered without
//!   touching a tape. Tier movement is invisible: evicted models reload
//!   bit-identically.
//! - [`PredictorRegistry::serve_requests`]: the **in-process path**. The
//!   input slice is already in memory, so there is no queue: it is cut
//!   into [`ServeConfig::batch`]-sized chunks (default
//!   [`DEFAULT_SERVE_BATCH`]) that `nasflat-parallel` workers hand to the
//!   serving engine, which scores each chunk — *for any mix of devices* —
//!   as one multi-query block-diagonal tape pass per bundle member
//!   ([`BatchSession::predict_batched_tape_devices`]).
//! - [`IngressServer`]: the **always-on TCP front door** — an accept loop
//!   speaking a small length-prefixed protocol ([`wire`]), per-connection
//!   admission control, a bounded global queue that answers overload with
//!   `busy, retry after` instead of buffering ([`ServeError::Busy`]), and
//!   scheduler workers that coalesce queries *across connections and
//!   models* and answer each popped group on the **same serving engine**
//!   as the in-process path. [`IngressClient`] is the matching blocking
//!   client.
//! - [`DeadlineQueue`]: the **deadline-aware scheduler** behind the
//!   ingress. Requests may carry a relative `deadline_ms` budget
//!   ([`ServeRequest::with_deadline_ms`]); the queue orders by earliest
//!   deadline with a configurable anti-starvation aging term
//!   ([`SchedPolicy::Edf`], [`ServeConfig::starvation_boost`]), groups
//!   batches by deadline class, and retires overdue requests with
//!   [`ServeError::DeadlineExceeded`] instead of wasting a tape pass.
//!   [`SchedPolicy::Fifo`] preserves the pre-deadline arrival-order drain
//!   bit-for-bit.
//! - [`Telemetry`]: the **one counter ledger** (connections, served
//!   queries, busy rejections, faults, groups, deadline verdicts, tape
//!   passes; snapshot as [`ServeMetrics`]) and the **observability layer**
//!   — per-stage latency histograms (queue wait, batch assembly, tape
//!   evaluation, response write), batch/group-size histograms, live
//!   queue-depth/inflight gauges, per-model serve/hit/miss counters, and a
//!   bounded per-request trace ring. Served as a Prometheus-style text
//!   exposition through the `METRICS` wire op
//!   ([`IngressClient::metrics`]), answered inline by the connection
//!   reader so it can never deadlock behind a full queue. Recording is
//!   all relaxed atomics with no floats — bit-invisible to every
//!   determinism suite; perfbench's traced run reports its cost
//!   (`trace.overhead_ratio`).
//!
//! One request/response pair spans all of it: in-process callers hand
//! [`ServeRequest`]s to [`PredictorRegistry::serve_one`] /
//! [`PredictorRegistry::serve_requests`]; remote callers send the same
//! shape through [`IngressClient`]; every failure is a [`ServeError`].
//!
//! # Determinism contract
//!
//! Behind the ingress, batching is timing-dependent: which queries share a
//! pass depends on what happens to be queued and on how connections
//! interleave. That nondeterminism is **bit-invisible**: every
//! row of a mixed-device multi-query pass equals the per-query forward on
//! that (arch, device) pair alone, so results are bitwise those of a
//! sequential [`LatencyPredictor::predict`] loop at any worker count, batch
//! size, connection count, and arrival order. The serving and ingress test
//! suites pin mixed-model, mixed-device streams against the sequential
//! reference, and the workspace fingerprint (`tests/fingerprint.rs`) pins
//! the served bits from one commit to the next.
//!
//! # Example
//!
//! ```no_run
//! use nasflat_core::{LatencyPredictor, PredictorConfig};
//! use nasflat_serve::{ModelBundle, PredictorRegistry, ServeConfig, ServeRequest};
//! use nasflat_space::{Arch, Space};
//!
//! let predictor = LatencyPredictor::new(
//!     Space::Nb201,
//!     vec!["1080ti_1".into(), "raspi4".into()],
//!     0,
//!     PredictorConfig::quick(),
//! );
//! let bundle = ModelBundle::single(predictor).unwrap();
//! std::fs::write("nd.nfb1", bundle.to_bytes()).unwrap();
//!
//! let mut registry = PredictorRegistry::new(1024);
//! registry.load_file("nd", "nd.nfb1").unwrap();
//! let requests: Vec<ServeRequest> = (0..256)
//!     .map(|i| ServeRequest::new("nd", Arch::nb201_from_index(i * 37), (i % 2) as usize))
//!     .collect();
//! let cfg = ServeConfig::builder().build();
//! let responses = registry.serve_requests(&requests, &cfg).unwrap();
//! assert_eq!(responses.len(), 256);
//!
//! // The same registry can front a TCP service (see `IngressServer::bind`).
//! use nasflat_serve::{IngressClient, IngressServer};
//! let server = IngressServer::bind(registry.into_shared(), &cfg).unwrap();
//! let mut client = IngressClient::connect(server.local_addr()).unwrap();
//! let answer = client.predict(&requests[0]).unwrap();
//! assert_eq!(answer.score.to_bits(), responses[0].score.to_bits());
//! server.shutdown();
//! ```
//!
//! [`BatchSession::predict_batched_tape_devices`]:
//! nasflat_core::BatchSession::predict_batched_tape_devices
//! [`LatencyPredictor::predict`]: nasflat_core::LatencyPredictor::predict

#![deny(missing_docs)]

mod bundle;
mod config;
mod engine;
mod error;
mod ingress;
mod registry;
mod request;
mod sched;
mod store;
pub mod telemetry;
pub mod wire;

pub use bundle::{BundleError, ModelBundle};
pub use config::{ServeConfig, ServeConfigBuilder};
pub use error::ServeError;
pub use ingress::IngressServer;
pub use registry::{CacheStats, ModelCounters, PredictorRegistry, SharedRegistry};
pub use request::{ServeRequest, ServeResponse};
pub use sched::{DeadlineQueue, Drain, PushError, QueueEntry, SchedPolicy};
pub use store::{BundleStore, StoreUpdate, TierStats};
pub use telemetry::{
    DeadlineVerdict, Gauge, Histogram, HistogramSnapshot, RequestTrace, ServeMetrics, Telemetry,
    HISTOGRAM_BUCKETS,
};
pub use wire::{IngressClient, WireFault};

/// Default coalescing limit: the most queries one tape pass evaluates,
/// unless [`ServeConfigBuilder::batch`] says otherwise.
pub const DEFAULT_SERVE_BATCH: usize = 16;
