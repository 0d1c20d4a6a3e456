//! The always-on TCP ingress: accept loop, admission control, and the
//! cross-model coalescing scheduler.
//!
//! Thread topology (all long-lived threads are tracked in
//! [`nasflat_parallel::WorkerSet`]s and joined at shutdown):
//!
//! ```text
//! accept loop ──► per-connection reader ──► bounded DeadlineQueue
//!       │                 │  ▲               (EDF + aging | FIFO)
//!       │                 │  └ per-conn          │
//!       │                 │    inflight cap      ▼
//!       │         per-connection writer ◄── scheduler workers
//!       └ max_connections gate               (coalesce across models,
//!                                             group by deadline class)
//! ```
//!
//! **Backpressure, never buffering.** Overload is answered, not absorbed:
//! a connection beyond [`ServeConfig::max_connections`] is refused with a
//! busy frame and closed; a request arriving when the global queue is full
//! is rejected with [`ServeError::Busy`] carrying a retry-after hint — by
//! construction nothing in the server grows with offered load. The
//! per-connection inflight cap ([`ServeConfig::max_inflight`]) blocks a
//! single pipelining client *before* it can monopolize the shared queue.
//!
//! **Deadline-aware draining.** The global queue is a
//! [`DeadlineQueue`](crate::DeadlineQueue): under
//! [`SchedPolicy::Edf`](crate::SchedPolicy) requests pop earliest-deadline
//! first (best-effort requests sort with the
//! [`deadline_default_ms`](ServeConfig::deadline_default_ms) budget, aged
//! by [`starvation_boost`](ServeConfig::starvation_boost) so a
//! tight-deadline flood can never starve them), while
//! [`SchedPolicy::Fifo`](crate::SchedPolicy) preserves exact arrival
//! order. A popped group never mixes deadline-bound and best-effort
//! queries in one tape pass, and queries already overdue at dequeue are
//! answered [`ServeError::DeadlineExceeded`] immediately instead of being
//! evaluated.
//!
//! **Cross-model coalescing.** Scheduler workers block for a group of up
//! to [`ServeConfig::batch`] queries, then hand it to the same serving
//! engine the in-process
//! [`PredictorRegistry::serve_requests`](crate::PredictorRegistry::serve_requests) runs
//! on, which evaluates it — grouped by model version — as mixed-device
//! multi-query tape passes and credits the [`Telemetry`] ledger.
//! Queries from *different connections* to the same model share a pass;
//! the block-diagonal bit-identity contract makes the composition
//! invisible: every reply is bitwise the sequential
//! [`ModelBundle::predict_one`](crate::ModelBundle::predict_one) answer at
//! any connection, worker, or batch count — under either policy, because
//! scheduling only changes *which* queries share a pass, never a query's
//! answer.
//!
//! **Graceful shutdown.** [`IngressServer::shutdown`] stops accepting,
//! lets readers notice the flag at their next read-timeout tick, drains
//! every admitted job through the workers, flushes the replies, and joins
//! all threads. In-flight requests are answered; later ones see a shutdown
//! error frame or EOF.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nasflat_parallel::WorkerSet;
use nasflat_space::Arch;

use crate::bundle::ModelBundle;
use crate::config::ServeConfig;
use crate::engine::{self, Query};
use crate::error::ServeError;
use crate::registry::{ModelCounters, SharedRegistry};
use crate::request::ServeResponse;
use crate::sched::{DeadlineQueue, PushError};
use crate::telemetry::{
    render_counter, render_gauge, render_labelled, RequestTrace, ServeMetrics, Telemetry,
};
use crate::wire::{
    write_frame, ErrorFrame, Frame, FrameReader, MetricsFrame, ResponseFrame, WireFault,
    WIRE_MAX_FRAME,
};

/// One admitted query on its way to a scheduler worker. The model version
/// and bundle are pinned at admission, so a hot-swap mid-flight never
/// mixes versions within a reply. The registry name rides along for the
/// per-model serve counters.
struct Job {
    id: u64,
    model: String,
    model_version: u64,
    bundle: Arc<ModelBundle>,
    arch: Arch,
    device: usize,
    reply: Sender<Reply>,
}

impl Query for Job {
    fn model(&self) -> (u64, &ModelBundle) {
        (self.model_version, &self.bundle)
    }

    fn query(&self) -> (&Arch, usize) {
        (&self.arch, self.device)
    }
}

/// What a connection's writer thread sends back. `counted` marks replies
/// that retire an inflight slot (exactly the jobs that were admitted to
/// the global queue). `trace` is the request's lifecycle record so far
/// (telemetry enabled only); the writer stamps the reply time and commits
/// it to the trace ring after the frame is written.
struct Reply {
    id: u64,
    body: ReplyBody,
    counted: bool,
    trace: Option<RequestTrace>,
}

/// A reply is either a query's answer (score or failure) or a metrics
/// exposition, answered directly from the reader without touching the
/// queue.
enum ReplyBody {
    Answer(Result<ServeResponse, ServeError>),
    Metrics(String),
}

/// Per-connection admission control: a counting semaphore over the number
/// of admitted-but-unanswered requests. `acquire` blocks the connection's
/// reader (backpressure through TCP flow control), re-checking the
/// shutdown flag so a blocked reader cannot stall termination.
struct InflightSlots {
    cap: usize,
    count: Mutex<usize>,
    freed: Condvar,
}

impl InflightSlots {
    fn new(cap: usize) -> Self {
        InflightSlots {
            cap: cap.max(1),
            count: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a slot is free; `false` when shutdown arrived first.
    fn acquire(&self, shutdown: &AtomicBool) -> bool {
        let mut count = self.count.lock().expect("inflight lock");
        while *count >= self.cap {
            if shutdown.load(Ordering::Acquire) {
                return false;
            }
            let (guard, _) = self
                .freed
                .wait_timeout(count, Duration::from_millis(20))
                .expect("inflight lock");
            count = guard;
        }
        *count += 1;
        true
    }

    fn release(&self) {
        let mut count = self.count.lock().expect("inflight lock");
        *count = count.saturating_sub(1);
        drop(count);
        self.freed.notify_one();
    }
}

/// State shared by every ingress thread.
struct Ingress {
    registry: SharedRegistry,
    cfg: ServeConfig,
    shutdown: AtomicBool,
    live_conns: AtomicUsize,
    telemetry: Arc<Telemetry>,
}

/// Decrements the live-connection gauge when the *last* per-connection
/// thread (reader or writer, whichever outlives the other) finishes.
struct ConnToken(Arc<Ingress>);

impl Drop for ConnToken {
    fn drop(&mut self) {
        self.0.live_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The always-on TCP serving front door (the `ingress` module source
/// documents the thread topology and the backpressure contract).
///
/// Dropping the server performs the same graceful shutdown as
/// [`IngressServer::shutdown`].
pub struct IngressServer {
    local_addr: SocketAddr,
    shared: Arc<Ingress>,
    accept: Option<WorkerSet>,
    conns: Option<Arc<WorkerSet>>,
    workers: Option<WorkerSet>,
    queue: Arc<DeadlineQueue<Job>>,
}

impl core::fmt::Debug for IngressServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IngressServer")
            .field("local_addr", &self.local_addr)
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl IngressServer {
    /// Binds the listener at [`ServeConfig::bind`] (port 0 = ephemeral)
    /// and starts the accept loop plus [`ServeConfig::workers`] scheduler
    /// workers over `registry`. The registry stays shared: operators
    /// hot-swap models through their own handle while the server runs.
    ///
    /// # Errors
    /// [`ServeError::Io`] when binding the listener or spawning a thread
    /// fails.
    pub fn bind(registry: SharedRegistry, cfg: &ServeConfig) -> Result<IngressServer, ServeError> {
        let listener = TcpListener::bind(cfg.bind)?;
        let local_addr = listener.local_addr()?;
        let telemetry = if cfg.telemetry {
            Telemetry::new(cfg.trace_capacity)
        } else {
            Telemetry::disabled()
        };
        let shared = Arc::new(Ingress {
            registry,
            cfg: cfg.clone(),
            shutdown: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
            telemetry: Arc::new(telemetry),
        });
        let queue = Arc::new(DeadlineQueue::<Job>::new(
            cfg.queue_depth.max(1),
            cfg.sched_policy,
            cfg.deadline_default_ms,
            cfg.starvation_boost,
        ));
        let workers = WorkerSet::new("nasflat-ingress-worker");
        for _ in 0..cfg.workers.max(1) {
            let queue = queue.clone();
            let shared = shared.clone();
            workers.spawn(move || scheduler_loop(&queue, &shared))?;
        }
        let conns = Arc::new(WorkerSet::new("nasflat-ingress-conn"));
        let accept = WorkerSet::new("nasflat-ingress-accept");
        {
            let shared = shared.clone();
            let conns = conns.clone();
            let queue = queue.clone();
            accept.spawn(move || accept_loop(listener, &shared, &conns, &queue))?;
        }
        Ok(IngressServer {
            local_addr,
            shared,
            accept: Some(accept),
            conns: Some(conns),
            workers: Some(workers),
            queue,
        })
    }

    /// The bound address — the one clients connect to, with the real port
    /// when the config asked for an ephemeral one.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the serving ledger.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.telemetry.metrics()
    }

    /// The server's [`Telemetry`] bundle: the ledger, per-stage latency
    /// histograms, size histograms, gauges, and the request-trace ring.
    /// In-process access to what the `METRICS` wire op exposes as text.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Dumps the request-trace ring, oldest first — the per-request
    /// lifecycle records (admission → dequeue → eval → reply timestamps
    /// plus deadline verdicts). Empty when telemetry is disabled.
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.shared.telemetry.traces()
    }

    /// The full Prometheus-style text exposition, rendered in-process —
    /// byte-for-byte what [`IngressClient::metrics`] fetches over TCP
    /// (modulo the counters moving between the two renders).
    ///
    /// [`IngressClient::metrics`]: crate::IngressClient::metrics
    pub fn metrics_text(&self) -> String {
        exposition(&self.shared, &self.queue)
    }

    /// Graceful shutdown: stop accepting, answer everything already
    /// admitted, flush replies, join every thread. Returns the final
    /// counter snapshot.
    pub fn shutdown(mut self) -> ServeMetrics {
        self.shutdown_inner();
        self.metrics()
    }

    fn shutdown_inner(&mut self) {
        if !self.shared.shutdown.swap(true, Ordering::AcqRel) {
            // Wake the accept loop out of its blocking accept().
            let _ = TcpStream::connect(self.local_addr);
        }
        if let Some(accept) = self.accept.take() {
            accept.join();
        }
        // Readers exit at their next read-timeout tick; closing the queue
        // rejects any late push with `Closed` (answered as a shutdown
        // error) and lets workers drain what remains, then exit.
        self.queue.close();
        if let Some(conns) = self.conns.take() {
            // The accept thread held the only other handle and has joined,
            // so unwrapping cannot fail; the fallback spin is pure caution.
            match Arc::try_unwrap(conns) {
                Ok(set) => set.join(),
                Err(arc) => {
                    while arc.active() > 0 {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
        }
        if let Some(workers) = self.workers.take() {
            workers.join();
        }
    }
}

impl Drop for IngressServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<Ingress>,
    conns: &Arc<WorkerSet>,
    queue: &Arc<DeadlineQueue<Job>>,
) {
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            // The shutdown wake-up (or an unlucky late client).
            let _ = write_frame(
                &mut stream,
                &Frame::Error(ErrorFrame::from_error(0, &ServeError::Shutdown)),
            );
            break;
        }
        if shared.live_conns.load(Ordering::Acquire) >= shared.cfg.max_connections {
            shared.telemetry.count_connection(false);
            let _ = write_frame(
                &mut stream,
                &Frame::Error(ErrorFrame::from_error(
                    0,
                    &ServeError::Busy {
                        retry_after_ms: shared.cfg.retry_after_ms,
                    },
                )),
            );
            continue; // dropping the stream closes it
        }
        shared.telemetry.count_connection(true);
        shared.live_conns.fetch_add(1, Ordering::AcqRel);
        spawn_connection(conns, stream, shared, queue);
    }
}

fn spawn_connection(
    conns: &Arc<WorkerSet>,
    stream: TcpStream,
    shared: &Arc<Ingress>,
    queue: &Arc<DeadlineQueue<Job>>,
) {
    // The token is shared by both per-connection threads; the gauge drops
    // when the last of them finishes (or a spawn fails below).
    let token = Arc::new(ConnToken(shared.clone()));
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let slots = Arc::new(InflightSlots::new(shared.cfg.max_inflight));
    let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
    {
        let slots = slots.clone();
        let token = token.clone();
        let telemetry = shared.telemetry.clone();
        if conns
            .spawn(move || {
                writer_loop(writer_stream, reply_rx, &slots, &telemetry);
                drop(token);
            })
            .is_err()
        {
            return;
        }
    }
    let shared = shared.clone();
    let queue = queue.clone();
    // If this spawn fails, the closure is dropped unrun: reply_tx goes with
    // it, the writer sees the disconnect and exits, the token follows.
    let _ = conns.spawn(move || {
        reader_loop(stream, &reply_tx, &queue, &shared, &slots);
        drop(token);
    });
}

/// Per-connection read half: frame, validate, resolve, admit.
fn reader_loop(
    mut stream: TcpStream,
    reply_tx: &Sender<Reply>,
    queue: &DeadlineQueue<Job>,
    shared: &Arc<Ingress>,
    slots: &Arc<InflightSlots>,
) {
    let fail = |id: u64, result: Result<ServeResponse, ServeError>| Reply {
        id,
        body: ReplyBody::Answer(result),
        counted: false,
        trace: None,
    };
    let mut framer = FrameReader::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = reply_tx.send(fail(0, Err(ServeError::Shutdown)));
            break;
        }
        let frame = match framer.poll(&mut stream, WIRE_MAX_FRAME) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue, // read-timeout tick: re-check shutdown
            Err(WireFault::Closed) => break,
            Err(fault @ (WireFault::Oversized { .. } | WireFault::Malformed(_))) => {
                // Protocol violation: tell the client why, then hang up —
                // the stream can no longer be trusted to be in sync.
                shared.telemetry.count_fault();
                let _ = reply_tx.send(fail(0, Err(ServeError::Wire(fault))));
                break;
            }
            Err(_) => break, // transport error: nothing useful to say
        };
        let request = match frame {
            Frame::Request(rf) => rf,
            Frame::MetricsRequest(id) => {
                // Text-exposition probe: rendered inline by the reader and
                // sent through the reply channel — never admitted to the
                // job queue, so it cannot deadlock behind a full queue or
                // an inflight cap.
                let text = exposition(shared, queue);
                let _ = reply_tx.send(Reply {
                    id,
                    body: ReplyBody::Metrics(text),
                    counted: false,
                    trace: None,
                });
                continue;
            }
            _ => {
                shared.telemetry.count_fault();
                let _ = reply_tx.send(fail(
                    0,
                    Err(ServeError::Wire(WireFault::Malformed(
                        "client sent a non-request frame".into(),
                    ))),
                ));
                break;
            }
        };
        let raw_id = request.id;
        let (id, req) = match request.into_request() {
            Ok(pair) => pair,
            Err(e) => {
                shared.telemetry.count_fault();
                let _ = reply_tx.send(fail(raw_id, Err(e)));
                continue;
            }
        };
        // Resolve + validate at admission time under a read lock, pinning
        // the model version this request will be answered by.
        let resolved = {
            let registry = shared.registry.read().expect("registry lock");
            registry.lookup_model(&req.model).and_then(|(v, b)| {
                b.check_query(&req.arch, req.device)?;
                Ok((v, b))
            })
        };
        let (model_version, bundle) = match resolved {
            Ok(pair) => pair,
            Err(e) => {
                shared.telemetry.count_fault();
                let _ = reply_tx.send(fail(id, Err(e)));
                continue;
            }
        };
        if !slots.acquire(&shared.shutdown) {
            let _ = reply_tx.send(fail(id, Err(ServeError::Shutdown)));
            break;
        }
        let deadline_ms = req.deadline_ms;
        let job = Job {
            id,
            model: req.model,
            model_version,
            bundle,
            arch: req.arch,
            device: req.device,
            reply: reply_tx.clone(),
        };
        // Inflight gauge: admitted and unanswered; the writer decrements
        // when the counted reply drains. Raised before the push, since a
        // worker may pop, answer and retire the job before `try_push`
        // returns — a late increment would outlive its clamped decrement.
        shared.telemetry.inflight().inc();
        match queue.try_push(job, deadline_ms) {
            Ok(()) => {}
            Err(PushError::Full(_)) => {
                // The queue is the backpressure boundary: reject now with a
                // retry hint instead of buffering anywhere.
                shared.telemetry.inflight().dec();
                slots.release();
                shared.telemetry.count_busy();
                let _ = reply_tx.send(fail(
                    id,
                    Err(ServeError::Busy {
                        retry_after_ms: shared.cfg.retry_after_ms,
                    }),
                ));
            }
            Err(PushError::Closed(_)) => {
                shared.telemetry.inflight().dec();
                slots.release();
                let _ = reply_tx.send(fail(id, Err(ServeError::Shutdown)));
                break;
            }
        }
    }
}

/// Per-connection write half: the only thread that touches the socket's
/// write side, so frames never interleave. Keeps draining after a write
/// failure (client gone) so every admitted job still retires its slot.
/// Records the response-write histogram and commits request traces after
/// the frame lands.
fn writer_loop(
    mut stream: TcpStream,
    reply_rx: Receiver<Reply>,
    slots: &InflightSlots,
    telemetry: &Telemetry,
) {
    let mut sock_alive = true;
    while let Ok(reply) = reply_rx.recv() {
        // The gauge must drop before the response bytes can reach the
        // client: a scrape issued after the last reply was received has
        // to observe a quiescent `nasflat_inflight`, never a stale 1.
        if reply.counted {
            telemetry.inflight().dec();
        }
        if sock_alive {
            let frame = match reply.body {
                ReplyBody::Answer(Ok(ref resp)) => Frame::Response(ResponseFrame {
                    id: reply.id,
                    model_version: resp.model_version,
                    score: resp.score,
                }),
                ReplyBody::Answer(Err(ref e)) => Frame::Error(ErrorFrame::from_error(reply.id, e)),
                ReplyBody::Metrics(text) => Frame::Metrics(MetricsFrame { id: reply.id, text }),
            };
            if telemetry.is_enabled() {
                let write_start = Instant::now();
                if write_frame(&mut stream, &frame).is_err() {
                    sock_alive = false;
                }
                telemetry.observe_write(write_start.elapsed().as_micros() as u64);
            } else if write_frame(&mut stream, &frame).is_err() {
                sock_alive = false;
            }
        }
        if let Some(mut trace) = reply.trace {
            trace.replied_us = telemetry.now_us();
            telemetry.push_trace(trace);
        }
        if reply.counted {
            slots.release();
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Scheduler worker: block for one deadline-class group (priority order,
/// expired entries split out), then answer it on the serving engine.
/// Queries from different connections share passes here.
fn scheduler_loop(queue: &DeadlineQueue<Job>, shared: &Ingress) {
    let telemetry = &*shared.telemetry;
    while let Some(drain) = queue.pop_group(shared.cfg.batch.max(1)) {
        let dequeued = Instant::now();
        engine::evaluate(drain, dequeued, telemetry, |answers| {
            // Credit the per-model serve counter *before* the replies go
            // out, so a scrape racing a client's tally can only see the
            // counter ahead of (never behind) the answers it observed.
            let served = answers.iter().filter(|a| a.result.is_ok()).count() as u64;
            if served > 0 {
                shared
                    .registry
                    .read()
                    .expect("registry lock")
                    .record_served(&answers[0].entry.item.model, served);
            }
            for answer in answers {
                let (job, admitted) = (answer.entry.item, answer.entry.admitted);
                let trace = telemetry.is_enabled().then(|| RequestTrace {
                    request_id: job.id,
                    model: job.model.clone(),
                    admitted_us: telemetry.us_at(admitted),
                    dequeued_us: telemetry.us_at(dequeued),
                    evaluated_us: answer.evaluated.map_or(0, |t| telemetry.us_at(t)),
                    replied_us: 0,
                    verdict: answer.verdict,
                });
                // A send error means the connection's writer is gone (the
                // client hung up); the answer is simply dropped.
                let _ = job.reply.send(Reply {
                    id: job.id,
                    body: ReplyBody::Answer(
                        answer
                            .result
                            .map(|score| ServeResponse::new(score, job.model_version)),
                    ),
                    counted: true,
                    trace,
                });
            }
        });
    }
}

/// Renders the full Prometheus-style text exposition: the telemetry
/// ledger, histograms and gauges, the live queue-depth and connection
/// gauges, the registry cache/tier families, and the per-model
/// serve/hit/miss counters. Pure reads — rendering a scrape
/// never perturbs what it measures beyond two registry read-locks.
fn exposition(shared: &Ingress, queue: &DeadlineQueue<Job>) -> String {
    let mut out = String::with_capacity(4096);
    shared.telemetry.render_into(&mut out);
    render_gauge(&mut out, "nasflat_queue_depth", queue.len() as u64);
    render_gauge(
        &mut out,
        "nasflat_connections_live",
        shared.live_conns.load(Ordering::Acquire) as u64,
    );
    let registry = shared.registry.read().expect("registry lock");
    let (cache, tiers) = (registry.cache_stats(), registry.tier_stats());
    for (name, value) in [
        ("nasflat_cache_hits_total", cache.hits),
        ("nasflat_cache_misses_total", cache.misses),
        ("nasflat_store_evictions_total", tiers.evictions),
        ("nasflat_store_cold_loads_total", tiers.cold_loads),
        ("nasflat_store_quarantined_total", tiers.quarantined),
    ] {
        render_counter(&mut out, name, value);
    }
    for (name, value) in [
        ("nasflat_cache_entries", cache.entries),
        ("nasflat_store_hot", tiers.hot),
        ("nasflat_store_durable", tiers.durable),
        ("nasflat_store_hot_capacity", tiers.hot_capacity),
        ("nasflat_models", registry.len()),
    ] {
        render_gauge(&mut out, name, value as u64);
    }
    let per_model = registry.model_stats();
    drop(registry);
    use std::fmt::Write as _;
    type Pick = fn(&ModelCounters) -> u64;
    for (family, pick) in [
        ("nasflat_model_served_total", (|c| c.served) as Pick),
        ("nasflat_model_cache_hits_total", |c| c.cache_hits),
        ("nasflat_model_cache_misses_total", |c| c.cache_misses),
    ] {
        let _ = writeln!(out, "# TYPE {family} counter");
        for (name, c) in &per_model {
            render_labelled(&mut out, family, "model", name, pick(c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_slots_block_at_capacity_and_release() {
        let slots = Arc::new(InflightSlots::new(2));
        let shutdown = AtomicBool::new(false);
        assert!(slots.acquire(&shutdown));
        assert!(slots.acquire(&shutdown));
        // Third acquire blocks until another thread releases.
        let blocked = {
            let slots = slots.clone();
            std::thread::spawn(move || {
                let shutdown = AtomicBool::new(false);
                slots.acquire(&shutdown)
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!blocked.is_finished(), "acquire should block at capacity");
        slots.release();
        assert!(blocked.join().unwrap());
    }

    #[test]
    fn inflight_acquire_aborts_on_shutdown() {
        let slots = InflightSlots::new(1);
        let shutdown = AtomicBool::new(false);
        assert!(slots.acquire(&shutdown));
        shutdown.store(true, Ordering::Release);
        // Full + shutdown: acquire must give up rather than block forever.
        assert!(!slots.acquire(&shutdown));
    }
}
