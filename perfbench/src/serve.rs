//! `serve_mixed`: the TCP front door under closed-loop load.
//!
//! Set-up trains an NB201 model (ZCP supplement, so every request encodes
//! its architecture) and an FBNet model, exports both as `ModelBundle`s,
//! publishes them to a fresh `BundleStore` directory, opens a registry on
//! that directory, promotes both models to the hot tier and binds an
//! `IngressServer` with one scheduler worker. Load comes from one
//! connection keeping a fixed window of requests in flight;
//! requests mix models and devices, and every fourth carries a deadline
//! budget a healthy server never misses. One op is one request, timed on
//! the client from send to reply. Every reply must equal
//! `ModelBundle::predict_one` bit for bit.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nasflat::core::{FewShotConfig, PretrainedTask};
use nasflat::encode::{EncodingSuite, SuiteConfig};
use nasflat::hw::{DeviceRegistry, LatencyTable};
use nasflat::serve::wire::{read_frame, Frame, RequestFrame, WIRE_MAX_FRAME};
use nasflat::serve::{
    BundleStore, IngressClient, IngressServer, ModelBundle, PredictorRegistry, SchedPolicy,
    ServeConfig, ServeRequest, SharedRegistry,
};
use nasflat::space::{Arch, Space};
use nasflat::tasks::{paper_task, probe_pool};
use nasflat::Pipeline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::flops::forward_flops;
use crate::report::{mean, quantile, Outcome, Samples, Tally};
use crate::{speed, Ctx, SetupLog};

/// Registry names of the two models.
const MODELS: [&str; 2] = ["nb201", "fbnet"];
/// Distinct requests the load cycles through.
const REQUESTS: usize = 2048;
/// Requests the client keeps in flight: enough that the queue never runs
/// dry. With 8, the batches a drain pops depended on thread wake-up order,
/// and the throughput of 2 s windows moved by 11 % in ways the host speed
/// did not explain; with 24 the drains repeat and the host speed explains
/// most of it.
const WINDOW: usize = 24;
/// Length of one stretch of the closed loop (see `closed_loop`).
const STRETCH: Duration = Duration::from_millis(250);
/// Every `DEADLINE_EVERY`-th request carries a `DEADLINE_MS` budget.
const DEADLINE_EVERY: usize = 4;
const DEADLINE_MS: u32 = 5000;
/// Coalescing limit of the scheduler worker.
const BATCH: usize = 16;
/// Offered rate of the open-loop diagnostic, requests per second.
const OPEN_RATE: f64 = 1000.0;
/// Length of the open-loop diagnostic.
const OPEN_SECONDS: f64 = 2.0;

fn serve_config(store_dir: &Path) -> ServeConfig {
    ServeConfig::builder()
        .workers(1)
        .batch(BATCH)
        .queue_depth(256)
        .bind(SocketAddr::from(([127, 0, 0, 1], 0)))
        .max_connections(16)
        .max_inflight(32)
        .retry_after_ms(10)
        .read_timeout_ms(25)
        .store_dir(store_dir)
        .hot_capacity(2)
        .sched_policy(SchedPolicy::Edf)
        // Best-effort requests sort with the same budget as deadline-bound
        // ones, so the queue drains in arrival order.
        .deadline_default_ms(DEADLINE_MS)
        .starvation_boost(0)
        .telemetry(true)
        .trace_capacity(256)
        .build()
}

/// Serving does not depend on how well the models rank, so they pretrain
/// for 10 epochs; `smoke` shrinks them further.
fn shrink(cfg: &mut FewShotConfig, smoke: bool) {
    cfg.predictor.epochs = 10;
    if smoke {
        let p = &mut cfg.predictor;
        (p.op_dim, p.hw_dim, p.node_dim) = (8, 8, 8);
        (p.ophw_gnn_dims, p.ophw_mlp_dims) = (vec![12], vec![12]);
        (p.gnn_dims, p.head_dims) = (vec![12], vec![16]);
        (p.epochs, p.transfer_epochs) = (2, 2);
        cfg.pretrain_per_device = 8;
    }
}

/// Trains both models: NB201 on N1 with the ZCP supplement, FBNet on F1
/// without a supplement. Returns the bundles in `MODELS` order.
fn train(smoke: bool, log: &mut SetupLog) -> [ModelBundle; 2] {
    let pool_size = if smoke { 80 } else { 500 };
    let n1 = paper_task("N1").expect("N1 is a paper task");
    let f1 = paper_task("F1").expect("F1 is a paper task");

    let pool = log.step("space.probe_pool_ms", || {
        probe_pool(Space::Nb201, pool_size, 0)
    });
    let table = log.step("hw.latency_table_ms", || {
        LatencyTable::build(DeviceRegistry::nb201().devices(), &pool)
    });
    let suite = log.step("encode.suite_build_ms", || {
        EncodingSuite::build(&pool, &SuiteConfig::quick().with_seed(0))
    });
    let mut cfg = Pipeline::new("N1").config_mut().clone();
    shrink(&mut cfg, smoke);
    let nb = log.step("core.pretrain_ms", || {
        PretrainedTask::build(&n1, &pool, &table, Some(&suite), cfg)
            .predictor()
            .clone()
    });
    let nb = ModelBundle::with_suite(vec![nb], &suite).expect("NB201 bundle");

    let pool = log.step("space.probe_pool_ms", || {
        probe_pool(Space::Fbnet, pool_size, 0)
    });
    let table = log.step("hw.latency_table_ms", || {
        LatencyTable::build(DeviceRegistry::fbnet().devices(), &pool)
    });
    let mut cfg = Pipeline::new("F1").supplement(None).config_mut().clone();
    cfg.predictor = cfg.predictor.for_fbnet();
    shrink(&mut cfg, smoke);
    let fb = log.step("core.pretrain_ms", || {
        PretrainedTask::build(&f1, &pool, &table, None, cfg)
            .predictor()
            .clone()
    });
    let fb = ModelBundle::single(fb).expect("FBNet bundle");
    [nb, fb]
}

/// The request mix: model, architecture and device drawn from the seed.
fn requests(seed: u64, bundles: &[ModelBundle; 2]) -> Vec<ServeRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E_D00D);
    (0..REQUESTS)
        .map(|i| {
            let m = rng.random_range(0..2usize);
            let arch = Arch::random(bundles[m].space(), &mut rng);
            let device = rng.random_range(0..bundles[m].devices().len());
            let req = ServeRequest::new(MODELS[m], arch, device);
            if i % DEADLINE_EVERY == 0 {
                req.with_deadline_ms(DEADLINE_MS)
            } else {
                req
            }
        })
        .collect()
}

/// A bound server plus what the benchmark needs to drive and check it.
struct Service {
    server: IngressServer,
    registry: SharedRegistry,
    cfg: ServeConfig,
    dir: PathBuf,
}

impl Service {
    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn scratch_dir(rep: usize) -> PathBuf {
    let base = std::env::current_dir()
        .expect("working directory")
        .join(".perfbench_tmp");
    base.join(format!("serve-{}-{rep}", std::process::id()))
}

/// Exports, publishes, reopens, promotes and binds.
fn deploy(bundles: &[ModelBundle; 2], rep: usize, log: &mut SetupLog) -> Service {
    let bytes: Vec<Vec<u8>> = log.step("serve.bundle_encode_ms", || {
        bundles.iter().map(ModelBundle::to_bytes).collect()
    });
    let dir = scratch_dir(rep);
    let _ = std::fs::remove_dir_all(&dir);
    log.step("serve.store_publish_ms", || {
        let store = BundleStore::open(&dir, 2).expect("open store");
        for (name, b) in MODELS.iter().zip(&bytes) {
            let bundle = ModelBundle::from_bytes(b).expect("exported bundle decodes");
            store.publish(name, bundle).expect("publish");
        }
    });
    let cfg = serve_config(&dir);
    let registry = log.step("serve.store_fetch_ms", || {
        let registry = PredictorRegistry::with_store(
            BundleStore::open(&dir, cfg.hot_capacity).expect("reopen"),
            0,
        );
        for name in MODELS {
            registry.lookup_model(name).expect("published model loads");
        }
        registry.into_shared()
    });
    let server = log.step("serve.bind_ms", || {
        IngressServer::bind(registry.clone(), &cfg).expect("bind")
    });
    Service {
        server,
        registry,
        cfg,
        dir,
    }
}

/// What the client connection saw.
#[derive(Default)]
struct ConnStats {
    tally: Tally,
    lat: Samples,
    /// (request index, score bits) of every OK reply.
    replies: Vec<(u32, u32)>,
    errors: BTreeMap<String, u64>,
    encode_ns: u64,
    decode_ns: u64,
    frames: u64,
}

/// Reads one whole frame (length prefix included) off the socket.
fn read_raw(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; 4];
    r.read_exact(&mut buf)?;
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len > WIRE_MAX_FRAME {
        return Err(std::io::Error::other("oversized frame"));
    }
    buf.resize(4 + len, 0);
    r.read_exact(&mut buf[4..])?;
    Ok(buf)
}

fn error_kind(e: &nasflat::serve::ServeError) -> String {
    let s = format!("{e:?}");
    s.split(['(', ' ', '{'])
        .next()
        .unwrap_or("other")
        .to_string()
}

/// How long a closed loop sends: until an instant, or a number of requests.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(u64),
}

/// A closed loop on one connection: keeps `WINDOW` requests in flight until
/// `stop`, cycling through `reqs`. It runs in stretches of `STRETCH`, each
/// drained before the next; the host speed is sampled between stretches,
/// with nothing in flight, and each stretch's latencies and time are scaled
/// by the mean of the factors at its ends.
fn closed_loop(addr: SocketAddr, reqs: &[ServeRequest], stop: Stop, traced: bool) -> ConnStats {
    let mut st = ConnStats::default();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut k = 0u64;
    let mut before = speed::factor();
    let mut broken = false;
    while !broken {
        let t0 = Instant::now();
        let more = |k: u64| match stop {
            Stop::At(end) => {
                let now = Instant::now();
                now < end && now < t0 + STRETCH
            }
            Stop::After(n) => k < n,
        };
        let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
        let mut lat_us = Vec::new();
        loop {
            while inflight.len() < WINDOW && more(k) {
                let idx = k as usize % reqs.len();
                k += 1;
                let t = Instant::now();
                let bytes = Frame::Request(RequestFrame::from_request(k, &reqs[idx])).encode();
                let sent = Instant::now();
                if traced {
                    st.encode_ns += (sent - t).as_nanos() as u64;
                }
                stream.write_all(&bytes).expect("send request");
                inflight.insert(k, (idx, sent));
            }
            if inflight.is_empty() {
                break;
            }
            let raw = match read_raw(&mut reader) {
                Ok(raw) => raw,
                Err(e) => {
                    *st.errors.entry(format!("io: {e}")).or_default() += inflight.len() as u64;
                    for _ in inflight.drain() {
                        st.tally.add(false);
                    }
                    broken = true;
                    break;
                }
            };
            let got = Instant::now();
            let frame = read_frame(&mut raw.as_slice(), WIRE_MAX_FRAME);
            if traced {
                st.decode_ns += got.elapsed().as_nanos() as u64;
                st.frames += 1;
            }
            match frame {
                Ok(Frame::Response(r)) => {
                    let (idx, sent) = inflight
                        .remove(&r.id)
                        .expect("reply to a request in flight");
                    st.tally.add(true);
                    lat_us.push((got - sent).as_secs_f64() * 1e6);
                    st.replies.push((idx as u32, r.score.to_bits()));
                }
                Ok(Frame::Error(e)) if e.id != 0 => {
                    inflight
                        .remove(&e.id)
                        .expect("error for a request in flight");
                    st.tally.add(false);
                    *st.errors.entry(error_kind(&e.to_error())).or_default() += 1;
                }
                other => {
                    *st.errors
                        .entry(format!("connection: {other:?}"))
                        .or_default() += inflight.len() as u64;
                    for _ in inflight.drain() {
                        st.tally.add(false);
                    }
                    broken = true;
                    break;
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let after = speed::factor();
        let factor = (before + after) / 2.0;
        before = after;
        for us in lat_us {
            st.lat.push(us / 1e3, factor);
        }
        st.lat.add_time(wall, factor);
        broken |= match stop {
            Stop::At(end) => Instant::now() >= end,
            Stop::After(n) => k >= n,
        };
    }
    st
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut log = SetupLog::new(ctx);
    let mut kept = None;
    for rep in 0..ctx.setups() {
        let began = log.begin(ctx);
        let bundles = train(ctx.smoke, &mut log);
        let service = deploy(&bundles, rep, &mut log);
        let reqs = requests(ctx.seed, &bundles);
        // Warm-up: two windows, discarded.
        let stop = Stop::After(2 * WINDOW as u64);
        let warm = closed_loop(service.server.local_addr(), &reqs, stop, false);
        log.finish(began);
        if rep + 1 < ctx.setups() {
            service.stop();
        } else {
            kept = Some((bundles, service, reqs, warm));
        }
    }
    let (bundles, service, reqs, warm) = kept.expect("setups >= 1");
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.phase("warm-up", warm.tally);
    log.report(&mut out);
    out.notes.push(format!(
        "closed loop: 1 connection x window {WINDOW}, 1 scheduler worker, batch {BATCH}, \
         {REQUESTS} distinct requests, every {DEADLINE_EVERY}th with a {DEADLINE_MS} ms budget"
    ));
    let tiers = service.registry.read().expect("registry").tier_stats();
    out.check(
        "models_hot",
        tiers.hot == 2,
        format!("{} hot after warm-up", tiers.hot),
    );
    measure(ctx, &bundles, &service, &reqs, log.setup_s(), &mut out);
    service.stop();
    let _ = std::fs::remove_dir(scratch_dir(0).parent().expect("scratch parent"));
    out
}

/// The reference answer of every request: `ModelBundle::predict_one`.
fn references(bundles: &[ModelBundle; 2], reqs: &[ServeRequest]) -> Vec<u32> {
    reqs.iter()
        .map(|r| {
            let m = MODELS
                .iter()
                .position(|&n| n == r.model)
                .expect("known model");
            bundles[m].predict_one(&r.arch, r.device).to_bits()
        })
        .collect()
}

/// How many OK replies equal their reference bit for bit.
fn matching(replies: &[(u32, u32)], refs: &[u32]) -> usize {
    replies
        .iter()
        .filter(|&&(idx, bits)| refs[idx as usize] == bits)
        .count()
}

fn measure(
    ctx: &Ctx,
    bundles: &[ModelBundle; 2],
    service: &Service,
    reqs: &[ServeRequest],
    setup_s: f64,
    out: &mut Outcome,
) {
    let addr = service.server.local_addr();
    let untraced = closed_loop(addr, reqs, Stop::At(Instant::now() + ctx.phase()), false);
    out.timed = untraced.tally;
    out.phase("timed", untraced.tally);
    for (k, v) in &untraced.errors {
        out.notes.push(format!("timed errors {k}: {v}"));
    }
    out.latency_metrics(&untraced.lat, setup_s);

    // Gate: every OK reply equals `ModelBundle::predict_one` bit for bit.
    let mut refs = references(bundles, reqs);
    if ctx.corrupt {
        if let Some(&(idx, _)) = untraced.replies.first() {
            refs[idx as usize] ^= 1;
        }
    }
    let equal = matching(&untraced.replies, &refs);
    let replies = untraced.replies.len();
    out.e2e
        .insert("quality", equal as f64 / replies.max(1) as f64);
    out.check(
        "replies_bitwise",
        equal == replies && replies > 0,
        format!("{equal} of {replies} OK replies equal predict_one"),
    );
    out.phase(
        "verify (reference predict_one calls)",
        Tally {
            sent: refs.len() as u64,
            ok: refs.len() as u64,
            failed: 0,
        },
    );

    if !ctx.trace {
        return;
    }
    traced_phase(ctx, bundles, service, reqs, &refs, untraced.lat, out);
}

/// Histogram and counter samples of one METRICS scrape.
struct Scrape(HashMap<String, f64>);

impl Scrape {
    fn take(addr: SocketAddr) -> Scrape {
        let text = IngressClient::connect(addr)
            .and_then(|mut c| c.metrics())
            .expect("METRICS scrape");
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect(),
        )
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Cumulative bucket counts of histogram `name` at the log2 bounds.
    fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let count = self.get(&format!("{name}_count"));
        (0..27)
            .map(|i| {
                let le = (1u64 << i) as f64;
                let key = format!("{name}_bucket{{le=\"{}\"}}", 1u64 << i);
                // Buckets above the last occupied one are elided: they
                // hold the whole count.
                (le, self.0.get(&key).copied().unwrap_or(count))
            })
            .collect()
    }
}

/// Difference of one histogram between two scrapes.
struct HistDelta {
    count: f64,
    sum: f64,
    buckets: Vec<(f64, f64)>,
}

impl HistDelta {
    fn new(before: &Scrape, after: &Scrape, name: &str) -> HistDelta {
        let b = before.buckets(name);
        let a = after.buckets(name);
        HistDelta {
            count: after.get(&format!("{name}_count")) - before.get(&format!("{name}_count")),
            sum: after.get(&format!("{name}_sum")) - before.get(&format!("{name}_sum")),
            buckets: a
                .iter()
                .zip(&b)
                .map(|(&(le, ca), &(_, cb))| (le, ca - cb))
                .collect(),
        }
    }

    fn mean(&self) -> f64 {
        self.sum / self.count.max(1.0)
    }

    /// Quantile, interpolated linearly inside the log2 bucket that holds it.
    fn quantile(&self, q: f64) -> f64 {
        let target = q * self.count;
        let mut prev = (0.0, 0.0);
        for &(le, cum) in &self.buckets {
            if cum >= target && cum > prev.1 {
                let lo = prev.0;
                return lo + (le - lo) * (target - prev.1) / (cum - prev.1);
            }
            prev = (le, cum);
        }
        prev.0
    }
}

fn traced_phase(
    ctx: &Ctx,
    bundles: &[ModelBundle; 2],
    service: &Service,
    reqs: &[ServeRequest],
    refs: &[u32],
    untraced: Samples,
    out: &mut Outcome,
) {
    let addr = service.server.local_addr();
    let before = Scrape::take(addr);
    let traced = closed_loop(addr, reqs, Stop::At(Instant::now() + ctx.phase()), true);
    let after = Scrape::take(addr);
    out.phase("traced", traced.tally);
    let equal = matching(&traced.replies, refs);
    out.check(
        "traced_replies_bitwise",
        equal == traced.replies.len(),
        format!(
            "{equal} of {} traced OK replies equal predict_one",
            traced.replies.len()
        ),
    );

    let q = HistDelta::new(&before, &after, "nasflat_queue_wait_us");
    let asm = HistDelta::new(&before, &after, "nasflat_batch_assembly_us");
    let eval = HistDelta::new(&before, &after, "nasflat_tape_eval_us");
    let write = HistDelta::new(&before, &after, "nasflat_response_write_us");
    let batch = HistDelta::new(&before, &after, "nasflat_batch_size");
    let delta = |k: &str| after.get(k) - before.get(k);
    let served = delta("nasflat_queries_served_total");
    let per_model: Vec<f64> = MODELS
        .iter()
        .map(|m| delta(&format!("nasflat_model_served_total{{model=\"{m}\"}}")))
        .collect();
    let flops: Vec<f64> = bundles
        .iter()
        .map(|b| {
            forward_flops(
                b.members()[0].config(),
                b.space(),
                b.members()[0].supp_dim(),
            )
        })
        .collect();
    let total_flops: f64 = per_model.iter().zip(&flops).map(|(n, f)| n * f).sum();
    let l = &mut out.layers;
    l.insert("serve.queue_wait_p50_us", q.quantile(0.5));
    l.insert("serve.queue_wait_p90_us", q.quantile(0.9));
    l.insert("serve.batch_assembly_us", asm.mean());
    l.insert("serve.tape_eval_us", eval.mean());
    l.insert("serve.response_write_us", write.mean());
    l.insert("serve.eval_us_per_query", eval.sum / served.max(1.0));
    l.insert("serve.batch_size_mean", batch.mean());
    l.insert(
        "serve.deadline_expired",
        delta("nasflat_deadline_expired_total"),
    );
    l.insert(
        "serve.deadline_missed",
        delta("nasflat_deadline_missed_total"),
    );
    l.insert("serve.busy", delta("nasflat_busy_rejections_total"));
    l.insert(
        "core.flops_per_query",
        total_flops / per_model.iter().sum::<f64>().max(1.0),
    );
    l.insert(
        "core.achieved_gflops",
        total_flops / (eval.sum / 1e6).max(1e-9) / 1e9,
    );
    let frames = traced.frames.max(1) as f64;
    l.insert(
        "wire.encode_us",
        traced.encode_ns as f64 / traced.tally.sent.max(1) as f64 / 1e3,
    );
    l.insert("wire.decode_us", traced.decode_ns as f64 / frames / 1e3);
    // A request waits in the queue, then for its group's assembly and tape
    // pass, then for its reply write. Queue wait is heavily skewed, so its
    // median stands next to the client median; the per-group stages are
    // nearly constant and enter as means.
    let stage_sum = q.quantile(0.5) + asm.mean() + eval.mean() + write.mean();
    let traced_p50_us = traced.lat.wall_p50() * 1e3;
    l.insert("serve.stage_sum_us", stage_sum);
    l.insert("serve.unaccounted_us", traced_p50_us - stage_sum);
    l.insert("trace.coverage_ratio", stage_sum / traced_p50_us);
    l.insert(
        "trace.overhead_ratio",
        quantile(&traced.lat.scaled_ms, 0.5) / quantile(&untraced.scaled_ms, 0.5),
    );
    out.notes.push(format!(
        "traced phase {:.3} s, {} replies: client p50 {traced_p50_us:.1} us = stages {stage_sum:.1} us \
         (queue p50 {:.1} + assembly {:.1} + eval {:.1} + write {:.1}) + unaccounted {:.1} us; \
         means: client {:.1} us, queue {:.1} us; {served} served in {} groups",
        traced.lat.wall_s,
        traced.tally.ok,
        q.quantile(0.5),
        asm.mean(),
        eval.mean(),
        write.mean(),
        traced_p50_us - stage_sum,
        mean(&traced.lat.wall_ms) * 1e3,
        q.mean(),
        eval.count
    ));

    // The same requests in process, no TCP.
    let rounds = if ctx.smoke { 1 } else { 4 };
    let registry = service.registry.read().expect("registry");
    let t = Instant::now();
    let mut inproc_ok = true;
    for _ in 0..rounds {
        let responses = registry
            .serve_requests(reqs, &service.cfg)
            .expect("in-process serve");
        inproc_ok &= responses
            .iter()
            .zip(refs)
            .all(|(r, &b)| r.score.to_bits() == b);
    }
    let inproc_qps = (rounds * reqs.len()) as f64 / t.elapsed().as_secs_f64();
    drop(registry);
    out.check(
        "inproc_bitwise",
        inproc_ok,
        format!("{rounds} x {} in-process requests", reqs.len()),
    );
    out.layers.insert("serve.inproc_qps", inproc_qps);
    let wall_qps = out.timed.ok as f64 / untraced.wall_s.max(1e-9);
    out.layers.insert(
        "serve.ingress_overhead_us",
        1e6 / wall_qps - 1e6 / inproc_qps,
    );

    open_loop(ctx, addr, reqs, refs, out);
}

/// Open-loop diagnostic: Poisson arrivals at `OPEN_RATE` on one connection,
/// each request timed from when it was due. Not gated: on a small shared
/// host these figures move 2-3x between identical runs.
fn open_loop(ctx: &Ctx, addr: SocketAddr, reqs: &[ServeRequest], refs: &[u32], out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x09E7_100F);
    let seconds = if ctx.smoke { 0.2 } else { OPEN_SECONDS };
    let mut due = Vec::new();
    let mut t = 0.0f64;
    while t < seconds {
        let u: f64 = rng.random_range(0.0..1.0);
        t += -(1.0 - u).ln() / OPEN_RATE;
        due.push(Duration::from_secs_f64(t));
    }
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let start = Instant::now();
    let mut lag_ms = Vec::with_capacity(due.len());
    let mut tally = Tally::default();
    let mut lat_ms = Vec::with_capacity(due.len());
    let mut mismatches = 0usize;
    std::thread::scope(|s| {
        let rx = s.spawn(|| {
            // (request id, arrival, score bits of an OK reply)
            let mut got: Vec<(u64, Instant, Option<u32>)> = Vec::new();
            while got.len() < due.len() {
                let Ok(raw) = read_raw(&mut reader) else {
                    break;
                };
                let at = Instant::now();
                match read_frame(&mut raw.as_slice(), WIRE_MAX_FRAME) {
                    Ok(Frame::Response(r)) => got.push((r.id, at, Some(r.score.to_bits()))),
                    Ok(Frame::Error(e)) if e.id != 0 => got.push((e.id, at, None)),
                    _ => break,
                }
            }
            got
        });
        let mut w = &stream;
        for (i, d) in due.iter().enumerate() {
            let when = start + *d;
            let now = Instant::now();
            if when > now {
                std::thread::sleep(when - now);
            }
            lag_ms.push(Instant::now().saturating_duration_since(when).as_secs_f64() * 1e3);
            let frame = Frame::Request(RequestFrame::from_request(
                i as u64 + 1,
                &reqs[i % reqs.len()],
            ));
            w.write_all(&frame.encode()).expect("send request");
        }
        let got = rx.join().expect("receiver thread");
        for _ in got.len()..due.len() {
            tally.add(false); // never answered
        }
        for (id, at, bits) in got {
            let i = id as usize - 1;
            tally.add(bits.is_some());
            if let Some(bits) = bits {
                mismatches += usize::from(bits != refs[i % refs.len()]);
                lat_ms.push((at - (start + due[i])).as_secs_f64() * 1e3);
            }
        }
    });
    out.check(
        "open_loop_bitwise",
        mismatches == 0,
        format!("{mismatches} open-loop replies differ from predict_one"),
    );
    out.phase("open-loop diagnostic", tally);
    out.layers
        .insert("loadgen.open_p50_ms", quantile(&lat_ms, 0.5));
    out.layers
        .insert("loadgen.open_p99_ms", quantile(&lat_ms, 0.99));
    out.layers.insert(
        "loadgen.open_lag_ms",
        lag_ms.iter().copied().fold(0.0, f64::max),
    );
    out.notes.push(format!(
        "open loop (ungated): {} requests at {OPEN_RATE}/s over {seconds} s, mean lag {:.3} ms",
        due.len(),
        mean(&lag_ms)
    ));
}
