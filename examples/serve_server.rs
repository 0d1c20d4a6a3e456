//! The always-on ingress, as a process (extension).
//!
//! Boots a predictor registry behind [`IngressServer`]: an accept loop
//! speaking the length-prefixed wire protocol, per-connection admission
//! control, a bounded global queue that answers overload with
//! busy-retry-after, and scheduler workers coalescing queries from every
//! connection into shared tape passes.
//!
//! Two modes:
//!
//! - `cargo run --release --example serve_server [-- <addr>]` — serve on
//!   `addr` (default `127.0.0.1:7878`) until Enter is pressed; pair it
//!   with the `serve_client` example from another terminal.
//! - `cargo run --release --example serve_server -- --smoke <N>` — bind an
//!   ephemeral port, drive `N` queries through 4 real TCP connections
//!   in-process (every third carrying a generous deadline budget so the
//!   wire trailer and the deadline ledger are exercised end to end),
//!   verify every answer **bitwise** against a sequential `predict_one`
//!   loop, scrape the `METRICS` endpoint (failing if a required family is
//!   missing or the exposition's deadline ledger disagrees with the client
//!   tally), and shut down gracefully. Exits non-zero on any divergence or
//!   deadline miss — CI runs this as the ingress smoke test, on the
//!   default deadline-aware (EDF) drain.

use nasflat::core::{LatencyPredictor, PredictorConfig};
use nasflat::hw::DeviceRegistry;
use nasflat::serve::{
    IngressClient, IngressServer, ModelBundle, PredictorRegistry, ServeConfig, ServeRequest,
    SharedRegistry,
};
use nasflat::space::{Arch, Space};

/// One registry a server would realistically boot from: the NAS-Bench-201
/// device roster behind a single named model. (A deployment would
/// `load_file` a trained `.nfb1` bundle here — see `serve_demo` /
/// `export_predictor`; untrained weights serve identically for wire and
/// determinism checks.)
fn boot_registry() -> SharedRegistry {
    let devices = DeviceRegistry::nb201().owned_names();
    let predictor = LatencyPredictor::new(Space::Nb201, devices, 0, PredictorConfig::quick());
    let bundle = ModelBundle::single(predictor).expect("no supplement configured");
    let mut registry = PredictorRegistry::new(4096);
    registry
        .insert("nd", bundle)
        .expect("in-memory publish cannot fail");
    registry.into_shared()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        let n = args
            .get(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
            .max(4);
        smoke(n);
        return;
    }

    let addr = args
        .first()
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7878")
        .to_string();
    let registry = boot_registry();
    let cfg = ServeConfig::builder()
        .bind(addr.parse().expect("addr parses as host:port"))
        .workers(nasflat::parallel::max_threads())
        .build();
    let server = IngressServer::bind(registry, &cfg).expect("bind listener");
    println!(
        "serving model 'nd' on {} ({} workers, batch {}, queue {})",
        server.local_addr(),
        cfg.workers,
        cfg.batch,
        cfg.queue_depth
    );
    println!("try: cargo run --release --example serve_client -- {addr} nd 256");
    println!("press Enter to shut down...");
    let _ = std::io::stdin().read_line(&mut String::new());
    let metrics = server.shutdown();
    println!(
        "served {} queries over {} connection(s), {} coalesced groups (max {}), \
         {} busy rejections",
        metrics.queries_served,
        metrics.connections_accepted,
        metrics.groups,
        metrics.max_group,
        metrics.busy_rejections
    );
}

/// CI mode: real sockets, in-process clients, bitwise acceptance.
fn smoke(n: usize) {
    const CONNS: usize = 4;
    let registry = boot_registry();
    let cfg = ServeConfig::builder()
        .workers(nasflat::parallel::max_threads())
        .build(); // default bind 127.0.0.1:0 — an ephemeral port
    let server = IngressServer::bind(registry.clone(), &cfg).expect("bind listener");
    let addr = server.local_addr();
    println!("smoke: {n} queries over {CONNS} connections to {addr}");

    let num_devices = DeviceRegistry::nb201().owned_names().len();
    let requests: Vec<ServeRequest> = (0..n)
        .map(|i| {
            let req = ServeRequest::new(
                "nd",
                Arch::nb201_from_index((i as u64 * 379 + 11) % 15_625),
                i % num_devices,
            );
            // Every third query carries a budget no healthy server can
            // blow, so the deadline trailer and ledger get real traffic.
            if i % 3 == 0 {
                req.with_deadline_ms(10_000)
            } else {
                req
            }
        })
        .collect();
    // The contract every served answer must hit, bit for bit.
    let reference: Vec<u32> = {
        let reg = registry.read().unwrap();
        let bundle = reg.get("nd").unwrap();
        requests
            .iter()
            .map(|r| bundle.predict_one(&r.arch, r.device).to_bits())
            .collect()
    };

    let per_conn = n.div_ceil(CONNS);
    let t0 = std::time::Instant::now();
    let served: Vec<u32> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(per_conn)
            .map(|reqs| {
                scope.spawn(move || {
                    let mut client = IngressClient::connect(addr).expect("connect");
                    client
                        .predict_many(reqs, 8)
                        .into_iter()
                        .map(|r| r.expect("valid query").score.to_bits())
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let divergent = served
        .iter()
        .zip(&reference)
        .filter(|(s, r)| s != r)
        .count();

    // Scrape the METRICS endpoint while the server is still up: the text
    // exposition must carry every required family and its deadline ledger
    // must agree with what the clients were promised (every third query
    // carried a 10 s budget, so all of them count as met).
    let text = IngressClient::connect(addr)
        .expect("connect for scrape")
        .metrics()
        .expect("METRICS scrape");
    let mut missing = 0usize;
    for family in [
        "nasflat_queue_wait_us_bucket",
        "nasflat_tape_eval_us_bucket",
        "nasflat_response_write_us_bucket",
        "nasflat_batch_size_bucket",
        "nasflat_queue_depth",
        "nasflat_model_served_total",
    ] {
        if !text.contains(family) {
            eprintln!("FAIL: exposition is missing required family {family}");
            missing += 1;
        }
    }
    if missing > 0 {
        std::process::exit(1);
    }
    let scraped = |name: &str| -> u64 {
        text.lines()
            .find_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                if key == name {
                    value.parse().ok()
                } else {
                    None
                }
            })
            .unwrap_or_else(|| {
                eprintln!("FAIL: exposition has no sample {name}");
                std::process::exit(1);
            })
    };
    let tally = (n.div_ceil(3) as u64, 0u64, 0u64); // met, missed, expired
    let ledger = (
        scraped("nasflat_deadline_met_total"),
        scraped("nasflat_deadline_missed_total"),
        scraped("nasflat_deadline_expired_total"),
    );
    if ledger != tally {
        eprintln!(
            "FAIL: scraped deadline ledger {ledger:?} disagrees with the client tally {tally:?}"
        );
        std::process::exit(1);
    }
    if scraped("nasflat_queries_served_total") != n as u64 {
        eprintln!("FAIL: scraped served total disagrees with {n} client answers");
        std::process::exit(1);
    }

    let metrics = server.shutdown();
    println!(
        "{:.0} queries/s — {} served, {} coalesced groups (max {}), \
         deadlines {} met / {} missed / {} expired, bitwise-match: {}",
        n as f64 / elapsed,
        metrics.queries_served,
        metrics.groups,
        metrics.max_group,
        metrics.deadline_met,
        metrics.deadline_missed,
        metrics.deadline_expired,
        if divergent == 0 { "yes" } else { "NO" },
    );
    if divergent > 0 {
        eprintln!("FAIL: {divergent}/{n} served answers diverged from the sequential loop");
        std::process::exit(1);
    }
    if metrics.deadline_missed + metrics.deadline_expired > 0 {
        eprintln!(
            "FAIL: 10 s budgets must always be met ({} missed, {} expired)",
            metrics.deadline_missed, metrics.deadline_expired
        );
        std::process::exit(1);
    }
}
