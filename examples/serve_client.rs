//! A pipelined ingress client (extension).
//!
//! Connects to a running `serve_server` (or any [`IngressServer`]) and
//! drives a pipelined NAS-Bench-201 query stream through it, printing
//! throughput and a sample of the scores. Per-request failures (unknown
//! model, bad device), busy rejections, and expired deadlines are
//! counted, not fatal — the backpressure and deadline contracts make
//! them part of normal operation.
//!
//! Usage:
//! `cargo run --release --example serve_client -- [addr] [model] [n] [device] [deadline_ms]`
//! (defaults: `127.0.0.1:7878 nd 256 0`, no deadline). A fifth argument
//! attaches that relative budget to every request; overdue answers come
//! back as `DeadlineExceeded` and are tallied separately.
//!
//! Observability probe (no query traffic is sent):
//! `serve_client -- --metrics [addr]` dumps the Prometheus-style text
//! exposition from the `METRICS` wire op — pipe it straight into a scrape
//! file. It carries the result-cache, store-tier, model-count and deadline
//! counters too.
//!
//! [`IngressServer`]: nasflat::serve::IngressServer

use nasflat::serve::{IngressClient, ServeError, ServeRequest};
use nasflat::space::Arch;

fn connect_or_die(addr: &str) -> IngressClient {
    match IngressClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot reach {addr}: {e} (is serve_server running?)");
            std::process::exit(1);
        }
    }
}

/// `--metrics`: one METRICS round trip; the exposition is already the
/// Prometheus text format, so it is printed verbatim.
fn probe_metrics(addr: &str) {
    let mut client = connect_or_die(addr);
    match client.metrics() {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("METRICS probe failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let probe = args.next_if(|a| a == "--metrics").is_some();
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7878".to_string());
    if probe {
        probe_metrics(&addr);
        return;
    }
    let model = args.next().unwrap_or_else(|| "nd".to_string());
    let n: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(256);
    let device: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let deadline_ms: Option<u32> = args.next().and_then(|v| v.parse().ok());

    let requests: Vec<ServeRequest> = (0..n)
        .map(|i| {
            let req = ServeRequest::new(
                &model,
                Arch::nb201_from_index((i as u64 * 37 + 5) % 15_625),
                device,
            );
            match deadline_ms {
                Some(ms) => req.with_deadline_ms(ms),
                None => req,
            }
        })
        .collect();

    let mut client = connect_or_die(&addr);
    let t0 = std::time::Instant::now();
    let results = client.predict_many(&requests, 8);
    let elapsed = t0.elapsed().as_secs_f64();

    let mut ok = 0usize;
    let mut busy = 0usize;
    let mut expired = 0usize;
    let mut failed = 0usize;
    let mut sample = Vec::new();
    for result in &results {
        match result {
            Ok(resp) => {
                ok += 1;
                if sample.len() < 4 {
                    sample.push(format!("{:.4}", resp.score));
                }
            }
            Err(ServeError::Busy { .. }) => busy += 1,
            Err(ServeError::DeadlineExceeded { .. }) => expired += 1,
            Err(e) => {
                if failed == 0 {
                    eprintln!("first failure: {e}");
                }
                failed += 1;
            }
        }
    }
    println!(
        "{addr} model '{model}': {ok}/{n} answered ({busy} busy, {expired} expired, \
         {failed} failed) — {:.0} queries/s, sample scores [{}]",
        ok as f64 / elapsed.max(1e-9),
        sample.join(", ")
    );
    if ok == 0 {
        std::process::exit(1);
    }
}
