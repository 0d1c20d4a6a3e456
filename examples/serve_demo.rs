//! Latency-as-a-service, end to end (extension).
//!
//! The deployment story this repository grows toward: pre-train once,
//! export the predictor as a versioned bundle, reload it in a serving
//! process, and answer a mixed-device query stream through the registry's
//! batched entry point — verifying along the way that batched serving is
//! **bitwise identical** to a per-query predict loop, and faster.
//!
//! Run with: `cargo run --release --example serve_demo [-- <queries> <workers>]`
//! (defaults: 256 queries, the host's thread count). Exits non-zero if any
//! served result diverges from the reference loop — CI runs this as the
//! serving smoke test.

use std::time::Instant;

use nasflat::core::{FewShotConfig, PretrainedTask};
use nasflat::hw::{DeviceRegistry, LatencyTable};
use nasflat::serve::{
    ModelBundle, PredictorRegistry, ServeConfig, ServeRequest, DEFAULT_SERVE_BATCH,
};
use nasflat::space::{Arch, Space};
use nasflat::tasks::{paper_task, probe_pool};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_queries: usize = args
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
        .max(1);
    let workers: usize = args
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(nasflat::parallel::max_threads)
        .max(1);

    // 1. Train the expensive artifact (reduced budget for the demo).
    let task = paper_task("ND").expect("paper task");
    let pool = probe_pool(Space::Nb201, 200, 0);
    let registry_hw = DeviceRegistry::nb201();
    let table = LatencyTable::build(registry_hw.devices(), &pool);
    let mut cfg = FewShotConfig::quick();
    cfg.predictor.epochs = 8;
    cfg.pretrain_per_device = 24;
    println!(
        "pre-training on {} source devices ({} archs)...",
        task.num_train(),
        pool.len()
    );
    let pre = PretrainedTask::build(&task, &pool, &table, None, cfg);

    // 2. Export: the predictor ships as one versioned bundle file.
    let bundle = ModelBundle::single(pre.predictor().clone()).expect("no supplement configured");
    let path = std::env::temp_dir().join("nasflat_nd.nfb1");
    let bytes = bundle.to_bytes();
    std::fs::write(&path, &bytes).expect("write bundle");
    println!(
        "exported {} KiB bundle to {}",
        bytes.len() / 1024,
        path.display()
    );

    // 3. The serving process: load the file into a named registry.
    let mut registry = PredictorRegistry::new(4096);
    let model = registry.load_file("nd-quick", &path).expect("bundle loads");
    println!(
        "registry serves '{}': {} member(s), {} devices",
        registry.names().join(", "),
        model.num_members(),
        model.devices().len()
    );

    // 4. A mixed-device query stream — every device in the roster appears.
    let num_devices = model.devices().len();
    let queries: Vec<ServeRequest> = (0..n_queries)
        .map(|i| {
            ServeRequest::new(
                "nd-quick",
                Arch::nb201_from_index((i as u64 * 379 + 11) % 15_625),
                i % num_devices,
            )
        })
        .collect();

    // Reference: the sequential per-query loop every serving mode must
    // reproduce bit for bit.
    let reference: Vec<u32> = queries
        .iter()
        .map(|q| model.predict_one(&q.arch, q.device).to_bits())
        .collect();

    let mut failures = 0usize;
    for (label, batch) in [
        ("per-query serving (batch 1)", 1usize),
        ("multi-query tape passes", DEFAULT_SERVE_BATCH),
    ] {
        let serve_cfg = ServeConfig::builder().workers(workers).batch(batch).build();
        let t0 = Instant::now();
        let responses = registry
            .serve_requests(&queries, &serve_cfg)
            .expect("validated stream");
        let elapsed = t0.elapsed().as_secs_f64();
        let ok = responses
            .iter()
            .zip(&reference)
            .all(|(resp, &r)| resp.score.to_bits() == r);
        if !ok {
            failures += 1;
        }
        println!(
            "{label:28} {workers} workers, batch {batch:2}: {:7.0} queries/s  \
             bitwise-match: {}",
            n_queries as f64 / elapsed,
            if ok { "yes" } else { "NO" },
        );
    }

    // 5. The registry's LRU result cache answers repeats without a tape.
    let hot = queries[0].clone();
    let cold = registry.serve_one(&hot).unwrap();
    let warm = registry.serve_one(&hot).unwrap();
    let stats = registry.cache_stats();
    assert_eq!(cold.score.to_bits(), warm.score.to_bits());
    println!(
        "result cache: {} hit(s), {} miss(es) — cached answers are bit-identical",
        stats.hits, stats.misses
    );

    let _ = std::fs::remove_file(&path);
    if failures > 0 {
        eprintln!("FAIL: served results diverged from the per-query reference");
        std::process::exit(1);
    }
    println!("\nworkflow: train once, ship the .nfb1 bundle, serve every device from one process.");
}
