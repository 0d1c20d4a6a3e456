//! The serving subsystem's acceptance suite: a saved-and-reloaded predictor
//! serves a 256-query mixed-device stream through
//! [`PredictorRegistry::serve_requests`] with results **bitwise identical**
//! to a sequential per-query [`LatencyPredictor::predict`] loop, at 1, 2,
//! and 8 worker threads and across batch limits — the end-to-end form of
//! the block-diagonal determinism contract.

use nasflat_core::{LatencyPredictor, PredictorConfig};
use nasflat_encode::{ColumnStats, EncodingKind};
use nasflat_serve::{ModelBundle, PredictorRegistry, ServeConfig, ServeRequest};
use nasflat_space::{Arch, Space};

fn tiny_cfg(seed: u64) -> PredictorConfig {
    let mut c = PredictorConfig::quick().with_seed(seed);
    c.op_dim = 8;
    c.hw_dim = 8;
    c.node_dim = 8;
    c.ophw_gnn_dims = vec![12];
    c.ophw_mlp_dims = vec![12];
    c.gnn_dims = vec![12, 12];
    c.head_dims = vec![16];
    c
}

fn device_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("dev_{i}")).collect()
}

/// Model name every test registers its bundle under.
const MODEL: &str = "m";

/// A 256-query stream cycling every device (the acceptance criterion's
/// "mixed-device stream").
fn mixed_stream(n: usize, num_devices: usize) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            ServeRequest::new(
                MODEL,
                Arch::nb201_from_index((i as u64 * 547 + 13) % 15_625),
                i % num_devices,
            )
        })
        .collect()
}

fn reference_scores(bundle: &ModelBundle, requests: &[ServeRequest]) -> Vec<u32> {
    requests
        .iter()
        .map(|r| bundle.predict_one(&r.arch, r.device).to_bits())
        .collect()
}

/// A registry serving `bundle` under [`MODEL`], with the result cache off.
fn registry(bundle: ModelBundle) -> PredictorRegistry {
    let mut registry = PredictorRegistry::new(0);
    registry.insert(MODEL, bundle).expect("in-memory insert");
    registry
}

/// Serves `requests` through the registry and returns the score bits.
fn served_bits(
    registry: &PredictorRegistry,
    requests: &[ServeRequest],
    cfg: &ServeConfig,
) -> Vec<u32> {
    registry
        .serve_requests(requests, cfg)
        .expect("validated stream")
        .iter()
        .map(|r| r.score.to_bits())
        .collect()
}

#[test]
fn reloaded_bundle_serves_256_mixed_device_queries_bitwise_at_1_2_8_workers() {
    let devices = device_names(5);
    let trained = LatencyPredictor::new(Space::Nb201, devices, 0, tiny_cfg(7));

    // Save to disk, reload from disk — serving always runs on the reloaded
    // artifact, like a real deployment.
    let bundle = ModelBundle::single(trained).expect("valid bundle");
    let path = std::env::temp_dir().join("nasflat_serving_test.nfb1");
    std::fs::write(&path, bundle.to_bytes()).expect("write bundle");
    let reloaded =
        ModelBundle::from_bytes(&std::fs::read(&path).expect("read bundle")).expect("reload");
    let _ = std::fs::remove_file(&path);

    let queries = mixed_stream(256, 5);
    // The reference: a sequential per-query predict loop.
    let expect = reference_scores(&reloaded, &queries);
    let registry = registry(reloaded);

    let mut served = 0;
    for workers in [1usize, 2, 8] {
        for batch in [1usize, 7, 16] {
            let cfg = ServeConfig::builder().workers(workers).batch(batch).build();
            let got = served_bits(&registry, &queries, &cfg);
            assert_eq!(
                got, expect,
                "drained results diverged at {workers} workers, batch {batch}"
            );
            served += 256;
            assert_eq!(registry.model_stats()[MODEL].served, served);
        }
    }
}

#[test]
fn ensemble_bundle_serves_the_member_mean_bitwise() {
    let devices = device_names(3);
    let members: Vec<LatencyPredictor> = (0..3)
        .map(|m| LatencyPredictor::new(Space::Nb201, devices.clone(), 0, tiny_cfg(100 + m)))
        .collect();
    let bundle = ModelBundle::new(members, None).expect("valid ensemble");
    let reloaded = ModelBundle::from_bytes(&bundle.to_bytes()).expect("round trip");
    assert_eq!(reloaded.num_members(), 3);

    let queries = mixed_stream(64, 3);
    let expect = reference_scores(&reloaded, &queries);
    let cfg = ServeConfig::builder().workers(2).batch(8).build();
    let got = served_bits(&registry(reloaded), &queries, &cfg);
    assert_eq!(got, expect, "ensemble serving diverged from the mean loop");
}

#[test]
fn zcp_supplemented_bundle_serves_from_the_norms_snapshot() {
    let devices = device_names(2);
    let cfg = {
        let mut c = tiny_cfg(11);
        c.supplement = Some(EncodingKind::Zcp);
        c
    };
    let member = LatencyPredictor::new(Space::Nb201, devices, 13, cfg);
    // Deterministic stand-in stats (a real deployment snapshots
    // EncodingSuite::zcp_stats()).
    let stats = ColumnStats::from_parts(
        (0..13).map(|i| (i as f32 * 0.3).sin()).collect(),
        (0..13).map(|i| 0.5 + i as f32 * 0.1).collect(),
    );
    let bundle = ModelBundle::new(vec![member], Some(stats)).expect("valid");
    let reloaded = ModelBundle::from_bytes(&bundle.to_bytes()).expect("round trip");

    let queries = mixed_stream(48, 2);
    let expect = reference_scores(&reloaded, &queries);
    let cfg = ServeConfig::builder().workers(8).batch(16).build();
    let got = served_bits(&registry(reloaded), &queries, &cfg);
    assert_eq!(got, expect, "supplemented serving diverged");
}

#[test]
fn fbnet_bundle_serves_mixed_devices_bitwise() {
    let devices = device_names(4);
    let bundle = ModelBundle::single(LatencyPredictor::new(
        Space::Fbnet,
        devices,
        0,
        tiny_cfg(21),
    ))
    .expect("valid");
    let queries: Vec<ServeRequest> = (0..96)
        .map(|i| {
            let genotype: Vec<u8> = (0..22).map(|j| ((i + j) % 9) as u8).collect();
            ServeRequest::new(MODEL, Arch::new(Space::Fbnet, genotype), i % 4)
        })
        .collect();
    let expect = reference_scores(&bundle, &queries);
    let cfg = ServeConfig::builder().workers(2).batch(8).build();
    let got = served_bits(&registry(bundle), &queries, &cfg);
    assert_eq!(got, expect);
}
