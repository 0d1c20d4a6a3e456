//! Acceptance suite of the bundle store: a disk-backed registry
//! whose hot tier holds only 2 decoded bundles must serve a 64-query
//! mixed-model stream — forcing LRU evictions and durable reloads along
//! the way — **bitwise identical** to an uncapped in-memory registry, and
//! corruption must quarantine, never panic.

use std::path::PathBuf;

use nasflat_core::{LatencyPredictor, PredictorConfig};
use nasflat_serve::{
    BundleStore, IngressClient, IngressServer, ModelBundle, PredictorRegistry, ServeConfig,
    ServeError, ServeRequest,
};
use nasflat_space::{Arch, Space};

fn tiny_cfg(seed: u64) -> PredictorConfig {
    let mut c = PredictorConfig::quick().with_seed(seed);
    c.op_dim = 8;
    c.hw_dim = 8;
    c.node_dim = 8;
    c.ophw_gnn_dims = vec![12];
    c.ophw_mlp_dims = vec![12];
    c.gnn_dims = vec![12];
    c.head_dims = vec![16];
    c
}

fn bundle(seed: u64, num_devices: usize) -> ModelBundle {
    let devices = (0..num_devices).map(|i| format!("dev_{i}")).collect();
    ModelBundle::single(LatencyPredictor::new(
        Space::Nb201,
        devices,
        0,
        tiny_cfg(seed),
    ))
    .unwrap()
}

/// A fresh per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("nasflat_store_it_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// 64 queries cycling through `models`, every device appearing.
fn mixed_requests(models: &[&str], n: usize, num_devices: usize) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            ServeRequest::new(
                models[i % models.len()],
                Arch::nb201_from_index((i as u64 * 547 + 13) % 15_625),
                i % num_devices,
            )
        })
        .collect()
}

/// The issue's acceptance criterion: hot-tier capacity 2, four models, 64
/// round-robin queries — every fetch past the first two demotes the LRU
/// resident and reloads a warm one from disk — and the answers are bitwise
/// those of an uncapped, purely in-memory registry over the same bundles.
#[test]
fn capacity_2_registry_serves_64_mixed_queries_bitwise_equal_to_uncapped() {
    let scratch = Scratch::new("accept");
    let models = ["m0", "m1", "m2", "m3"];
    let bytes: Vec<Vec<u8>> = (0..4).map(|s| bundle(s as u64, 3).to_bytes()).collect();

    // Result caches disabled on both sides: every answer is a real pass.
    let mut capped =
        PredictorRegistry::with_store(BundleStore::open(scratch.path(), 2).unwrap(), 0);
    let mut uncapped = PredictorRegistry::new(0);
    for (name, b) in models.iter().zip(&bytes) {
        capped.load_bytes(*name, b).unwrap();
        uncapped.load_bytes(*name, b).unwrap();
    }

    let requests = mixed_requests(&models, 64, 3);
    for req in &requests {
        let got = capped.serve_one(req).unwrap().score;
        let want = uncapped.serve_one(req).unwrap().score;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "capped registry diverged on {} / device {}",
            req.model,
            req.device
        );
    }

    let tiers = capped.tier_stats();
    assert!(
        tiers.evictions > 0,
        "4 models round-robin through a 2-slot hot tier must evict"
    );
    assert!(
        tiers.cold_loads > 0,
        "evicted models must have been reloaded from disk"
    );
    assert!(tiers.hot <= 2, "hot tier exceeded its capacity");
    assert_eq!(tiers.durable, 4);
    assert_eq!(tiers.quarantined, 0);
}

/// Cold start: a fresh process (a reopened store, every entry durable)
/// serves bit-identically to the process that published the bundles.
#[test]
fn reopened_store_serves_bit_identical_to_the_publisher() {
    let scratch = Scratch::new("reopen");
    let models = ["alpha", "beta"];
    let requests = mixed_requests(&models, 32, 2);

    let reference: Vec<u32> = {
        let mut reg =
            PredictorRegistry::with_store(BundleStore::open(scratch.path(), 0).unwrap(), 0);
        reg.insert("alpha", bundle(11, 2)).unwrap();
        reg.insert("beta", bundle(12, 2)).unwrap();
        requests
            .iter()
            .map(|r| reg.serve_one(r).unwrap().score.to_bits())
            .collect()
    };

    // A brand-new registry over the same directory: everything starts
    // durable and is decoded into the hot tier on first use.
    let reopened = PredictorRegistry::with_store(BundleStore::open(scratch.path(), 1).unwrap(), 0);
    assert_eq!(reopened.names(), vec!["alpha".to_string(), "beta".into()]);
    assert_eq!(reopened.tier_stats().hot, 0, "nothing decoded yet");
    let got: Vec<u32> = requests
        .iter()
        .map(|r| reopened.serve_one(r).unwrap().score.to_bits())
        .collect();
    assert_eq!(got, reference, "cold-start reload is not bit-identical");
    assert!(reopened.tier_stats().cold_loads >= 2);
}

/// A corrupted durable file is quarantined on first touch: the lookup
/// reports a [`ServeError::Bundle`] whose source chain reaches the parse
/// failure, the entry leaves the registry, and the broken file moves to
/// `quarantine/` instead of being retried forever.
#[test]
fn corrupt_bundle_is_quarantined_with_a_bundle_error_chain() {
    let scratch = Scratch::new("quarantine");
    {
        let mut reg =
            PredictorRegistry::with_store(BundleStore::open(scratch.path(), 0).unwrap(), 0);
        reg.insert("broken", bundle(21, 2)).unwrap();
        reg.insert("fine", bundle(22, 2)).unwrap();
    }
    // Truncate the bundle of "broken" mid-file.
    let victim = std::fs::read_dir(scratch.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("broken") && n.ends_with(".nfb1"))
        })
        .expect("published file named after the model");
    let full = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &full[..full.len() / 2]).unwrap();

    let reg = PredictorRegistry::with_store(BundleStore::open(scratch.path(), 0).unwrap(), 0);
    let err = reg.lookup_model("broken").expect_err("truncated bundle");
    match &err {
        ServeError::Bundle(_) => {
            let mut depth = 0;
            let mut cause: &dyn std::error::Error = &err;
            while let Some(next) = cause.source() {
                cause = next;
                depth += 1;
            }
            assert!(depth >= 1, "Bundle error must chain to its root cause");
        }
        other => panic!("expected ServeError::Bundle, got {other:?}"),
    }
    // The entry is gone (not retried), the file sits in quarantine/, and
    // the healthy sibling still serves.
    assert!(matches!(
        reg.lookup_model("broken").unwrap_err(),
        ServeError::UnknownModel(_)
    ));
    assert_eq!(reg.tier_stats().quarantined, 1);
    let quarantined = std::fs::read_dir(scratch.path().join("quarantine"))
        .expect("quarantine directory exists")
        .count();
    assert_eq!(quarantined, 1);
    assert!(reg.get("fine").is_some());
    let req = ServeRequest::new("fine", Arch::nb201_from_index(5), 0);
    assert!(reg.serve_one(&req).is_ok());
}

/// Readers predicting across a capacity-2 hot tier while an operator
/// hot-swaps a model: fixed models stay bitwise stable throughout (an
/// in-flight predict pins its bundle via `Arc`, eviction or not), and the
/// swapped model's version monotonically advances.
#[test]
fn concurrent_predicts_survive_hot_swaps_and_evictions_bitwise() {
    let scratch = Scratch::new("concurrent");
    let fixed = ["f0", "f1", "f2"];
    let mut reg = PredictorRegistry::with_store(BundleStore::open(scratch.path(), 2).unwrap(), 0);
    for (i, name) in fixed.iter().enumerate() {
        reg.insert(*name, bundle(30 + i as u64, 2)).unwrap();
    }
    reg.insert("swapped", bundle(40, 2)).unwrap();
    let requests = mixed_requests(&fixed, 48, 2);
    let reference: Vec<u32> = requests
        .iter()
        .map(|r| reg.serve_one(r).unwrap().score.to_bits())
        .collect();
    let shared = reg.into_shared();

    std::thread::scope(|scope| {
        // Three reader threads hammer the fixed models; the capacity-2 hot
        // tier guarantees their bundles keep moving between tiers under
        // their feet.
        for _ in 0..3 {
            let shared = &shared;
            let requests = &requests;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..8 {
                    for (req, &want) in requests.iter().zip(reference.iter()) {
                        let got = shared
                            .read()
                            .unwrap()
                            .serve_one(req)
                            .expect("fixed model serves");
                        assert_eq!(
                            got.score.to_bits(),
                            want,
                            "round {round}: eviction changed {}",
                            req.model
                        );
                    }
                }
            });
        }
        // The operator hot-swaps "swapped" concurrently and immediately
        // queries each new version.
        let shared = &shared;
        scope.spawn(move || {
            let probe = ServeRequest::new("swapped", Arch::nb201_from_index(99), 0);
            let mut last_version = 0u64;
            for i in 0..8 {
                shared
                    .write()
                    .unwrap()
                    .insert("swapped", bundle(50 + i, 2))
                    .expect("hot-swap");
                let resp = shared.read().unwrap().serve_one(&probe).unwrap();
                assert!(
                    resp.model_version > last_version,
                    "hot-swap must advance the model version"
                );
                last_version = resp.model_version;
            }
        });
    });

    let reg = shared.read().unwrap();
    let tiers = reg.tier_stats();
    assert!(tiers.evictions > 0, "4 models over 2 hot slots must evict");
    assert_eq!(tiers.quarantined, 0);
}

/// Reads one unlabelled sample (`name value`) from a METRICS exposition.
fn sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            let (n, v) = line.rsplit_once(' ')?;
            (n == name).then(|| v.parse().ok()).flatten()
        })
        .unwrap_or_else(|| panic!("exposition is missing sample {name}:\n{text}"))
}

/// The METRICS wire op: a remote client observes the registry's model
/// count and the store's tier occupancy through the ingress.
#[test]
fn ingress_stats_reports_tier_occupancy_over_the_wire() {
    let scratch = Scratch::new("stats");
    let mut reg = PredictorRegistry::with_store(BundleStore::open(scratch.path(), 1).unwrap(), 16);
    reg.insert("alpha", bundle(61, 2)).unwrap();
    reg.insert("beta", bundle(62, 2)).unwrap();
    let shared = reg.into_shared();

    let cfg = ServeConfig::builder().workers(2).build();
    let server = IngressServer::bind(shared, &cfg).expect("bind ingress");
    let mut client = IngressClient::connect(server.local_addr()).expect("connect");

    // Alternate models so the 1-slot hot tier evicts between answers.
    for i in 0..8u64 {
        let name = if i % 2 == 0 { "alpha" } else { "beta" };
        let req = ServeRequest::new(name, Arch::nb201_from_index(i * 31), (i % 2) as usize);
        client.predict(&req).expect("served");
    }

    let text = client.metrics().expect("metrics round trip");
    let stat = |name| sample(&text, name);
    assert_eq!(stat("nasflat_models"), 2);
    assert_eq!(stat("nasflat_store_durable"), 2);
    assert_eq!(stat("nasflat_store_hot_capacity"), 1);
    assert!(
        stat("nasflat_store_hot") <= 1,
        "hot tier exceeded its capacity"
    );
    assert!(
        stat("nasflat_store_evictions_total") >= 1,
        "alternating two models over one hot slot must evict"
    );
    assert!(stat("nasflat_store_cold_loads_total") >= 1);
    assert_eq!(stat("nasflat_store_quarantined_total"), 0);

    // The connection keeps serving predictions after a metrics probe.
    let req = ServeRequest::new("alpha", Arch::nb201_from_index(7), 0);
    assert!(client.predict(&req).is_ok());
    server.shutdown();
}
