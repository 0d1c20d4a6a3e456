//! The workspace's bitwise fingerprint: one FNV-1a hash over the bits the
//! determinism contract promises, checked against a committed value.
//!
//! It folds in, in order:
//!
//! 1. `save_weights()` after an N1 `PretrainedTask::build` (Pipeline
//!    defaults: CAZ-cosine sampler, ZCP supplement);
//! 2. a run of `transfer_to` calls, each adding its Spearman bits and the
//!    adapted weights;
//! 3. `predict_batch` scores of an F1-pretrained FBNet predictor;
//! 4. the scores the serving engine returns for a fixed mixed-model,
//!    mixed-device request stream over both models.
//!
//! The tier-1 case runs at the benchmark's `--smoke` sizes; the full-size
//! case is `#[ignore]`d and runs in release in CI:
//!
//! ```sh
//! cargo test --release -p nasflat --test fingerprint -- --ignored
//! ```
//!
//! A change that moves these bits on purpose updates the committed value
//! and says why in CHANGES.md. The values are pinned for x86-64 glibc
//! hosts, where `f32::exp` is glibc's `expf` and the tensor crate's
//! vectorized port picks the same FMA or plain arm; elsewhere the test
//! prints the hash and checks nothing.

use nasflat::core::{FewShotConfig, PretrainedTask};
use nasflat::encode::{EncodingSuite, SuiteConfig};
use nasflat::hw::{fnv1a, DeviceRegistry, LatencyTable};
use nasflat::serve::{ModelBundle, PredictorRegistry, ServeConfig, ServeRequest};
use nasflat::space::{Arch, Space};
use nasflat::tasks::{paper_task, probe_pool};
use nasflat::Pipeline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How much of each stage the fingerprint runs.
struct Sizes {
    /// Architectures per pool (both spaces).
    pool: usize,
    /// Shrink the predictors to the benchmark's `--smoke` widths.
    smoke: bool,
    /// `transfer_to` calls, cycling through N1's test devices.
    transfers: usize,
    /// FBNet architectures scored by `predict_batch`, per device.
    fbnet_scores: usize,
    /// Requests in the served stream.
    requests: usize,
}

const SMOKE: Sizes = Sizes {
    pool: 80,
    smoke: true,
    transfers: 5,
    fbnet_scores: 40,
    requests: 64,
};

const FULL: Sizes = Sizes {
    pool: 500,
    smoke: false,
    transfers: 40,
    fbnet_scores: 200,
    requests: 256,
};

/// Committed smoke-size fingerprint. The FMA and plain `expf` arms give
/// the same value.
const SMOKE_EXPECTED: u64 = 0xaf68_c267_3054_721c;

/// Committed full-size fingerprint. The FMA and plain `expf` arms give the
/// same value.
const FULL_EXPECTED: u64 = 0xd63b_4fb8_212d_6131;

/// The benchmark's `--smoke` predictor: widths 8–16, two epochs, eight
/// pre-training samples per device.
fn shrink(cfg: &mut FewShotConfig) {
    let p = &mut cfg.predictor;
    (p.op_dim, p.hw_dim, p.node_dim) = (8, 8, 8);
    (p.ophw_gnn_dims, p.ophw_mlp_dims) = (vec![12], vec![12]);
    (p.gnn_dims, p.head_dims) = (vec![12], vec![16]);
    (p.epochs, p.transfer_epochs) = (2, 2);
    cfg.pretrain_per_device = 8;
    cfg.transfer_samples = 8;
    cfg.eval_samples = 20;
}

/// Hashes each folded piece, then the sequence of piece hashes.
#[derive(Default)]
struct Fold(Vec<u8>);

impl Fold {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(&fnv1a(bytes).to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.bytes(&bytes);
    }

    fn finish(&self) -> u64 {
        fnv1a(&self.0)
    }
}

fn fingerprint(sizes: &Sizes) -> u64 {
    let mut fold = Fold::default();

    // 1–2. N1: pre-train, then transfer to each test device in turn.
    let n1 = paper_task("N1").expect("N1 is a paper task");
    let pool = probe_pool(Space::Nb201, sizes.pool, 0);
    let table = LatencyTable::build(DeviceRegistry::nb201().devices(), &pool);
    let suite = EncodingSuite::build(&pool, &SuiteConfig::quick().with_seed(0));
    let mut cfg = Pipeline::new("N1").config_mut().clone();
    if sizes.smoke {
        shrink(&mut cfg);
    }
    let mut pre = PretrainedTask::build(&n1, &pool, &table, Some(&suite), cfg.clone());
    fold.bytes(&pre.predictor().save_weights());
    let nb201 = ModelBundle::with_suite(vec![pre.predictor().clone()], &suite)
        .expect("ZCP supplement bundles with its suite");
    for i in 0..sizes.transfers {
        let target = &n1.test[i % n1.test.len()];
        match pre.transfer_to(target, &cfg.sampler, i as u64) {
            Ok(out) => {
                fold.f32s(&[out.spearman]);
                fold.bytes(&pre.predictor().save_weights());
            }
            Err(e) => fold.bytes(e.to_string().as_bytes()),
        }
    }

    // 3. F1: pre-train an FBNet predictor and score a slice of its pool on
    //    the first and last device.
    let f1 = paper_task("F1").expect("F1 is a paper task");
    let fb_pool = probe_pool(Space::Fbnet, sizes.pool, 0);
    let fb_table = LatencyTable::build(DeviceRegistry::fbnet().devices(), &fb_pool);
    let mut fb_cfg = Pipeline::new("F1").supplement(None).config_mut().clone();
    fb_cfg.predictor = fb_cfg.predictor.for_fbnet();
    if sizes.smoke {
        shrink(&mut fb_cfg);
    }
    let fb = PretrainedTask::build(&f1, &fb_pool, &fb_table, None, fb_cfg)
        .predictor()
        .clone();
    let scored = &fb_pool[..sizes.fbnet_scores.min(fb_pool.len())];
    for device in [0, fb.devices().len() - 1] {
        fold.f32s(&fb.predict_batch(scored, device, None));
    }

    // 4. Serve a fixed mixed-model, mixed-device stream over both models.
    let fbnet = ModelBundle::single(fb).expect("no supplement configured");
    let models = [("nb201", &nb201), ("fbnet", &fbnet)];
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let requests: Vec<ServeRequest> = (0..sizes.requests)
        .map(|_| {
            let (name, bundle) = models[rng.random_range(0..models.len())];
            let arch = Arch::random(bundle.space(), &mut rng);
            let device = rng.random_range(0..bundle.devices().len());
            ServeRequest::new(name, arch, device)
        })
        .collect();
    let mut registry = PredictorRegistry::new(0);
    for (name, bundle) in models {
        registry
            .insert(name, bundle.clone())
            .expect("in-memory publish");
    }
    let served = registry
        .serve_requests(&requests, &ServeConfig::builder().workers(2).build())
        .expect("valid stream");
    let scores: Vec<f32> = served.iter().map(|r| r.score).collect();
    fold.f32s(&scores);

    fold.finish()
}

/// Which build of glibc's `expf` this host runs, or `None` off x86-64
/// glibc, where no fingerprint is pinned.
fn expf_arm() -> Option<&'static str> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    {
        let fma = std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("avx2");
        Some(if fma { "fma" } else { "plain" })
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    {
        None
    }
}

fn check(sizes: &Sizes, expected: u64) {
    let got = fingerprint(sizes);
    let Some(arm) = expf_arm() else {
        eprintln!("no fingerprint is pinned for this platform; computed {got:#018x}");
        return;
    };
    assert_eq!(
        got, expected,
        "fingerprint moved: expected {expected:#018x}, computed {got:#018x} \
         (expf arm: {arm}). If the bits changed on purpose, update the \
         committed value and say why in CHANGES.md."
    );
}

#[test]
fn smoke_fingerprint_matches_the_committed_value() {
    check(&SMOKE, SMOKE_EXPECTED);
}

#[test]
#[ignore = "full size: run in release, see the module docs"]
fn full_fingerprint_matches_the_committed_value() {
    check(&FULL, FULL_EXPECTED);
}
