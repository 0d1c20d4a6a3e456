//! Pins the bits of the TA-GATES refinement ablation (`RefinedPredictor`)
//! across its whole option grid, before and after training.
//!
//! For every option set it folds into one FNV-1a 64 hash, over the
//! little-endian bytes of each `f32`'s bits:
//!
//! 1. the untrained predictions on a fixed 24-architecture NB201 set;
//! 2. the predictions after `train(&data, 3, 3e-3, 8, 3)`;
//! 3. the trained Kendall tau.
//!
//! The committed value is pinned for x86-64 glibc hosts, where `f32::exp`
//! is glibc's `expf`; elsewhere the test prints the hash and checks nothing.

use nasflat_core::{BackwardKind, DetachMode, RefineOptions, RefinedPredictor, UnrolledKind};
use nasflat_space::{Arch, Space};

/// The committed hash over all 56 option sets.
const EXPECTED: u64 = 0x4895_62bf_e37a_469f;

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f32s(&mut self, values: &[f32]) {
        for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// 24 NB201 architectures, each with target `ln(total_flops + 1)`.
fn data() -> Vec<(Arch, f32)> {
    (0..24u64)
        .map(|i| {
            let a = Arch::nb201_from_index(i * 531 % 15625);
            let t = (a.cost_profile().total_flops as f32 + 1.0).ln();
            (a, t)
        })
        .collect()
}

/// Every backward kind × detach mode × (BYI, BOpE) × all-node encoding at
/// three timesteps, then both unrolled variants at the defaults.
fn option_sets() -> Vec<RefineOptions> {
    let mut sets = Vec::new();
    for backward in [BackwardKind::None, BackwardKind::Bgcn, BackwardKind::Bmlp] {
        for detach in [DetachMode::Default, DetachMode::All, DetachMode::None] {
            for (use_byi, use_bope) in [(true, true), (true, false), (false, true)] {
                for all_node_encoding in [false, true] {
                    sets.push(RefineOptions {
                        timesteps: 3,
                        backward,
                        use_byi,
                        use_bope,
                        detach,
                        all_node_encoding,
                        unrolled: None,
                    });
                }
            }
        }
    }
    for kind in [UnrolledKind::Bmlp, UnrolledKind::Bgcn] {
        sets.push(RefineOptions {
            unrolled: Some(kind),
            ..RefineOptions::default()
        });
    }
    sets
}

#[test]
fn refine_outputs_match_the_committed_hash() {
    let d = data();
    let sets = option_sets();
    assert_eq!(sets.len(), 56);
    let mut h = Fnv::new();
    for (k, opts) in sets.into_iter().enumerate() {
        let mut p = RefinedPredictor::new(Space::Nb201, opts, 8, 12, k as u64);
        let preds: Vec<f32> = d.iter().map(|(a, _)| p.predict(a)).collect();
        h.f32s(&preds);
        p.train(&d, 3, 3e-3, 8, 3);
        let preds: Vec<f32> = d.iter().map(|(a, _)| p.predict(a)).collect();
        h.f32s(&preds);
        h.f32s(&[p.kendall(&d)]);
    }
    let got = h.0;
    if !cfg!(all(
        target_arch = "x86_64",
        target_os = "linux",
        target_env = "gnu"
    )) {
        eprintln!("no refine hash is pinned for this platform; computed {got:#018x}");
        return;
    }
    assert_eq!(
        got, EXPECTED,
        "refine outputs moved: expected {EXPECTED:#018x}, computed {got:#018x}"
    );
}
