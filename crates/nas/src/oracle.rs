//! Synthetic accuracy oracle.
//!
//! The paper's NAS experiments (Table 8, Figure 5) use trained NASBench-201
//! accuracies on CIFAR-100 and the MetaD2A accuracy surrogate. Neither is
//! available here, so the oracle synthesizes a smooth, architecture-dependent
//! accuracy surface calibrated to the paper's reported range (~45–74 % on
//! CIFAR-100): per-operation quality terms, diminishing returns in total
//! compute, a connectivity/depth bonus, and small deterministic noise
//! (DESIGN.md §2 records the substitution argument — any fixed
//! architecture-dependent accuracy works for comparing *latency* predictors).

use nasflat_hw::{combine, fnv1a, unit_normal};
use nasflat_space::{Arch, OpKind, Space};

/// Deterministic synthetic accuracy surface over a search space.
#[derive(Debug, Clone)]
pub struct AccuracyOracle {
    space: Space,
    seed: u64,
}

impl AccuracyOracle {
    /// Builds an oracle; `seed` varies the noise component only.
    pub fn new(space: Space, seed: u64) -> Self {
        AccuracyOracle { space, seed }
    }

    /// The space this oracle scores.
    pub fn space(&self) -> Space {
        self.space
    }

    /// Accuracy in percent for an architecture.
    ///
    /// # Panics
    /// Panics if `arch` belongs to a different space.
    pub fn accuracy(&self, arch: &Arch) -> f32 {
        assert_eq!(
            arch.space(),
            self.space,
            "architecture from a different space"
        );
        let graph = arch.to_graph();
        let profile = arch.cost_profile();

        // Per-op quality: convolutions carry the signal, skips help gradient
        // flow a little, pooling is mildly useful, `none` contributes nothing.
        let mut quality = 0.0f64;
        let mut real_ops = 0usize;
        for (i, &vid) in graph.ops().iter().enumerate() {
            let desc = self.space.op_desc(vid);
            quality += match desc.kind {
                OpKind::Conv | OpKind::Block => {
                    real_ops += 1;
                    // log-compute with diminishing returns
                    let f = profile.node_costs[i].flops.max(1.0);
                    0.9 + 0.35 * (f.ln() / 20.0)
                }
                OpKind::Skip => {
                    real_ops += 1;
                    0.35
                }
                OpKind::Pool => {
                    real_ops += 1;
                    0.25
                }
                _ => 0.0,
            };
        }
        let slots = self.space.genotype_len() as f64;
        let quality = quality / slots; // per-slot quality in ~[0, 1.3]

        // Depth bonus with saturation; disconnected cells (depth counts only
        // real nodes) are heavily penalized.
        let depth = graph.longest_path() as f64;
        let depth_bonus = 1.5 * (depth / (depth + 3.0));
        let connected = real_ops > 0 && depth >= 2.0;

        let base = 45.0;
        let range = 28.0;
        let mut acc = base + range * (0.55 * quality + 0.45 * depth_bonus / 1.5).min(1.0);
        if !connected {
            acc = 12.0; // an unusable cell trains to near-chance accuracy
        }

        // Small deterministic noise: same (seed, arch) -> same accuracy.
        let mut bytes = vec![0u8];
        bytes.extend_from_slice(arch.genotype());
        let noise = unit_normal(combine(self.seed, fnv1a(&bytes))) * 0.6;
        ((acc + noise) as f32).clamp(8.0, 74.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_in_calibrated_range() {
        let oracle = AccuracyOracle::new(Space::Nb201, 0);
        for i in 0..300u64 {
            let a = Arch::nb201_from_index(i * 52 % 15625);
            let acc = oracle.accuracy(&a);
            assert!((8.0..=74.5).contains(&acc), "accuracy {acc} out of range");
        }
    }

    #[test]
    fn conv_cells_beat_skip_cells() {
        let oracle = AccuracyOracle::new(Space::Nb201, 0);
        let conv = oracle.accuracy(&Arch::new(Space::Nb201, vec![3; 6]));
        let skip = oracle.accuracy(&Arch::new(Space::Nb201, vec![1; 6]));
        let none = oracle.accuracy(&Arch::new(Space::Nb201, vec![0; 6]));
        assert!(conv > skip, "conv {conv} should beat skip {skip}");
        assert!(skip > none, "skip {skip} should beat none {none}");
        assert!(none < 15.0, "all-none cell is unusable, got {none}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Arch::nb201_from_index(1234);
        let o1 = AccuracyOracle::new(Space::Nb201, 7);
        let o2 = AccuracyOracle::new(Space::Nb201, 7);
        assert_eq!(o1.accuracy(&a), o2.accuracy(&a));
        let o3 = AccuracyOracle::new(Space::Nb201, 8);
        assert_ne!(o1.accuracy(&a), o3.accuracy(&a));
    }

    #[test]
    fn accuracy_correlates_with_compute_but_not_perfectly() {
        use nasflat_metrics::spearman_rho;
        let oracle = AccuracyOracle::new(Space::Nb201, 1);
        let pool: Vec<Arch> = (0..200u64)
            .map(|i| Arch::nb201_from_index(i * 78 + 5))
            .collect();
        let acc: Vec<f32> = pool.iter().map(|a| oracle.accuracy(a)).collect();
        let flops: Vec<f32> = pool
            .iter()
            .map(|a| a.cost_profile().total_flops as f32)
            .collect();
        let rho = spearman_rho(&acc, &flops).unwrap();
        assert!(rho > 0.4, "accuracy should track compute, got {rho}");
        assert!(rho < 0.99, "but not be identical to it, got {rho}");
    }

    #[test]
    fn fbnet_oracle_works() {
        let oracle = AccuracyOracle::new(Space::Fbnet, 0);
        let big = oracle.accuracy(&Arch::new(Space::Fbnet, vec![3; 22]));
        let small = oracle.accuracy(&Arch::new(Space::Fbnet, vec![8; 22]));
        assert!(
            big > small,
            "high-expansion FBNet {big} should beat all-skip {small}"
        );
    }
}
