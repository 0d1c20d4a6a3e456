//! Cross-device Spearman-correlation matrices (paper Tables 21–22).
//!
//! The correlation structure between devices is both the input to the
//! automated device-set partitioner (Algorithm 1) and the paper's evidence
//! that its tasks are hard: low train/test correlation means the pretrained
//! predictor carries little directly transferable signal.

use nasflat_hw::{DeviceRegistry, LatencyTable};
use nasflat_metrics::{pearson, rank_average};
use nasflat_space::{fbnet_pool, Arch, Space};

use crate::task::Task;

/// A symmetric device × device Spearman-correlation matrix.
#[derive(Debug, Clone)]
pub struct CorrelationMatrix {
    names: Vec<String>,
    /// Row-major `n × n`, `rho[i][j]` in `[-1, 1]`, diagonal = 1.
    rho: Vec<f32>,
}

impl CorrelationMatrix {
    /// Computes pairwise Spearman correlations from a latency table.
    ///
    /// Each device row is ranked once, and each pair takes the Pearson
    /// correlation of the two rank rows: bitwise
    /// [`spearman_rho`](nasflat_metrics::spearman_rho) of the raw rows. A
    /// pair with a constant row has no correlation and reads 0.
    ///
    /// # Panics
    /// Panics if the table has fewer than two devices or two architectures.
    pub fn from_table(table: &LatencyTable) -> Self {
        let n = table.num_devices();
        assert!(n >= 2, "need at least two devices");
        assert!(table.num_archs() >= 2, "need at least two architectures");
        let names = table.device_names().to_vec();
        let ranks: Vec<Vec<f32>> = (0..n).map(|i| rank_average(table.row(i))).collect();
        let mut rho = vec![0.0f32; n * n];
        for i in 0..n {
            rho[i * n + i] = 1.0;
            for j in (i + 1)..n {
                let r = pearson(&ranks[i], &ranks[j]).unwrap_or(0.0);
                rho[i * n + j] = r;
                rho[j * n + i] = r;
            }
        }
        CorrelationMatrix { names, rho }
    }

    /// Builds the full-roster matrix for a space using a probe pool of
    /// `probe_archs` architectures (the paper computes correlations over the
    /// benchmark latency sets; a few hundred probes recover the same
    /// structure).
    pub fn for_space(space: Space, probe_archs: usize, seed: u64) -> Self {
        let registry = DeviceRegistry::for_space(space);
        let archs = probe_pool(space, probe_archs, seed);
        let table = LatencyTable::build(registry.devices(), &archs);
        Self::from_table(&table)
    }

    /// Device names in matrix order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the matrix is empty (never, after construction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Correlation by index pair.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.rho[i * self.len() + j]
    }

    /// Correlation by device names.
    pub fn by_name(&self, a: &str, b: &str) -> Option<f32> {
        let i = self.names.iter().position(|n| n == a)?;
        let j = self.names.iter().position(|n| n == b)?;
        Some(self.get(i, j))
    }

    /// Index of a device name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Mean correlation between two groups of devices (the aggregate the
    /// paper reports per task).
    ///
    /// # Panics
    /// Panics if any name is unknown.
    pub fn mean_cross(&self, a: &[String], b: &[String]) -> f32 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for x in a {
            let i = self
                .index_of(x)
                .unwrap_or_else(|| panic!("unknown device '{x}'"));
            for y in b {
                let j = self
                    .index_of(y)
                    .unwrap_or_else(|| panic!("unknown device '{y}'"));
                if i == j {
                    continue;
                }
                total += self.get(i, j) as f64;
                count += 1;
            }
        }
        if count == 0 {
            return 0.0;
        }
        (total / count as f64) as f32
    }

    /// Mean pairwise correlation within one group.
    pub fn mean_within(&self, group: &[String]) -> f32 {
        self.mean_cross(group, group)
    }

    /// The train-vs-test mean correlation of a task — the paper's difficulty
    /// measure (high for ND/FD, low for N1–N4/F1–F4).
    pub fn task_train_test(&self, task: &Task) -> f32 {
        self.mean_cross(&task.train, &task.test)
    }
}

/// A deterministic pool of probe architectures for a space (the full 15 625
/// NB201 cells are sub-sampled; FBNet draws from the 5 000-arch pool).
pub fn probe_pool(space: Space, n: usize, seed: u64) -> Vec<Arch> {
    match space {
        Space::Nb201 => {
            let total = 15_625u64;
            let stride = (total / n as u64).max(1);
            (0..n as u64)
                .map(|i| Arch::nb201_from_index((i * stride + seed) % total))
                .collect()
        }
        Space::Fbnet => fbnet_pool(seed, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::paper_task;

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let m = CorrelationMatrix::for_space(Space::Nb201, 60, 0);
        assert_eq!(m.len(), 40);
        for i in 0..m.len() {
            assert_eq!(m.get(i, i), 1.0);
            for j in 0..m.len() {
                assert_eq!(m.get(i, j), m.get(j, i));
                assert!(m.get(i, j).abs() <= 1.0 + 1e-6);
            }
        }
    }

    #[test]
    fn same_family_correlates_above_cross_family() {
        let m = CorrelationMatrix::for_space(Space::Nb201, 150, 1);
        let intra = m.by_name("samsung_a50", "pixel3").unwrap();
        let cross = m.by_name("samsung_a50", "edge_tpu_int8").unwrap();
        assert!(intra > cross, "intra {intra} <= cross {cross}");
    }

    #[test]
    fn nd_is_easier_than_n1() {
        // The legacy ND split should show (much) higher train-test
        // correlation than the adversarial N1 split — the property the
        // simulator is calibrated to reproduce (paper Table 21).
        let m = CorrelationMatrix::for_space(Space::Nb201, 200, 2);
        let nd = m.task_train_test(&paper_task("ND").unwrap());
        let n1 = m.task_train_test(&paper_task("N1").unwrap());
        assert!(nd > n1 + 0.1, "ND {nd} should exceed N1 {n1}");
    }

    #[test]
    fn fbnet_matrix_works() {
        let m = CorrelationMatrix::for_space(Space::Fbnet, 80, 3);
        assert_eq!(m.len(), 27);
        let fd = m.task_train_test(&paper_task("FD").unwrap());
        assert!(fd > 0.0);
    }

    #[test]
    fn mean_within_excludes_diagonal() {
        let m = CorrelationMatrix::for_space(Space::Nb201, 60, 4);
        let group = vec!["1080ti_1".to_string(), "2080ti_1".to_string()];
        let w = m.mean_within(&group);
        let direct = m.by_name("1080ti_1", "2080ti_1").unwrap();
        assert!((w - direct).abs() < 1e-6);
    }

    #[test]
    fn ranked_rows_match_per_pair_spearman_bitwise() {
        // Every architecture appears twice, so every row carries ties.
        let pool = probe_pool(Space::Nb201, 12, 5);
        let archs = [pool.as_slice(), pool.as_slice()].concat();
        let registry = DeviceRegistry::for_space(Space::Nb201);
        let table = LatencyTable::build(registry.devices(), &archs);
        let m = CorrelationMatrix::from_table(&table);
        for i in 0..m.len() {
            for j in 0..m.len() {
                let want = if i == j {
                    1.0
                } else {
                    nasflat_metrics::spearman_rho(table.row(i), table.row(j)).unwrap_or(0.0)
                };
                assert_eq!(m.get(i, j).to_bits(), want.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn probe_pool_deterministic() {
        let a = probe_pool(Space::Nb201, 50, 9);
        let b = probe_pool(Space::Nb201, 50, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }
}
