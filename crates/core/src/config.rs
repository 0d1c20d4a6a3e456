//! Predictor and training hyperparameters.
//!
//! Defaults follow the paper's Table 20 (found there with 80 Optuna
//! iterations). [`PredictorConfig::quick`] is a reduced-budget profile for
//! CPU-only test/bench runs; it keeps every architectural feature but shrinks
//! widths and epochs. The paper-table benches (`crates/bench`) run the quick
//! profile unless `NASFLAT_BENCH_PAPER=1` selects [`PredictorConfig::paper`]
//! (README, "Build, test, bench").

use nasflat_encode::EncodingKind;
use nasflat_tensor::{ByteReader, ByteWriter, WireError};

/// Which graph-neural-network module the predictor stacks (paper Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnModuleKind {
    /// Dense Graph Flow: residual gated GCN (GATES, Eq. 1).
    Dgf,
    /// Graph attention with operation gating and LayerNorm (Eq. 2–3).
    Gat,
    /// Per-layer average of DGF and GAT outputs (the paper's final choice).
    Ensemble,
}

impl GnnModuleKind {
    /// Display name matching the paper's Table 5.
    pub fn label(self) -> &'static str {
        match self {
            GnnModuleKind::Dgf => "DGF",
            GnnModuleKind::Gat => "GAT",
            GnnModuleKind::Ensemble => "Ensemble",
        }
    }
}

/// Training loss (the paper uses pairwise hinge; MSE kept for ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossKind {
    /// Pairwise hinge ranking loss (Ning et al. 2022).
    PairwiseHinge,
    /// Mean squared error on normalized log-latency.
    Mse,
}

/// Full predictor + training configuration.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Operation-embedding width (Table 20: 48).
    pub op_dim: usize,
    /// Hardware-embedding width (Table 20: 48, tied to `op_dim`).
    pub hw_dim: usize,
    /// Node-embedding width (Table 20: 48).
    pub node_dim: usize,
    /// Hidden widths of the small operation–hardware GNN (Table 20: [128, 128]).
    pub ophw_gnn_dims: Vec<usize>,
    /// Hidden widths of the op–hw refinement MLP (Table 20: `[128]`).
    pub ophw_mlp_dims: Vec<usize>,
    /// Hidden widths of the main GNN (Table 20: [128, 128, 128]).
    pub gnn_dims: Vec<usize>,
    /// Prediction-head MLP widths (Table 20: [200, 200, 200]).
    pub head_dims: Vec<usize>,
    /// GNN module choice (Table 20: DGF+GAT ensemble).
    pub gnn_module: GnnModuleKind,
    /// Whether operations get hardware-specific embeddings (§5.1; Table 2
    /// "OPHW"). When off, the hardware embedding conditions only the head.
    pub op_hw: bool,
    /// Whether the target device's embedding is initialized from the most
    /// correlated source device (§5.2; Table 2 "INIT").
    pub hw_init: bool,
    /// Supplementary encoding concatenated before the head (§3.3; Table 4).
    pub supplement: Option<EncodingKind>,
    /// Training loss.
    pub loss: LossKind,
    /// Hinge margin (only for [`LossKind::PairwiseHinge`]).
    pub hinge_margin: f32,
    /// Pre-training epochs (Table 20: 150).
    pub epochs: usize,
    /// Pre-training learning rate (Table 20: 1e-3).
    pub lr: f32,
    /// Weight decay (Table 20: 1e-5).
    pub weight_decay: f32,
    /// Mini-batch size (Table 20: 16).
    pub batch_size: usize,
    /// Fine-tuning epochs on the target device (Table 20: 40 NB201 / 30 FBNet).
    pub transfer_epochs: usize,
    /// Fine-tuning learning rate (Table 20: 3e-3 NB201 / 1e-3 FBNet).
    pub transfer_lr: f32,
    /// Gradient-clipping max norm.
    pub grad_clip: f32,
    /// Parameter-init / batching seed.
    pub seed: u64,
}

impl PredictorConfig {
    /// The paper's Table 20 configuration (NB201 transfer settings).
    pub fn paper() -> Self {
        PredictorConfig {
            op_dim: 48,
            hw_dim: 48,
            node_dim: 48,
            ophw_gnn_dims: vec![128, 128],
            ophw_mlp_dims: vec![128],
            gnn_dims: vec![128, 128, 128],
            head_dims: vec![200, 200, 200],
            gnn_module: GnnModuleKind::Ensemble,
            op_hw: true,
            hw_init: true,
            supplement: None,
            loss: LossKind::PairwiseHinge,
            hinge_margin: 0.1,
            epochs: 150,
            lr: 1e-3,
            weight_decay: 1e-5,
            batch_size: 16,
            transfer_epochs: 40,
            transfer_lr: 3e-3,
            grad_clip: 5.0,
            seed: 0,
        }
    }

    /// Reduced-budget profile for CPU-only runs: same architecture shape,
    /// smaller widths and fewer epochs.
    pub fn quick() -> Self {
        PredictorConfig {
            op_dim: 16,
            hw_dim: 16,
            node_dim: 16,
            ophw_gnn_dims: vec![32],
            ophw_mlp_dims: vec![32],
            gnn_dims: vec![32, 32],
            head_dims: vec![48, 48],
            epochs: 30,
            transfer_epochs: 30,
            ..Self::paper()
        }
    }

    /// FBNet transfer settings on top of any base config (Table 20 footnote:
    /// 30 transfer epochs at 1e-3).
    pub fn for_fbnet(mut self) -> Self {
        self.transfer_epochs = self.transfer_epochs.min(30);
        self.transfer_lr = 1e-3;
        self
    }

    /// Same config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same config with a different GNN module.
    pub fn with_gnn(mut self, gnn: GnnModuleKind) -> Self {
        self.gnn_module = gnn;
        self
    }

    /// Same config with a supplementary encoding.
    pub fn with_supplement(mut self, supplement: Option<EncodingKind>) -> Self {
        self.supplement = supplement;
        self
    }

    /// Joint op–hw width entering the small GNN.
    pub fn joint_dim(&self) -> usize {
        if self.op_hw {
            self.op_dim + self.hw_dim
        } else {
            self.op_dim
        }
    }

    /// Writes every field in the fixed wire order used by the predictor
    /// export format (see `persist.rs` for the envelope).
    pub(crate) fn write_wire(&self, w: &mut ByteWriter) {
        w.put_len(self.op_dim);
        w.put_len(self.hw_dim);
        w.put_len(self.node_dim);
        for dims in [
            &self.ophw_gnn_dims,
            &self.ophw_mlp_dims,
            &self.gnn_dims,
            &self.head_dims,
        ] {
            w.put_len(dims.len());
            for &d in dims.iter() {
                w.put_len(d);
            }
        }
        w.put_u8(match self.gnn_module {
            GnnModuleKind::Dgf => 0,
            GnnModuleKind::Gat => 1,
            GnnModuleKind::Ensemble => 2,
        });
        w.put_u8(self.op_hw as u8);
        w.put_u8(self.hw_init as u8);
        match self.supplement {
            None => w.put_u8(0),
            Some(kind) => {
                w.put_u8(1);
                w.put_u8(kind.code());
            }
        }
        w.put_u8(match self.loss {
            LossKind::PairwiseHinge => 0,
            LossKind::Mse => 1,
        });
        w.put_f32(self.hinge_margin);
        w.put_len(self.epochs);
        w.put_f32(self.lr);
        w.put_f32(self.weight_decay);
        w.put_len(self.batch_size);
        w.put_len(self.transfer_epochs);
        w.put_f32(self.transfer_lr);
        w.put_f32(self.grad_clip);
        w.put_u64(self.seed);
    }

    /// Inverse of [`PredictorConfig::write_wire`]. Errors carry a
    /// human-readable description of the first malformed field.
    pub(crate) fn read_wire(r: &mut ByteReader<'_>) -> Result<Self, String> {
        fn wire<T>(res: Result<T, WireError>) -> Result<T, String> {
            res.map_err(|e| e.to_string())
        }
        let op_dim = wire(r.get_len())?;
        let hw_dim = wire(r.get_len())?;
        let node_dim = wire(r.get_len())?;
        let mut dim_lists: Vec<Vec<usize>> = Vec::with_capacity(4);
        for which in ["ophw_gnn", "ophw_mlp", "gnn", "head"] {
            let n = wire(r.get_len())?;
            // A layer list longer than the remaining bytes is corrupt.
            if n > r.remaining() / 4 {
                return Err(format!("{which} dim count {n} exceeds the payload"));
            }
            let mut dims = Vec::with_capacity(n);
            for _ in 0..n {
                dims.push(wire(r.get_len())?);
            }
            dim_lists.push(dims);
        }
        let head_dims = dim_lists.pop().expect("pushed above");
        let gnn_dims = dim_lists.pop().expect("pushed above");
        let ophw_mlp_dims = dim_lists.pop().expect("pushed above");
        let ophw_gnn_dims = dim_lists.pop().expect("pushed above");
        let gnn_module = match wire(r.get_u8())? {
            0 => GnnModuleKind::Dgf,
            1 => GnnModuleKind::Gat,
            2 => GnnModuleKind::Ensemble,
            c => return Err(format!("unknown GNN module code {c}")),
        };
        let op_hw = wire(r.get_u8())? != 0;
        let hw_init = wire(r.get_u8())? != 0;
        let supplement = match wire(r.get_u8())? {
            0 => None,
            1 => {
                let code = wire(r.get_u8())?;
                Some(
                    EncodingKind::from_code(code)
                        .ok_or_else(|| format!("unknown supplement encoding code {code}"))?,
                )
            }
            c => return Err(format!("invalid supplement flag {c}")),
        };
        let loss = match wire(r.get_u8())? {
            0 => LossKind::PairwiseHinge,
            1 => LossKind::Mse,
            c => return Err(format!("unknown loss code {c}")),
        };
        Ok(PredictorConfig {
            op_dim,
            hw_dim,
            node_dim,
            ophw_gnn_dims,
            ophw_mlp_dims,
            gnn_dims,
            head_dims,
            gnn_module,
            op_hw,
            hw_init,
            supplement,
            loss,
            hinge_margin: wire(r.get_f32())?,
            epochs: wire(r.get_len())?,
            lr: wire(r.get_f32())?,
            weight_decay: wire(r.get_f32())?,
            batch_size: wire(r.get_len())?,
            transfer_epochs: wire(r.get_len())?,
            transfer_lr: wire(r.get_f32())?,
            grad_clip: wire(r.get_f32())?,
            seed: wire(r.get_u64())?,
        })
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_table20() {
        let c = PredictorConfig::paper();
        assert_eq!(c.op_dim, 48);
        assert_eq!(c.gnn_dims, vec![128, 128, 128]);
        assert_eq!(c.head_dims, vec![200, 200, 200]);
        assert_eq!(c.epochs, 150);
        assert_eq!(c.batch_size, 16);
        assert_eq!(c.gnn_module, GnnModuleKind::Ensemble);
        assert_eq!(c.loss, LossKind::PairwiseHinge);
    }

    #[test]
    fn fbnet_overrides_transfer_settings() {
        let c = PredictorConfig::paper().for_fbnet();
        assert_eq!(c.transfer_epochs, 30);
        assert_eq!(c.transfer_lr, 1e-3);
    }

    #[test]
    fn joint_dim_depends_on_ophw() {
        let mut c = PredictorConfig::quick();
        assert_eq!(c.joint_dim(), c.op_dim + c.hw_dim);
        c.op_hw = false;
        assert_eq!(c.joint_dim(), c.op_dim);
    }

    #[test]
    fn labels() {
        assert_eq!(GnnModuleKind::Ensemble.label(), "Ensemble");
        assert_eq!(GnnModuleKind::Dgf.label(), "DGF");
    }
}
