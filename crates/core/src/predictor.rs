//! The NASFLAT latency predictor (paper Figure 3, §3.1, §5).
//!
//! Data flow per architecture:
//!
//! ```text
//! op ids ──► OpEmbed ─┐
//! device ──► HwEmbed ─┴─ concat (OPHW) ──► small op–hw GNN ──► MLP ──► joint emb (n×joint)
//! node ids ──► NodeEmbed ─► main GNN [DGF ‖ GAT] gated by joint emb ──► output-node row
//! output row (+ supplementary encoding) ──► prediction head MLP ──► latency score
//! ```
//!
//! With `op_hw = false` (Table 2 ablation) operations keep a fixed embedding
//! and the hardware embedding instead conditions the prediction head.
//!
//! Every query and training step runs the same **stacked** pass
//! ([`LatencyPredictor::forward_batched_devices`]): B architectures of one
//! space stacked into equal-size block-diagonal tiles, a lone query being a
//! pass with one block. The bitwise suites compare it against a dense
//! single-architecture reference built from plain `n×n` products, which
//! lives with this crate's unit tests (`predictor::reference`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use nasflat_space::{Arch, Space};
use nasflat_tensor::{Activation, Embedding, Graph, Mlp, ParamStore, Tensor, Var};

use crate::config::{GnnModuleKind, PredictorConfig};
use crate::gnn::GnnStack;

/// Block size of the multi-query tape passes: batch paths split a run of
/// queries into passes of this many architectures (plus one shorter pass
/// for the remainder).
pub const TAPE_BLOCK: usize = 8;

/// The multi-device few-shot latency predictor.
#[derive(Debug, Clone)]
pub struct LatencyPredictor {
    cfg: PredictorConfig,
    space: Space,
    devices: Vec<String>,
    supp_dim: usize,
    pub(crate) store: ParamStore,
    /// The space's shared `n×n` propagation matrix
    /// ([`Space::propagation_matrix`]), stamped once per block of every
    /// stacked pass.
    prop_block: Tensor,
    op_emb: Embedding,
    hw_emb: Embedding,
    node_emb: Embedding,
    ophw_gnn: GnnStack,
    ophw_mlp: Mlp,
    main_gnn: GnnStack,
    head: Mlp,
}

impl LatencyPredictor {
    /// Builds a predictor for `space` over an ordered device list.
    ///
    /// `supp_dim` is the width of the supplementary encoding appended to the
    /// head input (0 when `cfg.supplement` is `None`).
    ///
    /// # Panics
    /// Panics if `devices` is empty, or if `supp_dim` is inconsistent with
    /// `cfg.supplement` (zero width with a supplement configured).
    pub fn new(space: Space, devices: Vec<String>, supp_dim: usize, cfg: PredictorConfig) -> Self {
        assert!(!devices.is_empty(), "predictor needs at least one device");
        if cfg.supplement.is_some() {
            assert!(supp_dim > 0, "supplement configured but supp_dim is 0");
        } else {
            assert_eq!(
                supp_dim, 0,
                "supp_dim nonzero without a configured supplement"
            );
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let vocab = space.vocab_size();
        let max_nodes = space.graph_nodes();
        let op_emb = Embedding::new(&mut store, "op_emb", vocab, cfg.op_dim, &mut rng);
        let hw_emb = Embedding::new(&mut store, "hw_emb", devices.len(), cfg.hw_dim, &mut rng);
        let node_emb = Embedding::new(&mut store, "node_emb", max_nodes, cfg.node_dim, &mut rng);
        let joint_in = cfg.joint_dim();
        // The op–hw refinement GNN is a small DGF stack (appendix A.4.5).
        let ophw_gnn = GnnStack::new(
            &mut store,
            "ophw_gnn",
            GnnModuleKind::Dgf,
            joint_in,
            &cfg.ophw_gnn_dims,
            joint_in,
            &mut rng,
        );
        let mut mlp_dims = vec![ophw_gnn.out_dim()];
        mlp_dims.extend_from_slice(&cfg.ophw_mlp_dims);
        mlp_dims.push(joint_in); // map back to the original joint width
        let ophw_mlp = Mlp::new(
            &mut store,
            "ophw_mlp",
            &mlp_dims,
            Activation::Relu,
            &mut rng,
        );
        let main_gnn = GnnStack::new(
            &mut store,
            "main_gnn",
            cfg.gnn_module,
            cfg.node_dim,
            &cfg.gnn_dims,
            joint_in,
            &mut rng,
        );
        let head_extra = if cfg.op_hw { 0 } else { cfg.hw_dim };
        let mut head_dims = vec![2 * main_gnn.out_dim() + supp_dim + head_extra];
        head_dims.extend_from_slice(&cfg.head_dims);
        head_dims.push(1);
        let head = Mlp::new(&mut store, "head", &head_dims, Activation::Relu, &mut rng);
        LatencyPredictor {
            cfg,
            space,
            devices,
            supp_dim,
            store,
            prop_block: Tensor::from_vec(max_nodes, max_nodes, space.propagation_matrix()),
            op_emb,
            hw_emb,
            node_emb,
            ophw_gnn,
            ophw_mlp,
            main_gnn,
            head,
        }
    }

    /// The search space.
    pub fn space(&self) -> Space {
        self.space
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Ordered device names (index = embedding row).
    pub fn devices(&self) -> &[String] {
        &self.devices
    }

    /// Index of a device name.
    pub fn device_index(&self, name: &str) -> Option<usize> {
        self.devices.iter().position(|d| d == name)
    }

    /// Width of the supplementary encoding the head expects.
    pub fn supp_dim(&self) -> usize {
        self.supp_dim
    }

    /// Total trainable scalar count.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Builds the **multi-query** forward pass on an existing tape, with one
    /// device index per architecture: the B architectures' node features
    /// are stacked into block-diagonal tiles and propagated through one
    /// shared topology in a single pass, returning the `B×1` latency scores
    /// (row `b` = architecture `b` on device `devices[b]`).
    ///
    /// Dense projections (embedding gathers, linear layers, the op–hw MLP,
    /// the prediction head) run once over the whole stack; DGF aggregation
    /// and GAT attention run as per-block tape ops over the `B·n×n` stack
    /// of the space's propagation block. Each block's hardware rows are
    /// **gathered per node** ([`Graph::gather_rows`] on the embedding
    /// table), so queries for different devices share a pass. Every output
    /// row is **bit-identical** to a one-block pass over that (arch, device)
    /// pair alone, and to the dense reference — the unit tests, batched-tape
    /// and determinism suites pin this.
    ///
    /// # Panics
    /// Panics if `archs` is empty, if `archs` and `devices` differ in
    /// length, on space/device mismatch, or on supplementary rows of the
    /// wrong count/width.
    pub fn forward_batched_devices(
        &self,
        g: &mut Graph,
        archs: &[&Arch],
        devices: &[usize],
        supp: Option<&[Vec<f32>]>,
    ) -> Var {
        self.forward_batched_with_scratch(g, &mut BatchScratch::default(), archs, devices, supp)
    }

    /// [`LatencyPredictor::forward_batched_devices`] with caller-owned
    /// index scratch vectors, so sessions and the trainer rebuild the gather
    /// lists without reallocating. The one pass every query and every
    /// training step (`trainer::train_step_on`) runs through.
    pub(crate) fn forward_batched_with_scratch(
        &self,
        g: &mut Graph,
        scratch: &mut BatchScratch,
        archs: &[&Arch],
        devices: &[usize],
        supp: Option<&[Vec<f32>]>,
    ) -> Var {
        assert!(!archs.is_empty(), "batched forward needs at least one arch");
        assert_eq!(
            archs.len(),
            devices.len(),
            "one device index per architecture"
        );
        for &device in devices {
            assert!(
                device < self.devices.len(),
                "device index {device} out of range"
            );
        }
        match (self.supp_dim, supp) {
            (0, None) => {}
            (d, Some(rows)) => {
                assert_eq!(rows.len(), archs.len(), "one supplementary row per arch");
                for r in rows {
                    assert_eq!(r.len(), d, "supplementary width mismatch");
                }
            }
            (d, None) => panic!("predictor expects {d}-dim supplementary encodings"),
        }
        let b = archs.len();
        // Every architecture of one space has the same graph, so the
        // blocks are equal-size and share one `n×n` propagation matrix:
        // the `B·n×n` stack both GNN stacks read is that block gathered B
        // times (`0..n` per block, the node ids below), which also marks
        // row `t` of every block as one row class.
        let n = self.space.graph_nodes();
        scratch.node_ids.clear();
        scratch.op_ids.clear();
        for a in archs {
            assert_eq!(a.space(), self.space, "architecture from a different space");
            scratch.node_ids.extend(0..n);
            scratch.op_ids.extend(a.node_ops());
        }
        let block = g.constant(self.prop_block.clone());
        let prop = g.gather_rows(block, &scratch.node_ids);

        // Operation (× hardware) joint embedding over the concatenated ops.
        // The hardware rows are gathered per node: block b contributes n
        // copies of its own device's row.
        let op_e = self.op_emb.forward(g, &self.store, &scratch.op_ids);
        let joint0 = if self.cfg.op_hw {
            scratch.hw_ids.clear();
            for &device in devices {
                scratch.hw_ids.extend(std::iter::repeat_n(device, n));
            }
            let hw_rows = self.hw_emb.forward(g, &self.store, &scratch.hw_ids);
            g.concat_cols(op_e, hw_rows)
        } else {
            op_e
        };
        let refined = self
            .ophw_gnn
            .forward(g, &self.store, prop, n, joint0, joint0);
        let joint = self.ophw_mlp.forward(g, &self.store, refined);

        // Main GNN over stacked node embeddings (`0..n` per block).
        let node_e = self.node_emb.forward(g, &self.store, &scratch.node_ids);
        let h = self
            .main_gnn
            .forward(g, &self.store, prop, n, node_e, joint);

        // Per-block readout: output-node row ‖ block mean. A GNN stack of
        // depth L only propagates information L hops toward the output node;
        // on FBNet's 24-node chain the mean-pooled term carries the
        // per-block composition that would otherwise never reach the
        // readout.
        scratch.out_ids.clear();
        scratch.out_ids.extend((1..=b).map(|k| k * n - 1));
        let out_rows = g.gather_rows(h, &scratch.out_ids);
        let mean_rows = g.block_mean_rows(h, &vec![n; b]);
        let readout = g.concat_cols(out_rows, mean_rows);

        let mut head_in = readout;
        if let Some(rows) = supp {
            let data = rows.concat();
            let s = g.constant(Tensor::from_vec(b, self.supp_dim, data));
            head_in = g.concat_cols(head_in, s);
        }
        if !self.cfg.op_hw {
            // Head conditioning: one gathered hardware row per query.
            let hw_rows = self.hw_emb.forward(g, &self.store, devices);
            head_in = g.concat_cols(head_in, hw_rows);
        }
        self.head.forward(g, &self.store, head_in)
    }

    /// Predicts the latency score of one architecture: a one-block pass on
    /// a fresh tape.
    ///
    /// # Panics
    /// Panics on space mismatch, out-of-range device index, or a
    /// supplementary vector of the wrong width.
    pub fn predict(&self, arch: &Arch, device: usize, supp: Option<&[f32]>) -> f32 {
        self.session().predict(arch, device, supp)
    }

    /// Opens a [`BatchSession`] over this predictor: one reusable tape whose
    /// arenas amortize graph construction across many queries.
    pub fn session(&self) -> BatchSession<'_> {
        BatchSession::new(self)
    }

    /// Scores a batch of architectures in parallel: one [`BatchSession`]
    /// per worker's contiguous chunk, each chunk evaluated through
    /// [`BatchSession::predict_many_devices`] in passes of [`TAPE_BLOCK`]
    /// queries. The shared dispatcher behind every batch-scoring path;
    /// results are in input order and bit-identical to a sequential
    /// [`LatencyPredictor::predict`] loop at any thread count.
    pub(crate) fn batch_scores(
        &self,
        archs: &[&Arch],
        device: usize,
        supp: Option<&[Vec<f32>]>,
    ) -> Vec<f32> {
        if let Some(rows) = supp {
            assert_eq!(
                rows.len(),
                archs.len(),
                "one supplementary row per architecture"
            );
        }
        let n = archs.len();
        let chunk = n.div_ceil(nasflat_parallel::current_threads()).max(1);
        let indices: Vec<usize> = (0..n).collect();
        nasflat_parallel::par_chunks(&indices, chunk, |c| {
            let (start, end) = (c[0], c[c.len() - 1] + 1);
            self.session().predict_many_devices(
                &archs[start..end],
                &vec![device; end - start],
                supp.map(|rows| &rows[start..end]),
            )
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Predicts latency scores for a batch of architectures, evaluating them
    /// in parallel (bounded by `NASFLAT_THREADS`). Each worker runs one
    /// [`BatchSession`] over its contiguous chunk in multi-query tape passes
    /// of [`TAPE_BLOCK`] architectures; the scores are bit-identical to
    /// calling [`LatencyPredictor::predict`] in a loop, at any thread count.
    ///
    /// `supp` carries one supplementary row per architecture when the config
    /// sets a supplement.
    ///
    /// # Panics
    /// Panics if `supp` is present but its length differs from `archs`, or
    /// on the same conditions as [`LatencyPredictor::predict`].
    pub fn predict_batch(
        &self,
        archs: &[Arch],
        device: usize,
        supp: Option<&[Vec<f32>]>,
    ) -> Vec<f32> {
        let refs: Vec<&Arch> = archs.iter().collect();
        self.batch_scores(&refs, device, supp)
    }

    /// Copies the hardware-embedding row of `source` into `target` —
    /// the paper's hardware-embedding initialization (§5.2).
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn copy_hw_embedding(&mut self, target: usize, source: usize) {
        assert!(
            target < self.devices.len() && source < self.devices.len(),
            "index out of range"
        );
        let table = self.hw_emb.table_id();
        let src_row: Vec<f32> = self.store.value(table).row(source).to_vec();
        self.store
            .value_mut(table)
            .row_mut(target)
            .copy_from_slice(&src_row);
    }

    /// Read-only view of a device's hardware-embedding row (diagnostics).
    pub fn hw_embedding_row(&self, device: usize) -> Vec<f32> {
        self.store
            .value(self.hw_emb.table_id())
            .row(device)
            .to_vec()
    }

    /// Snapshot of all parameters (used to reuse one pre-training across
    /// many transfer experiments).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.store.snapshot()
    }

    /// Restores a snapshot taken on this predictor.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        self.store.restore(snapshot);
    }

    /// Serializes all weights into a self-describing binary blob — the
    /// artifact to ship after pre-training (transfer re-initializes the
    /// optimizer, so only values are stored).
    pub fn save_weights(&self) -> Vec<u8> {
        self.store.save_weights()
    }

    /// Restores weights saved by [`LatencyPredictor::save_weights`] from a
    /// predictor built with the same space, devices, and config.
    ///
    /// # Errors
    /// Rejects blobs whose layout (parameter names/shapes) differs, leaving
    /// the predictor unchanged.
    pub fn load_weights(&mut self, blob: &[u8]) -> Result<(), nasflat_tensor::LoadError> {
        self.store.load_weights(blob)
    }
}

/// A reusable forward-pass session for batched prediction.
///
/// A session holds **one** [`Graph`] whose node vector and `f32` buffers are
/// recycled via [`Graph::clear`] between passes, plus the gather-index
/// scratch vectors the stacked pass fills. What this amortizes is tape
/// *storage*: steady-state passes stop hitting the allocator for node,
/// value, gradient, and parameter-leaf buffers. Parameter *values* are still
/// copied onto the tape per pass (into pooled buffers), as every forward
/// must read the current weights.
///
/// Every method runs stacked passes
/// ([`LatencyPredictor::forward_batched_devices`]); a single query is a pass
/// with one block. Determinism: a cleared tape overwrites every recycled
/// buffer before reading it, so session scores are **bit-identical** to
/// one-block passes on fresh tapes — the determinism suite pins this at
/// 1/2/8 threads.
///
/// Sessions are cheap to create (one per worker thread in the batch paths)
/// and borrow the predictor immutably, so many sessions can run
/// concurrently.
pub struct BatchSession<'p> {
    pred: &'p LatencyPredictor,
    graph: Graph,
    scratch: BatchScratch,
    passes: usize,
}

/// Reusable gather-index scratch for multi-query passes (shared by
/// [`BatchSession`] and the trainer's gradient step).
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    op_ids: Vec<usize>,
    node_ids: Vec<usize>,
    hw_ids: Vec<usize>,
    out_ids: Vec<usize>,
}

impl<'p> BatchSession<'p> {
    /// Opens a session over `pred` with an empty tape.
    pub fn new(pred: &'p LatencyPredictor) -> Self {
        BatchSession {
            pred,
            graph: Graph::new(),
            scratch: BatchScratch::default(),
            passes: 0,
        }
    }

    /// The predictor this session runs on.
    pub fn predictor(&self) -> &'p LatencyPredictor {
        self.pred
    }

    /// How many tape passes this session has run — the per-worker count
    /// the serving layer aggregates into its metrics.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Predicts the latency score of one architecture: a one-block pass on
    /// the session tape.
    ///
    /// # Panics
    /// Panics on the same conditions as [`LatencyPredictor::predict`].
    pub fn predict(&mut self, arch: &Arch, device: usize, supp: Option<&[f32]>) -> f32 {
        let rows = supp.map(|v| [v.to_vec()]);
        let y = self.pass(&[arch], &[device], rows.as_ref().map(|r| &r[..]));
        self.graph.value(y).item()
    }

    /// Evaluates one **multi-query tape pass** over `archs` (one device
    /// index per architecture) on the session tape and returns the
    /// per-architecture scores: row `b` of the stacked `B×1` head output.
    /// Bit-identical to a one-block pass per (arch, device) pair — the
    /// property that lets the serving layer coalesce whatever
    /// mix of queries is waiting without changing a single bit of any
    /// answer.
    ///
    /// `supp` is one supplementary row per architecture (required iff the
    /// config sets a supplement).
    ///
    /// # Panics
    /// Panics on the same conditions as
    /// [`LatencyPredictor::forward_batched_devices`].
    pub fn predict_batched_tape_devices(
        &mut self,
        archs: &[&Arch],
        devices: &[usize],
        supp: Option<&[Vec<f32>]>,
    ) -> Vec<f32> {
        let y = self.pass(archs, devices, supp);
        self.graph.value(y).data().to_vec()
    }

    /// Scores a run of (arch, device) pairs in passes of [`TAPE_BLOCK`]
    /// queries, the last pass taking the remainder. Bit-identical to a
    /// per-pair [`BatchSession::predict`] loop.
    ///
    /// # Panics
    /// Panics if `devices` (or a present `supp`) differs in length from
    /// `archs`, plus the usual forward-pass conditions.
    pub fn predict_many_devices(
        &mut self,
        archs: &[&Arch],
        devices: &[usize],
        supp: Option<&[Vec<f32>]>,
    ) -> Vec<f32> {
        assert_eq!(archs.len(), devices.len(), "one device per architecture");
        if let Some(rows) = supp {
            assert_eq!(rows.len(), archs.len(), "one supplementary row per arch");
        }
        let mut out = Vec::with_capacity(archs.len());
        for start in (0..archs.len()).step_by(TAPE_BLOCK) {
            let end = (start + TAPE_BLOCK).min(archs.len());
            out.extend(self.predict_batched_tape_devices(
                &archs[start..end],
                &devices[start..end],
                supp.map(|rows| &rows[start..end]),
            ));
        }
        out
    }

    /// One stacked pass on the cleared session tape.
    fn pass(&mut self, archs: &[&Arch], devices: &[usize], supp: Option<&[Vec<f32>]>) -> Var {
        self.graph.clear();
        let y = self.pred.forward_batched_with_scratch(
            &mut self.graph,
            &mut self.scratch,
            archs,
            devices,
            supp,
        );
        self.passes += 1;
        y
    }
}

/// The dense single-architecture reference forward: one architecture on
/// its own tape, built from plain `n×n` products
/// ([`crate::gnn::dense`]) and the op-level readout (`slice_rows`,
/// `mean_rows`). Every stacked pass must reproduce it bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::gnn::dense;

    /// Builds the reference pass on `g`, returning the `1×1` score.
    pub(crate) fn forward(
        p: &LatencyPredictor,
        g: &mut Graph,
        arch: &Arch,
        device: usize,
        supp: Option<&[f32]>,
    ) -> Var {
        assert_eq!(arch.space(), p.space, "architecture from a different space");
        assert!(
            device < p.devices.len(),
            "device index {device} out of range"
        );
        let graph = arch.to_graph();
        let n = graph.num_nodes();
        let prop = g.constant(Tensor::from_vec(n, n, graph.propagation_matrix()));

        // Operation (× hardware) joint embedding.
        let op_e = p.op_emb.forward(g, &p.store, graph.ops());
        let hw_row = p.hw_emb.forward(g, &p.store, &[device]);
        let joint0 = if p.cfg.op_hw {
            let hw_rep = g.gather_rows(hw_row, &vec![0; n]);
            g.concat_cols(op_e, hw_rep)
        } else {
            op_e
        };
        let refined = dense::stack(&p.ophw_gnn, g, &p.store, prop, joint0, joint0);
        let joint = p.ophw_mlp.forward(g, &p.store, refined);

        // Main GNN over node embeddings, gated by the joint embedding.
        let node_ids: Vec<usize> = (0..n).collect();
        let node_e = p.node_emb.forward(g, &p.store, &node_ids);
        let h = dense::stack(&p.main_gnn, g, &p.store, prop, node_e, joint);
        let out_row = g.slice_rows(h, n - 1, 1);
        let mean_row = g.mean_rows(h);
        let mut head_in = g.concat_cols(out_row, mean_row);
        if let Some(v) = supp {
            assert_eq!(v.len(), p.supp_dim, "supplementary width mismatch");
            let s = g.constant(Tensor::row_vector(v.to_vec()));
            head_in = g.concat_cols(head_in, s);
        }
        if !p.cfg.op_hw {
            head_in = g.concat_cols(head_in, hw_row);
        }
        p.head.forward(g, &p.store, head_in)
    }

    /// The reference score on a fresh tape.
    pub(crate) fn score(
        p: &LatencyPredictor,
        arch: &Arch,
        device: usize,
        supp: Option<&[f32]>,
    ) -> f32 {
        let mut g = Graph::new();
        let y = forward(p, &mut g, arch, device, supp);
        g.value(y).item()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::score as reference;
    use super::*;
    use nasflat_encode::EncodingKind;
    use proptest::prelude::*;

    fn tiny_cfg() -> PredictorConfig {
        let mut c = PredictorConfig::quick();
        c.op_dim = 8;
        c.hw_dim = 8;
        c.node_dim = 8;
        c.ophw_gnn_dims = vec![12];
        c.ophw_mlp_dims = vec![12];
        c.gnn_dims = vec![12, 12];
        c.head_dims = vec![16];
        c
    }

    fn devices() -> Vec<String> {
        vec!["dev_a".into(), "dev_b".into(), "dev_c".into()]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Reference scores, one fresh tape per architecture: the ground truth
    /// every stacked pass must reproduce bit for bit.
    fn per_arch_bits(p: &LatencyPredictor, archs: &[&Arch], device: usize) -> Vec<u32> {
        archs
            .iter()
            .map(|a| reference(p, a, device, None).to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn stack_forward_slice_round_trips_bitwise_up_to_16_archs(
            b in 1usize..17,
            seed in 0u64..10_000,
            device in 0usize..3,
        ) {
            let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
            let archs: Vec<Arch> = (0..b as u64)
                .map(|i| Arch::nb201_from_index(seed.wrapping_mul(37).wrapping_add(i * 977) % 15_625))
                .collect();
            let refs: Vec<&Arch> = archs.iter().collect();

            // One block-diagonal pass over all B queries…
            let mut g = Graph::new();
            let y = p.forward_batched_devices(&mut g, &refs, &vec![device; b], None);
            prop_assert_eq!(g.value(y).shape(), (b, 1));

            // …must slice back to exactly the per-arch reference scores.
            prop_assert_eq!(bits(g.value(y).data()), per_arch_bits(&p, &refs, device));
        }
    }

    #[test]
    fn round_trip_holds_for_every_gnn_module_kind() {
        for kind in [
            GnnModuleKind::Dgf,
            GnnModuleKind::Gat,
            GnnModuleKind::Ensemble,
        ] {
            let cfg = tiny_cfg().with_gnn(kind);
            let p = LatencyPredictor::new(Space::Nb201, devices(), 0, cfg);
            let archs: Vec<Arch> = (0..9u64).map(|i| Arch::nb201_from_index(i * 641)).collect();
            let refs: Vec<&Arch> = archs.iter().collect();
            let mut session = p.session();
            for b in [1, refs.len()] {
                let batched = session.predict_batched_tape_devices(&refs[..b], &vec![1; b], None);
                assert_eq!(
                    bits(&batched),
                    per_arch_bits(&p, &refs[..b], 1),
                    "{kind:?} diverged at B={b}"
                );
            }
        }
    }

    #[test]
    fn round_trip_holds_on_fbnet_and_without_ophw() {
        let mut cfg = tiny_cfg();
        cfg.op_hw = false; // exercise the head-side hw conditioning branch
        let p = LatencyPredictor::new(Space::Fbnet, devices(), 0, cfg);
        let archs: Vec<Arch> = (0..6u8)
            .map(|i| Arch::new(Space::Fbnet, vec![i % 9; 22]))
            .collect();
        let refs: Vec<&Arch> = archs.iter().collect();
        let mut session = p.session();
        for b in [1, refs.len()] {
            let batched = session.predict_batched_tape_devices(&refs[..b], &vec![2; b], None);
            assert_eq!(bits(&batched), per_arch_bits(&p, &refs[..b], 2), "B={b}");
        }
    }

    #[test]
    fn round_trip_holds_with_supplementary_encodings() {
        let cfg = tiny_cfg().with_supplement(Some(EncodingKind::Zcp));
        let p = LatencyPredictor::new(Space::Nb201, devices(), 13, cfg);
        let archs: Vec<Arch> = (0..8u64).map(|i| Arch::nb201_from_index(i * 333)).collect();
        let refs: Vec<&Arch> = archs.iter().collect();
        let supp: Vec<Vec<f32>> = (0..8)
            .map(|i| {
                (0..13)
                    .map(|j| ((i * 13 + j) as f32 * 0.17).sin())
                    .collect()
            })
            .collect();
        let expect: Vec<u32> = refs
            .iter()
            .zip(&supp)
            .map(|(a, s)| reference(&p, a, 0, Some(s)).to_bits())
            .collect();
        let mut session = p.session();
        for b in [1, refs.len()] {
            let batched =
                session.predict_batched_tape_devices(&refs[..b], &vec![0; b], Some(&supp[..b]));
            assert_eq!(bits(&batched), expect[..b], "B={b}");
        }
    }

    #[test]
    fn forward_is_finite_and_deterministic() {
        let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let arch = Arch::nb201_from_index(321);
        let y1 = p.predict(&arch, 0, None);
        let y2 = p.predict(&arch, 0, None);
        assert_eq!(y1, y2);
        assert!(y1.is_finite());
        assert_eq!(y1.to_bits(), reference(&p, &arch, 0, None).to_bits());
    }

    #[test]
    fn batch_session_matches_fresh_tapes_bitwise() {
        let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let archs: Vec<Arch> = (0..12u64)
            .map(|i| Arch::nb201_from_index(i * 977))
            .collect();
        let mut session = p.session();
        for (i, arch) in archs.iter().enumerate() {
            let dev = i % 3;
            let fresh = reference(&p, arch, dev, None);
            let pooled = session.predict(arch, dev, None);
            assert_eq!(fresh.to_bits(), pooled.to_bits(), "arch {i} diverged");
        }
        // predict_batch (chunked sessions) agrees with the per-arch loop.
        let batch = p.predict_batch(&archs, 1, None);
        let loop_scores: Vec<f32> = archs.iter().map(|a| reference(&p, a, 1, None)).collect();
        assert_eq!(
            batch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            loop_scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mixed_device_batched_pass_matches_per_query_bitwise() {
        for op_hw in [true, false] {
            let mut cfg = tiny_cfg();
            cfg.op_hw = op_hw;
            let p = LatencyPredictor::new(Space::Nb201, devices(), 0, cfg);
            let archs: Vec<Arch> = (0..9u64).map(|i| Arch::nb201_from_index(i * 555)).collect();
            let refs: Vec<&Arch> = archs.iter().collect();
            let devs: Vec<usize> = (0..refs.len()).map(|i| i % 3).collect();
            let mut g = Graph::new();
            let y = p.forward_batched_devices(&mut g, &refs, &devs, None);
            let out = g.value(y).clone();
            assert_eq!(out.shape(), (refs.len(), 1));
            for (i, (arch, &dev)) in archs.iter().zip(&devs).enumerate() {
                let lone = reference(&p, arch, dev, None);
                assert_eq!(
                    out.get(i, 0).to_bits(),
                    lone.to_bits(),
                    "op_hw={op_hw} row {i} diverged"
                );
            }
        }
    }

    #[test]
    fn mixed_device_batched_pass_with_supplement_matches() {
        let cfg = tiny_cfg().with_supplement(Some(EncodingKind::Zcp));
        let p = LatencyPredictor::new(Space::Nb201, devices(), 13, cfg);
        let archs: Vec<Arch> = (0..6u64).map(|i| Arch::nb201_from_index(i * 911)).collect();
        let refs: Vec<&Arch> = archs.iter().collect();
        let devs = [0usize, 2, 1, 1, 0, 2];
        let supp: Vec<Vec<f32>> = (0..6).map(|i| vec![0.1 * i as f32; 13]).collect();
        let mut session = p.session();
        let batched = session.predict_batched_tape_devices(&refs, &devs, Some(&supp));
        for (i, (arch, &dev)) in archs.iter().zip(devs.iter()).enumerate() {
            let lone = reference(&p, arch, dev, Some(&supp[i]));
            assert_eq!(batched[i].to_bits(), lone.to_bits(), "row {i}");
        }
    }

    #[test]
    fn predict_many_devices_dispatches_and_counts_passes() {
        let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let archs: Vec<Arch> = (0..11u64)
            .map(|i| Arch::nb201_from_index(i * 123))
            .collect();
        let refs: Vec<&Arch> = archs.iter().collect();
        let devs: Vec<usize> = (0..11).map(|i| (i * 2) % 3).collect();
        let mut session = p.session();
        let got = session.predict_many_devices(&refs, &devs, None);
        // 11 queries in blocks of 8: one full pass plus one 3-block pass.
        assert_eq!(session.passes(), 2);
        for (i, (arch, &dev)) in archs.iter().zip(&devs).enumerate() {
            assert_eq!(got[i].to_bits(), reference(&p, arch, dev, None).to_bits());
        }
    }

    #[test]
    fn different_devices_give_different_scores() {
        let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let arch = Arch::nb201_from_index(555);
        assert_ne!(p.predict(&arch, 0, None), p.predict(&arch, 1, None));
    }

    #[test]
    fn ophw_off_still_conditions_on_device() {
        let mut cfg = tiny_cfg();
        cfg.op_hw = false;
        let p = LatencyPredictor::new(Space::Nb201, devices(), 0, cfg);
        let arch = Arch::nb201_from_index(10);
        assert_ne!(p.predict(&arch, 0, None), p.predict(&arch, 2, None));
    }

    #[test]
    fn supplement_width_is_enforced() {
        let cfg = tiny_cfg().with_supplement(Some(EncodingKind::Zcp));
        let p = LatencyPredictor::new(Space::Nb201, devices(), 13, cfg);
        let arch = Arch::nb201_from_index(5);
        let supp = vec![0.0f32; 13];
        assert!(p.predict(&arch, 0, Some(&supp)).is_finite());
    }

    #[test]
    #[should_panic(expected = "supplementary width mismatch")]
    fn wrong_supplement_width_panics() {
        let cfg = tiny_cfg().with_supplement(Some(EncodingKind::Zcp));
        let p = LatencyPredictor::new(Space::Nb201, devices(), 13, cfg);
        let _ = p.predict(&Arch::nb201_from_index(5), 0, Some(&[1.0, 2.0]));
    }

    #[test]
    fn hw_init_copies_rows() {
        let mut p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        assert_ne!(p.hw_embedding_row(0), p.hw_embedding_row(2));
        p.copy_hw_embedding(2, 0);
        assert_eq!(p.hw_embedding_row(0), p.hw_embedding_row(2));
        // copying changes predictions for the target device
        let arch = Arch::nb201_from_index(777);
        let before = p.predict(&arch, 2, None);
        p.copy_hw_embedding(2, 1);
        assert_ne!(before, p.predict(&arch, 2, None));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let arch = Arch::nb201_from_index(123);
        let before = p.predict(&arch, 1, None);
        let snap = p.snapshot();
        p.copy_hw_embedding(1, 0);
        p.restore(&snap);
        assert_eq!(before, p.predict(&arch, 1, None));
    }

    #[test]
    fn fbnet_space_works() {
        let p = LatencyPredictor::new(Space::Fbnet, devices(), 0, tiny_cfg());
        let arch = Arch::new(Space::Fbnet, vec![4; 22]);
        assert!(p.predict(&arch, 0, None).is_finite());
    }

    #[test]
    fn weight_blob_round_trip() {
        let src = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let blob = src.save_weights();
        // a fresh predictor with a different seed has different weights...
        let mut dst = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg().with_seed(99));
        let arch = Arch::nb201_from_index(2024);
        assert_ne!(src.predict(&arch, 0, None), dst.predict(&arch, 0, None));
        // ...until the blob is loaded
        dst.load_weights(&blob).expect("same layout");
        assert_eq!(src.predict(&arch, 0, None), dst.predict(&arch, 0, None));
        // layout mismatches are rejected
        let mut other = LatencyPredictor::new(Space::Nb201, vec!["only_one".into()], 0, tiny_cfg());
        assert!(other.load_weights(&blob).is_err());
    }

    #[test]
    fn parameter_count_is_positive_and_stable() {
        let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let q = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        assert_eq!(p.num_parameters(), q.num_parameters());
        assert!(p.num_parameters() > 1000);
    }
}
