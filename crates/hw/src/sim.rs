//! The latency simulator: turns (device, architecture) into milliseconds.
//!
//! This is the substitute for the measured HW-NAS-Bench / EAGLE latency
//! tables (see DESIGN.md). Per graph node the model charges:
//!
//! - a dispatch **overhead** (dominates batch-1 GPUs → ranks by op count),
//! - a **compute** term `(flops·batch + occupancy_floor) / eff` scaled by
//!   op-kind affinities (conv-optimized ASICs, grouped-conv fallbacks,
//!   depthwise penalties),
//! - a **memory** term `mem·batch / mem_bw` (dominates small CPUs).
//!
//! The fixed cost of each op carries a kernel-selection quirk per device
//! class and vocabulary id. Whole-network latency blends the serial sum
//! with the critical path according to the device's branch parallelism,
//! applies operator-fusion discounts along unary chains, and multiplies
//! deterministic lognormal measurement noise keyed by (device,
//! architecture).
//!
//! # Two halves, one body
//!
//! Everything that depends on the architecture alone is built once per
//! architecture as a [`PreparedArch`]: per node its vocabulary id, op
//! descriptor and cost; predecessor lists in index order (CSR); the nodes
//! operator fusion applies to; the noise hash; and the whole-network
//! totals the energy model reads. Everything that depends on the device
//! alone is built once in [`Device::new`]: its jittered profile and its
//! quirk per vocabulary id. What remains per (device, architecture) pair is
//! the arithmetic in `clean_ms` and `measured_ms` — the one body behind
//! [`latency_clean_ms`], [`latency_ms`], [`measure_all`] and
//! [`LatencyTable::build`], which loops architecture-major so each
//! architecture is prepared once for all devices.
//!
//! That arithmetic performs every `f64` operation in the order the
//! per-pair formula always has (per-node times in node order, the serial
//! sum as one sequential fold, each critical-path `max` over predecessors
//! in index order), so every latency is bit-identical to the unsplit
//! formula. Latencies feed the tables every task, predictor and benchmark
//! trains on, so moving a single bit would move every downstream number;
//! `crates/hw/tests/sim_oracle.rs` pins the equality.

use crate::device::Device;
use crate::rng::{combine, fnv1a, lognormal_jitter};
use nasflat_space::{Arch, OpCost, OpDesc, OpKind};

/// Stable hash of an architecture (keys measurement noise).
fn arch_hash(arch: &Arch) -> u64 {
    let tag: u8 = match arch.space() {
        nasflat_space::Space::Nb201 => 1,
        nasflat_space::Space::Fbnet => 2,
    };
    let mut bytes = vec![tag];
    bytes.extend_from_slice(arch.genotype());
    fnv1a(&bytes)
}

/// Graph nodes of the largest architecture either space builds (FBNet's
/// 22 blocks plus INPUT and OUTPUT), so a pair's per-node times live on the
/// stack.
const MAX_NODES: usize = 24;

/// One graph node as the simulator reads it.
struct SimNode {
    vocab_id: usize,
    desc: OpDesc,
    cost: OpCost,
}

/// An architecture prepared for the simulator: everything the per-pair
/// arithmetic reads that does not depend on the device.
pub(crate) struct PreparedArch {
    /// Per graph node, in node order.
    nodes: Vec<SimNode>,
    /// Node `j`'s predecessors are `preds[pred_start[j]..pred_start[j + 1]]`,
    /// in index order.
    pred_start: Vec<usize>,
    preds: Vec<usize>,
    /// Nodes whose dispatch overhead operator fusion discounts, in index
    /// order: a fusable op whose single predecessor is a fusable op that
    /// feeds only it.
    fused: Vec<usize>,
    /// Keys the measurement noise.
    hash: u64,
    /// Whole-network FLOPs.
    pub(crate) total_flops: f64,
    /// Whole-network activation traffic.
    pub(crate) total_mem: f64,
}

impl PreparedArch {
    pub(crate) fn new(arch: &Arch) -> Self {
        let graph = arch.to_graph();
        let prof = arch.cost_profile();
        let space = arch.space();
        let n = graph.num_nodes();
        assert!(
            n <= MAX_NODES,
            "{n} graph nodes exceed the simulator's {MAX_NODES}"
        );
        let nodes: Vec<SimNode> = graph
            .ops()
            .iter()
            .zip(&prof.node_costs)
            .map(|(&vocab_id, &cost)| SimNode {
                vocab_id,
                desc: space.op_desc(vocab_id),
                cost,
            })
            .collect();
        let mut pred_start = Vec::with_capacity(n + 1);
        let mut preds = Vec::new();
        let mut succ_count = vec![0usize; n];
        pred_start.push(0);
        for j in 0..n {
            for (i, succs) in succ_count.iter_mut().enumerate() {
                if graph.adj(i, j) != 0.0 {
                    preds.push(i);
                    *succs += 1;
                }
            }
            pred_start.push(preds.len());
        }
        let fusable = |k: OpKind| {
            matches!(
                k,
                OpKind::Conv | OpKind::Block | OpKind::Pool | OpKind::Skip
            )
        };
        let fused = (0..n)
            .filter(|&j| {
                let p = &preds[pred_start[j]..pred_start[j + 1]];
                p.len() == 1
                    && succ_count[p[0]] == 1
                    && fusable(nodes[p[0]].desc.kind)
                    && fusable(nodes[j].desc.kind)
            })
            .collect();
        PreparedArch {
            nodes,
            pred_start,
            preds,
            fused,
            hash: arch_hash(arch),
            total_flops: prof.total_flops,
            total_mem: prof.total_mem,
        }
    }

    fn preds(&self, j: usize) -> &[usize] {
        &self.preds[self.pred_start[j]..self.pred_start[j + 1]]
    }
}

/// Noise-free latency of a prepared architecture, in milliseconds.
pub(crate) fn clean_ms(device: &Device, arch: &PreparedArch) -> f64 {
    let p = device.profile();
    let b = device.batch() as f64;
    let n = arch.nodes.len();

    // Per-node time.
    let mut times = [0.0f64; MAX_NODES];
    let t = &mut times[..n];
    for (ti, node) in t.iter_mut().zip(&arch.nodes) {
        let (desc, c) = (&node.desc, &node.cost);
        let mem_time = c.mem * b / p.mem_bw;
        let quirk = device.quirk(node.vocab_id);
        *ti = match desc.kind {
            OpKind::Input | OpKind::Output | OpKind::None => 0.0,
            OpKind::Skip => p.overhead * p.skip_affinity * quirk + mem_time,
            OpKind::Pool => {
                (p.overhead + 0.02 * p.occupancy_floor / p.eff) * p.pool_affinity * quirk
                    + c.flops * b / p.eff * p.pool_affinity
                    + mem_time
            }
            OpKind::Conv | OpKind::Block => {
                let mut aff = p.conv_affinity;
                if desc.groups > 1 {
                    aff *= p.group_penalty;
                }
                aff *= 1.0 + desc.dw_fraction as f64 * (p.depthwise_penalty - 1.0);
                if desc.kernel == 1 {
                    // Pointwise convs utilize wide datapaths slightly worse.
                    aff *= 1.05;
                }
                (p.overhead + p.occupancy_floor / p.eff * aff) * quirk
                    + c.flops * b / p.eff * aff
                    + mem_time
            }
        };
    }

    // Operator fusion recovers part of a fused node's dispatch overhead.
    for &j in &arch.fused {
        t[j] = (t[j] - p.fusion_discount * p.overhead).max(0.0);
    }

    // Serial sum vs critical path, blended by branch parallelism. The
    // critical-path distances overwrite the node times in place: node `j`
    // reads only its predecessors, which come before it.
    let serial: f64 = t.iter().sum();
    for j in 0..n {
        let best = arch.preds(j).iter().map(|&i| t[i]).fold(0.0f64, f64::max);
        t[j] += best;
    }
    let critical = t[n - 1];
    let body = p.branch_parallelism * critical + (1.0 - p.branch_parallelism) * serial;

    // Fixed stem + classifier cost.
    let stem_flops = 9.0 * 3.0 * 16.0 * 32.0 * 32.0 + 64.0 * 100.0;
    let base = 2.0 * p.overhead + (stem_flops * b + p.occupancy_floor) / p.eff;

    body + base
}

/// [`clean_ms`] with the pair's deterministic lognormal measurement noise.
fn measured_ms(device: &Device, arch: &PreparedArch) -> f64 {
    let clean = clean_ms(device, arch);
    let noise = lognormal_jitter(
        combine(device.seed(), arch.hash),
        device.profile().noise_sigma,
    );
    clean * noise
}

/// Noise-free latency in milliseconds.
pub fn latency_clean_ms(device: &Device, arch: &Arch) -> f64 {
    clean_ms(device, &PreparedArch::new(arch))
}

/// Measured latency in milliseconds: the clean latency with deterministic
/// lognormal measurement noise (same (device, arch) → same value).
pub fn latency_ms(device: &Device, arch: &Arch) -> f64 {
    measured_ms(device, &PreparedArch::new(arch))
}

/// Measures a batch of architectures on one device.
pub fn measure_all(device: &Device, archs: &[Arch]) -> Vec<f32> {
    archs.iter().map(|a| latency_ms(device, a) as f32).collect()
}

/// A precomputed `devices × architectures` latency matrix — the in-memory
/// analogue of the HW-NAS-Bench latency tables.
#[derive(Debug, Clone)]
pub struct LatencyTable {
    device_names: Vec<String>,
    /// `rows[d][a]` = latency of architecture `a` on device `d` (ms).
    rows: Vec<Vec<f32>>,
}

impl LatencyTable {
    /// Measures every architecture on every device, preparing each
    /// architecture once for all devices.
    pub fn build(devices: &[Device], archs: &[Arch]) -> Self {
        let device_names = devices.iter().map(|d| d.name().to_string()).collect();
        let mut rows: Vec<Vec<f32>> = devices
            .iter()
            .map(|_| Vec::with_capacity(archs.len()))
            .collect();
        for arch in archs {
            let arch = PreparedArch::new(arch);
            for (row, device) in rows.iter_mut().zip(devices) {
                row.push(measured_ms(device, &arch) as f32);
            }
        }
        LatencyTable { device_names, rows }
    }

    /// Device names in row order.
    pub fn device_names(&self) -> &[String] {
        &self.device_names
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.rows.len()
    }

    /// Number of architectures.
    pub fn num_archs(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Latency vector of one device across all architectures.
    pub fn device_row(&self, device: &str) -> Option<&[f32]> {
        let idx = self.device_names.iter().position(|n| n == device)?;
        Some(&self.rows[idx])
    }

    /// Latency vector by row index.
    pub fn row(&self, idx: usize) -> &[f32] {
        &self.rows[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceRegistry;
    use nasflat_space::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_archs(n: usize, seed: u64) -> Vec<Arch> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Arch::random(Space::Nb201, &mut rng))
            .collect()
    }

    #[test]
    fn latencies_positive_and_finite() {
        let reg = DeviceRegistry::nb201();
        let archs = sample_archs(20, 0);
        for d in reg.devices() {
            for a in &archs {
                let l = latency_ms(d, a);
                assert!(l.is_finite() && l > 0.0, "{} gave {l}", d.name());
            }
        }
    }

    #[test]
    fn latency_is_deterministic() {
        let reg = DeviceRegistry::nb201();
        let d = reg.get("pixel2").unwrap();
        let a = Arch::nb201_from_index(123);
        assert_eq!(latency_ms(d, &a), latency_ms(d, &a));
    }

    #[test]
    fn more_compute_is_slower_on_flops_bound_device() {
        let reg = DeviceRegistry::nb201();
        let d = reg.get("raspi4").unwrap();
        let all_conv = Arch::new(Space::Nb201, vec![3; 6]);
        let all_skip = Arch::new(Space::Nb201, vec![1; 6]);
        assert!(latency_clean_ms(d, &all_conv) > 2.0 * latency_clean_ms(d, &all_skip));
    }

    #[test]
    fn same_class_devices_correlate_more_than_cross_class() {
        use nasflat_metrics::spearman_rho;
        let reg = DeviceRegistry::nb201();
        let archs = sample_archs(200, 7);
        let lat = |name: &str| measure_all(reg.get(name).unwrap(), &archs);
        let a50 = lat("samsung_a50");
        let pixel3 = lat("pixel3");
        let etpu = lat("edge_tpu_int8");
        let intra = spearman_rho(&a50, &pixel3).unwrap();
        let cross = spearman_rho(&a50, &etpu).unwrap();
        assert!(intra > cross, "intra {intra} <= cross {cross}");
        assert!(
            intra > 0.85,
            "mobile CPUs should correlate highly, got {intra}"
        );
        assert!(
            cross < 0.75,
            "mCPU vs eTPU should correlate weakly, got {cross}"
        );
    }

    #[test]
    fn batch_one_gpu_decorrelates_from_large_batch() {
        use nasflat_metrics::spearman_rho;
        let reg = DeviceRegistry::nb201();
        let archs = sample_archs(200, 9);
        let b1 = measure_all(reg.get("1080ti_1").unwrap(), &archs);
        let b256 = measure_all(reg.get("1080ti_256").unwrap(), &archs);
        let other_b1 = measure_all(reg.get("titanxp_1").unwrap(), &archs);
        let same_batch = spearman_rho(&b1, &other_b1).unwrap();
        let cross_batch = spearman_rho(&b1, &b256).unwrap();
        assert!(
            same_batch > cross_batch,
            "same-batch {same_batch} should beat cross-batch {cross_batch}"
        );
    }

    #[test]
    fn latency_table_lookup() {
        let reg = DeviceRegistry::nb201();
        let archs = sample_archs(10, 3);
        let devs: Vec<_> = reg.devices()[..3].to_vec();
        let table = LatencyTable::build(&devs, &archs);
        assert_eq!(table.num_devices(), 3);
        assert_eq!(table.num_archs(), 10);
        let name = devs[1].name();
        assert_eq!(table.device_row(name).unwrap(), table.row(1));
        assert!(table.device_row("missing").is_none());
    }

    #[test]
    fn fbnet_latencies_work_too() {
        let reg = DeviceRegistry::fbnet();
        let mut rng = StdRng::seed_from_u64(11);
        let a = Arch::random(Space::Fbnet, &mut rng);
        for d in reg.devices() {
            let l = latency_ms(d, &a);
            assert!(l.is_finite() && l > 0.0);
        }
    }

    #[test]
    fn noise_is_small_relative_to_signal() {
        let reg = DeviceRegistry::nb201();
        let d = reg.get("fpga").unwrap();
        let a = Arch::nb201_from_index(4321);
        let clean = latency_clean_ms(d, &a);
        let noisy = latency_ms(d, &a);
        assert!((noisy / clean - 1.0).abs() < 0.25);
    }
}
