//! Device roster and performance profiles.
//!
//! Mirrors the paper's Table 23: 40 devices for NASBench-201 (the
//! HELP/HW-NAS-Bench set plus the EAGLE set) and 27 for FBNet. A device is a
//! (hardware, batch size, precision) triple — the paper treats different
//! batch sizes of the same card as distinct devices because their latency
//! rankings correlate poorly.

use crate::rng::{combine, fnv1a, lognormal_jitter};
use nasflat_space::Space;

/// Broad hardware category (the "Type" column of Table 23).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Desktop/server GPU.
    Gpu,
    /// Server/desktop CPU.
    Cpu,
    /// Mobile phone CPU.
    MCpu,
    /// Mobile GPU (Adreno).
    MGpu,
    /// Mobile DSP (Hexagon).
    MDsp,
    /// Embedded GPU (Jetson).
    EGpu,
    /// Embedded CPU (Raspberry Pi).
    ECpu,
    /// Edge TPU.
    ETpu,
    /// FPGA accelerator.
    Fpga,
    /// Fixed-function ASIC (Eyeriss).
    Asic,
}

impl DeviceClass {
    /// Display label matching the paper's device-type column.
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::Gpu => "GPU",
            DeviceClass::Cpu => "CPU",
            DeviceClass::MCpu => "mCPU",
            DeviceClass::MGpu => "mGPU",
            DeviceClass::MDsp => "mDSP",
            DeviceClass::EGpu => "eGPU",
            DeviceClass::ECpu => "eCPU",
            DeviceClass::ETpu => "eTPU",
            DeviceClass::Fpga => "FPGA",
            DeviceClass::Asic => "ASIC",
        }
    }
}

/// Numeric precision the device runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit float.
    Fp32,
    /// 16-bit float.
    Fp16,
    /// 8-bit integer (quantized deployment).
    Int8,
}

/// Performance profile: the latent factors that determine how a device
/// turns an architecture into a latency.
///
/// Cross-device *correlation structure* emerges from how these factors mix:
/// flops-bound devices rank architectures by compute, batch-1 GPUs by
/// per-kernel overhead and op count, accelerators by op-kind affinities.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Compute throughput in FLOPs per millisecond.
    pub eff: f64,
    /// Memory bandwidth in activation elements per millisecond.
    pub mem_bw: f64,
    /// Fixed dispatch/launch overhead per operation node, in ms.
    pub overhead: f64,
    /// Minimum occupancy work in FLOPs: compute below this size cannot
    /// utilize the device (dominates GPU batch-1 behaviour).
    pub occupancy_floor: f64,
    /// Fraction of parallel-branch time hidden by concurrent execution
    /// (0 = fully serial, 1 = critical path only).
    pub branch_parallelism: f64,
    /// Fraction of a fused successor's overhead eliminated by the
    /// compiler/runtime (operator fusion).
    pub fusion_discount: f64,
    /// Multiplier on depthwise-convolution compute (GPUs are poor at it).
    pub depthwise_penalty: f64,
    /// Multiplier on grouped-convolution compute (int8 accelerators often
    /// fall back to slow paths).
    pub group_penalty: f64,
    /// Compute multiplier for plain convolutions (op-kind affinity).
    pub conv_affinity: f64,
    /// Compute+overhead multiplier for pooling ops.
    pub pool_affinity: f64,
    /// Overhead multiplier for skip connections (some accelerators pay a
    /// fallback/data-movement cost for "free" ops).
    pub skip_affinity: f64,
    /// Lognormal sigma of per-measurement noise.
    pub noise_sigma: f64,
}

impl Profile {
    /// Baseline profile for a device class (before per-device jitter).
    pub fn class_base(class: DeviceClass) -> Profile {
        match class {
            DeviceClass::Gpu => Profile {
                eff: 5.0e8,
                mem_bw: 2.0e8,
                overhead: 0.35,
                occupancy_floor: 2.5e8,
                branch_parallelism: 0.75,
                fusion_discount: 0.2,
                depthwise_penalty: 4.0,
                group_penalty: 1.5,
                conv_affinity: 1.0,
                pool_affinity: 1.4,
                skip_affinity: 0.3,
                noise_sigma: 0.03,
            },
            DeviceClass::Cpu => Profile {
                eff: 6.0e7,
                mem_bw: 5.0e7,
                overhead: 0.05,
                occupancy_floor: 2.0e6,
                branch_parallelism: 0.3,
                fusion_discount: 0.3,
                depthwise_penalty: 1.5,
                group_penalty: 1.1,
                conv_affinity: 1.0,
                pool_affinity: 1.2,
                skip_affinity: 0.2,
                noise_sigma: 0.03,
            },
            DeviceClass::MCpu => Profile {
                eff: 1.2e7,
                mem_bw: 1.0e7,
                overhead: 0.03,
                occupancy_floor: 2.0e5,
                branch_parallelism: 0.1,
                fusion_discount: 0.4,
                depthwise_penalty: 1.0,
                group_penalty: 1.1,
                conv_affinity: 1.0,
                pool_affinity: 1.1,
                skip_affinity: 0.2,
                noise_sigma: 0.05,
            },
            DeviceClass::MGpu => Profile {
                eff: 6.0e7,
                mem_bw: 2.0e7,
                overhead: 0.15,
                occupancy_floor: 6.0e6,
                branch_parallelism: 0.4,
                fusion_discount: 0.3,
                depthwise_penalty: 2.5,
                group_penalty: 2.0,
                conv_affinity: 0.9,
                pool_affinity: 1.8,
                skip_affinity: 0.5,
                noise_sigma: 0.05,
            },
            DeviceClass::MDsp => Profile {
                eff: 9.0e7,
                mem_bw: 1.5e7,
                overhead: 0.1,
                occupancy_floor: 4.0e6,
                branch_parallelism: 0.15,
                fusion_discount: 0.6,
                depthwise_penalty: 1.2,
                group_penalty: 2.5,
                conv_affinity: 0.8,
                pool_affinity: 2.2,
                skip_affinity: 0.8,
                noise_sigma: 0.05,
            },
            DeviceClass::EGpu => Profile {
                eff: 8.0e7,
                mem_bw: 1.2e7,
                overhead: 0.12,
                occupancy_floor: 8.0e6,
                branch_parallelism: 0.25,
                fusion_discount: 0.25,
                depthwise_penalty: 2.5,
                group_penalty: 1.5,
                conv_affinity: 1.0,
                pool_affinity: 1.7,
                skip_affinity: 0.4,
                noise_sigma: 0.04,
            },
            DeviceClass::ECpu => Profile {
                eff: 2.5e6,
                mem_bw: 2.0e6,
                overhead: 0.01,
                occupancy_floor: 5.0e4,
                branch_parallelism: 0.05,
                fusion_discount: 0.3,
                depthwise_penalty: 1.0,
                group_penalty: 1.05,
                conv_affinity: 1.0,
                pool_affinity: 1.1,
                skip_affinity: 0.15,
                noise_sigma: 0.05,
            },
            DeviceClass::ETpu => Profile {
                eff: 3.0e8,
                mem_bw: 2.5e7,
                overhead: 0.25,
                occupancy_floor: 4.0e7,
                branch_parallelism: 0.1,
                fusion_discount: 0.7,
                depthwise_penalty: 3.0,
                group_penalty: 4.0,
                conv_affinity: 0.35,
                pool_affinity: 3.5,
                skip_affinity: 1.6,
                noise_sigma: 0.06,
            },
            DeviceClass::Fpga => Profile {
                eff: 8.0e7,
                mem_bw: 4.0e7,
                overhead: 0.02,
                occupancy_floor: 1.0e6,
                branch_parallelism: 0.6,
                fusion_discount: 0.5,
                depthwise_penalty: 1.0,
                group_penalty: 1.2,
                conv_affinity: 1.0,
                pool_affinity: 1.3,
                skip_affinity: 0.25,
                noise_sigma: 0.03,
            },
            DeviceClass::Asic => Profile {
                eff: 2.0e8,
                mem_bw: 3.0e7,
                overhead: 0.05,
                occupancy_floor: 3.0e6,
                branch_parallelism: 0.3,
                fusion_discount: 0.5,
                depthwise_penalty: 1.5,
                group_penalty: 2.2,
                conv_affinity: 0.45,
                pool_affinity: 2.5,
                skip_affinity: 1.0,
                noise_sigma: 0.04,
            },
        }
    }

    /// Applies deterministic per-device lognormal jitter so that two devices
    /// of the same class are highly — but not perfectly — correlated.
    pub fn jittered(mut self, seed: u64) -> Profile {
        let field = |idx: u64, v: &mut f64, sigma: f64| {
            *v *= lognormal_jitter(combine(seed, idx), sigma);
        };
        field(1, &mut self.eff, 0.10);
        field(2, &mut self.mem_bw, 0.10);
        field(3, &mut self.overhead, 0.12);
        field(4, &mut self.occupancy_floor, 0.15);
        field(6, &mut self.fusion_discount, 0.10);
        field(7, &mut self.depthwise_penalty, 0.08);
        field(8, &mut self.group_penalty, 0.10);
        field(9, &mut self.conv_affinity, 0.08);
        field(10, &mut self.pool_affinity, 0.12);
        field(11, &mut self.skip_affinity, 0.12);
        self
    }
}

/// Vocabulary ids the kernel-quirk table covers: enough for both spaces
/// (NB201 has 7, FBNet 11).
const QUIRK_SLOTS: usize = 11;

/// Kernel-selection quirk: a deterministic multiplier on the *fixed* cost
/// of an op (overhead + occupancy floor) that depends on the device class
/// and the op's vocabulary id. This models compiler/kernel-library
/// fingerprints: all batch-1 GPUs pick the same cuDNN algorithms (high
/// mutual correlation) whose small-batch cost is only weakly related to
/// FLOPs (low correlation with large-batch or flops-bound devices).
fn op_quirk(class: DeviceClass, seed: u64, vocab_id: usize) -> f64 {
    let class_seed = fnv1a(class.label().as_bytes());
    let shared = lognormal_jitter(combine(class_seed, vocab_id as u64), 0.30);
    let per_dev = lognormal_jitter(combine(seed, vocab_id as u64 ^ 0xA5A5), 0.08);
    shared * per_dev
}

/// One entry of the device roster.
#[derive(Debug, Clone)]
pub struct Device {
    name: String,
    class: DeviceClass,
    precision: Precision,
    batch: u32,
    profile: Profile,
    seed: u64,
    /// `op_quirk` per vocabulary id, derived once here so the simulator
    /// looks each node's quirk up instead of re-deriving it per
    /// (device, architecture) pair.
    quirks: [f64; QUIRK_SLOTS],
}

impl Device {
    /// Builds a device: the profile is the class baseline, jittered by a
    /// hash of the device name (so the roster is fully deterministic).
    pub fn new(name: &str, class: DeviceClass, precision: Precision, batch: u32) -> Device {
        let seed = fnv1a(name.as_bytes());
        let mut profile = Profile::class_base(class).jittered(seed);
        if precision == Precision::Int8 {
            // Quantized conv paths are much faster; irregular ops are not.
            profile.eff *= 2.5;
            profile.group_penalty *= 1.6;
        }
        if precision == Precision::Fp16 {
            profile.eff *= 1.6;
        }
        Device {
            name: name.to_string(),
            class,
            precision,
            batch,
            profile,
            seed,
            quirks: std::array::from_fn(|v| op_quirk(class, seed, v)),
        }
    }

    /// Device name as used in the paper's tables.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hardware category.
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    /// Deployment precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Inference batch size.
    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// Performance profile (after per-device jitter).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Stable per-device seed (keys measurement noise).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Kernel-selection quirk of vocabulary id `vocab_id` on this device.
    pub(crate) fn quirk(&self, vocab_id: usize) -> f64 {
        self.quirks[vocab_id]
    }
}

fn gpu(name: &str, batch: u32) -> Device {
    Device::new(name, DeviceClass::Gpu, Precision::Fp32, batch)
}

fn mcpu(name: &str) -> Device {
    Device::new(name, DeviceClass::MCpu, Precision::Fp32, 1)
}

fn cpu(name: &str) -> Device {
    Device::new(name, DeviceClass::Cpu, Precision::Fp32, 1)
}

/// The HELP / HW-NAS-Bench device set shared by both spaces
/// (GPU batch sizes differ between NB201 and FBNet rosters).
fn helps_devices(gpu_batches: &[u32]) -> Vec<Device> {
    let mut v = Vec::new();
    for card in ["1080ti", "2080ti", "titan_rtx", "titanx", "titanxp"] {
        for &b in gpu_batches {
            v.push(gpu(&format!("{card}_{b}"), b));
        }
    }
    v.extend([
        cpu("gold_6240"),
        cpu("silver_4114"),
        cpu("silver_4210r"),
        cpu("gold_6226"),
    ]);
    v.extend([
        mcpu("samsung_a50"),
        mcpu("pixel3"),
        mcpu("samsung_s7"),
        mcpu("essential_ph_1"),
        mcpu("pixel2"),
    ]);
    v.push(Device::new("fpga", DeviceClass::Fpga, Precision::Fp16, 1));
    v.push(Device::new("raspi4", DeviceClass::ECpu, Precision::Fp32, 1));
    v.push(Device::new(
        "eyeriss",
        DeviceClass::Asic,
        Precision::Int8,
        1,
    ));
    v
}

/// The EAGLE device set (NASBench-201 only).
fn eagle_devices() -> Vec<Device> {
    vec![
        Device::new("core_i7_7820x_fp32", DeviceClass::Cpu, Precision::Fp32, 1),
        Device::new(
            "snapdragon_675_kryo_460_int8",
            DeviceClass::MCpu,
            Precision::Int8,
            1,
        ),
        Device::new(
            "snapdragon_855_kryo_485_int8",
            DeviceClass::MCpu,
            Precision::Int8,
            1,
        ),
        Device::new(
            "snapdragon_450_cortex_a53_int8",
            DeviceClass::MCpu,
            Precision::Int8,
            1,
        ),
        Device::new("edge_tpu_int8", DeviceClass::ETpu, Precision::Int8, 1),
        Device::new("gtx_1080ti_fp32", DeviceClass::Gpu, Precision::Fp32, 1),
        Device::new("jetson_nano_fp16", DeviceClass::EGpu, Precision::Fp16, 1),
        Device::new("jetson_nano_fp32", DeviceClass::EGpu, Precision::Fp32, 1),
        Device::new(
            "snapdragon_855_adreno_640_int8",
            DeviceClass::MGpu,
            Precision::Int8,
            1,
        ),
        Device::new(
            "snapdragon_450_adreno_506_int8",
            DeviceClass::MGpu,
            Precision::Int8,
            1,
        ),
        Device::new(
            "snapdragon_675_adreno_612_int8",
            DeviceClass::MGpu,
            Precision::Int8,
            1,
        ),
        Device::new(
            "snapdragon_675_hexagon_685_int8",
            DeviceClass::MDsp,
            Precision::Int8,
            1,
        ),
        Device::new(
            "snapdragon_855_hexagon_690_int8",
            DeviceClass::MDsp,
            Precision::Int8,
            1,
        ),
    ]
}

/// The full device roster for one search space.
#[derive(Debug, Clone)]
pub struct DeviceRegistry {
    space: Space,
    devices: Vec<Device>,
}

impl DeviceRegistry {
    /// The 40-device NASBench-201 roster (HELP + HW-NAS-Bench + EAGLE).
    pub fn nb201() -> Self {
        let mut devices = helps_devices(&[1, 32, 256]);
        devices.extend(eagle_devices());
        DeviceRegistry {
            space: Space::Nb201,
            devices,
        }
    }

    /// The 27-device FBNet roster (HELP + HW-NAS-Bench).
    pub fn fbnet() -> Self {
        DeviceRegistry {
            space: Space::Fbnet,
            devices: helps_devices(&[1, 32, 64]),
        }
    }

    /// Roster for a space.
    pub fn for_space(space: Space) -> Self {
        match space {
            Space::Nb201 => Self::nb201(),
            Space::Fbnet => Self::fbnet(),
        }
    }

    /// The search space this roster serves.
    pub fn space(&self) -> Space {
        self.space
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the roster is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Looks up a device by name.
    pub fn get(&self, name: &str) -> Option<&Device> {
        self.devices.iter().find(|d| d.name() == name)
    }

    /// All device names in roster order.
    pub fn names(&self) -> Vec<&str> {
        self.devices.iter().map(|d| d.name()).collect()
    }

    /// All device names as owned strings, in roster order — the device-list
    /// form `LatencyPredictor::new` and the serving bundles consume.
    pub fn owned_names(&self) -> Vec<String> {
        self.devices.iter().map(|d| d.name().to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_match_paper_counts() {
        assert_eq!(DeviceRegistry::nb201().len(), 40);
        assert_eq!(DeviceRegistry::fbnet().len(), 27);
    }

    #[test]
    fn lookup_by_name() {
        let reg = DeviceRegistry::nb201();
        assert!(reg.get("eyeriss").is_some());
        assert!(reg.get("edge_tpu_int8").is_some());
        assert!(reg.get("nonexistent").is_none());
        // EAGLE devices are NB201-only
        assert!(DeviceRegistry::fbnet().get("edge_tpu_int8").is_none());
    }

    #[test]
    fn batch_parsed_into_devices() {
        let reg = DeviceRegistry::nb201();
        assert_eq!(reg.get("1080ti_256").unwrap().batch(), 256);
        assert_eq!(reg.get("1080ti_1").unwrap().batch(), 1);
        let fb = DeviceRegistry::fbnet();
        assert_eq!(fb.get("titanxp_64").unwrap().batch(), 64);
    }

    #[test]
    fn profiles_are_deterministic_and_device_specific() {
        let a1 = Device::new("1080ti_1", DeviceClass::Gpu, Precision::Fp32, 1);
        let a2 = Device::new("1080ti_1", DeviceClass::Gpu, Precision::Fp32, 1);
        let b = Device::new("2080ti_1", DeviceClass::Gpu, Precision::Fp32, 1);
        assert_eq!(a1.profile().eff, a2.profile().eff);
        assert_ne!(a1.profile().eff, b.profile().eff);
    }

    #[test]
    fn int8_speeds_up_compute() {
        let base = Profile::class_base(DeviceClass::MCpu);
        let dev = Device::new(
            "snapdragon_855_kryo_485_int8",
            DeviceClass::MCpu,
            Precision::Int8,
            1,
        );
        // jitter is ±~20%, int8 multiplies by 2.5; so this is robustly larger
        assert!(dev.profile().eff > 1.5 * base.eff);
    }

    #[test]
    fn quirk_table_covers_both_vocabularies() {
        assert!(Space::Nb201.vocab_size() <= QUIRK_SLOTS);
        assert_eq!(Space::Fbnet.vocab_size(), QUIRK_SLOTS);
    }

    #[test]
    fn quirk_table_equals_the_per_node_formula() {
        // The formula the simulator evaluated per graph node before the
        // table existed, kept verbatim.
        fn op_quirk(device: &Device, vocab_id: usize) -> f64 {
            let class_seed = fnv1a(device.class().label().as_bytes());
            let shared = lognormal_jitter(combine(class_seed, vocab_id as u64), 0.30);
            let per_dev = lognormal_jitter(combine(device.seed(), vocab_id as u64 ^ 0xA5A5), 0.08);
            shared * per_dev
        }
        let (nb, fb) = (DeviceRegistry::nb201(), DeviceRegistry::fbnet());
        for d in nb.devices().iter().chain(fb.devices()) {
            for v in 0..QUIRK_SLOTS {
                assert_eq!(
                    d.quirk(v).to_bits(),
                    op_quirk(d, v).to_bits(),
                    "{} vocab {v}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn class_labels() {
        assert_eq!(DeviceClass::ETpu.label(), "eTPU");
        assert_eq!(DeviceClass::MDsp.label(), "mDSP");
    }
}
