//! Bitwise oracle for the latency simulator.
//!
//! The simulator prepares each architecture once and each device once, and
//! runs only the remaining arithmetic per (device, architecture) pair. This
//! suite keeps the unsplit per-pair formula verbatim as a reference — the
//! kernel quirk re-derived per graph node, predecessor and successor lists
//! rebuilt per node, the same folds — and holds every public entry point to
//! its bits: `LatencyTable::build`, `measure_all`, `latency_ms`,
//! `latency_clean_ms`, `measure_energy_all`, `energy_mj` and
//! `energy_clean_mj`, over probe pools of both spaces and every device of
//! both rosters.
//!
//! Tier-1 runs 64 probe architectures per space; the full-size case (the
//! benchmark's 500-architecture pools) is `#[ignore]`d and runs in release:
//!
//! ```sh
//! cargo test --release -p nasflat-hw --test sim_oracle -- --ignored
//! ```

use nasflat_hw::{
    energy_clean_mj, energy_mj, latency_clean_ms, latency_ms, measure_all, measure_energy_all,
    Device, DeviceRegistry, LatencyTable,
};
use nasflat_space::{fbnet_pool, Arch, Space};

/// The per-pair formula, as the simulator evaluated it before it was split
/// into prepared halves.
mod reference {
    use nasflat_hw::{combine, fnv1a, lognormal_jitter, Device, DeviceClass};
    use nasflat_space::{Arch, OpKind};

    fn op_quirk(device: &Device, vocab_id: usize) -> f64 {
        let class_seed = fnv1a(device.class().label().as_bytes());
        let shared = lognormal_jitter(combine(class_seed, vocab_id as u64), 0.30);
        let per_dev = lognormal_jitter(combine(device.seed(), vocab_id as u64 ^ 0xA5A5), 0.08);
        shared * per_dev
    }

    fn arch_hash(arch: &Arch) -> u64 {
        let tag: u8 = match arch.space() {
            nasflat_space::Space::Nb201 => 1,
            nasflat_space::Space::Fbnet => 2,
        };
        let mut bytes = vec![tag];
        bytes.extend_from_slice(arch.genotype());
        fnv1a(&bytes)
    }

    pub fn latency_clean_ms(device: &Device, arch: &Arch) -> f64 {
        let graph = arch.to_graph();
        let prof = arch.cost_profile();
        let p = device.profile();
        let b = device.batch() as f64;
        let n = graph.num_nodes();
        let space = arch.space();

        let mut t = vec![0.0f64; n];
        for (i, ti) in t.iter_mut().enumerate() {
            let vocab_id = graph.ops()[i];
            let desc = space.op_desc(vocab_id);
            let c = prof.node_costs[i];
            let mem_time = c.mem * b / p.mem_bw;
            let quirk = op_quirk(device, vocab_id);
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
                        aff *= 1.05;
                    }
                    (p.overhead + p.occupancy_floor / p.eff * aff) * quirk
                        + c.flops * b / p.eff * aff
                        + mem_time
                }
            };
        }

        for (j, tj) in t.iter_mut().enumerate() {
            let preds = graph.preds(j);
            if preds.len() != 1 {
                continue;
            }
            let u = preds[0];
            if graph.succs(u).len() != 1 {
                continue;
            }
            let ku = space.op_desc(graph.ops()[u]).kind;
            let kj = space.op_desc(graph.ops()[j]).kind;
            let fusable = |k: OpKind| {
                matches!(
                    k,
                    OpKind::Conv | OpKind::Block | OpKind::Pool | OpKind::Skip
                )
            };
            if fusable(ku) && fusable(kj) {
                *tj = (*tj - p.fusion_discount * p.overhead).max(0.0);
            }
        }

        let serial: f64 = t.iter().sum();
        let mut dist = vec![0.0f64; n];
        for j in 0..n {
            let best = graph
                .preds(j)
                .iter()
                .map(|&i| dist[i])
                .fold(0.0f64, f64::max);
            dist[j] = best + t[j];
        }
        let critical = dist[n - 1];
        let body = p.branch_parallelism * critical + (1.0 - p.branch_parallelism) * serial;

        let stem_flops = 9.0 * 3.0 * 16.0 * 32.0 * 32.0 + 64.0 * 100.0;
        let base = 2.0 * p.overhead + (stem_flops * b + p.occupancy_floor) / p.eff;

        body + base
    }

    pub fn latency_ms(device: &Device, arch: &Arch) -> f64 {
        let clean = latency_clean_ms(device, arch);
        let noise = lognormal_jitter(
            combine(device.seed(), arch_hash(arch)),
            device.profile().noise_sigma,
        );
        clean * noise
    }

    fn class_power(class: DeviceClass) -> (f64, f64, f64) {
        match class {
            DeviceClass::Gpu => (80.0, 12.0, 40.0),
            DeviceClass::Cpu => (45.0, 25.0, 60.0),
            DeviceClass::MCpu => (0.8, 18.0, 45.0),
            DeviceClass::MGpu => (1.5, 9.0, 35.0),
            DeviceClass::MDsp => (0.9, 5.0, 30.0),
            DeviceClass::EGpu => (6.0, 10.0, 38.0),
            DeviceClass::ECpu => (2.5, 30.0, 70.0),
            DeviceClass::ETpu => (2.0, 1.5, 25.0),
            DeviceClass::Fpga => (10.0, 4.0, 28.0),
            DeviceClass::Asic => (0.3, 0.8, 20.0),
        }
    }

    pub fn energy_clean_mj(device: &Device, arch: &Arch) -> f64 {
        let (static_w, pj_mac, pj_mem) = class_power(device.class());
        let jitter =
            |idx: u64, sigma: f64| lognormal_jitter(combine(device.seed(), 0xE6E6 ^ idx), sigma);
        let static_w = static_w * jitter(1, 0.10);
        let pj_mac = pj_mac * jitter(2, 0.10);
        let pj_mem = pj_mem * jitter(3, 0.08);

        let profile = arch.cost_profile();
        let b = device.batch() as f64;
        let t_ms = latency_clean_ms(device, arch);
        static_w * t_ms + (pj_mac * profile.total_flops * b + pj_mem * profile.total_mem * b) * 1e-9
    }

    pub fn energy_mj(device: &Device, arch: &Arch) -> f64 {
        let clean = energy_clean_mj(device, arch);
        let mut bytes = vec![0xEEu8];
        bytes.extend_from_slice(arch.genotype());
        let noise = lognormal_jitter(
            combine(device.seed() ^ 0xE0E0, fnv1a(&bytes)),
            device.profile().noise_sigma,
        );
        clean * noise
    }
}

/// `n` probe architectures, drawn as the task crate's `probe_pool(space, n,
/// 0)` draws them: strided NB201 indices, or the seeded FBNet pool.
fn probe_archs(space: Space, n: usize) -> Vec<Arch> {
    match space {
        Space::Nb201 => {
            let stride = 15_625 / n as u64;
            (0..n as u64)
                .map(|i| Arch::nb201_from_index(i * stride))
                .collect()
        }
        Space::Fbnet => fbnet_pool(0, n),
    }
}

/// Collects the first few mismatches so a failure names where the bits
/// moved without printing thousands of lines.
#[derive(Default)]
struct Mismatches {
    count: usize,
    first: Vec<String>,
}

impl Mismatches {
    fn check(&mut self, what: &str, device: &Device, a: usize, got: u64, want: u64) {
        if got != want {
            self.count += 1;
            if self.first.len() < 8 {
                self.first.push(format!(
                    "{what} on {} arch {a}: {got:#x} != {want:#x}",
                    device.name()
                ));
            }
        }
    }
}

/// Every entry point against the reference, bit for bit, over `n` probe
/// architectures × every device of `space`'s roster.
fn assert_bitwise(space: Space, n: usize) {
    let registry = DeviceRegistry::for_space(space);
    let devices = registry.devices();
    let archs = probe_archs(space, n);
    let table = LatencyTable::build(devices, &archs);
    assert_eq!((table.num_devices(), table.num_archs()), (devices.len(), n));
    let mut bad = Mismatches::default();
    for (d, device) in devices.iter().enumerate() {
        let measured = measure_all(device, &archs);
        let energies = measure_energy_all(device, &archs);
        for (a, arch) in archs.iter().enumerate() {
            let clean = reference::latency_clean_ms(device, arch);
            let lat = reference::latency_ms(device, arch);
            let lat32 = u64::from((lat as f32).to_bits());
            let e_clean = reference::energy_clean_mj(device, arch);
            let e = reference::energy_mj(device, arch);
            let got = [
                (
                    "latency_clean_ms",
                    latency_clean_ms(device, arch).to_bits(),
                    clean.to_bits(),
                ),
                (
                    "latency_ms",
                    latency_ms(device, arch).to_bits(),
                    lat.to_bits(),
                ),
                (
                    "LatencyTable::build",
                    u64::from(table.row(d)[a].to_bits()),
                    lat32,
                ),
                ("measure_all", u64::from(measured[a].to_bits()), lat32),
                (
                    "energy_clean_mj",
                    energy_clean_mj(device, arch).to_bits(),
                    e_clean.to_bits(),
                ),
                ("energy_mj", energy_mj(device, arch).to_bits(), e.to_bits()),
                (
                    "measure_energy_all",
                    u64::from(energies[a].to_bits()),
                    u64::from((e as f32).to_bits()),
                ),
            ];
            for (what, got, want) in got {
                bad.check(what, device, a, got, want);
            }
        }
    }
    assert!(
        bad.count == 0,
        "{space:?}: {} values differ from the per-pair formula:\n{}",
        bad.count,
        bad.first.join("\n")
    );
}

#[test]
fn nb201_matches_the_per_pair_formula_bitwise() {
    assert_bitwise(Space::Nb201, 64);
}

#[test]
fn fbnet_matches_the_per_pair_formula_bitwise() {
    assert_bitwise(Space::Fbnet, 64);
}

#[test]
#[ignore = "full-size pools; run in release: cargo test --release -p nasflat-hw --test sim_oracle -- --ignored"]
fn full_size_pools_match_the_per_pair_formula_bitwise() {
    assert_bitwise(Space::Nb201, 500);
    assert_bitwise(Space::Fbnet, 500);
}
