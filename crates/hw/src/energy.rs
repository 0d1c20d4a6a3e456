//! Per-inference energy model (extension).
//!
//! The paper's framing (§4.1) lets the objective `ℓ : A → R` be latency,
//! accuracy, *or energy*; its evaluation covers latency only. This module
//! extends the device simulator with a consistent energy model so the same
//! predictor/sampler machinery can target energy:
//!
//! `E = P_static · T + e_mac · FLOPs · batch + e_mem · mem · batch`
//!
//! — static power integrated over the (clean) latency plus dynamic
//! per-operation energy. Class-level power/efficiency constants follow the
//! usual embedded-vs-server envelope (mW-scale mCPUs, hundreds of watts for
//! server GPUs), jittered per device like the latency profile.

use crate::device::{Device, DeviceClass};
use crate::rng::{combine, lognormal_jitter};
use crate::sim::{clean_ms, PreparedArch};
use nasflat_space::Arch;

/// Class-level power envelope: (static watts, picojoules per MAC,
/// picojoules per activation element moved).
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

/// Energy of one inference in millijoules (no measurement noise).
///
/// Deterministic per (device, architecture); consistent with
/// [`latency_clean_ms`](crate::latency_clean_ms), which supplies the static
/// term's integration time.
pub fn energy_clean_mj(device: &Device, arch: &Arch) -> f64 {
    clean_mj(device, &PreparedArch::new(arch))
}

/// [`energy_clean_mj`] of a prepared architecture.
fn clean_mj(device: &Device, arch: &PreparedArch) -> f64 {
    let (static_w, pj_mac, pj_mem) = class_power(device.class());
    // per-device jitter, keyed separately from the latency profile
    let jitter =
        |idx: u64, sigma: f64| lognormal_jitter(combine(device.seed(), 0xE6E6 ^ idx), sigma);
    let static_w = static_w * jitter(1, 0.10);
    let pj_mac = pj_mac * jitter(2, 0.10);
    let pj_mem = pj_mem * jitter(3, 0.08);

    let b = device.batch() as f64;
    let t_ms = clean_ms(device, arch);
    // static: W * ms = mJ;  dynamic: pJ * count = 1e-9 mJ
    static_w * t_ms + (pj_mac * arch.total_flops * b + pj_mem * arch.total_mem * b) * 1e-9
}

/// Measured energy in millijoules: deterministic lognormal noise keyed by
/// (device, architecture), mirroring [`latency_ms`](crate::latency_ms).
pub fn energy_mj(device: &Device, arch: &Arch) -> f64 {
    let clean = clean_mj(device, &PreparedArch::new(arch));
    let mut bytes = vec![0xEEu8];
    bytes.extend_from_slice(arch.genotype());
    let noise = lognormal_jitter(
        combine(device.seed() ^ 0xE0E0, crate::rng::fnv1a(&bytes)),
        device.profile().noise_sigma,
    );
    clean * noise
}

/// Measures a batch of architectures' energy on one device.
pub fn measure_energy_all(device: &Device, archs: &[Arch]) -> Vec<f32> {
    archs.iter().map(|a| energy_mj(device, a) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceRegistry;
    use crate::sim::latency_clean_ms;
    use nasflat_space::Space;

    fn archs(n: usize) -> Vec<Arch> {
        (0..n as u64)
            .map(|i| Arch::nb201_from_index(i * 521 % 15625))
            .collect()
    }

    #[test]
    fn energy_positive_finite_deterministic() {
        let reg = DeviceRegistry::nb201();
        let pool = archs(20);
        for dev in reg.devices().iter().step_by(5) {
            for a in &pool {
                let e = energy_mj(dev, a);
                assert!(e.is_finite() && e > 0.0, "{}: {e}", dev.name());
                assert_eq!(e, energy_mj(dev, a));
            }
        }
    }

    #[test]
    fn more_compute_costs_more_energy() {
        let reg = DeviceRegistry::nb201();
        let dev = reg.get("eyeriss").unwrap();
        let conv = Arch::new(Space::Nb201, vec![3; 6]);
        let skip = Arch::new(Space::Nb201, vec![1; 6]);
        assert!(energy_clean_mj(dev, &conv) > energy_clean_mj(dev, &skip));
    }

    #[test]
    fn asics_are_more_efficient_than_server_gpus() {
        // Energy per inference: a fixed-function int8 ASIC should beat a
        // 250 W-class fp32 GPU by a wide margin on the same cell.
        let reg = DeviceRegistry::nb201();
        let asic = reg.get("eyeriss").unwrap();
        let gpu = reg.get("titan_rtx_1").unwrap();
        let a = Arch::new(Space::Nb201, vec![3, 2, 1, 3, 2, 3]);
        assert!(
            energy_clean_mj(asic, &a) * 10.0 < energy_clean_mj(gpu, &a),
            "asic {} vs gpu {}",
            energy_clean_mj(asic, &a),
            energy_clean_mj(gpu, &a)
        );
    }

    #[test]
    fn energy_and_latency_rankings_differ() {
        // Energy is not a monotone function of latency: static-power-heavy
        // devices penalize *slow* cells, MAC-energy penalizes *compute* —
        // so the two metrics give different architecture rankings somewhere.
        use nasflat_metrics::spearman_rho;
        let reg = DeviceRegistry::nb201();
        let pool = archs(100);
        let mut differs = false;
        for dev in reg.devices().iter().step_by(3) {
            let lat: Vec<f32> = pool
                .iter()
                .map(|a| latency_clean_ms(dev, a) as f32)
                .collect();
            let en: Vec<f32> = pool
                .iter()
                .map(|a| energy_clean_mj(dev, a) as f32)
                .collect();
            if let Ok(rho) = spearman_rho(&lat, &en) {
                if rho < 0.995 {
                    differs = true;
                }
            }
        }
        assert!(
            differs,
            "energy should not be a pure re-ranking of latency everywhere"
        );
    }

    #[test]
    fn noise_is_bounded() {
        let reg = DeviceRegistry::nb201();
        let dev = reg.get("pixel3").unwrap();
        let a = Arch::nb201_from_index(999);
        let ratio = energy_mj(dev, &a) / energy_clean_mj(dev, &a);
        assert!((ratio - 1.0).abs() < 0.4);
    }
}
