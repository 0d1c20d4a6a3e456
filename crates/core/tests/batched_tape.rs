//! Chunking and session-reuse suite for multi-query (block-diagonal) tape
//! evaluation.
//!
//! Contract under test: a run of queries is evaluated in passes of
//! [`TAPE_BLOCK`] architectures plus one shorter pass for the remainder,
//! observable through the session's pass count, and every score is
//! bit-identical to a one-block `predict` pass on a fresh tape — however
//! passes of different sizes interleave on one session tape. The crate's
//! unit tests pin the stacked pass itself, for B = 1..16, to the dense
//! single-architecture reference.

use nasflat_core::{LatencyPredictor, PredictorConfig, TAPE_BLOCK};
use nasflat_space::{Arch, Space};

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

/// A one-block pass on a fresh tape.
fn reference_bits(p: &LatencyPredictor, arch: &Arch, device: usize) -> u32 {
    p.predict(arch, device, None).to_bits()
}

/// Per-arch one-block scores — the ground truth every multi-block pass
/// must reproduce bit for bit.
fn per_arch_bits(p: &LatencyPredictor, archs: &[&Arch], device: usize) -> Vec<u32> {
    archs.iter().map(|a| reference_bits(p, a, device)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn batched_passes_reuse_the_session_arena_bitwise() {
    // Interleave multi-block and one-block passes on one tape: clear()
    // recycling must never leak state between passes of different sizes.
    let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
    let archs: Vec<Arch> = (0..12u64)
        .map(|i| Arch::nb201_from_index(i * 119))
        .collect();
    let refs: Vec<&Arch> = archs.iter().collect();
    let expect = per_arch_bits(&p, &refs, 0);
    let mut session = p.session();
    for round in 0..3 {
        let batched = session.predict_batched_tape_devices(&refs, &[0; 12], None);
        assert_eq!(
            bits(&batched),
            expect,
            "round {round} diverged after arena reuse"
        );
        let single = session.predict(&archs[round], 0, None);
        assert_eq!(single.to_bits(), expect[round]);
    }
}

#[test]
fn small_batches_run_as_one_short_pass() {
    // Fewer queries than one block: a single pass over exactly those
    // queries, whatever their devices, with the reference bits.
    let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
    let archs: Vec<Arch> = (0..3u64).map(|i| Arch::nb201_from_index(i * 57)).collect();
    let refs: Vec<&Arch> = archs.iter().collect();
    let devs = [2, 0, 1];
    let mut session = p.session();
    for b in 1..=refs.len() {
        let before = session.passes();
        let got = session.predict_many_devices(&refs[..b], &devs[..b], None);
        assert_eq!(session.passes() - before, 1, "B={b} must be one pass");
        let expect: Vec<u32> = refs[..b]
            .iter()
            .zip(&devs)
            .map(|(a, &d)| reference_bits(&p, a, d))
            .collect();
        assert_eq!(bits(&got), expect, "B={b}");
    }
}

#[test]
fn predict_many_runs_full_blocks_then_the_remainder() {
    let p = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
    let archs: Vec<Arch> = (0..11u64).map(|i| Arch::nb201_from_index(i * 57)).collect();
    let refs: Vec<&Arch> = archs.iter().collect();
    let devs: Vec<usize> = (0..11).map(|i| i % 3).collect();
    let mut session = p.session();
    let got = session.predict_many_devices(&refs, &devs, None);
    // Full blocks, then one pass for the remainder: at TAPE_BLOCK = 8, one
    // 8-block pass plus one 3-block pass.
    assert_eq!(session.passes(), refs.len().div_ceil(TAPE_BLOCK));
    let expect: Vec<u32> = refs
        .iter()
        .zip(&devs)
        .map(|(a, &d)| reference_bits(&p, a, d))
        .collect();
    assert_eq!(bits(&got), expect);
}
