//! Property + chunking suite for multi-query (block-diagonal) tape
//! evaluation.
//!
//! Contract under test:
//!
//! 1. **Round trip**: stacking B = 1..16 architectures into one
//!    block-diagonal tape pass (`stack → forward → slice`) produces scores
//!    bit-identical to the dense reference forward on fresh tapes — across
//!    GNN module kinds, spaces (8-node NB201 cells, 24-node FBNet chains),
//!    and with supplementary encodings.
//! 2. **Chunking**: a run of queries is evaluated in passes of
//!    [`TAPE_BLOCK`] architectures plus one shorter pass for the remainder,
//!    observable through the session's pass count, with the same bits.

use proptest::prelude::*;

use nasflat_core::{GnnModuleKind, LatencyPredictor, PredictorConfig, TAPE_BLOCK};
use nasflat_encode::EncodingKind;
use nasflat_space::{Arch, Space};
use nasflat_tensor::Graph;

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

/// The dense reference forward on a fresh tape.
fn reference_bits(p: &LatencyPredictor, arch: &Arch, device: usize, supp: Option<&[f32]>) -> u32 {
    let mut g = Graph::new();
    let y = p.forward(&mut g, arch, device, supp);
    g.value(y).item().to_bits()
}

/// Per-arch reference scores — the ground truth every batched variant must
/// reproduce bit-for-bit.
fn per_arch_bits(p: &LatencyPredictor, archs: &[&Arch], device: usize) -> Vec<u32> {
    archs
        .iter()
        .map(|a| reference_bits(p, a, device, None))
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
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
        let batched: Vec<u32> = (0..b).map(|i| g.value(y).get(i, 0).to_bits()).collect();

        // …must slice back to exactly the per-arch reference scores.
        prop_assert_eq!(batched, per_arch_bits(&p, &refs, device));
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
        .map(|(a, s)| reference_bits(&p, a, 0, Some(s)))
        .collect();
    let mut session = p.session();
    for b in [1, refs.len()] {
        let batched =
            session.predict_batched_tape_devices(&refs[..b], &vec![0; b], Some(&supp[..b]));
        assert_eq!(bits(&batched), expect[..b], "B={b}");
    }
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
            .map(|(a, &d)| reference_bits(&p, a, d, None))
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
        .map(|(a, &d)| reference_bits(&p, a, d, None))
        .collect();
    assert_eq!(bits(&got), expect);
}
