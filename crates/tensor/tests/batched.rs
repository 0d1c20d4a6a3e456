//! Property suite for the multi-query tape ops.
//!
//! The contract: stacking up to B = 16 blocks and running one block graph
//! op is **bit-identical** to running the plain op on each block alone on a
//! fresh tape — for [`Graph::block_matmul`] and [`Graph::block_matmul_nt`]
//! over equal-size blocks (the shape every stacked predictor pass uses), and
//! for [`Graph::block_mean_rows`] over mixed-size blocks.

use proptest::prelude::*;

use nasflat_tensor::{Graph, Tensor};

const MAX_BLOCKS: usize = 16;
const MAX_BLOCK_ROWS: usize = 6;
const MAX_COLS: usize = 8;

/// Stacks matrices vertically: `[A; B; …]`, the stacked operand a block
/// op takes.
///
/// # Panics
/// Panics if `blocks` is empty or column counts differ.
fn stack_rows(blocks: &[Tensor]) -> Tensor {
    assert!(!blocks.is_empty(), "stack_rows needs at least one block");
    let cols = blocks[0].cols();
    let mut data = Vec::new();
    for t in blocks {
        assert_eq!(t.cols(), cols, "stack_rows column mismatch");
        data.extend_from_slice(t.data());
    }
    Tensor::from_vec(data.len() / cols, cols, data)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Element strategy with a fat atom at exactly 0.0 (the kernels' skip value).
fn element() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), -3.0f32..3.0]
}

fn pool() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        element(),
        MAX_BLOCKS * MAX_BLOCK_ROWS * MAX_BLOCK_ROWS.max(MAX_COLS),
    )
}

/// Deterministic mixed block sizes in `1..=MAX_BLOCK_ROWS` derived from a
/// seed (the shim has no flat-map to size per-block vecs from B).
fn sizes_from(b: usize, seed: usize) -> Vec<usize> {
    (0..b)
        .map(|i| 1 + (seed.wrapping_mul(31).wrapping_add(i * 7)) % MAX_BLOCK_ROWS)
        .collect()
}

fn block(pool: &[f32], skip: &mut usize, rows: usize, cols: usize) -> Tensor {
    let start = *skip % (pool.len() - rows * cols);
    *skip = skip.wrapping_add(rows * cols + 13);
    Tensor::from_vec(rows, cols, pool[start..start + rows * cols].to_vec())
}

/// Rows `[i·n, (i+1)·n)` of a stacked matrix as their own tensor.
fn block_rows(t: &Tensor, i: usize, n: usize) -> Tensor {
    let c = t.cols();
    Tensor::from_vec(n, c, t.data()[i * n * c..(i + 1) * n * c].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn block_matmul_is_bit_identical_to_per_block_matmul(
        b in 1usize..MAX_BLOCKS + 1,
        n in 1usize..MAX_BLOCK_ROWS + 1,
        seed in 0usize..1000,
        cols in 1usize..MAX_COLS + 1,
        p in pool(),
        x in pool(),
    ) {
        let mut skip_p = seed;
        let mut skip_x = seed + 5;
        let props: Vec<Tensor> = (0..b).map(|_| block(&p, &mut skip_p, n, n)).collect();
        let feats: Vec<Tensor> = (0..b).map(|_| block(&x, &mut skip_x, n, cols)).collect();

        // Stacked pass: one block_matmul node over B stacked n×n blocks.
        let mut g = Graph::new();
        let pv = g.constant(stack_rows(&props));
        let xv = g.constant(stack_rows(&feats));
        let agg = g.block_matmul(pv, xv, n);
        prop_assert_eq!(g.value(agg).shape(), (b * n, cols));

        // Per-block passes on fresh tapes.
        for (i, (prop, feat)) in props.iter().zip(&feats).enumerate() {
            let mut g1 = Graph::new();
            let pv1 = g1.constant(prop.clone());
            let xv1 = g1.constant(feat.clone());
            let y1 = g1.matmul(pv1, xv1);
            prop_assert_eq!(bits(g1.value(y1)), bits(&block_rows(g.value(agg), i, n)), "block {}", i);
        }
    }

    #[test]
    fn block_matmul_nt_is_bit_identical_to_per_block_transposed_matmul(
        b in 1usize..MAX_BLOCKS + 1,
        n in 1usize..MAX_BLOCK_ROWS + 1,
        seed in 0usize..1000,
        cols in 1usize..MAX_COLS + 1,
        x in pool(),
    ) {
        let mut skip = seed;
        let lhs: Vec<Tensor> = (0..b).map(|_| block(&x, &mut skip, n, cols)).collect();
        let rhs: Vec<Tensor> = (0..b).map(|_| block(&x, &mut skip, n, cols)).collect();

        let mut g = Graph::new();
        let av = g.constant(stack_rows(&lhs));
        let bv = g.constant(stack_rows(&rhs));
        let logits = g.block_matmul_nt(av, bv, n);
        prop_assert_eq!(g.value(logits).shape(), (b * n, n));

        for (i, (l, r)) in lhs.iter().zip(&rhs).enumerate() {
            let mut g1 = Graph::new();
            let av1 = g1.constant(l.clone());
            let bv1 = g1.constant(r.clone());
            let bt = g1.transpose(bv1);
            let y1 = g1.matmul(av1, bt);
            prop_assert_eq!(bits(g1.value(y1)), bits(&block_rows(g.value(logits), i, n)), "block {}", i);
        }
    }

    #[test]
    fn block_mean_readout_is_bit_identical_to_per_block_mean(
        b in 1usize..MAX_BLOCKS + 1,
        seed in 0usize..1000,
        cols in 1usize..MAX_COLS + 1,
        x in pool(),
    ) {
        let sizes = sizes_from(b, seed);
        let mut skip_x = seed;
        let feats: Vec<Tensor> =
            sizes.iter().map(|&n| block(&x, &mut skip_x, n, cols)).collect();

        let mut g = Graph::new();
        let xv = g.constant(stack_rows(&feats));
        let bm = g.block_mean_rows(xv, &sizes);
        prop_assert_eq!(g.value(bm).shape(), (b, cols));

        for (i, feat) in feats.iter().enumerate() {
            let mut g1 = Graph::new();
            let xv1 = g1.constant(feat.clone());
            let m1 = g1.mean_rows(xv1);
            let row: Vec<u32> = g.value(bm).row(i).iter().map(|v| v.to_bits()).collect();
            let expect: Vec<u32> = g1.value(m1).row(0).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(row, expect, "block {}", i);
        }
    }
}

fn ramp(rows: usize, cols: usize, seed: f32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| (i as f32 * 0.73 + seed).sin())
        .collect();
    Tensor::from_vec(rows, cols, data)
}

#[test]
fn stack_rows_concatenates_blocks_in_order() {
    let blocks = vec![ramp(1, 4, 0.2), ramp(5, 4, 1.2), ramp(2, 4, 2.2)];
    let stacked = stack_rows(&blocks);
    assert_eq!(stacked.shape(), (8, 4));
    let expect: Vec<f32> = blocks.iter().flat_map(|b| b.data().to_vec()).collect();
    assert_eq!(stacked.data(), &expect[..]);
}

#[test]
#[should_panic(expected = "column mismatch")]
fn stack_rows_rejects_mixed_widths() {
    let _ = stack_rows(&[ramp(2, 3, 0.0), ramp(2, 4, 0.0)]);
}
