//! Multi-query stacking helper.
//!
//! A batched forward pass stacks B independent queries' node features
//! vertically into one tall matrix and propagates them through **one** shared
//! tape. The block graph ops on [`Graph`](crate::Graph) keep per-query
//! structure intact inside that stack:
//! [`Graph::block_matmul`](crate::Graph::block_matmul) and
//! [`Graph::block_matmul_nt`](crate::Graph::block_matmul_nt) multiply
//! equal-size stacked blocks in one node, and
//! [`Graph::block_mean_rows`](crate::Graph::block_mean_rows) reduces each
//! block to its row mean. Each runs the exact kernel call (and so the exact
//! accumulation order) the per-query op would on that block alone, so a
//! stacked pass is **bit-identical** to B separate passes. All remaining
//! dense ops (linear layers, activations, LayerNorm, softmax) are row-wise,
//! so stacked rows compute the same bits as isolated ones.
//!
//! [`stack_rows`] builds the stacked operands those ops are checked with
//! against per-block passes on fresh tapes.

use crate::tensor::Tensor;

/// Stacks matrices vertically: `[A; B; …]`. Column counts must match.
///
/// # Panics
/// Panics if `blocks` is empty or column counts differ.
pub fn stack_rows(blocks: &[Tensor]) -> Tensor {
    assert!(!blocks.is_empty(), "stack_rows needs at least one block");
    let cols = blocks[0].cols();
    let rows: usize = blocks
        .iter()
        .map(|t| {
            assert_eq!(t.cols(), cols, "stack_rows column mismatch");
            t.rows()
        })
        .sum();
    let mut out = Tensor::zeros(rows, cols);
    let mut off = 0usize;
    for t in blocks {
        for i in 0..t.rows() {
            out.row_mut(off + i).copy_from_slice(t.row(i));
        }
        off += t.rows();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, seed: f32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| (i as f32 * 0.73 + seed).sin())
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn stack_rows_concatenates_blocks_in_order() {
        let blocks = vec![t(1, 4, 0.2), t(5, 4, 1.2), t(2, 4, 2.2)];
        let stacked = stack_rows(&blocks);
        assert_eq!(stacked.shape(), (8, 4));
        let expect: Vec<f32> = blocks.iter().flat_map(|b| b.data().to_vec()).collect();
        assert_eq!(stacked.data(), &expect[..]);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn stack_rows_rejects_mixed_widths() {
        let _ = stack_rows(&[t(2, 3, 0.0), t(2, 4, 0.0)]);
    }
}
