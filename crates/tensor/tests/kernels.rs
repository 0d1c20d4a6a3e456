//! Property-based equivalence suite for the vectorized kernel layer.
//!
//! The contract under test: every kernel in `nasflat_tensor::kernels` is
//! **bit-identical** to the scalar reference loops it replaced, for shapes
//! up to 64 rows and inner dimension by 99 output columns (three register
//! tiles of 32 plus a remainder), including the `a == 0.0` sparse skip of the original
//! `Tensor::matmul` (observable through NaN/∞ operands and `-0.0` sums) and
//! run-to-run determinism.

use proptest::prelude::*;

use nasflat_tensor::{kernels, Tensor};

const MAX_DIM: usize = 64;
/// Output columns range past two full 32-column register tiles, so products
/// with two full tiles and a remainder tile are checked too.
const MAX_COLS: usize = 99;

/// The pre-kernel scalar triple loop, sparse skip included — the bit oracle.
fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows());
    let mut out = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Element strategy with a fat atom at exactly 0.0 so the sparse skip is
/// exercised on every shape.
fn element() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), -3.0f32..3.0]
}

/// Enough elements for any `MAX_DIM × MAX_COLS` operand; shapes slice a
/// prefix (the shim has no flat-map to size the vec from the dims).
fn pool() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(element(), MAX_DIM * MAX_COLS)
}

fn tensor_from(pool: &[f32], rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, pool[..rows * cols].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_is_bit_identical_to_the_scalar_reference(
        m in 1usize..65,
        k in 1usize..65,
        n in 1usize..MAX_COLS + 1,
        pa in pool(),
        pb in pool(),
    ) {
        let a = tensor_from(&pa, m, k);
        let b = tensor_from(&pb, k, n);
        let fast = a.matmul(&b);
        let slow = matmul_reference(&a, &b);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn matmul_is_deterministic_across_runs(
        m in 1usize..65,
        k in 1usize..65,
        n in 1usize..MAX_COLS + 1,
        pa in pool(),
        pb in pool(),
    ) {
        let a = tensor_from(&pa, m, k);
        let b = tensor_from(&pb, k, n);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&a.matmul(&b)));
    }

    #[test]
    fn matmul_nt_matches_materialized_transpose(
        m in 1usize..65,
        k in 1usize..65,
        n in 1usize..MAX_COLS + 1,
        pa in pool(),
        pb in pool(),
    ) {
        let a = tensor_from(&pa, m, k);
        let b = tensor_from(&pb, n, k);
        let fast = a.matmul_nt(&b);
        let slow = matmul_reference(&a, &b.transpose());
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn matmul_tn_matches_materialized_transpose(
        r in 1usize..65,
        m in 1usize..65,
        n in 1usize..MAX_COLS + 1,
        pa in pool(),
        pb in pool(),
    ) {
        let a = tensor_from(&pa, r, m);
        let b = tensor_from(&pb, r, n);
        let fast = a.matmul_tn(&b);
        let slow = matmul_reference(&a.transpose(), &b);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn axpy_and_elementwise_kernels_match_scalar_loops(
        len in 1usize..257,
        alpha in -2.0f32..2.0,
        px in pool(),
        py in pool(),
    ) {
        let x = &px[..len];
        let y = &py[..len];

        let mut fast = y.to_vec();
        kernels::axpy(alpha, x, &mut fast);
        let mut slow = y.to_vec();
        for (s, &xv) in slow.iter_mut().zip(x) {
            *s += alpha * xv;
        }
        prop_assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let mut out = vec![0.0f32; len];
        kernels::sigmoid(x, &mut out);
        let expect: Vec<f32> = x.iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect();
        prop_assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        kernels::leaky_relu(alpha, x, &mut out);
        let expect: Vec<f32> = x.iter().map(|&v| if v > 0.0 { v } else { alpha * v }).collect();
        prop_assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        kernels::mul(x, y, &mut out);
        let expect: Vec<f32> = x.iter().zip(y).map(|(&a, &b)| a * b).collect();
        prop_assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn all_zero_lhs_exercises_the_full_skip_path() {
    // Every contribution is skipped: the output must be exactly the zeros
    // tensor even when the rhs holds non-finite values.
    let a = Tensor::zeros(5, 7);
    let mut b = Tensor::full(7, 3, f32::INFINITY);
    b.set(0, 0, f32::NAN);
    let out = a.matmul(&b);
    assert_eq!(bits(&out), bits(&Tensor::zeros(5, 3)));
    let nt = a.matmul_nt(&Tensor::full(4, 7, f32::NAN));
    assert_eq!(bits(&nt), bits(&Tensor::zeros(5, 4)));
}
