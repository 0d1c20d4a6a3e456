//! Dense row-major `f32` matrix.
//!
//! Everything in the predictor operates on small 2-D matrices (graphs have at
//! most a few dozen nodes and embeddings a few hundred columns), so a single
//! dense matrix type is sufficient — vectors are `1×c` or `r×1` matrices.

use rand::Rng;

use crate::kernels;

/// A dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Creates a `1×n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Tensor {
            rows: 1,
            cols,
            data,
        }
    }

    /// Creates a `1×1` scalar matrix.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![v],
        }
    }

    /// Xavier/Glorot-uniform initialized matrix: `U(-a, a)` with
    /// `a = sqrt(6 / (rows + cols))`.
    pub fn xavier_uniform<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.random_range(-a..a)).collect();
        Tensor { rows, cols, data }
    }

    /// Uniform random matrix in `[lo, hi)`.
    pub fn uniform<R: Rng>(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.random_range(lo..hi)).collect();
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `1×1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1×1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix");
        self.data[0]
    }

    /// Matrix product `self · other` via the cache-blocked
    /// [`kernels::matmul`] kernel.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        kernels::matmul(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Transposed-right product `self · otherᵀ` without materializing the
    /// transpose — bit-identical to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    /// Panics unless both operands have the same column count.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.rows);
        kernels::matmul_nt(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut out.data,
            &mut Vec::new(),
        );
        out
    }

    /// Transposed-left product `selfᵀ · other` without materializing the
    /// transpose — bit-identical to `self.transpose().matmul(&other)`.
    ///
    /// # Panics
    /// Panics unless both operands have the same row count.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        kernels::matmul_tn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place `self += alpha * other` via the unrolled [`kernels::axpy`].
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        kernels::axpy(alpha, &other.data, &mut self.data);
    }

    /// Consumes the matrix, returning its row-major backing buffer (used by
    /// the autograd tape's arena to recycle allocations across passes).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// In-place fill with zeros.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transposed_products_match_explicit_transpose_bitwise() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 0.0, 3.0, -4.0, 5.0, 6.5]);
        let b = Tensor::from_vec(
            4,
            3,
            vec![
                7.0, 8.0, 0.0, 10.0, 1.5, 12.0, -2.0, 0.25, 9.0, 3.0, 4.0, 5.0,
            ],
        );
        let nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        assert_eq!(nt, via_t);

        let c = Tensor::from_vec(2, 4, vec![1.0, -2.0, 0.0, 4.0, 5.0, 6.0, 7.0, -8.0]);
        let tn = a.matmul_tn(&c);
        let via_t = a.transpose().matmul(&c);
        assert_eq!(tn, via_t);
    }

    #[test]
    #[should_panic(expected = "matmul_nt shape mismatch")]
    fn matmul_nt_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 4);
        let _ = a.matmul_nt(&b);
    }

    #[test]
    fn into_vec_round_trip() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::xavier_uniform(10, 20, &mut rng);
        let a = (6.0f32 / 30.0).sqrt();
        assert!(t.data().iter().all(|&v| v >= -a && v < a));
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Tensor::full(2, 2, 2.0));
    }

    #[test]
    fn item_and_scalar() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(1, 2);
        assert!(!t.has_non_finite());
        t.set(0, 1, f32::NAN);
        assert!(t.has_non_finite());
    }
}
