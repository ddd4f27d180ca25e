//! Dense row-major `f32` matrices.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::kernels;

/// A dense row-major matrix of `f32` values.
///
/// Vectors are `1 × n` or `n × 1` tensors. This is deliberately a plain
/// struct with plain kernels: every shape is known at runtime and checked
/// with assertions.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix filled with one value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing buffer; panics if the length doesn't match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Tensor { rows, cols, data }
    }

    /// Builds a matrix element-wise.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data, row-major.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the tensor, returning its backing buffer (capacity
    /// preserved — this is how the arena recycles tensor storage).
    #[inline]
    pub fn into_raw(self) -> Vec<f32> {
        self.data
    }

    /// Mutable raw data, row-major.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies `src` into row `i`.
    pub fn set_row(&mut self, i: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(i).copy_from_slice(src);
    }

    /// Reshapes the tensor in place to `rows × cols`, zero-filling the
    /// contents. The backing buffer's capacity is kept, so a tensor that
    /// cycles through bounded shapes stops allocating once it has seen
    /// its largest one — the reuse primitive of the inference engine's
    /// persistent scratch.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Grows (zero-filling) or truncates the tensor to `rows` rows,
    /// keeping the leading rows. Growth is amortized by the backing
    /// `Vec`, so a table grown one row at a time reallocates rarely.
    pub fn resize_rows(&mut self, rows: usize) {
        self.rows = rows;
        self.data.resize(rows * self.cols, 0.0);
    }

    /// Matrix product `self · rhs`.
    ///
    /// Runs the runtime-dispatched cache-blocked kernel from
    /// [`crate::kernels`] (scalar reference or AVX2, chosen once at
    /// startup). Each output element is accumulated by a single chain
    /// of adds in ascending-`k` order on every backend, so results are
    /// bit-identical to the textbook ikj kernel — the exact-equality
    /// transpose tests and the training determinism contract both rely
    /// on that.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-provided output tensor
    /// (arena-allocated on the tape path). `out` must be `m × n`; its
    /// contents are overwritten.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch {:?}x{:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul output shape mismatch");
        out.fill_zero();
        kernels::matmul(&self.data, &rhs.data, &mut out.data, self.rows, self.cols, rhs.cols);
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    ///
    /// Streams both inputs row-contiguously (one pass over `self` and
    /// `rhs` each) while the small `m × n` output stays resident; four
    /// output rows are updated per `b` row read. Ascending-`k`
    /// single-accumulator order is preserved, keeping results bit-equal
    /// to `self.transpose().matmul(rhs)`.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] writing into a caller-provided `m × n`
    /// output tensor; its contents are overwritten.
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn shape mismatch");
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        assert_eq!(out.shape(), (m, n), "matmul_tn output shape mismatch");
        out.fill_zero();
        kernels::matmul_tn(&self.data, &rhs.data, &mut out.data, k, m, n);
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    ///
    /// Packs `rhsᵀ` into a thread-local reusable buffer, then runs the
    /// same cache-blocked ikj kernel as [`Tensor::matmul`]. The pack is
    /// `O(k·n)` against the kernel's `O(m·k·n)` and the buffer's capacity
    /// persists across calls, so steady-state calls allocate nothing.
    /// Every output element is still one ascending-`k` accumulation
    /// chain, so results stay bit-equal to
    /// `self.matmul(&rhs.transpose())` (and to the previous dot-product
    /// kernel this replaces).
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] writing into a caller-provided `m × n`
    /// output tensor; its contents are overwritten.
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        assert_eq!(out.shape(), (m, n), "matmul_nt output shape mismatch");
        out.fill_zero();
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        NT_PACK.with(|p| {
            let mut pack = p.borrow_mut();
            if pack.len() < k * n {
                pack.resize(k * n, 0.0);
            }
            let packed = &mut pack[..k * n];
            for (j, b_row) in rhs.data.chunks_exact(k).enumerate() {
                for (kk, &v) in b_row.iter().enumerate() {
                    packed[kk * n + j] = v;
                }
            }
            kernels::matmul(&self.data, packed, &mut out.data, m, k, n);
        });
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// `self += alpha * other` (same shape), through the dispatched
    /// [`kernels::axpy`].
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        kernels::axpy(&mut self.data, alpha, &other.data);
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius-norm squared.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Euclidean distance between two rows of (possibly different) tensors.
    pub fn row_distance(a: &Tensor, i: usize, b: &Tensor, j: usize) -> f32 {
        assert_eq!(a.cols, b.cols);
        a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| (x - y) * (x - y)).sum::<f32>().sqrt()
    }

    /// Dot product between two rows.
    pub fn row_dot(a: &Tensor, i: usize, b: &Tensor, j: usize) -> f32 {
        assert_eq!(a.cols, b.cols);
        a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| x * y).sum()
    }
}

thread_local! {
    /// Reusable `rhsᵀ` packing buffer for [`Tensor::matmul_nt`].
    static NT_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn resize_rows_keeps_leading_rows() {
        let mut a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.resize_rows(3);
        assert_eq!((a.shape(), a.data()), ((3, 2), &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0][..]));
        a.resize_rows(1);
        assert_eq!((a.shape(), a.data()), ((1, 2), &[1.0, 2.0][..]));
    }

    #[test]
    fn matmul_small() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[1.0, 0.5, -1.0, 2.0, 0.0, 3.0]);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(4, 3, &[1.0; 12]);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn blocked_kernels_match_naive_reference() {
        // Shapes exercise both the 4-wide register tiles and the
        // remainder paths (dimensions not multiples of the tile).
        let a = Tensor::from_fn(7, 9, |i, j| ((i * 31 + j * 17) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(9, 6, |i, j| ((i * 7 + j * 3) % 11) as f32 - 5.0);
        let naive = Tensor::from_fn(7, 6, |i, j| (0..9).map(|kk| a[(i, kk)] * b[(kk, j)]).sum());
        assert_eq!(a.matmul(&b), naive);
        assert_eq!(a.transpose().matmul_tn(&b), naive);
        assert_eq!(a.matmul_nt(&b.transpose()), naive);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn indexing_and_rows() {
        let mut a = Tensor::zeros(2, 2);
        a[(0, 1)] = 5.0;
        a.set_row(1, &[7.0, 8.0]);
        assert_eq!(a[(0, 1)], 5.0);
        assert_eq!(a.row(1), &[7.0, 8.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = t(1, 3, &[1.0, 2.0, 3.0]);
        let b = t(1, 3, &[1.0, 1.0, 1.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 4.0, 5.0]);
        a.scale_in_place(0.5);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn row_helpers() {
        let a = t(2, 2, &[3.0, 4.0, 0.0, 0.0]);
        assert_eq!(Tensor::row_distance(&a, 0, &a, 1), 5.0);
        assert_eq!(Tensor::row_dot(&a, 0, &a, 0), 25.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn from_fn_layout() {
        let a = Tensor::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(a.row(1), &[10.0, 11.0, 12.0]);
    }
}
