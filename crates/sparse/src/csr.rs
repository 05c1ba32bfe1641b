//! Compressed-sparse-row matrices and matrix–vector products.
//!
//! The CSR SpMV is the single stiffness-matrix-related kernel of the whole
//! solver stack (paper Section 3.1.2): polynomial preconditioning, Arnoldi
//! steps and residual evaluations all reduce to it.

use crate::coo::CooMatrix;
use crate::error::SparseError;

/// A sparse matrix in compressed-sparse-row format.
///
/// Invariants (enforced by [`CsrMatrix::from_raw_parts`]):
/// - `row_ptr.len() == n_rows + 1`, `row_ptr[0] == 0`, non-decreasing,
///   `row_ptr[n_rows] == col_idx.len() == values.len()`;
/// - within each row, column indices are strictly increasing and `< n_cols`.
///
/// ```
/// use parfem_sparse::CsrMatrix;
///
/// // [ 2 -1 ]
/// // [-1  2 ]
/// let a = CsrMatrix::from_dense(2, 2, &[2.0, -1.0, -1.0, 2.0]);
/// assert_eq!(a.nnz(), 4);
/// assert_eq!(a.spmv(&[1.0, 1.0]), vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from its raw arrays, validating all invariants.
    ///
    /// # Errors
    /// Returns [`SparseError::ShapeMismatch`] or
    /// [`SparseError::IndexOutOfBounds`] when an invariant is violated.
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != n_rows + 1 {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "row_ptr has {} entries, expected {}",
                    row_ptr.len(),
                    n_rows + 1
                ),
            });
        }
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != col_idx.len() {
            return Err(SparseError::ShapeMismatch {
                context: "row_ptr must start at 0 and end at nnz".into(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "col_idx has {} entries but values has {}",
                    col_idx.len(),
                    values.len()
                ),
            });
        }
        for r in 0..n_rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::ShapeMismatch {
                    context: format!("row_ptr decreases at row {r}"),
                });
            }
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::ShapeMismatch {
                        context: format!("columns not strictly increasing in row {r}"),
                    });
                }
            }
            if let Some(&c) = row.last() {
                if c >= n_cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        n_rows,
                        n_cols,
                    });
                }
            }
        }
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Debug-build check that every row's column indices are strictly
    /// increasing — the invariant [`CsrMatrix::get`]'s binary search and the
    /// SpMV kernels rely on. [`CsrMatrix::from_raw_parts`] validates this
    /// unconditionally; the internal literal constructors (`identity`,
    /// `from_diagonal`, `transpose`) assert it here in debug builds.
    #[inline]
    fn debug_assert_rows_sorted(self) -> Self {
        #[cfg(debug_assertions)]
        for r in 0..self.n_rows {
            let (cols, _) = self.row(r);
            debug_assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "CSR row {r} columns not strictly increasing"
            );
        }
        self
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
        .debug_assert_rows_sorted()
    }

    /// A square matrix with `diag` on the diagonal and zeros elsewhere.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: diag.to_vec(),
        }
        .debug_assert_rows_sorted()
    }

    /// Builds from a dense row-major array, dropping exact zeros.
    pub fn from_dense(n_rows: usize, n_cols: usize, dense: &[f64]) -> Self {
        assert_eq!(dense.len(), n_rows * n_cols, "from_dense: length mismatch");
        let mut coo = CooMatrix::new(n_rows, n_cols);
        for r in 0..n_rows {
            for c in 0..n_cols {
                let v = dense[r * n_cols + c];
                if v != 0.0 {
                    coo.push(r, c, v).expect("in-bounds by construction");
                }
            }
        }
        coo.to_csr()
    }

    /// Converts to a dense row-major array (test/diagnostic helper).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n_rows * self.n_cols];
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                d[r * self.n_cols + c] = v;
            }
        }
        d
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Raw CSR arrays `(row_ptr, col_idx, values)`.
    pub fn raw_parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// The CSR arrays `(row_ptr, col_idx, values)`, moved out — for a caller
    /// that rewrites a matrix in place, reusing its storage.
    pub fn into_raw_parts(self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.row_ptr, self.col_idx, self.values)
    }

    /// Mutable access to the full values array (structure is immutable, so
    /// all CSR invariants are preserved).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The entry at `(r, c)`, zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// The main diagonal as a dense vector (zeros where unstored).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Every diagonal entry `a_rr + α·m_r`.
    pub(crate) fn add_diagonal(&mut self, alpha: f64, m: &[f64]) {
        for (r, &mr) in m.iter().enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let k = lo
                + self.col_idx[lo..hi]
                    .binary_search(&r)
                    .expect("a stored diagonal");
            self.values[k] += alpha * mr;
        }
    }

    /// Sparse matrix–vector product `y = A x` into a caller buffer.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "spmv: y length mismatch");
        crate::kernels::spmv_raw(&self.row_ptr, &self.col_idx, &self.values, x, y);
    }

    /// Allocating variant of [`CsrMatrix::spmv_into`].
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Floating-point operations of one SpMV with this matrix.
    #[inline]
    pub fn spmv_flops(&self) -> u64 {
        2 * self.nnz() as u64
    }

    /// The transpose `Aᵀ` as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let nnz = self.nnz();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = counts.clone();
        for r in 0..self.n_rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let slot = next[c];
                col_idx[slot] = r;
                values[slot] = self.values[k];
                next[c] += 1;
            }
        }
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr: counts,
            col_idx,
            values,
        }
        .debug_assert_rows_sorted()
    }

    /// Whether the matrix is numerically symmetric to tolerance `tol`
    /// (relative to the largest absolute entry).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        let scale = self
            .values
            .iter()
            .fold(0.0_f64, |m, v| m.max(v.abs()))
            .max(1.0);
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Structural asymmetry: compare entry-wise through `get`.
            for r in 0..self.n_rows {
                let (cols, vals) = self.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    if (v - self.get(c, r)).abs() > tol * scale {
                        return false;
                    }
                }
            }
            return true;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol * scale)
    }

    /// Symmetric diagonal scaling `A <- D A D` with `D = diag(d)`, in place.
    ///
    /// # Panics
    /// Panics if `d.len()` differs from the (square) matrix dimension.
    pub fn scale_symmetric(&mut self, d: &[f64]) {
        assert_eq!(self.n_rows, self.n_cols, "scale_symmetric: square only");
        assert_eq!(d.len(), self.n_rows, "scale_symmetric: d length mismatch");
        for r in 0..self.n_rows {
            let dr = d[r];
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                self.values[k] *= dr * d[self.col_idx[k]];
            }
        }
    }

    /// Row-wise absolute sums `‖k_i‖₁` (the discrete L1 norms of Theorem 1).
    pub fn row_abs_sums(&self) -> Vec<f64> {
        (0..self.n_rows)
            .map(|r| {
                let (_, vals) = self.row(r);
                vals.iter().map(|v| v.abs()).sum()
            })
            .collect()
    }

    /// `C = A + alpha * B` for structurally arbitrary CSR operands.
    ///
    /// # Errors
    /// Returns [`SparseError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled(&self, alpha: f64, other: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
        if self.n_rows != other.n_rows || self.n_cols != other.n_cols {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "add_scaled: {}x{} vs {}x{}",
                    self.n_rows, self.n_cols, other.n_rows, other.n_cols
                ),
            });
        }
        let mut coo = CooMatrix::with_capacity(self.n_rows, self.n_cols, self.nnz() + other.nnz());
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r, c, v).expect("in-bounds by invariant");
            }
            let (cols, vals) = other.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r, c, alpha * v).expect("in-bounds by invariant");
            }
        }
        Ok(coo.to_csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        CsrMatrix::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0])
    }

    #[test]
    fn identity_spmv_is_identity() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.spmv(&x), x.to_vec());
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let y = a.spmv(&x);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn get_returns_zero_for_unstored() {
        let a = sample();
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(0, 1), -1.0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn transpose_of_symmetric_is_equal() {
        let a = sample();
        assert_eq!(a.transpose(), a);
    }

    #[test]
    fn transpose_rectangular() {
        // [1 2 0]
        // [0 0 3]
        let a = CsrMatrix::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.0, 0.0, 3.0]);
        let t = a.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(2, 1), 3.0);
        // Transposing twice is the identity operation.
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn is_symmetric_detects_asymmetry() {
        let a = sample();
        assert!(a.is_symmetric(1e-14));
        let b = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 1.0]);
        assert!(!b.is_symmetric(1e-14));
        let rect = CsrMatrix::from_dense(1, 2, &[1.0, 0.0]);
        assert!(!rect.is_symmetric(1e-14));
    }

    #[test]
    fn symmetric_scaling_matches_dense() {
        let mut a = sample();
        let d = [1.0, 0.5, 2.0];
        a.scale_symmetric(&d);
        // (DAD)_{ij} = d_i a_{ij} d_j
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), -0.5);
        assert_eq!(a.get(1, 0), -0.5);
        assert_eq!(a.get(1, 1), 0.5);
        assert_eq!(a.get(2, 2), 8.0);
    }

    #[test]
    fn row_abs_sums_match_theorem_1_norm() {
        let a = sample();
        assert_eq!(a.row_abs_sums(), vec![3.0, 4.0, 3.0]);
    }

    #[test]
    fn add_scaled_combines_structures() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let b = CsrMatrix::from_dense(2, 2, &[0.0, 2.0, 2.0, 0.0]);
        let c = a.add_scaled(0.5, &b).unwrap();
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(1, 0), 1.0);
        assert_eq!(c.get(1, 1), 1.0);
    }

    #[test]
    fn add_scaled_rejects_shape_mismatch() {
        let a = CsrMatrix::identity(2);
        let b = CsrMatrix::identity(3);
        assert!(a.add_scaled(1.0, &b).is_err());
    }

    #[test]
    fn effective_stiffness_combination() {
        // The elastodynamics effective matrix alpha*M + beta*K (paper Eq. 52)
        // built via add_scaled.
        let k = sample();
        let m = CsrMatrix::from_diagonal(&[2.0, 2.0, 2.0]);
        let keff = m.add_scaled(0.25, &k).unwrap();
        assert_eq!(keff.get(0, 0), 2.5);
        assert_eq!(keff.get(0, 1), -0.25);
    }

    #[test]
    fn from_raw_parts_validates() {
        // row_ptr wrong length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // columns out of bounds
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![1], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]).is_err());
        // duplicate columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // valid
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn to_dense_round_trips() {
        let dense = [2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0];
        let a = CsrMatrix::from_dense(3, 3, &dense);
        assert_eq!(a.to_dense(), dense.to_vec());
    }

    #[test]
    fn spmv_flops_counts_two_per_nnz() {
        let a = sample();
        assert_eq!(a.spmv_flops(), 2 * a.nnz() as u64);
    }

    #[test]
    #[should_panic(expected = "x length mismatch")]
    fn spmv_rejects_bad_x() {
        sample().spmv(&[1.0, 2.0]);
    }
}
