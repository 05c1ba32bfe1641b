//! Norm-1 diagonal scaling (paper Section 2.1.1, Theorem 1).
//!
//! Given `K u = f` with `K` symmetric and irreducible, the scaling matrix
//! `D = diag(1/√d_i)` with `d_i = ‖k_i‖₁` transforms the system into
//! `A x = b`, `A = D K D`, `b = D f`, `u = D x`, and guarantees
//! `σ(A) ⊂ (0, 1)` for symmetric positive definite `K`. This is the
//! pre-processing step that lets the polynomial preconditioners be built on
//! the fixed interval `Θ = (0, 1)` without computing eigenvalues.
//!
//! Note on the bound: the Gershgorin discs of the *scaled* matrix can stick
//! out past 1 (row sums of `DKD` are not bounded by 1 in general); the bound
//! `λ_max(DKD) ≤ 1` instead follows from the quadratic form: for `y = Dx`,
//! `yᵀKy ≤ Σᵢⱼ|kᵢⱼ|·(yᵢ²+yⱼ²)/2 = Σᵢ dᵢyᵢ² = xᵀx` using the symmetry of
//! `K`, so the Rayleigh quotient of `DKD` never exceeds 1.

use crate::csr::CsrMatrix;
use crate::dense;
use crate::error::SparseError;

/// The norm-1 scaling map of Theorem 1: `d_i = 1/√s_i` for positive row
/// absolute sums, and 1 for empty rows so the transform stays well defined
/// (such systems are singular anyway and the solver reports them).
///
/// This is the **single** implementation of the map — the sequential
/// [`DiagonalScaling`] and the distributed Algorithm 3 in `parfem-dd` both
/// build their diagonals through it, so the two paths cannot drift.
pub fn inv_sqrt_scaling(row_sums: &[f64]) -> Vec<f64> {
    row_sums
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 1.0 })
        .collect()
}

/// The norm-1 diagonal scaling `D = diag(1/√‖k_i‖₁)` of a square matrix.
#[derive(Debug, Clone)]
pub struct DiagonalScaling {
    /// The diagonal entries of `D` (i.e. `1/√d_i`).
    d: Vec<f64>,
    /// The raw row sums `d_i = ‖k_i‖₁` (kept for diagnostics).
    row_sums: Vec<f64>,
}

impl DiagonalScaling {
    /// Computes the scaling for `k`.
    ///
    /// Rows with zero absolute sum (empty rows) get a scaling factor of 1 so
    /// the transform stays well defined; such systems are singular anyway and
    /// will be reported by the solver.
    ///
    /// # Errors
    /// Returns [`SparseError::NotSquare`] for rectangular input.
    pub fn from_matrix(k: &CsrMatrix) -> Result<Self, SparseError> {
        if k.n_rows() != k.n_cols() {
            return Err(SparseError::NotSquare {
                n_rows: k.n_rows(),
                n_cols: k.n_cols(),
            });
        }
        let row_sums = k.row_abs_sums();
        let d = inv_sqrt_scaling(&row_sums);
        Ok(DiagonalScaling { d, row_sums })
    }

    /// Builds the scaling directly from precomputed row absolute sums
    /// (used by the distributed Algorithm 3, where the sums are accumulated
    /// across subdomains before the square root).
    pub fn from_row_sums(row_sums: Vec<f64>) -> Self {
        let d = inv_sqrt_scaling(&row_sums);
        DiagonalScaling { d, row_sums }
    }

    /// The diagonal of `D`.
    pub fn diagonal(&self) -> &[f64] {
        &self.d
    }

    /// The row sums `d_i = ‖k_i‖₁`.
    pub fn row_sums(&self) -> &[f64] {
        &self.row_sums
    }

    /// Problem size.
    pub fn len(&self) -> usize {
        self.d.len()
    }

    /// Whether the scaling is empty (zero-dimensional system).
    pub fn is_empty(&self) -> bool {
        self.d.is_empty()
    }

    /// Returns the scaled matrix `A = D K D` (leaves `k` untouched).
    pub fn scale_matrix(&self, k: &CsrMatrix) -> CsrMatrix {
        let mut a = k.clone();
        a.scale_symmetric(&self.d);
        a
    }

    /// Scales the right-hand side: `b = D f`.
    pub fn scale_rhs(&self, f: &[f64]) -> Vec<f64> {
        let mut b = f.to_vec();
        dense::diag_mul(&self.d, &mut b);
        b
    }

    /// Recovers the original unknowns: `u = D x`.
    pub fn unscale_solution(&self, x: &[f64]) -> Vec<f64> {
        let mut u = x.to_vec();
        dense::diag_mul(&self.d, &mut u);
        u
    }

    /// In-place variants of [`DiagonalScaling::scale_rhs`] /
    /// [`DiagonalScaling::unscale_solution`] (they are the same map `v ↦ Dv`).
    pub fn apply_in_place(&self, v: &mut [f64]) {
        dense::diag_mul(&self.d, v);
    }
}

/// Convenience: scales the full system, returning `(A, b)` for `A x = b`.
///
/// ```
/// use parfem_sparse::{scaling::scale_system, CsrMatrix};
///
/// let k = CsrMatrix::from_dense(2, 2, &[4.0, -1.0, -1.0, 4.0]);
/// let (a, b, sc) = scale_system(&k, &[3.0, 3.0]).unwrap();
/// // The scaled operator's spectrum sits inside (0, 1) — here the row sums
/// // were 5, so the diagonal becomes 4/5.
/// assert!((a.get(0, 0) - 0.8).abs() < 1e-12);
/// // Solutions of A x = b map back with u = D x.
/// let u = sc.unscale_solution(&[1.0, 1.0]);
/// assert!((u[0] - 1.0 / 5.0_f64.sqrt()).abs() < 1e-12);
/// let _ = b;
/// ```
///
/// # Errors
/// Returns [`SparseError::NotSquare`] for a rectangular matrix and
/// [`SparseError::ShapeMismatch`] when `f` has the wrong length.
pub fn scale_system(
    k: &CsrMatrix,
    f: &[f64],
) -> Result<(CsrMatrix, Vec<f64>, DiagonalScaling), SparseError> {
    if f.len() != k.n_rows() {
        return Err(SparseError::ShapeMismatch {
            context: format!("rhs has length {}, matrix has {} rows", f.len(), k.n_rows()),
        });
    }
    let scaling = DiagonalScaling::from_matrix(k)?;
    let a = scaling.scale_matrix(k);
    let b = scaling.scale_rhs(f);
    Ok((a, b, scaling))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::sym_eigen_jacobi;

    fn laplacian(n: usize) -> CsrMatrix {
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    /// The largest eigenvalue of a small symmetric matrix, exactly (dense
    /// Jacobi).
    fn lambda_max(a: &CsrMatrix) -> f64 {
        let (vals, _) = sym_eigen_jacobi(a.n_rows(), &a.to_dense());
        vals[a.n_rows() - 1]
    }

    #[test]
    fn scaled_spectrum_is_inside_unit_interval() {
        // lambda_max(DKD) <= 1 (paper Eq. 12). The Gershgorin discs of DKD
        // itself may overshoot 1, so the test checks the eigenvalue, not
        // the row sums.
        let k = laplacian(25);
        let s = DiagonalScaling::from_matrix(&k).unwrap();
        let lmax = lambda_max(&s.scale_matrix(&k));
        assert!(lmax <= 1.0 + 1e-10, "lambda_max {lmax}");
        assert!(lmax > 0.9, "scaling should not crush the spectrum: {lmax}");
    }

    #[test]
    fn unscaled_gershgorin_bound_is_row_sum_bound() {
        // Theorem 1 applies to the *original* matrix: lambda_max(K) <= max_i ||k_i||_1.
        let k = laplacian(25);
        let bound = k.row_abs_sums().into_iter().fold(0.0_f64, f64::max);
        assert!(lambda_max(&k) <= bound + 1e-10);
    }

    #[test]
    fn scaling_preserves_solution() {
        // Solve DKD x = Df directly on a 1x1 and 2x2 case and check u = Dx
        // recovers K u = f.
        let k = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, 3.0]);
        let f = [1.0, 2.0];
        let (a, b, s) = scale_system(&k, &f).unwrap();
        // Dense solve of the 2x2 scaled system.
        let d = a.to_dense();
        let det = d[0] * d[3] - d[1] * d[2];
        let x = [
            (b[0] * d[3] - b[1] * d[1]) / det,
            (d[0] * b[1] - d[2] * b[0]) / det,
        ];
        let u = s.unscale_solution(&x);
        // Check K u = f.
        let r = k.spmv(&u);
        assert!((r[0] - f[0]).abs() < 1e-12);
        assert!((r[1] - f[1]).abs() < 1e-12);
    }

    #[test]
    fn symmetric_input_stays_symmetric() {
        let k = laplacian(8);
        let s = DiagonalScaling::from_matrix(&k).unwrap();
        let a = s.scale_matrix(&k);
        assert!(a.is_symmetric(1e-14));
    }

    #[test]
    fn zero_row_gets_unit_scale() {
        let k = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 0.0]);
        let s = DiagonalScaling::from_matrix(&k).unwrap();
        assert_eq!(s.diagonal()[1], 1.0);
        assert_eq!(s.row_sums()[1], 0.0);
    }

    #[test]
    fn from_row_sums_matches_from_matrix() {
        let k = laplacian(5);
        let a = DiagonalScaling::from_matrix(&k).unwrap();
        let b = DiagonalScaling::from_row_sums(k.row_abs_sums());
        assert_eq!(a.diagonal(), b.diagonal());
    }

    #[test]
    fn rejects_rectangular() {
        let k = CsrMatrix::from_dense(1, 2, &[1.0, 2.0]);
        assert!(DiagonalScaling::from_matrix(&k).is_err());
    }

    #[test]
    fn rejects_bad_rhs_length() {
        let k = laplacian(3);
        assert!(scale_system(&k, &[1.0]).is_err());
    }

    #[test]
    fn apply_in_place_matches_scale_rhs() {
        let k = laplacian(4);
        let s = DiagonalScaling::from_matrix(&k).unwrap();
        let f = [1.0, -2.0, 3.0, -4.0];
        let b = s.scale_rhs(&f);
        let mut f2 = f;
        s.apply_in_place(&mut f2);
        assert_eq!(b, f2.to_vec());
    }
}
