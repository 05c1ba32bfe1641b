//! ILU(0): incomplete LU factorization with zero fill-in.
//!
//! The paper uses ILU(0) as the sequential comparator preconditioner
//! (Figures 11–12) and points out two drawbacks for element-based domain
//! decomposition: it is expensive relative to polynomial preconditioning and
//! the local factorization fails on "floating" subdomains whose local
//! stiffness matrix is singular (Section 3.2.3, Eq. 45). That failure mode
//! surfaces here as [`SparseError::ZeroPivot`].

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::rows::SparseRows;

/// An ILU(0) factorization `A ≈ L U` stored on the sparsity pattern of `A`.
///
/// `L` is unit lower triangular (unit diagonal not stored), `U` is upper
/// triangular including the diagonal; both live in one CSR structure that
/// shares the pattern of the input matrix.
#[derive(Debug, Clone)]
pub struct Ilu0 {
    lu: CsrMatrix,
    /// Position of the diagonal entry in each row of `lu`.
    diag_pos: Vec<usize>,
}

impl Ilu0 {
    /// Factorizes `a` in ILU(0) fashion (IKJ variant restricted to the
    /// pattern of `a`, read through its scalar rows: node blocks factor on
    /// their scalar pattern, fill left out).
    ///
    /// # Errors
    /// - [`SparseError::NotSquare`] for a rectangular matrix;
    /// - [`SparseError::ZeroPivot`] when a diagonal entry is structurally
    ///   missing or numerically negligible — for subdomain stiffness matrices
    ///   this is the paper's floating-subdomain singularity.
    pub fn factorize<A: SparseRows + ?Sized>(a: &A) -> Result<Self, SparseError> {
        let n = a.n_rows();
        if n != a.n_cols() {
            return Err(SparseError::NotSquare {
                n_rows: a.n_rows(),
                n_cols: a.n_cols(),
            });
        }
        let mut lu = CsrMatrix::from_rows(a);
        // Locate diagonal positions first; a missing diagonal is a structural
        // zero pivot.
        let mut diag_pos = Vec::with_capacity(n);
        {
            let (row_ptr, col_idx, _) = lu.raw_parts();
            for i in 0..n {
                let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
                match row.binary_search(&i) {
                    Ok(k) => diag_pos.push(row_ptr[i] + k),
                    Err(_) => {
                        return Err(SparseError::ZeroPivot { row: i, value: 0.0 });
                    }
                }
            }
        }

        // Scale for the negligible-pivot test.
        let max_abs = {
            let (_, _, values) = lu.raw_parts();
            values.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1.0)
        };
        let pivot_tol = 1e-14 * max_abs;

        // We need mutable access to the full values array with the immutable
        // structure; copy the structure arrays out once.
        let row_ptr: Vec<usize> = lu.raw_parts().0.to_vec();
        let col_idx: Vec<usize> = lu.raw_parts().1.to_vec();

        for i in 1..n {
            let row_start = row_ptr[i];
            let row_end = row_ptr[i + 1];
            // For each k < i present in row i (in increasing column order):
            let mut kk = row_start;
            while kk < row_end && col_idx[kk] < i {
                let k = col_idx[kk];
                let pivot = {
                    let (_, _, values) = lu.raw_parts();
                    values[diag_pos[k]]
                };
                if pivot.abs() <= pivot_tol {
                    return Err(SparseError::ZeroPivot {
                        row: k,
                        value: pivot,
                    });
                }
                let lik = {
                    let (_, _, values) = lu.raw_parts();
                    values[kk] / pivot
                };
                // Subtract lik * (row k, columns > k) from row i, restricted
                // to the pattern of row i (zero fill).
                let krow_start = diag_pos[k] + 1; // entries of row k right of diagonal
                let krow_end = row_ptr[k + 1];
                {
                    let values = lu.values_mut();
                    values[kk] = lik;
                    let mut p = kk + 1;
                    for q in krow_start..krow_end {
                        let cj = col_idx[q];
                        // advance p in row i until col >= cj
                        while p < row_end && col_idx[p] < cj {
                            p += 1;
                        }
                        if p >= row_end {
                            break;
                        }
                        if col_idx[p] == cj {
                            values[p] -= lik * values[q];
                        }
                    }
                }
                kk += 1;
            }
            // Check this row's pivot after elimination.
            let pivot = {
                let (_, _, values) = lu.raw_parts();
                values[diag_pos[i]]
            };
            if pivot.abs() <= pivot_tol {
                return Err(SparseError::ZeroPivot {
                    row: i,
                    value: pivot,
                });
            }
        }
        // Row 0 pivot check.
        if n > 0 {
            let (_, _, values) = lu.raw_parts();
            let p0 = values[diag_pos[0]];
            if p0.abs() <= pivot_tol {
                return Err(SparseError::ZeroPivot { row: 0, value: p0 });
            }
        }
        Ok(Ilu0 { lu, diag_pos })
    }

    /// Solves `L U z = v` (forward then backward substitution) into `z`.
    ///
    /// # Panics
    /// Panics if the vector lengths differ from the matrix dimension.
    pub fn solve_into(&self, v: &[f64], z: &mut [f64]) {
        let n = self.lu.n_rows();
        assert_eq!(v.len(), n, "ilu solve: v length mismatch");
        assert_eq!(z.len(), n, "ilu solve: z length mismatch");
        let (row_ptr, col_idx, values) = self.lu.raw_parts();
        // Forward: L y = v, unit diagonal.
        for i in 0..n {
            let mut acc = v[i];
            for k in row_ptr[i]..self.diag_pos[i] {
                acc -= values[k] * z[col_idx[k]];
            }
            z[i] = acc;
        }
        // Backward: U z = y.
        for i in (0..n).rev() {
            let mut acc = z[i];
            for k in (self.diag_pos[i] + 1)..row_ptr[i + 1] {
                acc -= values[k] * z[col_idx[k]];
            }
            z[i] = acc / values[self.diag_pos[i]];
        }
    }

    /// Allocating variant of [`Ilu0::solve_into`].
    pub fn solve(&self, v: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; v.len()];
        self.solve_into(v, &mut z);
        z
    }

    /// The combined LU factor matrix (for inspection/tests).
    pub fn factors(&self) -> &CsrMatrix {
        &self.lu
    }

    /// Floating-point operations of one `solve` (≈ 2 per stored entry).
    pub fn solve_flops(&self) -> u64 {
        2 * self.lu.nnz() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn ilu0_is_exact_for_tridiagonal() {
        // A tridiagonal matrix has no fill-in, so ILU(0) equals full LU and
        // the solve is a direct solve.
        let a = laplacian(8);
        let ilu = Ilu0::factorize(&a).unwrap();
        let x_exact: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let b = a.spmv(&x_exact);
        let x = ilu.solve(&b);
        for (xi, ei) in x.iter().zip(&x_exact) {
            assert!((xi - ei).abs() < 1e-12, "{xi} vs {ei}");
        }
    }

    #[test]
    fn ilu0_is_exact_for_diagonal() {
        let a = CsrMatrix::from_diagonal(&[2.0, 4.0, 8.0]);
        let ilu = Ilu0::factorize(&a).unwrap();
        let z = ilu.solve(&[2.0, 4.0, 8.0]);
        assert_eq!(z, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn ilu0_residual_is_on_fill_positions_only() {
        // For a 2-D-like pattern with fill, L*U - A must vanish on the
        // pattern of A (defining property of ILU(0)).
        #[rustfmt::skip]
        let a = CsrMatrix::from_dense(4, 4, &[
            4.0, -1.0, -1.0,  0.0,
           -1.0,  4.0,  0.0, -1.0,
           -1.0,  0.0,  4.0, -1.0,
            0.0, -1.0, -1.0,  4.0,
        ]);
        let ilu = Ilu0::factorize(&a).unwrap();
        // Reconstruct L*U densely.
        let lu = ilu.factors();
        let n = 4;
        let mut l = vec![0.0; n * n];
        let mut u = vec![0.0; n * n];
        for i in 0..n {
            l[i * n + i] = 1.0;
            let (cols, vals) = lu.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if c < i {
                    l[i * n + c] = v;
                } else {
                    u[i * n + c] = v;
                }
            }
        }
        let mut prod = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    prod[i * n + j] += l[i * n + k] * u[k * n + j];
                }
            }
        }
        let ad = a.to_dense();
        for i in 0..n {
            for j in 0..n {
                if a.get(i, j) != 0.0 {
                    assert!(
                        (prod[i * n + j] - ad[i * n + j]).abs() < 1e-12,
                        "mismatch on pattern at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn singular_matrix_reports_zero_pivot() {
        // The floating-subdomain case: a stiffness matrix with a rigid-body
        // null space, e.g. the unconstrained truss [1 -1; -1 1].
        let a = CsrMatrix::from_dense(2, 2, &[1.0, -1.0, -1.0, 1.0]);
        match Ilu0::factorize(&a) {
            Err(SparseError::ZeroPivot { row, .. }) => assert_eq!(row, 1),
            other => panic!("expected zero pivot, got {other:?}"),
        }
    }

    #[test]
    fn structurally_missing_diagonal_is_rejected() {
        let a = CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert!(matches!(
            Ilu0::factorize(&a),
            Err(SparseError::ZeroPivot { .. })
        ));
    }

    #[test]
    fn rectangular_is_rejected() {
        let a = CsrMatrix::from_dense(2, 3, &[1.0; 6]);
        assert!(matches!(
            Ilu0::factorize(&a),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn preconditioner_reduces_residual_vs_identity() {
        // One application of ILU(0)^{-1} should bring z much closer to
        // A^{-1} v than v itself for a diagonally dominant matrix.
        let a = laplacian(30);
        let ilu = Ilu0::factorize(&a).unwrap();
        let v = vec![1.0; 30];
        let z = ilu.solve(&v);
        // Residual ||A z - v|| must be small relative to ||A v - v||.
        let az = a.spmv(&z);
        let res_precond: f64 = az.iter().zip(&v).map(|(a, b)| (a - b).powi(2)).sum();
        let av = a.spmv(&v);
        let res_plain: f64 = av.iter().zip(&v).map(|(a, b)| (a - b).powi(2)).sum();
        assert!(res_precond < 1e-20 * res_plain.max(1.0));
    }

    #[test]
    fn solve_flops_counts_pattern() {
        let a = laplacian(5);
        let ilu = Ilu0::factorize(&a).unwrap();
        assert_eq!(ilu.solve_flops(), 2 * a.nnz() as u64);
    }
}
