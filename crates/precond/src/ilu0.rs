//! ILU(0) as a [`Preconditioner`] — the `ilu0` spec. On one rank it is the
//! paper's sequential comparator; on a row-based rank's owned block it is
//! block-Jacobi ILU(0), the Sec. 4 baseline, and its application never
//! communicates. On an element-based subdomain the factorization meets the
//! paper's Eq. 45: a floating subdomain's local matrix is singular, and the
//! factorization reports the zero pivot when the incomplete elimination
//! reaches it. Where it survives, the local solves disagree at shared DOFs,
//! so each application ends with the operator's
//! [`InterfaceConsistency::make_consistent`], as [`crate::DirectPrecond`]'s
//! does (a no-op on sequential matrices and RDD block rows).

use crate::{InterfaceConsistency, Preconditioner};
use parfem_sparse::{Ilu0, LinearOperator, SparseError, SparseRows};

/// Wraps an [`Ilu0`] factorization as a preconditioner.
#[derive(Debug, Clone)]
pub struct Ilu0Precond {
    ilu: Ilu0,
}

impl Ilu0Precond {
    /// Factorizes `a`.
    ///
    /// # Errors
    /// Propagates [`SparseError::ZeroPivot`] — on element-based subdomain
    /// matrices this is the paper's floating-subdomain failure
    /// (Section 3.2.3), which is exactly why the paper prefers polynomial
    /// preconditioning there.
    pub fn factorize<A: SparseRows + ?Sized>(a: &A) -> Result<Self, SparseError> {
        Ok(Ilu0Precond {
            ilu: Ilu0::factorize(a)?,
        })
    }
}

impl<Op: LinearOperator + InterfaceConsistency + ?Sized> Preconditioner<Op> for Ilu0Precond {
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        self.ilu.solve_into(v, z);
        op.make_consistent(z);
    }

    fn name(&self) -> String {
        "ilu(0)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_sparse::CsrMatrix;

    #[test]
    fn wraps_ilu_solve() {
        let a = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, 3.0]);
        let p = Ilu0Precond::factorize(&a).unwrap();
        let x = [1.0, 2.0];
        let b = a.spmv(&x);
        let z = p.apply(&a, &b);
        // Dense 2x2 has no fill: ILU(0) is exact.
        assert!((z[0] - 1.0).abs() < 1e-12);
        assert!((z[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn propagates_singularity() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, -1.0, -1.0, 1.0]);
        assert!(matches!(
            Ilu0Precond::factorize(&a),
            Err(SparseError::ZeroPivot { .. })
        ));
    }
}
