//! Abstract linear operators.
//!
//! Krylov solvers and polynomial preconditioners only ever need `y = A x`;
//! abstracting that single operation lets the identical solver code run on
//! - a plain [`CsrMatrix`] (sequential),
//! - the element-based distributed operator (local SpMV + interface sum),
//! - the row-based distributed operator (halo gather + two local SpMVs),
//!
//! which is precisely how the paper shares Algorithm 1 across Algorithms 5,
//! 6 and 8.

use crate::csr::CsrMatrix;

/// A square linear operator `A : R^n -> R^n`.
pub trait LinearOperator {
    /// The dimension `n` of the operator's domain and range.
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    /// Implementations panic when `x` or `y` has length `!= dim()`.
    fn apply_into(&self, x: &[f64], y: &mut [f64]);

    /// Allocating convenience wrapper around
    /// [`LinearOperator::apply_into`].
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply_into(x, &mut y);
        y
    }

    /// Floating-point operations of one application (used by the
    /// virtual-time machine model; 0 if unknown).
    fn apply_flops(&self) -> u64 {
        0
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        assert_eq!(
            self.n_rows(),
            self.n_cols(),
            "LinearOperator requires a square matrix"
        );
        self.n_rows()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }

    fn apply_flops(&self) -> u64 {
        self.spmv_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_operator_matches_spmv() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let x = [1.0, 1.0];
        assert_eq!(a.apply(&x), a.spmv(&x));
        assert_eq!(a.dim(), 2);
        assert_eq!(LinearOperator::apply_flops(&a), a.spmv_flops());
    }

    #[test]
    #[should_panic(expected = "square matrix")]
    fn rectangular_matrix_has_no_operator_dim() {
        let a = CsrMatrix::from_dense(1, 2, &[1.0, 2.0]);
        let _ = a.dim();
    }
}
