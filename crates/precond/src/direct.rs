//! Exact rank-local sparse direct preconditioning.
//!
//! [`DirectPrecond`] wraps the sparse factorization of
//! [`parfem_sparse::ldlt`] (a pivot-tolerant LDLᵀ under a deterministic
//! nested-dissection ordering) as a [`Preconditioner`]: each application
//! solves the factored rank-local matrix exactly, `z = A_local⁻¹ v`.
//!
//! Two properties make this the right comparator and smoother where ILU(0)
//! is not:
//!
//! - **Floating subdomains.** A subdomain with no Dirichlet boundary has a
//!   singular local matrix and ILU(0) hits an exact zero pivot (the paper's
//!   Eq. 45 failure path). The sparse LDLᵀ underneath this preconditioner
//!   pivot-shifts instead: rank-deficient directions are skipped and the
//!   solve acts as a pseudo-inverse on the complement, so the
//!   preconditioner stays well-defined.
//! - **Exactness.** On a constrained subdomain the application is the exact
//!   local solve, which makes `direct` the strongest possible rank-local
//!   smoother — the reference point the polynomial preconditioners are
//!   measured against, sequentially and inside `twolevel:<coarse>:direct`.
//!
//! The factorization is taken from the rank's local matrix at build time;
//! the operator argument of [`Preconditioner::apply_into`] supplies only
//! the [`InterfaceConsistency`] hook: on interface-replicated (EDD)
//! operators the local solves disagree at shared DOFs, so each application
//! finishes with the partition-of-unity average `z ← ⊕Σ z/mult` — the
//! multiplicity-weighted additive Schwarz step. Sequential matrices and
//! RDD block rows make that hook a no-op, leaving the apply purely local.

use crate::{InterfaceConsistency, Preconditioner};
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_sparse::{LinearOperator, SparseLdlt, SparseRows};
use std::sync::{Arc, Mutex};

/// An exact sparse-direct preconditioner over a rank-local matrix.
///
/// Application is allocation-free after construction: the permutation
/// scratch vector is preallocated behind an uncontended `Mutex` (the same
/// idiom as the two-level coarse solver), so host-built per-rank values can
/// be handed across rank threads.
#[derive(Debug)]
pub struct DirectPrecond {
    factor: Arc<SparseLdlt>,
    scratch: Mutex<Vec<f64>>,
}

impl Clone for DirectPrecond {
    fn clone(&self) -> Self {
        DirectPrecond {
            factor: Arc::clone(&self.factor),
            scratch: Mutex::new(vec![0.0; self.factor.dim()]),
        }
    }
}

impl DirectPrecond {
    /// Factors `a` (the rank-local, post-scaling matrix) with the given
    /// pivot tolerance. Singular local matrices (floating subdomains) are
    /// handled by the pivot-shift fallback — near-null pivots are detected
    /// and replaced at the stiffness scale (see
    /// [`SparseLdlt::set_null_shift`]), so the preconditioner is
    /// *nonsingular*: it solves exactly on the factorable complement and
    /// passes the rigid modes through instead of erasing them. A plain
    /// pseudo-inverse here is singular, and a singular preconditioner
    /// stalls FGMRES over floating elasticity subdomains whose 3/6 rigid
    /// modes per subdomain would otherwise never leave the residual.
    ///
    /// # Panics
    /// Panics when `a` is not square.
    pub fn from_matrix<A: SparseRows + ?Sized>(a: &A, pivot_tol: f64) -> Self {
        let mut factor = SparseLdlt::factor(a, pivot_tol);
        let shift = factor.diag_scale().max(1.0);
        factor.set_null_shift(shift);
        let scratch = Mutex::new(vec![0.0; factor.dim()]);
        DirectPrecond {
            factor: Arc::new(factor),
            scratch,
        }
    }

    /// Factors `a` with the factorization's default pivot tolerance.
    pub fn new<A: SparseRows + ?Sized>(a: &A) -> Self {
        Self::from_matrix(a, DEFAULT_PIVOT_TOL)
    }

    /// Pivots the factorization skipped (0 on a nonsingular local matrix;
    /// the local rigid-mode count on a floating subdomain).
    pub fn n_skipped(&self) -> usize {
        self.factor.n_skipped()
    }

    /// Dimension of the factored local matrix.
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }

    /// The factorization behind the applications — its size, fill and
    /// flop counts are what the session records about the build.
    pub fn factor(&self) -> &SparseLdlt {
        &self.factor
    }
}

impl<Op: LinearOperator + InterfaceConsistency + ?Sized> Preconditioner<Op> for DirectPrecond {
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        z.copy_from_slice(v);
        {
            let mut scratch = self.scratch.lock().expect("direct scratch lock");
            self.factor.solve_in_place_with(z, &mut scratch);
        }
        op.local_work(self.factor.solve_flops());
        op.make_consistent(z);
    }

    fn name(&self) -> String {
        "direct".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_sparse::{CooMatrix, CsrMatrix, Ilu0, LinearOperator, SparseError};

    /// 2-D grid Laplacian with the first row Dirichlet-pinned.
    fn pinned_laplacian(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if i == 0 {
                    coo.push(i, i, 1.0).unwrap();
                    continue;
                }
                let mut deg = 0.0;
                let mut nbrs = Vec::new();
                for (dx, dy) in [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)] {
                    let (qx, qy) = (x as i64 + dx, y as i64 + dy);
                    if qx < 0 || qy < 0 || qx >= nx as i64 || qy >= ny as i64 {
                        continue;
                    }
                    deg += 1.0;
                    let j = (qy as usize) * nx + qx as usize;
                    if j != 0 {
                        nbrs.push(j);
                    }
                }
                coo.push(i, i, deg).unwrap();
                for j in nbrs {
                    coo.push(i, j, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn application_is_the_exact_inverse() {
        let a = pinned_laplacian(5, 4);
        let pc = DirectPrecond::new(&a);
        assert_eq!(pc.n_skipped(), 0);
        let v: Vec<f64> = (0..20).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let z = pc.apply(&a, &v);
        let az = a.apply(&z);
        for (got, want) in az.iter().zip(&v) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn survives_the_floating_matrix_that_breaks_ilu0() {
        // Free-free chain Laplacian: singular, tridiagonal (so ILU(0) is
        // the exact LU) — the factorization hits the paper's Eq. 45 zero
        // pivot. The direct preconditioner pivot-skips and still produces
        // a finite, consistent pseudo-solve.
        let n = 8;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let mut deg = 0.0;
            if i > 0 {
                deg += 1.0;
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                deg += 1.0;
                coo.push(i, i + 1, -1.0).unwrap();
            }
            coo.push(i, i, deg).unwrap();
        }
        let a = coo.to_csr();
        match Ilu0::factorize(&a) {
            Err(SparseError::ZeroPivot { .. }) => {}
            other => panic!("expected ILU(0) zero pivot, got {other:?}"),
        }
        let pc = DirectPrecond::new(&a);
        assert_eq!(pc.n_skipped(), 1);
        // A right-hand side in the range of A (zero mean) is solved exactly.
        let v: Vec<f64> = (0..n).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        let mean = 1.0 / n as f64;
        let v0: Vec<f64> = v.iter().map(|x| x - mean).collect();
        let z = pc.apply(&a, &v0);
        let az = a.apply(&z);
        for (got, want) in az.iter().zip(&v0) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn clone_shares_the_factorization_and_matches_bitwise() {
        let a = pinned_laplacian(4, 4);
        let pc = DirectPrecond::new(&a);
        let pc2 = pc.clone();
        let v: Vec<f64> = (0..16).map(|i| (i as f64).cos()).collect();
        assert_eq!(pc.apply(&a, &v), pc2.apply(&a, &v));
    }
}
