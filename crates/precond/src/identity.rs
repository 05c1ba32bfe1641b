//! The identity (no-op) preconditioner — the unpreconditioned baseline of
//! the paper's convergence figures.

use crate::Preconditioner;
use parfem_sparse::LinearOperator;

/// `C = I`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrecond;

impl<Op: LinearOperator + ?Sized> Preconditioner<Op> for IdentityPrecond {
    fn apply_into(&self, _op: &Op, v: &[f64], z: &mut [f64]) {
        assert_eq!(v.len(), z.len(), "identity: length mismatch");
        z.copy_from_slice(v);
    }

    fn name(&self) -> String {
        "none".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_sparse::CsrMatrix;

    #[test]
    fn identity_copies_input() {
        let a = CsrMatrix::identity(3);
        let p = IdentityPrecond;
        let v = [1.0, -2.0, 3.0];
        assert_eq!(p.apply(&a, &v), v.to_vec());
        assert_eq!(Preconditioner::<CsrMatrix>::name(&p), "none");
        assert_eq!(Preconditioner::<CsrMatrix>::operator_applications(&p), 0);
    }
}
