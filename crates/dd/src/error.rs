//! Typed solve failures.
//!
//! A distributed solve can fail for two structural reasons: the
//! communication substrate degraded (a peer died, a message was
//! undeliverable, a collective timed out — [`parfem_msg::CommError`]), or a
//! local factorization hit a numerical wall (a singular floating subdomain
//! under ILU(0) — [`parfem_sparse::SparseError`]). [`SolveError`] unifies
//! them so drivers and callers can match on *what* went wrong instead of
//! unwinding a panic. Non-convergence is **not** an error: the solver
//! returns its [`parfem_krylov::ConvergenceHistory`] with a stop reason for
//! that.

use parfem_msg::CommError;
use parfem_sparse::SparseError;
use std::fmt;

/// A typed failure of a distributed solve on one rank.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The communication layer failed (peer death, timeout, exhausted
    /// retransmissions). Carries the first [`CommError`] the rank's
    /// endpoint latched.
    Comm(CommError),
    /// A preconditioner factorization failed (e.g. ILU(0) on a singular
    /// floating subdomain, the paper's Sec. 5 EDD failure mode).
    Precond(SparseError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Comm(e) => write!(f, "communication failure: {e}"),
            SolveError::Precond(e) => write!(f, "preconditioner failure: {e}"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Comm(e) => Some(e),
            SolveError::Precond(e) => Some(e),
        }
    }
}

impl From<CommError> for SolveError {
    fn from(e: CommError) -> Self {
        SolveError::Comm(e)
    }
}

impl From<SparseError> for SolveError {
    fn from(e: SparseError) -> Self {
        SolveError::Precond(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let c: SolveError = CommError::Poisoned.into();
        assert!(matches!(c, SolveError::Comm(CommError::Poisoned)));
        assert!(c.to_string().contains("communication failure"));
        let p: SolveError = SparseError::ZeroPivot { row: 3, value: 0.0 }.into();
        assert!(p.to_string().contains("preconditioner failure"));
        assert!(std::error::Error::source(&p).is_some());
    }
}
