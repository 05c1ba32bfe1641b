//! Krylov solvers for the `parfem` stack.
//!
//! - [`gmres`] — restarted flexible GMRES (the paper's Algorithm 1), the
//!   one loop behind every solve: Arnoldi with classical Gram–Schmidt (the
//!   variant the paper parallelizes), Givens-rotation least squares, and
//!   flexible per-iteration preconditioning, deflated restarting that
//!   carries `m/4` harmonic Ritz vectors across each restart and, on a
//!   [`KrylovWorkspace::for_fixed_operator`] workspace, recycles that space
//!   from one solve to the next, over any
//!   [`DistributedOperator`] — an EDD or RDD rank, or a whole operator on
//!   one rank ([`OneRank`] over [`parfem_msg::SelfComm`]),
//! - [`history`] — convergence histories consumed by the experiment harness
//!   (the per-iteration relative residuals plotted in Figs. 10–14),
//! - [`lanczos`] — spectrum estimates for the GLS interval `Θ`, and the
//!   small dense nonsymmetric eigensolver behind the deflated restart.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Indexed `for r in 0..n` loops are the idiomatic form for the sparse/FEM
// kernels in this workspace (the index feeds several arrays and the CSR
// row spans at once); the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod givens;
pub mod gmres;
pub mod history;
pub mod lanczos;
pub mod workspace;

pub use gmres::{
    fgmres, fgmres_on, DistributedOperator, GmresConfig, GmresResult, OneRank, Orthogonalization,
};
pub use history::{ConvergenceHistory, StopReason};
pub use lanczos::{estimate_spectrum, measure_spectrum};
pub use workspace::KrylovWorkspace;
