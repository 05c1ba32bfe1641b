//! Domain-decomposition solvers — the paper's primary contribution.
//!
//! - [`dist_vec`] — the local/global distributed vector formats of the
//!   paper's Definitions 1–2 and the nearest-neighbour interface sum
//!   `⊕Σ_{∂Ω}` (Eq. 28),
//! - [`scaling`] — distributed norm-1 diagonal scaling (Algorithms 3–4),
//! - [`edd`] — the element-based distributed operator, in both the basic
//!   (Algorithm 5, three interface exchanges per Arnoldi step) and enhanced
//!   (Algorithm 6, one exchange) variants, plus the EDD side of the session
//!   engine (rank-side assembly, scaling and setup),
//! - [`rdd`] — the row-based (block-row) distributed operator of
//!   Algorithm 8, the PSPARSLIB/Aztec-style baseline, plus the RDD side of
//!   the session engine (rank-side assembly, scaling and block-row split);
//!   its block-Jacobi ILU(0) is the registry's `ilu0` spec on each rank's
//!   owned block. Both operators implement
//!   [`parfem_krylov::DistributedOperator`], so both run the one FGMRES
//!   loop, `parfem_krylov::fgmres_on`; each holds its rank's scaled
//!   matrix, its interface or halo lists, the schedule the session asked
//!   for (overlap, and the EDD variant) and persistent exchange buffers,
//! - [`coarse`] — two-level coarse-space construction on the ranks, over
//!   both partitions: per-part geometry extraction, the live-mode exchange
//!   hooks of both distributed operators, and the one rank-side build,
//! - [`session`] — the composable [`SolveSession`] builder, the one way in:
//!   strategy, preconditioner, machine model, overlap, faults, tracing as
//!   orthogonal options over one engine and one rank launch for single-RHS,
//!   multi-RHS and transient runs (the strategies differ behind one
//!   crate-private trait). Each rank builds its operator once, in its
//!   setup; the preconditioner build and every solve of the run reuse it,
//! - [`dynamic`] — the Newmark step loop of that engine's rank body behind
//!   [`SolveSession::run_dynamic`], written once over rank vectors for both
//!   strategies: the one Newmark time loop in the workspace (one rank is
//!   the sequential transient).

#![deny(missing_docs)]
#![warn(clippy::all)]
// Indexed `for r in 0..n` loops are the idiomatic form for the sparse/FEM
// kernels in this workspace (the index feeds several arrays and the CSR
// row spans at once); the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod coarse;
pub mod dist_vec;
pub mod dynamic;
pub mod edd;
pub mod error;
pub mod rdd;
pub mod scaling;
pub mod session;

pub use coarse::{
    build_rank_coarse, edd_part_geometry, rdd_part_geometry, CoarseBuildStats, CoarsePlan,
};
pub use dist_vec::{EddLayout, ExchangeBuffers};
pub use dynamic::DynamicRunOutput;
pub use edd::{EddLocalMatrix, EddOperator, EddVariant};
pub use error::SolveError;
pub use rdd::{RddOperator, RddSystem};
pub use session::{
    DdSolveOutput, FactorStats, MultiSolveOutput, PrecondSpec, Problem, SolveFailures,
    SolveSession, SolverConfig, Strategy,
};

// End-to-end cases of the deleted legacy driver, now on `SolveSession`; the
// module path is kept because the tier-1 floor tracks tests by name.
#[cfg(test)]
mod driver {
    mod tests;
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared helpers for the crate's tests.
    use parfem_krylov::gmres::{fgmres, GmresConfig};
    use parfem_krylov::ConvergenceHistory;
    use parfem_precond::GlsPrecond;
    use parfem_sparse::{scaling::scale_system, CsrMatrix};

    /// Accurate sequential reference solve: norm-1 scaling + GLS(7) FGMRES
    /// at tight tolerance.
    pub fn seq_solve(a: &CsrMatrix, b: &[f64]) -> (Vec<f64>, ConvergenceHistory) {
        let (scaled, rhs, sc) = scale_system(a, b).expect("square system");
        let cfg = GmresConfig {
            tol: 1e-11,
            max_iters: 100_000,
            ..Default::default()
        };
        let res = fgmres(
            &scaled,
            &GlsPrecond::for_scaled_system(7),
            &rhs,
            &vec![0.0; scaled.n_rows()],
            &cfg,
        );
        (sc.unscale_solution(&res.x), res.history)
    }
}
