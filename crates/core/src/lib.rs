//! # parfem
//!
//! A parallel finite-element domain-decomposition FGMRES solver with
//! polynomial preconditioning — a from-scratch reproduction of
//! *"An Efficient Parallel Finite-Element-Based Domain Decomposition
//! Iterative Technique With Polynomial Preconditioning"* (Liang, Kanapady,
//! Tamma; Univ. of Minnesota TR 05-001 / ICPP 2006).
//!
//! This facade crate re-exports the whole workspace and adds the high-level
//! entry points the examples and experiments use:
//!
//! - [`problems`] — the paper's cantilever benchmark family (Table 2) with
//!   static and elastodynamic load cases,
//! - [`sequential`] — single-process solves with every preconditioner the
//!   paper compares (none/Jacobi/ILU(0)/Neumann/GLS), regenerating the
//!   convergence figures; they build the same [`PrecondSpec`](parfem_precond::PrecondSpec)
//!   a session does and run the distributed FGMRES loop on a one-rank
//!   communicator ([`parfem_krylov::fgmres`]),
//! - [`dynamic`] — Newmark first-step effective systems (`[αM + βK]u = f̂`),
//! - the re-exported [`parfem_dd::SolveSession`] builder for the parallel
//!   runs (EDD/RDD, preconditioner, machine, overlap, faults, tracing as
//!   orthogonal options) and for full transients
//!   ([`parfem_dd::SolveSession::run_dynamic`], the one Newmark time loop,
//!   driving the same session engine under either strategy).
//!
//! ## Quickstart
//!
//! ```
//! use parfem::prelude::*;
//!
//! // A 20x4-element cantilever, clamped at the left, sheared at the tip.
//! let problem = CantileverProblem::new(20, 4, Material::unit(), LoadCase::ShearY(-1.0));
//!
//! // Solve in parallel with 4 subdomains and a GLS(7) polynomial
//! // preconditioner on the virtual SGI Origin.
//! let part = ElementPartition::strips_x(&problem.mesh, 4);
//! let out = SolveSession::new(problem.as_problem())
//!     .strategy(Strategy::Edd(part))
//!     .machine(MachineModel::sgi_origin())
//!     .run()
//!     .expect("fault-free solve");
//! assert!(out.history.converged());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod dynamic;
pub mod paper;
pub mod perfgate;
pub mod problems;
mod schwarz;
pub mod sequential;

pub use parfem_dd as dd;
pub use parfem_fem as fem;
pub use parfem_krylov as krylov;
pub use parfem_mesh as mesh;
pub use parfem_msg as msg;
pub use parfem_precond as precond;
pub use parfem_sparse as sparse;
pub use parfem_trace as trace;

/// One-stop imports for examples and experiments.
pub mod prelude {
    pub use crate::dynamic::first_step_system;
    pub use crate::problems::{
        CantileverProblem, LoadCase, PhysicsProblem, WorkloadMesh, PAPER_MESHES,
    };
    pub use crate::sequential::{solve_static, solve_system};
    pub use parfem_dd::{
        DdSolveOutput, DynamicRunOutput, EddVariant, MultiSolveOutput, PrecondSpec, Problem,
        SolveError, SolveFailures, SolveSession, SolverConfig, Strategy,
    };
    pub use parfem_fem::{Discretization, Material, NewmarkParams, Physics};
    pub use parfem_krylov::{ConvergenceHistory, GmresConfig};
    pub use parfem_mesh::{
        DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, PartitionerSpec, QuadMesh,
    };
    pub use parfem_msg::{CommError, FaultPlan, FaultStats, MachineModel, RankReport};
    pub use parfem_precond::IntervalUnion;
    pub use parfem_sparse::CsrMatrix;
    pub use parfem_trace::{TraceReport, TraceSink};
}
