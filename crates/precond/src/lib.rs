//! Preconditioners for the `parfem` solver stack.
//!
//! The paper's central contribution is pairing element-based domain
//! decomposition with **polynomial preconditioners**, which need nothing but
//! matrix–vector products — the one operation the distributed formats
//! provide cheaply. This crate implements:
//!
//! - [`neumann`] — the Neumann-series preconditioner
//!   `P_m(A) = ω (I + G + … + G^m)`, `G = I − ωA` (paper Section 2.1.2,
//!   Algorithm 7),
//! - [`gls`] — the generalized least-squares polynomial built from
//!   orthogonal polynomials via the Stieltjes procedure over an arbitrary
//!   union of disjoint spectrum intervals (Section 2.1.3),
//! - [`poly`] — monomial-coefficient utilities and the floating-point
//!   stability bound `mε Σ|a_i|` of Eq. 24 (Fig. 3),
//! - [`jacobi`], [`identity`] — the trivial comparators,
//! - [`ilu0`] — a [`Preconditioner`] wrapper around
//!   [`parfem_sparse::Ilu0`], built by the `ilu0` spec from the rank-local
//!   matrix: the sequential comparator of Figs. 11–12, block-Jacobi ILU(0)
//!   under row-based decomposition, and the Eq. 45 zero pivot on floating
//!   element-based subdomains,
//! - [`direct`] — the exact rank-local sparse direct solve
//!   (nested-dissection sparse LDLᵀ), pivot-tolerant where ILU(0) fails on floating
//!   subdomains,
//! - [`twolevel`] — the two-level coarse-space correction (per-subdomain
//!   rigid-body modes, optionally smoothed, a directly factored Galerkin
//!   coarse operator, composed multiplicatively around the polynomial
//!   smoothers),
//! - [`registry`] — the one spec type ([`PrecondSpec`]) every solver,
//!   binary and test parses and builds preconditioners through.
//!
//! All preconditioners implement [`Preconditioner`] over an abstract
//! [`LinearOperator`], so the identical code runs sequentially and inside
//! the element-/row-based distributed solvers.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Indexed `for r in 0..n` loops are the idiomatic form for the sparse/FEM
// kernels in this workspace (the index feeds several arrays and the CSR
// row spans at once); the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod adaptive;
pub mod chebyshev;
pub mod direct;
pub mod gls;
pub mod identity;
pub mod ilu0;
pub mod jacobi;
pub mod neumann;
pub mod poly;
pub mod registry;
pub mod twolevel;

pub use adaptive::EscalatingGls;
pub use chebyshev::ChebyshevPrecond;
pub use direct::DirectPrecond;
pub use gls::{GlsPrecond, IntervalUnion};
pub use identity::IdentityPrecond;
pub use ilu0::Ilu0Precond;
pub use jacobi::JacobiPrecond;
pub use neumann::NeumannPrecond;
pub use registry::{BuiltPrecond, ParseSpecError, PrecondSpec};
pub use twolevel::{
    build_coarse_basis, CoarsePartGeometry, CoarseReduce, CoarseSolver, CoarseSpec, SpecPrecond,
    TwoLevelPrecond,
};

use parfem_sparse::LinearOperator;

/// The hooks a rank-local *subdomain solve* needs from a distributed
/// operator: re-imposing interface agreement on per-rank solutions, and
/// paying for the solve on the rank's clock.
///
/// Element-based (EDD) local vectors replicate interface entries across the
/// subdomains sharing them, and an exact local solve gives each sharing
/// rank a *different* interface value — so [`DirectPrecond`] must follow
/// its solve with the partition-of-unity average `z ← ⊕Σ z/mult` (weight by
/// `1/multiplicity`, then neighbour-sum), restoring the replication
/// invariant and making the composite the classical multiplicity-weighted
/// additive Schwarz step. Operators whose vectors are not replicated —
/// sequential matrices, RDD block rows — are already consistent, and the
/// default no-op applies.
pub trait InterfaceConsistency {
    /// Restores interface agreement on the per-rank vector `z`. No-op for
    /// operators without replicated interface entries.
    fn make_consistent(&self, z: &mut [f64]) {
        let _ = z;
    }

    /// Accounts `flops` of a purely local subdomain solve to the operator's
    /// virtual-time model, as [`CoarseReduce::coarse_work`] does for the
    /// coarse solve. No-op by default.
    fn local_work(&self, flops: u64) {
        let _ = flops;
    }
}

/// Sequential operators hold the whole vector — nothing is replicated.
impl InterfaceConsistency for parfem_sparse::CsrMatrix {}

/// A (possibly operator-dependent) preconditioner `z = C v`.
///
/// Polynomial preconditioners evaluate `P_m(A) v` through the operator `op`
/// passed at application time; factorization-based preconditioners (ILU,
/// Jacobi) carry their own data and ignore `op`. Passing the operator at
/// apply time is what lets one `GlsPrecond` serve every subdomain of a
/// distributed solve.
pub trait Preconditioner<Op: LinearOperator + ?Sized> {
    /// Applies the preconditioner: `z = C v`.
    ///
    /// # Panics
    /// Implementations panic on length mismatches.
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]);

    /// Allocating convenience wrapper.
    fn apply(&self, op: &Op, v: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; v.len()];
        self.apply_into(op, v, &mut z);
        z
    }

    /// Number of length-`op.dim()` scratch vectors
    /// [`Preconditioner::apply_scratch`] consumes. Zero for data-only
    /// preconditioners (Jacobi, ILU, identity) whose application already
    /// runs allocation-free.
    fn scratch_vectors(&self) -> usize {
        0
    }

    /// Applies the preconditioner using caller-owned scratch storage.
    ///
    /// `scratch` must hold at least [`Preconditioner::scratch_vectors`]
    /// vectors, each of length `op.dim()`; their contents on entry are
    /// irrelevant (implementations overwrite or zero what they use). With
    /// adequate scratch the application performs **no heap allocation** and
    /// produces a result bit-identical to [`Preconditioner::apply_into`] —
    /// the Krylov workspace relies on both properties.
    ///
    /// The default ignores `scratch` and delegates to `apply_into`, which
    /// is correct (if allocating) for every implementation.
    fn apply_scratch(&self, op: &Op, v: &[f64], z: &mut [f64], scratch: &mut [Vec<f64>]) {
        let _ = scratch;
        self.apply_into(op, v, z);
    }

    /// Number of operator applications (matrix–vector products) one
    /// preconditioner application costs. Zero for matrix-free data-only
    /// preconditioners like Jacobi/ILU.
    fn operator_applications(&self) -> usize {
        0
    }

    /// The cost of the *next* application. Identical to
    /// [`Preconditioner::operator_applications`] for fixed preconditioners;
    /// degree-schedule preconditioners (see [`EscalatingGls`]) override it so
    /// tracing can record the active degree at each FGMRES iteration.
    fn current_operator_applications(&self) -> usize {
        self.operator_applications()
    }

    /// Short human-readable name, e.g. `gls(7)` — used by the experiment
    /// harness to label convergence curves exactly like the paper.
    fn name(&self) -> String;
}
