//! Finite-element substrate for the `parfem` solver stack.
//!
//! Implements everything the paper's evaluation needs from a FEM code:
//!
//! - [`material`] — isotropic linear elasticity (plane stress / plane
//!   strain / 3-D) constitutive matrices and the scalar conductivity,
//! - [`physics`] — the [`physics::Physics`] axis (2-D elasticity, scalar
//!   Poisson/heat, 3-D elasticity): DOFs per node, rigid-mode counts, and
//!   the scalar conduction element kernel,
//! - [`quad4`] — the 4-node bilinear quadrilateral of the paper's cantilever
//!   experiments: stiffness and (consistent or lumped) mass matrices by 2×2
//!   Gauss quadrature,
//! - [`tri3`] and [`quad8s`] — the 3-node triangle and the 8-node
//!   serendipity quadrilateral of the paper's Section-5 element comparison,
//! - [`hex8`] — the 8-node trilinear hexahedron of the 3-D elasticity
//!   workload,
//! - [`discretization`] — the one seam between meshes and assemblers: a
//!   mesh (structured or generic Q4, T3, Q8, hex8) paired with its physics,
//!   supplying each element's nodes, stiffness, mass and flop charge,
//! - [`assembly`] — the one pattern-first assembly core (symbolic pass, then
//!   an element-order scatter straight into CSR) behind every assembled
//!   matrix of the crate, global CSR assembly with Dirichlet boundary
//!   conditions handled as identity rows (no renumbering), plus load vectors,
//! - [`subdomain`] — per-subdomain *unassembled* local systems for the
//!   element-based domain decomposition: `K = Σ Bₛᵀ K̂⁽ˢ⁾ Bₛ` holds exactly,
//! - [`dynamics`] — Newmark time integration of `M ü + K u = f` producing
//!   the effective systems `[αM + βK] u = f̂` of the paper's Eq. 52.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Indexed `for r in 0..n` loops are the idiomatic form for the sparse/FEM
// kernels in this workspace (the index feeds several arrays and the CSR
// row spans at once); the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod assembly;
pub mod discretization;
pub mod dynamics;
pub mod hex8;
pub mod material;
pub mod physics;
pub mod quad4;
pub mod quad8s;
pub mod stress;
pub mod subdomain;
pub mod tri3;

/// Copies the upper triangle of the row-major `n × n` matrix `ke` onto its
/// lower one: every elasticity kernel computes the entries `(r, c)` with
/// `c ≥ r` only, so `kₑ` is symmetric bit for bit.
pub(crate) fn mirror_upper(ke: &mut [f64], n: usize) {
    for r in 1..n {
        for c in 0..r {
            ke[r * n + c] = ke[c * n + r];
        }
    }
}

pub use assembly::{assemble_mass, assemble_stiffness, StaticSystem};
pub use discretization::{Discretization, Mass, Mesh};
pub use dynamics::{NewmarkIntegrator, NewmarkParams};
pub use material::Material;
pub use physics::Physics;
pub use subdomain::SubdomainSystem;
