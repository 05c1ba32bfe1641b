//! Degenerate-geometry edge cases for the preconditioner stack: the
//! smallest subdomains a partitioner can hand a rank (one element, a
//! handful of DOFs) and the singular local blocks of floating subdomains.
//!
//! Two contracts:
//!
//! - the scratch-buffer application paths (`apply_scratch`) stay finite and
//!   bit-identical to the allocating paths on a 1-element subdomain, where
//!   every buffer-length corner case (tiny `n`, clamped rows) is live;
//! - ILU(0) on a singular floating-subdomain block reports a typed
//!   [`SparseError::ZeroPivot`] — never a factorization full of NaNs.

use parfem_fem::{assembly, Material, SubdomainSystem};
use parfem_mesh::{DofMap, Edge, ElementPartition, NodePartition, QuadMesh};
use parfem_precond::{GlsPrecond, NeumannPrecond, PrecondSpec, Preconditioner};
use parfem_sparse::{scaling::scale_system, CsrMatrix, Ilu0, SparseError};

/// The smallest legal problem: one quad element, left edge clamped.
/// Two free nodes -> four DOFs after boundary elimination.
fn one_element_system() -> SubdomainSystem {
    let mesh = QuadMesh::cantilever(1, 1);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, -1.0, &mut loads);
    let part = ElementPartition::strips_x(&mesh, 1);
    let subs = part.subdomains_of(&mesh);
    SubdomainSystem::build(&mesh, &dm, &mat, &subs[0], &loads, false)
}

/// Runs `precond` through both application paths on `a` and checks the
/// scratch path is finite and bit-identical to the allocating path.
fn assert_scratch_matches_apply<P: Preconditioner<CsrMatrix>>(precond: &P, a: &CsrMatrix) {
    let n = a.n_rows();
    let v: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let z_alloc = precond.apply(a, &v);

    let mut z_scratch = vec![0.0; n];
    let mut scratch = vec![vec![0.0; n]; precond.scratch_vectors()];
    precond.apply_scratch(a, &v, &mut z_scratch, &mut scratch);

    assert!(
        z_scratch.iter().all(|x| x.is_finite()),
        "{}: non-finite output on n={} system: {:?}",
        precond.name(),
        n,
        z_scratch
    );
    assert_eq!(
        z_alloc,
        z_scratch,
        "{}: scratch path diverged from allocating path",
        precond.name()
    );
}

#[test]
fn gls_apply_scratch_is_finite_and_exact_on_one_element_subdomain() {
    let sys = one_element_system();
    let (scaled, _rhs, _sc) =
        scale_system(&CsrMatrix::from_rows(&sys.k_local), &sys.f_local).unwrap();
    for degree in [0, 1, 5, 9] {
        assert_scratch_matches_apply(&GlsPrecond::for_scaled_system(degree), &scaled);
    }
}

#[test]
fn neumann_apply_scratch_is_finite_and_exact_on_one_element_subdomain() {
    let sys = one_element_system();
    let (scaled, _rhs, _sc) =
        scale_system(&CsrMatrix::from_rows(&sys.k_local), &sys.f_local).unwrap();
    for degree in [0, 1, 5, 9] {
        assert_scratch_matches_apply(&NeumannPrecond::for_scaled_system(degree), &scaled);
    }
}

#[test]
fn polynomial_apply_scratch_handles_a_one_dof_operator() {
    // The absolute floor: a 1x1 operator, as a one-DOF subdomain would
    // produce. Every recurrence in GLS degenerates to scalars here.
    let a = CsrMatrix::from_diagonal(&[0.5]);
    assert_scratch_matches_apply(&GlsPrecond::for_scaled_system(7), &a);
    assert_scratch_matches_apply(&NeumannPrecond::for_scaled_system(7), &a);
}

/// An interior strip of a clamped-left cantilever has no Dirichlet rows:
/// its local stiffness admits rigid-body motions and is exactly singular.
fn floating_subdomain_block() -> CsrMatrix {
    let mesh = QuadMesh::cantilever(4, 2);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let loads = vec![0.0; dm.n_dofs()];
    let part = ElementPartition::strips_x(&mesh, 4);
    let subs = part.subdomains_of(&mesh);
    // Strip 2 touches neither the clamped left edge nor the loaded right
    // edge: a textbook floating subdomain.
    let k = SubdomainSystem::build(&mesh, &dm, &mat, &subs[2], &loads, false).k_local;
    CsrMatrix::from_rows(&k)
}

#[test]
fn ilu0_on_singular_floating_subdomain_returns_zero_pivot_not_nans() {
    let k = floating_subdomain_block();
    match Ilu0::factorize(&k) {
        Err(SparseError::ZeroPivot { row, value }) => {
            assert!(row < k.n_rows());
            assert!(
                value.abs() < 1e-10,
                "pivot {value} at row {row} should be numerically zero"
            );
        }
        Err(other) => panic!("expected ZeroPivot, got {other:?}"),
        Ok(_) => panic!("factorizing a singular floating block must fail"),
    }
}

#[test]
fn rdd_local_ilu_on_floating_block_propagates_the_typed_error() {
    // Same contract one layer up: the `ilu0` spec on an RDD rank's block
    // must surface the ZeroPivot rather than hand the solver a NaN
    // factorization. Feed the demonstrably singular floating-strip
    // stiffness in as the global matrix of a one-rank RDD system: its local
    // block is then that same singular matrix.
    let k = floating_subdomain_block();
    let rhs = vec![1.0; k.n_rows()];
    // Pair DOFs into pseudo-"nodes" so the node partition covers all rows.
    let part = NodePartition::from_owner(1, vec![0; k.n_rows() / 2]);
    let systems = parfem_dd::RddSystem::build_all(&k, &rhs, &part);
    let a_loc = &systems[0].a_loc;
    match PrecondSpec::Ilu0.instantiate(None, Some(a_loc), || a_loc.diagonal()) {
        Err(SparseError::ZeroPivot { .. }) => {}
        Err(other) => panic!("expected ZeroPivot, got {other:?}"),
        Ok(_) => panic!("the singular floating block must fail to factorize"),
    }
}
