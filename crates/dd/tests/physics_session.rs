//! Session-level golden tests for the physics-generic workloads: scalar
//! heat (`Problem::heat`) and 3-D hex8 elasticity (`Problem::elasticity3d`)
//! through the same [`SolveSession`] pipeline as the paper's 2-D
//! elasticity, under EDD and RDD, blocking and overlapped exchange.
//!
//! Three contracts:
//!
//! - **golden iteration counts** — pinned per (problem, P, preconditioner)
//!   so a numerical change anywhere in the physics-generic assembly or
//!   subdomain path is caught, exactly like `golden.rs` pins elasticity2d;
//! - **overlap neutrality** — overlapped exchange reorders communication
//!   only, so each overlapped run is bit-identical to its blocking twin on
//!   every physics;
//! - **Eq. 45 in session form** — a floating hex subdomain breaks ILU(0)
//!   at factorization time, while the `direct` sparse solve (pivot-shifted
//!   sparse LDLᵀ) carries the same session to convergence, standalone and
//!   inside `twolevel:<coarse>:direct`.

mod common;

use common::node_strips;
use parfem_dd::{DdSolveOutput, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy};
use parfem_fem::{assembly, Discretization, Material, Physics, SubdomainSystem};
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, QuadMesh};
use parfem_sparse::{Ilu0, SparseError};

fn heat_fixture(nx: usize, ny: usize) -> (QuadMesh, DofMap, Material, Vec<f64>) {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 1);
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_source(&mesh, &dm, Edge::Right, 1.0, &mut loads);
    (mesh, dm, mat, loads)
}

fn hex_fixture(nx: usize, ny: usize, nz: usize) -> (HexMesh, DofMap, Material, Vec<f64>) {
    let mesh = HexMesh::cantilever(nx, ny, nz);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::face_load(&mesh, &dm, Face::XMax, [0.0, 0.0, -1.0], &mut loads);
    (mesh, dm, mat, loads)
}

fn cfg(spec: &str) -> SolverConfig {
    SolverConfig {
        gmres: GmresConfig {
            tol: 1e-8,
            ..Default::default()
        },
        precond: PrecondSpec::parse(spec).expect("test spec parses"),
        ..Default::default()
    }
}

fn run_edd(
    problem: Problem<'_>,
    part: ElementPartition,
    spec: &str,
    overlap: bool,
) -> DdSolveOutput {
    SolveSession::new(problem)
        .strategy(Strategy::Edd(part))
        .config(cfg(spec))
        .overlap(overlap)
        .run()
        .expect("fault-free session must not fail")
}

fn run_rdd(problem: Problem<'_>, part: NodePartition, spec: &str, overlap: bool) -> DdSolveOutput {
    SolveSession::new(problem)
        .strategy(Strategy::Rdd(part))
        .config(cfg(spec))
        .overlap(overlap)
        .run()
        .expect("fault-free session must not fail")
}

/// Golden iteration counts for scalar heat at P=3, each preconditioner
/// family, EDD and RDD — with the overlapped twin pinned bit-identical.
#[test]
fn heat_session_golden_iteration_counts() {
    // (spec, EDD iters, RDD iters)
    let golden = [
        ("gls:3", 9, 9),
        ("direct", 10, 5),
        ("twolevel:rbm.s3:gls-3", 6, 6),
    ];
    for (spec, want_edd, want_rdd) in golden {
        let (mesh, dm, mat, loads) = heat_fixture(9, 4);
        let edd = run_edd(
            Problem::new(
                Discretization::new(&mesh, Physics::Heat2d),
                &dm,
                &mat,
                &loads,
            ),
            ElementPartition::strips_x(&mesh, 3),
            spec,
            false,
        );
        assert!(edd.history.converged(), "heat EDD {spec} must converge");
        assert_eq!(
            edd.history.iterations(),
            want_edd,
            "heat EDD {spec} iteration drift"
        );
        let edd_overlapped = run_edd(
            Problem::new(
                Discretization::new(&mesh, Physics::Heat2d),
                &dm,
                &mat,
                &loads,
            ),
            ElementPartition::strips_x(&mesh, 3),
            spec,
            true,
        );
        assert_eq!(
            edd.u, edd_overlapped.u,
            "heat EDD {spec}: overlap changed the solution bits"
        );

        let rdd = run_rdd(
            Problem::new(
                Discretization::new(&mesh, Physics::Heat2d),
                &dm,
                &mat,
                &loads,
            ),
            node_strips(&mesh, 3),
            spec,
            false,
        );
        assert!(rdd.history.converged(), "heat RDD {spec} must converge");
        assert_eq!(
            rdd.history.iterations(),
            want_rdd,
            "heat RDD {spec} iteration drift"
        );
        let rdd_overlapped = run_rdd(
            Problem::new(
                Discretization::new(&mesh, Physics::Heat2d),
                &dm,
                &mat,
                &loads,
            ),
            node_strips(&mesh, 3),
            spec,
            true,
        );
        assert_eq!(
            rdd.u, rdd_overlapped.u,
            "heat RDD {spec}: overlap changed the solution bits"
        );
    }
}

/// Golden iteration counts for 3-D hex8 elasticity at P=3 — the same
/// matrix of preconditioners and strategies as the scalar physics.
#[test]
fn hex_session_golden_iteration_counts() {
    let golden = [
        ("gls:3", 15, 14),
        // EDD: the interior blocks float, so `direct` runs the pivot-shifted
        // solve, whose six pinned dofs follow the elimination order (172
        // under the RCM profile order, 323 under minimum degree) and whose
        // count moves with the rounding of the factor: 322 since the
        // supernodal numeric phase sums the updates between panels as dot
        // products (same ordering, same fill), 101 since the restart
        // carries the m/4 smallest harmonic Ritz vectors (FGMRES-DR).
        ("direct", 101, 19),
        ("twolevel:rbm.s3:gls-3", 8, 8),
    ];
    for (spec, want_edd, want_rdd) in golden {
        let (mesh, dm, mat, loads) = hex_fixture(6, 2, 2);
        let edd = run_edd(
            Problem::new(&mesh, &dm, &mat, &loads),
            ElementPartition::blocks_of(&mesh, 3, 1),
            spec,
            false,
        );
        assert!(edd.history.converged(), "hex EDD {spec} must converge");
        assert_eq!(
            edd.history.iterations(),
            want_edd,
            "hex EDD {spec} iteration drift"
        );
        let edd_overlapped = run_edd(
            Problem::new(&mesh, &dm, &mat, &loads),
            ElementPartition::blocks_of(&mesh, 3, 1),
            spec,
            true,
        );
        assert_eq!(
            edd.u, edd_overlapped.u,
            "hex EDD {spec}: overlap changed the solution bits"
        );

        let rdd = run_rdd(
            Problem::new(&mesh, &dm, &mat, &loads),
            node_strips(&mesh, 3),
            spec,
            false,
        );
        assert!(rdd.history.converged(), "hex RDD {spec} must converge");
        assert_eq!(
            rdd.history.iterations(),
            want_rdd,
            "hex RDD {spec} iteration drift"
        );
        let rdd_overlapped = run_rdd(
            Problem::new(&mesh, &dm, &mat, &loads),
            node_strips(&mesh, 3),
            spec,
            true,
        );
        assert_eq!(
            rdd.u, rdd_overlapped.u,
            "hex RDD {spec}: overlap changed the solution bits"
        );
    }
}

/// Satellite #2 golden case: the physics-aware coarse space (one constant
/// mode per aggregate for the scalar physics) keeps heat iteration counts
/// near-flat as subdomains multiply, where the one-level count grows.
#[test]
fn heat_twolevel_growth_is_near_flat_where_onelevel_grows() {
    let iters = |nx: usize, p: usize, spec: &str| {
        let (mesh, dm, mat, loads) = heat_fixture(nx, 4);
        let out = run_edd(
            Problem::new(
                Discretization::new(&mesh, Physics::Heat2d),
                &dm,
                &mat,
                &loads,
            ),
            ElementPartition::strips_x(&mesh, p),
            spec,
            false,
        );
        assert!(out.history.converged(), "{spec} P={p} must converge");
        out.history.iterations()
    };
    // Weak family in x: 3 elements per strip, P = 2 -> 8.
    let (two_p2, two_p8) = (
        iters(6, 2, "twolevel:rbm.s3:gls-3"),
        iters(24, 8, "twolevel:rbm.s3:gls-3"),
    );
    let (one_p2, one_p8) = (iters(6, 2, "gls:3"), iters(24, 8, "gls:3"));
    // Golden pins: the two-level count adds 3 iterations over a 4x rank
    // increase (5 -> 8) while the one-level count grows 2.7x (6 -> 16).
    assert_eq!((two_p2, two_p8), (5, 8), "two-level heat iteration drift");
    assert_eq!((one_p2, one_p8), (6, 16), "one-level heat iteration drift");
    assert!(
        two_p8 <= two_p2 + 3,
        "two-level heat growth must stay near-flat: {two_p2} -> {two_p8}"
    );
    assert!(
        (one_p8 as f64) >= 2.5 * one_p2 as f64,
        "one-level heat growth should be steep (else the contrast is moot)"
    );
}

/// Eq. 45 at session level, in 3-D: the interior blocks of a one-element
/// -thick clamped-left hex cantilever touch no Dirichlet row, so their
/// local stiffness is dense and exactly singular — ILU(0) (here a complete
/// LU, the pattern is full) hits the rigid-mode zero pivot — while the
/// same partition solves to 1e-8 through the `direct` subdomain solver
/// (pivot-shifted LDLᵀ), standalone and as the smoother of a two-level
/// spec.
#[test]
fn direct_survives_the_floating_hex_subdomain_that_breaks_ilu0() {
    let (mesh, dm, mat, loads) = hex_fixture(3, 1, 1);
    let part = ElementPartition::blocks_of(&mesh, 3, 1);

    // The floating single-element blocks: singular, ILU(0) refuses them.
    let subs = part.subdomains_of(&mesh);
    for floating in [1, 2] {
        let sys = SubdomainSystem::build(&mesh, &dm, &mat, &subs[floating], &loads, false);
        match Ilu0::factorize(&sys.k_local) {
            Err(SparseError::ZeroPivot { value, .. }) => {
                assert!(value.abs() < 1e-10, "pivot {value} should be ~0");
            }
            Err(other) => panic!("expected ZeroPivot on the floating block, got {other:?}"),
            Ok(_) => panic!("factorizing the singular floating block must fail"),
        }
    }

    // The exact solver takes the same sessions to convergence; the coarse
    // rigid-body space collapses the one-level count 58 -> 16. (197 under
    // plain restarting, before the restart carried harmonic Ritz vectors;
    // 198 and 14 under the RCM profile order: the floating blocks go
    // through the pivot shift, whose pinned dofs follow the elimination
    // order; 15 before the 3x3 node-block matvec reassociated the row sums.)
    for (spec, want) in [("direct", 58), ("twolevel:rbm.s3:direct", 16)] {
        let out = run_edd(
            Problem::new(&mesh, &dm, &mat, &loads),
            part.clone(),
            spec,
            false,
        );
        assert!(
            out.history.converged(),
            "{spec} must converge across the floating subdomains"
        );
        assert_eq!(
            out.history.iterations(),
            want,
            "{spec} floating-subdomain iteration drift"
        );
    }
}
