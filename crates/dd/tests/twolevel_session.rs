//! Orthogonality and edge-case contracts for the two-level preconditioner
//! inside [`SolveSession`].
//!
//! The two-level coarse correction must be just another value of the
//! preconditioner axis: every other session option — overlapped exchange,
//! recoverable fault injection, tracing, multi-RHS reuse, the graph
//! partitioner — composes with it **bit-identically** to
//! its own baseline. On top of that, the constructions the paper's Eq. 45
//! flags as fatal for local factorizations (floating subdomains with no
//! Dirichlet rows, one-element parts with rank-deficient mode blocks) must
//! produce well-posed coarse solves through the pivoting sparse LDLᵀ.

mod common;

use common::node_strips;

use parfem_dd::{
    DdSolveOutput, EddVariant, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy,
};
use parfem_fem::{assembly, Material, SubdomainSystem};
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{DofMap, Edge, ElementPartition, PartitionerSpec, QuadMesh};
use parfem_msg::{FaultPlan, MachineModel};
use parfem_trace::TraceSink;
use std::time::Duration;

fn problem(nx: usize, ny: usize) -> (QuadMesh, DofMap, Material, Vec<f64>) {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    (mesh, dm, mat, loads)
}

fn cfg(spec: &str) -> SolverConfig {
    SolverConfig {
        gmres: GmresConfig {
            tol: 1e-8,
            ..Default::default()
        },
        precond: PrecondSpec::parse(spec).expect("test spec parses"),
        variant: EddVariant::Enhanced,
        overlap: false,
        faults: None,
        comm_timeout: Duration::from_secs(10),
    }
}

fn assert_bit_identical(a: &DdSolveOutput, b: &DdSolveOutput, what: &str) {
    assert_eq!(a.u, b.u, "{what}: solution bits differ");
    assert_eq!(
        a.history.relative_residuals, b.history.relative_residuals,
        "{what}: residual histories differ"
    );
}

/// Overlapped interface exchange changes scheduling only: the two-level
/// EDD solve is bit-identical to the blocking run, coarse correction
/// included.
#[test]
fn twolevel_overlap_matches_blocking() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let part = ElementPartition::strips_x(&mesh, 3);
    let blocking = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part.clone()))
        .config(cfg("twolevel:rbm:gls-3"))
        .run()
        .expect("blocking two-level run");
    assert!(blocking.history.converged());
    let overlapped = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg("twolevel:rbm:gls-3"))
        .overlap(true)
        .run()
        .expect("overlapped two-level run");
    assert_bit_identical(&blocking, &overlapped, "two-level overlap vs blocking");
}

/// Recoverable fault injection (drops + retry) and tracing leave the
/// two-level numbers untouched — the coarse all-reduce rides the same
/// latched retransmission machinery as every other collective.
#[test]
fn twolevel_faulted_traced_matches_plain_run() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let part = ElementPartition::strips_x(&mesh, 3);
    let plain = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part.clone()))
        .config(cfg("twolevel:rbm:neumann-2"))
        .machine(MachineModel::ibm_sp2())
        .run()
        .expect("plain two-level run");

    let sink = TraceSink::recording();
    let fancy = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg("twolevel:rbm:neumann-2"))
        .machine(MachineModel::ibm_sp2())
        .faults(
            FaultPlan::new(42)
                .with_drops(0.2)
                .with_retry_policy(30, 1e-3, 2.0),
        )
        .comm_timeout(Duration::from_secs(10))
        .trace(&sink)
        .run()
        .expect("recoverable faults must not fail the two-level solve");

    assert!(fancy.history.converged());
    assert_bit_identical(&plain, &fancy, "two-level plain vs faulted+traced");
    assert!(
        !sink.take_events().is_empty(),
        "a traced run must record events"
    );
}

/// `run_multi` with a two-level spec shares one coarse basis across
/// right-hand sides and meets the `run_multi` contract against independent
/// single-RHS sessions (see `common::assert_run_multi_contract`).
#[test]
fn twolevel_run_multi_matches_single_runs() {
    check_twolevel_run_multi(
        |mesh| Strategy::Edd(ElementPartition::strips_x(mesh, 3)),
        "twolevel:rbm:gls-3",
    );
}

/// Runs `spec` over `strategy` with two load cases through `run_multi` and
/// through one `run()` each, and checks the `run_multi` contract.
fn check_twolevel_run_multi(strategy: impl Fn(&QuadMesh) -> Strategy, spec: &str) {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let mut loads2 = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, 0.0, &mut loads2);
    let rhs_set = [loads, loads2];
    let multi = SolveSession::new(Problem::new(&mesh, &dm, &mat, &rhs_set[0]))
        .strategy(strategy(&mesh))
        .config(cfg(spec))
        .run_multi(&rhs_set)
        .expect("two-level multi-RHS session");
    let singles: Vec<_> = (rhs_set.iter())
        .map(|rhs| {
            SolveSession::new(Problem::new(&mesh, &dm, &mat, rhs))
                .strategy(strategy(&mesh))
                .config(cfg(spec))
                .run()
                .unwrap()
        })
        .collect();
    let systems: Vec<_> = (rhs_set.iter())
        .map(|rhs| assembly::build_static(&mesh, &dm, &mat, rhs))
        .collect();
    common::assert_run_multi_contract(&multi, &singles, &systems, cfg(spec).gmres.tol);
}

/// The graph partitioner composes with two-level preconditioning and is
/// deterministic: a second run reproduces the solve bit for bit.
#[test]
fn twolevel_graph_partitioner_is_deterministic() {
    let (mesh, dm, mat, loads) = problem(8, 4);
    let run = || {
        SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .partitioned(PartitionerSpec::Graph, 4)
            .config(cfg("twolevel:rbm:gls-3"))
            .run()
            .expect("graph-partitioned two-level run")
    };
    let a = run();
    assert!(a.history.converged());
    assert_bit_identical(&a, &run(), "two-level graph partition, second run");
}

/// Two-level works under the RDD (block-row) operator too, in both
/// composition modes, and overlapped exchange stays bit-identical.
#[test]
fn twolevel_rdd_converges_in_both_compositions() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    for spec in ["twolevel:rbm:gls-3", "twolevel:rbm:gls-3:add"] {
        let run = |overlap: bool| {
            SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
                .strategy(Strategy::Rdd(node_strips(&mesh, 3)))
                .config(cfg(spec))
                .overlap(overlap)
                .run()
                .expect("RDD two-level run")
        };
        let blocking = run(false);
        assert!(blocking.history.converged(), "{spec}: RDD must converge");
        assert_bit_identical(&blocking, &run(true), spec);
    }
}

/// RDD multi-RHS with two-level meets the `run_multi` contract; its first
/// right-hand side restarts, so the second one recycles.
#[test]
fn twolevel_rdd_run_multi_matches_single_runs() {
    check_twolevel_run_multi(
        |mesh| Strategy::Rdd(node_strips(mesh, 3)),
        "twolevel:rbm:neumann-2",
    );
}

/// **Floating subdomains** (paper Eq. 45): in a cantilever strip partition
/// only the first part touches the clamped edge — every other part has no
/// Dirichlet row, which made local factorizations singular. The coarse
/// Galerkin operator stays well-posed (the global matrix is SPD on the
/// constrained space) and the two-level solve converges in no more
/// iterations than the one-level smoother alone.
#[test]
fn floating_subdomains_coarse_solve_is_well_posed() {
    let (mesh, dm, mat, loads) = problem(16, 2);
    let part = ElementPartition::strips_x(&mesh, 8); // parts 1..8 are floating
    let one_level = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part.clone()))
        .config(cfg("gls:3"))
        .run()
        .expect("one-level run");
    let two_level = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg("twolevel:rbm:gls-3"))
        .run()
        .expect("two-level run over floating parts");
    assert!(two_level.history.converged());
    assert!(
        two_level.history.iterations() <= one_level.history.iterations(),
        "two-level ({}) must not iterate more than one-level ({}) over floating parts",
        two_level.history.iterations(),
        one_level.history.iterations()
    );
}

/// **One-element subdomains**: every part is a single element, so each
/// rigid-body mode block is maximally rank-deficient relative to its
/// neighbours (shared interface dofs, duplicated constants). The pivoting
/// factorization drops the dependent modes and the solve still
/// converges to the true solution.
#[test]
fn one_element_subdomains_produce_valid_coarse_blocks() {
    let (mesh, dm, mat, loads) = problem(6, 1);
    let part = ElementPartition::strips_x(&mesh, 6); // one element per part
    for spec in ["twolevel:rbm:gls-3", "twolevel:const:jacobi"] {
        let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .strategy(Strategy::Edd(part.clone()))
            .config(cfg(spec))
            .run()
            .expect("one-element-part two-level run");
        assert!(out.history.converged(), "{spec}: must converge");
    }
}

/// Rigid-body modes are (numerically) exact null vectors of the
/// unconstrained stiffness: on a fully floating mesh treated as one part,
/// `A Ẑ = D K D (D⁻¹ z) = D (K z) ≈ 0` for each of the three modes — the
/// two translations analytically, the infinitesimal rotation because the
/// small-strain operator annihilates `(−y, x)` exactly.
#[test]
fn rigid_body_modes_span_the_null_space_of_unconstrained_stiffness() {
    use parfem_precond::{build_coarse_basis, CoarseSpec};
    use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
    use parfem_sparse::LinearOperator;

    let mesh = QuadMesh::cantilever(6, 3);
    let dm = DofMap::new(mesh.n_nodes()); // no Dirichlet constraints at all
    let mat = Material::unit();
    let loads = vec![0.0; dm.n_dofs()];
    let part = ElementPartition::strips_x(&mesh, 1);
    let systems: Vec<SubdomainSystem> = part
        .subdomains_of(&mesh)
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
        .collect();

    let coords3: Vec<[f64; 3]> = mesh.coords().iter().map(|c| [c[0], c[1], 0.0]).collect();
    let (a, d) = common::edd_scaled_operator(&systems, dm.n_dofs());
    let (parts, mult) =
        common::edd_global_parts(&systems, dm.n_dofs(), &coords3, dm.dofs_per_node());
    let basis = build_coarse_basis(&CoarseSpec::Rbm, &parts, &mult, &d, &a, DEFAULT_PIVOT_TOL);
    assert_eq!(basis.info.n_modes, 3, "2 translations + 1 rotation");
    let modes: Vec<_> = basis.modes.entries_by_mode().collect();
    assert_eq!(modes.len(), 3, "every mode must have support");

    for (m, col) in modes {
        let mut zhat = vec![0.0; dm.n_dofs()];
        for (g, v) in col {
            zhat[g] = v;
        }
        let mut y = vec![0.0; dm.n_dofs()];
        a.apply_into(&zhat, &mut y);
        let z_inf = zhat.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
        let y_inf = y.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
        assert!(
            y_inf <= 1e-10 * z_inf,
            "mode {m}: ‖A ẑ‖∞ = {y_inf:e} not ≈ 0 (‖ẑ‖∞ = {z_inf:e})"
        );
    }
}

/// Additive and multiplicative composition are genuinely different
/// preconditioners (different residual histories) that converge to the
/// same physical solution.
#[test]
fn additive_and_multiplicative_compositions_both_converge() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let part = ElementPartition::strips_x(&mesh, 4);
    let run = |spec: &str| {
        SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .strategy(Strategy::Edd(part.clone()))
            .config(cfg(spec))
            .run()
            .expect("two-level run")
    };
    let mult = run("twolevel:rbm:gls-3");
    let add = run("twolevel:rbm:gls-3:add");
    assert!(mult.history.converged() && add.history.converged());
    assert_ne!(
        mult.history.relative_residuals, add.history.relative_residuals,
        "compositions must actually differ"
    );
    for (a, b) in mult.u.iter().zip(&add.u) {
        assert!(
            (a - b).abs() <= 1e-6 * a.abs().max(1.0),
            "both compositions must reach the same physical solution"
        );
    }
}
