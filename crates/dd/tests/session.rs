//! Contract tests for the [`SolveSession`] builder, the one way into the
//! distributed solvers.
//!
//! Three layers of guarantee (the golden digests in `golden.rs` pin the
//! absolute values; here we pin *relative* identities between call forms):
//!
//! - **option orthogonality** — tracing, fault injection and overlapped
//!   exchange compose on one builder without changing the numbers;
//! - **multi-RHS reuse** — `run_multi` shares scaling/layout/workspace
//!   across right-hand sides; its first right-hand side stays bit-identical
//!   to an independent single-RHS run, and the later ones, which recycle
//!   the first solve's deflation space, meet the true residual;
//! - **inhomogeneous Dirichlet data** — `run()` carries the lift of
//!   non-zero prescribed values for both strategies, and `run_multi`
//!   refuses what it cannot represent.

mod common;

use common::node_strips;

use parfem_dd::{
    DdSolveOutput, EddVariant, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy,
};
use parfem_fem::{assembly, Discretization, Material, NewmarkParams, Physics};
use parfem_krylov::gmres::{fgmres, GmresConfig, Orthogonalization};
use parfem_mesh::{
    DofMap, Edge, ElementPartition, Face, GenericQuadMesh, HexMesh, NodePartition, PartitionerSpec,
    Quad8Mesh, QuadMesh, TriMesh,
};
use parfem_msg::{FaultPlan, MachineModel};
use parfem_precond::GlsPrecond;
use parfem_sparse::{dense, scaling::scale_system};
use parfem_trace::{TraceReport, TraceSink};
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

fn cfg() -> SolverConfig {
    SolverConfig {
        gmres: GmresConfig {
            tol: 1e-8,
            ..Default::default()
        },
        precond: PrecondSpec::Gls {
            degree: 5,
            theta: None,
        },
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

/// `.partitioned(spec, p)` is sugar for `.strategy(Strategy::Edd(..))`
/// with the partition the spec produces — bit-identical for strips, and a
/// converging solve for the graph partitioner whose solution agrees
/// with the strips run to solver tolerance.
#[test]
fn partitioned_builder_selects_edd_partitions() {
    let (mesh, dm, mat, loads) = problem(12, 4);
    let explicit = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(ElementPartition::strips_x(&mesh, 4)))
        .config(cfg())
        .run()
        .expect("strips run");
    let sugar = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .partitioned(PartitionerSpec::Strips, 4)
        .config(cfg())
        .run()
        .expect("partitioned(strips) run");
    assert_bit_identical(&explicit, &sugar, "partitioned(strips) vs explicit");

    let graph = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .partitioned(PartitionerSpec::Graph, 4)
        .config(cfg())
        .run()
        .expect("partitioned(graph) run");
    assert!(graph.history.converged());
    // Different partitions, same assembled operator: solutions agree to
    // the (tighter-than-tol) discretization-free limit.
    let norm: f64 = explicit.u.iter().map(|v| v * v).sum::<f64>().sqrt();
    let diff: f64 = explicit
        .u
        .iter()
        .zip(&graph.u)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    assert!(diff <= 1e-5 * norm.max(1.0), "diff {diff} vs norm {norm}");
}

/// Tracing + recoverable fault injection + overlapped exchange compose on
/// one builder: the run converges, records trace events, and the numbers
/// match the plain (untraced, unfaulted, blocking) run bit for bit.
#[test]
fn traced_faulted_overlapped_session_matches_plain_run() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let part = ElementPartition::strips_x(&mesh, 3);
    let base = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part.clone()))
        .config(cfg())
        .machine(MachineModel::ibm_sp2());
    let plain = base.run().expect("plain run");

    let sink = TraceSink::recording();
    let fancy = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .machine(MachineModel::ibm_sp2())
        .overlap(true)
        .faults(
            FaultPlan::new(42)
                .with_drops(0.2)
                .with_retry_policy(30, 1e-3, 2.0),
        )
        .comm_timeout(Duration::from_secs(10))
        .trace(&sink)
        .run()
        .expect("recoverable faults must not fail the solve");

    assert!(fancy.history.converged());
    assert_bit_identical(&plain, &fancy, "plain vs traced+faulted+overlapped");
    assert!(
        fancy.modeled_time >= plain.modeled_time,
        "retransmission can only add virtual time"
    );
    let events = sink.take_events();
    assert!(!events.is_empty(), "a traced run must record events");
}

/// Builder setters are views onto one `SolverConfig`: setting the options
/// one by one equals passing the assembled config wholesale.
#[test]
fn granular_setters_equal_wholesale_config() {
    let (mesh, dm, mat, loads) = problem(6, 3);
    let part = ElementPartition::strips_x(&mesh, 2);
    let c = cfg();
    let wholesale = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part.clone()))
        .config(c.clone())
        .run()
        .unwrap();
    let granular = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .gmres(c.gmres)
        .precond(c.precond.clone())
        .variant(c.variant)
        .overlap(c.overlap)
        .faults(c.faults.clone())
        .comm_timeout(c.comm_timeout)
        .run()
        .unwrap();
    assert_bit_identical(&wholesale, &granular, "wholesale vs granular");
}

/// The kernel follows from the physics and every solve names it: a rank of
/// either strategy applies node blocks of its DOFs per node (`bcsr2` plane
/// elasticity, `bcsr3` solids, `csr` for the scalar heat problem), and the
/// overlapped schedule runs — and reports — the same kernel with the same
/// bits.
#[test]
fn kernel_follows_the_physics_on_every_rank_and_is_recorded() {
    fn labelled(session: SolveSession<'_>, overlap: bool) -> (DdSolveOutput, Vec<String>) {
        let sink = TraceSink::recording();
        let out = (session.overlap(overlap).trace(&sink).run()).expect("fault-free run");
        assert!(out.history.converged());
        let report = TraceReport::from_events(&sink.take_events());
        let labels = (report.ranks.iter())
            .flat_map(|r| r.counters.iter())
            .filter(|(name, _)| name.starts_with("kernel_variant_"))
            .map(|(name, count)| format!("{name}={count}"))
            .collect();
        (out, labels)
    }
    fn check<'a>(session: impl Fn() -> SolveSession<'a>, label: &str) {
        let (blocking, labels) = labelled(session(), false);
        assert_eq!(labels, vec![format!("kernel_variant_{label}=1"); 2]);
        let (overlapped, split_labels) = labelled(session(), true);
        assert_eq!(split_labels, labels, "overlapped schedule, same kernel");
        assert_bit_identical(&blocking, &overlapped, label);
    }

    let (mesh, dm, mat, loads) = problem(24, 8);
    let plane = Problem::new(&mesh, &dm, &mat, &loads);
    let edd2 = ElementPartition::strips_x(&mesh, 2);
    let rdd2 = node_strips(&mesh, 2);
    check(
        || SolveSession::new(plane).strategy(Strategy::Edd(edd2.clone())),
        "bcsr2",
    );
    check(
        || SolveSession::new(plane).strategy(Strategy::Rdd(rdd2.clone())),
        "bcsr2",
    );

    let mut heat_dm = DofMap::with_dofs(mesh.n_nodes(), 1);
    heat_dm.clamp_edge(&mesh, Edge::Left);
    let mut source = vec![0.0; heat_dm.n_dofs()];
    assembly::edge_source(&mesh, &heat_dm, Edge::Right, 1.0, &mut source);
    let heat = Problem::new(
        Discretization::new(&mesh, Physics::Heat2d),
        &heat_dm,
        &mat,
        &source,
    );
    check(
        || SolveSession::new(heat).strategy(Strategy::Edd(edd2.clone())),
        "csr",
    );
    check(
        || SolveSession::new(heat).strategy(Strategy::Rdd(rdd2.clone())),
        "csr",
    );

    let hex = HexMesh::cantilever(6, 3, 3);
    let mut hex_dm = DofMap::with_dofs(hex.n_nodes(), 3);
    for node in hex.face_nodes(Face::XMin) {
        hex_dm.clamp_node(node);
    }
    let mut hex_loads = vec![0.0; hex_dm.n_dofs()];
    assembly::face_load(&hex, &hex_dm, Face::XMax, [0.0, 0.0, -1.0], &mut hex_loads);
    let solid = Problem::new(&hex, &hex_dm, &mat, &hex_loads);
    check(
        || SolveSession::new(solid).partitioned(PartitionerSpec::Strips, 2),
        "bcsr3",
    );
    let solid_rdd = node_strips(&hex, 2);
    check(
        || SolveSession::new(solid).strategy(Strategy::Rdd(solid_rdd.clone())),
        "bcsr3",
    );
}

/// `run_multi` shares one scaling/layout/preconditioner across right-hand
/// sides: its first right-hand side matches the single-RHS session bit for
/// bit, and the later one meets the `run_multi` contract (see
/// `common::assert_run_multi_contract`).
#[test]
fn run_multi_matches_independent_single_runs() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let part = ElementPartition::strips_x(&mesh, 3);

    // A second, different load case: x-direction traction.
    let mut loads2 = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, 0.0, &mut loads2);

    let multi = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part.clone()))
        .config(cfg())
        .run_multi(&[loads.clone(), loads2.clone()])
        .expect("multi-RHS session");
    assert_eq!(multi.solutions.len(), 2);

    let rhs_set = [loads, loads2];
    let singles: Vec<_> = (rhs_set.iter())
        .map(|rhs| {
            SolveSession::new(Problem::new(&mesh, &dm, &mat, rhs))
                .strategy(Strategy::Edd(part.clone()))
                .config(cfg())
                .run()
                .unwrap()
        })
        .collect();
    let systems: Vec<_> = (rhs_set.iter())
        .map(|rhs| assembly::build_static(&mesh, &dm, &mat, rhs))
        .collect();
    common::assert_run_multi_contract(&multi, &singles, &systems, cfg().gmres.tol);
}

/// Every element family reaches both strategies through a mesh-level
/// [`Problem`]: T3, Q8 and unstructured Q4 elasticity solve under EDD and
/// RDD at one and three ranks, each to the true residual of the assembled
/// global system.
#[test]
fn element_families_solve_under_both_strategies() {
    let quad = QuadMesh::cantilever(9, 3);
    let tri = TriMesh::from_quad_mesh(&quad);
    let quad8 = Quad8Mesh::cantilever(9, 3);
    let generic = GenericQuadMesh::from_structured(&QuadMesh::distorted(9, 3, 9.0, 3.0, 0.2, 4));
    let families: [(&str, Discretization, Vec<usize>, PartitionerSpec); 3] = [
        (
            "T3",
            (&tri).into(),
            tri.edge_nodes(Edge::Left),
            PartitionerSpec::Strips,
        ),
        (
            "Q8",
            (&quad8).into(),
            quad8.edge_nodes(Edge::Left),
            PartitionerSpec::Strips,
        ),
        (
            "generic Q4",
            (&generic).into(),
            generic.nodes_at_min_x(1e-9),
            PartitionerSpec::Graph,
        ),
    ];
    let mat = Material::unit();
    for (name, disc, clamped, partitioner) in families {
        let mesh = disc.mesh();
        let mut dm = DofMap::new(mesh.n_nodes());
        clamped.iter().for_each(|&n| dm.clamp_node(n));
        let loads: Vec<f64> = (0..dm.n_dofs())
            .map(|d| if d % 2 == 1 { -1e-3 } else { 0.0 })
            .collect();
        let global = assembly::build_static(disc, &dm, &mat, &loads);
        for p in [1, 3] {
            let session = || SolveSession::new(Problem::new(disc, &dm, &mat, &loads)).config(cfg());
            // RDD on the node partition of the very elements EDD runs on.
            let elements = partitioner.element_partition(&mesh, p);
            let nodes = NodePartition::from_elements(&elements, &mesh).unwrap();
            let edd = session().strategy(Strategy::Edd(elements));
            let rdd = session().strategy(Strategy::Rdd(nodes));
            for (strategy, session) in [("EDD", edd), ("RDD", rdd)] {
                let out = session.run().expect("fault-free solve");
                let what = format!("{name} {strategy} P = {p}");
                assert!(out.history.converged(), "{what}: no convergence");
                let mut r = global.stiffness.spmv(&out.u);
                dense::axpy(-1.0, &global.rhs, &mut r);
                let rel = dense::norm2(&r) / dense::norm2(&global.rhs);
                assert!(
                    rel <= 10.0 * cfg().gmres.tol,
                    "{what}: true residual {rel:e}"
                );
            }
        }
    }
}

/// The subdomain factorization is charged to the rank clocks, once per
/// rank: with the Krylov loop cut off (`max_iters = 0`, so set-up and the
/// initial residual are all that runs) a `direct` session counts exactly the
/// factor's flops more than the same session without it — standalone and as
/// a two-level smoother, EDD and RDD — and its modeled time grows.
#[test]
fn subdomain_factorization_is_charged_to_the_rank_clock() {
    let (mesh, dm, mat, loads) = problem(12, 6);
    let setup_only = |strategy: Strategy, spec: &str| {
        let mut cfg = cfg();
        cfg.gmres.max_iters = 0;
        cfg.precond = PrecondSpec::parse(spec).unwrap();
        SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .strategy(strategy)
            .config(cfg)
            .run()
            .unwrap()
    };
    let strategies = [
        Strategy::Edd(ElementPartition::strips_x(&mesh, 3)),
        Strategy::Rdd(node_strips(&mesh, 3)),
    ];
    for strategy in strategies {
        for (without, with) in [
            ("none", "direct"),
            ("twolevel:rbm:none", "twolevel:rbm:direct"),
        ] {
            let plain = setup_only(strategy.clone(), without);
            let direct = setup_only(strategy.clone(), with);
            assert!(plain.factor.is_empty(), "{without} factors nothing");
            assert_eq!(direct.factor.len(), 3, "{with}: one record per rank");
            for (r, f) in direct.factor.iter().enumerate() {
                assert!(f.flops > 0 && f.nnz_l > 0 && f.fill >= 1.0, "{f:?}");
                // A mesh node's two dofs share a panel at least.
                assert!(f.supernodes > 0 && f.max_front >= 4, "{f:?}");
                assert_eq!(
                    direct.reports[r].stats.flops - plain.reports[r].stats.flops,
                    f.flops,
                    "{with} rank {r}: the factor is charged exactly once"
                );
            }
            assert!(direct.modeled_time > plain.modeled_time, "{with}");
        }
    }
}

/// Every application of the subdomain factorization is charged too: after
/// `k` FGMRES iterations (one preconditioner application each) a `direct`
/// session counts exactly `factor_flops + k · solve_flops` more per rank
/// than the same session without it, standalone and as a two-level
/// smoother, EDD and RDD. On EDD each application also averages the solve
/// over the interface: one add per value received, which the extra
/// exchange bytes count. (`k` stays below the iteration at which a
/// two-level run first recomputes a norm with one more reduction, so the
/// Krylov arithmetic around the two preconditioners is the same.)
#[test]
fn subdomain_solves_are_charged_to_the_rank_clock() {
    let (mesh, dm, mat, loads) = problem(12, 6);
    let k = 3;
    let iterations = |strategy: Strategy, spec: &str| {
        let mut cfg = cfg();
        cfg.gmres.tol = 0.0;
        cfg.gmres.max_iters = k;
        cfg.precond = PrecondSpec::parse(spec).unwrap();
        let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .strategy(strategy)
            .config(cfg)
            .run()
            .unwrap();
        assert_eq!(out.history.iterations(), k, "{spec}");
        out
    };
    let strategies = [
        (Strategy::Edd(ElementPartition::strips_x(&mesh, 3)), true),
        (Strategy::Rdd(node_strips(&mesh, 3)), false),
    ];
    for (strategy, interface_sums) in strategies {
        for (without, with) in [
            ("none", "direct"),
            ("twolevel:rbm:none", "twolevel:rbm:direct"),
        ] {
            let plain = iterations(strategy.clone(), without);
            let direct = iterations(strategy.clone(), with);
            for (r, f) in direct.factor.iter().enumerate() {
                let (p, d) = (&plain.reports[r].stats, &direct.reports[r].stats);
                // The same Krylov arithmetic ran around the preconditioner.
                assert_eq!(d.allreduces, p.allreduces, "{with} rank {r}");
                let averaged = if interface_sums {
                    assert_eq!(d.neighbor_exchanges, p.neighbor_exchanges + k as u64);
                    (d.bytes_received - p.bytes_received) / 8
                } else {
                    assert_eq!(d.neighbor_exchanges, p.neighbor_exchanges);
                    0
                };
                assert!(f.solve_flops > f.nnz_l, "{f:?}");
                assert_eq!(
                    d.flops - p.flops,
                    f.flops + k as u64 * f.solve_flops + averaged,
                    "{with} rank {r}: factor once, one solve per application"
                );
            }
        }
    }
}

/// `GmresConfig::ortho` reaches the ranks: modified Gram–Schmidt reduces
/// once per projection plus once for the norm, so at P = 2 it converges
/// within two iterations of classical Gram–Schmidt while rank 0 pays at
/// least one more all-reduce per iteration — under EDD and RDD alike.
#[test]
fn modified_gram_schmidt_reaches_the_ranks() {
    let (mesh, dm, mat, loads) = problem(24, 8);
    let strategies = [
        ("edd", Strategy::Edd(ElementPartition::strips_x(&mesh, 2))),
        ("rdd", Strategy::Rdd(node_strips(&mesh, 2))),
    ];
    for (name, strategy) in strategies {
        let run = |ortho| {
            let mut cfg = cfg();
            cfg.gmres.ortho = ortho;
            let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
                .strategy(strategy.clone())
                .config(cfg)
                .run()
                .expect("fault-free run");
            assert!(out.history.converged(), "{name} {ortho:?}");
            out
        };
        let classical = run(Orthogonalization::Classical);
        let modified = run(Orthogonalization::Modified);
        let (ic, im) = (
            classical.history.iterations(),
            modified.history.iterations(),
        );
        assert!(
            ic.abs_diff(im) <= 2,
            "{name}: classical {ic} vs modified {im}"
        );
        let (rc, rm) = (
            classical.reports[0].stats.allreduces,
            modified.reports[0].stats.allreduces,
        );
        assert!(
            rm >= rc + im as u64,
            "{name}: modified {rm} vs classical {rc} all-reduces over {im} iterations"
        );
    }
}

/// On one rank a reduction is free, so the loop takes the exact norm of
/// the orthogonalized vector instead of the Pythagorean shortcut: a P = 1
/// session on paper Mesh2 (40 × 8, unit pull) under `gls:7` at 1e-10 needs
/// the iterations of the sequential solve on the same scaled matrix, ±1,
/// under EDD and RDD.
#[test]
fn one_rank_sessions_match_the_sequential_count() {
    let mesh = QuadMesh::cantilever(40, 8);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, 0.0, &mut loads);
    let gmres = GmresConfig {
        tol: 1e-10,
        ..Default::default()
    };
    let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
    let (a, b, _) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let seq = fgmres(
        &a,
        &GlsPrecond::for_scaled_system(7),
        &b,
        &vec![0.0; b.len()],
        &gmres,
    );
    assert!(seq.history.converged());
    let want = seq.history.iterations();
    let strategies = [
        ("edd", Strategy::Edd(ElementPartition::strips_x(&mesh, 1))),
        ("rdd", Strategy::Rdd(node_strips(&mesh, 1))),
    ];
    for (name, strategy) in strategies {
        let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .strategy(strategy)
            .gmres(gmres)
            .precond(PrecondSpec::parse("gls:7").unwrap())
            .run()
            .expect("fault-free run");
        assert!(out.history.converged(), "{name}");
        let got = out.history.iterations();
        assert!(
            got.abs_diff(want) <= 1,
            "{name}: P = 1 took {got}, sequential {want}"
        );
    }
}

/// The transient driver runs through the session builder and converges at
/// every step.
#[test]
fn run_dynamic_smoke() {
    let (mesh, dm, mat, loads) = problem(6, 3);
    let part = ElementPartition::strips_x(&mesh, 2);
    let tip = dm.dof(mesh.node_at(mesh.nx(), mesh.ny()), 0);
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .run_dynamic(NewmarkParams::average_acceleration(1.0), 3, &[tip])
        .expect("fault-free transient");
    assert!(out.all_converged, "every Newmark step must converge");
    assert_eq!(out.watch_histories.len(), 1);
    assert_eq!(out.watch_histories[0].len(), 3);
}

/// The transient driver at `restart: 8`, where every step restarts: the
/// step workspace recycles the deflation space of the fixed effective
/// operator `ᾱM + K` across steps. The total iteration count must not rise
/// above the count without recycling (94), and the watched tip history must
/// agree with the one pinned from the solver without recycling. Its bits —
/// the tip history, the iteration total, the final displacement and the
/// modeled time — are those of the separate EDD transient driver the
/// engine's step loop replaced, re-taken once when every elasticity element
/// matrix became the mirror of its upper triangle (the tip history moved in
/// its last bits, the 78 iterations did not).
#[test]
fn run_dynamic_restarting_steps_keep_their_history() {
    let (mesh, dm, mat, loads) = problem(16, 4);
    let part = ElementPartition::strips_x(&mesh, 2);
    let tip = dm.dof(mesh.node_at(mesh.nx(), mesh.ny()), 1);
    let mut config = cfg();
    config.gmres.restart = 8;
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(config)
        .run_dynamic(NewmarkParams::average_acceleration(10.0), 6, &[tip])
        .expect("fault-free transient");
    assert!(out.all_converged, "every Newmark step must converge");
    assert!(out.last.history.restarts >= 1, "the steps must restart");
    assert!(
        out.total_iterations <= 94,
        "{} iterations over 6 steps",
        out.total_iterations
    );
    let pinned = [
        -7.240280795596487,
        -21.43962454340828,
        -39.76999853591528,
        -61.351935574095016,
        -84.8312843132599,
        -110.7492473103577,
    ];
    for (step, (got, want)) in out.watch_histories[0].iter().zip(pinned).enumerate() {
        assert!(
            (got - want).abs() <= 1e-6 * want.abs(),
            "step {step}: tip {got} vs pinned {want}"
        );
    }
    let tip_bits: Vec<u64> = out.watch_histories[0].iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        tip_bits,
        [
            0xc01cf60c2b3bc679,
            0xc035708b3b5b44a3,
            0xc043e28f4f7ba0e1,
            0xc04ead0c3a0eb931,
            0xc0553533c3dffbfc,
            0xc05baff3aa9c8879,
        ]
    );
    assert_eq!(out.total_iterations, 78);
    assert_eq!(common::fnv_bits(&out.last.u), 0xc57be6dc5a8c1e45);
    // 0.01600912 s; 0.01629584 s while the Q4 kernel was charged for both
    // triangles of kₑ (3 008 flops, now 2 112), 0.01644644 s while each step
    // charged a mass CSR over the stiffness pattern, 2·nnz flops, for the n
    // the lumped diagonal takes.
    assert_eq!(out.last.modeled_time.to_bits(), 0x3f9064b1db59d83b);
}

/// A killed rank surfaces as a typed failure through the session path —
/// the `Result` arm of `run` is real, not vestigial.
#[test]
fn unrecoverable_fault_returns_solve_failures() {
    let (mesh, dm, mat, loads) = problem(6, 3);
    let part = ElementPartition::strips_x(&mesh, 3);
    let err = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .faults(FaultPlan::new(7).with_kill(1, 3))
        .comm_timeout(Duration::from_millis(500))
        .run()
        .expect_err("a killed rank must fail the session");
    assert!(
        !err.errors.is_empty(),
        "failure must name the failing ranks"
    );
}

/// The cantilever with its right edge *pulled* to a prescribed, non-zero
/// x-displacement (and sheared by the usual edge load): the constrained
/// system carries the lift `f − K ū`, which only the session's own load
/// does.
fn prescribed_problem() -> (QuadMesh, DofMap, Material, Vec<f64>) {
    let (mesh, mut dm, mat, loads) = problem(8, 3);
    for node in mesh.edge_nodes(Edge::Right) {
        dm.fix_dof(dm.dof(node, 0), 0.01);
    }
    (mesh, dm, mat, loads)
}

/// `run()` solves inhomogeneous Dirichlet data under both strategies, at
/// P = 1 and P = 3: prescribed values come back to solver accuracy, and the
/// solution matches a tight sequential solve of the lifted system to a tolerance
/// derived from the session's residual target.
#[test]
fn run_carries_inhomogeneous_dirichlet_data() {
    let (mesh, dm, mat, loads) = prescribed_problem();
    let lifted = assembly::build_static(&mesh, &dm, &mat, &loads);
    let (a, b, scaling) = scale_system(&lifted.stiffness, &lifted.rhs).unwrap();
    let tight = GmresConfig {
        tol: 1e-13,
        max_iters: 10_000,
        ..Default::default()
    };
    let pc = GlsPrecond::for_scaled_system(7);
    let reference = fgmres(&a, &pc, &b, &vec![0.0; b.len()], &tight);
    assert!(reference.history.converged());
    let u_ref = scaling.unscale_solution(&reference.x);
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();

    let tol = 1e-10;
    for p in [1, 3] {
        let strategies = [
            ("edd", Strategy::Edd(ElementPartition::strips_x(&mesh, p))),
            ("rdd", Strategy::Rdd(node_strips(&mesh, p))),
        ];
        for (name, strategy) in strategies {
            let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
                .strategy(strategy)
                .gmres(GmresConfig {
                    tol,
                    ..Default::default()
                })
                .run()
                .expect("fault-free solve");
            assert!(out.history.converged(), "{name} P={p}");
            // Constrained rows are identity rows of the iterated system, so
            // they hold to the residual target at the scale of the data.
            for (d, v) in dm.fixed_dofs() {
                assert!(
                    (out.u[d] - v).abs() <= 1e3 * tol * 0.01,
                    "{name} P={p}: dof {d} is {} but {v} was prescribed",
                    out.u[d]
                );
            }
            // The true residual of the lifted system, then the error it
            // bounds (‖e‖ ≤ κ ‖r‖/‖f‖ ‖u‖; κ of this beam is below 1e5).
            let ku = lifted.stiffness.spmv(&out.u);
            let r: Vec<f64> = ku.iter().zip(&lifted.rhs).map(|(a, b)| b - a).collect();
            let rel_res = norm(&r) / norm(&lifted.rhs);
            assert!(
                rel_res <= 1e3 * tol,
                "{name} P={p}: true residual {rel_res}"
            );
            let e: Vec<f64> = out.u.iter().zip(&u_ref).map(|(a, b)| a - b).collect();
            assert!(
                norm(&e) <= 1e5 * rel_res.max(tol) * norm(&u_ref),
                "{name} P={p}: error {} vs reference norm {}",
                norm(&e),
                norm(&u_ref)
            );
        }
    }
}

/// `run_multi` rebuilds each local load from a global vector, which cannot
/// represent the lift — it refuses inhomogeneous constraints outright.
#[test]
#[should_panic(expected = "run_multi requires homogeneous BCs")]
fn run_multi_refuses_inhomogeneous_constraints_under_edd() {
    let (mesh, dm, mat, loads) = prescribed_problem();
    let _ = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(ElementPartition::strips_x(&mesh, 3)))
        .run_multi(std::slice::from_ref(&loads));
}

#[test]
#[should_panic(expected = "run_multi requires homogeneous BCs")]
fn run_multi_refuses_inhomogeneous_constraints_under_rdd() {
    let (mesh, dm, mat, loads) = prescribed_problem();
    let _ = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(node_strips(&mesh, 3)))
        .run_multi(std::slice::from_ref(&loads));
}

/// The deflated restart re-orthonormalises the basis it carries with one
/// Gram reduction per restart. Without that step the Pythagorean norm of
/// P ≥ 2 lets the carried basis drift: the Givens estimate keeps falling
/// while the true residual does not, and the solve stalls at its iteration
/// cap. Pinned at P = 2 on both strategies: the session restarts at least
/// five times at the paper's m = 25, its gathered solution meets the
/// tolerance on the true residual ‖f − Ku‖/‖f‖, and it costs at most 1.3×
/// the iterations of the same solve at restart 100.
#[test]
fn deflated_restart_keeps_the_true_residual_at_p2() {
    let (mesh, dm, mat, loads) = problem(40, 40);
    let global = assembly::build_static(&mesh, &dm, &mat, &loads);
    let tol = 1e-8;
    let solve = |strategy: &Strategy, restart: usize| {
        let config = SolverConfig {
            gmres: GmresConfig {
                tol,
                restart,
                max_iters: 1000,
                ..Default::default()
            },
            precond: PrecondSpec::Gls {
                degree: 2,
                theta: None,
            },
            ..cfg()
        };
        SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .strategy(strategy.clone())
            .config(config)
            .run()
            .expect("P = 2 solve")
    };
    let strategies = [
        ("EDD", Strategy::Edd(ElementPartition::strips_x(&mesh, 2))),
        ("RDD", Strategy::Rdd(node_strips(&mesh, 2))),
    ];
    for (name, strategy) in &strategies {
        let dr = solve(strategy, 25);
        let long = solve(strategy, 100);
        let (its, long_its) = (dr.history.iterations(), long.history.iterations());
        assert!(
            dr.history.converged(),
            "{name}: {:?} after {its}",
            dr.history.stop
        );
        assert!(
            dr.history.restarts >= 5,
            "{name}: {} restarts",
            dr.history.restarts
        );
        let ku = global.stiffness.spmv(&dr.u);
        let r: Vec<f64> = global.rhs.iter().zip(&ku).map(|(f, k)| f - k).collect();
        let true_rel = dense::norm2(&r) / dense::norm2(&global.rhs);
        assert!(true_rel <= 2.0 * tol, "{name}: true residual {true_rel:e}");
        assert!(
            10 * its <= 13 * long_its,
            "{name}: {its} iterations at restart 25 vs {long_its} at restart 100"
        );
    }
}

/// A pseudo-random nodal load in `[-1, 1)` on the free dofs (an LCG, so
/// the loads are unrelated to each other and to the geometry).
fn random_load(dm: &DofMap, seed: u64) -> Vec<f64> {
    let step = |s: u64| {
        s.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    };
    let mut state = step(seed);
    (0..dm.n_dofs())
        .map(|d| {
            state = step(state);
            let v = (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
            if dm.is_fixed(d) {
                0.0
            } else {
                v
            }
        })
        .collect()
}

/// Recycling across right-hand sides at P = 2: three unrelated loads,
/// where the first solve restarts at least twice. Each later right-hand
/// side starts from the first solve's harmonic Ritz pair, takes at most
/// 0.7× its iterations (113, then 57 and 56 under `gls:3` on both
/// strategies), and meets the true residual ‖f − Ku‖/‖f‖ ≤ 2 tol.
#[test]
fn recycled_right_hand_sides_converge_faster_at_p2() {
    let (mesh, dm, mat, _) = problem(40, 40);
    let tol = 1e-8;
    let rhs_set: Vec<Vec<f64>> = (1..=3).map(|seed| random_load(&dm, seed)).collect();
    let config = SolverConfig {
        gmres: GmresConfig {
            tol,
            max_iters: 2000,
            ..Default::default()
        },
        precond: PrecondSpec::Gls {
            degree: 3,
            theta: None,
        },
        ..cfg()
    };
    let strategies = [
        ("EDD", Strategy::Edd(ElementPartition::strips_x(&mesh, 2))),
        ("RDD", Strategy::Rdd(node_strips(&mesh, 2))),
    ];
    for (name, strategy) in &strategies {
        let multi = SolveSession::new(Problem::new(&mesh, &dm, &mat, &rhs_set[0]))
            .strategy(strategy.clone())
            .config(config.clone())
            .run_multi(&rhs_set)
            .expect("P = 2 multi-RHS session");
        let its: Vec<usize> = multi.histories.iter().map(|h| h.iterations()).collect();
        assert!(multi.all_converged(), "{name}: {its:?}");
        assert!(
            multi.histories[0].restarts >= 2,
            "{name}: the first solve restarted {} times",
            multi.histories[0].restarts
        );
        for (i, (u, rhs)) in multi.solutions.iter().zip(&rhs_set).enumerate() {
            let system = assembly::build_static(&mesh, &dm, &mat, rhs);
            let rho = common::true_rel_residual(&system, u);
            assert!(rho <= 2.0 * tol, "{name} RHS {i}: true residual {rho:e}");
            assert!(
                i == 0 || 10 * its[i] <= 7 * its[0],
                "{name} RHS {i}: {} iterations vs the first {}",
                its[i],
                its[0]
            );
        }
    }
}

/// EDD and RDD on the *same* `graph` and `blocks` element partitions — RDD
/// owning each node by the lowest part among its elements — agree with the
/// sequential direct solution `u*` of the assembled system. The bound comes
/// from the residual: `u − u* = −K⁻¹ r` exactly, so the error may not
/// exceed twice the direct solve of the true residual `r = f − K u` (plus
/// rounding).
#[test]
fn edd_and_rdd_agree_with_direct_on_the_same_graph_and_block_partitions() {
    use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
    let quad = problem(24, 8);
    let hex = HexMesh::cantilever(6, 3, 3);
    let mut hex_dm = DofMap::with_dofs(hex.n_nodes(), 3);
    hex.face_nodes(Face::XMin)
        .into_iter()
        .for_each(|n| hex_dm.clamp_node(n));
    let mut hex_loads = vec![0.0; hex_dm.n_dofs()];
    assembly::face_load(&hex, &hex_dm, Face::XMax, [0.0, 0.0, -1.0], &mut hex_loads);
    let mat = Material::unit();
    let cases = [
        ("quad 24x8", Discretization::from(&quad.0), &quad.1, &quad.3),
        ("hex 6x3x3", Discretization::from(&hex), &hex_dm, &hex_loads),
    ];
    for (name, disc, dm, loads) in cases {
        let system = assembly::build_static(disc, dm, &mat, loads);
        let factor = SparseLdlt::factor(&system.stiffness, DEFAULT_PIVOT_TOL);
        let mut direct = system.rhs.clone();
        factor.solve_in_place(&mut direct);
        let mesh = disc.mesh();
        for spec in [PartitionerSpec::Graph, PartitionerSpec::Blocks] {
            for p in [3, 4] {
                let elements = spec.element_partition(&mesh, p);
                let nodes = NodePartition::from_elements(&elements, &mesh).unwrap();
                let session =
                    || SolveSession::new(Problem::new(disc, dm, &mat, loads)).config(cfg());
                for (strategy, run) in [
                    ("EDD", session().strategy(Strategy::Edd(elements.clone()))),
                    ("RDD", session().strategy(Strategy::Rdd(nodes.clone()))),
                ] {
                    let what = format!("{name} {spec} P = {p} {strategy}");
                    let out = run.run().expect("fault-free solve");
                    assert!(out.history.converged(), "{what}");
                    let ku = system.stiffness.spmv(&out.u);
                    let mut r: Vec<f64> =
                        (system.rhs.iter().zip(&ku)).map(|(f, k)| f - k).collect();
                    factor.solve_in_place(&mut r);
                    let error = (out.u.iter().zip(&direct))
                        .map(|(u, d)| (u - d).powi(2))
                        .sum::<f64>()
                        .sqrt();
                    let bound = 2.0 * dense::norm2(&r) + 1e-12 * dense::norm2(&direct);
                    assert!(error <= bound, "{what}: |u - u*| = {error:e} > {bound:e}");
                    assert!(error <= 1e-6 * dense::norm2(&direct), "{what}: {error:e}");
                }
            }
        }
    }
}
