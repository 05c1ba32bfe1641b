//! Contract tests for the [`SolveSession`] builder, the one way into the
//! distributed solvers.
//!
//! Three layers of guarantee (the golden digests in `golden.rs` pin the
//! absolute values; here we pin *relative* identities between call forms):
//!
//! - **option orthogonality** — tracing, fault injection and overlapped
//!   exchange compose on one builder without changing the numbers;
//! - **multi-RHS reuse** — `run_multi` shares scaling/layout/workspace
//!   across right-hand sides yet stays bit-identical to independent
//!   single-RHS runs;
//! - **inhomogeneous Dirichlet data** — `run()` carries the lift of
//!   non-zero prescribed values for both strategies, and `run_multi`
//!   refuses what it cannot represent.

use parfem_dd::{
    DdSolveOutput, EddVariant, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy,
};
use parfem_fem::{assembly, Material, NewmarkParams, SubdomainSystem};
use parfem_krylov::gmres::{fgmres, GmresConfig, Orthogonalization};
use parfem_mesh::{
    DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, PartitionerSpec, QuadMesh,
};
use parfem_msg::{FaultPlan, MachineModel};
use parfem_precond::GlsPrecond;
use parfem_sparse::scaling::scale_system;
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
/// converging solve for the seeded graph partitioner whose solution agrees
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
        .partitioned(PartitionerSpec::Graph { seed: 1 }, 4)
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

/// The kernel follows from the physics and every solve names it: an EDD
/// rank applies node blocks of its DOFs per node (`bcsr2` plane elasticity,
/// `bcsr3` solids, `csr` for the scalar heat problem), the overlapped split
/// schedule runs — and reports — the same kernel with the same bits, and the
/// RDD block rows report `csr`.
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
    let rdd2 = NodePartition::strips_x(&mesh, 2);
    check(
        || SolveSession::new(plane).strategy(Strategy::Edd(edd2.clone())),
        "bcsr2",
    );
    check(
        || SolveSession::new(plane).strategy(Strategy::Rdd(rdd2.clone())),
        "csr",
    );

    let mut heat_dm = DofMap::with_dofs(mesh.n_nodes(), 1);
    heat_dm.clamp_edge(&mesh, Edge::Left);
    let mut source = vec![0.0; heat_dm.n_dofs()];
    assembly::edge_source(&mesh, &heat_dm, Edge::Right, 1.0, &mut source);
    let heat = Problem::heat(&mesh, &heat_dm, &mat, &source);
    check(
        || SolveSession::new(heat).strategy(Strategy::Edd(edd2.clone())),
        "csr",
    );

    let hex = HexMesh::cantilever(6, 3, 3);
    let mut hex_dm = DofMap::with_dofs(hex.n_nodes(), 3);
    for node in hex.face_nodes(Face::XMin) {
        hex_dm.clamp_node(node);
    }
    let mut hex_loads = vec![0.0; hex_dm.n_dofs()];
    assembly::face_load(&hex, &hex_dm, Face::XMax, [0.0, 0.0, -1.0], &mut hex_loads);
    let solid = Problem::elasticity3d(&hex, &hex_dm, &mat, &hex_loads);
    check(
        || SolveSession::new(solid).partitioned(PartitionerSpec::Strips, 2),
        "bcsr3",
    );
}

/// `run_multi` shares one scaling/layout/preconditioner across right-hand
/// sides and still matches independent single-RHS sessions bit for bit.
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
    assert!(multi.all_converged());
    assert_eq!(multi.solutions.len(), 2);

    for (i, rhs) in [loads.clone(), loads2].into_iter().enumerate() {
        let single = SolveSession::new(Problem::new(&mesh, &dm, &mat, &rhs))
            .strategy(Strategy::Edd(part.clone()))
            .config(cfg())
            .run()
            .unwrap();
        assert_eq!(
            multi.solutions[i], single.u,
            "RHS {i}: multi-solve bits differ from the single-RHS session"
        );
        assert_eq!(
            multi.histories[i].relative_residuals, single.history.relative_residuals,
            "RHS {i}: residual histories differ"
        );
    }
}

/// `from_systems` (systems the caller assembled, borrowed by the ranks)
/// equals the mesh-level path (every rank assembles its own) bit for bit,
/// one- and two-level, for one to three ranks. Prebuilt systems carry no
/// node coordinates, so the rigid-body coarse space is a typed refusal.
#[test]
fn from_systems_matches_mesh_level_session() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    for p in 1..=3 {
        let part = ElementPartition::strips_x(&mesh, p);
        let systems: Vec<SubdomainSystem> = part
            .subdomains(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, None))
            .collect();
        for spec in ["gls:5", "gls:7", "twolevel:const:gls-3"] {
            let spec = PrecondSpec::parse(spec).unwrap();
            let rank_built = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
                .strategy(Strategy::Edd(part.clone()))
                .config(cfg())
                .precond(spec.clone())
                .run()
                .unwrap();
            assert!(rank_built.history.converged());
            let caller_built = SolveSession::from_systems(&systems, dm.n_dofs())
                .config(cfg())
                .precond(spec.clone())
                .run()
                .unwrap();
            let what = format!("rank-built vs caller-built, {} on {p} ranks", spec.name());
            assert_bit_identical(&rank_built, &caller_built, &what);
        }
        let refused = SolveSession::from_systems(&systems, dm.n_dofs())
            .precond(PrecondSpec::parse("twolevel:rbm:gls-3").unwrap())
            .run()
            .unwrap_err();
        assert!(refused.is_config_error(), "{refused}");
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
        Strategy::Rdd(NodePartition::strips_x(&mesh, 3)),
    ];
    for strategy in strategies {
        for (without, with) in [
            ("none", "direct"),
            ("twolevel:const:none", "twolevel:const:direct"),
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
        (Strategy::Rdd(NodePartition::strips_x(&mesh, 3)), false),
    ];
    for (strategy, interface_sums) in strategies {
        for (without, with) in [
            ("none", "direct"),
            ("twolevel:const:none", "twolevel:const:direct"),
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
        ("rdd", Strategy::Rdd(NodePartition::strips_x(&mesh, 2))),
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
        ("rdd", Strategy::Rdd(NodePartition::strips_x(&mesh, 1))),
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
        .run_dynamic(NewmarkParams::average_acceleration(1.0), 3, &[tip]);
    assert!(out.all_converged, "every Newmark step must converge");
    assert_eq!(out.watch_histories.len(), 1);
    assert_eq!(out.watch_histories[0].len(), 3);
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
            ("rdd", Strategy::Rdd(NodePartition::strips_x(&mesh, p))),
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
        .strategy(Strategy::Rdd(NodePartition::strips_x(&mesh, 3)))
        .run_multi(std::slice::from_ref(&loads));
}
