//! End-to-end cases of the deleted legacy driver (`solve_edd`, `solve_rdd`
//! and their traced twins), ported onto [`SolveSession`].
//! They stay in the library's test build, under their historical
//! `driver::tests::*` names, because the tier-1 floor tracks tests by name.

use crate::edd::EddVariant;
use crate::session::{DdSolveOutput, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy};
use parfem_fem::{assembly, Material};
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{DofMap, Edge, ElementPartition, NodePartition, QuadMesh};
use parfem_msg::MachineModel;
use parfem_trace::TraceSink;

type Cantilever = (QuadMesh, DofMap, Material, Vec<f64>);

fn problem(nx: usize, ny: usize) -> Cantilever {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    (mesh, dm, mat, loads)
}

/// One session solve of `problem` under `strategy`, optionally traced.
fn solve(
    (mesh, dm, mat, loads): &Cantilever,
    strategy: Strategy,
    model: MachineModel,
    cfg: &SolverConfig,
    sink: Option<&TraceSink>,
) -> DdSolveOutput {
    let session = SolveSession::new(Problem::new(mesh, dm, mat, loads))
        .strategy(strategy)
        .config(cfg.clone())
        .machine(model);
    match sink {
        Some(sink) => session.trace(sink).run(),
        None => session.run(),
    }
    .unwrap_or_else(|failures| panic!("distributed solve failed: {failures}"))
}

fn solve_edd(
    p: &Cantilever,
    parts: usize,
    model: MachineModel,
    cfg: &SolverConfig,
) -> DdSolveOutput {
    let strategy = Strategy::Edd(ElementPartition::strips_x(&p.0, parts));
    solve(p, strategy, model, cfg, None)
}

fn solve_rdd(
    p: &Cantilever,
    parts: usize,
    model: MachineModel,
    cfg: &SolverConfig,
) -> DdSolveOutput {
    let strips = ElementPartition::strips_x(&p.0, parts);
    let strategy = Strategy::Rdd(NodePartition::from_elements(&strips, &p.0).unwrap());
    solve(p, strategy, model, cfg, None)
}

fn solve_edd_traced(
    p: &Cantilever,
    parts: usize,
    model: MachineModel,
    sink: &TraceSink,
) -> DdSolveOutput {
    let strategy = Strategy::Edd(ElementPartition::strips_x(&p.0, parts));
    solve(p, strategy, model, &SolverConfig::default(), Some(sink))
}

/// A mesh-level EDD session over the element strips of any mesh.
fn solve_strips(problem: Problem<'_>, parts: usize) -> DdSolveOutput {
    let part = ElementPartition::blocks_of(&problem.discretization.mesh(), parts, 1);
    SolveSession::new(problem)
        .strategy(Strategy::Edd(part))
        .run()
        .unwrap_or_else(|failures| panic!("distributed solve failed: {failures}"))
}

fn residual((mesh, dm, mat, loads): &Cantilever, u: &[f64]) -> f64 {
    let sys = assembly::build_static(mesh, dm, mat, loads);
    let r = sys.stiffness.spmv(u);
    r.iter()
        .zip(&sys.rhs)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[test]
fn edd_driver_solves_cantilever() {
    let p = problem(8, 3);
    let out = solve_edd(&p, 4, MachineModel::ideal(), &SolverConfig::default());
    assert!(out.history.converged());
    assert!(residual(&p, &out.u) < 1e-4);
    assert_eq!(out.reports.len(), 4);
    assert!(out.modeled_time > 0.0);
}

#[test]
fn rdd_driver_solves_cantilever() {
    let p = problem(8, 3);
    let out = solve_rdd(&p, 4, MachineModel::ideal(), &SolverConfig::default());
    assert!(out.history.converged());
    assert!(residual(&p, &out.u) < 1e-4);
}

#[test]
fn edd_and_rdd_agree_on_the_solution() {
    let p = problem(6, 3);
    let cfg = SolverConfig {
        gmres: GmresConfig {
            tol: 1e-10,
            ..Default::default()
        },
        ..Default::default()
    };
    let ue = solve_edd(&p, 3, MachineModel::ideal(), &cfg);
    let ur = solve_rdd(&p, 3, MachineModel::ideal(), &cfg);
    let scale = ue.u.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-12);
    for (a, b) in ue.u.iter().zip(&ur.u) {
        assert!((a - b).abs() < 1e-5 * scale, "{a} vs {b}");
    }
}

#[test]
fn all_precond_specs_run_edd() {
    let p = problem(6, 2);
    for spec in [
        PrecondSpec::None,
        PrecondSpec::Jacobi,
        PrecondSpec::Gls {
            degree: 5,
            theta: None,
        },
        PrecondSpec::Neumann { degree: 8 },
        PrecondSpec::Chebyshev { degree: 8 },
        PrecondSpec::GlsEscalating { period: 3 },
    ] {
        let cfg = SolverConfig {
            gmres: GmresConfig {
                max_iters: 5000,
                ..Default::default()
            },
            precond: spec.clone(),
            ..Default::default()
        };
        let out = solve_edd(&p, 2, MachineModel::ideal(), &cfg);
        assert!(
            out.history.converged(),
            "{} failed to converge",
            spec.name()
        );
    }
}

#[test]
fn modeled_time_shrinks_with_more_ranks_on_ideal_machine() {
    let p = problem(32, 8);
    let cfg = SolverConfig::default();
    let t1 = solve_edd(&p, 1, MachineModel::ideal(), &cfg).modeled_time;
    let t4 = solve_edd(&p, 4, MachineModel::ideal(), &cfg).modeled_time;
    let speedup = t1 / t4;
    assert!(
        speedup > 2.5,
        "ideal-machine speedup on 4 ranks too low: {speedup}"
    );
}

#[test]
fn edd_runs_on_triangle_meshes() {
    // The element-agnostic pipeline: T3 subdomains through the same
    // distributed solver, checked against the assembled T3 system.
    let tmesh = parfem_mesh::TriMesh::cantilever(8, 3);
    let mut dm = DofMap::new(tmesh.n_nodes());
    for n in tmesh.edge_nodes(Edge::Left) {
        dm.clamp_node(n);
    }
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    loads[dm.dof(tmesh.node_at(8, 3), 1)] = -1.0;
    let out = solve_strips(Problem::new(&tmesh, &dm, &mat, &loads), 3);
    assert!(out.history.converged());
    // Residual against the assembled T3 system.
    let k_raw = assembly::assemble_stiffness(&tmesh, &dm, &mat);
    let mut rhs = loads.clone();
    let k_bc = assembly::apply_dirichlet(&k_raw, &dm, &mut rhs);
    let r = k_bc.spmv(&out.u);
    let err: f64 = r
        .iter()
        .zip(&rhs)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!(err < 1e-5, "T3 residual {err}");
}

#[test]
fn edd_runs_on_quad8_meshes() {
    let emesh = parfem_mesh::Quad8Mesh::cantilever(6, 2);
    let mut dm = DofMap::new(emesh.n_nodes());
    for n in emesh.edge_nodes(Edge::Left) {
        dm.clamp_node(n);
    }
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    for n in emesh.edge_nodes(Edge::Right) {
        loads[dm.dof(n, 0)] = 0.2;
    }
    let out = solve_strips(Problem::new(&emesh, &dm, &mat, &loads), 3);
    assert!(out.history.converged());
    let k_raw = assembly::assemble_stiffness(&emesh, &dm, &mat);
    let mut rhs = loads.clone();
    let k_bc = assembly::apply_dirichlet(&k_raw, &dm, &mut rhs);
    let r = k_bc.spmv(&out.u);
    let err: f64 = r
        .iter()
        .zip(&rhs)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt();
    let scale: f64 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(err < 1e-5 * scale.max(1.0), "Q8 residual {err}");
}

#[test]
fn trace_comm_counts_match_live_stats_for_edd_solve() {
    // The trace reconstructs communication by *counting events*, so
    // agreement with the live CommStats is a real integrity check of
    // the whole instrumentation path.
    let p = problem(10, 4);
    let sink = TraceSink::recording();
    let out = solve_edd_traced(&p, 4, MachineModel::sgi_origin(), &sink);
    assert!(out.history.converged());
    let events = sink.take_events();
    let report = parfem_trace::TraceReport::from_events(&events);
    assert_eq!(report.nranks(), 4);
    for rank in &report.ranks {
        let live = &out.reports[rank.rank].stats;
        assert_eq!(rank.comm.sends, live.sends, "rank {} sends", rank.rank);
        assert_eq!(rank.comm.recvs, live.recvs, "rank {} recvs", rank.rank);
        assert_eq!(rank.comm.bytes_sent, live.bytes_sent);
        assert_eq!(rank.comm.bytes_received, live.bytes_received);
        assert_eq!(rank.comm.allreduces, live.allreduces);
        assert_eq!(rank.comm.allreduce_bytes, live.allreduce_bytes);
        assert_eq!(rank.comm.barriers, live.barriers);
        assert_eq!(rank.comm.neighbor_exchanges, live.neighbor_exchanges);
        assert!((rank.final_virt - out.reports[rank.rank].virtual_time).abs() < 1e-12);
    }
    // The solve summary instant reached the trace intact.
    let s = report.solve.as_ref().expect("solve summary");
    assert!(s.converged);
    assert_eq!(s.iterations, out.history.iterations() as u64);
    assert_eq!(s.variant, "edd-enhanced");
    assert_eq!(s.n_rhs, 1);
}

#[test]
fn trace_round_trips_through_jsonl() {
    // emit → encode → parse → aggregate must equal in-memory aggregate.
    let p = problem(6, 3);
    let sink = TraceSink::recording();
    let _ = solve_edd_traced(&p, 3, MachineModel::ideal(), &sink);
    let events = sink.take_events();
    let text = parfem_trace::jsonl::encode_all(&events);
    let parsed = parfem_trace::jsonl::decode_all(&text).expect("parseable JSONL");
    assert_eq!(events.len(), parsed.len());
    let direct = parfem_trace::TraceReport::from_events(&events);
    let round = parfem_trace::TraceReport::from_events(&parsed);
    assert_eq!(direct.comm_totals(), round.comm_totals());
    assert_eq!(direct.iters.len(), round.iters.len());
    assert_eq!(direct.solve, round.solve);
    for (a, b) in direct.ranks.iter().zip(&round.ranks) {
        assert_eq!(a.comm.sends, b.comm.sends);
        assert_eq!(a.comm.flops, b.comm.flops);
    }
}

#[test]
fn untraced_solve_is_unaffected_by_instrumentation() {
    // The disabled sink must leave results bit-identical to the traced
    // run (tracing reads state; it never perturbs the solve).
    let p = problem(8, 3);
    let plain = solve_edd(&p, 4, MachineModel::ideal(), &SolverConfig::default());
    let sink = TraceSink::recording();
    let traced = solve_edd_traced(&p, 4, MachineModel::ideal(), &sink);
    assert_eq!(plain.u, traced.u);
    assert_eq!(
        plain.history.relative_residuals,
        traced.history.relative_residuals
    );
    assert_eq!(plain.modeled_time, traced.modeled_time);
}

/// Blocking and overlapped runs of `solve` on the latency-bound IBM SP2.
fn blocking_and_overlapped(
    solve: fn(&Cantilever, usize, MachineModel, &SolverConfig) -> DdSolveOutput,
) -> (DdSolveOutput, DdSolveOutput) {
    let p = problem(16, 6);
    let overlapped = SolverConfig {
        overlap: true,
        ..Default::default()
    };
    let b = solve(&p, 4, MachineModel::ibm_sp2(), &SolverConfig::default());
    let o = solve(&p, 4, MachineModel::ibm_sp2(), &overlapped);
    assert_eq!(b.u, o.u, "overlap must not change the solution bits");
    assert_eq!(
        b.history.relative_residuals, o.history.relative_residuals,
        "overlap must not change the residual history bits"
    );
    assert!(
        o.modeled_time < b.modeled_time,
        "overlap must strictly improve modeled time: {} vs {}",
        o.modeled_time,
        b.modeled_time
    );
    (b, o)
}

#[test]
fn overlap_is_bit_identical_and_faster_on_latency_bound_machines() {
    // The overlapped schedule reorders only *when* rows are computed
    // relative to the in-flight exchange, never the arithmetic — so the
    // solution and residual history must be bit-identical — while the
    // modeled time strictly improves on a high-latency machine where
    // the interface exchange dominates.
    let (b, o) = blocking_and_overlapped(solve_edd);
    // Same communication volume either way: only the schedule differs.
    for (rb, ro) in b.reports.iter().zip(&o.reports) {
        assert_eq!(rb.stats.sends, ro.stats.sends);
        assert_eq!(rb.stats.bytes_sent, ro.stats.bytes_sent);
        assert_eq!(rb.stats.neighbor_exchanges, ro.stats.neighbor_exchanges);
    }
}

#[test]
fn rdd_overlap_is_bit_identical_and_faster_on_latency_bound_machines() {
    blocking_and_overlapped(solve_rdd);
}

#[test]
fn precond_spec_names_match_paper_labels() {
    assert_eq!(PrecondSpec::None.name(), "none");
    assert_eq!(
        PrecondSpec::Gls {
            degree: 10,
            theta: None
        }
        .name(),
        "gls(10)"
    );
    assert_eq!(PrecondSpec::Neumann { degree: 20 }.name(), "neumann(20)");
    assert_eq!(PrecondSpec::Jacobi.name(), "jacobi");
}

#[test]
fn variant_option_reaches_the_solver_through_the_session() {
    // Basic and enhanced EDD give the same solution; the variant shows in
    // the summary label and in Table 1's exchange count (Algorithm 5 pays
    // two more interface exchanges per iteration).
    let p = problem(6, 2);
    let run = |variant, label: &str| {
        let cfg = SolverConfig {
            variant,
            ..Default::default()
        };
        let sink = TraceSink::recording();
        let strategy = Strategy::Edd(ElementPartition::strips_x(&p.0, 2));
        let out = solve(&p, strategy, MachineModel::ideal(), &cfg, Some(&sink));
        assert!(out.history.converged());
        let report = parfem_trace::TraceReport::from_events(&sink.take_events());
        assert_eq!(report.solve.expect("solve summary").variant, label);
        out
    };
    let basic = run(EddVariant::Basic, "edd-basic");
    let enhanced = run(EddVariant::Enhanced, "edd-enhanced");
    assert_eq!(basic.history.iterations(), enhanced.history.iterations());
    assert_eq!(
        basic.reports[0].stats.neighbor_exchanges - enhanced.reports[0].stats.neighbor_exchanges,
        2 * basic.history.iterations() as u64
    );
}
