//! Parallel behaviour across the full stack: rank-count invariance,
//! variant equivalence, communication accounting, machine models.

use parfem::prelude::*;

fn problem() -> CantileverProblem {
    CantileverProblem::new(24, 6, Material::unit(), LoadCase::PullX(1.0))
}

fn edd(
    p: &CantileverProblem,
    part: ElementPartition,
    model: MachineModel,
    cfg: &SolverConfig,
) -> DdSolveOutput {
    SolveSession::new(p.as_problem())
        .strategy(Strategy::Edd(part))
        .config(cfg.clone())
        .machine(model)
        .run()
        .expect("fault-free solve")
}

fn rdd(
    p: &CantileverProblem,
    part: NodePartition,
    model: MachineModel,
    cfg: &SolverConfig,
) -> DdSolveOutput {
    SolveSession::new(p.as_problem())
        .strategy(Strategy::Rdd(part))
        .config(cfg.clone())
        .machine(model)
        .run()
        .expect("fault-free solve")
}

#[test]
fn iteration_count_is_independent_of_rank_count() {
    // EDD-FGMRES runs the *same* Krylov iteration regardless of P (only the
    // data distribution changes), so iteration counts must agree across P —
    // which is what makes the paper's speedup comparisons meaningful
    // (Table 3 shows near-identical iteration columns across P).
    let p = problem();
    let cfg = SolverConfig::default();
    let mut iters = Vec::new();
    for ranks in [1usize, 2, 3, 4, 6, 8] {
        let out = edd(
            &p,
            ElementPartition::strips_x(&p.mesh, ranks),
            MachineModel::ideal(),
            &cfg,
        );
        assert!(out.history.converged(), "P={ranks}");
        iters.push(out.history.iterations());
    }
    let min = *iters.iter().min().unwrap();
    let max = *iters.iter().max().unwrap();
    assert!(
        max - min <= 1,
        "iteration counts vary too much across P: {iters:?}"
    );
}

#[test]
fn solutions_agree_across_rank_counts_to_solver_tolerance() {
    let p = problem();
    let cfg = SolverConfig {
        gmres: GmresConfig {
            tol: 1e-10,
            ..Default::default()
        },
        ..Default::default()
    };
    let reference = edd(
        &p,
        ElementPartition::strips_x(&p.mesh, 1),
        MachineModel::ideal(),
        &cfg,
    );
    let scale = reference.u.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for ranks in [2usize, 4, 8] {
        let out = edd(
            &p,
            ElementPartition::strips_x(&p.mesh, ranks),
            MachineModel::ideal(),
            &cfg,
        );
        for (a, b) in out.u.iter().zip(&reference.u) {
            assert!((a - b).abs() < 1e-6 * scale, "P={ranks}: {a} vs {b}");
        }
    }
}

#[test]
fn runs_are_deterministic() {
    // Two identical parallel runs must produce bit-identical solutions
    // (rank-ordered reductions, fixed exchange order).
    let p = problem();
    let cfg = SolverConfig::default();
    let part = ElementPartition::strips_x(&p.mesh, 4);
    let a = edd(&p, part.clone(), MachineModel::ideal(), &cfg);
    let b = edd(&p, part, MachineModel::ideal(), &cfg);
    assert_eq!(a.u, b.u, "parallel runs must be deterministic");
    assert_eq!(a.history.iterations(), b.history.iterations());
    assert_eq!(a.modeled_time, b.modeled_time);
}

#[test]
fn table1_exchange_counts_basic_vs_enhanced_vs_rdd() {
    // The paper's Table 1: per Arnoldi iteration the basic EDD solver
    // (Alg. 5) does 3 interface exchanges, the enhanced one (Alg. 6) and
    // RDD (Alg. 8) 1 each (plus the preconditioner's internal products,
    // identical across all three).
    let p = problem();
    let degree = 3;
    let mk_cfg = |variant| SolverConfig {
        gmres: GmresConfig::default(),
        precond: PrecondSpec::Gls {
            degree,
            theta: None,
        },
        variant,
        overlap: false,
        ..Default::default()
    };
    let part = ElementPartition::strips_x(&p.mesh, 4);
    let basic = edd(
        &p,
        part.clone(),
        MachineModel::ideal(),
        &mk_cfg(EddVariant::Basic),
    );
    let enhanced = edd(
        &p,
        part,
        MachineModel::ideal(),
        &mk_cfg(EddVariant::Enhanced),
    );
    assert_eq!(basic.history.iterations(), enhanced.history.iterations());
    let iters = basic.history.iterations() as u64;
    let xb = basic.reports[0].stats.neighbor_exchanges;
    let xe = enhanced.reports[0].stats.neighbor_exchanges;
    assert_eq!(xb - xe, 2 * iters, "basic must pay 2 extra exchanges/iter");

    // Per-iteration exchange rate: enhanced = 1 + degree (matvec + precond).
    let per_iter = (xe as f64 - 2.0) / iters as f64; // subtract setup+initial
    assert!(
        (per_iter - (1.0 + degree as f64)).abs() < 0.5,
        "enhanced per-iteration exchanges {per_iter}"
    );
}

#[test]
fn sp2_models_slower_than_origin_and_speedup_orders_match_fig17e() {
    let p = problem();
    let cfg = SolverConfig::default();
    let mut speedups = Vec::new();
    for model in [MachineModel::ibm_sp2(), MachineModel::sgi_origin()] {
        let t1 = edd(
            &p,
            ElementPartition::strips_x(&p.mesh, 1),
            model.clone(),
            &cfg,
        )
        .modeled_time;
        let t8 = edd(
            &p,
            ElementPartition::strips_x(&p.mesh, 8),
            model.clone(),
            &cfg,
        )
        .modeled_time;
        speedups.push(t1 / t8);
    }
    // Fig. 17(e): the Origin achieves better speedup than the SP2.
    assert!(
        speedups[1] > speedups[0],
        "Origin {:.2} should beat SP2 {:.2}",
        speedups[1],
        speedups[0]
    );
    // Both sublinear but real.
    for s in speedups {
        assert!(s > 2.0 && s < 8.0, "speedup {s} implausible");
    }
}

#[test]
fn larger_problems_scale_better() {
    // Fig. 17(c,d): parallel efficiency at fixed P grows with problem size.
    let cfg = SolverConfig::default();
    let mut effs = Vec::new();
    for (nx, ny) in [(16usize, 8usize), (48, 24)] {
        let p = CantileverProblem::new(nx, ny, Material::unit(), LoadCase::PullX(1.0));
        let t1 = edd(
            &p,
            ElementPartition::strips_x(&p.mesh, 1),
            MachineModel::ibm_sp2(),
            &cfg,
        )
        .modeled_time;
        let t8 = edd(
            &p,
            ElementPartition::strips_x(&p.mesh, 8),
            MachineModel::ibm_sp2(),
            &cfg,
        )
        .modeled_time;
        effs.push(t1 / t8 / 8.0);
    }
    assert!(
        effs[1] > effs[0],
        "efficiency must grow with size: {effs:?}"
    );
}

#[test]
fn extreme_partition_one_element_per_rank_still_works() {
    // Stress the interface machinery: every element its own subdomain, so
    // every node is an interface node with multiplicity up to 4.
    let p = CantileverProblem::new(4, 3, Material::unit(), LoadCase::PullX(1.0));
    let n_elems = p.mesh.n_elems();
    let owner: Vec<usize> = (0..n_elems).collect();
    let part = ElementPartition::from_owner(n_elems, owner);
    let out = edd(
        &p,
        part,
        MachineModel::ideal(),
        &SolverConfig {
            gmres: GmresConfig {
                tol: 1e-9,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    assert!(out.history.converged());
    let sys = p.static_system();
    let r = sys.stiffness.spmv(&out.u);
    let err: f64 = r
        .iter()
        .zip(&sys.rhs)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt();
    let scale: f64 = sys.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(err < 1e-6 * scale, "residual {err}");
}

#[test]
fn rdd_and_edd_exchange_comparable_bytes_per_iteration() {
    // Both strategies exchange one halo per matvec; the paper's Table 1
    // says their leading-order communication volume matches.
    let p = problem();
    let cfg = SolverConfig::default();
    let e = edd(
        &p,
        ElementPartition::strips_x(&p.mesh, 4),
        MachineModel::ideal(),
        &cfg,
    );
    let r = rdd(
        &p,
        // The node partition of the same element strips, for fairness.
        NodePartition::from_elements(&ElementPartition::strips_x(&p.mesh, 4), &p.mesh).unwrap(),
        MachineModel::ideal(),
        &cfg,
    );
    let be = e.reports[0].stats.bytes_sent as f64 / e.history.iterations() as f64;
    let br = r.reports[0].stats.bytes_sent as f64 / r.history.iterations() as f64;
    let ratio = be / br;
    assert!(
        (0.3..3.0).contains(&ratio),
        "per-iteration byte volumes diverge: EDD {be:.0} vs RDD {br:.0}"
    );
}
