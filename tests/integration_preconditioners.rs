//! Cross-cutting preconditioner behaviour: the polynomial theory of
//! Section 2 must predict the solver behaviour of Section 6.

use parfem::precond::gls::GlsPrecond;
use parfem::precond::neumann::NeumannPrecond;
use parfem::precond::poly::stability_bound;
use parfem::prelude::*;

/// The GLS polynomial of `degree` on the post-scaling `(ε, 1)`.
fn gls(degree: usize) -> PrecondSpec {
    PrecondSpec::Gls {
        degree,
        theta: None,
    }
}

#[test]
fn gls_residual_norm_predicts_iteration_ordering() {
    // Smaller weighted residual norm ||1 - lambda P||_w (theory) must mean
    // fewer FGMRES iterations (practice) on the same scaled system.
    let p = CantileverProblem::paper_mesh(2);
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for m in [1usize, 3, 7, 10] {
        let norm = GlsPrecond::for_scaled_system(m).weighted_residual_norm();
        let (_, h) = solve_static(&p, &gls(m), &cfg).unwrap();
        rows.push((m, norm, h.iterations()));
    }
    for w in rows.windows(2) {
        let (m0, n0, i0) = w[0];
        let (m1, n1, i1) = w[1];
        assert!(
            n1 < n0,
            "norm must fall with degree: gls({m0})={n0}, gls({m1})={n1}"
        );
        assert!(
            i1 <= i0,
            "iterations must not grow with degree here: gls({m0})={i0}, gls({m1})={i1}"
        );
    }
}

#[test]
fn neumann_residual_closed_form_bounds_convergence() {
    // With sigma(A) in (0,1) after scaling, the Neumann residual at the
    // smallest eigenvalue bounds how much one preconditioner application
    // can gain — degree 20 must beat degree 5 in iterations.
    let p = CantileverProblem::paper_mesh(2);
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };
    let (_, h5) = solve_static(&p, &PrecondSpec::Neumann { degree: 5 }, &cfg).unwrap();
    let (_, h20) = solve_static(&p, &PrecondSpec::Neumann { degree: 20 }, &cfg).unwrap();
    assert!(h5.converged() && h20.converged());
    assert!(
        h20.iterations() < h5.iterations(),
        "neumann(20) {} vs neumann(5) {}",
        h20.iterations(),
        h5.iterations()
    );
    // And the scalar residual ordering agrees.
    let r5 = NeumannPrecond::for_scaled_system(5).residual(0.05).abs();
    let r20 = NeumannPrecond::for_scaled_system(20).residual(0.05).abs();
    assert!(r20 < r5);
}

#[test]
fn paper_fig11_ordering_gls_beats_others_on_mesh2() {
    // Fig. 11's headline ordering: gls(7) converges faster than ilu(0)
    // and neumann(20) converges comparably — we assert the invariant the
    // paper stresses: polynomial preconditioning is at least competitive
    // with ILU(0) while using only matvecs.
    let p = CantileverProblem::paper_mesh(2);
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };
    let (_, h_gls) = solve_static(&p, &gls(7), &cfg).unwrap();
    let (_, h_ilu) = solve_static(&p, &PrecondSpec::Ilu0, &cfg).unwrap();
    let (_, h_neu) = solve_static(&p, &PrecondSpec::Neumann { degree: 20 }, &cfg).unwrap();
    assert!(h_gls.converged() && h_ilu.converged() && h_neu.converged());
    assert!(
        h_gls.iterations() < h_ilu.iterations(),
        "gls(7) {} must beat ilu(0) {}",
        h_gls.iterations(),
        h_ilu.iterations()
    );
    assert!(
        h_neu.iterations() < h_ilu.iterations(),
        "neumann(20) {} vs ilu(0) {}",
        h_neu.iterations(),
        h_ilu.iterations()
    );
}

#[test]
fn fig3_stability_bound_explodes_past_degree_ten() {
    // The paper restricts practical degrees to <= 10 because the
    // accumulated roundoff bound m*eps*sum|a_i| grows explosively.
    let eps = f64::EPSILON;
    let b5 = stability_bound(&GlsPrecond::for_scaled_system(5).monomial(), eps);
    let b10 = stability_bound(&GlsPrecond::for_scaled_system(10).monomial(), eps);
    let b20 = stability_bound(&GlsPrecond::for_scaled_system(20).monomial(), eps);
    assert!(b10 > 10.0 * b5);
    assert!(b20 > 1000.0 * b10);
    // Degree 10 still leaves plenty of double-precision headroom...
    assert!(b10 < 1e-6);
    // ...while degree 20's bound is already within a few orders of the
    // solver tolerance (1e-6), i.e. practically risky.
    assert!(b20 > 1e-4);
}

#[test]
fn high_degree_stops_paying_off_on_larger_meshes() {
    // Table 3's observation: gls(10) converges in fewer iterations than
    // gls(7) but costs more matvecs per iteration; total matvec count
    // (iterations x degree) must NOT improve proportionally. We assert the
    // cost metric: total operator applications for gls(10) exceed gls(7)'s
    // on a larger mesh.
    let p = CantileverProblem::paper_mesh(3);
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };
    let (_, h7) = solve_static(&p, &gls(7), &cfg).unwrap();
    let (_, h10) = solve_static(&p, &gls(10), &cfg).unwrap();
    let cost7 = h7.iterations() * (7 + 1);
    let cost10 = h10.iterations() * (10 + 1);
    assert!(
        cost10 as f64 > 0.8 * cost7 as f64,
        "gls(10) total cost {cost10} vs gls(7) {cost7}: the paper's trade-off vanished"
    );
}

#[test]
fn escalating_gls_runs_distributed_and_converges() {
    // Flexible GMRES with a per-rank degree schedule: every rank applies
    // the same sequence of polynomial degrees, so the distributed iterates
    // remain consistent — and the answer matches a fixed-degree run.
    let p = CantileverProblem::new(16, 4, Material::unit(), LoadCase::PullX(1.0));
    let part = ElementPartition::strips_x(&p.mesh, 4);
    let cfg_esc = SolverConfig {
        gmres: GmresConfig {
            tol: 1e-9,
            ..Default::default()
        },
        precond: PrecondSpec::GlsEscalating { period: 3 },
        variant: EddVariant::Enhanced,
        overlap: false,
        ..Default::default()
    };
    let cfg_fixed = SolverConfig {
        gmres: GmresConfig {
            tol: 1e-9,
            ..Default::default()
        },
        precond: PrecondSpec::Gls {
            degree: 7,
            theta: None,
        },
        variant: EddVariant::Enhanced,
        overlap: false,
        ..Default::default()
    };
    let esc = SolveSession::new(p.as_problem())
        .strategy(Strategy::Edd(part.clone()))
        .config(cfg_esc)
        .run()
        .expect("fault-free solve");
    let fixed = SolveSession::new(p.as_problem())
        .strategy(Strategy::Edd(part))
        .config(cfg_fixed)
        .run()
        .expect("fault-free solve");
    assert!(esc.history.converged() && fixed.history.converged());
    let scale = fixed.u.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for (a, b) in esc.u.iter().zip(&fixed.u) {
        assert!((a - b).abs() < 1e-5 * scale, "{a} vs {b}");
    }
}

#[test]
fn edd_gls_equals_rdd_gls_in_iterations() {
    // The preconditioned operator is identical under both decompositions,
    // so iteration counts must match (±1 for floating-point noise).
    let p = CantileverProblem::new(20, 5, Material::unit(), LoadCase::PullX(1.0));
    let cfg = SolverConfig {
        gmres: GmresConfig::default(),
        precond: PrecondSpec::Gls {
            degree: 7,
            theta: None,
        },
        variant: EddVariant::Enhanced,
        overlap: false,
        ..Default::default()
    };
    let strips = ElementPartition::strips_x(&p.mesh, 4);
    let nodes = NodePartition::from_elements(&strips, &p.mesh).unwrap();
    let edd = SolveSession::new(p.as_problem())
        .strategy(Strategy::Edd(strips))
        .config(cfg.clone())
        .run()
        .expect("fault-free solve");
    let rdd = SolveSession::new(p.as_problem())
        .strategy(Strategy::Rdd(nodes))
        .config(cfg)
        .run()
        .expect("fault-free solve");
    let (ie, ir) = (edd.history.iterations(), rdd.history.iterations());
    // EDD scales with the distributed (Algorithm 3) row sums, RDD with the
    // assembled sums, so tiny differences are expected.
    assert!(
        ie.abs_diff(ir) <= 2,
        "EDD {ie} vs RDD {ir} iterations diverge"
    );
}
