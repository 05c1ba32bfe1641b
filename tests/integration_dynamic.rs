//! End-to-end elastodynamics: Newmark time integration with iterative
//! solves in the loop, across all crates.

use parfem::prelude::*;

fn problem() -> CantileverProblem {
    CantileverProblem::new(16, 4, Material::unit(), LoadCase::ShearY(-1e-3))
}

fn gls(degree: usize) -> PrecondSpec {
    PrecondSpec::Gls {
        degree,
        theta: None,
    }
}

#[test]
fn effective_system_is_symmetric_positive_definite() {
    let p = problem();
    let (keff, _) = first_step_system(&p, 0.1);
    assert!(keff.is_symmetric(1e-10));
    // Positive diagonal everywhere (mass shift only adds).
    for (i, d) in keff.diagonal().iter().enumerate() {
        assert!(*d > 0.0, "non-positive diagonal at {i}");
    }
}

#[test]
fn smaller_time_steps_make_the_effective_system_easier() {
    // alpha = 1/(beta dt^2) grows as dt shrinks: the mass term dominates
    // and the preconditioned iteration count drops — the reason the paper's
    // dynamic convergence plots look better than the static ones.
    let p = problem();
    let cfg = GmresConfig {
        tol: 1e-8,
        max_iters: 50_000,
        ..Default::default()
    };
    let mut prev = usize::MAX;
    for dt in [10.0, 1.0, 0.1] {
        let (keff, rhs) = first_step_system(&p, dt);
        let (_, h) = solve_system(&keff, &rhs, &gls(3), &cfg).unwrap();
        assert!(h.converged(), "dt={dt}");
        assert!(
            h.iterations() <= prev,
            "dt={dt}: {} iterations (prev {prev})",
            h.iterations()
        );
        prev = h.iterations();
    }
}

#[test]
fn transient_converges_to_static_under_heavy_averaging() {
    // The long-time mean of the undamped response equals the static
    // solution (energy conservation swings symmetrically about it).
    let p = problem();
    let cfg = GmresConfig {
        tol: 1e-10,
        max_iters: 100_000,
        ..Default::default()
    };
    let (u_static, _) = solve_static(&p, &gls(7), &cfg).unwrap();
    let tip = p.dof_map.dof(p.mesh.node_at(p.mesh.nx(), p.mesh.ny()), 1);

    // Fundamental period ~ 260 s for this 16x4 unit-material beam; average
    // over ~4 periods, on the session's transient driver at one rank.
    let out = SolveSession::new(p.as_problem())
        .strategy(Strategy::Edd(ElementPartition::strips_x(&p.mesh, 1)))
        .precond(gls(7))
        .gmres(cfg)
        .run_dynamic(NewmarkParams::average_acceleration(2.0), 520, &[tip]);
    assert!(out.all_converged);
    let tip_history = &out.watch_histories[0];
    let mean: f64 = tip_history.iter().sum::<f64>() / tip_history.len() as f64;
    assert!(
        (mean - u_static[tip]).abs() < 0.15 * u_static[tip].abs(),
        "mean {mean} vs static {}",
        u_static[tip]
    );
    // Overshoot factor near 2.
    let peak = tip_history.iter().cloned().fold(f64::INFINITY, f64::min);
    let factor = peak / u_static[tip];
    assert!(
        (1.6..=2.3).contains(&factor),
        "overshoot factor {factor} out of range"
    );
}

#[test]
fn dynamic_effective_matrix_matches_paper_form() {
    // K_eff == alpha*M + K entry for entry (Eq. 52 with beta = 1).
    let p = problem();
    let dt = 0.25;
    let (keff, _) = first_step_system(&p, dt);
    let k_raw = parfem::fem::assembly::assemble_stiffness(&p.mesh, &p.dof_map, &p.material);
    let m_raw = parfem::fem::assembly::assemble_mass(
        &p.mesh,
        &p.dof_map,
        &p.material,
        parfem::fem::Mass::Lumped,
    );
    let mut f = p.loads.clone();
    let k = parfem::fem::assembly::apply_dirichlet(&k_raw, &p.dof_map, &mut f);
    let m = parfem::fem::assembly::apply_dirichlet_mass(&m_raw, &p.dof_map);
    let alpha = 1.0 / (0.25 * dt * dt);
    for r in 0..keff.n_rows() {
        let (cols, vals) = keff.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            let want = k.get(r, c) + alpha * m.get(r, c);
            assert!(
                (v - want).abs() < 1e-9 * (1.0 + want.abs()),
                "({r},{c}): {v} vs {want}"
            );
        }
    }
}

#[test]
fn every_preconditioner_handles_the_dynamic_system() {
    let p = problem();
    let cfg = GmresConfig {
        tol: 1e-8,
        max_iters: 50_000,
        ..Default::default()
    };
    let (keff, rhs) = first_step_system(&p, 0.1);
    for spec in ["none", "jacobi", "ilu0", "neumann:10", "gls:7"] {
        let pc = PrecondSpec::parse(spec).unwrap();
        let (_, h) = solve_system(&keff, &rhs, &pc, &cfg).expect("solve");
        assert!(h.converged(), "{} failed", pc.name());
    }
}
