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
        .run_dynamic(NewmarkParams::average_acceleration(2.0), 520, &[tip])
        .expect("fault-free transient");
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

/// `fig16_dynamic_speedup`'s quick case — Mesh3, three steps of dt = 1,
/// default `gls:7`, P = 4 — on both machine models keeps the bits of the
/// separate EDD transient driver the session engine replaced: the watched
/// tip, the iteration total, a digest of the final displacement and the
/// modeled time the figure's CSV prints.
#[test]
fn fig16_mesh3_transient_keeps_its_bits() {
    let fnv = |v: &[f64]| {
        (v.iter().flat_map(|x| x.to_bits().to_le_bytes())).fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    };
    let p = CantileverProblem::paper_mesh(3);
    let tip = p.dof_map.dof(p.mesh.node_at(p.mesh.nx(), p.mesh.ny()), 0);
    // 0.02748358 s and 0.05121810 s; 0.02927558 s and 0.05420476 s while
    // the Q4 kernel was charged for both triangles of kₑ (3 008 flops, now
    // 2 112; the tip and the final displacement moved in their last bits
    // when kₑ became the mirror of its upper triangle, the 15 iterations did
    // not); 0.02971556 s and 0.05493806 s while each step charged a mass CSR
    // over the stiffness pattern, 2·nnz flops, for the n the lumped diagonal
    // takes.
    let models = [
        (MachineModel::sgi_origin(), 0x3f9c24a7d51ba5c4),
        (MachineModel::ibm_sp2(), 0x3faa39421805a5f4),
    ];
    for (model, time_bits) in models {
        let out = SolveSession::new(p.as_problem())
            .strategy(Strategy::Edd(ElementPartition::strips_x(&p.mesh, 4)))
            .machine(model)
            .run_dynamic(NewmarkParams::average_acceleration(1.0), 3, &[tip])
            .expect("fault-free transient");
        let tip_bits: Vec<u64> = out.watch_histories[0].iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            tip_bits,
            [0x3fa1d7a79ada3b78, 0x3fbac22e6f126077, 0x3fc46c45d05c7054]
        );
        assert_eq!(out.total_iterations, 15);
        assert_eq!(fnv(&out.last.u), 0x01f9609f721e4e79);
        assert_eq!(out.last.modeled_time.to_bits(), time_bits);
    }
}
