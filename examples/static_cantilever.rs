//! Static elasticity study: compares every preconditioner of the paper's
//! Fig. 11 on a cantilever under pulling load, printing the per-iteration
//! convergence curves, and cross-checks the deflection against
//! Euler–Bernoulli beam theory for a shear load.
//!
//! Run with: `cargo run --release --example static_cantilever`

use parfem::prelude::*;

fn main() {
    let problem = CantileverProblem::new(40, 8, Material::unit(), LoadCase::PullX(1.0));
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };

    println!(
        "== preconditioner comparison (paper Fig. 11), Mesh2, {} eqns ==",
        problem.n_eqn()
    );
    for spec in ["none", "jacobi", "ilu0", "neumann:20", "gls:7"] {
        let pc = PrecondSpec::parse(spec).unwrap();
        match solve_static(&problem, &pc, &cfg) {
            Ok((_, h)) => {
                // Print a sparse sampling of the residual curve.
                let r = &h.relative_residuals;
                let samples: Vec<String> = r
                    .iter()
                    .step_by((r.len() / 8).max(1))
                    .map(|v| format!("{v:.1e}"))
                    .collect();
                println!(
                    "{:>12}: {:4} iterations, curve [{}]",
                    pc.name(),
                    h.iterations(),
                    samples.join(", ")
                );
            }
            Err(e) => println!("{:>12}: failed ({e})", pc.name()),
        }
    }

    // Physics sanity: slender beam under tip shear vs Euler-Bernoulli.
    println!("\n== beam-theory cross-check ==");
    let p_total = -1e-3;
    let nx = 64;
    let ny = 4;
    let beam = {
        let mesh = QuadMesh::rectangle(nx, ny, 16.0, 1.0);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mut loads = vec![0.0; dm.n_dofs()];
        parfem::fem::assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, p_total, &mut loads);
        let sys = parfem::fem::assembly::build_static(&mesh, &dm, &Material::unit(), &loads);
        let (u, h) = solve_system(
            &sys.stiffness,
            &sys.rhs,
            &PrecondSpec::Gls {
                degree: 7,
                theta: None,
            },
            &GmresConfig {
                tol: 1e-10,
                max_iters: 100_000,
                ..Default::default()
            },
        )
        .expect("solve");
        assert!(h.converged());
        u[dm.dof(mesh.node_at(nx, ny / 2), 1)]
    };
    let analytic = p_total * 16.0_f64.powi(3) / (3.0 * (1.0 / 12.0));
    println!("FEM tip deflection      {beam:.6e}");
    println!("Euler-Bernoulli predict {analytic:.6e}");
    println!(
        "ratio {:.3} (shear-deformable FEM is slightly more flexible)",
        beam / analytic
    );
}
