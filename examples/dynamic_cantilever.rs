//! Elastodynamics: a suddenly applied tip load on a cantilever, integrated
//! with Newmark average acceleration; every time step's effective system
//! `[αM + K] u = f̂` is solved by polynomial-preconditioned FGMRES (the
//! paper's dynamic experiments, Figs. 12/14).
//!
//! Run with: `cargo run --release --example dynamic_cantilever`

use parfem::prelude::*;

fn main() {
    let problem = CantileverProblem::new(24, 4, Material::unit(), LoadCase::ShearY(-1e-3));
    let cfg = GmresConfig {
        tol: 1e-8,
        max_iters: 50_000,
        ..Default::default()
    };

    // First-step convergence comparison (the Fig. 12 measurement).
    println!("== first Newmark step, dt = 0.1 ==");
    let (keff, rhs) = first_step_system(&problem, 0.1);
    for spec in ["ilu0", "neumann:20", "gls:7", "gls:20"] {
        let pc = PrecondSpec::parse(spec).unwrap();
        let (_, h) = solve_system(&keff, &rhs, &pc, &cfg).expect("first-step solve");
        println!("{:>12}: {:4} iterations", pc.name(), h.iterations());
    }

    // Transient: oscillation around the static deflection with ~2x dynamic
    // overshoot (classic suddenly-applied-load response). The fundamental
    // bending period of this beam (E=1, rho=1, L=24, unit-square elements)
    // is ~900 s, so 400 steps of dt=3 cover ~1.3 periods.
    println!("\n== transient, 400 steps of dt = 3.0 ==");
    let gls7 = PrecondSpec::Gls {
        degree: 7,
        theta: None,
    };
    let (u_static, _) = solve_static(&problem, &gls7, &cfg).unwrap();
    let tip = problem.dof_map.dof(
        problem.mesh.node_at(problem.mesh.nx(), problem.mesh.ny()),
        1,
    );
    // The session's transient driver on one rank: the effective matrix is
    // scaled and preconditioned once, and every step warm-starts FGMRES.
    let out = SolveSession::new(problem.as_problem())
        .strategy(Strategy::Edd(ElementPartition::strips_x(&problem.mesh, 1)))
        .precond(gls7)
        .gmres(cfg)
        .run_dynamic(NewmarkParams::average_acceleration(3.0), 400, &[tip])
        .expect("fault-free transient");
    let tip_history = &out.watch_histories[0];
    let peak = tip_history.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean: f64 = tip_history.iter().sum::<f64>() / tip_history.len() as f64;
    println!("static tip deflection  {:.6e}", u_static[tip]);
    println!("dynamic mean           {mean:.6e}");
    println!("dynamic peak           {peak:.6e}");
    println!(
        "overshoot factor       {:.2} (theory: 2.0 for undamped step load)",
        peak / u_static[tip]
    );
    println!(
        "total FGMRES iterations over the transient: {} (all converged: {})",
        out.total_iterations, out.all_converged
    );
}
