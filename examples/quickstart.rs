//! Quickstart: assemble a cantilever, solve it with the parallel
//! element-based domain-decomposition FGMRES under a GLS(7) polynomial
//! preconditioner, and verify the solution against a sequential solve.
//!
//! Run with: `cargo run --release --example quickstart`

use parfem::prelude::*;

fn main() {
    // A 40x8-element cantilever plate (the paper's Mesh2), clamped on the
    // left, pulled axially at the free end.
    let problem = CantileverProblem::new(40, 8, Material::unit(), LoadCase::PullX(1.0));
    println!(
        "cantilever {}x{} elements, {} nodes, {} equations",
        problem.mesh.nx(),
        problem.mesh.ny(),
        problem.mesh.n_nodes(),
        problem.n_eqn()
    );

    // Parallel solve: 4 element-based subdomains, GLS(7) polynomial
    // preconditioning, virtual SGI Origin machine model.
    let part = ElementPartition::strips_x(&problem.mesh, 4);
    let cfg = SolverConfig::default(); // gls(7), enhanced EDD, tol 1e-6
    let out = SolveSession::new(problem.as_problem())
        .strategy(Strategy::Edd(part))
        .config(cfg.clone())
        .machine(MachineModel::sgi_origin())
        .run()
        .expect("fault-free solve");
    println!(
        "parallel EDD-FGMRES-gls(7), P=4: {} iterations, converged={}, modeled time {:.4} s",
        out.history.iterations(),
        out.history.converged(),
        out.modeled_time
    );

    // Sequential reference.
    let (u_seq, h_seq) =
        solve_static(&problem, &cfg.precond, &cfg.gmres).expect("sequential solve");
    println!(
        "sequential FGMRES-gls(7):     {} iterations, converged={}",
        h_seq.iterations(),
        h_seq.converged()
    );

    // Compare tip displacements.
    let tip = problem.dof_map.dof(
        problem.mesh.node_at(problem.mesh.nx(), problem.mesh.ny()),
        0,
    );
    println!(
        "tip u_x: parallel {:.6e} vs sequential {:.6e}",
        out.u[tip], u_seq[tip]
    );
    let diff = (out.u[tip] - u_seq[tip]).abs() / u_seq[tip].abs().max(1e-30);
    assert!(diff < 1e-4, "parallel and sequential solutions must agree");
    println!("relative difference {diff:.2e} — ok");

    // Communication profile of rank 0 (Table-1-style numbers).
    let s = &out.reports[0].stats;
    println!(
        "rank 0 traffic: {} neighbour exchanges, {} all-reduces, {} bytes sent",
        s.neighbor_exchanges, s.allreduces, s.bytes_sent
    );
}
