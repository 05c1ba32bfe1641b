//! Figure 12: ILU(0) versus polynomial preconditioners for the *dynamic*
//! cantilever (first Newmark step effective system), Mesh1 and Mesh2.

use parfem::prelude::*;
use parfem_bench::harness::{banner, Table};

fn run_mesh(k: usize, dt: f64) {
    let p = CantileverProblem::paper_mesh(k);
    banner(&format!(
        "Figure 12, Mesh{k} ({} equations), dt = {dt}: dynamic first-step convergence",
        p.n_eqn()
    ));
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };
    let precs = ["none", "ilu0", "neumann:20", "gls:7"].map(|s| PrecondSpec::parse(s).unwrap());
    let (keff, rhs) = first_step_system(&p, dt);
    let mut table = Table::new(&["preconditioner", "iterations", "converged"]);
    let mut iters = Vec::new();
    for pc in &precs {
        let (_, h) = solve_system(&keff, &rhs, pc, &cfg).expect("solve");
        table.row([
            pc.name(),
            h.iterations().to_string(),
            h.converged().to_string(),
        ]);
        iters.push(h.iterations());
    }
    table.emit(&format!("fig12_dynamic_mesh{k}"));
    // Shape: gls(7) beats ilu(0) and the unpreconditioned run, as in the
    // static case (the paper's ordering carries over to the effective
    // dynamic systems).
    assert!(iters[3] < iters[1], "gls(7) must beat ilu(0): {iters:?}");
    assert!(
        iters[3] < iters[0],
        "gls(7) must beat the unpreconditioned run: {iters:?}"
    );
}

fn main() {
    // dt large enough that the stiffness still matters (tiny dt makes the
    // effective system mass-dominated and trivially conditioned).
    run_mesh(1, 5.0);
    run_mesh(2, 5.0);
    println!("\nshape checks passed: polynomial preconditioning competitive on dynamic systems");
}
