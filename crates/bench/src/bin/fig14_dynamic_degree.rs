//! Figure 14: convergence versus increasing GLS polynomial degree for the
//! *dynamic* cantilever (first Newmark step), Mesh1 and Mesh2.

use parfem::prelude::*;
use parfem_bench::harness::{banner, Table};

const DEGREES: [usize; 5] = [1, 3, 7, 10, 20];

fn run_mesh(k: usize, dt: f64) -> Vec<usize> {
    let p = CantileverProblem::paper_mesh(k);
    banner(&format!(
        "Figure 14, Mesh{k} ({} equations), dt = {dt}: GLS degree sweep (dynamic)",
        p.n_eqn()
    ));
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 40_000,
        ..Default::default()
    };
    let mut table = Table::new(&["degree", "iterations"]);
    let mut iters = Vec::new();
    let (keff, rhs) = first_step_system(&p, dt);
    for &m in &DEGREES {
        let gls = PrecondSpec::Gls {
            degree: m,
            theta: None,
        };
        let (_, h) = solve_system(&keff, &rhs, &gls, &cfg).unwrap();
        table.row([m.to_string(), h.iterations().to_string()]);
        iters.push(h.iterations());
    }
    table.emit(&format!("fig14_dynamic_degree_mesh{k}"));
    iters
}

fn main() {
    // dt chosen so the mass shift helps but does not trivialize the system.
    let i1 = run_mesh(1, 1.0);
    let i2 = run_mesh(2, 1.0);
    for (mesh, iters) in [(1, &i1), (2, &i2)] {
        for w in iters.windows(2) {
            assert!(
                w[1] <= w[0],
                "Mesh{mesh}: higher degree must not need more iterations: {iters:?}"
            );
        }
    }
    // Dynamic systems converge at least as fast as static ones (Figs. 13
    // vs 14); checked indirectly: Mesh2 gls(7) should need few iterations.
    assert!(i2[2] < 60, "dynamic gls(7) unexpectedly slow: {i2:?}");
    println!("\nshape checks passed (paper Fig. 14)");
}
