//! Figure 13: convergence versus increasing GLS polynomial degree for the
//! *static* cantilever, Mesh1 and Mesh2.
//!
//! Paper claim: `GLS(20) ≻ GLS(10) ≻ GLS(7) ≻ GLS(3) ≻ GLS(1)` in iteration
//! count on the small meshes (though not in total cost — see Table 3).

use parfem::prelude::*;
use parfem_bench::harness::{banner, Table};

const DEGREES: [usize; 5] = [1, 3, 7, 10, 20];

fn run_mesh(k: usize) -> Vec<usize> {
    let p = CantileverProblem::paper_mesh(k);
    banner(&format!(
        "Figure 13, Mesh{k} ({} equations): GLS degree sweep (static)",
        p.n_eqn()
    ));
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 40_000,
        ..Default::default()
    };
    let mut table = Table::new(&["degree", "iterations", "total_matvecs"]);
    let mut iters = Vec::new();
    for &m in &DEGREES {
        let gls = PrecondSpec::Gls {
            degree: m,
            theta: None,
        };
        let (_, h) = solve_static(&p, &gls, &cfg).unwrap();
        table.row([
            m.to_string(),
            h.iterations().to_string(),
            (h.iterations() * (m + 1)).to_string(),
        ]);
        iters.push(h.iterations());
    }
    table.emit(&format!("fig13_static_degree_mesh{k}"));
    iters
}

fn main() {
    let i1 = run_mesh(1);
    let i2 = run_mesh(2);
    // Shape check: monotone non-increasing iteration counts with degree.
    for (mesh, iters) in [(1, &i1), (2, &i2)] {
        for w in iters.windows(2) {
            assert!(
                w[1] <= w[0],
                "Mesh{mesh}: higher degree must not need more iterations: {iters:?}"
            );
        }
    }
    println!("\nshape checks passed: gls(20) > gls(10) > gls(7) > gls(3) > gls(1) (paper Fig. 13)");
}
