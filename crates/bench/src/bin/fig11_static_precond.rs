//! Figure 11: ILU(0) versus polynomial preconditioners for the *static*
//! cantilever with pulling load, Mesh1 and Mesh2 — full convergence curves.
//!
//! Paper claim (Eq. "GLS(7) ≻ ILU(0) ≻ Neum(20)"): on a single processor
//! the polynomial preconditioners are fully competitive with ILU(0).

use parfem::prelude::*;
use parfem_bench::harness::{banner, write_csv};

fn run_mesh(k: usize) {
    let p = CantileverProblem::paper_mesh(k);
    banner(&format!(
        "Figure 11, Mesh{k} ({} equations): relative residual per iteration",
        p.n_eqn()
    ));
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };
    let precs = ["none", "ilu0", "neumann:20", "gls:7"].map(|s| PrecondSpec::parse(s).unwrap());
    let mut curves = Vec::new();
    let mut labels = Vec::new();
    for pc in &precs {
        let (_, h) = parfem::sequential::solve_static(&p, pc, &cfg).expect("solve");
        println!(
            "{:>12}: {:>5} iterations (converged = {})",
            pc.name(),
            h.iterations(),
            h.converged()
        );
        labels.push(pc.name());
        curves.push(h.relative_residuals);
    }
    // CSV: iteration, one column per preconditioner (padded with blanks).
    let max_len = curves.iter().map(|c| c.len()).max().unwrap();
    let mut rows = Vec::new();
    for i in 0..max_len {
        let mut row = vec![i.to_string()];
        for c in &curves {
            row.push(c.get(i).map(|v| format!("{v:e}")).unwrap_or_default());
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("iteration".to_string())
        .chain(labels.iter().cloned())
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    write_csv(&format!("fig11_static_mesh{k}"), &header_refs, &rows);

    // Shape checks — the paper's headline invariants: gls(7) converges
    // faster than ilu(0) and faster than the unpreconditioned solver.
    // (The paper additionally reports ilu(0) ahead of neumann(20); on our
    // exactly-scaled systems neumann(20)'s 21 matvecs per application can
    // win on iteration count for tiny meshes — EXPERIMENTS.md discusses.)
    let iters: Vec<usize> = curves.iter().map(|c| c.len() - 1).collect();
    assert!(iters[3] < iters[1], "gls(7) must beat ilu(0): {iters:?}");
    assert!(
        iters[3] < iters[0],
        "gls(7) must beat the unpreconditioned run: {iters:?}"
    );
}

fn main() {
    run_mesh(1);
    run_mesh(2);
    println!("\nshape checks passed: gls(7) beats ilu(0) and unpreconditioned on both meshes");
}
