//! Ablation: the three polynomial preconditioner families at equal degree —
//! Neumann series, Chebyshev (min-max) and GLS (weighted least squares) —
//! plus ILU(0) and block-Jacobi ILU(0) (`ilu0` on a 4-rank row-based
//! session), on the paper's static workload.
//!
//! Expected shape (paper Section 2.1.3): Chebyshev/GLS, which use spectrum
//! bounds, dominate Neumann at equal degree; GLS trades a slightly larger
//! sup-norm for interval-union generality.

use parfem::precond::{ChebyshevPrecond, GlsPrecond, NeumannPrecond};
use parfem::prelude::*;
use parfem_bench::harness::{banner, Table};

fn main() {
    banner("Ablation: polynomial preconditioner families (Mesh3, static, degree 7)");
    let p = CantileverProblem::paper_mesh(3);
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 40_000,
        ..Default::default()
    };
    let degree = 7;

    // Measure the true spectrum floor of the scaled operator: Chebyshev's
    // min-max objective requires it (on an interval reaching 0 no residual
    // with r(0)=1 can have sup-norm < 1 — this is precisely why the paper's
    // GLS, which minimizes a *weighted L2* norm, wins on theta = (eps, 1)).
    let sys = p.static_system();
    let (a, _, _) = parfem::sparse::scaling::scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let lmin = parfem::krylov::measure_spectrum(&a).0.max(1e-6);
    println!("measured lambda_min of the scaled operator: {lmin:.4e}");

    // Theory: sup-norm of the residual on (lmin, 1).
    let sup_of = |f: &dyn Fn(f64) -> f64| -> f64 {
        (0..=300)
            .map(|k| f(lmin + (1.0 - lmin) * k as f64 / 300.0).abs())
            .fold(0.0_f64, f64::max)
    };
    let neu = NeumannPrecond::for_scaled_system(degree);
    let cheb = ChebyshevPrecond::new(degree, lmin, 1.0);
    let gls = GlsPrecond::for_scaled_system(degree);
    println!("sup |1 - lambda P(lambda)| on (lambda_min, 1):");
    println!(
        "  neumann({degree})   = {:.4}",
        sup_of(&|l| neu.residual(l))
    );
    println!(
        "  chebyshev({degree}) = {:.4}",
        sup_of(&|l| cheb.residual(l))
    );
    println!(
        "  gls({degree})       = {:.4}",
        sup_of(&|l| gls.residual(l))
    );

    // Practice: solver iterations and total matvec cost.
    println!();
    let mut table = Table::new(&["preconditioner", "iterations", "total_matvecs", "converged"]);
    let mut by_name = std::collections::BTreeMap::new();
    let mut record = |name: String, iters: usize, matvecs_per_iter: usize, converged: bool| {
        table.row([
            name.clone(),
            iters.to_string(),
            (iters * matvecs_per_iter).to_string(),
            converged.to_string(),
        ]);
        by_name.insert(name, iters);
    };
    for pc in [
        PrecondSpec::Neumann { degree },
        PrecondSpec::Gls {
            degree,
            theta: None,
        },
    ] {
        let (_, h) = solve_static(&p, &pc, &cfg).unwrap();
        record(pc.name(), h.iterations(), degree + 1, h.converged());
    }
    // Block-Jacobi ILU(0): each of 4 row-based ranks factors its own
    // diagonal block (the node strips of 4 element strips).
    {
        let strips = ElementPartition::strips_x(&p.mesh, 4);
        let part = NodePartition::from_elements(&strips, &p.mesh).expect("strips keep a node each");
        let out = SolveSession::new(p.as_problem())
            .strategy(Strategy::Rdd(part))
            .precond(PrecondSpec::Ilu0)
            .gmres(cfg)
            .run()
            .expect("clamped row blocks factor");
        let h = &out.history;
        record("block-jacobi(4)".into(), h.iterations(), 1, h.converged());
    }
    let (_, h) = solve_static(&p, &PrecondSpec::Ilu0, &cfg).unwrap();
    record(PrecondSpec::Ilu0.name(), h.iterations(), 1, h.converged());
    // Spectrum-informed Chebyshev on the scaled operator directly.
    {
        let b = {
            let mut rhs = sys.rhs.clone();
            let sc = parfem::sparse::DiagonalScaling::from_matrix(&sys.stiffness).unwrap();
            sc.apply_in_place(&mut rhs);
            rhs
        };
        let res = parfem::krylov::gmres::fgmres(&a, &cheb, &b, &vec![0.0; a.n_rows()], &cfg);
        record(
            format!("chebyshev({degree})"),
            res.history.iterations(),
            degree + 1,
            res.history.converged(),
        );
    }
    table.emit("ablation_polynomials");

    // Shape: GLS dominates everything at equal degree — the paper's core
    // claim. A further *finding* of this reproduction: on severely
    // ill-conditioned spectra (kappa ~ 4e4 here) the min-max (Chebyshev)
    // objective is the wrong one for GMRES — its sup-norm over
    // [lambda_min, 1] cannot drop below ~0.997 at degree 7, whereas GLS's
    // endpoint-weighted L2 objective hammers the bulk of the spectrum and
    // leaves the few stubborn small modes to the Krylov iteration. This is
    // precisely why the paper builds on GLS rather than Chebyshev.
    let n_it = by_name[&format!("neumann({degree})")];
    let c_it = by_name[&format!("chebyshev({degree})")];
    let g_it = by_name[&format!("gls({degree})")];
    assert!(
        g_it < n_it && g_it < c_it,
        "gls must dominate at equal degree: neumann {n_it}, chebyshev {c_it}, gls {g_it}"
    );
    // Dropping the coupling between the row blocks costs iterations.
    let (bj_it, ilu_it) = (by_name["block-jacobi(4)"], by_name["ilu(0)"]);
    assert!(
        bj_it > ilu_it,
        "block-jacobi(4) {bj_it} must need more iterations than ilu(0) {ilu_it}"
    );
    println!(
        "\nshape checks passed: gls({degree}) dominates (gls {g_it} < neumann {n_it}, chebyshev {c_it});"
    );
    println!("min-max optimality is the wrong objective for GMRES on ill-conditioned spectra");
}
