//! GLS polynomial preconditioning on a symmetric **indefinite** system —
//! the capability that distinguishes GLS from Neumann/Chebyshev (paper
//! Section 2.1.3: Θ may be "a union of an arbitrary number of disjoint
//! intervals", so "the GLS method can be a general method of solving
//! symmetric linear systems including both symmetric indefinite and
//! symmetric positive definite systems").
//!
//! We build a shifted FEM operator `A − σI` (the kind of system interior
//! eigenvalue problems and Helmholtz-like formulations produce), estimate
//! its two-sided spectrum, and compare:
//! - GLS on the two-interval Θ (works),
//! - Neumann series (its geometric series cannot converge across 0),
//! - unpreconditioned GMRES.
//!
//! Run with: `cargo run --release --example indefinite_system`

use parfem::krylov::gmres::{fgmres, GmresConfig};
use parfem::precond::{GlsPrecond, IdentityPrecond, IntervalUnion, NeumannPrecond};
use parfem::prelude::*;
use parfem::sparse::scaling::scale_system;

fn main() {
    // Scaled FEM stiffness: sigma(A) in (0, 1).
    let problem = CantileverProblem::new(24, 6, Material::unit(), LoadCase::PullX(1.0));
    let sys = problem.static_system();
    let (a_spd, _, _) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let n = a_spd.n_rows();

    // Shift into indefiniteness: A = A_spd - sigma I.
    let sigma = 0.35;
    let shift = CsrMatrix::from_diagonal(&vec![-sigma; n]);
    let a = a_spd.add_scaled(1.0, &shift).unwrap();

    let (_, lmax) = parfem::krylov::measure_spectrum(&a);
    println!("shifted operator: sigma = {sigma}, lambda_max = {lmax:.4} (spectrum straddles 0)");

    // Two-interval spectrum estimate with a guard band around 0. Any
    // eigenvalues inside the band are simply left to GMRES.
    let gap = 0.02;
    let theta = IntervalUnion::new(vec![(-sigma - 0.01, -gap), (gap, lmax + 0.01)]);
    println!(
        "theta = ({:.3}, {:.3}) u ({:.3}, {:.3})",
        -sigma - 0.01,
        -gap,
        gap,
        lmax + 0.01
    );

    // Manufactured solution.
    let xe: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
    let b = a.spmv(&xe);
    let cfg = GmresConfig {
        tol: 1e-8,
        restart: 50,
        max_iters: 30_000,
        ..Default::default()
    };

    let check = |label: &str, x: &[f64], iters: usize, converged: bool| {
        let r = a.spmv(x);
        let err: f64 = r
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).powi(2))
            .sum::<f64>()
            .sqrt();
        println!("{label:>24}: {iters:>6} iterations, converged = {converged}, ||r|| = {err:.2e}");
        (converged, err)
    };

    let plain = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg);
    check(
        "unpreconditioned",
        &plain.x,
        plain.history.iterations(),
        plain.history.converged(),
    );

    let gls = GlsPrecond::new(10, theta);
    let pre = fgmres(&a, &gls, &b, &vec![0.0; n], &cfg);
    let (ok, _) = check(
        "gls(10) on 2 intervals",
        &pre.x,
        pre.history.iterations(),
        pre.history.converged(),
    );
    assert!(ok, "GLS must handle the indefinite system");

    // Neumann cannot work across 0: with sigma(A) straddling zero there is
    // no omega with rho(I - omega A) < 1.
    let neu = NeumannPrecond::new(10, 1.0 / lmax);
    let failed = fgmres(&a, &neu, &b, &vec![0.0; n], &cfg);
    check(
        "neumann(10) (expected bad)",
        &failed.x,
        failed.history.iterations(),
        failed.history.converged(),
    );

    assert!(
        pre.history.iterations() < plain.history.iterations(),
        "GLS should accelerate the indefinite solve: {} vs {}",
        pre.history.iterations(),
        plain.history.iterations()
    );
    println!("\nGLS handles the indefinite spectrum; the Neumann series cannot (paper Sec. 2.1.3)");
}
