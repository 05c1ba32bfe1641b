//! Sequential solve harness covering every preconditioner the paper
//! compares on a single processor (Figs. 11–14).
//!
//! The pipeline is the paper's Algorithm 4: norm-1 diagonal scaling,
//! preconditioner construction on `Θ = (ε, 1)`, FGMRES, unscale. The
//! preconditioner is any one-level [`PrecondSpec`], built by the same
//! registry factory a session's ranks use (the whole scaled matrix is the
//! one rank's local matrix), and the FGMRES is the distributed loop on one
//! rank ([`fgmres`]), so a P = 1 session takes the sequential iteration
//! count (±1).

use crate::problems::CantileverProblem;
use parfem_krylov::gmres::{fgmres, GmresConfig};
use parfem_krylov::ConvergenceHistory;
use parfem_precond::PrecondSpec;
use parfem_sparse::{scaling::scale_system, CsrMatrix, SparseError};

/// Solves `K u = f` sequentially: scale, precondition, FGMRES, unscale.
///
/// # Errors
/// Returns [`SparseError`] when scaling or an ILU(0) factorization fails
/// (e.g. a singular system).
///
/// # Panics
/// Panics on a two-level spec: one rank has no coarse space to build.
pub fn solve_system(
    k: &CsrMatrix,
    f: &[f64],
    precond: &PrecondSpec,
    cfg: &GmresConfig,
) -> Result<(Vec<f64>, ConvergenceHistory), SparseError> {
    let (a, b, sc) = scale_system(k, f)?;
    let pc = precond.instantiate(None, Some(&a), || a.diagonal())?;
    let res = fgmres(&a, &pc, &b, &vec![0.0; a.n_rows()], cfg);
    Ok((sc.unscale_solution(&res.x), res.history))
}

/// Solves a cantilever problem's static system sequentially.
///
/// # Errors
/// Propagates [`SparseError`] from [`solve_system`].
pub fn solve_static(
    problem: &CantileverProblem,
    precond: &PrecondSpec,
    cfg: &GmresConfig,
) -> Result<(Vec<f64>, ConvergenceHistory), SparseError> {
    let sys = problem.static_system();
    solve_system(&sys.stiffness, &sys.rhs, precond, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{CantileverProblem, LoadCase};
    use parfem_fem::Material;
    use parfem_precond::IntervalUnion;

    fn problem() -> CantileverProblem {
        CantileverProblem::new(10, 4, Material::unit(), LoadCase::PullX(1.0))
    }

    fn spec(text: &str) -> PrecondSpec {
        PrecondSpec::parse(text).unwrap()
    }

    fn gls(degree: usize, theta: Option<IntervalUnion>) -> PrecondSpec {
        PrecondSpec::Gls { degree, theta }
    }

    fn residual(p: &CantileverProblem, u: &[f64]) -> f64 {
        let sys = p.static_system();
        let r = sys.stiffness.spmv(u);
        r.iter()
            .zip(&sys.rhs)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn every_preconditioner_solves_the_cantilever() {
        let p = problem();
        let cfg = GmresConfig {
            tol: 1e-8,
            max_iters: 5000,
            ..Default::default()
        };
        for text in ["none", "jacobi", "ilu0", "neumann:20", "gls:7"] {
            let pc = spec(text);
            let (u, h) = solve_static(&p, &pc, &cfg).expect("solve");
            assert!(h.converged(), "{} did not converge", pc.name());
            assert!(residual(&p, &u) < 1e-5, "{} residual too large", pc.name());
        }
    }

    #[test]
    fn gls_beats_unpreconditioned_on_iterations() {
        // The paper's headline: GLS(7) converges far faster than plain
        // GMRES and is comparable to ILU(0).
        let p = problem();
        let cfg = GmresConfig {
            tol: 1e-6,
            ..Default::default()
        };
        let (_, h_none) = solve_static(&p, &PrecondSpec::None, &cfg).unwrap();
        let (_, h_gls) = solve_static(&p, &gls(7, None), &cfg).unwrap();
        assert!(
            h_gls.iterations() * 3 < h_none.iterations(),
            "gls {} vs none {}",
            h_gls.iterations(),
            h_none.iterations()
        );
    }

    #[test]
    fn higher_gls_degree_reduces_iterations_on_small_mesh() {
        // Fig. 13's ordering gls(20) > gls(10) > gls(7) > gls(3) > gls(1)
        // ("converges faster than") on a small mesh.
        let p = CantileverProblem::paper_mesh(1);
        let cfg = GmresConfig {
            tol: 1e-6,
            max_iters: 20_000,
            ..Default::default()
        };
        let iters: Vec<usize> = [1usize, 3, 7, 10, 20]
            .iter()
            .map(|&m| {
                let (_, h) = solve_static(&p, &gls(m, None), &cfg).unwrap();
                assert!(h.converged(), "gls({m})");
                h.iterations()
            })
            .collect();
        for w in iters.windows(2) {
            assert!(w[1] <= w[0], "degree increase worsened: {iters:?}");
        }
    }

    #[test]
    fn theta_sensitivity_affects_convergence() {
        // Fig. 10: a deliberately wrong spectrum estimate slows GLS down.
        // Needs a mesh large enough for a wide spectrum (Mesh2 of Table 2).
        let p = CantileverProblem::paper_mesh(2);
        let cfg = GmresConfig {
            tol: 1e-6,
            max_iters: 20_000,
            ..Default::default()
        };
        let good = gls(10, None);
        let bad = gls(10, Some(IntervalUnion::single(0.4, 0.6)));
        let (_, hg) = solve_static(&p, &good, &cfg).unwrap();
        let (_, hb) = solve_static(&p, &bad, &cfg).unwrap();
        assert!(
            hg.iterations() < hb.iterations(),
            "good {} vs bad {}",
            hg.iterations(),
            hb.iterations()
        );
    }

    #[test]
    fn auto_theta_is_at_least_as_good_as_the_default() {
        // Θ from a 30-step Lanczos estimate of the scaled operator's
        // spectrum (the sharper Θ the paper's Fig. 10 hints at).
        let p = CantileverProblem::paper_mesh(2);
        let cfg = GmresConfig {
            tol: 1e-6,
            max_iters: 20_000,
            ..Default::default()
        };
        let sys = p.static_system();
        let (scaled, _, _) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
        let (lo, hi) = parfem_krylov::estimate_spectrum(&scaled, 30);
        let theta = IntervalUnion::single(lo.max(f64::EPSILON), hi.max(2.0 * f64::EPSILON));
        let (_, h_def) = solve_static(&p, &gls(10, None), &cfg).unwrap();
        let (u, h_auto) = solve_static(&p, &gls(10, Some(theta)), &cfg).unwrap();
        assert!(h_auto.converged());
        assert!(
            h_auto.iterations() <= h_def.iterations() + 2,
            "auto {} vs default {}",
            h_auto.iterations(),
            h_def.iterations()
        );
        // And it still solves the right system.
        let r = sys.stiffness.spmv(&u);
        let err: f64 = r
            .iter()
            .zip(&sys.rhs)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        let scale: f64 = sys.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-5 * scale);
    }

    #[test]
    fn names_are_paper_labels() {
        assert_eq!(PrecondSpec::Ilu0.name(), "ilu(0)");
        assert_eq!(gls(7, None).name(), "gls(7)");
        assert_eq!(PrecondSpec::Neumann { degree: 20 }.name(), "neumann(20)");
    }
}
