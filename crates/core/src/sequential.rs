//! Sequential solve harness covering every preconditioner the paper
//! compares on a single processor (Figs. 11–14).
//!
//! The pipeline is the paper's Algorithm 4: norm-1 diagonal scaling,
//! preconditioner construction on `Θ = (ε, 1)`, FGMRES, unscale.

use crate::problems::CantileverProblem;
use parfem_krylov::gmres::{fgmres, GmresConfig};
use parfem_krylov::ConvergenceHistory;
use parfem_precond::{
    BlockJacobiPrecond, ChebyshevPrecond, DirectPrecond, GlsPrecond, IdentityPrecond, Ilu0Precond,
    IntervalUnion, JacobiPrecond, NeumannPrecond,
};
use parfem_sparse::{scaling::scale_system, CsrMatrix, SparseError};

/// Preconditioner choices for the sequential harness.
#[derive(Debug, Clone)]
pub enum SeqPrecond {
    /// Unpreconditioned.
    None,
    /// Diagonal.
    Jacobi,
    /// Incomplete LU with zero fill (the paper's sequential comparator).
    Ilu0,
    /// Exact sparse-direct factorization of the scaled operator (minimum
    /// degree + sparse LDLᵀ) — the one-iteration reference that keeps working on
    /// floating/semi-definite systems where ILU(0) hits a zero pivot
    /// (Eq. 45).
    Direct,
    /// Neumann series of the given degree.
    Neumann(usize),
    /// GLS polynomial of the given degree on `(ε, 1)`.
    Gls(usize),
    /// GLS polynomial on an explicit spectrum estimate (Fig. 10 study).
    GlsOnTheta(usize, IntervalUnion),
    /// GLS polynomial on a *measured* spectrum: a 30-step Lanczos run
    /// estimates `[λ_min, λ_max]` of the scaled operator first (the sharper
    /// Θ the paper's Fig. 10 hints at).
    GlsAuto(usize),
    /// Chebyshev (min-max) polynomial of the given degree on `(~0, 1)`.
    Chebyshev(usize),
    /// Block-Jacobi with per-block ILU(0) over the given number of
    /// contiguous row blocks (the pARMS-style additive Schwarz baseline).
    BlockJacobi(usize),
}

impl SeqPrecond {
    /// Label matching the paper's curves.
    pub fn name(&self) -> String {
        match self {
            SeqPrecond::None => "none".into(),
            SeqPrecond::Jacobi => "jacobi".into(),
            SeqPrecond::Ilu0 => "ilu(0)".into(),
            SeqPrecond::Direct => "direct".into(),
            SeqPrecond::Neumann(m) => format!("neumann({m})"),
            SeqPrecond::Gls(m) => format!("gls({m})"),
            SeqPrecond::GlsOnTheta(m, t) => {
                let (lo, hi) = t.hull();
                format!("gls({m})@({lo:.2},{hi:.2})")
            }
            SeqPrecond::GlsAuto(m) => format!("gls({m})@ritz"),
            SeqPrecond::Chebyshev(m) => format!("chebyshev({m})"),
            SeqPrecond::BlockJacobi(p) => format!("block-jacobi({p})"),
        }
    }
}

/// Solves `K u = f` sequentially: scale, precondition, FGMRES, unscale.
///
/// # Errors
/// Returns [`SparseError`] when scaling or an ILU(0) factorization fails
/// (e.g. a singular system).
pub fn solve_system(
    k: &CsrMatrix,
    f: &[f64],
    precond: &SeqPrecond,
    cfg: &GmresConfig,
) -> Result<(Vec<f64>, ConvergenceHistory), SparseError> {
    let (a, b, sc) = scale_system(k, f)?;
    let x0 = vec![0.0; a.n_rows()];
    let res = match precond {
        SeqPrecond::None => fgmres(&a, &IdentityPrecond, &b, &x0, cfg),
        SeqPrecond::Jacobi => fgmres(&a, &JacobiPrecond::from_matrix(&a), &b, &x0, cfg),
        SeqPrecond::Ilu0 => {
            let p = Ilu0Precond::factorize(&a)?;
            fgmres(&a, &p, &b, &x0, cfg)
        }
        SeqPrecond::Direct => fgmres(&a, &DirectPrecond::new(&a), &b, &x0, cfg),
        SeqPrecond::Neumann(m) => fgmres(&a, &NeumannPrecond::for_scaled_system(*m), &b, &x0, cfg),
        SeqPrecond::Gls(m) => fgmres(&a, &GlsPrecond::for_scaled_system(*m), &b, &x0, cfg),
        SeqPrecond::GlsOnTheta(m, theta) => {
            fgmres(&a, &GlsPrecond::new(*m, theta.clone()), &b, &x0, cfg)
        }
        SeqPrecond::GlsAuto(m) => {
            let (lo, hi) = parfem_krylov::estimate_spectrum(&a, 30);
            let theta = IntervalUnion::single(lo.max(f64::EPSILON), hi.max(2.0 * f64::EPSILON));
            fgmres(&a, &GlsPrecond::new(*m, theta), &b, &x0, cfg)
        }
        SeqPrecond::Chebyshev(m) => {
            fgmres(&a, &ChebyshevPrecond::for_scaled_system(*m), &b, &x0, cfg)
        }
        SeqPrecond::BlockJacobi(p) => {
            let bj = BlockJacobiPrecond::with_uniform_blocks(&a, *p)?;
            fgmres(&a, &bj, &b, &x0, cfg)
        }
    };
    Ok((sc.unscale_solution(&res.x), res.history))
}

/// Solves a cantilever problem's static system sequentially.
///
/// # Errors
/// Propagates [`SparseError`] from [`solve_system`].
pub fn solve_static(
    problem: &CantileverProblem,
    precond: &SeqPrecond,
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

    fn problem() -> CantileverProblem {
        CantileverProblem::new(10, 4, Material::unit(), LoadCase::PullX(1.0))
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
        for pc in [
            SeqPrecond::None,
            SeqPrecond::Jacobi,
            SeqPrecond::Ilu0,
            SeqPrecond::Neumann(20),
            SeqPrecond::Gls(7),
        ] {
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
        let (_, h_none) = solve_static(&p, &SeqPrecond::None, &cfg).unwrap();
        let (_, h_gls) = solve_static(&p, &SeqPrecond::Gls(7), &cfg).unwrap();
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
                let (_, h) = solve_static(&p, &SeqPrecond::Gls(m), &cfg).unwrap();
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
        let good = SeqPrecond::Gls(10);
        let bad = SeqPrecond::GlsOnTheta(10, IntervalUnion::single(0.4, 0.6));
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
        let p = CantileverProblem::paper_mesh(2);
        let cfg = GmresConfig {
            tol: 1e-6,
            max_iters: 20_000,
            ..Default::default()
        };
        let (_, h_def) = solve_static(&p, &SeqPrecond::Gls(10), &cfg).unwrap();
        let (u, h_auto) = solve_static(&p, &SeqPrecond::GlsAuto(10), &cfg).unwrap();
        assert!(h_auto.converged());
        assert!(
            h_auto.iterations() <= h_def.iterations() + 2,
            "auto {} vs default {}",
            h_auto.iterations(),
            h_def.iterations()
        );
        // And it still solves the right system.
        let sys = p.static_system();
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
        assert_eq!(SeqPrecond::Ilu0.name(), "ilu(0)");
        assert_eq!(SeqPrecond::Gls(7).name(), "gls(7)");
        assert_eq!(SeqPrecond::Neumann(20).name(), "neumann(20)");
    }
}
