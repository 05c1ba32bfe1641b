//! Property-based tests for the Krylov solvers.

use parfem_krylov::gmres::{fgmres, fgmres_on, GmresConfig, OneRank, Orthogonalization};
use parfem_krylov::KrylovWorkspace;
use parfem_precond::{GlsPrecond, IdentityPrecond, JacobiPrecond};
use parfem_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// Strategy: a random diagonally dominant SPD matrix.
fn spd_matrix(n: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec((0..n, 0..n, -1.0..1.0f64), 0..3 * n).prop_map(move |ts| {
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in ts {
            coo.push(r, c, v).unwrap();
            coo.push(c, r, v).unwrap();
        }
        let b = coo.to_csr();
        let radius = b.row_abs_sums().into_iter().fold(1.0_f64, f64::max);
        CsrMatrix::from_diagonal(&vec![2.0 * radius; n])
            .add_scaled(1.0, &b)
            .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gmres_solves_random_spd_systems(a in spd_matrix(14),
                                       xe in prop::collection::vec(-3.0..3.0f64, 14)) {
        let b = a.spmv(&xe);
        let cfg = GmresConfig { tol: 1e-10, ..Default::default() };
        let res = fgmres(&a, &IdentityPrecond, &b, &[0.0; 14], &cfg);
        prop_assert!(res.history.converged());
        let r = a.spmv(&res.x);
        let err: f64 = r.iter().zip(&b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        let scale: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(err <= 1e-7 * scale.max(1.0), "residual {}", err);
    }

    #[test]
    fn preconditioning_never_breaks_correctness(a in spd_matrix(10),
                                                bvec in prop::collection::vec(-2.0..2.0f64, 10)) {
        // Whatever the (SPD) preconditioner, the converged answer is the
        // same solution.
        let cfg = GmresConfig { tol: 1e-11, ..Default::default() };
        let plain = fgmres(&a, &IdentityPrecond, &bvec, &[0.0; 10], &cfg);
        let jac = fgmres(&a, &JacobiPrecond::from_matrix(&a), &bvec, &[0.0; 10], &cfg);
        prop_assert!(plain.history.converged() && jac.history.converged());
        for (x, y) in plain.x.iter().zip(&jac.x) {
            prop_assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn orthogonalization_variants_agree(a in spd_matrix(12),
                                        bvec in prop::collection::vec(-2.0..2.0f64, 12)) {
        let cgs = GmresConfig { tol: 1e-10, ortho: Orthogonalization::Classical, ..Default::default() };
        let mgs = GmresConfig { tol: 1e-10, ortho: Orthogonalization::Modified, ..Default::default() };
        let rc = fgmres(&a, &IdentityPrecond, &bvec, &[0.0; 12], &cgs);
        let rm = fgmres(&a, &IdentityPrecond, &bvec, &[0.0; 12], &mgs);
        prop_assert!(rc.history.converged() && rm.history.converged());
        for (x, y) in rc.x.iter().zip(&rm.x) {
            prop_assert!((x - y).abs() < 1e-5 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn gls_preconditioned_gmres_solves_scaled_systems(a in spd_matrix(12),
                                                      xe in prop::collection::vec(-2.0..2.0f64, 12)) {
        // Scale to (0,1) then precondition with GLS(5).
        let f = a.spmv(&xe);
        let (scaled, b, sc) = parfem_sparse::scaling::scale_system(&a, &f).unwrap();
        let cfg = GmresConfig { tol: 1e-10, ..Default::default() };
        let gls = GlsPrecond::for_scaled_system(5);
        let res = fgmres(&scaled, &gls, &b, &[0.0; 12], &cfg);
        prop_assert!(res.history.converged());
        let u = sc.unscale_solution(&res.x);
        for (ui, ei) in u.iter().zip(&xe) {
            prop_assert!((ui - ei).abs() < 1e-5 * (1.0 + ei.abs()), "{} vs {}", ui, ei);
        }
    }

    #[test]
    fn history_is_internally_consistent(a in spd_matrix(10),
                                        bvec in prop::collection::vec(-1.0..1.0f64, 10)) {
        let cfg = GmresConfig { tol: 1e-8, ..Default::default() };
        let res = fgmres(&a, &IdentityPrecond, &bvec, &[0.0; 10], &cfg);
        let h = &res.history;
        prop_assert_eq!(h.relative_residuals[0], 1.0);
        if h.converged() && h.relative_residuals.len() > 1 {
            prop_assert!(h.final_residual() <= 1e-8 + 1e-15);
        }
        prop_assert_eq!(h.iterations() + 1, h.relative_residuals.len());
    }

    #[test]
    fn workspace_reuse_is_bit_identical(a1 in spd_matrix(12),
                                        a2 in spd_matrix(12),
                                        b1 in prop::collection::vec(-2.0..2.0f64, 12),
                                        b2 in prop::collection::vec(-2.0..2.0f64, 12)) {
        // A solve through a reused (dirty) workspace must match the
        // allocating entry point bit-for-bit — `fgmres` is just
        // `fgmres_on` on a throwaway workspace.
        let cfg = GmresConfig { tol: 1e-10, ..Default::default() };
        let mut ws = KrylovWorkspace::new();

        let w1 = fgmres_on(&OneRank(&a1), &IdentityPrecond, &b1, &[0.0; 12], &cfg, &mut ws).unwrap();
        let f1 = fgmres(&a1, &IdentityPrecond, &b1, &[0.0; 12], &cfg);
        prop_assert_eq!(&w1.x, &f1.x);
        prop_assert_eq!(&w1.history.relative_residuals, &f1.history.relative_residuals);

        // Second solve reuses the now-warm workspace on a different system,
        // with a polynomial preconditioner so the scratch pool is exercised.
        let (scaled, bs, _) = parfem_sparse::scaling::scale_system(&a2, &b2).unwrap();
        let gls = GlsPrecond::for_scaled_system(5);
        let w2 = fgmres_on(&OneRank(&scaled), &gls, &bs, &[0.0; 12], &cfg, &mut ws).unwrap();
        let f2 = fgmres(&scaled, &gls, &bs, &[0.0; 12], &cfg);
        prop_assert_eq!(&w2.x, &f2.x);
        prop_assert_eq!(&w2.history.relative_residuals, &f2.history.relative_residuals);
    }
}
