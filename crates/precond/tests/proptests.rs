//! Property-based tests for the polynomial preconditioners, and for the
//! panel kernel of the coarse build's ghosted row view.

use parfem_precond::gls::{GlsPrecond, IntervalUnion};
use parfem_precond::neumann::NeumannPrecond;
use parfem_precond::twolevel::LocalRows;
use parfem_precond::Preconditioner;
use parfem_sparse::{BcsrMatrix, CooMatrix, CsrMatrix, SparseRows};
use proptest::prelude::*;

/// Strategy: a random single positive interval bounded away from 0.
fn interval() -> impl Strategy<Value = (f64, f64)> {
    (0.01..1.0f64, 0.05..3.0f64).prop_map(|(lo, width)| (lo, lo + width))
}

/// Strategy: a random two-sided (indefinite) interval union.
fn two_sided() -> impl Strategy<Value = IntervalUnion> {
    (0.1..2.0f64, 0.1..2.0f64, 0.05..1.0f64)
        .prop_map(|(l, r, gap)| IntervalUnion::new(vec![(-l - gap, -gap), (gap, r + gap)]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gls_residual_is_one_at_zero_for_any_theta((lo, hi) in interval(), m in 0usize..12) {
        let p = GlsPrecond::new(m, IntervalUnion::single(lo, hi));
        prop_assert!((p.residual(0.0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gls_weighted_norm_never_increases_with_degree((lo, hi) in interval(), m in 1usize..10) {
        let theta = IntervalUnion::single(lo, hi);
        let n_lo = GlsPrecond::new(m, theta.clone()).weighted_residual_norm();
        let n_hi = GlsPrecond::new(m + 1, theta).weighted_residual_norm();
        prop_assert!(n_hi <= n_lo + 1e-9, "degree {}: {} -> {}", m, n_lo, n_hi);
    }

    #[test]
    fn gls_matrix_apply_matches_scalar_eval((lo, hi) in interval(),
                                            m in 1usize..9,
                                            lambdas in prop::collection::vec(0.01..3.0f64, 3)) {
        let p = GlsPrecond::new(m, IntervalUnion::single(lo, hi));
        let a = CsrMatrix::from_diagonal(&lambdas);
        let z = p.apply(&a, &vec![1.0; lambdas.len()]);
        for (zi, &l) in z.iter().zip(&lambdas) {
            let want = p.eval(l);
            prop_assert!((zi - want).abs() < 1e-8 * (1.0 + want.abs()),
                "lambda {}: {} vs {}", l, zi, want);
        }
    }

    #[test]
    fn gls_handles_random_indefinite_unions(theta in two_sided(), m in 2usize..10) {
        // Construction must succeed and damp both sides of the spectrum at
        // the interval midpoints better than the trivial residual 1.
        let p = GlsPrecond::new(m, theta.clone());
        for &(a, b) in theta.intervals() {
            let mid = 0.5 * (a + b);
            prop_assert!(p.residual(mid).abs() < 1.0,
                "no damping at midpoint {} of {:?}", mid, (a, b));
        }
    }

    #[test]
    fn gls_monomial_matches_recurrence_eval((lo, hi) in interval(), m in 1usize..7) {
        let p = GlsPrecond::new(m, IntervalUnion::single(lo, hi));
        let poly = p.monomial();
        for k in 0..=10 {
            let l = lo + (hi - lo) * k as f64 / 10.0;
            let a = poly.eval(l);
            let b = p.eval(l);
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{} vs {}", a, b);
        }
    }

    #[test]
    fn neumann_residual_matches_direct_evaluation(omega in 0.1..2.0f64,
                                                  m in 0usize..15,
                                                  lambda in 0.0..2.0f64) {
        let p = NeumannPrecond::new(m, omega);
        let direct = 1.0 - lambda * p.eval(lambda);
        prop_assert!((p.residual(lambda) - direct).abs() < 1e-9 * (1.0 + direct.abs()));
    }

    #[test]
    fn neumann_converges_geometrically_inside_the_disc(omega in 0.5..1.5f64,
                                                       lambda in 0.05..1.0f64) {
        // |1 - omega*lambda| < 1 ==> residual shrinks monotonically in m.
        prop_assume!((1.0 - omega * lambda).abs() < 0.95);
        let r5 = NeumannPrecond::new(5, omega).residual(lambda).abs();
        let r10 = NeumannPrecond::new(10, omega).residual(lambda).abs();
        prop_assert!(r10 <= r5 + 1e-12);
    }

    #[test]
    fn preconditioner_apply_is_linear((lo, hi) in interval(),
                                      m in 1usize..7,
                                      alpha in -3.0..3.0f64,
                                      d in prop::collection::vec(0.1..2.0f64, 4),
                                      v in prop::collection::vec(-2.0..2.0f64, 4),
                                      w in prop::collection::vec(-2.0..2.0f64, 4)) {
        // P(A)(alpha v + w) == alpha P(A)v + P(A)w.
        let p = GlsPrecond::new(m, IntervalUnion::single(lo, hi));
        let a = CsrMatrix::from_diagonal(&d);
        let combo: Vec<f64> = v.iter().zip(&w).map(|(x, y)| alpha * x + y).collect();
        let lhs = p.apply(&a, &combo);
        let pv = p.apply(&a, &v);
        let pw = p.apply(&a, &w);
        for ((l, x), y) in lhs.iter().zip(&pv).zip(&pw) {
            let rhs = alpha * x + y;
            prop_assert!((l - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
        }
    }
}

/// The first entry where `Y = A Z` from [`SparseRows::mul_panel`] (width
/// `k`), or one row of it from [`SparseRows::mul_panel_row`], differs from
/// [`SparseRows::row_dot`] of the same column of `Z`, bit for bit (a NaN
/// matches a NaN); `None` when every column agrees.
fn panel_mismatch<A: SparseRows + ?Sized>(a: &A, z: &[f64], k: usize) -> Option<String> {
    let mut y = vec![f64::NAN; a.n_rows() * k];
    a.mul_panel(z, k, &mut y);
    let mut row = vec![f64::NAN; k];
    for r in 0..a.n_rows() {
        a.mul_panel_row(r, z, k, &mut row);
        for c in 0..k {
            let column: Vec<f64> = (0..a.n_cols()).map(|j| z[j * k + c]).collect();
            let want = a.row_dot(r, &column);
            for (what, got) in [("panel", y[r * k + c]), ("panel row", row[c])] {
                if got.to_bits() != want.to_bits() && !(got.is_nan() && want.is_nan()) {
                    return Some(format!(
                        "{what}, width {k}, row {r}, column {c}: {got:e} vs {want:e}"
                    ));
                }
            }
        }
    }
    None
}

/// A matrix of `rows × cols` from triplets (duplicates summed).
fn from_triplets(rows: usize, cols: usize, ts: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(rows, cols);
    for &(r, c, v) in ts {
        coo.push(r % rows, c % cols, v).unwrap();
    }
    coo.to_csr()
}

// The RDD row view `[A_loc | A_ext]`: a panel over the owned rows and the
// ghost columns gives every column the chain of its own row dot, which runs
// on from the square block into the ghost block — with the (symmetric)
// square block as CSR and as 3×3 node blocks whose fill is skipped.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ghost_view_panel_columns_have_the_bits_of_their_row_dots(
        square in prop::collection::vec((0usize..12, 0usize..12, -9.0..9.0f64), 0..60),
        ghost in prop::collection::vec((0usize..12, 0usize..5, -9.0..9.0f64), 0..20),
        zs in prop::collection::vec(-5.0..5.0f64, 17 * 13),
        nan_row in 0usize..17,
    ) {
        // Node blocks hold symmetric matrices: the square block mirrored.
        let mirrored: Vec<_> = square.iter().flat_map(|&(r, c, v)| [(r, c, v), (c, r, v)]).collect();
        let a_loc = from_triplets(12, 12, &mirrored);
        let a_ext = from_triplets(12, 5, &ghost);
        let blocks = BcsrMatrix::from_csr(&a_loc, 3).expect("12 rows of 3-dof nodes");
        for k in [1, 3, 12, 13] {
            let mut z = zs[..17 * k].to_vec();
            z[nan_row * k + k / 2] = f64::NAN;
            let csr = panel_mismatch(&LocalRows::with_ghosts(&a_loc, &a_ext, 5), &z, k);
            prop_assert!(csr.is_none(), "csr: {}", csr.unwrap_or_default());
            let bcsr = panel_mismatch(&LocalRows::with_ghosts(&blocks, &a_ext, 5), &z, k);
            prop_assert!(bcsr.is_none(), "bcsr: {}", bcsr.unwrap_or_default());
        }
    }
}
