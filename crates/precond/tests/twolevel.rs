//! Property tests for the two-level coarse machinery: the algebraic
//! invariants every coarse space must satisfy regardless of mesh, part
//! count, or mode family.
//!
//! - restriction and prolongation are an exact transpose pair (and satisfy
//!   the adjoint identity `⟨R v, w⟩ = ⟨v, Rᵀ w⟩` numerically),
//! - the Galerkin operator `Ẑᵀ A Ẑ` is symmetric **bit for bit** and
//!   positive semi-definite whenever `A` is SPD,
//! - construction is deterministic: identical inputs give bit-identical
//!   modes, factorizations, and corrections.
//!
//! The fixture is a random weighted 1-D diffusion chain — strictly
//! diagonally dominant, hence SPD — cut into random contiguous parts.

use parfem_precond::{build_coarse_basis, CoarsePartGeometry, CoarseSpec};
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// A random SPD chain matrix: off-diagonals `-w_i` on the super/sub
/// diagonal, diagonal = incident weight sum + `shift`.
fn chain_matrix(weights: &[f64], shift: f64) -> CsrMatrix {
    let n = weights.len() + 1;
    let mut coo = CooMatrix::new(n, n);
    let mut diag = vec![shift; n];
    for (i, &w) in weights.iter().enumerate() {
        coo.push(i, i + 1, -w).unwrap();
        coo.push(i + 1, i, -w).unwrap();
        diag[i] += w;
        diag[i + 1] += w;
    }
    for (i, &v) in diag.iter().enumerate() {
        coo.push(i, i, v).unwrap();
    }
    coo.to_csr()
}

/// Cuts `0..n` into `p` contiguous scalar parts (disjoint, multiplicity 1),
/// with the first `n_fixed` dofs marked constrained.
fn strip_parts(n: usize, p: usize, n_fixed: usize) -> Vec<CoarsePartGeometry> {
    (0..p)
        .map(|q| {
            let lo = q * n / p;
            let hi = (q + 1) * n / p;
            let dofs: Vec<usize> = (lo..hi).collect();
            CoarsePartGeometry {
                pos: dofs.iter().map(|&g| [g as f64, 0.0, 0.0]).collect(),
                comp: vec![0; dofs.len()],
                constrained: dofs.iter().map(|&g| g < n_fixed).collect(),
                dofs,
            }
        })
        .collect()
}

/// Random per-case inputs: chain weights, part count, coarse spec.
fn case() -> impl Strategy<Value = (Vec<f64>, usize, CoarseSpec)> {
    (
        prop::collection::vec(0.5f64..4.0, 7..40),
        2usize..6,
        0usize..5,
        1usize..4,
    )
        .prop_map(|(w, p, c, k)| {
            let spec = match c {
                0 => CoarseSpec::Const,
                1 => CoarseSpec::Rbm,
                2 => CoarseSpec::LowRank(k),
                3 => CoarseSpec::Smoothed(Box::new(CoarseSpec::Const), k),
                _ => CoarseSpec::Smoothed(Box::new(CoarseSpec::Rbm), k),
            };
            (w, p, spec)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a disjoint (multiplicity-1) partition the sequential solver's
    /// restriction and prolongation are the identical triplet set — an
    /// exact transpose pair — and the adjoint identity holds numerically
    /// for random vectors.
    #[test]
    fn restriction_is_the_transpose_of_prolongation(
        (w, p, spec) in case(),
        v_bits in prop::collection::vec(-1.0f64..1.0, 64),
        w_bits in prop::collection::vec(-1.0f64..1.0, 64),
    ) {
        let a = chain_matrix(&w, 0.3);
        let n = a.n_rows();
        let parts = strip_parts(n, p, 1);
        let ones = vec![1.0; n];
        let basis = build_coarse_basis(&spec, &parts, &ones, &ones, &a, DEFAULT_PIVOT_TOL);
        let solver = basis.solver();

        let mut r: Vec<_> = solver.restrict_entries().to_vec();
        let mut pr: Vec<_> = solver.prolong_entries().to_vec();
        let key = |t: &(usize, usize, f64)| (t.0, t.1, t.2.to_bits());
        r.sort_by_key(key);
        pr.sort_by_key(key);
        prop_assert_eq!(r, pr, "restrict and prolong must be the same triplet set");

        // ⟨R v, w⟩ == ⟨v, Rᵀ w⟩ for random v ∈ ℝⁿ, w ∈ ℝ^modes.
        let vv = &v_bits[..n];
        let ww = &w_bits[..basis.n_modes().min(64)];
        let mut lhs = 0.0;
        let mut rhs = 0.0;
        for (m, col) in basis.modes.iter().enumerate() {
            if m >= ww.len() { break; }
            let rv: f64 = col.iter().map(|&(g, z)| z * vv[g]).sum();
            lhs += rv * ww[m];
        }
        for (m, col) in basis.modes.iter().enumerate() {
            if m >= ww.len() { break; }
            for &(g, z) in col {
                rhs += vv[g] * z * ww[m];
            }
        }
        prop_assert!(
            (lhs - rhs).abs() <= 1e-10 * (1.0 + lhs.abs().max(rhs.abs())),
            "adjoint identity violated: {} vs {}", lhs, rhs
        );
    }

    /// The Galerkin coarse operator is symmetric bit for bit and positive
    /// semi-definite on SPD input.
    #[test]
    fn galerkin_operator_is_bitwise_symmetric_and_psd(
        (w, p, spec) in case(),
        x_bits in prop::collection::vec(-1.0f64..1.0, 64),
    ) {
        let a = chain_matrix(&w, 0.3);
        let n = a.n_rows();
        let parts = strip_parts(n, p, 1);
        let ones = vec![1.0; n];
        let basis = build_coarse_basis(&spec, &parts, &ones, &ones, &a, DEFAULT_PIVOT_TOL);
        let a_c = &basis.a_c;
        let m = a_c.n_rows();
        prop_assert_eq!(m, basis.n_modes());
        for i in 0..m {
            for j in 0..m {
                prop_assert_eq!(
                    a_c.get(i, j).to_bits(),
                    a_c.get(j, i).to_bits(),
                    "A_c[{},{}] != A_c[{},{}] bitwise", i, j, j, i
                );
            }
        }
        let x = &x_bits[..m.min(64)];
        let mut quad = 0.0;
        for i in 0..x.len() {
            for j in 0..x.len() {
                quad += x[i] * a_c.get(i, j) * x[j];
            }
        }
        prop_assert!(quad >= -1e-10, "xᵀ A_c x = {} < 0 on SPD input", quad);
    }

    /// Identical inputs produce bit-identical coarse corrections — the
    /// construction has no hidden iteration-order or pointer dependence.
    #[test]
    fn construction_is_deterministic((w, p, spec) in case()) {
        let a = chain_matrix(&w, 0.3);
        let n = a.n_rows();
        let parts = strip_parts(n, p, 1);
        let ones = vec![1.0; n];
        let b1 = build_coarse_basis(&spec, &parts, &ones, &ones, &a, DEFAULT_PIVOT_TOL);
        let b2 = build_coarse_basis(&spec, &parts, &ones, &ones, &a, DEFAULT_PIVOT_TOL);
        let bits = |m: &Vec<Vec<(usize, f64)>>| -> Vec<Vec<(usize, u64)>> {
            m.iter()
                .map(|col| col.iter().map(|&(g, v)| (g, v.to_bits())).collect())
                .collect()
        };
        prop_assert_eq!(bits(&b1.modes), bits(&b2.modes));
        let (s1, s2) = (b1.solver(), b2.solver());
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        s1.apply_overwrite(&a, &v, &mut z1);
        s2.apply_overwrite(&a, &v, &mut z2);
        let u1: Vec<u64> = z1.iter().map(|x| x.to_bits()).collect();
        let u2: Vec<u64> = z2.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(u1, u2, "corrections must agree bit for bit");
    }
}

/// A fully-constrained part and an empty part both yield empty (pivoted)
/// mode blocks without failing — the numbering stays stable.
#[test]
fn degenerate_parts_are_pivoted_not_fatal() {
    let a = chain_matrix(&[1.0; 9], 0.2);
    let mut parts = strip_parts(10, 3, 0);
    for c in parts[1].constrained.iter_mut() {
        *c = true; // middle part fully constrained
    }
    parts.push(CoarsePartGeometry::default()); // empty trailing part
    let ones = vec![1.0; 10];
    let basis = build_coarse_basis(
        &CoarseSpec::Const,
        &parts,
        &ones,
        &ones,
        &a,
        DEFAULT_PIVOT_TOL,
    );
    assert_eq!(
        basis.n_modes(),
        4,
        "one mode per part, kept even when empty"
    );
    assert!(basis.modes[1].is_empty(), "constrained part has no entries");
    assert!(basis.modes[3].is_empty(), "empty part has no entries");
    let solver = basis.solver();
    let skipped = solver.skipped_modes();
    assert!(
        skipped.contains(&1) && skipped.contains(&3),
        "degenerate modes must be pivoted out, got {skipped:?}"
    );
    // The solve still works on the surviving modes.
    let v = vec![1.0; 10];
    let mut z = vec![0.0; 10];
    solver.apply_overwrite(&a, &v, &mut z);
    assert!(z.iter().all(|x| x.is_finite()));
    assert!(z.iter().any(|&x| x != 0.0), "live modes must contribute");
}

/// Prolongator smoothing widens each live mode's support by one stencil
/// layer per pass (here: one chain neighbour each side), never shrinks it,
/// and the construction stays bit-for-bit deterministic.
#[test]
fn smoothing_widens_support_deterministically() {
    let a = chain_matrix(&[1.0; 19], 0.3);
    let parts = strip_parts(20, 4, 0);
    let ones = vec![1.0; 20];
    let plain = build_coarse_basis(
        &CoarseSpec::Const,
        &parts,
        &ones,
        &ones,
        &a,
        DEFAULT_PIVOT_TOL,
    );
    for passes in 1..=2usize {
        let spec = CoarseSpec::Smoothed(Box::new(CoarseSpec::Const), passes);
        let smoothed = build_coarse_basis(&spec, &parts, &ones, &ones, &a, DEFAULT_PIVOT_TOL);
        let again = build_coarse_basis(&spec, &parts, &ones, &ones, &a, DEFAULT_PIVOT_TOL);
        assert_eq!(
            smoothed.modes, again.modes,
            "construction must be deterministic"
        );
        for (m, (sm, pl)) in smoothed.modes.iter().zip(&plain.modes).enumerate() {
            let sm_dofs: Vec<usize> = sm.iter().map(|&(g, _)| g).collect();
            for &(g, _) in pl {
                assert!(sm_dofs.contains(&g), "mode {m}: support must not shrink");
            }
            let lo = pl.first().unwrap().0;
            let hi = pl.last().unwrap().0;
            let expect_lo = lo.saturating_sub(passes);
            let expect_hi = (hi + passes).min(19);
            assert_eq!(
                (sm_dofs[0], *sm_dofs.last().unwrap()),
                (expect_lo, expect_hi),
                "mode {m}: support must widen by exactly {passes} chain layers"
            );
        }
    }
}
