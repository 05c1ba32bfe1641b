//! Property tests for the two-level coarse machinery: the algebraic
//! invariants the coarse space must satisfy regardless of mesh, part
//! count, or smoothing depth.
//!
//! - restriction and prolongation are an exact transpose pair (and satisfy
//!   the adjoint identity `⟨R v, w⟩ = ⟨v, Rᵀ w⟩` numerically),
//! - the Galerkin operator `Ẑᵀ A Ẑ` is symmetric **bit for bit** and
//!   positive semi-definite whenever `A` is SPD,
//! - construction is deterministic: identical inputs give bit-identical
//!   modes, factorizations, and corrections,
//! - the correction applied on a holder's mode set (panel columns and lists)
//!   has the bits of the triplet algorithm it replaced.
//!
//! The fixture is a random weighted 1-D diffusion chain — strictly
//! diagonally dominant, hence SPD — cut into random contiguous parts.

use parfem_precond::twolevel::{BuiltCoarse, CoarseSolver, LiveMode, ModePanel, ModeSet};
use parfem_precond::{build_coarse_basis, CoarsePartGeometry, CoarseSpec};
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_sparse::{CooMatrix, CsrMatrix, SparseLdlt};
use proptest::prelude::*;
use std::sync::Arc;

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

/// The built modes as sparse columns indexed by mode id, empty where a
/// mode has no entry.
fn columns(basis: &BuiltCoarse) -> Vec<Vec<(usize, f64)>> {
    let mut cols = vec![Vec::new(); basis.info.n_modes];
    for (m, col) in basis.modes.entries_by_mode() {
        cols[m] = col;
    }
    cols
}

/// Random per-case inputs: chain weights, part count, coarse spec.
fn case() -> impl Strategy<Value = (Vec<f64>, usize, CoarseSpec)> {
    (
        prop::collection::vec(0.5f64..4.0, 7..40),
        2usize..6,
        0usize..4,
    )
        .prop_map(|(w, p, passes)| (w, p, CoarseSpec { passes }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a disjoint (multiplicity-1) partition the sequential solver's
    /// restriction and prolongation read one entry set, the basis columns
    /// mode for mode — an exact transpose pair — and the adjoint identity
    /// holds numerically for random vectors.
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
        let cols = columns(&basis);
        let built: Vec<_> = basis.modes.entries_by_mode().collect();
        let solver = basis.solver(None);

        let held: Vec<_> = solver.modes().entries_by_mode().collect();
        prop_assert_eq!(held, built, "restrict and prolong must read the basis columns");

        // ⟨R v, w⟩ == ⟨v, Rᵀ w⟩ for random v ∈ ℝⁿ, w ∈ ℝ^modes.
        let vv = &v_bits[..n];
        let ww = &w_bits[..cols.len().min(64)];
        let mut lhs = 0.0;
        let mut rhs = 0.0;
        for (m, col) in cols.iter().enumerate() {
            if m >= ww.len() { break; }
            let rv: f64 = col.iter().map(|&(g, z)| z * vv[g]).sum();
            lhs += rv * ww[m];
        }
        for (m, col) in cols.iter().enumerate() {
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
        prop_assert_eq!(m, basis.info.n_modes);
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
        let bits = |b: &BuiltCoarse| -> Vec<Vec<(usize, u64)>> {
            columns(b)
                .iter()
                .map(|col| col.iter().map(|&(g, v)| (g, v.to_bits())).collect())
                .collect()
        };
        prop_assert_eq!(bits(&b1), bits(&b2));
        let (s1, s2) = (b1.solver(None), b2.solver(None));
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        s1.apply(&a, &v, &mut z1);
        s2.apply(&a, &v, &mut z2);
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
        &CoarseSpec { passes: 0 },
        &parts,
        &ones,
        &ones,
        &a,
        DEFAULT_PIVOT_TOL,
    );
    assert_eq!(
        basis.info.n_modes, 4,
        "one mode per part, kept even when empty"
    );
    let cols = columns(&basis);
    assert!(cols[1].is_empty(), "constrained part has no entries");
    assert!(cols[3].is_empty(), "empty part has no entries");
    let solver = basis.solver(None);
    let skipped = solver.skipped_modes();
    assert!(
        skipped.contains(&1) && skipped.contains(&3),
        "degenerate modes must be pivoted out, got {skipped:?}"
    );
    // The solve still works on the surviving modes.
    let v = vec![1.0; 10];
    let mut z = vec![0.0; 10];
    solver.apply(&a, &v, &mut z);
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
        &CoarseSpec { passes: 0 },
        &parts,
        &ones,
        &ones,
        &a,
        DEFAULT_PIVOT_TOL,
    );
    for passes in 1..=2usize {
        let spec = CoarseSpec { passes };
        let smoothed = build_coarse_basis(&spec, &parts, &ones, &ones, &a, DEFAULT_PIVOT_TOL);
        let again = build_coarse_basis(&spec, &parts, &ones, &ones, &a, DEFAULT_PIVOT_TOL);
        assert_eq!(
            smoothed.modes, again.modes,
            "construction must be deterministic"
        );
        let (smoothed, plain) = (columns(&smoothed), columns(&plain));
        for (m, (sm, pl)) in smoothed.iter().zip(&plain).enumerate() {
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

/// The coarse correction as it ran before the solver held the build's mode
/// set: every entry as a `(row, mode, value)` triplet, restriction sorted by
/// `(mode, row)` with the weights folded in, prolongation sorted by
/// `(row, mode)`. The reference the mode-set sweeps keep bit for bit.
struct TripletCorrection {
    restrict: Vec<(usize, usize, f64)>,
    prolong: Vec<(usize, usize, f64)>,
}

impl TripletCorrection {
    fn new(set: &ModeSet, weights: Option<&[f64]>) -> Self {
        let (mut restrict, mut prolong) = (Vec::new(), Vec::new());
        for (m, entries) in set.entries_by_mode() {
            for (r, v) in entries {
                restrict.push((r, m, weights.map_or(v, |w| v * w[r])));
                prolong.push((r, m, v));
            }
        }
        restrict.sort_unstable_by_key(|&(r, m, _)| (m, r));
        prolong.sort_unstable_by_key(|&(r, m, _)| (r, m));
        TripletCorrection { restrict, prolong }
    }

    fn flops(&self, factor: &SparseLdlt) -> u64 {
        2 * (self.restrict.len() + self.prolong.len()) as u64 + factor.solve_flops()
    }

    fn apply(&self, factor: &SparseLdlt, v: &[f64], z: &mut [f64]) {
        let mut y = vec![0.0; factor.dim()];
        let mut scratch = vec![0.0; factor.dim()];
        for &(r, m, w) in &self.restrict {
            y[m] += w * v[r];
        }
        factor.solve_in_place_with(&mut y, &mut scratch);
        z.fill(0.0);
        for &(r, m, w) in &self.prolong {
            z[r] += w * y[m];
        }
    }
}

/// Rows and modes of the largest random holder.
const MAX_ROWS: usize = 24;
const MAX_MODES: usize = 8;

/// A random holder: its row count, each mode's kind (`0` not held, `1` a
/// panel column, `2` a list), an entry value and a mask per (row, mode)
/// (`0`: `+0` in a column, no entry in a list; `1`: `−0` in a column, an
/// exact `0` in a list), and the vectors `v`, `z`, the weights with their
/// masks and whether the holder has weights.
type HolderCase = (usize, Vec<u8>, Vec<f64>, Vec<u8>, (Vec<f64>, Vec<u8>, u8));

fn holder_case() -> impl Strategy<Value = HolderCase> {
    let cells = MAX_ROWS * MAX_MODES;
    (
        1usize..MAX_ROWS + 1,
        prop::collection::vec(0u8..3, 1..MAX_MODES + 1),
        prop::collection::vec(-1.0f64..1.0, cells),
        prop::collection::vec(0u8..6, cells),
        (
            prop::collection::vec(-1.0f64..1.0, 3 * MAX_ROWS),
            prop::collection::vec(0u8..4, 2 * MAX_ROWS),
            0u8..2,
        ),
    )
}

/// An SPD coarse operator over `n` modes: a diagonally dominant chain.
fn coarse_operator(n: usize, values: &[f64]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for (i, &v) in values.iter().enumerate().take(n) {
        coo.push(i, i, 2.0 + i as f64).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, 0.5 * v).unwrap();
            coo.push(i + 1, i, 0.5 * v).unwrap();
        }
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A coarse solver over a mode set mixing panel columns (with `±0`
    /// entries) and lists (with exact zeros), ids interleaved, with and
    /// without weights, applies the correction with the bits of the triplet
    /// algorithm — overwriting a `z` that may hold `−0.0` — and charges the
    /// same flops.
    #[test]
    fn coarse_apply_keeps_the_triplet_bits(
        (n_rows, kinds, values, masks, (vectors, vector_masks, weighted)) in holder_case(),
    ) {
        let n_modes = kinds.len();
        let width = kinds.iter().filter(|&&k| k == 1).count();
        let mut panel = vec![0.0; n_rows * width];
        let mut modes = Vec::new();
        for (m, &kind) in kinds.iter().enumerate() {
            let entry = |r: usize| (values[r * MAX_MODES + m], masks[r * MAX_MODES + m]);
            match kind {
                1 => {
                    let c = modes.iter().filter(|l: &&LiveMode| l.column.is_some()).count();
                    for r in 0..n_rows {
                        panel[r * width + c] = match entry(r) {
                            (_, 0) => 0.0,
                            (_, 1) => -0.0,
                            (v, _) => v,
                        };
                    }
                    modes.push(LiveMode { id: m, column: Some(c), ..LiveMode::default() });
                }
                2 => {
                    let z = (0..n_rows)
                        .filter_map(|r| match entry(r) {
                            (_, 0) => None,
                            (_, 1) => Some((r, 0.0)),
                            (v, _) => Some((r, v)),
                        })
                        .collect();
                    modes.push(LiveMode { id: m, z, ..LiveMode::default() });
                }
                _ => {}
            }
        }
        let panel = if width == 0 { ModePanel::default() } else { ModePanel::from_rows(width, panel) };
        let set = ModeSet { modes, panel };
        let signed = |x: f64, mask: u8| match mask {
            0 => -0.0,
            1 => 0.0,
            _ => x,
        };
        let v: Vec<f64> = (0..n_rows).map(|r| signed(vectors[r], vector_masks[r])).collect();
        let z0: Vec<f64> = (0..n_rows)
            .map(|r| signed(vectors[MAX_ROWS + r], vector_masks[MAX_ROWS + r]))
            .collect();
        let weights = (weighted == 1)
            .then(|| (0..n_rows).map(|r| 0.25 + 0.75 * vectors[2 * MAX_ROWS + r].abs()).collect::<Vec<f64>>());

        let factor = Arc::new(SparseLdlt::factor(&coarse_operator(n_modes, &values), DEFAULT_PIVOT_TOL));
        let reference = TripletCorrection::new(&set, weights.as_deref());
        let solver = CoarseSolver::new(n_modes, set, weights, Arc::clone(&factor));
        prop_assert_eq!(solver.flops(), reference.flops(&factor));
        let op = CooMatrix::new(n_rows, n_rows).to_csr();
        let bits = |x: &[f64]| x.iter().map(|e| e.to_bits()).collect::<Vec<u64>>();
        let (mut got, mut want) = (z0.clone(), z0);
        solver.apply(&op, &v, &mut got);
        reference.apply(&factor, &v, &mut want);
        prop_assert_eq!(bits(&got), bits(&want), "{:?} vs {:?}", got, want);
    }
}
