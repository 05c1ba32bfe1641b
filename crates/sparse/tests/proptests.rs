//! Property-based tests for the sparse kernels, including the block-CSR
//! contract: the format holds the source exactly, multiplies within a pinned
//! error bound of the scalar CSR reference, and splits over block rows bit
//! for bit.

use parfem_sparse::{coo::CooMatrix, csr::CsrMatrix, dense, scaling::DiagonalScaling, BcsrMatrix};
use proptest::prelude::*;

/// Pinned error bound for a reordered row reduction: a sum of `terms`
/// products reassociated in any order differs from the reference by at most
/// a few ULPs of the magnitude sum `Σ|aᵢⱼ xⱼ|` per term.
fn reduction_bound(a: &CsrMatrix, x: &[f64], r: usize) -> f64 {
    let (row_ptr, col_idx, values) = a.raw_parts();
    let lo = row_ptr[r];
    let hi = row_ptr[r + 1];
    let mag: f64 = (lo..hi).map(|e| (values[e] * x[col_idx[e]]).abs()).sum();
    4.0 * (hi - lo + 1) as f64 * f64::EPSILON * (mag + 1.0)
}

/// Strategy: a random list of triplets inside an `n x n` shape.
fn triplets(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec(
        (0..n, 0..n, -100.0..100.0f64).prop_map(|(r, c, v)| (r, c, v)),
        0..max_len,
    )
}

/// Strategy: `(B, A)` with `A` a finite-element-shaped matrix over `n_nodes`
/// nodes of `B ∈ {2, 3}` DOFs each — full `B × B` couplings between
/// connected nodes, except that roughly one DOF in five is *constrained*:
/// its row is a lone diagonal and its column is dropped everywhere else, so
/// partly constrained nodes leave partly filled blocks.
fn node_blocked_matrix(n_nodes: usize) -> impl Strategy<Value = (usize, CsrMatrix)> {
    (
        2..4usize,
        prop::collection::vec((0..n_nodes, 0..n_nodes), 0..3 * n_nodes),
        prop::collection::vec(0..5usize, 3 * n_nodes),
        prop::collection::vec(-100.0..100.0f64, 64),
    )
        .prop_map(move |(b, edges, marks, vals)| {
            let n = b * n_nodes;
            let fixed = |dof: usize| marks[dof] == 0;
            let mut coo = CooMatrix::new(n, n);
            let mut k = 0;
            let mut couple = |p: usize, q: usize, coo: &mut CooMatrix| {
                for (r, c) in (0..b).flat_map(|i| (0..b).map(move |j| (b * p + i, b * q + j))) {
                    k += 1;
                    if !fixed(r) && !fixed(c) {
                        coo.push(r, c, vals[k % vals.len()]).unwrap();
                    }
                }
            };
            for p in 0..n_nodes {
                couple(p, p, &mut coo);
            }
            for &(p, q) in edges.iter().filter(|(p, q)| p != q) {
                couple(p, q, &mut coo);
                couple(q, p, &mut coo);
            }
            for dof in (0..n).filter(|&dof| fixed(dof)) {
                coo.push(dof, dof, 0.5).unwrap();
            }
            (b, coo.to_csr())
        })
}

/// Strategy: a random symmetric positive definite matrix built as
/// `B + B^T + shift*I` from random triplets.
fn spd_matrix(n: usize) -> impl Strategy<Value = CsrMatrix> {
    triplets(n, 4 * n).prop_map(move |ts| {
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in ts {
            coo.push(r, c, v).unwrap();
            coo.push(c, r, v).unwrap();
        }
        let b = coo.to_csr();
        // Diagonal shift beyond the Gershgorin radius makes it SPD.
        let radius = b
            .row_abs_sums()
            .into_iter()
            .fold(0.0_f64, f64::max)
            .max(1.0);
        let shift = CsrMatrix::from_diagonal(&vec![2.0 * radius; n]);
        shift.add_scaled(1.0, &b).unwrap()
    })
}

proptest! {
    #[test]
    fn coo_to_csr_preserves_sums(ts in triplets(12, 120)) {
        // The CSR entry (r, c) must equal the sum of all triplets at (r, c).
        let mut coo = CooMatrix::new(12, 12);
        let mut dense_ref = vec![0.0f64; 12 * 12];
        for &(r, c, v) in &ts {
            coo.push(r, c, v).unwrap();
            dense_ref[r * 12 + c] += v;
        }
        let csr = coo.to_csr();
        for r in 0..12 {
            for c in 0..12 {
                let got = csr.get(r, c);
                let want = dense_ref[r * 12 + c];
                prop_assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "mismatch at ({}, {}): {} vs {}", r, c, got, want);
            }
        }
    }

    #[test]
    fn csr_invariants_hold_after_conversion(ts in triplets(10, 80)) {
        let mut coo = CooMatrix::new(10, 10);
        for &(r, c, v) in &ts {
            coo.push(r, c, v).unwrap();
        }
        let csr = coo.to_csr();
        let (row_ptr, col_idx, values) = csr.raw_parts();
        prop_assert_eq!(row_ptr.len(), 11);
        prop_assert_eq!(row_ptr[0], 0);
        prop_assert_eq!(*row_ptr.last().unwrap(), values.len());
        for r in 0..10 {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                prop_assert!(w[0] < w[1], "columns not sorted in row {}", r);
            }
        }
        // Round-trip through from_raw_parts must succeed.
        prop_assert!(CsrMatrix::from_raw_parts(
            10, 10, row_ptr.to_vec(), col_idx.to_vec(), values.to_vec()).is_ok());
    }

    #[test]
    fn spmv_matches_dense_reference(ts in triplets(9, 60), x in prop::collection::vec(-10.0..10.0f64, 9)) {
        let mut coo = CooMatrix::new(9, 9);
        let mut dense_ref = vec![0.0f64; 81];
        for &(r, c, v) in &ts {
            coo.push(r, c, v).unwrap();
            dense_ref[r * 9 + c] += v;
        }
        let csr = coo.to_csr();
        let y = csr.spmv(&x);
        for r in 0..9 {
            let want: f64 = (0..9).map(|c| dense_ref[r * 9 + c] * x[c]).sum();
            prop_assert!((y[r] - want).abs() <= 1e-8 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn transpose_is_involutive(ts in triplets(8, 50)) {
        let mut coo = CooMatrix::new(8, 8);
        for &(r, c, v) in &ts {
            coo.push(r, c, v).unwrap();
        }
        let csr = coo.to_csr();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn transpose_swaps_spmv_roles(ts in triplets(7, 40),
                                  x in prop::collection::vec(-5.0..5.0f64, 7),
                                  y in prop::collection::vec(-5.0..5.0f64, 7)) {
        // <A x, y> == <x, A^T y>
        let mut coo = CooMatrix::new(7, 7);
        for &(r, c, v) in &ts {
            coo.push(r, c, v).unwrap();
        }
        let a = coo.to_csr();
        let lhs = dense::dot(&a.spmv(&x), &y);
        let rhs = dense::dot(&x, &a.transpose().spmv(&y));
        prop_assert!((lhs - rhs).abs() <= 1e-8 * (1.0 + lhs.abs()));
    }

    #[test]
    fn norm1_scaling_bounds_spectrum(a in spd_matrix(10)) {
        // After DKD scaling, lambda_max <= 1 (paper Eq. 12). The bound is on
        // the quadratic form, not the Gershgorin discs of the scaled matrix.
        let s = DiagonalScaling::from_matrix(&a).unwrap();
        let scaled = s.scale_matrix(&a);
        let lmax = parfem_sparse::gershgorin::power_iteration_lambda_max(&scaled, 20_000, 1e-13);
        prop_assert!(lmax <= 1.0 + 1e-8, "lambda_max {} > 1", lmax);
    }

    #[test]
    fn scaling_round_trip_preserves_rhs(a in spd_matrix(8),
                                        u in prop::collection::vec(-3.0..3.0f64, 8)) {
        // If f = K u, then with (A, b) = scale(K, f) and x = D^{-1} u we must
        // have A x = b. Verify via residual identity: A (D^{-1} u) - D f = 0.
        let f = a.spmv(&u);
        let (scaled, b, s) = parfem_sparse::scaling::scale_system(&a, &f).unwrap();
        // x = D^{-1} u: since scaled x should satisfy u = D x.
        let x: Vec<f64> = u.iter().zip(s.diagonal()).map(|(ui, di)| ui / di).collect();
        let ax = scaled.spmv(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() <= 1e-7 * (1.0 + bi.abs()),
                "residual component {} vs {}", axi, bi);
        }
    }

    #[test]
    fn ilu0_solves_spd_diagonally_dominant_well(a in spd_matrix(10),
                                                xe in prop::collection::vec(-2.0..2.0f64, 10)) {
        // Strong diagonal dominance makes ILU(0) an accurate solver: the
        // preconditioned residual must shrink substantially.
        let ilu = parfem_sparse::Ilu0::factorize(&a).unwrap();
        let b = a.spmv(&xe);
        let z = ilu.solve(&b);
        let az = a.spmv(&z);
        let num: f64 = az.iter().zip(&b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        let den: f64 = dense::norm2(&b).max(1e-12);
        prop_assert!(num / den < 0.5, "relative residual {}", num / den);
    }

    #[test]
    fn dense_kernels_are_consistent(x in prop::collection::vec(-10.0..10.0f64, 1..64),
                                    alpha in -4.0..4.0f64) {
        // norm2^2 == dot(x, x); axpy of alpha then -alpha is identity.
        let n2 = dense::norm2(&x);
        let d = dense::dot(&x, &x);
        prop_assert!((n2 * n2 - d).abs() <= 1e-9 * (1.0 + d.abs()));

        let mut y = x.clone();
        dense::axpy(alpha, &x, &mut y);
        dense::axpy(-alpha, &x, &mut y);
        for (a, b) in y.iter().zip(&x) {
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
        }
    }
}

// Block-format contract: pinned against the scalar CSR reference — every
// source entry recovered exactly, row sums within `reduction_bound`, block-row
// subsets bit-identical to the full product.
proptest! {
    #[test]
    fn bcsr_round_trips_csr_exactly(ts in triplets(18, 120), b in 2..4usize) {
        // 18 = 2·9 = 3·6: either blocking must hold every source entry
        // exactly and nothing but zeros besides. Unit vectors read the
        // columns back (a product with 1.0 and sums with 0.0 are exact).
        let mut coo = CooMatrix::new(18, 18);
        for &(r, c, v) in &ts {
            coo.push(r, c, v).unwrap();
        }
        let a = coo.to_csr();
        let blocks = BcsrMatrix::from_csr(&a, b).expect("18 is a multiple of 2 and 3");
        prop_assert_eq!(blocks.nnz(), a.nnz());
        prop_assert!(blocks.fill_ratio() >= 1.0);
        prop_assert_eq!(blocks.diagonal(), a.diagonal());
        for c in 0..18 {
            let mut e = vec![0.0; 18];
            e[c] = 1.0;
            for (r, &v) in blocks.spmv(&e).iter().enumerate() {
                prop_assert_eq!(v, a.get(r, c), "entry ({}, {})", r, c);
            }
        }
    }

    #[test]
    fn bcsr_spmv_within_reduction_bound(
        (b, a) in node_blocked_matrix(8),
        xs in prop::collection::vec(-5.0..5.0f64, 24),
        cut in prop::collection::vec(0..2usize, 12),
    ) {
        // The block kernel regroups each row reduction into block-column
        // order with fused fill-in zeros — within the reassociation bound of
        // the CSR reference, not bit-identical to it.
        let x = &xs[..a.n_cols()];
        let mut scalar = vec![0.0; a.n_rows()];
        a.spmv_into(x, &mut scalar);
        let blocks = BcsrMatrix::from_csr(&a, b).expect("node-blocked by construction");
        let got = blocks.spmv(x);
        for r in 0..a.n_rows() {
            prop_assert!((got[r] - scalar[r]).abs() <= reduction_bound(&a, x, r),
                "b={} row {}: {} vs {}", b, r, got[r], scalar[r]);
        }
        // Any partition of the block rows into two indexed calls reassembles
        // the full product bit for bit.
        let (first, second): (Vec<u32>, Vec<u32>) =
            (0..blocks.n_block_rows() as u32).partition(|&r| cut[r as usize] == 0);
        let mut split = vec![f64::NAN; a.n_rows()];
        blocks.spmv_block_rows(x, &mut split, &second);
        blocks.spmv_block_rows(x, &mut split, &first);
        for r in 0..a.n_rows() {
            prop_assert_eq!(split[r].to_bits(), got[r].to_bits(), "split row {}", r);
        }
    }
}

/// Dense Gaussian elimination with partial pivoting — the reference the
/// sparse direct solver is pinned against.
fn dense_lu_solve(n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut m = a.to_vec();
    let mut x = b.to_vec();
    for k in 0..n {
        let piv = (k..n)
            .max_by(|&r, &s| m[r * n + k].abs().total_cmp(&m[s * n + k].abs()))
            .unwrap();
        if piv != k {
            for c in 0..n {
                m.swap(k * n + c, piv * n + c);
            }
            x.swap(k, piv);
        }
        let d = m[k * n + k];
        assert!(d.abs() > 1e-300, "dense LU hit a zero pivot");
        for r in k + 1..n {
            let f = m[r * n + k] / d;
            if f == 0.0 {
                continue;
            }
            for c in k..n {
                m[r * n + c] -= f * m[k * n + c];
            }
            x[r] -= f * x[k];
        }
    }
    for k in (0..n).rev() {
        let mut s = x[k];
        for c in k + 1..n {
            s -= m[k * n + c] * x[c];
        }
        x[k] = s / m[k * n + k];
    }
    x
}

/// Strategy: a free-free weighted chain Laplacian with `extra` random extra
/// edges — symmetric PSD with exactly the constant vector in its null space
/// (the chain keeps the graph connected), the scalar model of a floating
/// subdomain (Eq. 45's ILU(0) breakdown case).
fn floating_laplacian(n: usize) -> impl Strategy<Value = CsrMatrix> {
    (
        prop::collection::vec(0.1..10.0f64, n - 1),
        prop::collection::vec((0..n, 0..n, 0.1..5.0f64), 0..2 * n),
    )
        .prop_map(move |(chain, extra)| {
            let mut coo = CooMatrix::new(n, n);
            let edge = |i: usize, j: usize, w: f64, coo: &mut CooMatrix| {
                coo.push(i, i, w).unwrap();
                coo.push(j, j, w).unwrap();
                coo.push(i, j, -w).unwrap();
                coo.push(j, i, -w).unwrap();
            };
            for (i, &w) in chain.iter().enumerate() {
                edge(i, i + 1, w, &mut coo);
            }
            for &(i, j, w) in &extra {
                if i != j {
                    edge(i, j, w, &mut coo);
                }
            }
            coo.to_csr()
        })
}

// Sparse-direct contracts (PR 10): the fill-reducing LDL^T solver is
// pinned against dense LU on well-conditioned subdomain-sized matrices, and
// its pivot-skipping pseudo-inverse solves range RHS on floating (singular)
// operators exactly where ILU(0) breaks down.
proptest! {
    #[test]
    fn direct_matches_dense_lu(a in spd_matrix(10),
                               xe in prop::collection::vec(-2.0..2.0f64, 10)) {
        use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
        let b = a.spmv(&xe);
        let factor = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        prop_assert_eq!(factor.n_skipped(), 0);
        let mut z = b.clone();
        factor.solve_in_place(&mut z);
        let reference = dense_lu_solve(10, &a.to_dense(), &b);
        let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (zi, ri) in z.iter().zip(&reference) {
            prop_assert!((zi - ri).abs() <= 1e-12 * scale,
                "direct {} vs dense LU {}", zi, ri);
        }
    }

    #[test]
    fn direct_solve_is_deterministic(a in spd_matrix(9),
                                     b in prop::collection::vec(-3.0..3.0f64, 9)) {
        use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
        let f1 = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        let f2 = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        prop_assert_eq!(f1.permutation(), f2.permutation());
        let mut z1 = b.clone();
        let mut z2 = b;
        f1.solve_in_place(&mut z1);
        f2.solve_in_place(&mut z2);
        prop_assert_eq!(z1, z2);
    }

    #[test]
    fn direct_solves_floating_operators_on_range_rhs(a in floating_laplacian(11),
                                                     xe in prop::collection::vec(-2.0..2.0f64, 11)) {
        use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
        // The constant mode is in the null space, so A xe is in the range.
        let b = a.spmv(&xe);
        let factor = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        prop_assert_eq!(factor.n_skipped(), 1, "chain Laplacian has one null mode");
        let mut z = b.clone();
        factor.solve_in_place(&mut z);
        let az = a.spmv(&z);
        let bnorm = dense::norm2(&b).max(1e-12);
        for (p, q) in az.iter().zip(&b) {
            prop_assert!((p - q).abs() <= 1e-9 * bnorm,
                "range residual {} vs {}", p, q);
        }
    }
}
