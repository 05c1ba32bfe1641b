//! Two-level preconditioning: a per-subdomain coarse space composed with
//! the polynomial smoothers.
//!
//! One-level polynomial preconditioners act locally — information moves one
//! subdomain per application, so FGMRES iteration counts grow with the part
//! count `P`. The classical fix (Nicolaides coarse spaces, smoothed
//! aggregation, the balancing Neumann–Neumann and FETI-DP families) is a
//! **coarse space**: a few vectors per part spanning the near-null space of
//! the operator, with a direct solve on the Galerkin coarse operator
//! `A_c = Zᵀ A Z` propagating global information every application. This
//! module provides one such space, in three parts:
//!
//! - `modes` — [`CoarseSpec`], each part's partition-of-unity rigid-body
//!   modes (translations, plus rotations for 2- and 3-component problems)
//!   with an optional count of prolongator-smoothing passes, and the
//!   holder's [`ModeSet`]: sparse [`LiveMode`] lists and the dense
//!   [`ModePanel`] columns,
//! - `build` — [`build_coarse`], the one deterministic construction of the
//!   coarse basis `Ẑ` (in post-scaling space) and the factored Galerkin
//!   operator, from plain per-part geometry slices (no mesh dependency),
//!   generic over the [`CoarseSetup`] hooks: a rank of a distributed solve
//!   builds its own share from its own rows and two exchange points, and
//!   the sequential [`build_coarse_basis`] is the same code over an
//!   assembled matrix whose hooks are no-ops,
//! - `solver` — [`CoarseSolver`], the runtime correction on the build's
//!   [`ModeSet`] (restriction `y = Ẑᵀ v`, a cross-rank
//!   [`CoarseReduce::coarse_reduce`] sum, a redundant sparse-LDLᵀ solve and
//!   prolongation `z = Ẑ y`, allocation-free after construction);
//!   [`TwoLevelPrecond`], the multiplicative composition
//!   `z_c = Ẑ A_c⁻¹ Ẑᵀ v; z = z_c + M_s (v − A z_c)` around any existing
//!   smoother; and [`SpecPrecond`], the registry's concrete built form
//!   covering both one-level and two-level specs.
//!
//! ## Scaled-space convention
//!
//! The solvers work on the norm-1 scaled operator `A = D K D` with
//! `D = diag(d)`. A geometric near-null vector `z` of `K` (e.g. a rigid
//! body mode) maps to `Ẑ = D⁻¹ z`, i.e. `Ẑ[g] = z[g] / d[g]`, and the
//! Galerkin operator `Ẑᵀ A Ẑ = zᵀ K z` is exactly the unscaled one — so
//! building in scaled space loses nothing.
//!
//! ## Determinism
//!
//! Mode numbering is `part · modes_per_part + k`, entry lists are sorted,
//! products run in stored row order and dots in ascending row order, the
//! coarse reduce is the deterministic rank-ordered sum every rank already
//! uses for dot products, and the redundant coarse factorization and solve
//! run bit-identically on every rank — so interface values of the
//! prolonged correction agree bit for bit across ranks, preserving every
//! existing bit-identity invariant.

mod build;
mod modes;
mod solver;

pub use build::{
    build_coarse, build_coarse_basis, BuiltCoarse, CoarseBuildInfo, CoarseSetup, LocalRows,
};
pub use modes::{mode_slot, CoarsePartGeometry, CoarseSpec, LiveMode, ModePanel, ModeSet};
pub use solver::{CoarseReduce, CoarseSolver, SpecPrecond, TwoLevelPrecond};

#[cfg(test)]
mod tests {
    use super::modes::geometric_modes;
    use super::*;
    use crate::{JacobiPrecond, Preconditioner};
    use parfem_sparse::{CooMatrix, CsrMatrix, LinearOperator};

    /// 1-D scaled Laplacian chain with the two end dofs constrained
    /// (identity rows), plus a strip partition into `n_parts`.
    fn chain_fixture(n: usize, n_parts: usize) -> (CsrMatrix, Vec<CoarsePartGeometry>, Vec<f64>) {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            if i == 0 || i == n - 1 {
                coo.push(i, i, 1.0).unwrap();
                continue;
            }
            coo.push(i, i, 2.0).unwrap();
            for j in [i - 1, i + 1] {
                if j != 0 && j != n - 1 {
                    coo.push(i, j, -1.0).unwrap();
                }
            }
        }
        let a = coo.to_csr();
        let per = n / n_parts;
        let parts: Vec<CoarsePartGeometry> = (0..n_parts)
            .map(|p| {
                let dofs: Vec<usize> =
                    (p * per..if p + 1 == n_parts { n } else { (p + 1) * per }).collect();
                CoarsePartGeometry {
                    pos: dofs.iter().map(|&g| [g as f64, 0.0, 0.0]).collect(),
                    comp: vec![0; dofs.len()],
                    constrained: dofs.iter().map(|&g| g == 0 || g == n - 1).collect(),
                    dofs,
                }
            })
            .collect();
        let mult = vec![1.0; n];
        (a, parts, mult)
    }

    #[test]
    fn galerkin_operator_matches_dense_reference() {
        let (a, parts, mult) = chain_fixture(16, 4);
        let d = vec![1.0; 16];
        let basis = build_coarse_basis(&CoarseSpec { passes: 0 }, &parts, &mult, &d, &a, 1e-12);
        let ac = &basis.a_c;
        let modes: Vec<_> = basis.modes.entries_by_mode().collect();
        assert_eq!(modes.len(), basis.info.n_modes, "every mode is live");
        for (i, zi) in &modes {
            for (j, zj) in &modes {
                let (i, j) = (*i, *j);
                let mut want = 0.0;
                for &(g1, v1) in zi {
                    for &(g2, v2) in zj {
                        want += v1 * a.get(g1, g2) * v2;
                    }
                }
                assert!(
                    (ac.get(i, j) - want).abs() < 1e-12,
                    "A_c[{i},{j}] = {} want {want}",
                    ac.get(i, j)
                );
                // Exact symmetry by construction.
                assert_eq!(ac.get(i, j), ac.get(j, i));
            }
        }
    }

    #[test]
    fn coarse_correction_is_exact_on_the_coarse_space() {
        // For v = A Ẑ y, the coarse correction must reproduce the coarse
        // component: Ẑ A_c⁻¹ Ẑᵀ A Ẑ y = Ẑ y.
        let (a, parts, mult) = chain_fixture(24, 4);
        let d = vec![1.0; 24];
        let basis = build_coarse_basis(&CoarseSpec { passes: 0 }, &parts, &mult, &d, &a, 1e-12);
        let y = [1.0, -2.0, 0.5, 3.0];
        let mut zy = vec![0.0; 24];
        for (m, col) in basis.modes.entries_by_mode() {
            for (g, v) in col {
                zy[g] += v * y[m];
            }
        }
        let solver = basis.solver(None);
        let v = a.apply(&zy);
        let mut z = vec![0.0; 24];
        solver.apply(&a, &v, &mut z);
        for (got, want) in z.iter().zip(&zy) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn scratch_and_allocating_paths_are_bit_identical() {
        let (a, parts, mult) = chain_fixture(24, 4);
        let d = vec![1.0; 24];
        let basis = build_coarse_basis(&CoarseSpec { passes: 0 }, &parts, &mult, &d, &a, 1e-12);
        let pc = TwoLevelPrecond::new(
            JacobiPrecond::from_diagonal(&a.diagonal()),
            basis.solver(None),
            "t".into(),
        );
        let v: Vec<f64> = (0..24).map(|i| (i as f64).sin()).collect();
        let mut z1 = vec![0.0; 24];
        pc.apply_into(&a, &v, &mut z1);
        let mut z2 = vec![0.0; 24];
        let mut scratch = vec![vec![0.0; 24]; Preconditioner::<CsrMatrix>::scratch_vectors(&pc)];
        pc.apply_scratch(&a, &v, &mut z2, &mut scratch);
        assert_eq!(z1, z2);
    }

    #[test]
    fn rbm_mode_counts_follow_the_physics() {
        // d(d+1)/2 rigid modes: 1 scalar, 3 in 2-D, 6 in 3-D.
        assert_eq!(CoarseSpec::modes_per_part(1), 1);
        assert_eq!(CoarseSpec::modes_per_part(2), 3);
        assert_eq!(CoarseSpec::modes_per_part(3), 6);
    }

    #[test]
    fn scalar_rbm_modes_are_the_partition_of_unity_constant() {
        // One component: no rotation, so a part's one mode is its scaled
        // partition-of-unity constant 1/(mult·d) on every free dof.
        let geo = CoarsePartGeometry {
            dofs: vec![1, 2, 4, 5],
            pos: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
            ],
            comp: vec![0; 4],
            constrained: vec![false, true, false, false],
        };
        let mult = [1.0, 1.0, 1.0, 1.0, 2.0, 4.0];
        let d = [1.0, 0.5, 2.0, 1.0, 0.25, 1.0];
        let modes = geometric_modes(&geo, &mult, &d, 1);
        assert_eq!(modes, vec![vec![(1, 2.0), (4, 2.0), (5, 0.25)]]);
    }

    #[test]
    fn three_d_rbm_modes_span_the_six_rigid_motions() {
        // One unconstrained part of 4 non-coplanar nodes with 3 components
        // per node; the geometric modes must be the 3 translations and the
        // 3 axis rotations about the centroid, in that order.
        let nodes = [
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 3.0, 0.0],
            [0.0, 0.0, 4.0],
        ];
        let n_dofs = 12;
        let geo = CoarsePartGeometry {
            dofs: (0..n_dofs).collect(),
            pos: (0..n_dofs).map(|g| nodes[g / 3]).collect(),
            comp: (0..n_dofs).map(|g| g % 3).collect(),
            constrained: vec![false; n_dofs],
        };
        let mult = vec![1.0; n_dofs];
        let d = vec![1.0; n_dofs];
        let modes = geometric_modes(&geo, &mult, &d, 3);
        // Dense expansion for checking.
        let dense: Vec<Vec<f64>> = modes
            .iter()
            .map(|col| {
                let mut v = vec![0.0; n_dofs];
                for &(g, val) in col {
                    v[g] = val;
                }
                v
            })
            .collect();
        let (cx, cy, cz) = (0.5, 0.75, 1.0);
        for (nd, q) in nodes.iter().enumerate() {
            let (x, y, z) = (q[0] - cx, q[1] - cy, q[2] - cz);
            // Translations.
            for c in 0..3 {
                for c2 in 0..3 {
                    let want = if c == c2 { 1.0 } else { 0.0 };
                    assert_eq!(dense[c][3 * nd + c2], want);
                }
            }
            // Rotations about e_z, e_x, e_y.
            for (m, want) in [(3, [-y, x, 0.0]), (4, [0.0, -z, y]), (5, [z, 0.0, -x])] {
                for c in 0..3 {
                    assert!(
                        (dense[m][3 * nd + c] - want[c]).abs() < 1e-14,
                        "mode {m} node {nd} comp {c}: {} vs {}",
                        dense[m][3 * nd + c],
                        want[c]
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_spec_tokens_round_trip() {
        for passes in [0, 1, 3, 12] {
            let spec = CoarseSpec { passes };
            assert_eq!(CoarseSpec::parse(&spec.to_string()), Some(spec));
        }
        assert_eq!(CoarseSpec { passes: 0 }.to_string(), "rbm");
        assert_eq!(CoarseSpec { passes: 3 }.to_string(), "rbm.s3");
        for bad in [
            "const",
            "lowrank-4",
            "rbm.s0",
            "rbm.s",
            "rbm3",
            "rbm.s2.s2",
            "fine",
        ] {
            assert_eq!(CoarseSpec::parse(bad), None, "{bad}");
        }
    }
}
