//! Skyline (profile) LDLᵀ factorization with pivot tolerance.
//!
//! The two-level preconditioner's Galerkin coarse operator `A_c = Zᵀ A Z`
//! is symmetric, small (modes × parts rows) and — for structured
//! partitions — tightly banded: a part's modes couple only to the modes of
//! parts it shares mesh nodes with. Skyline storage keeps each row from its
//! first structural nonzero to the diagonal, which is exactly the region
//! LDLᵀ fill can reach, so the factorization is dense-exact at banded cost:
//! `O(Σ rowᵢ²)` instead of `O(n³)`.
//!
//! Near-zero pivots are **skipped**, not fatal: a coarse mode from a
//! fully-constrained part restricts to (numerically) nothing, producing a
//! zero row/column in `A_c`. The factorization zeroes that mode's pivot and
//! the solve annihilates its component — the pseudo-inverse on the
//! orthogonal complement — so a rank-deficient coarse block (1-element
//! subdomain, fully clamped part) yields a well-posed coarse solve where
//! ILU(0) on the same geometry fails with a zero pivot (the paper's Eq. 45
//! failure mode).

use crate::csr::CsrMatrix;

/// A symmetric matrix factored as `L D Lᵀ` in skyline (profile) storage.
///
/// Build with [`SkylineLdlt::factor`] (dense row-major input) or
/// [`SkylineLdlt::factor_csr`] (symmetric sparse input). Solve in place
/// with [`SkylineLdlt::solve_in_place`].
#[derive(Debug, Clone)]
pub struct SkylineLdlt {
    n: usize,
    /// First stored column of each row (the profile).
    start: Vec<usize>,
    /// Row offsets into `vals`: row `i` is `vals[offset[i]..offset[i + 1]]`,
    /// covering columns `start[i]..=i`. After factorization the strictly
    /// lower part holds `L` and the last entry of each row holds `D`.
    offset: Vec<usize>,
    vals: Vec<f64>,
    /// Modes whose pivot fell under the tolerance (annihilated by solves).
    skipped: Vec<bool>,
    /// Largest diagonal magnitude of the input — the natural stiffness
    /// scale, recorded for [`SkylineLdlt::set_null_shift`] callers.
    diag_scale: f64,
    /// Pivot-shift fallback: when positive, solves replace each skipped
    /// pivot with this value instead of annihilating its component. Zero
    /// (the default) keeps the pseudo-inverse.
    null_shift: f64,
}

/// Relative pivot tolerance of [`SkylineLdlt::factor`]: a diagonal pivot
/// whose magnitude falls below `tol × max |a_ii|` is treated as a zero
/// mode and skipped.
pub const DEFAULT_PIVOT_TOL: f64 = 1e-12;

impl SkylineLdlt {
    /// Factors the symmetric `n × n` row-major matrix `a` (only the lower
    /// triangle is read). `pivot_tol` is relative to the largest diagonal
    /// magnitude; pivots under it are skipped (see the module docs).
    ///
    /// # Panics
    /// Panics when `a.len() != n * n`.
    pub fn factor(a: &[f64], n: usize, pivot_tol: f64) -> Self {
        assert_eq!(a.len(), n * n, "SkylineLdlt::factor: matrix shape");
        // Profile from the lower triangle; symmetry makes column profiles
        // match row profiles.
        let start: Vec<usize> = (0..n)
            .map(|i| (0..=i).find(|&j| a[i * n + j] != 0.0).unwrap_or(i))
            .collect();
        Self::factor_profile(n, start, |i, j| a[i * n + j], pivot_tol)
    }

    /// Factors a symmetric sparse matrix given in CSR form (both triangles
    /// stored, as assembly produces). Equivalent to densifying and calling
    /// [`SkylineLdlt::factor`], at profile cost.
    ///
    /// # Panics
    /// Panics on a non-square input.
    pub fn factor_csr(a: &CsrMatrix, pivot_tol: f64) -> Self {
        let n = a.n_rows();
        assert_eq!(n, a.n_cols(), "SkylineLdlt::factor_csr: square input");
        let start: Vec<usize> = (0..n)
            .map(|i| {
                let (cols, _) = a.row(i);
                cols.first().map_or(i, |&c| c.min(i))
            })
            .collect();
        Self::factor_profile(n, start, |i, j| a.get(i, j), pivot_tol)
    }

    /// The shared factorization kernel over any entry accessor. The profile
    /// is widened to be monotone (`start[i] ≤ start[i+1]` is not required,
    /// but a row cannot start left of where fill can reach, which the
    /// column-profile intersection below handles).
    pub(crate) fn factor_profile(
        n: usize,
        start: Vec<usize>,
        entry: impl Fn(usize, usize) -> f64,
        pivot_tol: f64,
    ) -> Self {
        let mut offset = Vec::with_capacity(n + 1);
        offset.push(0usize);
        for i in 0..n {
            let row_len = i - start[i] + 1;
            offset.push(offset[i] + row_len);
        }
        let mut vals = vec![0.0; offset[n]];
        for i in 0..n {
            for j in start[i]..=i {
                vals[offset[i] + (j - start[i])] = entry(i, j);
            }
        }
        let mut fact = SkylineLdlt {
            n,
            start,
            offset,
            vals,
            skipped: vec![false; n],
            diag_scale: 0.0,
            null_shift: 0.0,
        };
        fact.factor_in_place(pivot_tol);
        fact
    }

    fn row_len(&self, i: usize) -> usize {
        self.offset[i + 1] - self.offset[i]
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        if j < self.start[i] {
            0.0
        } else {
            self.vals[self.offset[i] + (j - self.start[i])]
        }
    }

    /// In-place LDLᵀ within the profile: for each row `i`,
    /// `l_ij = (a_ij − Σ_k l_ik d_k l_jk) / d_j`, `d_i = a_ii − Σ l_ik² d_k`.
    /// Skipped pivots set `d = 0` and their `L` column to zero.
    fn factor_in_place(&mut self, pivot_tol: f64) {
        let n = self.n;
        let mut diag_scale = 0.0f64;
        for i in 0..n {
            diag_scale = diag_scale.max(self.at(i, i).abs());
        }
        self.diag_scale = diag_scale;
        let threshold = pivot_tol * diag_scale.max(1e-300);
        for i in 0..n {
            let si = self.start[i];
            for j in si..i {
                // l_ij before division: a_ij − Σ_{k < j} l_ik d_k l_jk.
                let lo = si.max(self.start[j]);
                let mut sum = self.at(i, j);
                for k in lo..j {
                    let lik = self.at(i, k);
                    let ljk = self.at(j, k);
                    let dk = self.at(k, k);
                    sum -= lik * dk * ljk;
                }
                let dj = self.at(j, j);
                let lij = if self.skipped[j] || dj == 0.0 {
                    0.0
                } else {
                    sum / dj
                };
                self.vals[self.offset[i] + (j - si)] = lij;
            }
            let mut d = self.at(i, i);
            for k in si..i {
                let lik = self.at(i, k);
                d -= lik * lik * self.at(k, k);
            }
            if d.abs() <= threshold {
                self.skipped[i] = true;
                d = 0.0;
            }
            let end = self.offset[i] + self.row_len(i) - 1;
            self.vals[end] = d;
        }
    }

    /// The system size.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Indices whose pivot was skipped (rank-deficient modes).
    pub fn skipped_modes(&self) -> Vec<usize> {
        self.skipped
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of skipped (annihilated) pivots.
    pub fn n_skipped(&self) -> usize {
        self.skipped.iter().filter(|&&s| s).count()
    }

    /// Largest diagonal magnitude of the factored matrix — the natural
    /// pivot-shift scale for [`SkylineLdlt::set_null_shift`].
    pub fn diag_scale(&self) -> f64 {
        self.diag_scale
    }

    /// Enables the pivot-shift fallback: subsequent solves substitute
    /// `delta` for each skipped pivot instead of annihilating its
    /// component, turning the pseudo-inverse `A⁺` into the *nonsingular*
    /// `A⁺ + δ⁻¹ Z Zᵀ` (with `Z = L⁻ᵀ e_skipped` spanning the detected
    /// near-null space). A singular preconditioner stalls Krylov methods on
    /// floating subdomains — their rigid modes are simply erased every
    /// application — while the shifted form passes them through at the
    /// stiffness scale and restores convergence. Pass `0.0` to return to
    /// pseudo-inverse solves; the consistency tests rely on that exactness.
    ///
    /// # Panics
    /// Panics on a negative or non-finite `delta`.
    pub fn set_null_shift(&mut self, delta: f64) {
        assert!(
            delta.is_finite() && delta >= 0.0,
            "SkylineLdlt::set_null_shift: delta must be finite and >= 0"
        );
        self.null_shift = delta;
    }

    /// Solves `L D Lᵀ x = b` in place. Components of skipped modes are
    /// zeroed (pseudo-inverse on the factorable complement) unless a
    /// pivot-shift fallback is armed via [`SkylineLdlt::set_null_shift`].
    /// Performs no heap allocation.
    ///
    /// # Panics
    /// Panics when `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "SkylineLdlt::solve_in_place: rhs length");
        // Forward: L y = b.
        for i in 0..self.n {
            let si = self.start[i];
            let mut sum = b[i];
            for j in si..i {
                sum -= self.at(i, j) * b[j];
            }
            b[i] = sum;
        }
        // Diagonal: z = D⁻¹ y. Skipped modes are annihilated
        // (pseudo-inverse) or, under the pivot-shift fallback, divided by
        // the substitute pivot.
        for i in 0..self.n {
            let d = self.at(i, i);
            b[i] = if self.skipped[i] || d == 0.0 {
                if self.null_shift > 0.0 {
                    b[i] / self.null_shift
                } else {
                    0.0
                }
            } else {
                b[i] / d
            };
        }
        // Backward: Lᵀ x = z (column sweep).
        for i in (0..self.n).rev() {
            let xi = b[i];
            let si = self.start[i];
            for j in si..i {
                b[j] -= self.at(i, j) * xi;
            }
        }
    }

    /// Flops of the factorization itself (`Σ rowᵢ²` multiply–adds over the
    /// profile) — used by the virtual-time model.
    pub fn factor_flops(&self) -> u64 {
        (0..self.n)
            .map(|i| {
                let row = (i - self.start[i]) as u64;
                row * row
            })
            .sum()
    }

    /// Flops of one [`SkylineLdlt::solve_in_place`] (forward + diagonal +
    /// backward sweeps over the profile) — used by the virtual-time model.
    pub fn solve_flops(&self) -> u64 {
        let profile: u64 = (0..self.n).map(|i| (i - self.start[i]) as u64).sum();
        4 * profile + self.n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::solve_dense;

    fn spd_banded(n: usize) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 4.0 + (i as f64) * 0.01;
            if i + 1 < n {
                a[i * n + i + 1] = -1.0;
                a[(i + 1) * n + i] = -1.0;
            }
        }
        a
    }

    #[test]
    fn matches_dense_lu_on_spd_tridiagonal() {
        let n = 12;
        let a = spd_banded(n);
        let f = SkylineLdlt::factor(&a, n, DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 0);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.clone(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-10, "{xi} vs {wi}");
        }
    }

    #[test]
    fn csr_and_dense_paths_agree_bit_for_bit() {
        let n = 8;
        let a = spd_banded(n);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if a[i * n + j] != 0.0 {
                    coo.push(i, j, a[i * n + j]).unwrap();
                }
            }
        }
        let csr = coo.to_csr();
        let fd = SkylineLdlt::factor(&a, n, DEFAULT_PIVOT_TOL);
        let fs = SkylineLdlt::factor_csr(&csr, DEFAULT_PIVOT_TOL);
        let mut xd: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut xs = xd.clone();
        fd.solve_in_place(&mut xd);
        fs.solve_in_place(&mut xs);
        assert_eq!(xd, xs);
    }

    #[test]
    fn zero_row_is_skipped_not_fatal() {
        // Mode 1 is entirely zero (a fully-constrained part's coarse mode).
        let a = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0];
        let f = SkylineLdlt::factor(&a, 3, DEFAULT_PIVOT_TOL);
        assert_eq!(f.skipped_modes(), vec![1]);
        let mut x = vec![4.0, 5.0, 6.0];
        f.solve_in_place(&mut x);
        assert_eq!(x, vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn rank_deficient_dependent_rows_are_pivoted_out() {
        // Row 2 = row 0 (rank 2 matrix): the dependent pivot cancels to ~0
        // and must be skipped, leaving a consistent solve on the rest.
        let a = [
            2.0, 1.0, 2.0, //
            1.0, 3.0, 1.0, //
            2.0, 1.0, 2.0,
        ];
        let f = SkylineLdlt::factor(&a, 3, DEFAULT_PIVOT_TOL);
        assert_eq!(f.skipped_modes(), vec![2]);
        // b in the range: A [1, 1, 0]ᵀ = [3, 4, 3]ᵀ.
        let mut x = vec![3.0, 4.0, 3.0];
        f.solve_in_place(&mut x);
        // Check A x = b on the factorable components.
        let ax: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a[i * 3 + j] * x[j]).sum())
            .collect();
        for (got, want) in ax.iter().zip([3.0, 4.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn profile_solve_is_allocation_free_shape() {
        // Structural check: solve_flops reflects the banded profile, far
        // below the dense n² count.
        let n = 64;
        let f = SkylineLdlt::factor(&spd_banded(n), n, DEFAULT_PIVOT_TOL);
        assert!(f.solve_flops() < (n * n) as u64);
    }
}
