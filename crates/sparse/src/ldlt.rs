//! Sparse LDLᵀ factorization: fill-reducing ordering, pivot tolerance.
//!
//! [`SparseLdlt`] is the one factorization in the tree. It factors
//! `P A Pᵀ = L D Lᵀ` for a symmetric sparse `A` and serves both exact solves
//! of the solver stack: the `direct` subdomain preconditioner (the
//! comparator the sparse direct-solver literature in PAPERS.md demands next
//! to any iterative DD result) and the two-level preconditioner's Galerkin
//! coarse operator.
//!
//! Three phases, each a private function:
//!
//! 1. **Ordering** — minimum degree on the *supervariable* graph. Rows with
//!    identical closed adjacency (the 2 or 3 dofs of a mesh node) are merged
//!    first, which shrinks a hex8 graph 3×; elimination then runs on a
//!    quotient graph with element absorption and approximate external
//!    degrees, so it costs a few percent of the numeric phase (the unit
//!    test on a 27-point stencil prints both). Ties go to the lowest index,
//!    so the permutation — and every factor bit — is reproducible across
//!    runs and platforms. Isolated rows (Dirichlet identities) have degree
//!    zero and are eliminated first; disconnected components need no
//!    special case.
//! 2. **Symbolic** — the elimination tree and the column counts of `L` in
//!    one pass over the row subtrees, giving an exact allocation.
//! 3. **Numeric** — up-looking: row `k` of `L` is one sparse triangular
//!    solve against the rows above it, its pattern read off the tree.
//!
//! `L` is stored by columns with `u32` row indices: 12 bytes per entry,
//! where `usize` indices would make the factor larger in bytes than the
//! profile storage this type replaced.
//!
//! Subdomain stiffness matrices are symmetric but **not** necessarily
//! definite: a floating subdomain (no Dirichlet support) carries the full
//! rigid-body null space, which kills ILU(0) with a zero pivot (paper
//! Eq. 45), and a coarse mode of a fully constrained part is a zero row of
//! `A_c`. Pivots under `tol × max |a_ii|` are therefore **skipped**, not
//! fatal: the pivot and its `L` column are zeroed and solves annihilate
//! that component — the pseudo-inverse on the factorable complement —
//! unless [`SparseLdlt::set_null_shift`] arms the nonsingular variant.

use crate::csr::CsrMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Relative pivot tolerance of [`SparseLdlt::factor`]: a pivot whose
/// magnitude falls below `tol × max |a_ii|` is treated as a zero mode and
/// skipped.
pub const DEFAULT_PIVOT_TOL: f64 = 1e-12;

/// A sparse symmetric matrix factored as `P A Pᵀ = L D Lᵀ`.
///
/// Build with [`SparseLdlt::factor`]; solve with
/// [`SparseLdlt::solve_in_place_with`] (allocation-free).
#[derive(Debug, Clone)]
pub struct SparseLdlt {
    /// `perm[new] = old`.
    perm: Vec<u32>,
    /// Column `j` of the strictly lower `L` (in permuted numbering) is
    /// `rows[col_ptr[j]..col_ptr[j + 1]]` / `vals[..]`, rows ascending.
    col_ptr: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
    /// The pivots `D`; exactly `0.0` where skipped.
    d: Vec<f64>,
    /// Original indices of the skipped pivots, ascending.
    skipped: Vec<usize>,
    /// Largest diagonal magnitude of the input — the stiffness scale.
    diag_scale: f64,
    /// Substitute for skipped pivots in solves; `0.0` annihilates them.
    null_shift: f64,
    /// Stored entries of the strict lower triangle of the input.
    nnz_a: usize,
}

/// Tree root / "not yet visited" marker of the symbolic and numeric sweeps.
const NONE: u32 = u32::MAX;

impl SparseLdlt {
    /// Orders and factors a symmetric sparse matrix given in CSR form with
    /// both triangles stored, as assembly produces. `pivot_tol` is relative
    /// to the largest diagonal magnitude; pivots under it are skipped (see
    /// the module docs), so singular matrices factor into a pseudo-inverse
    /// instead of failing.
    ///
    /// # Panics
    /// Panics on a non-square input or one too large for `u32` indices.
    pub fn factor(a: &CsrMatrix, pivot_tol: f64) -> Self {
        let n = a.n_rows();
        assert_eq!(n, a.n_cols(), "SparseLdlt::factor: square input");
        assert!(
            u32::try_from(n).is_ok_and(|n| n < NONE),
            "SparseLdlt::factor: dimension exceeds the u32 index range"
        );
        let perm = min_degree_ordering(a);
        let iperm = inverse(&perm);
        let (parent, col_ptr) = symbolic(a, &perm, &iperm);
        numeric(a, perm, &iperm, &parent, col_ptr, pivot_tol)
    }

    /// The system size.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// The fill-reducing permutation, `perm[new] = old`.
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }

    /// Original indices whose pivot was skipped (rank-deficient modes),
    /// ascending.
    pub fn skipped_modes(&self) -> &[usize] {
        &self.skipped
    }

    /// Number of skipped (near-null) pivots — the detected rank deficiency.
    pub fn n_skipped(&self) -> usize {
        self.skipped.len()
    }

    /// Largest diagonal magnitude of the factored matrix — the natural
    /// scale for [`SparseLdlt::set_null_shift`].
    pub fn diag_scale(&self) -> f64 {
        self.diag_scale
    }

    /// Enables the pivot-shift fallback: subsequent solves substitute
    /// `delta` for each skipped pivot instead of annihilating its
    /// component, turning the pseudo-inverse `A⁺` into the *nonsingular*
    /// `A⁺ + δ⁻¹ Z Zᵀ` (with `Z = Pᵀ L⁻ᵀ e_skipped` spanning the detected
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
            "SparseLdlt::set_null_shift: delta must be finite and >= 0"
        );
        self.null_shift = delta;
    }

    /// Solves `A x = b` in place (pseudo-inverse on the factorable
    /// complement when pivots were skipped, unless a pivot shift is armed),
    /// using `scratch` for the permuted vector — no allocation.
    ///
    /// # Panics
    /// Panics when `b` or `scratch` does not match [`SparseLdlt::dim`].
    pub fn solve_in_place_with(&self, b: &mut [f64], scratch: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "SparseLdlt::solve_in_place_with: rhs length");
        assert_eq!(
            scratch.len(),
            n,
            "SparseLdlt::solve_in_place_with: scratch length"
        );
        let x = scratch;
        for (xi, &old) in x.iter_mut().zip(&self.perm) {
            *xi = b[old as usize];
        }
        // Forward, L y = b: a column sweep.
        for j in 0..n {
            let (rows, vals) = self.column(j);
            let xj = x[j];
            for (&r, &l) in rows.iter().zip(vals) {
                x[r as usize] -= l * xj;
            }
        }
        for (xi, &d) in x.iter_mut().zip(&self.d) {
            *xi = if d != 0.0 {
                *xi / d
            } else if self.null_shift > 0.0 {
                *xi / self.null_shift
            } else {
                0.0
            };
        }
        // Backward, Lᵀ x = z: one dot product per column.
        for j in (0..n).rev() {
            let (rows, vals) = self.column(j);
            let mut xj = x[j];
            for (&r, &l) in rows.iter().zip(vals) {
                xj -= l * x[r as usize];
            }
            x[j] = xj;
        }
        for (xi, &old) in x.iter().zip(&self.perm) {
            b[old as usize] = *xi;
        }
    }

    /// Allocating convenience wrapper around
    /// [`SparseLdlt::solve_in_place_with`].
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let mut scratch = vec![0.0; self.dim()];
        self.solve_in_place_with(b, &mut scratch);
    }

    fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.rows[span.clone()], &self.vals[span])
    }

    /// Stored entries of the strictly lower `L`.
    pub fn nnz_l(&self) -> usize {
        self.rows.len()
    }

    /// `nnz(L)` over the stored strict lower triangle of the input (`1.0`
    /// when that triangle is empty).
    pub fn fill(&self) -> f64 {
        self.nnz_l() as f64 / self.nnz_a.max(1) as f64
    }

    /// Heap bytes the factor holds.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.perm)
            + size_of_val(&*self.col_ptr)
            + size_of_val(&*self.rows)
            + size_of_val(&*self.vals)
            + size_of_val(&*self.d)
            + size_of_val(&*self.skipped)
    }

    /// Flops of the factorization itself (`Σ cⱼ²` over the column counts of
    /// `L`) — used by the virtual-time model.
    pub fn factor_flops(&self) -> u64 {
        self.col_ptr
            .windows(2)
            .map(|w| ((w[1] - w[0]) as u64).pow(2))
            .sum()
    }

    /// Flops of one solve (forward + diagonal + backward sweeps; the two
    /// permutation sweeps cost none) — used by the virtual-time model.
    pub fn solve_flops(&self) -> u64 {
        4 * self.nnz_l() as u64 + self.dim() as u64
    }
}

/// `iperm[old] = new` for `perm[new] = old`.
fn inverse(perm: &[u32]) -> Vec<u32> {
    let mut iperm = vec![0u32; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        iperm[old as usize] = new as u32;
    }
    iperm
}

/// Minimum-degree ordering of the supervariable graph of `a`'s pattern.
/// Returns `perm` with `perm[new] = old`.
fn min_degree_ordering(a: &CsrMatrix) -> Vec<u32> {
    let n = a.n_rows();
    // Supervariables: a row joins the first earlier neighbour with the same
    // stored pattern (diagonal included — the closed adjacency).
    let mut sv = vec![0u32; n];
    let mut rep: Vec<usize> = Vec::new();
    let mut weight: Vec<u32> = Vec::new();
    for i in 0..n {
        let cols = a.row(i).0;
        let mut earlier = cols.iter().take_while(|&&j| j < i);
        match earlier.find(|&&j| a.row(j).0 == cols) {
            Some(&twin) => {
                sv[i] = sv[twin];
                weight[sv[i] as usize] += 1;
            }
            None => {
                sv[i] = rep.len() as u32;
                rep.push(i);
                weight.push(1);
            }
        }
    }
    let ns = rep.len();

    // The quotient graph. A variable `v` keeps its uneliminated neighbours
    // not yet covered by an element in `adj[v]` and the elements it belongs
    // to in `elems[v]`; an element `e` (an eliminated pivot) keeps its
    // uneliminated variables in `members[e]`, of total weight `size[e]`.
    // `mark` holds stamps: `0..ns` while the graph is built, `ns + k` during
    // the `k`-th elimination.
    let mut mark = vec![usize::MAX; ns];
    let mut adj: Vec<Vec<u32>> = (0..ns)
        .map(|s| {
            mark[s] = s;
            let mut list = Vec::new();
            for &j in a.row(rep[s]).0 {
                let t = sv[j];
                if mark[t as usize] != s {
                    mark[t as usize] = s;
                    list.push(t);
                }
            }
            list
        })
        .collect();
    let mut elems: Vec<Vec<u32>> = vec![Vec::new(); ns];
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); ns];
    let mut size = vec![0u32; ns];
    let mut absorbed = vec![false; ns];
    // `outside[e] = |Lₑ \ Lₚ|` for the current pivot `p`, valid where
    // `outside_stamp[e]` is the current stamp.
    let mut outside = vec![0u32; ns];
    let mut outside_stamp = vec![usize::MAX; ns];
    let weigh = |list: &[u32]| -> u32 { list.iter().map(|&u| weight[u as usize]).sum() };
    let mut degree: Vec<u32> = adj.iter().map(|list| weigh(list)).collect();
    // Lowest (degree, index) first. An entry goes stale when its variable's
    // degree changes or the variable is eliminated (`degree = NONE`).
    let mut queue: BinaryHeap<Reverse<(u32, u32)>> = (0..ns as u32)
        .map(|s| Reverse((degree[s as usize], s)))
        .collect();
    let mut order: Vec<u32> = Vec::with_capacity(ns);
    let mut remaining = n as u32;

    while let Some(Reverse((d, p))) = queue.pop() {
        if degree[p as usize] != d {
            continue;
        }
        degree[p as usize] = NONE;
        let stamp = ns + order.len();
        order.push(p);
        remaining -= weight[p as usize];
        // Lₚ: the pivot's variable neighbours and the variables of its
        // elements, which are absorbed into the new element `p`.
        mark[p as usize] = stamp;
        let mut lp = std::mem::take(&mut adj[p as usize]);
        for &v in &lp {
            mark[v as usize] = stamp;
        }
        for e in std::mem::take(&mut elems[p as usize]) {
            absorbed[e as usize] = true;
            for v in std::mem::take(&mut members[e as usize]) {
                if mark[v as usize] != stamp {
                    mark[v as usize] = stamp;
                    lp.push(v);
                }
            }
        }
        let lp_weight = weigh(&lp);
        for &v in &lp {
            // Edges inside Lₚ ∪ {p} are covered by the new element.
            adj[v as usize].retain(|&u| mark[u as usize] != stamp);
            elems[v as usize].retain(|&e| {
                let e = e as usize;
                if !absorbed[e] {
                    if outside_stamp[e] != stamp {
                        outside_stamp[e] = stamp;
                        outside[e] = size[e];
                    }
                    outside[e] -= weight[v as usize];
                }
                !absorbed[e]
            });
        }
        for &v in &lp {
            let vi = v as usize;
            // An element wholly inside Lₚ adds nothing: absorb it too.
            let mut beyond = 0u64;
            elems[vi].retain(|&e| {
                absorbed[e as usize] |= outside[e as usize] == 0;
                beyond += u64::from(outside[e as usize]);
                !absorbed[e as usize]
            });
            // Approximate external degree: exact for up to two elements, an
            // upper bound beyond (overlaps outside Lₚ are counted twice, so
            // the sums are taken in u64).
            let rest = u64::from(lp_weight - weight[vi]);
            let d = (rest + u64::from(weigh(&adj[vi])) + beyond)
                .min(u64::from(degree[vi]) + rest)
                .min(u64::from(remaining - weight[vi])) as u32;
            if d != degree[vi] {
                degree[vi] = d;
                queue.push(Reverse((d, v)));
            }
            elems[vi].push(p);
        }
        size[p as usize] = lp_weight;
        members[p as usize] = lp;
    }

    let mut rank = vec![0u32; ns];
    for (k, &p) in order.iter().enumerate() {
        rank[p as usize] = k as u32;
    }
    let mut perm: Vec<u32> = (0..n as u32).collect();
    // Stable: the rows of a supervariable stay in ascending order.
    perm.sort_by_key(|&i| rank[sv[i as usize] as usize]);
    perm
}

/// The elimination tree (`parent`, [`NONE`] at roots) and the column
/// pointers of `L` for `P A Pᵀ`: the pattern of row `k` is the union of the
/// tree paths from each `j < k` with `a_kj ≠ 0` up to `k`.
fn symbolic(a: &CsrMatrix, perm: &[u32], iperm: &[u32]) -> (Vec<u32>, Vec<usize>) {
    let n = perm.len();
    let mut parent = vec![NONE; n];
    let mut visited = vec![NONE; n];
    let mut count = vec![0usize; n];
    for k in 0..n {
        visited[k] = k as u32;
        for &j in a.row(perm[k] as usize).0 {
            let mut i = iperm[j] as usize;
            while i < k && visited[i] != k as u32 {
                if parent[i] == NONE {
                    parent[i] = k as u32;
                }
                count[i] += 1;
                visited[i] = k as u32;
                i = parent[i] as usize;
            }
        }
    }
    let mut col_ptr = Vec::with_capacity(n + 1);
    col_ptr.push(0);
    for j in 0..n {
        col_ptr.push(col_ptr[j] + count[j]);
    }
    (parent, col_ptr)
}

/// The up-looking numeric phase: for each row `k`, scatter the row of
/// `P A Pᵀ` into `y`, collect its pattern in topological order off the
/// tree, and solve `L[..k, ..k] D l = y` one column at a time, appending
/// `l_ki` to column `i`. A skipped pivot leaves `d_i = 0` and a zero column.
fn numeric(
    a: &CsrMatrix,
    perm: Vec<u32>,
    iperm: &[u32],
    parent: &[u32],
    col_ptr: Vec<usize>,
    pivot_tol: f64,
) -> SparseLdlt {
    let n = perm.len();
    let mut rows = vec![0u32; col_ptr[n]];
    let mut vals = vec![0.0; col_ptr[n]];
    let mut d = vec![0.0; n];
    let mut next = col_ptr[..n].to_vec();
    let mut y = vec![0.0; n];
    let mut visited = vec![NONE; n];
    let mut pattern = vec![0u32; n];
    let diag_scale = (0..n).fold(0.0f64, |m, i| m.max(a.get(i, i).abs()));
    let threshold = pivot_tol * diag_scale.max(1e-300);
    let mut skipped = Vec::new();
    let mut nnz_a = 0;
    for k in 0..n {
        let mut top = n;
        visited[k] = k as u32;
        let (cols, a_vals) = a.row(perm[k] as usize);
        for (&j, &v) in cols.iter().zip(a_vals) {
            let mut i = iperm[j] as usize;
            if i > k {
                continue;
            }
            y[i] += v;
            nnz_a += (i < k) as usize;
            let mut len = 0;
            while visited[i] != k as u32 {
                pattern[len] = i as u32;
                len += 1;
                visited[i] = k as u32;
                i = parent[i] as usize;
            }
            while len > 0 {
                top -= 1;
                len -= 1;
                pattern[top] = pattern[len];
            }
        }
        let mut dk = std::mem::take(&mut y[k]);
        for &i in &pattern[top..] {
            let i = i as usize;
            let yi = std::mem::take(&mut y[i]);
            let span = col_ptr[i]..next[i];
            for (&r, &l) in rows[span.clone()].iter().zip(&vals[span]) {
                y[r as usize] -= l * yi;
            }
            let l_ki = if d[i] == 0.0 { 0.0 } else { yi / d[i] };
            dk -= l_ki * yi;
            rows[next[i]] = k as u32;
            vals[next[i]] = l_ki;
            next[i] += 1;
        }
        if dk.abs() <= threshold {
            skipped.push(perm[k] as usize);
            dk = 0.0;
        }
        d[k] = dk;
    }
    skipped.sort_unstable();
    SparseLdlt {
        perm,
        col_ptr,
        rows,
        vals,
        d,
        skipped,
        diag_scale,
        null_shift: 0.0,
        nnz_a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::solve_dense;

    fn from_dense(n: usize, a: &[f64]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if a[i * n + j] != 0.0 {
                    coo.push(i, j, a[i * n + j]).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    /// 5-point grid Laplacian with Dirichlet-eliminated boundary (SPD).
    fn grid_laplacian(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        for j in 0..ny {
            for i in 0..nx {
                let r = j * nx + i;
                coo.push(r, r, 4.0).unwrap();
                if i + 1 < nx {
                    coo.push(r, r + 1, -1.0).unwrap();
                    coo.push(r + 1, r, -1.0).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, r + nx, -1.0).unwrap();
                    coo.push(r + nx, r, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn matches_dense_lu_on_grid_laplacian() {
        let a = grid_laplacian(5, 4);
        let n = a.n_rows();
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 0);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.to_dense(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12, "{xi} vs {wi}");
        }
    }

    #[test]
    fn tridiagonal_factor_has_no_fill() {
        // A chain is its own elimination tree under minimum degree: one
        // entry of L per eliminated interior row, and the flop counts read
        // off the factor, far below the dense n² count.
        let n = 64;
        let a = grid_laplacian(n, 1);
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        assert_eq!(f.nnz_l(), n - 1);
        assert_eq!(f.fill(), 1.0);
        assert_eq!(f.solve_flops(), (4 * (n - 1) + n) as u64);
        assert_eq!(f.factor_flops(), (n - 1) as u64);
    }

    #[test]
    fn zero_row_is_skipped_not_fatal() {
        // Mode 1 is entirely zero (a fully-constrained part's coarse mode).
        let a = from_dense(3, &[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0]);
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        assert_eq!(f.skipped_modes(), [1]);
        let mut x = vec![4.0, 5.0, 6.0];
        f.solve_in_place(&mut x);
        assert_eq!(x, vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn rank_deficient_dependent_rows_are_pivoted_out() {
        // Row 2 = row 0 (rank 2 matrix): whichever of the pair is eliminated
        // second cancels to ~0 and must be skipped, leaving a consistent
        // solve on the rest.
        let dense = [
            2.0, 1.0, 2.0, //
            1.0, 3.0, 1.0, //
            2.0, 1.0, 2.0,
        ];
        let f = SparseLdlt::factor(&from_dense(3, &dense), DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 1);
        assert!([0, 2].contains(&f.skipped_modes()[0]));
        // b in the range: A [1, 1, 0]ᵀ = [3, 4, 3]ᵀ.
        let mut x = vec![3.0, 4.0, 3.0];
        f.solve_in_place(&mut x);
        let ax: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| dense[i * 3 + j] * x[j]).sum())
            .collect();
        for (got, want) in ax.iter().zip([3.0, 4.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn singular_matrix_gets_a_consistent_pseudo_solve() {
        // A graph Laplacian (no Dirichlet row) is singular with the
        // constant null vector; the solve must still satisfy A x = b for b
        // in the range.
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let next = (i + 1) % n;
            coo.push(i, i, 2.0).unwrap();
            coo.push(i, next, -1.0).unwrap();
            coo.push(next, i, -1.0).unwrap();
        }
        let a = coo.to_csr();
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 1);
        // b = A y for y = (0, 1, 2, 0, 1, 2) is in the range.
        let y: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let b = a.spmv(&y);
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let ax = a.spmv(&x);
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn disconnected_components_are_all_ordered() {
        // Two disjoint chains plus an isolated node.
        let n = 7;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for &(i, j) in &[(0, 1), (1, 2), (4, 5), (5, 6)] {
            coo.push(i, j, -1.0).unwrap();
            coo.push(j, i, -1.0).unwrap();
        }
        let a = coo.to_csr();
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        let mut seen = f.permutation().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..n as u32).collect::<Vec<_>>());
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.to_dense(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12);
        }
    }

    #[test]
    fn supervariables_keep_the_solve_exact() {
        // Two dofs per grid node with a dense 2×2 coupling: every node's
        // rows share one closed pattern and are merged before ordering.
        let grid = grid_laplacian(4, 3);
        let n = 2 * grid.n_rows();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..grid.n_rows() {
            let (cols, vals) = grid.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                for (ci, cj, w) in [(0, 0, 1.0), (0, 1, 0.25), (1, 0, 0.25), (1, 1, 1.5)] {
                    coo.push(2 * i + ci, 2 * j + cj, v * w).unwrap();
                }
            }
        }
        let a = coo.to_csr();
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 0);
        for pair in f.permutation().chunks(2) {
            assert_eq!((pair[0] / 2, pair[0] + 1), (pair[1] / 2, pair[1]));
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.to_dense(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12, "{xi} vs {wi}");
        }
    }

    /// The hex8 pattern: `dofs` unknowns per node of an `m³` node grid, every
    /// node coupled to its 26 neighbours; diagonally dominant values.
    fn stencil27(m: usize, dofs: usize) -> CsrMatrix {
        let n = dofs * m * m * m;
        let node = |x: usize, y: usize, z: usize| (z * m + y) * m + x;
        let mut coo = CooMatrix::new(n, n);
        for z in 0..m {
            for y in 0..m {
                for x in 0..m {
                    for (dx, dy, dz) in (0..27).map(|k| (k % 3, k / 3 % 3, k / 9)) {
                        let (qx, qy, qz) = (x + dx, y + dy, z + dz);
                        if qx == 0 || qy == 0 || qz == 0 || qx > m || qy > m || qz > m {
                            continue;
                        }
                        let (i, j) = (node(x, y, z), node(qx - 1, qy - 1, qz - 1));
                        for (ci, cj) in (0..dofs * dofs).map(|k| (k / dofs, k % dofs)) {
                            let v = if (i, ci) == (j, cj) { 100.0 } else { -1.0 };
                            coo.push(dofs * i + ci, dofs * j + cj, v).unwrap();
                        }
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn ordering_is_cheap_and_cuts_the_fill_of_a_3d_stencil() {
        use std::time::Instant;
        let a = stencil27(8, 3);
        let n = a.n_rows();
        let t = Instant::now();
        let perm = min_degree_ordering(&a);
        let ordering_s = t.elapsed().as_secs_f64();
        let iperm = inverse(&perm);
        let (parent, col_ptr) = symbolic(&a, &perm, &iperm);
        let t = Instant::now();
        let f = numeric(&a, perm, &iperm, &parent, col_ptr, DEFAULT_PIVOT_TOL);
        let numeric_s = t.elapsed().as_secs_f64();
        let natural: Vec<u32> = (0..n as u32).collect();
        let unordered = symbolic(&a, &natural, &natural).1[n];
        eprintln!(
            "27-point stencil, {n} rows: ordering {:.2} ms, numeric {:.2} ms, nnz(L) {} (natural order {unordered})",
            ordering_s * 1e3,
            numeric_s * 1e3,
            f.nnz_l()
        );
        assert_eq!(f.n_skipped(), 0);
        assert!(
            10 * f.nnz_l() < 9 * unordered,
            "{} vs {unordered}",
            f.nnz_l()
        );
        let x: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).cos()).collect();
        let mut z = a.spmv(&x);
        f.solve_in_place(&mut z);
        assert!(z.iter().zip(&x).all(|(p, q)| (p - q).abs() < 1e-10));
    }

    #[test]
    fn scratch_solve_matches_allocating_solve() {
        let a = grid_laplacian(4, 4);
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        let b: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64).sin()).collect();
        let mut x1 = b.clone();
        f.solve_in_place(&mut x1);
        let mut x2 = b;
        let mut scratch = vec![0.0; f.dim()];
        f.solve_in_place_with(&mut x2, &mut scratch);
        assert_eq!(x1, x2);
    }
}
