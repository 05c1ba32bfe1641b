//! Sparse LDLᵀ factorization: fill-reducing ordering, pivot tolerance.
//!
//! [`SparseLdlt`] is the one factorization in the tree. It factors
//! `P A Pᵀ = L D Lᵀ` for a symmetric sparse `A` and serves both exact solves
//! of the solver stack: the `direct` subdomain preconditioner (the
//! comparator the sparse direct-solver literature in PAPERS.md demands next
//! to any iterative DD result) and the two-level preconditioner's Galerkin
//! coarse operator.
//!
//! Three phases, each private:
//!
//! 1. **Ordering** (the `ordering` module) — rows with identical closed
//!    adjacency (the 2 or 3 dofs of a mesh node) are merged into
//!    supervariables, which shrinks a hex8 graph 3×; node blocks are read
//!    block by block, nothing of the pattern is copied. A graph of at most 64
//!    supervariables (a coarse operator, a small block) is ordered by
//!    minimum degree on a quotient graph with element absorption and
//!    approximate external degrees. A larger one is ordered by nested dissection: multilevel
//!    vertex separators (heavy-edge coarsening, greedy growth, FM
//!    refinement on every level, a minimum cover of the cut edges),
//!    each side before its separator, minimum degree below 64
//!    supervariables. On the 3000-row hex block of the
//!    `elas3d-rdd-direct` workload this cuts the factor flops from 190 M to
//!    110 M. Ties go to the lowest index and nothing is random, so the
//!    permutation — and every factor bit — is reproducible across runs and
//!    platforms. Isolated rows (Dirichlet identities) come first and every
//!    disconnected component is ordered on its own. The ordering hands its
//!    supervariable graph and that graph's order to the analysis.
//! 2. **Analysis** — on supervariables (`analyse`). The rows of a
//!    supervariable are consecutive in the permutation and
//!    indistinguishable, so each lies inside one fundamental supernode (see
//!    below). One row-subtree walk of the supervariable graph, each visit
//!    weighted by the visiting supervariable's rows, gives the elimination
//!    tree and the column counts, hence the supernodes; a second walk, a
//!    supernode per step, gives their row lists — the layout the scalar
//!    walks over every entry of `A` give, array for array
//!    (`tests/support/scalar_analysis.rs` is that walk, the reference the
//!    tests hold it to).
//! 3. **Numeric** — supernodal. Runs of columns that form a chain of the
//!    tree with nested patterns (`parent[j] = j + 1`, `c_j = c_{j+1} + 1`,
//!    `j + 1` has no other child) are *fundamental supernodes*: their
//!    columns of `L` share one row list and are one dense panel. `P A Pᵀ`
//!    is scattered into the panels (written with zeros first, so each page
//!    faults once), node blocks a block at a time, a row's place in a panel
//!    found once per row and panel. Each
//!    panel is factored densely, four rows at a time against the columns
//!    of its diagonal block, and then sends its update `L D Lᵀ` to its
//!    ancestors: dense dot products, two rows by four columns at a time,
//!    scattered through relative row indices built once per ancestor, a
//!    bounded chunk of columns per pass. The solves sweep the panels
//!    forwards and backwards.
//!
//!    Within a panel every entry takes its terms in ascending column
//!    order, one at a time, as a column-by-column elimination does; a
//!    matrix that is a single supernode (a dense element block, a small
//!    coarse operator) therefore factors to the same bits as column
//!    storage would give it. Across panels the updates are dot products,
//!    so the bits of larger factors depend on the panel structure.
//!
//! On that hex block (median of 60 warm factorizations on a loaded 2-vCPU
//! host; minor page faults of one factorization on a fresh thread, the
//! allocator warmed by an earlier ordering as a rank's is by its assembly)
//! the phases take:
//!
//! | phase | time | page faults |
//! |---|---|---|
//! | ordering (supervariables 0.7 ms of it) | 6.1–6.3 ms | 0 |
//! | analysis | 0.8 ms | 0 |
//! | scatter (zeros written first) | 2.3–2.4 ms | 937 — each page of `L` once |
//! | numeric loop | 31 ms | 0 |
//!
//! Before the zeros were written first, `L`'s pages took two faults each
//! (1 383 in the scatter, 490 in the loop), and the supervariable pass,
//! reading a copy of the scalar pattern, 1.5 ms (EXPERIMENTS.md, "The
//! LDLᵀ setup at its floor"). The `ordering_is_cheap…` unit test prints
//! the split on a 27-point stencil.
//!
//! The factor holds one `u32` row index per panel row, not per entry, and
//! exactly `nnz(L)` values: the diagonal blocks are packed triangles and
//! `D` is a vector of its own.
//!
//! Subdomain stiffness matrices are symmetric but **not** necessarily
//! definite: a floating subdomain (no Dirichlet support) carries the full
//! rigid-body null space, which kills ILU(0) with a zero pivot (paper
//! Eq. 45), and a coarse mode of a fully constrained part is a zero row of
//! `A_c`. Pivots under `tol × max |a_ii|` are therefore **skipped**, not
//! fatal: the pivot and its `L` column are zeroed and solves annihilate
//! that component — the pseudo-inverse on the factorable complement —
//! unless [`SparseLdlt::set_null_shift`] arms the nonsingular variant.

mod ordering;

use crate::bcsr::BcsrMatrix;
use crate::dense::zeros;
use crate::graph::Graph;
use crate::rows::SparseRows;

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
    panels: Panels,
    /// The strictly lower `L`, panel by panel (see [`Panels`]).
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
    /// Rows in the root separator of the ordering.
    separator: usize,
}

/// Where each supernode's columns, rows and values are.
#[derive(Debug, Clone)]
struct Panels {
    /// Supernode `s` holds the columns `first[s]..first[s + 1]` of `L` (in
    /// permuted numbering).
    first: Vec<u32>,
    /// The rows of `L` below supernode `s`'s diagonal block,
    /// `rows[row_ptr[s]..row_ptr[s + 1]]`, ascending.
    row_ptr: Vec<usize>,
    rows: Vec<u32>,
    /// Supernode `s`'s panel is `vals[val_ptr[s]..val_ptr[s + 1]]`: for a
    /// width `w`, the strict lower triangle of its unit diagonal block
    /// packed by columns (see [`col_start`]), then one row of `w` entries
    /// per row below the block.
    val_ptr: Vec<usize>,
}

impl Panels {
    fn len(&self) -> usize {
        self.first.len() - 1
    }

    fn first(&self, s: usize) -> usize {
        self.first[s] as usize
    }

    fn width(&self, s: usize) -> usize {
        (self.first[s + 1] - self.first[s]) as usize
    }

    fn below(&self, s: usize) -> &[u32] {
        &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]]
    }

    fn values(&self, s: usize) -> std::ops::Range<usize> {
        self.val_ptr[s]..self.val_ptr[s + 1]
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.first)
            + size_of_val(&*self.row_ptr)
            + size_of_val(&*self.rows)
            + size_of_val(&*self.val_ptr)
    }
}

/// The analysis of [`SparseLdlt::layout`], array by array as the factor
/// holds it.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelLayout {
    /// `perm[new] = old`.
    pub perm: Vec<u32>,
    /// The fields of the factor's `Panels`.
    pub first: Vec<u32>,
    pub row_ptr: Vec<usize>,
    pub rows: Vec<u32>,
    pub val_ptr: Vec<usize>,
    /// The supernode of every column.
    pub owner: Vec<u32>,
}

/// Tree root / "not yet visited" marker of the analysis and numeric sweeps.
const NONE: u32 = u32::MAX;

impl SparseLdlt {
    /// Orders and factors a symmetric sparse matrix with both triangles
    /// stored, as assembly produces, read through its scalar rows — CSR or
    /// node blocks give the same pattern, order and bits. `pivot_tol` is relative
    /// to the largest diagonal magnitude; pivots under it are skipped (see
    /// the module docs), so singular matrices factor into a pseudo-inverse
    /// instead of failing.
    ///
    /// # Panics
    /// Panics on a non-square input or one too large for `u32` indices.
    pub fn factor<A: SparseRows + ?Sized>(a: &A, pivot_tol: f64) -> Self {
        let n = a.n_rows();
        assert_eq!(n, a.n_cols(), "SparseLdlt::factor: square input");
        assert!(
            u32::try_from(n).is_ok_and(|n| n < NONE),
            "SparseLdlt::factor: dimension exceeds the u32 index range"
        );
        let ordering::Ordered {
            perm,
            separator,
            graph,
            order,
        } = ordering::order(a);
        let (panels, owner) = analyse(graph, &order);
        let mut factor = numeric(a, perm, panels, &owner, pivot_tol);
        factor.separator = separator;
        factor
    }

    /// The panel layout [`SparseLdlt::factor`] gives `a`, without the
    /// numeric phase: the permutation, then for every supernode its first
    /// column, its rows below the diagonal block and its value offsets,
    /// and the supernode of every column. Exposed for the tests that hold
    /// the supervariable analysis to a scalar reference.
    #[doc(hidden)]
    pub fn layout<A: SparseRows + ?Sized>(a: &A) -> PanelLayout {
        let ordered = ordering::order(a);
        let (panels, owner) = analyse(ordered.graph, &ordered.order);
        PanelLayout {
            perm: ordered.perm,
            first: panels.first,
            row_ptr: panels.row_ptr,
            rows: panels.rows,
            val_ptr: panels.val_ptr,
            owner,
        }
    }

    /// The strictly lower `L` (panel by panel) and the pivots `D`, as
    /// stored: exposed for the tests that pin the factor's bits.
    #[doc(hidden)]
    pub fn factor_values(&self) -> (&[f64], &[f64]) {
        (&self.vals, &self.d)
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
        // Forward, L y = b: per panel, the diagonal block by columns, then
        // one dot product per row below it.
        for s in 0..self.supernodes() {
            let (f, w, rows, diag, below) = self.panel(s);
            let (head, tail) = x.split_at_mut(f + w);
            let xs = &mut head[f..];
            for q in 0..w {
                let (done, rest) = xs.split_at_mut(q + 1);
                let xq = done[q];
                for (xi, &l) in rest.iter_mut().zip(&diag[col_start(w, q)..]) {
                    *xi -= l * xq;
                }
            }
            for (&r, l) in rows.iter().zip(below.chunks_exact(w)) {
                tail[r as usize - f - w] -= dot(l, xs);
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
        // Backward, Lᵀ x = z: per panel in reverse, one AXPY per row below
        // the diagonal block, then one dot product per column of the block.
        for s in (0..self.supernodes()).rev() {
            let (f, w, rows, diag, below) = self.panel(s);
            let (head, tail) = x.split_at_mut(f + w);
            let xs = &mut head[f..];
            for (&r, l) in rows.iter().zip(below.chunks_exact(w)) {
                let xr = tail[r as usize - f - w];
                for (xi, &li) in xs.iter_mut().zip(l) {
                    *xi -= li * xr;
                }
            }
            for q in (0..w).rev() {
                let (done, rest) = xs.split_at_mut(q + 1);
                done[q] -= dot(&diag[col_start(w, q)..], rest);
            }
        }
        for (xi, &old) in x.iter().zip(&self.perm) {
            b[old as usize] = *xi;
        }
    }

    /// Allocating convenience wrapper around
    /// [`SparseLdlt::solve_in_place_with`].
    pub fn solve_in_place(&self, b: &mut [f64]) {
        self.solve_in_place_with(b, &mut zeros(self.dim()));
    }

    /// Supernode `s`: its first column and width, the rows below its
    /// diagonal block, the packed strict lower diagonal block, and the
    /// row-major rectangle below it.
    fn panel(&self, s: usize) -> (usize, usize, &[u32], &[f64], &[f64]) {
        let p = &self.panels;
        let w = p.width(s);
        let (diag, below) = self.vals[p.values(s)].split_at(tri(w));
        (p.first(s), w, p.below(s), diag, below)
    }

    /// Stored entries of the strictly lower `L`.
    pub fn nnz_l(&self) -> usize {
        self.vals.len()
    }

    /// Number of supernodes: the dense panels the numeric phase factored.
    pub fn supernodes(&self) -> usize {
        self.panels.len()
    }

    /// Entries of the largest panel as rows × width, its diagonal block
    /// counted in full: the biggest dense front of the factorization.
    pub fn max_front(&self) -> usize {
        let p = &self.panels;
        (0..p.len())
            .map(|s| (p.width(s) + p.below(s).len()) * p.width(s))
            .max()
            .unwrap_or(0)
    }

    /// Rows in the root separator of the nested-dissection ordering — the
    /// columns eliminated last, whose dense front bounds the factor's cost
    /// (the largest over the components; `0` when minimum degree ordered the
    /// whole matrix).
    pub fn separator(&self) -> usize {
        self.separator
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
            + self.panels.bytes()
            + size_of_val(&*self.vals)
            + size_of_val(&*self.d)
            + size_of_val(&*self.skipped)
    }

    /// Flops of the factorization itself (`Σ cⱼ²` over the column counts of
    /// `L`) — used by the virtual-time model.
    pub fn factor_flops(&self) -> u64 {
        let p = &self.panels;
        // Column `q` of a panel has the `w − 1 − q` block rows below it and
        // every row below the block.
        (0..p.len())
            .flat_map(|s| (0..p.width(s)).map(move |q| (q + p.below(s).len()) as u64))
            .map(|c| c * c)
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

/// The panel layout of `L` and the supernode of every column, from the
/// supervariable graph `g` and its elimination order `order` (the rows of
/// a supervariable are consecutive in the permutation).
///
/// The rows of a supervariable are indistinguishable, so within it `L` is a
/// chain of nested columns: only its last column's rows below it need
/// counting, and the fundamental supernodes are runs of whole
/// supervariables. One row-subtree walk over the supervariable graph gives
/// the elimination tree of the supervariables (`parent`) and the rows of
/// `L` below each one's last column (`below`: each visit weighs the
/// visiting supervariable's rows). Supervariable `k + 1` continues `k`'s
/// supernode when it is `k`'s parent, has no other child, and the counts
/// nest (`below[k] = below[k + 1] + w[k + 1]`): the scalar test of the
/// columns at their boundary. A row lies below a supernode exactly when its
/// row subtree passes through the supernode, so a second walk, a whole
/// supernode per step, lists each supernode's rows in ascending order.
/// Every array is supervariable- or supernode-sized, besides the row lists
/// themselves.
fn analyse(g: Graph, order: &[u32]) -> (Panels, Vec<u32>) {
    let ns = order.len();
    let mut at = vec![0u32; ns];
    for (k, &v) in order.iter().enumerate() {
        at[v as usize] = k as u32;
    }
    // `start[k]..start[k + 1]`: the columns of the `k`-th supervariable.
    let mut start = Vec::with_capacity(ns + 1);
    start.push(0u32);
    for &v in order {
        start.push(start[start.len() - 1] + g.vw[v as usize]);
    }
    let width = |k: usize| start[k + 1] - start[k];
    // The earlier supervariables adjacent to the `k`-th, by position.
    let earlier = |k: usize| {
        (g.neighbours(order[k]).iter())
            .map(|&u| at[u as usize] as usize)
            .filter(move |&i| i < k)
    };

    let mut parent = vec![NONE; ns];
    let mut visited = vec![NONE; ns];
    let mut below = vec![0usize; ns];
    for k in 0..ns {
        visited[k] = k as u32;
        for mut i in earlier(k) {
            while i < k && visited[i] != k as u32 {
                if parent[i] == NONE {
                    parent[i] = k as u32;
                }
                below[i] += width(k) as usize;
                visited[i] = k as u32;
                i = parent[i] as usize;
            }
        }
    }

    let mut children = vec![0u32; ns];
    for &p in parent.iter().filter(|&&p| p != NONE) {
        children[p as usize] += 1;
    }
    let mut first = vec![0u32];
    // The supernode of every supervariable, and each supernode's last one.
    let mut snode = vec![0u32; ns];
    let mut last = Vec::new();
    for k in 1..ns {
        let joins = parent[k - 1] == k as u32
            && children[k] == 1
            && below[k - 1] == below[k] + width(k) as usize;
        if !joins {
            first.push(start[k]);
            last.push(k - 1);
        }
        snode[k] = first.len() as u32 - 1;
    }
    if ns > 0 {
        first.push(start[ns]);
        last.push(ns - 1);
    }
    let n_snodes = last.len();

    let mut row_ptr = vec![0usize; n_snodes + 1];
    let mut val_ptr = vec![0usize; n_snodes + 1];
    for (s, &k) in last.iter().enumerate() {
        let w = (first[s + 1] - first[s]) as usize;
        row_ptr[s + 1] = row_ptr[s] + below[k];
        val_ptr[s + 1] = val_ptr[s] + tri(w) + w * below[k];
    }
    let mut next = row_ptr[..n_snodes].to_vec();
    let mut rows = vec![0u32; row_ptr[n_snodes]];
    let mut seen = vec![NONE; n_snodes];
    for k in 0..ns {
        for i in earlier(k) {
            let mut s = snode[i] as usize;
            while s != snode[k] as usize && seen[s] != k as u32 {
                seen[s] = k as u32;
                for r in start[k]..start[k + 1] {
                    rows[next[s]] = r;
                    next[s] += 1;
                }
                s = snode[parent[last[s]] as usize] as usize;
            }
        }
    }
    debug_assert_eq!(next, row_ptr[1..]);
    let mut owner = Vec::with_capacity(start[ns] as usize);
    for (k, &s) in snode.iter().enumerate() {
        owner.extend(std::iter::repeat_n(s, width(k) as usize));
    }
    let panels = Panels {
        first,
        row_ptr,
        rows,
        val_ptr,
    };
    (panels, owner)
}

/// Columns of an ancestor one pass of [`update_ancestors`] serves: the
/// `L D` buffer holds this many panel rows, whatever the front sizes.
const UPDATE_CHUNK: usize = 32;

/// The supernodal numeric phase. `P A Pᵀ`'s lower triangle is scattered
/// into zeroed panels and into `D` ([`Scatter`]); then, in column order,
/// each panel is factored ([`factor_panel`]) and subtracts its update from
/// its ancestors ([`update_ancestors`]). A skipped pivot leaves `d = 0` and
/// a zero column of `L`.
fn numeric<A: SparseRows + ?Sized>(
    a: &A,
    perm: Vec<u32>,
    panels: Panels,
    owner: &[u32],
    pivot_tol: f64,
) -> SparseLdlt {
    let n = perm.len();
    let iperm = inverse(&perm);
    let ns = panels.len();
    // Written before the scatter's first `+=` (see `dense::zeros`).
    let mut vals = zeros(panels.val_ptr[ns]);
    let mut d = zeros(n);
    let rows_per_node = a.node_blocks().map_or(1, BcsrMatrix::block_size);
    let mut scatter = Scatter {
        panels: &panels,
        owner,
        iperm: &iperm,
        vals: &mut vals,
        d: &mut d,
        place: vec![(NONE, 0); rows_per_node * ns],
        nnz_a: 0,
    };
    match a.node_blocks() {
        Some(blocks) if blocks.block_size() == 2 => scatter.blocks::<2>(blocks),
        Some(blocks) => scatter.blocks::<3>(blocks),
        None => scatter.rows(a, &perm),
    }
    let nnz_a = scatter.nnz_a;

    // `d` holds the diagonal of `A` until the first panel is factored.
    let diag_scale = d.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let threshold = pivot_tol * diag_scale.max(1e-300);
    let mut skipped = Vec::new();
    // Only a supernode with rows below its block sends an update.
    let sends = (0..ns).filter(|&s| !panels.below(s).is_empty());
    let max_width = sends.map(|s| panels.width(s)).max().unwrap_or(0);
    let max_below = (0..ns).map(|s| panels.below(s).len()).max().unwrap_or(0);
    let mut ld = zeros(UPDATE_CHUNK * max_width);
    let mut rel = vec![0u32; max_below];
    let mut quad = zeros(4 * (0..ns).map(|s| panels.width(s)).max().unwrap_or(0));
    for s in 0..ns {
        let (f, w) = (panels.first(s), panels.width(s));
        let (done, later) = vals.split_at_mut(panels.val_ptr[s + 1]);
        let (d_done, d_later) = d.split_at_mut(f + w);
        let panel = &mut done[panels.val_ptr[s]..];
        let ds = &mut d_done[f..];
        factor_panel(panel, ds, threshold, &mut quad);
        // Only a skipped pivot is zero: a kept one exceeds the threshold.
        skipped.extend(
            (0..w)
                .filter(|&p| ds[p] == 0.0)
                .map(|p| perm[f + p] as usize),
        );
        let target = Ancestors {
            vals: later,
            d: d_later,
            val_base: panels.val_ptr[s + 1],
            col_base: f + w,
        };
        update_ancestors(&panels, owner, s, panel, ds, target, &mut ld, &mut rel);
    }
    skipped.sort_unstable();
    SparseLdlt {
        perm,
        panels,
        vals,
        d,
        skipped,
        diag_scale,
        null_shift: 0.0,
        nnz_a,
        separator: 0,
    }
}

/// The scatter of `P A Pᵀ`'s lower triangle into the zeroed panels and of
/// its diagonal into `D`. Every entry lands on a place of its own, once, so
/// the order the entries come in leaves the bits alone: node blocks are
/// walked block by block, each block's rows and columns permuted once, any
/// other storage row by row.
struct Scatter<'a> {
    panels: &'a Panels,
    owner: &'a [u32],
    iperm: &'a [u32],
    vals: &'a mut [f64],
    d: &'a mut [f64],
    /// `place[B·s + r] = (k, x)`: row `k`, the `r`-th row of the block row
    /// being walked, sits at place `x` of panel `s` — searched once per row
    /// and panel (`B = 1` for scalar rows).
    place: Vec<(u32, u32)>,
    /// Entries of the strict lower triangle seen.
    nnz_a: usize,
}

impl Scatter<'_> {
    /// Scatters the scalar rows of `a`, in the permuted order.
    fn rows<A: SparseRows + ?Sized>(&mut self, a: &A, perm: &[u32]) {
        for (k, &old) in perm.iter().enumerate() {
            for (j, v) in a.row_entries(old as usize) {
                self.add(k, self.iperm[j] as usize, v, 0, 1);
            }
        }
    }

    /// Scatters the `B × B` node blocks of `a` block row by block row, each
    /// row's blocks left of the diagonal read through the transposed index
    /// (transposed), then its own, fill left out.
    fn blocks<const B: usize>(&mut self, a: &BcsrMatrix) {
        let (brow_ptr, bcols, blocks) = a.raw_parts();
        let mut mask_of = a.masks_from(0);
        for br in 0..a.n_block_rows() {
            let ks: [usize; B] = std::array::from_fn(|r| self.iperm[B * br + r] as usize);
            let last_row = ks.iter().max().copied().unwrap_or(0);
            // Above the diagonal of `P A Pᵀ` when every column is.
            let cols_of = |bc: usize| -> Option<[usize; B]> {
                let is: [usize; B] = std::array::from_fn(|c| self.iperm[B * bc + c] as usize);
                is.iter().any(|&i| i <= last_row).then_some(is)
            };
            for (bc, kb) in a.lower(br) {
                let Some(is) = cols_of(bc) else {
                    continue;
                };
                let (block, mask) = (&blocks[kb * B * B..][..B * B], a.mask_at(kb));
                for (r, &k) in ks.iter().enumerate() {
                    for (c, &i) in is.iter().enumerate() {
                        if mask >> (c * B + r) & 1 != 0 {
                            self.add(k, i, block[c * B + r], r, B);
                        }
                    }
                }
            }
            for kb in brow_ptr[br]..brow_ptr[br + 1] {
                let mask = mask_of(kb);
                let Some(is) = cols_of(bcols[kb] as usize) else {
                    continue;
                };
                let block = &blocks[kb * B * B..][..B * B];
                for (r, (&k, row)) in ks.iter().zip(block.chunks_exact(B)).enumerate() {
                    for (c, (&i, &v)) in is.iter().zip(row).enumerate() {
                        if mask >> (r * B + c) & 1 != 0 {
                            self.add(k, i, v, r, B);
                        }
                    }
                }
            }
        }
    }

    /// Adds the entry `v` of `P A Pᵀ` in row `k`, column `i`, to `D` on the
    /// diagonal and to `L` below it; `r` of `stride` is the row's slot in
    /// the place cache.
    #[inline(always)]
    fn add(&mut self, k: usize, i: usize, v: f64, r: usize, stride: usize) {
        if i == k {
            self.d[k] += v;
        }
        if i >= k {
            return;
        }
        self.nnz_a += 1;
        let p = self.panels;
        let s = self.owner[i] as usize;
        let (f, w) = (p.first(s), p.width(s));
        let place = &mut self.place[stride * s + r];
        if place.0 != k as u32 {
            let x = if k < f + w {
                k - f
            } else {
                let below = p.below(s).binary_search(&(k as u32));
                w + below.expect("an entry of A lies in the pattern of L")
            };
            *place = (k as u32, x as u32);
        }
        self.vals[p.val_ptr[s] + entry(w, place.1 as usize, i - f)] += v;
    }
}

/// Entries of a packed strict lower triangle of width `w`.
#[inline(always)]
fn tri(w: usize) -> usize {
    w * w.saturating_sub(1) / 2
}

/// Where column `q` of a packed strict lower triangle of width `w` starts:
/// columns are packed in order, each holding its `w − 1 − q` entries below
/// the diagonal top down.
#[inline(always)]
fn col_start(w: usize, q: usize) -> usize {
    q * (2 * w - q - 1) / 2
}

/// Position of the entry in row `x` (counted over the whole panel, block
/// rows first) and column `y < x` of a panel of width `w`.
#[inline(always)]
fn entry(w: usize, x: usize, y: usize) -> usize {
    if x < w {
        col_start(w, y) + x - y - 1
    } else {
        tri(w) + (x - w) * w + y
    }
}

/// Factors one panel in place. `d` enters as the diagonal of `A` less the
/// descendants' updates and leaves as the pivots; the block and the rows
/// below it leave as `L`. Every row is a forward substitution against the
/// finished columns of the block ([`eliminate`]), which leaves `u = L D`
/// row-wise, then `l_q = u_q / d_q`; a block row's pivot is
/// `d_i = a_ii − Σ_q l_q u_q`. A pivot with `|d_i| ≤ threshold` is zeroed,
/// and so is every `l` under it.
///
/// Rows go four at a time, so each column of the block is read once for
/// four rows ([`eliminate4`]). Block rows are copied into `quad` (four rows
/// of the panel width) to work on them contiguously: the four share the
/// columns before the first of them, then each, in order, takes the terms
/// that need the finished rows before it in the quad, one at a time in
/// ascending column order like [`eliminate`].
fn factor_panel(panel: &mut [f64], d: &mut [f64], threshold: f64, quad: &mut [f64]) {
    let w = d.len();
    let (block, below) = panel.split_at_mut(tri(w));
    for i in (0..w).step_by(4) {
        let rows = (w - i).min(4);
        let quad = &mut quad[..rows * w];
        for (k, row) in quad.chunks_exact_mut(w).enumerate() {
            for (q, u) in row[..i + k].iter_mut().enumerate() {
                *u = block[entry(w, i + k, q)];
            }
        }
        if rows == 4 {
            let (r0, rest) = quad.split_at_mut(w);
            let (r1, rest) = rest.split_at_mut(w);
            let (r2, r3) = rest.split_at_mut(w);
            eliminate4([r0, r1, r2, r3].map(|r| &mut r[..i]), block, w, i);
        } else {
            for row in quad.chunks_exact_mut(w) {
                eliminate(&mut row[..i], block, w);
            }
        }
        for k in 0..rows {
            let (done, row) = quad.split_at_mut(k * w);
            let row = &mut row[..i + k];
            for (j, l) in (i..).zip(done.chunks_exact(w)) {
                let terms = l[..j].iter().zip(&row[..j]);
                row[j] = terms.fold(row[j], |x, (&l, &u)| x - l * u);
            }
            let mut di = d[i + k];
            for (u, &dq) in row.iter_mut().zip(&*d) {
                let l = if dq == 0.0 { 0.0 } else { *u / dq };
                di -= l * *u;
                *u = l;
            }
            d[i + k] = if di.abs() <= threshold { 0.0 } else { di };
            for (q, &l) in row.iter().enumerate() {
                block[entry(w, i + k, q)] = l;
            }
        }
    }
    let mut quads = below.chunks_exact_mut(4 * w);
    for quad in &mut quads {
        let (r0, rest) = quad.split_at_mut(w);
        let (r1, rest) = rest.split_at_mut(w);
        let (r2, r3) = rest.split_at_mut(w);
        eliminate4([r0, r1, r2, r3], block, w, w);
    }
    for row in quads.into_remainder().chunks_exact_mut(w) {
        eliminate(row, block, w);
    }
    for row in below.chunks_exact_mut(w) {
        for (u, &dq) in row.iter_mut().zip(&*d) {
            *u = if dq == 0.0 { 0.0 } else { *u / dq };
        }
    }
}

/// The forward substitution of a panel row (or of its first `row.len()`
/// entries) against the packed block of a width-`w` panel, column by
/// column: `row_j −= l_jq row_q` for `j > q`. Each entry takes its terms in
/// ascending `q`, one at a time — the order of a column-by-column
/// elimination, so a matrix that is one supernode factors to the same bits
/// however its rows are grouped.
fn eliminate(row: &mut [f64], block: &[f64], w: usize) {
    for q in 0..row.len() {
        let (done, rest) = row.split_at_mut(q + 1);
        let u = done[q];
        for (x, &l) in rest.iter_mut().zip(&block[col_start(w, q)..]) {
            *x -= l * u;
        }
    }
}

/// [`eliminate`] of four rows of one length over the columns `..upto`.
fn eliminate4(rows: [&mut [f64]; 4], block: &[f64], w: usize, upto: usize) {
    let [r0, r1, r2, r3] = rows;
    for q in 0..upto {
        let u = [r0[q], r1[q], r2[q], r3[q]];
        let rest = q + 1..r0.len();
        let col = &block[col_start(w, q)..];
        let lanes = r0[rest.clone()].iter_mut().zip(&mut r1[rest.clone()]);
        let lanes = lanes.zip(&mut r2[rest.clone()]).zip(&mut r3[rest]);
        for ((((x0, x1), x2), x3), &l) in lanes.zip(col) {
            *x0 -= l * u[0];
            *x1 -= l * u[1];
            *x2 -= l * u[2];
            *x3 -= l * u[3];
        }
    }
}

/// The values still to be factored when a supernode sends its update: the
/// panels and pivots after it, with their offsets in the whole arrays.
struct Ancestors<'a> {
    vals: &'a mut [f64],
    d: &'a mut [f64],
    val_base: usize,
    col_base: usize,
}

/// Subtracts supernode `s`'s update `L_B D L_Bᵀ` (`B` = the rows below its
/// block, `l` = their rows of the finished panel) from its ancestors. The
/// rows of `B` are taken in chunks that each fall in one ancestor's columns;
/// per ancestor, the position of every later row of `B` in its panel goes
/// to `rel` once; per chunk, `L D` of its rows goes to `ld`, and each
/// update entry is one dot product scattered there (a diagonal one into the
/// pivot), computed two rows by four columns at a time where the chunk
/// allows.
#[allow(clippy::too_many_arguments)]
fn update_ancestors(
    panels: &Panels,
    owner: &[u32],
    s: usize,
    panel: &[f64],
    d: &[f64],
    target: Ancestors<'_>,
    ld: &mut [f64],
    rel: &mut [u32],
) {
    let Ancestors {
        vals,
        d: pivots,
        val_base,
        col_base,
    } = target;
    let w = d.len();
    let below = panels.below(s);
    let l = &panel[tri(w)..];
    let r = below.len();
    // `rel[c − base]`: the place of row `c` of B in the panel of `rel_of`,
    // for every row from `base` on.
    let (mut rel_of, mut base) = (NONE as usize, 0);
    let mut c0 = 0;
    while c0 < r {
        let t = owner[below[c0] as usize] as usize;
        let (ft, wt) = (panels.first(t), panels.width(t));
        let end = r.min(c0 + UPDATE_CHUNK);
        let c1 = (c0..end)
            .find(|&c| below[c] as usize >= ft + wt)
            .unwrap_or(end);
        for (out, row) in ld
            .chunks_exact_mut(w)
            .zip(l[c0 * w..c1 * w].chunks_exact(w))
        {
            for ((o, &x), &dq) in out.iter_mut().zip(row).zip(d) {
                *o = x * dq;
            }
        }
        let ldc = &ld[..(c1 - c0) * w];
        // Rows of B inside t's columns sit in its block, the rest are a
        // subset of the rows below t: one merge walk per target, however
        // many chunks it takes.
        if rel_of != t {
            let below_t = panels.below(t);
            let mut m = 0;
            for (x, &g) in rel.iter_mut().zip(&below[c0..]) {
                let g = g as usize;
                *x = if g < ft + wt {
                    (g - ft) as u32
                } else {
                    while below_t[m] as usize != g {
                        m += 1;
                    }
                    (wt + m) as u32
                };
            }
            (rel_of, base) = (t, c0);
        }
        let (cols, later) = rel[c0 - base..r - base].split_at(c1 - c0);
        let span = panels.values(t);
        let tv = &mut vals[span.start - val_base..span.end - val_base];
        let td = &mut pivots[ft - col_base..ft + wt - col_base];
        // Entry (x, y) of t's panel sits at `x − 1 + in_block[y]` for a row
        // x of its block (see `entry`; x ≥ 1 whenever some y < x), at
        // `tri(wt) + (x − wt) wt + y` below it.
        let mut in_block = [0; UPDATE_CHUNK];
        let mut in_rows = [0; UPDATE_CHUNK];
        for ((b, r), &y) in in_block.iter_mut().zip(&mut in_rows).zip(cols) {
            let y = y as usize;
            (*b, *r) = (col_start(wt, y) - y, y);
        }
        let offsets = |x: usize| match x < wt {
            true => (x.saturating_sub(1), &in_block),
            false => (tri(wt) + (x - wt) * wt, &in_rows),
        };
        // One row of B against the first `m` chunk columns.
        let single = |tv: &mut [f64], li: &[f64], x: u32, m: usize| {
            let (base, at) = offsets(x as usize);
            for (lc, &y) in ldc.chunks_exact(w).zip(at).take(m) {
                tv[base + y] -= dot(li, lc);
            }
        };
        // The chunk's own rows against the chunk columns up to their own.
        for (i, (li, &x)) in l[c0 * w..c1 * w].chunks_exact(w).zip(cols).enumerate() {
            single(tv, li, x, i);
            td[x as usize] -= dot(li, &ldc[i * w..(i + 1) * w]);
        }
        // The later rows, two at a time, against every chunk column, four
        // at a time.
        let pairs = l[c1 * w..].chunks_exact(2 * w).zip(later.chunks_exact(2));
        for (lp, xp) in pairs {
            let li = lp.split_at(w);
            let (b0, at0) = offsets(xp[0] as usize);
            let (b1, at1) = offsets(xp[1] as usize);
            let mut quads = ldc.chunks_exact(4 * w);
            let mut c = 0;
            for quad in &mut quads {
                let (a0, quad) = quad.split_at(w);
                let (a1, quad) = quad.split_at(w);
                let (a2, a3) = quad.split_at(w);
                let t = dot2x4([a0, a1, a2, a3], [li.0, li.1]);
                for k in 0..4 {
                    tv[b0 + at0[c + k]] -= t[0][k];
                    tv[b1 + at1[c + k]] -= t[1][k];
                }
                c += 4;
            }
            for lc in quads.remainder().chunks_exact(w) {
                tv[b0 + at0[c]] -= dot(li.0, lc);
                tv[b1 + at1[c]] -= dot(li.1, lc);
                c += 1;
            }
        }
        let odd = l[c1 * w..].chunks_exact(2 * w).remainder();
        if let (li, [x]) = (odd, later.chunks_exact(2).remainder()) {
            single(tv, li, *x, c1 - c0);
        }
        c0 = c1;
    }
}

/// `⟨a, b⟩` over `b`'s length, in four partial sums.
#[inline(always)]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let a = &a[..b.len()];
    let (mut a4, mut b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let mut acc = [0.0; 4];
    for (x, y) in (&mut a4).zip(&mut b4) {
        for l in 0..4 {
            acc[l] += x[l] * y[l];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a4.remainder().iter().zip(b4.remainder()) {
        s += x * y;
    }
    s
}

/// `[[⟨a_k, b_r⟩; 4]; 2]` over `b`'s length, each in two partial sums:
/// every vector is read once for the eight products.
#[inline(always)]
fn dot2x4(a: [&[f64]; 4], b: [&[f64]; 2]) -> [[f64; 4]; 2] {
    let n = b[0].len();
    let [a0, a1, a2, a3] = a.map(|r| &r[..n]);
    let [b0, b1] = b.map(|r| &r[..n]);
    let mut acc = [[[0.0; 2]; 4]; 2];
    let pairs = b0.chunks_exact(2).zip(b1.chunks_exact(2));
    let pairs = pairs.zip(a0.chunks_exact(2)).zip(a1.chunks_exact(2));
    let pairs = pairs.zip(a2.chunks_exact(2)).zip(a3.chunks_exact(2));
    for (((((y0, y1), x0), x1), x2), x3) in pairs {
        for l in 0..2 {
            for (k, x) in [x0, x1, x2, x3].into_iter().enumerate() {
                acc[0][k][l] += x[l] * y0[l];
                acc[1][k][l] += x[l] * y1[l];
            }
        }
    }
    let mut out = acc.map(|r| r.map(|s| s[0] + s[1]));
    if n % 2 == 1 {
        let q = n - 1;
        for (k, x) in [a0, a1, a2, a3].into_iter().enumerate() {
            out[0][k] += x[q] * b0[q];
            out[1][k] += x[q] * b1[q];
        }
    }
    out
}

#[cfg(test)]
#[path = "../tests/support/scalar_analysis.rs"]
mod scalar_analysis;

#[cfg(test)]
mod tests {
    use super::scalar_analysis::scalar_analysis;
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::dense::solve_dense;

    /// The stored pattern of `a`, row by row.
    fn pattern(a: &CsrMatrix) -> Vec<Vec<usize>> {
        (0..a.n_rows()).map(|i| a.row(i).0.to_vec()).collect()
    }

    /// Entries of `L` below the diagonal under `perm`, by the scalar
    /// reference.
    fn nnz_under(a: &CsrMatrix, perm: &[u32]) -> usize {
        scalar_analysis(&pattern(a), perm).col_ptr[a.n_rows()]
    }

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

        // Above the leaf size: two grids, each larger than a leaf, numbered
        // into each other, and isolated rows among them. The isolated rows
        // come first, then each component's rows together, each component
        // dissected on its own.
        let (g1, g2) = (grid_laplacian(9, 9), grid_laplacian(10, 8));
        let n = g1.n_rows() + g2.n_rows() + 7;
        let isolated = |i: usize| i % 25 == 11;
        let free: Vec<usize> = (0..n).filter(|&i| !isolated(i)).collect();
        // Free rows alternate between the grids while both have rows left.
        let (mut in1, mut in2) = (Vec::new(), Vec::new());
        for (k, &i) in free.iter().enumerate() {
            if (k % 2 == 0 && in1.len() < g1.n_rows()) || in2.len() == g2.n_rows() {
                in1.push(i);
            } else {
                in2.push(i);
            }
        }
        let mut coo = CooMatrix::new(n, n);
        for i in (0..n).filter(|&i| isolated(i)) {
            coo.push(i, i, 3.0).unwrap();
        }
        for (grid, rows) in [(&g1, &in1), (&g2, &in2)] {
            for r in 0..grid.n_rows() {
                let (cols, vals) = grid.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    coo.push(rows[r], rows[c], v).unwrap();
                }
            }
        }
        let a = coo.to_csr();
        assert!(ordering::supervariable_count(&a) > ordering::LEAF);
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        let perm: Vec<usize> = f.permutation().iter().map(|&p| p as usize).collect();
        let n_isolated = (0..n).filter(|&i| isolated(i)).count();
        assert!(perm[..n_isolated].iter().all(|&i| isolated(i)));
        let component = |i: usize| usize::from(in2.contains(&i));
        let switches = (perm[n_isolated..].windows(2))
            .filter(|w| component(w[0]) != component(w[1]))
            .count();
        assert_eq!(switches, 1, "each component's rows are contiguous");
        assert!(f.separator() > 0);
        let b: Vec<f64> = (0..n).map(|i| (0.4 * i as f64).sin()).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.to_dense(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12, "{xi} vs {wi}");
        }
    }

    /// Two dofs per node of [`grid_laplacian`] with a dense 2×2 coupling.
    fn two_dof_grid(nx: usize, ny: usize) -> CsrMatrix {
        let grid = grid_laplacian(nx, ny);
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
        coo.to_csr()
    }

    #[test]
    fn supervariables_keep_the_solve_exact() {
        // Every node's rows share one closed pattern and are merged before
        // ordering.
        let a = two_dof_grid(4, 3);
        let n = a.n_rows();
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
        let ordered = ordering::order(&a);
        let ordering_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (panels, owner) = analyse(ordered.graph, &ordered.order);
        let analysis_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let f = numeric(&a, ordered.perm, panels, &owner, DEFAULT_PIVOT_TOL);
        let numeric_s = t.elapsed().as_secs_f64();
        let natural: Vec<u32> = (0..n as u32).collect();
        let unordered = nnz_under(&a, &natural);
        eprintln!(
            "27-point stencil, {n} rows: ordering {:.2} ms, analysis {:.2} ms, numeric {:.2} ms, nnz(L) {} (natural order {unordered})",
            ordering_s * 1e3,
            analysis_s * 1e3,
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

    /// Holds [`SparseLdlt::layout`] of `a` to the scalar row-subtree
    /// analysis under the same permutation, array by array.
    fn assert_layout_is_scalar(a: &CsrMatrix) {
        let got = SparseLdlt::layout(a);
        let want = scalar_analysis(&pattern(a), &got.perm);
        assert_eq!(got.first, want.first);
        assert_eq!(got.row_ptr, want.row_ptr);
        assert_eq!(got.rows, want.rows);
        assert_eq!(got.val_ptr, want.val_ptr);
        assert_eq!(got.owner, want.owner);
    }

    #[test]
    fn supervariable_analysis_is_the_scalar_one() {
        // Minimum degree and nested dissection orders, 1 and 3 dofs per
        // node, interleaved identities, an empty matrix.
        assert_layout_is_scalar(&grid_laplacian(7, 9));
        assert_layout_is_scalar(&grid_laplacian(30, 30));
        assert_layout_is_scalar(&two_dof_grid(4, 3));
        assert_layout_is_scalar(&stencil27(6, 3));
        let stencil = stencil27(4, 3);
        let mut coo = CooMatrix::new(stencil.n_rows(), stencil.n_rows());
        for i in 0..stencil.n_rows() {
            let (cols, vals) = stencil.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if i == j || (i % 7 != 3 && j % 7 != 3) {
                    coo.push(i, j, v).unwrap();
                }
            }
        }
        assert_layout_is_scalar(&coo.to_csr());
        assert_layout_is_scalar(&CooMatrix::new(0, 0).to_csr());
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

    #[test]
    fn rank_deficient_dense_block_skips_inside_its_one_supernode() {
        // A dense, diagonally dominant block whose row and column 2 are
        // copies of row and column 0: rank n − 1, and one pattern for every
        // row, so one supervariable ordered naturally and one supernode.
        let n: usize = 10;
        let mut dense: Vec<f64> = (0..n * n)
            .map(|k| {
                let (i, j) = (k / n, k % n);
                1.0 / (1.0 + i.abs_diff(j) as f64) + if i == j { n as f64 } else { 0.0 }
            })
            .collect();
        for j in 0..n {
            dense[2 * n + j] = dense[j];
        }
        for i in 0..n {
            dense[i * n + 2] = dense[i * n];
        }
        let a = from_dense(n, &dense);
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        assert_eq!((f.supernodes(), f.max_front()), (1, n * n));
        assert_eq!(f.nnz_l(), n * (n - 1) / 2);
        // The copy is the third pivot of the panel, not its last: the skip
        // zeroes one column in the middle of the panel and the rest go on.
        assert_eq!(f.skipped_modes(), [2]);
        assert_eq!(f.permutation()[2], 2);
        let y: Vec<f64> = (0..n).map(|i| (0.7 * i as f64).sin()).collect();
        let b = a.spmv(&y);
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        for (got, want) in a.spmv(&x).iter().zip(&b) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn interleaved_dirichlet_rows_mix_tiny_and_wide_supernodes() {
        // Every seventh row and column of a 3-dof 27-point block becomes a
        // Dirichlet identity: width-1 panels with nothing below them among
        // the wide node-block panels of the rest.
        let stencil = stencil27(4, 3);
        let n = stencil.n_rows();
        let fixed = |i: usize| i % 7 == 3;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let (cols, vals) = stencil.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                match (fixed(i) || fixed(j), i == j) {
                    (false, _) => coo.push(i, j, v).unwrap(),
                    (true, true) => coo.push(i, i, 1.0).unwrap(),
                    (true, false) => {}
                }
            }
        }
        let a = coo.to_csr();
        // Above the leaf size, so nested dissection orders it: the
        // identities come first, ascending.
        assert!(ordering::supervariable_count(&a) > ordering::LEAF);
        let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 0);
        let n_fixed = (0..n).filter(|&i| fixed(i)).count();
        let first: Vec<usize> = f.permutation()[..n_fixed]
            .iter()
            .map(|&i| i as usize)
            .collect();
        assert_eq!(first, (0..n).filter(|&i| fixed(i)).collect::<Vec<_>>());
        let p = &f.panels;
        let singles = (0..p.len())
            .filter(|&s| p.width(s) == 1 && p.below(s).is_empty())
            .count();
        assert!(singles >= (0..n).filter(|&i| fixed(i)).count());
        assert!((0..p.len()).any(|s| p.width(s) >= 8), "no wide panel");
        assert!((0..p.len()).any(|s| p.width(s) > 1 && !p.below(s).is_empty()));
        let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).cos()).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.to_dense(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-10, "{xi} vs {wi}");
        }
    }

    /// FNV-1a of a permutation.
    fn digest(perm: &[u32]) -> u64 {
        perm.iter().fold(0xcbf2_9ce4_8422_2325, |h, &p| {
            (h ^ u64::from(p)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `Σ cⱼ²` over the column counts of `L` under `perm`: the
    /// [`SparseLdlt::factor_flops`] of that order, without the numeric phase.
    fn flops_under(a: &CsrMatrix, perm: &[u32]) -> u64 {
        let col_ptr = scalar_analysis(&pattern(a), perm).col_ptr;
        col_ptr
            .windows(2)
            .map(|c| ((c[1] - c[0]) as u64).pow(2))
            .sum()
    }

    #[test]
    fn small_matrices_keep_the_minimum_degree_permutation() {
        // At most a leaf of supervariables: minimum degree orders the whole
        // matrix, to the permutation (digest) and counts it gave before
        // nested dissection existed.
        let cases = [
            (grid_laplacian(8, 8), 0x20f9_4534_2b49_f88f, 296, 1638),
            (stencil27(4, 3), 0x3c00_d410_0e6a_fa69, 7653, 368_321),
            (two_dof_grid(4, 3), 0xf89b_7fcf_3abf_fb29, 116, 644),
            (grid_laplacian(7, 9), 0xfc7e_8530_d0ea_e9c4, 285, 1537),
        ];
        for (a, want, nnz_l, flops) in cases {
            assert!(ordering::supervariable_count(&a) <= ordering::LEAF);
            let f = SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL);
            assert_eq!(f.permutation(), ordering::min_degree_ordering(&a));
            assert_eq!(digest(f.permutation()), want);
            assert_eq!((f.nnz_l(), f.factor_flops()), (nnz_l, flops));
            assert_eq!(f.separator(), 0);
        }
    }

    #[test]
    fn two_factorizations_give_one_permutation() {
        for a in [stencil27(6, 3), grid_laplacian(30, 30)] {
            assert!(ordering::supervariable_count(&a) > ordering::LEAF);
            let (f1, f2) = (
                SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL),
                SparseLdlt::factor(&a, DEFAULT_PIVOT_TOL),
            );
            assert_eq!(f1.permutation(), f2.permutation());
            assert_eq!(f1.separator(), f2.separator());
            let b: Vec<f64> = (0..a.n_rows()).map(|i| (0.9 * i as f64).cos()).collect();
            let (mut x1, mut x2) = (b.clone(), b);
            f1.solve_in_place(&mut x1);
            f2.solve_in_place(&mut x2);
            assert_eq!(x1, x2);
        }
    }

    /// The 9-point (bilinear element) pattern of an `nx × ny` node grid,
    /// diagonally dominant.
    fn grid9(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        for (y, x) in (0..ny).flat_map(|y| (0..nx).map(move |x| (y, x))) {
            for (dy, dx) in (0..9).map(|k| (k / 3, k % 3)) {
                let (qx, qy) = (x + dx, y + dy);
                if qx == 0 || qy == 0 || qx > nx || qy > ny {
                    continue;
                }
                let (i, j) = (y * nx + x, (qy - 1) * nx + qx - 1);
                coo.push(i, j, if i == j { 8.5 } else { -1.0 }).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn nested_dissection_cuts_the_flops_of_3d_and_2d_meshes() {
        // 10³ nodes of a 3-dof 27-point stencil and a 60 × 60 9-point grid:
        // nested dissection needs at most 3/4 of minimum degree's flops
        // (measured: 0.46 and 0.59 of it), pinned to the flop.
        for (a, pinned) in [(stencil27(10, 3), 143_928_725), (grid9(60, 60), 3_850_681)] {
            let ordering::Ordered {
                perm, separator, ..
            } = ordering::order(&a);
            let nd = flops_under(&a, &perm);
            let md = flops_under(&a, &ordering::min_degree_ordering(&a));
            eprintln!(
                "{} rows: nested dissection {nd} flops, minimum degree {md} ({:.2}), root separator {separator} rows",
                a.n_rows(),
                nd as f64 / md as f64
            );
            assert!(4 * nd <= 3 * md, "{nd} vs {md}");
            assert_eq!(nd, pinned);
        }
    }
}
