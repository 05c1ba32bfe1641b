//! The coarse build: the modes' smoothing passes, the Galerkin product
//! and the factored coarse operator.
//!
//! A *holder* is whoever runs [`build_coarse`]: the sequential builder
//! (all parts, global rows), an EDD rank (its part, its unassembled
//! subdomain matrix) or an RDD rank (its part, its block row with ghost
//! columns). Modes are [`LiveMode`]s — sparse columns over the holder's
//! index space — and every step is support-local with **flat-array**
//! bookkeeping (an epoch marker and a touched list; no ordered sets):
//!
//! - the product `y = A_loc ẑ` over the rows the mode's support reaches,
//!   shared by the smoothing passes and the Galerkin product,
//! - the damped-Jacobi update `ẑ ← ẑ − ω D_A⁻¹ y`,
//! - the lower triangle of `Ẑᵀ A Ẑ` from per-holder dots, mirrored.
//!
//! On a rank, the modes whose support covers a good share of its rows (its
//! own part's, and its neighbours' once smoothing has spread them) are the
//! columns of one row-major [`ModePanel`] instead: each smoothing pass and
//! the Galerkin product multiply all of them in one sweep of the matrix
//! ([`SparseRows::mul_panel`]), the update runs on the panel, and their
//! pair dots come from one sweep over its rows. Every column keeps the
//! chain of adds of its own mode-by-mode product and dot, so the build has
//! the same bits either way.
//!
//! Between them sit the two [`CoarseSetup`] exchange points — an interface
//! *sum* after the product (EDD) and a halo *gather* before it (RDD) — and
//! the [`CoarseReduce`] sum for the `λ̂` norms and the coarse operator. A
//! mode becomes live on a holder when its values first arrive non-zero.

use super::modes::{dense_support, geometric_modes, mode_slot, LiveMode, ModePanel, ModeSet};
use super::{CoarsePartGeometry, CoarseReduce, CoarseSolver, CoarseSpec};
use parfem_sparse::dense::dot;
use parfem_sparse::{CooMatrix, CsrMatrix, LinearOperator, SparseLdlt, SparseRows};
use std::sync::Arc;

/// The rows a coarse builder multiplies with, over its local index space:
/// indices `0..n_rows()` are rows it owns products for, indices
/// `n_rows()..n_cols()` are ghost columns whose values arrive from other
/// ranks. The square block is read in whatever storage its holder keeps
/// (CSR, or an EDD rank's node blocks, fill left out) and must be
/// structurally symmetric (finite-element matrices are), because the rows a
/// changed entry `j` feeds are found by walking row `j`.
pub struct LocalRows<'a, A: SparseRows + ?Sized = CsrMatrix> {
    a: &'a A,
    /// `(A_ext, A_extᵀ)`: the ghost-column block and its transpose, whose
    /// rows list the owned rows each ghost column feeds.
    ghosts: Option<(&'a CsrMatrix, CsrMatrix)>,
    n_ghost: usize,
}

impl<'a, A: SparseRows + ?Sized> LocalRows<'a, A> {
    /// A square matrix over its own index space (sequential operators, EDD
    /// subdomain matrices).
    pub fn square(a: &'a A) -> Self {
        LocalRows {
            a,
            ghosts: None,
            n_ghost: 0,
        }
    }

    /// A block row `[a_loc | a_ext]` whose last `n_ghost` indices are ghost
    /// columns (RDD block rows).
    pub fn with_ghosts(a_loc: &'a A, a_ext: &'a CsrMatrix, n_ghost: usize) -> Self {
        LocalRows {
            a: a_loc,
            ghosts: Some((a_ext, a_ext.transpose())),
            n_ghost,
        }
    }

    /// Calls `f` on each owned row with a stored entry in column `j`.
    fn for_rows_touching(&self, j: usize, mut f: impl FnMut(usize)) {
        let n = self.a.n_rows();
        if j < n {
            self.a.row_entries(j).for_each(|(r, _)| f(r));
        } else {
            let (_, ext_t) = self.ghosts.as_ref().expect("ghost index without ghosts");
            ext_t.row(j - n).0.iter().for_each(|&r| f(r));
        }
    }

    /// Row `r` of a panel product continued over the ghost columns: the
    /// square block's chain of adds goes on, one add per ghost entry.
    fn ghost_panel_row(&self, r: usize, z: &[f64], y: &mut [f64]) {
        let (n, k) = (self.a.n_rows(), y.len());
        let (cols, vals) = self.ghost_row(r);
        for (&j, &a_rj) in cols.iter().zip(vals) {
            for (yc, &zc) in y.iter_mut().zip(&z[(n + j) * k..][..k]) {
                *yc += a_rj * zc;
            }
        }
    }

    /// Row `r` of the ghost-column block, columns in the ghost numbering.
    fn ghost_row(&self, r: usize) -> (&[usize], &[f64]) {
        self.ghosts
            .as_ref()
            .map_or((&[], &[]), |(ext, _)| ext.row(r))
    }
}

/// The rows of the index space: the square block's entries, then the ghost
/// columns' (numbered from `n_rows` on), so a row's columns stay ascending
/// and its products continue the square block's chain of adds.
impl<A: SparseRows + ?Sized> SparseRows for LocalRows<'_, A> {
    fn n_rows(&self) -> usize {
        self.a.n_rows()
    }

    /// Size of the index space (rows plus ghost columns).
    fn n_cols(&self) -> usize {
        self.a.n_rows() + self.n_ghost
    }

    fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let n = self.a.n_rows();
        let (cols, vals) = self.ghost_row(r);
        let ghosts = cols.iter().zip(vals).map(move |(&j, &v)| (n + j, v));
        self.a.row_entries(r).chain(ghosts)
    }

    fn row_len(&self, r: usize) -> usize {
        self.a.row_len(r) + self.ghost_row(r).0.len()
    }

    fn nnz(&self) -> usize {
        self.a.nnz() + self.ghosts.as_ref().map_or(0, |(ext, _)| ext.nnz())
    }

    fn row_dot(&self, r: usize, z: &[f64]) -> f64 {
        let n = self.a.n_rows();
        let mut acc = self.a.row_dot(r, z);
        let (cols, vals) = self.ghost_row(r);
        for (&j, &a_rj) in cols.iter().zip(vals) {
            acc += a_rj * z[n + j];
        }
        acc
    }

    fn mul_panel(&self, z: &[f64], k: usize, y: &mut [f64]) {
        self.a.mul_panel(z, k, y);
        if k == 0 || self.ghosts.is_none() {
            return;
        }
        for (r, yr) in y[..self.a.n_rows() * k].chunks_exact_mut(k).enumerate() {
            self.ghost_panel_row(r, z, yr);
        }
    }

    fn mul_panel_row(&self, r: usize, z: &[f64], k: usize, y: &mut [f64]) {
        self.a.mul_panel_row(r, z, k, y);
        self.ghost_panel_row(r, z, &mut y[..k]);
    }

    fn diagonal(&self) -> Vec<f64> {
        self.a.diagonal()
    }
}

/// What the coarse construction needs from an operator beyond its action
/// and the [`CoarseReduce`] sum: the rows it multiplies with, and the two
/// exchange points that turn rank-local products into rows of the assembled
/// operator. Sequential operators hold everything — their hooks are the
/// defaulted no-ops, exactly as [`CoarseReduce`] for [`CsrMatrix`] is the
/// no-op reduce — so [`build_coarse`] is one construction for the
/// sequential solver and for both distributed operators.
pub trait CoarseSetup: LinearOperator + CoarseReduce {
    /// The storage of the holder's own square block.
    type Rows: SparseRows + ?Sized;

    /// The rows this holder computes products for.
    fn local_rows(&self) -> LocalRows<'_, Self::Rows>;

    /// Partition-of-unity weights per row for inner products and for the
    /// restriction `Ẑᵀ v` (`1/mult` where interface entries are replicated
    /// across ranks); `None` where every row lives on exactly one holder.
    fn partition_weights(&self) -> Option<&[f64]> {
        None
    }

    /// Whether the coarse space is built rank by rank. Ranks run one
    /// exchange per smoothing pass over all their live modes and sum the
    /// Galerkin operator through a dense all-reduce; a sequential holder
    /// has nothing to exchange, so it smooths mode by mode (bounding the
    /// staged products to one mode) and assembles the operator sparsely.
    fn is_distributed(&self) -> bool {
        false
    }

    /// Before a product: brings the ghost entries of every mode's `ẑ` up
    /// to date with their owners (a halo *gather*), in its list or its
    /// panel column. A mode whose values arrive non-zero for the first time
    /// becomes live here, as a list mode.
    fn refresh_ghosts(&self, modes: &mut ModeSet) {
        let _ = modes;
    }

    /// After a product: completes every mode's staged product, list or
    /// panel column, with the other holders' contributions at shared rows
    /// (an interface *sum*), in an order that leaves bit-identical values on
    /// every sharing rank. A mode whose contributions arrive non-zero for
    /// the first time becomes live here, as a list mode with an empty `z`.
    fn complete_products(&self, modes: &mut ModeSet) {
        let _ = modes;
    }
}

impl CoarseSetup for CsrMatrix {
    type Rows = CsrMatrix;

    fn local_rows(&self) -> LocalRows<'_> {
        LocalRows::square(self)
    }
}

/// What one coarse construction produced, for traces and summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseBuildInfo {
    /// Global number of coarse modes (pivoted-out ones included).
    pub n_modes: usize,
    /// Modes with at least one non-zero entry on this holder's rows.
    pub live_modes: usize,
    /// Stored entries of the Galerkin operator `A_c`.
    pub nnz: usize,
    /// Pivots the coarse factorization skipped.
    pub skipped: usize,
    /// The power-iteration estimate `λ̂ ≈ λ_max(D_A⁻¹ A)` (`0` when the
    /// spec asks for no smoothing).
    pub lambda_hat: f64,
    /// The smoothing damping `ω = 4/(3 λ̂)` (`0` without smoothing).
    pub omega: f64,
}

/// The result of [`build_coarse`] on one holder.
#[derive(Debug, Clone)]
pub struct BuiltCoarse {
    /// The modes live on this holder's rows, ascending by id, panel columns
    /// and sorted lists as built; ghost entries and staged products dropped.
    pub modes: ModeSet,
    /// The Galerkin operator `A_c = Ẑᵀ A Ẑ` (identical on every rank).
    pub a_c: CsrMatrix,
    /// Its factorization (every rank factors its own copy).
    pub factor: Arc<SparseLdlt>,
    /// Sizes and smoothing constants of this build.
    pub info: CoarseBuildInfo,
}

impl BuiltCoarse {
    /// The runtime [`CoarseSolver`] on the built modes: prolongation carries
    /// every mode entry, restriction the same entries times the holder's
    /// partition-of-unity `weights` ([`CoarseSetup::partition_weights`]).
    pub fn solver(self, weights: Option<&[f64]>) -> CoarseSolver {
        CoarseSolver::new(
            self.info.n_modes,
            self.modes,
            weights.map(<[f64]>::to_vec),
            self.factor,
        )
    }
}

/// Builds the global coarse basis and its factored Galerkin operator with
/// all parts in one address space — [`build_coarse`] over the assembled
/// operator, whose exchange hooks are no-ops.
///
/// Inputs: per-part geometry, the global dof multiplicity `mult` (how many
/// parts share each dof — the partition-of-unity denominator; `1.0`
/// everywhere for disjoint row partitions), the scaling diagonal `d` of
/// `A = D K D`, and the scaled assembled operator `a_scaled` itself. Every
/// built mode is a sorted list over the global dofs, so
/// [`BuiltCoarse::solver`]`(None)` restricts and prolongs with the exact
/// transpose pair `R = Ẑᵀ`.
///
/// # Panics
/// Panics when a part's geometry vectors disagree in length or a dof index
/// is out of range of `mult`/`d`/`a_scaled`.
pub fn build_coarse_basis(
    spec: &CoarseSpec,
    parts: &[CoarsePartGeometry],
    mult: &[f64],
    d: &[f64],
    a_scaled: &CsrMatrix,
    pivot_tol: f64,
) -> BuiltCoarse {
    let n_comp = parts
        .iter()
        .flat_map(|p| p.comp.iter().copied())
        .max()
        .map_or(1, |c| c + 1);
    let held: Vec<(usize, &CoarsePartGeometry)> = parts.iter().enumerate().collect();
    build_coarse(
        a_scaled,
        spec,
        parts.len(),
        n_comp,
        &held,
        mult,
        d,
        pivot_tol,
    )
}

/// Builds this holder's share of the coarse space over `op` and the
/// (replicated) factored Galerkin operator.
///
/// `parts` lists the parts whose geometry this holder has — every part
/// sequentially, a rank's own part on the distributed path — as
/// `(part number, geometry)`; `mult` and `d` (dof multiplicity and the
/// scaling diagonal of `A = D K D`) run over the holder's rows. The steps,
/// each written once over the [`CoarseSetup`] hooks:
///
/// 1. every held part's modes are built on its own dofs and published
///    ([`CoarseSetup::complete_products`] with a single contributor), so
///    every rank sharing a dof starts from bit-identical values;
/// 2. for `.sK` specs, `λ̂` comes from 12 power-iteration steps through the
///    operator's own `apply_into` and the weighted inner product, and each
///    of the `K` passes is one sweep of the matrix over the dense-support
///    modes (a rank's [`ModePanel`]), one walked-reach product per other
///    live mode, one completion, and the damped-Jacobi update;
/// 3. the lower triangle of `Ẑᵀ A Ẑ` is summed from per-holder products
///    `ẑ_m|ᵀ (A_loc ẑ_m')` — one more sweep over the panel, whose pair dots
///    come from one pass over its rows — through
///    [`CoarseReduce::coarse_reduce`] on a dense packed triangle when
///    distributed, mirrored, and factored redundantly by every holder.
///
/// Deterministic: fixed mode numbering, products in stored row order, dots
/// in ascending row order, the rank-ordered reduce. Rank-deficient mode
/// blocks (fully-constrained parts, 1-element parts, duplicated modes)
/// survive — the factorization pivots them out rather than
/// failing, which is exactly where ILU(0) broke down on floating
/// subdomains (the paper's Eq. 45 path).
///
/// # Panics
/// Panics when a part's geometry vectors disagree in length or a dof index
/// is out of range of `mult`/`d`/the operator's rows.
#[allow(clippy::too_many_arguments)]
pub fn build_coarse<Op: CoarseSetup + ?Sized>(
    op: &Op,
    spec: &CoarseSpec,
    n_parts: usize,
    n_comp: usize,
    parts: &[(usize, &CoarsePartGeometry)],
    mult: &[f64],
    d: &[f64],
    pivot_tol: f64,
) -> BuiltCoarse {
    let rows = op.local_rows();
    let mpp = CoarseSpec::modes_per_part(n_comp);
    let n_modes = mpp * n_parts;
    let mut scratch = Scratch::new(rows.n_cols());

    let mut set = ModeSet::default();
    for &(p, geo) in parts {
        assert_eq!(geo.dofs.len(), geo.pos.len(), "part {p}: pos length");
        assert_eq!(geo.dofs.len(), geo.comp.len(), "part {p}: comp length");
        assert_eq!(
            geo.dofs.len(),
            geo.constrained.len(),
            "part {p}: constrained length"
        );
        for (k, y) in geometric_modes(geo, mult, d, n_comp)
            .into_iter()
            .enumerate()
        {
            if !y.is_empty() {
                mode_slot(&mut set.modes, p * mpp + k).y = y;
            }
        }
    }
    op.complete_products(&mut set);
    for mode in &mut set.modes {
        mode.z = std::mem::take(&mut mode.y);
    }

    let (mut lambda_hat, mut omega) = (0.0, 0.0);
    let passes = spec.passes;
    if passes > 0 {
        let inv_diag = inverse_assembled_diagonal(op, &rows);
        lambda_hat = power_iteration_lambda(op, &inv_diag);
        omega = 4.0 / (3.0 * lambda_hat.max(f64::MIN_POSITIVE));
        if op.is_distributed() {
            smooth_modes(op, &rows, &mut set, passes, omega, &inv_diag, &mut scratch);
        } else {
            let mut one = ModeSet::default();
            for i in 0..set.modes.len() {
                one.modes.push(std::mem::take(&mut set.modes[i]));
                smooth_modes(op, &rows, &mut one, passes, omega, &inv_diag, &mut scratch);
                set.modes[i] = one.modes.pop().expect("the one mode smoothed");
            }
        }
    }

    op.refresh_ghosts(&mut set);
    for mode in &mut set.modes {
        mode.z.retain(|&(_, v)| v != 0.0);
        mode.z.sort_unstable_by_key(|&(g, _)| g);
    }
    let n_rows = rows.n_rows();
    if op.is_distributed() {
        // A column leaves the panel only if exact cancellation has thinned
        // its support below the share since it joined.
        let lens = set.panel.nonzeros(rows.n_cols());
        set.regather(n_rows, rows.n_cols(), |c| !dense_support(lens[c], n_rows));
    }
    let lower = galerkin_lower(op, &rows, &mut set, &mut scratch);
    let a_c = assemble_coarse_operator(op, n_modes, &lower);
    let factor = SparseLdlt::factor(&a_c, pivot_tol);
    op.coarse_work(factor.factor_flops());

    set.panel.y = Vec::new();
    set.panel.z.truncate(n_rows * set.panel.width);
    let columns = set.panel.nonzeros(n_rows);
    for mode in &mut set.modes {
        mode.z.retain(|&(g, _)| g < n_rows);
    }
    set.modes
        .retain(|m| m.column.map_or(!m.z.is_empty(), |c| columns[c] > 0));
    let info = CoarseBuildInfo {
        n_modes,
        live_modes: set.modes.len(),
        nnz: a_c.nnz(),
        skipped: factor.n_skipped(),
        lambda_hat,
        omega,
    };
    BuiltCoarse {
        modes: set,
        a_c,
        factor: Arc::new(factor),
        info,
    }
}

/// Flat-array workspace of the support-local kernels: dense staging over
/// the index space, an epoch marker with a slot table, and per-index masks
/// of up to 64 modes, so a support is a touched list plus O(1) membership —
/// never an ordered set.
struct Scratch {
    /// Dense staging, all zero between kernel calls.
    dense: Vec<f64>,
    /// The values of a group of list modes as a row-major panel, grown to
    /// the widest group; all zero between kernel calls.
    panel: Vec<f64>,
    /// Per index: which modes of a group hold it in their support, and
    /// which reach it. All zero between kernel calls.
    support: Vec<u64>,
    reach: Vec<u64>,
    mark: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
}

impl Scratch {
    fn new(n_index: usize) -> Self {
        Scratch {
            dense: vec![0.0; n_index],
            panel: Vec::new(),
            support: vec![0; n_index],
            reach: vec![0; n_index],
            mark: vec![0; n_index],
            slot: vec![0; n_index],
            epoch: 0,
        }
    }

    /// Starts a fresh marker generation.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// A list mode's entries and the list its product `y = A_loc ẑ` goes to.
type ListProduct<'m> = (&'m [(usize, f64)], &'m mut Vec<(usize, f64)>);

/// `y = A_loc ẑ` of list modes. A mode whose support is dense is multiplied
/// over all rows (a width-1 panel; only a sequential holder keeps such a
/// mode as a list). The others are multiplied over the rows their support
/// can reach — their own rows plus one stencil layer, found by walking the
/// support's rows (structural symmetry) — at a cost proportional to their
/// footprint, not to the holder's size: up to 64 at a time, the union of
/// their supports walked once with a mask per row of which modes reach it,
/// and the reached rows multiplied as one panel of their values. Every
/// value has the bits of its own [`SparseRows::row_dot`]. Returns the flops
/// performed: `2·nnz` per dense mode, each row's entries per mode reaching it.
fn list_products<A: SparseRows + ?Sized>(
    rows: &LocalRows<'_, A>,
    products: &mut [ListProduct<'_>],
    s: &mut Scratch,
) -> u64 {
    let n_rows = rows.n_rows();
    let mut flops = 0;
    let mut walked = Vec::new();
    for (z, y) in products.iter_mut() {
        if !dense_support(z.len(), n_rows) {
            walked.push((*z, &mut **y));
            continue;
        }
        for &(g, v) in z.iter() {
            s.dense[g] = v;
        }
        let mut out = vec![0.0; n_rows];
        rows.mul_panel(&s.dense, 1, &mut out);
        y.clear();
        y.extend(out.into_iter().enumerate());
        for &(g, _) in z.iter() {
            s.dense[g] = 0.0;
        }
        flops += 2 * rows.nnz() as u64;
    }
    for group in walked.chunks_mut(64) {
        flops += reach_products(rows, group, s);
    }
    flops
}

/// The walked-reach products of up to 64 list modes (see [`list_products`]).
fn reach_products<A: SparseRows + ?Sized>(
    rows: &LocalRows<'_, A>,
    group: &mut [ListProduct<'_>],
    s: &mut Scratch,
) -> u64 {
    let (n_rows, k) = (rows.n_rows(), group.len());
    if s.panel.len() < rows.n_cols() * k {
        s.panel.resize(rows.n_cols() * k, 0.0);
    }
    let mut support = Vec::new();
    for (c, (z, _)) in group.iter().enumerate() {
        for &(g, v) in z.iter() {
            s.panel[g * k + c] = v;
            if s.support[g] == 0 {
                support.push(g);
            }
            s.support[g] |= 1 << c;
        }
    }
    let mut reached = Vec::new();
    for &g in &support {
        let modes = s.support[g];
        let mut reach = |r: usize| {
            if s.reach[r] == 0 {
                reached.push(r);
            }
            s.reach[r] |= modes;
        };
        if g < n_rows {
            reach(g);
        }
        rows.for_rows_touching(g, reach);
    }
    let mut flops = 0;
    let mut values = vec![0.0; reached.len() * k];
    for (&r, yr) in reached.iter().zip(values.chunks_exact_mut(k)) {
        rows.mul_panel_row(r, &s.panel, k, yr);
        flops += 2 * (rows.row_len(r) as u64) * u64::from(s.reach[r].count_ones());
    }
    for (c, (z, y)) in group.iter_mut().enumerate() {
        let mine = (reached.iter().zip(values.chunks_exact(k)))
            .filter(|&(&r, _)| s.reach[r] >> c & 1 != 0)
            .map(|(&r, yr)| (r, yr[c]));
        y.clear();
        y.extend(mine);
        for &(g, _) in z.iter() {
            s.panel[g * k + c] = 0.0;
        }
    }
    support.iter().for_each(|&g| s.support[g] = 0);
    reached.iter().for_each(|&r| s.reach[r] = 0);
    flops
}

/// The damped-Jacobi update `ẑ ← ẑ − ω D_A⁻¹ y` of one list mode from its
/// completed product, widening the support by the rows `y` reached.
fn smoothing_update(mode: &mut LiveMode, omega: f64, inv_diag: &[f64], s: &mut Scratch) {
    let epoch = s.next_epoch();
    for (i, &(g, _)) in mode.z.iter().enumerate() {
        s.mark[g] = epoch;
        s.slot[g] = i as u32;
    }
    // Consumed, not cleared: a staged product is as large as the mode, and
    // a sequential holder keeps thousands of modes.
    for (r, yr) in std::mem::take(&mut mode.y) {
        let step = omega * yr * inv_diag[r];
        if s.mark[r] == epoch {
            mode.z[s.slot[r] as usize].1 -= step;
        } else if step != 0.0 {
            mode.z.push((r, -step));
        }
    }
}

/// `passes` smoothing passes `ẑ ← (I − ω D_A⁻¹ A) ẑ` over every mode in
/// `set` (the smoothed-aggregation prolongator). Each pass widens a
/// mode's support by one stencil layer, which is exactly what repairs the
/// energy boundedness plain aggregation lacks on elasticity. One pass is
/// one ghost refresh, one sweep of the matrix over the panel plus one
/// support-local product per list mode, one completion and the update — so
/// a rank pays one exchange per pass however many modes are live on it. A
/// distributed holder moves each mode into the panel the pass its support
/// turns dense; supports only grow, so it stays there.
fn smooth_modes<Op: CoarseSetup + ?Sized>(
    op: &Op,
    rows: &LocalRows<'_, Op::Rows>,
    set: &mut ModeSet,
    passes: usize,
    omega: f64,
    inv_diag: &[f64],
    s: &mut Scratch,
) {
    let n_rows = rows.n_rows();
    for _ in 0..passes {
        op.refresh_ghosts(set);
        if op.is_distributed() {
            set.regather(n_rows, rows.n_cols(), |_| false);
        }
        let panel = &mut set.panel;
        rows.mul_panel(&panel.z, panel.width, &mut panel.y);
        let mut flops = 2 * (rows.nnz() * panel.width) as u64;
        let mut lists: Vec<ListProduct<'_>> = (set.modes.iter_mut())
            .filter(|m| m.column.is_none())
            .map(|m| (&m.z[..], &mut m.y))
            .collect();
        flops += list_products(rows, &mut lists, s);
        op.coarse_work(flops);
        op.complete_products(set);
        set.panel.update(omega, inv_diag);
        let mut updates = (n_rows * set.panel.width) as u64;
        for mode in set.modes.iter_mut().filter(|m| m.column.is_none()) {
            updates += mode.y.len() as u64;
            smoothing_update(mode, omega, inv_diag, s);
        }
        op.coarse_work(3 * updates);
    }
}

/// `1 / diag(A)` over the holder's rows, from the assembled diagonal: the
/// local diagonal completed like any product, so shared rows get the same
/// bits on every sharing rank. Zero diagonals invert to zero.
fn inverse_assembled_diagonal<Op: CoarseSetup + ?Sized>(
    op: &Op,
    rows: &LocalRows<'_, Op::Rows>,
) -> Vec<f64> {
    let n = rows.n_rows();
    let mut diag = ModeSet {
        modes: vec![LiveMode {
            y: rows.diagonal().into_iter().enumerate().collect(),
            ..LiveMode::default()
        }],
        panel: ModePanel::default(),
    };
    op.complete_products(&mut diag);
    let mut inv = vec![0.0; n];
    for &(r, q) in &diag.modes[0].y {
        if q != 0.0 {
            inv[r] = 1.0 / q;
        }
    }
    op.coarse_work(n as u64);
    inv
}

/// The inner product the holder's partials sum to: plain, or weighted by
/// the partition of unity where rows are replicated.
fn weighted_dot(weights: Option<&[f64]>, x: &[f64], y: &[f64]) -> f64 {
    match weights {
        None => dot(x, y),
        Some(w) => x.iter().zip(y).zip(w).map(|((a, b), w)| a * b * w).sum(),
    }
}

/// `λ̂ ≈ λ_max(D_A⁻¹ A)` by 12 power-iteration steps on the diagonally
/// preconditioned operator, started from the all-ones vector. The standard
/// damping `ω = 4/(3 λ̂)` built on it is accurate enough that overshoot
/// (which would *amplify* the high end) cannot happen for the mild spectra
/// produced by norm-1 scaling. Both norms of a step travel in one reduce,
/// so the estimate is bit-identical on every rank.
fn power_iteration_lambda<Op: CoarseSetup + ?Sized>(op: &Op, inv_diag: &[f64]) -> f64 {
    let n = inv_diag.len();
    let weights = op.partition_weights();
    let mut v = vec![1.0; n];
    let mut w = vec![0.0; n];
    let mut lambda = 1.0;
    for _ in 0..12 {
        op.apply_into(&v, &mut w);
        for (wi, &qi) in w.iter_mut().zip(inv_diag) {
            *wi *= qi;
        }
        let mut norms = [weighted_dot(weights, &w, &w), weighted_dot(weights, &v, &v)];
        op.coarse_work(8 * n as u64);
        op.coarse_reduce(&mut norms);
        let norm = norms[0].sqrt();
        if norm <= 0.0 {
            break;
        }
        lambda = norm / norms[1].sqrt().max(f64::MIN_POSITIVE);
        let inv = 1.0 / norm;
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi * inv;
        }
    }
    lambda
}

/// This holder's contribution to the lower triangle of `Ẑᵀ A Ẑ`, as
/// `((m, m'), value)` entries with `m ≥ m'` in ascending `(m, m')` order:
/// for each mode, `y = A_loc ẑ_m` — one sweep for all panel columns, the
/// reachable rows of each list mode — dotted with every mode sharing
/// support (found through a flat row → modes incidence table; a column's
/// product covers every row), pairs of columns from one sweep over the
/// panel's rows. `set` must be sorted by id with list entries sorted by
/// index.
fn galerkin_lower<Op: CoarseSetup + ?Sized>(
    op: &Op,
    rows: &LocalRows<'_, Op::Rows>,
    set: &mut ModeSet,
    s: &mut Scratch,
) -> Vec<((usize, usize), f64)> {
    let n_rows = rows.n_rows();
    let panel = &mut set.panel;
    let w = panel.width;
    rows.mul_panel(&panel.z, w, &mut panel.y);
    let mut flops = 2 * (rows.nnz() * w) as u64;
    let gram = panel.gram();
    let set = &*set;
    let modes = &set.modes;
    // Stored entries per mode (ghosts included): what a dot with it costs.
    let columns = set.panel.nonzeros(rows.n_cols());
    let len: Vec<usize> = (modes.iter())
        .map(|m| m.column.map_or(m.z.len(), |c| columns[c]))
        .collect();

    // Row → positions of the modes with an entry there, as one flat table.
    let mut at_column = vec![0u32; w];
    (modes.iter().enumerate())
        .filter_map(|(i, m)| m.column.map(|c| (i, c)))
        .for_each(|(i, c)| at_column[c] = i as u32);
    let owned_entries = |f: &mut dyn FnMut(usize, u32)| {
        for (i, mode) in modes.iter().enumerate() {
            for &(g, _) in mode.z.iter().filter(|&&(g, _)| g < n_rows) {
                f(g, i as u32);
            }
        }
        set.panel
            .for_each_nonzero(n_rows, |g, c, _| f(g, at_column[c]));
    };
    let mut start = vec![0usize; n_rows + 1];
    owned_entries(&mut |g, _| start[g + 1] += 1);
    for g in 0..n_rows {
        start[g + 1] += start[g];
    }
    let mut incident = vec![0u32; start[n_rows]];
    let mut next = start.clone();
    let mut owns_a_row = vec![false; modes.len()];
    owned_entries(&mut |g, i| {
        incident[next[g]] = i;
        next[g] += 1;
        owns_a_row[i as usize] = true;
    });

    let mut lower = Vec::new();
    let mut y = Vec::new();
    let mut seen = vec![false; modes.len()];
    let mut partners: Vec<u32> = Vec::new();
    for (i, mode) in modes.iter().enumerate() {
        if let Some(c) = mode.column {
            for (r, yr) in s.dense[..n_rows].iter_mut().enumerate() {
                *yr = set.panel.y(r, c);
            }
            partners.extend((0..=i as u32).filter(|&i2| owns_a_row[i2 as usize]));
        } else {
            flops += list_products(rows, &mut [(&mode.z[..], &mut y)], s);
            for &(r, yr) in &y {
                s.dense[r] = yr;
                for &i2 in &incident[start[r]..start[r + 1]] {
                    if (i2 as usize) <= i && !seen[i2 as usize] {
                        seen[i2 as usize] = true;
                        partners.push(i2);
                    }
                }
            }
            partners.sort_unstable();
        }
        for &i2 in &partners {
            seen[i2 as usize] = false;
            let other = &modes[i2 as usize];
            let acc = match (mode.column, other.column) {
                (Some(c), Some(c2)) => gram[c * w + c2],
                _ => {
                    (set.entries(i2 as usize, n_rows)).fold(0.0, |acc, (g, v)| acc + v * s.dense[g])
                }
            };
            flops += 2 * len[i2 as usize] as u64;
            lower.push(((mode.id, other.id), acc));
        }
        partners.clear();
        if mode.column.is_some() {
            s.dense[..n_rows].fill(0.0);
        } else {
            for &(r, _) in &y {
                s.dense[r] = 0.0;
            }
        }
    }
    op.coarse_work(flops);
    lower
}

/// Sums the holders' lower-triangle contributions into the symmetric
/// Galerkin operator, mirrored exactly so the result is symmetric bit for
/// bit.
///
/// Distributed holders scatter their entries into the packed dense lower
/// triangle (`n_c (n_c + 1) / 2` values) and sum it with one
/// [`CoarseReduce::coarse_reduce`] — rank order, so every rank holds the
/// identical matrix. That is `O(n_c²)` memory and traffic per rank: fine at
/// thread-scale part counts (`n_c = 384` for 64 three-dimensional parts is
/// 0.6 MB), past a few thousand modes it needs a sparse reduction over the
/// part adjacency instead. The sequential holder has every contribution
/// already and assembles sparsely, so its mode count is unbounded.
fn assemble_coarse_operator<Op: CoarseSetup + ?Sized>(
    op: &Op,
    n_modes: usize,
    lower: &[((usize, usize), f64)],
) -> CsrMatrix {
    let mut coo = CooMatrix::new(n_modes, n_modes);
    let mut push = |m: usize, m2: usize, v: f64| {
        coo.push(m, m2, v).expect("coarse entry in range");
        if m2 != m {
            coo.push(m2, m, v).expect("coarse entry in range");
        }
    };
    if op.is_distributed() {
        let mut packed = vec![0.0; n_modes * (n_modes + 1) / 2];
        for &((m, m2), v) in lower {
            packed[m * (m + 1) / 2 + m2] = v;
        }
        op.coarse_reduce(&mut packed);
        for m in 0..n_modes {
            for m2 in 0..=m {
                let v = packed[m * (m + 1) / 2 + m2];
                if v != 0.0 {
                    push(m, m2, v);
                }
            }
        }
    } else {
        for &((m, m2), v) in lower {
            push(m, m2, v);
        }
    }
    coo.to_csr()
}
