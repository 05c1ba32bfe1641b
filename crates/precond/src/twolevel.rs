//! Two-level preconditioning: a per-subdomain coarse space composed with
//! the polynomial smoothers.
//!
//! One-level polynomial preconditioners act locally — information moves one
//! subdomain per application, so FGMRES iteration counts grow with the part
//! count `P`. The classical fix (Nicolaides coarse spaces; the FETI-DP and
//! GenEO families; the low-rank Schur corrections of Li & Saad,
//! arXiv:1505.04341) is a **coarse space**: a few vectors per part spanning
//! the near-null space of the operator, with a direct solve on the Galerkin
//! coarse operator `A_c = Zᵀ A Z` propagating global information every
//! application. This module provides:
//!
//! - [`CoarseSpec`] — which per-part modes to use: partition-of-unity
//!   constants ([`CoarseSpec::Const`]), rigid-body modes
//!   ([`CoarseSpec::Rbm`]), or eigenvalue-selected low-rank local modes
//!   ([`CoarseSpec::LowRank`]),
//! - [`build_coarse`] — the one deterministic construction of the coarse
//!   basis `Ẑ` (in post-scaling space) and the factored Galerkin operator,
//!   from plain per-part geometry slices (no mesh dependency), generic
//!   over the [`CoarseSetup`] hooks: a rank of a distributed solve builds
//!   its own share from its own rows and two exchange points, and the
//!   sequential [`build_coarse_basis`] is the same code over an assembled
//!   matrix whose hooks are no-ops,
//! - [`CoarseSolver`] — the runtime object on the build's [`ModeSet`]:
//!   restriction `y = Ẑᵀ v`, a cross-rank [`CoarseReduce::coarse_reduce`]
//!   sum, a redundant sparse-LDLᵀ solve, and prolongation `z += Ẑ y`,
//!   allocation-free after construction,
//! - [`TwoLevelPrecond`] — the composition `z = M_s v + Ẑ A_c⁻¹ Ẑᵀ v`
//!   (additive) or `z_c = Ẑ A_c⁻¹ Ẑᵀ v; z = z_c + M_s (v − A z_c)`
//!   (multiplicative) around any existing smoother,
//! - [`SpecPrecond`] — the registry's concrete built form covering both
//!   one-level and two-level specs.
//!
//! ## Scaled-space convention
//!
//! The solvers work on the norm-1 scaled operator `A = D K D` with
//! `D = diag(d)`. A geometric near-null vector `z` of `K` (e.g. a rigid
//! body mode) maps to `Ẑ = D⁻¹ z`, i.e. `Ẑ[g] = z[g] / d[g]`, and the
//! Galerkin operator `Ẑᵀ A Ẑ = zᵀ K z` is exactly the unscaled one — so
//! building in scaled space loses nothing.
//!
//! ## Construction: one kernel each, three holders
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

use crate::registry::BuiltPrecond;
use crate::{InterfaceConsistency, Preconditioner};
use parfem_sparse::dense::{dot, sym_eigen_jacobi};
use parfem_sparse::{CooMatrix, CsrMatrix, LinearOperator, SparseLdlt, SparseRows};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Which coarse space a two-level preconditioner uses, per part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoarseSpec {
    /// Partition-of-unity constants: one mode per displacement component
    /// per part (a scalar problem gets one, 2-D elasticity two).
    Const,
    /// Rigid-body modes: the translations of [`CoarseSpec::Const`] plus the
    /// part-centered rotations — the single in-plane rotation
    /// `(−(y − ȳ_p), x − x̄_p)` for 2-component problems, the three axis
    /// rotations for 3-component problems (`d(d+1)/2` modes per part in
    /// total). Falls back to [`CoarseSpec::Const`] on scalar (1-component)
    /// problems, where no rotation exists.
    Rbm,
    /// The `k` lowest eigenvectors of each part's principal submatrix of
    /// the scaled operator, partition-of-unity weighted — the
    /// eigenvalue-selected low-rank correction in the style of Li & Saad.
    LowRank(usize),
    /// A base coarse space whose modes get `k` damped-Jacobi smoothing
    /// passes `ẑ ← (I − ω D_A⁻¹ A) ẑ` before the Galerkin assembly — the
    /// smoothed-aggregation prolongator of Vaněk, Mandel & Brezina. The
    /// damping `ω = 4/(3 λ̂)` uses a deterministic power-iteration estimate
    /// `λ̂ ≈ λ_max(D_A⁻¹ A)`. Plain aggregation modes keep elasticity
    /// iteration counts growing slowly with the part count; smoothing the
    /// prolongator is what flattens them (token: `<base>.sK`, e.g.
    /// `rbm.s3`). The inner spec is never itself `Smoothed`.
    Smoothed(Box<CoarseSpec>, usize),
}

impl CoarseSpec {
    /// The CLI token: `const`, `rbm`, `lowrank-K`, each optionally
    /// suffixed `.sK` for `K` prolongator-smoothing passes.
    pub fn token(&self) -> String {
        match self {
            CoarseSpec::Const => "const".into(),
            CoarseSpec::Rbm => "rbm".into(),
            CoarseSpec::LowRank(k) => format!("lowrank-{k}"),
            CoarseSpec::Smoothed(base, k) => format!("{}.s{k}", base.token()),
        }
    }

    /// Parses a CLI token; `None` for anything outside the grammar
    /// (the registry wraps this in its typed error).
    pub fn parse(tok: &str) -> Option<CoarseSpec> {
        if let Some((base_tok, s)) = tok.split_once(".s") {
            let passes: usize = s.parse().ok()?;
            let base = CoarseSpec::parse(base_tok)?;
            return if passes == 0 || matches!(base, CoarseSpec::Smoothed(..)) {
                None
            } else {
                Some(CoarseSpec::Smoothed(Box::new(base), passes))
            };
        }
        match tok {
            "const" => Some(CoarseSpec::Const),
            "rbm" => Some(CoarseSpec::Rbm),
            _ => {
                let k: usize = tok.strip_prefix("lowrank-")?.parse().ok()?;
                if k == 0 {
                    None
                } else {
                    Some(CoarseSpec::LowRank(k))
                }
            }
        }
    }

    /// Modes per part for a problem with `n_comp` displacement components.
    pub fn modes_per_part(&self, n_comp: usize) -> usize {
        match self {
            CoarseSpec::Const => n_comp,
            // Translations plus rotations: d(d+1)/2 rigid modes in d
            // dimensions (1 scalar, 3 in 2-D, 6 in 3-D).
            CoarseSpec::Rbm => n_comp * (n_comp + 1) / 2,
            CoarseSpec::LowRank(k) => *k,
            CoarseSpec::Smoothed(base, _) => base.modes_per_part(n_comp),
        }
    }

    /// The underlying mode family, with any smoothing wrapper stripped.
    pub fn base(&self) -> &CoarseSpec {
        match self {
            CoarseSpec::Smoothed(base, _) => base,
            other => other,
        }
    }

    /// Number of prolongator-smoothing passes (0 for unsmoothed specs).
    pub fn smoothing_passes(&self) -> usize {
        match self {
            CoarseSpec::Smoothed(_, k) => *k,
            _ => 0,
        }
    }
}

impl fmt::Display for CoarseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.token())
    }
}

/// How the coarse correction composes with the smoother.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// `z = z_c + M_s (v − A z_c)`: coarse first, smoother on the coarse
    /// residual. One extra operator application per preconditioner apply;
    /// the default, and the stronger composition.
    Multiplicative,
    /// `z = M_s v + Ẑ A_c⁻¹ Ẑᵀ v`: both corrections from the same input.
    /// No extra operator application.
    Additive,
}

/// The cross-rank hook the coarse solve needs from an operator: summing the
/// per-rank partial restriction into the (replicated) global coarse
/// right-hand side.
///
/// Sequential operators are already coherent — [`CsrMatrix`]'s impl is a
/// no-op. Distributed operators implement this with the same deterministic
/// tree `allreduce` their dot products use, so the reduced vector is
/// bit-identical on every rank and the redundant coarse solves stay in
/// lock step.
pub trait CoarseReduce {
    /// Sums `buf` element-wise across all ranks, leaving the identical
    /// total on every rank. No-op for sequential operators.
    fn coarse_reduce(&self, buf: &mut [f64]);

    /// Accounts `flops` of purely local coarse-solve work to the
    /// operator's virtual-time model. No-op by default.
    fn coarse_work(&self, flops: u64) {
        let _ = flops;
    }
}

impl CoarseReduce for CsrMatrix {
    fn coarse_reduce(&self, _buf: &mut [f64]) {}
}

/// Geometry of one part, in plain slices so any consumer (mesh pipeline,
/// raw-systems pipeline, test fixture) can describe its partition without
/// this crate depending on the mesh layer. All four vectors run over the
/// same entries: the part's dofs.
#[derive(Debug, Clone, Default)]
pub struct CoarsePartGeometry {
    /// Row index of each dof in the operator the coarse space is built on:
    /// global dof ids for the sequential builder, the rank's own local row
    /// numbers on the distributed path. Ascending.
    pub dofs: Vec<usize>,
    /// Node position of each dof (`z = 0` for 2-D problems).
    pub pos: Vec<[f64; 3]>,
    /// Displacement component of each dof (`0` = x, `1` = y, `2` = z; all
    /// `0` for scalar problems).
    pub comp: Vec<usize>,
    /// Whether each dof carries a Dirichlet constraint (coarse modes are
    /// zeroed there so corrections never perturb constrained values).
    pub constrained: Vec<bool>,
}

/// One coarse mode as its holder sees it: the sparse column `ẑ_m`
/// restricted to the holder's index space (the whole problem sequentially;
/// a rank's rows plus ghost columns on the distributed path).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveMode {
    /// Global mode number `part · modes_per_part + k`.
    pub id: usize,
    /// Current entries `(index, ẑ_m[index])`, each index at most once
    /// (empty while the mode is a panel column).
    pub z: Vec<(usize, f64)>,
    /// Staging for values awaiting [`CoarseSetup::complete_products`]: the
    /// partial product `A_loc ẑ_m` during a smoothing pass, or a freshly
    /// built mode waiting to be published to the ranks sharing its dofs
    /// (empty while the mode is a panel column).
    pub y: Vec<(usize, f64)>,
    /// The column of the holder's [`ModePanel`] holding `ẑ_m` and its staged
    /// product in place of `z` and `y`; `None` for a mode kept as lists.
    pub column: Option<usize>,
}

/// The dense-support modes of a distributed holder as the columns of one
/// row-major panel: `ẑ` over the index space (ghost rows included) and the
/// staged products over the rows. A column is the dense form of the lists
/// a [`LiveMode`] would hold — zero where the list has no entry — and an
/// exchange reads and writes it in their place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModePanel {
    width: usize,
    /// Entry `(g, c)` of `ẑ` at `g·width + c`.
    z: Vec<f64>,
    /// Entry `(r, c)` of the staged products at `r·width + c`.
    y: Vec<f64>,
}

impl ModePanel {
    /// A panel of `width` columns over the rows of `z`, its `ẑ` values row
    /// by row, with no staged products.
    pub fn from_rows(width: usize, z: Vec<f64>) -> Self {
        ModePanel {
            width,
            z,
            y: Vec::new(),
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Entry `g` of column `c`'s `ẑ`.
    pub fn z(&self, g: usize, c: usize) -> f64 {
        self.z[g * self.width + c]
    }

    /// Entry `g` of column `c`'s `ẑ`, for update.
    pub fn z_mut(&mut self, g: usize, c: usize) -> &mut f64 {
        &mut self.z[g * self.width + c]
    }

    /// Row `r` of column `c`'s staged product.
    pub fn y(&self, r: usize, c: usize) -> f64 {
        self.y[r * self.width + c]
    }

    /// Row `r` of column `c`'s staged product, for update.
    pub fn y_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.y[r * self.width + c]
    }

    /// The rows of `ẑ`, one slice of `width` values each (none when empty).
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.z.chunks_exact(self.width.max(1))
    }

    /// Zeroes every column's ghost entries, the indices from `n_rows` on.
    pub fn clear_ghosts(&mut self, n_rows: usize) {
        self.z[n_rows * self.width..].fill(0.0);
    }

    /// The `(index, column)` of every non-zero `ẑ` entry below index `end`,
    /// index by index.
    fn for_each_nonzero(&self, end: usize, mut f: impl FnMut(usize, usize, f64)) {
        for (g, zr) in self.rows().take(end).enumerate() {
            for (c, &v) in zr.iter().enumerate().filter(|&(_, &v)| v != 0.0) {
                f(g, c, v);
            }
        }
    }

    /// Non-zero `ẑ` entries of every column below index `end`: the lengths
    /// of the lists the columns stand for once exact zeros are dropped.
    fn nonzeros(&self, end: usize) -> Vec<usize> {
        let mut count = vec![0; self.width];
        self.for_each_nonzero(end, |_, c, _| count[c] += 1);
        count
    }

    /// The damped-Jacobi update `ẑ ← ẑ − ω D_A⁻¹ y` of every column over the
    /// rows: the expression of [`smoothing_update`], so a row outside a
    /// column's support (`ẑ = 0`) gets the `−step` the list would append.
    fn update(&mut self, omega: f64, inv_diag: &[f64]) {
        if self.width == 0 {
            return;
        }
        let rows = self
            .z
            .chunks_exact_mut(self.width)
            .zip(self.y.chunks_exact(self.width));
        for ((zr, yr), &q) in rows.zip(inv_diag) {
            for (z, &y) in zr.iter_mut().zip(yr) {
                *z -= omega * y * q;
            }
        }
    }

    /// `G[c, c'] = Σ_r ẑ_c'[r] · y_c[r]` over the rows, ascending: the pair
    /// dots of the Galerkin product in one sweep. A zero `ẑ` entry adds a
    /// signed zero, which leaves every partial sum as it was, so each entry
    /// has the bits of the dot over `ẑ_c'`'s non-zero entries.
    fn gram(&self) -> Vec<f64> {
        let w = self.width;
        let mut g = vec![0.0; w * w];
        if w == 0 {
            return g;
        }
        for (zr, yr) in self.z.chunks_exact(w).zip(self.y.chunks_exact(w)) {
            for (gc, &y) in g.chunks_exact_mut(w).zip(yr) {
                for (gcc, &z) in gc.iter_mut().zip(zr) {
                    *gcc += z * y;
                }
            }
        }
        g
    }
}

/// A holder's live modes, ascending by id, and the panel holding the values
/// of those that are its columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModeSet {
    /// The modes, ascending by id.
    pub modes: Vec<LiveMode>,
    /// The values of the modes with a [`LiveMode::column`].
    pub panel: ModePanel,
}

impl ModeSet {
    /// Every mode's id and its entries `(index, ẑ)`, in id order: its list,
    /// or its panel column's non-zero ones.
    pub fn entries_by_mode(&self) -> impl Iterator<Item = (usize, Vec<(usize, f64)>)> + '_ {
        (self.modes.iter().enumerate()).map(|(i, m)| (m.id, self.entries(i, usize::MAX).collect()))
    }

    /// Mode `i`'s entries `(index, ẑ)` below `end`, ascending when its list
    /// is sorted: the list's, or its panel column's non-zero ones.
    fn entries(&self, i: usize, end: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let mode = &self.modes[i];
        let column = (mode.column.into_iter())
            .flat_map(move |c| self.panel.rows().take(end).map(move |zr| zr[c]).enumerate())
            .filter(|&(_, v)| v != 0.0);
        (mode.z.iter().copied())
            .filter(move |&(g, _)| g < end)
            .chain(column)
    }

    /// Re-lays the panel out when its membership changes: every list mode
    /// with a dense support ([`dense_support`]) joins as a column, and every
    /// column `leave` names goes back to a list of its non-zero entries.
    /// Columns keep ascending id order.
    fn regather(&mut self, n_rows: usize, n_index: usize, leave: impl Fn(usize) -> bool) {
        let joins = |m: &LiveMode| m.column.is_none() && dense_support(m.z.len(), n_rows);
        let stays = |m: &LiveMode| m.column.is_some_and(|c| !leave(c));
        let width = self.modes.iter().filter(|m| joins(m) || stays(m)).count();
        let moved = self.modes.iter().filter(|m| joins(m)).count();
        if moved == 0 && width == self.panel.width {
            return;
        }
        let old = std::mem::take(&mut self.panel);
        let mut z = vec![0.0; n_index * width];
        let mut next = 0;
        for mode in &mut self.modes {
            let joining = joins(mode);
            match mode.column {
                Some(c) if leave(c) => {
                    mode.z = (0..n_index)
                        .map(|g| (g, old.z(g, c)))
                        .filter(|&(_, v)| v != 0.0)
                        .collect();
                    mode.column = None;
                    continue;
                }
                Some(c) => (0..n_index).for_each(|g| z[g * width + next] = old.z(g, c)),
                None if joining => {
                    for (g, v) in std::mem::take(&mut mode.z) {
                        z[g * width + next] = v;
                    }
                    mode.y = Vec::new();
                }
                None => continue,
            }
            mode.column = Some(next);
            next += 1;
        }
        self.panel = ModePanel {
            width,
            z,
            y: vec![0.0; n_rows * width],
        };
    }
}

/// Finds mode `id` in an id-sorted mode list, inserting an empty mode at
/// its sorted position when it is not live yet.
pub fn mode_slot(modes: &mut Vec<LiveMode>, id: usize) -> &mut LiveMode {
    let i = match modes.binary_search_by_key(&id, |m| m.id) {
        Ok(i) => i,
        Err(i) => {
            modes.insert(
                i,
                LiveMode {
                    id,
                    ..LiveMode::default()
                },
            );
            i
        }
    };
    &mut modes[i]
}

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
    let mpp = spec.modes_per_part(n_comp);
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
        let columns = match spec.base() {
            CoarseSpec::Const | CoarseSpec::Rbm => {
                geometric_modes(spec.base(), geo, mult, d, mpp, n_comp)
            }
            CoarseSpec::LowRank(k) => lowrank_modes(geo, mult, rows.a, *k),
            CoarseSpec::Smoothed(..) => unreachable!("base() strips smoothing"),
        };
        for (k, y) in columns.into_iter().enumerate() {
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
    let passes = spec.smoothing_passes();
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

/// Partition-of-unity translations (and, for [`CoarseSpec::Rbm`], the
/// centered rotations) of one part, transformed to scaled space:
/// `Ẑ[g] = geom(g) / (mult[g] · d[g])`. One column per mode of the part.
fn geometric_modes(
    spec: &CoarseSpec,
    geo: &CoarsePartGeometry,
    mult: &[f64],
    d: &[f64],
    mpp: usize,
    n_comp: usize,
) -> Vec<Vec<(usize, f64)>> {
    let mut modes = vec![Vec::new(); mpp];
    let n = geo.dofs.len();
    // Per-part centroid over all entries (constrained included — fixed,
    // purely geometric, deterministic).
    let (mut cx, mut cy, mut cz) = (0.0, 0.0, 0.0);
    for q in &geo.pos {
        cx += q[0];
        cy += q[1];
        cz += q[2];
    }
    if n > 0 {
        cx /= n as f64;
        cy /= n as f64;
        cz /= n as f64;
    }
    for e in 0..n {
        if geo.constrained[e] {
            continue;
        }
        let g = geo.dofs[e];
        let w = 1.0 / (mult[g] * d[g]);
        let c = geo.comp[e];
        // Translation mode of this dof's component.
        modes[c].push((g, w));
        if matches!(spec, CoarseSpec::Rbm) && n_comp >= 2 {
            // Rotation about e_z: (−(y − ȳ), x − x̄, 0) — the single 2-D
            // rotation, kept in the historical mode slot.
            let rot_z = match c {
                0 => -(geo.pos[e][1] - cy),
                1 => geo.pos[e][0] - cx,
                _ => 0.0,
            };
            if rot_z != 0.0 {
                modes[n_comp].push((g, rot_z * w));
            }
            if n_comp >= 3 {
                // Rotations about e_x: (0, −(z − z̄), y − ȳ) and
                // e_y: (z − z̄, 0, −(x − x̄)).
                let rot_x = match c {
                    1 => -(geo.pos[e][2] - cz),
                    2 => geo.pos[e][1] - cy,
                    _ => 0.0,
                };
                let rot_y = match c {
                    0 => geo.pos[e][2] - cz,
                    2 => -(geo.pos[e][0] - cx),
                    _ => 0.0,
                };
                if rot_x != 0.0 {
                    modes[n_comp + 1].push((g, rot_x * w));
                }
                if rot_y != 0.0 {
                    modes[n_comp + 2].push((g, rot_y * w));
                }
            }
        }
    }
    modes
}

/// The `k` lowest eigenvectors of the part's unconstrained principal block
/// of the holder's own rows `a`, partition-of-unity weighted (`Ẑ[g] = v[g] /
/// mult[g]`; no `d` division — the eigenproblem already lives in scaled
/// space). Parts smaller than `k` keep empty trailing modes, pivoted out
/// by the coarse factorization.
///
/// "The holder's own rows" is the assembled principal block sequentially
/// and under RDD (`a_loc` is exactly that block), and the subdomain's
/// **unassembled** matrix under EDD: the interface–interface entries are
/// not completed from the neighbours, so on a floating subdomain the lowest
/// eigenvectors are its scaled rigid-body modes themselves.
fn lowrank_modes<A: SparseRows + ?Sized>(
    geo: &CoarsePartGeometry,
    mult: &[f64],
    a: &A,
    k: usize,
) -> Vec<Vec<(usize, f64)>> {
    let mut modes = vec![Vec::new(); k];
    let free: Vec<usize> = (0..geo.dofs.len())
        .filter(|&e| !geo.constrained[e])
        .collect();
    let n = free.len();
    if n == 0 {
        return modes;
    }
    // Position of each of the holder's rows in the principal block.
    let mut at = vec![usize::MAX; a.n_rows()];
    for (i, &e) in free.iter().enumerate() {
        at[geo.dofs[e]] = i;
    }
    let mut block = vec![0.0; n * n];
    for (i, &ei) in free.iter().enumerate() {
        for (c, v) in a.row_entries(geo.dofs[ei]) {
            if at[c] != usize::MAX {
                block[i * n + at[c]] = v;
            }
        }
    }
    let (_vals, vecs) = sym_eigen_jacobi(n, &block);
    for (m, col) in modes.iter_mut().enumerate().take(n) {
        for (i, &ei) in free.iter().enumerate() {
            let g = geo.dofs[ei];
            let v = vecs[m * n + i] / mult[g];
            if v != 0.0 {
                col.push((g, v));
            }
        }
    }
    modes
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

/// A mode with at least `1 / DENSE_SUPPORT_SHARE` of the holder's rows in
/// its support is multiplied over all rows instead of its walked reach.
const DENSE_SUPPORT_SHARE: usize = 4;

/// Whether a mode with `len` entries is multiplied over all `n_rows` rows:
/// walking its rows would cost as much as the product itself and reach
/// nearly every row anyway (a part's own modes after the first pass). Rows
/// outside the true reach come out exactly zero and are dropped by the
/// update, so the result is the same. On a distributed holder such a mode
/// is a [`ModePanel`] column.
fn dense_support(len: usize, n_rows: usize) -> bool {
    DENSE_SUPPORT_SHARE * len >= n_rows
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

/// The runtime coarse correction `z (+)= Ẑ A_c⁻¹ Ẑᵀ v` of one rank (or of
/// the whole problem, sequentially).
///
/// Restriction and prolongation sweep the holder's [`ModeSet`] as built; the
/// shared (`Arc`) factored coarse operator is solved redundantly on every
/// rank after the deterministic [`CoarseReduce::coarse_reduce`], so interface
/// values agree bit for bit without a second communication round. Buffers
/// are preallocated (behind an uncontended `Mutex`: application takes `&self`).
#[derive(Debug)]
pub struct CoarseSolver {
    modes: ModeSet,
    /// Restriction weight per row (the consumer's partition of unity, e.g.
    /// `1/mult` on element partitions): `y[m] += fl(ẑ_m[r] · w[r]) · v[r]`.
    weights: Option<Vec<f64>>,
    /// Stored entries: the lists' and the panel's non-zero ones.
    nnz: usize,
    factor: Arc<SparseLdlt>,
    /// The coarse vector `y` and the solve scratch, `n_modes` each, then a
    /// slot per panel column.
    y: Mutex<Vec<f64>>,
}

impl CoarseSolver {
    /// Builds a solver from a holder's modes (ascending by id, the panel
    /// over its rows), restriction weights and the shared factorization.
    pub fn new(
        n_modes: usize,
        modes: ModeSet,
        weights: Option<Vec<f64>>,
        factor: Arc<SparseLdlt>,
    ) -> Self {
        assert_eq!(factor.dim(), n_modes, "coarse factor dimension");
        let nnz = (modes.panel.z.iter().filter(|&&v| v != 0.0).count())
            + modes.modes.iter().map(|m| m.z.len()).sum::<usize>();
        CoarseSolver {
            y: Mutex::new(vec![0.0; 2 * n_modes + modes.panel.width]),
            modes,
            weights,
            nnz,
            factor,
        }
    }

    /// Modes the coarse factorization pivoted out (rank-deficient blocks).
    pub fn skipped_modes(&self) -> &[usize] {
        self.factor.skipped_modes()
    }

    /// The modes restriction and prolongation both read.
    pub fn modes(&self) -> &ModeSet {
        &self.modes
    }

    /// Local flops of one application, for the virtual-time model: a
    /// multiply and an add per stored entry each way, and the solve.
    pub fn flops(&self) -> u64 {
        4 * self.nnz as u64 + self.factor.solve_flops()
    }

    /// `z = Ẑ A_c⁻¹ Ẑᵀ v` (overwriting `z`).
    pub fn apply_overwrite<Op: CoarseReduce + ?Sized>(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        self.apply_impl(op, v, z, false)
    }

    /// `z += Ẑ A_c⁻¹ Ẑᵀ v`.
    pub fn apply_add<Op: CoarseReduce + ?Sized>(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        self.apply_impl(op, v, z, true)
    }

    /// Restriction: one row-major pass over the panel into `columns`, one
    /// pass per list mode, each `y[m]` summed in ascending row. Prolongation:
    /// each row's terms in ascending mode id, a pass per list mode or run of
    /// id-consecutive columns. A panel zero adds a signed zero, which moves
    /// no sum that is not `−0` (none started at `+0` is), so only a row of
    /// `z` that is `−0.0` when a run reaches it skips its panel zeros.
    fn apply_impl<Op: CoarseReduce + ?Sized>(&self, op: &Op, v: &[f64], z: &mut [f64], add: bool) {
        let (modes, panel) = (&self.modes.modes, &self.modes.panel);
        let weight = |r: usize| self.weights.as_ref().map_or(1.0, |w| w[r]);
        let mut buffers = self.y.lock().expect("coarse scratch lock");
        let (y, rest) = buffers.split_at_mut(self.factor.dim());
        let (scratch, columns) = rest.split_at_mut(y.len());
        columns.fill(0.0);
        for (r, (zr, &vr)) in panel.rows().zip(v).enumerate() {
            let wr = weight(r);
            for (sum, &zc) in columns.iter_mut().zip(zr) {
                *sum += zc * wr * vr;
            }
        }
        y.fill(0.0);
        for mode in modes {
            y[mode.id] = match mode.column {
                Some(c) => columns[c],
                None => (mode.z.iter()).fold(0.0, |acc, &(r, zr)| acc + zr * weight(r) * v[r]),
            };
        }
        op.coarse_reduce(y);
        self.factor.solve_in_place_with(y, scratch);
        if !add {
            z.fill(0.0);
        }
        for run in modes.chunk_by(|a, b| a.column.is_some_and(|c| b.column == Some(c + 1))) {
            let Some(first) = run[0].column else {
                (run[0].z.iter()).for_each(|&(r, zr)| z[r] += zr * y[run[0].id]);
                continue;
            };
            let ys = &mut columns[first..first + run.len()];
            ys.iter_mut().zip(run).for_each(|(yc, m)| *yc = y[m.id]);
            for (zr, zi) in panel.rows().zip(z.iter_mut()) {
                let all = zi.to_bits() != (-0.0f64).to_bits();
                for (&zc, &yc) in zr[first..].iter().zip(&*ys) {
                    if all || zc != 0.0 {
                        *zi += zc * yc;
                    }
                }
            }
        }
        op.coarse_work(self.flops());
    }
}

/// A two-level preconditioner: a [`CoarseSolver`] composed with a smoother
/// `S` (any existing [`Preconditioner`]).
///
/// Works over any operator that is both a [`LinearOperator`] (the
/// multiplicative residual needs `A z_c`) and [`CoarseReduce`] (the coarse
/// right-hand side needs the cross-rank sum) — which covers the sequential
/// CSR operator and both distributed operators.
pub struct TwoLevelPrecond<S> {
    smoother: S,
    coarse: CoarseSolver,
    composition: Composition,
    label: String,
}

impl<S> TwoLevelPrecond<S> {
    /// Composes `smoother` with `coarse`. `label` becomes the
    /// [`Preconditioner::name`], conventionally the registry spec string.
    pub fn new(smoother: S, coarse: CoarseSolver, composition: Composition, label: String) -> Self {
        TwoLevelPrecond {
            smoother,
            coarse,
            composition,
            label,
        }
    }
}

impl<Op, S> Preconditioner<Op> for TwoLevelPrecond<S>
where
    Op: LinearOperator + CoarseReduce + ?Sized,
    S: Preconditioner<Op>,
{
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        // Route through the scratch path with freshly allocated scratch so
        // the two entry points are bit-identical by construction.
        let mut scratch = vec![vec![0.0; v.len()]; Preconditioner::<Op>::scratch_vectors(self)];
        self.apply_scratch(op, v, z, &mut scratch);
    }

    fn scratch_vectors(&self) -> usize {
        self.smoother.scratch_vectors()
            + match self.composition {
                Composition::Multiplicative => 2,
                Composition::Additive => 0,
            }
    }

    fn apply_scratch(&self, op: &Op, v: &[f64], z: &mut [f64], scratch: &mut [Vec<f64>]) {
        match self.composition {
            Composition::Additive => {
                self.smoother.apply_scratch(op, v, z, scratch);
                self.coarse.apply_add(op, v, z);
            }
            Composition::Multiplicative => {
                let (ours, sm_scratch) = scratch.split_at_mut(2);
                let (r_slot, s_slot) = ours.split_at_mut(1);
                let r = &mut r_slot[0];
                let s = &mut s_slot[0];
                // z_c = coarse(v); r = v − A z_c; z = z_c + M_s r.
                self.coarse.apply_overwrite(op, v, z);
                op.apply_into(z, r);
                for i in 0..r.len() {
                    r[i] = v[i] - r[i];
                }
                self.smoother.apply_scratch(op, r, s, sm_scratch);
                for i in 0..z.len() {
                    z[i] += s[i];
                }
            }
        }
    }

    fn operator_applications(&self) -> usize {
        self.smoother.operator_applications()
            + match self.composition {
                Composition::Multiplicative => 1,
                Composition::Additive => 0,
            }
    }

    fn current_operator_applications(&self) -> usize {
        self.smoother.current_operator_applications()
            + match self.composition {
                Composition::Multiplicative => 1,
                Composition::Additive => 0,
            }
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// A registry-built preconditioner covering both one-level and two-level
/// specs, as one concrete value.
///
/// Like [`BuiltPrecond`] it names no operator type, so one instance serves
/// a loop of solves whose operator borrows differ per iteration; unlike
/// [`BuiltPrecond`] its [`Preconditioner`] impl requires
/// [`CoarseReduce`] of the operator (trivially satisfied sequentially,
/// implemented by both distributed operators).
pub enum SpecPrecond {
    /// A one-level spec — delegates method-for-method to [`BuiltPrecond`],
    /// so results are bit-identical to the historical path.
    Plain(BuiltPrecond),
    /// A two-level spec with its coarse solver attached.
    TwoLevel(TwoLevelPrecond<BuiltPrecond>),
}

impl SpecPrecond {
    /// The subdomain factorization a `direct` spec holds, standalone or as
    /// the smoother of a two-level spec.
    pub fn subdomain_factor(&self) -> Option<&SparseLdlt> {
        match self {
            SpecPrecond::Plain(p) => p.subdomain_factor(),
            SpecPrecond::TwoLevel(p) => p.smoother.subdomain_factor(),
        }
    }
}

impl<Op: LinearOperator + CoarseReduce + InterfaceConsistency + ?Sized> Preconditioner<Op>
    for SpecPrecond
{
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        match self {
            SpecPrecond::Plain(p) => p.apply_into(op, v, z),
            SpecPrecond::TwoLevel(p) => p.apply_into(op, v, z),
        }
    }

    fn scratch_vectors(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::scratch_vectors(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::scratch_vectors(p),
        }
    }

    fn apply_scratch(&self, op: &Op, v: &[f64], z: &mut [f64], scratch: &mut [Vec<f64>]) {
        match self {
            SpecPrecond::Plain(p) => p.apply_scratch(op, v, z, scratch),
            SpecPrecond::TwoLevel(p) => p.apply_scratch(op, v, z, scratch),
        }
    }

    fn operator_applications(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::operator_applications(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::operator_applications(p),
        }
    }

    fn current_operator_applications(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::current_operator_applications(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::current_operator_applications(p),
        }
    }

    fn name(&self) -> String {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::name(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::name(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JacobiPrecond;

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
        let basis = build_coarse_basis(&CoarseSpec::Const, &parts, &mult, &d, &a, 1e-12);
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
        let basis = build_coarse_basis(&CoarseSpec::Const, &parts, &mult, &d, &a, 1e-12);
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
        solver.apply_overwrite(&a, &v, &mut z);
        for (got, want) in z.iter().zip(&zy) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn additive_and_multiplicative_both_apply_and_differ() {
        let (a, parts, mult) = chain_fixture(24, 4);
        let d = vec![1.0; 24];
        let basis = build_coarse_basis(&CoarseSpec::Const, &parts, &mult, &d, &a, 1e-12);
        let v: Vec<f64> = (0..24).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mk = |comp| {
            TwoLevelPrecond::new(
                JacobiPrecond::from_diagonal(&a.diagonal()),
                basis.clone().solver(None),
                comp,
                "t".into(),
            )
        };
        let add = mk(Composition::Additive).apply(&a, &v);
        let mult_z = mk(Composition::Multiplicative).apply(&a, &v);
        assert!(add.iter().all(|x| x.is_finite()));
        assert!(mult_z.iter().all(|x| x.is_finite()));
        assert!(add.iter().zip(&mult_z).any(|(x, y)| x != y));
    }

    #[test]
    fn scratch_and_allocating_paths_are_bit_identical() {
        let (a, parts, mult) = chain_fixture(24, 4);
        let d = vec![1.0; 24];
        let basis = build_coarse_basis(&CoarseSpec::Rbm, &parts, &mult, &d, &a, 1e-12);
        for comp in [Composition::Additive, Composition::Multiplicative] {
            let pc = TwoLevelPrecond::new(
                JacobiPrecond::from_diagonal(&a.diagonal()),
                basis.clone().solver(None),
                comp,
                "t".into(),
            );
            let v: Vec<f64> = (0..24).map(|i| (i as f64).sin()).collect();
            let mut z1 = vec![0.0; 24];
            pc.apply_into(&a, &v, &mut z1);
            let mut z2 = vec![0.0; 24];
            let mut scratch =
                vec![vec![0.0; 24]; Preconditioner::<CsrMatrix>::scratch_vectors(&pc)];
            pc.apply_scratch(&a, &v, &mut z2, &mut scratch);
            assert_eq!(z1, z2);
        }
    }

    #[test]
    fn rbm_mode_counts_follow_the_physics() {
        // d(d+1)/2 rigid modes: 1 scalar, 3 in 2-D, 6 in 3-D.
        assert_eq!(CoarseSpec::Rbm.modes_per_part(1), 1);
        assert_eq!(CoarseSpec::Rbm.modes_per_part(2), 3);
        assert_eq!(CoarseSpec::Rbm.modes_per_part(3), 6);
        assert_eq!(CoarseSpec::Const.modes_per_part(3), 3);
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
        let modes = geometric_modes(&CoarseSpec::Rbm, &geo, &mult, &d, 6, 3);
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
        for spec in [CoarseSpec::Const, CoarseSpec::Rbm, CoarseSpec::LowRank(8)] {
            assert_eq!(CoarseSpec::parse(&spec.token()), Some(spec));
        }
        assert_eq!(CoarseSpec::parse("lowrank-0"), None);
        assert_eq!(CoarseSpec::parse("lowrank-x"), None);
        assert_eq!(CoarseSpec::parse("fine"), None);
    }
}
