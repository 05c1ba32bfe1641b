//! The coarse modes: the spec, each part's rigid-body modes, and the
//! holder's mode set of sparse lists and dense panel columns.

use std::fmt;

/// The one coarse space of a two-level preconditioner: each part's
/// partition-of-unity rigid-body modes, optionally smoothed.
///
/// The modes of a part are its translations plus the part-centered
/// rotations — the single in-plane rotation `(−(y − ȳ_p), x − x̄_p)` for
/// 2-component problems, the three axis rotations for 3-component problems
/// (`d(d+1)/2` modes per part in total); a scalar (1-component) problem has
/// no rotation and gets its one partition-of-unity constant.
///
/// With `passes = K > 0` every mode gets `K` damped-Jacobi smoothing passes
/// `ẑ ← (I − ω D_A⁻¹ A) ẑ` before the Galerkin assembly — the
/// smoothed-aggregation prolongator of Vaněk, Mandel & Brezina. The damping
/// `ω = 4/(3 λ̂)` uses a deterministic power-iteration estimate
/// `λ̂ ≈ λ_max(D_A⁻¹ A)`. Plain aggregation modes keep elasticity iteration
/// counts growing slowly with the part count; smoothing the prolongator is
/// what flattens them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoarseSpec {
    /// Prolongator-smoothing passes (`0`: the plain modes).
    pub passes: usize,
}

impl CoarseSpec {
    /// Parses a CLI token; `None` for anything outside the grammar
    /// (the registry wraps this in its typed error).
    pub fn parse(tok: &str) -> Option<CoarseSpec> {
        let passes = match tok.strip_prefix("rbm")? {
            "" => 0,
            s => s.strip_prefix(".s")?.parse().ok().filter(|&k| k > 0)?,
        };
        Some(CoarseSpec { passes })
    }

    /// Modes per part for a problem with `n_comp` displacement components:
    /// `d(d+1)/2` rigid modes in `d` dimensions (1 scalar, 3 in 2-D, 6 in
    /// 3-D).
    pub fn modes_per_part(n_comp: usize) -> usize {
        n_comp * (n_comp + 1) / 2
    }
}

/// The CLI token: `rbm`, or `rbm.sK` for `K` smoothing passes.
impl fmt::Display for CoarseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.passes {
            0 => write!(f, "rbm"),
            k => write!(f, "rbm.s{k}"),
        }
    }
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
    /// Staging for values awaiting
    /// [`CoarseSetup::complete_products`](super::CoarseSetup::complete_products):
    /// the partial product `A_loc ẑ_m` during a smoothing pass, or a freshly
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
    pub(super) width: usize,
    /// Entry `(g, c)` of `ẑ` at `g·width + c`.
    pub(super) z: Vec<f64>,
    /// Entry `(r, c)` of the staged products at `r·width + c`.
    pub(super) y: Vec<f64>,
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
    pub(super) fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.z.chunks_exact(self.width.max(1))
    }

    /// Zeroes every column's ghost entries, the indices from `n_rows` on.
    pub fn clear_ghosts(&mut self, n_rows: usize) {
        self.z[n_rows * self.width..].fill(0.0);
    }

    /// The `(index, column)` of every non-zero `ẑ` entry below index `end`,
    /// index by index.
    pub(super) fn for_each_nonzero(&self, end: usize, mut f: impl FnMut(usize, usize, f64)) {
        for (g, zr) in self.rows().take(end).enumerate() {
            for (c, &v) in zr.iter().enumerate().filter(|&(_, &v)| v != 0.0) {
                f(g, c, v);
            }
        }
    }

    /// Non-zero `ẑ` entries of every column below index `end`: the lengths
    /// of the lists the columns stand for once exact zeros are dropped.
    pub(super) fn nonzeros(&self, end: usize) -> Vec<usize> {
        let mut count = vec![0; self.width];
        self.for_each_nonzero(end, |_, c, _| count[c] += 1);
        count
    }

    /// The damped-Jacobi update `ẑ ← ẑ − ω D_A⁻¹ y` of every column over the
    /// rows: the expression of [`smoothing_update`], so a row outside a
    /// column's support (`ẑ = 0`) gets the `−step` the list would append.
    pub(super) fn update(&mut self, omega: f64, inv_diag: &[f64]) {
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
    pub(super) fn gram(&self) -> Vec<f64> {
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
    pub(super) fn entries(&self, i: usize, end: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
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
    pub(super) fn regather(
        &mut self,
        n_rows: usize,
        n_index: usize,
        leave: impl Fn(usize) -> bool,
    ) {
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

/// Partition-of-unity rigid-body modes of one part — the translations and,
/// for 2- and 3-component problems, the centered rotations — transformed to
/// scaled space: `Ẑ[g] = geom(g) / (mult[g] · d[g])`. One column per mode of
/// the part.
pub(super) fn geometric_modes(
    geo: &CoarsePartGeometry,
    mult: &[f64],
    d: &[f64],
    n_comp: usize,
) -> Vec<Vec<(usize, f64)>> {
    let mut modes = vec![Vec::new(); CoarseSpec::modes_per_part(n_comp)];
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
        if n_comp >= 2 {
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

/// A mode with at least `1 / DENSE_SUPPORT_SHARE` of the holder's rows in
/// its support is multiplied over all rows instead of its walked reach.
const DENSE_SUPPORT_SHARE: usize = 4;

/// Whether a mode with `len` entries is multiplied over all `n_rows` rows:
/// walking its rows would cost as much as the product itself and reach
/// nearly every row anyway (a part's own modes after the first pass). Rows
/// outside the true reach come out exactly zero and are dropped by the
/// update, so the result is the same. On a distributed holder such a mode
/// is a [`ModePanel`] column.
pub(super) fn dense_support(len: usize, n_rows: usize) -> bool {
    DENSE_SUPPORT_SHARE * len >= n_rows
}
