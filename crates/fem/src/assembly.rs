//! Global finite-element assembly and Dirichlet boundary conditions.
//!
//! Constrained DOFs keep their global numbers: the constrained equation is
//! replaced by the identity row `u_i = ū_i` and the coupling entries are
//! moved to the right-hand side. No renumbering ever happens — the property
//! the element-based decomposition exploits (paper claim ii).
//!
//! Every assembled matrix of the crate — the global [`assemble_stiffness`]
//! and [`assemble_mass`], the per-subdomain systems of [`crate::subdomain`]
//! and one rank's block rows ([`assemble_owned`]) — reads its elements from
//! one [`Discretization`] and is built by one pattern-first core, `assemble`: it never holds triplets, and
//! it sums duplicate contributions in ascending element order. Global
//! matrices are CSR; a subdomain's stiffness, and the owned-column block of
//! a rank's rows, scatter straight into `B × B` node blocks when their nodes
//! carry 2 or 3 dofs.

use crate::discretization::{Discretization, Mass};
use crate::material::Material;
use parfem_mesh::{DofMap, Edge, Face, HexMesh, QuadMesh};
use parfem_sparse::dense::zeros;
use parfem_sparse::{BcsrMatrix, CsrMatrix, NodeMatrix, SparseRows};
use std::ops::Range;

/// A fully assembled, boundary-condition-applied static system `K u = f`.
#[derive(Debug, Clone)]
pub struct StaticSystem {
    /// The stiffness matrix with identity rows at constrained DOFs.
    pub stiffness: CsrMatrix,
    /// The right-hand side, constraint contributions included.
    pub rhs: Vec<f64>,
}

/// Where the numeric pass scatters: a pattern built from the node graph by
/// the symbolic pass, and the addressing of the values behind it.
pub(crate) trait Scatter: Sized {
    /// What the pattern and its values become.
    type Matrix;

    /// The dof-level pattern of the rows of the nodes `0..rows` of a node
    /// graph with `dpn` interleaved dofs per node, over the columns of the
    /// nodes in `cols`: a free row holds the free dofs of its node's
    /// neighbours in `cols`, ascending; a constrained row holds its lone
    /// diagonal when `fixed_diag` (stiffness) and nothing otherwise (the
    /// ghost columns of a rank's rows); constrained columns are left out.
    fn over(
        graph: &(Vec<usize>, Vec<usize>),
        dpn: usize,
        fixed: &[bool],
        fixed_diag: bool,
        rows: usize,
        cols: Range<usize>,
    ) -> Self;

    /// Number of stored values.
    fn len(&self) -> usize;

    /// Adds the dense row-major `block` of the element over `nodes` (`dpn`
    /// interleaved dofs each) into `values`, for the node pairs the pattern
    /// covers. Constrained rows are skipped; an entry in a constrained
    /// column goes to `lift(row, col, value)` instead of the matrix.
    fn add_block(
        &self,
        values: &mut [f64],
        nodes: &[usize],
        dpn: usize,
        block: &[f64],
        fixed: &[bool],
        lift: impl FnMut(usize, usize, f64),
    );

    /// Where row `r`'s diagonal is stored.
    fn diagonal(&self, r: usize) -> usize;

    fn into_matrix(self, values: Vec<f64>) -> Self::Matrix;
}

/// The CSR sparsity pattern of an element assembly.
pub(crate) struct Pattern {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// The nodes whose rows are stored (`0..rows`) and whose columns are,
    /// `dpn` dofs each.
    rows: usize,
    cols: Range<usize>,
    dpn: usize,
}

/// Sorted node neighbourhoods (a node's neighbours are the nodes of the
/// elements touching it, itself included) in CSR form, from the flattened
/// `npe`-nodes-per-element connectivity `conn`.
fn node_graph(n_nodes: usize, npe: usize, conn: &[usize]) -> (Vec<usize>, Vec<usize>) {
    // Node-to-element adjacency by counting sort.
    let mut elems_ptr = vec![0usize; n_nodes + 1];
    for &n in conn {
        elems_ptr[n + 1] += 1;
    }
    for n in 0..n_nodes {
        elems_ptr[n + 1] += elems_ptr[n];
    }
    let mut elems = vec![0usize; conn.len()];
    let mut next = elems_ptr.clone();
    for (e, nodes) in conn.chunks_exact(npe).enumerate() {
        for &n in nodes {
            elems[next[n]] = e;
            next[n] += 1;
        }
    }
    let mut nbr_ptr = Vec::with_capacity(n_nodes + 1);
    let mut nbrs = Vec::new();
    let mut seen_by = vec![usize::MAX; n_nodes];
    nbr_ptr.push(0);
    for n in 0..n_nodes {
        let first = nbrs.len();
        for &e in &elems[elems_ptr[n]..elems_ptr[n + 1]] {
            for &m in &conn[e * npe..(e + 1) * npe] {
                if seen_by[m] != n {
                    seen_by[m] = n;
                    nbrs.push(m);
                }
            }
        }
        nbrs[first..].sort_unstable();
        nbr_ptr.push(nbrs.len());
    }
    (nbr_ptr, nbrs)
}

/// The nodes of the ascending list `nbrs` that lie in `cols`.
/// Most lists lie wholly inside or outside: two comparisons.
fn window<'a>(nbrs: &'a [usize], cols: &Range<usize>) -> &'a [usize] {
    match (nbrs.first(), nbrs.last()) {
        (Some(lo), Some(hi)) if cols.contains(lo) && cols.contains(hi) => nbrs,
        (Some(&lo), Some(&hi)) if hi < cols.start || lo >= cols.end => &[],
        _ => {
            let lo = nbrs.partition_point(|&m| m < cols.start);
            &nbrs[lo..lo + nbrs[lo..].partition_point(|&m| m < cols.end)]
        }
    }
}

impl Scatter for Pattern {
    type Matrix = CsrMatrix;

    /// Sized exactly before it is filled.
    fn over(
        (nbr_ptr, nbrs): &(Vec<usize>, Vec<usize>),
        dpn: usize,
        fixed: &[bool],
        fixed_diag: bool,
        rows: usize,
        cols: Range<usize>,
    ) -> Self {
        let nbrs_of = |n: usize| window(&nbrs[nbr_ptr[n]..nbr_ptr[n + 1]], &cols);
        let free_dofs = |m: usize| (m * dpn..(m + 1) * dpn).filter(|&d| !fixed[d]);
        let mut row_ptr = Vec::with_capacity(rows * dpn + 1);
        row_ptr.push(0);
        for n in 0..rows {
            let free_len: usize = nbrs_of(n).iter().map(|&m| free_dofs(m).count()).sum();
            for r in n * dpn..(n + 1) * dpn {
                let len = if fixed[r] {
                    fixed_diag as usize
                } else {
                    free_len
                };
                row_ptr.push(row_ptr[r] + len);
            }
        }
        let mut col_idx = Vec::with_capacity(row_ptr[rows * dpn]);
        for r in 0..rows * dpn {
            if fixed[r] {
                col_idx.extend(fixed_diag.then_some(r));
            } else {
                col_idx.extend(nbrs_of(r / dpn).iter().flat_map(|&m| free_dofs(m)));
            }
        }
        Pattern {
            row_ptr,
            col_idx,
            rows,
            cols,
            dpn,
        }
    }

    fn len(&self) -> usize {
        self.col_idx.len()
    }

    fn add_block(
        &self,
        values: &mut [f64],
        nodes: &[usize],
        dpn: usize,
        block: &[f64],
        fixed: &[bool],
        mut lift: impl FnMut(usize, usize, f64),
    ) {
        // Most elements lie wholly inside the column window, or outside.
        let inside = nodes.iter().all(|b| self.cols.contains(b));
        if !inside && !nodes.iter().any(|b| self.cols.contains(b)) {
            return;
        }
        let nd = nodes.len() * dpn;
        let first_free = |n: usize| (n * dpn..(n + 1) * dpn).find(|&d| !fixed[d]);
        for (ia, &a) in nodes.iter().enumerate() {
            // The free rows of one node share their column list, in which a
            // node's free dofs are adjacent: one search per node pair.
            let Some(r0) = first_free(a).filter(|_| a < self.rows) else {
                continue;
            };
            let cols = &self.col_idx[self.row_ptr[r0]..self.row_ptr[r0 + 1]];
            for (ib, &b) in nodes.iter().enumerate() {
                if !inside && !self.cols.contains(&b) {
                    continue;
                }
                let at = first_free(b).map_or(0, |c0| {
                    cols.binary_search(&c0)
                        .expect("the pattern holds every free dof pair of an element")
                });
                for ca in (0..dpn).filter(|&ca| !fixed[a * dpn + ca]) {
                    let r = a * dpn + ca;
                    let entries = &block[(ia * dpn + ca) * nd + ib * dpn..][..dpn];
                    let mut p = self.row_ptr[r] + at;
                    for (cb, &v) in entries.iter().enumerate() {
                        if fixed[b * dpn + cb] {
                            lift(r, b * dpn + cb, v);
                        } else {
                            values[p] += v;
                            p += 1;
                        }
                    }
                }
            }
        }
    }

    fn diagonal(&self, r: usize) -> usize {
        let cols = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
        self.row_ptr[r] + cols.binary_search(&r).expect("a stored diagonal")
    }

    fn into_matrix(self, values: Vec<f64>) -> CsrMatrix {
        let (n_rows, n_cols) = (self.rows * self.dpn, self.cols.end * self.dpn);
        CsrMatrix::from_raw_parts(n_rows, n_cols, self.row_ptr, self.col_idx, values)
            .expect("the symbolic pass produces valid CSR")
    }
}

/// The upper block triangle of the same pattern as `dpn × dpn` node blocks:
/// a block row per node, a block per neighbour `m ≥ n` with a free dof (a
/// wholly constrained node's row holds its diagonal block alone, or nothing
/// without `fixed_diag`), and for each block that is not full the mask of
/// the entries the scalar pattern holds. The rest of such a block is fill,
/// zero: exactly what [`BcsrMatrix::from_csr`] makes of the symmetric CSR
/// pattern. Its columns are those of its rows' nodes (`cols` is `0..rows`),
/// so the blocks are square, and the element matrices are symmetric bit for
/// bit, so the blocks below the diagonal are left out: the scatter adds
/// only the node pairs `(a, b ≥ a)`.
pub(crate) struct BlockPattern {
    brow_ptr: Vec<usize>,
    bcol_idx: Vec<u32>,
    fill: Vec<(u32, u16)>,
    dpn: usize,
}

impl Scatter for BlockPattern {
    type Matrix = BcsrMatrix;

    fn over(
        (nbr_ptr, nbrs): &(Vec<usize>, Vec<usize>),
        dpn: usize,
        fixed: &[bool],
        fixed_diag: bool,
        rows: usize,
        cols: Range<usize>,
    ) -> Self {
        assert_eq!(cols, 0..rows, "node blocks are square");
        let any_free = |m: usize| (m * dpn..(m + 1) * dpn).any(|d| !fixed[d]);
        let full = (1u16 << (dpn * dpn)) - 1;
        let mask = |n: usize, m: usize| {
            let mut bits = 0u16;
            for i in 0..dpn {
                for j in 0..dpn {
                    let (r, c) = (n * dpn + i, m * dpn + j);
                    if (!fixed[r] && !fixed[c]) || (fixed_diag && r == c) {
                        bits |= 1 << (i * dpn + j);
                    }
                }
            }
            bits
        };
        // A node is its own neighbour, and each neighbour pair is stored
        // once, so the blocks are at most half the neighbour lists and the
        // diagonals.
        let mut brow_ptr = Vec::with_capacity(rows + 1);
        let mut bcol_idx = Vec::with_capacity((nbr_ptr[rows] + rows) / 2);
        let mut fill = Vec::new();
        let mut push = |bcol_idx: &mut Vec<u32>, n: usize, m: usize| {
            let bits = mask(n, m);
            if bits != full {
                fill.push((bcol_idx.len() as u32, bits));
            }
            bcol_idx.push(m as u32);
        };
        brow_ptr.push(0);
        for n in 0..rows {
            if any_free(n) {
                let nbrs = window(&nbrs[nbr_ptr[n]..nbr_ptr[n + 1]], &(n..cols.end));
                for &m in nbrs.iter().filter(|&&m| any_free(m)) {
                    push(&mut bcol_idx, n, m);
                }
            } else if fixed_diag {
                push(&mut bcol_idx, n, n);
            }
            brow_ptr.push(bcol_idx.len());
        }
        BlockPattern {
            brow_ptr,
            bcol_idx,
            fill,
            dpn,
        }
    }

    fn len(&self) -> usize {
        self.bcol_idx.len() * self.dpn * self.dpn
    }

    fn add_block(
        &self,
        values: &mut [f64],
        nodes: &[usize],
        dpn: usize,
        block: &[f64],
        fixed: &[bool],
        mut lift: impl FnMut(usize, usize, f64),
    ) {
        let (nd, rows) = (nodes.len() * dpn, self.brow_ptr.len() - 1);
        for (ia, &a) in nodes.iter().enumerate() {
            if a >= rows || (a * dpn..(a + 1) * dpn).all(|r| fixed[r]) {
                continue;
            }
            let lo = self.brow_ptr[a];
            let cols = &self.bcol_idx[lo..self.brow_ptr[a + 1]];
            for (ib, &b) in nodes.iter().enumerate().filter(|&(_, &b)| b < rows) {
                // Below the diagonal nothing is stored: only constrained
                // columns lift.
                if b < a && (b * dpn..(b + 1) * dpn).all(|c| !fixed[c]) {
                    continue;
                }
                // No block when `b` is wholly constrained: every entry lifts.
                let at = (cols.binary_search(&(b as u32)).ok()).map(|k| (lo + k) * dpn * dpn);
                for ca in (0..dpn).filter(|&ca| !fixed[a * dpn + ca]) {
                    let r = a * dpn + ca;
                    let entries = &block[(ia * dpn + ca) * nd + ib * dpn..][..dpn];
                    for (cb, &v) in entries.iter().enumerate() {
                        if fixed[b * dpn + cb] {
                            lift(r, b * dpn + cb, v);
                        } else if b >= a {
                            let at =
                                at.expect("the pattern holds every free dof pair of an element");
                            values[at + ca * dpn + cb] += v;
                        }
                    }
                }
            }
        }
    }

    fn diagonal(&self, r: usize) -> usize {
        let (n, i) = (r / self.dpn, r % self.dpn);
        let cols = &self.bcol_idx[self.brow_ptr[n]..self.brow_ptr[n + 1]];
        let k = cols.binary_search(&(n as u32)).expect("a stored diagonal");
        (self.brow_ptr[n] + k) * self.dpn * self.dpn + i * self.dpn + i
    }

    fn into_matrix(self, values: Vec<f64>) -> BcsrMatrix {
        let n = (self.brow_ptr.len() - 1) * self.dpn;
        BcsrMatrix::from_raw_parts(self.dpn, n, self.brow_ptr, self.bcol_idx, values, self.fill)
    }
}

/// The stiffness storage of a local matrix: node blocks for 2 or 3 dofs per
/// node, CSR otherwise.
pub(crate) enum NodePattern {
    Csr(Pattern),
    Blocks(BlockPattern),
}

impl Scatter for NodePattern {
    type Matrix = NodeMatrix;

    fn over(
        graph: &(Vec<usize>, Vec<usize>),
        dpn: usize,
        fixed: &[bool],
        fixed_diag: bool,
        rows: usize,
        cols: Range<usize>,
    ) -> Self {
        match dpn {
            2 | 3 => NodePattern::Blocks(BlockPattern::over(
                graph, dpn, fixed, fixed_diag, rows, cols,
            )),
            _ => NodePattern::Csr(Pattern::over(graph, dpn, fixed, fixed_diag, rows, cols)),
        }
    }

    fn len(&self) -> usize {
        match self {
            NodePattern::Csr(p) => p.len(),
            NodePattern::Blocks(p) => p.len(),
        }
    }

    fn add_block(
        &self,
        values: &mut [f64],
        nodes: &[usize],
        dpn: usize,
        block: &[f64],
        fixed: &[bool],
        lift: impl FnMut(usize, usize, f64),
    ) {
        match self {
            NodePattern::Csr(p) => p.add_block(values, nodes, dpn, block, fixed, lift),
            NodePattern::Blocks(p) => p.add_block(values, nodes, dpn, block, fixed, lift),
        }
    }

    fn diagonal(&self, r: usize) -> usize {
        match self {
            NodePattern::Csr(p) => p.diagonal(r),
            NodePattern::Blocks(p) => p.diagonal(r),
        }
    }

    fn into_matrix(self, values: Vec<f64>) -> NodeMatrix {
        match self {
            NodePattern::Csr(p) => NodeMatrix::Csr(p.into_matrix(values)),
            NodePattern::Blocks(p) => NodeMatrix::Blocks(p.into_matrix(values)),
        }
    }
}

/// One rank's rows split by column owner: over rows `0..rows`, the columns
/// of the row nodes in the storage of a local matrix ([`NodePattern`]) and
/// the columns of the other nodes (`rows..`) as scalar CSR. Each node pair
/// of an element lands in exactly one of the two; their values are stored
/// back to back, the owned columns' first.
struct SplitPattern {
    own: NodePattern,
    ghost: Pattern,
}

impl Scatter for SplitPattern {
    type Matrix = (NodeMatrix, CsrMatrix);

    fn over(
        graph: &(Vec<usize>, Vec<usize>),
        dpn: usize,
        fixed: &[bool],
        fixed_diag: bool,
        rows: usize,
        cols: Range<usize>,
    ) -> Self {
        SplitPattern {
            own: NodePattern::over(graph, dpn, fixed, fixed_diag, rows, cols.start..rows),
            ghost: Pattern::over(graph, dpn, fixed, false, rows, rows..cols.end),
        }
    }

    fn len(&self) -> usize {
        self.own.len() + self.ghost.len()
    }

    fn add_block(
        &self,
        values: &mut [f64],
        nodes: &[usize],
        dpn: usize,
        block: &[f64],
        fixed: &[bool],
        mut lift: impl FnMut(usize, usize, f64),
    ) {
        let (own, ghost) = values.split_at_mut(self.own.len());
        self.own.add_block(own, nodes, dpn, block, fixed, &mut lift);
        self.ghost
            .add_block(ghost, nodes, dpn, block, fixed, &mut lift);
    }

    fn diagonal(&self, r: usize) -> usize {
        self.own.diagonal(r)
    }

    /// The ghost columns' values move to an allocation of their own; the
    /// owned columns' keep theirs, shrunk to fit.
    fn into_matrix(self, mut values: Vec<f64>) -> (NodeMatrix, CsrMatrix) {
        let ghost = values.split_off(self.own.len());
        values.shrink_to_fit();
        (self.own.into_matrix(values), self.ghost.into_matrix(ghost))
    }
}

/// The one assembly core: a symbolic pass builds the pattern from the
/// element connectivity, then a numeric pass walks the elements in the order
/// `conn` lists them and adds each dense element matrix into the preallocated
/// values. Duplicate contributions to an entry are therefore summed **in
/// ascending element order** — the summation-order contract of every
/// assembled matrix in this crate, whatever its storage.
///
/// `conn` holds `npe` node ids per element, in the numbering of the matrix
/// (dof `dpn * node + c`); the rows are those of the nodes `0..rows`, the
/// columns those of all `n_nodes`. `fixed` flags the constrained dofs: a
/// constrained row keeps a lone diagonal `fixed_diag(row)`, and a
/// constrained column is left out of the pattern, its entries handed to
/// `lift(row, col, value)` per element. `element(k, ke)` fills the matrix of
/// the `k`-th listed element into a caller-owned row-major buffer, which
/// goes into the storage `K` lays out.
#[allow(clippy::too_many_arguments)] // one entry for every assembly in the crate
pub(crate) fn assemble<K: Scatter>(
    n_nodes: usize,
    rows: usize,
    dpn: usize,
    npe: usize,
    conn: &[usize],
    fixed: &[bool],
    fixed_diag: impl Fn(usize) -> f64,
    mut lift: impl FnMut(usize, usize, f64),
    mut element: impl FnMut(usize, &mut [f64]),
) -> K::Matrix {
    assert_eq!(fixed.len(), n_nodes * dpn, "constraint flags do not match");
    let graph = node_graph(n_nodes, npe, conn);
    let k_pat = K::over(&graph, dpn, fixed, true, rows, 0..n_nodes);
    drop(graph);
    let mut k_vals = zeros(k_pat.len());

    let nd = npe * dpn;
    let mut ke = vec![0.0; nd * nd];
    let mut scatter = |k: usize, nodes: &[usize]| {
        element(k, &mut ke);
        k_pat.add_block(&mut k_vals, nodes, dpn, &ke, fixed, &mut lift);
    };
    // A node count that is a constant of the loop lets the scatter's node
    // loops unroll, as they did when each element family had its own
    // assembler.
    match npe {
        3 => (conn.as_chunks::<3>().0.iter().enumerate()).for_each(|(k, n)| scatter(k, n)),
        4 => (conn.as_chunks::<4>().0.iter().enumerate()).for_each(|(k, n)| scatter(k, n)),
        8 => (conn.as_chunks::<8>().0.iter().enumerate()).for_each(|(k, n)| scatter(k, n)),
        _ => (conn.chunks_exact(npe).enumerate()).for_each(|(k, n)| scatter(k, n)),
    }
    for r in (0..rows * dpn).filter(|&r| fixed[r]) {
        k_vals[k_pat.diagonal(r)] = fixed_diag(r);
    }
    k_pat.into_matrix(k_vals)
}

/// The lumped mass of the rows `0..n` of a local numbering: the lumped
/// diagonal of each element of `elems` (local nodes `conn`, `npe` each, in
/// the same order), in that order, into its free rows. Constrained rows
/// (`fixed`) stay zero, and so does any row outside `0..n`. A row's sum is
/// that of the global lumped diagonal when the row's elements are all listed.
pub(crate) fn lumped_diagonal(
    disc: &Discretization,
    material: &Material,
    elems: &[usize],
    conn: &[usize],
    fixed: &[bool],
    n: usize,
) -> Vec<f64> {
    let (npe, dpn) = (disc.mesh().nodes_per_elem(), disc.physics().dofs_per_node());
    let nd = npe * dpn;
    let (mut mass, mut me) = (zeros(n), vec![0.0; nd * nd]);
    for (&e, nodes) in elems.iter().zip(conn.chunks_exact(npe)) {
        disc.mass(e, material, Mass::Lumped, &mut me);
        for i in 0..nd {
            let r = nodes[i / dpn] * dpn + i % dpn;
            if r < n && !fixed[r] {
                mass[r] += me[i * (nd + 1)];
            }
        }
    }
    mass
}

/// Raw (unconstrained) global assembly over the nodes of `dm` of the
/// `npe`-node elements `conn` lists, `fill(k, block)` writing the dense
/// matrix of the `k`-th.
fn assemble_raw(
    dm: &DofMap,
    npe: usize,
    conn: &[usize],
    fill: impl FnMut(usize, &mut [f64]),
) -> CsrMatrix {
    let free = vec![false; dm.n_dofs()];
    let (n_nodes, dpn) = (dm.n_nodes(), dm.dofs_per_node());
    let none = |_| unreachable!("no dof is constrained");
    let no_lift = |_, _, _| unreachable!("no dof is constrained");
    assemble::<Pattern>(n_nodes, n_nodes, dpn, npe, conn, &free, none, no_lift, fill)
}

/// One rank's rows of a node partition, constrained and unscaled, split by
/// the owner of their columns: the block row of the row-based decomposition
/// before its scaling.
#[derive(Debug, Clone)]
pub struct OwnedRows {
    /// Global dof of each row: the dofs of the rank's nodes, ascending.
    pub rows: Vec<usize>,
    /// The coupling among the rows (columns numbered like the rows), in the
    /// storage of a local matrix: `B × B` node blocks for 2 or 3 dofs per
    /// node, CSR for one.
    pub a_loc: NodeMatrix,
    /// The coupling to other ranks' dofs, column `j` being `ext_dofs[j]`.
    pub a_ext: CsrMatrix,
    /// Global dofs of the `a_ext` columns, ascending.
    pub ext_dofs: Vec<usize>,
    /// The rows' right-hand side.
    pub rhs: Vec<f64>,
    /// The rows' lumped mass, one entry per row (constrained rows zero),
    /// when asked for.
    pub mass: Option<Vec<f64>>,
}

impl OwnedRows {
    /// `‖a_r‖₁` of every row, its owned and external entries taken in one
    /// ascending global column order: the bits of
    /// [`CsrMatrix::row_abs_sums`] on the rows of the global matrix.
    pub fn row_abs_sums(&self) -> Vec<f64> {
        let mut sums = self.a_loc.row_abs_sums();
        for (r, sum) in sums.iter_mut().enumerate() {
            let (cols, vals) = self.a_ext.row(r);
            if cols.is_empty() {
                continue;
            }
            let (mut acc, mut k) = (0.0, 0);
            for (l, v) in self.a_loc.row_entries(r) {
                while k < cols.len() && self.ext_dofs[cols[k]] < self.rows[l] {
                    acc += vals[k].abs();
                    k += 1;
                }
                acc += v.abs();
            }
            *sum = vals[k..].iter().fold(acc, |acc, w| acc + w.abs());
        }
        sums
    }

    /// Stored entries of both blocks.
    pub fn nnz(&self) -> usize {
        self.a_loc.nnz() + self.a_ext.nnz()
    }
}

/// Assembles one rank's rows of a node partition: those of the nodes
/// `owned` accepts, from the elements of `disc` that have such a node, in
/// ascending element order. The Dirichlet conditions of `dm` apply as the
/// global [`apply_dirichlet`] applies them, with the right-hand side taken
/// from the global `loads`; the other ranks' nodes touched (one ghost
/// layer) give the columns of `a_ext`. With `lumped_mass` the rows' lumped
/// mass comes along (`lumped_diagonal` over the same elements). Returns the
/// rows and the number of elements assembled.
///
/// An owned node has all its elements here, so each row holds the entries
/// of that row of the global constrained matrix, summed in the same element
/// order, and its right-hand side the same lifted values subtracted in the
/// same column order: bit for bit the same values. So does the lumped mass.
pub fn assemble_owned(
    disc: &Discretization,
    dm: &DofMap,
    material: &Material,
    loads: &[f64],
    owned: impl Fn(usize) -> bool,
    lumped_mass: bool,
) -> (OwnedRows, usize) {
    disc.check(dm);
    let (all, npe) = (disc.mesh().connectivity(), disc.mesh().nodes_per_elem());
    let nodes_of = |e: usize| &all[e * npe..(e + 1) * npe];
    let elems: Vec<usize> = (all.chunks_exact(npe).enumerate())
        .filter(|(_, nodes)| nodes.iter().any(|&n| owned(n)))
        .map(|(e, _)| e)
        .collect();
    // The owned nodes are the local nodes `0..n_own`, the ghosts follow;
    // each group ascends with the global id.
    let mut nodes = Vec::with_capacity(elems.len() * npe);
    nodes.extend(elems.iter().flat_map(|&e| nodes_of(e)));
    nodes.sort_unstable();
    nodes.dedup();
    let ghost: Vec<usize> = nodes.iter().copied().filter(|&n| !owned(n)).collect();
    nodes.retain(|&n| owned(n));
    let n_own = nodes.len();
    nodes.extend(ghost);
    let (own, ghost) = nodes.split_at(n_own);
    let listed = "an element's node is listed";
    let mut conn = Vec::with_capacity(elems.len() * npe);
    conn.extend(
        (elems.iter().flat_map(|&e| nodes_of(e))).map(|&n| match owned(n) {
            true => own.binary_search(&n).expect(listed),
            false => n_own + ghost.binary_search(&n).expect(listed),
        }),
    );
    let dpn = dm.dofs_per_node();
    let global: Vec<usize> = (nodes.iter())
        .flat_map(|&n| (0..dpn).map(move |c| dm.dof(n, c)))
        .collect();
    let fixed: Vec<bool> = global.iter().map(|&g| dm.is_fixed(g)).collect();
    let mut lifted = Vec::new();
    let fill = |k: usize, ke: &mut [f64]| disc.stiffness(elems[k], material, ke);
    let lift = |r: usize, c: usize, v: f64| lifted.push((r, global[c], v));
    let (a_loc, a_ext) = assemble::<SplitPattern>(
        nodes.len(),
        n_own,
        dpn,
        npe,
        &conn,
        &fixed,
        |_| 1.0,
        lift,
        fill,
    );

    let n = n_own * dpn;
    let mass = lumped_mass.then(|| lumped_diagonal(disc, material, &elems, &conn, &fixed, n));
    let mut rhs: Vec<f64> = (global[..n].iter())
        .map(|&g| match dm.is_fixed(g) {
            true => dm.fixed_value(g),
            false => loads[g],
        })
        .collect();
    // Each lifted entry summed over its elements in element order (a stable
    // sort keeps it), a row's entries subtracted in global column order.
    lifted.sort_by_key(|&(r, g, _)| (r, g));
    for run in lifted.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (r, g) = (run[0].0, run[0].1);
        let k_rg = run.iter().fold(0.0, |sum, &(_, _, v)| sum + v);
        rhs[r] -= k_rg * dm.fixed_value(g);
    }

    // The ghost dofs with an entry become the external columns, in order.
    let (row_ptr, mut cols, vals) = a_ext.into_raw_parts();
    let mut pos = vec![usize::MAX; global.len() - n];
    cols.iter().for_each(|&c| pos[c - n] = 0);
    let mut ext_dofs = Vec::new();
    for (p, &g) in pos.iter_mut().zip(&global[n..]).filter(|(p, _)| **p == 0) {
        *p = ext_dofs.len();
        ext_dofs.push(g);
    }
    cols.iter_mut().for_each(|c| *c = pos[*c - n]);
    let a_ext = CsrMatrix::from_raw_parts(n, ext_dofs.len().max(1), row_ptr, cols, vals)
        .expect("a renumbering that keeps the column order");
    let rows = global[..n].to_vec();
    let owned_rows = OwnedRows {
        rows,
        a_loc,
        a_ext,
        ext_dofs,
        rhs,
        mass,
    };
    (owned_rows, elems.len())
}

/// Assembles the raw global stiffness matrix of `disc` (no boundary
/// conditions). A bare mesh reference stands for the elasticity of its
/// dimension.
pub fn assemble_stiffness<'a>(
    disc: impl Into<Discretization<'a>>,
    dm: &DofMap,
    material: &Material,
) -> CsrMatrix {
    let disc = disc.into();
    disc.check(dm);
    let mesh = disc.mesh();
    assemble_raw(dm, mesh.nodes_per_elem(), mesh.connectivity(), |e, ke| {
        disc.stiffness(e, material, ke)
    })
}

/// Assembles the raw global `kind` mass matrix of `disc` (no boundary
/// conditions). A lumped mass is diagonal: only the diagonal is scattered.
///
/// # Panics
/// Panics where [`Discretization::mass`] does.
pub fn assemble_mass<'a>(
    disc: impl Into<Discretization<'a>>,
    dm: &DofMap,
    material: &Material,
    kind: Mass,
) -> CsrMatrix {
    let disc = disc.into();
    disc.check(dm);
    let mesh = disc.mesh();
    let (npe, conn) = (mesh.nodes_per_elem(), mesh.connectivity());
    if kind == Mass::Consistent {
        return assemble_raw(dm, npe, conn, |e, me| disc.mass(e, material, kind, me));
    }
    // Every element dof is its own one-node, one-dof "element".
    let (dpn, nd) = (dm.dofs_per_node(), disc.elem_dofs());
    let dofs = DofMap::with_dofs(dm.n_dofs(), 1);
    let dof_conn: Vec<usize> = (conn.iter())
        .flat_map(|&n| (0..dpn).map(move |c| dm.dof(n, c)))
        .collect();
    let mut me = (usize::MAX, vec![0.0; nd * nd]);
    assemble_raw(&dofs, 1, &dof_conn, |k, diag| {
        if me.0 != k / nd {
            me.0 = k / nd;
            disc.mass(me.0, material, kind, &mut me.1);
        }
        diag[0] = me.1[(k % nd) * (nd + 1)];
    })
}

/// Copies the rows of an assembled matrix with the constrained columns
/// dropped. With a right-hand side (stiffness) a constrained row becomes the
/// unit diagonal and dropped entries move to `rhs`; without one (mass) a
/// constrained row is emptied.
fn constrain(k: &CsrMatrix, dm: &DofMap, mut rhs: Option<&mut [f64]>) -> CsrMatrix {
    let n = k.n_rows();
    assert_eq!(n, dm.n_dofs(), "matrix does not match DOF map");
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(k.nnz());
    let mut values = Vec::with_capacity(k.nnz());
    row_ptr.push(0);
    for r in 0..n {
        if dm.is_fixed(r) {
            if let Some(rhs) = &mut rhs {
                col_idx.push(r);
                values.push(1.0);
                rhs[r] = dm.fixed_value(r);
            }
        } else {
            let (cols, vals) = k.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if !dm.is_fixed(c) {
                    col_idx.push(c);
                    values.push(v);
                } else if let Some(rhs) = &mut rhs {
                    rhs[r] -= v * dm.fixed_value(c);
                }
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values)
        .expect("a row-filtered CSR matrix stays valid")
}

/// Applies Dirichlet conditions to an assembled matrix and right-hand side.
///
/// Returns the constrained matrix; `rhs` is modified in place:
/// - constrained row `i`: replaced by `u_i = ū_i` (unit diagonal, `rhs_i = ū_i`);
/// - free row `i`: coupling to constrained columns `j` moves to the RHS as
///   `rhs_i -= K_ij ū_j`.
pub fn apply_dirichlet(k: &CsrMatrix, dm: &DofMap, rhs: &mut [f64]) -> CsrMatrix {
    assert_eq!(rhs.len(), dm.n_dofs(), "rhs does not match DOF map");
    constrain(k, dm, Some(rhs))
}

/// Applies Dirichlet conditions to a *mass* matrix: constrained rows and
/// columns are zeroed (no unit diagonal), so that `αM + βK` keeps the clean
/// constraint rows of `K` scaled by `β`.
pub fn apply_dirichlet_mass(m: &CsrMatrix, dm: &DofMap) -> CsrMatrix {
    constrain(m, dm, None)
}

/// Adds a uniformly distributed edge traction with total force `(fx, fy)`,
/// consistently partitioned over the edge nodes (half weights at the two end
/// nodes — the trapezoidal rule for linear shape functions on a uniform
/// edge).
pub fn edge_load(mesh: &QuadMesh, dm: &DofMap, edge: Edge, fx: f64, fy: f64, rhs: &mut [f64]) {
    let nodes = mesh.edge_nodes(edge);
    let n_seg = (nodes.len() - 1) as f64;
    for (k, &node) in nodes.iter().enumerate() {
        let w = if k == 0 || k == nodes.len() - 1 {
            0.5 / n_seg
        } else {
            1.0 / n_seg
        };
        rhs[dm.dof(node, 0)] += w * fx;
        rhs[dm.dof(node, 1)] += w * fy;
    }
}

/// Adds a uniformly distributed scalar source with total strength `q` over
/// a boundary edge of a scalar (heat) problem, trapezoidally partitioned
/// like [`edge_load`].
pub fn edge_source(mesh: &QuadMesh, dm: &DofMap, edge: Edge, q: f64, rhs: &mut [f64]) {
    assert_eq!(dm.dofs_per_node(), 1, "edge_source needs a scalar DOF map");
    let nodes = mesh.edge_nodes(edge);
    let n_seg = (nodes.len() - 1) as f64;
    for (k, &node) in nodes.iter().enumerate() {
        let w = if k == 0 || k == nodes.len() - 1 {
            0.5 / n_seg
        } else {
            1.0 / n_seg
        };
        rhs[dm.dof(node, 0)] += w * q;
    }
}

/// Adds a uniformly distributed traction with total force `(fx, fy, fz)`
/// over a boundary face of a hex mesh, consistently partitioned with
/// tensor-product trapezoidal weights (the bilinear consistent load on a
/// uniform face grid).
pub fn face_load(mesh: &HexMesh, dm: &DofMap, face: Face, f: [f64; 3], rhs: &mut [f64]) {
    assert_eq!(
        dm.dofs_per_node(),
        3,
        "face_load needs a 3-DOF-per-node map"
    );
    // The two in-face grid directions and the fixed coordinate.
    let (na, nb) = match face {
        Face::XMin | Face::XMax => (mesh.ny(), mesh.nz()),
        Face::YMin | Face::YMax => (mesh.nx(), mesh.nz()),
        Face::ZMin | Face::ZMax => (mesh.nx(), mesh.ny()),
    };
    let w1 = |idx: usize, n: usize| -> f64 {
        if idx == 0 || idx == n {
            0.5 / n as f64
        } else {
            1.0 / n as f64
        }
    };
    for b in 0..=nb {
        for a in 0..=na {
            let node = match face {
                Face::XMin => mesh.node_at(0, a, b),
                Face::XMax => mesh.node_at(mesh.nx(), a, b),
                Face::YMin => mesh.node_at(a, 0, b),
                Face::YMax => mesh.node_at(a, mesh.ny(), b),
                Face::ZMin => mesh.node_at(a, b, 0),
                Face::ZMax => mesh.node_at(a, b, mesh.nz()),
            };
            let w = w1(a, na) * w1(b, nb);
            for c in 0..3 {
                rhs[dm.dof(node, c)] += w * f[c];
            }
        }
    }
}

/// Assembles the complete constrained static system of `disc` with loads
/// already accumulated in `loads` (length `dm.n_dofs()`).
pub fn build_static<'a>(
    disc: impl Into<Discretization<'a>>,
    dm: &DofMap,
    material: &Material,
    loads: &[f64],
) -> StaticSystem {
    let k = assemble_stiffness(disc, dm, material);
    let mut rhs = loads.to_vec();
    let stiffness = apply_dirichlet(&k, dm, &mut rhs);
    StaticSystem { stiffness, rhs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Physics;
    use parfem_sparse::dense;

    fn cantilever_fixture(nx: usize, ny: usize) -> (QuadMesh, DofMap, Material) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        (mesh, dm, Material::unit())
    }

    /// Dense reference solve through `parfem_sparse::dense::solve_dense`.
    fn dense_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        let mut m = a.to_dense();
        dense::solve_dense(a.n_rows(), &mut m, b)
    }

    #[test]
    fn raw_stiffness_is_symmetric_and_singular() {
        let (mesh, dm, mat) = cantilever_fixture(3, 2);
        let k = assemble_stiffness(&mesh, &dm, &mat);
        assert_eq!(k.n_rows(), dm.n_dofs());
        assert!(k.is_symmetric(1e-12));
        // Rigid x-translation is in the null space before BCs.
        let mut tx = vec![0.0; dm.n_dofs()];
        for node in 0..mesh.n_nodes() {
            tx[dm.dof(node, 0)] = 1.0;
        }
        for v in k.spmv(&tx) {
            assert!(v.abs() < 1e-9, "rigid-mode residual {v}");
        }
    }

    #[test]
    fn constrained_system_is_nonsingular_and_consistent() {
        let (mesh, dm, mat) = cantilever_fixture(4, 2);
        let mut loads = vec![0.0; dm.n_dofs()];
        loads[dm.dof(mesh.node_at(4, 2), 1)] = -1.0;
        let sys = build_static(&mesh, &dm, &mat, &loads);
        let u = dense_solve(&sys.stiffness, &sys.rhs);
        // Constrained DOFs stay at zero.
        for (d, v) in dm.fixed_dofs() {
            assert!((u[d] - v).abs() < 1e-12);
        }
        // The tip deflects downward.
        let tip = dm.dof(mesh.node_at(4, 2), 1);
        assert!(u[tip] < 0.0, "tip deflection {}", u[tip]);
        // Residual of the solve itself.
        let r = sys.stiffness.spmv(&u);
        for (ri, fi) in r.iter().zip(&sys.rhs) {
            assert!((ri - fi).abs() < 1e-9);
        }
    }

    #[test]
    fn patch_test_constant_strain_is_reproduced() {
        // Prescribe the linear field u_x = 0.01 x on the whole boundary of a
        // distorted-numbering mesh; the interior must follow the same field
        // (completeness/patch test for Q4).
        let mesh = QuadMesh::rectangle(3, 3, 3.0, 3.0);
        let mut dm = DofMap::new(mesh.n_nodes());
        let eps = 0.01;
        for node in 0..mesh.n_nodes() {
            let [x, y] = mesh.node_coords(node);
            let boundary = x == 0.0 || y == 0.0 || x == 3.0 || y == 3.0;
            if boundary {
                dm.fix_dof(dm.dof(node, 0), eps * x);
                dm.fix_dof(dm.dof(node, 1), -0.3 * eps * y); // nu * eps contraction
            }
        }
        let mat = Material::unit();
        let loads = vec![0.0; dm.n_dofs()];
        let sys = build_static(&mesh, &dm, &mat, &loads);
        let u = dense_solve(&sys.stiffness, &sys.rhs);
        for node in 0..mesh.n_nodes() {
            let [x, y] = mesh.node_coords(node);
            assert!(
                (u[dm.dof(node, 0)] - eps * x).abs() < 1e-10,
                "patch test u_x at node {node}"
            );
            assert!(
                (u[dm.dof(node, 1)] + 0.3 * eps * y).abs() < 1e-10,
                "patch test u_y at node {node}"
            );
        }
    }

    #[test]
    fn cantilever_deflection_matches_beam_theory_within_tolerance() {
        // Slender cantilever with a tip transverse load: Euler-Bernoulli
        // predicts delta = P L^3 / (3 E I). Q4 meshes are stiff (shear
        // locking), so allow a generous band; one refinement must move the
        // answer toward the beam value.
        let p_total = -1e-3;
        let predict = |nx: usize, ny: usize| -> f64 {
            let mesh = QuadMesh::rectangle(nx, ny, 16.0, 1.0);
            let mut dm = DofMap::new(mesh.n_nodes());
            dm.clamp_edge(&mesh, Edge::Left);
            let mut loads = vec![0.0; dm.n_dofs()];
            edge_load(&mesh, &dm, Edge::Right, 0.0, p_total, &mut loads);
            let mat = Material::unit();
            let sys = build_static(&mesh, &dm, &mat, &loads);
            let u = dense_solve(&sys.stiffness, &sys.rhs);
            u[dm.dof(mesh.node_at(nx, ny / 2), 1)]
        };
        let coarse = predict(16, 2);
        let fine = predict(32, 4);
        let l: f64 = 16.0;
        let i = 1.0 / 12.0; // unit-depth rectangular section
        let beam = p_total * l.powi(3) / (3.0 * 1.0 * i);
        assert!(coarse < 0.0 && fine < 0.0);
        // Within 40% of beam theory and converging toward it.
        assert!(
            (fine - beam).abs() / beam.abs() < 0.4,
            "fine {fine} vs beam {beam}"
        );
        assert!(
            (fine - beam).abs() <= (coarse - beam).abs() + 1e-12,
            "refinement must not diverge: coarse {coarse}, fine {fine}, beam {beam}"
        );
    }

    #[test]
    fn mass_matrix_total_mass_is_density_times_area() {
        let (mesh, dm, mat) = cantilever_fixture(5, 3);
        for kind in [Mass::Consistent, Mass::Lumped] {
            let m = assemble_mass(&mesh, &dm, &mat, kind);
            let mut tx = vec![0.0; dm.n_dofs()];
            for node in 0..mesh.n_nodes() {
                tx[dm.dof(node, 0)] = 1.0;
            }
            let mx = m.spmv(&tx);
            let total = dense::dot(&tx, &mx);
            // rho * area * thickness = 1 * 15 * 1.
            assert!((total - 15.0).abs() < 1e-9, "total mass {total} {kind:?}");
        }
    }

    #[test]
    fn lumped_mass_is_diagonal_globally() {
        let (mesh, dm, mat) = cantilever_fixture(4, 4);
        let m = assemble_mass(&mesh, &dm, &mat, Mass::Lumped);
        for r in 0..m.n_rows() {
            let (cols, _) = m.row(r);
            assert_eq!(cols, &[r], "row {r} has off-diagonal mass");
        }
    }

    #[test]
    fn apply_dirichlet_mass_zeroes_constrained_rows() {
        let (mesh, dm, mat) = cantilever_fixture(3, 1);
        let m = assemble_mass(&mesh, &dm, &mat, Mass::Consistent);
        let mbc = apply_dirichlet_mass(&m, &dm);
        for (d, _) in dm.fixed_dofs() {
            let (cols, _) = mbc.row(d);
            assert!(cols.is_empty(), "constrained mass row {d} not empty");
            // Columns too.
            for r in 0..mbc.n_rows() {
                assert_eq!(mbc.get(r, d), 0.0);
            }
        }
        assert!(mbc.is_symmetric(1e-12));
    }

    #[test]
    fn edge_load_total_force_is_preserved() {
        let (mesh, dm, _) = cantilever_fixture(6, 3);
        let mut rhs = vec![0.0; dm.n_dofs()];
        edge_load(&mesh, &dm, Edge::Right, 2.0, -5.0, &mut rhs);
        let fx: f64 = (0..mesh.n_nodes()).map(|n| rhs[dm.dof(n, 0)]).sum();
        let fy: f64 = (0..mesh.n_nodes()).map(|n| rhs[dm.dof(n, 1)]).sum();
        assert!((fx - 2.0).abs() < 1e-12);
        assert!((fy + 5.0).abs() < 1e-12);
    }

    #[test]
    fn heat_system_reproduces_one_d_conduction() {
        // Left edge held at T = 0, unit total flux in through the right
        // edge, k = t = 1: T(x) = q x / (k ly t) is linear and must be
        // reproduced exactly by bilinear elements.
        let mesh = QuadMesh::rectangle(4, 2, 4.0, 2.0);
        let mut dm = DofMap::with_dofs(mesh.n_nodes(), 1);
        dm.clamp_edge(&mesh, Edge::Left);
        let mut loads = vec![0.0; dm.n_dofs()];
        edge_source(&mesh, &dm, Edge::Right, 1.0, &mut loads);
        let heat = Discretization::new(&mesh, Physics::Heat2d);
        let sys = build_static(heat, &dm, &Material::unit(), &loads);
        assert!(sys.stiffness.is_symmetric(1e-12));
        let u = dense_solve(&sys.stiffness, &sys.rhs);
        for node in 0..mesh.n_nodes() {
            let [x, _] = mesh.node_coords(node);
            assert!(
                (u[dm.dof(node, 0)] - x / 2.0).abs() < 1e-10,
                "T at node {node}: {} vs {}",
                u[dm.dof(node, 0)],
                x / 2.0
            );
        }
    }

    #[test]
    fn hex_cantilever_deflects_under_transverse_face_load() {
        let mesh = HexMesh::cantilever(3, 2, 2);
        let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
        for node in mesh.face_nodes(Face::XMin) {
            dm.clamp_node(node);
        }
        let mut loads = vec![0.0; dm.n_dofs()];
        face_load(&mesh, &dm, Face::XMax, [0.0, 0.0, -1.0], &mut loads);
        let sys = build_static(&mesh, &dm, &Material::unit(), &loads);
        assert!(sys.stiffness.is_symmetric(1e-12));
        let u = dense_solve(&sys.stiffness, &sys.rhs);
        // Clamped DOFs stay put; the tip deflects in -z.
        for (d, v) in dm.fixed_dofs() {
            assert!((u[d] - v).abs() < 1e-12);
        }
        let tip = dm.dof(mesh.node_at(3, 1, 2), 2);
        assert!(u[tip] < 0.0, "tip deflection {}", u[tip]);
        let r = sys.stiffness.spmv(&u);
        for (ri, fi) in r.iter().zip(&sys.rhs) {
            assert!((ri - fi).abs() < 1e-9);
        }
    }

    #[test]
    fn hex_raw_stiffness_has_translation_null_modes() {
        let mesh = HexMesh::cantilever(2, 2, 2);
        let dm = DofMap::with_dofs(mesh.n_nodes(), 3);
        let k = assemble_stiffness(&mesh, &dm, &Material::unit());
        for c in 0..3 {
            let mut t = vec![0.0; dm.n_dofs()];
            for node in 0..mesh.n_nodes() {
                t[dm.dof(node, c)] = 1.0;
            }
            for v in k.spmv(&t) {
                assert!(v.abs() < 1e-9, "translation {c} residual {v}");
            }
        }
    }

    #[test]
    fn face_and_edge_source_totals_are_preserved() {
        let mesh = HexMesh::cantilever(3, 2, 4);
        let dm = DofMap::with_dofs(mesh.n_nodes(), 3);
        let mut rhs = vec![0.0; dm.n_dofs()];
        face_load(&mesh, &dm, Face::YMax, [2.0, -5.0, 1.5], &mut rhs);
        for c in 0..3 {
            let total: f64 = (0..mesh.n_nodes()).map(|n| rhs[dm.dof(n, c)]).sum();
            let want = [2.0, -5.0, 1.5][c];
            assert!((total - want).abs() < 1e-12, "component {c}: {total}");
        }
        let qmesh = QuadMesh::cantilever(5, 3);
        let sdm = DofMap::with_dofs(qmesh.n_nodes(), 1);
        let mut srhs = vec![0.0; sdm.n_dofs()];
        edge_source(&qmesh, &sdm, Edge::Right, 3.0, &mut srhs);
        let total: f64 = srhs.iter().sum();
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nonzero_prescribed_displacement_moves_rhs() {
        // One element, clamp left edge, pull right edge to a prescribed u_x.
        let mesh = QuadMesh::rectangle(1, 1, 1.0, 1.0);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        for node in mesh.edge_nodes(Edge::Right) {
            dm.fix_dof(dm.dof(node, 0), 0.1);
        }
        let mat = Material::unit();
        let loads = vec![0.0; dm.n_dofs()];
        let sys = build_static(&mesh, &dm, &mat, &loads);
        let u = dense_solve(&sys.stiffness, &sys.rhs);
        for node in mesh.edge_nodes(Edge::Right) {
            assert!((u[dm.dof(node, 0)] - 0.1).abs() < 1e-12);
        }
        // The free u_y DOFs must have moved (Poisson contraction).
        let uy = u[dm.dof(mesh.node_at(1, 1), 1)];
        assert!(uy.abs() > 1e-6, "expected contraction, got {uy}");
    }
}
