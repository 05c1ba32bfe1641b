//! Row-based (block-row) domain decomposition — the paper's Section 4
//! baseline (Algorithm 8), the strategy of PSPARSLIB/Aztec/pARMS.
//!
//! A node partition induces a block-row partition of the *assembled* matrix:
//! rank `s` owns the rows of its nodes' DOFs. Each local row block is split
//! into `A_loc` (columns owned by this rank, renumbered locally) and `A_ext`
//! (columns owned by neighbours). The matrix–vector product (Eq. 48)
//!
//! ```text
//! scatter x_bnd to neighbours;  gather x_ext from neighbours;
//! y = A_loc x_loc + A_ext x_ext
//! ```
//!
//! needs one halo exchange per product — like EDD — but the exchanged
//! values are *matrix-coupled* rows rather than interface sums, and a local
//! DOF reordering is required for the split. Inner products are trivially
//! deduplicated (rows are disjoint): one local dot plus an all-reduce.
//!
//! No rank needs the assembled matrix: each builds its own block row from
//! the elements touching its nodes — one ghost layer — and scales it with
//! its own row sums plus one halo exchange of the diagonal
//! ([`RddSystem::assemble`]). `A_loc` takes the storage of a local matrix,
//! `B × B` node blocks at 2 or 3 DOFs per node and CSR for one, assembled
//! and scaled in place; `A_ext` is scalar CSR over the ghost DOFs.

use crate::coarse::{rdd_part_geometry, CoarsePlan};
use crate::error::SolveError;
use crate::session::{
    build_precond, rank_span, Decomposition, PrecondBuildStats, Problem, Rank, SolverConfig,
};
use parfem_fem::assembly::{assemble_owned, OwnedRows};
use parfem_krylov::DistributedOperator;
use parfem_mesh::NodePartition;
use parfem_msg::Communicator;
use parfem_precond::twolevel::CoarsePartGeometry;
use parfem_precond::InterfaceConsistency;
use parfem_sparse::scaling::inv_sqrt_scaling;
use parfem_sparse::{dense, kernels, CsrMatrix, LinearOperator, NodeMatrix};
use std::cell::RefCell;

/// One rank's block-row system.
#[derive(Debug, Clone)]
pub struct RddSystem {
    /// This block's rank.
    pub rank: usize,
    /// Global DOFs of the owned rows, ascending.
    pub rows: Vec<usize>,
    /// Coupling among owned DOFs (`n_loc × n_loc`, locally renumbered), in
    /// the storage its DOFs per node give it: `B × B` node blocks for 2 or
    /// 3, CSR for one.
    pub a_loc: NodeMatrix,
    /// Coupling to external DOFs (`n_loc × n_ext`), scalar CSR.
    pub a_ext: CsrMatrix,
    /// The owned rows with an entry in `a_ext`, ascending: the only rows
    /// the halo product adds to.
    pub halo_rows: Vec<usize>,
    /// Global DOFs of the external columns, ascending.
    pub ext_dofs: Vec<usize>,
    /// Local right-hand side (owned rows of the global RHS).
    pub b_loc: Vec<f64>,
    /// Per neighbour `(rank, local row indices to send)`, sorted by rank;
    /// the indices are in the neighbour's expected (global-DOF) order.
    pub send_to: Vec<(usize, Vec<usize>)>,
    /// Per neighbour `(rank, external-column positions to fill)`, sorted by
    /// rank, in the same canonical order as the sender's list.
    pub recv_from: Vec<(usize, Vec<usize>)>,
}

impl RddSystem {
    /// Number of owned DOFs.
    pub fn n_local(&self) -> usize {
        self.a_loc.n_rows()
    }

    /// `y += A_ext x_ext` over the halo rows, one [`kernels::row_dot`] per
    /// row; the rows without external entries are not visited.
    fn add_halo_product(&self, x_ext: &[f64], y: &mut [f64]) {
        let (row_ptr, col_idx, values) = self.a_ext.raw_parts();
        for &r in &self.halo_rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            y[r] += kernels::row_dot(&col_idx[lo..hi], &values[lo..hi], x_ext);
        }
    }

    /// Builds all `P` block-row systems from an assembled (and already
    /// scaled) system, each through the same per-rank split as
    /// [`RddSystem::assemble`], with unit scaling: `a_loc` is the owned
    /// columns of the rank's rows in the storage the DOFs per node give it
    /// ([`NodeMatrix::from_csr`]). For callers that hold a global matrix; a
    /// session never builds one.
    ///
    /// # Panics
    /// Panics if shapes are inconsistent.
    pub fn build_all(a: &CsrMatrix, b: &[f64], part: &NodePartition) -> Vec<RddSystem> {
        let n = a.n_rows();
        assert_eq!(b.len(), n, "rdd: rhs length mismatch");
        let n_nodes = part.owners().len();
        assert!(
            n_nodes > 0 && n.is_multiple_of(n_nodes),
            "rdd: node partition does not match matrix"
        );
        // DOFs per node follows from the matrix itself, so the same block
        // split serves every physics (1 scalar, 2 plane, 3 solid DOFs).
        let dofs_per_node = n / n_nodes;
        let dof_owner = |d: usize| part.owner(d / dofs_per_node);
        // A dof's index among its owner's.
        let mut index = vec![0; n];
        let mut count = vec![0; part.n_parts()];
        for d in 0..n {
            index[d] = count[dof_owner(d)];
            count[dof_owner(d)] += 1;
        }
        let ones = vec![1.0; n];
        (0..part.n_parts())
            .map(|s| {
                let rows: Vec<usize> = (0..n).filter(|&d| dof_owner(d) == s).collect();
                let mut ext_dofs: Vec<usize> = (rows.iter().flat_map(|&d| a.row(d).0))
                    .copied()
                    .filter(|&c| dof_owner(c) != s)
                    .collect();
                ext_dofs.sort_unstable();
                ext_dofs.dedup();
                let mut loc = (vec![0], Vec::new(), Vec::new());
                let mut ext = (vec![0], Vec::new(), Vec::new());
                for &d in &rows {
                    let (cols, vals) = a.row(d);
                    for (&c, &v) in cols.iter().zip(vals) {
                        let (to, j) = match dof_owner(c) == s {
                            true => (&mut loc, index[c]),
                            false => (&mut ext, ext_dofs.binary_search(&c).expect("listed")),
                        };
                        to.1.push(j);
                        to.2.push(v);
                    }
                    loc.0.push(loc.1.len());
                    ext.0.push(ext.1.len());
                }
                let csr = |(row_ptr, cols, vals), n_cols| {
                    CsrMatrix::from_raw_parts(rows.len(), n_cols, row_ptr, cols, vals)
                        .expect("rows of a valid matrix")
                };
                let block = OwnedRows {
                    a_loc: NodeMatrix::from_csr(csr(loc, rows.len()), dofs_per_node),
                    a_ext: csr(ext, ext_dofs.len().max(1)),
                    rhs: rows.iter().map(|&d| b[d]).collect(),
                    rows,
                    ext_dofs,
                    mass: None,
                };
                Split::new(s, block, dof_owner).finish(&ones[..count[s]], &ones)
            })
            .collect()
    }

    /// Builds this rank's block row of `problem` on the rank's own thread —
    /// the session's RDD setup — and returns it with its scaling diagonal
    /// `d` over the owned rows. With a `mass_shift` ᾱ the block row is that
    /// of the effective matrix `ᾱM + K` of a Newmark step (paper Eq. 52),
    /// and the owned rows' lumped mass `M` comes back too.
    ///
    /// Under the rank span `assembly` the rank assembles its owned rows
    /// from the elements with a node it owns, in ascending element order
    /// through the one pattern-first core, with the Dirichlet constraints
    /// applied (constrained columns lifted into the right-hand side in
    /// column order, constrained rows unit diagonals): the owned columns
    /// straight into `a_loc`'s storage, the ghost columns into `a_ext`
    /// ([`parfem_fem::assembly::assemble_owned`]); a mass shift adds `ᾱ·m`
    /// on the diagonal of each row (`m = 0` on constrained rows). Under
    /// `scaling` it takes
    /// the norm-1 row sums of those rows in global column order
    /// (Algorithm 3), fetches `d` at its external columns in one halo
    /// exchange, and scales both blocks in place into `a_loc = D A D` and
    /// `a_ext` (Algorithm 4). Every value equals, bit for bit, the block row
    /// [`RddSystem::build_all`] cuts from the scaled global system.
    ///
    /// The rank clock is charged what EDD charges: the element kernel's
    /// documented flop count plus one add per scattered entry for every
    /// element assembled, `2·nnz` for the row sums.
    ///
    /// The halo lists come from the rows' own pattern: toward rank `q`, the
    /// owned rows with a column `q` owns. That is what `q` expects because a
    /// finite-element matrix is structurally symmetric.
    pub fn assemble<C: Communicator>(
        comm: &C,
        problem: &Problem<'_>,
        part: &NodePartition,
        mass_shift: Option<f64>,
    ) -> (RddSystem, Vec<f64>, Option<Vec<f64>>) {
        let rank = comm.rank();
        let dpn = problem.dof_map.dofs_per_node();
        let (split, mass) = rank_span(comm, "assembly", || {
            let (disc, dm) = (&problem.discretization, problem.dof_map);
            let owned = |n| part.owner(n) == rank;
            let (mut block, n_elems) = assemble_owned(
                disc,
                dm,
                problem.material,
                problem.loads,
                owned,
                mass_shift.is_some(),
            );
            comm.work(disc.assembly_flops(n_elems));
            let mass = block.mass.take();
            if let (Some(alpha), Some(m)) = (mass_shift, &mass) {
                block.a_loc.add_diagonal(alpha, m);
            }
            (Split::new(rank, block, |g| part.owner(g / dpn)), mass)
        });
        rank_span(comm, "scaling", || {
            let d = inv_sqrt_scaling(&split.block.row_abs_sums());
            comm.work(2 * split.block.nnz() as u64);
            let d_ext = split.exchange(comm, &d);
            (split.finish(&d, &d_ext), d, mass)
        })
    }

    /// Restriction of a global vector to the owned rows.
    pub fn restrict(&self, global: &[f64]) -> Vec<f64> {
        self.rows.iter().map(|&d| global[d]).collect()
    }
}

/// The one block-row split, in two steps around the scaling exchange:
/// [`Split::new`] derives the halo lists from the pattern alone,
/// [`Split::finish`] scales both blocks in place.
struct Split {
    rank: usize,
    block: OwnedRows,
    send_to: Vec<(usize, Vec<usize>)>,
    recv_from: Vec<(usize, Vec<usize>)>,
}

impl Split {
    /// `owner(g)` is the rank owning global dof `g`.
    fn new(rank: usize, block: OwnedRows, owner: impl Fn(usize) -> usize) -> Self {
        // External columns ascend with the global dof; each owner's share
        // is received in that order.
        let mut recv_from = Vec::new();
        for (pos, &g) in block.ext_dofs.iter().enumerate() {
            push_to(&mut recv_from, owner(g), pos);
        }
        // What a neighbour receives is what it has columns for: by
        // structural symmetry, the owned rows that have a column it owns.
        let mut send_to: Vec<(usize, Vec<usize>)> = Vec::new();
        for r in 0..block.rows.len() {
            for &j in block.a_ext.row(r).0 {
                push_to(&mut send_to, owner(block.ext_dofs[j]), r);
            }
        }
        recv_from.sort_by_key(|(q, _)| *q);
        send_to.sort_by_key(|(q, _)| *q);
        Split {
            rank,
            block,
            send_to,
            recv_from,
        }
    }

    /// `d` at the external columns, from their owners: one halo exchange
    /// over the split's lists.
    fn exchange<C: Communicator>(&self, comm: &C, d: &[f64]) -> Vec<f64> {
        let ranks: Vec<usize> = self.send_to.iter().map(|(q, _)| *q).collect();
        let send: Vec<Vec<f64>> = (self.send_to.iter())
            .map(|(_, rows)| rows.iter().map(|&r| d[r]).collect())
            .collect();
        let mut recv = vec![Vec::new(); ranks.len()];
        comm.exchange_into(&ranks, &send, &mut recv);
        // A failed exchange leaves zeros; the solve reports the latched error.
        let mut d_ext = vec![0.0; self.block.ext_dofs.len()];
        for ((_, positions), buf) in self.recv_from.iter().zip(&recv) {
            for (&pos, &v) in positions.iter().zip(buf) {
                d_ext[pos] = v;
            }
        }
        d_ext
    }

    /// The system: every entry `a_rc·(d_r·d_c)` — `scale_symmetric`'s
    /// expression — with `d` over the owned rows and `d_ext` at the
    /// external columns, and `b = D f`.
    fn finish(self, d: &[f64], d_ext: &[f64]) -> RddSystem {
        let OwnedRows {
            rows,
            mut a_loc,
            a_ext,
            ext_dofs,
            mut rhs,
            ..
        } = self.block;
        let n = rows.len();
        a_loc.scale_symmetric(d);
        let (row_ptr, cols, mut vals) = a_ext.into_raw_parts();
        for r in 0..n {
            for k in row_ptr[r]..row_ptr[r + 1] {
                vals[k] *= d[r] * d_ext[cols[k]];
            }
        }
        let halo_rows = (0..n).filter(|&r| row_ptr[r + 1] > row_ptr[r]).collect();
        let a_ext = CsrMatrix::from_raw_parts(n, ext_dofs.len().max(1), row_ptr, cols, vals)
            .expect("scaling keeps the pattern");
        dense::diag_mul(d, &mut rhs);
        RddSystem {
            rank: self.rank,
            rows,
            a_loc,
            a_ext,
            halo_rows,
            ext_dofs,
            b_loc: rhs,
            send_to: self.send_to,
            recv_from: self.recv_from,
        }
    }
}

/// Appends `item` to `rank`'s list in `lists`, once.
fn push_to(lists: &mut Vec<(usize, Vec<usize>)>, rank: usize, item: usize) {
    match lists.iter_mut().find(|(q, _)| *q == rank) {
        Some((_, list)) if list.last() == Some(&item) => {}
        Some((_, list)) => list.push(item),
        None => lists.push((rank, vec![item])),
    }
}

/// Persistent halo-exchange staging for [`RddOperator`]: neighbour ranks,
/// per-neighbour send/receive buffers, and the gathered external vector,
/// laid out for the operator's block row when it is built. Reused across
/// matvecs so the Eq. 48 product allocates nothing once warm.
#[derive(Debug, Clone)]
struct RddHaloBuffers {
    ranks: Vec<usize>,
    send: Vec<Vec<f64>>,
    recv: Vec<Vec<f64>>,
    x_ext: Vec<f64>,
}

/// The row-based distributed operator: one rank's scaled block row, its
/// communicator endpoint and its persistent halo staging, built once per
/// rank and shared by the preconditioner build and every solve.
pub struct RddOperator<'c, C: Communicator> {
    /// The local block-row system; the operator reads its matrices and halo
    /// lists only (a session rank keeps the rows' dofs and load itself).
    pub(crate) sys: RddSystem,
    /// Communicator endpoint.
    pub(crate) comm: &'c C,
    /// Products post the halo exchange nonblocking and compute the `A_loc`
    /// product while the messages fly: overlap was asked for and the rank
    /// has a neighbour.
    split: bool,
    /// Halo staging, behind interior mutability because
    /// [`LinearOperator::apply_into`] takes `&self`.
    halo: RefCell<RddHaloBuffers>,
}

impl<'c, C: Communicator> RddOperator<'c, C> {
    /// Wraps a block-row system as the distributed operator; with `overlap`
    /// every product overlaps its halo exchange with the `A_loc` product
    /// (bit-identical results; only the modeled time changes).
    pub fn new(sys: RddSystem, comm: &'c C, overlap: bool) -> Self {
        // One merged neighbour set: FEM matrices are structurally symmetric,
        // so senders and receivers pair up.
        let halo = RddHaloBuffers {
            ranks: sys.send_to.iter().map(|(q, _)| *q).collect(),
            send: vec![Vec::new(); sys.send_to.len()],
            recv: vec![Vec::new(); sys.send_to.len()],
            x_ext: Vec::new(),
        };
        RddOperator {
            split: overlap && !sys.send_to.is_empty(),
            sys,
            comm,
            halo: RefCell::new(halo),
        }
    }

    /// Stages the halo sends: for each neighbour, the owned values of `x`
    /// it has columns for.
    fn stage(&self, x: &[f64], halo: &mut RddHaloBuffers) {
        for ((_, idx), out) in self.sys.send_to.iter().zip(halo.send.iter_mut()) {
            out.clear();
            out.extend(idx.iter().map(|&l| x[l]));
        }
    }

    /// Unpacks the received halo into `halo.x_ext` (in `ext_dofs` order).
    fn unpack(&self, halo: &mut RddHaloBuffers) {
        let sys = &self.sys;
        debug_assert!((sys.recv_from.iter().map(|(q, _)| q)).eq(sys.send_to.iter().map(|(q, _)| q)));
        halo.x_ext.clear();
        halo.x_ext.resize(sys.ext_dofs.len().max(1), 0.0);
        for ((_, positions), buf) in sys.recv_from.iter().zip(&halo.recv) {
            for (&pos, &v) in positions.iter().zip(buf) {
                halo.x_ext[pos] = v;
            }
        }
    }
}

impl<C: Communicator> LinearOperator for RddOperator<'_, C> {
    fn dim(&self) -> usize {
        self.sys.n_local()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let sys = &self.sys;
        assert_eq!(x.len(), sys.n_local(), "rdd apply: x length mismatch");
        let halo = &mut *self.halo.borrow_mut();
        self.stage(x, halo);
        if self.split {
            // Overlapped schedule: post the halo sends, compute the
            // (dominant) A_loc product while the messages fly, then complete
            // the exchange and apply A_ext. The arithmetic and its order are
            // identical to the blocking path — A_loc rows never read
            // external values — so the result is bit-identical; only the
            // modeled time changes (max instead of sum).
            let handle = self.comm.start_exchange(&halo.ranks, &halo.send);
            sys.a_loc.spmv_into(x, y);
            self.comm.work(sys.a_loc.spmv_flops());
            self.comm
                .finish_exchange(handle, &halo.ranks, &mut halo.recv);
            self.unpack(halo);
            sys.add_halo_product(&halo.x_ext, y);
            self.comm.work(sys.a_ext.spmv_flops());
        } else {
            self.comm
                .exchange_into(&halo.ranks, &halo.send, &mut halo.recv);
            self.unpack(halo);
            sys.a_loc.spmv_into(x, y);
            sys.add_halo_product(&halo.x_ext, y);
            self.comm
                .work(sys.a_loc.spmv_flops() + sys.a_ext.spmv_flops());
        }
        if let Some(tracer) = self.comm.tracer() {
            tracer.add_count("spmv_calls", 1);
            tracer.add_count("spmv_rows", sys.n_local() as u64);
            tracer.add_count(
                "spmv_flops",
                sys.a_loc.spmv_flops() + sys.a_ext.spmv_flops(),
            );
        }
    }

    fn apply_flops(&self) -> u64 {
        self.sys.a_loc.spmv_flops() + self.sys.a_ext.spmv_flops()
    }
}

/// RDD block rows are disjoint — nothing is replicated, so rank-local
/// solves are already globally consistent and `make_consistent` is the
/// default no-op; the solve's flops go to the rank clock.
impl<C: Communicator> InterfaceConsistency for RddOperator<'_, C> {
    fn local_work(&self, flops: u64) {
        self.comm.work(flops);
    }
}

impl<C: Communicator> DistributedOperator for RddOperator<'_, C> {
    type Comm = C;
    type PrecondOp = Self;

    fn comm(&self) -> &C {
        self.comm
    }

    fn precond_op(&self) -> &Self {
        self
    }

    /// `r ← b_loc − A x` over the owned rows (one halo exchange).
    fn residual_into(&self, b_loc: &[f64], x: &[f64], r: &mut [f64]) {
        self.apply_into(x, r);
        for (ri, bi) in r.iter_mut().zip(b_loc) {
            *ri = bi - *ri;
        }
        self.comm.work(r.len() as u64);
    }

    /// Rows are disjoint across ranks, so the local partial is a plain dot.
    fn dot_partial(&self, x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(p, q)| p * q).sum()
    }

    fn dot_flops_factor(&self) -> u64 {
        2 // multiply, accumulate — no multiplicity weighting
    }

    /// The storage of `A_loc`, whose kernel does nearly all of the product:
    /// `bcsr2`, `bcsr3` or `csr` (`A_ext` is always scalar).
    fn kernel_variant(&self) -> &'static str {
        self.sys.a_loc.kernel_label()
    }

    fn gs_dots(&self, w: &[f64], basis: &[Vec<f64>], reduce: &mut [f64]) {
        kernels::dot_sweep(w, basis, reduce);
    }
}

/// The RDD side of the session engine's strategy seam: the host holds the
/// problem and the node partition, every rank builds its own block row
/// ([`RddSystem::assemble`]).
pub(crate) struct RddParts<'a> {
    problem: &'a Problem<'a>,
    part: &'a NodePartition,
}

impl<'a> RddParts<'a> {
    pub(crate) fn new(problem: &'a Problem<'a>, part: &'a NodePartition) -> Self {
        RddParts { problem, part }
    }
}

impl Decomposition for RddParts<'_> {
    type Op<'c, C: Communicator + 'c> = RddOperator<'c, C>;

    fn n_ranks(&self) -> usize {
        self.part.n_parts()
    }

    fn label(&self, _: &SolverConfig) -> &'static str {
        "rdd"
    }

    fn coarse_geometry(&self) -> Vec<CoarsePartGeometry> {
        rdd_part_geometry(
            self.part,
            self.problem.dof_map,
            &self.problem.mesh().coords3(),
        )
    }

    /// The rank builds its block row ([`RddSystem::assemble`]), its one
    /// [`RddOperator`] over it and the preconditioner over that. The
    /// operator reads the block row's matrices and halo lists only, so the
    /// owned rows' global dofs and the load `D f` move into the rank.
    fn rank_setup<'c, C: Communicator>(
        &self,
        comm: &'c C,
        coarse: Option<CoarsePlan<'_>>,
        mass_shift: Option<f64>,
        cfg: &SolverConfig,
    ) -> Result<(Rank<RddOperator<'c, C>>, PrecondBuildStats), SolveError> {
        let (mut sys, d, mass) = RddSystem::assemble(comm, self.problem, self.part, mass_shift);
        let dofs = std::mem::take(&mut sys.rows);
        let b = std::mem::take(&mut sys.b_loc);
        let op = RddOperator::new(sys, comm, cfg.overlap);
        // Rows are disjoint: multiplicity 1 for the coarse build.
        let mult = match coarse {
            Some(_) => vec![1.0; dofs.len()],
            None => Vec::new(),
        };
        // `a_loc` (the owned diagonal block) feeds the `direct` and `ilu0`
        // specs — `ilu0` on it is block-Jacobi ILU(0) — and Jacobi its
        // diagonal.
        let a_loc = &op.sys.a_loc;
        let (precond, stats) = build_precond(
            &op,
            coarse,
            &mult,
            &d,
            a_loc,
            || a_loc.diagonal(),
            &cfg.precond,
        )?;
        let rank = Rank {
            op,
            dofs,
            multiplicity: None,
            d,
            b,
            mass,
            precond,
        };
        Ok((rank, stats))
    }

    /// Each rank's piece is its owned rows, unscaled: node by node, the
    /// next values of the node's owner.
    fn gather<'r>(&self, pieces: impl Iterator<Item = &'r [f64]>) -> Vec<f64> {
        let dpn = self.problem.dof_map.dofs_per_node();
        let pieces: Vec<&[f64]> = pieces.collect();
        let mut next = vec![0; pieces.len()];
        let mut x = Vec::with_capacity(self.problem.dof_map.n_dofs());
        for run in self.part.owners().chunk_by(|a, b| a == b) {
            let (owner, at, len) = (run[0], next[run[0]], run.len() * dpn);
            x.extend_from_slice(&pieces[owner][at..at + len]);
            next[owner] = at + len;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_fem::{assembly, Material};
    use parfem_krylov::gmres::{fgmres, fgmres_on, GmresConfig, GmresResult};
    use parfem_krylov::KrylovWorkspace;
    use parfem_mesh::{DofMap, Edge, QuadMesh};
    use parfem_msg::{run_ranks, MachineModel};
    use parfem_precond::twolevel::SpecPrecond;
    use parfem_precond::{GlsPrecond, IdentityPrecond, PrecondSpec, Preconditioner};
    use parfem_sparse::scaling::scale_system;
    use parfem_sparse::SparseRows;

    /// One solve for the load the system was split with, from a zero
    /// initial guess, on a throwaway workspace.
    fn solve<'a, C, P>(comm: &'a C, sys: &RddSystem, precond: &P, cfg: &GmresConfig) -> GmresResult
    where
        C: Communicator,
        P: Preconditioner<RddOperator<'a, C>> + ?Sized,
    {
        let op = RddOperator::new(sys.clone(), comm, false);
        let x0 = vec![0.0; sys.n_local()];
        fgmres_on(
            &op,
            precond,
            &sys.b_loc,
            &x0,
            cfg,
            &mut KrylovWorkspace::new(),
        )
        .expect("fault-free solve must not error")
    }

    /// The `ilu0` spec on the rank's owned block: block-Jacobi ILU(0).
    fn local_ilu(sys: &RddSystem) -> Result<SpecPrecond, parfem_sparse::SparseError> {
        PrecondSpec::Ilu0.instantiate(None, Some(&sys.a_loc), || sys.a_loc.diagonal())
    }

    /// `p` contiguous node ranges, balanced to within one node.
    fn ranges(n_nodes: usize, p: usize) -> NodePartition {
        NodePartition::from_owner(p, (0..n_nodes).map(|n| (n * p) / n_nodes).collect())
    }

    fn assembled(nx: usize, ny: usize) -> (CsrMatrix, Vec<f64>, usize) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
        let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
        let n_nodes = mesh.n_nodes();
        (sys.stiffness, sys.rhs, n_nodes)
    }

    #[test]
    fn block_row_split_reconstructs_matrix() {
        let (a, b, n_nodes) = assembled(5, 2);
        let part = ranges(n_nodes, 3);
        let systems = RddSystem::build_all(&a, &b, &part);
        // Every row of A must be fully represented between a_loc and a_ext.
        for sys in &systems {
            for (lr, &row) in sys.rows.iter().enumerate() {
                let (cols, vals) = a.row(row);
                for (&c, &v) in cols.iter().zip(vals) {
                    let got = if part.owner(c / 2) == sys.rank {
                        let lc = sys.rows.binary_search(&c).expect("owned col");
                        sys.a_loc.get(lr, lc)
                    } else {
                        let pos = sys.ext_dofs.binary_search(&c).expect("ext col");
                        sys.a_ext.get(lr, pos)
                    };
                    assert_eq!(got, v, "row {row} col {c}");
                }
            }
        }
    }

    #[test]
    fn distributed_matvec_matches_sequential() {
        let (a, b, n_nodes) = assembled(6, 3);
        let part = ranges(n_nodes, 4);
        let systems = RddSystem::build_all(&a, &b, &part);
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 % 13) as f64) - 6.0).collect();
        let want = a.spmv(&x);
        let out = run_ranks(4, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let op = RddOperator::new(sys.clone(), comm, false);
            let xl = sys.restrict(&x);
            let y = op.apply(&xl);
            let wl = sys.restrict(&want);
            y.iter()
                .zip(&wl)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0_f64, f64::max)
        });
        for err in out.results {
            assert!(err < 1e-10, "max deviation {err}");
        }
    }

    #[test]
    fn rdd_solve_matches_sequential_solution() {
        let (k, f, n_nodes) = assembled(8, 2);
        let (a, b, sc) = scale_system(&k, &f).unwrap();
        let cfg = GmresConfig {
            tol: 1e-9,
            ..Default::default()
        };
        // Sequential reference.
        let seq = fgmres(
            &a,
            &GlsPrecond::for_scaled_system(5),
            &b,
            &vec![0.0; a.n_rows()],
            &cfg,
        );
        let u_seq = sc.unscale_solution(&seq.x);
        // Parallel.
        let part = ranges(n_nodes, 4);
        let systems = RddSystem::build_all(&a, &b, &part);
        let gls = GlsPrecond::for_scaled_system(5);
        let out = run_ranks(4, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let res = solve(comm, sys, &gls, &cfg);
            (res.x, res.history)
        });
        let mut x = vec![0.0; a.n_rows()];
        for (sys, (xl, _)) in systems.iter().zip(&out.results) {
            for (&d, &v) in sys.rows.iter().zip(xl) {
                x[d] = v;
            }
        }
        let u_par = sc.unscale_solution(&x);
        let h_par = &out.results[0].1;
        assert!(h_par.converged());
        assert_eq!(h_par.iterations(), seq.history.iterations());
        for (p, s) in u_par.iter().zip(&u_seq) {
            assert!((p - s).abs() < 1e-6 * (1.0 + s.abs()), "{p} vs {s}");
        }
    }

    #[test]
    fn rdd_unpreconditioned_converges() {
        let (k, f, n_nodes) = assembled(5, 2);
        let (a, b, _) = scale_system(&k, &f).unwrap();
        let part = ranges(n_nodes, 2);
        let systems = RddSystem::build_all(&a, &b, &part);
        let cfg = GmresConfig {
            tol: 1e-7,
            max_iters: 2000,
            ..Default::default()
        };
        let out = run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let res = solve(comm, sys, &IdentityPrecond, &cfg);
            res.history.converged()
        });
        assert!(out.results.iter().all(|&c| c));
    }

    #[test]
    fn single_rank_rdd_is_sequential() {
        let (k, f, n_nodes) = assembled(4, 2);
        let (a, b, _) = scale_system(&k, &f).unwrap();
        let part = ranges(n_nodes, 1);
        let systems = RddSystem::build_all(&a, &b, &part);
        assert!(systems[0].ext_dofs.is_empty());
        assert!(systems[0].send_to.is_empty());
        let cfg = GmresConfig::default();
        let seq = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; a.n_rows()], &cfg);
        let out = run_ranks(1, MachineModel::ideal(), |comm| {
            let res = solve(comm, &systems[0], &IdentityPrecond, &cfg);
            (res.x, res.history.iterations())
        });
        assert_eq!(out.results[0].1, seq.history.iterations());
        for (p, s) in out.results[0].0.iter().zip(&seq.x) {
            assert!((p - s).abs() < 1e-9 * (1.0 + s.abs()));
        }
    }

    #[test]
    fn local_ilu_preconditioning_accelerates_rdd() {
        // The additive Schwarz scheme of Section 4: local ILU(0) per rank.
        let (k, f, n_nodes) = assembled(10, 4);
        let (a, b, _) = scale_system(&k, &f).unwrap();
        let part = ranges(n_nodes, 3);
        let systems = RddSystem::build_all(&a, &b, &part);
        let cfg = GmresConfig {
            tol: 1e-8,
            max_iters: 5000,
            ..Default::default()
        };
        let out = run_ranks(3, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let ilu = local_ilu(sys).expect("clamped blocks factorize");
            let pre = solve(comm, sys, &ilu, &cfg);
            let plain = solve(comm, sys, &IdentityPrecond, &cfg);
            (
                pre.history.iterations(),
                plain.history.iterations(),
                pre.history.converged() && plain.history.converged(),
            )
        });
        for (pre, plain, both) in out.results {
            assert!(both);
            assert!(
                pre < plain,
                "local ILU must accelerate RDD: {pre} vs {plain}"
            );
        }
    }

    #[test]
    fn local_ilu_application_is_communication_free() {
        let (k, f, n_nodes) = assembled(6, 2);
        let (a, b, _) = scale_system(&k, &f).unwrap();
        let part = ranges(n_nodes, 2);
        let systems = RddSystem::build_all(&a, &b, &part);
        let out = run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let ilu = local_ilu(sys).unwrap();
            let before = comm.stats().sends;
            let op = RddOperator::new(sys.clone(), comm, false);
            let v = vec![1.0; sys.n_local()];
            let _ = ilu.apply(&op, &v);
            comm.stats().sends - before
        });
        assert_eq!(
            out.results,
            vec![0, 0],
            "preconditioner must not communicate"
        );
    }

    #[test]
    fn communication_lists_are_symmetric() {
        let (a, b, n_nodes) = assembled(6, 2);
        // Contiguous blocks, and a scattered owner map whose parts touch
        // each other everywhere (cross points, every rank a neighbour of
        // every other).
        let scattered = (0..n_nodes).map(|n| (n * 7 + n / 5) % 3).collect();
        for part in [ranges(n_nodes, 3), NodePartition::from_owner(3, scattered)] {
            let systems = RddSystem::build_all(&a, &b, &part);
            for sys in &systems {
                assert_eq!(sys.send_to.len(), sys.recv_from.len());
                for ((sr, sl), (rr, _)) in sys.send_to.iter().zip(&sys.recv_from) {
                    assert_eq!(sr, rr, "send/recv neighbour sets must pair");
                    // The global dofs of my send list are the neighbour's
                    // external columns at its receive positions, entry for
                    // entry.
                    let other = &systems[*sr];
                    let (_, their_recv) = (other.recv_from.iter())
                        .find(|(r, _)| *r == sys.rank)
                        .expect("symmetric link");
                    let sent: Vec<usize> = sl.iter().map(|&l| sys.rows[l]).collect();
                    let expected: Vec<usize> =
                        their_recv.iter().map(|&pos| other.ext_dofs[pos]).collect();
                    assert!(!sent.is_empty());
                    assert_eq!(sent, expected, "rank {} -> {sr}", sys.rank);
                }
            }
        }
    }
}
