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
//! values are *matrix-coupled* rows rather than interface sums, the
//! assembled matrix must exist (assembly cost + interface communication at
//! setup), and a local DOF reordering is required for the split. Inner
//! products are trivially deduplicated (rows are disjoint): one local dot
//! plus an all-reduce.

use crate::coarse::{rdd_part_geometry, CoarsePlan};
use crate::error::SolveError;
use crate::session::{
    build_precond, host_span, Decomposition, PrecondBuildStats, Problem, SolverConfig,
};
use parfem_krylov::gmres::{fgmres_on, GmresConfig, GmresResult};
use parfem_krylov::{DistributedOperator, KrylovWorkspace};
use parfem_mesh::NodePartition;
use parfem_msg::Communicator;
use parfem_precond::twolevel::{CoarsePartGeometry, CoarseSpec, SpecPrecond};
use parfem_precond::{InterfaceConsistency, Preconditioner};
use parfem_sparse::scaling::scale_system;
use parfem_sparse::{kernels, CooMatrix, CsrMatrix, DiagonalScaling, LinearOperator};
use parfem_trace::TraceSink;
use std::borrow::Cow;
use std::cell::RefCell;

/// One rank's block-row system.
#[derive(Debug, Clone)]
pub struct RddSystem {
    /// This block's rank.
    pub rank: usize,
    /// Global DOFs of the owned rows, ascending.
    pub rows: Vec<usize>,
    /// Coupling among owned DOFs (`n_loc × n_loc`, locally renumbered).
    pub a_loc: CsrMatrix,
    /// Coupling to external DOFs (`n_loc × n_ext`).
    pub a_ext: CsrMatrix,
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
    /// When set, the operator posts the halo exchange nonblocking and
    /// computes the `A_loc` product while the messages are in flight
    /// (bit-identical results; only the modeled time changes).
    pub overlap: bool,
}

impl RddSystem {
    /// Number of owned DOFs.
    pub fn n_local(&self) -> usize {
        self.rows.len()
    }

    /// Builds all `P` block-row systems from the assembled system.
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
        let p = part.n_parts();
        let dof_owner = |d: usize| part.owner(d / dofs_per_node);

        // Owned rows per rank, ascending, and global -> local row maps.
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); p];
        for d in 0..n {
            rows[dof_owner(d)].push(d);
        }
        let mut local_of = vec![usize::MAX; n];
        for r in rows.iter() {
            for (l, &d) in r.iter().enumerate() {
                local_of[d] = l;
            }
        }

        // External column sets per rank.
        let mut ext: Vec<Vec<usize>> = vec![Vec::new(); p];
        for s in 0..p {
            let mut set: Vec<usize> = Vec::new();
            for &row in &rows[s] {
                let (cols, _) = a.row(row);
                for &c in cols {
                    if dof_owner(c) != s && !set.contains(&c) {
                        set.push(c);
                    }
                }
            }
            set.sort_unstable();
            ext[s] = set;
        }

        let mut out = Vec::with_capacity(p);
        for s in 0..p {
            let n_loc = rows[s].len();
            let mut loc_coo = CooMatrix::new(n_loc, n_loc);
            let mut ext_coo = CooMatrix::new(n_loc, ext[s].len().max(1));
            for (lr, &row) in rows[s].iter().enumerate() {
                let (cols, vals) = a.row(row);
                for (&c, &v) in cols.iter().zip(vals) {
                    if dof_owner(c) == s {
                        loc_coo.push(lr, local_of[c], v).expect("in bounds");
                    } else {
                        let pos = ext[s].binary_search(&c).expect("ext col present");
                        ext_coo.push(lr, pos, v).expect("in bounds");
                    }
                }
            }
            // Communication lists: I receive ext dofs grouped by owner; the
            // owner sends its matching rows in the same ascending-dof order.
            let mut recv_from: Vec<(usize, Vec<usize>)> = Vec::new();
            for (pos, &d) in ext[s].iter().enumerate() {
                let o = dof_owner(d);
                match recv_from.iter_mut().find(|(r, _)| *r == o) {
                    Some((_, list)) => list.push(pos),
                    None => recv_from.push((o, vec![pos])),
                }
            }
            recv_from.sort_by_key(|(r, _)| *r);
            out.push(RddSystem {
                rank: s,
                rows: rows[s].clone(),
                a_loc: loc_coo.to_csr(),
                a_ext: ext_coo.to_csr(),
                ext_dofs: ext[s].clone(),
                b_loc: rows[s].iter().map(|&d| b[d]).collect(),
                send_to: Vec::new(), // filled below
                recv_from,
                overlap: false,
            });
        }
        // Fill send lists from the receivers' needs.
        for s in 0..p {
            let needs: Vec<(usize, Vec<usize>)> = out[s]
                .recv_from
                .iter()
                .map(|(o, positions)| {
                    (
                        *o,
                        positions.iter().map(|&pos| out[s].ext_dofs[pos]).collect(),
                    )
                })
                .collect();
            for (o, dofs) in needs {
                let send_rows: Vec<usize> = dofs.iter().map(|&d| local_of[d]).collect();
                out[o].send_to.push((s, send_rows));
            }
        }
        for sys in &mut out {
            sys.send_to.sort_by_key(|(r, _)| *r);
        }
        out
    }

    /// Restriction of a global vector to the owned rows.
    pub fn restrict(&self, global: &[f64]) -> Vec<f64> {
        self.rows.iter().map(|&d| global[d]).collect()
    }

    /// Scatters local values into a global vector.
    pub fn scatter(&self, local: &[f64], global: &mut [f64]) {
        for (&d, &v) in self.rows.iter().zip(local) {
            global[d] = v;
        }
    }
}

/// Persistent halo-exchange staging for [`RddOperator`]: neighbour ranks,
/// per-neighbour send/receive buffers, and the gathered external vector.
/// Reused across matvecs so the Eq. 48 product allocates nothing once warm.
#[derive(Debug, Clone, Default)]
struct RddHaloBuffers {
    ranks: Vec<usize>,
    send: Vec<Vec<f64>>,
    recv: Vec<Vec<f64>>,
    x_ext: Vec<f64>,
}

impl RddHaloBuffers {
    /// Sizes the per-neighbour buffers for `sys` (idempotent).
    fn ensure(&mut self, sys: &RddSystem) {
        if self.ranks.len() != sys.send_to.len()
            || self
                .ranks
                .iter()
                .zip(&sys.send_to)
                .any(|(&r, (nr, _))| r != *nr)
        {
            self.ranks.clear();
            self.ranks.extend(sys.send_to.iter().map(|(r, _)| *r));
            self.send.resize(sys.send_to.len(), Vec::new());
            self.recv.resize(sys.send_to.len(), Vec::new());
        }
    }
}

/// The row-based distributed operator.
pub struct RddOperator<'a, C: Communicator> {
    /// The local block-row system.
    pub sys: &'a RddSystem,
    /// Communicator endpoint.
    pub comm: &'a C,
    /// Halo staging, behind interior mutability because
    /// [`LinearOperator::apply_into`] takes `&self`.
    halo: RefCell<RddHaloBuffers>,
}

impl<'a, C: Communicator> RddOperator<'a, C> {
    /// Wraps a block-row system as the distributed operator.
    pub fn new(sys: &'a RddSystem, comm: &'a C) -> Self {
        RddOperator {
            sys,
            comm,
            halo: RefCell::new(RddHaloBuffers::default()),
        }
    }

    /// Performs the halo exchange for `x_loc`, leaving the external values
    /// in `halo.x_ext` (in `ext_dofs` order).
    fn gather_ext(&self, x: &[f64], halo: &mut RddHaloBuffers) {
        let sys = self.sys;
        // One merged neighbour set: FEM matrices are structurally symmetric,
        // so senders and receivers pair up.
        halo.ensure(sys);
        for ((_, idx), out) in sys.send_to.iter().zip(halo.send.iter_mut()) {
            out.clear();
            out.extend(idx.iter().map(|&l| x[l]));
        }
        self.comm
            .exchange_into(&halo.ranks, &halo.send, &mut halo.recv);
        halo.x_ext.clear();
        halo.x_ext.resize(sys.ext_dofs.len().max(1), 0.0);
        for ((rank, positions), buf) in sys.recv_from.iter().zip(&halo.recv) {
            debug_assert_eq!(
                *rank,
                sys.send_to[sys.recv_from.iter().position(|(r, _)| r == rank).unwrap()].0
            );
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
        let sys = self.sys;
        assert_eq!(x.len(), sys.n_local(), "rdd apply: x length mismatch");
        let mut halo = self.halo.borrow_mut();
        if sys.overlap && !sys.send_to.is_empty() {
            // Overlapped schedule: stage and post the halo sends, compute
            // the (dominant) A_loc product while the messages fly, then
            // complete the exchange and apply A_ext. The arithmetic and its
            // order are identical to the blocking path — A_loc rows never
            // read external values — so the result is bit-identical; only
            // the modeled time changes (max instead of sum).
            let halo = &mut *halo;
            halo.ensure(sys);
            for ((_, idx), out) in sys.send_to.iter().zip(halo.send.iter_mut()) {
                out.clear();
                out.extend(idx.iter().map(|&l| x[l]));
            }
            let handle = self.comm.start_exchange(&halo.ranks, &halo.send);
            sys.a_loc.spmv_into(x, y);
            self.comm.work(sys.a_loc.spmv_flops());
            self.comm
                .finish_exchange(handle, &halo.ranks, &mut halo.recv);
            halo.x_ext.clear();
            halo.x_ext.resize(sys.ext_dofs.len().max(1), 0.0);
            for ((_, positions), buf) in sys.recv_from.iter().zip(&halo.recv) {
                for (&pos, &v) in positions.iter().zip(buf) {
                    halo.x_ext[pos] = v;
                }
            }
            if !sys.ext_dofs.is_empty() {
                sys.a_ext.spmv_add_into(&halo.x_ext, y);
            }
            self.comm.work(sys.a_ext.spmv_flops());
        } else {
            self.gather_ext(x, &mut halo);
            sys.a_loc.spmv_into(x, y);
            if !sys.ext_dofs.is_empty() {
                sys.a_ext.spmv_add_into(&halo.x_ext, y);
            }
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

    /// Block rows stay CSR: `[A_loc | A_ext]` through the scalar kernels.
    fn kernel_variant(&self) -> &'static str {
        "csr"
    }

    fn gs_dots(&self, w: &[f64], basis: &[Vec<f64>], reduce: &mut [f64]) {
        kernels::dot_sweep(w, basis, reduce);
    }
}

/// Rank-local ILU(0) preconditioning for the row-based solver — the
/// non-overlapping additive Schwarz / block-Jacobi scheme the paper's
/// Section 4 attributes to pARMS/PSPARSLIB ("additive Schwartz, Schur
/// complement and ILU methods ... extensions of the block Jacobi method
/// whose kernel is to solve the local system `K_loc z = v`").
///
/// Application is communication-free: each rank back-solves its own
/// diagonal block. Construction fails on a singular local block, mirroring
/// the floating-subdomain failure of EDD-local ILU.
#[derive(Debug, Clone)]
pub struct RddLocalIlu {
    ilu: parfem_sparse::Ilu0,
}

impl RddLocalIlu {
    /// Factorizes this rank's local block `A_loc`.
    ///
    /// # Errors
    /// Propagates [`parfem_sparse::SparseError::ZeroPivot`] for singular
    /// blocks.
    pub fn factorize(sys: &RddSystem) -> Result<Self, parfem_sparse::SparseError> {
        Ok(RddLocalIlu {
            ilu: parfem_sparse::Ilu0::factorize(&sys.a_loc)?,
        })
    }
}

impl<C: Communicator> Preconditioner<RddOperator<'_, C>> for RddLocalIlu {
    fn apply_into(&self, _op: &RddOperator<'_, C>, v: &[f64], z: &mut [f64]) {
        self.ilu.solve_into(v, z);
    }

    fn name(&self) -> String {
        "local-ilu0".to_string()
    }
}

/// Restarted flexible GMRES on the block-row operator (Algorithm 8).
///
/// `b_loc` is the right-hand side, and the returned `x` the solution, over
/// the owned rows — `&sys.b_loc` for the
/// load the system was split with, or the restriction of any other scaled
/// global load. Once `ws` (and the operator's halo buffers) are warm,
/// restarts and iterations perform no heap allocation on this rank.
///
/// # Errors
/// [`SolveError::Comm`] when the communication substrate degrades mid-solve
/// (see [`fgmres_on`]).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn rdd_fgmres<'a, C, P>(
    comm: &'a C,
    sys: &'a RddSystem,
    precond: &P,
    b_loc: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    ws: &mut KrylovWorkspace,
) -> Result<GmresResult, SolveError>
where
    C: Communicator,
    P: Preconditioner<RddOperator<'a, C>> + ?Sized,
{
    Ok(fgmres_on(
        &RddOperator::new(sys, comm),
        precond,
        b_loc,
        x0,
        cfg,
        ws,
    )?)
}

/// The RDD side of the session engine's strategy seam: block rows of the
/// assembled matrix, scaled on the host.
pub(crate) struct RddParts<'a> {
    systems: Vec<RddSystem>,
    /// The host-side norm-1 scaling `D` of the assembled system.
    scaling: DiagonalScaling,
    problem: &'a Problem<'a>,
    part: &'a NodePartition,
}

impl<'a> RddParts<'a> {
    /// Host-side assembly and scaling of the global system, then the
    /// block-row split; the global matrices are dropped on return.
    pub(crate) fn assemble(
        problem: &'a Problem<'a>,
        part: &'a NodePartition,
        overlap: bool,
        sink: &TraceSink,
    ) -> Self {
        let assembled = host_span(sink, "assembly", || problem.build_static());
        let (a, b, scaling) = host_span(sink, "scaling", || {
            scale_system(&assembled.stiffness, &assembled.rhs).expect("square assembled system")
        });
        let mut systems = RddSystem::build_all(&a, &b, part);
        for sys in &mut systems {
            sys.overlap = overlap;
        }
        RddParts {
            systems,
            scaling,
            problem,
            part,
        }
    }
}

impl Decomposition for RddParts<'_> {
    type Rank = SpecPrecond;

    fn n_ranks(&self) -> usize {
        self.systems.len()
    }

    fn dofs_per_node(&self) -> usize {
        self.problem.dof_map.dofs_per_node()
    }

    fn label(&self, _: &SolverConfig) -> &'static str {
        "rdd"
    }

    fn coarse_geometry(&self, _: &CoarseSpec) -> Result<Vec<CoarsePartGeometry>, SolveError> {
        Ok(rdd_part_geometry(
            self.part,
            self.problem.dof_map,
            &self.problem.coords3(),
        ))
    }

    fn rank_setup<C: Communicator>(
        &self,
        comm: &C,
        coarse: Option<CoarsePlan<'_>>,
        cfg: &SolverConfig,
    ) -> (SpecPrecond, PrecondBuildStats) {
        let sys = &self.systems[comm.rank()];
        // Rows are disjoint (multiplicity 1); the coarse build reads the
        // host diagonal at the owned rows.
        let (mult, d) = match coarse {
            Some(_) => (
                vec![1.0; sys.n_local()],
                sys.restrict(self.scaling.diagonal()),
            ),
            None => (Vec::new(), Vec::new()),
        };
        // `a_loc` (the owned diagonal block) feeds the `direct` spec and
        // Jacobi its diagonal.
        build_precond(
            &RddOperator::new(sys, comm),
            coarse,
            &mult,
            &d,
            Some(&sys.a_loc),
            || sys.a_loc.diagonal(),
            &cfg.precond,
        )
    }

    fn rank_solve<C: Communicator>(
        &self,
        comm: &C,
        precond: &SpecPrecond,
        load: Option<&[f64]>,
        cfg: &SolverConfig,
        ws: &mut KrylovWorkspace,
    ) -> Result<GmresResult, SolveError> {
        let sys = &self.systems[comm.rank()];
        // A global load becomes the owned rows of `D f` with the
        // constrained entries zeroed, as `build_static` + `scale_system` do.
        let b: Cow<'_, [f64]> = match load {
            None => Cow::Borrowed(&sys.b_loc),
            Some(global) => {
                let (fixed, d) = (self.problem.dof_map, self.scaling.diagonal());
                (sys.rows.iter())
                    .map(|&g| {
                        if fixed.is_fixed(g) {
                            0.0
                        } else {
                            global[g] * d[g]
                        }
                    })
                    .collect()
            }
        };
        let x0 = vec![0.0; sys.n_local()];
        rdd_fgmres(comm, sys, precond, &b, &x0, &cfg.gmres, ws)
    }

    fn gather<'r>(&self, pieces: impl Iterator<Item = &'r [f64]>) -> Vec<f64> {
        let mut x = vec![0.0; self.problem.dof_map.n_dofs()];
        for (sys, piece) in self.systems.iter().zip(pieces) {
            sys.scatter(piece, &mut x);
        }
        self.scaling.apply_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_fem::{assembly, Material};
    use parfem_krylov::gmres::fgmres;
    use parfem_mesh::{DofMap, Edge, QuadMesh};
    use parfem_msg::{run_ranks, MachineModel};
    use parfem_precond::{GlsPrecond, IdentityPrecond};
    use parfem_sparse::scaling::scale_system;

    /// One solve for the load the system was split with, from a zero
    /// initial guess, on a throwaway workspace.
    fn solve<'a, C, P>(
        comm: &'a C,
        sys: &'a RddSystem,
        precond: &P,
        cfg: &GmresConfig,
    ) -> GmresResult
    where
        C: Communicator,
        P: Preconditioner<RddOperator<'a, C>> + ?Sized,
    {
        rdd_fgmres(
            comm,
            sys,
            precond,
            &sys.b_loc,
            &vec![0.0; sys.n_local()],
            cfg,
            &mut KrylovWorkspace::new(),
        )
        .expect("fault-free solve must not error")
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
        let part = NodePartition::contiguous(n_nodes, 3);
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
        let part = NodePartition::contiguous(n_nodes, 4);
        let systems = RddSystem::build_all(&a, &b, &part);
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 % 13) as f64) - 6.0).collect();
        let want = a.spmv(&x);
        let out = run_ranks(4, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let op = RddOperator::new(sys, comm);
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
        let part = NodePartition::contiguous(n_nodes, 4);
        let systems = RddSystem::build_all(&a, &b, &part);
        let gls = GlsPrecond::for_scaled_system(5);
        let out = run_ranks(4, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let res = solve(comm, sys, &gls, &cfg);
            (res.x, res.history)
        });
        let mut x = vec![0.0; a.n_rows()];
        for (rank, (xl, _)) in out.results.iter().enumerate() {
            systems[rank].scatter(xl, &mut x);
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
        let part = NodePartition::contiguous(n_nodes, 2);
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
        let part = NodePartition::contiguous(n_nodes, 1);
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
        let part = NodePartition::contiguous(n_nodes, 3);
        let systems = RddSystem::build_all(&a, &b, &part);
        let cfg = GmresConfig {
            tol: 1e-8,
            max_iters: 5000,
            ..Default::default()
        };
        let out = run_ranks(3, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let ilu = RddLocalIlu::factorize(sys).expect("clamped blocks factorize");
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
        let part = NodePartition::contiguous(n_nodes, 2);
        let systems = RddSystem::build_all(&a, &b, &part);
        let out = run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let ilu = RddLocalIlu::factorize(sys).unwrap();
            let before = comm.stats().sends;
            let op = RddOperator::new(sys, comm);
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
        let part = NodePartition::contiguous(n_nodes, 3);
        let systems = RddSystem::build_all(&a, &b, &part);
        for sys in &systems {
            assert_eq!(sys.send_to.len(), sys.recv_from.len());
            for ((sr, sl), (rr, rl)) in sys.send_to.iter().zip(&sys.recv_from) {
                assert_eq!(sr, rr, "send/recv neighbour sets must pair");
                // My send list to neighbour matches what that neighbour
                // expects to receive from me, entry for entry.
                let other = &systems[*sr];
                let (_, their_recv) = other
                    .recv_from
                    .iter()
                    .find(|(r, _)| *r == sys.rank)
                    .expect("symmetric link");
                assert_eq!(sl.len(), their_recv.len());
                let _ = rl;
            }
        }
    }
}
