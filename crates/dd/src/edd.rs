//! Element-based domain-decomposition FGMRES (paper Algorithms 5 and 6).
//!
//! The distributed operator keeps each subdomain's stiffness **unassembled**
//! (local distributed format); one application is a purely local SpMV
//! followed by the nearest-neighbour interface sum:
//!
//! ```text
//! ȳ = ⊕Σ_{∂Ω} (Â⁽ˢ⁾ x̄)            (Eqs. 36–37 + 28)
//! ```
//!
//! taking and returning vectors in the *global distributed* format. Because
//! [`EddOperator`] implements [`LinearOperator`], the polynomial
//! preconditioners run on it verbatim — each internal matrix–vector product
//! performs its own interface exchange, exactly the paper's Algorithm 7.
//!
//! Two FGMRES variants are provided:
//! - [`EddVariant::Basic`] (Algorithm 5) keeps intermediate vectors in local
//!   distributed form, costing **three** interface exchanges per Arnoldi
//!   step (the two extra round-trips are numerically idempotent, so both
//!   variants produce bit-identical iterates);
//! - [`EddVariant::Enhanced`] (Algorithm 6) keeps everything global
//!   distributed and needs **one** exchange per step — the paper's headline
//!   communication reduction (Table 1).
//!
//! Inner products of global distributed vectors deduplicate interface
//! entries by multiplicity weighting; classical Gram–Schmidt batches all of
//! an iteration's inner products (plus `‖w‖²`) into a single all-reduce, and
//! at P ≥ 2 the post-orthogonalization norm comes from the Pythagorean
//! identity `‖w'‖² = ‖w‖² − Σh²` (with a guarded recomputation when
//! cancellation bites), keeping the global communication at one reduction
//! per iteration as Table 1 claims (see `parfem_krylov::fgmres_on`).

use crate::coarse::{edd_part_geometry, CoarsePlan};
use crate::dist_vec::{EddLayout, ExchangeBuffers};
use crate::error::SolveError;
use crate::scaling::DistributedScaling;
use crate::session::{
    build_precond, host_span, rank_span, Decomposition, PrecondBuildStats, Problem, Rank,
    SolverConfig,
};
use parfem_fem::SubdomainSystem;
use parfem_krylov::DistributedOperator;
use parfem_mesh::{ElementPartition, Subdomain};
use parfem_msg::Communicator;
use parfem_precond::twolevel::{CoarsePartGeometry, CoarseSpec};
use parfem_precond::{InterfaceConsistency, Preconditioner};
use parfem_sparse::{kernels, LinearOperator, NodeMatrix, SparseRows};
use parfem_trace::TraceSink;
use std::cell::RefCell;

/// Which of the paper's EDD algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EddVariant {
    /// Algorithm 5: three interface exchanges per Arnoldi step.
    Basic,
    /// Algorithm 6: one interface exchange per Arnoldi step.
    Enhanced,
}

/// One rank's local distributed matrix `Â⁽ˢ⁾` in the storage its physics
/// gives it: a local numbering with `B ∈ {2, 3}` DOFs per node (elasticity)
/// is `B × B` node blocks, one DOF per node (heat) is CSR — the
/// [`NodeMatrix`] the subdomain was assembled into, scaled in place. Nothing
/// selects the format, and no second copy exists.
///
/// The same storage serves the blocking matvec, the residual and the
/// overlapped interface/interior split: a node's DOFs are all shared or all
/// private, so the split falls on block rows, and each (block) row is the
/// same arithmetic in either schedule.
///
/// Flop charges are those of the scalar pattern (`2·nnz`, block fill
/// excluded), so the virtual clock does not depend on the storage.
#[derive(Debug, Clone)]
pub struct EddLocalMatrix {
    a: NodeMatrix,
    /// Block rows of the interface and interior nodes (a block row with any
    /// shared DOF counts as interface); empty for CSR, which splits over the
    /// layout's scalar row lists.
    interface: Vec<u32>,
    interior: Vec<u32>,
    /// Flops of the rows that must finish before the exchange is posted
    /// (`2·nnz` over the rows shared with a neighbour).
    interface_flops: u64,
    /// Flops of the rows overlapped with the in-flight exchange;
    /// `interface_flops + interior_flops` is [`EddLocalMatrix::spmv_flops`].
    interior_flops: u64,
}

/// Which half of the overlapped matvec to compute.
#[derive(Clone, Copy)]
enum Rows {
    Interface,
    Interior,
}

impl EddLocalMatrix {
    /// Wraps `a`, a rank's local matrix over `layout`'s numbering.
    pub fn new(a: NodeMatrix, layout: &EddLayout) -> Self {
        assert_eq!(a.n_rows(), layout.n_local(), "local matrix vs layout");
        let interface_flops = (layout.interface_rows().iter())
            .map(|&r| 2 * a.row_len(r) as u64)
            .sum();
        let (interface, interior) = match &a {
            NodeMatrix::Csr(_) => (Vec::new(), Vec::new()),
            NodeMatrix::Blocks(blocks) => {
                let b = blocks.block_size();
                let mut shared = vec![false; blocks.n_block_rows()];
                for &r in layout.interface_rows() {
                    shared[r / b] = true;
                }
                (0..shared.len() as u32).partition(|&br| shared[br as usize])
            }
        };
        EddLocalMatrix {
            interior_flops: a.spmv_flops() - interface_flops,
            a,
            interface,
            interior,
            interface_flops,
        }
    }

    /// The matrix, in its storage.
    pub fn matrix(&self) -> &NodeMatrix {
        &self.a
    }

    /// Local DOF count.
    pub fn n_rows(&self) -> usize {
        self.a.n_rows()
    }

    /// Flops of one local SpMV: `2·nnz` of the scalar pattern.
    pub fn spmv_flops(&self) -> u64 {
        self.interface_flops + self.interior_flops
    }

    /// The main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        self.a.diagonal()
    }

    /// `y = Â x` over all local rows.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.a.spmv_into(x, y)
    }

    /// One half of the split matvec; the two halves together write every
    /// row with the bits of [`EddLocalMatrix::spmv_into`].
    fn spmv_rows(&self, layout: &EddLayout, rows: Rows, x: &[f64], y: &mut [f64]) {
        match &self.a {
            NodeMatrix::Csr(a) => {
                let (row_ptr, col_idx, values) = a.raw_parts();
                let rows = match rows {
                    Rows::Interface => layout.interface_rows(),
                    Rows::Interior => layout.interior_rows(),
                };
                kernels::spmv_rows_indexed(row_ptr, col_idx, values, x, y, rows);
            }
            NodeMatrix::Blocks(a) => {
                let rows = match rows {
                    Rows::Interface => &self.interface,
                    Rows::Interior => &self.interior,
                };
                a.spmv_block_rows(x, y, rows)
            }
        }
    }
}

/// The element-based distributed operator `x̄ ↦ ⊕Σ (Â⁽ˢ⁾ x̄)`: one rank's
/// scaled local matrix, its interface layout, its communicator endpoint and
/// its persistent exchange staging, built once per rank. Every matvec, the
/// preconditioner build, the interface sums of the rank body and every
/// solve run on the same value.
pub struct EddOperator<'c, C: Communicator> {
    /// The (scaled) local distributed matrix `Â⁽ˢ⁾`.
    pub(crate) a_local: EddLocalMatrix,
    /// Interface layout.
    pub(crate) layout: EddLayout,
    /// This rank's communicator endpoint.
    pub(crate) comm: &'c C,
    /// Which of the paper's EDD algorithms the flexible-preconditioning
    /// step follows.
    variant: EddVariant,
    /// Matvecs run the overlapped interface/interior split: overlap was
    /// asked for and the rank has a neighbour to overlap with.
    split: bool,
    /// Persistent interface-exchange staging, behind interior mutability
    /// because [`LinearOperator::apply_into`] takes `&self`. Every operator
    /// application reuses these buffers, so repeated matvecs (each
    /// polynomial-preconditioner term, every Arnoldi step) allocate nothing.
    bufs: RefCell<ExchangeBuffers>,
    /// Separate staging for the residual recomputes, the basic variant's
    /// re-sums and [`EddOperator::interface_sum`], so they never contend
    /// with an in-flight matvec exchange.
    xbufs: RefCell<ExchangeBuffers>,
}

impl<'c, C: Communicator> EddOperator<'c, C> {
    /// The global operator over a subdomain's local distributed matrix,
    /// following `variant`; with `overlap` every matvec posts its interface
    /// exchange nonblocking and computes the interior rows while the
    /// messages fly (bit-identical results; only the modeled time changes).
    pub fn new(
        a_local: EddLocalMatrix,
        layout: EddLayout,
        comm: &'c C,
        variant: EddVariant,
        overlap: bool,
    ) -> Self {
        EddOperator {
            split: overlap && !layout.neighbors.is_empty(),
            a_local,
            layout,
            comm,
            variant,
            bufs: RefCell::new(ExchangeBuffers::new()),
            xbufs: RefCell::new(ExchangeBuffers::new()),
        }
    }

    /// The interface sum `v ← ⊕Σ v` (Eq. 28), local distributed → global
    /// distributed, through the operator's own staging.
    pub(crate) fn interface_sum(&self, v: &mut [f64]) {
        self.layout
            .interface_sum_buffered(self.comm, v, &mut self.xbufs.borrow_mut());
    }

    fn trace_spmv(&self) {
        if let Some(tracer) = self.comm.tracer() {
            tracer.add_count("spmv_calls", 1);
            tracer.add_count("spmv_rows", self.a_local.n_rows() as u64);
            tracer.add_count("spmv_flops", self.a_local.spmv_flops());
        }
    }
}

impl<C: Communicator> LinearOperator for EddOperator<'_, C> {
    fn dim(&self) -> usize {
        self.a_local.n_rows()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let a = &self.a_local;
        if self.split {
            // Overlapped schedule: finish only the interface rows, post the
            // exchange, and compute the interior rows while the messages
            // fly. Each (block) row is the identical arithmetic in either
            // schedule, and the received contributions are added in the
            // same neighbour order, so the result is bit-identical to the
            // blocking path — only the modeled time changes.
            a.spmv_rows(&self.layout, Rows::Interface, x, y);
            self.comm.work(a.interface_flops);
            self.trace_spmv();
            self.layout
                .interface_sum_split(self.comm, y, &mut self.bufs.borrow_mut(), |y| {
                    a.spmv_rows(&self.layout, Rows::Interior, x, y);
                    self.comm.work(a.interior_flops);
                });
        } else {
            a.spmv_into(x, y);
            self.comm.work(a.spmv_flops());
            self.trace_spmv();
            self.layout
                .interface_sum_buffered(self.comm, y, &mut self.bufs.borrow_mut());
        }
    }

    fn apply_flops(&self) -> u64 {
        self.a_local.spmv_flops()
    }
}

/// EDD local vectors replicate interface entries, so an exact rank-local
/// solve leaves the sharing ranks disagreeing there. The partition-of-unity
/// average `z ← ⊕Σ z/mult` (multiplicity weighting followed by the Eq. 28
/// neighbour sum) restores the replication invariant — this is what turns
/// the registry's `direct` spec into a multiplicity-weighted additive
/// Schwarz step on EDD operators.
impl<C: Communicator> InterfaceConsistency for EddOperator<'_, C> {
    fn make_consistent(&self, z: &mut [f64]) {
        self.layout.to_local_distributed(z);
        self.layout
            .interface_sum_buffered(self.comm, z, &mut self.bufs.borrow_mut());
    }

    fn local_work(&self, flops: u64) {
        self.comm.work(flops);
    }
}

impl<C: Communicator> DistributedOperator for EddOperator<'_, C> {
    type Comm = C;
    type PrecondOp = Self;

    fn comm(&self) -> &C {
        self.comm
    }

    fn precond_op(&self) -> &Self {
        self
    }

    /// `r ← ⊕Σ (b_local − A_local x)` for `b_local` in local distributed
    /// format: the global distributed residual, staged through the
    /// persistent exchange buffers.
    fn residual_into(&self, b_local: &[f64], x: &[f64], r: &mut [f64]) {
        self.a_local.spmv_into(x, r);
        self.comm.work(self.a_local.spmv_flops());
        for (ri, bi) in r.iter_mut().zip(b_local) {
            *ri = bi - *ri;
        }
        self.comm.work(r.len() as u64);
        self.interface_sum(r);
    }

    fn dot_partial(&self, x: &[f64], y: &[f64]) -> f64 {
        self.layout.dot_partial(x, y)
    }

    fn dot_flops_factor(&self) -> u64 {
        3 // multiply, multiplicity weight, accumulate
    }

    fn kernel_variant(&self) -> &'static str {
        self.a_local.matrix().kernel_label()
    }

    /// Four basis vectors per pass over `w`, `⟨w, w⟩` riding in the last
    /// pass; every entry is bit-identical to its own
    /// [`EddLayout::dot_partial`].
    fn gs_dots(&self, w: &[f64], basis: &[Vec<f64>], reduce: &mut [f64]) {
        kernels::dot_sweep_weighted(w, basis, &self.layout.inv_multiplicity, reduce);
    }

    fn apply_precond<P>(
        &self,
        precond: &P,
        v_j: &[f64],
        z_j: &mut [f64],
        scratch: &mut [Vec<f64>],
        w_tmp: &mut [f64],
    ) where
        P: Preconditioner<Self> + ?Sized,
    {
        if self.variant == EddVariant::Basic {
            // Algorithm 5 keeps the basis local-distributed: converting
            // it back to global costs an extra exchange (numerically a
            // no-op). `w_tmp` is free until the post-precondition matvec.
            w_tmp.copy_from_slice(v_j);
            self.layout.to_local_distributed(w_tmp);
            self.comm.work(w_tmp.len() as u64);
            self.interface_sum(w_tmp);
            precond.apply_scratch(self, w_tmp, z_j, scratch);
            // Algorithm 5 stores z local-distributed and re-sums it.
            self.layout.to_local_distributed(z_j);
            self.comm.work(z_j.len() as u64);
            self.interface_sum(z_j);
        } else {
            precond.apply_scratch(self, v_j, z_j, scratch);
        }
    }
}

/// The EDD side of the session engine's strategy seam: unassembled
/// subdomain systems, scaled on the ranks (Algorithms 3–4). The host keeps
/// the subdomains and their dof topology (what `gather` and the coarse
/// geometry read); every rank assembles its own system.
pub(crate) struct EddParts<'a> {
    problem: &'a Problem<'a>,
    subdomains: Vec<Subdomain>,
    global_dofs: Vec<Vec<usize>>,
}

impl<'a> EddParts<'a> {
    /// Partitions the mesh and numbers each subdomain's dofs under host-side
    /// spans; no element matrix is computed here.
    pub(crate) fn partition(p: &'a Problem<'a>, part: &ElementPartition, sink: &TraceSink) -> Self {
        let subdomains = host_span(sink, "partition", || part.subdomains_of(&p.mesh()));
        let global_dofs = host_span(sink, "assembly", || {
            (subdomains.iter())
                .map(|s| SubdomainSystem::global_dofs_of(p.dof_map, s))
                .collect()
        });
        EddParts {
            problem: p,
            subdomains,
            global_dofs,
        }
    }
}

impl<'a> Decomposition for EddParts<'a> {
    type Op<'c, C: Communicator + 'c> = EddOperator<'c, C>;

    fn n_ranks(&self) -> usize {
        self.subdomains.len()
    }

    fn label(&self, cfg: &SolverConfig) -> &'static str {
        match cfg.variant {
            EddVariant::Basic => "edd-basic",
            EddVariant::Enhanced => "edd-enhanced",
        }
    }

    /// Constrained dofs come from the problem's `DofMap`.
    fn coarse_geometry(&self, _: &CoarseSpec) -> Vec<CoarsePartGeometry> {
        let dm = self.problem.dof_map;
        let fixed = |r: usize, l: usize| dm.is_fixed(self.global_dofs[r][l]);
        let coords = self.problem.mesh().coords3();
        let parts = self.global_dofs.iter().map(Vec::as_slice);
        edd_part_geometry(parts, fixed, &coords, dm.dofs_per_node())
    }

    /// The rank assembles its subdomain system under the `assembly` rank
    /// span, charging the discretization's
    /// [`assembly_flops`](parfem_fem::Discretization::assembly_flops) — with
    /// a mass shift ᾱ also its lumped mass vector, and the stiffness shifted
    /// in place into [`SubdomainSystem::effective_local`] `ᾱM̂ + K̂` — then
    /// distributed scaling under the `scaling` rank span (the matrix and
    /// the load scaled in place), builds its one [`EddOperator`] and the
    /// preconditioner over it. Every arm, `direct` and `twolevel:*`
    /// included, reads the operator's own matrix: one matrix is live per rank
    /// throughout a run.
    fn rank_setup<'c, C: Communicator>(
        &self,
        comm: &'c C,
        coarse: Option<CoarsePlan<'_>>,
        mass_shift: Option<f64>,
        cfg: &SolverConfig,
    ) -> Result<(Rank<EddOperator<'c, C>>, PrecondBuildStats), SolveError> {
        let (sub, p) = (&self.subdomains[comm.rank()], self.problem);
        let mut sys = rank_span(comm, "assembly", || {
            let (disc, dm, loads) = (p.discretization, p.dof_map, p.loads);
            let sys =
                SubdomainSystem::build(disc, dm, p.material, sub, loads, mass_shift.is_some());
            comm.work(disc.assembly_flops(sub.elements.len()));
            sys
        });
        if let Some(alpha) = mass_shift {
            sys.effective_local(alpha);
        }
        let layout = EddLayout::from_system(&sys);
        let SubdomainSystem {
            k_local,
            f_local: mut b,
            global_dofs,
            multiplicity,
            mass,
            ..
        } = sys;
        let (op, d) = rank_span(comm, "scaling", || {
            let scaling = DistributedScaling::build(comm, &layout, &k_local);
            let a = scaling.apply(k_local, &mut b, &layout);
            let op = EddOperator::new(a, layout, comm, cfg.variant, cfg.overlap);
            (op, scaling.d)
        });
        let (precond, stats) = build_precond(
            &op,
            coarse,
            &multiplicity,
            &d,
            op.a_local.matrix(),
            || {
                let mut diag = op.a_local.diagonal();
                op.interface_sum(&mut diag);
                diag
            },
            &cfg.precond,
        )?;
        let rank = Rank {
            op,
            dofs: global_dofs,
            multiplicity: Some(multiplicity),
            d,
            b,
            mass,
            precond,
        };
        Ok((rank, stats))
    }

    /// The interface sum `⊕Σ` (Eq. 28): local distributed → global
    /// distributed.
    fn make_consistent<C: Communicator>(op: &EddOperator<'_, C>, v: &mut [f64]) {
        op.interface_sum(v);
    }

    /// Global distributed values are identical on every sharing rank.
    fn gather<'r>(&self, pieces: impl Iterator<Item = &'r [f64]>) -> Vec<f64> {
        let mut u = vec![0.0; self.problem.dof_map.n_dofs()];
        for (rank, piece) in pieces.enumerate() {
            for (&g, &v) in self.global_dofs[rank].iter().zip(piece) {
                u[g] = v;
            }
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::{edd_scaling_reference, DistributedScaling};
    use parfem_fem::{assembly, Material, SubdomainSystem};
    use parfem_krylov::gmres::{fgmres, fgmres_on, GmresConfig};
    use parfem_krylov::history::ConvergenceHistory;
    use parfem_krylov::KrylovWorkspace;
    use parfem_mesh::{DofMap, Edge, ElementPartition, QuadMesh};
    use parfem_msg::{run_ranks, MachineModel};
    use parfem_precond::{GlsPrecond, IdentityPrecond, NeumannPrecond};
    use parfem_sparse::{dense, BcsrMatrix, CsrMatrix};

    struct Fixture {
        systems: Vec<SubdomainSystem>,
        k: CsrMatrix,
        f: Vec<f64>,
        n: usize,
    }

    fn fixture(nx: usize, ny: usize, p: usize) -> Fixture {
        let mesh = QuadMesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
        let part = ElementPartition::strips_x(&mesh, p);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
            .collect();
        let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
        Fixture {
            systems,
            k: sys.stiffness,
            f: sys.rhs,
            n: dm.n_dofs(),
        }
    }

    /// Runs the parallel EDD solve and returns (global solution, history).
    fn run_edd(
        fx: &Fixture,
        p: usize,
        degree: usize,
        variant: EddVariant,
        cfg: &GmresConfig,
    ) -> (Vec<f64>, ConvergenceHistory, Vec<parfem_msg::RankReport>) {
        let gls = (degree > 0).then(|| GlsPrecond::for_scaled_system(degree));
        let out = run_ranks(p, MachineModel::ideal(), |comm| {
            let sys = &fx.systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
            let mut b = sys.f_local.clone();
            let a = sc.apply(sys.k_local.clone(), &mut b, &layout);
            let op = EddOperator::new(a, layout, comm, variant, false);
            let x0 = vec![0.0; b.len()];
            let ws = &mut KrylovWorkspace::new();
            let res = match &gls {
                Some(g) => fgmres_on(&op, g, &b, &x0, cfg, ws),
                None => fgmres_on(&op, &IdentityPrecond, &b, &x0, cfg, ws),
            }
            .expect("fault-free solve must not error");
            let mut u = res.x;
            dense::diag_mul(&sc.d, &mut u);
            (u, res.history)
        });
        // Gather: global-distributed values are identical at interfaces.
        let mut u = vec![0.0; fx.n];
        for (rank, (ul, _)) in out.results.iter().enumerate() {
            for (l, &g) in fx.systems[rank].global_dofs.iter().enumerate() {
                u[g] = ul[l];
            }
        }
        let history = out.results[0].1.clone();
        (u, history, out.reports)
    }

    /// Sequential reference with the *same* (distributed-sum) scaling, over
    /// CSR or — `blocked` — the 2×2 node blocks the EDD ranks apply.
    fn run_seq(
        fx: &Fixture,
        degree: usize,
        cfg: &GmresConfig,
        blocked: bool,
    ) -> (Vec<f64>, ConvergenceHistory) {
        fn solve<Op: LinearOperator>(
            a: &Op,
            degree: usize,
            b: &[f64],
            cfg: &GmresConfig,
        ) -> parfem_krylov::gmres::GmresResult {
            let x0 = vec![0.0; b.len()];
            if degree > 0 {
                fgmres(a, &GlsPrecond::for_scaled_system(degree), b, &x0, cfg)
            } else {
                fgmres(a, &IdentityPrecond, b, &x0, cfg)
            }
        }
        let sc = edd_scaling_reference(&fx.systems, fx.n);
        let a = sc.scale_matrix(&fx.k);
        let b = sc.scale_rhs(&fx.f);
        let res = if blocked {
            let blocks = BcsrMatrix::from_csr(&a, 2).expect("two DOFs per node");
            solve(&blocks, degree, &b, cfg)
        } else {
            solve(&a, degree, &b, cfg)
        };
        (sc.unscale_solution(&res.x), res.history)
    }

    #[test]
    fn parallel_solution_solves_the_physical_system() {
        let fx = fixture(8, 3, 4);
        let cfg = GmresConfig {
            tol: 1e-9,
            ..Default::default()
        };
        let (u, history, _) = run_edd(&fx, 4, 7, EddVariant::Enhanced, &cfg);
        assert!(history.converged(), "stop: {:?}", history.stop);
        let r = fx.k.spmv(&u);
        let err: f64 = r
            .iter()
            .zip(&fx.f)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        let scale: f64 = fx.f.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-6 * scale.max(1.0), "residual {err}");
    }

    #[test]
    fn parallel_matches_sequential_iterate_for_iterate() {
        let fx = fixture(8, 2, 4);
        let cfg = GmresConfig {
            tol: 1e-8,
            ..Default::default()
        };
        let (u_par, h_par, _) = run_edd(&fx, 4, 5, EddVariant::Enhanced, &cfg);
        let (u_seq, h_seq) = run_seq(&fx, 5, &cfg, false);
        assert_eq!(
            h_par.iterations(),
            h_seq.iterations(),
            "iteration counts must match"
        );
        for (a, b) in h_par
            .relative_residuals
            .iter()
            .zip(&h_seq.relative_residuals)
        {
            assert!((a - b).abs() < 1e-8 * (1.0 + b), "residual curves differ");
        }
        for (a, b) in u_par.iter().zip(&u_seq) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn basic_and_enhanced_variants_agree_numerically() {
        let fx = fixture(6, 2, 3);
        let cfg = GmresConfig {
            tol: 1e-8,
            ..Default::default()
        };
        let (u_b, h_b, rep_b) = run_edd(&fx, 3, 3, EddVariant::Basic, &cfg);
        let (u_e, h_e, rep_e) = run_edd(&fx, 3, 3, EddVariant::Enhanced, &cfg);
        assert_eq!(h_b.iterations(), h_e.iterations());
        for (a, b) in u_b.iter().zip(&u_e) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()));
        }
        // Table 1: the basic variant pays two extra exchanges per step.
        let ex_b = rep_b[0].stats.neighbor_exchanges;
        let ex_e = rep_e[0].stats.neighbor_exchanges;
        let iters = h_b.iterations() as u64;
        assert_eq!(
            ex_b - ex_e,
            2 * iters,
            "basic {ex_b} vs enhanced {ex_e} over {iters} iterations"
        );
    }

    #[test]
    fn enhanced_variant_uses_one_exchange_per_iteration_plus_precond() {
        let fx = fixture(6, 2, 2);
        let cfg = GmresConfig {
            tol: 1e-8,
            ..Default::default()
        };
        let degree = 4;
        let (_, h, rep) = run_edd(&fx, 2, degree, EddVariant::Enhanced, &cfg);
        let iters = h.iterations() as u64;
        let restarts = h.restarts as u64;
        // Exchanges: 1 for the distributed scaling (Algorithm 3), 1 for the
        // initial residual, 1 per restart residual recompute, and per
        // iteration 1 matvec + `degree` preconditioner matvecs.
        let expected = 2 + restarts + iters * (1 + degree as u64);
        assert_eq!(rep[0].stats.neighbor_exchanges, expected);
    }

    #[test]
    fn single_rank_matches_sequential_exactly() {
        let fx = fixture(5, 2, 1);
        let cfg = GmresConfig {
            tol: 1e-9,
            ..Default::default()
        };
        let (u_par, h_par, _) = run_edd(&fx, 1, 7, EddVariant::Enhanced, &cfg);
        let (u_seq, h_seq) = run_seq(&fx, 7, &cfg, true);
        assert_eq!(h_par.iterations(), h_seq.iterations());
        for (a, b) in u_par.iter().zip(&u_seq) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn block_storage_is_labelled_and_within_reassociation_bound_of_csr() {
        let fx = fixture(5, 2, 2);
        let out = run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &fx.systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            assert_eq!(layout.dofs_per_node(), 2);
            let a = EddLocalMatrix::new(sys.k_local.clone(), &layout);
            assert_eq!(a.spmv_flops(), sys.k_local.spmv_flops());
            let n = sys.k_local.n_rows();
            let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.5 - 3.0).collect();
            let mut got = vec![0.0; n];
            let op = EddOperator::new(a.clone(), layout.clone(), comm, EddVariant::Enhanced, false);
            assert_eq!(op.kernel_variant(), "bcsr2");
            op.apply_into(&x, &mut got);
            // The overlapped split runs the same storage, block row by
            // block row: same label, same bits.
            let split_op = EddOperator::new(a, layout.clone(), comm, EddVariant::Enhanced, true);
            assert_eq!(split_op.kernel_variant(), "bcsr2");
            let mut split = vec![f64::NAN; n];
            split_op.apply_into(&x, &mut split);
            assert_eq!(split, got);
            // The CSR reference and the row-sum reassociation bound of the
            // sparse proptests, interface-summed like the product itself: a
            // shared row may be off by the sum of its sharers' local bounds.
            let csr = CsrMatrix::from_rows(&sys.k_local);
            let mut want = csr.spmv(&x);
            layout.interface_sum_buffered(comm, &mut want, &mut ExchangeBuffers::new());
            let (row_ptr, col_idx, values) = csr.raw_parts();
            let mut bound: Vec<f64> = (0..n)
                .map(|r| {
                    let row = row_ptr[r]..row_ptr[r + 1];
                    let mag: f64 = row.clone().map(|e| (values[e] * x[col_idx[e]]).abs()).sum();
                    4.0 * (row.len() + 1) as f64 * f64::EPSILON * (mag + 1.0)
                })
                .collect();
            layout.interface_sum_buffered(comm, &mut bound, &mut ExchangeBuffers::new());
            (got, want, bound)
        });
        for (got, want, bound) in &out.results {
            for ((g, w), b) in got.iter().zip(want).zip(bound) {
                assert!((g - w).abs() <= *b, "blocks {g} vs csr {w}");
            }
        }
    }

    #[test]
    fn one_dof_per_node_keeps_the_csr_kernels_bit_for_bit() {
        let mesh = QuadMesh::cantilever(4, 2);
        let dm = DofMap::with_dofs(mesh.n_nodes(), 1);
        let loads = vec![1.0; dm.n_dofs()];
        let part = ElementPartition::strips_x(&mesh, 2);
        let heat = parfem_fem::Discretization::new(&mesh, parfem_fem::Physics::Heat2d);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(heat, &dm, &Material::unit(), s, &loads, false))
            .collect();
        run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            assert_eq!(layout.dofs_per_node(), 1);
            let a = EddLocalMatrix::new(sys.k_local.clone(), &layout);
            assert!(matches!(a.matrix(), NodeMatrix::Csr(_)));
            assert_eq!(a.matrix(), &sys.k_local);
            let x: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + 0.25 * i as f64).collect();
            let mut want = CsrMatrix::from_rows(&sys.k_local).spmv(&x);
            layout.interface_sum_buffered(comm, &mut want, &mut ExchangeBuffers::new());
            for overlap in [false, true] {
                let (a, layout) = (a.clone(), layout.clone());
                let op = EddOperator::new(a, layout, comm, EddVariant::Enhanced, overlap);
                assert_eq!(op.kernel_variant(), "csr");
                let mut got = vec![f64::NAN; x.len()];
                op.apply_into(&x, &mut got);
                assert_eq!(got, want, "overlap {overlap}");
            }
        });
    }

    #[test]
    fn gs_dots_sweep_is_bit_identical_to_per_vector_dot_partial() {
        let fx = fixture(6, 3, 2);
        run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &fx.systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let a = EddLocalMatrix::new(sys.k_local.clone(), &layout);
            let op = EddOperator::new(a, layout.clone(), comm, EddVariant::Enhanced, false);
            let n = layout.n_local();
            let vec = |seed: usize| -> Vec<f64> {
                (0..n)
                    .map(|i| ((i * 37 + seed * 101) % 211) as f64 / 53.0 - 2.0)
                    .collect()
            };
            let w = vec(0);
            for cnt in 0..=9 {
                let basis: Vec<Vec<f64>> = (1..=cnt).map(vec).collect();
                let mut reduce = vec![f64::NAN; cnt + 1];
                op.gs_dots(&w, &basis, &mut reduce);
                for (got, v) in reduce.iter().zip(basis.iter().chain([&w])) {
                    assert_eq!(got.to_bits(), layout.dot_partial(&w, v).to_bits(), "{cnt}");
                }
            }
        });
    }

    #[test]
    fn unpreconditioned_edd_converges_but_slower() {
        let fx = fixture(6, 2, 2);
        let cfg = GmresConfig {
            tol: 1e-7,
            max_iters: 2000,
            ..Default::default()
        };
        let (_, h_plain, _) = run_edd(&fx, 2, 0, EddVariant::Enhanced, &cfg);
        let (_, h_gls, _) = run_edd(&fx, 2, 7, EddVariant::Enhanced, &cfg);
        assert!(h_plain.converged() && h_gls.converged());
        assert!(
            h_gls.iterations() < h_plain.iterations(),
            "gls {} vs plain {}",
            h_gls.iterations(),
            h_plain.iterations()
        );
    }

    #[test]
    fn neumann_preconditioner_runs_distributed() {
        let fx = fixture(6, 2, 3);
        let cfg = GmresConfig {
            tol: 1e-7,
            max_iters: 3000,
            ..Default::default()
        };
        let p = NeumannPrecond::for_scaled_system(10);
        let out = run_ranks(3, MachineModel::ideal(), |comm| {
            let sys = &fx.systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
            let mut b = sys.f_local.clone();
            let a = sc.apply(sys.k_local.clone(), &mut b, &layout);
            let op = EddOperator::new(a, layout, comm, EddVariant::Enhanced, false);
            let x0 = vec![0.0; b.len()];
            let res = fgmres_on(&op, &p, &b, &x0, &cfg, &mut KrylovWorkspace::new())
                .expect("fault-free solve must not error");
            let mut u = res.x;
            dense::diag_mul(&sc.d, &mut u);
            (u, res.history.converged())
        });
        assert!(out.results.iter().all(|(_, c)| *c));
        let mut u = vec![0.0; fx.n];
        for (rank, (ul, _)) in out.results.iter().enumerate() {
            for (l, &g) in fx.systems[rank].global_dofs.iter().enumerate() {
                u[g] = ul[l];
            }
        }
        let r = fx.k.spmv(&u);
        let err: f64 = r
            .iter()
            .zip(&fx.f)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-4, "residual {err}");
    }
}
