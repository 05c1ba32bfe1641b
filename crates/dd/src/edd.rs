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
    build_precond, host_span, Decomposition, PrecondBuildStats, Problem, SolverConfig,
};
use parfem_fem::SubdomainSystem;
use parfem_krylov::gmres::{fgmres_on, GmresConfig, GmresResult};
use parfem_krylov::{DistributedOperator, KrylovWorkspace};
use parfem_mesh::{ElementPartition, Subdomain};
use parfem_msg::Communicator;
use parfem_precond::twolevel::{CoarsePartGeometry, CoarseSpec, SpecPrecond};
use parfem_precond::{InterfaceConsistency, Preconditioner};
use parfem_sparse::{dense, kernels, BcsrMatrix, CsrMatrix, LinearOperator};
use parfem_trace::TraceSink;
use std::borrow::Cow;
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
/// is `B × B` node blocks, one DOF per node (heat) is CSR. Nothing selects
/// the format — it follows from [`EddLayout::dofs_per_node`].
///
/// The same storage serves the blocking matvec, the residual and the
/// overlapped interface/interior split: a node's DOFs are all shared or all
/// private, so the split falls on block rows, and each (block) row is the
/// same arithmetic in either schedule.
///
/// Flop charges are those of the source pattern (`2·nnz`, block fill
/// excluded), so the virtual clock does not depend on the storage.
#[derive(Debug, Clone)]
pub struct EddLocalMatrix {
    storage: LocalStorage,
    /// Flops of the rows that must finish before the exchange is posted
    /// (`2·nnz` over the source rows shared with a neighbour).
    interface_flops: u64,
    /// Flops of the rows overlapped with the in-flight exchange;
    /// `interface_flops + interior_flops` is [`EddLocalMatrix::spmv_flops`].
    interior_flops: u64,
}

#[derive(Debug, Clone)]
enum LocalStorage {
    /// One DOF per node: the CSR kernels, split over the layout's row lists.
    Csr(CsrMatrix),
    /// Node blocks, with the block rows of the interface and interior nodes
    /// (a block row with any shared DOF counts as interface).
    Blocks {
        a: BcsrMatrix,
        interface: Vec<u32>,
        interior: Vec<u32>,
    },
}

/// Which half of the overlapped matvec to compute.
#[derive(Clone, Copy)]
enum Rows {
    Interface,
    Interior,
}

impl EddLocalMatrix {
    /// Copies `a` (a rank's local matrix over `layout`'s numbering) into
    /// the storage the layout's DOFs per node give it.
    pub fn new(a: &CsrMatrix, layout: &EddLayout) -> Self {
        Self::build(a, None, layout)
    }

    /// The scaled matrix `D̂ K̂ D̂` of Algorithm 4, built in one pass from the
    /// unscaled `k_local`: block storage never sees a scaled CSR copy.
    pub fn scaled(k_local: &CsrMatrix, d: &[f64], layout: &EddLayout) -> Self {
        Self::build(k_local, Some(d), layout)
    }

    fn build(k: &CsrMatrix, d: Option<&[f64]>, layout: &EddLayout) -> Self {
        assert_eq!(k.n_rows(), layout.n_local(), "local matrix vs layout");
        let b = layout.dofs_per_node();
        let blocks = match d {
            Some(d) => BcsrMatrix::from_csr_scaled(k, b, d),
            None => BcsrMatrix::from_csr(k, b),
        };
        let row_ptr = k.raw_parts().0;
        let row_flops = |r: usize| 2 * (row_ptr[r + 1] - row_ptr[r]) as u64;
        let (storage, interface_flops) = match blocks {
            Some(a) => {
                let mut shared = vec![false; a.n_block_rows()];
                for &r in layout.interface_rows() {
                    shared[r / b] = true;
                }
                let (interface, interior): (Vec<u32>, Vec<u32>) =
                    (0..shared.len() as u32).partition(|&br| shared[br as usize]);
                let flops = (interface.iter())
                    .flat_map(|&br| (0..b).map(move |i| br as usize * b + i))
                    .map(row_flops)
                    .sum();
                let storage = LocalStorage::Blocks {
                    a,
                    interface,
                    interior,
                };
                (storage, flops)
            }
            None => {
                let mut a = k.clone();
                if let Some(d) = d {
                    a.scale_symmetric(d);
                }
                let flops = layout.interface_rows().iter().map(|&r| row_flops(r)).sum();
                (LocalStorage::Csr(a), flops)
            }
        };
        EddLocalMatrix {
            storage,
            interface_flops,
            interior_flops: k.spmv_flops() - interface_flops,
        }
    }

    /// Local DOF count.
    pub fn n_rows(&self) -> usize {
        match &self.storage {
            LocalStorage::Csr(a) => a.n_rows(),
            LocalStorage::Blocks { a, .. } => a.n_rows(),
        }
    }

    /// Flops of one local SpMV: `2·nnz` of the source pattern.
    pub fn spmv_flops(&self) -> u64 {
        self.interface_flops + self.interior_flops
    }

    /// The kernel that applies this matrix, as traces and reports name it:
    /// `csr`, `bcsr2` or `bcsr3`.
    pub fn kernel_label(&self) -> &'static str {
        match &self.storage {
            LocalStorage::Csr(_) => "csr",
            LocalStorage::Blocks { a, .. } if a.block_size() == 2 => "bcsr2",
            LocalStorage::Blocks { .. } => "bcsr3",
        }
    }

    /// The CSR matrix, when that is the storage.
    pub fn as_csr(&self) -> Option<&CsrMatrix> {
        match &self.storage {
            LocalStorage::Csr(a) => Some(a),
            LocalStorage::Blocks { .. } => None,
        }
    }

    /// The main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        match &self.storage {
            LocalStorage::Csr(a) => a.diagonal(),
            LocalStorage::Blocks { a, .. } => a.diagonal(),
        }
    }

    /// `y = Â x` over all local rows.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        match &self.storage {
            LocalStorage::Csr(a) => a.spmv_into(x, y),
            LocalStorage::Blocks { a, .. } => a.spmv_into(x, y),
        }
    }

    /// One half of the split matvec; the two halves together write every
    /// row with the bits of [`EddLocalMatrix::spmv_into`].
    fn spmv_rows(&self, layout: &EddLayout, rows: Rows, x: &[f64], y: &mut [f64]) {
        match (&self.storage, rows) {
            (LocalStorage::Csr(a), _) => {
                let (row_ptr, col_idx, values) = a.raw_parts();
                let rows = match rows {
                    Rows::Interface => layout.interface_rows(),
                    Rows::Interior => layout.interior_rows(),
                };
                kernels::spmv_rows_indexed(row_ptr, col_idx, values, x, y, rows);
            }
            (LocalStorage::Blocks { a, interface, .. }, Rows::Interface) => {
                a.spmv_block_rows(x, y, interface)
            }
            (LocalStorage::Blocks { a, interior, .. }, Rows::Interior) => {
                a.spmv_block_rows(x, y, interior)
            }
        }
    }
}

/// The element-based distributed operator `x̄ ↦ ⊕Σ (Â⁽ˢ⁾ x̄)`.
pub struct EddOperator<'a, C: Communicator> {
    /// The (scaled) local distributed matrix `Â⁽ˢ⁾`.
    pub a_local: &'a EddLocalMatrix,
    /// Interface layout.
    pub layout: &'a EddLayout,
    /// This rank's communicator endpoint.
    pub comm: &'a C,
    /// The CSR rows of `a_local`, while a setup that walks matrix rows (the
    /// two-level coarse build) runs over this operator.
    rows: Option<&'a CsrMatrix>,
    /// Which of the paper's EDD algorithms the flexible-preconditioning
    /// step follows.
    variant: EddVariant,
    /// Persistent interface-exchange staging, behind interior mutability
    /// because [`LinearOperator::apply_into`] takes `&self`. Every operator
    /// application reuses these buffers, so repeated matvecs (each
    /// polynomial-preconditioner term, every Arnoldi step) allocate nothing.
    bufs: RefCell<ExchangeBuffers>,
    /// Separate staging for the residual recomputes and the basic variant's
    /// re-sums, so they never contend with an in-flight matvec exchange.
    xbufs: RefCell<ExchangeBuffers>,
}

impl<'a, C: Communicator> EddOperator<'a, C> {
    /// Wraps a subdomain's local distributed matrix as the global operator.
    pub fn new(a_local: &'a EddLocalMatrix, layout: &'a EddLayout, comm: &'a C) -> Self {
        Self::with_variant(a_local, layout, comm, EddVariant::Enhanced)
    }

    /// Like [`EddOperator::new`], for a solve that follows `variant`.
    fn with_variant(
        a_local: &'a EddLocalMatrix,
        layout: &'a EddLayout,
        comm: &'a C,
        variant: EddVariant,
    ) -> Self {
        EddOperator {
            a_local,
            layout,
            comm,
            rows: None,
            variant,
            bufs: RefCell::new(ExchangeBuffers::new()),
            xbufs: RefCell::new(ExchangeBuffers::new()),
        }
    }

    /// Lends the operator the CSR rows of its matrix — what
    /// [`parfem_precond::twolevel::CoarseSetup::local_rows`] hands the
    /// coarse build. `rows` must hold the values of `a_local`.
    pub fn with_rows(mut self, rows: &'a CsrMatrix) -> Self {
        assert_eq!(rows.n_rows(), self.a_local.n_rows(), "rows vs operator");
        self.rows = Some(rows);
        self
    }

    /// The CSR rows a row-walking setup reads: the matrix itself when it is
    /// stored as CSR, else the rows lent by [`EddOperator::with_rows`].
    pub(crate) fn rows(&self) -> &CsrMatrix {
        (self.a_local.as_csr().or(self.rows))
            .expect("EddOperator: a row-walking setup over block storage needs with_rows")
    }

    /// `true` when matvecs run the overlapped interface/interior split.
    fn split_schedule(&self) -> bool {
        self.layout.overlap() && !self.layout.neighbors.is_empty()
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
        let a = self.a_local;
        if self.split_schedule() {
            // Overlapped schedule: finish only the interface rows, post the
            // exchange, and compute the interior rows while the messages
            // fly. Each (block) row is the identical arithmetic in either
            // schedule, and the received contributions are added in the
            // same neighbour order, so the result is bit-identical to the
            // blocking path — only the modeled time changes.
            a.spmv_rows(self.layout, Rows::Interface, x, y);
            self.comm.work(a.interface_flops);
            self.trace_spmv();
            self.layout
                .interface_sum_split(self.comm, y, &mut self.bufs.borrow_mut(), |y| {
                    a.spmv_rows(self.layout, Rows::Interior, x, y);
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
        self.layout
            .interface_sum_buffered(self.comm, r, &mut self.xbufs.borrow_mut());
    }

    fn dot_partial(&self, x: &[f64], y: &[f64]) -> f64 {
        self.layout.dot_partial(x, y)
    }

    fn dot_flops_factor(&self) -> u64 {
        3 // multiply, multiplicity weight, accumulate
    }

    fn kernel_variant(&self) -> &'static str {
        self.a_local.kernel_label()
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
            self.layout
                .interface_sum_buffered(self.comm, w_tmp, &mut self.xbufs.borrow_mut());
            precond.apply_scratch(self, w_tmp, z_j, scratch);
            // Algorithm 5 stores z local-distributed and re-sums it.
            self.layout.to_local_distributed(z_j);
            self.comm.work(z_j.len() as u64);
            self.layout
                .interface_sum_buffered(self.comm, z_j, &mut self.xbufs.borrow_mut());
        } else {
            precond.apply_scratch(self, v_j, z_j, scratch);
        }
    }
}

/// Distributed power iteration for `λ_max` of the EDD operator.
///
/// Runs the same Rayleigh-quotient iteration as
/// [`parfem_sparse::gershgorin::power_iteration_lambda_max`] but with
/// deduplicated (multiplicity-weighted) inner products and the interface
/// exchange inside the operator — so a spectrum estimate `Θ` can be
/// measured *in place* on the distributed system, without ever assembling
/// it (the paper's Fig. 10 study needs exactly this).
///
/// Deterministic: starts from the restriction of a fixed pseudo-random
/// global vector, so every rank iterates on a consistent state.
pub fn edd_lambda_max<C: Communicator>(
    comm: &C,
    layout: &EddLayout,
    a_local: &EddLocalMatrix,
    global_dofs: &[usize],
    max_iters: usize,
    tol: f64,
) -> f64 {
    let op = EddOperator::new(a_local, layout, comm);
    let n = a_local.n_rows();
    assert_eq!(global_dofs.len(), n, "global dof map length mismatch");
    // Deterministic start: hash of the global dof id (consistent at
    // interfaces across ranks by construction).
    let mut x: Vec<f64> = global_dofs
        .iter()
        .map(|&g| {
            let mut s = g as u64 ^ 0x9e37_79b9_7f4a_7c15;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect();
    let norm = |v: &[f64]| -> f64 {
        comm.work(3 * n as u64);
        comm.allreduce_sum_scalar(layout.dot_partial(v, v)).sqrt()
    };
    let nx = norm(&x).max(1e-300);
    for xi in &mut x {
        *xi /= nx;
    }
    let mut y = vec![0.0; n];
    let mut lambda = 0.0;
    for it in 0..max_iters {
        op.apply_into(&x, &mut y);
        comm.work(3 * n as u64);
        let new_lambda = comm.allreduce_sum_scalar(layout.dot_partial(&x, &y));
        let ny = norm(&y);
        if ny == 0.0 {
            return 0.0;
        }
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / ny;
        }
        if it > 0 && (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1e-300) {
            return new_lambda;
        }
        lambda = new_lambda;
    }
    lambda
}

/// Restarted flexible GMRES on the EDD operator.
///
/// `b_local` is the right-hand side in *local distributed* format (as
/// assembled); `x0` is an initial guess, and the returned `x` the solution,
/// in *global distributed* format over this rank's DOFs.
/// Once `ws` (and the operator's exchange buffers) are warm, restarts and
/// iterations perform no heap allocation on this rank.
///
/// # Errors
/// [`SolveError::Comm`] when the communication substrate degrades mid-solve
/// (see [`fgmres_on`]).
///
/// # Panics
/// Panics on dimension mismatches.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Algorithm 6 signature
pub fn edd_fgmres<'a, C, P>(
    comm: &'a C,
    layout: &'a EddLayout,
    a_local: &'a EddLocalMatrix,
    precond: &P,
    b_local: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    variant: EddVariant,
    ws: &mut KrylovWorkspace,
) -> Result<GmresResult, SolveError>
where
    C: Communicator,
    P: Preconditioner<EddOperator<'a, C>> + ?Sized,
{
    let op = EddOperator::with_variant(a_local, layout, comm, variant);
    Ok(fgmres_on(&op, precond, b_local, x0, cfg, ws)?)
}

/// The EDD side of the session engine's strategy seam: unassembled
/// subdomain systems, scaled on the ranks (Algorithms 3–4).
pub(crate) struct EddParts<'a> {
    input: EddInput<'a>,
    n_dofs: usize,
    dofs_per_node: usize,
}

/// Where the ranks' subdomain systems come from.
enum EddInput<'a> {
    /// Caller-assembled systems, borrowed; they carry no node positions,
    /// constraints or global loads (`run_multi` refuses them).
    Prebuilt(&'a [SubdomainSystem]),
    /// A mesh-level problem: the host keeps the subdomains and their dof
    /// topology (what `gather` and the coarse geometry read), every rank
    /// assembles its own system.
    Mesh {
        problem: &'a Problem<'a>,
        subdomains: Vec<Subdomain>,
        global_dofs: Vec<Vec<usize>>,
    },
}

impl<'a> EddParts<'a> {
    /// Caller-assembled systems: 2-D elasticity numbering, no geometry.
    pub(crate) fn prebuilt(systems: &'a [SubdomainSystem], n_dofs: usize) -> Self {
        EddParts {
            input: EddInput::Prebuilt(systems),
            n_dofs,
            dofs_per_node: parfem_mesh::numbering::DOFS_PER_NODE,
        }
    }

    /// Partitions the mesh and numbers each subdomain's dofs under host-side
    /// spans; no element matrix is computed here.
    pub(crate) fn partition(p: &'a Problem<'a>, part: &ElementPartition, sink: &TraceSink) -> Self {
        let subdomains = host_span(sink, "partition", || p.subdomains(part));
        let global_dofs = host_span(sink, "assembly", || {
            (subdomains.iter())
                .map(|s| SubdomainSystem::global_dofs_of(p.dof_map, s))
                .collect()
        });
        EddParts {
            input: EddInput::Mesh {
                problem: p,
                subdomains,
                global_dofs,
            },
            n_dofs: p.dof_map.n_dofs(),
            dofs_per_node: p.dof_map.dofs_per_node(),
        }
    }

    /// The global dof of every local dof of `rank`.
    fn global_dofs(&self, rank: usize) -> &[usize] {
        match &self.input {
            EddInput::Prebuilt(systems) => &systems[rank].global_dofs,
            EddInput::Mesh { global_dofs, .. } => &global_dofs[rank],
        }
    }
}

/// Assembles this rank's subdomain system on the rank's own thread, under
/// the rank span `assembly`. The span records wall time only: no flops are
/// charged, so it has zero width on the virtual clock.
pub(crate) fn assemble_on_rank<C: Communicator>(
    comm: &C,
    problem: &Problem<'_>,
    sub: &Subdomain,
    with_mass: Option<bool>,
) -> SubdomainSystem {
    if let Some(t) = comm.tracer() {
        t.span_begin("assembly", comm.virtual_time());
    }
    let sys = problem.build_subdomain(sub, with_mass);
    if let Some(t) = comm.tracer() {
        t.span_end("assembly", comm.virtual_time());
    }
    sys
}

/// One EDD rank after its setup: interface layout, the Algorithm 3
/// diagonal, the scaled local matrix and load, and the preconditioner.
pub(crate) struct EddRank {
    pub(crate) layout: EddLayout,
    pub(crate) scaling: DistributedScaling,
    pub(crate) a: EddLocalMatrix,
    /// `D̂ f̂` for the system's own load.
    b: Vec<f64>,
    pub(crate) precond: SpecPrecond,
}

/// The EDD rank setup, shared by the engine and the transient driver (which
/// passes its effective matrix `ᾱM̂ + K̂` as `k_local`): distributed scaling
/// under the `scaling` rank span — the operator's storage built once, here,
/// straight from the unscaled matrix — then the preconditioner over the
/// scaled matrix and interface layout.
///
/// Only the preconditioner arms that factor or walk matrix rows (`direct`,
/// `twolevel:*`) see a scaled CSR matrix: the operator's own when that is
/// its storage, else `k_local` scaled in place (an owned `k_local` is not
/// copied for it) and dropped when the setup returns. Under the polynomial
/// arms an owned `k_local` is freed as soon as the operator's storage
/// exists, so one matrix is live per rank from there on.
pub(crate) fn edd_rank_setup<C: Communicator>(
    comm: &C,
    sys: &SubdomainSystem,
    k_local: Cow<'_, CsrMatrix>,
    coarse: Option<CoarsePlan<'_>>,
    cfg: &SolverConfig,
) -> (EddRank, PrecondBuildStats) {
    if let Some(t) = comm.tracer() {
        t.span_begin("scaling", comm.virtual_time());
    }
    let mut layout = EddLayout::from_system(sys);
    layout.set_overlap(cfg.overlap);
    let scaling = DistributedScaling::build(comm, &layout, &k_local);
    let mut b = sys.f_local.clone();
    let a = scaling.apply(&k_local, &mut b, &layout);
    let reads_rows = cfg.precond.needs_local_matrix() || cfg.precond.needs_coarse();
    let rows = (a.as_csr().is_none() && reads_rows).then(|| {
        let mut k = k_local.into_owned();
        k.scale_symmetric(&scaling.d);
        k
    });
    if let Some(t) = comm.tracer() {
        t.span_end("scaling", comm.virtual_time());
    }
    let op = EddOperator::new(&a, &layout, comm);
    let (precond, stats) = build_precond(
        &match &rows {
            Some(rows) => op.with_rows(rows),
            None => op,
        },
        coarse,
        &sys.multiplicity,
        &scaling.d,
        a.as_csr().or(rows.as_ref()),
        || {
            let mut d = a.diagonal();
            layout.interface_sum_buffered(comm, &mut d, &mut ExchangeBuffers::new());
            d
        },
        &cfg.precond,
    );
    let rank = EddRank {
        layout,
        scaling,
        a,
        b,
        precond,
    };
    (rank, stats)
}

impl<'a> Decomposition for EddParts<'a> {
    /// The rank's system — borrowed from the caller, or assembled by the
    /// rank itself and then left without its `k_local` (the setup consumed
    /// it) — and its setup.
    type Rank = (Cow<'a, SubdomainSystem>, EddRank);

    fn n_ranks(&self) -> usize {
        match &self.input {
            EddInput::Prebuilt(systems) => systems.len(),
            EddInput::Mesh { subdomains, .. } => subdomains.len(),
        }
    }

    fn dofs_per_node(&self) -> usize {
        self.dofs_per_node
    }

    fn label(&self, cfg: &SolverConfig) -> &'static str {
        match cfg.variant {
            EddVariant::Basic => "edd-basic",
            EddVariant::Enhanced => "edd-enhanced",
        }
    }

    /// Constrained dofs come from the problem's `DofMap`; prebuilt systems
    /// have none, so there a row that is a lone diagonal — how
    /// `SubdomainSystem` stores a Dirichlet row — counts as constrained.
    fn coarse_geometry(&self, spec: &CoarseSpec) -> Result<Vec<CoarsePartGeometry>, SolveError> {
        let parts = (0..self.n_ranks()).map(|r| self.global_dofs(r));
        match &self.input {
            EddInput::Prebuilt(systems) => {
                let lone_diagonal = |r: usize, l: usize| systems[r].k_local.row(l).0 == [l];
                edd_part_geometry(spec, parts, lone_diagonal, None, self.dofs_per_node)
            }
            EddInput::Mesh { problem, .. } => {
                let fixed = |r: usize, l: usize| problem.dof_map.is_fixed(self.global_dofs(r)[l]);
                let coords = problem.coords3();
                edd_part_geometry(spec, parts, fixed, Some(&coords), self.dofs_per_node)
            }
        }
    }

    fn rank_setup<C: Communicator>(
        &self,
        comm: &C,
        coarse: Option<CoarsePlan<'_>>,
        cfg: &SolverConfig,
    ) -> (Self::Rank, PrecondBuildStats) {
        match &self.input {
            EddInput::Prebuilt(systems) => {
                let sys = &systems[comm.rank()];
                let k_local = Cow::Borrowed(&sys.k_local);
                let (rank, stats) = edd_rank_setup(comm, sys, k_local, coarse, cfg);
                ((Cow::Borrowed(sys), rank), stats)
            }
            EddInput::Mesh {
                problem,
                subdomains,
                ..
            } => {
                let mut sys = assemble_on_rank(comm, problem, &subdomains[comm.rank()], None);
                // The setup consumes the unscaled stiffness: nothing after
                // it reads `K̂`, only the scaled operator built from it.
                let k_local = std::mem::replace(&mut sys.k_local, CsrMatrix::identity(0));
                let (rank, stats) = edd_rank_setup(comm, &sys, Cow::Owned(k_local), coarse, cfg);
                ((Cow::Owned(sys), rank), stats)
            }
        }
    }

    fn rank_solve<C: Communicator>(
        &self,
        comm: &C,
        (sys, rank): &Self::Rank,
        load: Option<&[f64]>,
        cfg: &SolverConfig,
        ws: &mut KrylovWorkspace,
    ) -> Result<GmresResult, SolveError> {
        // A global load becomes the local distributed one `SubdomainSystem`
        // assembles: entries split by multiplicity, constrained rows zeroed.
        let b: Cow<'_, [f64]> = match (load, &self.input) {
            (None, _) => Cow::Borrowed(&rank.b),
            (Some(_), EddInput::Prebuilt(_)) => {
                unreachable!("global loads need the mesh-level problem")
            }
            (Some(global), EddInput::Mesh { problem, .. }) => {
                let fixed = problem.dof_map;
                let mut b: Vec<f64> = (sys.global_dofs.iter().zip(&sys.multiplicity))
                    .map(|(&g, &m)| {
                        if fixed.is_fixed(g) {
                            0.0
                        } else {
                            global[g] / m
                        }
                    })
                    .collect();
                dense::diag_mul(&rank.scaling.d, &mut b);
                Cow::Owned(b)
            }
        };
        let mut res = edd_fgmres(
            comm,
            &rank.layout,
            &rank.a,
            &rank.precond,
            &b,
            &vec![0.0; b.len()],
            &cfg.gmres,
            cfg.variant,
            ws,
        )?;
        rank.scaling.unscale(&mut res.x);
        Ok(res)
    }

    /// Global distributed values are identical on every sharing rank.
    fn gather<'r>(&self, pieces: impl Iterator<Item = &'r [f64]>) -> Vec<f64> {
        let mut u = vec![0.0; self.n_dofs];
        for (rank, piece) in pieces.enumerate() {
            for (&g, &v) in self.global_dofs(rank).iter().zip(piece) {
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
    use parfem_krylov::gmres::fgmres;
    use parfem_krylov::history::ConvergenceHistory;
    use parfem_mesh::{DofMap, Edge, ElementPartition, QuadMesh};
    use parfem_msg::{run_ranks, MachineModel};
    use parfem_precond::{GlsPrecond, IdentityPrecond, NeumannPrecond};

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
            .subdomains(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, None))
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
            let a = sc.apply(&sys.k_local, &mut b, &layout);
            let x0 = vec![0.0; b.len()];
            let ws = &mut KrylovWorkspace::new();
            let res = match &gls {
                Some(g) => edd_fgmres(comm, &layout, &a, g, &b, &x0, cfg, variant, ws),
                None => {
                    let id = &IdentityPrecond;
                    edd_fgmres(comm, &layout, &a, id, &b, &x0, cfg, variant, ws)
                }
            }
            .expect("fault-free solve must not error");
            let mut u = res.x;
            sc.unscale(&mut u);
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
            let mut layout = EddLayout::from_system(sys);
            assert_eq!(layout.dofs_per_node(), 2);
            let a = EddLocalMatrix::new(&sys.k_local, &layout);
            assert_eq!(a.spmv_flops(), sys.k_local.spmv_flops());
            let n = sys.k_local.n_rows();
            let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.5 - 3.0).collect();
            let mut got = vec![0.0; n];
            let op = EddOperator::new(&a, &layout, comm);
            assert_eq!(op.kernel_variant(), "bcsr2");
            op.apply_into(&x, &mut got);
            // The overlapped split runs the same storage, block row by
            // block row: same label, same bits.
            layout.set_overlap(true);
            let split_op = EddOperator::new(&a, &layout, comm);
            assert_eq!(split_op.kernel_variant(), "bcsr2");
            let mut split = vec![f64::NAN; n];
            split_op.apply_into(&x, &mut split);
            assert_eq!(split, got);
            // The CSR reference and the row-sum reassociation bound of the
            // sparse proptests, interface-summed like the product itself: a
            // shared row may be off by the sum of its sharers' local bounds.
            let mut want = sys.k_local.spmv(&x);
            layout.interface_sum_buffered(comm, &mut want, &mut ExchangeBuffers::new());
            let (row_ptr, col_idx, values) = sys.k_local.raw_parts();
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
        let systems: Vec<SubdomainSystem> = part
            .subdomains(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build_heat(&mesh, &dm, &Material::unit(), s, &loads))
            .collect();
        run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let mut layout = EddLayout::from_system(sys);
            assert_eq!(layout.dofs_per_node(), 1);
            let a = EddLocalMatrix::new(&sys.k_local, &layout);
            assert_eq!(a.as_csr(), Some(&sys.k_local));
            let x: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + 0.25 * i as f64).collect();
            let mut want = sys.k_local.spmv(&x);
            layout.interface_sum_buffered(comm, &mut want, &mut ExchangeBuffers::new());
            for overlap in [false, true] {
                layout.set_overlap(overlap);
                let op = EddOperator::new(&a, &layout, comm);
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
            let a = EddLocalMatrix::new(&sys.k_local, &layout);
            let op = EddOperator::new(&a, &layout, comm);
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
    fn distributed_lambda_max_matches_sequential_power_iteration() {
        let fx = fixture(8, 3, 4);
        // Sequential reference on the assembled scaled operator.
        let sc = edd_scaling_reference(&fx.systems, fx.n);
        let a_seq = sc.scale_matrix(&fx.k);
        let want = parfem_sparse::gershgorin::power_iteration_lambda_max(&a_seq, 50_000, 1e-12);
        let out = run_ranks(4, MachineModel::ideal(), |comm| {
            let sys = &fx.systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let scd = DistributedScaling::build(comm, &layout, &sys.k_local);
            let mut b = sys.f_local.clone();
            let a = scd.apply(&sys.k_local, &mut b, &layout);
            super::edd_lambda_max(comm, &layout, &a, &sys.global_dofs, 50_000, 1e-12)
        });
        for got in out.results {
            assert!(
                (got - want).abs() < 1e-6 * want,
                "distributed {got} vs sequential {want}"
            );
        }
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
            let a = sc.apply(&sys.k_local, &mut b, &layout);
            let x0 = vec![0.0; b.len()];
            let res = edd_fgmres(
                comm,
                &layout,
                &a,
                &p,
                &b,
                &x0,
                &cfg,
                EddVariant::Enhanced,
                &mut KrylovWorkspace::new(),
            )
            .expect("fault-free solve must not error");
            let mut u = res.x;
            sc.unscale(&mut u);
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
