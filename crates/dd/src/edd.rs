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
//! the post-orthogonalization norm comes from the Pythagorean identity
//! `‖w'‖² = ‖w‖² − Σh²` (with a guarded recomputation when cancellation
//! bites), keeping the global communication at one reduction per iteration
//! as Table 1 claims.

use crate::coarse::{edd_part_geometry, CoarsePlan};
use crate::dist_vec::{EddLayout, ExchangeBuffers};
use crate::error::SolveError;
use crate::scaling::DistributedScaling;
use crate::session::{
    build_precond, host_span, Decomposition, PrecondBuildStats, Problem, SolverConfig,
};
use crate::solver::{dd_fgmres, DdResult, DistributedOperator};
use parfem_fem::SubdomainSystem;
use parfem_krylov::gmres::GmresConfig;
use parfem_krylov::KrylovWorkspace;
use parfem_mesh::{ElementPartition, Subdomain};
use parfem_msg::Communicator;
use parfem_precond::twolevel::{CoarsePartGeometry, CoarseSpec, SpecPrecond};
use parfem_precond::{InterfaceConsistency, Preconditioner};
use parfem_sparse::{dense, kernels, BcsrMatrix, CsrMatrix, KernelPolicy, LinearOperator};
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

/// The element-based distributed operator `x̄ ↦ ⊕Σ (Â⁽ˢ⁾ x̄)`.
pub struct EddOperator<'a, C: Communicator> {
    /// The (scaled) local distributed matrix `Â⁽ˢ⁾`.
    pub a_local: &'a CsrMatrix,
    /// Interface layout.
    pub layout: &'a EddLayout,
    /// This rank's communicator endpoint.
    pub comm: &'a C,
    /// The right-hand side in local distributed format, when this operator
    /// drives a solve (needed by [`DistributedOperator::residual_into`]).
    b_local: Option<&'a [f64]>,
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
    /// Flops of the interface-row subset of one local SpMV (`2·nnz` over
    /// rows shared with a neighbour) — the part that must finish before the
    /// exchange can be posted.
    interface_flops: u64,
    /// Flops of the interior-row subset — the part overlapped with the
    /// in-flight exchange. `interface_flops + interior_flops` equals
    /// [`CsrMatrix::spmv_flops`] exactly.
    interior_flops: u64,
    /// 2×2 block copy of `a_local` for the *blocking* local SpMV, built by
    /// [`EddOperator::with_kernels`]. `None` keeps the scalar CSR path
    /// (the golden reference). The overlapped interface/interior split
    /// always uses the row-indexed CSR kernels regardless — the split
    /// schedule needs per-row addressing the block format doesn't expose.
    local_variant: Option<BcsrMatrix>,
}

impl<'a, C: Communicator> EddOperator<'a, C> {
    /// Wraps a subdomain's local distributed matrix as the global operator.
    pub fn new(a_local: &'a CsrMatrix, layout: &'a EddLayout, comm: &'a C) -> Self {
        Self::for_solve(a_local, layout, comm, None, EddVariant::Enhanced)
    }

    /// Like [`EddOperator::new`], but carrying what a solve needs: the
    /// right-hand side and the algorithm variant.
    fn for_solve(
        a_local: &'a CsrMatrix,
        layout: &'a EddLayout,
        comm: &'a C,
        b_local: Option<&'a [f64]>,
        variant: EddVariant,
    ) -> Self {
        let row_nnz_flops = |rows: &[usize]| -> u64 {
            let row_ptr = a_local.raw_parts().0;
            rows.iter()
                .map(|&r| 2 * (row_ptr[r + 1] - row_ptr[r]) as u64)
                .sum()
        };
        EddOperator {
            a_local,
            layout,
            comm,
            b_local,
            variant,
            bufs: RefCell::new(ExchangeBuffers::new()),
            xbufs: RefCell::new(ExchangeBuffers::new()),
            interface_flops: row_nnz_flops(layout.interface_rows()),
            interior_flops: row_nnz_flops(layout.interior_rows()),
            local_variant: None,
        }
    }

    /// Chooses the storage of the local SpMV. [`KernelPolicy::Scalar`]
    /// keeps the plain CSR path untouched; [`KernelPolicy::Bcsr2x2`]
    /// replaces the blocking local SpMV only — the overlapped split
    /// schedule and the residual recompute stay on the (bit-identical)
    /// row-indexed scalar kernels, so an operator on the split schedule
    /// converts nothing and reports `scalar`, as does one whose local
    /// dimension is odd (no 2×2 block structure).
    pub fn with_kernels(mut self, policy: KernelPolicy) -> Self {
        self.local_variant = match policy {
            KernelPolicy::Bcsr2x2 if !self.split_schedule() => {
                BcsrMatrix::try_from_csr(self.a_local)
            }
            _ => None,
        };
        self
    }

    /// `true` when matvecs run the overlapped interface/interior split.
    fn split_schedule(&self) -> bool {
        self.layout.overlap() && !self.layout.neighbors.is_empty()
    }

    /// The storage the blocking local SpMV actually applies.
    pub fn kernel_choice(&self) -> KernelPolicy {
        match self.local_variant {
            Some(_) => KernelPolicy::Bcsr2x2,
            None => KernelPolicy::Scalar,
        }
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
        if self.split_schedule() {
            // Overlapped schedule: finish only the interface rows, post the
            // exchange, and compute the interior rows while the messages
            // fly. Each row's dot product is the identical arithmetic in
            // either schedule, and the received contributions are added in
            // the same neighbour order, so the result is bit-identical to
            // the blocking path — only the modeled time changes.
            let (row_ptr, col_idx, values) = self.a_local.raw_parts();
            kernels::spmv_rows_indexed(
                row_ptr,
                col_idx,
                values,
                x,
                y,
                self.layout.interface_rows(),
            );
            self.comm.work(self.interface_flops);
            self.trace_spmv();
            self.layout
                .interface_sum_split(self.comm, y, &mut self.bufs.borrow_mut(), |y| {
                    kernels::spmv_rows_indexed(
                        row_ptr,
                        col_idx,
                        values,
                        x,
                        y,
                        self.layout.interior_rows(),
                    );
                    self.comm.work(self.interior_flops);
                });
        } else {
            match &self.local_variant {
                Some(blocks) => blocks.spmv_into(x, y),
                None => self.a_local.spmv_into(x, y),
            }
            self.comm.work(self.a_local.spmv_flops());
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
}

impl<C: Communicator> DistributedOperator for EddOperator<'_, C> {
    type Comm = C;

    fn comm(&self) -> &C {
        self.comm
    }

    /// `r ← ⊕Σ (b_local − A_local x)`: the global distributed residual,
    /// staged through the persistent exchange buffers.
    fn residual_into(&self, x: &[f64], r: &mut [f64]) {
        let b_local = self
            .b_local
            .expect("EddOperator: residual requires a right-hand side");
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

    fn kernel_variant(&self) -> Option<KernelPolicy> {
        Some(self.kernel_choice())
    }

    fn gs_dots(&self, w: &[f64], basis: &[Vec<f64>], reduce: &mut [f64]) {
        for (i, vi) in basis.iter().enumerate() {
            reduce[i] = self.layout.dot_partial(w, vi);
        }
        reduce[basis.len()] = self.layout.dot_partial(w, w);
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
    a_local: &CsrMatrix,
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
/// (see [`dd_fgmres`]).
///
/// # Panics
/// Panics on dimension mismatches.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Algorithm 6 signature
pub fn edd_fgmres<'a, C, P>(
    comm: &'a C,
    layout: &'a EddLayout,
    a_local: &'a CsrMatrix,
    precond: &P,
    b_local: &'a [f64],
    x0: &[f64],
    cfg: &GmresConfig,
    variant: EddVariant,
    ws: &mut KrylovWorkspace,
) -> Result<DdResult, SolveError>
where
    C: Communicator,
    P: Preconditioner<EddOperator<'a, C>> + ?Sized,
{
    assert_eq!(
        b_local.len(),
        a_local.n_rows(),
        "edd_fgmres: b length mismatch"
    );
    let op = EddOperator::for_solve(a_local, layout, comm, Some(b_local), variant)
        .with_kernels(cfg.kernels);
    dd_fgmres(&op, precond, x0, cfg, ws)
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
    pub(crate) a: CsrMatrix,
    /// `D̂ f̂` for the system's own load.
    b: Vec<f64>,
    pub(crate) precond: SpecPrecond,
}

/// The EDD rank setup, shared by the engine and the transient driver (which
/// passes its effective matrix `ᾱM̂ + K̂` as `k_local`): distributed scaling
/// under the `scaling` rank span, then the preconditioner over the scaled
/// matrix and interface layout.
pub(crate) fn edd_rank_setup<C: Communicator>(
    comm: &C,
    sys: &SubdomainSystem,
    k_local: &CsrMatrix,
    coarse: Option<CoarsePlan<'_>>,
    cfg: &SolverConfig,
) -> (EddRank, PrecondBuildStats) {
    if let Some(t) = comm.tracer() {
        t.span_begin("scaling", comm.virtual_time());
    }
    let mut layout = EddLayout::from_system(sys);
    layout.set_overlap(cfg.overlap);
    let scaling = DistributedScaling::build(comm, &layout, k_local);
    let mut b = sys.f_local.clone();
    let a = scaling.apply(k_local, &mut b);
    if let Some(t) = comm.tracer() {
        t.span_end("scaling", comm.virtual_time());
    }
    // The scaled local matrix feeds the `direct` spec (exact local solve);
    // the lazy closure feeds Jacobi its assembled diagonal.
    let (precond, stats) = build_precond(
        &EddOperator::new(&a, &layout, comm),
        coarse,
        &sys.multiplicity,
        &scaling.d,
        &a,
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
    /// The rank's system — borrowed from the caller or assembled by the rank
    /// itself — and its setup.
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
        let sys = match &self.input {
            EddInput::Prebuilt(systems) => Cow::Borrowed(&systems[comm.rank()]),
            EddInput::Mesh {
                problem,
                subdomains,
                ..
            } => Cow::Owned(assemble_on_rank(
                comm,
                problem,
                &subdomains[comm.rank()],
                None,
            )),
        };
        let (rank, stats) = edd_rank_setup(comm, &sys, &sys.k_local, coarse, cfg);
        ((sys, rank), stats)
    }

    fn rank_solve<C: Communicator>(
        &self,
        comm: &C,
        (sys, rank): &Self::Rank,
        load: Option<&[f64]>,
        cfg: &SolverConfig,
        ws: &mut KrylovWorkspace,
    ) -> Result<DdResult, SolveError> {
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
            let a = sc.apply(&sys.k_local, &mut b);
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

    /// Sequential reference with the *same* (distributed-sum) scaling.
    fn run_seq(fx: &Fixture, degree: usize, cfg: &GmresConfig) -> (Vec<f64>, ConvergenceHistory) {
        let sc = edd_scaling_reference(&fx.systems, fx.n);
        let a = sc.scale_matrix(&fx.k);
        let b = sc.scale_rhs(&fx.f);
        let res = if degree > 0 {
            let g = GlsPrecond::for_scaled_system(degree);
            fgmres(&a, &g, &b, &vec![0.0; fx.n], cfg)
        } else {
            fgmres(&a, &IdentityPrecond, &b, &vec![0.0; fx.n], cfg)
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
        let (u_seq, h_seq) = run_seq(&fx, 5, &cfg);
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
        let (u_seq, h_seq) = run_seq(&fx, 7, &cfg);
        assert_eq!(h_par.iterations(), h_seq.iterations());
        for (a, b) in u_par.iter().zip(&u_seq) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn bcsr_local_variant_is_recorded_and_within_reassociation_bound() {
        let fx = fixture(5, 2, 2);
        let out = run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &fx.systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let scalar_op = EddOperator::new(&sys.k_local, &layout, comm);
            let bcsr_op =
                EddOperator::new(&sys.k_local, &layout, comm).with_kernels(KernelPolicy::Bcsr2x2);
            assert_eq!(scalar_op.kernel_choice(), KernelPolicy::Scalar);
            assert_eq!(bcsr_op.kernel_choice(), KernelPolicy::Bcsr2x2);
            // The overlapped split schedule only has scalar row kernels, so
            // it must not report (or build) a format it never runs.
            let mut split = EddLayout::from_system(sys);
            split.set_overlap(true);
            let split_op =
                EddOperator::new(&sys.k_local, &split, comm).with_kernels(KernelPolicy::Bcsr2x2);
            assert_eq!(split_op.kernel_choice(), KernelPolicy::Scalar);
            let n = sys.k_local.n_rows();
            let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.5 - 3.0).collect();
            let mut want = vec![0.0; n];
            scalar_op.apply_into(&x, &mut want);
            let mut got = vec![0.0; n];
            bcsr_op.apply_into(&x, &mut got);
            // The row-sum reassociation bound of the sparse proptests,
            // interface-summed like the product itself: a shared row may
            // be off by the sum of its sharers' local bounds.
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
                assert!((g - w).abs() <= *b, "bcsr {g} vs scalar {w}");
            }
        }
    }

    #[test]
    fn bcsr_policy_on_an_odd_local_dimension_applies_and_reports_scalar() {
        // One dof per node on 3 x 3 nodes per strip: no 2x2 block structure.
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
            assert_eq!(sys.k_local.n_rows() % 2, 1);
            let layout = EddLayout::from_system(sys);
            let op =
                EddOperator::new(&sys.k_local, &layout, comm).with_kernels(KernelPolicy::Bcsr2x2);
            assert_eq!(op.kernel_choice(), KernelPolicy::Scalar);
            let x = vec![1.0; sys.k_local.n_rows()];
            let mut got = vec![0.0; x.len()];
            op.apply_into(&x, &mut got);
            let mut want = vec![0.0; x.len()];
            EddOperator::new(&sys.k_local, &layout, comm).apply_into(&x, &mut want);
            assert_eq!(got, want);
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
            let a = scd.apply(&sys.k_local, &mut b);
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
            let a = sc.apply(&sys.k_local, &mut b);
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
