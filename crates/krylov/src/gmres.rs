//! Restarted flexible GMRES (the paper's Algorithm 1) — the one Krylov loop
//! of the workspace, sequential and distributed alike.
//!
//! Flexible GMRES stores the preconditioned vectors `z_j = C v_j` and builds
//! the solution update from them (`x = x₀ + Z y`), which permits a different
//! preconditioner at every iteration — the property that lets the paper
//! swap polynomial preconditioners freely. With right-style application
//! (`w = A z_j`) the Givens residual estimate is the *true* residual norm,
//! so the convergence monitor `‖r_i‖/‖r₀‖ ≤ tol` of the paper's Section 6
//! comes for free.
//!
//! Algorithm 1 and the parallel Algorithms 5/6 (element-based) and 8
//! (row-based) are one skeleton that differs only in how the distributed
//! pieces are realised: the matvec's interface completion, the local
//! partial of a deduplicated inner product, the residual, and the flop
//! accounting of a dot. The [`DistributedOperator`] trait captures exactly
//! those hooks and [`fgmres_on`] runs the loop over any implementor. A
//! whole operator on one rank is the [`OneRank`] adapter over
//! [`SelfComm`]; [`fgmres`] is that solve on a throwaway workspace.
//!
//! Orthogonalization is **classical Gram–Schmidt** by default, as in the
//! parallel algorithms: all projections and `‖w‖²` travel in one
//! all-reduce. Across ranks the new norm then comes from the Pythagorean
//! identity `‖w'‖² = ‖w‖² − Σh²`, with a guarded recomputation when the
//! subtraction cancels; on one rank a reduction is free, so the norm is the
//! exact local dot. **Modified** Gram–Schmidt reduces once per projection,
//! then once for the norm.
//!
//! Restarts are **deflated** (FGMRES-DR): a restart of dimension `m`
//! carries the `k = m/4` harmonic Ritz vectors of smallest `|θ|` into the
//! next cycle instead of discarding the slow eigen-directions, and
//! re-orthonormalises them with one batched Gram reduction; the next cycle
//! appends `m − k` Arnoldi steps. The restart dimension default, the
//! paper's `m̃ = 25`, therefore means FGMRES-DR(25, 6). `m < 4` gives
//! `k = 0`, plain restarting from the true residual, and so does a restart
//! whose small eigenproblem or Gram matrix is degenerate. A solve that
//! converges inside its first cycle is unaffected.
//!
//! Across solves on **one operator**, a workspace made by
//! [`KrylovWorkspace::for_fixed_operator`] **recycles** the deflation space
//! (GCRO-DR with a fixed recycle space, after Parks, de Sturler, Mackey,
//! Johnson & Maiti). A solve whose last cycle began from a deflated restart
//! leaves that cycle's head `A Z_k = V_{k+1} H̄_k` in place; the next solve
//! takes the thin QR `H̄_k = Q R` and forms `C = V_{k+1} Q`, `U = Z_k R⁻¹`,
//! so `A U = C` with `C` orthonormal — for any preconditioner, flexible
//! arms included, since both come from actual products `A z`. Every cycle
//! of that solve starts from the head `[C, r̂]`, `r̂ = (I − CCᵀ) r`, with
//! the raw head `H̄ = [I_k; 0]` and `c = [Cᵀr; ‖r̂‖]`; its restarts form `r̂`
//! from the least-squares residual without a matvec or an eigen-solve, and
//! are not re-deflated (the head columns are `U`, so `H̄` is no projection
//! the harmonic Ritz formula applies to). The pair stays fixed and passes
//! to the next solve unchanged. Each recycled start is traced as one
//! `recycled_start` instant (`k`, and the share `captured = ‖Cᵀr₀‖/‖r₀‖`).

use crate::givens::Givens;
use crate::history::{ConvergenceHistory, StopReason};
use crate::lanczos;
use crate::workspace::{deflation_dim, Carry, KrylovWorkspace};
use parfem_msg::{CommError, Communicator, SelfComm};
use parfem_precond::Preconditioner;
use parfem_sparse::{dense, kernels, LinearOperator};
use parfem_trace::{EventKind, Value};

/// Arnoldi orthogonalization scheme.
///
/// The paper's parallel algorithms use **classical** Gram–Schmidt because
/// it batches all inner products of an iteration into a single global
/// reduction; **modified** Gram–Schmidt is numerically sturdier but costs
/// one reduction per basis vector in a distributed setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Orthogonalization {
    /// Classical Gram–Schmidt (one batched reduction; the paper's choice).
    #[default]
    Classical,
    /// Modified Gram–Schmidt (sequential projections).
    Modified,
}

/// Configuration for [`fgmres`] and [`fgmres_on`].
#[derive(Debug, Clone, Copy)]
pub struct GmresConfig {
    /// Krylov subspace dimension between restarts (the paper's `m̃`); a
    /// restart carries `restart / 4` harmonic Ritz vectors (see the module
    /// docs).
    pub restart: usize,
    /// Maximum total inner iterations.
    pub max_iters: usize,
    /// Relative residual tolerance `‖r‖/‖r₀‖` (the paper uses `1e-6`).
    pub tol: f64,
    /// Gram–Schmidt variant.
    pub ortho: Orthogonalization,
}

impl Default for GmresConfig {
    fn default() -> Self {
        GmresConfig {
            restart: 25,
            max_iters: 10_000,
            tol: 1e-6,
            ortho: Orthogonalization::Classical,
        }
    }
}

/// Result of a GMRES solve on one rank.
#[derive(Debug, Clone)]
pub struct GmresResult {
    /// The computed solution, in the operator's vector format (the whole
    /// vector on one rank, global distributed for EDD, owned rows for RDD).
    pub x: Vec<f64>,
    /// The convergence history (identical on every rank).
    pub history: ConvergenceHistory,
}

/// The hooks a decomposition provides to run under [`fgmres_on`].
///
/// Implementors are [`LinearOperator`]s whose `apply_into` performs the
/// full distributed matvec (local SpMV plus interface completion — the EDD
/// `⊕Σ` sum or the RDD halo gather), so polynomial preconditioners run on
/// them unchanged. The remaining methods expose the decomposition's
/// inner-product semantics and residual. None has a default, so every
/// implementation keeps its own floating-point sequence: EDD dots are
/// multiplicity-weighted at 3 flops per element, RDD and one-rank dots are
/// plain at 2.
pub trait DistributedOperator: LinearOperator {
    /// The communicator endpoint type this operator runs over.
    type Comm: Communicator;

    /// The operator preconditioners are applied through: a decomposition's
    /// operator itself, the wrapped operator of a [`OneRank`].
    type PrecondOp: LinearOperator + ?Sized;

    /// This rank's communicator endpoint.
    fn comm(&self) -> &Self::Comm;

    /// See [`DistributedOperator::PrecondOp`].
    fn precond_op(&self) -> &Self::PrecondOp;

    /// `r ← b − A x` in the operator's vector format, including the
    /// interface completion and its work accounting. `b` is this rank's
    /// right-hand side in the form the decomposition assembles it (local
    /// distributed for EDD, owned rows for RDD).
    fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]);

    /// Local partial of the deduplicated global inner product `⟨x, y⟩`;
    /// summing the partials across ranks (one all-reduce) yields the true
    /// global product.
    fn dot_partial(&self, x: &[f64], y: &[f64]) -> f64;

    /// Flops charged per vector element of one local dot partial.
    fn dot_flops_factor(&self) -> u64;

    /// Fills `reduce[0..=basis.len()]` with the batched Gram–Schmidt
    /// partials: `reduce[i] = ⟨w, basis[i]⟩_partial` and
    /// `reduce[basis.len()] = ⟨w, w⟩_partial`, each bit-identical to its
    /// own [`DistributedOperator::dot_partial`].
    fn gs_dots(&self, w: &[f64], basis: &[Vec<f64>], reduce: &mut [f64]);

    /// The kernel this operator's local SpMV runs (`csr`, `bcsr2`,
    /// `bcsr3`), the same on the blocking and the overlapped schedule.
    /// [`fgmres_on`] records it per solve on the trace.
    fn kernel_variant(&self) -> &'static str;

    /// Produces the flexible vector `z_j` from the basis vector `v_j`
    /// through `precond`. The default is a plain scratch-buffered
    /// application; EDD's basic variant (Algorithm 5) overrides it to wrap
    /// the application in its local-distributed round trips, using `w_tmp`
    /// (free at this point of the iteration) as staging.
    fn apply_precond<P>(
        &self,
        precond: &P,
        v_j: &[f64],
        z_j: &mut [f64],
        scratch: &mut [Vec<f64>],
        w_tmp: &mut [f64],
    ) where
        P: Preconditioner<Self::PrecondOp> + ?Sized,
    {
        let _ = w_tmp;
        precond.apply_scratch(self.precond_op(), v_j, z_j, scratch);
    }
}

/// A whole operator on one rank: any [`LinearOperator`] (CSR, node blocks,
/// `&dyn`) as a [`DistributedOperator`] over [`SelfComm`]. Inner products
/// are plain dots, and preconditioners see the wrapped operator.
pub struct OneRank<'a, Op: ?Sized>(pub &'a Op);

impl<Op: LinearOperator + ?Sized> LinearOperator for OneRank<'_, Op> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply_into(x, y);
    }

    fn apply_flops(&self) -> u64 {
        self.0.apply_flops()
    }
}

impl<Op: LinearOperator + ?Sized> DistributedOperator for OneRank<'_, Op> {
    type Comm = SelfComm;
    type PrecondOp = Op;

    fn comm(&self) -> &SelfComm {
        &SelfComm
    }

    fn precond_op(&self) -> &Op {
        self.0
    }

    fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        self.0.apply_into(x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    }

    fn dot_partial(&self, x: &[f64], y: &[f64]) -> f64 {
        dense::dot(x, y)
    }

    fn dot_flops_factor(&self) -> u64 {
        2
    }

    /// The storage behind a `&dyn` operator is unknown; one-rank solves
    /// carry no tracer, so the label is never recorded.
    fn kernel_variant(&self) -> &'static str {
        "one-rank"
    }

    fn gs_dots(&self, w: &[f64], basis: &[Vec<f64>], reduce: &mut [f64]) {
        kernels::dot_sweep(w, basis, reduce);
    }
}

/// Solves `A x = b` by restarted flexible GMRES on one rank: [`fgmres_on`]
/// over [`OneRank`] with a throwaway workspace.
///
/// ```
/// use parfem_krylov::{fgmres, GmresConfig};
/// use parfem_precond::IdentityPrecond;
/// use parfem_sparse::CsrMatrix;
///
/// let a = CsrMatrix::from_dense(2, 2, &[2.0, -1.0, -1.0, 2.0]);
/// let res = fgmres(&a, &IdentityPrecond, &[1.0, 0.0], &[0.0, 0.0],
///                  &GmresConfig::default());
/// assert!(res.history.converged());
/// assert!((res.x[0] - 2.0 / 3.0).abs() < 1e-6);
/// ```
///
/// # Panics
/// Panics on dimension mismatches or a zero restart dimension.
pub fn fgmres<Op, P>(op: &Op, precond: &P, b: &[f64], x0: &[f64], cfg: &GmresConfig) -> GmresResult
where
    Op: LinearOperator + ?Sized,
    P: Preconditioner<Op> + ?Sized,
{
    match fgmres_on(
        &OneRank(op),
        precond,
        b,
        x0,
        cfg,
        &mut KrylovWorkspace::new(),
    ) {
        Ok(res) => res,
        Err(e) => unreachable!("a one-rank solve communicates nothing: {e}"),
    }
}

/// Restarted flexible GMRES over any [`DistributedOperator`] — the one
/// Krylov loop. `b` is this rank's right-hand side (see
/// [`DistributedOperator::residual_into`]) and `x0` its initial guess. The
/// solve runs inside the rank's `fgmres` trace span, after the operator's
/// kernel is recorded as the `kernel_variant_<label>` rank counter.
///
/// Once the workspace (and the operator's exchange staging) are warm,
/// restarts and iterations perform no heap allocation on this rank. Solves
/// that reuse a [`KrylovWorkspace::new`] workspace are bit-identical to
/// solves on a fresh one; on a [`KrylovWorkspace::for_fixed_operator`]
/// workspace only the first is, and later ones recycle (see the module
/// docs).
///
/// # Errors
/// The first [`CommError`] of a degrading substrate: the reductions are
/// fallible, and the rank's latched error state ([`Communicator::status`])
/// is checked after every matvec and preconditioner application, so an
/// error inside an infallible exchange surfaces within the same iteration
/// instead of corrupting the solve silently. [`SelfComm`] never fails.
///
/// # Panics
/// Panics on dimension mismatches or a zero restart dimension.
pub fn fgmres_on<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    ws: &mut KrylovWorkspace,
) -> Result<GmresResult, CommError>
where
    Op: DistributedOperator,
    P: Preconditioner<Op::PrecondOp> + ?Sized,
{
    let comm = op.comm();
    if let Some(tracer) = comm.tracer() {
        tracer.span_begin("fgmres", comm.virtual_time());
        tracer.add_count(&format!("kernel_variant_{}", op.kernel_variant()), 1);
    }
    let res = restarted(op, precond, b, x0, cfg, ws);
    if let Some(tracer) = comm.tracer() {
        tracer.span_end("fgmres", comm.virtual_time());
    }
    if res.is_err() {
        ws.carry = Carry::None;
    }
    let res = res?;
    // Remember the history length so the next solve on this workspace can
    // reserve it exactly (see `KrylovWorkspace::history_hint`).
    ws.history_hint = ws.history_hint.max(res.history.relative_residuals.len());
    Ok(res)
}

fn done(x: Vec<f64>, residuals: Vec<f64>, stop: StopReason, restarts: usize) -> GmresResult {
    GmresResult {
        x,
        history: ConvergenceHistory {
            relative_residuals: residuals,
            stop,
            restarts,
        },
    }
}

/// Brings column `j` of the cycle's least-squares problem to triangular
/// form: applies the accumulated rotations, then annihilates rows `last`
/// down to `j + 1`, rotating `g` alongside. An Arnoldi column has
/// `last = j + 1` (one new rotation); a column of a deflated cycle's dense
/// `(k + 1) × k` head has `last = k`.
fn triangularize_column(
    hcol: &mut [f64],
    j: usize,
    last: usize,
    rotations: &mut Vec<(usize, Givens)>,
    g: &mut [f64],
) {
    for &(i, rot) in rotations.iter() {
        let (a, b2) = rot.apply(hcol[i], hcol[i + 1]);
        hcol[i] = a;
        hcol[i + 1] = b2;
    }
    for i in (j..last).rev() {
        let (rot, rr) = Givens::compute(hcol[i], hcol[i + 1]);
        hcol[i] = rr;
        hcol[i + 1] = 0.0;
        let (g0, g1) = rot.apply(g[i], g[i + 1]);
        g[i] = g0;
        g[i + 1] = g1;
        rotations.push((i, rot));
    }
}

/// The restarted Arnoldi loop of [`fgmres_on`].
fn restarted<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    ws: &mut KrylovWorkspace,
) -> Result<GmresResult, CommError>
where
    Op: DistributedOperator,
    P: Preconditioner<Op::PrecondOp> + ?Sized,
{
    let n = op.dim();
    assert_eq!(b.len(), n, "fgmres: b length mismatch");
    assert_eq!(x0.len(), n, "fgmres: x0 length mismatch");
    assert!(
        cfg.restart > 0,
        "fgmres: restart dimension must be positive"
    );
    let m = cfg.restart;
    let comm = op.comm();
    let one_rank = comm.size() == 1;
    let dot_f = op.dot_flops_factor();
    ws.ensure(n, m, precond.scratch_vectors());

    let mut x = x0.to_vec();
    // Reserve to the workspace's history high-water mark, not to
    // `max_iters`: a `max_iters`-scaled reservation reads as per-iteration
    // bytes to the alloc gate, while the warm-workspace hint makes repeat
    // solves push into an exactly-sized Vec with zero growth.
    let mut residuals = Vec::with_capacity(ws.history_hint);
    let mut restarts = 0usize;
    let mut total_iters = 0usize;

    let global_norm = |v: &[f64]| -> Result<f64, CommError> {
        comm.work(dot_f * n as u64);
        Ok(comm.try_allreduce_sum_scalar(op.dot_partial(v, v))?.sqrt())
    };

    // The recycled pair of a fixed-operator workspace (0: none), formed
    // here from the head the previous solve left.
    let mut pair = match ws.carry {
        Carry::None => 0,
        Carry::Head(k) => recycle_pair(op, ws, k),
        Carry::Pair(k) => k,
    };
    ws.carry = if pair > 0 {
        Carry::Pair(pair)
    } else {
        Carry::None
    };

    op.residual_into(b, &x, &mut ws.r);
    comm.status()?;
    let r0_norm = if pair > 0 {
        // Cᵀr and ‖r‖² in one all-reduce.
        op.gs_dots(&ws.r, &ws.v[..pair], &mut ws.reduce);
        comm.work(dot_f * (n * (pair + 1)) as u64);
        comm.try_allreduce_sum_into(&mut ws.reduce[..=pair])?;
        ws.reduce[pair].sqrt()
    } else {
        global_norm(&ws.r)?
    };
    residuals.push(1.0);
    if r0_norm == 0.0 {
        return Ok(done(x, residuals, StopReason::Converged, 0));
    }
    // Breakdown threshold relative to the initial residual scale.
    let breakdown_tol = 1e-14 * r0_norm;
    // Vectors carried into the current cycle by a deflated or recycled
    // restart (0: the cycle starts from the true residual in `ws.r`).
    let mut head = 0usize;
    if pair > 0 {
        // r̂ = r − C Cᵀr in v[k]; the cycle starts from the head [C, r̂].
        let (c, rest) = ws.v.split_at_mut(pair);
        rest[0].copy_from_slice(&ws.r);
        kernels::axpy_sweep_neg(&ws.reduce[..pair], c, &mut rest[0]);
        comm.work((2 * n * pair) as u64);
        let captured = ws.reduce[..pair].iter().map(|h| h * h).sum::<f64>().sqrt();
        ws.g.fill(0.0);
        ws.g[..pair].copy_from_slice(&ws.reduce[..pair]);
        let beta = global_norm(&ws.v[pair])?;
        head = recycled_head(op, ws, pair, beta, breakdown_tol);
        if head == 0 {
            // r lies in span C to working precision: drop the pair and run
            // from the true residual, which `ws.r` still holds.
            pair = 0;
        } else if let Some(tracer) = comm.tracer() {
            tracer.instant(
                "recycled_start",
                comm.virtual_time(),
                vec![
                    ("k".to_string(), Value::U64(pair as u64)),
                    ("captured".to_string(), Value::F64(captured / r0_norm)),
                ],
            );
        }
    }

    loop {
        ws.rotations.clear();
        if ws.recycle {
            // What the solve leaves for the next one if this cycle is its
            // last: the recycled pair, fixed for the whole solve, or the
            // deflated head this cycle begins from.
            ws.carry = if pair > 0 {
                Carry::Pair(pair)
            } else if head > 0 {
                Carry::Head(head)
            } else {
                Carry::None
            };
        }
        if head == 0 {
            let beta = global_norm(&ws.r)?;
            if beta / r0_norm <= cfg.tol {
                return Ok(done(x, residuals, StopReason::Converged, restarts));
            }
            // `g` must be re-zeroed: iteration j reads the still-virgin g[j + 1].
            ws.g.fill(0.0);
            ws.g[0] = beta;
            ws.v[0].copy_from_slice(&ws.r);
            for vi in &mut ws.v[0] {
                *vi /= beta;
            }
            comm.work(n as u64);
        }
        ws.defl.c.copy_from_slice(&ws.g);
        // A deflated restart left V_{k+1}, Z_k, the dense head H̄_k and c in
        // place; triangularise the head through the Arnoldi rotations.
        for j in 0..head {
            triangularize_column(&mut ws.h[j], j, head, &mut ws.rotations, &mut ws.g);
        }

        let mut j_done = head;
        let mut stop: Option<StopReason> = None;

        for j in head..m {
            if total_iters >= cfg.max_iters {
                stop = Some(StopReason::MaxIterations);
                break;
            }
            total_iters += 1;
            let iter_start_stats = comm.stats();
            let degree = precond.current_operator_applications();

            // Flexible preconditioning (polynomial preconditioners run
            // Algorithm 7 inside the operator: one exchange per internal
            // matvec).
            if let Some(tracer) = comm.tracer() {
                tracer.add_count("precond_applies", 1);
            }
            op.apply_precond(
                precond,
                &ws.v[j],
                &mut ws.z[j],
                &mut ws.precond_scratch,
                &mut ws.w,
            );

            // Matrix-vector product (the one exchange Algorithm 6 keeps).
            op.apply_into(&ws.z[j], &mut ws.w);

            // The preconditioner and matvec run over infallible (latching)
            // exchanges; surface anything they latched before their output
            // contaminates the Krylov basis.
            comm.status()?;

            let hcol = &mut ws.h[j];
            let hh = match cfg.ortho {
                Orthogonalization::Classical => {
                    // All projections plus ‖w‖² in ONE all-reduce.
                    op.gs_dots(&ws.w, &ws.v[..=j], &mut ws.reduce);
                    comm.work(dot_f * (n * (j + 2)) as u64);
                    comm.try_allreduce_sum_into(&mut ws.reduce[..(j + 2)])?;
                    hcol[..=j].copy_from_slice(&ws.reduce[..=j]);
                    kernels::axpy_sweep_neg(&hcol[..=j], &ws.v[..=j], &mut ws.w);
                    comm.work((2 * n * (j + 1)) as u64);
                    if one_rank {
                        comm.work(dot_f * n as u64);
                        op.dot_partial(&ws.w, &ws.w)
                    } else {
                        // The Pythagorean identity, with a guarded
                        // recomputation (one extra reduction) whenever the
                        // subtraction cancels more than two digits —
                        // without the guard the Hessenberg entry loses
                        // accuracy near convergence and the iteration
                        // stalls.
                        let ww = ws.reduce[j + 1];
                        let h_sq: f64 = hcol[..=j].iter().map(|h| h * h).sum();
                        let mut hh = ww - h_sq;
                        if hh < 1e-2 * ww.max(1e-300) {
                            hh = comm
                                .try_allreduce_sum_scalar(op.dot_partial(&ws.w, &ws.w))?
                                .max(0.0);
                            comm.work(dot_f * n as u64);
                        }
                        hh
                    }
                }
                Orthogonalization::Modified => {
                    // Each projection off the running w, reduced on its own.
                    for (i, vi) in ws.v[..=j].iter().enumerate() {
                        comm.work(dot_f * n as u64);
                        let h = comm.try_allreduce_sum_scalar(op.dot_partial(&ws.w, vi))?;
                        dense::axpy(-h, vi, &mut ws.w);
                        comm.work(2 * n as u64);
                        hcol[i] = h;
                    }
                    comm.work(dot_f * n as u64);
                    let ww = op.dot_partial(&ws.w, &ws.w);
                    if one_rank {
                        ww
                    } else {
                        comm.try_allreduce_sum_scalar(ww)?
                    }
                }
            };
            let h_next = hh.max(0.0).sqrt();
            hcol[j + 1] = h_next;
            // Keep the unrotated column for a deflated restart.
            let raw = &mut ws.defl.hbar[j];
            raw[..=j + 1].copy_from_slice(&hcol[..=j + 1]);
            raw[j + 2..].fill(0.0);

            triangularize_column(hcol, j, j + 1, &mut ws.rotations, &mut ws.g);
            j_done = j + 1;

            let rel = ws.g[j + 1].abs() / r0_norm;
            residuals.push(rel);

            if let Some(tracer) = comm.tracer() {
                let st = comm.stats();
                tracer.emit(
                    EventKind::Iter,
                    "",
                    comm.virtual_time(),
                    vec![
                        ("iter".to_string(), Value::U64(total_iters as u64)),
                        ("rel_res".to_string(), Value::F64(rel)),
                        ("restart_index".to_string(), Value::U64((j + 1) as u64)),
                        ("cycle".to_string(), Value::U64(restarts as u64)),
                        ("degree".to_string(), Value::U64(degree as u64)),
                        (
                            "exchanges".to_string(),
                            Value::U64(st.neighbor_exchanges - iter_start_stats.neighbor_exchanges),
                        ),
                        (
                            "allreduces".to_string(),
                            Value::U64(st.allreduces - iter_start_stats.allreduces),
                        ),
                    ],
                );
            }

            if rel <= cfg.tol {
                stop = Some(StopReason::Converged);
                break;
            }
            if h_next <= breakdown_tol {
                // Invariant subspace: the least-squares solution is exact.
                stop = Some(StopReason::Breakdown);
                break;
            }
            ws.v[j + 1].copy_from_slice(&ws.w);
            for t in &mut ws.v[j + 1] {
                *t /= h_next;
            }
            comm.work(n as u64);
        }

        // Solve the triangular system R y = g, then x += Σ y_k z_k.
        if j_done > 0 {
            for i in (0..j_done).rev() {
                let mut acc = ws.g[i];
                for k in (i + 1)..j_done {
                    acc -= ws.h[k][i] * ws.y[k];
                }
                ws.y[i] = acc / ws.h[i][i];
            }
            for k in 0..j_done {
                let yk = ws.y[k];
                for (xi, zi) in x.iter_mut().zip(&ws.z[k]) {
                    *xi += yk * zi;
                }
            }
            comm.work((2 * n * j_done) as u64);
        }

        if let Some(reason) = stop {
            return Ok(done(x, residuals, reason, restarts));
        }
        restarts += 1;
        head = if pair > 0 {
            // A recycled cycle is not re-deflated: its head columns are U,
            // not preconditioned basis vectors, so its H̄ is no projection
            // the harmonic Ritz formula applies to.
            recycled_restart(op, ws, m, pair, breakdown_tol)?
        } else {
            deflate(op, ws, m)?
        };
        if head == 0 {
            // Plain restart (m < 4, or a degenerate eigenproblem, Gram
            // matrix or recycled residual): recompute the true residual.
            pair = 0;
            op.residual_into(b, &x, &mut ws.r);
            comm.status()?;
        } else if let (0, Some(tracer)) = (pair, comm.tracer()) {
            let mut fields = vec![("k".to_string(), Value::U64(head as u64))];
            for (i, &(re, im)) in ws.defl.theta.iter().enumerate() {
                fields.push((format!("theta{i}_re"), Value::F64(re)));
                fields.push((format!("theta{i}_im"), Value::F64(im)));
            }
            tracer.instant("deflated_restart", comm.virtual_time(), fields);
        }
    }
}

/// The deflated restart (FGMRES-DR, after Giraud, Gratton, Pinel & Vasseur,
/// and Morgan's GMRES-DR) at the end of a full cycle of dimension `m`,
/// with `ws.y` the cycle's least-squares solution. Returns the number `k`
/// of vectors carried into the next cycle, or 0 for a plain restart.
///
/// The `k = m/4` harmonic Ritz vectors `g` of smallest `|θ|` — eigenpairs
/// of `H_m + h²_{m+1,m} H_m⁻ᵀ e_m e_mᵀ` — and the least-squares residual
/// `s = c − H̄y` span `P_{k+1}`; then `V_{k+1} ← V_{m+1} P_{k+1}`,
/// `Z_k ← Z_m P_k`, `H̄_k ← P_{k+1}ᵀ H̄_m P_k` and `c ← P_{k+1}ᵀ s` keep
/// `A Z_k = V_{k+1} H̄_k` and the residual `V_{k+1} c`. Across ranks the
/// recombined basis is re-orthonormalised by its Gram matrix `G = RᵀR`
/// (one batched all-reduce): `V ← V R⁻¹`, `H̄_k ← R H̄_k`, `c ← R c`.
fn deflate<Op: DistributedOperator>(
    op: &Op,
    ws: &mut KrylovWorkspace,
    m: usize,
) -> Result<usize, CommError> {
    let k = deflation_dim(m);
    if k == 0 {
        return Ok(0);
    }
    let n = op.dim();
    let comm = op.comm();
    let d = &mut ws.defl;

    // s = c − H̄ y.
    d.s.copy_from_slice(&d.c);
    for (col, &yj) in d.hbar[..m].iter().zip(&ws.y[..m]) {
        dense::axpy(-yj, col, &mut d.s);
    }
    // M = H_m + h² f e_mᵀ with H_mᵀ f = e_m (the last column of M gains h² f).
    let h = d.hbar[m - 1][m];
    for i in 0..m {
        for j in 0..m {
            d.work[i * m + j] = d.hbar[i][j]; // H_mᵀ, row-major
        }
    }
    d.x[..m].fill(0.0);
    d.x[m - 1] = 1.0;
    lanczos::dense_solve(&d.work, m, &mut d.x, &mut d.lu, &mut d.piv);
    for i in 0..m {
        for j in 0..m {
            d.mat[i * m + j] = d.hbar[j][i];
        }
        d.mat[i * m + m - 1] += h * h * d.x[i];
    }
    d.work[..m * m].copy_from_slice(&d.mat);
    if !lanczos::dense_eigenvalues(&mut d.work, m, &mut d.wr, &mut d.wi) {
        return Ok(0);
    }
    for (i, o) in d.order.iter_mut().enumerate() {
        *o = i;
    }
    let (wr, wi) = (&d.wr, &d.wi);
    d.order.sort_unstable_by(|&a, &b| {
        wr[a]
            .hypot(wi[a])
            .total_cmp(&wr[b].hypot(wi[b]))
            .then(a.cmp(&b))
    });

    // The k smallest harmonic Ritz vectors (a complex pair enters whole, as
    // its real and imaginary parts), orthonormalised into P_k.
    d.theta.clear();
    let mut kk = 0usize;
    for &idx in &d.order {
        if kk >= k {
            break;
        }
        let theta = (d.wr[idx], d.wi[idx]);
        if theta.1 < 0.0 {
            continue; // the conjugate with positive imaginary part carries the pair
        }
        if !lanczos::dense_eigenvector(&d.mat, m, theta, &mut d.lu, &mut d.piv, &mut d.x) {
            return Ok(0);
        }
        let parts = if theta.1 == 0.0 { 1 } else { 2 };
        for part in 0..parts {
            let col = &mut d.p[kk];
            col[..m].copy_from_slice(&d.x[part * m..(part + 1) * m]);
            col[m] = 0.0;
            if orthonormalize_against(&mut d.p[..=kk], kk) {
                kk += 1;
            }
        }
        d.theta.push(theta);
        if parts == 2 {
            d.theta.push((theta.0, -theta.1));
        }
    }
    if kk == 0 {
        return Ok(0);
    }
    // p_{k+1}: the least-squares residual, orthonormalised against P_k.
    d.p[kk].copy_from_slice(&d.s);
    if !orthonormalize_against(&mut d.p[..=kk], kk) {
        return Ok(0);
    }

    // H̄_k = P_{k+1}ᵀ H̄_m P_k and c = P_{k+1}ᵀ s, in the head of `h`/`g`.
    for j in 0..kk {
        let hp = &mut d.hp[j];
        hp.fill(0.0);
        for (col, &pl) in d.hbar[..m].iter().zip(&d.p[j]) {
            dense::axpy(pl, col, hp);
        }
        for i in 0..=kk {
            ws.h[j][i] = dense::dot(&d.p[i], &d.hp[j]);
        }
    }
    ws.g.fill(0.0);
    for i in 0..=kk {
        ws.g[i] = dense::dot(&d.p[i], &d.s);
    }

    // V_{k+1} = V_{m+1} P_{k+1} and Z_k = Z_m P_k, in place, a block of
    // rows at a time.
    recombine(&mut ws.v[..=m], &d.p[..=kk], &mut d.chunk);
    recombine(&mut ws.z[..m], &d.p[..kk], &mut d.chunk);
    comm.work((2 * n * ((m + 1) * (kk + 1) + m * kk)) as u64);

    // Re-orthonormalise V_{k+1}: the lower triangle of its Gram matrix in
    // one all-reduce, G = RᵀR, V ← V R⁻¹, H̄ ← R H̄, c ← R c.
    let dim = kk + 1;
    let mut off = 0;
    for i in 0..dim {
        op.gs_dots(&ws.v[i], &ws.v[..i], &mut ws.reduce[off..]);
        off += i + 1;
    }
    comm.work(op.dot_flops_factor() * (n * off) as u64);
    comm.try_allreduce_sum_into(&mut ws.reduce[..off])?;
    let r = &mut d.gram[..dim * dim];
    let mut off = 0;
    for i in 0..dim {
        for l in 0..=i {
            r[l * dim + i] = ws.reduce[off + l];
        }
        off += i + 1;
    }
    if !cholesky_upper(r, dim) {
        return Ok(0);
    }
    for j in 0..dim {
        let (done, rest) = ws.v.split_at_mut(j);
        let vj = &mut rest[0];
        for (i, vi) in done.iter().enumerate() {
            dense::axpy(-r[i * dim + j], vi, vj);
        }
        dense::scale(1.0 / r[j * dim + j], vj);
    }
    comm.work((n * dim * (dim + 1)) as u64);
    for i in 0..dim {
        for j in 0..kk {
            ws.h[j][i] = (i..dim).map(|l| r[i * dim + l] * ws.h[j][l]).sum();
        }
        ws.g[i] = (i..dim).map(|l| r[i * dim + l] * ws.g[l]).sum();
    }
    for j in 0..kk {
        ws.h[j][dim..].fill(0.0);
        d.hbar[j].copy_from_slice(&ws.h[j]);
    }
    Ok(kk)
}

/// Turns the head `A Z_k = V_{k+1} H̄_k` that the previous solve on this
/// workspace left in place into the recycled pair: the thin QR
/// `H̄_k = Q R` gives `C = V_{k+1} Q` in `v[..k]` and `U = Z_k R⁻¹` in
/// `z[..k]`, so `A U = C` with `C` orthonormal. Local work only (the small
/// matrices are identical on every rank). Returns `k`, or 0 when `H̄_k` is
/// numerically rank-deficient.
fn recycle_pair<Op: DistributedOperator>(op: &Op, ws: &mut KrylovWorkspace, k: usize) -> usize {
    let n = op.dim();
    let d = &mut ws.defl;
    // Q in p[..k] by modified Gram–Schmidt, twice; R row-major in `gram`.
    let r = &mut d.gram[..k * k];
    r.fill(0.0);
    for j in 0..k {
        d.p[j].fill(0.0);
        d.p[j][..=k].copy_from_slice(&d.hbar[j][..=k]);
        let (prev, rest) = d.p.split_at_mut(j);
        let q = &mut rest[0];
        let before = dense::norm2(q);
        for _ in 0..2 {
            for (i, qi) in prev.iter().enumerate() {
                let h = dense::dot(qi, q);
                dense::axpy(-h, qi, q);
                r[i * k + j] += h;
            }
        }
        let after = dense::norm2(q);
        if !(after > 1e-10 * before && after.is_finite()) {
            return 0;
        }
        r[j * k + j] = after;
        dense::scale(1.0 / after, q);
    }
    // The columns of R⁻¹ (upper triangular) in hp[..k].
    for j in 0..k {
        let col = &mut d.hp[j];
        col.fill(0.0);
        for i in (0..=j).rev() {
            let mut acc = if i == j { 1.0 } else { 0.0 };
            for l in i + 1..=j {
                acc -= r[i * k + l] * col[l];
            }
            col[i] = acc / r[i * k + i];
        }
    }
    recombine(&mut ws.v[..=k], &d.p[..k], &mut d.chunk);
    recombine(&mut ws.z[..k], &d.hp[..k], &mut d.chunk);
    op.comm().work((2 * n * k * (2 * k + 1)) as u64);
    k
}

/// Completes the head `[C, r̂]` of a recycled cycle, with `r̂` (orthogonal
/// to `C`) in `v[k]`, `‖r̂‖ = beta` and `Cᵀr` in `g[..k]`: normalises `r̂`,
/// sets `g[k] = beta` and the raw head `H̄ = [I_k; 0]` in `h` and
/// `defl.hbar`. Returns `k`, or 0 when `beta` is at the breakdown level
/// (the residual lies in span `C`).
fn recycled_head<Op: DistributedOperator>(
    op: &Op,
    ws: &mut KrylovWorkspace,
    k: usize,
    beta: f64,
    breakdown_tol: f64,
) -> usize {
    if !(beta > breakdown_tol && beta.is_finite()) {
        return 0;
    }
    ws.g[k] = beta;
    dense::scale(1.0 / beta, &mut ws.v[k]);
    op.comm().work(op.dim() as u64);
    for j in 0..k {
        for col in [&mut ws.h[j], &mut ws.defl.hbar[j]] {
            col.fill(0.0);
            col[j] = 1.0;
        }
    }
    k
}

/// The restart of a recycled cycle of dimension `m` with head dimension
/// `k`, with `ws.y` the cycle's least-squares solution: the residual is
/// `V_{m+1} s` with `s = c − H̄y`, so `r̂ = V_{m+1}[k..] s[k..]` (no matvec,
/// no eigen-solve), re-orthogonalised against `C` with `Cᵀr̂` and `‖r̂‖²` in
/// one all-reduce, and the next cycle starts from `[C, r̂]` with
/// `c = [s[..k] + Cᵀr̂; ‖r̂‖]`. Returns `k`, or 0 for a plain restart.
fn recycled_restart<Op: DistributedOperator>(
    op: &Op,
    ws: &mut KrylovWorkspace,
    m: usize,
    k: usize,
    breakdown_tol: f64,
) -> Result<usize, CommError> {
    let n = op.dim();
    let comm = op.comm();
    let d = &mut ws.defl;
    d.s.copy_from_slice(&d.c);
    for (col, &yj) in d.hbar[..m].iter().zip(&ws.y[..m]) {
        dense::axpy(-yj, col, &mut d.s);
    }
    d.p[0].fill(0.0);
    d.p[0][..=m - k].copy_from_slice(&d.s[k..]);
    recombine(&mut ws.v[k..=m], &d.p[..1], &mut d.chunk);
    comm.work((2 * n * (m + 1 - k)) as u64);
    let (c, rest) = ws.v.split_at_mut(k);
    op.gs_dots(&rest[0], c, &mut ws.reduce);
    comm.work(op.dot_flops_factor() * (n * (k + 1)) as u64);
    comm.try_allreduce_sum_into(&mut ws.reduce[..=k])?;
    kernels::axpy_sweep_neg(&ws.reduce[..k], c, &mut rest[0]);
    comm.work((2 * n * k) as u64);
    let h_sq: f64 = ws.reduce[..k].iter().map(|h| h * h).sum();
    let beta = (ws.reduce[k] - h_sq).max(0.0).sqrt();
    ws.g.fill(0.0);
    for i in 0..k {
        ws.g[i] = ws.defl.s[i] + ws.reduce[i];
    }
    Ok(recycled_head(op, ws, k, beta, breakdown_tol))
}

/// Orthonormalises `cols[j]` against `cols[..j]` (two Gram–Schmidt passes)
/// and normalises it; `false` when it is numerically dependent on them.
fn orthonormalize_against(cols: &mut [Vec<f64>], j: usize) -> bool {
    let (prev, rest) = cols.split_at_mut(j);
    let v = &mut rest[0];
    let before = dense::norm2(v);
    for _ in 0..2 {
        for q in prev.iter() {
            let h = dense::dot(q, v);
            dense::axpy(-h, q, v);
        }
    }
    let after = dense::norm2(v);
    if !(after > 1e-10 * before && after.is_finite()) {
        return false;
    }
    dense::scale(1.0 / after, v);
    true
}

/// Overwrites `basis[..p.len()]` with `basis · P` (column `i` of the
/// result is `Σ_l p[i][l] basis[l]`), a block of rows at a time through
/// the `p.len() × (chunk.len() / p.len())` buffer `chunk`.
fn recombine(basis: &mut [Vec<f64>], p: &[Vec<f64>], chunk: &mut [f64]) {
    let (cols, rows) = (p.len(), basis[0].len());
    let width = chunk.len() / cols.max(1);
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + width).min(rows);
        for (i, pc) in p.iter().enumerate() {
            let out = &mut chunk[i * width..i * width + (r1 - r0)];
            out.fill(0.0);
            // Four sources per pass over the output block.
            for (src, c) in basis.chunks_exact(4).zip(pc.chunks_exact(4)) {
                let s = (
                    &src[0][r0..r1],
                    &src[1][r0..r1],
                    &src[2][r0..r1],
                    &src[3][r0..r1],
                );
                for ((((o, a), b), d), e) in out.iter_mut().zip(s.0).zip(s.1).zip(s.2).zip(s.3) {
                    *o += c[0] * a + c[1] * b + c[2] * d + c[3] * e;
                }
            }
            let done = basis.len() / 4 * 4;
            for (src, &coef) in basis[done..].iter().zip(&pc[done..]) {
                dense::axpy(coef, &src[r0..r1], out);
            }
        }
        for i in 0..cols {
            basis[i][r0..r1].copy_from_slice(&chunk[i * width..i * width + (r1 - r0)]);
        }
        r0 = r1;
    }
}

/// In-place Cholesky `G = RᵀR` of the row-major `dim × dim` matrix whose
/// upper triangle holds `G`; `false` unless `G` is numerically positive
/// definite.
fn cholesky_upper(r: &mut [f64], dim: usize) -> bool {
    for j in 0..dim {
        let mut d = r[j * dim + j];
        for i in 0..j {
            d -= r[i * dim + j] * r[i * dim + j];
        }
        if !(d > 0.0 && d.is_finite()) {
            return false;
        }
        let djj = d.sqrt();
        r[j * dim + j] = djj;
        for c in j + 1..dim {
            let mut v = r[j * dim + c];
            for i in 0..j {
                v -= r[i * dim + j] * r[i * dim + c];
            }
            r[j * dim + c] = v / djj;
        }
        for c in 0..j {
            r[j * dim + c] = 0.0;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{deflation_dim, Carry};
    use parfem_precond::{GlsPrecond, IdentityPrecond, Ilu0Precond, JacobiPrecond, NeumannPrecond};
    use parfem_sparse::{scaling, CooMatrix, CsrMatrix};

    fn laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.spmv(x);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (p - q).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn identity_system_converges_immediately() {
        let a = CsrMatrix::identity(5);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let res = fgmres(&a, &IdentityPrecond, &b, &[0.0; 5], &GmresConfig::default());
        assert!(res.history.converged());
        assert!(res.history.iterations() <= 1);
        for (xi, bi) in res.x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn zero_rhs_returns_x0() {
        let a = laplacian(4);
        let res = fgmres(
            &a,
            &IdentityPrecond,
            &[0.0; 4],
            &[0.0; 4],
            &GmresConfig::default(),
        );
        assert!(res.history.converged());
        assert_eq!(res.x, vec![0.0; 4]);
    }

    #[test]
    fn diagonal_matrix_converges_in_distinct_eigenvalue_count() {
        // GMRES terminates in at most (#distinct eigenvalues) iterations.
        let a = CsrMatrix::from_diagonal(&[1.0, 1.0, 2.0, 2.0, 3.0]);
        let b = [1.0, 1.0, 1.0, 1.0, 1.0];
        let cfg = GmresConfig {
            tol: 1e-12,
            ..Default::default()
        };
        let res = fgmres(&a, &IdentityPrecond, &b, &[0.0; 5], &cfg);
        assert!(res.history.converged());
        assert!(
            res.history.iterations() <= 3,
            "took {} iterations",
            res.history.iterations()
        );
    }

    #[test]
    fn laplacian_solution_matches_reference() {
        let n = 24;
        let a = laplacian(n);
        let x_exact: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = a.spmv(&x_exact);
        let cfg = GmresConfig {
            tol: 1e-10,
            ..Default::default()
        };
        let res = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg);
        assert!(res.history.converged());
        for (xi, ei) in res.x.iter().zip(&x_exact) {
            assert!((xi - ei).abs() < 1e-7, "{xi} vs {ei}");
        }
    }

    #[test]
    fn restart_still_converges() {
        let n = 30;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cfg = GmresConfig {
            restart: 5,
            max_iters: 5000,
            tol: 1e-8,
            ..Default::default()
        };
        let res = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg);
        assert!(res.history.converged());
        assert!(res.history.restarts > 0, "restart must have happened");
        assert!(residual_norm(&a, &res.x, &b) < 1e-6);
    }

    #[test]
    fn residual_history_is_monotone_within_cycles() {
        // GMRES minimizes the residual over a growing subspace, so within a
        // restart cycle it never increases.
        let n = 20;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cfg = GmresConfig {
            restart: 25,
            max_iters: 200,
            tol: 1e-10,
            ..Default::default()
        };
        let res = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg);
        let h = &res.history.relative_residuals;
        for w in h.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn gls_preconditioning_cuts_iterations() {
        // Diagonally scale the Laplacian so sigma in (0, 1), then compare
        // identity vs GLS(7) — the paper's headline comparison.
        let n = 60;
        let k = laplacian(n);
        let f = vec![1.0; n];
        let (a, b, _) = scaling::scale_system(&k, &f).unwrap();
        let cfg = GmresConfig {
            tol: 1e-8,
            ..Default::default()
        };
        let plain = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg);
        let gls = GlsPrecond::for_scaled_system(7);
        let pre = fgmres(&a, &gls, &b, &vec![0.0; n], &cfg);
        assert!(plain.history.converged() && pre.history.converged());
        assert!(
            pre.history.iterations() * 2 < plain.history.iterations(),
            "gls {} vs plain {}",
            pre.history.iterations(),
            plain.history.iterations()
        );
    }

    /// Golden counts of the paper's two polynomial families on the 24×24
    /// 5-point Laplacian: a change in their convergence must be a conscious
    /// decision, not drift. The delivered solution solves the scaled system
    /// to the tolerance and the original one after unscaling.
    #[test]
    fn polynomial_preconditioners_hold_their_golden_counts_on_the_2d_laplacian() {
        let (nx, n) = (24, 24 * 24);
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, 4.0).unwrap();
            for nb in [(r % nx + 1 < nx).then_some(r + 1), Some(r + nx)] {
                if let Some(c) = nb.filter(|&c| c < n) {
                    coo.push(r, c, -1.0).unwrap();
                    coo.push(c, r, -1.0).unwrap();
                }
            }
        }
        let k = coo.to_csr();
        // A smooth, non-constant load so convergence exercises many modes.
        let f: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let (a, b, sc) = scaling::scale_system(&k, &f).unwrap();
        let cfg = GmresConfig {
            restart: 30,
            max_iters: 400,
            tol: 1e-10,
            ..Default::default()
        };
        let solve = |p: &dyn Preconditioner<CsrMatrix>, golden: usize| {
            let res = fgmres(&a, p, &b, &vec![0.0; n], &cfg);
            assert!(
                res.history.converged(),
                "{}: {:?}",
                p.name(),
                res.history.stop
            );
            assert_eq!(res.history.iterations(), golden, "{} count moved", p.name());
            let scaled_res = residual_norm(&a, &res.x, &b) / dense::norm2(&b);
            assert!(scaled_res <= 1e-10, "{}: residual {scaled_res}", p.name());
            let u: Vec<f64> = res
                .x
                .iter()
                .zip(sc.diagonal())
                .map(|(x, d)| x * d)
                .collect();
            let unscaled = residual_norm(&k, &u, &f) / dense::norm2(&f);
            assert!(
                unscaled <= 1e-9,
                "{}: unscaled residual {unscaled}",
                p.name()
            );
        };
        solve(&GlsPrecond::for_scaled_system(7), 14);
        solve(&NeumannPrecond::for_scaled_system(7), 29);
    }

    /// The cheap cross-check of the deflated restart: `A p(A)` of a
    /// GLS-preconditioned scaled Laplacian is symmetric positive definite,
    /// so the harmonic Ritz values it deflates must come out real and
    /// positive, at the first restart and at the last.
    #[test]
    fn harmonic_ritz_values_of_gls_on_a_scaled_laplacian_are_real_and_positive() {
        let (nx, n) = (24, 24 * 24);
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, 4.0).unwrap();
            for nb in [(r % nx + 1 < nx).then_some(r + 1), Some(r + nx)] {
                if let Some(c) = nb.filter(|&c| c < n) {
                    coo.push(r, c, -1.0).unwrap();
                    coo.push(c, r, -1.0).unwrap();
                }
            }
        }
        let f: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let (a, b, _) = scaling::scale_system(&coo.to_csr(), &f).unwrap();
        let gls = GlsPrecond::for_scaled_system(7);
        let mut ws = KrylovWorkspace::new();
        for max_iters in [9, 400] {
            let cfg = GmresConfig {
                restart: 8,
                max_iters,
                tol: 1e-12,
                ..Default::default()
            };
            let res = fgmres_on(&OneRank(&a), &gls, &b, &vec![0.0; n], &cfg, &mut ws).unwrap();
            assert!(res.history.restarts >= 1);
            let theta = &ws.defl.theta;
            assert!(theta.len() >= deflation_dim(8), "{theta:?}");
            for &(re, im) in theta {
                assert!(re > 0.0 && im == 0.0, "harmonic Ritz value {re} + {im}i");
            }
        }
    }

    #[test]
    fn deflated_restart_beats_plain_restart_and_meets_the_true_residual() {
        // 1-D Laplacian, restart 8: plain restarting (m < 4 shows the same
        // k = 0 path) stagnates on the smooth modes the deflation carries.
        let n = 120;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let solve = |restart| {
            let cfg = GmresConfig {
                restart,
                max_iters: 20_000,
                tol: 1e-8,
                ..Default::default()
            };
            fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg)
        };
        let dr = solve(8);
        let plain = solve(3);
        assert!(dr.history.converged() && plain.history.converged());
        assert!(
            4 * dr.history.iterations() < plain.history.iterations(),
            "DR(8, 2) {} vs plain restart 3 {}",
            dr.history.iterations(),
            plain.history.iterations()
        );
        let rel = residual_norm(&a, &dr.x, &b) / dense::norm2(&b);
        assert!(rel <= 2e-8, "true residual {rel}");
    }

    /// A pseudo-random load in `[-1, 1)` (an LCG, so the test needs no
    /// dependency).
    fn random_load(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    /// Recycling on a fixed-operator workspace: the pair the second solve
    /// forms satisfies `A U = C` with `C` orthonormal, a recycled restart
    /// leaves its new head vector orthogonal to `C`, the first solve is
    /// bit-identical to one on a plain workspace, and every later
    /// right-hand side takes at most 0.6× the first one's iterations while
    /// meeting the true residual (1-D Laplacian under GLS(7), restart 25:
    /// 72 iterations, then 34 and 38).
    #[test]
    fn recycled_pair_is_exact_and_cuts_later_solves() {
        let n = 300;
        let (a, _, _) = scaling::scale_system(&laplacian(n), &vec![1.0; n]).unwrap();
        let gls = GlsPrecond::for_scaled_system(7);
        let cfg = GmresConfig {
            restart: 25,
            max_iters: 2_000,
            tol: 1e-8,
            ..Default::default()
        };
        let loads: Vec<Vec<f64>> = (1..=3).map(|seed| random_load(n, seed)).collect();
        let mut ws = KrylovWorkspace::for_fixed_operator();
        let mut counts = Vec::new();
        for (i, b) in loads.iter().enumerate() {
            let res = fgmres_on(&OneRank(&a), &gls, b, &vec![0.0; n], &cfg, &mut ws).unwrap();
            assert!(res.history.converged(), "RHS {i}: {:?}", res.history.stop);
            let rel = residual_norm(&a, &res.x, b) / dense::norm2(b);
            assert!(rel <= 2.0 * cfg.tol, "RHS {i}: true residual {rel:e}");
            if i == 0 {
                let plain = fgmres(&a, &gls, b, &vec![0.0; n], &cfg);
                assert_eq!(res.x, plain.x, "the first solve must not move");
                assert!(res.history.restarts >= 2);
                assert!(matches!(ws.carry, Carry::Head(_)), "{:?}", ws.carry);
            } else {
                let Carry::Pair(k) = ws.carry else {
                    panic!("RHS {i}: no recycled pair ({:?})", ws.carry)
                };
                assert!(k >= deflation_dim(cfg.restart));
                let c_norm = (k as f64).sqrt();
                let mut defect = 0.0;
                for j in 0..k {
                    let au = a.spmv(&ws.z[j]);
                    defect += au
                        .iter()
                        .zip(&ws.v[j])
                        .map(|(p, q)| (p - q).powi(2))
                        .sum::<f64>();
                    for l in 0..k {
                        let want = if j == l { 1.0 } else { 0.0 };
                        let got = dense::dot(&ws.v[j], &ws.v[l]);
                        assert!((got - want).abs() <= 1e-12, "CᵀC[{j}][{l}] = {got}");
                    }
                }
                assert!(
                    defect.sqrt() <= 1e-10 * c_norm,
                    "‖AU − C‖ = {:e}",
                    defect.sqrt()
                );
                // The last restart's r̂, now v[k], is re-orthogonalised
                // against C (without that pass the Arnoldi loss leaves
                // ~1e-12 here).
                assert!(res.history.restarts >= 1, "RHS {i} must restart");
                for j in 0..k {
                    let leak = dense::dot(&ws.v[j], &ws.v[k]).abs();
                    assert!(leak <= 1e-14, "RHS {i}: c{j}ᵀr̂ = {leak:e}");
                }
            }
            counts.push(res.history.iterations());
        }
        for (i, &its) in counts.iter().enumerate().skip(1) {
            assert!(
                10 * its <= 6 * counts[0],
                "RHS {i}: {its} vs first {}",
                counts[0]
            );
        }
    }

    #[test]
    fn ilu0_preconditioning_converges_fast_on_tridiagonal() {
        // ILU(0) on a tridiagonal matrix is the exact LU: 1 iteration.
        let n = 40;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let p = Ilu0Precond::factorize(&a).unwrap();
        let res = fgmres(&a, &p, &b, &vec![0.0; n], &GmresConfig::default());
        assert!(res.history.converged());
        assert!(
            res.history.iterations() <= 2,
            "took {}",
            res.history.iterations()
        );
    }

    #[test]
    fn jacobi_preconditioning_matches_identity_for_constant_diagonal() {
        // With a constant diagonal, Jacobi is a scalar multiple of the
        // identity: GMRES iteration counts must match exactly.
        let n = 25;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cfg = GmresConfig {
            tol: 1e-8,
            ..Default::default()
        };
        let rj = fgmres(&a, &JacobiPrecond::from_matrix(&a), &b, &vec![0.0; n], &cfg);
        let ri = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg);
        assert_eq!(rj.history.iterations(), ri.history.iterations());
    }

    #[test]
    fn max_iterations_is_honoured() {
        let n = 50;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cfg = GmresConfig {
            restart: 5,
            max_iters: 7,
            tol: 1e-14,
            ..Default::default()
        };
        let res = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg);
        assert_eq!(res.history.stop, StopReason::MaxIterations);
        assert_eq!(res.history.iterations(), 7);
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        let n = 16;
        let a = laplacian(n);
        let x_exact: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b = a.spmv(&x_exact);
        // Start from the exact solution: zero iterations.
        let res = fgmres(&a, &IdentityPrecond, &b, &x_exact, &GmresConfig::default());
        assert!(res.history.converged());
        assert_eq!(res.history.iterations(), 0);
    }

    #[test]
    fn flexible_gmres_supports_changing_preconditioners() {
        // The defining FGMRES capability (paper Sec. 2.3): the
        // preconditioner may differ at every iteration. An escalating-degree
        // GLS schedule must still converge to the right answer.
        use parfem_precond::EscalatingGls;
        let n = 50;
        let k = laplacian(n);
        let f = vec![1.0; n];
        let (a, b, sc) = parfem_sparse::scaling::scale_system(&k, &f).unwrap();
        let p = EscalatingGls::default_for_scaled_system(4);
        let cfg = GmresConfig {
            tol: 1e-9,
            ..Default::default()
        };
        let res = fgmres(&a, &p, &b, &vec![0.0; n], &cfg);
        assert!(res.history.converged());
        assert!(p.applications() == res.history.iterations());
        let u = sc.unscale_solution(&res.x);
        let r = k.spmv(&u);
        for (ri, fi) in r.iter().zip(&f) {
            assert!((ri - fi).abs() < 1e-5);
        }
    }

    #[test]
    fn modified_gram_schmidt_agrees_with_classical() {
        let n = 40;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cgs = GmresConfig {
            tol: 1e-10,
            ortho: Orthogonalization::Classical,
            ..Default::default()
        };
        let mgs = GmresConfig {
            tol: 1e-10,
            ortho: Orthogonalization::Modified,
            ..Default::default()
        };
        let rc = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &cgs);
        let rm = fgmres(&a, &IdentityPrecond, &b, &vec![0.0; n], &mgs);
        assert!(rc.history.converged() && rm.history.converged());
        // On a well-conditioned problem the iterate counts coincide.
        assert!(
            rc.history.iterations().abs_diff(rm.history.iterations()) <= 1,
            "cgs {} vs mgs {}",
            rc.history.iterations(),
            rm.history.iterations()
        );
        for (x, y) in rc.x.iter().zip(&rm.x) {
            assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn warm_workspace_history_hint_reserves_exactly() {
        let n = 40;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let cfg = GmresConfig {
            tol: 1e-8,
            ..Default::default()
        };
        let mut ws = KrylovWorkspace::new();
        let solve = |ws: &mut KrylovWorkspace| {
            fgmres_on(&OneRank(&a), &IdentityPrecond, &b, &vec![0.0; n], &cfg, ws).unwrap()
        };
        let first = solve(&mut ws);
        assert_eq!(ws.history_hint, first.history.relative_residuals.len());
        // A second identical solve must be bit-identical and keep the hint.
        let second = solve(&mut ws);
        assert_eq!(
            first.history.relative_residuals,
            second.history.relative_residuals
        );
        assert_eq!(first.x, second.x);
        assert_eq!(ws.history_hint, first.history.relative_residuals.len());
    }

    #[test]
    fn breakdown_produces_exact_solution() {
        // A 2x2 system where the Krylov space closes after one step when
        // started in an eigvector direction: A = diag(2, 3), b = e1.
        let a = CsrMatrix::from_diagonal(&[2.0, 3.0]);
        let b = [4.0, 0.0];
        let cfg = GmresConfig {
            tol: 1e-30, // force the breakdown path rather than tol-stop
            max_iters: 10,
            restart: 5,
            ..Default::default()
        };
        let res = fgmres(&a, &IdentityPrecond, &b, &[0.0; 2], &cfg);
        assert!(res.history.converged());
        assert!((res.x[0] - 2.0).abs() < 1e-12);
        assert!(res.x[1].abs() < 1e-12);
    }
}
