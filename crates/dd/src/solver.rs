//! The unified distributed FGMRES core.
//!
//! The paper's Algorithms 5/6 (element-based) and 8 (row-based) share one
//! Krylov skeleton: restarted flexible GMRES with batched classical
//! Gram–Schmidt (one all-reduce per iteration), a guarded Pythagorean
//! norm recompute, and Givens-rotation least squares. What differs between
//! the decompositions is *only* how the distributed pieces are realised —
//! the matvec's interface completion, the local partial of a deduplicated
//! inner product, the residual, and the flop accounting of a dot. The
//! [`DistributedOperator`] trait captures exactly those hooks, and
//! [`dd_fgmres`] runs the shared loop over any implementor; `edd_fgmres`
//! and `rdd_fgmres` construct their operator and delegate here, so the
//! rank's `fgmres` span and the kernel-variant record are emitted in this
//! one place.
//!
//! The layering (bottom-up) is
//! `Communicator → DistributedOperator → dd_fgmres → session`:
//! the communicator moves bytes and accounts virtual time, the operator
//! turns them into a distributed matrix action and inner products, this
//! module turns the operator into a solver, and the engine in
//! [`crate::session`] wires meshes and preconditioners to it.
//!
//! Every floating-point operation in this loop preserves the exact
//! evaluation order of the two solvers it replaced, per operator — the
//! golden tests in `crates/dd/tests/golden.rs` pin the pre-refactor
//! iterates bit for bit.

use crate::error::SolveError;
use parfem_krylov::givens::Givens;
use parfem_krylov::gmres::GmresConfig;
use parfem_krylov::history::{ConvergenceHistory, StopReason};
use parfem_krylov::KrylovWorkspace;
use parfem_msg::Communicator;
use parfem_precond::Preconditioner;
use parfem_sparse::LinearOperator;
use parfem_trace::{EventKind, Value};

/// The hooks a domain decomposition must provide to run under
/// [`dd_fgmres`].
///
/// Implementors are [`LinearOperator`]s whose `apply_into` performs the
/// full distributed matvec (local SpMV plus interface completion — the
/// EDD `⊕Σ` sum or the RDD halo gather), so polynomial preconditioners run
/// on them unchanged. The remaining methods expose the decomposition's
/// inner-product semantics and residual; their default-free design keeps
/// the two implementations' floating-point sequences exactly as they were
/// before unification (EDD dots are multiplicity-weighted at 3 flops per
/// element, RDD dots are plain at 2 — and the Gram–Schmidt sweep kernels
/// differ per operator on purpose).
pub trait DistributedOperator: LinearOperator {
    /// The communicator endpoint type this operator runs over.
    type Comm: Communicator;

    /// This rank's communicator endpoint.
    fn comm(&self) -> &Self::Comm;

    /// `r ← restriction of (b − A x)` in the operator's vector format,
    /// including the interface completion and its work accounting. The
    /// right-hand side is owned by the operator (supplied at construction).
    fn residual_into(&self, x: &[f64], r: &mut [f64]);

    /// Local partial of the deduplicated global inner product `⟨x, y⟩`;
    /// summing the partials across ranks (one all-reduce) yields the true
    /// global product.
    fn dot_partial(&self, x: &[f64], y: &[f64]) -> f64;

    /// Flops charged per vector element of one local dot partial: 3 for
    /// the multiplicity-weighted EDD form (`x·y·w`), 2 for the plain RDD
    /// form.
    fn dot_flops_factor(&self) -> u64;

    /// Fills `reduce[0..=basis.len()]` with the batched Gram–Schmidt
    /// partials: `reduce[i] = ⟨w, basis[i]⟩_partial` and
    /// `reduce[basis.len()] = ⟨w, w⟩_partial`. Kept per-operator because
    /// the two solvers historically used different (bit-compatible only
    /// with themselves) sweep kernels.
    fn gs_dots(&self, w: &[f64], basis: &[Vec<f64>], reduce: &mut [f64]);

    /// The kernel this operator's local SpMV runs (`csr`, `bcsr2`,
    /// `bcsr3`), the same on the blocking and the overlapped schedule.
    /// [`dd_fgmres`] records it per solve on the trace.
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
        P: Preconditioner<Self> + ?Sized,
        Self: Sized,
    {
        let _ = w_tmp;
        precond.apply_scratch(self, v_j, z_j, scratch);
    }
}

/// Result of a distributed FGMRES solve on one rank.
#[derive(Debug, Clone)]
pub struct DdResult {
    /// The solution over this rank's DOFs, in the operator's vector format
    /// (global distributed for EDD, owned rows for RDD).
    pub x: Vec<f64>,
    /// Convergence history (identical on every rank).
    pub history: ConvergenceHistory,
}

/// Restarted flexible GMRES over any [`DistributedOperator`] — the single
/// solver loop behind `edd_fgmres` and `rdd_fgmres`. The solve runs inside
/// the rank's `fgmres` trace span, after the operator's kernel is recorded as
/// the `kernel_variant_<label>` rank counter.
///
/// Once the workspace (and the operator's exchange staging) are warm,
/// restarts and iterations perform no heap allocation on this rank, and
/// solves that reuse a workspace are bit-identical to solves on a fresh
/// one.
///
/// # Errors
/// [`SolveError::Comm`] when the communication substrate degrades: the
/// direct reductions are fallible, and the rank's latched error state
/// ([`Communicator::status`]) is checked after every distributed
/// matvec/preconditioner application, so an error inside an infallible
/// exchange surfaces within the same iteration instead of corrupting the
/// solve silently.
///
/// # Panics
/// Panics on dimension mismatches or a non-positive restart length.
pub fn dd_fgmres<Op, P>(
    op: &Op,
    precond: &P,
    x0: &[f64],
    cfg: &GmresConfig,
    ws: &mut KrylovWorkspace,
) -> Result<DdResult, SolveError>
where
    Op: DistributedOperator,
    P: Preconditioner<Op> + ?Sized,
{
    let comm = op.comm();
    if let Some(tracer) = comm.tracer() {
        tracer.span_begin("fgmres", comm.virtual_time());
    }
    if let Some(tracer) = comm.tracer() {
        tracer.add_count(&format!("kernel_variant_{}", op.kernel_variant()), 1);
    }
    let res = restarted_fgmres(op, precond, x0, cfg, ws);
    if let Some(tracer) = comm.tracer() {
        tracer.span_end("fgmres", comm.virtual_time());
    }
    res
}

/// The restarted Arnoldi loop of [`dd_fgmres`].
fn restarted_fgmres<Op, P>(
    op: &Op,
    precond: &P,
    x0: &[f64],
    cfg: &GmresConfig,
    ws: &mut KrylovWorkspace,
) -> Result<DdResult, SolveError>
where
    Op: DistributedOperator,
    P: Preconditioner<Op> + ?Sized,
{
    let n = op.dim();
    assert_eq!(x0.len(), n, "dd_fgmres: x0 length mismatch");
    assert!(cfg.restart > 0, "dd_fgmres: restart must be positive");
    let m = cfg.restart;
    let comm = op.comm();
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

    let global_norm = |v: &[f64]| -> Result<f64, SolveError> {
        comm.work(dot_f * n as u64);
        Ok(comm.try_allreduce_sum_scalar(op.dot_partial(v, v))?.sqrt())
    };

    op.residual_into(&x, &mut ws.r);
    comm.status()?;
    let r0_norm = global_norm(&ws.r)?;
    residuals.push(1.0);
    if r0_norm == 0.0 {
        let history = ConvergenceHistory {
            relative_residuals: residuals,
            stop: StopReason::Converged,
            restarts: 0,
        };
        ws.history_hint = ws.history_hint.max(history.relative_residuals.len());
        return Ok(DdResult { x, history });
    }
    let breakdown_tol = 1e-14 * r0_norm;

    loop {
        let beta = global_norm(&ws.r)?;
        if beta / r0_norm <= cfg.tol {
            let history = ConvergenceHistory {
                relative_residuals: residuals,
                stop: StopReason::Converged,
                restarts,
            };
            ws.history_hint = ws.history_hint.max(history.relative_residuals.len());
            return Ok(DdResult { x, history });
        }

        ws.rotations.clear();
        ws.g.fill(0.0);
        ws.g[0] = beta;
        ws.v[0].copy_from_slice(&ws.r);
        for vi in &mut ws.v[0] {
            *vi /= beta;
        }
        comm.work(n as u64);

        let mut j_done = 0usize;
        let mut stop: Option<StopReason> = None;

        for j in 0..m {
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

            // Batched classical Gram-Schmidt reductions: all projections
            // plus ||w||^2 in ONE all-reduce, batched into `ws.reduce`.
            op.gs_dots(&ws.w, &ws.v[..(j + 1)], &mut ws.reduce);
            comm.work(dot_f * (n * (j + 2)) as u64);
            comm.try_allreduce_sum_into(&mut ws.reduce[..(j + 2)])?;

            let hcol = &mut ws.h[j];
            hcol[..(j + 1)].copy_from_slice(&ws.reduce[..(j + 1)]);
            let ww = ws.reduce[j + 1];
            parfem_sparse::kernels::axpy_sweep_neg(&hcol[..(j + 1)], &ws.v[..(j + 1)], &mut ws.w);
            comm.work((2 * n * (j + 1)) as u64);

            // Post-orthogonalization norm by the Pythagorean identity, with
            // a guarded recomputation (one extra reduction) whenever the
            // subtraction cancels more than two digits — without the guard
            // the Hessenberg entry loses accuracy near convergence and the
            // iteration stalls past the sequential count.
            let h_sq: f64 = hcol[..(j + 1)].iter().map(|h| h * h).sum();
            let mut hh = ww - h_sq;
            if hh < 1e-2 * ww.max(1e-300) {
                hh = comm
                    .try_allreduce_sum_scalar(op.dot_partial(&ws.w, &ws.w))?
                    .max(0.0);
                comm.work(dot_f * n as u64);
            }
            let h_next = hh.max(0.0).sqrt();
            hcol[j + 1] = h_next;

            for (i, rot) in ws.rotations.iter().enumerate() {
                let (a, b2) = rot.apply(hcol[i], hcol[i + 1]);
                hcol[i] = a;
                hcol[i + 1] = b2;
            }
            let (rot, rr) = Givens::compute(hcol[j], hcol[j + 1]);
            hcol[j] = rr;
            hcol[j + 1] = 0.0;
            let (g0, g1) = rot.apply(ws.g[j], ws.g[j + 1]);
            ws.g[j] = g0;
            ws.g[j + 1] = g1;
            ws.rotations.push(rot);
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
                stop = Some(StopReason::Breakdown);
                break;
            }
            ws.v[j + 1].copy_from_slice(&ws.w);
            for t in &mut ws.v[j + 1] {
                *t /= h_next;
            }
            comm.work(n as u64);
        }

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

        match stop {
            Some(reason) => {
                let history = ConvergenceHistory {
                    relative_residuals: residuals,
                    stop: reason,
                    restarts,
                };
                ws.history_hint = ws.history_hint.max(history.relative_residuals.len());
                return Ok(DdResult { x, history });
            }
            None => {
                restarts += 1;
                op.residual_into(&x, &mut ws.r);
                comm.status()?;
            }
        }
    }
}
