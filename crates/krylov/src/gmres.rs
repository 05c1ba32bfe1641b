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
//! then once for the norm. The restart dimension default is the paper's
//! `m̃ = 25`.

use crate::givens::Givens;
use crate::history::{ConvergenceHistory, StopReason};
use crate::workspace::KrylovWorkspace;
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
    /// Krylov subspace dimension between restarts (the paper's `m̃`).
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
/// restarts and iterations perform no heap allocation on this rank, and
/// solves that reuse a workspace are bit-identical to solves on a fresh
/// one.
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

    op.residual_into(b, &x, &mut ws.r);
    comm.status()?;
    let r0_norm = global_norm(&ws.r)?;
    residuals.push(1.0);
    if r0_norm == 0.0 {
        return Ok(done(x, residuals, StopReason::Converged, 0));
    }
    // Breakdown threshold relative to the initial residual scale.
    let breakdown_tol = 1e-14 * r0_norm;

    loop {
        let beta = global_norm(&ws.r)?;
        if beta / r0_norm <= cfg.tol {
            return Ok(done(x, residuals, StopReason::Converged, restarts));
        }

        // `g` must be re-zeroed: iteration j reads the still-virgin g[j + 1].
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

            // Apply accumulated rotations to the new column.
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

        match stop {
            Some(reason) => return Ok(done(x, residuals, reason, restarts)),
            None => {
                // Restart: recompute the true residual.
                restarts += 1;
                op.residual_into(b, &x, &mut ws.r);
                comm.status()?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
