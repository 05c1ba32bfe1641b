//! Restarted flexible GMRES (the paper's Algorithm 1).
//!
//! Flexible GMRES stores the preconditioned vectors `z_j = C v_j` and builds
//! the solution update from them (`x = x₀ + Z y`), which permits a different
//! preconditioner at every iteration — the property that lets the paper
//! swap polynomial preconditioners freely. With right-style application
//! (`w = A z_j`) the Givens residual estimate is the *true* residual norm,
//! so the convergence monitor `‖r_i‖/‖r₀‖ ≤ tol` of the paper's Section 6
//! comes for free.
//!
//! Orthogonalization is **classical Gram–Schmidt**, matching the parallel
//! Algorithms 5/6/8 (classical GS batches the inner products into one
//! global reduction, which is why the paper chooses it); the restart
//! dimension default is the paper's `m̃ = 25`.

use crate::givens::Givens;
use crate::history::{ConvergenceHistory, StopReason};
use crate::workspace::KrylovWorkspace;
use parfem_precond::Preconditioner;
use parfem_sparse::{dense, kernels, LinearOperator};
use parfem_trace::{EventKind, RankTracer, Value};

/// Arnoldi orthogonalization scheme.
///
/// The paper's parallel algorithms use **classical** Gram–Schmidt because
/// it batches all inner products of an iteration into a single global
/// reduction; **modified** Gram–Schmidt is numerically sturdier but costs
/// one reduction per basis vector in a distributed setting. The sequential
/// solver offers both for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Orthogonalization {
    /// Classical Gram–Schmidt (one batched reduction; the paper's choice).
    #[default]
    Classical,
    /// Modified Gram–Schmidt (sequential projections).
    Modified,
}

/// Configuration for [`fgmres`].
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

/// Result of a GMRES solve.
#[derive(Debug, Clone)]
pub struct GmresResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// The convergence history.
    pub history: ConvergenceHistory,
}

/// Solves `A x = b` by restarted flexible GMRES.
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
    fgmres_traced(op, precond, b, x0, cfg, None)
}

/// [`fgmres`] with a caller-owned [`KrylovWorkspace`].
///
/// The workspace self-sizes on first use; once warm, restarts and
/// iterations perform **no heap allocation**, and the result is
/// bit-identical to [`fgmres`] (which is just this function with a
/// throwaway workspace). Reuse one workspace across the repeated solves of
/// a time-stepping or parameter-sweep loop to take per-solve allocation off
/// the hot path.
pub fn fgmres_with<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    ws: &mut KrylovWorkspace,
) -> GmresResult
where
    Op: LinearOperator + ?Sized,
    P: Preconditioner<Op> + ?Sized,
{
    fgmres_traced_with(op, precond, b, x0, cfg, None, ws)
}

/// [`fgmres`] with optional tracing: brackets the solve in an `fgmres` span
/// and emits one [`EventKind::Iter`] event per inner iteration (relative
/// residual, restart index, cycle, active preconditioner degree). The
/// sequential solver has no virtual clock, so event times carry wall time
/// only (`tv = 0`).
pub fn fgmres_traced<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    tracer: Option<&RankTracer>,
) -> GmresResult
where
    Op: LinearOperator + ?Sized,
    P: Preconditioner<Op> + ?Sized,
{
    let mut ws = KrylovWorkspace::new();
    fgmres_traced_with(op, precond, b, x0, cfg, tracer, &mut ws)
}

/// [`fgmres_traced`] with a caller-owned [`KrylovWorkspace`] — the most
/// general entry point; every other `fgmres*` function is a thin wrapper
/// around this one.
pub fn fgmres_traced_with<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    tracer: Option<&RankTracer>,
    ws: &mut KrylovWorkspace,
) -> GmresResult
where
    Op: LinearOperator + ?Sized,
    P: Preconditioner<Op> + ?Sized,
{
    if let Some(t) = tracer {
        t.span_begin("fgmres", 0.0);
    }
    let res = fgmres_inner(op, precond, b, x0, cfg, tracer, ws);
    if let Some(t) = tracer {
        t.span_end("fgmres", 0.0);
    }
    res
}

/// Fused classical Gram–Schmidt step: projects `w` against the basis `vs`
/// (coefficients into `hcol[..vs.len()]`), subtracts the projections, and
/// returns `‖w‖₂` of the orthogonalized vector.
///
/// Dot products and AXPY updates run in blocks of four through
/// [`kernels::dot_block`] / [`kernels::axpy_block`], whose contracts make
/// this **bit-identical** to the unfused
/// `dot* / axpy* / norm2` sequence while passing over `w` four times fewer;
/// the trailing norm comes free from the last AXPY block.
fn cgs_orthogonalize(vs: &[Vec<f64>], w: &mut [f64], hcol: &mut [f64]) -> f64 {
    let cnt = vs.len();
    if cnt == 0 {
        return dense::norm2(w);
    }
    let mut i = 0;
    while i + 4 <= cnt {
        let d = kernels::dot_block(
            w,
            [
                vs[i].as_slice(),
                vs[i + 1].as_slice(),
                vs[i + 2].as_slice(),
                vs[i + 3].as_slice(),
            ],
        );
        hcol[i..i + 4].copy_from_slice(&d);
        i += 4;
    }
    match cnt - i {
        1 => hcol[i] = kernels::dot_block(w, [vs[i].as_slice()])[0],
        2 => {
            let d = kernels::dot_block(w, [vs[i].as_slice(), vs[i + 1].as_slice()]);
            hcol[i..i + 2].copy_from_slice(&d);
        }
        3 => {
            let d = kernels::dot_block(
                w,
                [vs[i].as_slice(), vs[i + 1].as_slice(), vs[i + 2].as_slice()],
            );
            hcol[i..i + 3].copy_from_slice(&d);
        }
        _ => {}
    }

    let mut sq = 0.0;
    let mut i = 0;
    while i + 4 <= cnt {
        sq = kernels::axpy_block(
            [-hcol[i], -hcol[i + 1], -hcol[i + 2], -hcol[i + 3]],
            [
                vs[i].as_slice(),
                vs[i + 1].as_slice(),
                vs[i + 2].as_slice(),
                vs[i + 3].as_slice(),
            ],
            w,
        );
        i += 4;
    }
    match cnt - i {
        1 => sq = kernels::axpy_block([-hcol[i]], [vs[i].as_slice()], w),
        2 => {
            sq = kernels::axpy_block(
                [-hcol[i], -hcol[i + 1]],
                [vs[i].as_slice(), vs[i + 1].as_slice()],
                w,
            );
        }
        3 => {
            sq = kernels::axpy_block(
                [-hcol[i], -hcol[i + 1], -hcol[i + 2]],
                [vs[i].as_slice(), vs[i + 1].as_slice(), vs[i + 2].as_slice()],
                w,
            );
        }
        _ => {}
    }
    sq.sqrt()
}

fn fgmres_inner<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    tracer: Option<&RankTracer>,
    ws: &mut KrylovWorkspace,
) -> GmresResult
where
    Op: LinearOperator + ?Sized,
    P: Preconditioner<Op> + ?Sized,
{
    let res = fgmres_core(op, precond, b, x0, cfg, tracer, ws);
    // Remember the history length so the next solve on this workspace can
    // reserve it exactly (see `KrylovWorkspace::history_hint`).
    ws.history_hint = ws.history_hint.max(res.history.relative_residuals.len());
    res
}

fn fgmres_core<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    x0: &[f64],
    cfg: &GmresConfig,
    tracer: Option<&RankTracer>,
    ws: &mut KrylovWorkspace,
) -> GmresResult
where
    Op: LinearOperator + ?Sized,
    P: Preconditioner<Op> + ?Sized,
{
    let n = op.dim();
    assert_eq!(b.len(), n, "fgmres: b length mismatch");
    assert_eq!(x0.len(), n, "fgmres: x0 length mismatch");
    assert!(
        cfg.restart > 0,
        "fgmres: restart dimension must be positive"
    );
    let m = cfg.restart;
    ws.ensure(n, m, precond.scratch_vectors());

    let mut x = x0.to_vec();
    // Reserve the history to the workspace's high-water mark: after one
    // solve of representative length the capacity is exact, so the
    // iteration loop pushes without growing — allocation traffic per
    // iteration is zero, independent of `max_iters` (a `max_iters`-scaled
    // reservation would itself read as bytes-per-iteration to the alloc
    // gate). A cold workspace just grows amortized on the first solve.
    let mut residuals = Vec::with_capacity(ws.history_hint);
    let mut restarts = 0usize;
    let mut total_iters = 0usize;

    // Initial residual r = b - A x, with w as the matvec temporary.
    op.apply_into(&x, &mut ws.w);
    dense::sub_into(b, &ws.w, &mut ws.r);
    let r0_norm = dense::norm2(&ws.r);
    residuals.push(1.0);
    if r0_norm == 0.0 {
        return GmresResult {
            x,
            history: ConvergenceHistory {
                relative_residuals: residuals,
                stop: StopReason::Converged,
                restarts: 0,
            },
        };
    }

    // Breakdown threshold relative to the initial residual scale.
    let breakdown_tol = 1e-14 * r0_norm;

    // With the exact identity preconditioner, z_j ≡ v_j bit-for-bit: skip
    // the `z = C v` copy entirely and alias the basis column wherever a
    // flexible vector is read (operator application and solution update).
    let identity = precond.is_identity();

    loop {
        let beta = dense::norm2(&ws.r);
        if beta / r0_norm <= cfg.tol {
            return GmresResult {
                x,
                history: ConvergenceHistory {
                    relative_residuals: residuals,
                    stop: StopReason::Converged,
                    restarts,
                },
            };
        }
        // Arnoldi basis V, flexible vectors Z, Hessenberg columns (upper
        // triangular after rotations), rotations, and the rhs g — all
        // preallocated columns of the workspace. `g` must be re-zeroed:
        // iteration j reads the still-virgin g[j + 1].
        ws.rotations.clear();
        ws.g.fill(0.0);
        ws.g[0] = beta;
        // Fused normalization: one pass instead of copy-then-scale, same
        // per-element product either way (`scale_into` is bit-identical).
        dense::scale_into(1.0 / beta, &ws.r, &mut ws.v[0]);

        let mut j_done = 0usize;
        let mut stop: Option<StopReason> = None;

        for j in 0..m {
            if total_iters >= cfg.max_iters {
                stop = Some(StopReason::MaxIterations);
                break;
            }
            total_iters += 1;
            let degree = precond.current_operator_applications();
            if let Some(t) = tracer {
                t.add_count("precond_applies", 1);
            }
            // Flexible preconditioning z_j = C v_j, into the preallocated
            // column (apply_scratch overwrites it completely). The exact
            // identity skips the copy and applies the operator to v_j
            // directly — the same bits z_j would hold.
            if identity {
                op.apply_into(&ws.v[j], &mut ws.w);
            } else {
                precond.apply_scratch(op, &ws.v[j], &mut ws.z[j], &mut ws.precond_scratch);
                op.apply_into(&ws.z[j], &mut ws.w);
            }

            let hcol = &mut ws.h[j];
            let h_next = match cfg.ortho {
                Orthogonalization::Classical => {
                    // All projections off the same w: fused blocked dots,
                    // AXPYs and trailing norm (bit-identical to the unfused
                    // form — see `cgs_orthogonalize`).
                    cgs_orthogonalize(&ws.v[..j + 1], &mut ws.w, hcol)
                }
                Orthogonalization::Modified => {
                    // Sequential projections off the running w.
                    for (i, vi) in ws.v[..j + 1].iter().enumerate() {
                        let h = dense::dot(&ws.w, vi);
                        dense::axpy(-h, vi, &mut ws.w);
                        hcol[i] = h;
                    }
                    dense::norm2(&ws.w)
                }
            };
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
            if let Some(t) = tracer {
                t.emit(
                    EventKind::Iter,
                    "iter",
                    0.0,
                    vec![
                        ("iter".to_string(), Value::U64(total_iters as u64)),
                        ("rel_res".to_string(), Value::F64(rel)),
                        ("restart_index".to_string(), Value::U64((j + 1) as u64)),
                        ("cycle".to_string(), Value::U64(restarts as u64)),
                        ("degree".to_string(), Value::U64(degree as u64)),
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
            // Fused normalization (see the v[0] note above).
            dense::scale_into(1.0 / h_next, &ws.w, &mut ws.v[j + 1]);
        }

        // Solve the triangular system R y = g for the iterations done.
        if j_done > 0 {
            for i in (0..j_done).rev() {
                let mut acc = ws.g[i];
                for k in (i + 1)..j_done {
                    acc -= ws.h[k][i] * ws.y[k];
                }
                ws.y[i] = acc / ws.h[i][i];
            }
            // Blocked solution update x += Σ y_k z_k: one pass over x per
            // four flexible vectors instead of one per vector —
            // bit-identical to the sequential AXPYs ([`kernels::axpy_block`]
            // preserves the per-element update order).
            let zs: &[Vec<f64>] = if identity { &ws.v } else { &ws.z };
            let mut k = 0;
            while k + 4 <= j_done {
                kernels::axpy_block(
                    [ws.y[k], ws.y[k + 1], ws.y[k + 2], ws.y[k + 3]],
                    [
                        zs[k].as_slice(),
                        zs[k + 1].as_slice(),
                        zs[k + 2].as_slice(),
                        zs[k + 3].as_slice(),
                    ],
                    &mut x,
                );
                k += 4;
            }
            match j_done - k {
                1 => {
                    kernels::axpy_block([ws.y[k]], [zs[k].as_slice()], &mut x);
                }
                2 => {
                    kernels::axpy_block(
                        [ws.y[k], ws.y[k + 1]],
                        [zs[k].as_slice(), zs[k + 1].as_slice()],
                        &mut x,
                    );
                }
                3 => {
                    kernels::axpy_block(
                        [ws.y[k], ws.y[k + 1], ws.y[k + 2]],
                        [zs[k].as_slice(), zs[k + 1].as_slice(), zs[k + 2].as_slice()],
                        &mut x,
                    );
                }
                _ => {}
            }
        }

        match stop {
            Some(reason @ (StopReason::Converged | StopReason::Breakdown)) => {
                return GmresResult {
                    x,
                    history: ConvergenceHistory {
                        relative_residuals: residuals,
                        stop: reason,
                        restarts,
                    },
                };
            }
            Some(StopReason::MaxIterations) => {
                return GmresResult {
                    x,
                    history: ConvergenceHistory {
                        relative_residuals: residuals,
                        stop: StopReason::MaxIterations,
                        restarts,
                    },
                };
            }
            None => {
                // Restart: recompute the true residual r = b - A x.
                restarts += 1;
                op.apply_into(&x, &mut ws.w);
                dense::sub_into(b, &ws.w, &mut ws.r);
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
        let first = fgmres_with(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg, &mut ws);
        assert_eq!(ws.history_hint, first.history.relative_residuals.len());
        // A second identical solve must be bit-identical and keep the hint.
        let second = fgmres_with(&a, &IdentityPrecond, &b, &vec![0.0; n], &cfg, &mut ws);
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
