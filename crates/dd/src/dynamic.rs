//! Parallel elastodynamics: Newmark time stepping with the EDD solver in
//! the loop.
//!
//! The paper's evaluation covers "large-scale static and dynamic problems";
//! this module runs the dynamic side in parallel. Each rank holds its
//! subdomain's unassembled stiffness **and** (lumped) mass; the effective
//! matrix `K̄̂⁽ˢ⁾ = ᾱM̂⁽ˢ⁾ + K̂⁽ˢ⁾` (paper Eq. 52) is formed locally once per
//! time-step size, norm-1 scaled with the distributed Algorithm 3, and every
//! step solves one distributed FGMRES system. The Newmark state `(u, v, a)`
//! lives in the global distributed format, so predictors and correctors are
//! purely local vector updates — interface consistency is preserved because
//! every update is the same linear combination on every sharing rank.

use crate::dist_vec::ExchangeBuffers;
use crate::edd::{assemble_on_rank, edd_fgmres, edd_rank_setup, EddRank};
use crate::session::{DdSolveOutput, Problem, SolverConfig};
use parfem_fem::{Mass, NewmarkParams, SubdomainSystem};
use parfem_krylov::history::{ConvergenceHistory, StopReason};
use parfem_krylov::KrylovWorkspace;
use parfem_mesh::ElementPartition;
use parfem_msg::{run_ranks, Communicator, MachineModel};

/// Output of a parallel transient run.
#[derive(Debug, Clone)]
pub struct DynamicRunOutput {
    /// Static-style output for the *final* state (solution = displacement
    /// at `t = steps·Δt`, history = last step's solve, reports/modeled time
    /// for the whole transient).
    pub last: DdSolveOutput,
    /// Per-step displacement at the watched global DOFs
    /// (`watch_histories[k][step]` for `watch_dofs[k]`).
    pub watch_histories: Vec<Vec<f64>>,
    /// Total FGMRES iterations over all steps.
    pub total_iterations: usize,
    /// Whether every step converged.
    pub all_converged: bool,
}

/// The transient engine behind
/// [`SolveSession::run_dynamic`](crate::SolveSession::run_dynamic): one `run_ranks` launch whose rank body assembles
/// its own stiffness and lumped mass ([`assemble_on_rank`]) and runs the
/// session's EDD rank setup ([`edd_rank_setup`]) on the effective matrix —
/// distributed scaling and the registry preconditioner, once — then
/// time-steps with a warm-started, shared-workspace FGMRES per step. The
/// run is fault-free and unmetered.
///
/// # Panics
/// Panics if the DOF map carries non-zero prescribed values (the transient
/// driver supports homogeneous constraints only), if a rank's
/// preconditioner cannot be built (`ilu0` on a floating subdomain), or on
/// shape mismatches.
pub(crate) fn run_dynamic_edd(
    problem: &Problem<'_>,
    part: &ElementPartition,
    model: MachineModel,
    cfg: &SolverConfig,
    params: NewmarkParams,
    steps: usize,
    watch_dofs: &[usize],
) -> DynamicRunOutput {
    let dm = problem.dof_map;
    for (d, v) in dm.fixed_dofs() {
        assert_eq!(v, 0.0, "dynamic driver requires homogeneous BCs (dof {d})");
    }
    let p = part.n_parts();
    let subdomains = part.subdomains_of(&problem.mesh());
    let (alpha, beta) = params.effective_coefficients();
    let dt = params.dt;
    let nm_beta = params.beta;
    let nm_gamma = params.gamma;

    type RankResult = (Vec<f64>, Vec<Vec<f64>>, usize, bool, ConvergenceHistory);
    let out = run_ranks(p, model, |comm| -> RankResult {
        // Stiffness and lumped mass, assembled by the rank itself.
        let sys = &assemble_on_rank(comm, problem, &subdomains[comm.rank()], Some(Mass::Lumped));
        let n = sys.n_local_dofs();

        // Effective local matrix, its distributed scaling and the
        // preconditioner (constructed once; theta = (eps, 1) post scaling).
        let k_eff_local = sys.effective_local(alpha, beta);
        let (setup, _) = edd_rank_setup(comm, sys, k_eff_local, None, cfg)
            .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()));
        let EddRank {
            layout,
            scaling: sc,
            a: a_eff,
            precond: pc,
            ..
        } = &setup;
        // The remaining setup-time interface sums share one staging buffer.
        let mut setup_bufs = ExchangeBuffers::new();

        let m_local = sys.m_local.as_ref().expect("mass assembled");
        // Assembled lumped-mass diagonal for the initial acceleration.
        let mut m_diag = m_local.diagonal();
        layout.interface_sum_buffered(comm, &mut m_diag, &mut setup_bufs);

        // Which local dofs are constrained (multiplicity-weighted identity
        // rows in K̂ ⇒ global dof fixed).
        let fixed_local: Vec<usize> = sys
            .global_dofs
            .iter()
            .enumerate()
            .filter(|(_, &g)| dm.is_fixed(g))
            .map(|(l, _)| l)
            .collect();

        // Initial state (global distributed): u = v = 0, a from
        // M a0 = f - K u0 = f (zero initial displacement).
        let mut u = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut f_assembled = sys.f_local.clone();
        layout.interface_sum_buffered(comm, &mut f_assembled, &mut setup_bufs);
        comm.work(n as u64);
        let mut a: Vec<f64> = f_assembled
            .iter()
            .zip(&m_diag)
            .map(|(fi, mi)| if *mi > 0.0 { fi / mi } else { 0.0 })
            .collect();
        for &l in &fixed_local {
            a[l] = 0.0;
        }

        let apply_solver = |b_local: &[f64], x0: &[f64], ws: &mut KrylovWorkspace| {
            edd_fgmres(
                comm,
                layout,
                a_eff,
                pc,
                b_local,
                x0,
                &cfg.gmres,
                cfg.variant,
                ws,
            )
        };

        // Local indices of watched dofs (if present on this rank).
        let watch_local: Vec<Option<usize>> = watch_dofs
            .iter()
            .map(|&g| sys.global_dofs.iter().position(|&gd| gd == g))
            .collect();
        let mut watch_histories: Vec<Vec<f64>> = vec![Vec::with_capacity(steps); watch_dofs.len()];

        let mut total_iterations = 0usize;
        let mut all_converged = true;
        let mut last_history = ConvergenceHistory {
            relative_residuals: vec![1.0],
            stop: StopReason::Converged,
            restarts: 0,
        };
        let mut u_star = vec![0.0; n];
        // One Krylov workspace reused by every time step: after the first
        // solve sizes it, the per-step FGMRES loop runs allocation-free, and
        // since the effective matrix ᾱM + K is fixed across steps, each step
        // recycles the deflation space of the step before it.
        let mut ws = KrylovWorkspace::for_fixed_operator();

        for _ in 0..steps {
            // Predictor (local, consistent).
            for i in 0..n {
                u_star[i] = u[i] + dt * v[i] + dt * dt * (0.5 - nm_beta) * a[i];
            }
            comm.work(6 * n as u64);
            // Effective local RHS: f̂ + ᾱ M̂ u* (local distributed), then
            // scale. Fixed rows: K̄̂ has 1/mult diag; rhs must carry 0.
            let mut rhs = m_local.spmv(&u_star);
            comm.work(m_local.spmv_flops());
            for (ri, fi) in rhs.iter_mut().zip(&sys.f_local) {
                *ri = fi + alpha * *ri;
            }
            comm.work(2 * n as u64);
            for &l in &fixed_local {
                rhs[l] = 0.0;
            }
            // Scale: b̂ = D̂ rhs; solve the scaled system; unscale.
            for (ri, di) in rhs.iter_mut().zip(&sc.d) {
                *ri *= di;
            }
            comm.work(n as u64);
            // Warm start from the scaled current displacement.
            let x0: Vec<f64> = u.iter().zip(&sc.d).map(|(ui, di)| ui / di).collect();
            comm.work(n as u64);
            // The dynamic driver always runs fault-free on the raw
            // communicator, so a typed solve error here is a bug.
            let res =
                apply_solver(&rhs, &x0, &mut ws).expect("fault-free dynamic solve must not error");
            total_iterations += res.history.iterations();
            all_converged &= res.history.converged();
            let mut u_new = res.x;
            sc.unscale(&mut u_new);
            for &l in &fixed_local {
                u_new[l] = 0.0;
            }
            // Correctors (local, consistent).
            for i in 0..n {
                let a_new = alpha * (u_new[i] - u_star[i]);
                v[i] += dt * ((1.0 - nm_gamma) * a[i] + nm_gamma * a_new);
                a[i] = a_new;
            }
            comm.work(7 * n as u64);
            for &l in &fixed_local {
                v[l] = 0.0;
                a[l] = 0.0;
            }
            u = u_new;
            last_history = res.history;
            for (k, wl) in watch_local.iter().enumerate() {
                if let Some(l) = wl {
                    watch_histories[k].push(u[*l]);
                }
            }
        }
        (
            u,
            watch_histories,
            total_iterations,
            all_converged,
            last_history,
        )
    });

    // Gather.
    let mut u = vec![0.0; dm.n_dofs()];
    for (sub, (ul, ..)) in subdomains.iter().zip(&out.results) {
        for (g, &v) in SubdomainSystem::global_dofs_of(dm, sub).into_iter().zip(ul) {
            u[g] = v;
        }
    }
    let mut watch_histories = vec![Vec::new(); watch_dofs.len()];
    for (rank, (_, wh, ..)) in out.results.iter().enumerate() {
        for (k, h) in wh.iter().enumerate() {
            if !h.is_empty() && watch_histories[k].is_empty() {
                watch_histories[k] = h.clone();
            }
        }
        let _ = rank;
    }
    for (k, h) in watch_histories.iter().enumerate() {
        assert_eq!(
            h.len(),
            steps,
            "watched dof {} not owned by any rank",
            watch_dofs[k]
        );
    }
    let (_, _, total_iterations, all_converged, last_history) = out.results[0].clone();
    DynamicRunOutput {
        last: DdSolveOutput {
            u,
            history: last_history,
            reports: out.reports,
            modeled_time: out.modeled_time,
            coarse: Vec::new(),
            factor: Vec::new(),
        },
        watch_histories,
        total_iterations,
        all_converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SolveSession, Strategy};
    use parfem_fem::{assembly, Material};
    use parfem_krylov::gmres::GmresConfig;
    use parfem_mesh::{DofMap, Edge, QuadMesh};

    fn problem() -> (QuadMesh, DofMap, Material, Vec<f64>) {
        let mesh = QuadMesh::cantilever(12, 3);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1e-3, &mut loads);
        (mesh, dm, mat, loads)
    }

    /// `steps` average-acceleration steps of size `dt` on `p` strips,
    /// watching `tip`, at a tight per-step tolerance.
    fn run(
        (mesh, dm, mat, loads): &(QuadMesh, DofMap, Material, Vec<f64>),
        p: usize,
        steps: usize,
        dt: f64,
        tip: usize,
    ) -> DynamicRunOutput {
        SolveSession::new(Problem::new(mesh, dm, mat, loads))
            .strategy(Strategy::Edd(ElementPartition::strips_x(mesh, p)))
            .gmres(GmresConfig {
                tol: 1e-10,
                ..Default::default()
            })
            .run_dynamic(NewmarkParams::average_acceleration(dt), steps, &[tip])
    }

    #[test]
    fn parallel_transient_matches_rank_one_run() {
        let problem = problem();
        let tip = problem.1.dof(problem.0.node_at(12, 3), 1);
        let p1 = run(&problem, 1, 20, 2.0, tip);
        let p4 = run(&problem, 4, 20, 2.0, tip);
        assert!(p1.all_converged && p4.all_converged);
        for (a, b) in p1.watch_histories[0].iter().zip(&p4.watch_histories[0]) {
            assert!(
                (a - b).abs() < 1e-7 * (1.0 + b.abs()),
                "trajectories diverge: {a} vs {b}"
            );
        }
    }

    #[test]
    fn parallel_transient_matches_sequential_newmark() {
        // Reference: the sequential NewmarkIntegrator with a dense-accurate
        // iterative solve.
        let problem = problem();
        let (mesh, dm, mat, loads) = &problem;
        let tip = dm.dof(mesh.node_at(12, 3), 1);
        let steps = 15;
        let dt = 2.0;

        // Sequential reference.
        let k_raw = assembly::assemble_stiffness(mesh, dm, mat);
        let m_raw = assembly::assemble_mass(mesh, dm, mat, parfem_fem::Mass::Lumped);
        let mut f = loads.clone();
        let k = assembly::apply_dirichlet(&k_raw, dm, &mut f);
        let m = assembly::apply_dirichlet_mass(&m_raw, dm);
        let fixed: Vec<(usize, f64)> = dm.fixed_dofs().collect();
        let n = k.n_rows();
        let diag_solve = |a: &parfem_sparse::CsrMatrix, b: &[f64]| -> Vec<f64> {
            a.diagonal()
                .iter()
                .zip(b)
                .map(|(&d, &bi)| if d != 0.0 { bi / d } else { 0.0 })
                .collect()
        };
        let mut integ = parfem_fem::NewmarkIntegrator::new(
            k.clone(),
            m,
            NewmarkParams::average_acceleration(dt),
            fixed,
            vec![0.0; n],
            vec![0.0; n],
            &f,
            diag_solve,
        );
        let iter_solve = |a: &parfem_sparse::CsrMatrix, b: &[f64]| -> Vec<f64> {
            let (u, h) = crate::tests_support::seq_solve(a, b);
            assert!(h.converged());
            u
        };
        let mut seq_tip = Vec::new();
        for _ in 0..steps {
            integ.step(&f, iter_solve);
            seq_tip.push(integ.displacement()[tip]);
        }

        // Parallel.
        let out = run(&problem, 3, steps, dt, tip);
        assert!(out.all_converged);
        for (s, p) in seq_tip.iter().zip(&out.watch_histories[0]) {
            assert!(
                (s - p).abs() < 1e-6 * (1.0 + s.abs()),
                "sequential {s} vs parallel {p}"
            );
        }
    }

    #[test]
    fn transient_tracks_static_deflection_on_average() {
        let problem = problem();
        let (mesh, dm, mat, loads) = &problem;
        let tip = dm.dof(mesh.node_at(12, 3), 1);
        // Static reference deflection.
        let sys = assembly::build_static(mesh, dm, mat, loads);
        let (u_static, h) = crate::tests_support::seq_solve(&sys.stiffness, &sys.rhs);
        assert!(h.converged());
        // One fundamental period of this beam is ~130 s.
        let out = run(&problem, 4, 130, 1.0, tip);
        let mean: f64 =
            out.watch_histories[0].iter().sum::<f64>() / out.watch_histories[0].len() as f64;
        assert!(
            (mean - u_static[tip]).abs() < 0.3 * u_static[tip].abs(),
            "mean {mean} vs static {}",
            u_static[tip]
        );
        // Dynamic overshoot beyond static.
        let peak = out.watch_histories[0]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(peak < u_static[tip], "no overshoot: {peak}");
    }

    #[test]
    fn iteration_counts_stay_p_independent_in_dynamics() {
        let problem = problem();
        let tip = problem.1.dof(problem.0.node_at(12, 3), 1);
        let mut totals = Vec::new();
        for p in [1usize, 2, 4] {
            let out = run(&problem, p, 5, 1.0, tip);
            assert!(out.all_converged);
            totals.push(out.total_iterations);
        }
        let min = *totals.iter().min().unwrap();
        let max = *totals.iter().max().unwrap();
        assert!(max - min <= 5, "totals vary too much: {totals:?}");
    }
}
