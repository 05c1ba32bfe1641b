//! Parallel elastodynamics: the Newmark step loop of the session engine's
//! rank body, behind [`SolveSession::run_dynamic`](crate::SolveSession::run_dynamic).
//!
//! Each rank holds its lumped mass as one vector over its rows (the
//! diagonal of `M` in the load format, summed by
//! [`parfem_fem::assembly`]'s one helper under either strategy), sets up the
//! effective matrix `ᾱM + K` (paper Eq. 52) once by adding `ᾱ·m` to its
//! stiffness's diagonal, and every step solves one distributed FGMRES
//! system. The Newmark state `(u, v, a)` lives in the strategy's solution
//! format, so predictors and correctors are purely local updates: the same
//! linear combination on every rank that holds a row. Two interface sums
//! per transient, none per step, make `a₀ = M⁻¹f` consistent.

use crate::error::SolveError;
use crate::session::{
    DdSolveOutput, Decomposition, MultiSolveOutput, Problem, Rank, RankRun, SolverConfig,
};
use parfem_fem::NewmarkParams;
use parfem_krylov::{fgmres_on, DistributedOperator, KrylovWorkspace};
use parfem_msg::Communicator;
use parfem_sparse::dense;

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

impl DynamicRunOutput {
    /// From the engine's output: one history per step, the final
    /// displacement as its one solution.
    pub(crate) fn new(out: MultiSolveOutput, watch_histories: Vec<Vec<f64>>) -> Self {
        for (k, h) in watch_histories.iter().enumerate() {
            assert_eq!(
                h.len(),
                out.histories.len(),
                "watched dof #{k} is held by no rank"
            );
        }
        DynamicRunOutput {
            total_iterations: out.histories.iter().map(|h| h.iterations()).sum(),
            all_converged: out.all_converged(),
            last: out.into_last(),
            watch_histories,
        }
    }
}

/// One transient: the Newmark parameters, the step count, the watched
/// global DOFs.
#[derive(Clone, Copy)]
pub(crate) struct Newmark<'a> {
    pub params: NewmarkParams,
    pub steps: usize,
    pub watch: &'a [usize],
}

/// The step loop, after the rank set up `ᾱM + K`: zero initial state,
/// `a₀ = M⁻¹ f` from the consistent lumped mass and load, then per step the
/// predictor `u*`, `b = D (f + ᾱ M u*)` in the load format (`M u*` the
/// entry-wise product with the mass vector, `n` flops), one FGMRES
/// warm-started from the current displacement and the corrector.
/// Constrained rows stay zero. `out` comes back with the final displacement,
/// every step's history and the watched values.
pub(crate) fn newmark_steps<D: Decomposition, C: Communicator>(
    rank: &Rank<D::Op<'_, C>>,
    problem: &Problem<'_>,
    run: Newmark<'_>,
    cfg: &SolverConfig,
    ws: &mut KrylovWorkspace,
    mut out: RankRun,
) -> Result<RankRun, SolveError> {
    let comm = rank.op.comm();
    let mass = (rank.mass.as_deref()).expect("a transient sets up with a mass shift");
    let (n, dm, d) = (rank.dofs.len(), problem.dof_map, &rank.d);
    let NewmarkParams { beta, gamma, dt } = run.params;
    let (alpha, _) = run.params.effective_coefficients();
    let fixed: Vec<usize> = (0..n).filter(|&l| dm.is_fixed(rank.dofs[l])).collect();
    let f = rank.restrict_load(problem.loads, dm);
    let mut m_diag = mass.to_vec();
    D::make_consistent(&rank.op, &mut m_diag);
    let mut a = f.clone();
    D::make_consistent(&rank.op, &mut a);
    comm.work(n as u64);
    for (ai, mi) in a.iter_mut().zip(&m_diag) {
        *ai = if *mi > 0.0 { *ai / mi } else { 0.0 };
    }
    fixed.iter().for_each(|&l| a[l] = 0.0);
    let watch: Vec<Option<usize>> = (run.watch.iter())
        .map(|&g| rank.dofs.iter().position(|&gd| gd == g))
        .collect();
    out.watch = vec![Vec::new(); watch.len()];
    let (mut u, mut v) = (vec![0.0; n], vec![0.0; n]);
    let (mut u_star, mut rhs, mut x0) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for _ in 0..run.steps {
        for i in 0..n {
            u_star[i] = u[i] + dt * v[i] + dt * dt * (0.5 - beta) * a[i];
        }
        comm.work(6 * n as u64);
        for (((ri, fi), mi), ui) in rhs.iter_mut().zip(&f).zip(mass).zip(&u_star) {
            *ri = fi + alpha * (mi * ui);
        }
        comm.work(3 * n as u64);
        fixed.iter().for_each(|&l| rhs[l] = 0.0);
        dense::diag_mul(d, &mut rhs);
        comm.work(n as u64);
        for ((xi, ui), di) in x0.iter_mut().zip(&u).zip(d) {
            *xi = ui / di;
        }
        comm.work(n as u64);
        let res = fgmres_on(&rank.op, &rank.precond, &rhs, &x0, &cfg.gmres, ws)?;
        u = res.x;
        dense::diag_mul(d, &mut u);
        fixed.iter().for_each(|&l| u[l] = 0.0);
        for i in 0..n {
            let a_new = alpha * (u[i] - u_star[i]);
            v[i] += dt * ((1.0 - gamma) * a[i] + gamma * a_new);
            a[i] = a_new;
        }
        comm.work(7 * n as u64);
        fixed.iter().for_each(|&l| (v[l], a[l]) = (0.0, 0.0));
        out.histories.push(res.history);
        for (h, l) in out.watch.iter_mut().zip(&watch) {
            h.extend(l.map(|l| u[l]));
        }
    }
    out.pieces.push(u);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SolveSession, Strategy};
    use parfem_fem::{assembly, Material};
    use parfem_krylov::gmres::GmresConfig;
    use parfem_mesh::{DofMap, Edge, ElementPartition, QuadMesh};

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
            .expect("fault-free transient")
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
