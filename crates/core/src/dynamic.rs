//! Elastodynamic experiments (paper Eqs. 51–52, Figs. 12/14).
//!
//! The dynamic convergence figures study the linear system of the *first*
//! Newmark step after a suddenly applied load — the effective system
//! `[αM + βK] u₁ = f̂₁` — under the same preconditioners as the static case:
//! [`first_step_system`] builds it, [`crate::sequential::solve_system`]
//! solves it. Full transients run through the one Newmark time loop,
//! [`parfem_dd::SolveSession::run_dynamic`] (one rank is
//! `Strategy::Edd(ElementPartition::strips_x(&mesh, 1))`), which runs the
//! session engine's rank body under either strategy: it scales the
//! effective matrix and builds its preconditioner once, then warm-starts
//! every step.

use crate::problems::CantileverProblem;
use parfem_fem::{assembly, Mass, NewmarkIntegrator, NewmarkParams};
use parfem_sparse::CsrMatrix;

/// Builds the first-step Newmark effective system for a suddenly applied
/// load: returns `(K̄, f̂₁)` with `K̄ = ᾱM + K` (lumped mass), zero initial
/// conditions.
pub fn first_step_system(problem: &CantileverProblem, dt: f64) -> (CsrMatrix, Vec<f64>) {
    let params = NewmarkParams::average_acceleration(dt);
    let k_raw = assembly::assemble_stiffness(&problem.mesh, &problem.dof_map, &problem.material);
    let m_raw = assembly::assemble_mass(
        &problem.mesh,
        &problem.dof_map,
        &problem.material,
        Mass::Lumped,
    );
    let mut f = problem.loads.clone();
    let k = assembly::apply_dirichlet(&k_raw, &problem.dof_map, &mut f);
    let m = assembly::apply_dirichlet_mass(&m_raw, &problem.dof_map);
    let fixed: Vec<(usize, f64)> = problem.dof_map.fixed_dofs().collect();
    let n = k.n_rows();
    // Lumped mass with identity-regularized constrained rows: a diagonal
    // solve suffices for the initial acceleration.
    let diag_solve = |a: &CsrMatrix, b: &[f64]| -> Vec<f64> {
        a.diagonal()
            .iter()
            .zip(b)
            .map(|(&d, &bi)| if d != 0.0 { bi / d } else { 0.0 })
            .collect()
    };
    let integ = NewmarkIntegrator::new(
        k,
        m,
        params,
        fixed,
        vec![0.0; n],
        vec![0.0; n],
        &f,
        diag_solve,
    );
    let rhs = integ.effective_rhs(&f);
    (integ.effective_stiffness().clone(), rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::LoadCase;
    use crate::sequential::{solve_static, solve_system};
    use parfem_dd::{DynamicRunOutput, PrecondSpec, SolveSession, Strategy};
    use parfem_fem::Material;
    use parfem_krylov::gmres::GmresConfig;
    use parfem_mesh::ElementPartition;

    fn problem() -> CantileverProblem {
        CantileverProblem::new(8, 2, Material::unit(), LoadCase::ShearY(-1e-3))
    }

    fn gls(degree: usize) -> PrecondSpec {
        PrecondSpec::Gls {
            degree,
            theta: None,
        }
    }

    /// The tip's vertical displacement.
    fn tip(p: &CantileverProblem) -> usize {
        p.dof_map.dof(p.mesh.node_at(p.mesh.nx(), p.mesh.ny()), 1)
    }

    /// `steps` average-acceleration steps of size `dt` on one rank,
    /// watching the tip.
    fn transient(
        p: &CantileverProblem,
        dt: f64,
        steps: usize,
        degree: usize,
        cfg: GmresConfig,
    ) -> DynamicRunOutput {
        SolveSession::new(p.as_problem())
            .strategy(Strategy::Edd(ElementPartition::strips_x(&p.mesh, 1)))
            .precond(gls(degree))
            .gmres(cfg)
            .run_dynamic(NewmarkParams::average_acceleration(dt), steps, &[tip(p)])
            .expect("fault-free transient")
    }

    #[test]
    fn first_step_system_is_stiffer_than_static() {
        // K_eff = alpha*M + K has a larger diagonal than K alone.
        let p = problem();
        let (keff, _) = first_step_system(&p, 0.05);
        let kstat = p.static_system().stiffness;
        let free_dof = p.dof_map.dof(p.mesh.node_at(4, 1), 0);
        assert!(keff.get(free_dof, free_dof) > kstat.get(free_dof, free_dof));
    }

    #[test]
    fn dynamic_solves_converge_faster_than_static() {
        // The mass shift improves conditioning: the same preconditioner
        // needs fewer iterations on the dynamic effective system — exactly
        // the contrast between the paper's Figs. 11 and 12.
        let p = problem();
        let cfg = GmresConfig {
            tol: 1e-6,
            max_iters: 20_000,
            ..Default::default()
        };
        let (_, h_static) = solve_static(&p, &gls(3), &cfg).unwrap();
        let (keff, rhs) = first_step_system(&p, 1e-3);
        let (_, h_dyn) = solve_system(&keff, &rhs, &gls(3), &cfg).unwrap();
        assert!(h_dyn.converged());
        assert!(
            h_dyn.iterations() <= h_static.iterations(),
            "dynamic {} vs static {}",
            h_dyn.iterations(),
            h_static.iterations()
        );
    }

    #[test]
    fn transient_oscillates_around_static_deflection() {
        // Undamped suddenly-applied load: the mean tip deflection over one
        // full cycle is close to the static deflection, the peak about 2x.
        let p = problem();
        let cfg = GmresConfig {
            tol: 1e-10,
            max_iters: 50_000,
            ..Default::default()
        };
        let (u_static, _) = solve_static(&p, &gls(7), &cfg).unwrap();
        let u_s = u_static[tip(&p)];

        let out = transient(&p, 0.5, 400, 7, cfg);
        assert!(out.all_converged);
        let min = out.watch_histories[0]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        // Dynamic overshoot: peak deflection between 1x and ~2.2x static.
        assert!(min < u_s, "no overshoot: min {min} vs static {u_s}");
        assert!(min > 2.5 * u_s, "overshoot too large: {min} vs {u_s}");
    }

    #[test]
    fn simulation_accumulates_iterations() {
        let p = problem();
        let out = transient(&p, 0.1, 5, 5, GmresConfig::default());
        assert_eq!(out.watch_histories[0].len(), 5);
        assert!(out.total_iterations > 0);
        assert!(out.all_converged);
    }
}
