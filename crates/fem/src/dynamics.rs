//! Newmark time integration for elastodynamics (paper Eqs. 51–52).
//!
//! The semi-discrete system `M ü + K u = f(t)` is advanced by the Newmark-β
//! family. Each step solves one linear system with the **effective
//! stiffness**
//!
//! ```text
//! K̄ = ᾱ M + K,    ᾱ = 1 / (β Δt²)
//! ```
//!
//! which is exactly the paper's `[αM + βK] u_{n+1} = f̂_{n+1}` (Eq. 52) with
//! `β = 1`. The linear solve is delegated to a caller-provided closure so the
//! same integrator drives the dense reference solver in tests and the
//! parallel FGMRES in the experiments.

use parfem_sparse::CsrMatrix;

/// Newmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct NewmarkParams {
    /// Newmark `β` (displacement weighting).
    pub beta: f64,
    /// Newmark `γ` (velocity weighting).
    pub gamma: f64,
    /// Time step `Δt`.
    pub dt: f64,
}

impl NewmarkParams {
    /// The unconditionally stable, second-order average-acceleration rule
    /// (`β = 1/4`, `γ = 1/2`, the trapezoidal member of the paper's
    /// "generalized integration operators").
    pub fn average_acceleration(dt: f64) -> Self {
        assert!(dt > 0.0, "time step must be positive");
        NewmarkParams {
            beta: 0.25,
            gamma: 0.5,
            dt,
        }
    }

    /// The paper's effective-matrix coefficients `(ᾱ, β)` such that
    /// `K̄ = ᾱ M + β K` (here always `β = 1`).
    pub fn effective_coefficients(&self) -> (f64, f64) {
        (1.0 / (self.beta * self.dt * self.dt), 1.0)
    }
}

/// A Newmark integrator holding the current state `(u, v, a)`.
#[derive(Debug, Clone)]
pub struct NewmarkIntegrator {
    k: CsrMatrix,
    m: CsrMatrix,
    k_eff: CsrMatrix,
    params: NewmarkParams,
    /// Constrained DOFs `(index, prescribed value)`; enforced each step.
    fixed: Vec<(usize, f64)>,
    u: Vec<f64>,
    v: Vec<f64>,
    a: Vec<f64>,
    t: f64,
}

impl NewmarkIntegrator {
    /// Creates an integrator.
    ///
    /// `k` must carry identity rows at constrained DOFs and `m` zero
    /// rows/columns there (see [`crate::assembly::apply_dirichlet`] /
    /// [`crate::assembly::apply_dirichlet_mass`]); `fixed` lists those DOFs
    /// with their prescribed values.
    ///
    /// The initial acceleration solves `M a₀ = f₀ − K u₀` through the
    /// provided linear solver (with `M` regularized to identity on the
    /// constrained rows so the system is well posed; `a₀ = 0` there).
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    #[allow(clippy::too_many_arguments)] // mirrors the physics: K, M, scheme, BCs, ICs, load
    pub fn new<F>(
        k: CsrMatrix,
        m: CsrMatrix,
        params: NewmarkParams,
        fixed: Vec<(usize, f64)>,
        u0: Vec<f64>,
        v0: Vec<f64>,
        f0: &[f64],
        mut solve: F,
    ) -> Self
    where
        F: FnMut(&CsrMatrix, &[f64]) -> Vec<f64>,
    {
        let n = k.n_rows();
        assert_eq!(m.n_rows(), n, "mass/stiffness dimension mismatch");
        assert_eq!(u0.len(), n, "u0 length mismatch");
        assert_eq!(v0.len(), n, "v0 length mismatch");
        assert_eq!(f0.len(), n, "f0 length mismatch");
        let (alpha, _) = params.effective_coefficients();
        let k_eff = k
            .add_scaled(alpha, &m)
            .expect("mass and stiffness share the shape");

        // M a0 = f0 - K u0 with identity rows at constrained DOFs.
        let ku = k.spmv(&u0);
        let mut rhs: Vec<f64> = f0.iter().zip(&ku).map(|(f, k)| f - k).collect();
        let mut m_reg = m.clone();
        let ident_fix: Vec<f64> = {
            let mut d = vec![0.0; n];
            for &(i, _) in &fixed {
                d[i] = 1.0;
                rhs[i] = 0.0;
            }
            d
        };
        m_reg = m_reg
            .add_scaled(1.0, &CsrMatrix::from_diagonal(&ident_fix))
            .expect("same shape");
        let a0 = solve(&m_reg, &rhs);

        NewmarkIntegrator {
            k,
            m,
            k_eff,
            params,
            fixed,
            u: u0,
            v: v0,
            a: a0,
            t: 0.0,
        }
    }

    /// The effective stiffness `K̄ = ᾱM + K` solved at every step.
    pub fn effective_stiffness(&self) -> &CsrMatrix {
        &self.k_eff
    }

    /// Builds the effective right-hand side `f̂_{n+1}` for the next step
    /// without advancing the state (used by the convergence experiments,
    /// which study the *first* dynamic solve in isolation).
    pub fn effective_rhs(&self, f_next: &[f64]) -> Vec<f64> {
        let p = &self.params;
        let dt = p.dt;
        let alpha = 1.0 / (p.beta * dt * dt);
        let n = self.u.len();
        assert_eq!(f_next.len(), n, "f length mismatch");
        // Displacement predictor u* and rhs = f + alpha * M u*.
        let mut u_star = vec![0.0; n];
        for i in 0..n {
            u_star[i] = self.u[i] + dt * self.v[i] + dt * dt * (0.5 - p.beta) * self.a[i];
        }
        let mu = self.m.spmv(&u_star);
        let mut rhs: Vec<f64> = f_next.iter().zip(&mu).map(|(f, m)| f + alpha * m).collect();
        for &(i, val) in &self.fixed {
            rhs[i] = val; // K̄ has a unit row there (K identity, M zero)
        }
        rhs
    }

    /// Advances one step to `t + Δt` under the load `f_next`, solving the
    /// effective system with `solve`. Returns the new displacement.
    pub fn step<F>(&mut self, f_next: &[f64], mut solve: F) -> &[f64]
    where
        F: FnMut(&CsrMatrix, &[f64]) -> Vec<f64>,
    {
        let p = self.params;
        let dt = p.dt;
        let alpha = 1.0 / (p.beta * dt * dt);
        let rhs = self.effective_rhs(f_next);
        let mut u_new = solve(&self.k_eff, &rhs);
        for &(i, val) in &self.fixed {
            u_new[i] = val;
        }
        // Correctors.
        let n = self.u.len();
        let mut a_new = vec![0.0; n];
        for i in 0..n {
            let u_star = self.u[i] + dt * self.v[i] + dt * dt * (0.5 - p.beta) * self.a[i];
            a_new[i] = alpha * (u_new[i] - u_star);
        }
        for i in 0..n {
            self.v[i] += dt * ((1.0 - p.gamma) * self.a[i] + p.gamma * a_new[i]);
        }
        for &(i, _) in &self.fixed {
            self.v[i] = 0.0;
            a_new[i] = 0.0;
        }
        self.u = u_new;
        self.a = a_new;
        self.t += dt;
        &self.u
    }

    /// Current time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Current displacement.
    pub fn displacement(&self) -> &[f64] {
        &self.u
    }

    /// Current velocity.
    pub fn velocity(&self) -> &[f64] {
        &self.v
    }

    /// Current acceleration.
    pub fn acceleration(&self) -> &[f64] {
        &self.a
    }

    /// Total mechanical energy `½ vᵀMv + ½ uᵀKu` of the current state.
    pub fn energy(&self) -> f64 {
        let mv = self.m.spmv(&self.v);
        let ku = self.k.spmv(&self.u);
        0.5 * parfem_sparse::dense::dot(&self.v, &mv)
            + 0.5 * parfem_sparse::dense::dot(&self.u, &ku)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_sparse::dense::solve_dense;

    fn dense_solver(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        let mut m = a.to_dense();
        solve_dense(a.n_rows(), &mut m, b)
    }

    /// Single-DOF oscillator: m ü + k u = 0, u(0) = 1 -> u(t) = cos(w t).
    #[test]
    fn sdof_oscillator_matches_analytic_solution() {
        let k = CsrMatrix::from_diagonal(&[4.0]); // w = 2
        let m = CsrMatrix::from_diagonal(&[1.0]);
        let dt = 0.01;
        let mut integ = NewmarkIntegrator::new(
            k,
            m,
            NewmarkParams::average_acceleration(dt),
            vec![],
            vec![1.0],
            vec![0.0],
            &[0.0],
            dense_solver,
        );
        let f = [0.0];
        let steps = 300; // three seconds
        for _ in 0..steps {
            integ.step(&f, dense_solver);
        }
        let t = integ.time();
        let exact = (2.0 * t).cos();
        let got = integ.displacement()[0];
        // Average acceleration has period elongation O(dt^2).
        assert!((got - exact).abs() < 5e-3, "{got} vs {exact} at t={t}");
    }

    #[test]
    fn initial_acceleration_satisfies_equation_of_motion() {
        let k = CsrMatrix::from_dense(2, 2, &[2.0, -1.0, -1.0, 2.0]);
        let m = CsrMatrix::from_diagonal(&[1.0, 2.0]);
        let u0 = vec![0.5, -0.25];
        let f0 = [1.0, 0.0];
        let integ = NewmarkIntegrator::new(
            k.clone(),
            m.clone(),
            NewmarkParams::average_acceleration(0.1),
            vec![],
            u0.clone(),
            vec![0.0; 2],
            &f0,
            dense_solver,
        );
        // M a0 must equal f0 - K u0.
        let ma = m.spmv(integ.acceleration());
        let ku = k.spmv(&u0);
        for i in 0..2 {
            assert!((ma[i] - (f0[i] - ku[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn energy_is_conserved_by_average_acceleration() {
        // Undamped free vibration: the trapezoidal rule conserves the
        // discrete energy exactly for linear systems.
        let k = CsrMatrix::from_dense(2, 2, &[3.0, -1.0, -1.0, 3.0]);
        let m = CsrMatrix::from_diagonal(&[1.0, 1.0]);
        let mut integ = NewmarkIntegrator::new(
            k,
            m,
            NewmarkParams::average_acceleration(0.05),
            vec![],
            vec![1.0, 0.0],
            vec![0.0, 0.5],
            &[0.0, 0.0],
            dense_solver,
        );
        let e0 = integ.energy();
        for _ in 0..500 {
            integ.step(&[0.0, 0.0], dense_solver);
        }
        let e1 = integ.energy();
        assert!((e1 - e0).abs() < 1e-9 * e0, "energy drift: {e0} -> {e1}");
    }

    #[test]
    fn fixed_dofs_stay_fixed() {
        // DOF 0 constrained to 0: K row identity, M row zero.
        let k = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, -1.0, 2.0]);
        let m = CsrMatrix::from_dense(2, 2, &[0.0, 0.0, 0.0, 1.0]);
        let mut integ = NewmarkIntegrator::new(
            k,
            m,
            NewmarkParams::average_acceleration(0.02),
            vec![(0, 0.0)],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
            &[0.0, 0.0],
            dense_solver,
        );
        for _ in 0..100 {
            integ.step(&[0.0, 0.0], dense_solver);
        }
        assert_eq!(integ.displacement()[0], 0.0);
        assert_eq!(integ.velocity()[0], 0.0);
        // The free DOF oscillates.
        assert!(integ.displacement()[1].abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn effective_coefficients_match_paper_form() {
        let p = NewmarkParams::average_acceleration(0.1);
        let (alpha, beta) = p.effective_coefficients();
        assert_eq!(beta, 1.0);
        assert!((alpha - 1.0 / (0.25 * 0.01)).abs() < 1e-12);
    }

    #[test]
    fn effective_rhs_matches_manual_computation() {
        let k = CsrMatrix::from_diagonal(&[2.0]);
        let m = CsrMatrix::from_diagonal(&[3.0]);
        let dt = 0.1;
        let p = NewmarkParams::average_acceleration(dt);
        let integ =
            NewmarkIntegrator::new(k, m, p, vec![], vec![1.0], vec![2.0], &[0.0], dense_solver);
        let alpha = 1.0 / (p.beta * dt * dt);
        let a0 = integ.acceleration()[0];
        let u_star = 1.0 + dt * 2.0 + dt * dt * (0.5 - p.beta) * a0;
        let rhs = integ.effective_rhs(&[7.0]);
        assert!((rhs[0] - (7.0 + alpha * 3.0 * u_star)).abs() < 1e-10);
    }

    #[test]
    fn forced_response_reaches_static_limit() {
        // Constant load with damping-free dynamics oscillates around the
        // static solution u_s = K^{-1} f; its time average approaches u_s.
        let k = CsrMatrix::from_diagonal(&[4.0]);
        let m = CsrMatrix::from_diagonal(&[1.0]);
        let mut integ = NewmarkIntegrator::new(
            k,
            m,
            NewmarkParams::average_acceleration(0.02),
            vec![],
            vec![0.0],
            vec![0.0],
            &[2.0],
            dense_solver,
        );
        let mut mean = 0.0;
        let n = 2000;
        for _ in 0..n {
            integ.step(&[2.0], dense_solver);
            mean += integ.displacement()[0];
        }
        mean /= n as f64;
        assert!((mean - 0.5).abs() < 0.02, "time-average {mean} vs 0.5");
    }

    #[test]
    #[should_panic(expected = "time step must be positive")]
    fn zero_dt_rejected() {
        NewmarkParams::average_acceleration(0.0);
    }
}
