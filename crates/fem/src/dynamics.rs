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
    /// Optional (Rayleigh) damping matrix `C`.
    c: Option<CsrMatrix>,
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
        solve: F,
    ) -> Self
    where
        F: FnMut(&CsrMatrix, &[f64]) -> Vec<f64>,
    {
        Self::with_damping(k, m, None, params, fixed, u0, v0, f0, solve)
    }

    /// Creates an integrator with a damping matrix `C` (e.g. Rayleigh
    /// damping from [`rayleigh_damping`]): `M ü + C u̇ + K u = f`.
    ///
    /// The effective stiffness becomes
    /// `K̄ = K + (γ/(βΔt)) C + (1/(βΔt²)) M`, and the initial acceleration
    /// solves `M a₀ = f₀ − K u₀ − C v₀`.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn with_damping<F>(
        k: CsrMatrix,
        m: CsrMatrix,
        c: Option<CsrMatrix>,
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
        let mut k_eff = k.clone();
        k_eff = k_eff
            .add_scaled(alpha, &m)
            .expect("mass and stiffness share the shape");
        if let Some(cm) = &c {
            assert_eq!(cm.n_rows(), n, "damping dimension mismatch");
            let gamma_over_beta_dt = params.gamma / (params.beta * params.dt);
            k_eff = k_eff
                .add_scaled(gamma_over_beta_dt, cm)
                .expect("damping shares the shape");
        }

        // M a0 = f0 - K u0 - C v0 with identity rows at constrained DOFs.
        let ku = k.spmv(&u0);
        let mut rhs: Vec<f64> = f0.iter().zip(&ku).map(|(f, k)| f - k).collect();
        if let Some(cm) = &c {
            let cv = cm.spmv(&v0);
            for (ri, cvi) in rhs.iter_mut().zip(&cv) {
                *ri -= cvi;
            }
        }
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
            c,
            k_eff,
            params,
            fixed,
            u: u0,
            v: v0,
            a: a0,
            t: 0.0,
        }
    }

    /// The effective stiffness `K̄ = ᾱM + K` (plus `(γ/βΔt)C` when
    /// damped) solved at every step.
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
        if let Some(cm) = &self.c {
            // + C (gamma/(beta dt) u* - v*), v* = v + dt (1-gamma) a.
            let gobd = p.gamma / (p.beta * dt);
            let mut w = vec![0.0; n];
            for i in 0..n {
                let v_star = self.v[i] + dt * (1.0 - p.gamma) * self.a[i];
                w[i] = gobd * u_star[i] - v_star;
            }
            let cw = cm.spmv(&w);
            for (ri, cwi) in rhs.iter_mut().zip(&cw) {
                *ri += cwi;
            }
        }
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

/// The Rayleigh damping matrix `C = a_m M + a_k K`.
///
/// # Panics
/// Panics when the matrices have different shapes.
pub fn rayleigh_damping(m: &CsrMatrix, k: &CsrMatrix, a_m: f64, a_k: f64) -> CsrMatrix {
    let mut c = m.clone();
    for v in c.values_mut() {
        *v *= a_m;
    }
    c.add_scaled(a_k, k)
        .expect("mass and stiffness share the shape")
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

    /// Damped SDOF oscillator: m=1, k=4, c=0.4 => zeta = c/(2 sqrt(km)) = 0.1.
    /// The displacement envelope decays as exp(-zeta w t).
    #[test]
    fn damped_oscillator_decays_at_analytic_rate() {
        let k = CsrMatrix::from_diagonal(&[4.0]);
        let m = CsrMatrix::from_diagonal(&[1.0]);
        let c = CsrMatrix::from_diagonal(&[0.4]);
        let dt = 0.01;
        let mut integ = NewmarkIntegrator::with_damping(
            k,
            m,
            Some(c),
            NewmarkParams::average_acceleration(dt),
            vec![],
            vec![1.0],
            vec![0.0],
            &[0.0],
            dense_solver,
        );
        // Integrate ~3 periods (T = 2 pi / (w sqrt(1-zeta^2)) ~ 3.16 s).
        let steps = 950;
        let mut peak_after_two_periods = 0.0_f64;
        for s in 0..steps {
            integ.step(&[0.0], dense_solver);
            if s > 600 {
                peak_after_two_periods = peak_after_two_periods.max(integ.displacement()[0].abs());
            }
        }
        let t_check: f64 = 6.0;
        let envelope = (-0.1_f64 * 2.0 * t_check).exp(); // zeta * w = 0.2
        assert!(
            peak_after_two_periods < 1.3 * envelope && peak_after_two_periods > 0.4 * envelope,
            "peak {peak_after_two_periods} vs envelope {envelope}"
        );
    }

    #[test]
    fn damping_strictly_dissipates_energy() {
        let k = CsrMatrix::from_dense(2, 2, &[3.0, -1.0, -1.0, 3.0]);
        let m = CsrMatrix::from_diagonal(&[1.0, 1.0]);
        let c = rayleigh_damping(&m, &k, 0.05, 0.01);
        let mut integ = NewmarkIntegrator::with_damping(
            k,
            m,
            Some(c),
            NewmarkParams::average_acceleration(0.05),
            vec![],
            vec![1.0, 0.0],
            vec![0.0, 0.5],
            &[0.0, 0.0],
            dense_solver,
        );
        let e0 = integ.energy();
        let mut prev = e0;
        for _ in 0..200 {
            integ.step(&[0.0, 0.0], dense_solver);
            let e = integ.energy();
            assert!(
                e <= prev + 1e-10 * e0,
                "energy must not grow: {prev} -> {e}"
            );
            prev = e;
        }
        assert!(prev < 0.7 * e0, "expected visible decay: {e0} -> {prev}");
    }

    #[test]
    fn zero_damping_matches_undamped_integrator() {
        let k = CsrMatrix::from_diagonal(&[2.0]);
        let m = CsrMatrix::from_diagonal(&[1.0]);
        let zero_c = CsrMatrix::from_diagonal(&[0.0]);
        let p = NewmarkParams::average_acceleration(0.02);
        let mut a = NewmarkIntegrator::new(
            k.clone(),
            m.clone(),
            p,
            vec![],
            vec![1.0],
            vec![0.0],
            &[0.0],
            dense_solver,
        );
        let mut b = NewmarkIntegrator::with_damping(
            k,
            m,
            Some(zero_c),
            p,
            vec![],
            vec![1.0],
            vec![0.0],
            &[0.0],
            dense_solver,
        );
        for _ in 0..100 {
            a.step(&[0.0], dense_solver);
            b.step(&[0.0], dense_solver);
        }
        assert!((a.displacement()[0] - b.displacement()[0]).abs() < 1e-12);
    }

    #[test]
    fn rayleigh_matrix_combines_mass_and_stiffness() {
        let m = CsrMatrix::from_diagonal(&[2.0, 2.0]);
        let k = CsrMatrix::from_dense(2, 2, &[4.0, -1.0, -1.0, 4.0]);
        let c = rayleigh_damping(&m, &k, 0.5, 0.25);
        assert!((c.get(0, 0) - (0.5 * 2.0 + 0.25 * 4.0)).abs() < 1e-14);
        assert!((c.get(0, 1) - -0.25).abs() < 1e-14);
    }
}
