//! Agreement of [`SolveSession::run_dynamic`] with the sequential Newmark
//! integrator, under both strategies, on every element family with a
//! lumped mass.
//!
//! The reference is [`NewmarkIntegrator`] over the globally assembled,
//! constrained `K` and lumped `M`, each step's `ᾱM + K` solved exactly by
//! a sparse LDLᵀ. A distributed step stops at a relative residual `tol` of
//! the scaled system `Â = D(ᾱM + K)D`, so its relative error is at most
//! `κ(Â)·tol`; the unconditionally stable average-acceleration rule carries
//! each step's error forward without growth in energy, so after `k` steps a
//! displacement is off by at most about `k·κ(Â)·tol` of the largest
//! displacement. The tests allow ten times that, with `κ(Â)` from a Lanczos
//! estimate of the scaled global effective matrix.
//!
//! Against a physical truth as well: the undamped average-acceleration
//! rule conserves the discrete energy exactly under exact steps, so each
//! run's energy must stay within what its solve tolerance lets it drift
//! ([`check_energy`]).

use parfem_dd::{PrecondSpec, Problem, SolveSession, Strategy};
use parfem_fem::{
    assembly, Discretization, Mass, Material, NewmarkIntegrator, NewmarkParams, Physics,
};
use parfem_krylov::estimate_spectrum;
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{
    DofMap, Edge, Face, HexMesh, NodePartition, PartitionerSpec, Quad8Mesh, QuadMesh, TriMesh,
};
use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
use parfem_sparse::scaling::scale_system;
use parfem_sparse::CsrMatrix;

const TOL: f64 = 1e-10;
const STEPS: usize = 6;

/// A clamped, end-loaded elastic cantilever of one element family.
struct Case<'a> {
    name: &'static str,
    disc: Discretization<'a>,
    dm: DofMap,
    loads: Vec<f64>,
}

impl<'a> Case<'a> {
    fn new(name: &'static str, disc: Discretization<'a>, clamped: &[usize]) -> Self {
        let dpn = disc.physics().dofs_per_node();
        let mut dm = DofMap::with_dofs(disc.mesh().n_nodes(), dpn);
        clamped.iter().for_each(|&n| dm.clamp_node(n));
        // A downward pull on every free node, a sideways one on some.
        let loads = (0..dm.n_dofs())
            .map(|d| match d % dpn {
                c if c == dpn - 1 => -1e-3,
                0 if d % 3 == 0 => 2e-4,
                _ => 0.0,
            })
            .collect();
        Case {
            name,
            disc,
            dm,
            loads,
        }
    }

    /// The watched dofs: a few spread over the mesh.
    fn watch(&self) -> Vec<usize> {
        let n = self.dm.n_dofs();
        vec![n - 1, n / 2, n / 3 + 1]
    }
}

/// The sequential reference: per step the displacement at `watch`, and the
/// final displacement; plus the relative-error budget of one distributed
/// step, `κ(Â)·tol`.
fn reference(
    case: &Case,
    params: NewmarkParams,
    watch: &[usize],
) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let mat = Material::unit();
    let global = assembly::build_static(case.disc, &case.dm, &mat, &case.loads);
    let m = assembly::assemble_mass(case.disc, &case.dm, &mat, Mass::Lumped);
    let m = assembly::apply_dirichlet_mass(&m, &case.dm);
    let fixed: Vec<(usize, f64)> = case.dm.fixed_dofs().collect();
    let n = case.dm.n_dofs();
    let diag_solve = |a: &CsrMatrix, b: &[f64]| -> Vec<f64> {
        (a.diagonal().iter().zip(b))
            .map(|(&d, &bi)| if d != 0.0 { bi / d } else { 0.0 })
            .collect()
    };
    let mut integ = NewmarkIntegrator::new(
        global.stiffness,
        m,
        params,
        fixed,
        vec![0.0; n],
        vec![0.0; n],
        &global.rhs,
        diag_solve,
    );
    let k_eff = integ.effective_stiffness().clone();
    let (scaled, ..) = scale_system(&k_eff, &global.rhs).unwrap();
    let (lambda_min, lambda_max) = estimate_spectrum(&scaled, n);
    let factor = SparseLdlt::factor(&k_eff, DEFAULT_PIVOT_TOL);
    let exact = |_: &CsrMatrix, b: &[f64]| {
        let mut x = b.to_vec();
        factor.solve_in_place(&mut x);
        x
    };
    let mut history = vec![Vec::new(); watch.len()];
    for _ in 0..STEPS {
        let u = integ.step(&global.rhs, exact);
        for (h, &g) in history.iter_mut().zip(watch) {
            h.push(u[g]);
        }
    }
    let kappa = lambda_max / lambda_min;
    (history, integ.displacement().to_vec(), kappa * TOL)
}

/// `case` on `p` EDD strips and on `p` RDD node ranges, under `spec` at
/// the tolerance `TOL`.
fn sessions<'a>(
    case: &'a Case,
    mat: &'a Material,
    spec: &str,
    p: usize,
) -> [(&'static str, SolveSession<'a>); 2] {
    let session = || {
        SolveSession::new(Problem::new(case.disc, &case.dm, mat, &case.loads))
            .precond(PrecondSpec::parse(spec).unwrap())
            .gmres(GmresConfig {
                tol: TOL,
                max_iters: 5_000,
                ..Default::default()
            })
    };
    let n_nodes = case.disc.mesh().n_nodes();
    let ranges = (0..n_nodes).map(|n| (n * p) / n_nodes).collect();
    [
        ("EDD", session().partitioned(PartitionerSpec::Strips, p)),
        (
            "RDD",
            session().strategy(Strategy::Rdd(NodePartition::from_owner(p, ranges))),
        ),
    ]
}

/// Runs `case` under EDD strips and RDD node ranges at P ∈ {1, 3} and
/// holds every watched history and the final displacement to the
/// reference.
fn check(case: &Case, spec: &str) {
    let params = NewmarkParams::average_acceleration(2.0);
    let watch = case.watch();
    let (want, want_u, step_budget) = reference(case, params, &watch);
    let scale = want_u
        .iter()
        .chain(want.iter().flatten())
        .fold(0.0f64, |m, v| m.max(v.abs()));
    let bound = 10.0 * STEPS as f64 * step_budget * scale;
    assert!(
        bound < 1e-4 * scale,
        "{}: a vacuous bound {bound:e}",
        case.name
    );
    let mat = Material::unit();
    for p in [1, 3] {
        for (strategy, session) in sessions(case, &mat, spec, p) {
            let what = format!("{} {spec} {strategy} P = {p}", case.name);
            let out = session
                .run_dynamic(params, STEPS, &watch)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(out.all_converged, "{what}: a step did not converge");
            for (got, want) in out.watch_histories.iter().zip(&want) {
                for (step, (g, w)) in got.iter().zip(want).enumerate() {
                    assert!(
                        (g - w).abs() <= bound,
                        "{what} step {step}: {g} vs {w} (bound {bound:e})"
                    );
                }
            }
            let off =
                (out.last.u.iter().zip(&want_u)).fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
            assert!(
                off <= bound,
                "{what}: final displacement off by {off:e} > {bound:e}"
            );
        }
    }
}

#[test]
fn q4_transients_match_the_sequential_integrator() {
    let mesh = QuadMesh::cantilever(8, 3);
    let case = Case::new("Q4", (&mesh).into(), &mesh.edge_nodes(Edge::Left));
    check(&case, "gls:5");
}

#[test]
fn t3_transients_match_the_sequential_integrator() {
    let quad = QuadMesh::cantilever(8, 3);
    let mesh = TriMesh::from_quad_mesh(&quad);
    let case = Case::new("T3", (&mesh).into(), &quad.edge_nodes(Edge::Left));
    check(&case, "gls:5");
}

#[test]
fn hex8_transients_match_the_sequential_integrator() {
    let mesh = HexMesh::cantilever(5, 2, 2);
    let case = Case::new("hex8", (&mesh).into(), &mesh.face_nodes(Face::XMin));
    check(&case, "gls:5");
}

/// `xᵀ A x` for a square CSR `A`.
fn quadratic(a: &CsrMatrix, x: &[f64]) -> f64 {
    x.iter().zip(a.spmv(x)).map(|(xi, yi)| xi * yi).sum()
}

fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Holds the undamped average-acceleration run of `case` (β = ¼, γ = ½,
/// constant load, `u₀ = v₀ = 0`) under EDD and RDD at P ∈ {1, 3}, every dof
/// watched, to the conservation of its discrete energy
/// `Eₙ = ½vₙᵀMvₙ + ½uₙᵀKuₙ − fᵀuₙ` (`E₀ = 0`), with the global constrained
/// `K` and lumped `M` and `v` recovered from the scheme's own identity
/// `vₙ₊₁ = 2(uₙ₊₁ − uₙ)/Δt − vₙ`.
///
/// The scheme's steps satisfy `uₙ₊₁ − uₙ = Δt(vₙ + vₙ₊₁)/2` and
/// `vₙ₊₁ − vₙ = Δt(aₙ + aₙ₊₁)/2` whatever the solves do, so
/// `Eₙ₊₁ − Eₙ = (uₙ₊₁ − uₙ)ᵀ(rₙ + rₙ₊₁)/2` with `rₙ = M aₙ + K uₙ − f`:
/// zero under exact solves. A step's `rₙ₊₁` is the residual of its solve
/// `(ᾱM + K) uₙ₊₁ = f + ᾱ M u*`, which FGMRES stops at
/// `‖D r‖ ≤ tol·‖D r⁽⁰⁾‖` on the scaled system, `r⁽⁰⁾` being the residual of
/// the warm start `uₙ`; so `‖rₙ₊₁‖ ≤ tol·‖D r⁽⁰⁾‖ / min D`, and
/// `|Eₙ|` stays below the sum of those drifts. The test allows ten times it
/// (`D` is the global scaling of `ᾱM + K`, which EDD's interface row sums
/// only approximate, and the monitor is FGMRES's own residual estimate), and
/// checks that the bound is far below the energy itself.
fn check_energy(case: &Case) {
    let params = NewmarkParams::average_acceleration(2.0);
    let (dt, (alpha, _)) = (params.dt, params.effective_coefficients());
    let mat = Material::unit();
    let global = assembly::build_static(case.disc, &case.dm, &mat, &case.loads);
    let (k, f) = (&global.stiffness, &global.rhs);
    let m = assembly::assemble_mass(case.disc, &case.dm, &mat, Mass::Lumped);
    let m = assembly::apply_dirichlet_mass(&m, &case.dm).diagonal();
    let k_eff = k.add_scaled(alpha, &CsrMatrix::from_diagonal(&m)).unwrap();
    let (_, _, scaling) = scale_system(&k_eff, f).unwrap();
    let d = scaling.diagonal();
    let d_min = d.iter().copied().fold(f64::INFINITY, f64::min);
    let n = case.dm.n_dofs();
    let all: Vec<usize> = (0..n).collect();
    for p in [1, 3] {
        for (strategy, session) in sessions(case, &mat, "gls:5", p) {
            let what = format!("{} {strategy} P = {p}", case.name);
            let out = (session.run_dynamic(params, STEPS, &all))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(out.all_converged, "{what}: a step did not converge");
            let (mut u, mut v) = (vec![0.0; n], vec![0.0; n]);
            let mut a: Vec<f64> = (f.iter().zip(&m))
                .map(|(fi, mi)| if *mi > 0.0 { fi / mi } else { 0.0 })
                .collect();
            let (mut bound, mut drift, mut scale, mut r_prev) = (0.0, 0.0f64, 0.0f64, 0.0);
            for step in 0..STEPS {
                let u_star: Vec<f64> = (0..n)
                    .map(|i| u[i] + dt * v[i] + 0.25 * dt * dt * a[i])
                    .collect();
                let ku = k_eff.spmv(&u);
                let r0: Vec<f64> = (0..n)
                    .map(|i| match m[i] > 0.0 {
                        true => d[i] * (f[i] + alpha * m[i] * u_star[i] - ku[i]),
                        false => 0.0,
                    })
                    .collect();
                let r_next = TOL * norm(&r0) / d_min;
                let u_next: Vec<f64> = out.watch_histories.iter().map(|h| h[step]).collect();
                let du: Vec<f64> = (0..n).map(|i| u_next[i] - u[i]).collect();
                bound += norm(&du) * (r_prev + r_next) / 2.0;
                for i in 0..n {
                    v[i] = 2.0 * du[i] / dt - v[i];
                    a[i] = alpha * (u_next[i] - u_star[i]);
                }
                (u, r_prev) = (u_next, r_next);
                let mv: f64 = (0..n).map(|i| m[i] * v[i] * v[i]).sum();
                let f_u: f64 = f.iter().zip(&u).map(|(fi, ui)| fi * ui).sum();
                let strain = 0.5 * quadratic(k, &u);
                let energy = 0.5 * mv + strain - f_u;
                scale = scale.max(strain);
                drift = drift.max(energy.abs());
                assert!(
                    energy.abs() <= 10.0 * bound,
                    "{what} step {step}: energy {energy:e} beyond {:e}",
                    10.0 * bound
                );
            }
            eprintln!(
                "{what}: energy drift {drift:.2e}, bound {:.2e}, strain energy {scale:.2e}",
                10.0 * bound
            );
            assert!(
                10.0 * bound < 1e-4 * scale,
                "{what}: a vacuous bound {:e} against a strain energy {scale:e}",
                10.0 * bound
            );
        }
    }
}

#[test]
fn q4_transients_conserve_energy() {
    let mesh = QuadMesh::cantilever(8, 3);
    check_energy(&Case::new(
        "Q4",
        (&mesh).into(),
        &mesh.edge_nodes(Edge::Left),
    ));
}

#[test]
fn t3_transients_conserve_energy() {
    let quad = QuadMesh::cantilever(8, 3);
    let mesh = TriMesh::from_quad_mesh(&quad);
    check_energy(&Case::new(
        "T3",
        (&mesh).into(),
        &quad.edge_nodes(Edge::Left),
    ));
}

#[test]
fn hex8_transients_conserve_energy() {
    let mesh = HexMesh::cantilever(5, 2, 2);
    check_energy(&Case::new(
        "hex8",
        (&mesh).into(),
        &mesh.face_nodes(Face::XMin),
    ));
}

/// A two-level preconditioner reaches the transient like any other spec:
/// the coarse space is built once over `ᾱM + K` and serves every step.
#[test]
fn twolevel_transients_match_the_sequential_integrator() {
    let mesh = QuadMesh::cantilever(12, 4);
    let case = Case::new("Q4", (&mesh).into(), &mesh.edge_nodes(Edge::Left));
    check(&case, "twolevel:rbm:gls-3");
}

/// A session over `disc` with a clamped left end, one step on two EDD strips.
fn one_step(disc: Discretization, clamped: &[usize], prescribed: f64) {
    let mut case = Case::new("refused", disc, clamped);
    case.dm.fix_dof(case.dm.dof(clamped[0], 0), prescribed);
    let mat = Material::unit();
    let problem = Problem::new(case.disc, &case.dm, &mat, &case.loads);
    let session = SolveSession::new(problem).partitioned(PartitionerSpec::Strips, 2);
    let _ = session.run_dynamic(NewmarkParams::average_acceleration(1.0), 1, &[]);
}

/// A lumped Q8 mass does not exist (its corner row sums are negative): the
/// host refuses the transient before any rank starts.
#[test]
#[should_panic(expected = "run_dynamic needs a lumped mass")]
fn q8_transients_are_refused_on_the_host() {
    let mesh = Quad8Mesh::cantilever(4, 2);
    one_step((&mesh).into(), &mesh.edge_nodes(Edge::Left), 0.0);
}

/// Heat assembles no mass: refused on the host.
#[test]
#[should_panic(expected = "run_dynamic needs a lumped mass")]
fn heat_transients_are_refused_on_the_host() {
    let mesh = QuadMesh::cantilever(4, 2);
    let heat = Discretization::new(&mesh, Physics::Heat2d);
    one_step(heat, &mesh.edge_nodes(Edge::Left), 0.0);
}

/// Inhomogeneous constraints cannot be rebuilt as rank loads: refused on
/// the host, by the check `run_multi` shares.
#[test]
#[should_panic(expected = "run_dynamic requires homogeneous BCs")]
fn inhomogeneous_transients_are_refused_on_the_host() {
    let mesh = QuadMesh::cantilever(4, 2);
    one_step((&mesh).into(), &mesh.edge_nodes(Edge::Left), 1e-3);
}
