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
        let session = || {
            SolveSession::new(Problem::new(case.disc, &case.dm, &mat, &case.loads))
                .precond(PrecondSpec::parse(spec).unwrap())
                .gmres(GmresConfig {
                    tol: TOL,
                    max_iters: 5_000,
                    ..Default::default()
                })
        };
        let edd = session().partitioned(PartitionerSpec::Strips, p);
        let n_nodes = case.disc.mesh().n_nodes();
        let ranges = (0..n_nodes).map(|n| (n * p) / n_nodes).collect();
        let rdd = session().strategy(Strategy::Rdd(NodePartition::from_owner(p, ranges)));
        for (strategy, session) in [("EDD", edd), ("RDD", rdd)] {
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
