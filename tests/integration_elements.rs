//! Cross-crate integration for the extended element family (T3, Q8,
//! distorted Q4) and the Section-5 planarity analysis.

use parfem::fem::assembly;
use parfem::mesh::graph::Adjacency;
use parfem::mesh::{Quad8Mesh, TriMesh};
use parfem::prelude::*;

/// The GLS polynomial of `degree` on the post-scaling `(ε, 1)`.
fn gls(degree: usize) -> PrecondSpec {
    PrecondSpec::Gls {
        degree,
        theta: None,
    }
}

#[test]
fn all_three_element_families_solve_the_same_physics() {
    // Axial pull on the same geometry: tip u_x must agree across T3/Q4/Q8
    // (bar solution F L / (E A), element-independent for uniform tension).
    let (nx, ny) = (16usize, 4usize);
    let mat = Material::unit();
    let cfg = GmresConfig {
        tol: 1e-10,
        max_iters: 100_000,
        ..Default::default()
    };
    let expect = (nx as f64) / (ny as f64); // F=1, E=1, A=ny, L=nx

    // Q4.
    let q4 = {
        let p = CantileverProblem::new(nx, ny, mat, LoadCase::PullX(1.0));
        let (u, h) = solve_static(&p, &gls(7), &cfg).unwrap();
        assert!(h.converged());
        u[p.dof_map.dof(p.mesh.node_at(nx, ny / 2), 0)]
    };
    // T3.
    let t3 = {
        let mesh = TriMesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        for n in mesh.edge_nodes(Edge::Left) {
            dm.clamp_node(n);
        }
        let k = assembly::assemble_stiffness(&mesh, &dm, &mat);
        let mut loads = vec![0.0; dm.n_dofs()];
        // Same consistent edge load as the quad (shared node numbering).
        let qmesh = QuadMesh::cantilever(nx, ny);
        assembly::edge_load(&qmesh, &dm, Edge::Right, 1.0, 0.0, &mut loads);
        let kbc = assembly::apply_dirichlet(&k, &dm, &mut loads);
        let (u, h) = solve_system(&kbc, &loads, &gls(7), &cfg).unwrap();
        assert!(h.converged());
        u[dm.dof(mesh.node_at(nx, ny / 2), 0)]
    };
    // Q8.
    let q8 = {
        let mesh = Quad8Mesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        for n in mesh.edge_nodes(Edge::Left) {
            dm.clamp_node(n);
        }
        let k = assembly::assemble_stiffness(&mesh, &dm, &mat);
        let mut loads = vec![0.0; dm.n_dofs()];
        // Equal split over right-edge nodes (uniform tension is insensitive
        // to the consistent-vs-equal distribution at this tolerance level).
        let right = mesh.edge_nodes(Edge::Right);
        for &n in &right {
            loads[dm.dof(n, 0)] = 1.0 / right.len() as f64;
        }
        let kbc = assembly::apply_dirichlet(&k, &dm, &mut loads);
        let (u, h) = solve_system(&kbc, &loads, &gls(7), &cfg).unwrap();
        assert!(h.converged());
        // Middle of the right edge.
        let mid = *right
            .iter()
            .min_by(|&&a, &&b| {
                let da = (mesh.node_coords(a)[1] - ny as f64 / 2.0).abs();
                let db = (mesh.node_coords(b)[1] - ny as f64 / 2.0).abs();
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        u[dm.dof(mid, 0)]
    };
    for (name, got) in [("Q4", q4), ("T3", t3), ("Q8", q8)] {
        assert!(
            (got - expect).abs() < 0.08 * expect,
            "{name}: tip {got} vs bar theory {expect}"
        );
    }
}

#[test]
fn planarity_ordering_holds_on_cantilever_meshes() {
    let q = QuadMesh::cantilever(10, 10);
    let t = TriMesh::from_quad_mesh(&q);
    let e8 = Quad8Mesh::cantilever(10, 10);
    let gt = Adjacency::node_graph_from_cells(
        t.n_nodes(),
        (0..t.n_elems()).map(|e| t.elem_nodes(e).to_vec()),
    );
    let gq = Adjacency::node_graph(&q);
    let g8 = Adjacency::node_graph_from_cells(
        e8.n_nodes(),
        (0..e8.n_elems()).map(|e| e8.elem_nodes(e).to_vec()),
    );
    assert!(gt.satisfies_planar_edge_bound());
    assert!(!gq.satisfies_planar_edge_bound());
    assert!(!g8.satisfies_planar_edge_bound());
    assert!(gt.average_degree() < gq.average_degree());
    assert!(gq.average_degree() < g8.average_degree());
}

#[test]
fn distorted_mesh_runs_through_the_full_parallel_pipeline() {
    let mesh = QuadMesh::distorted(16, 6, 16.0, 6.0, 0.35, 99);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1e-3, &mut loads);

    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(ElementPartition::strips_x(&mesh, 4)))
        .run()
        .expect("fault-free solve");
    assert!(out.history.converged());
    // Physical residual on the distorted geometry.
    let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
    let r = sys.stiffness.spmv(&out.u);
    let err: f64 = r
        .iter()
        .zip(&sys.rhs)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt();
    let scale: f64 = sys.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(err < 1e-5 * scale, "residual {err}");
    // The tip still deflects downward.
    let tip = dm.dof(mesh.node_at(16, 6), 1);
    assert!(out.u[tip] < 0.0);
}

#[test]
fn distortion_preserves_scaling_guarantee() {
    // lambda_max(DKD) <= 1 regardless of element geometry.
    let mesh = QuadMesh::distorted(12, 6, 12.0, 6.0, 0.45, 3);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let sys = assembly::build_static(&mesh, &dm, &Material::unit(), &vec![0.0; dm.n_dofs()]);
    let (a, _, _) = parfem::sparse::scaling::scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let n = a.n_rows();
    let (vals, _) = parfem::sparse::dense::sym_eigen_jacobi(n, &a.to_dense());
    let lmax = vals[n - 1];
    assert!(lmax <= 1.0 + 1e-9, "lambda_max {lmax}");
}

#[test]
fn measured_spectrum_matches_dense_eigenvalues_on_q4_and_hex8() {
    // Scaled cantilevers with n <= MEASURE_STEPS: the Lanczos measurement
    // runs n steps, so its extremes are the eigenvalues to rounding.
    for (physics, grid) in [
        (Physics::Elasticity2d, (12, 4, 1)),
        (Physics::Elasticity3d, (5, 2, 2)),
    ] {
        let p = PhysicsProblem::cantilever(physics, grid, Material::unit(), LoadCase::PullX(1.0));
        let sys = p.static_system();
        let (a, _, _) = parfem::sparse::scaling::scale_system(&sys.stiffness, &sys.rhs).unwrap();
        let n = a.n_rows();
        assert!(
            n <= parfem::krylov::lanczos::MEASURE_STEPS,
            "{physics:?}: n = {n}"
        );
        let (vals, _) = parfem::sparse::dense::sym_eigen_jacobi(n, &a.to_dense());
        let (lmin, lmax) = parfem::krylov::measure_spectrum(&a);
        let rel = |got: f64, want: f64| (got - want).abs() / want;
        assert!(
            rel(lmax, vals[n - 1]) < 1e-10,
            "{physics:?}: lmax {lmax} vs {}",
            vals[n - 1]
        );
        assert!(
            rel(lmin, vals[0]) < 1e-8,
            "{physics:?}: lmin {lmin} vs {}",
            vals[0]
        );
    }
}

#[test]
fn dynamic_parallel_driver_is_reachable_from_the_facade() {
    let p = CantileverProblem::new(10, 2, Material::unit(), LoadCase::ShearY(-1e-3));
    let tip = p.dof_map.dof(p.mesh.node_at(10, 2), 1);
    let out = SolveSession::new(p.as_problem())
        .strategy(Strategy::Edd(ElementPartition::strips_x(&p.mesh, 2)))
        .machine(MachineModel::sgi_origin())
        .run_dynamic(NewmarkParams::average_acceleration(1.0), 4, &[tip])
        .expect("fault-free transient");
    assert!(out.all_converged);
    assert_eq!(out.watch_histories[0].len(), 4);
    // Displacement moves in the load direction from step one.
    assert!(out.watch_histories[0][0] < 0.0);
}
