//! End-to-end static elasticity: mesh → assembly → scaling → polynomial
//! preconditioning → (parallel) FGMRES → physics, across all crates.

use parfem::prelude::*;

/// The GLS polynomial of `degree` on the post-scaling `(ε, 1)`.
fn gls(degree: usize) -> PrecondSpec {
    PrecondSpec::Gls {
        degree,
        theta: None,
    }
}

fn residual_norm(problem: &CantileverProblem, u: &[f64]) -> f64 {
    let sys = problem.static_system();
    let r = sys.stiffness.spmv(u);
    let num: f64 = r
        .iter()
        .zip(&sys.rhs)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = sys.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den.max(1e-30)
}

#[test]
fn sequential_edd_and_rdd_agree_on_mesh2() {
    let p = CantileverProblem::paper_mesh(2);
    let cfg = GmresConfig {
        tol: 1e-8,
        ..Default::default()
    };
    let (u_seq, h_seq) = solve_static(&p, &gls(7), &cfg).unwrap();
    assert!(h_seq.converged());

    let solver_cfg = SolverConfig {
        gmres: cfg,
        ..Default::default()
    };
    let strips = ElementPartition::strips_x(&p.mesh, 4);
    let nodes = NodePartition::from_elements(&strips, &p.mesh).unwrap();
    let edd = SolveSession::new(p.as_problem())
        .strategy(Strategy::Edd(strips))
        .config(solver_cfg.clone())
        .run()
        .expect("fault-free solve");
    let rdd = SolveSession::new(p.as_problem())
        .strategy(Strategy::Rdd(nodes))
        .config(solver_cfg)
        .run()
        .expect("fault-free solve");
    assert!(edd.history.converged() && rdd.history.converged());
    let scale = u_seq.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for ((a, b), c) in edd.u.iter().zip(&rdd.u).zip(&u_seq) {
        assert!(
            (a - c).abs() < 1e-5 * scale,
            "EDD vs sequential: {a} vs {c}"
        );
        assert!(
            (b - c).abs() < 1e-5 * scale,
            "RDD vs sequential: {b} vs {c}"
        );
    }
    assert!(residual_norm(&p, &edd.u) < 1e-6);
    assert!(residual_norm(&p, &rdd.u) < 1e-6);
}

#[test]
fn pulling_load_stretches_the_beam_uniformly() {
    // Under pure axial tension the stress state is nearly uniform:
    // u_x grows linearly along the beam, u_x(tip) ~ F*L/(E*A).
    let p = CantileverProblem::new(32, 4, Material::unit(), LoadCase::PullX(1.0));
    let cfg = GmresConfig {
        tol: 1e-10,
        max_iters: 100_000,
        ..Default::default()
    };
    let (u, h) = solve_static(&p, &gls(7), &cfg).unwrap();
    assert!(h.converged());
    let l = p.mesh.lx();
    let area = p.mesh.ly(); // unit thickness
    let expect_tip = 1.0 * l / (1.0 * area);
    let mid_node = p.mesh.node_at(p.mesh.nx(), p.mesh.ny() / 2);
    let tip_ux = u[p.dof_map.dof(mid_node, 0)];
    assert!(
        (tip_ux - expect_tip).abs() < 0.05 * expect_tip,
        "tip {tip_ux} vs bar theory {expect_tip}"
    );
    // Half-way along the beam, half the displacement.
    let half_node = p.mesh.node_at(p.mesh.nx() / 2, p.mesh.ny() / 2);
    let half_ux = u[p.dof_map.dof(half_node, 0)];
    assert!(
        (half_ux - 0.5 * expect_tip).abs() < 0.05 * expect_tip,
        "half-span {half_ux}"
    );
}

#[test]
fn solution_is_partition_invariant() {
    // The physical answer must not depend on how the mesh is cut.
    let p = CantileverProblem::new(12, 6, Material::unit(), LoadCase::ShearY(-1.0));
    let cfg = SolverConfig {
        gmres: GmresConfig {
            tol: 1e-10,
            ..Default::default()
        },
        ..Default::default()
    };
    let run = |part: ElementPartition| {
        SolveSession::new(p.as_problem())
            .strategy(Strategy::Edd(part))
            .config(cfg.clone())
            .run()
            .expect("fault-free solve")
    };
    let strips = run(ElementPartition::strips_x(&p.mesh, 4));
    let blocks = run(ElementPartition::blocks_of(&p.mesh, 2, 2));
    let bfs = run(parfem::mesh::graph::greedy_bfs_partition(&p.mesh, 4));
    let scale = strips.u.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for ((a, b), c) in strips.u.iter().zip(&blocks.u).zip(&bfs.u) {
        assert!((a - b).abs() < 1e-5 * scale);
        assert!((a - c).abs() < 1e-5 * scale);
    }
}

#[test]
fn all_small_paper_meshes_solve() {
    // Mesh1..Mesh4 of Table 2 end to end with the default configuration.
    for k in 1..=4 {
        let p = CantileverProblem::paper_mesh(k);
        let parts = if k == 1 { 2 } else { 4 };
        let out = SolveSession::new(p.as_problem())
            .strategy(Strategy::Edd(ElementPartition::strips_x(&p.mesh, parts)))
            .machine(MachineModel::sgi_origin())
            .run()
            .expect("fault-free solve");
        assert!(out.history.converged(), "Mesh{k} did not converge");
        assert!(
            residual_norm(&p, &out.u) < 1e-5,
            "Mesh{k} residual too large"
        );
    }
}

#[test]
fn stiffer_material_reduces_displacement_proportionally() {
    // Linearity across the full pipeline: u(E) = u(1)/E.
    let cfg = GmresConfig {
        tol: 1e-10,
        ..Default::default()
    };
    let mut soft = Material::unit();
    soft.youngs_modulus = 1.0;
    let mut stiff = Material::unit();
    stiff.youngs_modulus = 10.0;
    let p1 = CantileverProblem::new(10, 3, soft, LoadCase::PullX(1.0));
    let p2 = CantileverProblem::new(10, 3, stiff, LoadCase::PullX(1.0));
    let (u1, _) = solve_static(&p1, &gls(7), &cfg).unwrap();
    let (u2, _) = solve_static(&p2, &gls(7), &cfg).unwrap();
    let scale = u1.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for (a, b) in u1.iter().zip(&u2) {
        assert!((a - 10.0 * b).abs() < 1e-6 * scale, "{a} vs 10*{b}");
    }
}
