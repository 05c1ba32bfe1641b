//! Ablation: element family vs *parallel* communication — the paper's
//! Section-5 argument tested end to end.
//!
//! Section 5 claims higher-order elements (Q8) densify `G(K)` beyond
//! planarity and "deteriorate the scalability" of row-partitioned SpMV,
//! while the element-based strategy only ever exchanges interface *nodes*.
//! Here the same physical domain is discretized with T3, Q4 and Q8, both
//! decompositions run at P = 4, and the per-iteration exchanged bytes and
//! modeled times are measured.

use parfem::fem::{assembly, quad8s, tri3, Material, SubdomainSystem};
use parfem::mesh::{Cells, ElementPartition, NodePartition, Quad8Mesh, TriMesh};
use parfem::prelude::*;
use parfem::sparse::scaling::scale_system;
use parfem_bench::harness::{banner, Table};
use parfem_dd::{rdd_fgmres, RddSystem};
use parfem_msg::{run_ranks, Communicator};

const P: usize = 4;

struct Row {
    name: &'static str,
    n_eqn: usize,
    edd_bytes_per_iter: f64,
    rdd_bytes_per_iter: f64,
    edd_iters: usize,
    rdd_iters: usize,
}

/// Node partition by x-coordinate strips — element-family-agnostic, same
/// interface orientation as the element strips.
fn node_strips(coords: &[[f64; 2]], lx: f64, p: usize) -> NodePartition {
    let owner: Vec<usize> = coords
        .iter()
        .map(|c| (((c[0] / lx) * p as f64) as usize).min(p - 1))
        .collect();
    NodePartition::from_owner(p, owner)
}

fn run_rdd(a: &parfem::sparse::CsrMatrix, b: &[f64], part: &NodePartition) -> (f64, usize) {
    let systems = RddSystem::build_all(a, b, part);
    let cfg = GmresConfig::default();
    let gls = parfem::precond::GlsPrecond::for_scaled_system(7);
    let out = run_ranks(P, MachineModel::ideal(), |comm| {
        let sys = &systems[comm.rank()];
        let res = rdd_fgmres(
            comm,
            sys,
            &gls,
            &sys.b_loc,
            &vec![0.0; sys.n_local()],
            &cfg,
            &mut parfem::krylov::KrylovWorkspace::new(),
        )
        .expect("fault-free solve must not error");
        assert!(res.history.converged());
        (comm.stats().bytes_sent, res.history.iterations())
    });
    let iters = out.results[0].1;
    let max_bytes = out
        .results
        .iter()
        .map(|(b, _)| *b as f64)
        .fold(0.0_f64, f64::max);
    (max_bytes / iters as f64, iters)
}

fn run_edd(systems: &[SubdomainSystem], n_dofs: usize) -> (f64, usize) {
    let out = SolveSession::from_systems(systems, n_dofs)
        .machine(MachineModel::ideal())
        .run()
        .expect("fault-free solve must not error");
    assert!(out.history.converged());
    let iters = out.history.iterations();
    let max_bytes = out
        .reports
        .iter()
        .map(|r| r.stats.bytes_sent as f64)
        .fold(0.0_f64, f64::max);
    (max_bytes / iters as f64, iters)
}

fn main() {
    banner("Ablation: T3 / Q4 / Q8 through the PARALLEL solvers (P = 4, gls(7))");
    let (nx, ny) = (24usize, 12usize);
    let mat = Material::unit();
    let mut rows: Vec<Row> = Vec::new();

    // --- Q4 ---
    {
        let mesh = QuadMesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mut loads = vec![0.0; dm.n_dofs()];
        assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, 0.0, &mut loads);
        let systems: Vec<SubdomainSystem> = ElementPartition::strips_x(&mesh, P)
            .subdomains(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, None))
            .collect();
        let (edd_b, edd_i) = run_edd(&systems, dm.n_dofs());
        let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
        let (a, b, _) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
        let np = node_strips(mesh.coords(), mesh.lx(), P);
        let (rdd_b, rdd_i) = run_rdd(&a, &b, &np);
        rows.push(Row {
            name: "Q4",
            n_eqn: dm.n_free(),
            edd_bytes_per_iter: edd_b,
            rdd_bytes_per_iter: rdd_b,
            edd_iters: edd_i,
            rdd_iters: rdd_i,
        });
    }

    // --- T3 (same domain, each quad split) ---
    {
        let mesh = TriMesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        for n in mesh.edge_nodes(Edge::Left) {
            dm.clamp_node(n);
        }
        let mut loads = vec![0.0; dm.n_dofs()];
        let qmesh = QuadMesh::cantilever(nx, ny);
        assembly::edge_load(&qmesh, &dm, Edge::Right, 1.0, 0.0, &mut loads);
        let systems: Vec<SubdomainSystem> = ElementPartition::strips_x_tri(&mesh, P)
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build_tri(&mesh, &dm, &mat, s, &loads, None))
            .collect();
        let (edd_b, edd_i) = run_edd(&systems, dm.n_dofs());
        let k_raw = tri3::assemble_stiffness(&mesh, &dm, &mat);
        let mut rhs = loads.clone();
        let k_bc = assembly::apply_dirichlet(&k_raw, &dm, &mut rhs);
        let (a, b, _) = scale_system(&k_bc, &rhs).unwrap();
        let np = node_strips(mesh.coords(), nx as f64, P);
        let (rdd_b, rdd_i) = run_rdd(&a, &b, &np);
        rows.push(Row {
            name: "T3",
            n_eqn: dm.n_free(),
            edd_bytes_per_iter: edd_b,
            rdd_bytes_per_iter: rdd_b,
            edd_iters: edd_i,
            rdd_iters: rdd_i,
        });
    }

    // --- Q8 ---
    {
        let mesh = Quad8Mesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        for n in mesh.edge_nodes(Edge::Left) {
            dm.clamp_node(n);
        }
        let mut loads = vec![0.0; dm.n_dofs()];
        let right = mesh.edge_nodes(Edge::Right);
        for &n in &right {
            loads[dm.dof(n, 0)] = 1.0 / right.len() as f64;
        }
        let part = ElementPartition::strips_x_quad8(&mesh, P);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build_quad8(&mesh, &dm, &mat, s, &loads, None))
            .collect();
        let (edd_b, edd_i) = run_edd(&systems, dm.n_dofs());
        let k_raw = quad8s::assemble_stiffness(&mesh, &dm, &mat);
        let mut rhs = loads.clone();
        let k_bc = assembly::apply_dirichlet(&k_raw, &dm, &mut rhs);
        let (a, b, _) = scale_system(&k_bc, &rhs).unwrap();
        let np = node_strips(mesh.coords(), nx as f64, P);
        let (rdd_b, rdd_i) = run_rdd(&a, &b, &np);
        rows.push(Row {
            name: "Q8",
            n_eqn: dm.n_free(),
            edd_bytes_per_iter: edd_b,
            rdd_bytes_per_iter: rdd_b,
            edd_iters: edd_i,
            rdd_iters: rdd_i,
        });
        let _ = Cells::n_cells(&mesh);
    }

    let mut table = Table::new(&[
        "element",
        "n_eqn",
        "edd_bytes_per_iter",
        "rdd_bytes_per_iter",
        "edd_iters",
        "rdd_iters",
        "rdd_over_edd",
    ]);
    for r in &rows {
        let ratio = r.rdd_bytes_per_iter / r.edd_bytes_per_iter;
        table.row([
            r.name.to_string(),
            r.n_eqn.to_string(),
            format!("{:.1}", r.edd_bytes_per_iter),
            format!("{:.1}", r.rdd_bytes_per_iter),
            r.edd_iters.to_string(),
            r.rdd_iters.to_string(),
            format!("{ratio:.3}"),
        ]);
    }
    table.emit("ablation_elements_parallel");

    // Section-5 shape: the RDD/EDD communication ratio must not improve as
    // the element order rises from T3 through Q4 to Q8 — denser G(K) means
    // relatively more halo data for the row-based strategy.
    let ratio = |n: &str| {
        let r = rows.iter().find(|r| r.name == n).expect("row exists");
        r.rdd_bytes_per_iter / r.edd_bytes_per_iter
    };
    let (rt3, rq4, rq8) = (ratio("T3"), ratio("Q4"), ratio("Q8"));
    println!("\nRDD/EDD byte ratios: T3 {rt3:.2}, Q4 {rq4:.2}, Q8 {rq8:.2}");
    assert!(
        rq8 >= rq4 * 0.95,
        "Q8 must not ease RDD's relative communication burden"
    );
    println!("shape check passed: higher-order elements never favour the row-based strategy");
}
