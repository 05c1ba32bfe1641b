//! Ablation: element type (T3 / Q4 / Q8) versus matrix-graph density and
//! solver cost — quantifying the paper's Section 5 planarity argument.
//!
//! - T3 keeps `G(K)` planar (`|E| ≤ 3|V|−6`) — the case where row-based
//!   SpMV provably scales;
//! - Q4 adds cell diagonals and violates the bound;
//! - Q8 couples 7+ neighbours per node and is densest.

use parfem::fem::{assembly, Material};
use parfem::mesh::graph::Adjacency;
use parfem::prelude::*;
use parfem_bench::harness::{banner, Table};

fn main() {
    banner("Ablation: element family vs G(K) density (paper Section 5)");
    let (nx, ny) = (16usize, 16usize);
    let mat = Material::unit();

    // T3.
    let tmesh = parfem::mesh::TriMesh::cantilever(nx, ny);
    let tdm = DofMap::new(tmesh.n_nodes());
    let kt = assembly::assemble_stiffness(&tmesh, &tdm, &mat);
    let gt = Adjacency::node_graph_from_cells(
        tmesh.n_nodes(),
        (0..tmesh.n_elems()).map(|e| tmesh.elem_nodes(e).to_vec()),
    );

    // Q4.
    let qmesh = QuadMesh::cantilever(nx, ny);
    let qdm = DofMap::new(qmesh.n_nodes());
    let kq = assembly::assemble_stiffness(&qmesh, &qdm, &mat);
    let gq = Adjacency::node_graph(&qmesh);

    // Q8.
    let emesh = parfem::mesh::Quad8Mesh::cantilever(nx, ny);
    let edm = DofMap::new(emesh.n_nodes());
    let ke = assembly::assemble_stiffness(&emesh, &edm, &mat);
    let ge = Adjacency::node_graph_from_cells(
        emesh.n_nodes(),
        (0..emesh.n_elems()).map(|e| emesh.elem_nodes(e).to_vec()),
    );

    let mut table = Table::new(&[
        "element",
        "nodes",
        "avg_degree",
        "nnz_per_row",
        "planar",
        "nnz",
    ]);
    let mut degs = Vec::new();
    for (name, g, k) in [("T3", &gt, &kt), ("Q4", &gq, &kq), ("Q8", &ge, &ke)] {
        let planar = g.satisfies_planar_edge_bound();
        let nnz_row = k.nnz() as f64 / k.n_rows() as f64;
        table.row([
            name.to_string(),
            g.n_vertices().to_string(),
            format!("{:.3}", g.average_degree()),
            format!("{nnz_row:.3}"),
            planar.to_string(),
            k.nnz().to_string(),
        ]);
        degs.push(g.average_degree());
    }
    table.emit("ablation_elements");

    // Section-5 shape: T3 planar, Q4/Q8 not; density strictly increases.
    assert!(gt.satisfies_planar_edge_bound());
    assert!(!gq.satisfies_planar_edge_bound());
    assert!(!ge.satisfies_planar_edge_bound());
    assert!(degs[0] < degs[1] && degs[1] < degs[2]);

    // Solver-side consequence: iterations for the same physical problem.
    banner("GMRES-gls(7) iterations per element family (same cantilever)");
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };
    let mut iter_table = Table::new(&["element", "n_eqn", "iterations"]);
    for (name, mesh_kind) in [("T3", 0usize), ("Q4", 1), ("Q8", 2)] {
        let (k, rhs) = match mesh_kind {
            0 => {
                let mut dm = DofMap::new(tmesh.n_nodes());
                for n in tmesh.edge_nodes(Edge::Left) {
                    dm.clamp_node(n);
                }
                let kraw = assembly::assemble_stiffness(&tmesh, &dm, &mat);
                let mut loads = vec![0.0; dm.n_dofs()];
                for n in tmesh.edge_nodes(Edge::Right) {
                    loads[dm.dof(n, 0)] = 1.0;
                }
                let kbc = assembly::apply_dirichlet(&kraw, &dm, &mut loads);
                (kbc, loads)
            }
            1 => {
                let mut dm = DofMap::new(qmesh.n_nodes());
                dm.clamp_edge(&qmesh, Edge::Left);
                let mut loads = vec![0.0; dm.n_dofs()];
                assembly::edge_load(&qmesh, &dm, Edge::Right, 1.0, 0.0, &mut loads);
                let sys = assembly::build_static(&qmesh, &dm, &mat, &loads);
                (sys.stiffness, sys.rhs)
            }
            _ => {
                let mut dm = DofMap::new(emesh.n_nodes());
                for n in emesh.edge_nodes(Edge::Left) {
                    dm.clamp_node(n);
                }
                let kraw = assembly::assemble_stiffness(&emesh, &edm, &mat);
                let mut loads = vec![0.0; dm.n_dofs()];
                for n in emesh.edge_nodes(Edge::Right) {
                    loads[dm.dof(n, 0)] = 1.0;
                }
                let kbc = assembly::apply_dirichlet(&kraw, &dm, &mut loads);
                (kbc, loads)
            }
        };
        let gls7 = PrecondSpec::Gls {
            degree: 7,
            theta: None,
        };
        let (_, h) = solve_system(&k, &rhs, &gls7, &cfg).unwrap();
        assert!(h.converged(), "{name} static solve must converge");
        iter_table.row([
            name.to_string(),
            k.n_rows().to_string(),
            h.iterations().to_string(),
        ]);
    }
    iter_table.emit("ablation_elements_iters");
    println!("\nshape checks passed: planarity and density behave exactly as Section 5 argues");
}
