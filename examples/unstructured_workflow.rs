//! The unstructured-input workflow a downstream user follows: export a
//! distorted mesh to the text interchange format, re-import it as an
//! unstructured mesh (no grid structure assumed), partition it with the
//! greedy BFS graph partitioner, and solve in parallel with EDD-FGMRES.
//!
//! Run with: `cargo run --release --example unstructured_workflow`

use parfem::fem::assembly;
use parfem::mesh::graph::greedy_bfs_partition_cells;
use parfem::mesh::GenericQuadMesh;
use parfem::prelude::*;

fn main() {
    // 1. Produce an "external" mesh file: a distorted cantilever written in
    //    the interchange format (stands in for a mesh-generator export).
    let source = QuadMesh::distorted(24, 8, 24.0, 8.0, 0.3, 2024);
    let generic = GenericQuadMesh::from_structured(&source);
    let mut file_bytes = Vec::new();
    generic.write(&mut file_bytes).expect("serialize mesh");
    println!(
        "exported mesh: {} nodes, {} elements, {} bytes",
        generic.n_nodes(),
        generic.n_elems(),
        file_bytes.len()
    );

    // 2. Import it back — from here on, nothing knows it was structured.
    let mesh = GenericQuadMesh::read(&file_bytes[..]).expect("parse mesh");
    assert_eq!(mesh, generic);

    // 3. Boundary conditions from topology + geometry: clamp the min-x
    //    boundary nodes, load the max-x ones.
    let mut dm = DofMap::new(mesh.n_nodes());
    for n in mesh.nodes_at_min_x(1e-9) {
        dm.clamp_node(n);
    }
    let boundary = mesh.boundary_nodes();
    let xmax = mesh.coords().iter().map(|c| c[0]).fold(f64::MIN, f64::max);
    let tip_nodes: Vec<usize> = boundary
        .iter()
        .copied()
        .filter(|&n| (mesh.node_coords(n)[0] - xmax).abs() < 1e-9)
        .collect();
    let mut loads = vec![0.0; dm.n_dofs()];
    for &n in &tip_nodes {
        loads[dm.dof(n, 1)] = -1e-3 / tip_nodes.len() as f64;
    }
    println!(
        "clamped {} nodes at x=0, loading {} tip nodes; {} equations",
        mesh.nodes_at_min_x(1e-9).len(),
        tip_nodes.len(),
        dm.n_free()
    );

    // 4. Graph partitioning (no grid knowledge); each rank assembles its
    //    own subdomain.
    let parts = 4;
    let partition = greedy_bfs_partition_cells(&mesh, parts);
    for s in partition.subdomains_of(&mesh) {
        println!(
            "  rank {}: {} local nodes, {} local dofs, {} neighbours",
            s.rank,
            s.nodes.len(),
            s.nodes.len() * dm.dofs_per_node(),
            s.neighbors.len()
        );
    }

    // 5. Parallel solve.
    let mat = Material::unit();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(partition))
        .machine(MachineModel::sgi_origin())
        .run()
        .expect("fault-free solve");
    assert!(out.history.converged());
    println!(
        "EDD-FGMRES-gls(7), P={parts}: {} iterations, modeled time {:.4} s",
        out.history.iterations(),
        out.modeled_time
    );

    // 6. Verify against the sequential assembled system.
    let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
    let (k_bc, rhs) = (sys.stiffness, sys.rhs);
    let r = k_bc.spmv(&out.u);
    let err: f64 = r
        .iter()
        .zip(&rhs)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt();
    let scale: f64 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
    println!(
        "relative residual on the assembled system: {:.2e}",
        err / scale
    );
    assert!(err < 1e-5 * scale);
    println!("\nfull unstructured workflow (export → import → partition → solve) verified");
}
