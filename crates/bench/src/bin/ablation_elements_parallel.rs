//! Ablation: element family vs *parallel* communication — the paper's
//! Section-5 argument tested end to end.
//!
//! Section 5 claims higher-order elements (Q8) densify `G(K)` beyond
//! planarity and "deteriorate the scalability" of row-partitioned SpMV,
//! while the element-based strategy only ever exchanges interface *nodes*.
//! Here the same physical domain is discretized with T3, Q4 and Q8, both
//! decompositions run at P = 4, and the per-iteration exchanged bytes and
//! modeled times are measured.

use parfem::fem::assembly;
use parfem::mesh::{Quad8Mesh, TriMesh};
use parfem::prelude::*;
use parfem_bench::harness::{banner, Table};

const P: usize = 4;

struct Row {
    name: &'static str,
    n_eqn: usize,
    edd_bytes_per_iter: f64,
    rdd_bytes_per_iter: f64,
    edd_iters: usize,
    rdd_iters: usize,
}

/// One element family on the cantilever, both decompositions through the
/// session at P = 4 on the same element strips: EDD over the strips, RDD
/// over their node partition. Bytes per iteration are the busiest rank's.
fn run(name: &'static str, disc: Discretization, dm: &DofMap, loads: &[f64]) -> Row {
    let mat = Material::unit();
    let mesh = disc.mesh();
    let elements = PartitionerSpec::Strips.element_partition(&mesh, P);
    let nodes = NodePartition::from_elements(&elements, &mesh).expect("strips keep a node each");
    let strategies = [Strategy::Edd(elements), Strategy::Rdd(nodes)];
    let [(edd_bytes_per_iter, edd_iters), (rdd_bytes_per_iter, rdd_iters)] =
        strategies.map(|strategy| {
            let out = SolveSession::new(Problem::new(disc, dm, &mat, loads))
                .strategy(strategy)
                .machine(MachineModel::ideal())
                .run()
                .expect("fault-free solve must not error");
            assert!(out.history.converged());
            let iters = out.history.iterations();
            let max_bytes = (out.reports.iter())
                .map(|r| r.stats.bytes_sent as f64)
                .fold(0.0_f64, f64::max);
            (max_bytes / iters as f64, iters)
        });
    Row {
        name,
        n_eqn: dm.n_free(),
        edd_bytes_per_iter,
        rdd_bytes_per_iter,
        edd_iters,
        rdd_iters,
    }
}

fn main() {
    banner("Ablation: T3 / Q4 / Q8 through the PARALLEL solvers (P = 4, gls(7))");
    let (nx, ny) = (24usize, 12usize);
    let mut rows: Vec<Row> = Vec::new();

    // --- Q4 ---
    let quad = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(quad.n_nodes());
    dm.clamp_edge(&quad, Edge::Left);
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&quad, &dm, Edge::Right, 1.0, 0.0, &mut loads);
    rows.push(run("Q4", (&quad).into(), &dm, &loads));

    // --- T3 (same domain, each quad split: same nodes, same loads) ---
    let tri = TriMesh::cantilever(nx, ny);
    rows.push(run("T3", (&tri).into(), &dm, &loads));

    // --- Q8 ---
    let quad8 = Quad8Mesh::cantilever(nx, ny);
    let mut dm = DofMap::new(quad8.n_nodes());
    for n in quad8.edge_nodes(Edge::Left) {
        dm.clamp_node(n);
    }
    let mut loads = vec![0.0; dm.n_dofs()];
    let right = quad8.edge_nodes(Edge::Right);
    for &n in &right {
        loads[dm.dof(n, 0)] = 1.0 / right.len() as f64;
    }
    rows.push(run("Q8", (&quad8).into(), &dm, &loads));

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
