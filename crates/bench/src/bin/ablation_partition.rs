//! Ablation: partition shape (vertical strips vs 2-D blocks vs greedy BFS)
//! at fixed P — interface sizes, per-iteration communication volume and
//! modeled time.
//!
//! The paper uses strip-like partitions on its elongated cantilevers; this
//! quantifies how much the partition geometry matters for the EDD solver.

use parfem::prelude::*;
use parfem_bench::harness::{banner, Case, Table};

fn main() {
    banner("Ablation: partition geometry at P = 4 (EDD-FGMRES-gls(7), SGI-Origin)");
    let p = CantileverProblem::new(32, 32, Material::unit(), LoadCase::PullX(1.0));
    let case = Case::edd(&p);

    let parts: Vec<(&str, ElementPartition)> = vec![
        ("strips_x", ElementPartition::strips_x(&p.mesh, 4)),
        ("blocks_2x2", ElementPartition::blocks_of(&p.mesh, 2, 2)),
        ("blocks_1x4", ElementPartition::blocks_of(&p.mesh, 1, 4)),
        (
            "greedy_bfs",
            parfem::mesh::graph::greedy_bfs_partition(&p.mesh, 4),
        ),
    ];

    let mut table = Table::new(&[
        "partition",
        "iterations",
        "interface_nodes",
        "bytes_per_iter",
        "modeled_time_s",
        "speedup_vs_p1",
    ]);
    let mut times = Vec::new();
    // Single-rank baseline for speedup.
    let t1 = case.run(1).modeled_time;

    for (name, part) in &parts {
        // Interface size: nodes with multiplicity > 1, summed over subs.
        let subs = part.subdomains_of(&p.mesh);
        let iface: usize = subs.iter().map(|s| s.n_interface_nodes()).sum();
        let out = case.run_strategy(Strategy::Edd(part.clone()));
        let bytes_per_iter =
            out.reports[0].stats.bytes_sent as f64 / out.history.iterations() as f64;
        table.row([
            name.to_string(),
            out.history.iterations().to_string(),
            iface.to_string(),
            format!("{bytes_per_iter:.1}"),
            format!("{:.6}", out.modeled_time),
            format!("{:.3}", t1 / out.modeled_time),
        ]);
        times.push(out.modeled_time);
    }
    table.emit("ablation_partition");

    // Shape: every partition achieves solid speedup; the worst/best modeled
    // times stay within 2x of each other on this square mesh.
    let tmin = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let tmax = times.iter().cloned().fold(0.0_f64, f64::max);
    assert!(
        tmax / tmin < 2.0,
        "partition geometry should not change modeled time by 2x here: {times:?}"
    );
    println!("\nall partitions converge identically; comm volume follows interface size");
}
