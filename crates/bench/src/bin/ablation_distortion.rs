//! Ablation: mesh distortion vs. preconditioner effectiveness.
//!
//! The paper's meshes are perfect rectangles. Real FEM meshes are not; this
//! study distorts the interior nodes (up to 0.45 cell widths) and tracks
//! how the GLS- and ILU-preconditioned iteration counts respond. The
//! norm-1 scaling guarantee `σ(DKD) ⊂ (0, 1)` is geometry-independent, so
//! the polynomial preconditioner keeps working — only the effective
//! condition number (and thus iteration count) drifts.

use parfem::fem::assembly;
use parfem::prelude::*;
use parfem_bench::harness::{banner, Table};

fn main() {
    banner("Ablation: interior-node distortion (24x8 cantilever, gls(7) / ilu(0))");
    let (nx, ny) = (24usize, 8usize);
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 40_000,
        ..Default::default()
    };
    let mut table = Table::new(&["amplitude", "gls7_iters", "ilu0_iters", "none_iters"]);
    let mut gls_iters = Vec::new();
    for amp in [0.0f64, 0.15, 0.3, 0.45] {
        let mesh = QuadMesh::distorted(nx, ny, nx as f64, ny as f64, amp, 12345);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mut loads = vec![0.0; dm.n_dofs()];
        assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, 0.0, &mut loads);
        let sys = assembly::build_static(&mesh, &dm, &Material::unit(), &loads);
        let mut cells = Vec::new();
        for pc in ["gls:7", "ilu0", "none"].map(|s| PrecondSpec::parse(s).unwrap()) {
            let (_, h) = solve_system(&sys.stiffness, &sys.rhs, &pc, &cfg).unwrap();
            assert!(h.converged(), "amp {amp} {}", pc.name());
            cells.push(h.iterations());
        }
        table.row([
            format!("{amp}"),
            cells[0].to_string(),
            cells[1].to_string(),
            cells[2].to_string(),
        ]);
        gls_iters.push(cells[0]);
    }
    table.emit("ablation_distortion");
    // GLS must keep converging on every distortion level; growth bounded.
    let worst = *gls_iters.iter().max().unwrap();
    let base = gls_iters[0];
    assert!(
        worst <= 4 * base,
        "distortion should not blow up gls(7): {gls_iters:?}"
    );
    println!(
        "\ngls(7) robust across distortion levels (paper's scaling guarantee is geometry-free)"
    );
}
