//! Physics scaling laboratory: iteration counts and modeled solve times
//! for the non-elasticity2d workloads at large P.
//!
//! The paper's workload is 2-D plane-stress elasticity; the physics axis
//! (`--problem heat2d|elasticity3d`) opens scalar Poisson/heat and 3-D
//! hex8 elasticity through the identical assembly → scaling → FGMRES
//! pipeline. This lab answers the obvious follow-up: does the production
//! two-level configuration (`twolevel:rbm.s5:gls-3`, whose rigid-body mode
//! count adapts to the physics — 1 constant mode for scalar heat, 6
//! translations+rotations for 3-D elasticity) keep iteration counts
//! near-flat on those workloads too, and what do the solves cost on a
//! modern modeled machine?
//!
//! For each problem a weak-scaling cantilever family grows with P (one
//! square/x-column aggregate per rank), real sequential FGMRES solves to
//! 1e-10 record the iteration counts, and the analytic [`MachineModel`]
//! prices each iteration with the physics' own interface payload
//! (`8 × dofs-per-node` bytes per shared node) and per-element flop count.
//! The summary feeds the `physics_modeled` section of `BENCH_PERF.json`;
//! the perf gate bounds each series' iteration growth and requires the
//! modeled times to be positive and finite.
//!
//! `PARFEM_QUICK=1` shrinks the sweep to CI smoke size.

use parfem::perfgate::MAX_PHYSICS_ITER_GROWTH;
use parfem::prelude::*;
use parfem_bench::harness::{banner, decimals, print_section, quick, significant, Table};
use parfem_bench::modeling::{modeled_edd, rank_stats, IterCostModel};
use parfem_krylov::{fgmres, GmresConfig};
use parfem_mesh::Cells;
use parfem_precond::twolevel::build_coarse_basis;
use parfem_precond::{CoarsePartGeometry, PrecondSpec};
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_sparse::scaling;
use parfem_trace::json::Json;

/// The production two-level configuration the sweep measures. The s5
/// prolongator smoothing (vs the elasticity2d sweep's s3) is what keeps the
/// hex8 series near-flat at P=1024.
const SPEC: &str = "twolevel:rbm.s5:gls-3";
/// Iteration cap — every point must converge under it.
const ITER_CAP: usize = 2000;
/// Per-mode flops of the replicated coarse back-solve (as in `scaling`).
const COARSE_SOLVE_FLOPS_PER_MODE: f64 = 50.0;

/// One solved point of a physics series.
struct Point {
    p: usize,
    iters: usize,
    modeled_time: f64,
}

struct Series {
    name: &'static str,
    points: Vec<Point>,
    growth: f64,
}

/// Disjoint node aggregation of an element `owner` map (a node goes to the
/// lowest-indexed element touching it), with per-dof multiplicity — the
/// physics-generic version of the quad-only helper in the `scaling` bin.
fn coarse_parts<M: Cells>(
    mesh: &M,
    pos3: &dyn Fn(usize) -> [f64; 3],
    dm: &parfem_mesh::DofMap,
    owner: &[usize],
    p: usize,
) -> (Vec<CoarsePartGeometry>, Vec<f64>) {
    let dpn = dm.dofs_per_node();
    let n_nodes = mesh.n_cell_nodes();
    let mut node_owner = vec![usize::MAX; n_nodes];
    for (e, &own) in owner.iter().enumerate() {
        for n in mesh.cell_nodes(e) {
            if node_owner[n] == usize::MAX {
                node_owner[n] = own;
            }
        }
    }
    let mut nodes_of: Vec<Vec<usize>> = vec![Vec::new(); p];
    for (n, &own) in node_owner.iter().enumerate() {
        nodes_of[own].push(n);
    }
    let mut mult = vec![0.0f64; dm.n_dofs()];
    let parts = nodes_of
        .iter()
        .map(|nodes| {
            let mut geo = CoarsePartGeometry::default();
            for &n in nodes {
                for c in 0..dpn {
                    let g = n * dpn + c;
                    geo.dofs.push(g);
                    geo.pos.push(pos3(n));
                    geo.comp.push(c);
                    geo.constrained.push(dm.is_fixed(g));
                    mult[g] += 1.0;
                }
            }
            geo
        })
        .collect();
    (parts, mult)
}

/// Runs one physics series over the square rank grids in `ps`.
fn run_series(
    physics: Physics,
    name: &'static str,
    ps: &[usize],
    model: &MachineModel,
    table: &mut Table,
) -> Series {
    let mut points = Vec::new();
    for &p in ps {
        let side = (p as f64).sqrt().round() as usize;
        assert_eq!(side * side, p, "physics sweep wants square rank grids");
        // Weak families: a fixed per-rank aggregate, mesh growing with P.
        // Heat reuses the 3x3-element quad tile of the twolevel sweep; the
        // hex family keeps a thin z extent so the x-y tiling stays square.
        let (grid, tile): ((usize, usize, usize), (usize, usize)) = match physics {
            Physics::Heat2d => ((3 * side, 3 * side, 1), (3, 3)),
            Physics::Elasticity3d => ((2 * side, 2 * side, 2), (2, 2)),
            Physics::Elasticity2d => unreachable!("covered by the scaling bin"),
        };
        let prob =
            PhysicsProblem::cantilever(physics, grid, Material::unit(), LoadCase::PullX(1.0));
        let sys = prob.static_system();
        let (scaled, b, _sc) =
            scaling::scale_system(&sys.stiffness, &sys.rhs).expect("workload scales");
        let d: Vec<f64> = scaled.diagonal();

        // x-y checkerboard element owners (all z layers share a tile) and
        // the physics-generic coarse aggregates over them.
        let (parts, mult, stats, cost, n_elems) = match &prob.mesh {
            WorkloadMesh::Quad(m) => {
                let (tx, ty) = (m.nx() / side, m.ny() / side);
                assert_eq!((tx, ty), tile, "quad tile shape");
                let owners: Vec<usize> = (0..m.n_elems())
                    .map(|e| {
                        let (i, j) = (e % m.nx(), e / m.nx());
                        (j / ty) * side + i / tx
                    })
                    .collect();
                let coords = m.coords();
                let pos3 = |n: usize| [coords[n][0], coords[n][1], 0.0];
                let (parts, mult) = coarse_parts(m, &pos3, &prob.dof_map, &owners, p);
                // Q4 heat: 4x4 element matrix — a quarter of the 8x8
                // elasticity block's flops.
                let cost = IterCostModel::for_physics(1, 300.0);
                let stats = rank_stats(m, &owners, p, &cost);
                (parts, mult, stats, cost, m.n_elems())
            }
            WorkloadMesh::Hex(m) => {
                let (tx, ty) = (m.nx() / side, m.ny() / side);
                assert_eq!((tx, ty), tile, "hex tile shape");
                let owners: Vec<usize> = (0..m.n_elems())
                    .map(|e| {
                        let i = e % m.nx();
                        let j = (e / m.nx()) % m.ny();
                        (j / ty) * side + i / tx
                    })
                    .collect();
                let coords = m.coords();
                let pos3 = |n: usize| coords[n];
                let (parts, mult) = coarse_parts(m, &pos3, &prob.dof_map, &owners, p);
                // Hex8 elasticity: a 24x24 element block — 9x the flops of
                // the 8x8 Q4 elasticity block.
                let cost = IterCostModel::for_physics(3, 10800.0);
                let stats = rank_stats(m, &owners, p, &cost);
                (parts, mult, stats, cost, m.n_elems())
            }
        };

        let coarse_spec = match PrecondSpec::parse(SPEC).expect("bench spec parses") {
            PrecondSpec::TwoLevel { coarse, .. } => coarse,
            _ => unreachable!("SPEC is a twolevel spec"),
        };
        let basis = build_coarse_basis(&coarse_spec, &parts, &mult, &d, &scaled, DEFAULT_PIVOT_TOL);
        let n_modes = basis.n_modes();
        let cfg = GmresConfig {
            restart: 100,
            max_iters: ITER_CAP,
            tol: 1e-10,
            ..Default::default()
        };
        let x0 = vec![0.0; b.len()];
        let spec = PrecondSpec::parse(SPEC).expect("bench spec parses");
        let pc = spec
            .instantiate(Some(basis.solver()), Some(&scaled), || scaled.diagonal())
            .expect("polynomial smoother");
        let res = fgmres(&scaled, &pc, &b, &x0, &cfg);
        assert!(
            res.history.converged(),
            "{name} P={p}: {SPEC} must converge within {ITER_CAP} iterations"
        );
        let iters = res.history.iterations();

        // Modeled per-iteration time: blocking EDD exchange plus the
        // coarse level's all-reduce, replicated back-solve, and the
        // multiplicative composition's extra operator pass.
        let (t_iter_base, _, _) = modeled_edd(model, p, &stats, &cost);
        let elems_max = *stats.elems.iter().max().unwrap() as f64;
        let t_iter = t_iter_base
            + model.allreduce_time(p, n_modes * 8)
            + model.compute_time((n_modes as f64 * COARSE_SOLVE_FLOPS_PER_MODE) as u64)
            + model.compute_time((elems_max * cost.flops_per_elem_iter / 4.0) as u64);
        let modeled_time = iters as f64 * t_iter;
        table.row([
            name.to_string(),
            format!("{p}"),
            format!("{}", prob.n_dofs()),
            format!("{n_elems}"),
            format!("{n_modes}"),
            format!("{iters}"),
            format!("{t_iter:.6e}"),
            format!("{modeled_time:.6e}"),
        ]);
        points.push(Point {
            p,
            iters,
            modeled_time,
        });
    }
    let growth = points.last().unwrap().iters as f64 / points.first().unwrap().iters as f64;
    assert!(
        growth <= MAX_PHYSICS_ITER_GROWTH,
        "{name}: iteration growth {growth:.4} exceeds {MAX_PHYSICS_ITER_GROWTH}"
    );
    Series {
        name,
        points,
        growth,
    }
}

fn emit_summary(series: &[Series]) {
    let series = series.iter().map(|s| {
        let (first, last) = (&s.points[0], &s.points[s.points.len() - 1]);
        let mut entry = vec![
            ("p_min".to_string(), first.p.into()),
            ("p_max".into(), last.p.into()),
        ];
        for pt in &s.points {
            entry.push((format!("iters_p{}", pt.p), pt.iters.into()));
        }
        for pt in &s.points {
            entry.push((
                format!("modeled_time_p{}", pt.p),
                significant(pt.modeled_time),
            ));
        }
        entry.push(("iter_growth".into(), decimals(s.growth, 4)));
        (s.name, Json::Obj(entry))
    });
    print_section("physics_modeled", Json::obj(series));
}

fn main() {
    banner("physics scaling (real solves, weak families, modeled times)");
    let ps: &[usize] = if quick() {
        &[64, 256]
    } else {
        &[64, 256, 1024]
    };
    let model = MachineModel::cluster();
    let mut table = Table::new(&[
        "problem",
        "p",
        "dofs",
        "elems",
        "modes",
        "iters",
        "t_iter_s",
        "t_solve_s",
    ]);
    let series = [
        run_series(Physics::Heat2d, "heat2d", ps, &model, &mut table),
        run_series(
            Physics::Elasticity3d,
            "elasticity3d",
            ps,
            &model,
            &mut table,
        ),
    ];
    table.emit("physics_scaling");
    emit_summary(&series);
    println!(
        "\niteration growth over P={}..{}: heat2d {:.4}, elasticity3d {:.4}",
        ps.first().unwrap(),
        ps.last().unwrap(),
        series[0].growth,
        series[1].growth
    );
}
