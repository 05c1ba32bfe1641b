//! The scaling laboratories: modeled weak and strong scaling at
//! P = 64..4096, and the two-level preconditioner's iteration growth on
//! weak-scaling families of every physics.
//!
//! The paper evaluates P ≤ 8 on mid-90s hosts; these rows ask what the
//! same EDD/RDD algorithms cost at large P on modern topologies (two-level
//! cluster, fat tree, 3-D torus), using the analytic machine model rather
//! than real threads. The iteration counts come from real sequential
//! FGMRES solves; the per-iteration times from [`crate::modeling`]. Each
//! row prints the `BENCH_PERF.json` section the perf gate checks.

use super::Run;
use crate::harness::{banner, cantilever, decimals, print_section, significant, Table};
use crate::modeling::{modeled_edd, rank_stats, IterCostModel};
use parfem::perfgate::{MAX_PHYSICS_ITER_GROWTH, MAX_TWOLEVEL_ITER_GROWTH};
use parfem::prelude::*;
use parfem_krylov::gmres::fgmres;
use parfem_mesh::Cells;
use parfem_precond::twolevel::{build_coarse_basis, BuiltCoarse, CoarseSolver};
use parfem_precond::CoarsePartGeometry;
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_sparse::scaling::scale_system;
use parfem_trace::json::Json;

/// Per-mode flops of the replicated coarse back-solve (forward + backward
/// sweep over a narrow strip-coupled band).
const COARSE_SOLVE_FLOPS_PER_MODE: f64 = 50.0;

/// Modeled per-iteration time of the RDD strategy on `part`, the node
/// partition of the strips (the CLI's default partitioner): each rank
/// trades one column of externals with each side neighbor per matvec.
fn modeled_rdd(
    model: &MachineModel,
    p: usize,
    mesh: &QuadMesh,
    part: &NodePartition,
    total_flops: f64,
    cost: &IterCostModel,
) -> f64 {
    let mut nodes = vec![0usize; p];
    for &o in part.owners() {
        nodes[o] += 1;
    }
    let n_nodes = part.owners().len() as f64;
    let bytes = (mesh.ny() + 1) * cost.bytes_per_node;
    let sync = cost.syncs_per_iter as f64 * model.allreduce_time(p, cost.allreduce_bytes);
    let mut t = 0.0f64;
    for (r, &owned) in nodes.iter().enumerate() {
        let compute = model.compute_time((total_flops * owned as f64 / n_nodes) as u64);
        let nbrs: Vec<usize> = (r.saturating_sub(1)..=(r + 1).min(p - 1))
            .filter(|&q| q != r)
            .collect();
        let factors = model.contention_factors(p, r, &nbrs);
        let mut round = 0.0f64;
        for (&q, &f) in nbrs.iter().zip(&factors) {
            round = round.max(model.message_time_contended(p, r, q, bytes, f));
        }
        t = t.max(compute + cost.exchange_rounds as f64 * round);
    }
    t + sync
}

struct SeriesSummary {
    p_max: usize,
    cut_ratio_max: f64,
    overlap_speedup_min: f64,
    /// `(machine name, efficiency at p_max)` per topology.
    eff_at_pmax: Vec<(&'static str, f64)>,
}

/// Runs one series (`weak` grows the mesh with P, `strong` fixes it) over
/// every P and topology, emits the table, and returns the gate summary.
///
/// Each point partitions the mesh twice — structured strips (the paper's
/// layout) and the multilevel graph partitioner — and records edge cut,
/// imbalance and the worst link-sharing factor beside the modeled
/// per-iteration times for blocking EDD, RDD and overlapped EDD.
fn run_series(
    run: &Run,
    name: &str,
    ps: &[usize],
    mesh_for: impl Fn(usize) -> QuadMesh,
    weak: bool,
    topos: &[MachineModel],
) -> SeriesSummary {
    banner(&format!(
        "{name}-scaling (modeled, EDD graph partition vs RDD strips)"
    ));
    let mut table = Table::new(&[
        "p",
        "machine",
        "elems",
        "strips_cut",
        "graph_cut",
        "cut_ratio",
        "imbalance",
        "contention",
        "t_edd_s",
        "t_rdd_s",
        "t_overlap_s",
        "overlap_speedup",
        "efficiency",
    ]);
    let mut cut_ratio_max = 0.0f64;
    let mut overlap_speedup_min = f64::INFINITY;
    let mut eff_curves: Vec<Vec<f64>> = vec![Vec::new(); topos.len()];
    for &p in ps {
        let mesh = mesh_for(p);
        let n = mesh.n_elems();
        let partition = |spec: PartitionerSpec| spec.element_partition(&mesh, p);
        let strips = partition(PartitionerSpec::Strips).with_edge_cut(&mesh);
        let graph = partition(PartitionerSpec::Graph).with_edge_cut(&mesh);
        let rdd = NodePartition::from_elements(&strips, &mesh).expect("strips keep a node each");
        let (strips_cut, graph_cut) = (
            strips.edge_cut().expect("strips cut recorded"),
            graph.edge_cut().expect("graph cut recorded"),
        );
        assert!(
            graph_cut < strips_cut,
            "{name} P={p}: graph cut {graph_cut} must beat strips {strips_cut}"
        );
        let imbalance = graph.imbalance();
        assert!(
            imbalance <= 1.25,
            "{name} P={p}: graph imbalance {imbalance} out of tolerance"
        );
        let ratio = graph_cut as f64 / strips_cut as f64;
        cut_ratio_max = cut_ratio_max.max(ratio);
        let cost = IterCostModel::paper_gls7();
        let stats = rank_stats(&mesh, graph.owners(), p, &cost);
        let total_flops = n as f64 * cost.flops_per_elem_iter;
        for (ti, model) in topos.iter().enumerate() {
            let (t_edd, t_overlap, contention) = modeled_edd(model, p, &stats, &cost);
            let t_rdd = modeled_rdd(model, p, &mesh, &rdd, total_flops, &cost);
            let speedup = t_edd / t_overlap;
            overlap_speedup_min = overlap_speedup_min.min(speedup);
            // Weak: time of the per-rank tile with all overheads removed.
            // Strong: the one-rank time over P ranks.
            let t_ref = if weak {
                model.compute_time((total_flops / p as f64) as u64)
            } else {
                model.compute_time(total_flops as u64) / p as f64
            };
            let eff = t_ref / t_edd;
            eff_curves[ti].push(eff);
            table.row([
                format!("{p}"),
                model.name.to_string(),
                format!("{n}"),
                format!("{strips_cut}"),
                format!("{graph_cut}"),
                format!("{ratio:.4}"),
                format!("{imbalance:.4}"),
                format!("{contention:.2}"),
                format!("{t_edd:.6e}"),
                format!("{t_rdd:.6e}"),
                format!("{t_overlap:.6e}"),
                format!("{speedup:.4}"),
                format!("{eff:.4}"),
            ]);
        }
    }
    table.emit(run, &format!("scaling_{name}"));

    assert!(
        overlap_speedup_min >= 1.0 - 1e-12,
        "{name}: overlap modeled slower than blocking ({overlap_speedup_min})"
    );
    let mut eff_at_pmax = Vec::new();
    for (model, effs) in topos.iter().zip(&eff_curves) {
        for &e in effs {
            assert!(
                e > 0.0 && e <= 1.0 + 1e-9,
                "{name}/{}: modeled efficiency {e} outside (0, 1]",
                model.name
            );
        }
        assert!(
            effs.last().unwrap() <= effs.first().unwrap(),
            "{name}/{}: efficiency must not rise with P: {effs:?}",
            model.name
        );
        eff_at_pmax.push((model.name, *effs.last().unwrap()));
    }
    SeriesSummary {
        p_max: *ps.last().unwrap(),
        cut_ratio_max,
        overlap_speedup_min,
        eff_at_pmax,
    }
}

/// Element owners of a `side × side` checkerboard of square tiles over the
/// x-y grid (`nx`, `ny`) of a structured mesh, every z layer in its
/// column's tile — so coarse aggregates keep a bounded diameter in both
/// directions as a weak family grows.
fn tile_owners(n_elems: usize, (nx, ny): (usize, usize), side: usize) -> Vec<usize> {
    let (tx, ty) = (nx / side, ny / side);
    (0..n_elems)
        .map(|e| ((e / nx) % ny / ty) * side + (e % nx) / tx)
        .collect()
}

/// Per-part coarse geometry of an element partition, and the dof
/// multiplicity for the partition-of-unity weights. Disjoint node
/// aggregation: a node shared by several tiles goes to the lowest-indexed
/// element touching it, so every dof sits in exactly one aggregate and the
/// coarse modes are true indicator functions rather than partition-of-unity
/// ramps.
fn coarse_parts<M: Cells>(
    mesh: &M,
    pos3: &dyn Fn(usize) -> [f64; 3],
    dm: &DofMap,
    owner: &[usize],
    p: usize,
) -> (Vec<CoarsePartGeometry>, Vec<f64>) {
    let dpn = dm.dofs_per_node();
    let mut node_owner = vec![usize::MAX; mesh.n_cell_nodes()];
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

/// The coarse basis of the two-level `spec` over the element `owners` of
/// a scaled system.
fn coarse_basis<M: Cells>(
    spec: &str,
    mesh: &M,
    pos3: &dyn Fn(usize) -> [f64; 3],
    dm: &DofMap,
    owners: &[usize],
    p: usize,
    scaled: &CsrMatrix,
) -> BuiltCoarse {
    let PrecondSpec::TwoLevel { coarse, .. } = PrecondSpec::parse(spec).expect("bench spec parses")
    else {
        unreachable!("{spec} is a twolevel spec")
    };
    let (parts, mult) = coarse_parts(mesh, pos3, dm, owners, p);
    let d = scaled.diagonal();
    build_coarse_basis(&coarse, &parts, &mult, &d, scaled, DEFAULT_PIVOT_TOL)
}

/// One sequential FGMRES solve of the scaled system under `spec`, restart
/// 100, to `tol`, capped at `cap` iterations: `(iterations, converged)`.
fn solve_iters(
    scaled: &CsrMatrix,
    b: &[f64],
    coarse: Option<CoarseSolver>,
    spec: &str,
    tol: f64,
    cap: usize,
) -> (usize, bool) {
    let cfg = GmresConfig {
        restart: 100,
        max_iters: cap,
        tol,
        ..Default::default()
    };
    let pc = PrecondSpec::parse(spec).expect("bench spec parses");
    let pc =
        (pc.instantiate(coarse, Some(scaled), || scaled.diagonal())).expect("polynomial smoother");
    let res = fgmres(scaled, &pc, b, &vec![0.0; b.len()], &cfg);
    (res.history.iterations(), res.history.converged())
}

/// The two-level spec the convergence sweep runs, and the one-level
/// smoother it is compared against.
const TWOLEVEL_SPEC: &str = "twolevel:rbm.s3:gls-3";
const ONELEVEL_SPEC: &str = "gls:3";

/// One solved point of the two-level convergence sweep.
struct TwoLevelPoint {
    p: usize,
    iters_two: usize,
    iters_one: usize,
    /// One-level hit the iteration cap without converging; `iters_one` is
    /// then a lower bound, which only understates its growth.
    one_censored: bool,
}

/// Runs the two-level convergence sweep over the weak-scaling cantilever
/// family (one 3x3-element square aggregate per rank), models the
/// per-machine solve times and prints the `twolevel_modeled` section.
///
/// `twolevel:rbm.s3:gls-3` is the configuration that flattens elasticity
/// counts: three rigid-body modes per aggregate through three
/// prolongator-smoothing passes (plain aggregation modes keep elasticity
/// counts creeping up with P). Solves run to 1e-12 so the counts reflect
/// the asymptotic rate rather than the initial outlier-elimination
/// transient. One-level runs are capped; a point at the cap is a censored
/// lower bound (only the first point must converge: it anchors the growth
/// ratio). The two-level apply adds one `n_modes`-double all-reduce for
/// the coarse residual moments, the replicated coarse back-solve and
/// (multiplicative composition) one extra operator application.
fn run_twolevel_series(run: &Run, ps: &[usize], onelevel_cap: usize, topos: &[MachineModel]) {
    banner("twolevel convergence (real solves, weak family, modeled times)");
    let mut table = Table::new(&[
        "p",
        "machine",
        "dofs",
        "modes",
        "iters_1lvl",
        "iters_2lvl",
        "t_iter_1lvl_s",
        "t_iter_2lvl_s",
        "t_solve_1lvl_s",
        "t_solve_2lvl_s",
        "speedup",
    ]);
    let mut points = Vec::new();
    let mut speedup_at_pmax = Vec::new();
    for &p in ps {
        let side = (p as f64).sqrt().round() as usize;
        assert_eq!(side * side, p, "twolevel sweep wants square rank grids");
        let prob = cantilever((3 * side, 3 * side));
        let sys = prob.static_system();
        let (scaled, b, _) = scale_system(&sys.stiffness, &sys.rhs).expect("SPD cantilever scales");
        let mesh = &prob.mesh;
        let owners = tile_owners(mesh.n_elems(), (mesh.nx(), mesh.ny()), side);
        let coords = mesh.coords();
        let pos3 = |n: usize| [coords[n][0], coords[n][1], 0.0];
        let basis = coarse_basis(
            TWOLEVEL_SPEC,
            mesh,
            &pos3,
            &prob.dof_map,
            &owners,
            p,
            &scaled,
        );
        let n_modes = basis.info.n_modes;
        let solve = |coarse, spec| solve_iters(&scaled, &b, coarse, spec, 1e-12, onelevel_cap);
        let (iters_two, conv_two) = solve(Some(basis.solver(None)), TWOLEVEL_SPEC);
        assert!(
            conv_two,
            "twolevel P={p}: {TWOLEVEL_SPEC} must converge within {onelevel_cap} iterations"
        );
        let (iters_one, conv_one) = solve(None, ONELEVEL_SPEC);

        // Modeled per-iteration times on the tile partition.
        let cost = IterCostModel::paper_gls7();
        let stats = rank_stats(mesh, &owners, p, &cost);
        let elems_max = *stats.elems.iter().max().unwrap() as f64;
        for model in topos {
            let (t_one_iter, _, _) = modeled_edd(model, p, &stats, &cost);
            let extra = model.allreduce_time(p, n_modes * 8)
                + model.compute_time((n_modes as f64 * COARSE_SOLVE_FLOPS_PER_MODE) as u64)
                + model.compute_time((elems_max * cost.flops_per_elem_iter / 8.0) as u64);
            let t_two_iter = t_one_iter + extra;
            let t_one = iters_one as f64 * t_one_iter;
            let t_two = iters_two as f64 * t_two_iter;
            let speedup = t_one / t_two;
            if p == *ps.last().unwrap() {
                speedup_at_pmax.push((model.name, speedup));
            }
            table.row([
                format!("{p}"),
                model.name.to_string(),
                format!("{}", prob.n_dofs()),
                format!("{n_modes}"),
                format!("{}{}", iters_one, if conv_one { "" } else { "+" }),
                format!("{iters_two}"),
                format!("{t_one_iter:.6e}"),
                format!("{t_two_iter:.6e}"),
                format!("{t_one:.6e}"),
                format!("{t_two:.6e}"),
                format!("{speedup:.4}"),
            ]);
        }
        points.push(TwoLevelPoint {
            p,
            iters_two,
            iters_one,
            one_censored: !conv_one,
        });
    }
    table.emit(run, "scaling_twolevel");

    let (first, last) = (&points[0], &points[points.len() - 1]);
    assert!(
        !first.one_censored,
        "one-level must converge at P={} so the growth baseline is real",
        first.p
    );
    let growth_two = last.iters_two as f64 / first.iters_two as f64;
    let growth_one = last.iters_one as f64 / first.iters_one as f64;
    assert!(
        growth_two <= MAX_TWOLEVEL_ITER_GROWTH,
        "two-level iteration growth {growth_two:.4} exceeds {MAX_TWOLEVEL_ITER_GROWTH}"
    );
    assert!(
        growth_one > growth_two,
        "one-level growth {growth_one:.4} must exceed two-level growth {growth_two:.4}"
    );

    let mut weak = vec![
        ("p_min".to_string(), first.p.into()),
        ("p_max".into(), last.p.into()),
    ];
    for pt in &points {
        weak.push((format!("iters_twolevel_p{}", pt.p), pt.iters_two.into()));
    }
    for pt in &points {
        weak.push((format!("iters_onelevel_p{}", pt.p), pt.iters_one.into()));
    }
    let censored = points.iter().any(|pt| pt.one_censored);
    weak.push(("onelevel_censored".into(), u64::from(censored).into()));
    weak.push(("twolevel_iter_growth".into(), decimals(growth_two, 4)));
    weak.push(("onelevel_iter_growth".into(), decimals(growth_one, 4)));
    for (m, v) in &speedup_at_pmax {
        weak.push((format!("modeled_speedup_{m}_p{}", last.p), decimals(*v, 4)));
    }
    print_section("twolevel_modeled", Json::obj([("weak", Json::Obj(weak))]));
    println!(
        "\ntwo-level iteration growth {growth_two:.4} (one-level {growth_one:.4}) over P={}..{}",
        first.p, last.p
    );
}

/// The modeled weak- and strong-scaling series and the two-level
/// convergence sweep; prints the `scaling_modeled` and `twolevel_modeled`
/// sections of `BENCH_PERF.json`, which the perf gate checks (graph must
/// never cut more than strips; overlap must never be modeled slower than
/// blocking; two-level iteration growth within its bound).
///
/// Weak: an 8x8 tile per rank on a (p/4) x 4 rank grid — a 2p x 32 mesh,
/// so strips exist at every P (p <= nx) while the 2-D layout keeps a real
/// edge-cut advantage. Strong: one fixed mesh with the same aspect
/// guarantees, spread thinner as P grows.
pub(super) fn scaling(run: &Run) {
    let topos = [
        MachineModel::cluster(),
        MachineModel::fat_tree(),
        MachineModel::torus3d(),
    ];
    let ps = run.size(&[64, 256][..], &[64, 256, 1024, 4096][..]);
    let strong_mesh = run.size((1024, 96), (4096, 384));
    let strong_mesh = QuadMesh::cantilever(strong_mesh.0, strong_mesh.1);
    let weak_mesh = |p: usize| QuadMesh::cantilever(2 * p, 32);
    let weak = run_series(run, "weak", ps, weak_mesh, true, &topos);
    let strong = run_series(run, "strong", ps, |_| strong_mesh.clone(), false, &topos);
    // Past the cap a one-level count is a lower bound, which only
    // understates how much faster one-level counts grow.
    let (twolevel_ps, onelevel_cap) = run.size(
        (&[64, 256, 1024][..], 400),
        (&[64, 256, 1024, 4096][..], 1200),
    );
    run_twolevel_series(run, twolevel_ps, onelevel_cap, &topos);

    let series = [("weak", weak), ("strong", strong)].map(|(name, s)| {
        let mut entry = vec![
            ("p_max".to_string(), s.p_max.into()),
            ("graph_cut_ratio_max".into(), decimals(s.cut_ratio_max, 4)),
            (
                "overlap_speedup_min".into(),
                decimals(s.overlap_speedup_min, 4),
            ),
        ];
        for (m, e) in &s.eff_at_pmax {
            entry.push((format!("efficiency_{m}_p{}", s.p_max), decimals(*e, 4)));
        }
        (name, Json::Obj(entry))
    });
    print_section("scaling_modeled", Json::obj(series));
    println!("\ngraph partitioner beat strips on edge cut at every point");
}

/// Iterations and modeled solve times of the production two-level
/// configuration on the heat2d and hex8 elasticity3d weak families at
/// large P; prints the `physics_modeled` section of `BENCH_PERF.json`,
/// whose iteration growth the perf gate bounds.
///
/// `twolevel:rbm.s5:gls-3` adapts its rigid-body mode count to the physics
/// (1 constant mode for scalar heat, 6 translations+rotations for 3-D
/// elasticity); its s5 smoothing (vs the elasticity2d sweep's s3) keeps
/// the hex8 series near-flat at P = 1024. Each family grows with P by one
/// square x-y tile per rank — heat a 3x3-element quad tile, hex a 2x2
/// tile two elements deep — and the machine model prices each iteration
/// with the physics' own interface payload (`8 × dofs-per-node` bytes per
/// shared node) and per-element flop count, plus the coarse level's
/// all-reduce, back-solve and extra operator pass.
pub(super) fn physics_scaling(run: &Run) {
    const SPEC: &str = "twolevel:rbm.s5:gls-3";
    const ITER_CAP: usize = 2000;
    banner("physics scaling (real solves, weak families, modeled times)");
    let ps = run.size(&[64, 256][..], &[64, 256, 1024][..]);
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
    let mut series = Vec::new();
    // (physics, name, tile side, z layers, dofs per node, flops per
    // element iteration): Q4 heat's 4x4 element matrix is a quarter of the
    // 8x8 elasticity block's flops, hex8's 24x24 block 9x.
    for (physics, name, tile, nz, dpn, flops) in [
        (Physics::Heat2d, "heat2d", 3, 1, 1, 300.0),
        (Physics::Elasticity3d, "elasticity3d", 2, 2, 3, 10800.0),
    ] {
        let cost = IterCostModel::for_physics(dpn, flops);
        let mut points: Vec<(usize, usize, f64)> = Vec::new();
        for &p in ps {
            let side = (p as f64).sqrt().round() as usize;
            assert_eq!(side * side, p, "physics sweep wants square rank grids");
            let grid = (tile * side, tile * side, nz);
            let prob =
                PhysicsProblem::cantilever(physics, grid, Material::unit(), LoadCase::PullX(1.0));
            let sys = prob.static_system();
            let (scaled, b, _) = scale_system(&sys.stiffness, &sys.rhs).expect("workload scales");
            let owners = tile_owners(grid.0 * grid.1 * nz, (grid.0, grid.1), side);
            let (basis, stats) = match &prob.mesh {
                WorkloadMesh::Quad(m) => {
                    let coords = m.coords();
                    let pos3 = |n: usize| [coords[n][0], coords[n][1], 0.0];
                    let basis = coarse_basis(SPEC, m, &pos3, &prob.dof_map, &owners, p, &scaled);
                    (basis, rank_stats(m, &owners, p, &cost))
                }
                WorkloadMesh::Hex(m) => {
                    let coords = m.coords();
                    let basis =
                        coarse_basis(SPEC, m, &|n| coords[n], &prob.dof_map, &owners, p, &scaled);
                    (basis, rank_stats(m, &owners, p, &cost))
                }
            };
            let n_modes = basis.info.n_modes;
            let coarse = Some(basis.solver(None));
            let (iters, converged) = solve_iters(&scaled, &b, coarse, SPEC, 1e-10, ITER_CAP);
            assert!(
                converged,
                "{name} P={p}: {SPEC} must converge within {ITER_CAP} iterations"
            );
            let (t_iter_base, _, _) = modeled_edd(&model, p, &stats, &cost);
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
                format!("{}", owners.len()),
                format!("{n_modes}"),
                format!("{iters}"),
                format!("{t_iter:.6e}"),
                format!("{modeled_time:.6e}"),
            ]);
            points.push((p, iters, modeled_time));
        }
        let growth = points[points.len() - 1].1 as f64 / points[0].1 as f64;
        assert!(
            growth <= MAX_PHYSICS_ITER_GROWTH,
            "{name}: iteration growth {growth:.4} exceeds {MAX_PHYSICS_ITER_GROWTH}"
        );
        series.push((name, points, growth));
    }
    table.emit(run, "physics_scaling");

    let summary = series.iter().map(|(name, points, growth)| {
        let (first, last) = (points[0], points[points.len() - 1]);
        let mut entry = vec![
            ("p_min".to_string(), first.0.into()),
            ("p_max".into(), last.0.into()),
        ];
        for &(p, iters, _) in points {
            entry.push((format!("iters_p{p}"), iters.into()));
        }
        for &(p, _, t) in points {
            entry.push((format!("modeled_time_p{p}"), significant(t)));
        }
        entry.push(("iter_growth".into(), decimals(*growth, 4)));
        (*name, Json::Obj(entry))
    });
    print_section("physics_modeled", Json::obj(summary));
    println!(
        "\niteration growth over P={}..{}: heat2d {:.4}, elasticity3d {:.4}",
        ps[0],
        ps[ps.len() - 1],
        series[0].2,
        series[1].2
    );
}
