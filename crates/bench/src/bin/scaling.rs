//! Scaling laboratory: modeled weak- and strong-scaling curves at large P.
//!
//! The paper evaluates P ≤ 8 on mid-90s hosts; this lab asks what the same
//! EDD/RDD algorithms cost at P = 64..4096 on modern topologies (two-level
//! cluster, fat tree, 3-D torus), using the analytic machine model rather
//! than real threads:
//!
//! - **weak scaling** — a fixed 8x8-element tile per rank (the mesh grows
//!   with P), so the curve isolates the parallel overheads: the O(log P)
//!   all-reduce, interface exchange, and link contention;
//! - **strong scaling** — one fixed mesh spread ever thinner, so the curve
//!   shows where per-rank compute stops hiding those overheads.
//!
//! Each point partitions the mesh twice — structured strips (the paper's
//! layout) and the multilevel graph partitioner — and records edge cut,
//! imbalance, and the worst link-sharing factor alongside the modeled
//! per-iteration times for blocking EDD, RDD, and overlapped EDD. The
//! summary feeds the `scaling_modeled` series of `BENCH_PERF.json`, which
//! the perf gate checks (graph must never cut more than strips; overlap
//! must never be modeled slower than blocking).
//!
//! A third series asks the paper's *convergence* question at the same
//! scale: the `twolevel` sweep runs real (sequential) FGMRES solves on a
//! weak-scaling cantilever family (one 3x3-element square aggregate per
//! rank, mesh growing with P) and records the iteration count of the
//! two-level preconditioner against its one-level smoother as P grows.
//! The configuration is the one that actually flattens elasticity counts:
//! `twolevel:rbm.s3:gls-3` — three rigid-body modes per aggregate run
//! through three prolongator-smoothing passes (plain aggregation modes
//! keep elasticity counts creeping up with P; the smoothed-aggregation
//! prolongator is what stops the creep). Solves run to 1e-12 so the
//! recorded counts reflect the asymptotic convergence rate rather than the
//! initial outlier-elimination transient. One-level runs are capped; a
//! point that hits the cap is reported as a censored lower bound (only the
//! first point must converge, since it anchors the growth ratio). The
//! `twolevel_modeled` section of `BENCH_PERF.json` records both growth
//! ratios and the perf gate enforces them. Modeled per-machine times add
//! the coarse level's extra all-reduce, replicated back-solve, and
//! (multiplicative composition) one extra operator application.
//!
//! `PARFEM_QUICK=1` shrinks both sweeps to CI smoke size.

use parfem::perfgate::MAX_TWOLEVEL_ITER_GROWTH;
use parfem::prelude::*;
use parfem_bench::harness::{banner, decimals, print_section, quick, Table};
use parfem_bench::modeling::{modeled_edd, rank_stats, IterCostModel};
use parfem_krylov::gmres::fgmres;
use parfem_mesh::numbering::DOFS_PER_NODE;
use parfem_mesh::DofMap;
use parfem_precond::twolevel::{build_coarse_basis, CoarseSolver};
use parfem_precond::CoarsePartGeometry;
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_sparse::scaling;
use parfem_trace::json::Json;

/// The paper's 2-D elasticity FGMRES + gls(7) iteration cost model.
fn cost() -> IterCostModel {
    IterCostModel::paper_gls7()
}

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
fn run_series(
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
        let cost = cost();
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
    table.emit(&format!("scaling_{name}"));

    assert!(
        overlap_speedup_min >= 1.0 - 1e-12,
        "{name}: overlap modeled slower than blocking ({overlap_speedup_min})"
    );
    let mut eff_at_pmax = Vec::new();
    for (ti, model) in topos.iter().enumerate() {
        let effs = &eff_curves[ti];
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

/// The two-level spec the convergence sweep runs, and the one-level
/// smoother it is compared against.
const TWOLEVEL_SPEC: &str = "twolevel:rbm.s3:gls-3";
const ONELEVEL_SPEC: &str = "gls:3";
/// Per-mode flops of the replicated coarse back-solve (forward +
/// backward sweep over a narrow strip-coupled band).
const COARSE_SOLVE_FLOPS_PER_MODE: f64 = 50.0;

/// One solved point of the two-level convergence sweep.
struct TwoLevelPoint {
    p: usize,
    iters_two: usize,
    iters_one: usize,
    /// One-level hit the iteration cap without converging; `iters_one` is
    /// then a lower bound, which only understates its growth.
    one_censored: bool,
}

struct TwoLevelSummary {
    p_min: usize,
    p_max: usize,
    points: Vec<TwoLevelPoint>,
    growth_two: f64,
    growth_one: f64,
    one_censored_any: bool,
    /// `(machine, modeled one-level/two-level solve-time ratio at p_max)`.
    speedup_at_pmax: Vec<(&'static str, f64)>,
}

/// Per-part coarse geometry of an element partition: every dof of every
/// node a part's elements touch, with the global multiplicity (how many
/// parts share each dof) for the partition-of-unity weights.
fn coarse_parts(
    mesh: &QuadMesh,
    dm: &DofMap,
    owner: &[usize],
    p: usize,
) -> (Vec<CoarsePartGeometry>, Vec<f64>) {
    let coords = mesh.coords();
    // Disjoint node aggregation: a node shared by several tiles goes to
    // the lowest-indexed element touching it, so every dof sits in
    // exactly one aggregate and the coarse modes are true indicator
    // functions rather than partition-of-unity ramps.
    let n_nodes = coords.len();
    let mut node_owner = vec![usize::MAX; n_nodes];
    for (e, &own) in owner.iter().enumerate() {
        for n in mesh.elem_nodes(e) {
            if node_owner[n] == usize::MAX {
                node_owner[n] = own;
            }
        }
    }
    let mut nodes_of: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); p];
    for (n, &own) in node_owner.iter().enumerate() {
        nodes_of[own].insert(n);
    }
    let mut mult = vec![0.0f64; dm.n_dofs()];
    let parts = nodes_of
        .iter()
        .map(|nodes| {
            let mut geo = CoarsePartGeometry::default();
            for &n in nodes {
                for c in 0..DOFS_PER_NODE {
                    let g = n * DOFS_PER_NODE + c;
                    geo.dofs.push(g);
                    geo.pos.push([coords[n][0], coords[n][1], 0.0]);
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

/// Element owners of a `px × py` checkerboard tiling of a structured
/// mesh — square tiles, so coarse aggregates keep a bounded diameter in
/// both directions as the weak family grows.
fn tile_owners(mesh: &QuadMesh, px: usize, py: usize) -> Vec<usize> {
    let (tx, ty) = (mesh.nx() / px, mesh.ny() / py);
    (0..mesh.n_elems())
        .map(|e| {
            let (i, j) = (e % mesh.nx(), e / mesh.nx());
            (j / ty) * px + i / tx
        })
        .collect()
}

/// One sequential FGMRES solve of the scaled system under `spec_str`,
/// capped at `cap` iterations: `(iterations, converged)`.
fn solve_iters(
    scaled: &CsrMatrix,
    b: &[f64],
    coarse: Option<CoarseSolver>,
    spec_str: &str,
    cap: usize,
) -> (usize, bool) {
    let cfg = GmresConfig {
        restart: 100,
        max_iters: cap,
        tol: 1e-12,
        ..Default::default()
    };
    let x0 = vec![0.0; b.len()];
    let spec = PrecondSpec::parse(spec_str).expect("bench spec parses");
    let pc = spec
        .instantiate(coarse, Some(scaled), || scaled.diagonal())
        .expect("polynomial smoother");
    let res = fgmres(scaled, &pc, b, &x0, &cfg);
    (res.history.iterations(), res.history.converged())
}

/// Runs the two-level convergence sweep over the weak-scaling cantilever
/// family and models the per-machine solve times.
fn run_twolevel_series(
    ps: &[usize],
    onelevel_cap: usize,
    topos: &[MachineModel],
) -> TwoLevelSummary {
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
        let prob =
            CantileverProblem::new(3 * side, 3 * side, Material::unit(), LoadCase::PullX(1.0));
        let sys = prob.static_system();
        let (scaled, b, _sc) =
            scaling::scale_system(&sys.stiffness, &sys.rhs).expect("SPD cantilever scales");
        let d: Vec<f64> = scaled.diagonal();
        let owners = tile_owners(&prob.mesh, side, side);
        let (parts, mult) = coarse_parts(&prob.mesh, &prob.dof_map, &owners, p);
        let coarse_spec = match PrecondSpec::parse(TWOLEVEL_SPEC).expect("bench spec parses") {
            PrecondSpec::TwoLevel { coarse, .. } => coarse,
            _ => unreachable!("TWOLEVEL_SPEC is a twolevel spec"),
        };
        let basis = build_coarse_basis(&coarse_spec, &parts, &mult, &d, &scaled, DEFAULT_PIVOT_TOL);
        let n_modes = basis.info.n_modes;
        let (iters_two, conv_two) = solve_iters(
            &scaled,
            &b,
            Some(basis.solver(None)),
            TWOLEVEL_SPEC,
            onelevel_cap,
        );
        assert!(
            conv_two,
            "twolevel P={p}: {TWOLEVEL_SPEC} must converge within {onelevel_cap} iterations"
        );
        let (iters_one, conv_one) = solve_iters(&scaled, &b, None, ONELEVEL_SPEC, onelevel_cap);

        // Modeled per-iteration times on the strip partition. The
        // two-level apply adds: one n_modes-double all-reduce for the
        // coarse residual moments, the replicated coarse back-solve, and
        // (multiplicative composition) one extra operator application.
        let cost = cost();
        let stats = rank_stats(&prob.mesh, &owners, p, &cost);
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
    table.emit("scaling_twolevel");

    let first = points.first().unwrap();
    let last = points.last().unwrap();
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
    TwoLevelSummary {
        p_min: first.p,
        p_max: last.p,
        one_censored_any: points.iter().any(|pt| pt.one_censored),
        points,
        growth_two,
        growth_one,
        speedup_at_pmax,
    }
}

fn emit_twolevel_summary(s: &TwoLevelSummary) {
    let mut weak = vec![
        ("p_min".to_string(), s.p_min.into()),
        ("p_max".into(), s.p_max.into()),
    ];
    for pt in &s.points {
        weak.push((format!("iters_twolevel_p{}", pt.p), pt.iters_two.into()));
    }
    for pt in &s.points {
        weak.push((format!("iters_onelevel_p{}", pt.p), pt.iters_one.into()));
    }
    weak.push((
        "onelevel_censored".into(),
        u64::from(s.one_censored_any).into(),
    ));
    weak.push(("twolevel_iter_growth".into(), decimals(s.growth_two, 4)));
    weak.push(("onelevel_iter_growth".into(), decimals(s.growth_one, 4)));
    for (m, v) in &s.speedup_at_pmax {
        weak.push((format!("modeled_speedup_{m}_p{}", s.p_max), decimals(*v, 4)));
    }
    print_section("twolevel_modeled", Json::obj([("weak", Json::Obj(weak))]));
}

fn emit_summary(series: &[(&str, SeriesSummary)]) {
    let series = series.iter().map(|(name, s)| {
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
        (*name, Json::Obj(entry))
    });
    print_section("scaling_modeled", Json::obj(series));
}

fn main() {
    let topos = [
        MachineModel::cluster(),
        MachineModel::fat_tree(),
        MachineModel::torus3d(),
    ];
    // Weak: an 8x8 tile per rank on a (p/4) x 4 rank grid -> a 2p x 32
    // mesh, so strips exist at every P (p <= nx) while the 2-D layout
    // keeps a real edge-cut advantage.
    // Strong: one fixed mesh with the same aspect guarantees, spread
    // thinner as P grows.
    let (weak_ps, strong_ps, strong_mesh): (&[usize], &[usize], _) = if quick() {
        (&[64, 256], &[64, 256], QuadMesh::cantilever(1024, 96))
    } else {
        (
            &[64, 256, 1024, 4096],
            &[64, 256, 1024, 4096],
            QuadMesh::cantilever(4096, 384),
        )
    };
    // The convergence sweep runs real solves, so the one-level runs are
    // capped: past the cap the count is reported as a lower bound, which
    // only understates how much faster one-level iteration counts grow.
    let (twolevel_ps, onelevel_cap): (&[usize], usize) = if quick() {
        (&[64, 256, 1024], 400)
    } else {
        (&[64, 256, 1024, 4096], 1200)
    };
    let weak = run_series(
        "weak",
        weak_ps,
        |p| QuadMesh::cantilever(2 * p, 32),
        true,
        &topos,
    );
    let strong = run_series(
        "strong",
        strong_ps,
        move |_| strong_mesh.clone(),
        false,
        &topos,
    );
    let twolevel = run_twolevel_series(twolevel_ps, onelevel_cap, &topos);
    emit_summary(&[("weak", weak), ("strong", strong)]);
    emit_twolevel_summary(&twolevel);
    println!("\ngraph partitioner beat strips on edge cut at every point");
    println!(
        "two-level iteration growth {:.4} (one-level {:.4}) over P={}..{}",
        twolevel.growth_two, twolevel.growth_one, twolevel.p_min, twolevel.p_max
    );
}
