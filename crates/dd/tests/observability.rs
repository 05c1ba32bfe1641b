//! End-to-end contracts for the observability stack: the critical-path
//! analyzer, the chrome exporter and the trace report, all driven by real
//! [`SolveSession`] runs.
//!
//! The load-bearing assertion (the PR's acceptance criterion) is
//! [`critical_path_length_equals_makespan_on_p8_overlapped_solve`]: on a
//! recorded 8-rank overlapped solve, the reconstructed cross-rank
//! dependency chain must tile `[0, makespan]` exactly — every instant of
//! the modeled parallel time is attributed to compute, a message in
//! flight, or a collective on some rank.

use parfem_dd::{
    DdSolveOutput, FactorStats, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy,
};
use parfem_fem::{assembly, quad4, Material};
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{DofMap, Edge, ElementPartition, NodePartition, PartitionerSpec, QuadMesh};
use parfem_msg::{CommStats, FaultPlan, MachineModel};
use parfem_trace::{
    export_chrome_trace, json, jsonl, CritPath, EventKind, SegmentKind, TraceEvent, TraceReport,
    TraceSink,
};
use std::time::Duration;

fn problem(nx: usize, ny: usize) -> (QuadMesh, DofMap, Material, Vec<f64>) {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    (mesh, dm, mat, loads)
}

/// The flops rank `rank` charges for assembling its share of a quad4
/// elasticity problem: its elements (EDD: its subdomain's, RDD: those with a
/// node it owns) times the kernel's count plus one add per scattered entry.
fn charged_assembly_flops(mesh: &QuadMesh, strategy: &Strategy, rank: usize) -> u64 {
    let elems = match strategy {
        Strategy::Edd(part) => part.subdomains(mesh)[rank].elements.len(),
        Strategy::Rdd(part) => (0..mesh.n_elems())
            .filter(|&e| mesh.elem_nodes(e).iter().any(|&n| part.owner(n) == rank))
            .count(),
    };
    elems as u64 * (quad4::STIFFNESS_FLOPS + 8 * 8)
}

/// Asserts that a rank's `assembly` span is `flops` wide on `model`'s clock.
fn assert_assembly_width(virt_s: f64, flops: u64, model: &MachineModel, what: &str) {
    let want = model.compute_time(flops);
    assert!(
        flops > 0 && (virt_s - want).abs() <= 1e-12 * want,
        "{what}: assembly span {virt_s} s, {flops} flops charged are {want} s"
    );
}

fn cfg() -> SolverConfig {
    SolverConfig {
        gmres: GmresConfig {
            tol: 1e-8,
            ..Default::default()
        },
        comm_timeout: Duration::from_secs(10),
        ..Default::default()
    }
}

/// The traced P = 8 overlapped EDD solve on the virtual IBM SP2 that the
/// critical-path and exporter contracts below read.
fn p8_overlapped_solve() -> (DdSolveOutput, Vec<TraceEvent>) {
    let (mesh, dm, mat, loads) = problem(48, 12);
    let part = ElementPartition::strips_x(&mesh, 8);
    let sink = TraceSink::recording();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .machine(MachineModel::ibm_sp2())
        .overlap(true)
        .trace(&sink)
        .run()
        .expect("fault-free solve");
    assert!(out.history.converged());
    (out, sink.take_events())
}

/// Acceptance: on a P=8 overlapped solve on the virtual IBM SP2, the
/// critical path's virtual-time length equals the observed makespan, and
/// its segments tile `[0, makespan]` without gaps or overlaps.
#[test]
fn critical_path_length_equals_makespan_on_p8_overlapped_solve() {
    let (out, events) = p8_overlapped_solve();
    let cp = CritPath::from_events(&events);

    assert_eq!(cp.nranks, 8);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
    assert!(
        rel(cp.makespan, out.modeled_time) <= 1e-12,
        "critpath makespan {} vs observed modeled time {}",
        cp.makespan,
        out.modeled_time
    );
    assert!(
        rel(cp.path_length(), cp.makespan) <= 1e-9,
        "path length {} must equal makespan {}",
        cp.path_length(),
        cp.makespan
    );

    // The segments tile [0, makespan]: start at 0, contiguous, end at the
    // makespan, each with non-negative extent.
    assert!(!cp.segments.is_empty());
    assert!(cp.segments[0].t0.abs() <= 1e-15 * cp.makespan.max(1.0));
    for w in cp.segments.windows(2) {
        assert!(
            (w[0].t1 - w[1].t0).abs() <= 1e-12 * cp.makespan,
            "gap between path segments: {} .. {}",
            w[0].t1,
            w[1].t0
        );
    }
    for s in &cp.segments {
        assert!(s.t1 >= s.t0 - 1e-15, "negative-extent segment");
        assert!(s.rank < 8);
    }
    let last = cp.segments.last().unwrap();
    assert!(rel(last.t1, cp.makespan) <= 1e-12);

    // An 8-rank GMRES run synchronizes on all-reduces every iteration: the
    // path must contain collective hops, and the bounding rank is real.
    assert!(
        cp.segments
            .iter()
            .any(|s| matches!(s.kind, SegmentKind::Collective)),
        "an FGMRES critical path without collectives is wrong"
    );
    assert!(cp.bound_rank < 8);
    assert!(cp.efficiency > 0.0 && cp.efficiency <= 1.0 + 1e-12);

    // Per-rank wait decomposition: busy + waits + idle tail == final virt.
    for r in &cp.ranks {
        let sum = r.busy + r.recv_wait + r.collective_wait + r.collective_cost + r.idle_tail;
        assert!(
            rel(sum, cp.makespan) <= 1e-9,
            "rank {} decomposition {} vs makespan {}",
            r.rank,
            sum,
            cp.makespan
        );
    }

    // The JSON export is valid JSON with the pinned schema.
    let doc = json::parse(&cp.to_json()).expect("critpath JSON parses");
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("parfem-critpath-v1")
    );

    // And the chrome export of the same trace is valid trace_event JSON.
    let chrome = json::parse(&export_chrome_trace(&events)).expect("chrome JSON parses");
    let n = chrome
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .expect("traceEvents array")
        .len();
    assert!(n > events.len(), "metadata records plus one per event");
}

/// FNV-1a over a parsed JSON tree: numbers by their `f64` bits, strings by
/// their bytes, arrays and objects by length and members in order. Two
/// documents that parse to the same tree share a digest whatever their
/// whitespace or number spelling.
fn tree_digest(v: &json::Json, h: &mut u64) {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    if let Some(x) = v.as_f64() {
        eat(h, b"n");
        eat(h, &x.to_bits().to_le_bytes());
    } else if let Some(s) = v.as_str() {
        eat(h, b"s");
        eat(h, &s.len().to_le_bytes());
        eat(h, s.as_bytes());
    } else if let Some(items) = v.as_array() {
        eat(h, b"a");
        eat(h, &items.len().to_le_bytes());
        items.iter().for_each(|item| tree_digest(item, h));
    } else if let Some(members) = v.as_object() {
        eat(h, b"o");
        eat(h, &members.len().to_le_bytes());
        for (k, m) in members {
            eat(h, &k.len().to_le_bytes());
            eat(h, k.as_bytes());
            tree_digest(m, h);
        }
    } else {
        eat(h, format!("{v:?}").as_bytes());
    }
}

fn digest_of(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    tree_digest(&json::parse(text).expect("exported JSON parses"), &mut h);
    h
}

/// The JSON exports of the P = 8 session keep the trees they had before
/// they were written through the shared codec: the critical path as is, the
/// chrome export over the deterministic part of the trace (rank events in
/// rank order, wall clocks zeroed, wall-clock counters dropped). Their bytes
/// may change; these digests may not.
#[test]
fn exported_json_trees_stay_pinned() {
    let (_, events) = p8_overlapped_solve();
    let cp = CritPath::from_events(&events);
    let mut det: Vec<TraceEvent> = events
        .into_iter()
        .filter(|e| {
            e.rank.is_some()
                && !(e.kind == EventKind::Counter
                    && (e.name.starts_with("comm_wait_") || e.name == "rank_cpu"))
        })
        .map(|e| TraceEvent { t_wall: 0.0, ..e })
        .collect();
    det.sort_by_key(|e| e.rank);
    assert_eq!(digest_of(&cp.to_json()), 0x04f8_40fb_38cb_1652);
    assert_eq!(digest_of(&export_chrome_trace(&det)), 0xa5a9_3217_3c6c_6754);
}

/// Trace-consistency under the full option stack: a traced + overlapped +
/// faulted session's aggregated comm totals equal the communicator's own
/// [`CommStats`], and each rank's top-level phase totals sum to its final
/// virtual clock (whose max is the makespan).
#[test]
fn trace_report_matches_comm_stats_under_faults_and_overlap() {
    let (mesh, dm, mat, loads) = problem(20, 6);
    let strategy = Strategy::Edd(ElementPartition::strips_x(&mesh, 4));
    let sink = TraceSink::recording();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(strategy.clone())
        .config(cfg())
        .machine(MachineModel::ibm_sp2())
        .overlap(true)
        .faults(
            FaultPlan::new(7)
                .with_drops(0.15)
                .with_duplicates(0.1)
                .with_retry_policy(30, 1e-3, 2.0),
        )
        .trace(&sink)
        .run()
        .expect("recoverable faults must not fail the solve");
    assert!(out.history.converged());
    let events = sink.take_events();
    let report = TraceReport::from_events(&events);

    // Comm totals: the trace events and the CommStats counters are two
    // independent records of the same physical traffic.
    let mut stats = CommStats::default();
    for r in &out.reports {
        stats = stats.merged(&r.stats);
    }
    let totals = report.comm_totals();
    assert_eq!(totals.sends, stats.sends, "sends");
    assert_eq!(totals.bytes_sent, stats.bytes_sent, "bytes sent");
    assert_eq!(totals.recvs, stats.recvs, "recvs");
    assert_eq!(totals.bytes_received, stats.bytes_received, "bytes recvd");
    assert_eq!(totals.allreduces, stats.allreduces, "allreduces");
    assert_eq!(totals.barriers, stats.barriers, "barriers");
    assert_eq!(
        totals.neighbor_exchanges, stats.neighbor_exchanges,
        "exchanges"
    );

    // Phase coverage: assembly (as wide as its charged flops) + scaling +
    // precond-build + fgmres tile each rank's virtual timeline, so their
    // virtual durations sum to its final clock.
    assert_eq!(report.nranks(), 4);
    for r in &report.ranks {
        let assembly = r.phases.first().expect("rank spans");
        assert_eq!(assembly.name, "assembly", "rank {}", r.rank);
        assert!(assembly.wall_s > 0.0);
        let flops = charged_assembly_flops(&mesh, &strategy, r.rank);
        let what = format!("rank {}", r.rank);
        assert_assembly_width(assembly.virt_s, flops, &MachineModel::ibm_sp2(), &what);
        let phase_sum: f64 = r
            .phases
            .iter()
            .filter(|p| {
                ["assembly", "scaling", "precond-build", "fgmres"].contains(&p.name.as_str())
            })
            .map(|p| p.virt_s)
            .sum();
        assert!(
            (phase_sum - r.final_virt).abs() <= 1e-9 * r.final_virt.max(1e-300),
            "rank {}: phases sum to {} but final virt is {}",
            r.rank,
            phase_sum,
            r.final_virt
        );
    }
    let max_virt = report.ranks.iter().fold(0.0f64, |m, r| m.max(r.final_virt));
    assert!((report.makespan_virt() - max_virt).abs() <= 1e-15 * max_virt.max(1.0));

    // The critical path reconstructs even under retransmission noise.
    let cp = CritPath::from_events(&events);
    assert!(
        (cp.path_length() - cp.makespan).abs() <= 1e-9 * cp.makespan,
        "faulted path length {} vs makespan {}",
        cp.path_length(),
        cp.makespan
    );
}

/// Every deflated restart leaves one `deflated_restart` instant on each
/// rank, carrying the number `k` of carried vectors and the harmonic Ritz
/// values it deflated (`theta{i}_re`, `theta{i}_im`); on a restarting P = 2
/// solve the count per rank equals `history.restarts`, and the Gram
/// reduction of each restart is in both the trace and [`CommStats`].
#[test]
fn deflated_restarts_are_traced_with_their_harmonic_ritz_values() {
    let (mesh, dm, mat, loads) = problem(24, 6);
    let sink = TraceSink::recording();
    let mut config = cfg();
    config.gmres.restart = 8;
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(ElementPartition::strips_x(&mesh, 2)))
        .config(config)
        .precond(PrecondSpec::Gls {
            degree: 3,
            theta: None,
        })
        .trace(&sink)
        .run()
        .unwrap();
    assert!(out.history.converged());
    let restarts = out.history.restarts;
    assert!(restarts >= 2, "the solve must restart: {restarts}");
    let events = sink.take_events();
    for rank in 0..2 {
        let deflations: Vec<_> = events
            .iter()
            .filter(|e| {
                e.rank == Some(rank) && e.kind == EventKind::Instant && e.name == "deflated_restart"
            })
            .collect();
        assert_eq!(deflations.len(), restarts, "rank {rank}");
        for e in deflations {
            let k = e.u64("k").expect("k") as usize;
            assert!(
                (1..=3).contains(&k),
                "k = 8/4 = 2, or 3 with a whole pair: {k}"
            );
            for i in 0..k {
                assert!(e.f64(&format!("theta{i}_re")).is_some(), "theta{i}_re");
                assert!(e.f64(&format!("theta{i}_im")).is_some(), "theta{i}_im");
            }
        }
    }
    let mut stats = CommStats::default();
    for r in &out.reports {
        stats = stats.merged(&r.stats);
    }
    assert_eq!(
        TraceReport::from_events(&events).comm_totals().allreduces,
        stats.allreduces
    );
}

/// Recycling explains itself: on a P = 2 four-right-hand-side run whose
/// first solve restarts, every later right-hand side emits exactly one
/// `recycled_start` instant on each rank, carrying the space's dimension
/// `k` and the share `captured = ‖Cᵀr₀‖/‖r₀‖` of its initial residual; the
/// report renders them next to the first solve's deflated restarts, and the
/// trace's all-reduce totals still equal [`CommStats`].
#[test]
fn recycled_starts_are_traced_once_per_later_right_hand_side() {
    let (mesh, dm, mat, loads) = problem(24, 6);
    let mut pull = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, 0.0, &mut pull);
    let mixed: Vec<f64> = loads.iter().zip(&pull).map(|(a, b)| a - 2.0 * b).collect();
    let rhs = [
        loads.clone(),
        pull.clone(),
        mixed,
        loads.iter().map(|v| -v).collect(),
    ];
    let sink = TraceSink::recording();
    let mut config = cfg();
    config.gmres.restart = 8;
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(NodePartition::strips_x(&mesh, 2)))
        .config(config)
        .precond(PrecondSpec::Gls {
            degree: 3,
            theta: None,
        })
        .trace(&sink)
        .run_multi(&rhs)
        .unwrap();
    assert!(out.all_converged());
    assert!(
        out.histories[0].restarts >= 2,
        "the first solve must restart"
    );
    let events = sink.take_events();
    for rank in 0..2 {
        let starts: Vec<_> = events
            .iter()
            .filter(|e| {
                e.rank == Some(rank) && e.kind == EventKind::Instant && e.name == "recycled_start"
            })
            .collect();
        assert_eq!(starts.len(), rhs.len() - 1, "rank {rank}");
        for e in starts {
            let k = e.u64("k").expect("k");
            assert!(
                (1..=3).contains(&k),
                "k = 8/4 = 2, or 3 with a whole pair: {k}"
            );
            let captured = e.f64("captured").expect("captured");
            assert!(
                captured > 0.0 && captured <= 1.0,
                "captured share {captured}"
            );
        }
    }
    let report = TraceReport::from_events(&events);
    let text = parfem_trace::render_convergence(&report);
    assert!(text.contains("deflated restarts: "), "{text}");
    assert!(
        text.contains("recycled starts: 3 from a space of k = "),
        "{text}"
    );
    let mut stats = CommStats::default();
    for r in &out.reports {
        stats = stats.merged(&r.stats);
    }
    assert_eq!(report.comm_totals().allreduces, stats.allreduces);
}

/// The rank-side coarse build explains itself and is paid for: a two-level
/// solve carries the per-rank build record, its exchanges and reductions
/// show up in both the trace and [`CommStats`] (which still agree), the
/// rank spans still tile each rank's timeline with the nested
/// `coarse-build` span inside `precond-build`, and the modeled time
/// strictly exceeds what it would be with the setup charges masked out.
#[test]
fn twolevel_setup_is_charged_traced_and_summarized() {
    let (mesh, dm, mat, loads) = problem(24, 6);
    let passes = 3u64;
    let spec = PrecondSpec::parse("twolevel:rbm.s3:gls-3").unwrap();
    let strategies = [
        (
            "edd",
            Strategy::Edd(PartitionerSpec::Graph.element_partition(&mesh, 4)),
        ),
        ("rdd", Strategy::Rdd(NodePartition::strips_x(&mesh, 4))),
    ];
    for (name, strategy) in strategies {
        let sink = TraceSink::recording();
        let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .strategy(strategy.clone())
            .config(cfg())
            .precond(spec.clone())
            .machine(MachineModel::ibm_sp2())
            .trace(&sink)
            .run()
            .expect("fault-free two-level solve");
        assert!(out.history.converged(), "{name}");
        let events = sink.take_events();
        let report = TraceReport::from_events(&events);

        // The per-rank record: sizes every rank agrees on, constants of
        // the smoothing, and exactly the collective rounds the build
        // performs — publish + diagonal + one per pass under EDD, one
        // gather per pass + one before the Galerkin product under RDD; 12
        // power-iteration reductions + the coarse operator.
        assert_eq!(out.coarse.len(), 4, "{name}");
        for c in &out.coarse {
            assert_eq!(c.info.n_modes, 12, "{name}");
            assert_eq!(c.info.nnz, out.coarse[0].info.nnz, "{name}");
            assert!(c.info.live_modes >= 3 && c.info.live_modes <= 12, "{name}");
            assert!(c.info.lambda_hat > 1.0 && c.info.lambda_hat < 4.0, "{name}");
            assert_eq!(c.info.omega, 4.0 / (3.0 * c.info.lambda_hat), "{name}");
            assert_eq!(c.info.lambda_hat, out.coarse[0].info.lambda_hat, "{name}");
            let rounds = if name == "edd" {
                passes + 2
            } else {
                passes + 1
            };
            // + the 12 interface exchanges inside the EDD/RDD matvecs of
            // the power iteration.
            assert_eq!(c.exchanges, rounds + 12, "{name}");
            assert_eq!(c.allreduces, 13, "{name}");
            assert!(
                c.flops > 0 && c.bytes_sent > 0 && c.virtual_s > 0.0,
                "{name}"
            );
        }

        // Trace and CommStats still agree, new exchanges included.
        let mut stats = CommStats::default();
        for r in &out.reports {
            stats = stats.merged(&r.stats);
        }
        let totals = report.comm_totals();
        assert_eq!(totals.sends, stats.sends, "{name}: sends");
        assert_eq!(totals.bytes_sent, stats.bytes_sent, "{name}: bytes sent");
        assert_eq!(totals.recvs, stats.recvs, "{name}: recvs");
        assert_eq!(totals.allreduces, stats.allreduces, "{name}: allreduces");
        assert_eq!(
            totals.neighbor_exchanges, stats.neighbor_exchanges,
            "{name}: exchanges"
        );

        // Rank spans tile the rank's timeline; `coarse-build` nests inside
        // `precond-build` and accounts for the record's modeled seconds.
        let mut masked = 0.0f64;
        for (r, c) in report.ranks.iter().zip(&out.coarse) {
            let virt = |phase: &str| {
                r.phases
                    .iter()
                    .filter(|p| p.name == phase)
                    .map(|p| p.virt_s)
                    .sum::<f64>()
            };
            // Both strategies assemble on the ranks, and pay for it.
            let flops = charged_assembly_flops(&mesh, &strategy, r.rank);
            let what = format!("{name} rank {}", r.rank);
            assert_assembly_width(virt("assembly"), flops, &MachineModel::ibm_sp2(), &what);
            let top = virt("assembly") + virt("scaling") + virt("precond-build") + virt("fgmres");
            assert!(
                (top - r.final_virt).abs() <= 1e-9 * r.final_virt,
                "{name} rank {}: spans sum to {top} but the rank ends at {}",
                r.rank,
                r.final_virt
            );
            let coarse = virt("coarse-build");
            assert!(coarse > 0.0 && coarse <= virt("precond-build"), "{name}");
            assert!((coarse - c.virtual_s).abs() <= 1e-12 * coarse, "{name}");
            masked = masked.max(r.final_virt - coarse);
            let counter = |k: &str| r.counters.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
            assert_eq!(counter("coarse_modes"), Some(12), "{name}");
            assert_eq!(
                counter("coarse_live_modes"),
                Some(c.info.live_modes as u64),
                "{name}"
            );
            assert_eq!(counter("coarse_nnz"), Some(c.info.nnz as u64), "{name}");
            assert_eq!(counter("coarse_skipped_pivots"), Some(0), "{name}");
        }
        assert!(
            out.modeled_time > masked,
            "{name}: modeled time {} must exceed the setup-masked {masked}",
            out.modeled_time
        );

        // The host summary carries the run-wide record.
        let summary = report
            .solve
            .expect("solve_summary")
            .coarse
            .expect("coarse record");
        assert_eq!(summary.modes, 12, "{name}");
        assert_eq!(summary.allreduces, 13, "{name}");
        assert_eq!(
            summary.flops,
            out.coarse.iter().map(|c| c.flops).sum::<u64>(),
            "{name}"
        );
        assert_eq!(
            summary.live_modes,
            out.coarse.iter().map(|c| c.info.live_modes).max().unwrap() as u64,
            "{name}"
        );
        let text = parfem_trace::render_convergence(&TraceReport::from_events(&events));
        assert!(text.contains("coarse space: 12 modes"), "{name}: {text}");
    }

    // A one-level solve carries none of it.
    let one = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(ElementPartition::strips_x(&mesh, 4)))
        .config(cfg())
        .run()
        .unwrap();
    assert!(one.coarse.is_empty());

    // A `direct` solve carries the `factor_*` record of its subdomain
    // factorizations instead: the largest rank's sizes, skips summed.
    let sink = TraceSink::recording();
    let direct = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(NodePartition::strips_x(&mesh, 4)))
        .config(cfg())
        .precond(PrecondSpec::Direct)
        .trace(&sink)
        .run()
        .unwrap();
    let report = TraceReport::from_events(&sink.take_events());
    let summary = report.solve.as_ref().expect("solve_summary");
    assert!(summary.coarse.is_none());
    let factor = summary.factor.as_ref().expect("factor record");
    let want = FactorStats::over_ranks(&direct.factor).expect("four rank records");
    assert_eq!(
        (factor.nnz_l, factor.fill, factor.flops, factor.bytes),
        (want.nnz_l, want.fill, want.flops, want.bytes)
    );
    assert_eq!(factor.skipped, 0);
    assert_eq!(
        (factor.solve_flops, factor.supernodes, factor.max_front),
        (want.solve_flops, want.supernodes, want.max_front)
    );
    assert_eq!(factor.separator, want.separator);
    // The two dofs of a mesh node share one pattern, so every rank's
    // largest panel is at least a node wide and deep.
    for f in &direct.factor {
        assert!(f.supernodes > 0 && f.max_front >= 4, "{f:?}");
    }
    let text = parfem_trace::render_convergence(&report);
    assert!(text.contains("subdomain factor: nnz(L) = "), "{text}");
    let fronts = format!(
        "{} supernodes, largest front {} entries, root separator {} rows",
        want.supernodes, want.max_front, want.separator
    );
    assert!(text.contains(&fronts), "{text}");
}

/// `run_multi` explains itself exactly as `run` does: one `solve_summary`
/// per run with the totals over its right-hand sides, the coarse record on
/// the output and the summary, rank counters and traffic that agree with
/// the live [`CommStats`], and on every rank — either strategy — the spans
/// `assembly → scaling → precond-build → fgmres × k` tiling the timeline,
/// the first as wide as the assembly flops it charges.
#[test]
fn run_multi_is_summarized_and_its_rank_spans_tile_the_timeline() {
    let (mesh, dm, mat, loads) = problem(24, 6);
    let mut pull = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, 0.0, &mut pull);
    let mixed: Vec<f64> = loads.iter().zip(&pull).map(|(a, b)| a + 0.5 * b).collect();
    let rhs = [loads.clone(), pull, mixed];
    let strategies = [
        Strategy::Edd(ElementPartition::strips_x(&mesh, 4)),
        Strategy::Rdd(NodePartition::strips_x(&mesh, 4)),
    ];
    for strategy in strategies {
        let is_edd = matches!(strategy, Strategy::Edd(_));
        let sink = TraceSink::recording();
        let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
            .strategy(strategy.clone())
            .config(cfg())
            .precond(PrecondSpec::parse("twolevel:rbm.s3:gls-3").unwrap())
            .machine(MachineModel::ibm_sp2())
            .trace(&sink)
            .run_multi(&rhs)
            .expect("fault-free multi-RHS solve");
        assert!(out.all_converged());
        let events = sink.take_events();

        let summaries = events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == "solve_summary")
            .count();
        assert_eq!(summaries, 1, "one summary per run_multi");
        let report = TraceReport::from_events(&events);
        let summary = report.solve.as_ref().expect("solve_summary");
        let sum = |f: fn(&parfem_krylov::ConvergenceHistory) -> usize| -> u64 {
            out.histories.iter().map(|h| f(h) as u64).sum()
        };
        assert_eq!(summary.n_rhs, 3);
        assert!(summary.converged);
        assert_eq!(summary.iterations, sum(|h| h.iterations()));
        assert_eq!(summary.restarts, sum(|h| h.restarts));
        assert_eq!(summary.modeled_time, out.modeled_time);
        assert_eq!(summary.variant, if is_edd { "edd-enhanced" } else { "rdd" });
        assert_eq!(out.coarse.len(), 4, "the coarse record reaches the output");
        assert_eq!(summary.coarse.as_ref().expect("coarse record").modes, 12);

        for (r, live) in report.ranks.iter().zip(&out.reports) {
            // One preconditioner application per iteration, and the
            // event-counted traffic is what the communicator counted live.
            let applies = r.counters.iter().find(|(n, _)| n == "precond_applies");
            assert_eq!(applies.map(|(_, v)| *v), Some(summary.iterations));
            assert_eq!(r.comm.sends, live.stats.sends);
            assert_eq!(r.comm.bytes_sent, live.stats.bytes_sent);
            assert_eq!(r.comm.neighbor_exchanges, live.stats.neighbor_exchanges);
            assert_eq!(r.comm.allreduces, live.stats.allreduces);
            assert_eq!(r.comm.flops, live.stats.flops);
            // Top-level spans in the order they opened (`coarse-build`
            // nests inside `precond-build`).
            let opened: Vec<&str> = events
                .iter()
                .filter(|e| e.rank == Some(r.rank) && e.kind == EventKind::SpanBegin)
                .map(|e| e.name.as_str())
                .filter(|name| *name != "coarse-build")
                .collect();
            let want = [
                "assembly",
                "scaling",
                "precond-build",
                "fgmres",
                "fgmres",
                "fgmres",
            ];
            assert_eq!(opened, want, "rank {}", r.rank);
            let assembly = r.phases.iter().find(|p| p.name == "assembly").unwrap();
            let flops = charged_assembly_flops(&mesh, &strategy, r.rank);
            let what = format!("rank {}", r.rank);
            assert_assembly_width(assembly.virt_s, flops, &MachineModel::ibm_sp2(), &what);
            let top: f64 = r
                .phases
                .iter()
                .filter(|p| {
                    ["assembly", "scaling", "precond-build", "fgmres"].contains(&p.name.as_str())
                })
                .map(|p| p.virt_s)
                .sum();
            assert!(
                (top - r.final_virt).abs() <= 1e-9 * r.final_virt,
                "rank {}: spans sum to {top} but the rank ends at {}",
                r.rank,
                r.final_virt
            );
        }
    }
}

/// Fault injection explains itself on the trace alone: under a
/// drop/duplicate/delay plan every rank's `fault_*` counters fire where the
/// plan injects, every drop is answered by a retransmission, and the
/// counters survive the JSON-Lines round trip `parfem report` reads.
#[test]
fn fault_counters_reach_the_trace_and_round_trip_jsonl() {
    let (mesh, dm, mat, loads) = problem(16, 4);
    let part = ElementPartition::strips_x(&mesh, 4);
    let sink = TraceSink::recording();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .machine(MachineModel::sgi_origin())
        .faults(
            FaultPlan::new(5)
                .with_drops(0.2)
                .with_duplicates(0.2)
                .with_delays(0.2, 1e-4)
                .with_retry_policy(30, 1e-3, 2.0),
        )
        .trace(&sink)
        .run()
        .expect("recoverable faults must not fail the solve");
    assert!(out.history.converged());

    let events = sink.take_events();
    let count = |report: &TraceReport, name: &str| -> u64 {
        (report.ranks.iter().flat_map(|r| &r.counters))
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .sum()
    };
    let live = TraceReport::from_events(&events);
    let drops = count(&live, "fault_drops");
    assert!(drops > 0, "a 20% drop plan must drop frames");
    assert!(count(&live, "fault_retransmits") >= drops);
    assert!(count(&live, "fault_duplicates") > 0);
    assert!(count(&live, "fault_delays") > 0);

    let text = jsonl::encode_all(&events);
    let decoded = TraceReport::from_events(&jsonl::decode_all(&text).expect("valid JSONL"));
    for name in [
        "fault_drops",
        "fault_retransmits",
        "fault_duplicates",
        "fault_delays",
    ] {
        assert_eq!(count(&decoded, name), count(&live, name), "{name}");
    }
}
