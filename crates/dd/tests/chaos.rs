//! Chaos suite for the distributed solvers: full EDD/RDD solves under
//! deterministic fault injection.
//!
//! Two invariants, mirroring the message-layer chaos tests one level up the
//! stack:
//!
//! - **recoverable schedules are invisible in the numbers**: a solve under
//!   drops-with-retries, duplicates, delays and reorders produces the exact
//!   same solution bits and residual history as the fault-free run — only
//!   the modeled virtual time grows;
//! - **unrecoverable schedules fail loudly and promptly**: a killed rank
//!   surfaces as a typed [`SolveError`] on every rank within the wall-clock
//!   watchdog — no hangs, no orphaned threads, no partial "solutions".
//!
//! Both hold for static solves and for Newmark transients alike.

mod common;

use common::node_strips;
use parfem_dd::{
    EddVariant, PrecondSpec, Problem, SolveError, SolveSession, SolverConfig, Strategy,
};
use parfem_fem::{assembly, Material, NewmarkParams};
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{DofMap, Edge, ElementPartition, QuadMesh};
use parfem_msg::{CommError, FaultPlan, MachineModel};
use parfem_trace::TraceSink;
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn problem(nx: usize, ny: usize) -> (QuadMesh, DofMap, Material, Vec<f64>) {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    (mesh, dm, mat, loads)
}

fn cfg_with(faults: Option<FaultPlan>, overlap: bool) -> SolverConfig {
    SolverConfig {
        gmres: GmresConfig {
            tol: 1e-8,
            ..Default::default()
        },
        precond: PrecondSpec::Gls {
            degree: 5,
            theta: None,
        },
        variant: EddVariant::Enhanced,
        overlap,
        faults,
        comm_timeout: Duration::from_secs(10),
    }
}

/// An EDD session over `p` element strips of the cantilever.
fn edd_session<'a>(
    mesh: &'a QuadMesh,
    dm: &'a DofMap,
    mat: &'a Material,
    loads: &'a [f64],
    p: usize,
) -> SolveSession<'a> {
    SolveSession::new(Problem::new(mesh, dm, mat, loads))
        .strategy(Strategy::Edd(ElementPartition::strips_x(mesh, p)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Drop-faulted EDD solves with a retry budget are bit-identical to the
    /// fault-free solve — the ISSUE's headline acceptance criterion.
    #[test]
    fn edd_drop_faulted_solve_is_bit_identical_to_fault_free(
        seed in 0u64..1_000_000,
        parts in 2usize..5,
        overlap_bit in 0u64..2,
    ) {
        let overlap = overlap_bit == 1;
        let (mesh, dm, mat, loads) = problem(8, 3);
        let solve = |cfg: SolverConfig| {
            SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
                .strategy(Strategy::Edd(ElementPartition::strips_x(&mesh, parts)))
                .config(cfg)
                .machine(MachineModel::ibm_sp2())
                .run()
                .expect("recoverable schedule must solve")
        };
        let clean = solve(cfg_with(None, overlap));
        prop_assert!(clean.history.converged());

        let plan = FaultPlan::new(seed)
            .with_drops(0.3)
            .with_retry_policy(30, 1e-3, 2.0);
        let faulted = solve(cfg_with(Some(plan), overlap));

        prop_assert_eq!(&clean.u, &faulted.u,
            "drops+retries must not change solution bits");
        prop_assert_eq!(&clean.history.relative_residuals,
            &faulted.history.relative_residuals,
            "drops+retries must not change the residual history");
        prop_assert!(faulted.modeled_time >= clean.modeled_time,
            "retransmission can only add virtual time: {} vs {}",
            clean.modeled_time, faulted.modeled_time);
    }

    /// The full mixed fault menu (drops, duplicates, delays, reorders) at a
    /// random intensity stays recoverable and bit-identical, EDD and RDD.
    #[test]
    fn mixed_fault_plans_recover_bit_identically(
        seed in 0u64..1_000_000,
        intensity in 0.1f64..0.7,
    ) {
        let (mesh, dm, mat, loads) = problem(6, 3);
        let plan = FaultPlan::from_seed_intensity(seed, intensity);

        let esolve = |cfg: SolverConfig| {
            edd_session(&mesh, &dm, &mat, &loads, 3)
                .config(cfg)
                .machine(MachineModel::sgi_origin())
                .run()
        };
        let clean = esolve(cfg_with(None, false)).expect("fault-free");
        let faulted = esolve(cfg_with(Some(plan.clone()), false))
            .expect("recoverable plan must solve");
        prop_assert_eq!(&clean.u, &faulted.u);
        prop_assert_eq!(&clean.history.relative_residuals,
            &faulted.history.relative_residuals);

        let rsolve = |cfg: SolverConfig| {
            SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
                .strategy(Strategy::Rdd(node_strips(&mesh, 3)))
                .config(cfg)
                .machine(MachineModel::sgi_origin())
                .run()
        };
        let rclean = rsolve(cfg_with(None, false)).expect("fault-free");
        let rfaulted = rsolve(cfg_with(Some(plan), false))
            .expect("recoverable plan must solve");
        prop_assert_eq!(&rclean.u, &rfaulted.u);
        prop_assert_eq!(&rclean.history.relative_residuals,
            &rfaulted.history.relative_residuals);
    }
}

#[test]
fn same_seed_reproduces_the_same_faulted_solve() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let plan = FaultPlan::from_seed_intensity(2026, 0.5);
    let run = || {
        edd_session(&mesh, &dm, &mat, &loads, 4)
            .config(cfg_with(Some(plan.clone()), false))
            .machine(MachineModel::ibm_sp2())
            .run()
            .expect("recoverable")
    };
    let a = run();
    let b = run();
    assert_eq!(a.u, b.u);
    assert_eq!(
        a.modeled_time, b.modeled_time,
        "virtual time is part of the reproducible outcome"
    );
}

#[test]
fn injected_delays_stretch_modeled_time_but_not_the_solution() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let run = |faults| {
        edd_session(&mesh, &dm, &mat, &loads, 4)
            .config(cfg_with(faults, false))
            .machine(MachineModel::sgi_origin())
            .run()
            .expect("recoverable")
    };
    let clean = run(None);
    let slow = run(Some(FaultPlan::new(9).with_delays(1.0, 1e-3)));
    assert_eq!(clean.u, slow.u);
    assert!(
        slow.modeled_time > clean.modeled_time,
        "a certain per-message delay must show up in virtual time: {} vs {}",
        clean.modeled_time,
        slow.modeled_time
    );
}

/// A killed rank must surface as a typed error on *every* rank — the dead
/// one reports its own scheduled death, the survivors see the disconnect or
/// time out on a collective the dead rank never joins — and the whole run
/// must tear down within a small multiple of the watchdog, not hang.
#[test]
fn killed_rank_fails_the_solve_on_every_rank_within_budget() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let cfg = SolverConfig {
        comm_timeout: Duration::from_millis(300),
        faults: Some(FaultPlan::new(0).with_kill(2, 25)),
        ..cfg_with(None, false)
    };
    let start = Instant::now();
    let failures = edd_session(&mesh, &dm, &mat, &loads, 4)
        .config(cfg)
        .machine(MachineModel::ibm_sp2())
        .run()
        .expect_err("a killed rank must fail the solve");
    let elapsed = start.elapsed();

    assert_eq!(
        failures.errors.len(),
        4,
        "every rank must observe the kill: {:?}",
        failures.errors
    );
    for (rank, err) in &failures.errors {
        match err {
            SolveError::Comm(CommError::RankKilled { rank: killed, .. }) => {
                assert_eq!((*rank, *killed), (2, 2), "only rank 2 dies by schedule")
            }
            SolveError::Comm(
                CommError::Disconnected { .. }
                | CommError::Timeout { .. }
                | CommError::RetriesExhausted { .. },
            ) => {
                assert_ne!(*rank, 2, "rank 2 must report its own death")
            }
            other => panic!("rank {rank}: unexpected error {other:?}"),
        }
    }
    assert!(
        elapsed < Duration::from_secs(20),
        "killed-rank solve must not hang: took {elapsed:?}"
    );
    // The post-mortem still carries every rank's accounting.
    assert_eq!(failures.reports.len(), 4);
    assert!(failures.to_string().contains("4 of 4 ranks failed"));
}

/// RDD under a killed rank: same contract through the other decomposition.
#[test]
fn killed_rank_fails_rdd_within_budget() {
    let (mesh, dm, mat, loads) = problem(8, 2);
    let npart = node_strips(&mesh, 3);
    let cfg = SolverConfig {
        comm_timeout: Duration::from_millis(300),
        faults: Some(FaultPlan::new(1).with_kill(0, 10)),
        ..cfg_with(None, false)
    };
    let start = Instant::now();
    let failures = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(npart))
        .config(cfg)
        .machine(MachineModel::ibm_sp2())
        .run()
        .expect_err("a killed rank must fail the solve");
    assert!(failures
        .errors
        .iter()
        .any(|(r, e)| *r == 0 && matches!(e, SolveError::Comm(CommError::RankKilled { .. }))));
    assert!(
        failures.errors.len() >= 2,
        "survivors must observe the death too: {:?}",
        failures.errors
    );
    assert!(start.elapsed() < Duration::from_secs(20));
}

/// A rank killed in the middle of a transient — after its setup and the
/// first steps — fails the run with [`SolveFailures`] on every rank within
/// the watchdog budget, under either strategy.
///
/// [`SolveFailures`]: parfem_dd::SolveFailures
#[test]
fn killed_rank_fails_a_transient_within_budget() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let tip = dm.dof(mesh.node_at(8, 3), 1);
    let params = NewmarkParams::average_acceleration(1.0);
    let strategies = [
        Strategy::Edd(ElementPartition::strips_x(&mesh, 3)),
        Strategy::Rdd(node_strips(&mesh, 3)),
    ];
    for strategy in strategies {
        let session = |faults, steps| {
            let cfg = SolverConfig {
                comm_timeout: Duration::from_millis(300),
                ..cfg_with(faults, false)
            };
            SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
                .strategy(strategy.clone())
                .config(cfg)
                .machine(MachineModel::ibm_sp2())
                .run_dynamic(params, steps, &[tip])
        };
        let one_step = session(None, 1).expect("fault-free transient");
        let start = Instant::now();
        let failures = session(Some(FaultPlan::new(3).with_kill(1, 600)), 12)
            .expect_err("a killed rank must fail the transient");
        let elapsed = start.elapsed();
        let what = if matches!(strategy, Strategy::Edd(_)) {
            "EDD"
        } else {
            "RDD"
        };
        assert_eq!(failures.errors.len(), 3, "{what}: {:?}", failures.errors);
        for (rank, err) in &failures.errors {
            match err {
                SolveError::Comm(CommError::RankKilled { rank: killed, .. }) => {
                    assert_eq!((*rank, *killed), (1, 1), "{what}")
                }
                SolveError::Comm(
                    CommError::Disconnected { .. }
                    | CommError::Timeout { .. }
                    | CommError::RetriesExhausted { .. },
                ) => assert_ne!(*rank, 1, "{what}: rank 1 must report its own death"),
                other => panic!("{what} rank {rank}: unexpected error {other:?}"),
            }
        }
        // The kill came after the first step: the survivors' clocks ran past
        // a whole one-step transient.
        assert!(
            failures.modeled_time > one_step.last.modeled_time,
            "{what}: failed at {} s, one step takes {} s",
            failures.modeled_time,
            one_step.last.modeled_time
        );
        assert!(
            elapsed < Duration::from_secs(20),
            "{what}: the transient must not hang: took {elapsed:?}"
        );
    }
}

/// Delays only stretch the modeled time of a transient: the watched history
/// is the fault-free one, bit for bit.
#[test]
fn delayed_transient_keeps_the_fault_free_history() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let tip = dm.dof(mesh.node_at(8, 3), 1);
    let run = |faults| {
        edd_session(&mesh, &dm, &mat, &loads, 4)
            .config(cfg_with(faults, false))
            .machine(MachineModel::sgi_origin())
            .run_dynamic(NewmarkParams::average_acceleration(1.0), 5, &[tip])
            .expect("recoverable")
    };
    let clean = run(None);
    let slow = run(Some(FaultPlan::new(9).with_delays(1.0, 1e-3)));
    let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&clean.watch_histories[0]),
        bits(&slow.watch_histories[0])
    );
    assert_eq!(clean.last.u, slow.last.u);
    assert_eq!(clean.total_iterations, slow.total_iterations);
    assert!(slow.last.modeled_time > clean.last.modeled_time);
}

/// An undeliverable interface message (certain drop, tiny retry budget)
/// fails the solve with `RetriesExhausted` rather than wedging the
/// exchange.
#[test]
fn undeliverable_messages_fail_the_solve_with_retries_exhausted() {
    let (mesh, dm, mat, loads) = problem(6, 2);
    let cfg = SolverConfig {
        comm_timeout: Duration::from_secs(5),
        faults: Some(
            FaultPlan::new(3)
                .with_drops(1.0)
                .with_retry_policy(2, 1e-3, 2.0),
        ),
        ..cfg_with(None, false)
    };
    let failures = edd_session(&mesh, &dm, &mat, &loads, 2)
        .config(cfg)
        .run()
        .expect_err("certain drops with 2 retries are unrecoverable");
    assert!(
        failures.errors.iter().any(|(_, e)| matches!(
            e,
            SolveError::Comm(CommError::RetriesExhausted { attempts: 3, .. })
        )),
        "expected RetriesExhausted somewhere: {:?}",
        failures.errors
    );
}

/// A straggling rank slows the modeled run down without touching the
/// numbers — the paper's load-imbalance story, injected rather than meshed.
#[test]
fn straggler_rank_stretches_modeled_time_but_not_the_solution() {
    let (mesh, dm, mat, loads) = problem(8, 3);
    let run = |faults| {
        edd_session(&mesh, &dm, &mat, &loads, 4)
            .config(cfg_with(faults, false))
            .run()
            .expect("recoverable")
    };
    let base = run(None);
    let dragged = run(Some(FaultPlan::new(0).with_straggler(1, 8.0)));
    assert_eq!(base.u, dragged.u);
    assert!(
        dragged.modeled_time > 2.0 * base.modeled_time,
        "an 8x straggler must dominate the modeled time: {} vs {}",
        base.modeled_time,
        dragged.modeled_time
    );
}

/// Fault/retry counters flow through the tracer into the aggregated
/// report, so `parfem report` can show injections next to comm volume.
#[test]
fn fault_counters_reach_the_trace_report() {
    let (mesh, dm, mat, loads) = problem(6, 2);
    let sink = TraceSink::recording();
    let cfg = cfg_with(
        Some(
            FaultPlan::new(11)
                .with_drops(0.3)
                .with_duplicates(0.3)
                .with_retry_policy(30, 1e-3, 2.0),
        ),
        false,
    );
    let out = edd_session(&mesh, &dm, &mat, &loads, 2)
        .config(cfg)
        .trace(&sink)
        .run()
        .expect("recoverable");
    assert!(out.history.converged());
    let events = sink.take_events();
    let report = parfem_trace::TraceReport::from_events(&events);
    let count = |name: &str| -> u64 {
        report
            .ranks
            .iter()
            .flat_map(|r| r.counters.iter())
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .sum()
    };
    let drops = count("fault_drops");
    let retransmits = count("fault_retransmits");
    assert!(drops > 0, "a 30% drop plan over a solve must drop frames");
    assert_eq!(
        drops, retransmits,
        "every dropped frame is answered by exactly one retransmission"
    );
    assert!(count("fault_duplicates") > 0);
}
