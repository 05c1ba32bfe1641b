//! Measuring one workload: timed repetitions, the correctness gate, the
//! noise guard, and the traced run that fills the per-layer ledger.

use crate::adapter::{message_probe, Reference};
use crate::child::{self, Outcome, Phase, Request};
use crate::host;
use crate::metrics::{CPU, PEAK_RSS, SETUP, TIME_TO_SOLUTION};
use crate::workload::{Workload, RANKS};
use std::collections::BTreeMap;

/// A solve passes when `‖f − K u‖ / ‖f‖` on the benchmark's own assembled
/// system is at most this (the solver's own tolerance is 1e-6 on the scaled
/// system).
const TRUE_RESIDUAL_LIMIT: f64 = 1e-5;

/// Solves attempted and failed. One right-hand side is one operation, and
/// so is one set-up probe.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure failed, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        self.notes.push(note);
    }
}

/// The noise guard: fixed calibration loops and the steal share of every
/// child. It flags; it never drops a repetition.
#[derive(Debug, Default)]
pub struct Noise {
    calibrations: Vec<f64>,
    steal_shares: Vec<f64>,
}

impl Noise {
    pub fn calibrate(&mut self) {
        self.calibrations.push(host::calibrate());
    }

    /// Mean share of machine CPU time stolen while children ran.
    pub fn steal_share(&self) -> f64 {
        self.steal_shares.iter().sum::<f64>() / self.steal_shares.len().max(1) as f64
    }

    /// `(max − min) / min` over the calibration loops timed so far.
    pub fn calibration_spread(&self) -> f64 {
        let min = self
            .calibrations
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = self.calibrations.iter().copied().fold(0.0, f64::max);
        if min.is_finite() {
            (max - min) / min
        } else {
            0.0
        }
    }

    pub fn calibrations(&self) -> &[f64] {
        &self.calibrations
    }

    pub fn noisy(&self) -> bool {
        self.steal_share() > 0.10 || self.calibration_spread() > 0.15
    }
}

/// One repetition's end-to-end values by metric name, plus the steal share
/// of its two children under [`STEAL_SHARE`].
pub type Rep = BTreeMap<&'static str, f64>;

pub const STEAL_SHARE: &str = "steal_share";

pub struct Bench {
    pub workload: &'static Workload,
    seed: u64,
    quick: bool,
    reference: Reference,
}

impl Bench {
    /// Generates the inputs and assembles the reference system once.
    pub fn new(workload: &'static Workload, seed: u64, quick: bool) -> Self {
        let rhs = workload.inputs(seed, quick);
        let reference = Reference::assemble(&workload.spec(quick, RANKS), &rhs);
        Bench {
            workload,
            seed,
            quick,
            reference,
        }
    }

    fn child(
        &self,
        phase: Phase,
        ranks: usize,
        tally: &mut Tally,
        noise: &mut Noise,
    ) -> Option<Outcome> {
        let n = match phase {
            Phase::Setup => 1,
            Phase::Solve | Phase::Traced => self.workload.n_rhs as u64,
        };
        tally.attempted += n;
        let request = Request {
            workload: self.workload,
            seed: self.seed,
            quick: self.quick,
            phase,
            ranks,
        };
        match child::run(request) {
            Ok(outcome) => {
                noise.steal_shares.push(outcome.steal_share);
                Some(outcome)
            }
            Err(e) => {
                tally.fail(n, e);
                None
            }
        }
    }

    /// The correctness gate over every right-hand side of a full solve:
    /// convergence flag, finiteness, true relative residual. Returns the
    /// largest true residual seen.
    fn gate(&self, outcome: &Outcome, what: &str, tally: &mut Tally) -> f64 {
        let mut worst: f64 = 0.0;
        for (k, u) in outcome.solutions.iter().enumerate() {
            let converged = outcome.list("converged").get(k) == Some(&1.0);
            let residual = self.reference.true_rel_residual(k, u);
            worst = worst.max(residual);
            // A NaN residual fails the `<=`.
            let accurate = u.iter().all(|x| x.is_finite()) && residual <= TRUE_RESIDUAL_LIMIT;
            if !(converged && accurate) {
                tally.fail(
                    1,
                    format!(
                        "{} {what} rhs {k}: converged={converged} true residual {residual:e}",
                        self.workload.name
                    ),
                );
            }
        }
        worst
    }

    /// One timed repetition: a set-up probe and a full solve, each a fresh
    /// child. `None` when a child could not be run at all.
    pub fn rep(&self, tally: &mut Tally, noise: &mut Noise) -> Option<Rep> {
        let setup = self.child(Phase::Setup, RANKS, tally, noise)?;
        if setup.list("iterations").iter().any(|&i| i != 0.0) {
            tally.fail(1, format!("{} setup probe iterated", self.workload.name));
        }
        let solve = self.child(Phase::Solve, RANKS, tally, noise)?;
        self.gate(&solve, "solve", tally);
        Some(BTreeMap::from([
            (TIME_TO_SOLUTION, solve.get("wall_s")),
            (SETUP, setup.get("wall_s")),
            (CPU, solve.get("cpu_s")),
            (PEAK_RSS, solve.get("peak_rss_kb") / 1024.0),
            (STEAL_SHARE, (setup.steal_share + solve.steal_share) / 2.0),
        ]))
    }

    /// The per-layer ledger: one traced child, one P = 1 child, and the
    /// isolated probes — never the timed repetitions. `untraced_s` is the
    /// time to solution those repetitions reported.
    pub fn layers(
        &self,
        untraced_s: f64,
        tally: &mut Tally,
        noise: &mut Noise,
    ) -> Option<BTreeMap<&'static str, f64>> {
        let traced = self.child(Phase::Traced, RANKS, tally, noise)?;
        let true_residual = self.gate(&traced, "traced", tally);
        let p1 = self.child(Phase::Solve, 1, tally, noise)?;
        self.gate(&p1, "P=1", tally);

        let t = |key: &str| traced.get(key);
        let iterations: f64 = traced.list("iterations").iter().sum();
        let restarts: f64 = traced.list("restarts").iter().sum();
        let final_residual = traced
            .list("final_rel_residual")
            .iter()
            .copied()
            .fold(0.0, f64::max);

        let spmv = self.reference.spmv_probe(20);
        let message_len = (t("msg.bytes_sent") / t("msg.sends") / 8.0).round() as usize;
        let (exchange_s, allreduce_s) = message_probe(message_len, 2000);

        let loop_s = t("rank.fgmres_s");
        let host_spans = t("host.partition_s")
            + t("host.assembly_s")
            + t("host.scaling_s")
            + t("host.coarse_build_s")
            + t("host.gather_s");
        let comm_s = t("msg.exchanges") * exchange_s + t("msg.allreduces") * allreduce_s;

        Some(BTreeMap::from([
            ("mesh.build_s", t("build_s")),
            ("mesh.partition_s", t("partition_s")),
            ("mesh.edge_cut", t("mesh.edge_cut")),
            ("mesh.imbalance", t("mesh.imbalance")),
            ("mesh.n_eqn", t("mesh.n_eqn")),
            ("fem.assembly_s", t("host.assembly_s")),
            (
                "fem.assembly_elems_per_s",
                t("mesh.n_elems") / t("host.assembly_s"),
            ),
            ("fem.nnz", self.reference.nnz() as f64),
            (
                "sparse.scaling_s",
                t("host.scaling_s") + t("rank.scaling_s"),
            ),
            ("sparse.spmv_us", spmv.seconds * 1e6),
            ("sparse.spmv_gflops", spmv.flops as f64 / spmv.seconds / 1e9),
            (
                "sparse.spmv_flops_per_byte_computed",
                spmv.flops as f64 / spmv.bytes as f64,
            ),
            (
                "sparse.spmv_working_set_mb_computed",
                spmv.bytes as f64 / (1024.0 * 1024.0),
            ),
            ("sparse.spmv_calls", t("sparse.spmv_calls")),
            ("precond.build_s", t("rank.precond_build_s")),
            ("precond.coarse_build_s", t("host.coarse_build_s")),
            ("precond.applies", t("precond.applies")),
            ("krylov.iterations", iterations),
            ("krylov.restarts", restarts),
            ("krylov.final_rel_residual", final_residual),
            ("krylov.true_rel_residual", true_residual),
            ("krylov.loop_s", loop_s),
            ("krylov.ms_per_iteration", loop_s / iterations * 1e3),
            ("msg.exchanges_per_iter", t("msg.exchanges") / iterations),
            ("msg.allreduces_per_iter", t("msg.allreduces") / iterations),
            ("msg.bytes_per_iter", t("msg.bytes") / iterations),
            ("msg.flops_counted", t("msg.flops_counted")),
            ("msg.modeled_time_s", t("msg.modeled_time_s")),
            ("msg.exchange_us", exchange_s * 1e6),
            ("msg.allreduce_us", allreduce_s * 1e6),
            ("msg.comm_share_est", comm_s / loop_s),
            ("dd.session_s", t("session_s")),
            ("dd.partition_s", t("host.partition_s")),
            ("dd.gather_s", t("host.gather_s")),
            (
                "dd.unattributed_s",
                t("session_s") - host_spans - t("rank.slowest_s"),
            ),
            ("dd.p1_time_to_solution_s", p1.get("wall_s")),
            ("dd.speedup_vs_p1", p1.get("wall_s") / untraced_s),
            ("trace.events", t("trace.events")),
            ("trace.overhead_ratio", t("wall_s") / untraced_s),
            ("host.steal_share", noise.steal_share()),
            ("host.calibration_spread", noise.calibration_spread()),
        ]))
    }
}
