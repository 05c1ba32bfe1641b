//! The only file that calls into the repository.
//!
//! Everything the benchmark pins of the library's API is visible here: the
//! `parfem::prelude` session chain for the measured solves, and the
//! `parfem::{sparse, msg}` re-exports for the isolated probes. Options not
//! named in [`Spec`] stay at the library's defaults, so a change of default
//! shows up in the numbers.

use parfem::msg::{run_ranks, Communicator};
use parfem::prelude::*;
use parfem::sparse::scaling::scale_system;
use parfem::trace::PhaseTotals;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Which domain decomposition a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomposition {
    /// Element-based: unassembled subdomain systems over element strips.
    Edd,
    /// Row-based: block rows of the assembled matrix over node strips.
    Rdd,
}

/// One solver configuration: the axes the benchmark sets.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// `elasticity2d`, `heat2d` or `elasticity3d`.
    pub physics: &'static str,
    /// Element grid `nx × ny (× nz)`.
    pub dims: (usize, usize, usize),
    pub decomposition: Decomposition,
    /// Preconditioner spec in the CLI grammar (`gls:7`, `direct`, …).
    pub precond: &'static str,
    /// Subdomains = rank threads.
    pub ranks: usize,
}

/// Relative residual tolerance and restart length of every workload (the
/// paper's settings, stated rather than inherited so the accuracy a time
/// is quoted at cannot drift).
const TOL: f64 = 1e-6;
const RESTART: usize = 25;

/// The spans every rank emits inside a session, in order.
const RANK_PHASES: [&str; 3] = ["scaling", "precond-build", "fgmres"];

fn problem(spec: &Spec, load: LoadCase) -> PhysicsProblem {
    let physics = Physics::parse(spec.physics).expect("known physics name");
    PhysicsProblem::cantilever(physics, spec.dims, Material::unit(), load)
}

fn strategy(spec: &Spec, problem: &PhysicsProblem) -> Strategy {
    match spec.decomposition {
        Decomposition::Edd => {
            Strategy::Edd(problem.element_partition(&PartitionerSpec::Strips, spec.ranks))
        }
        Decomposition::Rdd => Strategy::Rdd(problem.node_partition(spec.ranks)),
    }
}

/// The library's unit pull, shear and (for heat) edge-flux load vectors on
/// this mesh: the raw material the seeded inputs are blended from.
pub fn unit_loads(spec: &Spec) -> (Vec<f64>, Vec<f64>) {
    (
        problem(spec, LoadCase::PullX(1.0)).loads,
        problem(spec, LoadCase::ShearY(1.0)).loads,
    )
}

/// What one session run returned, in plain data.
#[derive(Debug, Default)]
pub struct Solved {
    /// One global solution per right-hand side.
    pub solutions: Vec<Vec<f64>>,
    pub iterations: Vec<usize>,
    pub restarts: Vec<usize>,
    pub converged: Vec<bool>,
    pub final_rel_residual: Vec<f64>,
    /// Wall seconds of the benchmark's own spans around each call.
    pub build_s: f64,
    pub partition_s: f64,
    pub session_s: f64,
    /// Exact counts and trace-derived phase times (`name → value`).
    pub ledger: BTreeMap<&'static str, f64>,
}

/// Mesh dimensions to gathered solution(s): problem build, partitioner, one
/// session. `rhs` holds the generated load vectors — one runs
/// `SolveSession::run`, several run `run_multi`. `max_iters = Some(0)` is
/// the set-up probe (initial residual only). `traced` attaches a recording
/// sink and fills the trace-derived half of the ledger.
pub fn solve(
    spec: &Spec,
    rhs: &[Vec<f64>],
    max_iters: Option<usize>,
    traced: bool,
) -> Result<Solved, String> {
    let mut out = Solved::default();

    let t = Instant::now();
    let mut problem = problem(spec, LoadCase::PullX(1.0));
    problem.loads.copy_from_slice(&rhs[0]);
    out.build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let strategy = strategy(spec, &problem);
    out.partition_s = t.elapsed().as_secs_f64();

    let mut gmres = GmresConfig {
        tol: TOL,
        restart: RESTART,
        ..GmresConfig::default()
    };
    if let Some(m) = max_iters {
        gmres.max_iters = m;
    }
    let sink = if traced {
        TraceSink::recording()
    } else {
        TraceSink::disabled()
    };
    let precond = PrecondSpec::parse(spec.precond).map_err(|e| e.to_string())?;

    let t = Instant::now();
    let session = SolveSession::new(problem.as_problem())
        .strategy(strategy.clone())
        .precond(precond)
        .gmres(gmres)
        .machine(MachineModel::sgi_origin())
        .trace(&sink);
    let (solutions, histories, reports, modeled_time) = if rhs.len() == 1 {
        let o = session.run().map_err(|e| e.to_string())?;
        (vec![o.u], vec![o.history], o.reports, o.modeled_time)
    } else {
        let o = session.run_multi(rhs).map_err(|e| e.to_string())?;
        (o.solutions, o.histories, o.reports, o.modeled_time)
    };
    out.session_s = t.elapsed().as_secs_f64();

    out.solutions = solutions;
    for h in &histories {
        out.iterations.push(h.iterations());
        out.restarts.push(h.restarts);
        out.converged.push(h.converged());
        out.final_rel_residual.push(h.final_residual());
    }

    // Exact counts, the same on every run of one seed.
    let ledger = &mut out.ledger;
    let r0 = &reports[0].stats;
    ledger.insert("mesh.n_eqn", problem.n_eqn() as f64);
    ledger.insert("msg.exchanges", r0.neighbor_exchanges as f64);
    ledger.insert("msg.allreduces", r0.allreduces as f64);
    ledger.insert("msg.bytes", (r0.bytes_sent + r0.allreduce_bytes) as f64);
    ledger.insert("msg.sends", r0.sends as f64);
    ledger.insert("msg.bytes_sent", r0.bytes_sent as f64);
    ledger.insert(
        "msg.flops_counted",
        reports.iter().map(|r| r.stats.flops).sum::<u64>() as f64,
    );
    ledger.insert("msg.modeled_time_s", modeled_time);

    if traced {
        let events = sink.take_events();
        let report = TraceReport::from_events(&events);
        ledger.insert("trace.events", events.len() as f64);
        let wall = |phases: &[PhaseTotals], name: &str| {
            phases
                .iter()
                .filter(|p| p.name == name)
                .map(|p| p.wall_s)
                .sum::<f64>()
        };
        let host = |name: &str| wall(&report.host_phases, name);
        let rank_max = |name: &str| {
            report
                .ranks
                .iter()
                .map(|r| wall(&r.phases, name))
                .fold(0.0, f64::max)
        };
        // The slowest rank's own spans end to end, for the session's
        // unattributed time (a sum of per-phase maxima would overcount:
        // the rank that factors longest is not the one that waits longest).
        let slowest_rank = report
            .ranks
            .iter()
            .map(|r| RANK_PHASES.iter().map(|name| wall(&r.phases, name)).sum())
            .fold(0.0, f64::max);
        let counter = |name: &str| {
            report.ranks.first().map_or(0.0, |r| {
                r.counters
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, v)| *v as f64)
                    .sum()
            })
        };
        ledger.insert("host.partition_s", host("partition"));
        ledger.insert("host.assembly_s", host("assembly"));
        ledger.insert("host.scaling_s", host("scaling"));
        ledger.insert("host.coarse_build_s", host("coarse-build"));
        ledger.insert("host.gather_s", host("gather"));
        ledger.insert("rank.scaling_s", rank_max("scaling"));
        ledger.insert("rank.precond_build_s", rank_max("precond-build"));
        ledger.insert("rank.fgmres_s", rank_max("fgmres"));
        ledger.insert("rank.slowest_s", slowest_rank);
        ledger.insert("sparse.spmv_calls", counter("spmv_calls"));
        ledger.insert("precond.applies", counter("precond_applies"));

        // Partition quality, computed after the clock stopped.
        let (cut, imbalance) = match (&strategy, &problem.mesh) {
            (Strategy::Edd(p), WorkloadMesh::Quad(m)) => {
                (p.clone().with_edge_cut(m).edge_cut(), p.imbalance())
            }
            (Strategy::Edd(p), WorkloadMesh::Hex(m)) => {
                (p.clone().with_edge_cut(m).edge_cut(), p.imbalance())
            }
            (Strategy::Rdd(p), WorkloadMesh::Quad(m)) => {
                (p.clone().with_edge_cut(m).edge_cut(), p.imbalance())
            }
            (Strategy::Rdd(p), WorkloadMesh::Hex(m)) => {
                (p.clone().with_edge_cut(m).edge_cut(), p.imbalance())
            }
        };
        ledger.insert("mesh.edge_cut", cut.unwrap_or(0) as f64);
        ledger.insert("mesh.imbalance", imbalance);
        let n_elems = match &problem.mesh {
            WorkloadMesh::Quad(m) => m.n_elems(),
            WorkloadMesh::Hex(m) => m.n_elems(),
        };
        ledger.insert("mesh.n_elems", n_elems as f64);
    }
    Ok(out)
}

/// The independently assembled global system the correctness gate checks
/// every solution against: `K` once, one constrained right-hand side per
/// load vector.
pub struct Reference {
    k: CsrMatrix,
    f: Vec<Vec<f64>>,
}

impl Reference {
    /// Assembles `K u = f_k` through `PhysicsProblem::static_system`, which
    /// shares no code path with the distributed session above the element
    /// kernels.
    pub fn assemble(spec: &Spec, rhs: &[Vec<f64>]) -> Self {
        let mut problem = problem(spec, LoadCase::PullX(1.0));
        let mut k = None;
        let mut f = Vec::with_capacity(rhs.len());
        for loads in rhs {
            problem.loads.copy_from_slice(loads);
            let sys = problem.static_system();
            k.get_or_insert(sys.stiffness);
            f.push(sys.rhs);
        }
        Reference {
            k: k.expect("at least one right-hand side"),
            f,
        }
    }

    /// `‖f_k − K u‖₂ / ‖f_k‖₂`; NaN-propagating, so a non-finite solution
    /// fails any `<=` test against it.
    pub fn true_rel_residual(&self, k: usize, u: &[f64]) -> f64 {
        let f = &self.f[k];
        if u.len() != f.len() {
            return f64::NAN;
        }
        let ku = self.k.spmv(u);
        let num: f64 = f.iter().zip(&ku).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = f.iter().map(|a| a * a).sum();
        (num / den).sqrt()
    }

    pub fn nnz(&self) -> usize {
        self.k.nnz()
    }

    /// Min-of-`reps` wall seconds of one SpMV with the diagonally scaled
    /// global operator (what the Krylov loop multiplies by), plus its flops
    /// and the bytes one pass touches, computed from the array sizes.
    pub fn spmv_probe(&self, reps: usize) -> SpmvProbe {
        let (a, b, _) = scale_system(&self.k, &self.f[0]).expect("square reference system");
        let mut y = vec![0.0; b.len()];
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            a.spmv_into(black_box(&b), &mut y);
            black_box(&mut y);
            best = best.min(t.elapsed().as_secs_f64());
        }
        let n = a.n_rows();
        // CSR: f64 value + usize column per entry, usize row pointers, one
        // read of x and one write of y.
        let bytes = a.nnz() * 16 + (n + 1) * 8 + 2 * n * 8;
        SpmvProbe {
            seconds: best,
            flops: a.spmv_flops(),
            bytes: bytes as u64,
        }
    }
}

pub struct SpmvProbe {
    pub seconds: f64,
    pub flops: u64,
    pub bytes: u64,
}

/// Mean wall seconds of one neighbour exchange of `len` values between two
/// rank threads, and of one scalar all-reduce, over `rounds` back-to-back
/// rounds each — the message layer alone, no solver around it.
pub fn message_probe(len: usize, rounds: usize) -> (f64, f64) {
    let out = run_ranks(2, MachineModel::sgi_origin(), |comm| {
        let other = [1 - comm.rank()];
        let data = [vec![1.0; len]];
        let mut recv = [Vec::new()];
        comm.barrier();
        let t = Instant::now();
        for _ in 0..rounds {
            comm.exchange_into(&other, &data, &mut recv);
        }
        let exchange = t.elapsed().as_secs_f64() / rounds as f64;
        comm.barrier();
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..rounds {
            acc += comm.allreduce_sum_scalar(1.0);
        }
        black_box(acc);
        (exchange, t.elapsed().as_secs_f64() / rounds as f64)
    });
    out.results
        .iter()
        .fold((0.0, 0.0), |m, r| (f64::max(m.0, r.0), f64::max(m.1, r.1)))
}
