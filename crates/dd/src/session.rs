//! The composable solve pipeline: one builder, every axis orthogonal.
//!
//! The paper's experiments sweep one axis at a time — strategy (EDD vs
//! RDD, Sections 3–4), preconditioner family and degree (Figs. 11–14),
//! mesh/partition/machine (Tables 1–3) — and [`SolveSession`] makes each
//! axis one builder call instead of one entry-point function:
//!
//! ```
//! use parfem_dd::{Problem, SolveSession, Strategy};
//! use parfem_fem::{assembly, Material};
//! use parfem_mesh::{DofMap, Edge, ElementPartition, QuadMesh};
//! use parfem_msg::MachineModel;
//! use parfem_precond::PrecondSpec;
//!
//! let mesh = QuadMesh::cantilever(8, 2);
//! let mut dm = DofMap::new(mesh.n_nodes());
//! dm.clamp_edge(&mesh, Edge::Left);
//! let mut loads = vec![0.0; dm.n_dofs()];
//! assembly::edge_load(&mesh, &dm, Edge::Right, 1.0, 0.0, &mut loads);
//!
//! let out = SolveSession::new(Problem::new(&mesh, &dm, &Material::unit(), &loads))
//!     .strategy(Strategy::Edd(ElementPartition::strips_x(&mesh, 4)))
//!     .precond(PrecondSpec::parse("gls:7").unwrap())
//!     .machine(MachineModel::sgi_origin())
//!     .run()
//!     .expect("fault-free solve");
//! assert!(out.history.converged());
//! ```
//!
//! The orthogonal options are: strategy ([`Strategy::Edd`] /
//! [`Strategy::Rdd`]), EDD variant, preconditioner spec (via the
//! `parfem-precond` registry), GMRES settings, machine model, overlapped
//! interface exchange, deterministic fault plan, communication watchdog,
//! trace sink, and single- vs multi-RHS ([`SolveSession::run`] /
//! [`SolveSession::run_multi`]) vs transient
//! ([`SolveSession::run_dynamic`]). Any combination composes.
//!
//! `run`, `run_multi` and `run_dynamic` are one engine: host prepare (the
//! partition only; no global matrix is ever assembled) → coarse geometry →
//! one rank launch, with one fault wrap → one rank body (`assembly` and
//! `scaling` of the rank's own system, which builds the rank's one
//! distributed operator, `precond-build`, then one FGMRES per right-hand
//! side or per Newmark step on that operator and a shared fixed-operator
//! Krylov workspace, so later solves recycle the first solve's deflation
//! space) →
//! collection, `gather` and the `solve_summary`. What EDD and RDD do
//! differently sits behind the crate-private `Decomposition` trait,
//! implemented next to each operator (`EddParts` in [`crate::edd`],
//! `RddParts` in [`crate::rdd`]); `run` feeds the engine the systems' own
//! load (the only one that carries an inhomogeneous-Dirichlet lift),
//! `run_multi` feeds it `k` global loads, `run_dynamic` a mass shift ᾱ for
//! the setup and the step loop of [`crate::dynamic`]. The FNV-1a digests in
//! `tests/golden.rs` pin the static results bit for bit; `tests/session.rs`
//! and the root `integration_dynamic` test pin two transients.

use crate::coarse::{build_rank_coarse, CoarseBuildStats, CoarsePlan};
use crate::dynamic::{newmark_steps, DynamicRunOutput, Newmark};
use crate::edd::{EddParts, EddVariant};
use crate::error::SolveError;
use crate::rdd::RddParts;
use parfem_fem::{Discretization, Mass, Material, Mesh, NewmarkParams};
use parfem_krylov::gmres::{fgmres_on, GmresConfig};
use parfem_krylov::history::{ConvergenceHistory, StopReason};
use parfem_krylov::{DistributedOperator, KrylovWorkspace};
use parfem_mesh::{DofMap, ElementPartition, NodePartition, PartitionerSpec};
use parfem_msg::{
    try_run_ranks, Communicator, FaultPlan, FaultyComm, MachineModel, RankReport, RunOptions,
    ThreadComm,
};
use parfem_precond::twolevel::{
    CoarsePartGeometry, CoarseReduce, CoarseSetup, CoarseSpec, SpecPrecond,
};
use parfem_precond::InterfaceConsistency;
pub use parfem_precond::PrecondSpec;

use parfem_sparse::{dense, SparseLdlt, SparseRows};
use parfem_trace::{alloc, TraceSink, Value};
use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

/// Full configuration of a distributed solve.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// GMRES restart/tolerance settings (paper: `m̃ = 25`, `tol = 1e-6`).
    pub gmres: GmresConfig,
    /// Preconditioner choice (built through the `parfem-precond` registry).
    pub precond: PrecondSpec,
    /// EDD algorithm variant (ignored by RDD).
    pub variant: EddVariant,
    /// Overlap interface communication with interior computation: every
    /// matvec posts its exchange nonblocking and computes the rows that do
    /// not depend on the in-flight messages while they travel. Results are
    /// bit-identical to the blocking schedule; the modeled virtual time
    /// credits `max(compute, comm)` instead of their sum.
    pub overlap: bool,
    /// Deterministic fault-injection plan for the message layer. `None`
    /// (the default) runs fault-free on the raw [`ThreadComm`]; `Some`
    /// wraps every rank's endpoint in a [`FaultyComm`] driven by the plan,
    /// so chaos runs reproduce bit for bit from the seed alone.
    pub faults: Option<FaultPlan>,
    /// Wall-clock watchdog for every blocking communicator wait (receives
    /// and collectives). A peer that never shows up within this budget
    /// surfaces as a typed [`parfem_msg::CommError::Timeout`] instead of a
    /// hang.
    pub comm_timeout: Duration,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            gmres: GmresConfig::default(),
            precond: PrecondSpec::Gls {
                degree: 7,
                theta: None,
            },
            variant: EddVariant::Enhanced,
            overlap: false,
            faults: None,
            comm_timeout: Duration::from_secs(30),
        }
    }
}

/// Output of a distributed solve.
#[derive(Debug, Clone)]
pub struct DdSolveOutput {
    /// The physical (unscaled) global solution.
    pub u: Vec<f64>,
    /// Convergence history (identical on every rank; rank 0's copy).
    pub history: ConvergenceHistory,
    /// Per-rank virtual time and communication statistics.
    pub reports: Vec<RankReport>,
    /// Modeled parallel time (max over rank clocks), in seconds.
    pub modeled_time: f64,
    /// Per-rank record of the two-level coarse build — what it produced
    /// and what it charged to the rank's clock. Empty for one-level specs.
    pub coarse: Vec<CoarseBuildStats>,
    /// Per-rank record of the subdomain factorization. Empty unless the
    /// spec is `direct`, standalone or as a two-level smoother.
    pub factor: Vec<FactorStats>,
}

/// Output of a multi-right-hand-side session ([`SolveSession::run_multi`]).
///
/// Scaling, layout, preconditioner and Krylov workspace are built **once**
/// per session; each right-hand side then runs one distributed FGMRES.
#[derive(Debug, Clone)]
pub struct MultiSolveOutput {
    /// One physical (unscaled) global solution per right-hand side.
    pub solutions: Vec<Vec<f64>>,
    /// One convergence history per right-hand side (rank 0's copies).
    pub histories: Vec<ConvergenceHistory>,
    /// Per-rank virtual time and communication statistics for the whole
    /// multi-solve.
    pub reports: Vec<RankReport>,
    /// Modeled parallel time of the whole multi-solve, in seconds.
    pub modeled_time: f64,
    /// Per-rank record of the two-level coarse build, as in
    /// [`DdSolveOutput::coarse`].
    pub coarse: Vec<CoarseBuildStats>,
    /// Per-rank record of the subdomain factorization, as in
    /// [`DdSolveOutput::factor`].
    pub factor: Vec<FactorStats>,
}

impl MultiSolveOutput {
    /// Whether every right-hand side converged.
    pub fn all_converged(&self) -> bool {
        self.histories.iter().all(|h| h.converged())
    }

    /// The last solve alone, with the whole run's reports and setup records
    /// (a run without solves keeps the untouched residual `1`).
    pub(crate) fn into_last(mut self) -> DdSolveOutput {
        let untouched = ConvergenceHistory {
            relative_residuals: vec![1.0],
            stop: StopReason::Converged,
            restarts: 0,
        };
        DdSolveOutput {
            u: self.solutions.pop().unwrap_or_default(),
            history: self.histories.pop().unwrap_or(untouched),
            reports: self.reports,
            modeled_time: self.modeled_time,
            coarse: self.coarse,
            factor: self.factor,
        }
    }
}

/// Everything a failed distributed solve still knows.
///
/// Returned by [`SolveSession::run`] / [`SolveSession::run_multi`] when at
/// least one rank hit a typed [`SolveError`]. Ranks that completed normally
/// are not listed in `errors`; the per-rank [`RankReport`]s cover every
/// rank up to the point its thread returned, so a post-mortem can still see
/// who spent what before the failure.
#[derive(Debug, Clone)]
pub struct SolveFailures {
    /// `(rank, error)` for every rank that failed, in rank order.
    pub errors: Vec<(usize, SolveError)>,
    /// Per-rank virtual time and communication statistics at teardown.
    pub reports: Vec<RankReport>,
    /// Modeled parallel time when the run tore down, in seconds.
    pub modeled_time: f64,
}

impl fmt::Display for SolveFailures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (rank, first) = match self.errors.first() {
            Some((r, e)) => (*r, e),
            None => return write!(f, "distributed solve failed (no rank error recorded)"),
        };
        write!(
            f,
            "{} of {} ranks failed; first: rank {}: {}",
            self.errors.len(),
            self.reports.len(),
            rank,
            first
        )
    }
}

impl std::error::Error for SolveFailures {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.errors
            .first()
            .map(|(_, e)| e as &(dyn std::error::Error + 'static))
    }
}

/// A borrowed view of the mesh-level problem a session solves: the
/// discretization (mesh and physics), constraints, material and the global
/// load vector.
#[derive(Clone, Copy)]
pub struct Problem<'a> {
    /// The mesh and the physics assembled on it.
    pub discretization: Discretization<'a>,
    /// DOF numbering and Dirichlet constraints.
    pub dof_map: &'a DofMap,
    /// Material parameters.
    pub material: &'a Material,
    /// Global load vector (`dof_map.n_dofs()` long).
    pub loads: &'a [f64],
}

impl<'a> Problem<'a> {
    /// A problem over any supported (mesh, physics) pairing; a bare mesh
    /// reference stands for the elasticity of its dimension — on a
    /// `&QuadMesh` the paper's 2-D plane problem.
    ///
    /// # Panics
    /// Panics when the load vector or the DOF map's DOFs-per-node count does
    /// not match the physics.
    pub fn new(
        discretization: impl Into<Discretization<'a>>,
        dof_map: &'a DofMap,
        material: &'a Material,
        loads: &'a [f64],
    ) -> Self {
        let discretization = discretization.into();
        let physics = discretization.physics();
        assert_eq!(
            loads.len(),
            dof_map.n_dofs(),
            "load vector does not match the DOF map"
        );
        assert_eq!(
            dof_map.dofs_per_node(),
            physics.dofs_per_node(),
            "DOF map carries the wrong DOFs-per-node count for {physics}"
        );
        Problem {
            discretization,
            dof_map,
            material,
            loads,
        }
    }

    /// The mesh this problem discretizes.
    pub(crate) fn mesh(&self) -> Mesh<'a> {
        self.discretization.mesh()
    }
}

/// Which domain-decomposition strategy a session runs, with its partition.
#[derive(Clone)]
pub enum Strategy {
    /// Element-based decomposition (the paper's contribution): unassembled
    /// per-subdomain systems, interface sums of nodal values only.
    Edd(ElementPartition),
    /// Row-based (block-row) decomposition: the PSPARSLIB/Aztec-style
    /// baseline over the assembled, scaled matrix.
    Rdd(NodePartition),
}

/// Builder-style distributed solve: construct from a [`Problem`], choose
/// the orthogonal options, then
/// [`run`](SolveSession::run), [`run_multi`](SolveSession::run_multi) or
/// [`run_dynamic`](SolveSession::run_dynamic). See the [module
/// docs](self) for an example.
pub struct SolveSession<'a> {
    problem: Problem<'a>,
    strategy: Option<Strategy>,
    cfg: SolverConfig,
    model: MachineModel,
    sink: Option<&'a TraceSink>,
}

impl<'a> SolveSession<'a> {
    /// Starts a session over a mesh-level [`Problem`]. A
    /// [`strategy`](SolveSession::strategy) must be chosen before running.
    pub fn new(problem: Problem<'a>) -> Self {
        SolveSession {
            problem,
            strategy: None,
            cfg: SolverConfig::default(),
            model: MachineModel::ideal(),
            sink: None,
        }
    }

    /// Chooses the decomposition strategy (and its partition).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Chooses EDD over the element partition `spec` produces for `parts`
    /// subdomains — the session-builder face of the CLI's `--partitioner`
    /// flag (`strips`, `blocks`, or the graph partitioner). Works for every
    /// supported mesh: the partitioner registry is generic over cell meshes.
    pub fn partitioned(mut self, spec: PartitionerSpec, parts: usize) -> Self {
        let part = spec.element_partition(&self.problem.mesh(), parts);
        self.strategy = Some(Strategy::Edd(part));
        self
    }

    /// Replaces the whole solver configuration at once (the escape hatch
    /// for callers that already hold a [`SolverConfig`]).
    pub fn config(mut self, cfg: SolverConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the preconditioner spec (default `gls:7`, the paper's choice).
    pub fn precond(mut self, spec: PrecondSpec) -> Self {
        self.cfg.precond = spec;
        self
    }

    /// Sets the EDD algorithm variant (default enhanced; ignored by RDD).
    pub fn variant(mut self, variant: EddVariant) -> Self {
        self.cfg.variant = variant;
        self
    }

    /// Sets the GMRES restart/tolerance settings.
    pub fn gmres(mut self, gmres: GmresConfig) -> Self {
        self.cfg.gmres = gmres;
        self
    }

    /// Sets the virtual machine model (default ideal — free communication).
    pub fn machine(mut self, model: MachineModel) -> Self {
        self.model = model;
        self
    }

    /// Enables/disables the overlapped (nonblocking) interface exchange.
    /// Bit-identical results; changes only the modeled time.
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.cfg.overlap = overlap;
        self
    }

    /// Installs a deterministic fault-injection plan (accepts a
    /// [`FaultPlan`], `Some(plan)` or `None`).
    pub fn faults(mut self, faults: impl Into<Option<FaultPlan>>) -> Self {
        self.cfg.faults = faults.into();
        self
    }

    /// Sets the wall-clock watchdog per blocking communicator wait.
    pub fn comm_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.comm_timeout = timeout;
        self
    }

    /// Records structured events (host spans, per-rank comm events,
    /// per-iteration convergence, the `solve_summary` instant) into `sink`.
    pub fn trace(mut self, sink: &'a TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Runs one distributed solve of the session's problem.
    ///
    /// # Errors
    /// Returns [`SolveFailures`] listing every rank whose solve failed
    /// with a typed [`SolveError`] (under fault injection, communicator
    /// timeouts, or a preconditioner that cannot be built — `ilu0` on a
    /// floating EDD subdomain is [`SolveError::Precond`], and its
    /// neighbours then fail as disconnected).
    ///
    /// # Panics
    /// Panics on API misuse: a session without a strategy.
    pub fn run(&self) -> Result<DdSolveOutput, SolveFailures> {
        Ok(self.solve(Drive::Own)?.0.into_last())
    }

    /// Solves the session's system for **many right-hand sides**, sharing
    /// one partition, assembly, scaling, preconditioner and Krylov
    /// workspace across all of them. Each `rhs_set[k]` is a global load
    /// vector (`dof_map.n_dofs()` long); `solutions[k]` is its physical
    /// solution.
    ///
    /// Requires **homogeneous** Dirichlet constraints — the per-RHS local load
    /// rebuild `f̂ᵢ = fᵢ/multᵢ` with zeroed constrained rows is exact only
    /// when the prescribed values are zero.
    ///
    /// The **first right-hand side** produces bit-identical results to
    /// [`SolveSession::run`] on the same loads. Each later one starts from
    /// the deflation space the solve before it found on the shared operator
    /// (see [`parfem_krylov::gmres`]): when the first solve restarted, a
    /// later right-hand side converges to the same tolerance in fewer
    /// iterations, so its bits differ from a single run's; when it did not,
    /// nothing is recycled and every right-hand side matches its single run.
    ///
    /// # Errors
    /// Returns [`SolveFailures`] exactly as [`SolveSession::run`].
    ///
    /// # Panics
    /// Panics on inhomogeneous constraints, wrong load-vector lengths, or a
    /// missing strategy.
    pub fn run_multi(&self, rhs_set: &[Vec<f64>]) -> Result<MultiSolveOutput, SolveFailures> {
        self.assert_homogeneous("run_multi");
        for rhs in rhs_set {
            assert_eq!(
                rhs.len(),
                self.problem.dof_map.n_dofs(),
                "right-hand side does not match the DOF map"
            );
        }
        Ok(self.solve(Drive::Global(rhs_set))?.0)
    }

    /// Runs `steps` Newmark time steps of `M ü + K u = f` (constant load,
    /// zero initial conditions, homogeneous Dirichlet BCs, lumped mass)
    /// under either strategy, watching the global DOFs in `watch_dofs`.
    ///
    /// It is one more way to drive the engine behind [`SolveSession::run`]:
    /// each rank sets up the effective matrix `ᾱM + K` of paper Eq. 52 once
    /// — assembly, scaling and preconditioner as for a static solve — and
    /// then solves one FGMRES per step on a shared fixed-operator workspace,
    /// warm-started from the current displacement. Every session option
    /// applies: preconditioner (two-level included), variant, overlap, GMRES
    /// settings, machine model, fault plan, watchdog and trace; a traced run
    /// carries one `solve_summary` over `steps` right-hand sides.
    ///
    /// # Errors
    /// Returns [`SolveFailures`] exactly as [`SolveSession::run`].
    ///
    /// # Panics
    /// Panics on inhomogeneous constraints, on a discretization without a
    /// lumped mass (heat, Q8 elements), on a watched DOF no rank holds, or
    /// on a missing strategy.
    pub fn run_dynamic(
        &self,
        params: NewmarkParams,
        steps: usize,
        watch_dofs: &[usize],
    ) -> Result<DynamicRunOutput, SolveFailures> {
        let p = &self.problem;
        self.assert_homogeneous("run_dynamic");
        assert!(
            p.discretization.has_mass(Mass::Lumped),
            "run_dynamic needs a lumped mass, which {} on these elements has not",
            p.discretization.physics()
        );
        let watch = watch_dofs;
        let (out, watched) = self.solve(Drive::Newmark(Newmark {
            params,
            steps,
            watch,
        }))?;
        Ok(DynamicRunOutput::new(out, watched))
    }

    /// Panics unless every Dirichlet constraint is homogeneous: `what`
    /// rebuilds its loads on the ranks as `f/mult` with the constrained rows
    /// zeroed, which is exact only for zero prescribed values.
    fn assert_homogeneous(&self, what: &str) {
        for (d, v) in self.problem.dof_map.fixed_dofs() {
            assert_eq!(v, 0.0, "{what} requires homogeneous BCs (dof {d})");
        }
    }

    /// Dispatches the strategy to the one engine; the arms differ only in
    /// how the host prepares the partitioned problem.
    fn solve(&self, drive: Drive<'_>) -> Result<EngineOutput, SolveFailures> {
        let p = &self.problem;
        match &self.strategy {
            Some(Strategy::Edd(part)) => {
                self.engine(drive, |sink| EddParts::partition(p, part, sink))
            }
            Some(Strategy::Rdd(part)) => self.engine(drive, |_| RddParts::new(p, part)),
            None => {
                panic!("SolveSession needs .strategy(Strategy::Edd(..) | Strategy::Rdd(..))")
            }
        }
    }

    /// The engine behind [`SolveSession::run`], [`SolveSession::run_multi`]
    /// and [`SolveSession::run_dynamic`]: host prepare → coarse geometry →
    /// one launch of the one rank body → collection → gather → summary,
    /// over whichever [`Decomposition`] `prepare` builds.
    ///
    /// When `cfg.faults` is set, every rank's communicator is wrapped in a
    /// [`FaultyComm`] driven by the shared [`FaultPlan`], and
    /// `cfg.comm_timeout` bounds every blocking wait, so even a killed rank
    /// tears the run down with errors on every survivor instead of a hang.
    fn engine<D: Decomposition>(
        &self,
        drive: Drive<'_>,
        prepare: impl FnOnce(&TraceSink) -> D,
    ) -> Result<EngineOutput, SolveFailures> {
        let disabled = TraceSink::disabled();
        let sink = self.sink.unwrap_or(&disabled);
        let cfg = &self.cfg;
        // Taken before the host prepares anything, so the summary's
        // allocation totals cover the same window for every strategy.
        let alloc_start = alloc::stats();
        let parts = prepare(sink);
        let coarse = prepare_coarse(&cfg.precond, sink, |cs| parts.coarse_geometry(cs));
        let opts = RunOptions {
            comm_timeout: cfg.comm_timeout,
        };
        let problem = &self.problem;
        let body = |comm: &ThreadComm| {
            let plan = coarse.as_ref().map(|(spec, geometry)| CoarsePlan {
                spec,
                n_comp: problem.dof_map.dofs_per_node(),
                geo: &geometry[comm.rank()],
            });
            match &cfg.faults {
                Some(faults) => {
                    let faulty = FaultyComm::new(comm, faults.clone());
                    rank_body(&parts, &faulty, plan, problem, drive, cfg)
                }
                None => rank_body(&parts, comm, plan, problem, drive, cfg),
            }
        };
        let out = try_run_ranks(parts.n_ranks(), self.model.clone(), opts, sink, body);
        let (mut results, reports, modeled_time) =
            collect_rank_results(out.results, out.reports, out.modeled_time)?;

        let solutions = host_span(sink, "gather", || {
            (0..results[0].pieces.len())
                .map(|k| parts.gather(results.iter().map(|r| r.pieces[k].as_slice())))
                .collect()
        });
        // A watched dof's history comes from the first rank that holds it;
        // every rank holding it has the same values.
        let watch = (0..results[0].watch.len())
            .map(|k| {
                results
                    .iter()
                    .map(|r| r.watch[k].clone())
                    .find(|h| !h.is_empty())
            })
            .map(Option::unwrap_or_default)
            .collect();
        let solved = MultiSolveOutput {
            solutions,
            coarse: results.iter().filter_map(|r| r.built.coarse).collect(),
            factor: results.iter().filter_map(|r| r.built.factor).collect(),
            // The histories are identical on every rank; keep rank 0's.
            histories: results.swap_remove(0).histories,
            reports,
            modeled_time,
        };
        emit_solve_summary(sink, parts.label(cfg), cfg, &solved, alloc_start);
        Ok((solved, watch))
    }
}

/// Stamps the end-of-run summary (consumed by `parfem report` and the
/// convergence renderer) onto the trace as a host-side `solve_summary`
/// instant event: `iterations` and `restarts` summed over the `n_rhs`
/// right-hand sides, `converged` when all did, the worst final residual.
///
/// `host_alloc_start` is the host thread's allocation-counter snapshot
/// taken when the run began, before partitioning and assembly; when the
/// process runs under a [`parfem_trace::alloc::CountingAlloc`] (the `parfem`
/// binary's `count-allocs` feature, or an instrumented test harness), the
/// summary additionally carries `alloc_count` / `alloc_bytes` for the whole
/// run — the host thread's share plus every rank thread's — so workspace
/// regressions surface directly in `parfem report`. A two-level solve also
/// carries the `coarse_*` record of its rank-side coarse build, a solve
/// under `direct` the `factor_*` record of its subdomain factorizations.
fn emit_solve_summary(
    sink: &TraceSink,
    variant: &str,
    cfg: &SolverConfig,
    out: &MultiSolveOutput,
    host_alloc_start: alloc::AllocStats,
) {
    let Some(tracer) = sink.host_tracer() else {
        return;
    };
    let total = |f: fn(&ConvergenceHistory) -> usize| -> u64 {
        out.histories.iter().map(|h| f(h) as u64).sum()
    };
    let worst_final = (out.histories.iter())
        .map(|h| h.relative_residuals.last().copied().unwrap_or(f64::NAN))
        .reduce(f64::max)
        .unwrap_or(f64::NAN);
    let mut fields: Vec<(String, Value)> = [
        ("converged", Value::U64(out.all_converged() as u64)),
        ("iterations", Value::U64(total(|h| h.iterations()))),
        ("restarts", Value::U64(total(|h| h.restarts))),
        ("final_rel_res", Value::F64(worst_final)),
        ("modeled_time", Value::F64(out.modeled_time)),
        ("precond", Value::Str(cfg.precond.name())),
        ("variant", Value::Str(variant.to_string())),
        ("overlap", Value::U64(cfg.overlap as u64)),
        ("n_rhs", Value::U64(out.histories.len() as u64)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if alloc::is_counting() {
        let d = out
            .reports
            .iter()
            .fold(alloc::stats().since(host_alloc_start), |acc, r| {
                acc.merged(r.allocs)
            });
        fields.push(("alloc_count".to_string(), Value::U64(d.count)));
        fields.push(("alloc_bytes".to_string(), Value::U64(d.bytes)));
    }
    if let Some(coarse) = CoarseBuildStats::over_ranks(&out.coarse) {
        fields.extend(coarse.fields());
    }
    if let Some(factor) = FactorStats::over_ranks(&out.factor) {
        fields.extend(factor.fields());
    }
    tracer.instant("solve_summary", 0.0, fields);
}

/// Runs `f` under a named host-side (wall-clock) span.
pub(crate) fn host_span<R>(sink: &TraceSink, name: &str, f: impl FnOnce() -> R) -> R {
    let tracer = sink.host_tracer();
    if let Some(t) = &tracer {
        t.span_begin(name, 0.0);
    }
    let r = f();
    if let Some(t) = &tracer {
        t.span_end(name, 0.0);
    }
    r
}

/// Runs `f` under a named rank-side span on the rank's virtual clock.
pub(crate) fn rank_span<C: Communicator, R>(comm: &C, name: &str, f: impl FnOnce() -> R) -> R {
    if let Some(t) = comm.tracer() {
        t.span_begin(name, comm.virtual_time());
    }
    let r = f();
    if let Some(t) = comm.tracer() {
        t.span_end(name, comm.virtual_time());
    }
    r
}

/// Host-side preparation of a two-level run, under the `coarse-build` host
/// span: the spec's coarse component and the per-part geometry the ranks
/// start from (`None` for one-level specs). Nothing of the coarse space
/// itself is built here.
fn prepare_coarse<'s>(
    spec: &'s PrecondSpec,
    sink: &TraceSink,
    geometry: impl FnOnce(&CoarseSpec) -> Vec<CoarsePartGeometry>,
) -> Option<(&'s CoarseSpec, Vec<CoarsePartGeometry>)> {
    let PrecondSpec::TwoLevel { coarse, .. } = spec else {
        return None;
    };
    Some((coarse, host_span(sink, "coarse-build", || geometry(coarse))))
}

/// What one engine run solves.
#[derive(Clone, Copy)]
enum Drive<'a> {
    /// The load the session's systems were assembled with — the only source
    /// that carries an inhomogeneous-Dirichlet lift (`f − K ū` on the free
    /// rows, `ū` on the fixed ones), which is why `run()` is not `run_multi`
    /// of one global vector.
    Own,
    /// Global load vectors, restricted and scaled on the ranks with the
    /// constrained rows zeroed: exact for homogeneous constraints only.
    Global(&'a [Vec<f64>]),
    /// A Newmark transient over the global load.
    Newmark(Newmark<'a>),
}

/// What the engine hands back: the solve output and, for a transient, the
/// watched DOFs' histories.
type EngineOutput = (MultiSolveOutput, Vec<Vec<f64>>);

/// The strategy seam of the engine: everything the two decompositions do
/// differently, and nothing else. One value describes the whole partitioned
/// problem on the host; the ranks share it by reference. Launch, fault
/// wrap, the right-hand-side loop, the Newmark step loop, every FGMRES,
/// collection, the `gather` span and the summary are the engine's.
pub(crate) trait Decomposition: Sync {
    /// The rank's distributed operator over the endpoint `C`.
    type Op<'c, C: Communicator + 'c>: CoarseSetup
        + DistributedOperator<Comm = C, PrecondOp: CoarseReduce + InterfaceConsistency>;

    fn n_ranks(&self) -> usize;

    /// The `variant` label of the `solve_summary`.
    fn label(&self, cfg: &SolverConfig) -> &'static str;

    /// Per-part geometry for a two-level spec.
    fn coarse_geometry(&self, spec: &CoarseSpec) -> Vec<CoarsePartGeometry>;

    /// The rank's setup up to and including its preconditioner, or the
    /// [`SolveError::Precond`] that stopped its build: the one operator of
    /// the rank, built once from the session's `variant` and `overlap`.
    /// With a `mass_shift` ᾱ the rank assembles its lumped mass `M` along
    /// with `K` and sets up a Newmark step's effective matrix `ᾱM + K`
    /// (paper Eq. 52).
    fn rank_setup<'c, C: Communicator>(
        &self,
        comm: &'c C,
        coarse: Option<CoarsePlan<'_>>,
        mass_shift: Option<f64>,
        cfg: &SolverConfig,
    ) -> Result<(Rank<Self::Op<'c, C>>, PrecondBuildStats), SolveError>;

    /// Makes a vector in the rank's load format consistent: each row the
    /// sum over the ranks that hold it. Disjoint rows need nothing.
    fn make_consistent<C: Communicator>(_op: &Self::Op<'_, C>, _v: &mut [f64]) {}

    /// The physical global solution from every rank's piece, in rank order.
    fn gather<'r>(&self, pieces: impl Iterator<Item = &'r [f64]>) -> Vec<f64>;
}

/// One rank after its setup, under either strategy: its one distributed
/// operator and preconditioner, and its rows — the local DOFs of its
/// subdomain (EDD) or its owned rows (RDD). A load-format vector is local
/// distributed under EDD; a solution is global distributed under EDD; both
/// are plain rows under RDD.
pub(crate) struct Rank<Op> {
    /// The distributed operator every solve of the rank runs on.
    pub op: Op,
    /// The global DOF of each row.
    pub dofs: Vec<usize>,
    /// How many ranks hold each row; `None` when the rows are disjoint.
    pub multiplicity: Option<Vec<f64>>,
    /// Algorithm 3's scaling diagonal over the rows.
    pub d: Vec<f64>,
    /// `D f` for the systems' own load.
    pub b: Vec<f64>,
    /// The lumped mass in the load format, after a setup with a mass shift.
    pub mass: Option<Vec<f64>>,
    /// The preconditioner built over `op`.
    pub precond: SpecPrecond,
}

impl<Op> Rank<Op> {
    /// A global load vector in the rank's load format, unscaled: entries
    /// split by multiplicity, constrained rows zeroed — the load the rank's
    /// own assembly builds when every constraint is homogeneous.
    pub fn restrict_load(&self, global: &[f64], dm: &DofMap) -> Vec<f64> {
        (self.dofs.iter().enumerate())
            .map(|(l, &g)| match (dm.is_fixed(g), &self.multiplicity) {
                (true, _) => 0.0,
                (false, Some(mult)) => global[g] / mult[l],
                (false, None) => global[g],
            })
            .collect()
    }
}

/// What one rank's subdomain factorization produced — the `factor_*` record
/// of `solve_summary` and [`DdSolveOutput::factor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorStats {
    /// Stored entries of the strictly lower `L`.
    pub nnz_l: u64,
    /// `nnz(L)` over the strict lower triangle of the factored block.
    pub fill: f64,
    /// Flops of the factorization, charged to the rank clock.
    pub flops: u64,
    /// Flops of one solve, charged to the rank clock per application.
    pub solve_flops: u64,
    /// Heap bytes the factor holds.
    pub bytes: u64,
    /// Pivots skipped (the block's detected rank deficiency).
    pub skipped: u64,
    /// Supernodes: the dense panels the numeric phase factored.
    pub supernodes: u64,
    /// Entries of the largest panel, rows × width.
    pub max_front: u64,
    /// Rows in the root separator of the ordering (`0` when minimum degree
    /// ordered the whole block).
    pub separator: u64,
}

impl FactorStats {
    fn of(factor: &SparseLdlt) -> Self {
        FactorStats {
            nnz_l: factor.nnz_l() as u64,
            fill: factor.fill(),
            flops: factor.factor_flops(),
            solve_flops: factor.solve_flops(),
            bytes: factor.bytes() as u64,
            skipped: factor.n_skipped() as u64,
            supernodes: factor.supernodes() as u64,
            max_front: factor.max_front() as u64,
            separator: factor.separator() as u64,
        }
    }

    /// One record for a whole run: the largest rank's sizes, the skipped
    /// pivots summed over the ranks. `None` when no rank factored.
    pub fn over_ranks(ranks: &[FactorStats]) -> Option<FactorStats> {
        let mut total = *ranks.first()?;
        for r in &ranks[1..] {
            total.nnz_l = total.nnz_l.max(r.nnz_l);
            total.fill = total.fill.max(r.fill);
            total.flops = total.flops.max(r.flops);
            total.solve_flops = total.solve_flops.max(r.solve_flops);
            total.bytes = total.bytes.max(r.bytes);
            total.skipped += r.skipped;
            total.supernodes = total.supernodes.max(r.supernodes);
            total.max_front = total.max_front.max(r.max_front);
            total.separator = total.separator.max(r.separator);
        }
        Some(total)
    }

    /// The record as trace fields (`factor_*` keys).
    pub fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("factor_nnz_l".to_string(), Value::U64(self.nnz_l)),
            ("factor_fill".to_string(), Value::F64(self.fill)),
            ("factor_flops".to_string(), Value::U64(self.flops)),
            (
                "factor_solve_flops".to_string(),
                Value::U64(self.solve_flops),
            ),
            ("factor_bytes".to_string(), Value::U64(self.bytes)),
            ("factor_skipped".to_string(), Value::U64(self.skipped)),
            ("factor_supernodes".to_string(), Value::U64(self.supernodes)),
            ("factor_max_front".to_string(), Value::U64(self.max_front)),
            ("factor_separator".to_string(), Value::U64(self.separator)),
        ]
    }
}

/// What the rank-side preconditioner build recorded: the coarse build of a
/// two-level spec, the subdomain factorization of a `direct` one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PrecondBuildStats {
    pub coarse: Option<CoarseBuildStats>,
    pub factor: Option<FactorStats>,
}

/// The rank-side preconditioner build (the `precond-build` rank span): the
/// two-level coarse space over the rank's operator `op` when the spec asks
/// for one (`mult` and `d` are the dof multiplicity and scaling diagonal
/// over the rank's rows), then the registry instantiation from the rank's
/// scaled matrix in the storage it holds (`local`; only `direct` and `ilu0`
/// read it) and the lazily assembled diagonal. A
/// subdomain factorization is charged to the rank clock here, once. A failed
/// build (ILU(0) on a floating subdomain) is [`SolveError::Precond`].
pub(crate) fn build_precond<Op, M>(
    op: &Op,
    coarse: Option<CoarsePlan<'_>>,
    mult: &[f64],
    d: &[f64],
    local: &M,
    diag: impl FnOnce() -> Vec<f64>,
    spec: &PrecondSpec,
) -> Result<(SpecPrecond, PrecondBuildStats), SolveError>
where
    Op: CoarseSetup + DistributedOperator,
    M: SparseRows + ?Sized,
{
    let comm = op.comm();
    rank_span(comm, "precond-build", || {
        let (solver, coarse) = coarse
            .map(|plan| {
                let (built, stats) = build_rank_coarse(op, plan, mult, d);
                (built.solver(op.partition_weights()), stats)
            })
            .unzip();
        let precond = spec.instantiate(solver, Some(local), diag)?;
        let factor = precond.subdomain_factor().map(FactorStats::of);
        if let Some(f) = &factor {
            comm.work(f.flops);
        }
        Ok((precond, PrecondBuildStats { coarse, factor }))
    })
}

/// What one rank returns.
pub(crate) struct RankRun {
    /// The rank's piece of each solution the host gathers: one per load,
    /// the final displacement of a transient.
    pub pieces: Vec<Vec<f64>>,
    /// The convergence history of every solve, in order.
    pub histories: Vec<ConvergenceHistory>,
    /// Per watched DOF of a transient, its value after every step, or
    /// nothing when the rank does not hold it.
    pub watch: Vec<Vec<f64>>,
    /// The record of the rank's preconditioner build.
    pub built: PrecondBuildStats,
}

/// The one rank body, over any [`Communicator`] — the raw [`ThreadComm`] in
/// fault-free runs, a [`FaultyComm`] under chaos: setup and preconditioner
/// once, then one FGMRES per right-hand side, or per Newmark step, on a
/// shared Krylov workspace.
fn rank_body<D: Decomposition, C: Communicator>(
    parts: &D,
    comm: &C,
    coarse: Option<CoarsePlan<'_>>,
    problem: &Problem<'_>,
    drive: Drive<'_>,
    cfg: &SolverConfig,
) -> Result<RankRun, SolveError> {
    let mass_shift = match drive {
        Drive::Newmark(run) => Some(run.params.effective_coefficients().0),
        _ => None,
    };
    let (rank, built) = parts.rank_setup(comm, coarse, mass_shift, cfg)?;
    // What the rank holds going into its solves, and the most it held while
    // setting up (rank threads start empty, so the peak covers assembly,
    // scaling and the preconditioner build).
    if let (true, Some(t)) = (alloc::is_counting(), comm.tracer()) {
        t.add_count("setup_live_bytes", alloc::live_bytes());
        t.add_count("setup_peak_bytes", alloc::peak_bytes());
    }
    // Every solve runs against the same operator and preconditioner, so
    // each one after the first recycles the deflation space of the one
    // before it.
    let mut ws = KrylovWorkspace::for_fixed_operator();
    let mut out = RankRun {
        pieces: Vec::new(),
        histories: Vec::new(),
        watch: Vec::new(),
        built,
    };
    let count = match drive {
        Drive::Own => 1,
        Drive::Global(set) => set.len(),
        Drive::Newmark(run) => {
            return newmark_steps::<D, C>(&rank, problem, run, cfg, &mut ws, out)
        }
    };
    for k in 0..count {
        let b = match drive {
            Drive::Global(set) => {
                let mut b = rank.restrict_load(&set[k], problem.dof_map);
                dense::diag_mul(&rank.d, &mut b);
                Cow::Owned(b)
            }
            _ => Cow::Borrowed(&rank.b),
        };
        let x0 = vec![0.0; b.len()];
        let mut res = fgmres_on(&rank.op, &rank.precond, &b, &x0, &cfg.gmres, &mut ws)?;
        dense::diag_mul(&rank.d, &mut res.x);
        out.pieces.push(res.x);
        out.histories.push(res.history);
    }
    Ok(out)
}

/// Splits the per-rank outcomes of a fallible run. A rank *panic* is a bug
/// (not an injected fault) and propagates as a panic; typed [`SolveError`]s
/// collect into [`SolveFailures`]; a clean run yields the per-rank values.
fn collect_rank_results<R>(
    results: Vec<Result<Result<R, SolveError>, parfem_msg::RankPanic>>,
    reports: Vec<RankReport>,
    modeled_time: f64,
) -> Result<(Vec<R>, Vec<RankReport>, f64), SolveFailures> {
    let mut values = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for (rank, res) in results.into_iter().enumerate() {
        match res {
            Ok(Ok(v)) => values.push(v),
            Ok(Err(e)) => errors.push((rank, e)),
            Err(p) => panic!("rank panicked: {}", p.message),
        }
    }
    if errors.is_empty() {
        Ok((values, reports, modeled_time))
    } else {
        Err(SolveFailures {
            errors,
            reports,
            modeled_time,
        })
    }
}
