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
//! `run` and `run_multi` are one engine: host prepare (partition; for RDD
//! the global assembly and scaling — EDD ranks assemble their own
//! subdomain systems) → coarse geometry → one rank launch, with
//! one fault wrap → one rank body (setup, `precond-build`, then one FGMRES
//! per right-hand side on a shared Krylov workspace) → collection, `gather`
//! and the `solve_summary`. What EDD and RDD do differently sits
//! behind the crate-private `Decomposition` trait, implemented next to each
//! operator (`EddParts` in [`crate::edd`], `RddParts` in [`crate::rdd`]);
//! `run` feeds the engine the systems' own load (the only one that carries
//! an inhomogeneous-Dirichlet lift), `run_multi` feeds it `k` global loads.
//! The FNV-1a digests in `tests/golden.rs` pin the results bit for bit.

use crate::coarse::{build_rank_coarse, CoarseBuildStats, CoarsePlan};
use crate::dynamic::{run_dynamic_edd, DynamicRunOutput};
use crate::edd::{EddParts, EddVariant};
use crate::error::SolveError;
use crate::rdd::RddParts;
use parfem_fem::{assembly::StaticSystem, Material, NewmarkParams, Physics, SubdomainSystem};
use parfem_krylov::gmres::{GmresConfig, GmresResult};
use parfem_krylov::history::ConvergenceHistory;
use parfem_krylov::{DistributedOperator, KrylovWorkspace};
use parfem_mesh::{
    DofMap, ElementPartition, HexMesh, NodePartition, PartitionerSpec, QuadMesh, Subdomain,
};
use parfem_msg::{
    try_run_ranks, Communicator, FaultPlan, FaultyComm, MachineModel, RankReport, RunOptions,
    ThreadComm,
};
use parfem_precond::twolevel::{CoarsePartGeometry, CoarseSetup, CoarseSpec, SpecPrecond};
pub use parfem_precond::PrecondSpec;

use parfem_sparse::{CsrMatrix, SparseLdlt};
use parfem_trace::{alloc, TraceSink, Value};
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
}

/// Everything a failed distributed solve still knows.
///
/// Returned by [`SolveSession::run`] / [`SolveSession::run_multi`] when at
/// least one rank hit a typed [`SolveError`], or when the session's options
/// cannot run on its input ([`SolveError::Config`], reported before any
/// rank spawns: `reports` is empty then). Ranks that completed normally
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
        if self.is_config_error() {
            return write!(f, "{first}");
        }
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

impl SolveFailures {
    /// A failure found while preparing the run, before any rank spawned.
    fn before_spawn(error: SolveError) -> Self {
        SolveFailures {
            errors: vec![(0, error)],
            reports: Vec::new(),
            modeled_time: 0.0,
        }
    }

    /// Whether the session was rejected as misconfigured (as opposed to
    /// failing while it ran).
    pub fn is_config_error(&self) -> bool {
        matches!(self.errors.first(), Some((_, SolveError::Config { .. })))
    }
}

impl std::error::Error for SolveFailures {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.errors
            .first()
            .map(|(_, e)| e as &(dyn std::error::Error + 'static))
    }
}

/// The mesh a [`Problem`] discretizes: the structured 2-D quadrilateral
/// family (elasticity and scalar heat) or the 3-D hexahedral box.
#[derive(Clone, Copy)]
pub enum ProblemMesh<'a> {
    /// A structured 2-D quadrilateral mesh.
    Quad(&'a QuadMesh),
    /// A structured 3-D hexahedral mesh.
    Hex(&'a HexMesh),
}

/// A borrowed view of the mesh-level problem a session solves: geometry,
/// physics, constraints, material and the global load vector.
#[derive(Clone, Copy)]
pub struct Problem<'a> {
    mesh: ProblemMesh<'a>,
    physics: Physics,
    /// DOF numbering and Dirichlet constraints.
    pub dof_map: &'a DofMap,
    /// Material parameters.
    pub material: &'a Material,
    /// Global load vector (`dof_map.n_dofs()` long).
    pub loads: &'a [f64],
}

impl<'a> Problem<'a> {
    /// The 2-D elasticity problem of the paper (two displacement DOFs per
    /// node on a quadrilateral mesh) — the historical constructor; results
    /// are bit-identical to the pre-physics-axis sessions.
    pub fn new(
        mesh: &'a QuadMesh,
        dof_map: &'a DofMap,
        material: &'a Material,
        loads: &'a [f64],
    ) -> Self {
        Self::with_physics(
            ProblemMesh::Quad(mesh),
            Physics::Elasticity2d,
            dof_map,
            material,
            loads,
        )
    }

    /// A scalar Poisson/steady-heat problem on a quadrilateral mesh (one
    /// temperature DOF per node).
    pub fn heat(
        mesh: &'a QuadMesh,
        dof_map: &'a DofMap,
        material: &'a Material,
        loads: &'a [f64],
    ) -> Self {
        Self::with_physics(
            ProblemMesh::Quad(mesh),
            Physics::Heat2d,
            dof_map,
            material,
            loads,
        )
    }

    /// A 3-D elasticity problem on a hexahedral mesh (three displacement
    /// DOFs per node).
    pub fn elasticity3d(
        mesh: &'a HexMesh,
        dof_map: &'a DofMap,
        material: &'a Material,
        loads: &'a [f64],
    ) -> Self {
        Self::with_physics(
            ProblemMesh::Hex(mesh),
            Physics::Elasticity3d,
            dof_map,
            material,
            loads,
        )
    }

    /// The general constructor: any supported (mesh, physics) pairing.
    ///
    /// # Panics
    /// Panics when the load vector or the DOF map's DOFs-per-node count does
    /// not match the physics, or when the physics' spatial dimension does
    /// not match the mesh.
    pub fn with_physics(
        mesh: ProblemMesh<'a>,
        physics: Physics,
        dof_map: &'a DofMap,
        material: &'a Material,
        loads: &'a [f64],
    ) -> Self {
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
        let mesh_dim = match mesh {
            ProblemMesh::Quad(_) => 2,
            ProblemMesh::Hex(_) => 3,
        };
        assert_eq!(
            physics.dim(),
            mesh_dim,
            "{physics} needs a {}-D mesh",
            physics.dim()
        );
        Problem {
            mesh,
            physics,
            dof_map,
            material,
            loads,
        }
    }

    /// The mesh this problem discretizes.
    pub fn mesh(&self) -> ProblemMesh<'a> {
        self.mesh
    }

    /// The physics assembled on the mesh.
    pub fn physics(&self) -> Physics {
        self.physics
    }

    /// Node coordinates lifted to 3-D (`z = 0` on 2-D meshes) — the
    /// geometry the rigid-body coarse modes consume.
    pub fn coords3(&self) -> Vec<[f64; 3]> {
        match self.mesh {
            ProblemMesh::Quad(m) => m.coords().iter().map(|c| [c[0], c[1], 0.0]).collect(),
            ProblemMesh::Hex(m) => m.coords().to_vec(),
        }
    }

    /// Element-partitions this problem's mesh into the subdomain node sets.
    pub(crate) fn subdomains(&self, part: &ElementPartition) -> Vec<Subdomain> {
        match self.mesh {
            ProblemMesh::Quad(m) => part.subdomains(m),
            ProblemMesh::Hex(m) => part.subdomains_of(m),
        }
    }

    /// Assembles one subdomain's unassembled local system for this
    /// problem's physics — with the (lumped or consistent) mass under
    /// `with_mass`, which only 2-D elasticity has.
    pub(crate) fn build_subdomain(
        &self,
        sub: &Subdomain,
        with_mass: Option<bool>,
    ) -> SubdomainSystem {
        assert!(
            with_mass.is_none() || self.physics == Physics::Elasticity2d,
            "only 2-D elasticity assembles a mass"
        );
        match (self.mesh, self.physics) {
            (ProblemMesh::Quad(m), Physics::Elasticity2d) => {
                SubdomainSystem::build(m, self.dof_map, self.material, sub, self.loads, with_mass)
            }
            (ProblemMesh::Quad(m), Physics::Heat2d) => {
                SubdomainSystem::build_heat(m, self.dof_map, self.material, sub, self.loads)
            }
            (ProblemMesh::Hex(m), Physics::Elasticity3d) => {
                SubdomainSystem::build_hex(m, self.dof_map, self.material, sub, self.loads)
            }
            // `with_physics` pins the mesh dimension to the physics.
            _ => unreachable!("mesh/physics pairing validated at construction"),
        }
    }

    /// Assembles the constrained global static system for this problem's
    /// physics (the RDD baseline's input).
    pub(crate) fn build_static(&self) -> StaticSystem {
        match (self.mesh, self.physics) {
            (ProblemMesh::Quad(m), Physics::Elasticity2d) => {
                parfem_fem::assembly::build_static(m, self.dof_map, self.material, self.loads)
            }
            (ProblemMesh::Quad(m), Physics::Heat2d) => {
                parfem_fem::assembly::build_static_heat(m, self.dof_map, self.material, self.loads)
            }
            (ProblemMesh::Hex(m), Physics::Elasticity3d) => {
                parfem_fem::assembly::build_static_hex(m, self.dof_map, self.material, self.loads)
            }
            _ => unreachable!("mesh/physics pairing validated at construction"),
        }
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

enum SessionInput<'a> {
    Mesh(Problem<'a>),
    Systems {
        systems: &'a [SubdomainSystem],
        n_dofs: usize,
    },
}

/// Builder-style distributed solve: construct from a [`Problem`] (or
/// prebuilt subdomain systems), choose the orthogonal options, then
/// [`run`](SolveSession::run), [`run_multi`](SolveSession::run_multi) or
/// [`run_dynamic`](SolveSession::run_dynamic). See the [module
/// docs](self) for an example.
pub struct SolveSession<'a> {
    input: SessionInput<'a>,
    strategy: Option<Strategy>,
    cfg: SolverConfig,
    model: MachineModel,
    sink: Option<&'a TraceSink>,
}

impl<'a> SolveSession<'a> {
    /// Starts a session over a mesh-level [`Problem`]. A
    /// [`strategy`](SolveSession::strategy) must be chosen before running.
    pub fn new(problem: Problem<'a>) -> Self {
        Self::over(SessionInput::Mesh(problem))
    }

    fn over(input: SessionInput<'a>) -> Self {
        SolveSession {
            input,
            strategy: None,
            cfg: SolverConfig::default(),
            model: MachineModel::ideal(),
            sink: None,
        }
    }

    /// Starts a session over *prebuilt* per-subdomain systems — one rank
    /// per system. This is the element-agnostic entry: build the systems
    /// with [`SubdomainSystem::build`] (Q4), `build_tri` (T3) or
    /// `build_quad8` (Q8) and hand them over. The strategy is implicitly
    /// EDD; do not set [`strategy`](SolveSession::strategy).
    pub fn from_systems(systems: &'a [SubdomainSystem], n_dofs: usize) -> Self {
        assert!(!systems.is_empty(), "need at least one subdomain system");
        Self::over(SessionInput::Systems { systems, n_dofs })
    }

    /// Chooses the decomposition strategy (and its partition).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Chooses EDD over the element partition `spec` produces for `parts`
    /// subdomains — the session-builder face of the CLI's `--partitioner`
    /// flag (`strips`, `blocks`, or the seeded graph partitioner). Works
    /// for every supported mesh: the partitioner registry is generic over
    /// structured cell meshes, hexahedra included.
    ///
    /// # Panics
    /// Panics for sessions built from prebuilt systems (those are already
    /// partitioned).
    pub fn partitioned(mut self, spec: PartitionerSpec, parts: usize) -> Self {
        let SessionInput::Mesh(ref p) = self.input else {
            panic!("partitioned() needs a mesh-level session; prebuilt systems already are");
        };
        let part = match p.mesh() {
            ProblemMesh::Quad(m) => spec.element_partition(m, parts),
            ProblemMesh::Hex(m) => spec.element_partition(m, parts),
        };
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
    /// with a typed [`SolveError`] (possible only under fault injection or
    /// communicator timeouts), or the [`SolveError::Config`] that rejected
    /// the option combination before any rank spawned (`twolevel:rbm*` on
    /// prebuilt systems, which carry no node coordinates).
    ///
    /// # Panics
    /// Panics on API misuse: a mesh-level session without a strategy, or a
    /// prebuilt-systems session with one.
    pub fn run(&self) -> Result<DdSolveOutput, SolveFailures> {
        let mut out = self.solve(Loads::Own)?;
        Ok(DdSolveOutput {
            u: out.solutions.remove(0),
            history: out.histories.remove(0),
            reports: out.reports,
            modeled_time: out.modeled_time,
            coarse: out.coarse,
            factor: out.factor,
        })
    }

    /// Solves the session's system for **many right-hand sides**, sharing
    /// one partition, assembly, scaling, preconditioner and Krylov
    /// workspace across all of them. Each `rhs_set[k]` is a global load
    /// vector (`dof_map.n_dofs()` long); `solutions[k]` is its physical
    /// solution.
    ///
    /// Requires the mesh-level problem (the load vectors are global) and
    /// **homogeneous** Dirichlet constraints — the per-RHS local load
    /// rebuild `f̂ᵢ = fᵢ/multᵢ` with zeroed constrained rows is exact only
    /// when the prescribed values are zero. The first right-hand side
    /// produces bit-identical results to [`SolveSession::run`] on the same
    /// loads.
    ///
    /// # Errors
    /// Returns [`SolveFailures`] exactly as [`SolveSession::run`].
    ///
    /// # Panics
    /// Panics on inhomogeneous constraints, wrong load-vector lengths, a
    /// prebuilt-systems input, or a missing strategy.
    pub fn run_multi(&self, rhs_set: &[Vec<f64>]) -> Result<MultiSolveOutput, SolveFailures> {
        let SessionInput::Mesh(p) = &self.input else {
            panic!("run_multi needs the mesh-level problem: the right-hand sides are global load vectors");
        };
        for (d, v) in p.dof_map.fixed_dofs() {
            assert_eq!(v, 0.0, "run_multi requires homogeneous BCs (dof {d})");
        }
        for rhs in rhs_set {
            assert_eq!(
                rhs.len(),
                p.dof_map.n_dofs(),
                "right-hand side does not match the DOF map"
            );
        }
        self.solve(Loads::Global(rhs_set))
    }

    /// Dispatches input × strategy to the one engine; the arms differ only
    /// in how the host prepares the partitioned problem.
    fn solve(&self, loads: Loads<'_>) -> Result<MultiSolveOutput, SolveFailures> {
        match (&self.input, &self.strategy) {
            (SessionInput::Systems { systems, n_dofs }, None) => {
                self.engine(loads, |_| EddParts::prebuilt(systems, *n_dofs))
            }
            (SessionInput::Systems { .. }, Some(_)) => panic!(
                "prebuilt subdomain systems already encode the partition; do not set .strategy(..)"
            ),
            (SessionInput::Mesh(p), Some(Strategy::Edd(part))) => {
                self.engine(loads, |sink| EddParts::partition(p, part, sink))
            }
            (SessionInput::Mesh(p), Some(Strategy::Rdd(part))) => self.engine(loads, |sink| {
                RddParts::assemble(p, part, self.cfg.overlap, sink)
            }),
            (SessionInput::Mesh(_), None) => {
                panic!("SolveSession over a mesh needs .strategy(Strategy::Edd(..) | Strategy::Rdd(..))")
            }
        }
    }

    /// The engine behind [`SolveSession::run`] and
    /// [`SolveSession::run_multi`]: host prepare → coarse geometry → one
    /// launch of the one rank body → collection → gather → summary, over
    /// whichever [`Decomposition`] `prepare` builds.
    ///
    /// When `cfg.faults` is set, every rank's communicator is wrapped in a
    /// [`FaultyComm`] driven by the shared [`FaultPlan`], and
    /// `cfg.comm_timeout` bounds every blocking wait, so even a killed rank
    /// tears the run down with errors on every survivor instead of a hang.
    fn engine<D: Decomposition>(
        &self,
        loads: Loads<'_>,
        prepare: impl FnOnce(&TraceSink) -> D,
    ) -> Result<MultiSolveOutput, SolveFailures> {
        let disabled = TraceSink::disabled();
        let sink = self.sink.unwrap_or(&disabled);
        let cfg = &self.cfg;
        // Taken before the host assembles anything, so the summary's
        // allocation totals cover the same window for every strategy.
        let alloc_start = alloc::stats();
        let parts = prepare(sink);
        let coarse = prepare_coarse(&cfg.precond, sink, |cs| parts.coarse_geometry(cs))?;
        let opts = RunOptions {
            comm_timeout: cfg.comm_timeout,
        };
        let body = |comm: &ThreadComm| {
            let plan = coarse.as_ref().map(|(spec, geometry)| CoarsePlan {
                spec,
                n_comp: parts.dofs_per_node(),
                geo: &geometry[comm.rank()],
            });
            match &cfg.faults {
                Some(faults) => {
                    let faulty = FaultyComm::new(comm, faults.clone());
                    rank_body(&parts, &faulty, plan, loads, cfg)
                }
                None => rank_body(&parts, comm, plan, loads, cfg),
            }
        };
        let out = try_run_ranks(parts.n_ranks(), self.model.clone(), opts, sink, body);
        let (mut results, reports, modeled_time) =
            collect_rank_results(out.results, out.reports, out.modeled_time)?;

        let solutions = host_span(sink, "gather", || {
            (0..loads.count())
                .map(|k| parts.gather(results.iter().map(|(solves, _)| solves[k].x.as_slice())))
                .collect()
        });
        let solved = MultiSolveOutput {
            solutions,
            coarse: results.iter().filter_map(|r| r.1.coarse).collect(),
            factor: results.iter().filter_map(|r| r.1.factor).collect(),
            // The history is identical on every rank; keep rank 0's.
            histories: (results.swap_remove(0).0.into_iter())
                .map(|solve| solve.history)
                .collect(),
            reports,
            modeled_time,
        };
        emit_solve_summary(sink, parts.label(cfg), cfg, &solved, alloc_start);
        Ok(solved)
    }

    /// Runs `steps` Newmark time steps of `M ü + K u = f` (constant load,
    /// zero initial conditions, homogeneous Dirichlet BCs) with the EDD
    /// distributed solver in the loop, watching the global DOFs in
    /// `watch_dofs`. The session's solver configuration (preconditioner,
    /// variant, overlap, GMRES settings) applies to every step's solve;
    /// fault plans are ignored (the transient driver runs fault-free).
    ///
    /// # Panics
    /// Panics unless the session holds a mesh-level problem with an EDD
    /// strategy, if the DOF map carries non-zero prescribed values, or if
    /// the preconditioner spec is two-level (the transient driver has no
    /// coarse-space plumbing).
    pub fn run_dynamic(
        &self,
        params: NewmarkParams,
        steps: usize,
        watch_dofs: &[usize],
    ) -> DynamicRunOutput {
        let SessionInput::Mesh(p) = &self.input else {
            panic!("run_dynamic needs the mesh-level problem (mass assembly)")
        };
        let Some(Strategy::Edd(part)) = &self.strategy else {
            panic!("the transient driver is EDD-only: set .strategy(Strategy::Edd(..))")
        };
        assert!(
            !self.cfg.precond.needs_coarse(),
            "the transient driver does not support two-level preconditioning; \
             use a one-level preconditioner spec"
        );
        assert_eq!(
            p.physics,
            Physics::Elasticity2d,
            "the transient driver integrates the 2-D elasticity equations of motion only"
        );
        run_dynamic_edd(
            p,
            part,
            self.model.clone(),
            &self.cfg,
            params,
            steps,
            watch_dofs,
        )
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

/// Host-side preparation of a two-level run, under the `coarse-build` host
/// span: the spec's coarse component and the per-part geometry the ranks
/// start from (`None` for one-level specs). Nothing of the coarse space
/// itself is built here. A spec the input cannot serve is rejected here, as
/// a typed error, before any rank spawns.
fn prepare_coarse<'s>(
    spec: &'s PrecondSpec,
    sink: &TraceSink,
    geometry: impl FnOnce(&CoarseSpec) -> Result<Vec<CoarsePartGeometry>, SolveError>,
) -> Result<Option<(&'s CoarseSpec, Vec<CoarsePartGeometry>)>, SolveFailures> {
    let PrecondSpec::TwoLevel { coarse, .. } = spec else {
        return Ok(None);
    };
    let parts = host_span(sink, "coarse-build", || geometry(coarse))
        .map_err(SolveFailures::before_spawn)?;
    Ok(Some((coarse, parts)))
}

/// The right-hand sides one engine run solves for.
#[derive(Clone, Copy)]
enum Loads<'a> {
    /// The load the session's systems were assembled with — the only source
    /// that carries an inhomogeneous-Dirichlet lift (`f − K ū` on the free
    /// rows, `ū` on the fixed ones), which is why `run()` is not `run_multi`
    /// of one global vector.
    Own,
    /// Global load vectors, restricted and scaled on the ranks with the
    /// constrained rows zeroed: exact for homogeneous constraints only.
    Global(&'a [Vec<f64>]),
}

impl<'a> Loads<'a> {
    fn count(&self) -> usize {
        match self {
            Loads::Own => 1,
            Loads::Global(set) => set.len(),
        }
    }

    /// The `k`-th global load vector; `None` stands for the systems' own.
    fn get(&self, k: usize) -> Option<&'a [f64]> {
        match self {
            Loads::Own => None,
            Loads::Global(set) => Some(&set[k]),
        }
    }
}

/// The strategy seam of the engine: everything the two decompositions do
/// differently, and nothing else. One value describes the whole partitioned
/// problem on the host; the ranks share it by reference. Launch, fault
/// wrap, the right-hand-side loop, collection, the `gather` span and the
/// summary are the engine's.
pub(crate) trait Decomposition: Sync {
    /// What a rank holds once its setup ran.
    type Rank;

    fn n_ranks(&self) -> usize;

    fn dofs_per_node(&self) -> usize;

    /// The `variant` label of the `solve_summary`.
    fn label(&self, cfg: &SolverConfig) -> &'static str;

    /// Per-part geometry for a two-level spec, or the typed reason this
    /// input cannot serve it.
    fn coarse_geometry(&self, spec: &CoarseSpec) -> Result<Vec<CoarsePartGeometry>, SolveError>;

    /// The rank's setup up to and including its preconditioner.
    fn rank_setup<C: Communicator>(
        &self,
        comm: &C,
        coarse: Option<CoarsePlan<'_>>,
        cfg: &SolverConfig,
    ) -> (Self::Rank, PrecondBuildStats);

    /// One FGMRES on this rank for `load` (see [`Loads::get`]), returning
    /// the rank's piece of the solution in the form [`Self::gather`] takes.
    fn rank_solve<C: Communicator>(
        &self,
        comm: &C,
        rank: &Self::Rank,
        load: Option<&[f64]>,
        cfg: &SolverConfig,
        ws: &mut KrylovWorkspace,
    ) -> Result<GmresResult, SolveError>;

    /// The physical global solution from every rank's piece, in rank order.
    fn gather<'r>(&self, pieces: impl Iterator<Item = &'r [f64]>) -> Vec<f64>;
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
/// scaled matrix as CSR (`local`; `None` when the spec reads no matrix and
/// the rank keeps none in that form) and the lazily assembled diagonal. A
/// subdomain factorization is charged to the rank clock here, once.
pub(crate) fn build_precond<Op>(
    op: &Op,
    coarse: Option<CoarsePlan<'_>>,
    mult: &[f64],
    d: &[f64],
    local: Option<&CsrMatrix>,
    diag: impl FnOnce() -> Vec<f64>,
    spec: &PrecondSpec,
) -> (SpecPrecond, PrecondBuildStats)
where
    Op: CoarseSetup + DistributedOperator,
{
    let comm = op.comm();
    if let Some(t) = comm.tracer() {
        t.span_begin("precond-build", comm.virtual_time());
    }
    let (solver, coarse) = coarse
        .map(|plan| {
            let (built, stats) = build_rank_coarse(op, plan, mult, d);
            (built.solver(op.partition_weights()), stats)
        })
        .unzip();
    let precond = spec.instantiate(solver, local, diag);
    let factor = precond.subdomain_factor().map(FactorStats::of);
    if let Some(f) = &factor {
        comm.work(f.flops);
    }
    if let Some(t) = comm.tracer() {
        t.span_end("precond-build", comm.virtual_time());
    }
    (precond, PrecondBuildStats { coarse, factor })
}

/// What one rank returns: its piece of the solution and the convergence
/// history per right-hand side, and the record of its preconditioner build.
type RankSolves = (Vec<GmresResult>, PrecondBuildStats);

/// The one rank body, over any [`Communicator`] — the raw [`ThreadComm`] in
/// fault-free runs, a [`FaultyComm`] under chaos: setup and preconditioner
/// once, then one FGMRES per right-hand side on a shared Krylov workspace.
fn rank_body<D: Decomposition, C: Communicator>(
    parts: &D,
    comm: &C,
    coarse: Option<CoarsePlan<'_>>,
    loads: Loads<'_>,
    cfg: &SolverConfig,
) -> Result<RankSolves, SolveError> {
    let (rank, built) = parts.rank_setup(comm, coarse, cfg);
    // What the rank holds going into its solves, and the most it held while
    // setting up (rank threads start empty, so the peak covers assembly,
    // scaling and the preconditioner build).
    if let (true, Some(t)) = (alloc::is_counting(), comm.tracer()) {
        t.add_count("setup_live_bytes", alloc::live_bytes());
        t.add_count("setup_peak_bytes", alloc::peak_bytes());
    }
    let mut ws = KrylovWorkspace::new();
    let solves = (0..loads.count())
        .map(|k| parts.rank_solve(comm, &rank, loads.get(k), cfg, &mut ws))
        .collect::<Result<_, _>>()?;
    Ok((solves, built))
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
