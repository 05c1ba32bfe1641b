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
//! ([`SolveSession::run_dynamic`]). Any combination composes; results are
//! bit-identical to the historical `solve_*` entry points (pinned by the
//! FNV-1a golden digests in `tests/golden.rs`).

use crate::coarse::{
    build_rank_coarse, edd_part_geometry, rdd_part_geometry, CoarseBuildStats, CoarsePlan,
};
use crate::dist_vec::EddLayout;
use crate::dynamic::{run_dynamic_edd, DynamicRunConfig, DynamicRunOutput};
use crate::edd::{edd_fgmres_metered, EddOperator, EddVariant};
use crate::error::SolveError;
use crate::rdd::{rdd_fgmres_metered, RddOperator, RddSystem};
use crate::scaling::DistributedScaling;
use parfem_fem::{assembly::StaticSystem, Material, NewmarkParams, Physics, SubdomainSystem};
use parfem_krylov::gmres::GmresConfig;
use parfem_krylov::history::ConvergenceHistory;
use parfem_krylov::KrylovWorkspace;
use parfem_mesh::{
    DofMap, ElementPartition, HexMesh, NodePartition, PartitionerSpec, QuadMesh, Subdomain,
};
use parfem_msg::{
    try_run_ranks, Communicator, FaultPlan, FaultStats, FaultyComm, MachineModel, RankReport,
    RunOptions, ThreadComm,
};
use parfem_precond::twolevel::{CoarsePartGeometry, CoarseSetup, CoarseSpec, SpecPrecond};
pub use parfem_precond::PrecondSpec;

use parfem_sparse::{dense, scaling::scale_system, CsrMatrix, KernelPolicy};
use parfem_trace::{alloc, MetricsRegistry, TraceSink, Value};
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
    /// Metrics sink for the whole session. Disabled by default (zero
    /// overhead); an enabled registry collects solver counters (iterations,
    /// restarts, preconditioner applies, convergence outcomes — recorded on
    /// rank 0 to avoid SPMD double counting), aggregate communication and
    /// flop counters summed over the per-rank [`CommStats`], fault-injection
    /// counters from the [`FaultyComm`] machinery, and session-level gauges
    /// and histograms. Render with [`MetricsRegistry::render`].
    ///
    /// [`CommStats`]: parfem_msg::CommStats
    pub metrics: MetricsRegistry,
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
            metrics: MetricsRegistry::disabled(),
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

    /// The quadrilateral mesh, for the 2-D-only paths (`partitioned()`, the
    /// transient driver).
    ///
    /// # Panics
    /// Panics on a hexahedral mesh, naming the caller `what`.
    fn quad_mesh(&self, what: &str) -> &'a QuadMesh {
        match self.mesh {
            ProblemMesh::Quad(m) => m,
            ProblemMesh::Hex(_) => panic!("{what} supports 2-D quadrilateral meshes only"),
        }
    }

    /// Element-partitions this problem's mesh into the subdomain node sets.
    fn subdomains(&self, part: &ElementPartition) -> Vec<Subdomain> {
        match self.mesh {
            ProblemMesh::Quad(m) => part.subdomains(m),
            ProblemMesh::Hex(m) => part.subdomains_of(m),
        }
    }

    /// Assembles one subdomain's unassembled local system for this
    /// problem's physics.
    fn build_subdomain(&self, sub: &Subdomain) -> SubdomainSystem {
        match (self.mesh, self.physics) {
            (ProblemMesh::Quad(m), Physics::Elasticity2d) => {
                SubdomainSystem::build(m, self.dof_map, self.material, sub, self.loads, None)
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
    fn build_static(&self) -> StaticSystem {
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
        SolveSession {
            input: SessionInput::Mesh(problem),
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
        SolveSession {
            input: SessionInput::Systems { systems, n_dofs },
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

    /// Selects the kernel-variant policy (default
    /// [`KernelPolicy::Scalar`], the bit-exact golden reference).
    /// [`KernelPolicy::Auto`] micro-benchmarks the candidate formats
    /// against each rank's local matrix at operator build time and keeps
    /// the fastest; the winning choice is recorded per solve in the
    /// metrics registry (`parfem_kernel_variant_<label>_solves_total`)
    /// and on the trace. The policy drives the EDD local SpMV and the
    /// lane-kernel Gram–Schmidt path inside FGMRES; the RDD baseline and
    /// the overlapped split schedule keep their scalar row kernels.
    pub fn kernels(mut self, policy: KernelPolicy) -> Self {
        self.cfg.gmres.kernels = policy;
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

    /// Records solver, communication, fault and session counters into the
    /// given [`MetricsRegistry`] (see [`SolverConfig::metrics`]). Pass an
    /// enabled registry; the default is disabled (zero overhead).
    pub fn metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.cfg.metrics = metrics.clone();
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
        let disabled = TraceSink::disabled();
        let sink = self.sink.unwrap_or(&disabled);
        match (&self.input, &self.strategy) {
            (SessionInput::Systems { systems, n_dofs }, None) => run_edd_systems(
                systems,
                *n_dofs,
                None,
                parfem_mesh::numbering::DOFS_PER_NODE,
                self.model.clone(),
                &self.cfg,
                sink,
            ),
            (SessionInput::Systems { .. }, Some(_)) => panic!(
                "prebuilt subdomain systems already encode the partition; do not set .strategy(..)"
            ),
            (SessionInput::Mesh(p), Some(Strategy::Edd(part))) => {
                let systems = assemble_edd(p, part, sink);
                let coords = p.coords3();
                run_edd_systems(
                    &systems,
                    p.dof_map.n_dofs(),
                    Some(&coords),
                    p.dof_map.dofs_per_node(),
                    self.model.clone(),
                    &self.cfg,
                    sink,
                )
            }
            (SessionInput::Mesh(p), Some(Strategy::Rdd(part))) => {
                run_rdd(p, part, self.model.clone(), &self.cfg, sink)
            }
            (SessionInput::Mesh(_), None) => {
                panic!("SolveSession over a mesh needs .strategy(Strategy::Edd(..) | Strategy::Rdd(..))")
            }
        }
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
        let disabled = TraceSink::disabled();
        let sink = self.sink.unwrap_or(&disabled);
        let p = match &self.input {
            SessionInput::Mesh(p) => p,
            SessionInput::Systems { .. } => panic!(
                "run_multi needs the mesh-level problem: the right-hand sides are global load vectors"
            ),
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
        match &self.strategy {
            Some(Strategy::Edd(part)) => {
                run_multi_edd(p, part, rhs_set, self.model.clone(), &self.cfg, sink)
            }
            Some(Strategy::Rdd(part)) => {
                run_multi_rdd(p, part, rhs_set, self.model.clone(), &self.cfg, sink)
            }
            None => panic!(
                "SolveSession over a mesh needs .strategy(Strategy::Edd(..) | Strategy::Rdd(..))"
            ),
        }
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
        let p = match &self.input {
            SessionInput::Mesh(p) => p,
            SessionInput::Systems { .. } => {
                panic!("run_dynamic needs the mesh-level problem (mass assembly)")
            }
        };
        let part = match &self.strategy {
            Some(Strategy::Edd(part)) => part,
            _ => panic!("the transient driver is EDD-only: set .strategy(Strategy::Edd(..))"),
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
        let cfg = DynamicRunConfig {
            solver: self.cfg.clone(),
            params,
            steps,
        };
        run_dynamic_edd(
            p.quad_mesh("run_dynamic"),
            p.dof_map,
            p.material,
            p.loads,
            part,
            self.model.clone(),
            &cfg,
            watch_dofs,
        )
    }
}

/// Partitions the mesh and assembles the per-subdomain systems under
/// host-side spans.
fn assemble_edd(
    p: &Problem<'_>,
    part: &ElementPartition,
    sink: &TraceSink,
) -> Vec<SubdomainSystem> {
    let subdomains = host_span(sink, "partition", || p.subdomains(part));
    host_span(sink, "assembly", || {
        subdomains.iter().map(|s| p.build_subdomain(s)).collect()
    })
}

/// Stamps the end-of-solve summary (consumed by `parfem report` and the
/// convergence renderer) onto the trace as a host-side `solve_summary`
/// instant event.
///
/// `host_alloc_start` is the host thread's allocation-counter snapshot
/// taken when the solve began; when the process runs under a
/// [`parfem_trace::alloc::CountingAlloc`] (the `parfem` binary's
/// `count-allocs` feature, or an instrumented test harness), the summary
/// additionally carries `alloc_count` / `alloc_bytes` for the whole solve —
/// the host thread's share plus every rank thread's — so workspace
/// regressions surface directly in `parfem report`. A two-level solve also
/// carries the `coarse_*` record of its rank-side coarse build.
fn emit_solve_summary(
    sink: &TraceSink,
    variant: &str,
    spec: &PrecondSpec,
    overlap: bool,
    out: &DdSolveOutput,
    host_alloc_start: alloc::AllocStats,
) {
    if let Some(tracer) = sink.host_tracer() {
        let mut fields = vec![
            (
                "converged".to_string(),
                Value::U64(out.history.converged() as u64),
            ),
            (
                "iterations".to_string(),
                Value::U64(out.history.iterations() as u64),
            ),
            (
                "restarts".to_string(),
                Value::U64(out.history.restarts as u64),
            ),
            (
                "final_rel_res".to_string(),
                Value::F64(
                    out.history
                        .relative_residuals
                        .last()
                        .copied()
                        .unwrap_or(f64::NAN),
                ),
            ),
            ("modeled_time".to_string(), Value::F64(out.modeled_time)),
            ("precond".to_string(), Value::Str(spec.name())),
            ("variant".to_string(), Value::Str(variant.to_string())),
            ("overlap".to_string(), Value::U64(overlap as u64)),
        ];
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
        tracer.instant("solve_summary", 0.0, fields);
    }
}

/// Sums the per-rank [`parfem_msg::CommStats`] into aggregate
/// communication/compute counters and records the modeled session time. A
/// disabled registry makes this a no-op.
fn record_comm_metrics(metrics: &MetricsRegistry, reports: &[RankReport], modeled_time: f64) {
    if !metrics.is_enabled() {
        return;
    }
    let mut total = parfem_msg::CommStats::default();
    let h_virt = metrics.histogram("parfem_rank_virtual_microseconds");
    for r in reports {
        total = total.merged(&r.stats);
        h_virt.observe((r.virtual_time * 1e6).round().max(0.0) as u64);
    }
    metrics.counter("parfem_msg_sends_total").add(total.sends);
    metrics
        .counter("parfem_msg_sent_bytes_total")
        .add(total.bytes_sent);
    metrics.counter("parfem_msg_recvs_total").add(total.recvs);
    metrics
        .counter("parfem_msg_recv_bytes_total")
        .add(total.bytes_received);
    metrics
        .counter("parfem_msg_allreduces_total")
        .add(total.allreduces);
    metrics
        .counter("parfem_msg_barriers_total")
        .add(total.barriers);
    metrics
        .counter("parfem_msg_exchanges_total")
        .add(total.neighbor_exchanges);
    metrics
        .counter("parfem_compute_flops_total")
        .add(total.flops);
    metrics
        .gauge("parfem_session_last_modeled_seconds")
        .set(modeled_time);
}

/// Folds one rank's [`FaultStats`] into the fault-injection counters. A
/// disabled registry makes this a no-op.
fn record_fault_metrics(metrics: &MetricsRegistry, stats: &FaultStats) {
    if !metrics.is_enabled() {
        return;
    }
    metrics.counter("parfem_fault_drops_total").add(stats.drops);
    metrics
        .counter("parfem_fault_retransmits_total")
        .add(stats.retransmits);
    metrics
        .counter("parfem_fault_duplicates_total")
        .add(stats.duplicates);
    metrics
        .counter("parfem_fault_delays_total")
        .add(stats.delays);
    metrics
        .counter("parfem_fault_reorders_total")
        .add(stats.reorders);
    metrics
        .counter("parfem_fault_discards_total")
        .add(stats.discards);
}

/// Bumps the session outcome counters around a run result. A disabled
/// registry makes this the identity.
fn record_session_outcome<T>(
    metrics: &MetricsRegistry,
    res: Result<T, SolveFailures>,
) -> Result<T, SolveFailures> {
    if metrics.is_enabled() {
        match &res {
            Ok(_) => metrics.counter("parfem_session_solves_total").incr(),
            Err(_) => metrics
                .counter("parfem_session_solve_failures_total")
                .incr(),
        }
    }
    res
}

/// Runs `f` under a named host-side (wall-clock) span.
fn host_span<R>(sink: &TraceSink, name: &str, f: impl FnOnce() -> R) -> R {
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

/// The coarse-space component of a two-level preconditioner spec, if any.
fn coarse_spec(spec: &PrecondSpec) -> Option<&CoarseSpec> {
    match spec {
        PrecondSpec::TwoLevel { coarse, .. } => Some(coarse),
        _ => None,
    }
}

/// What the host hands the ranks for their coarse build: the spec and each
/// rank's own part geometry. Nothing of the coarse space itself is built
/// here.
struct CoarsePrep<'s> {
    spec: &'s CoarseSpec,
    n_comp: usize,
    parts: Vec<CoarsePartGeometry>,
}

impl CoarsePrep<'_> {
    fn plan(&self, rank: usize) -> CoarsePlan<'_> {
        CoarsePlan {
            spec: self.spec,
            n_comp: self.n_comp,
            geo: &self.parts[rank],
        }
    }
}

/// Host-side preparation of a two-level run, under the `coarse-build` host
/// span: extracts the per-part geometry the ranks start from (`None` for
/// one-level specs). A spec the input cannot serve is rejected here, as a
/// typed error, before any rank spawns.
fn prepare_coarse<'s>(
    spec: &'s PrecondSpec,
    n_comp: usize,
    sink: &TraceSink,
    geometry: impl FnOnce(&CoarseSpec) -> Result<Vec<CoarsePartGeometry>, SolveError>,
) -> Result<Option<CoarsePrep<'s>>, SolveFailures> {
    let Some(cs) = coarse_spec(spec) else {
        return Ok(None);
    };
    let parts =
        host_span(sink, "coarse-build", || geometry(cs)).map_err(SolveFailures::before_spawn)?;
    Ok(Some(CoarsePrep {
        spec: cs,
        n_comp,
        parts,
    }))
}

/// The rank-side EDD preconditioner build (the `precond-build` rank span):
/// the two-level coarse space over the rank's own scaled matrix and
/// interface layout when the spec asks for one, then the registry
/// instantiation.
fn edd_build_precond<C: Communicator>(
    comm: &C,
    sys: &SubdomainSystem,
    layout: &EddLayout,
    sc: &DistributedScaling,
    a: &CsrMatrix,
    coarse: Option<CoarsePlan<'_>>,
    cfg: &SolverConfig,
) -> (SpecPrecond, Option<CoarseBuildStats>) {
    if let Some(t) = comm.tracer() {
        t.span_begin("precond-build", comm.virtual_time());
    }
    let (solver, stats) = coarse
        .map(|plan| {
            let op = EddOperator::new(a, layout, comm);
            let (built, stats) = build_rank_coarse(&op, plan, &sys.multiplicity, &sc.d);
            (built.solver(op.partition_weights()), stats)
        })
        .unzip();
    // The rank-local scaled matrix feeds the `direct` spec (exact local
    // solve); the lazy closure feeds Jacobi its assembled diagonal.
    let pc = cfg.precond.instantiate_full(solver, Some(a), || {
        let mut d = a.diagonal();
        let mut bufs = crate::dist_vec::ExchangeBuffers::new();
        layout.interface_sum_buffered(comm, &mut d, &mut bufs);
        d
    });
    if let Some(t) = comm.tracer() {
        t.span_end("precond-build", comm.virtual_time());
    }
    (pc, stats)
}

/// The rank-side RDD preconditioner build (the `precond-build` rank span):
/// the two-level coarse space over the rank's block row and halo lists when
/// the spec asks for one, then the registry instantiation. `a` and `d` are
/// the host-scaled assembled operator and its scaling diagonal, read at
/// this rank's own rows only.
fn rdd_build_precond<C: Communicator>(
    comm: &C,
    sys: &RddSystem,
    a: &CsrMatrix,
    d: &[f64],
    coarse: Option<CoarsePlan<'_>>,
    cfg: &SolverConfig,
) -> (SpecPrecond, Option<CoarseBuildStats>) {
    if let Some(t) = comm.tracer() {
        t.span_begin("precond-build", comm.virtual_time());
    }
    let (solver, stats) = coarse
        .map(|plan| {
            let op = RddOperator::new(sys, comm);
            let d_loc: Vec<f64> = sys.rows.iter().map(|&g| d[g]).collect();
            let (built, stats) = build_rank_coarse(&op, plan, &vec![1.0; sys.n_local()], &d_loc);
            (built.solver(op.partition_weights()), stats)
        })
        .unzip();
    // `a_loc` (the owned diagonal block) feeds the `direct` spec; the lazy
    // closure feeds Jacobi its diagonal.
    let pc = cfg.precond.instantiate_full(solver, Some(&sys.a_loc), || {
        sys.rows.iter().map(|&g| a.get(g, g)).collect()
    });
    if let Some(t) = comm.tracer() {
        t.span_end("precond-build", comm.virtual_time());
    }
    (pc, stats)
}

/// What a single-RHS rank body returns: its solution slice, the convergence
/// history, and the record of its coarse build (two-level specs only).
type RankSolve = (Vec<f64>, ConvergenceHistory, Option<CoarseBuildStats>);

/// The per-rank EDD pipeline: distributed scaling, preconditioner build,
/// and the flexible GMRES, over any [`Communicator`] — the raw
/// [`ThreadComm`] in fault-free runs, a [`FaultyComm`] under chaos.
fn edd_rank_body<C: Communicator>(
    comm: &C,
    sys: &SubdomainSystem,
    coarse: Option<CoarsePlan<'_>>,
    cfg: &SolverConfig,
) -> Result<RankSolve, SolveError> {
    if let Some(t) = comm.tracer() {
        t.span_begin("scaling", comm.virtual_time());
    }
    let mut layout = EddLayout::from_system(sys);
    layout.set_overlap(cfg.overlap);
    let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
    let mut b = sys.f_local.clone();
    let a = sc.apply(&sys.k_local, &mut b);
    if let Some(t) = comm.tracer() {
        t.span_end("scaling", comm.virtual_time());
    }
    let x0 = vec![0.0; b.len()];
    let (pc, coarse) = edd_build_precond(comm, sys, &layout, &sc, &a, coarse, cfg);
    let res = edd_fgmres_metered(
        comm,
        &layout,
        &a,
        &pc,
        &b,
        &x0,
        &cfg.gmres,
        cfg.variant,
        &mut KrylovWorkspace::new(),
        &cfg.metrics,
    )?;
    let mut u = res.x;
    sc.unscale(&mut u);
    Ok((u, res.history, coarse))
}

/// The per-rank multi-RHS EDD pipeline: layout, scaling, preconditioner
/// and Krylov workspace built once, then one FGMRES per right-hand side.
fn edd_multi_rank_body<C: Communicator>(
    comm: &C,
    sys: &SubdomainSystem,
    coarse: Option<CoarsePlan<'_>>,
    fixed_local: &[usize],
    rhs_set: &[Vec<f64>],
    cfg: &SolverConfig,
) -> Result<(Vec<Vec<f64>>, Vec<ConvergenceHistory>), SolveError> {
    if let Some(t) = comm.tracer() {
        t.span_begin("scaling", comm.virtual_time());
    }
    let mut layout = EddLayout::from_system(sys);
    layout.set_overlap(cfg.overlap);
    let n = sys.n_local_dofs();
    let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
    let mut dummy_rhs = vec![0.0; n];
    let a = sc.apply(&sys.k_local, &mut dummy_rhs);
    if let Some(t) = comm.tracer() {
        t.span_end("scaling", comm.virtual_time());
    }
    // A concrete `SpecPrecond` (not the boxed form): the operator type is
    // re-instantiated at every solve, so the per-RHS `b` borrows below do
    // not have to outlive the preconditioner.
    let (pc, _) = edd_build_precond(comm, sys, &layout, &sc, &a, coarse, cfg);
    let x0 = vec![0.0; n];
    let mut ws = KrylovWorkspace::new();
    let mut solutions = Vec::with_capacity(rhs_set.len());
    let mut histories = Vec::with_capacity(rhs_set.len());
    for rhs in rhs_set {
        // Local distributed load: global entries split by multiplicity,
        // constrained rows zeroed (homogeneous BCs — asserted by the
        // caller). This reproduces `SubdomainSystem::build`'s f_local.
        let mut b: Vec<f64> = sys
            .global_dofs
            .iter()
            .zip(&sys.multiplicity)
            .map(|(&g, &m)| rhs[g] / m)
            .collect();
        for &l in fixed_local {
            b[l] = 0.0;
        }
        dense::diag_mul(&sc.d, &mut b);
        let res = edd_fgmres_metered(
            comm,
            &layout,
            &a,
            &pc,
            &b,
            &x0,
            &cfg.gmres,
            cfg.variant,
            &mut ws,
            &cfg.metrics,
        )?;
        let mut u = res.x;
        sc.unscale(&mut u);
        solutions.push(u);
        histories.push(res.history);
    }
    Ok((solutions, histories))
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

/// The EDD engine over prebuilt systems: distributed scaling →
/// preconditioner → FGMRES → gather, one rank per system.
///
/// When `cfg.faults` is set, every rank's communicator is wrapped in a
/// [`FaultyComm`] driven by the shared [`FaultPlan`], and `cfg.comm_timeout`
/// bounds every blocking wait, so even a killed rank tears the run down
/// with errors on every survivor instead of a hang.
fn run_edd_systems(
    systems: &[SubdomainSystem],
    n_dofs: usize,
    coords: Option<&[[f64; 3]]>,
    dofs_per_node: usize,
    model: MachineModel,
    cfg: &SolverConfig,
    sink: &TraceSink,
) -> Result<DdSolveOutput, SolveFailures> {
    let p = systems.len();
    assert!(p > 0, "need at least one subdomain system");
    let alloc_start = alloc::stats();
    let coarse = match prepare_coarse(&cfg.precond, dofs_per_node, sink, |cs| {
        edd_part_geometry(cs, systems, coords, dofs_per_node)
    }) {
        Ok(coarse) => coarse,
        Err(rejected) => return record_session_outcome(&cfg.metrics, Err(rejected)),
    };
    let opts = RunOptions {
        comm_timeout: cfg.comm_timeout,
    };
    let out = try_run_ranks(p, model, opts, sink, |comm: &ThreadComm| {
        let sys = &systems[comm.rank()];
        let csol = coarse.as_ref().map(|c| c.plan(comm.rank()));
        match &cfg.faults {
            Some(plan) => {
                let faulty = FaultyComm::new(comm, plan.clone());
                let r = edd_rank_body(&faulty, sys, csol, cfg);
                record_fault_metrics(&cfg.metrics, &faulty.fault_stats());
                r
            }
            None => edd_rank_body(comm, sys, csol, cfg),
        }
    });
    record_comm_metrics(&cfg.metrics, &out.reports, out.modeled_time);
    let (results, reports, modeled_time) = record_session_outcome(
        &cfg.metrics,
        collect_rank_results(out.results, out.reports, out.modeled_time),
    )?;

    let mut u = vec![0.0; n_dofs];
    host_span(sink, "gather", || {
        for (rank, (ul, _, _)) in results.iter().enumerate() {
            for (l, &g) in systems[rank].global_dofs.iter().enumerate() {
                u[g] = ul[l];
            }
        }
    });
    let solved = DdSolveOutput {
        u,
        history: results[0].1.clone(),
        reports,
        modeled_time,
        coarse: results.iter().filter_map(|r| r.2).collect(),
    };
    emit_solve_summary(
        sink,
        edd_variant_label(cfg.variant),
        &cfg.precond,
        cfg.overlap,
        &solved,
        alloc_start,
    );
    Ok(solved)
}

fn edd_variant_label(variant: EddVariant) -> &'static str {
    match variant {
        EddVariant::Basic => "edd-basic",
        EddVariant::Enhanced => "edd-enhanced",
    }
}

/// The multi-RHS EDD engine: one partition/assembly/scaling/preconditioner,
/// then one solve per right-hand side, gathered per RHS.
fn run_multi_edd(
    p: &Problem<'_>,
    part: &ElementPartition,
    rhs_set: &[Vec<f64>],
    model: MachineModel,
    cfg: &SolverConfig,
    sink: &TraceSink,
) -> Result<MultiSolveOutput, SolveFailures> {
    let systems = assemble_edd(p, part, sink);
    let fixed_local: Vec<Vec<usize>> = systems
        .iter()
        .map(|sys| {
            sys.global_dofs
                .iter()
                .enumerate()
                .filter(|(_, &g)| p.dof_map.is_fixed(g))
                .map(|(l, _)| l)
                .collect()
        })
        .collect();
    let dpn = p.dof_map.dofs_per_node();
    // A mesh-level session always has coordinates: this cannot be rejected.
    let coarse = prepare_coarse(&cfg.precond, dpn, sink, |cs| {
        edd_part_geometry(cs, &systems, Some(&p.coords3()), dpn)
    })?;
    let opts = RunOptions {
        comm_timeout: cfg.comm_timeout,
    };
    let out = try_run_ranks(systems.len(), model, opts, sink, |comm: &ThreadComm| {
        let sys = &systems[comm.rank()];
        let csol = coarse.as_ref().map(|c| c.plan(comm.rank()));
        let fixed = &fixed_local[comm.rank()];
        match &cfg.faults {
            Some(plan) => {
                let faulty = FaultyComm::new(comm, plan.clone());
                let r = edd_multi_rank_body(&faulty, sys, csol, fixed, rhs_set, cfg);
                record_fault_metrics(&cfg.metrics, &faulty.fault_stats());
                r
            }
            None => edd_multi_rank_body(comm, sys, csol, fixed, rhs_set, cfg),
        }
    });
    record_comm_metrics(&cfg.metrics, &out.reports, out.modeled_time);
    let (results, reports, modeled_time) = record_session_outcome(
        &cfg.metrics,
        collect_rank_results(out.results, out.reports, out.modeled_time),
    )?;

    let n_dofs = p.dof_map.n_dofs();
    let (solutions, histories) = host_span(sink, "gather", || {
        let mut solutions = Vec::with_capacity(rhs_set.len());
        for k in 0..rhs_set.len() {
            let mut u = vec![0.0; n_dofs];
            for (rank, (sols, _)) in results.iter().enumerate() {
                for (l, &g) in systems[rank].global_dofs.iter().enumerate() {
                    u[g] = sols[k][l];
                }
            }
            solutions.push(u);
        }
        (solutions, results[0].1.clone())
    });
    Ok(MultiSolveOutput {
        solutions,
        histories,
        reports,
        modeled_time,
    })
}

/// The per-rank RDD pipeline: preconditioner build plus the block-row
/// FGMRES, over any [`Communicator`].
fn rdd_rank_body<C: Communicator>(
    comm: &C,
    sys: &RddSystem,
    a: &CsrMatrix,
    d: &[f64],
    coarse: Option<CoarsePlan<'_>>,
    cfg: &SolverConfig,
) -> Result<RankSolve, SolveError> {
    let x0 = vec![0.0; sys.n_local()];
    let (pc, coarse) = rdd_build_precond(comm, sys, a, d, coarse, cfg);
    let res = rdd_fgmres_metered(
        comm,
        sys,
        &pc,
        &x0,
        &cfg.gmres,
        &mut KrylovWorkspace::new(),
        &cfg.metrics,
    )?;
    Ok((res.x, res.history, coarse))
}

/// The RDD engine: host-side assembly and scaling, block-row split, one
/// FGMRES per rank, scatter + unscale.
fn run_rdd(
    p: &Problem<'_>,
    node_part: &NodePartition,
    model: MachineModel,
    cfg: &SolverConfig,
    sink: &TraceSink,
) -> Result<DdSolveOutput, SolveFailures> {
    let alloc_start = alloc::stats();
    let assembled = host_span(sink, "assembly", || p.build_static());
    let (a, b, sc) = host_span(sink, "scaling", || {
        scale_system(&assembled.stiffness, &assembled.rhs).expect("square assembled system")
    });
    let mut systems = RddSystem::build_all(&a, &b, node_part);
    for sys in &mut systems {
        sys.overlap = cfg.overlap;
    }
    let coarse = prepare_coarse(&cfg.precond, p.dof_map.dofs_per_node(), sink, |_| {
        Ok(rdd_part_geometry(node_part, p.dof_map, &p.coords3()))
    })?;
    let nparts = node_part.n_parts();
    let opts = RunOptions {
        comm_timeout: cfg.comm_timeout,
    };

    let out = try_run_ranks(nparts, model, opts, sink, |comm: &ThreadComm| {
        let sys = &systems[comm.rank()];
        let csol = coarse.as_ref().map(|c| c.plan(comm.rank()));
        match &cfg.faults {
            Some(plan) => {
                let faulty = FaultyComm::new(comm, plan.clone());
                let r = rdd_rank_body(&faulty, sys, &a, sc.diagonal(), csol, cfg);
                record_fault_metrics(&cfg.metrics, &faulty.fault_stats());
                r
            }
            None => rdd_rank_body(comm, sys, &a, sc.diagonal(), csol, cfg),
        }
    });
    record_comm_metrics(&cfg.metrics, &out.reports, out.modeled_time);
    let (results, reports, modeled_time) = record_session_outcome(
        &cfg.metrics,
        collect_rank_results(out.results, out.reports, out.modeled_time),
    )?;

    let mut x = vec![0.0; p.dof_map.n_dofs()];
    let solved = host_span(sink, "gather", || {
        for (rank, (xl, _, _)) in results.iter().enumerate() {
            systems[rank].scatter(xl, &mut x);
        }
        DdSolveOutput {
            u: sc.unscale_solution(&x),
            history: results[0].1.clone(),
            reports,
            modeled_time,
            coarse: results.iter().filter_map(|r| r.2).collect(),
        }
    });
    emit_solve_summary(sink, "rdd", &cfg.precond, cfg.overlap, &solved, alloc_start);
    Ok(solved)
}

/// The multi-RHS RDD engine: one assembly/scaling/split, then one
/// block-row FGMRES per right-hand side on a per-rank system whose local
/// load is swapped between solves.
fn run_multi_rdd(
    p: &Problem<'_>,
    node_part: &NodePartition,
    rhs_set: &[Vec<f64>],
    model: MachineModel,
    cfg: &SolverConfig,
    sink: &TraceSink,
) -> Result<MultiSolveOutput, SolveFailures> {
    let assembled = host_span(sink, "assembly", || p.build_static());
    let (a, b, sc) = host_span(sink, "scaling", || {
        scale_system(&assembled.stiffness, &assembled.rhs).expect("square assembled system")
    });
    // Per-RHS scaled global loads (constrained entries zeroed — homogeneous
    // BCs asserted by the caller, matching `build_static`'s RHS fixups).
    let scaled_rhs: Vec<Vec<f64>> = host_span(sink, "scaling", || {
        rhs_set
            .iter()
            .map(|rhs| {
                let mut g = rhs.clone();
                for (d, _) in p.dof_map.fixed_dofs() {
                    g[d] = 0.0;
                }
                sc.apply_in_place(&mut g);
                g
            })
            .collect()
    });
    let mut systems = RddSystem::build_all(&a, &b, node_part);
    for sys in &mut systems {
        sys.overlap = cfg.overlap;
    }
    let coarse = prepare_coarse(&cfg.precond, p.dof_map.dofs_per_node(), sink, |_| {
        Ok(rdd_part_geometry(node_part, p.dof_map, &p.coords3()))
    })?;
    let nparts = node_part.n_parts();
    let opts = RunOptions {
        comm_timeout: cfg.comm_timeout,
    };
    let out = try_run_ranks(nparts, model, opts, sink, |comm: &ThreadComm| {
        let template = &systems[comm.rank()];
        let csol = coarse.as_ref().map(|c| c.plan(comm.rank()));
        let d = sc.diagonal();
        match &cfg.faults {
            Some(plan) => {
                let faulty = FaultyComm::new(comm, plan.clone());
                let r = rdd_multi_rank_body(&faulty, template, csol, &scaled_rhs, &a, d, cfg);
                record_fault_metrics(&cfg.metrics, &faulty.fault_stats());
                r
            }
            None => rdd_multi_rank_body(comm, template, csol, &scaled_rhs, &a, d, cfg),
        }
    });
    record_comm_metrics(&cfg.metrics, &out.reports, out.modeled_time);
    let (results, reports, modeled_time) = record_session_outcome(
        &cfg.metrics,
        collect_rank_results(out.results, out.reports, out.modeled_time),
    )?;

    let (solutions, histories) = host_span(sink, "gather", || {
        let mut solutions = Vec::with_capacity(rhs_set.len());
        for k in 0..rhs_set.len() {
            let mut x = vec![0.0; p.dof_map.n_dofs()];
            for (rank, (sols, _)) in results.iter().enumerate() {
                systems[rank].scatter(&sols[k], &mut x);
            }
            solutions.push(sc.unscale_solution(&x));
        }
        (solutions, results[0].1.clone())
    });
    Ok(MultiSolveOutput {
        solutions,
        histories,
        reports,
        modeled_time,
    })
}

/// The per-rank multi-RHS RDD pipeline: the preconditioner and Krylov
/// workspace are shared; each right-hand side runs on a copy of the local
/// block whose `b_loc` is the restriction of that (scaled) global load.
fn rdd_multi_rank_body<C: Communicator>(
    comm: &C,
    template: &RddSystem,
    coarse: Option<CoarsePlan<'_>>,
    scaled_rhs: &[Vec<f64>],
    a: &CsrMatrix,
    d: &[f64],
    cfg: &SolverConfig,
) -> Result<(Vec<Vec<f64>>, Vec<ConvergenceHistory>), SolveError> {
    // Concrete `SpecPrecond`, so the local system can be mutated between
    // solves (a boxed trait object would pin the operator's lifetime).
    let (pc, _) = rdd_build_precond(comm, template, a, d, coarse, cfg);
    let mut sys = template.clone();
    let x0 = vec![0.0; template.n_local()];
    let mut ws = KrylovWorkspace::new();
    let mut solutions = Vec::with_capacity(scaled_rhs.len());
    let mut histories = Vec::with_capacity(scaled_rhs.len());
    for g in scaled_rhs {
        sys.b_loc = sys.rows.iter().map(|&d| g[d]).collect();
        let res = rdd_fgmres_metered(comm, &sys, &pc, &x0, &cfg.gmres, &mut ws, &cfg.metrics)?;
        solutions.push(res.x);
        histories.push(res.history);
    }
    Ok((solutions, histories))
}
