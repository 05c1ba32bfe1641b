//! `parfem` — command-line driver for the solver stack.
//!
//! ```text
//! parfem meshes                          # list the paper's Table 2 meshes
//! parfem spectrum --mesh 40x8            # spectrum bounds of the scaled operator
//! parfem solve --mesh 100x100 --parts 8 --strategy edd --precond gls:7 \
//!              --machine origin --tol 1e-6 --load pull:1.0 [--mtx-out prefix] \
//!              [--trace run.jsonl] [--profile]
//! parfem report --trace run.jsonl        # phase/comm/convergence report from a trace
//! parfem report --trace run.jsonl --critical-path   # cross-rank critical path
//! parfem export-trace --trace run.jsonl --out run.trace.json   # Perfetto/chrome
//! parfem perf-gate                       # CI perf-regression gate over BENCH_*.json
//! ```
//!
//! Argument parsing is deliberately dependency-free.

use parfem::mesh::Cells;
use parfem::perfgate;
use parfem::prelude::*;
use parfem::sparse::{gershgorin, io as mmio, scaling::scale_system};
use parfem::trace::{
    export_chrome_trace, jsonl, render_comm_table, render_convergence, render_critical_path,
    render_phase_table, render_timeline, CritPath, TraceEvent,
};
use std::process::ExitCode;
use std::time::Duration;

// With `--features count-allocs`, count every allocation so solve summaries
// (and `parfem report`) include `alloc_count` / `alloc_bytes`.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: parfem::trace::alloc::CountingAlloc = parfem::trace::alloc::CountingAlloc;

/// Exit status of a session rejected as misconfigured
/// ([`SolveFailures::is_config_error`](parfem::dd::SolveFailures::is_config_error)).
const EXIT_CONFIG: u8 = 3;

/// A solve whose relative residual on the assembled system exceeds this
/// many times `--tol` failed, whatever the Krylov loop reported: healthy
/// solves read at most about 1.2 × tol there, broken ones 1e8 × tol or more.
const TRUE_RESIDUAL_SLACK: f64 = 10.0;

fn usage() -> ExitCode {
    // The `--precond` and `--machine` help lines come straight from the
    // registries, so the usage screen can never drift from the parsers.
    let precond_help = parfem::precond::registry::grammar_help()
        .lines()
        .map(|l| format!("                        {l}"))
        .collect::<Vec<_>>()
        .join("\n");
    eprintln!(
        "usage:
  parfem meshes
  parfem spectrum --mesh NXxNY | --paper-mesh K
  parfem solve [options]
  parfem report --trace FILE.jsonl [--critical-path] [--critpath-json FILE]
  parfem export-trace --trace FILE.jsonl --out FILE.trace.json
  parfem perf-gate [--perf FILE] [--baseline FILE]

solve options:
  --problem NAME        workload physics: {problems}
                        (default elasticity2d, the paper's cantilever)
  --mesh NXxNY[xNZ]     element grid (e.g. 100x100, or 24x8x8 for the
                        3-D hexahedral cantilever)
  --paper-mesh K        use Table 2 Mesh K (1..10) instead of --mesh
                        (elasticity2d only)
  --distort AMP         distort interior nodes by AMP cell widths (0..0.5;
                        elasticity2d only)
  --load pull:F|shear:F load case and total force (default pull:1.0;
                        heat2d reads the magnitude as the total edge flux)
  --parts P             number of subdomains/ranks (default 4)
  --strategy edd|rdd    decomposition strategy (default edd)
  --partitioner SPEC    element partitioner: strips|blocks|graph, graph
                        being recursive multilevel bisection of the element
                        graph (default strips; EDD only — RDD always
                        partitions node columns into strips)
  --variant basic|enhanced   EDD algorithm variant (default enhanced)
  --precond SPEC        preconditioner (default gls:7), one of:
{precond_help}
  --machine NAME        virtual machine model: {machines} (default origin)
  --overlap             nonblocking interface exchange overlapped with the
                        interior matvec (bit-identical; changes modeled time)
  --tol T               relative residual tolerance (default 1e-6)
  --restart M           GMRES restart dimension (default 25)
  --faults SEED:P       deterministic chaos: inject drops/duplicates/delays/
                        reorders at intensity P in [0,1], seeded by SEED
                        (bit-reproducible; recoverable faults change only
                        the modeled time)
  --comm-timeout S      wall-clock watchdog per blocking wait, seconds
                        (default 30)
  --comm-retries N      retransmission budget per message under --faults
                        (default 30)
  --trace FILE.jsonl    record a structured event trace to FILE
  --profile             print per-rank phase/comm tables after the solve
  --mtx-out PREFIX      write PREFIX_k.mtx / PREFIX_f.mtx / PREFIX_u.mtx
  exit status           0 converged; 1 the solve failed, did not converge,
                        or left a true relative residual above 10 x tol;
                        2 malformed command line; 3 the options do not fit
                        the input (rejected before any rank ran)

report options:
  --trace FILE.jsonl    trace file written by `parfem solve --trace`
  --width N             timeline width in columns (default 72)
  --critical-path       reconstruct and print the cross-rank critical path
  --critpath-json FILE  also write the critical path as JSON to FILE

export-trace options:
  --trace FILE.jsonl    trace file written by `parfem solve --trace`
  --out FILE            chrome trace_event JSON (open in Perfetto/about:tracing)

perf-gate options:
  --perf FILE           bench snapshot (default BENCH_PERF.json)
  --baseline FILE       frozen reference (default BENCH_BASELINE.json)
                        exits non-zero when any metric regresses",
        problems = Physics::ALL.map(|p| p.name()).join("|"),
        machines = MachineModel::NAMES.join("|"),
    );
    ExitCode::from(2)
}

struct Args(Vec<String>);

impl Args {
    fn value_of(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    fn has_flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    /// The value of numeric option `key`, `default` when the option is
    /// absent. A value that does not parse or that `ok` rejects is an error
    /// naming the option and the accepted `range`.
    fn number<T: std::str::FromStr + Copy>(
        &self,
        key: &str,
        default: T,
        range: &str,
        ok: impl Fn(T) -> bool,
    ) -> Result<T, String> {
        let Some(raw) = self.value_of(key) else {
            return Ok(default);
        };
        (raw.parse().ok())
            .filter(|&v| ok(v))
            .ok_or_else(|| format!("bad {key} {raw}: expected {range}"))
    }
}

/// `NXxNY` or `NXxNYxNZ` with every extent at least 1 (the 3-D depth
/// defaults to 1 when absent).
fn parse_grid(s: &str) -> Option<(usize, usize, usize)> {
    let mut it = s.split(['x', 'X']);
    let nx = it.next()?.parse().ok()?;
    let ny = it.next()?.parse().ok()?;
    let nz = match it.next() {
        None => 1,
        Some(z) => z.parse().ok()?,
    };
    if it.next().is_some() || nx == 0 || ny == 0 || nz == 0 {
        return None;
    }
    Some((nx, ny, nz))
}

/// Why `parts` subdomains cannot be cut from the problem's mesh, `None`
/// when they can — the preconditions the partitioners assert, checked here
/// so a misfit is a message instead of a panic.
fn parts_misfit(
    problem: &PhysicsProblem,
    rdd: bool,
    partitioner: &PartitionerSpec,
    parts: usize,
) -> Option<String> {
    fn dims<M: Cells>(m: &M) -> (usize, usize, usize) {
        let (nx, ny) = m.grid_dims().expect("cantilever meshes are structured");
        (nx, ny, m.n_cells())
    }
    let (nx, ny, n_cells) = match &problem.mesh {
        WorkloadMesh::Quad(m) => dims(m),
        WorkloadMesh::Hex(m) => dims(m),
    };
    let (fits, limit) = match partitioner {
        _ if rdd => (
            parts <= nx + 1,
            format!("at most {} strips of node columns", nx + 1),
        ),
        PartitionerSpec::Strips => (
            parts <= nx,
            format!("at most {nx} strips of element columns"),
        ),
        PartitionerSpec::Blocks => (
            (1..=parts).any(|py| parts.is_multiple_of(py) && parts / py <= nx && py <= ny),
            format!("a PXxPY block grid within {nx}x{ny} cells"),
        ),
        PartitionerSpec::Graph => (
            parts <= n_cells,
            format!("at most {n_cells} parts, one cell each"),
        ),
    };
    (!fits).then(|| format!("--parts {parts} does not fit the mesh: it allows {limit}"))
}

fn build_problem(args: &Args) -> Result<PhysicsProblem, String> {
    let physics_name = args.value_of("--problem").unwrap_or("elasticity2d");
    let physics = Physics::parse(physics_name).ok_or_else(|| {
        format!(
            "unknown problem {physics_name}; expected {}",
            Physics::ALL.map(|p| p.name()).join("|")
        )
    })?;
    let load = match args.value_of("--load") {
        None => LoadCase::PullX(1.0),
        Some(spec) => {
            let (kind, mag) = spec
                .split_once(':')
                .ok_or_else(|| format!("bad --load {spec}"))?;
            let f: f64 = mag.parse().map_err(|_| format!("bad force {mag}"))?;
            match kind {
                "pull" => LoadCase::PullX(f),
                "shear" => LoadCase::ShearY(f),
                _ => return Err(format!("unknown load kind {kind}")),
            }
        }
    };
    if let Some(k) = args.value_of("--paper-mesh") {
        if physics != Physics::Elasticity2d {
            return Err(format!(
                "--paper-mesh is the paper's 2-D elasticity family; \
                 pass --mesh for --problem {physics}"
            ));
        }
        let k = (k.parse().ok())
            .filter(|k| (1..=PAPER_MESHES.len()).contains(k))
            .ok_or_else(|| format!("bad --paper-mesh {k}: expected 1..{}", PAPER_MESHES.len()))?;
        return Ok(CantileverProblem::paper_mesh(k).into_physics_problem());
    }
    let grid = args
        .value_of("--mesh")
        .ok_or_else(|| "need --mesh or --paper-mesh".to_string())?;
    let (nx, ny, nz) = parse_grid(grid)
        .ok_or_else(|| format!("bad --mesh {grid}: expected NXxNY[xNZ], every extent >= 1"))?;
    if physics != Physics::Elasticity3d && grid.matches(['x', 'X']).count() > 1 {
        return Err(format!("--problem {physics} takes a 2-D grid NXxNY"));
    }
    if args.value_of("--distort").is_some() {
        if physics != Physics::Elasticity2d {
            return Err("--distort supports --problem elasticity2d only".to_string());
        }
        let amp = args.number("--distort", 0.0, "an amplitude in [0, 0.5)", |a: f64| {
            (0.0..0.5).contains(&a)
        })?;
        let mesh = QuadMesh::distorted(nx, ny, nx as f64, ny as f64, amp, 0x5eed);
        let mut dof_map = DofMap::new(mesh.n_nodes());
        dof_map.clamp_edge(&mesh, Edge::Left);
        let mut loads = vec![0.0; dof_map.n_dofs()];
        match load {
            LoadCase::PullX(f) => {
                parfem::fem::assembly::edge_load(&mesh, &dof_map, Edge::Right, f, 0.0, &mut loads)
            }
            LoadCase::ShearY(f) => {
                parfem::fem::assembly::edge_load(&mesh, &dof_map, Edge::Right, 0.0, f, &mut loads)
            }
        }
        return Ok(CantileverProblem {
            mesh,
            dof_map,
            material: Material::unit(),
            loads,
        }
        .into_physics_problem());
    }
    Ok(PhysicsProblem::cantilever(
        physics,
        (nx, ny, nz),
        Material::unit(),
        load,
    ))
}

fn cmd_meshes() -> ExitCode {
    println!("{:>7} {:>12} {:>8} {:>8}", "Mesh", "grid", "nNode", "nEqn");
    for k in 1..=10 {
        let p = CantileverProblem::paper_mesh(k);
        let (nx, ny) = PAPER_MESHES[k - 1];
        println!(
            "{:>7} {:>12} {:>8} {:>8}",
            format!("Mesh{k}"),
            format!("{nx}x{ny}"),
            p.mesh.n_nodes(),
            p.n_eqn()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_spectrum(args: &Args) -> ExitCode {
    let problem = match build_problem(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let sys = problem.static_system();
    let (a, _, _) = scale_system(&sys.stiffness, &sys.rhs).expect("square system");
    let lmax = gershgorin::power_iteration_lambda_max(&a, 50_000, 1e-12);
    let lmin = gershgorin::power_iteration_lambda_min(&a, 50_000, 1e-12);
    let (glo, ghi) = gershgorin::gershgorin_interval(&a);
    println!("scaled operator ({} equations):", problem.n_eqn());
    println!("  power iteration: lambda in [{lmin:.4e}, {lmax:.6}]");
    println!("  gershgorin:      lambda in [{glo:.4}, {ghi:.4}]");
    println!(
        "  condition estimate kappa ~ {:.3e}",
        lmax / lmin.max(1e-300)
    );
    println!("  suggested theta: (eps, 1)  [paper default after norm-1 scaling]");
    ExitCode::SUCCESS
}

fn cmd_solve(args: &Args) -> ExitCode {
    let problem = match build_problem(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let numbers = (|| {
        Ok::<_, String>((
            args.number("--parts", 4usize, "an integer >= 1", |p| p >= 1)?,
            args.number("--tol", 1e-6, "a finite number > 0", |t: f64| {
                t.is_finite() && t > 0.0
            })?,
            args.number("--restart", 25usize, "an integer >= 1", |m| m >= 1)?,
            args.number("--comm-timeout", 30.0, "seconds > 0", |s: f64| {
                s > 0.0 && Duration::try_from_secs_f64(s).is_ok()
            })?,
            args.number("--comm-retries", 30u32, "an integer >= 0", |_| true)?,
        ))
    })();
    let (parts, tol, restart, comm_timeout, comm_retries) = match numbers {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let machine_name = args.value_of("--machine").unwrap_or("origin");
    let machine = match MachineModel::by_name(machine_name) {
        Ok(m) => m,
        Err(e) => {
            // The typed error renders the full preset list itself.
            eprintln!("error: {e}");
            return usage();
        }
    };
    let precond = match PrecondSpec::parse(args.value_of("--precond").unwrap_or("gls:7")) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let variant = match args.value_of("--variant").unwrap_or("enhanced") {
        "basic" => EddVariant::Basic,
        "enhanced" => EddVariant::Enhanced,
        v => {
            eprintln!("unknown variant {v}");
            return usage();
        }
    };
    let faults = match args.value_of("--faults") {
        None => None,
        Some(spec) => match FaultPlan::from_spec(spec) {
            Ok(plan) => Some(plan.with_retry_policy(comm_retries, 1e-3, 2.0)),
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        },
    };
    if args.has_flag("--kernels") {
        eprintln!(
            "error: --kernels is not an option: the storage of the local matrix follows \
             from the physics (node blocks at 2 or 3 DOFs per node, CSR at 1) and \
             every solve records the kernel it ran as kernel_variant_<label>"
        );
        return usage();
    }
    let cfg = SolverConfig {
        gmres: GmresConfig {
            tol,
            restart,
            max_iters: 200_000,
            ..Default::default()
        },
        precond,
        variant,
        overlap: args.has_flag("--overlap"),
        faults,
        comm_timeout: Duration::from_secs_f64(comm_timeout),
    };

    let trace_path = args.value_of("--trace");
    let profile = args.has_flag("--profile");
    let sink = if trace_path.is_some() || profile {
        TraceSink::recording()
    } else {
        TraceSink::disabled()
    };

    let partitioner =
        match PartitionerSpec::parse(args.value_of("--partitioner").unwrap_or("strips")) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
    let strategy_name = args.value_of("--strategy").unwrap_or("edd");
    let rdd = match strategy_name {
        "edd" => false,
        "rdd" if partitioner == PartitionerSpec::Strips => true,
        "rdd" => {
            eprintln!("error: --partitioner {partitioner} only applies to --strategy edd");
            return usage();
        }
        s => {
            eprintln!("unknown strategy {s}");
            return usage();
        }
    };
    if let Some(why) = parts_misfit(&problem, rdd, &partitioner, parts) {
        eprintln!("error: {why}");
        return ExitCode::from(EXIT_CONFIG);
    }
    let strategy = if rdd {
        Strategy::Rdd(problem.node_partition(parts))
    } else {
        Strategy::Edd(problem.element_partition(&partitioner, parts))
    };
    println!(
        "solving {} {} equations with {} on {} ranks ({}, {}, {})",
        problem.n_eqn(),
        problem.physics,
        cfg.precond.name(),
        parts,
        strategy_name,
        partitioner,
        machine.name
    );
    let result = SolveSession::new(problem.as_problem())
        .strategy(strategy)
        .config(cfg)
        .machine(machine)
        .trace(&sink)
        .run();
    let out = match result {
        Ok(out) => out,
        Err(failures) if failures.is_config_error() => {
            // Rejected before any rank ran: the options do not fit the
            // input. Distinct from a solve that ran and failed (1) and from
            // a malformed command line (2).
            eprintln!("error: {failures}");
            return ExitCode::from(EXIT_CONFIG);
        }
        Err(failures) => {
            eprintln!("error: {failures}");
            for (rank, e) in &failures.errors {
                eprintln!("  rank {rank}: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    // Verify against the assembled system.
    let sys = problem.static_system();
    let r = sys.stiffness.spmv(&out.u);
    let res: f64 = r
        .iter()
        .zip(&sys.rhs)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt();
    let rhs_norm: f64 = sys.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
    let true_residual = res / rhs_norm.max(1e-300);
    println!(
        "converged = {}, iterations = {}, restarts = {}",
        out.history.converged(),
        out.history.iterations(),
        out.history.restarts
    );
    println!(
        "true relative residual = {:.3e}, modeled time = {:.4} s",
        true_residual, out.modeled_time
    );
    let s0 = &out.reports[0].stats;
    println!(
        "rank 0: {} exchanges, {} reductions, {} bytes sent, {:.0} Mflops counted",
        s0.neighbor_exchanges,
        s0.allreduces,
        s0.bytes_sent,
        s0.flops as f64 / 1e6
    );

    if sink.is_enabled() {
        let events = sink.take_events();
        if let Some(path) = trace_path {
            match std::fs::write(path, jsonl::encode_all(&events)) {
                Ok(()) => println!("wrote {} trace events to {path}", events.len()),
                Err(e) => {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if profile {
            let report = TraceReport::from_events(&events);
            print!("\n{}", render_phase_table(&report));
            print!("\n{}", render_comm_table(&report));
            print!("\n{}", render_timeline(&report, 72));
        }
    }

    if let Some(prefix) = args.value_of("--mtx-out") {
        let write = |suffix: &str, f: &dyn Fn(&mut std::fs::File) -> std::io::Result<()>| {
            let path = format!("{prefix}_{suffix}.mtx");
            let mut file = std::fs::File::create(&path).expect("create mtx file");
            f(&mut file).expect("write mtx");
            println!("wrote {path}");
        };
        write("k", &|w| mmio::write_matrix(w, &sys.stiffness));
        write("f", &|w| mmio::write_vector(w, &sys.rhs));
        write("u", &|w| mmio::write_vector(w, &out.u));
    }
    if !out.history.converged() {
        return ExitCode::FAILURE;
    }
    if true_residual.is_nan() || true_residual > TRUE_RESIDUAL_SLACK * tol {
        eprintln!(
            "error: converged by the Krylov estimate, but the true relative residual \
             {true_residual:.3e} exceeds {TRUE_RESIDUAL_SLACK} x tol = {:.1e}",
            TRUE_RESIDUAL_SLACK * tol
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The file's text, or `None` after an `error:` line.
fn read_file(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path);
    text.map_err(|e| eprintln!("error: cannot read {path}: {e}"))
        .ok()
}

/// The events of a recorded `.jsonl` trace, or `None` after an `error:`
/// line.
fn read_trace(path: &str) -> Option<Vec<TraceEvent>> {
    let events = jsonl::decode_all(&read_file(path)?);
    events.map_err(|e| eprintln!("error: {path}: {e}")).ok()
}

fn cmd_report(args: &Args) -> ExitCode {
    let Some(path) = args.value_of("--trace") else {
        eprintln!("error: report needs --trace FILE.jsonl");
        return usage();
    };
    let Some(events) = read_trace(path) else {
        return ExitCode::FAILURE;
    };
    let width = args
        .value_of("--width")
        .and_then(|s| s.parse().ok())
        .unwrap_or(72);
    let report = TraceReport::from_events(&events);
    print!("{}", render_phase_table(&report));
    print!("\n{}", render_comm_table(&report));
    print!("\n{}", render_convergence(&report));
    print!("\n{}", render_timeline(&report, width));
    if args.has_flag("--critical-path") || args.value_of("--critpath-json").is_some() {
        let cp = CritPath::from_events(&events);
        if args.has_flag("--critical-path") {
            print!("\n{}", render_critical_path(&cp));
        }
        if let Some(out) = args.value_of("--critpath-json") {
            if let Err(e) = std::fs::write(out, cp.to_json()) {
                eprintln!("error: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote critical path to {out}");
        }
    }
    ExitCode::SUCCESS
}

/// `parfem export-trace`: convert a recorded `.jsonl` trace into the
/// chrome `trace_event` JSON that Perfetto / `about:tracing` load directly.
fn cmd_export_trace(args: &Args) -> ExitCode {
    let Some(path) = args.value_of("--trace") else {
        eprintln!("error: export-trace needs --trace FILE.jsonl");
        return usage();
    };
    let Some(out) = args.value_of("--out") else {
        eprintln!("error: export-trace needs --out FILE.trace.json");
        return usage();
    };
    let Some(events) = read_trace(path) else {
        return ExitCode::FAILURE;
    };
    let chrome = export_chrome_trace(&events);
    match std::fs::write(out, &chrome) {
        Ok(()) => {
            println!("wrote {} events to {out} (open in Perfetto)", events.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `parfem perf-gate`: the CI regression gate over the committed bench
/// snapshots. Exits non-zero when any metric regresses past its threshold.
fn cmd_perf_gate(args: &Args) -> ExitCode {
    let perf_path = args.value_of("--perf").unwrap_or("BENCH_PERF.json");
    let baseline_path = args.value_of("--baseline").unwrap_or("BENCH_BASELINE.json");
    let (Some(perf), Some(baseline)) = (read_file(perf_path), read_file(baseline_path)) else {
        return ExitCode::FAILURE;
    };
    match perfgate::evaluate_texts(&perf, &baseline) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let args = Args(argv[1..].to_vec());
    match cmd.as_str() {
        "meshes" => cmd_meshes(),
        "spectrum" => cmd_spectrum(&args),
        "solve" => cmd_solve(&args),
        "report" => cmd_report(&args),
        "export-trace" => cmd_export_trace(&args),
        "perf-gate" => cmd_perf_gate(&args),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command {other}");
            usage()
        }
    }
}
