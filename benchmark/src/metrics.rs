//! The metric catalog: every name the benchmark prints, with its unit,
//! direction, and — before any measurement — which end-to-end metric it is
//! expected to move on which workload. `BENCHMARK.json` repeats the names,
//! units, directions and bounds; `tests/schema.rs` holds the two together.

/// Lower is better for every end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const TIME_TO_SOLUTION: &str = "time_to_solution_s";
pub const SETUP: &str = "setup_s";
pub const CPU: &str = "cpu_s";
pub const PEAK_RSS: &str = "peak_rss_mb";

/// The three times carry the widest bound the acceptance harness allows:
/// on this shared VM ten 30 s runs of one workload spread by 3–22 % of their
/// median, up to 34 % when the machine changed pace mid-set (README,
/// "Noise"). Peak memory repeats to 0.4 %.
pub const END_TO_END: [EndToEnd; 4] = [
    // Wall from mesh dimensions to the gathered solution(s): problem build
    // + partitioner + SolveSession::run / run_multi.
    EndToEnd {
        name: TIME_TO_SOLUTION,
        unit: "s",
        bound: 0.25,
    },
    // The same call chain with max_iters = 0: mesh, partition, assembly,
    // scaling, coarse build, factorization, rank spawn, gather.
    EndToEnd {
        name: SETUP,
        unit: "s",
        bound: 0.25,
    },
    // User + system CPU of the full-solve child over the timed region, all
    // ranks summed: the cost in core-seconds.
    EndToEnd {
        name: CPU,
        unit: "CPU-s",
        bound: 0.25,
    },
    // VmHWM of the full-solve child when the solution is gathered.
    EndToEnd {
        name: PEAK_RSS,
        unit: "MiB",
        bound: 0.05,
    },
];

/// A single layer's metric: no bound, only an expectation.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric(s) this one should move, `"none"` for guards.
    pub moves: &'static str,
    /// The workload(s) it should move them on.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const ALL: &str = "all";
const KRYLOV_PAIR: &str = "elas2d-edd-gls7 heat2d-rdd-multirhs";
const ASSEMBLY_PAIR: &str = "elas3d-rdd-direct elas3d-edd-twolevel";
const TTS: &str = "time_to_solution_s";
const TTS_CPU: &str = "time_to_solution_s cpu_s";
const SETUP_RSS: &str = "setup_s peak_rss_mb";

pub const PER_LAYER: [Layer; 41] = [
    // mesh: small everywhere; a regression guard.
    layer("mesh.build_s", "s", "lower", SETUP, ALL),
    layer("mesh.partition_s", "s", "lower", SETUP, ALL),
    layer("mesh.edge_cut", "count", "lower", SETUP, ALL),
    layer("mesh.imbalance", "ratio", "lower", SETUP, ALL),
    layer("mesh.n_eqn", "count", "lower", SETUP, ALL),
    // fem: host span `assembly`.
    layer("fem.assembly_s", "s", "lower", SETUP, ASSEMBLY_PAIR),
    layer(
        "fem.assembly_elems_per_s",
        "1/s",
        "higher",
        SETUP,
        ASSEMBLY_PAIR,
    ),
    layer("fem.nnz", "count", "lower", SETUP, ASSEMBLY_PAIR),
    // sparse: scaling spans, and an isolated SpMV probe on the scaled
    // global operator. Flops per byte and bytes are computed from array
    // sizes, not measured.
    layer("sparse.scaling_s", "s", "lower", SETUP, ALL),
    layer("sparse.spmv_us", "us", "lower", TTS_CPU, KRYLOV_PAIR),
    layer(
        "sparse.spmv_gflops",
        "Gflop/s",
        "higher",
        TTS_CPU,
        KRYLOV_PAIR,
    ),
    layer(
        "sparse.spmv_flops_per_byte_computed",
        "flop/B",
        "higher",
        TTS_CPU,
        KRYLOV_PAIR,
    ),
    layer(
        "sparse.spmv_working_set_mb_computed",
        "MiB",
        "lower",
        TTS_CPU,
        KRYLOV_PAIR,
    ),
    layer("sparse.spmv_calls", "count", "lower", TTS_CPU, KRYLOV_PAIR),
    // precond: rank span `precond-build` (the LDLt under `direct`), host
    // span `coarse-build`, apply counter.
    layer(
        "precond.build_s",
        "s",
        "lower",
        SETUP_RSS,
        "elas3d-rdd-direct",
    ),
    layer(
        "precond.coarse_build_s",
        "s",
        "lower",
        SETUP_RSS,
        "elas3d-edd-twolevel",
    ),
    layer("precond.applies", "count", "lower", TTS, KRYLOV_PAIR),
    // krylov: convergence history, residual check, rank span `fgmres`.
    layer("krylov.iterations", "count", "lower", TTS, ALL),
    layer("krylov.restarts", "count", "lower", TTS, ALL),
    layer("krylov.final_rel_residual", "ratio", "lower", TTS, ALL),
    layer("krylov.true_rel_residual", "ratio", "lower", TTS, ALL),
    layer("krylov.loop_s", "s", "lower", TTS_CPU, KRYLOV_PAIR),
    layer(
        "krylov.ms_per_iteration",
        "ms",
        "lower",
        TTS_CPU,
        KRYLOV_PAIR,
    ),
    // msg: exact counts from RankReport.stats, and an isolated two-rank
    // ping at the workload's own message length.
    layer("msg.exchanges_per_iter", "count", "lower", TTS, KRYLOV_PAIR),
    layer(
        "msg.allreduces_per_iter",
        "count",
        "lower",
        TTS,
        KRYLOV_PAIR,
    ),
    layer("msg.bytes_per_iter", "B", "lower", TTS, KRYLOV_PAIR),
    layer("msg.flops_counted", "flop", "lower", TTS, KRYLOV_PAIR),
    layer("msg.modeled_time_s", "s", "lower", TTS, KRYLOV_PAIR),
    layer("msg.exchange_us", "us", "lower", TTS, "elas2d-edd-gls7"),
    layer("msg.allreduce_us", "us", "lower", TTS, "elas2d-edd-gls7"),
    layer(
        "msg.comm_share_est",
        "ratio",
        "lower",
        TTS,
        "elas2d-edd-gls7",
    ),
    // dd: the session as a whole; `unattributed` is what no span explains.
    layer("dd.session_s", "s", "lower", TTS, ALL),
    layer("dd.partition_s", "s", "lower", TTS, ALL),
    layer("dd.gather_s", "s", "lower", TTS, ALL),
    layer("dd.unattributed_s", "s", "lower", TTS, ALL),
    layer("dd.p1_time_to_solution_s", "s", "lower", "none", ALL),
    layer("dd.speedup_vs_p1", "ratio", "higher", "none", ALL),
    // trace: the cost of looking.
    layer("trace.events", "count", "lower", "none", ALL),
    layer("trace.overhead_ratio", "ratio", "lower", "none", ALL),
    // host: the noise guard, so a traced run says how far to trust itself.
    layer("host.steal_share", "ratio", "lower", "none", ALL),
    layer("host.calibration_spread", "ratio", "lower", "none", ALL),
];
