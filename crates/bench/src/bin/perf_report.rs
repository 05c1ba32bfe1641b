//! Emits the machine-readable kernel/solver performance report.
//!
//! Two modes (run from the repository root, `--release` always):
//!
//! ```text
//! cargo run --release -p parfem-bench --bin perf_report -- --baseline
//!     # measure and (over)write BENCH_BASELINE.json
//! cargo run --release -p parfem-bench --bin perf_report
//!     # measure, read BENCH_BASELINE.json, write BENCH_PERF.json
//!     # (baseline + current + per-bench speedups)
//! ```
//!
//! The workloads are fixed so the numbers are comparable across runs on the
//! same machine: a 5-point 2-D Laplacian SpMV (MFLOP/s from `spmv_flops`),
//! a GLS(7) polynomial-preconditioner application, and restarted FGMRES
//! iteration throughput (iterations/s) with and without polynomial
//! preconditioning. The process installs [`parfem_trace::alloc::CountingAlloc`],
//! so the report also carries allocations-per-iteration for the FGMRES hot
//! loop — the quantity the reusable Krylov workspace drives to zero.

use parfem::prelude::{CantileverProblem, LoadCase, MachineModel, Material, PrecondSpec};
use parfem_bench::harness::Case;
use parfem_krylov::{fgmres_on, GmresConfig, GmresResult, KrylovWorkspace, OneRank};
use parfem_precond::{GlsPrecond, IdentityPrecond, Preconditioner};
use parfem_sparse::{scaling, BcsrMatrix, CooMatrix, CsrMatrix};
use parfem_trace::alloc::{self, CountingAlloc};
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BASELINE_PATH: &str = "BENCH_BASELINE.json";
const REPORT_PATH: &str = "BENCH_PERF.json";

/// 5-point finite-difference Laplacian on an `nx` × `nx` grid.
fn laplacian_2d(nx: usize) -> CsrMatrix {
    let n = nx * nx;
    let mut coo = CooMatrix::new(n, n);
    let idx = |i: usize, j: usize| i * nx + j;
    for i in 0..nx {
        for j in 0..nx {
            let r = idx(i, j);
            coo.push(r, r, 4.0).expect("diag");
            if i > 0 {
                coo.push(r, idx(i - 1, j), -1.0).expect("north");
            }
            if i + 1 < nx {
                coo.push(r, idx(i + 1, j), -1.0).expect("south");
            }
            if j > 0 {
                coo.push(r, idx(i, j - 1), -1.0).expect("west");
            }
            if j + 1 < nx {
                coo.push(r, idx(i, j + 1), -1.0).expect("east");
            }
        }
    }
    coo.to_csr()
}

/// Smallest wall time of `repeats` timed calls (after one warm-up call).
fn time_best<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct BenchLine {
    name: &'static str,
    /// Problem size.
    n: usize,
    /// Wall seconds for the timed unit.
    secs: f64,
    /// Headline rate: MFLOP/s for kernels, iterations/s for solves.
    rate: f64,
    /// Unit of `rate` (documentation only).
    rate_unit: &'static str,
    /// Allocator calls per FGMRES iteration (solve benches only).
    allocs_per_iter: Option<f64>,
    /// Allocated bytes per FGMRES iteration (solve benches only).
    alloc_bytes_per_iter: Option<f64>,
}

fn bench_spmv() -> BenchLine {
    let nx = 256;
    let a = laplacian_2d(nx);
    let n = a.n_rows();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut y = vec![0.0; n];
    // Batch enough SpMVs that one timed unit is well above timer noise.
    let reps = 50;
    let secs = time_best(20, || {
        for _ in 0..reps {
            a.spmv_into(&x, &mut y);
            std::hint::black_box(&y);
        }
    }) / reps as f64;
    BenchLine {
        name: "spmv",
        n,
        secs,
        rate: a.spmv_flops() as f64 / secs / 1e6,
        rate_unit: "mflops",
        allocs_per_iter: None,
        alloc_bytes_per_iter: None,
    }
}

/// SpMV throughput of the 2×2 block-CSR format on a 2-D elasticity
/// stiffness matrix (the DOF structure the format targets).
fn bench_spmv_bcsr() -> BenchLine {
    let p = CantileverProblem::new(160, 40, Material::unit(), LoadCase::PullX(1.0));
    let a = p.static_system().stiffness;
    let bcsr = BcsrMatrix::from_csr(&a, 2).expect("two DOFs per node");
    let n = a.n_rows();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut y = vec![0.0; n];
    let reps = 50;
    let secs = time_best(20, || {
        for _ in 0..reps {
            bcsr.spmv_into(&x, &mut y);
            std::hint::black_box(&y);
        }
    }) / reps as f64;
    BenchLine {
        name: "spmv_bcsr",
        n,
        secs,
        rate: a.spmv_flops() as f64 / secs / 1e6,
        rate_unit: "mflops",
        allocs_per_iter: None,
        alloc_bytes_per_iter: None,
    }
}

fn bench_precond_apply() -> BenchLine {
    let nx = 256;
    let k = laplacian_2d(nx);
    let n = k.n_rows();
    let f = vec![1.0; n];
    let (a, _b, _sc) = scaling::scale_system(&k, &f).expect("scale");
    let p = GlsPrecond::for_scaled_system(7);
    let v: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) / 5.0).collect();
    let mut z = vec![0.0; n];
    let ops = Preconditioner::<CsrMatrix>::operator_applications(&p) as f64;
    let reps = 10;
    let secs = time_best(20, || {
        for _ in 0..reps {
            p.apply_into(&a, &v, &mut z);
            std::hint::black_box(&z);
        }
    }) / reps as f64;
    BenchLine {
        name: "precond_apply_gls7",
        n,
        secs,
        rate: ops * a.spmv_flops() as f64 / secs / 1e6,
        rate_unit: "mflops",
        allocs_per_iter: None,
        alloc_bytes_per_iter: None,
    }
}

/// FGMRES iteration throughput: a fixed iteration budget on the scaled
/// Laplacian with `tol = 0` so every run performs exactly `iters` inner
/// iterations regardless of convergence. Runs through a caller-owned
/// [`KrylovWorkspace`] warmed by one untimed solve, so the timed/measured
/// solves are the production zero-allocation configuration.
fn bench_fgmres<P>(name: &'static str, precond: &P, iters: usize) -> BenchLine
where
    P: Preconditioner<CsrMatrix>,
{
    let nx = 200;
    let k = laplacian_2d(nx);
    let n = k.n_rows();
    let f = vec![1.0; n];
    let (a, b, _sc) = scaling::scale_system(&k, &f).expect("scale");
    let x0 = vec![0.0; n];
    let cfg = |max_iters: usize| GmresConfig {
        restart: 25,
        max_iters,
        tol: 0.0,
        ..Default::default()
    };
    let mut ws = KrylovWorkspace::new();
    let run = |max_iters, ws: &mut KrylovWorkspace| -> GmresResult {
        fgmres_on(&OneRank(&a), precond, &b, &x0, &cfg(max_iters), ws).expect("one rank")
    };
    // Warm: size every buffer and record the history high-water mark.
    let _ = std::hint::black_box(run(iters, &mut ws));
    let secs = time_best(5, || {
        let res = run(iters, &mut ws);
        assert_eq!(res.history.iterations(), iters, "{name}: fixed-work solve");
        std::hint::black_box(&res.x);
    });

    // Allocation traffic per iteration: difference between a long and a
    // short solve divided by the iteration difference, so per-solve costs
    // (the returned history/solution vectors) cancel. With the warm
    // workspace this is exactly zero.
    let short = iters / 4;
    let mut solve = |n| alloc::measure(|| std::hint::black_box(run(n, &mut ws))).1;
    let d_short = solve(short);
    let d_long = solve(iters);
    let di = (iters - short) as f64;
    let allocs_per_iter = d_long.count.saturating_sub(d_short.count) as f64 / di;
    let bytes_per_iter = d_long.bytes.saturating_sub(d_short.bytes) as f64 / di;

    BenchLine {
        name,
        n,
        secs,
        rate: iters as f64 / secs,
        rate_unit: "iters_per_s",
        allocs_per_iter: Some(allocs_per_iter),
        alloc_bytes_per_iter: Some(bytes_per_iter),
    }
}

/// Blocking-vs-overlapped interface exchange under a machine model: the same
/// EDD solve run twice, once with the overlapped nonblocking exchange. The
/// iterates are bit-identical, so only the modeled (virtual) parallel time
/// differs — the win is the latency/bandwidth hidden behind the interior
/// matvec.
struct OverlapLine {
    machine: &'static str,
    blocking_secs: f64,
    overlapped_secs: f64,
    iterations: u64,
}

fn bench_overlap() -> Vec<OverlapLine> {
    let p = CantileverProblem::new(48, 12, Material::unit(), LoadCase::ShearY(1.0));
    let gmres = GmresConfig {
        tol: 1e-8,
        max_iters: 50_000,
        ..Default::default()
    };
    [
        ("ibm_sp2", MachineModel::ibm_sp2()),
        ("sgi_origin", MachineModel::sgi_origin()),
    ]
    .into_iter()
    .map(|(machine, model)| {
        let run = |overlap: bool| {
            Case::edd(&p)
                .precond(PrecondSpec::Gls {
                    degree: 5,
                    theta: None,
                })
                .gmres(gmres)
                .machine(model.clone())
                .overlap(overlap)
                .run(8)
        };
        let blocking = run(false);
        let overlapped = run(true);
        assert_eq!(
            blocking.u, overlapped.u,
            "overlapped exchange must be bit-identical ({machine})"
        );
        OverlapLine {
            machine,
            blocking_secs: blocking.modeled_time,
            overlapped_secs: overlapped.modeled_time,
            iterations: blocking.history.iterations() as u64,
        }
    })
    .collect()
}

fn render_overlap(lines: &[OverlapLine]) -> String {
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        let comma = if i + 1 == lines.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{}\": {{ \"blocking_secs\": {:.6e}, \"overlapped_secs\": {:.6e}, \
             \"speedup\": {:.4}, \"iterations\": {} }}{comma}",
            l.machine,
            l.blocking_secs,
            l.overlapped_secs,
            l.blocking_secs / l.overlapped_secs,
            l.iterations
        );
    }
    out
}

fn run_all() -> Vec<BenchLine> {
    vec![
        bench_spmv(),
        bench_spmv_bcsr(),
        bench_precond_apply(),
        bench_fgmres("fgmres_iteration", &IdentityPrecond, 400),
        bench_fgmres(
            "fgmres_iteration_gls7",
            &GlsPrecond::for_scaled_system(7),
            200,
        ),
    ]
}

/// Renders the benches as a JSON object body (the same layout in the
/// baseline file and in the `baseline` / `current` sections of the report).
fn render_benches(lines: &[BenchLine], indent: &str) -> String {
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        let comma = if i + 1 == lines.len() { "" } else { "," };
        let mut extra = String::new();
        if let Some(a) = l.allocs_per_iter {
            let _ = write!(extra, ", \"allocs_per_iter\": {a:.2}");
        }
        if let Some(b) = l.alloc_bytes_per_iter {
            let _ = write!(extra, ", \"alloc_bytes_per_iter\": {b:.1}");
        }
        let _ = writeln!(
            out,
            "{indent}\"{}\": {{ \"n\": {}, \"secs\": {:.6e}, \"{}\": {:.4}{extra} }}{comma}",
            l.name, l.n, l.secs, l.rate_unit, l.rate
        );
    }
    out
}

/// Pulls `key` out of the section `"bench": { ... }` of a JSON string this
/// binary wrote earlier. A full JSON parser is overkill for our own output.
fn extract_number(json: &str, bench: &str, key: &str) -> Option<f64> {
    let sect_start = json.find(&format!("\"{bench}\":"))?;
    let sect = &json[sect_start..];
    let sect_end = sect.find('}')?;
    let sect = &sect[..sect_end];
    let key_start = sect.find(&format!("\"{key}\":"))?;
    let after = sect[key_start..].split_once(':')?.1;
    let num: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    num.parse().ok()
}

fn main() {
    let baseline_mode = std::env::args().any(|a| a == "--baseline");
    eprintln!(
        "perf_report: measuring ({} mode) ...",
        if baseline_mode { "baseline" } else { "current" }
    );
    let lines = run_all();
    for l in &lines {
        eprintln!(
            "  {:<24} n={:<7} {:>12.6e} s  {:>12.2} {}{}",
            l.name,
            l.n,
            l.secs,
            l.rate,
            l.rate_unit,
            l.allocs_per_iter
                .map(|a| format!("  {a:.2} allocs/iter"))
                .unwrap_or_default()
        );
    }

    if baseline_mode {
        let mut out = String::from("{\n  \"schema\": \"parfem-bench-perf-v1\",\n");
        out.push_str(&render_benches(&lines, "  "));
        out.push_str("}\n");
        std::fs::write(BASELINE_PATH, out).expect("write baseline");
        eprintln!("perf_report: wrote {BASELINE_PATH}");
        return;
    }

    let baseline = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        panic!("perf_report: cannot read {BASELINE_PATH} ({e}); run with --baseline first")
    });
    let mut out = String::from("{\n  \"schema\": \"parfem-bench-perf-v1\",\n  \"baseline\": {\n");
    for line in baseline.lines() {
        // Re-indent the baseline bench lines into the report's nested object.
        let t = line.trim();
        if t.starts_with('{') || t.starts_with('}') || t.starts_with("\"schema\"") {
            continue;
        }
        out.push_str("    ");
        out.push_str(t.trim_end_matches(','));
        // Separators re-added below via fixed ordering.
        out.push_str(",\n");
    }
    // Drop the trailing comma of the last copied line.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("  },\n  \"current\": {\n");
    out.push_str(&render_benches(&lines, "    "));
    out.push_str("  },\n  \"speedup\": {\n");
    for (i, l) in lines.iter().enumerate() {
        let base = extract_number(&baseline, l.name, l.rate_unit).unwrap_or(f64::NAN);
        let speedup = l.rate / base;
        let comma = if i + 1 == lines.len() { "" } else { "," };
        out.push_str(&format!("    \"{}\": {:.4}{}\n", l.name, speedup, comma));
        eprintln!("  speedup {:<24} {:.3}x", l.name, speedup);
    }
    // Modeled (virtual-time) win from the nonblocking overlapped interface
    // exchange; deterministic, so only recorded in the report, not baselined.
    eprintln!("perf_report: measuring overlapped-exchange modeled times ...");
    let overlap = bench_overlap();
    for l in &overlap {
        eprintln!(
            "  overlap {:<12} blocking {:.4e} s  overlapped {:.4e} s  ({:.3}x)",
            l.machine,
            l.blocking_secs,
            l.overlapped_secs,
            l.blocking_secs / l.overlapped_secs
        );
    }
    out.push_str("  },\n  \"overlap_modeled\": {\n");
    out.push_str(&render_overlap(&overlap));
    out.push_str("  }\n}\n");
    std::fs::write(REPORT_PATH, out).expect("write report");
    eprintln!("perf_report: wrote {REPORT_PATH}");
}
