//! Emits the machine-readable kernel/solver performance report.
//!
//! Two modes (run from the repository root, `--release` always):
//!
//! ```text
//! cargo run --release -p parfem-bench --bin perf_report -- --baseline
//!     # measure and (over)write BENCH_BASELINE.json
//! cargo run --release -p parfem-bench --bin perf_report
//!     # measure, read BENCH_BASELINE.json, and replace the `baseline`,
//!     # `current`, `speedup` and `overlap_modeled` sections of
//!     # BENCH_PERF.json; every other section stays as it was
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
use parfem_bench::harness::{decimals, merge_sections, significant, Case};
use parfem_krylov::{fgmres_on, GmresConfig, GmresResult, KrylovWorkspace, OneRank};
use parfem_precond::{GlsPrecond, IdentityPrecond, Preconditioner};
use parfem_sparse::{scaling, BcsrMatrix, CooMatrix, CsrMatrix};
use parfem_trace::alloc::{self, CountingAlloc};
use parfem_trace::json::{self, Json};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BASELINE_PATH: &str = "BENCH_BASELINE.json";
const REPORT_PATH: &str = "BENCH_PERF.json";
const SCHEMA: &str = "parfem-bench-perf-v1";

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

impl BenchLine {
    /// The bench's entry (the same in the baseline file and in the
    /// `baseline` / `current` sections of the report).
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("n", self.n.into()),
            ("secs", significant(self.secs)),
            (self.rate_unit, decimals(self.rate, 4)),
        ];
        members.extend(
            self.allocs_per_iter
                .map(|a| ("allocs_per_iter", decimals(a, 2))),
        );
        members.extend(
            self.alloc_bytes_per_iter
                .map(|b| ("alloc_bytes_per_iter", decimals(b, 1))),
        );
        Json::obj(members)
    }
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
    let benches = lines.iter().map(|l| (l.name, l.to_json()));

    if baseline_mode {
        let doc = Json::obj([("schema", SCHEMA.into())].into_iter().chain(benches));
        std::fs::write(BASELINE_PATH, doc.to_indented()).expect("write baseline");
        eprintln!("perf_report: wrote {BASELINE_PATH}");
        return;
    }

    let read = |path: &str| {
        let text = std::fs::read_to_string(path).ok()?;
        Some(json::parse(&text).unwrap_or_else(|e| panic!("perf_report: {path}: {e}")))
    };
    let baseline = read(BASELINE_PATH).unwrap_or_else(|| {
        panic!("perf_report: cannot read {BASELINE_PATH}; run with --baseline first")
    });
    let speedup = lines.iter().map(|l| {
        let base = baseline.get(l.name).and_then(|b| b.get(l.rate_unit));
        let speedup = l.rate / base.and_then(Json::as_f64).unwrap_or(f64::NAN);
        eprintln!("  speedup {:<24} {:.3}x", l.name, speedup);
        (l.name, decimals(speedup, 4))
    });
    let speedup = Json::obj(speedup);
    // Modeled (virtual-time) win from the nonblocking overlapped interface
    // exchange; deterministic, so only recorded in the report, not baselined.
    eprintln!("perf_report: measuring overlapped-exchange modeled times ...");
    let overlap = bench_overlap().into_iter().map(|l| {
        let speedup = l.blocking_secs / l.overlapped_secs;
        eprintln!(
            "  overlap {:<12} blocking {:.4e} s  overlapped {:.4e} s  ({speedup:.3}x)",
            l.machine, l.blocking_secs, l.overlapped_secs
        );
        let entry = Json::obj([
            ("blocking_secs", significant(l.blocking_secs)),
            ("overlapped_secs", significant(l.overlapped_secs)),
            ("speedup", decimals(speedup, 4)),
            ("iterations", l.iterations.into()),
        ]);
        (l.machine, entry)
    });
    let overlap = Json::obj(overlap);
    let baseline_benches = baseline.as_object().unwrap_or(&[]).iter();
    let baseline_benches = baseline_benches.filter(|(k, _)| k != "schema").cloned();

    let mut doc = read(REPORT_PATH).unwrap_or_else(|| Json::obj([("schema", SCHEMA.into())]));
    merge_sections(
        &mut doc,
        vec![
            ("baseline".into(), Json::Obj(baseline_benches.collect())),
            ("current".into(), Json::obj(benches)),
            ("speedup".into(), speedup),
            ("overlap_modeled".into(), overlap),
        ],
    );
    std::fs::write(REPORT_PATH, doc.to_indented()).expect("write report");
    eprintln!("perf_report: wrote {REPORT_PATH}");
}
