//! The one experiment driver: runs rows of `parfem_bench::repro::EXPERIMENTS`.
//!
//! ```text
//! repro list                # every row id with the claim it asserts
//! repro all                 # every row but `perf`
//! repro <id>...             # the named rows, in order
//! repro perf [--baseline]   # host wall clock → BENCH_PERF.json (BENCH_BASELINE.json)
//! ```
//!
//! `PARFEM_QUICK` (set to anything) runs the quick tier's smoke sizes.
//! CSVs go to `results/` at the workspace root; `perf` reads and writes
//! the snapshot files in the current directory. A row whose claim fails
//! panics, so the process exits non-zero.

use parfem_bench::repro::{find, perf, Experiment, Run, EXPERIMENTS};
use parfem_trace::alloc::CountingAlloc;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: repro list | all | perf [--baseline] | <id>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = Run {
        quick: std::env::var_os("PARFEM_QUICK").is_some(),
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    };
    let rows: Vec<&Experiment> = match args[..] {
        [] => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        ["list"] => {
            for e in EXPERIMENTS {
                println!("{:<28} {}", e.id, e.claim);
            }
            return ExitCode::SUCCESS;
        }
        ["perf", "--baseline"] => {
            perf::write_baseline();
            return ExitCode::SUCCESS;
        }
        ["all"] => EXPERIMENTS.iter().filter(|e| e.id != "perf").collect(),
        ref ids => match ids.iter().map(|&id| find(id).ok_or(id)).collect() {
            Ok(rows) => rows,
            Err(id) => {
                eprintln!("repro: no row `{id}` (`repro list` names them)\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    for row in rows {
        println!("\n######## {} — {}", row.id, row.claim);
        (row.run)(&run);
    }
    ExitCode::SUCCESS
}
