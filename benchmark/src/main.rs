//! Time-to-solution benchmark for parfem. See `README.md`.
//!
//! ```text
//! parfem-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! parfem-benchmark [--seed N] [--quick] [--out FILE.json]      every workload
//! parfem-benchmark compare A.json B.json
//! ```

use parfem_benchmark::bench::{Bench, Noise, Rep, Tally};
use parfem_benchmark::json::{obj, Json};
use parfem_benchmark::workload::{self, RANKS, WORKLOADS};
use parfem_benchmark::{child, host, metrics, report};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Repetitions per workload when every workload runs (`--quick`: 2).
const REPS: usize = 15;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => o.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => o.trace = value()? == "1",
            "--out" => o.out = Some(value()?.clone()),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

/// The contract run: one workload, measured for `--seconds`, one JSON
/// object as the last line of stdout. A solve that fails the gate is part
/// of that result (`"correct": false`), not an error of the run.
fn single(o: &Options, name: &str) -> Result<(), String> {
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })?;
    let bench = Bench::new(workload, o.seed, o.quick);
    let (mut tally, mut noise) = (Tally::default(), Noise::default());
    noise.calibrate();

    // A traced run spends half its time on repetitions, to have an untraced
    // time to set the traced one against, and the rest on the ledger.
    let budget = Duration::from_secs_f64(o.seconds * if o.trace { 0.5 } else { 1.0 });
    let min_reps = if o.quick { 2 } else { 3 };
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let t = Instant::now();
        match bench.rep(&mut tally, &mut noise) {
            Some(rep) => reps.push(rep),
            None => break,
        }
        // Stop before a repetition that would end past the budget.
        if reps.len() >= min_reps && started.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    noise.calibrate();

    let metrics = if reps.is_empty() {
        None
    } else if o.trace {
        let untraced = report::quoted(&reps, metrics::TIME_TO_SOLUTION);
        bench
            .layers(untraced, &mut tally, &mut noise)
            .map(|layers| report::per_layer_values(&layers))
    } else {
        Some(report::end_to_end_values(&reps))
    };
    for note in &tally.notes {
        eprintln!("benchmark: {note}");
    }
    for m in &metrics::END_TO_END {
        let values: Vec<String> = reps.iter().map(|r| r[m.name].to_string()).collect();
        eprintln!("benchmark: reps {} {}", m.name, values.join(" "));
    }
    eprintln!("benchmark: noise {}", report::noise_json(&noise).line());
    let metrics = metrics.ok_or("no measurement completed")?;
    println!(
        "{}",
        obj([
            ("correct", (tally.failed == 0).into()),
            ("attempted", (tally.attempted as f64).into()),
            ("failed", (tally.failed as f64).into()),
            ("metrics", metrics),
        ])
        .line()
    );
    Ok(())
}

/// Every workload: repetitions interleaved round-robin so a slow minute is
/// shared, then one traced run each; prints every metric by name.
fn all(o: &Options) -> Result<bool, String> {
    let n_reps = if o.quick { 2 } else { REPS };
    let benches: Vec<Bench> = WORKLOADS
        .iter()
        .map(|w| Bench::new(w, o.seed, o.quick))
        .collect();
    let mut tallies: Vec<Tally> = benches.iter().map(|_| Tally::default()).collect();
    let mut reps: Vec<Vec<Rep>> = benches.iter().map(|_| Vec::new()).collect();
    let mut noise = Noise::default();

    noise.calibrate();
    for r in 0..n_reps {
        for (i, bench) in benches.iter().enumerate() {
            eprintln!("benchmark: rep {}/{n_reps} {}", r + 1, bench.workload.name);
            reps[i].extend(bench.rep(&mut tallies[i], &mut noise));
        }
        if r + 1 == n_reps.div_ceil(2) {
            noise.calibrate();
        }
    }
    noise.calibrate();

    let mut blocks = Vec::new();
    for (i, bench) in benches.iter().enumerate() {
        eprintln!("benchmark: traced run {}", bench.workload.name);
        let layers = if reps[i].is_empty() {
            None
        } else {
            let untraced = report::quoted(&reps[i], metrics::TIME_TO_SOLUTION);
            bench.layers(untraced, &mut tallies[i], &mut noise)
        };
        blocks.push(report::workload_json(
            bench.workload,
            &reps[i],
            layers.as_ref(),
            &tallies[i],
        ));
    }

    let caches = host::caches();
    let report = obj([
        ("schema", 1.0.into()),
        ("quick", o.quick.into()),
        ("seed", (o.seed as f64).into()),
        ("ranks", (RANKS as f64).into()),
        ("reps", (n_reps as f64).into()),
        (
            "environment",
            obj([
                (
                    "available_parallelism",
                    (std::thread::available_parallelism().map_or(0, |n| n.get()) as f64).into(),
                ),
                ("caches_cpu0", obj(caches.iter().map(|(k, v)| (k.as_str(), v.as_str().into())))),
                (
                    "note",
                    "no workload array is 4x the last-level cache: SpMV bytes and flops per byte are computed from array sizes (see sparse.spmv_working_set_mb_computed), and no bandwidth-versus-peak ratio is given".into(),
                ),
            ]),
        ),
        ("noise", report::noise_json(&noise)),
        ("workloads", Json::Arr(blocks)),
    ]);
    print!("{}", report::render(&report));
    if let Some(path) = &o.out {
        std::fs::write(path, report.pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("report written to {path}");
    }
    Ok(tallies.iter().all(|t| t.failed == 0))
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: compare A.json B.json".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{p}: {e}")))
    };
    let (table, ok) = report::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child::serve(&args[1..]).map(|()| true),
        Some("compare") => compare(&args[1..]),
        _ => parse_options(&args).and_then(|o| match &o.workload {
            Some(name) => single(&o, name).map(|()| true),
            None => all(&o),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Measured, but a solve failed the gate or a comparison is past a
        // bound.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("parfem-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
