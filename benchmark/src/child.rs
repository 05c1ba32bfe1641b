//! One measured solve = one fresh child process of this binary, so memory
//! and allocator state are those of a one-shot `parfem solve`.
//!
//! The child writes one header line of `key=v[,v…]` tokens to stdout,
//! followed by the raw little-endian `f64`s of every solution; the parent
//! parses both. Nothing touches the file system.

use crate::adapter;
use crate::host;
use crate::workload::{self, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::Command;
use std::time::Instant;

/// What a child is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The full solve, untraced: the end-to-end numbers come from here.
    Solve,
    /// The same call chain with `max_iters = 0`: everything paid before the
    /// first iteration.
    Setup,
    /// The full solve under a recording trace sink: per-layer numbers only.
    Traced,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Solve => "solve",
            Phase::Setup => "setup",
            Phase::Traced => "traced",
        }
    }

    fn parse(s: &str) -> Option<Phase> {
        [Phase::Solve, Phase::Setup, Phase::Traced]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

/// The request a parent sends a child, as command-line arguments.
#[derive(Clone, Copy)]
pub struct Request<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub quick: bool,
    pub phase: Phase,
    pub ranks: usize,
}

/// The child side: run the request, report, exit.
pub fn serve(args: &[String]) -> Result<(), String> {
    let [name, seed, quick, phase, ranks] = args else {
        return Err("child: expected WORKLOAD SEED QUICK PHASE RANKS".into());
    };
    let workload = workload::find(name).ok_or("child: unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "child: bad seed")?;
    let quick = quick == "1";
    let phase = Phase::parse(phase).ok_or("child: unknown phase")?;
    let ranks: usize = ranks.parse().map_err(|_| "child: bad rank count")?;

    let rhs = workload.inputs(seed, quick);
    let spec = workload.spec(quick, ranks);
    let max_iters = (phase == Phase::Setup).then_some(0);

    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let solved = adapter::solve(&spec, &rhs, max_iters, phase == Phase::Traced)?;
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let peak_rss_kb = host::peak_rss_kb();

    let mut header = format!(
        "wall_s={wall_s} cpu_s={cpu_s} peak_rss_kb={peak_rss_kb} build_s={} partition_s={} session_s={}",
        solved.build_s, solved.partition_s, solved.session_s
    );
    let mut list = |key: &str, values: Vec<f64>| {
        let joined: Vec<String> = values.iter().map(f64::to_string).collect();
        header.push_str(&format!(" {key}={}", joined.join(",")));
    };
    list(
        "iterations",
        solved.iterations.iter().map(|&i| i as f64).collect(),
    );
    list(
        "restarts",
        solved.restarts.iter().map(|&i| i as f64).collect(),
    );
    list(
        "converged",
        solved.converged.iter().map(|&c| c as u8 as f64).collect(),
    );
    list("final_rel_residual", solved.final_rel_residual.clone());
    for (key, value) in &solved.ledger {
        list(key, vec![*value]);
    }

    let mut out = std::io::stdout().lock();
    let io = |e: std::io::Error| format!("child: stdout: {e}");
    writeln!(out, "{header}").map_err(io)?;
    for u in &solved.solutions {
        let bytes: Vec<u8> = u.iter().flat_map(|x| x.to_le_bytes()).collect();
        out.write_all(&bytes).map_err(io)?;
    }
    out.flush().map_err(io)
}

/// What the parent learned from one child.
#[derive(Debug)]
pub struct Outcome {
    values: BTreeMap<String, Vec<f64>>,
    pub solutions: Vec<Vec<f64>>,
    /// Share of the machine's CPU time the hypervisor stole while the
    /// child ran.
    pub steal_share: f64,
}

impl Outcome {
    /// The first value reported under `key`; NaN when the child did not
    /// report it.
    pub fn get(&self, key: &str) -> f64 {
        self.list(key).first().copied().unwrap_or(f64::NAN)
    }

    pub fn list(&self, key: &str) -> &[f64] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }
}

/// The parent side: spawn the child, wait for it, parse its report.
pub fn run(req: Request<'_>) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (steal0, total0) = host::machine_jiffies();
    let output = Command::new(exe)
        .arg("child")
        .arg(req.workload.name)
        .arg(req.seed.to_string())
        .arg(if req.quick { "1" } else { "0" })
        .arg(req.phase.name())
        .arg(req.ranks.to_string())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let (steal1, total1) = host::machine_jiffies();
    if !output.status.success() {
        return Err(format!(
            "child {} {}: {} {}",
            req.workload.name,
            req.phase.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }

    let split = output
        .stdout
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("child wrote no header")?;
    let header = std::str::from_utf8(&output.stdout[..split]).map_err(|e| e.to_string())?;
    let mut values = BTreeMap::new();
    for token in header.split_whitespace() {
        let (key, list) = token
            .split_once('=')
            .ok_or("child header: token without '='")?;
        let list: Result<Vec<f64>, _> = list.split(',').map(str::parse).collect();
        values.insert(
            key.to_string(),
            list.map_err(|e| format!("child header {key}: {e}"))?,
        );
    }

    let payload = &output.stdout[split + 1..];
    let n_solutions = values.get("iterations").map_or(0, Vec::len);
    if n_solutions == 0 || payload.is_empty() || payload.len() % (8 * n_solutions) != 0 {
        return Err("child payload does not match its header".into());
    }
    let solutions = payload
        .chunks(payload.len() / n_solutions)
        .map(|chunk| {
            chunk
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                .collect()
        })
        .collect();

    Ok(Outcome {
        values,
        solutions,
        steal_share: (steal1 - steal0) / (total1 - total0).max(1.0),
    })
}
