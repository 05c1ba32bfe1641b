//! Declarative sweep harness for the rows of [`crate::repro::EXPERIMENTS`].
//!
//! Every row follows the same skeleton: build a benchmark case
//! (problem × decomposition × preconditioner × machine), sweep it over
//! subdomain counts or parameter grids, print an aligned table, write the
//! CSV, and assert the paper's qualitative shape. [`Case`] captures the
//! distributed-solve portion of that skeleton on top of
//! [`SolveSession`] — one assembly path, one convergence assertion, one
//! speedup normalization — and [`Table`] captures the output portion, so a
//! row reduces to the sweep grid and its shape checks.

use crate::repro::Run;
use parfem::prelude::*;
use parfem_trace::json::Json;

pub use crate::{banner, fmt};

/// The paper's default rank sweep `P ∈ {1, 2, 4, 8}`.
pub const RANKS: [usize; 4] = [1, 2, 4, 8];

/// Which domain-decomposition strategy a [`Case`] runs, with the default
/// strip partition built per rank count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomp {
    /// Element-based decomposition over `ElementPartition::strips_x`.
    Edd,
    /// Row/node-based decomposition over the node partition of those strips
    /// (`NodePartition::from_elements`).
    Rdd,
}

/// One declarative distributed benchmark case. Builders mirror the
/// [`SolveSession`] options; [`Case::run`] panics (with the case label) on
/// any rank failure or non-convergence, so sweeps stay assertion-dense
/// without per-call boilerplate.
pub struct Case<'a> {
    problem: &'a CantileverProblem,
    decomp: Decomp,
    cfg: SolverConfig,
    model: MachineModel,
    label: String,
}

impl<'a> Case<'a> {
    /// An EDD case with the paper's defaults: `gls(7)`, enhanced variant,
    /// virtual SGI Origin.
    pub fn edd(problem: &'a CantileverProblem) -> Self {
        Case {
            problem,
            decomp: Decomp::Edd,
            cfg: SolverConfig::default(),
            model: MachineModel::sgi_origin(),
            label: "edd".to_string(),
        }
    }

    /// An RDD case with the same defaults.
    pub fn rdd(problem: &'a CantileverProblem) -> Self {
        Case {
            label: "rdd".to_string(),
            decomp: Decomp::Rdd,
            ..Case::edd(problem)
        }
    }

    /// Overrides the preconditioner (registry spec).
    pub fn precond(mut self, spec: PrecondSpec) -> Self {
        self.label = format!("{} {}", self.label, spec.name());
        self.cfg.precond = spec;
        self
    }

    /// Overrides the EDD algorithm variant.
    pub fn variant(mut self, variant: EddVariant) -> Self {
        self.cfg.variant = variant;
        self
    }

    /// Enables or disables overlapped interface exchange.
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.cfg.overlap = overlap;
        self
    }

    /// Overrides the GMRES configuration.
    pub fn gmres(mut self, gmres: GmresConfig) -> Self {
        self.cfg.gmres = gmres;
        self
    }

    /// Overrides the virtual machine model.
    pub fn machine(mut self, model: MachineModel) -> Self {
        self.model = model;
        self
    }

    /// Replaces the whole solver configuration at once.
    pub fn config(mut self, cfg: SolverConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The solver configuration this case runs with.
    pub fn cfg(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Solves on `parts` subdomains with the default strip partition.
    ///
    /// # Panics
    /// Panics if any rank fails or the solve does not converge.
    pub fn run(&self, parts: usize) -> DdSolveOutput {
        self.run_strategy(self.strips(parts))
    }

    /// Solves with an explicit (possibly non-strip) partition strategy.
    ///
    /// # Panics
    /// Panics if any rank fails or the solve does not converge.
    pub fn run_strategy(&self, strategy: Strategy) -> DdSolveOutput {
        self.session(strategy).run().map_or_else(
            |failures| panic!("{}: {failures}", self.label),
            |out| {
                assert!(out.history.converged(), "{} did not converge", self.label);
                out
            },
        )
    }

    /// Like [`Case::run`], recording a structured trace into `sink`.
    ///
    /// # Panics
    /// Panics if any rank fails or the solve does not converge.
    pub fn run_traced(&self, parts: usize, sink: &TraceSink) -> DdSolveOutput {
        self.session(self.strips(parts))
            .trace(sink)
            .run()
            .map_or_else(
                |failures| panic!("{}: {failures}", self.label),
                |out| {
                    assert!(out.history.converged(), "{} did not converge", self.label);
                    out
                },
            )
    }

    /// Runs `steps` Newmark time steps on `parts` subdomains with the
    /// default strip partition.
    ///
    /// # Panics
    /// Panics if any rank fails or any step's solve does not converge.
    pub fn run_dynamic(
        &self,
        parts: usize,
        params: NewmarkParams,
        steps: usize,
        watch_dofs: &[usize],
    ) -> DynamicRunOutput {
        let session = self.session(self.strips(parts));
        let out = (session.run_dynamic(params, steps, watch_dofs))
            .unwrap_or_else(|failures| panic!("{} (dynamic): {failures}", self.label));
        assert!(out.all_converged, "{} (dynamic) not converged", self.label);
        out
    }

    /// Solves at every rank count in `ps`.
    pub fn sweep(&self, ps: &[usize]) -> Vec<DdSolveOutput> {
        ps.iter().map(|&p| self.run(p)).collect()
    }

    /// Speedups `T(ps[0]) / T(p)` over the rank sweep `ps`.
    pub fn speedups(&self, ps: &[usize]) -> Vec<f64> {
        speedups_of(&self.sweep(ps))
    }

    /// The case's strategy over `parts` strips.
    fn strips(&self, parts: usize) -> Strategy {
        let mesh = &self.problem.mesh;
        let elements = ElementPartition::strips_x(mesh, parts);
        if self.decomp == Decomp::Edd {
            return Strategy::Edd(elements);
        }
        Strategy::Rdd(
            NodePartition::from_elements(&elements, mesh).expect("strips keep a node each"),
        )
    }

    fn session(&self, strategy: Strategy) -> SolveSession<'a> {
        SolveSession::new(self.problem.as_problem())
            .strategy(strategy)
            .config(self.cfg.clone())
            .machine(self.model.clone())
    }
}

/// The paper's cantilever with its pulling load on an `nx × ny` element
/// grid; [`PAPER_MESHES`] holds the grids of Mesh1–Mesh10.
pub(crate) fn cantilever((nx, ny): (usize, usize)) -> CantileverProblem {
    CantileverProblem::new(nx, ny, Material::unit(), LoadCase::PullX(1.0))
}

/// `MeshK` for a grid of the paper's family, `NXxNY` for any other.
pub(crate) fn mesh_name(grid: (usize, usize)) -> String {
    match PAPER_MESHES.iter().position(|&m| m == grid) {
        Some(k) => format!("Mesh{}", k + 1),
        None => format!("{}x{}", grid.0, grid.1),
    }
}

/// Speedups of a sweep relative to its first entry's modeled time.
pub fn speedups_of(runs: &[DdSolveOutput]) -> Vec<f64> {
    let t0 = runs.first().map_or(1.0, |r| r.modeled_time);
    runs.iter().map(|r| t0 / r.modeled_time).collect()
}

/// An aligned console table that doubles as the CSV payload: collect rows,
/// then [`Table::emit`] prints every column right-aligned and writes
/// `<name>.csv` with the same header and cells.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column header.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (any iterable of cells).
    pub fn row<I>(&mut self, cells: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width != header width");
        self.rows.push(row);
    }

    /// The collected rows (for shape checks over the printed data).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Prints the table with each column right-aligned to its widest cell.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("{}", line(&self.header));
        for row in &self.rows {
            println!("{}", line(row));
        }
    }

    /// Prints the table and writes it as `<name>.csv` into the run's
    /// directory.
    pub fn emit(&self, run: &Run, name: &str) {
        self.print();
        let header_refs: Vec<&str> = self.header.iter().map(|s| s.as_str()).collect();
        run.csv(name, &header_refs, &self.rows);
    }
}

/// `v` rounded to `decimals` places, as a snapshot number.
pub fn decimals(v: f64, decimals: usize) -> Json {
    Json::Num(format!("{v:.decimals$}").parse().unwrap_or(v))
}

/// `v` rounded to seven significant digits, as a snapshot number.
pub fn significant(v: f64) -> Json {
    Json::Num(format!("{v:.6e}").parse().unwrap_or(v))
}

/// Replaces the members of the object `doc` that `sections` names, in
/// place, and appends the ones it lacks. Every other member — a section
/// some other row regenerates — stays as it was, value for value.
///
/// # Panics
/// Panics if `doc` is not an object.
pub fn merge_sections(doc: &mut Json, sections: Vec<(String, Json)>) {
    let Json::Obj(members) = doc else {
        panic!("a bench snapshot must be a JSON object");
    };
    for (name, section) in sections {
        match members.iter_mut().find(|(k, _)| *k == name) {
            Some((_, old)) => *old = section,
            None => members.push((name, section)),
        }
    }
}

/// Prints one `BENCH_PERF.json` section, as the document `{name: section}`
/// in the snapshot's indented layout, for pasting into the snapshot.
pub fn print_section(name: &str, section: Json) {
    println!("\nBENCH_PERF.json `{name}` section:");
    print!("{}", Json::obj([(name, section)]).to_indented());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_replaces_measured_sections_and_keeps_foreign_ones() {
        let mut doc = parfem_trace::json::parse(
            r#"{"schema": "parfem-bench-perf-v1", "current": {"spmv": {"mflops": 1.0}},
                "scaling_modeled": {"weak": {"p_max": 4096, "graph_cut_ratio_max": 0.4254}}}"#,
        )
        .unwrap();
        let foreign = doc.get("scaling_modeled").cloned();
        let current = Json::obj([("spmv", Json::obj([("mflops", decimals(2.0, 4))]))]);
        let speedup = Json::obj([("spmv", decimals(2.0, 4))]);
        merge_sections(
            &mut doc,
            vec![
                ("current".to_string(), current.clone()),
                ("speedup".to_string(), speedup.clone()),
            ],
        );
        let names: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["schema", "current", "scaling_modeled", "speedup"]);
        assert_eq!(doc.get("current"), Some(&current));
        assert_eq!(doc.get("speedup"), Some(&speedup));
        assert_eq!(doc.get("scaling_modeled").cloned(), foreign);
        let text = doc.to_indented();
        assert!(text.contains("\"graph_cut_ratio_max\": 0.4254"), "{text}");
    }

    #[test]
    fn rounding_keeps_the_snapshot_spelling() {
        assert_eq!(decimals(1.29204, 4).to_compact(), "1.292");
        assert_eq!(significant(3.4301684e-4).to_compact(), "0.0003430168");
        assert_eq!(decimals(f64::NAN, 4).to_compact(), "null");
    }

    #[test]
    fn case_runs_and_speedups_normalize() {
        let p = CantileverProblem::paper_mesh(1);
        let runs = Case::edd(&p)
            .precond(PrecondSpec::parse("gls:3").unwrap())
            .sweep(&[1, 2]);
        assert!(runs.iter().all(|r| r.history.converged()));
        let s = speedups_of(&runs);
        assert_eq!(s[0], 1.0);
        assert!(s[1] > 0.0);
    }

    #[test]
    fn rdd_case_matches_edd_solution() {
        let p = CantileverProblem::paper_mesh(1);
        let e = Case::edd(&p).run(2);
        let r = Case::rdd(&p).run(2);
        let diff: f64 =
            e.u.iter()
                .zip(&r.u)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
        assert!(diff < 1e-6, "EDD/RDD solutions diverged: {diff}");
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.rows().len(), 1);
        let ragged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(["only-one"]);
        }));
        assert!(ragged.is_err());
    }
}
