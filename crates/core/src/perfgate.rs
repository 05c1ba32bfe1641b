//! The CI performance-regression gate.
//!
//! Compares the committed benchmark snapshot (`BENCH_PERF.json`) against
//! the frozen reference (`BENCH_BASELINE.json`) and fails — with a non-zero
//! exit from `parfem perf-gate` — when any bounded value crosses its limit.
//! The limits are deliberately generous: the gate catches *structural*
//! regressions (a lost workspace reuse, an accidentally quadratic kernel, a
//! broken overlap schedule, a coarse space that stops flattening the
//! iteration counts), not machine-to-machine noise.
//!
//! Every bound is one row of the `BOUNDS` table: a snapshot section, a
//! pattern over `entry.key` inside it, a rule and a limit. A key takes the first row
//! whose pattern it matches; a section or key the snapshot lacks is
//! skipped, so the gate checks what both sides recorded.

use parfem_trace::json::{self, Json};
use std::fmt;

/// Lowest allowed `current / reference` for throughput (a 40 % drop fails).
const MIN_THROUGHPUT_RATIO: f64 = 0.6;
/// Highest allowed `current / reference` for allocation metrics, on top of
/// `ALLOC_SLACK`.
const MAX_ALLOC_RATIO: f64 = 1.25;
/// Additive slack for allocation metrics, in the metric's own unit: a
/// zero-allocation reference still admits a few allocations per iteration.
const ALLOC_SLACK: f64 = 16.0;
/// Highest allowed two-level iteration growth from `p_min` to `p_max` in
/// the `scaling` bin's weak family (near-flat counts are the whole point
/// of the coarse space).
pub const MAX_TWOLEVEL_ITER_GROWTH: f64 = 1.3;
/// Highest allowed iteration growth of a `physics_scaling` series:
/// slightly looser than [`MAX_TWOLEVEL_ITER_GROWTH`], since the 3-D
/// rigid-body coarse space has six modes to smooth instead of three and
/// the heat family anchors at a very small count.
pub const MAX_PHYSICS_ITER_GROWTH: f64 = 1.5;

/// How one bounded value is checked against its row's limit.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Higher is better: `value >= limit × reference`, the reference being
    /// the same `bench.metric` in the baseline document.
    AtLeastTimesBaseline,
    /// Lower is better: `value <= limit × reference + ALLOC_SLACK`.
    AtMostTimesBaselinePlusSlack,
    /// Lower is better, absolute: `value <= limit`, shown against the
    /// baseline's value.
    AtMostWithBaseline,
    /// `value >= limit`.
    AtLeast,
    /// `value <= limit`.
    AtMost,
    /// `0 < value <= limit` (a parallel efficiency above 1 or at 0 means
    /// the machine model is broken, not that the machine got faster).
    PositiveAtMost,
    /// `value > 0` and finite (a zero or non-finite modeled time means the
    /// machine model broke, not that the solve got free).
    Positive,
    /// `value >` the named sibling key of the same entry.
    Exceeds(&'static str),
}

/// One row of the bounds table.
#[derive(Debug, Clone, Copy)]
struct Bound {
    /// Top-level section of the snapshot (`current`, `scaling_modeled`, …).
    section: &'static str,
    /// `entry.key` inside the section; either part may be `*`, and a key
    /// part ending in `*` matches by prefix.
    pattern: &'static str,
    /// The check.
    rule: Rule,
    /// The rule's limit (unused by [`Rule::Positive`] and [`Rule::Exceeds`]).
    limit: f64,
}

const fn bound(section: &'static str, pattern: &'static str, rule: Rule, limit: f64) -> Bound {
    Bound {
        section,
        pattern,
        rule,
        limit,
    }
}

/// Every bound the gate holds, in report order.
#[rustfmt::skip]
const BOUNDS: &[Bound] = &[
    bound("current", "*.mflops", Rule::AtLeastTimesBaseline, MIN_THROUGHPUT_RATIO),
    bound("current", "*.iters_per_s", Rule::AtLeastTimesBaseline, MIN_THROUGHPUT_RATIO),
    // The warm-workspace FGMRES benches are exactly allocation-free and
    // must stay that way, slack or not.
    bound("current", "fgmres_iteration*.allocs_per_iter", Rule::AtMostWithBaseline, 0.0),
    bound("current", "fgmres_iteration*.alloc_bytes_per_iter", Rule::AtMostWithBaseline, 0.0),
    bound("current", "*.allocs_per_iter", Rule::AtMostTimesBaselinePlusSlack, MAX_ALLOC_RATIO),
    bound("current", "*.alloc_bytes_per_iter", Rule::AtMostTimesBaselinePlusSlack, MAX_ALLOC_RATIO),
    // Overlapping may never be modeled as slower than blocking.
    bound("overlap_modeled", "*.speedup", Rule::AtLeast, 1.0),
    // The graph partitioner may never lose to the strips it refines.
    bound("scaling_modeled", "*.graph_cut_ratio_max", Rule::AtMost, 1.0),
    bound("scaling_modeled", "*.overlap_speedup_min", Rule::AtLeast, 1.0),
    bound("scaling_modeled", "*.efficiency_*", Rule::PositiveAtMost, 1.0),
    bound("twolevel_modeled", "*.twolevel_iter_growth", Rule::AtMost, MAX_TWOLEVEL_ITER_GROWTH),
    // One-level counts must grow strictly faster, or the coarse space buys
    // nothing. (A censored one-level endpoint is a lower bound, which only
    // makes this conservative.)
    bound("twolevel_modeled", "*.onelevel_iter_growth", Rule::Exceeds("twolevel_iter_growth"), 0.0),
    bound("physics_modeled", "*.iter_growth", Rule::AtMost, MAX_PHYSICS_ITER_GROWTH),
    bound("physics_modeled", "*.modeled_time_*", Rule::Positive, 0.0),
];

/// Whether `name` matches one part of a [`Bound::pattern`].
fn matches(part: &str, name: &str) -> bool {
    match part.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => part == name,
    }
}

impl Bound {
    fn matches(&self, entry: &str, key: &str) -> bool {
        let (e, k) = self.pattern.split_once('.').expect("pattern is entry.key");
        matches(e, entry) && matches(k, key)
    }

    /// The check of `value` (`entry.key` of this row's section), or `None`
    /// when the reference it needs is missing.
    fn check(
        &self,
        entry: &Json,
        name: String,
        value: f64,
        reference: Option<f64>,
    ) -> Option<GateCheck> {
        let limit = self.limit;
        let (reference, limit, pass, direction) = match self.rule {
            Rule::AtLeastTimesBaseline => {
                let r = reference?;
                (r, limit * r, value >= limit * r, ">=")
            }
            Rule::AtMostTimesBaselinePlusSlack => {
                let r = reference?;
                let l = limit * r + ALLOC_SLACK;
                (r, l, value <= l, "<=")
            }
            Rule::AtMostWithBaseline => (reference?, limit, value <= limit, "<="),
            Rule::AtLeast => (1.0, limit, value >= limit, ">="),
            Rule::AtMost => (1.0, limit, value <= limit, "<="),
            Rule::PositiveAtMost => (1.0, limit, value > 0.0 && value <= limit + 1e-9, "<="),
            Rule::Positive => (0.0, 0.0, value.is_finite() && value > 0.0, ">"),
            Rule::Exceeds(sibling) => {
                let s = entry.get(sibling).and_then(Json::as_f64)?;
                (s, s, value > s, ">")
            }
        };
        Some(GateCheck {
            name,
            current: value,
            reference,
            limit,
            pass,
            direction,
        })
    }
}

/// One evaluated metric.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// `bench.metric` (for example `spmv.mflops`).
    pub name: String,
    /// The measured value from `BENCH_PERF.json`'s `current` section.
    pub current: f64,
    /// The reference value from `BENCH_BASELINE.json`.
    pub reference: f64,
    /// The limit `current` was compared against.
    limit: f64,
    /// Whether the check passed.
    pub pass: bool,
    /// `>=` for higher-is-better metrics, `<=` for lower-is-better ones.
    pub direction: &'static str,
}

/// Result of a gate evaluation: every check, pass or fail.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// All evaluated checks, in file order.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&GateCheck> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }

    /// Renders the fixed-width pass/fail table `parfem perf-gate` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>14} {:>14} {:>14}  {}\n",
            "metric", "current", "reference", "limit", "status"
        ));
        for c in &self.checks {
            out.push_str(&format!(
                "{:<42} {:>14.4} {:>14.4} {:>14.4}  {}\n",
                format!("{} ({})", c.name, c.direction),
                c.current,
                c.reference,
                c.limit,
                if c.pass { "ok" } else { "REGRESSION" }
            ));
        }
        let failures = self.failures();
        if failures.is_empty() {
            out.push_str(&format!("perf gate: {} checks passed\n", self.checks.len()));
        } else {
            out.push_str(&format!(
                "perf gate: {} of {} checks FAILED\n",
                failures.len(),
                self.checks.len()
            ));
        }
        out
    }
}

/// Why a gate evaluation could not run (distinct from a failing gate).
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// A JSON document failed to parse.
    Parse {
        /// Which document (`"perf"` or `"baseline"`).
        which: &'static str,
        /// The underlying parse error, rendered.
        detail: String,
    },
    /// A document parsed but is missing a required section or has an
    /// unexpected schema tag.
    Schema(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Parse { which, detail } => {
                write!(f, "could not parse the {which} document: {detail}")
            }
            GateError::Schema(msg) => write!(f, "unexpected bench schema: {msg}"),
        }
    }
}

impl std::error::Error for GateError {}

fn expect_schema(doc: &Json, which: &'static str) -> Result<(), GateError> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("parfem-bench-perf-v1") => Ok(()),
        Some(other) => Err(GateError::Schema(format!(
            "{which}: schema {other:?}, expected \"parfem-bench-perf-v1\""
        ))),
        None => Err(GateError::Schema(format!(
            "{which}: missing \"schema\" tag"
        ))),
    }
}

/// Evaluates the `BOUNDS` table over the two parsed documents.
///
/// `perf` is `BENCH_PERF.json`; `baseline` is `BENCH_BASELINE.json`
/// (benches at the top level), the reference of the `current` rows. Checks
/// come out section by section in table order, each section's entries in
/// file order, each entry's keys row by row.
///
/// # Errors
/// [`GateError::Schema`] when either document lacks the expected schema
/// tag or the perf document has no `current` section.
pub fn evaluate(perf: &Json, baseline: &Json) -> Result<GateReport, GateError> {
    expect_schema(perf, "perf")?;
    expect_schema(baseline, "baseline")?;
    if perf.get("current").and_then(Json::as_object).is_none() {
        return Err(GateError::Schema(
            "perf: missing \"current\" section".to_string(),
        ));
    }
    let mut sections: Vec<&str> = BOUNDS.iter().map(|b| b.section).collect();
    sections.dedup();
    let mut checks = Vec::new();
    for section in sections {
        let rows: Vec<&Bound> = BOUNDS.iter().filter(|b| b.section == section).collect();
        let entries = perf.get(section).and_then(Json::as_object).unwrap_or(&[]);
        for (entry_name, entry) in entries {
            let keys = entry.as_object().unwrap_or(&[]);
            for (i, row) in rows.iter().enumerate() {
                for (key, value) in keys {
                    // A key belongs to the first row that matches it.
                    let first = rows.iter().position(|r| r.matches(entry_name, key));
                    let Some(value) = value.as_f64().filter(|_| first == Some(i)) else {
                        continue;
                    };
                    let reference = baseline.get(entry_name).and_then(|b| b.get(key));
                    // `current` checks are named `bench.metric`.
                    let name = match section {
                        "current" => format!("{entry_name}.{key}"),
                        _ => format!("{section}.{entry_name}.{key}"),
                    };
                    checks.extend(row.check(entry, name, value, reference.and_then(Json::as_f64)));
                }
            }
        }
    }
    Ok(GateReport { checks })
}

/// [`evaluate`] over raw JSON texts (what the CLI reads from disk).
///
/// # Errors
/// [`GateError::Parse`] when either text is not valid JSON, plus
/// everything [`evaluate`] reports.
pub fn evaluate_texts(perf_text: &str, baseline_text: &str) -> Result<GateReport, GateError> {
    let parse = |which, text| {
        json::parse(text).map_err(|e| GateError::Parse {
            which,
            detail: e.to_string(),
        })
    };
    evaluate(
        &parse("perf", perf_text)?,
        &parse("baseline", baseline_text)?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "schema": "parfem-bench-perf-v1",
        "spmv": { "n": 65536, "secs": 3.4e-4, "mflops": 1900.0 },
        "fgmres_iteration": { "n": 40000, "iters_per_s": 900.0,
                              "allocs_per_iter": 3.33, "alloc_bytes_per_iter": 665837.8 }
    }"#;

    fn perf(spmv_mflops: f64, allocs: f64, overlap: f64) -> String {
        format!(
            r#"{{
                "schema": "parfem-bench-perf-v1",
                "current": {{
                    "spmv": {{ "n": 65536, "mflops": {spmv_mflops} }},
                    "fgmres_iteration": {{ "iters_per_s": 1600.0,
                                           "allocs_per_iter": {allocs},
                                           "alloc_bytes_per_iter": 0.0 }}
                }},
                "overlap_modeled": {{
                    "ibm_sp2": {{ "speedup": {overlap} }}
                }}
            }}"#
        )
    }

    #[test]
    fn healthy_snapshot_passes() {
        let report = evaluate_texts(&perf(2400.0, 0.0, 1.29), BASELINE).unwrap();
        assert!(report.passed(), "{}", report.render());
        // spmv.mflops, fgmres iters_per_s + 2 alloc metrics, 1 overlap.
        assert_eq!(report.checks.len(), 5);
    }

    #[test]
    fn throughput_collapse_fails() {
        let report = evaluate_texts(&perf(400.0, 0.0, 1.29), BASELINE).unwrap();
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "spmv.mflops");
        assert!(report.render().contains("REGRESSION"));
    }

    #[test]
    fn allocation_regression_fails() {
        let report = evaluate_texts(&perf(2400.0, 50.0, 1.29), BASELINE).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "fgmres_iteration.allocs_per_iter"
        );
    }

    #[test]
    fn lost_overlap_speedup_fails() {
        let report = evaluate_texts(&perf(2400.0, 0.0, 0.97), BASELINE).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures()[0].name, "overlap_modeled.ibm_sp2.speedup");
    }

    fn scaling_perf(ratio: f64, overlap_min: f64, eff: f64) -> String {
        format!(
            r#"{{
                "schema": "parfem-bench-perf-v1",
                "current": {{}},
                "scaling_modeled": {{
                    "weak": {{
                        "p_max": 4096,
                        "graph_cut_ratio_max": {ratio},
                        "overlap_speedup_min": {overlap_min},
                        "efficiency_cluster-2level_p4096": {eff}
                    }}
                }}
            }}"#
        )
    }

    #[test]
    fn healthy_scaling_series_passes() {
        let report = evaluate_texts(&scaling_perf(0.43, 1.14, 0.51), BASELINE).unwrap();
        assert!(report.passed(), "{}", report.render());
        // cut ratio + overlap minimum + one efficiency field.
        assert_eq!(report.checks.len(), 3);
    }

    #[test]
    fn graph_partitioner_losing_to_strips_fails() {
        let report = evaluate_texts(&scaling_perf(1.02, 1.14, 0.51), BASELINE).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "scaling_modeled.weak.graph_cut_ratio_max"
        );
    }

    #[test]
    fn scaling_overlap_regression_fails() {
        let report = evaluate_texts(&scaling_perf(0.43, 0.96, 0.51), BASELINE).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "scaling_modeled.weak.overlap_speedup_min"
        );
    }

    #[test]
    fn nonphysical_efficiency_fails_in_both_directions() {
        for bad in [1.2, 0.0, -0.1] {
            let report = evaluate_texts(&scaling_perf(0.43, 1.14, bad), BASELINE).unwrap();
            assert!(!report.passed(), "efficiency {bad} must fail");
            assert_eq!(
                report.failures()[0].name,
                "scaling_modeled.weak.efficiency_cluster-2level_p4096"
            );
        }
    }

    fn twolevel_perf(growth_two: f64, growth_one: f64) -> String {
        format!(
            r#"{{
                "schema": "parfem-bench-perf-v1",
                "current": {{}},
                "twolevel_modeled": {{
                    "weak": {{
                        "p_min": 64,
                        "p_max": 4096,
                        "onelevel_censored": 1,
                        "twolevel_iter_growth": {growth_two},
                        "onelevel_iter_growth": {growth_one}
                    }}
                }}
            }}"#
        )
    }

    #[test]
    fn healthy_twolevel_series_passes() {
        let report = evaluate_texts(&twolevel_perf(1.23, 24.0), BASELINE).unwrap();
        assert!(report.passed(), "{}", report.render());
        // growth bound + strict one-level comparison.
        assert_eq!(report.checks.len(), 2);
    }

    #[test]
    fn twolevel_iteration_growth_past_bound_fails() {
        let report = evaluate_texts(&twolevel_perf(1.5, 24.0), BASELINE).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "twolevel_modeled.weak.twolevel_iter_growth"
        );
    }

    #[test]
    fn onelevel_not_strictly_faster_growing_fails() {
        // Equality fails too: the one-level counts must grow *strictly*
        // faster, otherwise the coarse space buys nothing.
        for g1 in [1.23, 1.1] {
            let report = evaluate_texts(&twolevel_perf(1.23, g1), BASELINE).unwrap();
            assert!(!report.passed(), "one-level growth {g1} must fail");
            assert_eq!(
                report.failures()[0].name,
                "twolevel_modeled.weak.onelevel_iter_growth"
            );
        }
    }

    fn physics_perf(growth: f64, time_p1024: &str) -> String {
        format!(
            r#"{{
                "schema": "parfem-bench-perf-v1",
                "current": {{}},
                "physics_modeled": {{
                    "heat2d": {{
                        "p_min": 64,
                        "p_max": 1024,
                        "iters_p64": 10,
                        "iters_p1024": 10,
                        "modeled_time_p64": 3.1e-4,
                        "modeled_time_p1024": 8.9e-4,
                        "iter_growth": 1.0
                    }},
                    "elasticity3d": {{
                        "p_min": 64,
                        "p_max": 1024,
                        "iters_p64": 12,
                        "iters_p1024": 17,
                        "modeled_time_p64": 1.3e-3,
                        "modeled_time_p1024": {time_p1024},
                        "iter_growth": {growth}
                    }}
                }}
            }}"#
        )
    }

    #[test]
    fn healthy_physics_series_passes() {
        let report = evaluate_texts(&physics_perf(1.42, "4.6e-3"), BASELINE).unwrap();
        assert!(report.passed(), "{}", report.render());
        // Two series × (1 growth + 2 modeled-time checks).
        assert_eq!(report.checks.len(), 6);
    }

    #[test]
    fn physics_iteration_growth_past_bound_fails() {
        // The degraded-snapshot self-test: a coarse space that stops
        // flattening a physics workload's counts must trip the gate.
        let report = evaluate_texts(&physics_perf(1.75, "4.6e-3"), BASELINE).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "physics_modeled.elasticity3d.iter_growth"
        );
    }

    #[test]
    fn nonpositive_physics_modeled_time_fails() {
        for bad in ["0.0", "-1.0e-3"] {
            let report = evaluate_texts(&physics_perf(1.42, bad), BASELINE).unwrap();
            assert!(!report.passed(), "modeled time {bad} must fail");
            assert_eq!(
                report.failures()[0].name,
                "physics_modeled.elasticity3d.modeled_time_p1024"
            );
        }
    }

    #[test]
    fn zero_alloc_reference_keeps_additive_slack_for_uncapped_benches() {
        // Benches without an absolute cap keep the ratio-plus-slack rule:
        // a zero-allocation reference still admits a few allocations.
        let baseline = r#"{
            "schema": "parfem-bench-perf-v1",
            "precond_apply_gls7": { "allocs_per_iter": 0.0 }
        }"#;
        let perf = r#"{
            "schema": "parfem-bench-perf-v1",
            "current": { "precond_apply_gls7": { "allocs_per_iter": 4.0 } }
        }"#;
        let report = evaluate_texts(perf, baseline).unwrap();
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn fgmres_allocation_cap_is_absolute_zero() {
        // The warm-workspace FGMRES benches carry an absolute cap: even a
        // single byte per iteration fails, slack or not.
        let baseline = r#"{
            "schema": "parfem-bench-perf-v1",
            "fgmres_iteration_gls7": { "allocs_per_iter": 0.0,
                                       "alloc_bytes_per_iter": 0.0 }
        }"#;
        let perf = r#"{
            "schema": "parfem-bench-perf-v1",
            "current": { "fgmres_iteration_gls7": { "allocs_per_iter": 0.0,
                                                    "alloc_bytes_per_iter": 1.0 } }
        }"#;
        let report = evaluate_texts(perf, baseline).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "fgmres_iteration_gls7.alloc_bytes_per_iter"
        );
    }

    #[test]
    fn committed_snapshots_pass_the_default_gate() {
        // The acceptance criterion: the repo's own BENCH_PERF.json vs
        // BENCH_BASELINE.json must pass deterministically.
        let perf = include_str!("../../../BENCH_PERF.json");
        let baseline = include_str!("../../../BENCH_BASELINE.json");
        let report = evaluate_texts(perf, baseline).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks.len() >= 8, "{}", report.render());
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = evaluate_texts("{not json", BASELINE).unwrap_err();
        assert!(
            matches!(err, GateError::Parse { which: "perf", .. }),
            "{err}"
        );
    }

    #[test]
    fn wrong_schema_is_a_schema_error() {
        let err = evaluate_texts(
            r#"{"schema": "parfem-bench-perf-v2", "current": {}}"#,
            BASELINE,
        )
        .unwrap_err();
        assert!(matches!(err, GateError::Schema(_)), "{err}");
    }
}
