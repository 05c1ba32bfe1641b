//! The CI performance-regression gate.
//!
//! Compares the committed benchmark snapshot (`BENCH_PERF.json`, its
//! `current` section) against the frozen reference (`BENCH_BASELINE.json`)
//! and fails — with a non-zero exit from `parfem perf-gate` — when any
//! tracked metric regresses past its threshold. The thresholds are
//! deliberately generous: the gate catches *structural* regressions (a lost
//! workspace reuse, an accidentally quadratic kernel, a broken overlap
//! schedule), not machine-to-machine noise.
//!
//! Four families of checks:
//!
//! - **throughput** (`mflops`, `iters_per_s`) — higher is better; fail when
//!   `current < threshold × reference`,
//! - **allocation** (`allocs_per_iter`, `alloc_bytes_per_iter`) — lower is
//!   better; fail when `current > threshold × reference + slack` (the
//!   additive slack keeps a zero-allocation reference from forbidding any
//!   future allocation at all),
//! - **overlap** (`overlap_modeled.*.speedup`) — the modeled
//!   overlapped-exchange speedup must stay ≥ 1: overlapping may never be
//!   modeled as slower than blocking,
//! - **scaling** (`scaling_modeled.*`, the large-P series the `scaling`
//!   bench bin regenerates) — the graph partitioner's worst edge-cut ratio
//!   against strips must stay ≤ 1, each series' worst modeled overlap
//!   speedup must stay ≥ 1, and every recorded parallel efficiency must
//!   lie in `(0, 1]` (an efficiency above 1 or at 0 means the machine
//!   model is broken, not that the machine got faster),
//! - **two-level convergence** (`twolevel_modeled.*`, real FGMRES solves
//!   over the weak-scaling family) — the two-level iteration growth from
//!   `p_min` to `p_max` must stay ≤ 1.3, and the one-level growth over the
//!   same range must stay strictly larger than the two-level growth: the
//!   coarse space earns its keep only if it flattens the iteration curve
//!   that the one-level smoother cannot,
//! - **physics workloads** (`physics_modeled.*`, real FGMRES solves over
//!   the heat2d and elasticity3d weak families the `physics_scaling` bin
//!   regenerates) — each problem's two-level iteration growth from `p_min`
//!   to `p_max` must stay ≤ 1.5, and every recorded modeled solve time
//!   must be positive and finite (a zero or non-finite time means the
//!   machine model broke, not that the solve got free).

use parfem_trace::json::{self, Json};
use std::fmt;

/// Gate thresholds. [`GateConfig::default`] matches what CI runs.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Minimum allowed `current / reference` for higher-is-better
    /// throughput metrics (default `0.6`: a 40% drop fails).
    pub min_throughput_ratio: f64,
    /// Maximum allowed `current / reference` for lower-is-better
    /// allocation metrics (default `1.25`).
    pub max_alloc_ratio: f64,
    /// Additive slack for allocation metrics, in the metric's own unit
    /// (default `16.0` — a zero-allocation reference still admits a few
    /// allocations per iteration before failing).
    pub alloc_slack: f64,
    /// Minimum allowed modeled overlap speedup (default `1.0`).
    pub min_overlap_speedup: f64,
    /// Maximum allowed `scaling_modeled.*.graph_cut_ratio_max` — the graph
    /// partitioner's worst edge cut relative to strips across a scaling
    /// series (default `1.0`: the graph partitioner may never lose to the
    /// structured strips it refines).
    pub max_graph_cut_ratio: f64,
    /// Maximum allowed `twolevel_modeled.*.twolevel_iter_growth` — the
    /// two-level iteration count at `p_max` relative to `p_min` (default
    /// `1.3`: near-flat counts are the whole point of the coarse space).
    pub max_twolevel_iter_growth: f64,
    /// Maximum allowed `physics_modeled.*.iter_growth` — each non-paper
    /// workload's two-level iteration count at `p_max` relative to `p_min`
    /// (default `1.5`: slightly looser than the elasticity2d bound, since
    /// the 3-D rigid-body coarse space has six modes to smooth instead of
    /// three and the heat family anchors at a very small count).
    pub max_physics_iter_growth: f64,
    /// Per-metric **absolute** caps on allocation metrics, overriding the
    /// ratio-plus-slack rule wherever tighter. Each entry is a
    /// (check-name prefix, cap) pair matched against `bench.metric`; the
    /// default caps every `fgmres_iteration*` bench at **zero** allocations
    /// and bytes per iteration — the warm-workspace solvers are exactly
    /// allocation-free and must stay that way.
    pub alloc_caps: Vec<(String, f64)>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            min_throughput_ratio: 0.6,
            max_alloc_ratio: 1.25,
            alloc_slack: 16.0,
            min_overlap_speedup: 1.0,
            max_graph_cut_ratio: 1.0,
            max_twolevel_iter_growth: 1.3,
            max_physics_iter_growth: 1.5,
            alloc_caps: vec![("fgmres_iteration".to_string(), 0.0)],
        }
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
    pub limit: f64,
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

/// The throughput metrics of the committed bench schema, per bench.
const THROUGHPUT_METRICS: &[&str] = &["mflops", "iters_per_s"];
/// The allocation metrics of the committed bench schema, per bench.
const ALLOC_METRICS: &[&str] = &["allocs_per_iter", "alloc_bytes_per_iter"];

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

/// Evaluates the gate over the two parsed documents.
///
/// `perf` is `BENCH_PERF.json` (its `current` and `overlap_modeled`
/// sections are read); `baseline` is `BENCH_BASELINE.json` (benches at the
/// top level). Benches or metrics present on only one side are skipped —
/// the gate compares what both sides measured.
///
/// # Errors
/// [`GateError::Schema`] when either document lacks the expected schema
/// tag or the perf document has no `current` section.
pub fn evaluate(perf: &Json, baseline: &Json, cfg: &GateConfig) -> Result<GateReport, GateError> {
    expect_schema(perf, "perf")?;
    expect_schema(baseline, "baseline")?;
    let current = perf
        .get("current")
        .and_then(Json::as_object)
        .ok_or_else(|| GateError::Schema("perf: missing \"current\" section".to_string()))?;

    let mut checks = Vec::new();
    for (bench, cur_bench) in current {
        let Some(ref_bench) = baseline.get(bench) else {
            continue;
        };
        for &metric in THROUGHPUT_METRICS {
            let (Some(cur), Some(reference)) = (
                cur_bench.get(metric).and_then(Json::as_f64),
                ref_bench.get(metric).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let limit = cfg.min_throughput_ratio * reference;
            checks.push(GateCheck {
                name: format!("{bench}.{metric}"),
                current: cur,
                reference,
                limit,
                pass: cur >= limit,
                direction: ">=",
            });
        }
        for &metric in ALLOC_METRICS {
            let (Some(cur), Some(reference)) = (
                cur_bench.get(metric).and_then(Json::as_f64),
                ref_bench.get(metric).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let name = format!("{bench}.{metric}");
            let limit = cfg
                .alloc_caps
                .iter()
                .filter(|(prefix, _)| name.starts_with(prefix.as_str()))
                .map(|&(_, cap)| cap)
                .fold(cfg.max_alloc_ratio * reference + cfg.alloc_slack, f64::min);
            checks.push(GateCheck {
                name,
                current: cur,
                reference,
                limit,
                pass: cur <= limit,
                direction: "<=",
            });
        }
    }
    if let Some(overlap) = perf.get("overlap_modeled").and_then(Json::as_object) {
        for (machine, entry) in overlap {
            let Some(speedup) = entry.get("speedup").and_then(Json::as_f64) else {
                continue;
            };
            checks.push(GateCheck {
                name: format!("overlap_modeled.{machine}.speedup"),
                current: speedup,
                reference: 1.0,
                limit: cfg.min_overlap_speedup,
                pass: speedup >= cfg.min_overlap_speedup,
                direction: ">=",
            });
        }
    }
    if let Some(scaling) = perf.get("scaling_modeled").and_then(Json::as_object) {
        for (series, entry) in scaling {
            if let Some(ratio) = entry.get("graph_cut_ratio_max").and_then(Json::as_f64) {
                checks.push(GateCheck {
                    name: format!("scaling_modeled.{series}.graph_cut_ratio_max"),
                    current: ratio,
                    reference: 1.0,
                    limit: cfg.max_graph_cut_ratio,
                    pass: ratio <= cfg.max_graph_cut_ratio,
                    direction: "<=",
                });
            }
            if let Some(speedup) = entry.get("overlap_speedup_min").and_then(Json::as_f64) {
                checks.push(GateCheck {
                    name: format!("scaling_modeled.{series}.overlap_speedup_min"),
                    current: speedup,
                    reference: 1.0,
                    limit: cfg.min_overlap_speedup,
                    pass: speedup >= cfg.min_overlap_speedup,
                    direction: ">=",
                });
            }
            let Some(fields) = entry.as_object() else {
                continue;
            };
            for (key, value) in fields {
                if !key.starts_with("efficiency_") {
                    continue;
                }
                let Some(eff) = value.as_f64() else { continue };
                checks.push(GateCheck {
                    name: format!("scaling_modeled.{series}.{key}"),
                    current: eff,
                    reference: 1.0,
                    limit: 1.0,
                    pass: eff > 0.0 && eff <= 1.0 + 1e-9,
                    direction: "<=",
                });
            }
        }
    }
    if let Some(twolevel) = perf.get("twolevel_modeled").and_then(Json::as_object) {
        for (series, entry) in twolevel {
            let growth_two = entry.get("twolevel_iter_growth").and_then(Json::as_f64);
            if let Some(g2) = growth_two {
                checks.push(GateCheck {
                    name: format!("twolevel_modeled.{series}.twolevel_iter_growth"),
                    current: g2,
                    reference: 1.0,
                    limit: cfg.max_twolevel_iter_growth,
                    pass: g2 <= cfg.max_twolevel_iter_growth,
                    direction: "<=",
                });
            }
            if let (Some(g1), Some(g2)) = (
                entry.get("onelevel_iter_growth").and_then(Json::as_f64),
                growth_two,
            ) {
                // One-level growth is the reference *and* the limit: the
                // one-level counts must grow strictly faster, so the
                // two-level growth has to sit strictly below it. (With a
                // censored one-level endpoint `g1` is a lower bound, which
                // only makes this check conservative.)
                checks.push(GateCheck {
                    name: format!("twolevel_modeled.{series}.onelevel_iter_growth"),
                    current: g1,
                    reference: g2,
                    limit: g2,
                    pass: g1 > g2,
                    direction: ">",
                });
            }
        }
    }
    if let Some(physics) = perf.get("physics_modeled").and_then(Json::as_object) {
        for (series, entry) in physics {
            if let Some(growth) = entry.get("iter_growth").and_then(Json::as_f64) {
                checks.push(GateCheck {
                    name: format!("physics_modeled.{series}.iter_growth"),
                    current: growth,
                    reference: 1.0,
                    limit: cfg.max_physics_iter_growth,
                    pass: growth <= cfg.max_physics_iter_growth,
                    direction: "<=",
                });
            }
            let Some(fields) = entry.as_object() else {
                continue;
            };
            for (key, value) in fields {
                if !key.starts_with("modeled_time_") {
                    continue;
                }
                let Some(t) = value.as_f64() else { continue };
                checks.push(GateCheck {
                    name: format!("physics_modeled.{series}.{key}"),
                    current: t,
                    reference: 0.0,
                    limit: 0.0,
                    pass: t.is_finite() && t > 0.0,
                    direction: ">",
                });
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
pub fn evaluate_texts(
    perf_text: &str,
    baseline_text: &str,
    cfg: &GateConfig,
) -> Result<GateReport, GateError> {
    let perf = json::parse(perf_text).map_err(|e| GateError::Parse {
        which: "perf",
        detail: e.to_string(),
    })?;
    let baseline = json::parse(baseline_text).map_err(|e| GateError::Parse {
        which: "baseline",
        detail: e.to_string(),
    })?;
    evaluate(&perf, &baseline, cfg)
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
        let report =
            evaluate_texts(&perf(2400.0, 0.0, 1.29), BASELINE, &GateConfig::default()).unwrap();
        assert!(report.passed(), "{}", report.render());
        // spmv.mflops, fgmres iters_per_s + 2 alloc metrics, 1 overlap.
        assert_eq!(report.checks.len(), 5);
    }

    #[test]
    fn throughput_collapse_fails() {
        let report =
            evaluate_texts(&perf(400.0, 0.0, 1.29), BASELINE, &GateConfig::default()).unwrap();
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "spmv.mflops");
        assert!(report.render().contains("REGRESSION"));
    }

    #[test]
    fn allocation_regression_fails() {
        let report =
            evaluate_texts(&perf(2400.0, 50.0, 1.29), BASELINE, &GateConfig::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "fgmres_iteration.allocs_per_iter"
        );
    }

    #[test]
    fn lost_overlap_speedup_fails() {
        let report =
            evaluate_texts(&perf(2400.0, 0.0, 0.97), BASELINE, &GateConfig::default()).unwrap();
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
        let report = evaluate_texts(
            &scaling_perf(0.43, 1.14, 0.51),
            BASELINE,
            &GateConfig::default(),
        )
        .unwrap();
        assert!(report.passed(), "{}", report.render());
        // cut ratio + overlap minimum + one efficiency field.
        assert_eq!(report.checks.len(), 3);
    }

    #[test]
    fn graph_partitioner_losing_to_strips_fails() {
        let report = evaluate_texts(
            &scaling_perf(1.02, 1.14, 0.51),
            BASELINE,
            &GateConfig::default(),
        )
        .unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "scaling_modeled.weak.graph_cut_ratio_max"
        );
    }

    #[test]
    fn scaling_overlap_regression_fails() {
        let report = evaluate_texts(
            &scaling_perf(0.43, 0.96, 0.51),
            BASELINE,
            &GateConfig::default(),
        )
        .unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "scaling_modeled.weak.overlap_speedup_min"
        );
    }

    #[test]
    fn nonphysical_efficiency_fails_in_both_directions() {
        for bad in [1.2, 0.0, -0.1] {
            let report = evaluate_texts(
                &scaling_perf(0.43, 1.14, bad),
                BASELINE,
                &GateConfig::default(),
            )
            .unwrap();
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
        let report =
            evaluate_texts(&twolevel_perf(1.23, 24.0), BASELINE, &GateConfig::default()).unwrap();
        assert!(report.passed(), "{}", report.render());
        // growth bound + strict one-level comparison.
        assert_eq!(report.checks.len(), 2);
    }

    #[test]
    fn twolevel_iteration_growth_past_bound_fails() {
        let report =
            evaluate_texts(&twolevel_perf(1.5, 24.0), BASELINE, &GateConfig::default()).unwrap();
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
            let report =
                evaluate_texts(&twolevel_perf(1.23, g1), BASELINE, &GateConfig::default()).unwrap();
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
        let report = evaluate_texts(
            &physics_perf(1.42, "4.6e-3"),
            BASELINE,
            &GateConfig::default(),
        )
        .unwrap();
        assert!(report.passed(), "{}", report.render());
        // Two series × (1 growth + 2 modeled-time checks).
        assert_eq!(report.checks.len(), 6);
    }

    #[test]
    fn physics_iteration_growth_past_bound_fails() {
        // The degraded-snapshot self-test: a coarse space that stops
        // flattening a physics workload's counts must trip the gate.
        let report = evaluate_texts(
            &physics_perf(1.75, "4.6e-3"),
            BASELINE,
            &GateConfig::default(),
        )
        .unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.failures()[0].name,
            "physics_modeled.elasticity3d.iter_growth"
        );
    }

    #[test]
    fn nonpositive_physics_modeled_time_fails() {
        for bad in ["0.0", "-1.0e-3"] {
            let report =
                evaluate_texts(&physics_perf(1.42, bad), BASELINE, &GateConfig::default()).unwrap();
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
        let report = evaluate_texts(perf, baseline, &GateConfig::default()).unwrap();
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
        let report = evaluate_texts(perf, baseline, &GateConfig::default()).unwrap();
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
        let report = evaluate_texts(perf, baseline, &GateConfig::default()).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks.len() >= 8, "{}", report.render());
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = evaluate_texts("{not json", BASELINE, &GateConfig::default()).unwrap_err();
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
            &GateConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, GateError::Schema(_)), "{err}");
    }
}
