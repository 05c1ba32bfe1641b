//! The report every mode prints, and `compare`, which reads two of them.

use crate::bench::{Noise, Rep, Tally, STEAL_SHARE};
use crate::json::{obj, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workload::Workload;
use std::collections::BTreeMap;

/// Per-layer counts that must repeat exactly between two runs of one seed.
const EXACT_COUNTS: [&str; 4] = [
    "krylov.iterations",
    "msg.exchanges_per_iter",
    "msg.allreduces_per_iter",
    "msg.bytes_per_iter",
];

fn column(reps: &[Rep], metric: &str) -> Vec<f64> {
    reps.iter().map(|r| r[metric]).collect()
}

/// The value `metric` is quoted at over the repetitions of one run: the
/// mean of their faster half (see README, "Noise", for why this and not the
/// median or the minimum).
pub fn quoted(reps: &[Rep], metric: &str) -> f64 {
    Summary::of(&column(reps, metric)).faster_half_mean
}

/// `{metric: {value, unit}}` for the end-to-end metrics — the contract's
/// `--trace 0` result.
pub fn end_to_end_values(reps: &[Rep]) -> Json {
    obj(END_TO_END.iter().map(|m| {
        let value = quoted(reps, m.name);
        (
            m.name,
            obj([("value", value.into()), ("unit", m.unit.into())]),
        )
    }))
}

/// `{metric: {value, unit}}` for the per-layer metrics — the contract's
/// `--trace 1` result.
pub fn per_layer_values(layers: &BTreeMap<&'static str, f64>) -> Json {
    obj(PER_LAYER.iter().map(|m| {
        // A ratio over a phase that did not run (0 / 0) reads as 0.
        let value = Some(layers[m.name])
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        (
            m.name,
            obj([("value", value.into()), ("unit", m.unit.into())]),
        )
    }))
}

/// One workload's block of the full report.
pub fn workload_json(
    workload: &Workload,
    reps: &[Rep],
    layers: Option<&BTreeMap<&'static str, f64>>,
    tally: &Tally,
) -> Json {
    let end_to_end = if reps.is_empty() {
        Json::Null
    } else {
        obj(END_TO_END.iter().map(|m| {
            let values = column(reps, m.name);
            let s = Summary::of(&values);
            let entry = obj([
                ("value", s.faster_half_mean.into()),
                ("unit", m.unit.into()),
                ("bound", m.bound.into()),
                ("min", s.min.into()),
                ("q1", s.q1.into()),
                ("median", s.median.into()),
                ("q3", s.q3.into()),
                (
                    "reps",
                    Json::Arr(values.iter().map(|&v| v.into()).collect()),
                ),
            ]);
            (m.name, entry)
        }))
    };
    let per_layer = layers.map_or(Json::Null, |layers| {
        let values = per_layer_values(layers);
        obj(PER_LAYER.iter().map(|m| {
            let mut entry = values
                .get(m.name)
                .expect("catalog entry")
                .entries()
                .to_vec();
            entry.push(("better".into(), m.better.into()));
            entry.push(("moves".into(), m.moves.into()));
            entry.push(("on".into(), m.on.into()));
            (m.name, Json::Obj(entry))
        }))
    });
    obj([
        ("name", workload.name.into()),
        ("why", workload.why.into()),
        ("attempted", (tally.attempted as f64).into()),
        ("failed", (tally.failed as f64).into()),
        (
            "notes",
            Json::Arr(tally.notes.iter().map(|n| n.as_str().into()).collect()),
        ),
        ("end_to_end", end_to_end),
        (
            "steal_share_reps",
            Json::Arr(
                column(reps, STEAL_SHARE)
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
            ),
        ),
        ("per_layer", per_layer),
    ])
}

pub fn noise_json(noise: &Noise) -> Json {
    obj([
        ("steal_share", noise.steal_share().into()),
        (
            "calibration_s",
            Json::Arr(noise.calibrations().iter().map(|&c| c.into()).collect()),
        ),
        ("calibration_spread", noise.calibration_spread().into()),
        ("noisy", noise.noisy().into()),
    ])
}

/// Every metric of a full report by name, with its unit, one per line.
pub fn render(report: &Json) -> String {
    let mut out = String::new();
    for w in report.get("workloads").map_or(&[][..], Json::arr) {
        let name = w.get("name").and_then(Json::str).unwrap_or("?");
        let count = |key: &str| w.get(key).and_then(Json::num).unwrap_or(f64::NAN);
        out.push_str(&format!(
            "\n{name}: {} failed of {} attempted\n",
            count("failed"),
            count("attempted")
        ));
        for note in w.get("notes").map_or(&[][..], Json::arr) {
            out.push_str(&format!("  ! {}\n", note.str().unwrap_or("?")));
        }
        for section in ["end_to_end", "per_layer"] {
            for (metric, entry) in w.get(section).map_or(&[][..], Json::entries) {
                let value = entry.get("value").and_then(Json::num).unwrap_or(f64::NAN);
                let unit = entry.get("unit").and_then(Json::str).unwrap_or("");
                let mut line = format!("  {metric:<40} {value:>14.6} {unit}");
                if let (Some(q1), Some(q3), Some(median)) = (
                    entry.get("q1").and_then(Json::num),
                    entry.get("q3").and_then(Json::num),
                    entry.get("median").and_then(Json::num),
                ) {
                    let n = entry.get("reps").map_or(0, |r| r.arr().len());
                    line.push_str(&format!(
                        "   (min {:.4}, quartiles {q1:.4}..{q3:.4} = {:.1} % of median, R = {n})",
                        entry.get("min").and_then(Json::num).unwrap_or(f64::NAN),
                        100.0 * (q3 - q1) / median
                    ));
                }
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    if let Some(noise) = report.get("noise") {
        out.push_str(&format!("\nnoise: {}\n", noise.line()));
    }
    out
}

/// Compares report `b` against report `a`: per (end-to-end metric,
/// workload) both values, the relative difference and the bound;
/// `unresolved` when either side's inter-quartile range exceeds the bound;
/// exact equality of the counts. Returns the table and whether every pair
/// is resolved, within its bound, and every count equal.
pub fn compare<'a>(a: &'a Json, b: &'a Json) -> (String, bool) {
    let mut out = format!(
        "{:<22} {:<22} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "diff %", "bound"
    );
    let mut ok = true;
    let workloads = |r: &'a Json| r.get("workloads").map_or(&[][..], Json::arr);
    let b_workloads = workloads(b);
    for wa in workloads(a) {
        let name = wa
            .get("name")
            .and_then(Json::str)
            .unwrap_or("?")
            .to_string();
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::str) == Some(&name))
        else {
            out.push_str(&format!("{name:<22} missing from B\n"));
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let field = |w: &Json, key: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get(key))
                    .and_then(Json::num)
                    .unwrap_or(f64::NAN)
            };
            let spread = |w: &Json| (field(w, "q3") - field(w, "q1")) / field(w, "median");
            let (va, vb) = (field(wa, "value"), field(wb, "value"));
            let diff = (vb - va) / va;
            // A missing value is NaN, and NaN is neither resolved nor within.
            let resolved = spread(wa) <= m.bound && spread(wb) <= m.bound;
            let verdict = if !resolved {
                ok = false;
                format!(
                    "unresolved (quartile spread A {:.1} %, B {:.1} %)",
                    100.0 * spread(wa),
                    100.0 * spread(wb)
                )
            } else if diff.is_nan() || diff > m.bound {
                ok = false;
                "WORSE".to_string()
            } else if diff < -m.bound {
                "better".to_string()
            } else {
                "within bound".to_string()
            };
            out.push_str(&format!(
                "{name:<22} {:<22} {va:>12.5} {vb:>12.5} {:>+8.2} {:>6.0}  {verdict}\n",
                m.name,
                100.0 * diff,
                100.0 * m.bound
            ));
        }
        for count in EXACT_COUNTS {
            let value = |w: &Json| {
                w.get("per_layer")
                    .and_then(|p| p.get(count))
                    .and_then(|e| e.get("value"))
                    .and_then(Json::num)
            };
            let (va, vb) = (value(wa), value(wb));
            let equal = va.is_some() && va == vb;
            ok &= equal;
            out.push_str(&format!(
                "{name:<22} {count:<22} {:>12} {:>12} {:>8} {:>6}  {}\n",
                va.map_or("-".into(), |v| v.to_string()),
                vb.map_or("-".into(), |v| v.to_string()),
                "",
                "exact",
                if equal { "identical" } else { "DIFFERENT" }
            ));
        }
    }
    (out, ok)
}
