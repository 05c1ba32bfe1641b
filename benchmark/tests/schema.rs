//! Runs the benchmark in `--quick` mode (same code paths, small meshes) and
//! checks what it prints against the contract and against `BENCHMARK.json`.

use parfem_benchmark::json::Json;
use parfem_benchmark::metrics::{END_TO_END, PER_LAYER};
use parfem_benchmark::workload::WORKLOADS;
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_parfem-benchmark");

fn well_named(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_united(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("no string '{key}'"))
}

fn number(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::num)
        .unwrap_or_else(|| panic!("no number '{key}'"))
}

#[test]
fn catalog_is_well_formed_and_matches_benchmark_json() {
    assert_eq!(WORKLOADS.len(), 4);
    assert_eq!(END_TO_END.len(), 4);
    assert!(PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(well_named(name), "bad name {name}");
    }
    let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    // Every per-layer metric says what it should move, and where.
    let workload_names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for m in &PER_LAYER {
        assert!(well_united(m.unit), "{}: bad unit", m.name);
        assert!(["lower", "higher"].contains(&m.better), "{}", m.name);
        for moved in m.moves.split_whitespace() {
            assert!(
                moved == "none" || END_TO_END.iter().any(|e| e.name == moved),
                "{} moves unknown metric {moved}",
                m.name
            );
        }
        for on in m.on.split_whitespace() {
            assert!(
                on == "all" || workload_names.contains(&on),
                "{} on unknown {on}",
                m.name
            );
        }
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let keys: Vec<&str> = manifest.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = number(&manifest, "run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let listed = manifest.get("workloads").unwrap().arr();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (json, w) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(text(json, "name"), w.name);
        assert_eq!(text(json, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    let listed = manifest.get("end_to_end").unwrap().arr();
    assert_eq!(listed.len(), END_TO_END.len());
    for (json, m) in listed.iter().zip(&END_TO_END) {
        assert_eq!(text(json, "name"), m.name);
        assert_eq!(text(json, "unit"), m.unit);
        assert!(well_united(m.unit));
        assert_eq!(text(json, "better"), "lower");
        assert_eq!(number(json, "bound"), m.bound);
        assert!(m.bound <= 0.25);
    }
    let listed = manifest.get("per_layer").unwrap().arr();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (json, m) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(text(json, "name"), m.name);
        assert_eq!(text(json, "unit"), m.unit);
        assert_eq!(text(json, "better"), m.better);
    }
}

/// Runs every workload in quick mode and returns the parsed report.
fn quick_report(tag: &str) -> Json {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{tag}.json"));
    let status = Command::new(EXE)
        .args(["--quick", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("run the benchmark");
    assert!(status.success(), "quick run failed: {status}");
    Json::parse(&std::fs::read_to_string(out).unwrap()).unwrap()
}

#[test]
fn quick_run_has_the_schema_and_repeats_its_counts() {
    let (a, b) = (quick_report("a"), quick_report("b"));
    assert_eq!(a.get("quick"), Some(&Json::Bool(true)));
    assert!(a.get("noise").and_then(|n| n.get("noisy")).is_some());

    let workloads = a.get("workloads").unwrap().arr();
    assert_eq!(workloads.len(), 4);
    for (w, expected) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(w, "name"), expected.name);
        assert_eq!(
            number(w, "failed"),
            0.0,
            "{}: {:?}",
            expected.name,
            w.get("notes")
        );
        assert!(number(w, "attempted") >= 1.0);

        let end_to_end = w.get("end_to_end").unwrap().entries();
        assert_eq!(end_to_end.len(), 4);
        for ((name, entry), m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(name, m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            // Quick meshes can finish inside one 10 ms tick of CPU time.
            let value = number(entry, "value");
            assert!(value > 0.0 || (name == "cpu_s" && value == 0.0), "{name}");
            assert_eq!(entry.get("reps").unwrap().arr().len(), 2);
        }
        let per_layer = w.get("per_layer").unwrap().entries();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for ((name, entry), m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(name, m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "moves"), m.moves);
            assert_eq!(text(entry, "on"), m.on);
            assert!(number(entry, "value").is_finite());
        }
    }

    // One seed, two runs: the counts are the same to the last digit, and
    // `compare` says so (times may be unresolved at R = 2; counts may not
    // differ).
    let (table, _) = parfem_benchmark::report::compare(&a, &b);
    assert!(table.contains("identical"), "{table}");
    assert!(!table.contains("DIFFERENT"), "{table}");
}

#[test]
fn contract_run_prints_one_json_object_last() {
    for (trace, expected) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
    ] {
        let output = Command::new(EXE)
            .args(["--workload", "heat2d-rdd-multirhs", "--seed", "9"])
            .args(["--seconds", "1", "--trace", trace, "--quick"])
            .output()
            .expect("run the benchmark");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        let result = Json::parse(stdout.lines().last().expect("a last line")).unwrap();
        let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(number(&result, "attempted") >= 1.0);
        assert_eq!(number(&result, "failed"), 0.0);
        let metrics = result.get("metrics").unwrap().entries();
        assert_eq!(metrics.len(), expected.len());
        for ((name, entry), (expected_name, unit)) in metrics.iter().zip(&expected) {
            assert_eq!(name, expected_name);
            assert_eq!(text(entry, "unit"), *unit);
            assert!(number(entry, "value").is_finite());
        }
    }
    let unknown = Command::new(EXE)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!unknown.status.success() && unknown.stdout.is_empty());
}
