//! End-to-end tests of the `parfem` command-line binary.

use std::process::Command;

fn parfem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parfem"))
}

#[test]
fn meshes_lists_table2() {
    let out = parfem().arg("meshes").output().expect("run parfem");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Mesh1"));
    assert!(text.contains("Mesh10"));
    assert!(text.contains("20301"));
}

#[test]
fn solve_paper_mesh_converges_and_reports() {
    let out = parfem()
        .args([
            "solve",
            "--paper-mesh",
            "2",
            "--parts",
            "2",
            "--precond",
            "gls:5",
            "--machine",
            "ideal",
        ])
        .output()
        .expect("run parfem");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("converged = true"), "{text}");
    assert!(text.contains("true relative residual"));
}

#[test]
fn solve_rdd_strategy_works() {
    let out = parfem()
        .args([
            "solve",
            "--mesh",
            "12x4",
            "--parts",
            "3",
            "--strategy",
            "rdd",
        ])
        .output()
        .expect("run parfem");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("converged = true"));
}

#[test]
fn spectrum_reports_bounds() {
    let out = parfem()
        .args(["spectrum", "--mesh", "10x4"])
        .output()
        .expect("run parfem");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("power iteration"));
    assert!(text.contains("condition estimate"));
}

#[test]
fn mtx_export_writes_files() {
    let dir = std::env::temp_dir().join("parfem_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("sys");
    let out = parfem()
        .args([
            "solve",
            "--mesh",
            "6x2",
            "--parts",
            "2",
            "--mtx-out",
            prefix.to_str().unwrap(),
        ])
        .output()
        .expect("run parfem");
    assert!(out.status.success());
    for suffix in ["k", "f", "u"] {
        let path = dir.join(format!("sys_{suffix}.mtx"));
        let content = std::fs::read_to_string(&path).expect("mtx file written");
        assert!(content.starts_with("%%MatrixMarket"));
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn traced_solve_writes_parseable_jsonl_and_report_reads_it() {
    let dir = std::env::temp_dir().join("parfem_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.jsonl");
    let out = parfem()
        .args([
            "solve",
            "--mesh",
            "16x4",
            "--parts",
            "4",
            "--machine",
            "ideal",
            "--trace",
            trace.to_str().unwrap(),
            "--profile",
        ])
        .output()
        .expect("run parfem");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // --profile prints the per-rank phase table and comm table inline.
    assert!(text.contains("per-rank phase breakdown"), "{text}");
    assert!(text.contains("per iteration (Table 1)"), "{text}");

    // Every line of the trace file is a standalone JSON object.
    let content = std::fs::read_to_string(&trace).expect("trace written");
    assert!(content.lines().count() > 100);
    for line in content.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"kind\""), "{line}");
    }

    // `parfem report` regenerates the tables from the file alone.
    let rep = parfem()
        .args(["report", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("run parfem report");
    assert!(
        rep.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&rep.stderr)
    );
    let rtext = String::from_utf8_lossy(&rep.stdout);
    assert!(rtext.contains("per-rank phase breakdown"), "{rtext}");
    assert!(rtext.contains("per iteration (Table 1)"), "{rtext}");
    assert!(rtext.contains("converged in"), "{rtext}");
    assert!(rtext.contains("per-rank timeline"), "{rtext}");
    std::fs::remove_file(trace).ok();
}

#[test]
fn escalating_precond_is_parsed_and_converges() {
    let out = parfem()
        .args([
            "solve",
            "--mesh",
            "12x4",
            "--parts",
            "2",
            "--precond",
            "gls-escalating:4",
            "--machine",
            "ideal",
        ])
        .output()
        .expect("run parfem");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gls-escalating(x4)"), "{text}");
    assert!(text.contains("converged = true"), "{text}");

    // A missing period is a usage error, not a panic.
    let bad = parfem()
        .args(["solve", "--mesh", "4x2", "--precond", "gls-escalating"])
        .output()
        .expect("run parfem");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("needs a period"));
}

#[test]
fn report_on_missing_file_fails_cleanly() {
    let out = parfem()
        .args(["report", "--trace", "/nonexistent/trace.jsonl"])
        .output()
        .expect("run parfem");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = parfem().arg("frobnicate").output().expect("run parfem");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = parfem()
        .args(["solve", "--mesh", "nonsense"])
        .output()
        .expect("run parfem");
    assert!(!out.status.success());

    // There is no f32 preconditioner arm and no `--metrics` flag (the trace
    // is the one reporting channel): asking for one is a malformed command
    // line, and the usage text offers neither.
    let out = parfem()
        .args(["solve", "--mesh", "8x2", "--precond", "gls-f32:7"])
        .output()
        .expect("run parfem");
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("unknown preconditioner gls-f32"));
    assert!(!usage.contains("f32:") && !usage.contains("--metrics"));
}
