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

/// RDD takes every `--partitioner`: its rows are the nodes of the same
/// element partition EDD runs on, and the solve meets the CLI's own
/// true-residual check (≤ 10 × tol).
#[test]
fn rdd_solves_on_graph_and_block_partitions() {
    for args in [
        &["--mesh", "40x8", "--partitioner", "graph"][..],
        &["--mesh", "40x8", "--partitioner", "blocks"],
        &[
            "--problem",
            "heat2d",
            "--mesh",
            "21x10",
            "--partitioner",
            "graph",
        ],
        &[
            "--problem",
            "elasticity3d",
            "--mesh",
            "8x4x4",
            "--partitioner",
            "blocks",
        ],
        &[
            "--problem",
            "elasticity3d",
            "--mesh",
            "8x4x4",
            "--partitioner",
            "graph",
        ],
    ] {
        let out = parfem()
            .args([
                "solve",
                "--strategy",
                "rdd",
                "--parts",
                "4",
                "--machine",
                "ideal",
            ])
            .args(args)
            .output()
            .expect("run parfem");
        let text = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {text}{stderr}");
        assert!(text.contains("on 4 ranks (rdd, "), "{args:?}: {text}");
        let residual: f64 = (text.lines())
            .find_map(|l| l.strip_prefix("true relative residual = "))
            .and_then(|l| l.split(',').next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{args:?}: no true residual in {text}"));
        assert!(residual <= 10.0 * 1e-6, "{args:?}: {residual:e}");
    }
}

#[test]
fn spectrum_reports_bounds() {
    let out = parfem()
        .args(["spectrum", "--mesh", "10x4"])
        .output()
        .expect("run parfem");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // 10x4 has 110 rows (clamped ones included), fewer than the 400-step
    // cap, so the Lanczos run covers the whole operator.
    assert!(text.contains("lanczos (110 steps): lambda in ["), "{text}");
    let kappa: f64 = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("condition estimate kappa ~ "))
        .expect("a condition estimate line")
        .parse()
        .expect("kappa parses");
    assert!((3.7e3..3.8e3).contains(&kappa), "kappa {kappa}");
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

/// A document nested 100 000 deep is a clean `error:` line and exit 1 on
/// both commands that parse JSON from a file, not a stack overflow.
#[test]
fn deeply_nested_json_fails_cleanly() {
    let dir = std::env::temp_dir().join("parfem_cli_deep_json_test");
    std::fs::create_dir_all(&dir).unwrap();
    let perf = dir.join("deep.json");
    std::fs::write(&perf, "[".repeat(100_000)).unwrap();
    let trace = dir.join("deep.jsonl");
    let line = "{\"rank\":0,\"tw\":0,\"tv\":0,\"kind\":\"send\",\"x\":";
    std::fs::write(&trace, format!("{line}{}\n", "[".repeat(100_000))).unwrap();
    let root = env!("CARGO_MANIFEST_DIR").to_string() + "/../..";
    for args in [
        ["perf-gate", "--perf", perf.to_str().unwrap()],
        ["report", "--trace", trace.to_str().unwrap()],
    ] {
        let out = parfem()
            .args(args)
            .current_dir(&root)
            .output()
            .expect("run parfem");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains("nested deeper"), "{args:?}: {stderr}");
    }
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

#[test]
fn malformed_and_out_of_range_values_exit_cleanly() {
    // (arguments after `solve`, expected exit status, text stderr must name).
    // 2 = malformed command line, 3 = the options do not fit the input.
    let cases: &[(&[&str], i32, &str)] = &[
        (&["--mesh", "8x4", "--parts", "abc"], 2, "--parts"),
        (&["--mesh", "8x4", "--parts", "0"], 2, "--parts"),
        (&["--mesh", "8x4", "--tol", "foo"], 2, "--tol"),
        (&["--mesh", "8x4", "--tol", "0"], 2, "--tol"),
        (&["--mesh", "8x4", "--tol", "-1"], 2, "--tol"),
        (&["--mesh", "8x4", "--tol", "nan"], 2, "--tol"),
        (&["--mesh", "8x4", "--restart", "0"], 2, "--restart"),
        (&["--mesh", "8x4", "--restart", "many"], 2, "--restart"),
        (
            &["--mesh", "8x4", "--comm-timeout", "-1"],
            2,
            "--comm-timeout",
        ),
        (
            &["--mesh", "8x4", "--comm-timeout", "soon"],
            2,
            "--comm-timeout",
        ),
        (
            &["--mesh", "8x4", "--comm-retries", "x"],
            2,
            "--comm-retries",
        ),
        (&["--mesh", "0x4"], 2, "--mesh"),
        (&["--mesh", "8x4", "--distort", "0.9"], 2, "--distort"),
        (&["--paper-mesh", "11"], 2, "--paper-mesh"),
        (&["--mesh", "8x4", "--kernels", "simd"], 2, "--kernels"),
        (&["--mesh", "8x4", "--kernels", "scalar"], 2, "--kernels"),
        (&["--mesh", "8x4", "--kernels", "bcsr"], 2, "--kernels"),
        (&["--mesh", "8x4", "--kernels"], 2, "--kernels"),
        (&["--mesh", "4x4", "--parts", "9"], 3, "--parts 9"),
        (
            &["--mesh", "4x4", "--parts", "6", "--strategy", "rdd"],
            3,
            "--parts 6",
        ),
        // One node column per rank is no longer a layout: RDD takes the
        // element strips' limit.
        (
            &["--mesh", "8x4", "--parts", "9", "--strategy", "rdd"],
            3,
            "at most 8 strips of element columns",
        ),
        // A graph partition whose part 4 borders only lower parts would own
        // no node under RDD; EDD runs it.
        (
            &[
                "--mesh",
                "3x3",
                "--parts",
                "7",
                "--partitioner",
                "graph",
                "--strategy",
                "rdd",
            ],
            3,
            "lower --parts or use --strategy edd",
        ),
        (
            &["--mesh", "4x4", "--parts", "5", "--partitioner", "blocks"],
            3,
            "--parts 5",
        ),
        (
            &["--mesh", "4x4", "--parts", "17", "--partitioner", "graph"],
            3,
            "--parts 17",
        ),
        (
            &["--mesh", "4x4", "--partitioner", "graph:1"],
            2,
            "use 'graph'",
        ),
    ];
    for (args, status, names) in cases {
        let out = parfem()
            .arg("solve")
            .args(*args)
            .args(["--machine", "ideal"])
            .output()
            .expect("run parfem");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*status), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("stack backtrace"),
            "{args:?}: {stderr}"
        );
    }
}

/// A solve the Krylov loop calls converged but whose residual on the
/// assembled system is far above the tolerance exits 1 with an `error:`
/// line: one-level EDD `direct` on the 40×48 cantilever at P = 4 reads a
/// true relative residual near 1e4 at tol 1e-6. (The 48×48 case this test
/// first ran converges for real since the element matrices became the
/// mirror of their upper triangles: the floating blocks' pivots moved.)
#[test]
fn false_convergence_exits_nonzero() {
    let out = parfem()
        .args(["solve", "--mesh", "40x48", "--parts", "4"])
        .args([
            "--strategy",
            "edd",
            "--precond",
            "direct",
            "--machine",
            "ideal",
        ])
        .output()
        .expect("run parfem");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("converged = true"), "{stdout}");
    assert!(
        stderr.contains("error:") && stderr.contains("true relative residual"),
        "{stderr}"
    );
}

#[test]
fn kernels_option_is_rejected_and_the_kernel_is_labelled_per_rank() {
    // The option is gone for every strategy: a malformed command line.
    for strategy in ["edd", "rdd"] {
        let out = parfem()
            .args(["solve", "--mesh", "40x8", "--parts", "4"])
            .args(["--strategy", strategy, "--kernels", "bcsr"])
            .args(["--machine", "ideal"])
            .output()
            .expect("run parfem");
        assert_eq!(out.status.code(), Some(2), "{strategy}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("follows from the physics"), "{stderr}");
    }

    // What ran is named per rank instead: node blocks for the two and three
    // DOFs per node of elasticity, CSR for the scalar problem, under either
    // strategy.
    let cases: [(&[&str], &str); 6] = [
        (&["--mesh", "21x10"], "bcsr2"),
        (&["--mesh", "21x10", "--strategy", "rdd"], "bcsr2"),
        (&["--problem", "heat2d", "--mesh", "21x10"], "csr"),
        (
            &[
                "--problem",
                "heat2d",
                "--mesh",
                "21x10",
                "--strategy",
                "rdd",
            ],
            "csr",
        ),
        (&["--problem", "elasticity3d", "--mesh", "6x3x3"], "bcsr3"),
        (
            &[
                "--problem",
                "elasticity3d",
                "--mesh",
                "6x3x3",
                "--strategy",
                "rdd",
            ],
            "bcsr3",
        ),
    ];
    for (args, label) in cases {
        for overlap in [false, true] {
            let out = parfem()
                .arg("solve")
                .args(args)
                .args(["--parts", "2", "--machine", "ideal", "--profile"])
                .args(overlap.then_some("--overlap"))
                .output()
                .expect("run parfem");
            assert!(out.status.success(), "{args:?}");
            let text = String::from_utf8_lossy(&out.stdout);
            for rank in 0..2 {
                let line = format!("rank {rank} counters: kernel_variant_{label}=1");
                assert!(text.contains(&line), "{args:?} overlap {overlap}: {text}");
            }
        }
    }
}

#[test]
fn ilu0_precond_per_strategy_and_the_eq45_failure() {
    let solve = |args: &[&str]| {
        parfem()
            .args(["solve", "--precond", "ilu0", "--machine", "ideal"])
            .args(args)
            .output()
            .expect("run parfem")
    };
    // RDD: block-Jacobi ILU(0) on each rank's owned rows.
    let out = solve(&["--mesh", "40x8", "--parts", "4", "--strategy", "rdd"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("with ilu(0) on 4 ranks"), "{text}");
    assert!(text.contains("converged = true"), "{text}");

    // One EDD rank is the sequential ILU(0): Fig. 11's Mesh1 count.
    let out = solve(&["--paper-mesh", "1", "--parts", "1"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(
        text.contains("converged = true, iterations = 12,"),
        "{text}"
    );

    // One-element EDD strips away from the clamp float: their local
    // stiffness is singular and ILU(0) meets the zero pivot of the paper's
    // Eq. 45. The failing ranks leave the run, so the clamped rank fails
    // fast as disconnected instead of waiting out the 30 s watchdog.
    let start = std::time::Instant::now();
    let out = solve(&["--mesh", "4x1", "--parts", "4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    for rank in 1..4 {
        assert!(
            stderr.contains(&format!("rank {rank}: preconditioner failure: zero pivot")),
            "{stderr}"
        );
    }
    assert!(stderr.contains("peer rank 1 disconnected"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "no watchdog wait"
    );
}
