//! The reproduction's experiment harness.
//!
//! [`repro::EXPERIMENTS`] holds one row per table, figure and ablation of
//! the paper, plus the modeled scaling laboratories and the host perf
//! report; the `repro` binary runs its rows. A row prints the paper-style
//! table, writes its CSVs into the run's directory (`results/` at the
//! workspace root for the binary) and asserts the paper's qualitative
//! claim. [`harness`] holds the sweep and table builders the rows share.

pub mod harness;
pub mod modeling;
pub mod repro;

/// Formats a float for table output.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::{tests::TempDir, Run};

    #[test]
    fn fmt_switches_notation() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(12345.6).contains('e'));
        assert!(fmt(0.0001).contains('e'));
        assert_eq!(fmt(1.5), "1.5000");
    }

    fn temp_run(name: &str) -> (TempDir, Run) {
        let dir = TempDir::new(name);
        let run = Run {
            quick: true,
            out: dir.0.join("results"),
        };
        (dir, run)
    }

    #[test]
    fn results_dir_exists_after_call() {
        let (_dir, run) = temp_run("results-dir");
        run.csv("empty", &["a"], &[]);
        assert!(run.out.is_dir());
    }

    #[test]
    fn write_csv_round_trips() {
        let (_dir, run) = temp_run("csv-round-trip");
        run.csv("artifact", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let content = std::fs::read_to_string(run.out.join("artifact.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }
}
