//! The experiment table: every table, figure and ablation of the
//! reproduction is one row of [`EXPERIMENTS`], and the `repro` binary is
//! its only driver.
//!
//! A row prints the paper-style table, writes its CSVs into the run's
//! directory and asserts the paper's qualitative claim, so a row whose
//! claim fails panics. Every paper and ablation row is also a test at the
//! quick tier, writing into a temporary directory.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

mod ablation;
mod paper;
pub mod perf;
mod scaling;

/// How one row runs: at which size, and where its CSVs go.
pub struct Run {
    /// The quick tier: smoke sizes at which every claim still holds.
    pub quick: bool,
    /// The directory the row writes its CSVs into (created on demand).
    pub out: PathBuf,
}

impl Run {
    /// `quick` on the quick tier, `full` on the full one.
    pub(crate) fn size<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Writes `rows` (plus a `header`) as `<out>/<name>.csv`.
    ///
    /// # Panics
    /// Panics on I/O errors — the harness should fail loudly.
    pub(crate) fn csv(&self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        fs::create_dir_all(&self.out).expect("create the output directory");
        let path = self.out.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "{}", header.join(",")).expect("write header");
        for row in rows {
            writeln!(f, "{}", row.join(",")).expect("write row");
        }
        println!("[wrote {}]", path.display());
    }
}

/// One row of the table.
pub struct Experiment {
    /// The name `repro <id>` runs it by.
    pub id: &'static str,
    /// The claim the row asserts.
    pub claim: &'static str,
    /// Runs the row; panics when its claim fails.
    pub run: fn(&Run),
}

/// The row named `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Declares [`EXPERIMENTS`] and, from the same rows, one test per row
/// that runs it at the quick tier in a temporary directory; the
/// attributes before a row go on its test.
macro_rules! experiments {
    ($($(#[$attr:meta])* $test:ident $id:literal => $run:path, $claim:literal;)*) => {
        /// Every row, in `repro list` order.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            id: $id,
            claim: $claim,
            run: $run,
        }),*];

        mod rows {
            $($(#[$attr])* #[test] fn $test() { super::tests::quick_in_temp_dir($id) })*
        }
    };
}

experiments! {
    fig01 "fig01" => paper::fig01,
        "the Neumann residual's interior maximum on (0, 30) shrinks from degree 5 to 7";
    fig02 "fig02" => paper::fig02,
        "the GLS weighted residual norm does not grow with degree on each of three Θ";
    fig03 "fig03" => paper::fig03,
        "the stability bound m·ε·Σ|aᵢ| stays below 1e-6 at degree 10 and grows 10⁶-fold by 25";
    fig10 "fig10" => paper::fig10,
        "a measured Θ converges no slower than (ε, 1); a narrow or top-only Θ converges slower";
    fig11 "fig11" => paper::fig11,
        "GLS(7) needs fewer iterations than ILU(0) and than no preconditioner (static)";
    fig12 "fig12" => paper::fig12,
        "GLS(7) needs fewer iterations than ILU(0) and than no preconditioner (first Newmark step)";
    fig13 "fig13" => paper::fig13,
        "iterations do not grow as the GLS degree rises 1 → 20 (static)";
    fig14 "fig14" => paper::fig14,
        "iterations do not grow as the GLS degree rises 1 → 20 (first Newmark step)";
    fig16 "fig16" => paper::fig16,
        "Newmark P = 8 speedup exceeds 5.5 on the Origin and out-scales the SP2";
    fig17 "fig17" => paper::fig17,
        "EDD speedup holds with degree and grows with size; the Origin out-scales the SP2";
    table1 "table1" => paper::table1,
        "Algorithm 5 pays two more exchanges per iteration than Algorithm 6, which matches Algorithm 8";
    table2 "table2" => paper::table2,
        "Mesh1–Mesh10 have the paper's node counts";
    table3 "table3" => paper::table3,
        "iterations vary by at most 2 across P, and the P = 8 speedup grows with mesh size";
    ablation_orthogonalization "ablation-orthogonalization" => ablation::orthogonalization,
        "classical Gram–Schmidt tracks modified Gram–Schmidt within 2 iterations";
    ablation_elements "ablation-elements" => ablation::elements,
        "T3 keeps G(K) planar, Q4 and Q8 do not, and density grows T3 < Q4 < Q8";
    ablation_elements_parallel "ablation-elements-parallel" => ablation::elements_parallel,
        "Q8 does not ease RDD's bytes per iteration over EDD's against Q4";
    ablation_partition "ablation-partition" => ablation::partition,
        "partition geometry changes the modeled P = 4 time by less than 2×";
    ablation_machine "ablation-machine" => ablation::machine,
        "the P = 8 speedup falls with message latency, from above 6 to below 4";
    ablation_polynomials "ablation-polynomials" => ablation::polynomials,
        "GLS beats Neumann and Chebyshev at degree 7; block-Jacobi(4) needs more iterations than ILU(0)";
    ablation_distortion "ablation-distortion" => ablation::distortion,
        "GLS(7) iterations grow at most 4× as interior nodes are distorted";
    ablation_restart "ablation-restart" => ablation::restart,
        "GLS(7) at the paper's restart 25 is within 20 % of restart 100";
    #[ignore = "a modeled P ≤ 4096 lab; CI runs `repro scaling` at the quick tier"]
    scaling "scaling" => scaling::scaling,
        "graph partitions cut less than strips, overlap is never slower, two-level iterations grow less than one-level";
    #[ignore = "real solves at P ≤ 1024; CI runs `repro physics-scaling` at the quick tier"]
    physics_scaling "physics-scaling" => scaling::physics_scaling,
        "heat2d and hex8 two-level iteration growth stays within the perf gate's bound";
    #[ignore = "measures the host's wall clock and rewrites BENCH_PERF.json"]
    perf "perf" => perf::perf,
        "measures the host kernels and rewrites BENCH_PERF.json's measured sections";
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A temporary directory, removed when dropped.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(name: &str) -> Self {
            let pid = std::process::id();
            TempDir(std::env::temp_dir().join(format!("parfem-{name}-{pid}")))
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// Runs the row `id` at the quick tier in a temporary directory.
    pub(super) fn quick_in_temp_dir(id: &str) {
        let dir = TempDir::new(&format!("repro-{id}"));
        let run = Run {
            quick: true,
            out: dir.0.clone(),
        };
        (find(id).expect("row exists").run)(&run);
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }
}
