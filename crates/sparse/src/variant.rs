//! The kernel policy: which storage applies a rank's local matrix.
//!
//! One matrix, two ways to apply it: the scalar CSR kernels of
//! [`crate::kernels`] (the bit-identical golden reference) and the 2×2
//! block format [`crate::BcsrMatrix`]. [`KernelPolicy`] names the choice;
//! the operator that owns the matrix converts it (the EDD operator of the
//! `parfem-dd` crate, which falls back to CSR when a dimension is odd) and
//! records the format it applies in the trace. The default is
//! [`KernelPolicy::Scalar`], so every entry point keeps its
//! golden-digest-pinned arithmetic unless a caller opts in.

/// Which storage to use for a matrix's hot-path matvec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Scalar CSR kernels — the bit-identical golden reference (default).
    #[default]
    Scalar,
    /// 2×2 block-CSR storage (ULP-bounded row sums; requires even dims).
    Bcsr2x2,
}

impl KernelPolicy {
    /// Parses a CLI-style policy name.
    ///
    /// # Errors
    /// Returns the offending string when it names no policy.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(KernelPolicy::Scalar),
            "bcsr" => Ok(KernelPolicy::Bcsr2x2),
            other => Err(format!(
                "unknown kernel policy '{other}' (expected scalar|bcsr)"
            )),
        }
    }

    /// The canonical CLI name, also the label in traces and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelPolicy::Scalar => "scalar",
            KernelPolicy::Bcsr2x2 => "bcsr",
        }
    }
}

impl std::fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for KernelPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcsr::BcsrMatrix;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;

    fn laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn policy_parsing_round_trips() {
        for p in [KernelPolicy::Scalar, KernelPolicy::Bcsr2x2] {
            assert_eq!(KernelPolicy::parse(p.as_str()), Ok(p));
        }
        for gone in ["simd", "sellcs", "sell", "auto", "avx1024"] {
            let err = KernelPolicy::parse(gone).unwrap_err();
            assert!(err.ends_with("(expected scalar|bcsr)"), "{err}");
        }
    }

    #[test]
    fn storage_formats_agree_closely() {
        let a = laplacian(128);
        let x: Vec<f64> = (0..128).map(|i| ((i % 11) as f64) - 5.0).collect();
        let want = a.spmv(&x);
        let got = BcsrMatrix::try_from_csr(&a).unwrap().spmv(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-12 * (1.0 + w.abs()));
        }
    }
}
