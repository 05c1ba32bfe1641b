//! Block-Jacobi ILU(0) — the non-overlapping additive Schwarz baseline the
//! paper's Sec. 4 attributes to pARMS/PSPARSLIB — is the `ilu0` spec under
//! [`Strategy::Rdd`](parfem_dd::Strategy::Rdd): each rank factors the
//! diagonal block of its owned rows and ignores the coupling to the other
//! blocks,
//!
//! ```text
//! C = blkdiag( (L₁U₁)⁻¹, …, (L_PU_P)⁻¹ )
//! ```
//!
//! These tests hold that construction to the properties of the scheme.

#[cfg(test)]
mod tests {
    use crate::problems::CantileverProblem;
    use crate::sequential::solve_static;
    use parfem_dd::{RddSystem, SolveSession, Strategy};
    use parfem_krylov::GmresConfig;
    use parfem_mesh::NodePartition;
    use parfem_precond::{PrecondSpec, Preconditioner, SpecPrecond};
    use parfem_sparse::{CooMatrix, CsrMatrix, NodeMatrix, SparseError};

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

    /// The `p` block rows of `a` (one dof per node, contiguous blocks), each
    /// with the `ilu0` spec built on its owned block — or the error of the
    /// first block that fails.
    fn blocks(a: &CsrMatrix, p: usize) -> Result<Vec<(RddSystem, SpecPrecond)>, SparseError> {
        let n = a.n_rows();
        let part = NodePartition::from_owner(p, (0..n).map(|i| (i * p) / n).collect());
        RddSystem::build_all(a, &vec![0.0; a.n_rows()], &part)
            .into_iter()
            .map(|sys| {
                let a_loc = &sys.a_loc;
                let pc = PrecondSpec::Ilu0.instantiate(None, Some(a_loc), || a_loc.diagonal())?;
                Ok((sys, pc))
            })
            .collect()
    }

    /// `z = C v` with `C` the block-Jacobi ILU(0) of `a` over `p` blocks.
    fn block_jacobi_apply(a: &CsrMatrix, p: usize, v: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; v.len()];
        for (sys, pc) in blocks(a, p).expect("nonsingular blocks") {
            let NodeMatrix::Csr(a_loc) = &sys.a_loc else {
                unreachable!("one dof per node is stored as CSR")
            };
            let z_loc = Preconditioner::<CsrMatrix>::apply(&pc, a_loc, &sys.restrict(v));
            for (&row, zi) in sys.rows.iter().zip(z_loc) {
                z[row] = zi;
            }
        }
        z
    }

    #[test]
    fn single_block_equals_global_ilu() {
        // One rank owns every row: its block is the whole scaled system, so
        // an RDD session under `ilu0` is the sequential ILU(0) solve.
        let p = CantileverProblem::paper_mesh(2);
        let cfg = GmresConfig {
            tol: 1e-6,
            max_iters: 20_000,
            ..Default::default()
        };
        let (_, sequential) = solve_static(&p, &PrecondSpec::Ilu0, &cfg).unwrap();
        let session = SolveSession::new(p.as_problem())
            .strategy(Strategy::Rdd(NodePartition::from_owner(
                1,
                vec![0; p.mesh.n_nodes()],
            )))
            .precond(PrecondSpec::Ilu0)
            .gmres(cfg)
            .run()
            .expect("a clamped block factors");
        assert!(sequential.converged());
        assert_eq!(session.history.iterations(), sequential.iterations());
    }

    #[test]
    fn block_solve_is_exact_per_block() {
        // Block-diagonal matrix: block Jacobi is the exact inverse.
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        coo.push(3, 3, 5.0).unwrap();
        let a = coo.to_csr();
        let x = [1.0, -1.0, 2.0, 0.5];
        let z = block_jacobi_apply(&a, 2, &a.spmv(&x));
        for (zi, xi) in z.iter().zip(&x) {
            assert!((zi - xi).abs() < 1e-12);
        }
    }

    #[test]
    fn more_blocks_weaker_preconditioner() {
        // The off-block coupling that is dropped grows with block count, so
        // the preconditioned residual ||C A x - x|| grows too.
        let a = laplacian(32);
        let x: Vec<f64> = (0..32).map(|i| ((i % 7) as f64) - 3.0).collect();
        let ax = a.spmv(&x);
        let err_for = |p: usize| -> f64 {
            let z = block_jacobi_apply(&a, p, &ax);
            z.iter()
                .zip(&x)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let e1 = err_for(1);
        let e4 = err_for(4);
        let e8 = err_for(8);
        assert!(e1 < 1e-10, "single block is the exact tridiagonal solve");
        // Any splitting drops coupling and degrades the preconditioner
        // substantially (the exact ordering between 4 and 8 blocks depends
        // on where the cuts land relative to the test vector).
        assert!(e4 > 1.0 && e8 > 1.0, "{e1} {e4} {e8}");
    }

    #[test]
    fn singular_block_reports_zero_pivot() {
        // A matrix whose trailing 2x2 block is the floating truss block.
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        coo.push(2, 3, -1.0).unwrap();
        coo.push(3, 2, -1.0).unwrap();
        coo.push(3, 3, 1.0).unwrap();
        assert!(matches!(
            blocks(&coo.to_csr(), 2),
            Err(SparseError::ZeroPivot { .. })
        ));
    }
}
