//! Distributed norm-1 diagonal scaling (paper Algorithms 3–4).
//!
//! Each subdomain computes the absolute row sums of its **local
//! distributed** stiffness matrix, the sums are accumulated across the
//! interface (`d̄ = ⊕Σ d̂`), and the scaling `D = diag(1/√d̄)` is applied
//! locally: `Â⁽ˢ⁾ = D̂⁽ˢ⁾ K̂⁽ˢ⁾ D̂⁽ˢ⁾`, `b̂⁽ˢ⁾ = D̂⁽ˢ⁾ f̂⁽ˢ⁾`. Since the
//! accumulated `d̄` is identical at shared DOFs, `Σ Bᵀ Â B = D (Σ Bᵀ K̂ B) D`
//! exactly.
//!
//! Fidelity note: the distributed row sum `Σₛ‖k̂ᵢ⁽ˢ⁾‖₁` **upper-bounds** the
//! assembled `‖kᵢ‖₁` (interface entries from different subdomains may
//! cancel in the assembled matrix, `|a+b| ≤ |a|+|b|`). The Gershgorin
//! argument still yields `σ(A) ⊂ (0, 1)` — the bound is just slightly less
//! tight, exactly as in the paper's Algorithm 3. [`edd_row_sums_reference`]
//! reproduces the distributed sums sequentially so sequential and parallel
//! runs can be compared iterate for iterate.

use crate::dist_vec::{EddLayout, ExchangeBuffers};
use crate::edd::EddLocalMatrix;
use parfem_fem::subdomain::SubdomainSystem;
use parfem_mesh::numbering::DOFS_PER_NODE;
use parfem_msg::Communicator;
use parfem_sparse::{dense, scaling::inv_sqrt_scaling, DiagonalScaling, NodeMatrix};

/// The per-subdomain result of the distributed scaling.
#[derive(Debug, Clone)]
pub struct DistributedScaling {
    /// `1/√d̄` per local DOF (global distributed format — identical at
    /// interfaces).
    pub d: Vec<f64>,
}

impl DistributedScaling {
    /// Algorithm 3: local row sums (in column order, so either storage gives
    /// the same bits), interface accumulation, `1/√·`.
    pub fn build<C: Communicator>(comm: &C, layout: &EddLayout, k_local: &NodeMatrix) -> Self {
        let mut sums = k_local.row_abs_sums();
        comm.work(2 * k_local.nnz() as u64);
        let mut bufs = ExchangeBuffers::new();
        layout.interface_sum_buffered(comm, &mut sums, &mut bufs);
        // The 1/√· map is shared with the sequential scaling, so the
        // distributed diagonal is the restriction of the assembled one
        // whenever the accumulated sums agree.
        DistributedScaling {
            d: inv_sqrt_scaling(&sums),
        }
    }

    /// Algorithm 4 step 1–2: scales `k_local` in place into the operator's
    /// matrix `D̂K̂D̂` (every entry `k_rc·(d_r·d_c)`, in the storage it was
    /// assembled into) and the local RHS in place.
    pub fn apply(
        &self,
        mut k_local: NodeMatrix,
        f_local: &mut [f64],
        layout: &EddLayout,
    ) -> EddLocalMatrix {
        dense::diag_mul(&self.d, f_local);
        k_local.scale_symmetric(&self.d);
        EddLocalMatrix::new(k_local, layout)
    }
}

/// Sequential reference of the *distributed* row sums: for every global DOF,
/// the sum over subdomains of the local absolute row sums. Feeding these
/// into [`DiagonalScaling::from_row_sums`] yields the exact scaling the
/// parallel solver uses, for iterate-for-iterate comparisons.
pub fn edd_row_sums_reference(systems: &[SubdomainSystem], n_dofs: usize) -> Vec<f64> {
    let mut sums = vec![0.0; n_dofs];
    for sys in systems {
        let local = sys.k_local.row_abs_sums();
        for (l, &g) in sys.global_dofs.iter().enumerate() {
            sums[g] += local[l];
        }
    }
    sums
}

/// Builds the sequential [`DiagonalScaling`] matching the distributed one.
pub fn edd_scaling_reference(systems: &[SubdomainSystem], n_dofs: usize) -> DiagonalScaling {
    DiagonalScaling::from_row_sums(edd_row_sums_reference(systems, n_dofs))
}

/// Number of scalar DOFs per mesh node (re-exported for the driver).
pub const DOFS: usize = DOFS_PER_NODE;

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_fem::{assembly, Material};
    use parfem_mesh::{DofMap, Edge, ElementPartition, QuadMesh};
    use parfem_msg::{run_ranks, MachineModel};
    use parfem_sparse::{CsrMatrix, SparseRows};

    fn fixture(p: usize) -> (Vec<SubdomainSystem>, CsrMatrix, usize) {
        let mesh = QuadMesh::cantilever(6, 2);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
        let part = ElementPartition::strips_x(&mesh, p);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
            .collect();
        let k = assembly::build_static(&mesh, &dm, &mat, &loads).stiffness;
        (systems, k, dm.n_dofs())
    }

    #[test]
    fn distributed_scaling_matches_reference() {
        let (systems, _, n) = fixture(3);
        let reference = edd_scaling_reference(&systems, n);
        let out = run_ranks(3, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
            // Compare against the restriction of the reference diagonal.
            let want: Vec<f64> = sys
                .global_dofs
                .iter()
                .map(|&g| reference.diagonal()[g])
                .collect();
            sc.d.iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max)
        });
        for err in out.results {
            assert!(err < 1e-13, "max deviation {err}");
        }
    }

    #[test]
    fn distributed_sums_upper_bound_assembled_sums() {
        let (systems, k, n) = fixture(3);
        let dist = edd_row_sums_reference(&systems, n);
        let assembled = k.row_abs_sums();
        for (i, (d, a)) in dist.iter().zip(&assembled).enumerate() {
            assert!(*d >= *a - 1e-12, "row {i}: distributed {d} < assembled {a}");
        }
    }

    #[test]
    fn scaled_assembled_operator_stays_in_unit_interval() {
        // The assembled scaled operator D K D (with distributed-sum D) must
        // still have lambda_max <= 1.
        let (systems, k, n) = fixture(2);
        let sc = edd_scaling_reference(&systems, n);
        let a = sc.scale_matrix(&k);
        let (vals, _) = parfem_sparse::dense::sym_eigen_jacobi(n, &a.to_dense());
        let lmax = vals[n - 1];
        assert!(lmax <= 1.0 + 1e-9, "lambda_max {lmax}");
    }

    #[test]
    fn apply_and_unscale_round_trip() {
        let (systems, _, _) = fixture(2);
        let out = run_ranks(2, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
            let mut f = sys.f_local.clone();
            let a = sc.apply(sys.k_local.clone(), &mut f, &layout);
            // A_ij = d_i K_ij d_j on the local matrix, read back column by
            // column (a product with a unit vector is exact).
            let mut max_err = 0.0_f64;
            let n = a.n_rows();
            for c in 0..n {
                let mut e = vec![0.0; n];
                e[c] = 1.0;
                let mut col = vec![0.0; n];
                a.spmv_into(&e, &mut col);
                for (r, v) in col.iter().enumerate() {
                    let want = sc.d[r] * sys.k_local.get(r, c) * sc.d[c];
                    max_err = max_err.max((v - want).abs());
                }
            }
            // Unscaling (`û = D̂ x̂`, Algorithm 4 step 5) multiplies by `d`.
            let mut x = f.clone();
            dense::diag_mul(&sc.d, &mut x);
            for (xi, (fi, di)) in x.iter().zip(f.iter().zip(&sc.d)) {
                max_err = max_err.max((xi - fi * di).abs());
            }
            max_err
        });
        for err in out.results {
            assert!(err < 1e-12);
        }
    }
}
