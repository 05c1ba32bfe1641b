//! Shared fixtures for the session tests: the **independent reference**
//! the rank-side coarse build is compared against — the scaled operator
//! assembled globally on the host and the part geometry in global dof
//! numbering, fed to the sequential `build_coarse_basis` — and the
//! `run_multi` contract checked against the globally assembled system.
//! None of this runs on the solve path; it exists so the tests have
//! something that shares no exchange code with the ranks.
#![allow(dead_code)] // each test binary uses its own subset

use parfem_dd::scaling::edd_scaling_reference;
use parfem_dd::{DdSolveOutput, MultiSolveOutput};
use parfem_fem::{StaticSystem, SubdomainSystem};
use parfem_krylov::estimate_spectrum;
use parfem_mesh::{Cells, DofMap, NodePartition, PartitionerSpec};
use parfem_precond::CoarsePartGeometry;
use parfem_sparse::{dense, CooMatrix, CsrMatrix, SparseRows};

/// The node partition RDD takes from `p` element strips of `mesh`.
pub fn node_strips<M: Cells>(mesh: &M, p: usize) -> NodePartition {
    let strips = PartitionerSpec::Strips.element_partition(mesh, p);
    NodePartition::from_elements(&strips, mesh).expect("strips keep a node each")
}

/// The global scaled operator `A = D K D` assembled from EDD subdomain
/// systems through a coordinate accumulator, with the scaling diagonal `d`
/// of the distributed norm-1 row sums.
pub fn edd_scaled_operator(systems: &[SubdomainSystem], n_dofs: usize) -> (CsrMatrix, Vec<f64>) {
    let d = edd_scaling_reference(systems, n_dofs).diagonal().to_vec();
    let mut coo = CooMatrix::new(n_dofs, n_dofs);
    for sys in systems {
        let k = &sys.k_local;
        for l1 in 0..k.n_rows() {
            let g1 = sys.global_dofs[l1];
            for (l2, v) in k.row_entries(l1) {
                let g2 = sys.global_dofs[l2];
                coo.push(g1, g2, d[g1] * v * d[g2]).unwrap();
            }
        }
    }
    (coo.to_csr(), d)
}

/// EDD part geometry in **global** dof numbering (one part per system, the
/// structural Dirichlet detection of the session), plus the global dof
/// multiplicity.
pub fn edd_global_parts(
    systems: &[SubdomainSystem],
    n_dofs: usize,
    coords: &[[f64; 3]],
    dofs_per_node: usize,
) -> (Vec<CoarsePartGeometry>, Vec<f64>) {
    let mut mult = vec![1.0; n_dofs];
    let parts = systems
        .iter()
        .map(|sys| {
            let mut geo = CoarsePartGeometry::default();
            for (l, &g) in sys.global_dofs.iter().enumerate() {
                mult[g] = sys.multiplicity[l];
                geo.dofs.push(g);
                geo.comp.push(g % dofs_per_node);
                geo.pos.push(coords[g / dofs_per_node]);
                let cols = sys.k_local.row_entries(l).map(|(c, _)| c);
                geo.constrained.push(cols.eq([l]));
            }
            geo
        })
        .collect();
    (parts, mult)
}

/// RDD part geometry in **global** dof numbering: one part per rank, dofs
/// node by node in ascending node order.
pub fn rdd_global_parts(
    node_part: &NodePartition,
    dof_map: &DofMap,
    coords: &[[f64; 3]],
) -> Vec<CoarsePartGeometry> {
    let dpn = dof_map.dofs_per_node();
    let mut parts = vec![CoarsePartGeometry::default(); node_part.n_parts()];
    for (node, &owner) in node_part.owners().iter().enumerate() {
        let geo = &mut parts[owner];
        for c in 0..dpn {
            let g = node * dpn + c;
            geo.dofs.push(g);
            geo.pos.push(coords[node]);
            geo.comp.push(c);
            geo.constrained.push(dof_map.is_fixed(g));
        }
    }
    parts
}

/// The true relative residual `‖f − Ku‖/‖f‖` of a physical solution
/// against the globally assembled, constrained system.
pub fn true_rel_residual(system: &StaticSystem, u: &[f64]) -> f64 {
    let ku = system.stiffness.spmv(u);
    let r: Vec<f64> = system.rhs.iter().zip(&ku).map(|(f, k)| f - k).collect();
    dense::norm2(&r) / dense::norm2(&system.rhs)
}

/// The `run_multi` contract against independent single runs
/// (`singles[i]` solves `systems[i]`) at tolerance `tol`:
///
/// - the first right-hand side is bit-identical to its `run()`;
/// - when that first solve never restarted it left nothing to recycle,
///   so every later right-hand side is bit-identical too;
/// - otherwise each later right-hand side converges, meets
///   `‖f − Ku‖/‖f‖ ≤ 2·tol`, and differs from its single run by at most
///   `(‖r_multi‖ + ‖r_single‖)/λ_min(K)`, the distance the two residuals
///   allow.
pub fn assert_run_multi_contract(
    multi: &MultiSolveOutput,
    singles: &[DdSolveOutput],
    systems: &[StaticSystem],
    tol: f64,
) {
    assert!(multi.all_converged());
    let recycled = multi.histories[0].restarts > 0;
    for (i, (single, system)) in singles.iter().zip(systems).enumerate() {
        let (u, history) = (&multi.solutions[i], &multi.histories[i]);
        if i == 0 || !recycled {
            assert_eq!(*u, single.u, "RHS {i}: bits differ from the single run");
            assert_eq!(
                history.relative_residuals, single.history.relative_residuals,
                "RHS {i}: residual histories differ"
            );
            continue;
        }
        let f_norm = dense::norm2(&system.rhs);
        let (rho, rho_single) = (
            true_rel_residual(system, u),
            true_rel_residual(system, &single.u),
        );
        assert!(rho <= 2.0 * tol, "RHS {i}: true residual {rho:e}");
        let (lambda_min, _) = estimate_spectrum(&system.stiffness, system.rhs.len());
        let diff: Vec<f64> = u.iter().zip(&single.u).map(|(a, b)| a - b).collect();
        let bound = (rho + rho_single) * f_norm / lambda_min;
        assert!(
            dense::norm2(&diff) <= bound,
            "RHS {i}: ‖u − u_single‖ = {:e} > {bound:e}",
            dense::norm2(&diff)
        );
    }
}

/// FNV-1a over the bits of `v`: a digest that moves with any last-place
/// change.
pub fn fnv_bits(v: &[f64]) -> u64 {
    (v.iter().flat_map(|x| x.to_bits().to_le_bytes())).fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}
