//! Shared fixtures for the two-level tests: the **independent reference**
//! the rank-side coarse build is compared against — the scaled operator
//! assembled globally on the host and the part geometry in global dof
//! numbering, fed to the sequential `build_coarse_basis`. None of this runs
//! on the solve path; it exists so the tests have something that shares no
//! exchange code with the ranks.
#![allow(dead_code)] // each test binary uses its own subset

use parfem_dd::scaling::edd_scaling_reference;
use parfem_fem::SubdomainSystem;
use parfem_mesh::{DofMap, NodePartition};
use parfem_precond::CoarsePartGeometry;
use parfem_sparse::{CooMatrix, CsrMatrix};

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
            let (cols, vals) = k.row(l1);
            for (&l2, &v) in cols.iter().zip(vals) {
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
                let (cols, _) = sys.k_local.row(l);
                geo.constrained.push(cols.len() == 1 && cols[0] == l);
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
