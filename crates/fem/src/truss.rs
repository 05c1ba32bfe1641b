//! The 1-D two-node truss element of the paper's Fig. 5.
//!
//! The paper introduces its local/global distributed formats on a two-element
//! truss: global stiffness `K = (AE/l) [[1,-1,0],[-1,2,-1],[0,-1,1]]`
//! (Eq. 29), local distributed subdomain matrices `K̂⁽ˢ⁾ = (AE/l)
//! [[1,-1],[-1,1]]` (Eq. 30), and global distributed matrices that include
//! the assembled interface (Eq. 31). This module reproduces those matrices
//! and serves as the minimal fixture for the distributed-format tests in
//! `parfem-dd`.

use parfem_sparse::CsrMatrix;

/// A 1-D bar with axial stiffness only.
#[derive(Debug, Clone, Copy)]
pub struct TrussElement {
    /// Cross-sectional area `A`.
    pub area: f64,
    /// Young's modulus `E`.
    pub youngs_modulus: f64,
    /// Element length `l`.
    pub length: f64,
}

impl TrussElement {
    /// The axial stiffness coefficient `AE/l`.
    pub fn coefficient(&self) -> f64 {
        self.area * self.youngs_modulus / self.length
    }

    /// The 2×2 element stiffness `(AE/l) [[1,-1],[-1,1]]` (row-major).
    pub fn stiffness(&self) -> [f64; 4] {
        let k = self.coefficient();
        [k, -k, -k, k]
    }
}

/// Assembles a chain of `n_elems` identical truss elements into the global
/// `(n_elems+1) x (n_elems+1)` stiffness matrix.
pub fn assemble_chain(elem: TrussElement, n_elems: usize) -> CsrMatrix {
    let nodes = parfem_mesh::DofMap::with_dofs(n_elems + 1, 1);
    crate::assembly::assemble_raw(&nodes, n_elems, |e| [e, e + 1], |_| elem.stiffness())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_elem() -> TrussElement {
        TrussElement {
            area: 1.0,
            youngs_modulus: 1.0,
            length: 1.0,
        }
    }

    #[test]
    fn element_stiffness_matches_eq_30() {
        let e = TrussElement {
            area: 2.0,
            youngs_modulus: 3.0,
            length: 1.5,
        };
        let k = e.stiffness();
        let c = 4.0;
        assert_eq!(k, [c, -c, -c, c]);
    }

    #[test]
    fn two_element_chain_matches_eq_29() {
        // K = (AE/l) [[1,-1,0],[-1,2,-1],[0,-1,1]]
        let k = assemble_chain(unit_elem(), 2);
        assert_eq!(
            k.to_dense(),
            vec![1.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 1.0]
        );
    }

    #[test]
    fn chain_stiffness_is_singular_without_bc() {
        // Rigid translation is in the null space (the "floating" case).
        let k = assemble_chain(unit_elem(), 3);
        let ones = vec![1.0; 4];
        for v in k.spmv(&ones) {
            assert!(v.abs() < 1e-14);
        }
    }

    #[test]
    fn fixed_end_chain_solves_like_springs_in_series() {
        // Fix node 0, pull with unit force at the free end of a 2-element
        // chain: u = [0, 1, 2] for unit element stiffness.
        let k = assemble_chain(unit_elem(), 2);
        // Apply the BC by hand: reduce to nodes {1, 2}.
        // [2 -1; -1 1] u = [0, 1] => u = [1, 2].
        let k11 = k.get(1, 1);
        let k12 = k.get(1, 2);
        let k22 = k.get(2, 2);
        let det = k11 * k22 - k12 * k12;
        let u1 = (k22 * 0.0 - k12 * 1.0) / det;
        let u2 = (k11 * 1.0 - k12 * 0.0) / det;
        assert!((u1 - 1.0).abs() < 1e-12);
        assert!((u2 - 2.0).abs() < 1e-12);
    }
}
