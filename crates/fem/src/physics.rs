//! The physics axis of the element substrate.
//!
//! [`Physics`] names the PDE being discretized and answers the structural
//! questions every downstream layer needs — DOFs per node, spatial
//! dimension, and the size of the operator's rigid-body (near-null) space,
//! which drives the `rbm` coarse-mode construction in the two-level
//! preconditioner. The element kernels themselves live next to their 2-D
//! elasticity counterparts: scalar conduction forms for quad4 and tri3 are
//! here, the hex8 elasticity form in [`crate::hex8`].

use crate::material::Material;
use crate::quad4;

/// The PDE / element family a problem assembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Physics {
    /// 2-D plane-stress/plane-strain elasticity (quad4/tri3/quad8), the
    /// paper's workload. Two displacement DOFs per node.
    Elasticity2d,
    /// Scalar Poisson/steady heat conduction in 2-D (quad4/tri3). One
    /// temperature DOF per node.
    Heat2d,
    /// 3-D isotropic elasticity on hex8 meshes. Three displacement DOFs
    /// per node.
    Elasticity3d,
}

impl Physics {
    /// Every supported physics, in CLI presentation order.
    pub const ALL: [Physics; 3] = [
        Physics::Elasticity2d,
        Physics::Heat2d,
        Physics::Elasticity3d,
    ];

    /// Number of DOFs each mesh node carries.
    #[inline]
    pub fn dofs_per_node(self) -> usize {
        match self {
            Physics::Elasticity2d => 2,
            Physics::Heat2d => 1,
            Physics::Elasticity3d => 3,
        }
    }

    /// Spatial dimension of the mesh this physics lives on.
    #[inline]
    pub fn dim(self) -> usize {
        match self {
            Physics::Elasticity2d | Physics::Heat2d => 2,
            Physics::Elasticity3d => 3,
        }
    }

    /// Dimension of the operator's near-null space before Dirichlet
    /// conditions: the constant mode for scalar diffusion, translations
    /// plus rotations for elasticity (`d(d+1)/2` in `d` dimensions).
    #[inline]
    pub fn n_rigid_modes(self) -> usize {
        match self {
            Physics::Elasticity2d => 3,
            Physics::Heat2d => 1,
            Physics::Elasticity3d => 6,
        }
    }

    /// The CLI / registry token of this physics.
    pub fn name(self) -> &'static str {
        match self {
            Physics::Elasticity2d => "elasticity2d",
            Physics::Heat2d => "heat2d",
            Physics::Elasticity3d => "elasticity3d",
        }
    }

    /// Parses a CLI token (`elasticity2d`, `heat2d`, `elasticity3d`).
    pub fn parse(token: &str) -> Option<Physics> {
        Physics::ALL.iter().copied().find(|p| p.name() == token)
    }
}

impl std::fmt::Display for Physics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// 2×2 Gauss point abscissa (matches the quad4 elasticity rule).
const GP: f64 = 0.577_350_269_189_625_8;

/// Flops of one [`heat_stiffness_quad4`] call, counted from the code: 1 for
/// `k t`, then per Gauss point (four of them) the quad4 gradients and 96 for
/// the update of `kₑ` (16 entries of a 2-term dot, two scalings and an add).
pub const HEAT_QUAD4_FLOPS: u64 = 1 + 4 * (quad4::GRADIENT_FLOPS + 96);

/// The 4×4 conduction stiffness of a quad4 element (row-major):
/// `kₑ = ∫ k ∇Nᵢ·∇Nⱼ t dΩ` with conductivity `k` and slab thickness `t`
/// taken from the material, at 2×2 Gauss quadrature.
pub fn heat_stiffness_quad4(coords: &[[f64; 2]; 4], material: &Material) -> [f64; 16] {
    let kt = material.conductivity() * material.thickness;
    let mut ke = [0.0f64; 16];
    for &gx in &[-GP, GP] {
        for &gy in &[-GP, GP] {
            let (det, dx, dy) = quad4::physical_gradients(coords, gx, gy);
            for i in 0..4 {
                for j in 0..4 {
                    ke[i * 4 + j] += kt * (dx[i] * dx[j] + dy[i] * dy[j]) * det;
                }
            }
        }
    }
    ke
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physics_tokens_round_trip() {
        for p in Physics::ALL {
            assert_eq!(Physics::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(Physics::parse("maxwell"), None);
    }

    #[test]
    fn structural_constants_are_consistent() {
        for p in Physics::ALL {
            let d = p.dim();
            match p {
                Physics::Heat2d => {
                    assert_eq!(p.dofs_per_node(), 1);
                    assert_eq!(p.n_rigid_modes(), 1);
                }
                _ => {
                    assert_eq!(p.dofs_per_node(), d);
                    assert_eq!(p.n_rigid_modes(), d * (d + 1) / 2);
                }
            }
        }
    }

    #[test]
    fn quad_conduction_constant_mode_and_patch_value() {
        // Unit square, unit conductivity: the classic 4x4 Laplacian element
        // has diagonal 2/3 and rows summing to zero (constant null mode).
        let coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]];
        let ke = heat_stiffness_quad4(&coords, &Material::unit());
        for i in 0..4 {
            let row: f64 = (0..4).map(|j| ke[i * 4 + j]).sum();
            assert!(row.abs() < 1e-14, "row sum {row}");
            assert!((ke[i * 4 + i] - 2.0 / 3.0).abs() < 1e-14);
        }
        // Symmetry.
        for i in 0..4 {
            for j in 0..4 {
                assert!((ke[i * 4 + j] - ke[j * 4 + i]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn quad_conduction_scales_with_conductivity_and_thickness() {
        let coords = [[0.0, 0.0], [2.0, 0.1], [1.9, 1.2], [-0.1, 1.0]];
        let mut m = Material::unit();
        let base = heat_stiffness_quad4(&coords, &m);
        m.youngs_modulus = 3.0;
        m.thickness = 0.5;
        let scaled = heat_stiffness_quad4(&coords, &m);
        for (a, b) in base.iter().zip(&scaled) {
            assert!((1.5 * a - b).abs() < 1e-13);
        }
    }
}
