//! The 4-node bilinear quadrilateral (Q4) element.
//!
//! Shape functions on the reference square `(ξ, η) ∈ [-1, 1]²`:
//! `N_i = ¼ (1 + ξ ξ_i)(1 + η η_i)` with corners ordered counter-clockwise.
//! Stiffness `kₑ = ∫ Bᵀ D B t dΩ` and consistent mass `mₑ = ∫ ρ t Nᵀ N dΩ`
//! are integrated with 2×2 Gauss quadrature, which is exact for the
//! bilinear element on a parallelogram.

use crate::material::Material;

/// Reference corner coordinates, counter-clockwise.
const XI: [f64; 4] = [-1.0, 1.0, 1.0, -1.0];
const ETA: [f64; 4] = [-1.0, -1.0, 1.0, 1.0];

/// 2×2 Gauss point abscissa.
const GP: f64 = 0.577_350_269_189_625_8; // 1/sqrt(3)

/// Flops of one [`physical_gradients`] call, counted from the code: shape
/// derivatives 32 (four per derivative), Jacobian 32, determinant 3, inverse
/// 4 (the negations are free), gradients 24.
pub(crate) const GRADIENT_FLOPS: u64 = 32 + 32 + 3 + 4 + 24;

/// Flops of one [`stiffness`] call, counted from the code: per Gauss point
/// (four of them) the gradients, 1 for the weight, 144 for `D·B` (24 entries
/// of a 3-term dot) and 288 for the update of `kₑ`'s upper triangle (36
/// entries of a 3-term dot, a weight and an add; the lower triangle is its
/// mirror). The constitutive matrix is not counted.
pub const STIFFNESS_FLOPS: u64 = 4 * (GRADIENT_FLOPS + 1 + 144 + 288);

/// Shape function values at `(xi, eta)`.
pub fn shape_functions(xi: f64, eta: f64) -> [f64; 4] {
    let mut n = [0.0; 4];
    for i in 0..4 {
        n[i] = 0.25 * (1.0 + xi * XI[i]) * (1.0 + eta * ETA[i]);
    }
    n
}

/// Shape function derivatives `(dN/dξ, dN/dη)` at `(xi, eta)`.
pub fn shape_derivatives(xi: f64, eta: f64) -> ([f64; 4], [f64; 4]) {
    let mut dxi = [0.0; 4];
    let mut deta = [0.0; 4];
    for i in 0..4 {
        dxi[i] = 0.25 * XI[i] * (1.0 + eta * ETA[i]);
        deta[i] = 0.25 * ETA[i] * (1.0 + xi * XI[i]);
    }
    (dxi, deta)
}

/// The Jacobian determinant and the physical shape-function gradients
/// `(dN/dx, dN/dy)` at a reference point, for an element with corner
/// coordinates `coords`.
///
/// # Panics
/// Panics if the element is degenerate (non-positive Jacobian), which for
/// the structured meshes in this workspace indicates corrupted input.
pub fn physical_gradients(coords: &[[f64; 2]; 4], xi: f64, eta: f64) -> (f64, [f64; 4], [f64; 4]) {
    let (dxi, deta) = shape_derivatives(xi, eta);
    // Jacobian J = [dx/dxi dy/dxi; dx/deta dy/deta].
    let mut j = [0.0f64; 4];
    for i in 0..4 {
        j[0] += dxi[i] * coords[i][0];
        j[1] += dxi[i] * coords[i][1];
        j[2] += deta[i] * coords[i][0];
        j[3] += deta[i] * coords[i][1];
    }
    let det = j[0] * j[3] - j[1] * j[2];
    assert!(det > 0.0, "degenerate element: Jacobian determinant {det}");
    let inv = [j[3] / det, -j[1] / det, -j[2] / det, j[0] / det];
    let mut dx = [0.0; 4];
    let mut dy = [0.0; 4];
    for i in 0..4 {
        dx[i] = inv[0] * dxi[i] + inv[1] * deta[i];
        dy[i] = inv[2] * dxi[i] + inv[3] * deta[i];
    }
    (det, dx, dy)
}

/// The 8×8 element stiffness matrix (row-major) of a Q4 element.
///
/// DOF ordering is `[u0x, u0y, u1x, u1y, u2x, u2y, u3x, u3y]`, matching
/// [`parfem_mesh::DofMap::elem_dofs`].
pub fn stiffness(coords: &[[f64; 2]; 4], material: &Material) -> [f64; 64] {
    let d = material.d_matrix();
    let t = material.thickness;
    let mut ke = [0.0f64; 64];
    for &gx in &[-GP, GP] {
        for &gy in &[-GP, GP] {
            let (det, dx, dy) = physical_gradients(coords, gx, gy);
            // B is 3x8: strain = B * u_e.
            let mut b = [0.0f64; 24];
            for i in 0..4 {
                b[2 * i] = dx[i]; // row 0: eps_xx from u_ix
                b[8 + 2 * i + 1] = dy[i]; // row 1: eps_yy from u_iy
                b[16 + 2 * i] = dy[i]; // row 2: gamma_xy
                b[16 + 2 * i + 1] = dx[i];
            }
            // ke += B^T D B * det * t (unit Gauss weights for 2x2 rule).
            let w = det * t;
            // db = D * B (3x8)
            let mut db = [0.0f64; 24];
            for r in 0..3 {
                for c in 0..8 {
                    let mut acc = 0.0;
                    for k in 0..3 {
                        acc += d[r * 3 + k] * b[k * 8 + c];
                    }
                    db[r * 8 + c] = acc;
                }
            }
            for r in 0..8 {
                for c in r..8 {
                    let mut acc = 0.0;
                    for k in 0..3 {
                        acc += b[k * 8 + r] * db[k * 8 + c];
                    }
                    ke[r * 8 + c] += acc * w;
                }
            }
        }
    }
    crate::mirror_upper(&mut ke, 8);
    ke
}

/// The 8×8 consistent mass matrix (row-major) of a Q4 element.
pub fn consistent_mass(coords: &[[f64; 2]; 4], material: &Material) -> [f64; 64] {
    let rho_t = material.density * material.thickness;
    let mut me = [0.0f64; 64];
    for &gx in &[-GP, GP] {
        for &gy in &[-GP, GP] {
            let n = shape_functions(gx, gy);
            let (det, _, _) = physical_gradients(coords, gx, gy);
            let w = rho_t * det;
            for i in 0..4 {
                for j in 0..4 {
                    let v = n[i] * n[j] * w;
                    me[(2 * i) * 8 + 2 * j] += v;
                    me[(2 * i + 1) * 8 + 2 * j + 1] += v;
                }
            }
        }
    }
    me
}

/// The 8×8 (diagonal) lumped mass matrix, by row-sum lumping of the
/// consistent mass. Row-sum lumping preserves total element mass.
pub fn lumped_mass(coords: &[[f64; 2]; 4], material: &Material) -> [f64; 64] {
    let me = consistent_mass(coords, material);
    let mut out = [0.0f64; 64];
    for r in 0..8 {
        let sum: f64 = (0..8).map(|c| me[r * 8 + c]).sum();
        out[r * 8 + r] = sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> [[f64; 2]; 4] {
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    }

    fn matvec8(m: &[f64; 64], x: &[f64; 8]) -> [f64; 8] {
        let mut y = [0.0; 8];
        for r in 0..8 {
            for c in 0..8 {
                y[r] += m[r * 8 + c] * x[c];
            }
        }
        y
    }

    #[test]
    fn shape_functions_partition_unity() {
        for &(xi, eta) in &[(0.0, 0.0), (0.3, -0.7), (-1.0, 1.0), (0.9, 0.9)] {
            let n = shape_functions(xi, eta);
            let s: f64 = n.iter().sum();
            assert!((s - 1.0).abs() < 1e-14, "sum {s} at ({xi}, {eta})");
        }
    }

    #[test]
    fn shape_functions_interpolate_corners() {
        for i in 0..4 {
            let n = shape_functions(XI[i], ETA[i]);
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((n[j] - want).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn derivative_sums_vanish() {
        // Since sum N_i = 1 identically, sum of derivatives is zero.
        let (dxi, deta) = shape_derivatives(0.4, -0.2);
        assert!(dxi.iter().sum::<f64>().abs() < 1e-14);
        assert!(deta.iter().sum::<f64>().abs() < 1e-14);
    }

    #[test]
    fn jacobian_of_unit_square() {
        let (det, dx, dy) = physical_gradients(&unit_square(), 0.0, 0.0);
        assert!((det - 0.25).abs() < 1e-14, "det {det}");
        // dN1/dx at centre = -1/2 for the unit square.
        assert!((dx[0] + 0.5).abs() < 1e-14);
        assert!((dy[0] + 0.5).abs() < 1e-14);
    }

    #[test]
    fn stiffness_is_symmetric() {
        let ke = stiffness(&unit_square(), &Material::unit());
        for r in 0..8 {
            for c in 0..8 {
                assert!(
                    (ke[r * 8 + c] - ke[c * 8 + r]).abs() < 1e-12,
                    "asymmetry at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn rigid_body_modes_are_in_null_space() {
        let coords = [[0.2, 0.1], [1.3, 0.0], [1.5, 1.2], [0.1, 1.0]];
        let ke = stiffness(&coords, &Material::unit());
        // Translation in x, translation in y, and infinitesimal rotation.
        let tx = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let ty = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        let mut rot = [0.0; 8];
        for i in 0..4 {
            rot[2 * i] = -coords[i][1];
            rot[2 * i + 1] = coords[i][0];
        }
        for mode in [tx, ty, rot] {
            let f = matvec8(&ke, &mode);
            for v in f {
                assert!(v.abs() < 1e-10, "rigid-body force {v}");
            }
        }
    }

    #[test]
    fn stiffness_is_positive_semidefinite() {
        // Random-ish test vectors must have non-negative energy.
        let ke = stiffness(&unit_square(), &Material::unit());
        let vecs = [
            [1.0, -2.0, 0.5, 0.0, -1.0, 1.0, 2.0, -0.5],
            [0.0, 1.0, 1.0, 0.0, 0.0, -1.0, -1.0, 0.0],
            [3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ];
        for x in vecs {
            let kx = matvec8(&ke, &x);
            let e: f64 = x.iter().zip(&kx).map(|(a, b)| a * b).sum();
            assert!(e >= -1e-12, "negative energy {e}");
        }
    }

    #[test]
    fn uniaxial_stretch_energy_matches_continuum() {
        // u_x = x on the unit square (eps_xx = 1): energy = 1/2 int sigma:eps
        // = 1/2 * D[0][0] for unit thickness and area.
        let m = Material::unit();
        let ke = stiffness(&unit_square(), &m);
        let coords = unit_square();
        let mut u = [0.0; 8];
        for i in 0..4 {
            u[2 * i] = coords[i][0];
        }
        let ku = matvec8(&ke, &u);
        let e: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum::<f64>() / 2.0;
        let d = m.d_matrix();
        assert!(
            (e - d[0] / 2.0).abs() < 1e-12,
            "energy {e} vs {}",
            d[0] / 2.0
        );
    }

    #[test]
    fn consistent_mass_preserves_total_mass() {
        let m = Material::unit();
        let me = consistent_mass(&unit_square(), &m);
        // Total mass in x-translation: t(x)^T M t(x) = rho * area * t.
        let tx = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let mx = matvec8(&me, &tx);
        let total: f64 = tx.iter().zip(&mx).map(|(a, b)| a * b).sum();
        assert!((total - 1.0).abs() < 1e-12, "total mass {total}");
    }

    #[test]
    fn lumped_mass_is_diagonal_and_mass_preserving() {
        let m = Material::unit();
        let lm = lumped_mass(&unit_square(), &m);
        for r in 0..8 {
            for c in 0..8 {
                if r != c {
                    assert_eq!(lm[r * 8 + c], 0.0);
                }
            }
        }
        let diag_sum: f64 = (0..8).map(|r| lm[r * 8 + r]).sum();
        // Two translational directions each carry the full mass.
        assert!((diag_sum - 2.0).abs() < 1e-12);
        // All lumped masses positive for a convex element.
        for r in 0..8 {
            assert!(lm[r * 8 + r] > 0.0);
        }
    }

    #[test]
    fn stiffness_scales_linearly_with_youngs_modulus() {
        let mut m = Material::unit();
        let k1 = stiffness(&unit_square(), &m);
        m.youngs_modulus = 7.0;
        let k7 = stiffness(&unit_square(), &m);
        for i in 0..64 {
            assert!((k7[i] - 7.0 * k1[i]).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "degenerate element")]
    fn degenerate_element_is_rejected() {
        // Clockwise (inverted) element.
        let coords = [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]];
        stiffness(&coords, &Material::unit());
    }
}
