//! The 8-node trilinear hexahedron (hex8) element for 3-D elasticity.
//!
//! Shape functions on the reference cube `(ξ, η, ζ) ∈ [-1, 1]³`:
//! `N_i = ⅛ (1 + ξ ξ_i)(1 + η η_i)(1 + ζ ζ_i)` with corners ordered as in
//! [`parfem_mesh::HexMesh`] connectivity (bottom face counter-clockwise
//! seen from `+z`, then the top face). Stiffness `kₑ = ∫ Bᵀ D B dΩ` is
//! integrated with 2×2×2 Gauss quadrature, exact for the trilinear element
//! on a parallelepiped. Each column of the 6×24 strain matrix `B` has three
//! structural nonzeros; [`stiffness`] forms `D·B` and the upper triangle of
//! `Bᵀ (D·B)` from those alone, to the bits of the dense product, and
//! mirrors it onto the lower one.

use crate::material::Material;

/// Reference corner coordinates, matching `HexMesh` connectivity order.
const XI: [f64; 8] = [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0];
const ETA: [f64; 8] = [-1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0];
const ZETA: [f64; 8] = [-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0];

/// 2×2×2 Gauss point abscissa.
const GP: f64 = 0.577_350_269_189_625_8; // 1/sqrt(3)

/// Flops of one [`stiffness`] call, counted from the code: per Gauss point
/// (eight of them) 482 for [`physical_gradients`] (shape derivatives 168,
/// Jacobian 144, determinant 14, inverse 36, gradients 120), 864 for `D·B`
/// (144 entries of a 3-term dot over `B`'s structural nonzeros) and 2400
/// for the update of `kₑ`'s upper triangle (300 entries of a 3-term dot, a
/// weight and an add; the lower triangle is its mirror). The constitutive
/// matrix is not counted.
pub const STIFFNESS_FLOPS: u64 = 8 * ((168 + 144 + 14 + 36 + 120) + 864 + 2400);

/// Shape function values at `(xi, eta, zeta)`.
pub fn shape_functions(xi: f64, eta: f64, zeta: f64) -> [f64; 8] {
    let mut n = [0.0; 8];
    for i in 0..8 {
        n[i] = 0.125 * (1.0 + xi * XI[i]) * (1.0 + eta * ETA[i]) * (1.0 + zeta * ZETA[i]);
    }
    n
}

/// Shape function derivatives `(dN/dξ, dN/dη, dN/dζ)` at `(xi, eta, zeta)`.
pub fn shape_derivatives(xi: f64, eta: f64, zeta: f64) -> ([f64; 8], [f64; 8], [f64; 8]) {
    let mut dxi = [0.0; 8];
    let mut deta = [0.0; 8];
    let mut dzeta = [0.0; 8];
    for i in 0..8 {
        dxi[i] = 0.125 * XI[i] * (1.0 + eta * ETA[i]) * (1.0 + zeta * ZETA[i]);
        deta[i] = 0.125 * ETA[i] * (1.0 + xi * XI[i]) * (1.0 + zeta * ZETA[i]);
        dzeta[i] = 0.125 * ZETA[i] * (1.0 + xi * XI[i]) * (1.0 + eta * ETA[i]);
    }
    (dxi, deta, dzeta)
}

/// The Jacobian determinant and the physical shape-function gradients
/// `(dN/dx, dN/dy, dN/dz)` at a reference point.
///
/// # Panics
/// Panics if the element is degenerate (non-positive Jacobian).
pub fn physical_gradients(
    coords: &[[f64; 3]; 8],
    xi: f64,
    eta: f64,
    zeta: f64,
) -> (f64, [f64; 8], [f64; 8], [f64; 8]) {
    let (dxi, deta, dzeta) = shape_derivatives(xi, eta, zeta);
    // Jacobian J, row-major: row r is d(x,y,z)/d(ref coordinate r).
    let mut j = [0.0f64; 9];
    for i in 0..8 {
        for (a, c) in coords[i].iter().enumerate() {
            j[a] += dxi[i] * c;
            j[3 + a] += deta[i] * c;
            j[6 + a] += dzeta[i] * c;
        }
    }
    let det = j[0] * (j[4] * j[8] - j[5] * j[7]) - j[1] * (j[3] * j[8] - j[5] * j[6])
        + j[2] * (j[3] * j[7] - j[4] * j[6]);
    assert!(det > 0.0, "degenerate element: Jacobian determinant {det}");
    // inv = adj(J)^T / det; inv[r][c] maps reference derivative c to
    // physical derivative r.
    let inv = [
        (j[4] * j[8] - j[5] * j[7]) / det,
        (j[2] * j[7] - j[1] * j[8]) / det,
        (j[1] * j[5] - j[2] * j[4]) / det,
        (j[5] * j[6] - j[3] * j[8]) / det,
        (j[0] * j[8] - j[2] * j[6]) / det,
        (j[2] * j[3] - j[0] * j[5]) / det,
        (j[3] * j[7] - j[4] * j[6]) / det,
        (j[1] * j[6] - j[0] * j[7]) / det,
        (j[0] * j[4] - j[1] * j[3]) / det,
    ];
    let mut dx = [0.0; 8];
    let mut dy = [0.0; 8];
    let mut dz = [0.0; 8];
    for i in 0..8 {
        dx[i] = inv[0] * dxi[i] + inv[1] * deta[i] + inv[2] * dzeta[i];
        dy[i] = inv[3] * dxi[i] + inv[4] * deta[i] + inv[5] * dzeta[i];
        dz[i] = inv[6] * dxi[i] + inv[7] * deta[i] + inv[8] * dzeta[i];
    }
    (det, dx, dy, dz)
}

/// The strain rows `(εxx, εyy, εzz, γxy, γyz, γzx)` of the structural
/// nonzeros of `B`'s column for a node's x, y and z dof, ascending.
const B_ROWS: [[usize; 3]; 3] = [[0, 3, 5], [1, 3, 4], [2, 4, 5]];

/// Which physical gradient (`∂/∂x`, `∂/∂y`, `∂/∂z`) each of those nonzeros
/// holds.
const B_GRADIENT: [[usize; 3]; 3] = [[0, 1, 2], [1, 0, 2], [2, 1, 0]];

/// The 24×24 element stiffness matrix (row-major) of a hex8 element.
///
/// DOF ordering is `[u0x, u0y, u0z, u1x, …]`, matching a three-DOF
/// [`parfem_mesh::DofMap`] over the element's connectivity order.
///
/// Per Gauss point, `D·B` and the update `kₑ += Bᵀ (D·B) det J` of the
/// upper triangle run over the three structural nonzeros of each column of
/// the 6×24 strain matrix `B`, in ascending strain row, each sum started at
/// `0.0` like the dense 6-term products: the terms they skip are exact
/// zeros, so every entry `(r, c ≥ r)` has the bits of the dense `Bᵀ D B`,
/// and entry `(c, r)` is a copy of it.
pub fn stiffness(coords: &[[f64; 3]; 8], material: &Material) -> [f64; 576] {
    let d = material.d_matrix_3d();
    let mut ke = [0.0f64; 576];
    for &gx in &[-GP, GP] {
        for &gy in &[-GP, GP] {
            for &gz in &[-GP, GP] {
                let (det, dx, dy, dz) = physical_gradients(coords, gx, gy, gz);
                let grads: [[f64; 3]; 8] = std::array::from_fn(|i| [dx[i], dy[i], dz[i]]);
                // D·B, one row of 24 columns per strain component: column
                // 3 i + a takes node i's gradients at the strain rows
                // B_ROWS[a].
                let mut db = [[0.0f64; 24]; 6];
                for (row, dr) in db.iter_mut().zip(d.chunks_exact(6)) {
                    for (cols, g) in row.chunks_exact_mut(3).zip(&grads) {
                        for (a, x) in cols.iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for (&k, &gk) in B_ROWS[a].iter().zip(&B_GRADIENT[a]) {
                                acc += dr[k] * g[gk];
                            }
                            *x = acc;
                        }
                    }
                }
                // kₑ += Bᵀ (D·B) det (unit Gauss weights for the 2-point rule):
                // row 3 i + a of kₑ takes the three rows of D·B its column
                // of B selects.
                // Only the upper triangle `c ≥ r`: the lower one is its mirror.
                let rows = ke.chunks_exact_mut(72).zip(&grads);
                for (i, (ke_node, g)) in rows.enumerate() {
                    for (a, ke_r) in ke_node.chunks_exact_mut(24).enumerate() {
                        let b = B_GRADIENT[a].map(|k| g[k]);
                        let [k0, k1, k2] = B_ROWS[a].map(|k| &db[k]);
                        let ke_r: &mut [f64; 24] = ke_r.try_into().expect("a row of 24");
                        for c in 3 * i + a..24 {
                            let mut acc = 0.0;
                            acc += b[0] * k0[c];
                            acc += b[1] * k1[c];
                            acc += b[2] * k2[c];
                            ke_r[c] += acc * det;
                        }
                    }
                }
            }
        }
    }
    crate::mirror_upper(&mut ke, 24);
    ke
}

/// The 24×24 consistent mass matrix `∫ ρ Nᵀ N dΩ` (row-major) of a hex8
/// element, 2×2×2 Gauss quadrature, dofs ordered as in [`stiffness`].
pub fn consistent_mass(coords: &[[f64; 3]; 8], material: &Material) -> [f64; 576] {
    let mut me = [0.0f64; 576];
    for &gx in &[-GP, GP] {
        for &gy in &[-GP, GP] {
            for &gz in &[-GP, GP] {
                let n = shape_functions(gx, gy, gz);
                let (det, ..) = physical_gradients(coords, gx, gy, gz);
                let w = material.density * det;
                for i in 0..8 {
                    for j in 0..8 {
                        let v = n[i] * n[j] * w;
                        for a in 0..3 {
                            me[(3 * i + a) * 24 + 3 * j + a] += v;
                        }
                    }
                }
            }
        }
    }
    me
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_mass_holds_the_element_mass_per_direction() {
        let mut mat = Material::unit();
        mat.density = 2.5;
        let me = consistent_mass(&unit_cube(), &mat);
        for a in 0..3 {
            let total: f64 = (0..8)
                .flat_map(|i| (0..8).map(move |j| me[(3 * i + a) * 24 + 3 * j + a]))
                .sum();
            assert!((total - 2.5).abs() < 1e-12, "direction {a}: {total}");
        }
        for r in 0..24 {
            for c in 0..24 {
                assert_eq!(me[r * 24 + c], me[c * 24 + r]);
                if r % 3 != c % 3 {
                    assert_eq!(me[r * 24 + c], 0.0);
                }
            }
        }
    }

    fn unit_cube() -> [[f64; 3]; 8] {
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ]
    }

    fn matvec24(m: &[f64; 576], x: &[f64; 24]) -> [f64; 24] {
        let mut y = [0.0; 24];
        for r in 0..24 {
            for c in 0..24 {
                y[r] += m[r * 24 + c] * x[c];
            }
        }
        y
    }

    #[test]
    fn shape_functions_partition_unity_and_interpolate() {
        for &(xi, eta, zeta) in &[(0.0, 0.0, 0.0), (0.3, -0.7, 0.5), (-1.0, 1.0, -1.0)] {
            let n = shape_functions(xi, eta, zeta);
            let s: f64 = n.iter().sum();
            assert!((s - 1.0).abs() < 1e-14, "sum {s}");
        }
        for i in 0..8 {
            let n = shape_functions(XI[i], ETA[i], ZETA[i]);
            for j in 0..8 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((n[j] - want).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn jacobian_of_unit_cube() {
        let (det, dx, _, dz) = physical_gradients(&unit_cube(), 0.0, 0.0, 0.0);
        assert!((det - 0.125).abs() < 1e-14, "det {det}");
        assert!((dx[0] + 0.25).abs() < 1e-14);
        assert!((dz[0] + 0.25).abs() < 1e-14);
    }

    #[test]
    fn stiffness_is_symmetric() {
        let ke = stiffness(&unit_cube(), &Material::unit());
        for r in 0..24 {
            for c in 0..24 {
                assert!(
                    (ke[r * 24 + c] - ke[c * 24 + r]).abs() < 1e-12,
                    "asymmetry at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn six_rigid_body_modes_are_in_null_space() {
        // A distorted (but valid) hex: translations and infinitesimal
        // rotations about all three axes must produce zero force.
        let mut coords = unit_cube();
        coords[6] = [1.2, 1.1, 0.9];
        coords[0] = [-0.1, 0.05, 0.0];
        let ke = stiffness(&coords, &Material::unit());
        let mut modes: Vec<[f64; 24]> = Vec::new();
        for c in 0..3 {
            let mut t = [0.0; 24];
            for i in 0..8 {
                t[3 * i + c] = 1.0;
            }
            modes.push(t);
        }
        // Rotations: ω × x for ω = e_z, e_x, e_y.
        let mut rz = [0.0; 24];
        let mut rx = [0.0; 24];
        let mut ry = [0.0; 24];
        for i in 0..8 {
            let [x, y, z] = coords[i];
            rz[3 * i] = -y;
            rz[3 * i + 1] = x;
            rx[3 * i + 1] = -z;
            rx[3 * i + 2] = y;
            ry[3 * i] = z;
            ry[3 * i + 2] = -x;
        }
        modes.extend([rz, rx, ry]);
        for (m, mode) in modes.iter().enumerate() {
            for v in matvec24(&ke, mode) {
                assert!(v.abs() < 1e-10, "rigid mode {m} force {v}");
            }
        }
    }

    #[test]
    fn uniaxial_stretch_energy_matches_continuum() {
        // u_x = x on the unit cube (eps_xx = 1): energy = D[0][0]/2 for unit
        // volume.
        let m = Material::unit();
        let ke = stiffness(&unit_cube(), &m);
        let coords = unit_cube();
        let mut u = [0.0; 24];
        for i in 0..8 {
            u[3 * i] = coords[i][0];
        }
        let ku = matvec24(&ke, &u);
        let e: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum::<f64>() / 2.0;
        let d = m.d_matrix_3d();
        assert!(
            (e - d[0] / 2.0).abs() < 1e-12,
            "energy {e} vs {}",
            d[0] / 2.0
        );
    }

    #[test]
    #[should_panic(expected = "degenerate element")]
    fn inverted_element_is_rejected() {
        let mut coords = unit_cube();
        // Swap bottom and top faces: negative Jacobian.
        coords.swap(0, 4);
        coords.swap(1, 5);
        coords.swap(2, 6);
        coords.swap(3, 7);
        stiffness(&coords, &Material::unit());
    }
}
