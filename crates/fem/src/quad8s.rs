//! The 8-node serendipity quadrilateral (Q8).
//!
//! The higher-order element the paper's Section 5 singles out: its node
//! graph couples each mid-edge node to seven others, making `G(K)`
//! decisively non-planar and the row-partitioned matvec harder to scale.
//! Stiffness and mass are integrated with a 3×3 Gauss rule.
//!
//! Shape functions on `(ξ, η) ∈ [−1, 1]²` (corners `i = 0..4`, mid-edges in
//! bottom/right/top/left order):
//!
//! ```text
//! corner:        N = ¼ (1+ξξᵢ)(1+ηηᵢ)(ξξᵢ + ηηᵢ − 1)
//! mid, ξᵢ = 0:   N = ½ (1−ξ²)(1+ηηᵢ)
//! mid, ηᵢ = 0:   N = ½ (1+ξξᵢ)(1−η²)
//! ```

use crate::material::Material;

/// Reference coordinates of the 8 nodes (corners CCW, then mid-edges
/// bottom/right/top/left).
const XI: [f64; 8] = [-1.0, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, -1.0];
const ETA: [f64; 8] = [-1.0, -1.0, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0];

/// 3-point Gauss abscissas and weights.
const G3: [(f64, f64); 3] = [
    (-0.774_596_669_241_483_4, 5.0 / 9.0),
    (0.0, 8.0 / 9.0),
    (0.774_596_669_241_483_4, 5.0 / 9.0),
];

/// Flops of one [`physical_gradients`] call, counted from the code: shape
/// derivatives 100 (nine per corner derivative, three or four per mid-edge
/// one), Jacobian 64, determinant 3, inverse 4 (the negations are free),
/// gradients 48.
const GRADIENT_FLOPS: u64 = 100 + 64 + 3 + 4 + 48;

/// Flops of one [`stiffness`] call, counted from the code: per Gauss point
/// (nine of them) the gradients, 3 for the weight, 288 for `D·B` (48 entries
/// of a 3-term dot) and 1088 for the update of `kₑ`'s upper triangle (136
/// entries of a 3-term dot, a weight and an add; the lower triangle is its
/// mirror). The constitutive matrix is not counted.
pub const STIFFNESS_FLOPS: u64 = 9 * (GRADIENT_FLOPS + 3 + 288 + 1088);

/// Shape function values at `(xi, eta)`.
pub fn shape_functions(xi: f64, eta: f64) -> [f64; 8] {
    let mut n = [0.0; 8];
    for i in 0..4 {
        n[i] = 0.25 * (1.0 + xi * XI[i]) * (1.0 + eta * ETA[i]) * (xi * XI[i] + eta * ETA[i] - 1.0);
    }
    for i in 4..8 {
        n[i] = if XI[i] == 0.0 {
            0.5 * (1.0 - xi * xi) * (1.0 + eta * ETA[i])
        } else {
            0.5 * (1.0 + xi * XI[i]) * (1.0 - eta * eta)
        };
    }
    n
}

/// Shape function derivatives `(dN/dξ, dN/dη)` at `(xi, eta)`.
pub fn shape_derivatives(xi: f64, eta: f64) -> ([f64; 8], [f64; 8]) {
    let mut dxi = [0.0; 8];
    let mut deta = [0.0; 8];
    for i in 0..4 {
        let (xs, es) = (XI[i], ETA[i]);
        dxi[i] = 0.25 * xs * (1.0 + eta * es) * (2.0 * xi * xs + eta * es);
        deta[i] = 0.25 * es * (1.0 + xi * xs) * (xi * xs + 2.0 * eta * es);
    }
    for i in 4..8 {
        if XI[i] == 0.0 {
            dxi[i] = -xi * (1.0 + eta * ETA[i]);
            deta[i] = 0.5 * ETA[i] * (1.0 - xi * xi);
        } else {
            dxi[i] = 0.5 * XI[i] * (1.0 - eta * eta);
            deta[i] = -eta * (1.0 + xi * XI[i]);
        }
    }
    (dxi, deta)
}

/// Jacobian determinant and physical gradients at a reference point.
///
/// # Panics
/// Panics on degenerate geometry.
pub fn physical_gradients(coords: &[[f64; 2]; 8], xi: f64, eta: f64) -> (f64, [f64; 8], [f64; 8]) {
    let (dxi, deta) = shape_derivatives(xi, eta);
    let mut j = [0.0f64; 4];
    for i in 0..8 {
        j[0] += dxi[i] * coords[i][0];
        j[1] += dxi[i] * coords[i][1];
        j[2] += deta[i] * coords[i][0];
        j[3] += deta[i] * coords[i][1];
    }
    let det = j[0] * j[3] - j[1] * j[2];
    assert!(det > 0.0, "degenerate element: Jacobian determinant {det}");
    let inv = [j[3] / det, -j[1] / det, -j[2] / det, j[0] / det];
    let mut dx = [0.0; 8];
    let mut dy = [0.0; 8];
    for i in 0..8 {
        dx[i] = inv[0] * dxi[i] + inv[1] * deta[i];
        dy[i] = inv[2] * dxi[i] + inv[3] * deta[i];
    }
    (det, dx, dy)
}

/// The 16×16 element stiffness (row-major), DOF order
/// `[u0x, u0y, …, u7x, u7y]` matching the mesh connectivity order.
pub fn stiffness(coords: &[[f64; 2]; 8], material: &Material) -> [f64; 256] {
    let d = material.d_matrix();
    let t = material.thickness;
    let mut ke = [0.0f64; 256];
    for &(gx, wx) in &G3 {
        for &(gy, wy) in &G3 {
            let (det, dx, dy) = physical_gradients(coords, gx, gy);
            let w = det * t * wx * wy;
            // B is 3x16.
            let mut b = [0.0f64; 48];
            for i in 0..8 {
                b[2 * i] = dx[i];
                b[16 + 2 * i + 1] = dy[i];
                b[32 + 2 * i] = dy[i];
                b[32 + 2 * i + 1] = dx[i];
            }
            let mut db = [0.0f64; 48];
            for r in 0..3 {
                for c in 0..16 {
                    let mut acc = 0.0;
                    for k in 0..3 {
                        acc += d[r * 3 + k] * b[k * 16 + c];
                    }
                    db[r * 16 + c] = acc;
                }
            }
            for r in 0..16 {
                for c in r..16 {
                    let mut acc = 0.0;
                    for k in 0..3 {
                        acc += b[k * 16 + r] * db[k * 16 + c];
                    }
                    ke[r * 16 + c] += acc * w;
                }
            }
        }
    }
    crate::mirror_upper(&mut ke, 16);
    ke
}

/// The 16×16 consistent mass matrix (row-major).
pub fn consistent_mass(coords: &[[f64; 2]; 8], material: &Material) -> [f64; 256] {
    let rho_t = material.density * material.thickness;
    let mut me = [0.0f64; 256];
    for &(gx, wx) in &G3 {
        for &(gy, wy) in &G3 {
            let n = shape_functions(gx, gy);
            let (det, _, _) = physical_gradients(coords, gx, gy);
            let w = rho_t * det * wx * wy;
            for i in 0..8 {
                for j in 0..8 {
                    let v = n[i] * n[j] * w;
                    me[(2 * i) * 16 + 2 * j] += v;
                    me[(2 * i + 1) * 16 + 2 * j + 1] += v;
                }
            }
        }
    }
    me
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{self, assemble_stiffness};
    use parfem_mesh::{DofMap, Edge, Quad8Mesh};
    use parfem_sparse::dense;

    fn unit_square() -> [[f64; 2]; 8] {
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [0.5, 0.0],
            [1.0, 0.5],
            [0.5, 1.0],
            [0.0, 0.5],
        ]
    }

    fn matvec16(m: &[f64; 256], x: &[f64; 16]) -> [f64; 16] {
        let mut y = [0.0; 16];
        for r in 0..16 {
            for c in 0..16 {
                y[r] += m[r * 16 + c] * x[c];
            }
        }
        y
    }

    #[test]
    fn shape_functions_partition_unity_and_interpolate() {
        for &(xi, eta) in &[(0.0, 0.0), (0.3, -0.7), (-0.9, 0.2)] {
            let n = shape_functions(xi, eta);
            assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-13);
        }
        for i in 0..8 {
            let n = shape_functions(XI[i], ETA[i]);
            for j in 0..8 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((n[j] - want).abs() < 1e-13, "N_{j} at node {i}");
            }
        }
    }

    #[test]
    fn derivatives_reproduce_linear_fields() {
        // sum_i N_i * x_i == x for the reference square, so gradients of the
        // interpolated coordinate fields are (1, 0) and (0, 1).
        let coords = unit_square();
        for &(xi, eta) in &[(0.1, -0.3), (0.77, 0.51)] {
            let (_, dx, dy) = physical_gradients(&coords, xi, eta);
            let gx: f64 = (0..8).map(|i| dx[i] * coords[i][0]).sum();
            let gy: f64 = (0..8).map(|i| dy[i] * coords[i][1]).sum();
            let gxy: f64 = (0..8).map(|i| dx[i] * coords[i][1]).sum();
            assert!((gx - 1.0).abs() < 1e-12);
            assert!((gy - 1.0).abs() < 1e-12);
            assert!(gxy.abs() < 1e-12);
        }
    }

    #[test]
    fn stiffness_symmetric_with_rigid_null_space() {
        let coords = unit_square();
        let ke = stiffness(&coords, &Material::unit());
        for r in 0..16 {
            for c in 0..16 {
                assert!((ke[r * 16 + c] - ke[c * 16 + r]).abs() < 1e-11);
            }
        }
        let mut tx = [0.0; 16];
        let mut rot = [0.0; 16];
        for i in 0..8 {
            tx[2 * i] = 1.0;
            rot[2 * i] = -coords[i][1];
            rot[2 * i + 1] = coords[i][0];
        }
        for mode in [tx, rot] {
            for v in matvec16(&ke, &mode) {
                assert!(v.abs() < 1e-10, "rigid-mode force {v}");
            }
        }
    }

    #[test]
    fn quadratic_field_energy_is_exact() {
        // Q8 represents full quadratics: u_x = x^2 gives eps_xx = 2x,
        // energy = t/2 * D00 * int_0^1 int_0^1 (2x)^2 = D00 * 2/3.
        let m = Material::unit();
        let coords = unit_square();
        let ke = stiffness(&coords, &m);
        let mut u = [0.0; 16];
        for i in 0..8 {
            u[2 * i] = coords[i][0] * coords[i][0];
        }
        let ku = matvec16(&ke, &u);
        let e: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum::<f64>() / 2.0;
        // Not exact: u_x = x^2 also induces Poisson-coupled terms; check the
        // pure-shear-free bound instead with nu = 0.
        let mut m0 = m;
        m0.poissons_ratio = 0.0;
        let ke0 = stiffness(&coords, &m0);
        let ku0 = matvec16(&ke0, &u);
        let e0: f64 = u.iter().zip(&ku0).map(|(a, b)| a * b).sum::<f64>() / 2.0;
        let want = m0.d_matrix()[0] * 2.0 / 3.0;
        assert!((e0 - want).abs() < 1e-10, "{e0} vs {want}");
        assert!(e > 0.0);
    }

    #[test]
    fn mass_preserves_total_mass() {
        let me = consistent_mass(&unit_square(), &Material::unit());
        let mut tx = [0.0; 16];
        for i in 0..8 {
            tx[2 * i] = 1.0;
        }
        let mx = matvec16(&me, &tx);
        let total: f64 = tx.iter().zip(&mx).map(|(a, b)| a * b).sum();
        assert!((total - 1.0).abs() < 1e-12, "total mass {total}");
    }

    #[test]
    fn q8_cantilever_beats_q4_accuracy_on_same_grid() {
        // Tip-loaded slender cantilever: the Q8 mesh must land closer to
        // Euler-Bernoulli than the Q4 mesh with the same element grid.
        let nx = 8;
        let ny = 1;
        let lx: f64 = 8.0;
        let ly = 1.0;
        let p_total = -1e-3;
        let analytic = p_total * lx.powi(3) / (3.0 * (1.0 / 12.0));
        let mat = Material::unit();

        let q4 = {
            let mesh = parfem_mesh::QuadMesh::rectangle(nx, ny, lx, ly);
            let mut dm = DofMap::new(mesh.n_nodes());
            dm.clamp_edge(&mesh, Edge::Left);
            let mut loads = vec![0.0; dm.n_dofs()];
            assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, p_total, &mut loads);
            let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
            let mut d = sys.stiffness.to_dense();
            let u = dense::solve_dense(sys.stiffness.n_rows(), &mut d, &sys.rhs);
            u[dm.dof(mesh.node_at(nx, ny), 1)]
        };
        let q8 = {
            let mesh = Quad8Mesh::rectangle(nx, ny, lx, ly);
            let mut dm = DofMap::new(mesh.n_nodes());
            for n in mesh.edge_nodes(Edge::Left) {
                dm.clamp_node(n);
            }
            let k = assemble_stiffness(&mesh, &dm, &mat);
            let mut loads = vec![0.0; dm.n_dofs()];
            // Distribute the tip load over the right-edge nodes (3 of them
            // for ny = 1): simple equal split is consistent enough here.
            let right = mesh.edge_nodes(Edge::Right);
            for &n in &right {
                loads[dm.dof(n, 1)] = p_total / right.len() as f64;
            }
            let kbc = assembly::apply_dirichlet(&k, &dm, &mut loads);
            let mut d = kbc.to_dense();
            let u = dense::solve_dense(kbc.n_rows(), &mut d, &loads);
            // Tip = top right corner.
            let tip = right
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    mesh.node_coords(a)[1]
                        .partial_cmp(&mesh.node_coords(b)[1])
                        .unwrap()
                })
                .unwrap();
            u[dm.dof(tip, 1)]
        };
        let err4 = (q4 - analytic).abs();
        let err8 = (q8 - analytic).abs();
        assert!(
            err8 < 0.5 * err4,
            "Q8 must be far more accurate: q4 {q4}, q8 {q8}, beam {analytic}"
        );
    }

    #[test]
    fn assembled_q8_rows_are_denser_than_q4() {
        // Paper Section 5: higher-order elements densify G(K).
        let m8 = Quad8Mesh::rectangle(4, 4, 4.0, 4.0);
        let dm8 = DofMap::new(m8.n_nodes());
        let k8 = assemble_stiffness(&m8, &dm8, &Material::unit());
        let m4 = parfem_mesh::QuadMesh::rectangle(4, 4, 4.0, 4.0);
        let dm4 = DofMap::new(m4.n_nodes());
        let k4 = assembly::assemble_stiffness(&m4, &dm4, &Material::unit());
        let avg8 = k8.nnz() as f64 / k8.n_rows() as f64;
        let avg4 = k4.nnz() as f64 / k4.n_rows() as f64;
        assert!(avg8 > avg4, "Q8 rows {avg8:.1} vs Q4 rows {avg4:.1}");
    }
}
