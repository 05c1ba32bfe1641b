//! The 3-node constant-strain triangle (CST / T3).
//!
//! The element whose assembled matrix graph is *planar* (paper Section 5) —
//! the reference case where row-partitioned SpMV provably scales. The
//! strain-displacement matrix is constant over the element, so a single
//! integration point is exact:
//!
//! ```text
//! B = (1/2A) [ b1  0  b2  0  b3  0 ]      b_i = y_j − y_k
//!            [  0 c1   0 c2   0 c3 ]      c_i = x_k − x_j
//!            [ c1 b1  c2 b2  c3 b3 ]      (i, j, k cyclic)
//! kₑ = A · t · Bᵀ D B
//! ```

use crate::material::Material;

/// Signed area of the triangle with counter-clockwise coordinates.
pub fn area(coords: &[[f64; 2]; 3]) -> f64 {
    0.5 * ((coords[1][0] - coords[0][0]) * (coords[2][1] - coords[0][1])
        - (coords[2][0] - coords[0][0]) * (coords[1][1] - coords[0][1]))
}

/// Flops of one [`stiffness`] call, counted from the code: area 8, the
/// `b`/`c` differences 6, `1/2A` 2, the entries of `B` 12, 108 for `D·B`
/// (18 entries of a 3-term dot), 1 for the weight and 147 for `kₑ`'s upper
/// triangle (21 entries of a 3-term dot and a weight; the lower triangle is
/// its mirror). The constitutive matrix is not counted.
pub const STIFFNESS_FLOPS: u64 = 8 + 6 + 2 + 12 + 108 + 1 + 147;

/// The 6×6 element stiffness matrix (row-major), DOF order
/// `[u0x, u0y, u1x, u1y, u2x, u2y]`.
///
/// # Panics
/// Panics on degenerate (zero/negative-area) triangles.
pub fn stiffness(coords: &[[f64; 2]; 3], material: &Material) -> [f64; 36] {
    let a = area(coords);
    assert!(a > 0.0, "degenerate triangle: area {a}");
    let d = material.d_matrix();
    let t = material.thickness;
    // b_i = y_j - y_k, c_i = x_k - x_j with (i, j, k) cyclic.
    let mut b_geo = [0.0f64; 3];
    let mut c_geo = [0.0f64; 3];
    for i in 0..3 {
        let j = (i + 1) % 3;
        let k = (i + 2) % 3;
        b_geo[i] = coords[j][1] - coords[k][1];
        c_geo[i] = coords[k][0] - coords[j][0];
    }
    let inv2a = 1.0 / (2.0 * a);
    // B is 3x6.
    let mut b = [0.0f64; 18];
    for i in 0..3 {
        b[2 * i] = b_geo[i] * inv2a;
        b[6 + 2 * i + 1] = c_geo[i] * inv2a;
        b[12 + 2 * i] = c_geo[i] * inv2a;
        b[12 + 2 * i + 1] = b_geo[i] * inv2a;
    }
    // ke = A t B^T D B.
    let mut db = [0.0f64; 18];
    for r in 0..3 {
        for c in 0..6 {
            let mut acc = 0.0;
            for k in 0..3 {
                acc += d[r * 3 + k] * b[k * 6 + c];
            }
            db[r * 6 + c] = acc;
        }
    }
    let w = a * t;
    let mut ke = [0.0f64; 36];
    for r in 0..6 {
        for c in r..6 {
            let mut acc = 0.0;
            for k in 0..3 {
                acc += b[k * 6 + r] * db[k * 6 + c];
            }
            ke[r * 6 + c] = acc * w;
        }
    }
    crate::mirror_upper(&mut ke, 6);
    ke
}

/// The 6×6 consistent mass matrix: `ρtA/12 · (1 + δᵢⱼ)` per component pair.
pub fn consistent_mass(coords: &[[f64; 2]; 3], material: &Material) -> [f64; 36] {
    let a = area(coords);
    assert!(a > 0.0, "degenerate triangle: area {a}");
    let m0 = material.density * material.thickness * a / 12.0;
    let mut me = [0.0f64; 36];
    for i in 0..3 {
        for j in 0..3 {
            let v = m0 * if i == j { 2.0 } else { 1.0 };
            me[(2 * i) * 6 + 2 * j] = v;
            me[(2 * i + 1) * 6 + 2 * j + 1] = v;
        }
    }
    me
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{self, assemble_stiffness};
    use parfem_mesh::{DofMap, Edge, QuadMesh};
    use parfem_sparse::dense;

    fn reference_tri() -> [[f64; 2]; 3] {
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    }

    fn matvec6(m: &[f64; 36], x: &[f64; 6]) -> [f64; 6] {
        let mut y = [0.0; 6];
        for r in 0..6 {
            for c in 0..6 {
                y[r] += m[r * 6 + c] * x[c];
            }
        }
        y
    }

    #[test]
    fn stiffness_is_symmetric_with_rigid_null_space() {
        let coords = [[0.1, 0.2], [1.3, 0.1], [0.4, 1.2]];
        let ke = stiffness(&coords, &Material::unit());
        for r in 0..6 {
            for c in 0..6 {
                assert!((ke[r * 6 + c] - ke[c * 6 + r]).abs() < 1e-12);
            }
        }
        // Rigid translations and rotation.
        let tx = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let ty = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        let mut rot = [0.0; 6];
        for i in 0..3 {
            rot[2 * i] = -coords[i][1];
            rot[2 * i + 1] = coords[i][0];
        }
        for mode in [tx, ty, rot] {
            for v in matvec6(&ke, &mode) {
                assert!(v.abs() < 1e-12, "rigid-mode force {v}");
            }
        }
    }

    #[test]
    fn uniaxial_stretch_energy_is_exact() {
        // u_x = x: eps_xx = 1 over the element; energy = A/2 * D[0][0].
        let m = Material::unit();
        let coords = reference_tri();
        let ke = stiffness(&coords, &m);
        let mut u = [0.0; 6];
        for i in 0..3 {
            u[2 * i] = coords[i][0];
        }
        let ku = matvec6(&ke, &u);
        let e: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum::<f64>() / 2.0;
        let want = 0.5 * 0.5 * m.d_matrix()[0]; // area 1/2
        assert!((e - want).abs() < 1e-12, "{e} vs {want}");
    }

    #[test]
    fn mass_preserves_total_mass() {
        let me = consistent_mass(&reference_tri(), &Material::unit());
        let tx = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let mx = matvec6(&me, &tx);
        let total: f64 = tx.iter().zip(&mx).map(|(a, b)| a * b).sum();
        assert!((total - 0.5).abs() < 1e-12, "mass {total} vs area 0.5");
    }

    #[test]
    fn triangulated_patch_test() {
        // Prescribe u_x = eps*x on the boundary of a triangulated square;
        // interior follows exactly (CST is complete for linear fields).
        let q = QuadMesh::rectangle(3, 3, 3.0, 3.0);
        let t = parfem_mesh::TriMesh::from_quad_mesh(&q);
        let mut dm = DofMap::new(t.n_nodes());
        let eps = 0.01;
        for n in 0..t.n_nodes() {
            let [x, y] = t.node_coords(n);
            if x == 0.0 || y == 0.0 || x == 3.0 || y == 3.0 {
                dm.fix_dof(dm.dof(n, 0), eps * x);
                dm.fix_dof(dm.dof(n, 1), -0.3 * eps * y);
            }
        }
        let mat = Material::unit();
        let k = assemble_stiffness(&t, &dm, &mat);
        let mut rhs = vec![0.0; dm.n_dofs()];
        let kbc = assembly::apply_dirichlet(&k, &dm, &mut rhs);
        let mut dense_mat = kbc.to_dense();
        let u = dense::solve_dense(kbc.n_rows(), &mut dense_mat, &rhs);
        for n in 0..t.n_nodes() {
            let [x, y] = t.node_coords(n);
            assert!((u[dm.dof(n, 0)] - eps * x).abs() < 1e-10, "u_x at node {n}");
            assert!(
                (u[dm.dof(n, 1)] + 0.3 * eps * y).abs() < 1e-10,
                "u_y at node {n}"
            );
        }
    }

    #[test]
    fn assembled_triangles_are_stiffer_than_quads() {
        // The CST locks more than the bilinear quad: for the same mesh and
        // bending load, triangle deflection magnitude <= quad deflection.
        let q = QuadMesh::rectangle(12, 2, 12.0, 2.0);
        let t = parfem_mesh::TriMesh::from_quad_mesh(&q);
        let mat = Material::unit();

        let deflect_quad = {
            let mut dm = DofMap::new(q.n_nodes());
            dm.clamp_edge(&q, Edge::Left);
            let mut loads = vec![0.0; dm.n_dofs()];
            assembly::edge_load(&q, &dm, Edge::Right, 0.0, -1e-3, &mut loads);
            let sys = assembly::build_static(&q, &dm, &mat, &loads);
            let mut d = sys.stiffness.to_dense();
            let u = dense::solve_dense(sys.stiffness.n_rows(), &mut d, &sys.rhs);
            u[dm.dof(q.node_at(12, 1), 1)]
        };
        let deflect_tri = {
            let mut dm = DofMap::new(t.n_nodes());
            for n in t.edge_nodes(Edge::Left) {
                dm.clamp_node(n);
            }
            let k = assemble_stiffness(&t, &dm, &mat);
            let mut loads = vec![0.0; dm.n_dofs()];
            // Same consistent tip load as the quad case.
            let qdm = {
                let mut d2 = DofMap::new(q.n_nodes());
                d2.clamp_edge(&q, Edge::Left);
                d2
            };
            assembly::edge_load(&q, &qdm, Edge::Right, 0.0, -1e-3, &mut loads);
            let kbc = assembly::apply_dirichlet(&k, &dm, &mut loads);
            let mut d = kbc.to_dense();
            let u = dense::solve_dense(kbc.n_rows(), &mut d, &loads);
            u[dm.dof(t.node_at(12, 1), 1)]
        };
        assert!(deflect_quad < 0.0 && deflect_tri < 0.0);
        assert!(
            deflect_tri.abs() <= deflect_quad.abs() + 1e-12,
            "CST must not be softer: tri {deflect_tri} vs quad {deflect_quad}"
        );
    }

    #[test]
    #[should_panic(expected = "degenerate triangle")]
    fn clockwise_triangle_rejected() {
        let coords = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]];
        stiffness(&coords, &Material::unit());
    }
}
