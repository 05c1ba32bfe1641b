//! Property-based tests for the finite-element substrate.

use parfem_fem::{hex8, physics, quad4, tri3, Material};
use parfem_mesh::{DofMap, Edge, Face, HexMesh, QuadMesh};
use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
use proptest::prelude::*;

/// Strategy: a convex, non-degenerate quadrilateral built by perturbing the
/// unit square (perturbations < 0.3 keep it convex and CCW).
fn quad_coords() -> impl Strategy<Value = [[f64; 2]; 4]> {
    prop::collection::vec(-0.25..0.25f64, 8).prop_map(|d| {
        [
            [0.0 + d[0], 0.0 + d[1]],
            [1.0 + d[2], 0.0 + d[3]],
            [1.0 + d[4], 1.0 + d[5]],
            [0.0 + d[6], 1.0 + d[7]],
        ]
    })
}

/// Strategy: a CCW triangle with area bounded away from zero.
fn tri_coords() -> impl Strategy<Value = [[f64; 2]; 3]> {
    prop::collection::vec(-0.2..0.2f64, 6).prop_map(|d| {
        [
            [0.0 + d[0], 0.0 + d[1]],
            [1.0 + d[2], 0.0 + d[3]],
            [0.3 + d[4], 1.0 + d[5]],
        ]
    })
}

/// Strategy: a mildly distorted unit cube (perturbations < 0.15 keep the
/// hexahedron convex with a positive Jacobian everywhere).
fn hex_coords() -> impl Strategy<Value = [[f64; 3]; 8]> {
    prop::collection::vec(-0.12..0.12f64, 24).prop_map(|d| {
        let base = [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ];
        let mut c = base;
        for (i, node) in c.iter_mut().enumerate() {
            for (a, axis) in node.iter_mut().enumerate() {
                *axis += d[3 * i + a];
            }
        }
        c
    })
}

fn matvec(n: usize, m: &[f64], x: &[f64]) -> Vec<f64> {
    (0..n)
        .map(|r| (0..n).map(|c| m[r * n + c] * x[c]).sum())
        .collect()
}

/// A deterministic non-zero probe vector of length `n`.
fn probe(n: usize) -> Vec<f64> {
    (0..n).map(|i| (1.7 * i as f64).sin() + 1.1).collect()
}

/// Asserts `a` (CSR) is symmetric and positive definite: symmetry by dense
/// transpose comparison, definiteness by a pivot-complete LDLᵀ factorization
/// plus a strictly positive probe energy.
fn assert_spd(a: &parfem_sparse::CsrMatrix) {
    let n = a.n_rows();
    let dense = a.to_dense();
    for r in 0..n {
        for c in 0..n {
            assert!(
                (dense[r * n + c] - dense[c * n + r]).abs() < 1e-10,
                "asymmetry at ({r},{c})"
            );
        }
    }
    let factor = SparseLdlt::factor(a, DEFAULT_PIVOT_TOL);
    assert_eq!(
        factor.n_skipped(),
        0,
        "Dirichlet-eliminated operator is singular"
    );
    let x = probe(n);
    let ax = matvec(n, &dense, &x);
    let energy: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
    assert!(energy > 0.0, "non-positive probe energy {energy}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quad_stiffness_symmetric_psd_with_rigid_null_space(coords in quad_coords(),
                                                          nu in 0.0..0.45f64) {
        let mut mat = Material::unit();
        mat.poissons_ratio = nu;
        let ke = quad4::stiffness(&coords, &mat);
        // Symmetry.
        for r in 0..8 {
            for c in 0..8 {
                prop_assert!((ke[r * 8 + c] - ke[c * 8 + r]).abs() < 1e-10);
            }
        }
        // Rigid modes in the null space.
        let mut tx = [0.0; 8];
        let mut ty = [0.0; 8];
        let mut rot = [0.0; 8];
        for i in 0..4 {
            tx[2 * i] = 1.0;
            ty[2 * i + 1] = 1.0;
            rot[2 * i] = -coords[i][1];
            rot[2 * i + 1] = coords[i][0];
        }
        for mode in [tx, ty, rot] {
            for v in matvec(8, &ke, &mode) {
                prop_assert!(v.abs() < 1e-8, "rigid force {}", v);
            }
        }
    }

    #[test]
    fn quad_energy_nonnegative_for_random_displacements(coords in quad_coords(),
                                                        u in prop::collection::vec(-2.0..2.0f64, 8)) {
        let ke = quad4::stiffness(&coords, &Material::unit());
        let ku = matvec(8, &ke, &u);
        let e: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum();
        prop_assert!(e >= -1e-9, "negative energy {}", e);
    }

    #[test]
    fn quad_mass_total_equals_density_area(coords in quad_coords()) {
        let mat = Material::unit();
        let me = quad4::consistent_mass(&coords, &mat);
        // Shoelace area of the quadrilateral.
        let mut area = 0.0;
        for i in 0..4 {
            let j = (i + 1) % 4;
            area += coords[i][0] * coords[j][1] - coords[j][0] * coords[i][1];
        }
        area *= 0.5;
        let mut tx = [0.0; 8];
        for i in 0..4 {
            tx[2 * i] = 1.0;
        }
        let mx = matvec(8, &me, &tx);
        let total: f64 = tx.iter().zip(&mx).map(|(a, b)| a * b).sum();
        prop_assert!((total - area).abs() < 1e-9 * area.max(1.0),
            "mass {} vs area {}", total, area);
    }

    #[test]
    fn lumped_mass_equals_consistent_row_sums(coords in quad_coords()) {
        let mat = Material::unit();
        let lm = quad4::lumped_mass(&coords, &mat);
        let cm = quad4::consistent_mass(&coords, &mat);
        for r in 0..8 {
            let row_sum: f64 = (0..8).map(|c| cm[r * 8 + c]).sum();
            prop_assert!((lm[r * 8 + r] - row_sum).abs() < 1e-12);
        }
    }

    #[test]
    fn tri_stiffness_invariants(coords in tri_coords()) {
        let ke = tri3::stiffness(&coords, &Material::unit());
        for r in 0..6 {
            for c in 0..6 {
                prop_assert!((ke[r * 6 + c] - ke[c * 6 + r]).abs() < 1e-10);
            }
        }
        let mut rot = [0.0; 6];
        for i in 0..3 {
            rot[2 * i] = -coords[i][1];
            rot[2 * i + 1] = coords[i][0];
        }
        for v in matvec(6, &ke, &rot) {
            prop_assert!(v.abs() < 1e-9, "rigid rotation force {}", v);
        }
    }

    #[test]
    fn tri_translation_invariance(coords in tri_coords(),
                                  shift in prop::collection::vec(-5.0..5.0f64, 2)) {
        // Stiffness depends only on shape, not position.
        let mat = Material::unit();
        let k1 = tri3::stiffness(&coords, &mat);
        let shifted = [
            [coords[0][0] + shift[0], coords[0][1] + shift[1]],
            [coords[1][0] + shift[0], coords[1][1] + shift[1]],
            [coords[2][0] + shift[0], coords[2][1] + shift[1]],
        ];
        let k2 = tri3::stiffness(&shifted, &mat);
        for i in 0..36 {
            prop_assert!((k1[i] - k2[i]).abs() < 1e-9 * (1.0 + k1[i].abs()));
        }
    }

    #[test]
    fn heat_quad_stiffness_symmetric_with_constant_null_space(coords in quad_coords(),
                                                              k in 0.1..10.0f64) {
        let mut mat = Material::unit();
        // Conductivity aliases Young's modulus in the scalar physics.
        mat.youngs_modulus = k;
        let ke = physics::heat_stiffness_quad4(&coords, &mat);
        for r in 0..4 {
            for c in 0..4 {
                prop_assert!((ke[r * 4 + c] - ke[c * 4 + r]).abs() < 1e-10);
            }
        }
        // The scalar physics has exactly one rigid mode: the constant field.
        for v in matvec(4, &ke, &[1.0; 4]) {
            prop_assert!(v.abs() < 1e-9, "constant-field flux {}", v);
        }
    }

    #[test]
    fn heat_quad_energy_nonnegative(coords in quad_coords(),
                                    u in prop::collection::vec(-2.0..2.0f64, 4)) {
        let ke = physics::heat_stiffness_quad4(&coords, &Material::unit());
        let ku = matvec(4, &ke, &u);
        let e: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum();
        prop_assert!(e >= -1e-10, "negative heat energy {}", e);
    }


    #[test]
    fn hex_stiffness_symmetric_with_six_rigid_modes(coords in hex_coords(),
                                                    nu in 0.0..0.45f64) {
        let mut mat = Material::unit();
        mat.poissons_ratio = nu;
        let ke = hex8::stiffness(&coords, &mat);
        for r in 0..24 {
            for c in 0..24 {
                prop_assert!((ke[r * 24 + c] - ke[c * 24 + r]).abs() < 1e-8);
            }
        }
        // Three translations and three rotations annihilated (Physics::
        // Elasticity3d::n_rigid_modes() == 6).
        let mut modes = [[0.0; 24]; 6];
        for i in 0..8 {
            let [x, y, z] = coords[i];
            for t in 0..3 {
                modes[t][3 * i + t] = 1.0;
            }
            // rx = (0, -z, y), ry = (z, 0, -x), rz = (-y, x, 0).
            modes[3][3 * i + 1] = -z;
            modes[3][3 * i + 2] = y;
            modes[4][3 * i] = z;
            modes[4][3 * i + 2] = -x;
            modes[5][3 * i] = -y;
            modes[5][3 * i + 1] = x;
        }
        for mode in &modes {
            for v in matvec(24, &ke, mode) {
                prop_assert!(v.abs() < 1e-7, "rigid force {}", v);
            }
        }
    }

    #[test]
    fn hex_energy_nonnegative(coords in hex_coords(),
                              u in prop::collection::vec(-2.0..2.0f64, 24)) {
        let ke = hex8::stiffness(&coords, &Material::unit());
        let ku = matvec(24, &ke, &u);
        let e: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum();
        prop_assert!(e >= -1e-7, "negative energy {}", e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn assembled_heat_operator_spd_after_dirichlet(nx in 2..6usize, ny in 2..5usize) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let mut dm = DofMap::with_dofs(mesh.n_nodes(), 1);
        dm.clamp_edge(&mesh, Edge::Left);
        let loads = vec![0.0; dm.n_dofs()];
        let heat = parfem_fem::Discretization::new(&mesh, parfem_fem::Physics::Heat2d);
        let sys = parfem_fem::assembly::build_static(heat, &dm, &Material::unit(), &loads);
        assert_spd(&sys.stiffness);
    }

    #[test]
    fn assembled_hex_operator_spd_after_dirichlet(nx in 2..5usize,
                                                  ny in 1..3usize,
                                                  nz in 1..3usize) {
        let mesh = HexMesh::cantilever(nx, ny, nz);
        let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
        for node in mesh.face_nodes(Face::XMin) {
            dm.clamp_node(node);
        }
        let loads = vec![0.0; dm.n_dofs()];
        let sys = parfem_fem::assembly::build_static(&mesh, &dm, &Material::unit(), &loads);
        assert_spd(&sys.stiffness);
    }
}

/// Strategy: a positively oriented hexahedron — a mildly distorted unit
/// cube ([`hex_coords`]) stretched by positive axis scales spanning two
/// decades and moved away from the origin — with a random `(E, ν)`.
fn scaled_hex_and_material() -> impl Strategy<Value = ([[f64; 3]; 8], Material)> {
    (
        hex_coords(),
        prop::collection::vec(0.1..10.0f64, 3),
        prop::collection::vec(-50.0..50.0f64, 3),
        (-3.0..12.0f64, 0.0..0.49f64),
    )
        .prop_map(|(mut coords, scale, shift, (log_e, nu))| {
            for node in &mut coords {
                for (a, x) in node.iter_mut().enumerate() {
                    *x = *x * scale[a] + shift[a];
                }
            }
            let material = Material {
                youngs_modulus: 10f64.powf(log_e),
                poissons_ratio: nu,
                ..Material::unit()
            };
            (coords, material)
        })
}

/// The dense `kₑ = Σ_g Bᵀ D B det J` with the full 6×24 strain matrix, every
/// product a 6-term sum from `0.0` in ascending strain row: the reference
/// the hex8 kernel's structural-nonzero sums must reproduce bit for bit.
fn dense_hex_stiffness(coords: &[[f64; 3]; 8], material: &Material) -> Vec<f64> {
    dense_hex_stiffness_and_magnitude(coords, material).0
}

/// [`dense_hex_stiffness`] with, per entry, the sum of the absolute values
/// of every term that enters it, `Σ_g Σ_kj |b_kr d_kj b_jc det J|`: the
/// scale of its rounding error.
fn dense_hex_stiffness_and_magnitude(
    coords: &[[f64; 3]; 8],
    material: &Material,
) -> (Vec<f64>, Vec<f64>) {
    let d = material.d_matrix_3d();
    let gp = 0.577_350_269_189_625_8;
    let mut ke = vec![0.0f64; 576];
    let mut magnitude = vec![0.0f64; 576];
    for gx in [-gp, gp] {
        for gy in [-gp, gp] {
            for gz in [-gp, gp] {
                let (det, dx, dy, dz) = hex8::physical_gradients(coords, gx, gy, gz);
                let mut b = [0.0f64; 6 * 24];
                for i in 0..8 {
                    b[3 * i] = dx[i];
                    b[24 + 3 * i + 1] = dy[i];
                    b[2 * 24 + 3 * i + 2] = dz[i];
                    b[3 * 24 + 3 * i] = dy[i];
                    b[3 * 24 + 3 * i + 1] = dx[i];
                    b[4 * 24 + 3 * i + 1] = dz[i];
                    b[4 * 24 + 3 * i + 2] = dy[i];
                    b[5 * 24 + 3 * i] = dz[i];
                    b[5 * 24 + 3 * i + 2] = dx[i];
                }
                let mut db = [0.0f64; 6 * 24];
                for r in 0..6 {
                    for c in 0..24 {
                        let mut acc = 0.0;
                        for k in 0..6 {
                            acc += d[r * 6 + k] * b[k * 24 + c];
                        }
                        db[r * 24 + c] = acc;
                    }
                }
                for r in 0..24 {
                    for c in 0..24 {
                        let mut acc = 0.0;
                        for k in 0..6 {
                            acc += b[k * 24 + r] * db[k * 24 + c];
                            for j in 0..6 {
                                magnitude[r * 24 + c] +=
                                    (b[k * 24 + r] * d[k * 6 + j] * b[j * 24 + c] * det).abs();
                            }
                        }
                        ke[r * 24 + c] += acc * det;
                    }
                }
            }
        }
    }
    (ke, magnitude)
}

// The hex8 kernel sums only the structural nonzeros of B; skipping exact
// zero terms must leave every entry's bits as the dense product gives them.
// Its lower triangle mirrors the upper one, which the dense product computes
// in another association: the two differ by rounding only, each entry within
// `24·ε` of the sum of its terms' magnitudes (two 6-term dots, the weight
// and the 8-point sum, `21·u` each way).
proptest! {
    #[test]
    fn hex_stiffness_mirror_stays_within_the_reassociation_bound(
        (coords, material) in scaled_hex_and_material()
    ) {
        let got = hex8::stiffness(&coords, &material);
        let (want, magnitude) = dense_hex_stiffness_and_magnitude(&coords, &material);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            let bound = 24.0 * f64::EPSILON * magnitude[k];
            prop_assert!((g - w).abs() <= bound, "entry ({}, {}): {} vs {}", k / 24, k % 24, g, w);
        }
    }


    #[test]
    fn hex_stiffness_has_the_bits_of_the_dense_product(
        (coords, material) in scaled_hex_and_material()
    ) {
        let got = hex8::stiffness(&coords, &material);
        let want = dense_hex_stiffness(&coords, &material);
        // The upper triangle is the dense product's, the lower its mirror.
        for (k, g) in got.iter().enumerate() {
            let (r, c) = (k / 24, k % 24);
            let w = want[r.min(c) * 24 + r.max(c)];
            prop_assert_eq!(g.to_bits(), w.to_bits(), "entry ({}, {}): {} vs {}", r, c, g, w);
        }
    }
}
