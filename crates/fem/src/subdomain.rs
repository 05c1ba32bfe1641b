//! Per-subdomain local systems for element-based domain decomposition.
//!
//! Each subdomain assembles **only its own elements** of one
//! [`Discretization`] (any element family and physics it pairs) into a
//! matrix over its *local* DOF numbering — the "local distributed format"
//! of the paper's Definition 1. Nothing is ever assembled across the
//! interface, so
//!
//! ```text
//! K = Σₛ Bₛᵀ K̂⁽ˢ⁾ Bₛ          (paper Eq. 32)
//! f = Σₛ Bₛᵀ f̂⁽ˢ⁾
//! ```
//!
//! hold exactly, where `Bₛ` is the boolean gather of the subdomain's DOFs.
//! Dirichlet rows become `1/mult` diagonal contributions so the assembled
//! operator keeps clean unit identity rows, and shared load entries are
//! divided by their node multiplicity so the assembled RHS is unchanged.
//! A transient's lumped mass is a vector `m̂⁽ˢ⁾` over the local DOFs, with
//! `m = Σₛ Bₛᵀ m̂⁽ˢ⁾` likewise; no subdomain assembles a mass matrix.

use crate::assembly;
use crate::discretization::Discretization;
use crate::material::Material;
use parfem_mesh::{DofMap, Subdomain};
use parfem_sparse::NodeMatrix;

/// Interface DOFs shared with one neighbouring subdomain.
///
/// `shared_local_dofs` lists local DOF indices in the canonical order
/// induced by the subdomain's shared-node lists, so position `k` matches
/// position `k` on the neighbour's corresponding link.
#[derive(Debug, Clone)]
pub struct NeighborDofs {
    /// Neighbour rank.
    pub rank: usize,
    /// Local DOF indices shared with that neighbour, canonical order.
    pub shared_local_dofs: Vec<usize>,
}

/// The local distributed system of one subdomain.
#[derive(Debug, Clone)]
pub struct SubdomainSystem {
    /// Subdomain rank.
    pub rank: usize,
    /// Global node ids of the local nodes, ascending.
    pub nodes: Vec<usize>,
    /// Local stiffness `K̂⁽ˢ⁾` over local DOFs, boundary conditions applied:
    /// `B × B` node blocks for 2 or 3 DOFs per node, CSR for one.
    pub k_local: NodeMatrix,
    /// Local lumped mass, the diagonal of `M̂⁽ˢ⁾` (zero at constrained
    /// DOFs), when asked for.
    pub mass: Option<Vec<f64>>,
    /// Local distributed right-hand side `f̂⁽ˢ⁾`.
    pub f_local: Vec<f64>,
    /// Multiplicity of each local DOF (how many subdomains share it).
    pub multiplicity: Vec<f64>,
    /// Interface links, sorted by neighbour rank.
    pub neighbors: Vec<NeighborDofs>,
    /// Global DOF of each local DOF.
    pub global_dofs: Vec<usize>,
}

impl SubdomainSystem {
    /// Assembles the local system of `sub`'s elements of `disc` through
    /// [`crate::assembly`]'s pattern-first core; a bare mesh reference
    /// stands for the elasticity of its dimension. `loads` is the *global*
    /// load vector (`dm.n_dofs()` long); its entries are split across
    /// sharing subdomains by multiplicity. Dirichlet handling is identical,
    /// per element, to the global `apply_dirichlet`. The stiffness is
    /// scattered straight into the storage the DOFs per node give it;
    /// `lumped_mass` also sums the local lumped mass, a vector, with the
    /// helper RDD's rows use.
    ///
    /// # Panics
    /// Panics where [`Discretization::mass`] does for a lumped mass, and on a
    /// load vector or DOF map that does not match.
    pub fn build<'a>(
        disc: impl Into<Discretization<'a>>,
        dm: &DofMap,
        material: &Material,
        sub: &Subdomain,
        loads: &[f64],
        lumped_mass: bool,
    ) -> Self {
        let disc = disc.into();
        disc.check(dm);
        assert_eq!(loads.len(), dm.n_dofs(), "loads do not match DOF map");
        let dpn = dm.dofs_per_node();
        let global_dofs = Self::global_dofs_of(dm, sub);
        let multiplicity: Vec<f64> = (sub.multiplicity.iter())
            .flat_map(|&m| std::iter::repeat_n(m as f64, dpn))
            .collect();

        // Local distributed RHS: global loads split by multiplicity.
        let mut f_local: Vec<f64> = global_dofs
            .iter()
            .zip(&multiplicity)
            .map(|(&g, &m)| loads[g] / m)
            .collect();

        let fixed: Vec<bool> = global_dofs.iter().map(|&g| dm.is_fixed(g)).collect();
        let prescribed: Vec<f64> = global_dofs.iter().map(|&g| dm.fixed_value(g)).collect();
        let (mesh, npe) = (disc.mesh(), disc.mesh().nodes_per_elem());
        let mut conn = Vec::with_capacity(sub.elements.len() * npe);
        conn.extend(
            (sub.elements.iter().flat_map(|&e| mesh.elem_nodes(e))).map(|&n| {
                sub.local_node(n)
                    .expect("owned element references a local node")
            }),
        );
        // Constraint rows: diag 1/mult so the assembled diagonal is 1, and
        // the RHS carries ū/mult so the assembled RHS is ū.
        let n_nodes = sub.n_local_nodes();
        let k_local = assembly::assemble::<assembly::NodePattern>(
            n_nodes,
            n_nodes,
            dpn,
            npe,
            &conn,
            &fixed,
            |l| 1.0 / multiplicity[l],
            |r, c, v| f_local[r] -= v * prescribed[c],
            |k, ke| disc.stiffness(sub.elements[k], material, ke),
        );
        let n = global_dofs.len();
        let mass = lumped_mass
            .then(|| assembly::lumped_diagonal(&disc, material, &sub.elements, &conn, &fixed, n));
        for l in (0..fixed.len()).filter(|&l| fixed[l]) {
            f_local[l] = prescribed[l] / multiplicity[l];
        }

        // Neighbour DOF links from the node links.
        let neighbors = sub
            .neighbors
            .iter()
            .map(|link| NeighborDofs {
                rank: link.rank,
                shared_local_dofs: link
                    .shared_local_nodes
                    .iter()
                    .flat_map(|&ln| (0..dpn).map(move |c| ln * dpn + c))
                    .collect(),
            })
            .collect();

        SubdomainSystem {
            rank: sub.rank,
            nodes: sub.nodes.clone(),
            k_local,
            mass,
            f_local,
            multiplicity,
            neighbors,
            global_dofs,
        }
    }

    /// The global DOF of every local DOF of `sub`, local nodes ascending
    /// with the `DofMap`'s components interleaved — the row numbering of the
    /// local matrices, and all the host needs to gather a solution.
    pub fn global_dofs_of(dm: &DofMap, sub: &Subdomain) -> Vec<usize> {
        let dpn = dm.dofs_per_node();
        (sub.nodes.iter())
            .flat_map(|&n| (0..dpn).map(move |c| dm.dof(n, c)))
            .collect()
    }

    /// Number of local DOFs.
    pub fn n_local_dofs(&self) -> usize {
        self.global_dofs.len()
    }

    /// Restriction `Bₛ u`: gathers local values from a global vector
    /// ("global distributed format" of a subdomain).
    pub fn restrict(&self, global: &[f64]) -> Vec<f64> {
        self.global_dofs.iter().map(|&g| global[g]).collect()
    }

    /// Turns the local stiffness in place into the effective local matrix
    /// `ᾱ M̂ + K̂` of the paper's Eq. 52: `ᾱ·m` added on its diagonal.
    ///
    /// # Panics
    /// Panics if the mass was not assembled.
    pub fn effective_local(&mut self, alpha: f64) {
        let m = (self.mass.as_ref()).expect("effective_local requires an assembled mass");
        self.k_local.add_diagonal(alpha, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Physics;
    use parfem_mesh::{Edge, ElementPartition, QuadMesh};
    use parfem_sparse::{CsrMatrix, SparseRows};

    /// `global += Bₛᵀ local`.
    fn scatter_add(s: &SubdomainSystem, local: &[f64], global: &mut [f64]) {
        for (&g, &v) in s.global_dofs.iter().zip(local) {
            global[g] += v;
        }
    }

    fn fixture(
        nx: usize,
        ny: usize,
        p: usize,
    ) -> (QuadMesh, DofMap, Material, Vec<SubdomainSystem>, Vec<f64>) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
        let part = ElementPartition::strips_x(&mesh, p);
        let subs = part.subdomains_of(&mesh);
        let systems = subs
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
            .collect();
        (mesh, dm, mat, systems, loads)
    }

    #[test]
    fn assembled_sum_equals_global_matrix() {
        // Sum_s B^T K_local B must equal the globally assembled, BC-applied
        // stiffness, entry for entry.
        let (mesh, dm, mat, systems, loads) = fixture(6, 3, 3);
        let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
        let n = dm.n_dofs();
        let mut dense_sum = vec![0.0; n * n];
        for s in &systems {
            let kd = CsrMatrix::from_rows(&s.k_local).to_dense();
            let nl = s.n_local_dofs();
            for i in 0..nl {
                for j in 0..nl {
                    dense_sum[s.global_dofs[i] * n + s.global_dofs[j]] += kd[i * nl + j];
                }
            }
        }
        let global = sys.stiffness.to_dense();
        for (idx, (a, b)) in dense_sum.iter().zip(&global).enumerate() {
            assert!(
                (a - b).abs() < 1e-10,
                "entry ({}, {}): {a} vs {b}",
                idx / n,
                idx % n
            );
        }
    }

    #[test]
    fn assembled_rhs_equals_global_rhs() {
        let (mesh, dm, mat, systems, loads) = fixture(6, 3, 3);
        let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
        let mut f_sum = vec![0.0; dm.n_dofs()];
        for s in &systems {
            scatter_add(s, &s.f_local, &mut f_sum);
        }
        for (a, b) in f_sum.iter().zip(&sys.rhs) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let _ = mesh;
    }

    #[test]
    fn local_spmv_plus_interface_sum_equals_global_spmv() {
        // The EDD matvec identity (Eq. 36-37): for x global,
        // y = K x == Sum_s B^T (K_local (B x)).
        let (_, dm, _, systems, loads) = fixture(8, 2, 4);
        let (mesh2, dm2, mat2, _, _) = fixture(8, 2, 4);
        let sys = assembly::build_static(&mesh2, &dm2, &mat2, &loads);
        let x: Vec<f64> = (0..dm.n_dofs()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let y_global = sys.stiffness.spmv(&x);
        let mut y_sum = vec![0.0; dm.n_dofs()];
        for s in &systems {
            let xl = s.restrict(&x);
            let yl = CsrMatrix::from_rows(&s.k_local).spmv(&xl);
            scatter_add(s, &yl, &mut y_sum);
        }
        for (a, b) in y_sum.iter().zip(&y_global) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn neighbor_dof_lists_pair_up() {
        let (_, _, _, systems, _) = fixture(6, 2, 3);
        for s in &systems {
            for link in &s.neighbors {
                let t = &systems[link.rank];
                let back = t
                    .neighbors
                    .iter()
                    .find(|l| l.rank == s.rank)
                    .expect("symmetric link");
                assert_eq!(link.shared_local_dofs.len(), back.shared_local_dofs.len());
                for (la, lb) in link.shared_local_dofs.iter().zip(&back.shared_local_dofs) {
                    assert_eq!(s.global_dofs[*la], t.global_dofs[*lb]);
                }
            }
        }
    }

    #[test]
    fn multiplicities_match_dof_sharing() {
        let (_, dm, _, systems, _) = fixture(4, 2, 2);
        let mut counts = vec![0usize; dm.n_dofs()];
        for s in &systems {
            for &g in &s.global_dofs {
                counts[g] += 1;
            }
        }
        for s in &systems {
            for (l, &g) in s.global_dofs.iter().enumerate() {
                assert_eq!(s.multiplicity[l] as usize, counts[g]);
            }
        }
    }

    #[test]
    fn floating_subdomain_stiffness_is_singular() {
        // Strips away from the clamped edge have no Dirichlet support; their
        // local stiffness has the rigid-body null space — the paper's ILU
        // failure case. Verify singularity via the rigid x-translation.
        let (_, _, _, systems, _) = fixture(8, 2, 4);
        let s_last = &systems[3]; // far from the clamped left edge
        let nl = s_last.n_local_dofs();
        let mut tx = vec![0.0; nl];
        for l in 0..nl {
            if l % 2 == 0 {
                tx[l] = 1.0;
            }
        }
        let r = CsrMatrix::from_rows(&s_last.k_local).spmv(&tx);
        let norm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm < 1e-9, "floating subdomain should be singular: {norm}");
    }

    #[test]
    fn ilu0_fails_with_zero_pivot_on_single_floating_element() {
        // On a one-element subdomain the pattern is dense, so ILU(0) is the
        // exact LU of the rank-deficient element stiffness and must hit a
        // zero pivot — the paper's Section 3.2.3 failure mode in its purest
        // form. (On multi-element floating subdomains the *incomplete*
        // factorization can survive numerically while the matrix is still
        // singular; the preconditioner is then garbage without erroring.)
        let mesh = QuadMesh::cantilever(2, 1);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let loads = vec![0.0; dm.n_dofs()];
        let part = ElementPartition::strips_x(&mesh, 2);
        let subs = part.subdomains_of(&mesh);
        let right = SubdomainSystem::build(&mesh, &dm, &mat, &subs[1], &loads, false);
        assert!(matches!(
            parfem_sparse::Ilu0::factorize(&right.k_local),
            Err(parfem_sparse::SparseError::ZeroPivot { .. })
        ));
        // The clamped-side subdomain factorizes fine.
        let left = SubdomainSystem::build(&mesh, &dm, &mat, &subs[0], &loads, false);
        assert!(parfem_sparse::Ilu0::factorize(&left.k_local).is_ok());
    }

    #[test]
    fn effective_local_combines_mass_and_stiffness() {
        let mesh = QuadMesh::cantilever(3, 1);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let loads = vec![0.0; dm.n_dofs()];
        let part = ElementPartition::strips_x(&mesh, 1);
        let sub = &part.subdomains_of(&mesh)[0];
        let mut s = SubdomainSystem::build(&mesh, &dm, &mat, sub, &loads, true);
        let k = s.k_local.clone();
        s.effective_local(2.0);
        let m = s.mass.as_ref().unwrap();
        for r in 0..k.n_rows() {
            for ((c, v), (kc, kv)) in s.k_local.row_entries(r).zip(k.row_entries(r)) {
                let want = if c == r { kv + 2.0 * m[r] } else { kv };
                assert_eq!((c, v.to_bits()), (kc, want.to_bits()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires an assembled mass")]
    fn effective_local_without_mass_panics() {
        let (_, _, _, mut systems, _) = fixture(4, 1, 2);
        systems[0].effective_local(1.0);
    }

    #[test]
    fn tri_subdomains_sum_to_the_assembled_triangle_matrix() {
        let tmesh = parfem_mesh::TriMesh::cantilever(6, 3);
        let mut dm = DofMap::new(tmesh.n_nodes());
        for n in tmesh.edge_nodes(Edge::Left) {
            dm.clamp_node(n);
        }
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        // Nodal load on the top-right node.
        loads[dm.dof(tmesh.node_at(6, 3), 1)] = -1.0;
        let part = ElementPartition::blocks_of(&tmesh, 3, 1);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&tmesh)
            .iter()
            .map(|s| SubdomainSystem::build(&tmesh, &dm, &mat, s, &loads, false))
            .collect();
        // Global reference with the same BC handling.
        let k_raw = assembly::assemble_stiffness(&tmesh, &dm, &mat);
        let mut rhs = loads.clone();
        let k_bc = crate::assembly::apply_dirichlet(&k_raw, &dm, &mut rhs);
        let n = dm.n_dofs();
        let mut dense_sum = vec![0.0; n * n];
        let mut f_sum = vec![0.0; n];
        for s in &systems {
            let kd = CsrMatrix::from_rows(&s.k_local).to_dense();
            let nl = s.n_local_dofs();
            for i in 0..nl {
                for j in 0..nl {
                    dense_sum[s.global_dofs[i] * n + s.global_dofs[j]] += kd[i * nl + j];
                }
            }
            scatter_add(s, &s.f_local, &mut f_sum);
        }
        for (a, b) in dense_sum.iter().zip(&k_bc.to_dense()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        for (a, b) in f_sum.iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn heat_subdomains_sum_to_the_assembled_scalar_matrix() {
        // The EDD identity holds verbatim for the scalar physics (one DOF
        // per node) — the regression for the old hardcoded 2-DOF layout.
        let mesh = QuadMesh::cantilever(6, 3);
        let mut dm = DofMap::with_dofs(mesh.n_nodes(), 1);
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        crate::assembly::edge_source(&mesh, &dm, Edge::Right, 1.0, &mut loads);
        let part = ElementPartition::strips_x(&mesh, 3);
        let heat = Discretization::new(&mesh, Physics::Heat2d);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(heat, &dm, &mat, s, &loads, false))
            .collect();
        let sys = crate::assembly::build_static(heat, &dm, &mat, &loads);
        let n = dm.n_dofs();
        let mut dense_sum = vec![0.0; n * n];
        let mut f_sum = vec![0.0; n];
        for s in &systems {
            assert_eq!(s.n_local_dofs(), s.nodes.len());
            let kd = CsrMatrix::from_rows(&s.k_local).to_dense();
            let nl = s.n_local_dofs();
            for i in 0..nl {
                for j in 0..nl {
                    dense_sum[s.global_dofs[i] * n + s.global_dofs[j]] += kd[i * nl + j];
                }
            }
            scatter_add(s, &s.f_local, &mut f_sum);
        }
        for (a, b) in dense_sum.iter().zip(&sys.stiffness.to_dense()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        for (a, b) in f_sum.iter().zip(&sys.rhs) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn hex_subdomains_sum_to_the_assembled_3d_matrix() {
        use parfem_mesh::{Face, HexMesh};
        let mesh = HexMesh::cantilever(4, 2, 2);
        let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
        for node in mesh.face_nodes(Face::XMin) {
            dm.clamp_node(node);
        }
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        crate::assembly::face_load(&mesh, &dm, Face::XMax, [0.0, 0.0, -1.0], &mut loads);
        let part = ElementPartition::blocks_of(&mesh, 2, 1);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
            .collect();
        let sys = crate::assembly::build_static(&mesh, &dm, &mat, &loads);
        let n = dm.n_dofs();
        let mut dense_sum = vec![0.0; n * n];
        let mut f_sum = vec![0.0; n];
        for s in &systems {
            assert_eq!(s.n_local_dofs(), 3 * s.nodes.len());
            let kd = CsrMatrix::from_rows(&s.k_local).to_dense();
            let nl = s.n_local_dofs();
            for i in 0..nl {
                for j in 0..nl {
                    dense_sum[s.global_dofs[i] * n + s.global_dofs[j]] += kd[i * nl + j];
                }
            }
            scatter_add(s, &s.f_local, &mut f_sum);
        }
        for (a, b) in dense_sum.iter().zip(&sys.stiffness.to_dense()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        for (a, b) in f_sum.iter().zip(&sys.rhs) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn floating_hex_subdomain_defeats_ilu0_but_is_singular() {
        // 3-D analogue of the Eq. 45 failure setup: the strip away from the
        // clamped face carries the full 6-mode rigid null space.
        use parfem_mesh::{Face, HexMesh};
        let mesh = HexMesh::cantilever(2, 1, 1);
        let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
        for node in mesh.face_nodes(Face::XMin) {
            dm.clamp_node(node);
        }
        let mat = Material::unit();
        let loads = vec![0.0; dm.n_dofs()];
        let part = ElementPartition::blocks_of(&mesh, 2, 1);
        let subs = part.subdomains_of(&mesh);
        let right = SubdomainSystem::build(&mesh, &dm, &mat, &subs[1], &loads, false);
        // Rigid z-translation of the floating strip is in the null space.
        let nl = right.n_local_dofs();
        let mut tz = vec![0.0; nl];
        for l in (2..nl).step_by(3) {
            tz[l] = 1.0;
        }
        let r = CsrMatrix::from_rows(&right.k_local).spmv(&tz);
        let norm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm < 1e-9, "floating hex subdomain singular: {norm}");
        assert!(matches!(
            parfem_sparse::Ilu0::factorize(&right.k_local),
            Err(parfem_sparse::SparseError::ZeroPivot { .. })
        ));
    }

    #[test]
    fn quad8_subdomains_sum_to_the_assembled_q8_matrix() {
        let emesh = parfem_mesh::Quad8Mesh::cantilever(4, 2);
        let mut dm = DofMap::new(emesh.n_nodes());
        for n in emesh.edge_nodes(Edge::Left) {
            dm.clamp_node(n);
        }
        let mat = Material::unit();
        let loads = vec![0.0; dm.n_dofs()];
        let part = ElementPartition::blocks_of(&emesh, 2, 1);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&emesh)
            .iter()
            .map(|s| SubdomainSystem::build(&emesh, &dm, &mat, s, &loads, false))
            .collect();
        let k_raw = assembly::assemble_stiffness(&emesh, &dm, &mat);
        let mut rhs = loads.clone();
        let k_bc = crate::assembly::apply_dirichlet(&k_raw, &dm, &mut rhs);
        let n = dm.n_dofs();
        let mut dense_sum = vec![0.0; n * n];
        for s in &systems {
            let kd = CsrMatrix::from_rows(&s.k_local).to_dense();
            let nl = s.n_local_dofs();
            for i in 0..nl {
                for j in 0..nl {
                    dense_sum[s.global_dofs[i] * n + s.global_dofs[j]] += kd[i * nl + j];
                }
            }
        }
        for (a, b) in dense_sum.iter().zip(&k_bc.to_dense()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Q8 strip interfaces carry three nodes per cell edge: corners +
        // the vertical mid-edge node.
        let link = &systems[0].neighbors[0];
        assert_eq!(link.shared_local_dofs.len(), 2 * (2 * 2 + 1));
    }

    #[test]
    fn lumped_tri_mass_is_the_diagonal_of_row_sums() {
        // One unconstrained T3 subdomain holding the whole mesh.
        let tmesh = parfem_mesh::TriMesh::cantilever(4, 2);
        let (dm, mat) = (DofMap::new(tmesh.n_nodes()), Material::unit());
        let sub = &ElementPartition::blocks_of(&tmesh, 1, 1).subdomains_of(&tmesh)[0];
        let loads = vec![0.0; dm.n_dofs()];
        let s = SubdomainSystem::build(&tmesh, &dm, &mat, sub, &loads, true);
        let consistent = assembly::assemble_mass(&tmesh, &dm, &mat, crate::Mass::Consistent);
        for (&g, &diag) in s.global_dofs.iter().zip(s.mass.as_ref().unwrap()) {
            let sum: f64 = consistent.row(g).1.iter().sum();
            assert!(
                diag > 0.0 && (diag - sum).abs() < 1e-14,
                "dof {g}: {diag} vs {sum}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "lumped Q8 mass")]
    fn lumped_quad8_mass_is_refused() {
        let emesh = parfem_mesh::Quad8Mesh::cantilever(2, 1);
        let dm = DofMap::new(emesh.n_nodes());
        let sub = &ElementPartition::blocks_of(&emesh, 1, 1).subdomains_of(&emesh)[0];
        let loads = vec![0.0; dm.n_dofs()];
        SubdomainSystem::build(&emesh, &dm, &Material::unit(), sub, &loads, true);
    }
}
