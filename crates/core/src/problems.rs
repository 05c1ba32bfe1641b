//! The paper's benchmark problems: the cantilever plate family of Table 2.
//!
//! Fig. 9 describes a rectangular cantilever discretized with 4-node
//! quadrilaterals, clamped along one edge, loaded at the opposite edge. The
//! convergence experiments use a "pulling load" (axial tension); the
//! default material is the dimensionless unit material since only iteration
//! counts and timings are reported.

use parfem_fem::{assembly, Discretization, Material, Physics};
use parfem_mesh::{
    DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, PartitionerSpec, QuadMesh,
};

/// The ten meshes of the paper's Table 2 as `(nXele, nYele)`.
pub const PAPER_MESHES: [(usize, usize); 10] = [
    (7, 1),
    (40, 8),
    (40, 20),
    (50, 50),
    (60, 60),
    (70, 70),
    (80, 80),
    (90, 90),
    (100, 100),
    (200, 100),
];

/// How the free end of the cantilever is loaded (total force).
#[derive(Debug, Clone, Copy)]
pub enum LoadCase {
    /// Axial tension along `+x` on the right edge — the paper's
    /// "pulling load".
    PullX(f64),
    /// Transverse shear along `y` on the right edge (classic tip-loaded
    /// cantilever bending).
    ShearY(f64),
}

/// A ready-to-solve cantilever problem.
#[derive(Debug, Clone)]
pub struct CantileverProblem {
    /// The structured quadrilateral mesh.
    pub mesh: QuadMesh,
    /// DOF map with the left edge clamped.
    pub dof_map: DofMap,
    /// Material.
    pub material: Material,
    /// Global load vector (`dof_map.n_dofs()` long).
    pub loads: Vec<f64>,
}

impl CantileverProblem {
    /// Builds an `nx × ny`-element cantilever, clamped along `x = 0`,
    /// loaded on the right edge per `load`.
    pub fn new(nx: usize, ny: usize, material: Material, load: LoadCase) -> Self {
        let mesh = QuadMesh::cantilever(nx, ny);
        let mut dof_map = DofMap::new(mesh.n_nodes());
        dof_map.clamp_edge(&mesh, Edge::Left);
        let mut loads = vec![0.0; dof_map.n_dofs()];
        match load {
            LoadCase::PullX(f) => {
                assembly::edge_load(&mesh, &dof_map, Edge::Right, f, 0.0, &mut loads)
            }
            LoadCase::ShearY(f) => {
                assembly::edge_load(&mesh, &dof_map, Edge::Right, 0.0, f, &mut loads)
            }
        }
        CantileverProblem {
            mesh,
            dof_map,
            material,
            loads,
        }
    }

    /// The paper's `Mesh{k}` (1-based, Table 2) with the unit material and
    /// a unit pulling load.
    ///
    /// # Panics
    /// Panics unless `1 <= k <= 10`.
    pub fn paper_mesh(k: usize) -> Self {
        assert!((1..=10).contains(&k), "paper meshes are Mesh1..Mesh10");
        let (nx, ny) = PAPER_MESHES[k - 1];
        Self::new(nx, ny, Material::unit(), LoadCase::PullX(1.0))
    }

    /// The number of free equations (the paper's `nEqn`).
    pub fn n_eqn(&self) -> usize {
        self.dof_map.n_free()
    }

    /// Total DOFs including constrained ones.
    pub fn n_dofs(&self) -> usize {
        self.dof_map.n_dofs()
    }

    /// Assembles the constrained static system `K u = f`.
    pub fn static_system(&self) -> assembly::StaticSystem {
        assembly::build_static(&self.mesh, &self.dof_map, &self.material, &self.loads)
    }

    /// The borrowed [`parfem_dd::Problem`] view of this cantilever — what
    /// [`parfem_dd::SolveSession::new`] takes.
    pub fn as_problem(&self) -> parfem_dd::Problem<'_> {
        parfem_dd::Problem::new(&self.mesh, &self.dof_map, &self.material, &self.loads)
    }
}

/// The mesh backing a [`PhysicsProblem`] workload.
#[derive(Debug, Clone)]
pub enum WorkloadMesh {
    /// A 2-D structured quadrilateral mesh.
    Quad(QuadMesh),
    /// A 3-D structured hexahedral mesh.
    Hex(HexMesh),
}

/// A ready-to-solve benchmark on the *physics axis*: the paper's cantilever
/// geometry instantiated for any supported [`Physics`], so workloads are
/// orthogonal to strategy × preconditioner × machine.
///
/// - [`Physics::Elasticity2d`] — the paper's plane-stress cantilever
///   (identical to [`CantileverProblem`]),
/// - [`Physics::Heat2d`] — scalar steady conduction on the same geometry:
///   temperature fixed at the root, a distributed flux on the free edge,
/// - [`Physics::Elasticity3d`] — an 8-node hexahedral cantilever bar,
///   clamped on the `x = 0` face, loaded on the opposite face.
#[derive(Debug, Clone)]
pub struct PhysicsProblem {
    /// Which physics this workload assembles.
    pub physics: Physics,
    /// The mesh (quadrilateral for 2-D physics, hexahedral for 3-D).
    pub mesh: WorkloadMesh,
    /// DOF map with the cantilever root constrained.
    pub dof_map: DofMap,
    /// Material.
    pub material: Material,
    /// Global load vector (`dof_map.n_dofs()` long).
    pub loads: Vec<f64>,
}

impl PhysicsProblem {
    /// Builds the cantilever workload for `physics` on an
    /// `nx × ny (× nz)`-element grid (`nz` ignored by the 2-D physics).
    ///
    /// The load case carries over per physics: elasticity keeps its
    /// pull/shear meaning ([`LoadCase::PullX`] pulls along the bar axis,
    /// [`LoadCase::ShearY`] loads transversely); for scalar heat the load's
    /// magnitude becomes the total boundary flux into the free edge.
    pub fn cantilever(
        physics: Physics,
        (nx, ny, nz): (usize, usize, usize),
        material: Material,
        load: LoadCase,
    ) -> Self {
        match physics {
            Physics::Elasticity2d => {
                CantileverProblem::new(nx, ny, material, load).into_physics_problem()
            }
            Physics::Heat2d => {
                let mesh = QuadMesh::cantilever(nx, ny);
                let mut dof_map = DofMap::with_dofs(mesh.n_nodes(), 1);
                dof_map.clamp_edge(&mesh, Edge::Left);
                let mut loads = vec![0.0; dof_map.n_dofs()];
                let q = match load {
                    LoadCase::PullX(f) | LoadCase::ShearY(f) => f,
                };
                assembly::edge_source(&mesh, &dof_map, Edge::Right, q, &mut loads);
                PhysicsProblem {
                    physics,
                    mesh: WorkloadMesh::Quad(mesh),
                    dof_map,
                    material,
                    loads,
                }
            }
            Physics::Elasticity3d => {
                let mesh = HexMesh::cantilever(nx, ny, nz);
                let mut dof_map = DofMap::with_dofs(mesh.n_nodes(), 3);
                for node in mesh.face_nodes(Face::XMin) {
                    dof_map.clamp_node(node);
                }
                let mut loads = vec![0.0; dof_map.n_dofs()];
                let f = match load {
                    LoadCase::PullX(f) => [f, 0.0, 0.0],
                    LoadCase::ShearY(f) => [0.0, f, 0.0],
                };
                assembly::face_load(&mesh, &dof_map, Face::XMax, f, &mut loads);
                PhysicsProblem {
                    physics,
                    mesh: WorkloadMesh::Hex(mesh),
                    dof_map,
                    material,
                    loads,
                }
            }
        }
    }

    /// The number of free equations (the paper's `nEqn`).
    pub fn n_eqn(&self) -> usize {
        self.dof_map.n_free()
    }

    /// Total DOFs including constrained ones.
    pub fn n_dofs(&self) -> usize {
        self.dof_map.n_dofs()
    }

    /// The mesh paired with this problem's physics.
    pub fn discretization(&self) -> Discretization<'_> {
        match &self.mesh {
            WorkloadMesh::Quad(m) => Discretization::new(m, self.physics),
            WorkloadMesh::Hex(m) => Discretization::new(m, self.physics),
        }
    }

    /// Assembles the constrained static system `K u = f` for this
    /// problem's physics.
    pub fn static_system(&self) -> assembly::StaticSystem {
        let (dm, mat) = (&self.dof_map, &self.material);
        assembly::build_static(self.discretization(), dm, mat, &self.loads)
    }

    /// The borrowed [`parfem_dd::Problem`] view — what
    /// [`parfem_dd::SolveSession::new`] takes.
    pub fn as_problem(&self) -> parfem_dd::Problem<'_> {
        let (dm, mat) = (&self.dof_map, &self.material);
        parfem_dd::Problem::new(self.discretization(), dm, mat, &self.loads)
    }

    /// The EDD element partition `spec` produces for `parts` subdomains —
    /// the partitioner registry is generic over structured cell meshes, so
    /// every spec works for both mesh families.
    pub fn element_partition(&self, spec: &PartitionerSpec, parts: usize) -> ElementPartition {
        spec.element_partition(&self.discretization().mesh(), parts)
    }

    /// The RDD node partition of the `parts` element strips
    /// ([`NodePartition::from_elements`]): vertical strips of node columns
    /// (slabs of constant-`x` node planes for hexahedra).
    pub fn node_partition(&self, parts: usize) -> NodePartition {
        let strips = self.element_partition(&PartitionerSpec::Strips, parts);
        NodePartition::from_elements(&strips, &self.discretization().mesh())
            .expect("each strip owns the node column right of its first element column")
    }
}

impl CantileverProblem {
    /// Wraps this cantilever as the equivalent
    /// [`Physics::Elasticity2d`] [`PhysicsProblem`].
    pub fn into_physics_problem(self) -> PhysicsProblem {
        PhysicsProblem {
            physics: Physics::Elasticity2d,
            mesh: WorkloadMesh::Quad(self.mesh),
            dof_map: self.dof_map,
            material: self.material,
            loads: self.loads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_meshes_match_table2_node_counts() {
        let expected_nodes = [16, 369, 861, 2601, 3721, 5041, 6561, 8281, 10201, 20301];
        for (k, &nn) in (1..=10).zip(&expected_nodes) {
            let p = CantileverProblem::paper_mesh(k);
            assert_eq!(p.mesh.n_nodes(), nn, "Mesh{k}");
        }
    }

    #[test]
    fn mesh1_neqn_matches_paper() {
        // Table 2 lists nEqn = 28 for Mesh1 (left edge clamped).
        assert_eq!(CantileverProblem::paper_mesh(1).n_eqn(), 28);
    }

    #[test]
    fn load_cases_put_force_on_the_right_edge() {
        let p = CantileverProblem::new(4, 2, Material::unit(), LoadCase::PullX(3.0));
        let fx: f64 = (0..p.mesh.n_nodes())
            .map(|n| p.loads[p.dof_map.dof(n, 0)])
            .sum();
        assert!((fx - 3.0).abs() < 1e-12);
        let q = CantileverProblem::new(4, 2, Material::unit(), LoadCase::ShearY(-2.0));
        let fy: f64 = (0..q.mesh.n_nodes())
            .map(|n| q.loads[q.dof_map.dof(n, 1)])
            .sum();
        assert!((fy + 2.0).abs() < 1e-12);
    }

    #[test]
    fn static_system_is_well_posed() {
        let p = CantileverProblem::new(5, 2, Material::unit(), LoadCase::PullX(1.0));
        let sys = p.static_system();
        assert_eq!(sys.stiffness.n_rows(), p.n_dofs());
        assert!(sys.stiffness.is_symmetric(1e-12));
    }

    /// The RDD benchmark workloads (hex elasticity 18×9×9 and heat
    /// 150×150 at P = 2, and their quick sizes) run on the node columns
    /// `(j·P)/(nx+1)` they ran on before the node partition was derived
    /// from the element strips: `2 | nx` on every one of them.
    #[test]
    fn benchmark_node_partitions_keep_their_node_columns() {
        for (physics, dims) in [
            (Physics::Elasticity3d, (18, 9, 9)),
            (Physics::Elasticity3d, (8, 4, 4)),
            (Physics::Heat2d, (150, 150, 1)),
            (Physics::Heat2d, (40, 40, 1)),
        ] {
            let p =
                PhysicsProblem::cantilever(physics, dims, Material::unit(), LoadCase::PullX(1.0));
            let ncols = dims.0 + 1;
            let n_nodes = p.dof_map.n_nodes();
            let columns: Vec<usize> = (0..n_nodes).map(|n| ((n % ncols) * 2) / ncols).collect();
            assert_eq!(
                p.node_partition(2).owners(),
                &columns[..],
                "{physics} {dims:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "Mesh1..Mesh10")]
    fn out_of_range_mesh_rejected() {
        CantileverProblem::paper_mesh(0);
    }
}
