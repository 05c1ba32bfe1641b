//! The one discretization seam: a mesh paired with the physics assembled on
//! it.
//!
//! Every assembler of the workspace reads one [`Discretization`]: the global
//! raw CSR assembly ([`crate::assembly::assemble_stiffness`]), the
//! per-subdomain systems ([`crate::SubdomainSystem::build`]), one rank's
//! block rows ([`crate::assembly::assemble_owned`]) and, through them, the
//! distributed session's `Problem`. This module is the only place that knows
//! which element kernel a (family, physics) pairing runs, so the element
//! families of the paper's Section 5 reach every strategy through one path:
//!
//! | mesh | physics | stiffness | mass |
//! |---|---|---|---|
//! | structured or generic Q4 | 2-D elasticity | [`quad4::stiffness`] | consistent, lumped |
//! | structured Q4 | heat | [`physics::heat_stiffness_quad4`] | none |
//! | T3 | 2-D elasticity | [`tri3::stiffness`] | consistent, lumped |
//! | Q8 | 2-D elasticity | [`quad8s::stiffness`] | consistent |
//! | hex8 | 3-D elasticity | [`hex8::stiffness`] | consistent, lumped |
//!
//! Lumped masses are row sums of the consistent one. The 8-node serendipity
//! element has none: row sums of its consistent mass are negative at the
//! corners ([`Discretization::has_mass`] says which pairings assemble one).

use crate::material::Material;
use crate::{hex8, physics, quad4, quad8s, tri3, Physics};
use parfem_mesh::{Cells, DofMap, GenericQuadMesh, HexMesh, Quad8Mesh, QuadMesh, TriMesh};

/// A borrowed mesh of one of the supported element families.
#[derive(Debug, Clone, Copy)]
pub enum Mesh<'a> {
    /// Structured 4-node quadrilaterals.
    Quad(&'a QuadMesh),
    /// Unstructured 4-node quadrilaterals.
    Generic(&'a GenericQuadMesh),
    /// 3-node triangles.
    Tri(&'a TriMesh),
    /// 8-node serendipity quadrilaterals.
    Quad8(&'a Quad8Mesh),
    /// 8-node hexahedra.
    Hex(&'a HexMesh),
}

/// `$body` with `$m` bound to the concrete mesh, for every family.
macro_rules! on_mesh {
    ($mesh:expr, $m:ident => $body:expr) => {
        match $mesh {
            Mesh::Quad($m) => $body,
            Mesh::Generic($m) => $body,
            Mesh::Tri($m) => $body,
            Mesh::Quad8($m) => $body,
            Mesh::Hex($m) => $body,
        }
    };
}

impl<'a> Mesh<'a> {
    /// Number of nodes.
    pub fn n_nodes(self) -> usize {
        on_mesh!(self, m => m.n_nodes())
    }

    /// Number of elements.
    pub fn n_elems(self) -> usize {
        on_mesh!(self, m => m.n_elems())
    }

    /// Nodes per element.
    pub fn nodes_per_elem(self) -> usize {
        match self {
            Mesh::Quad(_) | Mesh::Generic(_) => 4,
            Mesh::Tri(_) => 3,
            Mesh::Quad8(_) | Mesh::Hex(_) => 8,
        }
    }

    /// The element connectivity, [`Mesh::nodes_per_elem`] node ids per
    /// element, elements in ascending order.
    pub fn connectivity(self) -> &'a [usize] {
        on_mesh!(self, m => m.elems().as_flattened())
    }

    /// The nodes of element `e`.
    pub fn elem_nodes(self, e: usize) -> &'a [usize] {
        let npe = self.nodes_per_elem();
        &self.connectivity()[e * npe..(e + 1) * npe]
    }

    /// Node coordinates lifted to 3-D (`z = 0` on 2-D meshes): the geometry
    /// the rigid-body coarse modes read.
    pub fn coords3(self) -> Vec<[f64; 3]> {
        let lift = |c: &[[f64; 2]]| c.iter().map(|&[x, y]| [x, y, 0.0]).collect();
        match self {
            Mesh::Quad(m) => lift(m.coords()),
            Mesh::Generic(m) => lift(m.coords()),
            Mesh::Tri(m) => lift(m.coords()),
            Mesh::Quad8(m) => lift(m.coords()),
            Mesh::Hex(m) => m.coords().to_vec(),
        }
    }

    fn family(self) -> &'static str {
        match self {
            Mesh::Quad(_) | Mesh::Generic(_) => "Q4",
            Mesh::Tri(_) => "T3",
            Mesh::Quad8(_) => "Q8",
            Mesh::Hex(_) => "hex8",
        }
    }
}

/// Partitioners and subdomain construction see the mesh the family's own
/// [`Cells`] view sees.
impl Cells for Mesh<'_> {
    fn n_cell_nodes(&self) -> usize {
        self.n_nodes()
    }
    fn n_cells(&self) -> usize {
        self.n_elems()
    }
    fn cell_nodes(&self, e: usize) -> Vec<usize> {
        self.elem_nodes(e).to_vec()
    }
    fn for_each_cell(&self, mut f: impl FnMut(usize, &[usize])) {
        let cells = self.connectivity().chunks_exact(self.nodes_per_elem());
        cells.enumerate().for_each(|(e, nodes)| f(e, nodes));
    }
    fn grid_dims(&self) -> Option<(usize, usize)> {
        on_mesh!(*self, m => m.grid_dims())
    }
    fn grid_cell(&self, e: usize) -> Option<(usize, usize)> {
        on_mesh!(*self, m => m.grid_cell(e))
    }
}

/// Which element mass an assembly adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mass {
    /// The consistent mass `∫ ρ t Nᵀ N dΩ`.
    Consistent,
    /// Its row sums on the diagonal (total mass preserved).
    Lumped,
}

/// A mesh paired with the physics assembled on it: each element's nodes,
/// stiffness, optional mass and flop charge. See the [module docs](self)
/// for the supported pairings.
#[derive(Debug, Clone, Copy)]
pub struct Discretization<'a> {
    mesh: Mesh<'a>,
    physics: Physics,
    /// Flops of one element stiffness: the kernel's documented count.
    kernel_flops: u64,
}

impl<'a> Discretization<'a> {
    /// Pairs `mesh` with `physics`.
    ///
    /// # Panics
    /// Panics when `physics` is not assembled on the mesh's element family.
    pub fn new(mesh: impl Into<Mesh<'a>>, physics: Physics) -> Self {
        let mesh = mesh.into();
        let kernel_flops = match (mesh, physics) {
            (Mesh::Quad(_) | Mesh::Generic(_), Physics::Elasticity2d) => quad4::STIFFNESS_FLOPS,
            (Mesh::Quad(_), Physics::Heat2d) => physics::HEAT_QUAD4_FLOPS,
            (Mesh::Tri(_), Physics::Elasticity2d) => tri3::STIFFNESS_FLOPS,
            (Mesh::Quad8(_), Physics::Elasticity2d) => quad8s::STIFFNESS_FLOPS,
            (Mesh::Hex(_), Physics::Elasticity3d) => hex8::STIFFNESS_FLOPS,
            _ => panic!("{physics} is not assembled on {} elements", mesh.family()),
        };
        Discretization {
            mesh,
            physics,
            kernel_flops,
        }
    }

    /// The mesh.
    pub fn mesh(&self) -> Mesh<'a> {
        self.mesh
    }

    /// The physics assembled on the mesh.
    pub fn physics(&self) -> Physics {
        self.physics
    }

    /// Dofs of one element: its nodes times the physics' dofs per node.
    pub fn elem_dofs(&self) -> usize {
        self.mesh.nodes_per_elem() * self.physics.dofs_per_node()
    }

    /// Panics unless `dm` numbers this mesh's nodes with the physics' dofs.
    pub(crate) fn check(&self, dm: &DofMap) {
        assert_eq!(
            dm.dofs_per_node(),
            self.physics.dofs_per_node(),
            "DOF map carries the wrong DOFs-per-node count for {}",
            self.physics
        );
    }

    /// Writes the stiffness of element `e` into `ke`: row-major over
    /// [`Discretization::elem_dofs`] dofs, each node's interleaved, nodes in
    /// connectivity order.
    pub fn stiffness(&self, e: usize, material: &Material, ke: &mut [f64]) {
        match (self.mesh, self.physics) {
            (Mesh::Quad(m), Physics::Elasticity2d) => {
                ke.copy_from_slice(&quad4::stiffness(&m.elem_coords(e), material))
            }
            (Mesh::Generic(m), Physics::Elasticity2d) => {
                ke.copy_from_slice(&quad4::stiffness(&m.elem_coords(e), material))
            }
            (Mesh::Quad(m), Physics::Heat2d) => {
                ke.copy_from_slice(&physics::heat_stiffness_quad4(&m.elem_coords(e), material))
            }
            (Mesh::Tri(m), Physics::Elasticity2d) => {
                ke.copy_from_slice(&tri3::stiffness(&m.elem_coords(e), material))
            }
            (Mesh::Quad8(m), Physics::Elasticity2d) => {
                ke.copy_from_slice(&quad8s::stiffness(&m.elem_coords(e), material))
            }
            (Mesh::Hex(m), Physics::Elasticity3d) => {
                ke.copy_from_slice(&hex8::stiffness(&m.elem_coords(e), material))
            }
            _ => unreachable!("the pairing is checked in Discretization::new"),
        }
    }

    /// Whether [`Discretization::mass`] assembles a `kind` mass here: every
    /// elasticity pairing, except a lumped Q8 mass.
    pub fn has_mass(&self, kind: Mass) -> bool {
        match (self.mesh, self.physics) {
            (_, Physics::Heat2d) => false,
            (Mesh::Quad8(_), _) => kind == Mass::Consistent,
            _ => true,
        }
    }

    /// Writes the `kind` mass of element `e` into `me`, laid out like
    /// [`Discretization::stiffness`].
    ///
    /// # Panics
    /// Panics unless [`Discretization::has_mass`]: for heat, and for a
    /// lumped Q8 mass (row sums of the serendipity mass are negative at the
    /// corners).
    pub fn mass(&self, e: usize, material: &Material, kind: Mass, me: &mut [f64]) {
        assert!(
            self.has_mass(kind),
            "no {kind:?} mass: heat has none, a lumped Q8 mass has negative corner masses"
        );
        match self.mesh {
            Mesh::Quad(m) => {
                me.copy_from_slice(&quad4::consistent_mass(&m.elem_coords(e), material))
            }
            Mesh::Generic(m) => {
                me.copy_from_slice(&quad4::consistent_mass(&m.elem_coords(e), material))
            }
            Mesh::Tri(m) => me.copy_from_slice(&tri3::consistent_mass(&m.elem_coords(e), material)),
            Mesh::Quad8(m) => {
                me.copy_from_slice(&quad8s::consistent_mass(&m.elem_coords(e), material))
            }
            Mesh::Hex(m) => me.copy_from_slice(&hex8::consistent_mass(&m.elem_coords(e), material)),
        }
        if kind == Mass::Lumped {
            lump(me);
        }
    }

    /// The flops a rank charges for assembling `n_elems` elements: the
    /// stiffness kernel's documented count ([`quad4::STIFFNESS_FLOPS`],
    /// [`physics::HEAT_QUAD4_FLOPS`], [`tri3::STIFFNESS_FLOPS`],
    /// [`quad8s::STIFFNESS_FLOPS`], [`hex8::STIFFNESS_FLOPS`]) plus one add
    /// per element-matrix entry scattered. A mass is not charged.
    pub fn assembly_flops(&self, n_elems: usize) -> u64 {
        let nd = self.elem_dofs() as u64;
        n_elems as u64 * (self.kernel_flops + nd * nd)
    }
}

/// Row-sum lumping in place, the bits of [`quad4::lumped_mass`]: each
/// row's sum, taken in column order, moves onto its diagonal.
fn lump(me: &mut [f64]) {
    let nd = me.len().isqrt();
    for (r, row) in me.chunks_exact_mut(nd).enumerate() {
        let sum: f64 = row.iter().sum();
        row.fill(0.0);
        row[r] = sum;
    }
}

/// A mesh reference converts to its [`Mesh`] variant and, alone, to the
/// elasticity of its dimension.
macro_rules! from_mesh {
    ($($ty:ty => $variant:ident, $physics:ident;)*) => {$(
        impl<'a> From<&'a $ty> for Mesh<'a> {
            fn from(m: &'a $ty) -> Self {
                Mesh::$variant(m)
            }
        }
        impl<'a> From<&'a $ty> for Discretization<'a> {
            fn from(m: &'a $ty) -> Self {
                Discretization::new(m, Physics::$physics)
            }
        }
    )*};
}

from_mesh! {
    QuadMesh => Quad, Elasticity2d;
    GenericQuadMesh => Generic, Elasticity2d;
    TriMesh => Tri, Elasticity2d;
    Quad8Mesh => Quad8, Elasticity2d;
    HexMesh => Hex, Elasticity3d;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_pairings_are_refused() {
        let tri = TriMesh::cantilever(2, 1);
        let hex = HexMesh::cantilever(1, 1, 1);
        for (mesh, physics) in [
            (Mesh::Tri(&tri), Physics::Heat2d),
            (Mesh::Hex(&hex), Physics::Elasticity2d),
        ] {
            let refused = std::panic::catch_unwind(|| Discretization::new(mesh, physics));
            assert!(refused.is_err(), "{physics} on {}", mesh.family());
        }
    }

    #[test]
    fn assembly_flops_charge_the_kernel_and_the_scatter() {
        let quad = QuadMesh::cantilever(2, 1);
        let heat = Discretization::new(&quad, Physics::Heat2d);
        assert_eq!(heat.assembly_flops(3), 3 * (physics::HEAT_QUAD4_FLOPS + 16));
        let q8 = Quad8Mesh::cantilever(1, 1);
        let flops = Discretization::from(&q8).assembly_flops(1);
        assert_eq!(flops, quad8s::STIFFNESS_FLOPS + 256);
    }

    #[test]
    fn lumped_q4_mass_keeps_the_kernel_bits() {
        let mesh = QuadMesh::distorted(3, 2, 3.0, 2.0, 0.3, 5);
        let mat = Material::unit();
        let mut me = [0.0; 64];
        for e in 0..mesh.n_elems() {
            Discretization::from(&mesh).mass(e, &mat, Mass::Lumped, &mut me);
            let want = quad4::lumped_mass(&mesh.elem_coords(e), &mat);
            assert!(me
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
