//! The [`Cells`] abstraction: any mesh as a list of node-connected cells.
//!
//! Partitioning, interface discovery and subdomain construction only need
//! connectivity — not geometry or element order. Abstracting it lets the
//! element-based decomposition machinery run unchanged over 4-node
//! quadrilaterals, 3-node triangles and 8-node serendipity quadrilaterals,
//! which is what the Section-5 element-family comparisons need.

use crate::quad8::Quad8Mesh;
use crate::structured::QuadMesh;
use crate::tri::TriMesh;

/// A mesh viewed as cells over shared nodes.
pub trait Cells {
    /// Total number of nodes.
    fn n_cell_nodes(&self) -> usize;
    /// Total number of cells.
    fn n_cells(&self) -> usize;
    /// Node ids of cell `e`.
    fn cell_nodes(&self, e: usize) -> Vec<usize>;
    /// Calls `f(e, nodes)` for every cell `e` in order: the nodes
    /// [`Cells::cell_nodes`] lists, without a vector per cell where the mesh
    /// can lend its connectivity.
    fn for_each_cell(&self, mut f: impl FnMut(usize, &[usize])) {
        (0..self.n_cells()).for_each(|e| f(e, &self.cell_nodes(e)));
    }
    /// For structured meshes: the logical cell-grid dimensions `(nx, ny)`.
    /// `None` for unstructured meshes — grid-based partitioners then refuse
    /// the mesh instead of guessing a layout.
    fn grid_dims(&self) -> Option<(usize, usize)> {
        None
    }
    /// The logical grid coordinates `(i, j)` of cell `e`, with
    /// `i < nx, j < ny` from [`Cells::grid_dims`]. Cells mapping to the same
    /// coordinate (e.g. the two triangles of a split quad) are kept together
    /// by grid partitioners.
    fn grid_cell(&self, e: usize) -> Option<(usize, usize)> {
        let _ = e;
        None
    }
}

impl Cells for QuadMesh {
    fn n_cell_nodes(&self) -> usize {
        self.n_nodes()
    }
    fn n_cells(&self) -> usize {
        self.n_elems()
    }
    fn cell_nodes(&self, e: usize) -> Vec<usize> {
        self.elem_nodes(e).to_vec()
    }
    fn grid_dims(&self) -> Option<(usize, usize)> {
        Some((self.nx(), self.ny()))
    }
    fn grid_cell(&self, e: usize) -> Option<(usize, usize)> {
        Some((e % self.nx(), e / self.nx()))
    }
}

impl Cells for TriMesh {
    fn n_cell_nodes(&self) -> usize {
        self.n_nodes()
    }
    fn n_cells(&self) -> usize {
        self.n_elems()
    }
    fn cell_nodes(&self, e: usize) -> Vec<usize> {
        self.elem_nodes(e).to_vec()
    }
    fn grid_dims(&self) -> Option<(usize, usize)> {
        Some((self.nx(), self.ny()))
    }
    fn grid_cell(&self, e: usize) -> Option<(usize, usize)> {
        // Two triangles per source quad cell share its grid coordinate, so
        // they always land in the same part.
        let quad = e / 2;
        Some((quad % self.nx(), quad / self.nx()))
    }
}

impl Cells for Quad8Mesh {
    fn n_cell_nodes(&self) -> usize {
        self.n_nodes()
    }
    fn n_cells(&self) -> usize {
        self.n_elems()
    }
    fn cell_nodes(&self, e: usize) -> Vec<usize> {
        self.elem_nodes(e).to_vec()
    }
    fn grid_dims(&self) -> Option<(usize, usize)> {
        Some((self.nx(), self.ny()))
    }
    fn grid_cell(&self, e: usize) -> Option<(usize, usize)> {
        Some((e % self.nx(), e / self.nx()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_meshes_implement_cells() {
        let q = QuadMesh::rectangle(3, 2, 3.0, 2.0);
        assert_eq!(Cells::n_cells(&q), 6);
        assert_eq!(Cells::cell_nodes(&q, 0).len(), 4);

        let t = TriMesh::from_quad_mesh(&q);
        assert_eq!(Cells::n_cells(&t), 12);
        assert_eq!(Cells::cell_nodes(&t, 0).len(), 3);
        assert_eq!(Cells::n_cell_nodes(&t), Cells::n_cell_nodes(&q));

        let e = Quad8Mesh::rectangle(3, 2, 3.0, 2.0);
        assert_eq!(Cells::n_cells(&e), 6);
        assert_eq!(Cells::cell_nodes(&e, 0).len(), 8);
    }

    #[test]
    fn grid_cells_enumerate_the_logical_grid() {
        let q = QuadMesh::rectangle(3, 2, 3.0, 2.0);
        assert_eq!(q.grid_dims(), Some((3, 2)));
        assert_eq!(q.grid_cell(0), Some((0, 0)));
        assert_eq!(q.grid_cell(5), Some((2, 1)));

        let t = TriMesh::from_quad_mesh(&q);
        assert_eq!(t.grid_dims(), Some((3, 2)));
        // Both triangles of quad cell 4 map to its coordinate (1, 1).
        assert_eq!(t.grid_cell(8), Some((1, 1)));
        assert_eq!(t.grid_cell(9), Some((1, 1)));

        let e = Quad8Mesh::rectangle(3, 2, 3.0, 2.0);
        assert_eq!(e.grid_dims(), Some((3, 2)));
        assert_eq!(e.grid_cell(4), Some((1, 1)));
    }
}
