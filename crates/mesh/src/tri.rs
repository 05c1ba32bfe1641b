//! Structured triangle meshes (3-node elements).
//!
//! Section 5 of the paper notes that the matrix graph `G(K)` of a 3-noded
//! triangular discretization is *planar*, which is what makes scalable
//! row-based SpMV possible — while 4- and 8-noded quadrilaterals destroy
//! planarity. [`TriMesh`] splits each cell of a [`QuadMesh`] into two
//! triangles, keeping the **same node numbering**, so DOF maps, boundary
//! edges and load helpers are shared with the quadrilateral mesh.

use crate::numbering::Edge;
use crate::structured::QuadMesh;

/// A triangle mesh obtained by splitting structured quadrilateral cells.
#[derive(Debug, Clone)]
pub struct TriMesh {
    coords: Vec<[f64; 2]>,
    elems: Vec<[usize; 3]>,
    nx: usize,
    ny: usize,
    lx: f64,
    ly: f64,
}

impl TriMesh {
    /// Splits every cell of `q` along its `(n0, n2)` diagonal into the
    /// counter-clockwise triangles `(n0, n1, n2)` and `(n0, n2, n3)`.
    pub fn from_quad_mesh(q: &QuadMesh) -> Self {
        let mut elems = Vec::with_capacity(2 * q.n_elems());
        for e in 0..q.n_elems() {
            let [n0, n1, n2, n3] = q.elem_nodes(e);
            elems.push([n0, n1, n2]);
            elems.push([n0, n2, n3]);
        }
        TriMesh {
            coords: q.coords().to_vec(),
            elems,
            nx: q.nx(),
            ny: q.ny(),
            lx: q.lx(),
            ly: q.ly(),
        }
    }

    /// A triangulated `nx × ny` cantilever (unit-square cells).
    pub fn cantilever(nx: usize, ny: usize) -> Self {
        Self::from_quad_mesh(&QuadMesh::cantilever(nx, ny))
    }

    /// Number of nodes (same numbering as the source quad mesh).
    pub fn n_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Element connectivity.
    pub fn elems(&self) -> &[[usize; 3]] {
        &self.elems
    }

    /// Number of triangles.
    pub fn n_elems(&self) -> usize {
        self.elems.len()
    }

    /// Node coordinates.
    pub fn coords(&self) -> &[[f64; 2]] {
        &self.coords
    }

    /// Coordinates of one node.
    pub fn node_coords(&self, n: usize) -> [f64; 2] {
        self.coords[n]
    }

    /// Connectivity of triangle `e` (counter-clockwise).
    pub fn elem_nodes(&self, e: usize) -> [usize; 3] {
        self.elems[e]
    }

    /// Coordinates of the three nodes of triangle `e`.
    pub fn elem_coords(&self, e: usize) -> [[f64; 2]; 3] {
        let n = self.elems[e];
        [self.coords[n[0]], self.coords[n[1]], self.coords[n[2]]]
    }

    /// Boundary edge nodes (delegates to the quad numbering).
    pub fn edge_nodes(&self, edge: Edge) -> Vec<usize> {
        QuadMesh::rectangle(self.nx, self.ny, self.lx, self.ly).edge_nodes(edge)
    }

    /// Grid lookup, shared with [`QuadMesh::node_at`].
    pub fn node_at(&self, i: usize, j: usize) -> usize {
        assert!(i <= self.nx && j <= self.ny, "grid position out of range");
        j * (self.nx + 1) + i
    }

    /// Element columns of the source grid.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Element rows of the source grid.
    pub fn ny(&self) -> usize {
        self.ny
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitting_doubles_element_count() {
        let q = QuadMesh::rectangle(4, 3, 4.0, 3.0);
        let t = TriMesh::from_quad_mesh(&q);
        assert_eq!(t.n_elems(), 24);
        assert_eq!(t.n_nodes(), q.n_nodes());
    }

    #[test]
    fn triangles_are_ccw_with_half_cell_area() {
        let t = TriMesh::cantilever(3, 2);
        for e in 0..t.n_elems() {
            let c = t.elem_coords(e);
            let area = 0.5
                * ((c[1][0] - c[0][0]) * (c[2][1] - c[0][1])
                    - (c[2][0] - c[0][0]) * (c[1][1] - c[0][1]));
            assert!((area - 0.5).abs() < 1e-12, "element {e} area {area}");
        }
    }

    #[test]
    fn areas_tile_the_domain() {
        let t = TriMesh::cantilever(5, 4);
        let total: f64 = (0..t.n_elems())
            .map(|e| {
                let c = t.elem_coords(e);
                0.5 * ((c[1][0] - c[0][0]) * (c[2][1] - c[0][1])
                    - (c[2][0] - c[0][0]) * (c[1][1] - c[0][1]))
            })
            .sum();
        assert!((total - 20.0).abs() < 1e-10);
    }

    #[test]
    fn edge_nodes_match_quad_numbering() {
        let q = QuadMesh::rectangle(3, 2, 3.0, 2.0);
        let t = TriMesh::from_quad_mesh(&q);
        assert_eq!(t.edge_nodes(Edge::Left), q.edge_nodes(Edge::Left));
        assert_eq!(t.node_at(3, 2), q.node_at(3, 2));
    }
}
