//! Structured 8-node (serendipity) quadrilateral meshes.
//!
//! The paper's Section 5 argues that higher-order elements such as the
//! 8-noded quadrilateral densify the matrix graph `G(K)` beyond planarity
//! and thereby hurt the scalability of row-partitioned SpMV. This module
//! provides the mesh; the element itself lives in `parfem-fem::quad8s`.
//!
//! Node layout for an `nx × ny` grid: "even" rows hold corner + horizontal
//! mid-edge nodes (`2nx + 1` of them at `y = j·hy`), interleaved with "odd"
//! rows of vertical mid-edge nodes (`nx + 1` at `y = (j+½)·hy`). Element
//! connectivity lists the four corners counter-clockwise, then the four
//! mid-edge nodes (bottom, right, top, left).

use crate::numbering::Edge;

/// A structured mesh of 8-node serendipity quadrilaterals.
#[derive(Debug, Clone)]
pub struct Quad8Mesh {
    nx: usize,
    ny: usize,
    lx: f64,
    ly: f64,
    coords: Vec<[f64; 2]>,
    elems: Vec<[usize; 8]>,
}

impl Quad8Mesh {
    /// Builds an `nx × ny`-element mesh of `[0, lx] × [0, ly]`.
    ///
    /// # Panics
    /// Panics for empty grids or non-positive lengths.
    pub fn rectangle(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        assert!(nx > 0 && ny > 0, "mesh must have at least one element");
        assert!(lx > 0.0 && ly > 0.0, "mesh lengths must be positive");
        let hx = lx / nx as f64;
        let hy = ly / ny as f64;
        let even_len = 2 * nx + 1;
        let odd_len = nx + 1;
        let stride = even_len + odd_len; // nodes per (even,odd) row pair

        let n_nodes = even_len * (ny + 1) + odd_len * ny;
        let mut coords = Vec::with_capacity(n_nodes);
        for j in 0..=ny {
            for i in 0..even_len {
                coords.push([0.5 * hx * i as f64, hy * j as f64]);
            }
            if j < ny {
                for i in 0..odd_len {
                    coords.push([hx * i as f64, hy * (j as f64 + 0.5)]);
                }
            }
        }

        let even = |j: usize, i: usize| j * stride + i;
        let odd = |j: usize, i: usize| j * stride + even_len + i;

        let mut elems = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                elems.push([
                    even(j, 2 * i),         // corner (i, j)
                    even(j, 2 * i + 2),     // corner (i+1, j)
                    even(j + 1, 2 * i + 2), // corner (i+1, j+1)
                    even(j + 1, 2 * i),     // corner (i, j+1)
                    even(j, 2 * i + 1),     // mid bottom
                    odd(j, i + 1),          // mid right
                    even(j + 1, 2 * i + 1), // mid top
                    odd(j, i),              // mid left
                ]);
            }
        }
        Quad8Mesh {
            nx,
            ny,
            lx,
            ly,
            coords,
            elems,
        }
    }

    /// Unit-square-cell cantilever geometry.
    pub fn cantilever(nx: usize, ny: usize) -> Self {
        Self::rectangle(nx, ny, nx as f64, ny as f64)
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Element connectivity.
    pub fn elems(&self) -> &[[usize; 8]] {
        &self.elems
    }

    /// Number of elements.
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

    /// Connectivity of element `e`: corners CCW, then mid-edge nodes
    /// (bottom, right, top, left).
    pub fn elem_nodes(&self, e: usize) -> [usize; 8] {
        self.elems[e]
    }

    /// Coordinates of the eight nodes of element `e`.
    pub fn elem_coords(&self, e: usize) -> [[f64; 2]; 8] {
        let n = self.elems[e];
        std::array::from_fn(|k| self.coords[n[k]])
    }

    /// All node ids on a boundary edge (corners and mid-edge nodes).
    pub fn edge_nodes(&self, edge: Edge) -> Vec<usize> {
        let tol = 1e-12 * self.lx.max(self.ly);
        let on_edge = |c: &[f64; 2]| match edge {
            Edge::Left => c[0].abs() <= tol,
            Edge::Right => (c[0] - self.lx).abs() <= tol,
            Edge::Bottom => c[1].abs() <= tol,
            Edge::Top => (c[1] - self.ly).abs() <= tol,
        };
        self.coords
            .iter()
            .enumerate()
            .filter(|(_, c)| on_edge(c))
            .map(|(n, _)| n)
            .collect()
    }

    /// Element columns.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Element rows.
    pub fn ny(&self) -> usize {
        self.ny
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_formula() {
        // (2nx+1)(ny+1) + (nx+1)ny
        let m = Quad8Mesh::rectangle(3, 2, 3.0, 2.0);
        assert_eq!(m.n_nodes(), 7 * 3 + 4 * 2);
        assert_eq!(m.n_elems(), 6);
        let single = Quad8Mesh::rectangle(1, 1, 1.0, 1.0);
        assert_eq!(single.n_nodes(), 8);
    }

    #[test]
    fn single_element_connectivity_and_coords() {
        let m = Quad8Mesh::rectangle(1, 1, 2.0, 2.0);
        let e = m.elem_nodes(0);
        let c = m.elem_coords(0);
        // Corners CCW.
        assert_eq!(c[0], [0.0, 0.0]);
        assert_eq!(c[1], [2.0, 0.0]);
        assert_eq!(c[2], [2.0, 2.0]);
        assert_eq!(c[3], [0.0, 2.0]);
        // Midsides bottom, right, top, left.
        assert_eq!(c[4], [1.0, 0.0]);
        assert_eq!(c[5], [2.0, 1.0]);
        assert_eq!(c[6], [1.0, 2.0]);
        assert_eq!(c[7], [0.0, 1.0]);
        // All ids distinct.
        let mut ids = e.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn neighbouring_elements_share_three_nodes() {
        let m = Quad8Mesh::rectangle(2, 1, 2.0, 1.0);
        let a = m.elem_nodes(0);
        let b = m.elem_nodes(1);
        let shared: Vec<usize> = a.iter().filter(|n| b.contains(n)).copied().collect();
        // Two corners + one vertical mid-edge node.
        assert_eq!(shared.len(), 3);
    }

    #[test]
    fn edge_nodes_include_midside_nodes() {
        let m = Quad8Mesh::rectangle(2, 2, 2.0, 2.0);
        // Left edge: 3 corners + 2 vertical midside nodes = 5.
        assert_eq!(m.edge_nodes(Edge::Left).len(), 5);
        // Bottom edge: 2*2+1 nodes of the even row.
        assert_eq!(m.edge_nodes(Edge::Bottom).len(), 5);
    }

    #[test]
    fn coordinates_cover_the_rectangle() {
        let m = Quad8Mesh::rectangle(3, 2, 6.0, 4.0);
        for c in m.coords() {
            assert!(c[0] >= -1e-12 && c[0] <= 6.0 + 1e-12);
            assert!(c[1] >= -1e-12 && c[1] <= 4.0 + 1e-12);
        }
    }
}
