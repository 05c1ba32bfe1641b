//! Unstructured quadrilateral meshes.
//!
//! [`GenericQuadMesh`] carries explicit coordinates and connectivity, with
//! no grid structure assumed — the mesh a downstream user imports from a
//! mesh generator. It implements [`Cells`], so the greedy BFS partitioner
//! and the element-based subdomain machinery work on it directly; boundary
//! nodes are recovered topologically (edges used by exactly one element).
//!
//! A minimal text format is provided for interchange:
//!
//! ```text
//! # comment lines start with '#'
//! nodes <n>
//! <x> <y>            (n lines)
//! elements <m>
//! <n0> <n1> <n2> <n3>  (m lines, counter-clockwise)
//! ```

use crate::cells::Cells;
use crate::structured::QuadMesh;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};

/// An unstructured mesh of 4-node quadrilaterals.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericQuadMesh {
    coords: Vec<[f64; 2]>,
    elems: Vec<[usize; 4]>,
}

impl GenericQuadMesh {
    /// Builds a mesh from explicit coordinates and connectivity.
    ///
    /// # Panics
    /// Panics on out-of-range node ids, repeated nodes within an element,
    /// or inverted (non-CCW corner ordering) elements.
    pub fn from_parts(coords: Vec<[f64; 2]>, elems: Vec<[usize; 4]>) -> Self {
        for (e, quad) in elems.iter().enumerate() {
            for &n in quad {
                assert!(n < coords.len(), "element {e}: node {n} out of range");
            }
            for i in 0..4 {
                for j in (i + 1)..4 {
                    assert!(quad[i] != quad[j], "element {e}: repeated node");
                }
            }
            let c: Vec<[f64; 2]> = quad.iter().map(|&n| coords[n]).collect();
            let area = 0.5
                * ((c[0][0] * c[1][1] - c[1][0] * c[0][1])
                    + (c[1][0] * c[2][1] - c[2][0] * c[1][1])
                    + (c[2][0] * c[3][1] - c[3][0] * c[2][1])
                    + (c[3][0] * c[0][1] - c[0][0] * c[3][1]));
            assert!(area > 0.0, "element {e} is inverted (area {area})");
        }
        GenericQuadMesh { coords, elems }
    }

    /// Converts a structured mesh (drops the grid structure).
    pub fn from_structured(mesh: &QuadMesh) -> Self {
        GenericQuadMesh {
            coords: mesh.coords().to_vec(),
            elems: (0..mesh.n_elems()).map(|e| mesh.elem_nodes(e)).collect(),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Element connectivity.
    pub fn elems(&self) -> &[[usize; 4]] {
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

    /// Connectivity of element `e`.
    pub fn elem_nodes(&self, e: usize) -> [usize; 4] {
        self.elems[e]
    }

    /// Coordinates of the four nodes of element `e`.
    pub fn elem_coords(&self, e: usize) -> [[f64; 2]; 4] {
        let n = self.elems[e];
        std::array::from_fn(|k| self.coords[n[k]])
    }

    /// Topological boundary nodes: endpoints of element edges used exactly
    /// once, ascending.
    pub fn boundary_nodes(&self) -> Vec<usize> {
        let mut edge_count: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for quad in &self.elems {
            for k in 0..4 {
                let a = quad[k];
                let b = quad[(k + 1) % 4];
                let key = (a.min(b), a.max(b));
                *edge_count.entry(key).or_insert(0) += 1;
            }
        }
        let mut nodes: Vec<usize> = edge_count
            .iter()
            .filter(|(_, &c)| c == 1)
            .flat_map(|(&(a, b), _)| [a, b])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Boundary nodes within `tol` of the minimum x coordinate — the
    /// "clamped edge" selector for imported cantilever-like meshes.
    pub fn nodes_at_min_x(&self, tol: f64) -> Vec<usize> {
        let xmin = self
            .coords
            .iter()
            .map(|c| c[0])
            .fold(f64::INFINITY, f64::min);
        self.coords
            .iter()
            .enumerate()
            .filter(|(_, c)| (c[0] - xmin).abs() <= tol)
            .map(|(n, _)| n)
            .collect()
    }

    /// Writes the mesh in the crate's text format.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        writeln!(w, "# parfem generic quad mesh")?;
        writeln!(w, "nodes {}", self.coords.len())?;
        for c in &self.coords {
            writeln!(w, "{:.17e} {:.17e}", c[0], c[1])?;
        }
        writeln!(w, "elements {}", self.elems.len())?;
        for e in &self.elems {
            writeln!(w, "{} {} {} {}", e[0], e[1], e[2], e[3])?;
        }
        Ok(())
    }

    /// Reads a mesh in the crate's text format.
    ///
    /// # Errors
    /// Returns a descriptive string on malformed input.
    pub fn read<R: Read>(r: R) -> Result<Self, String> {
        let reader = BufReader::new(r);
        let mut lines = reader
            .lines()
            .map(|l| l.map_err(|e| format!("io error: {e}")))
            .filter(|l| match l {
                Ok(s) => {
                    let t = s.trim();
                    !t.is_empty() && !t.starts_with('#')
                }
                Err(_) => true,
            });
        let header = lines.next().ok_or("missing nodes header")??;
        let n_nodes: usize = header
            .strip_prefix("nodes ")
            .ok_or("expected 'nodes <n>'")?
            .trim()
            .parse()
            .map_err(|_| "bad node count")?;
        let mut coords = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let line = lines.next().ok_or("truncated node list")??;
            let mut it = line.split_whitespace();
            let x: f64 = it
                .next()
                .ok_or("missing x")?
                .parse()
                .map_err(|_| "bad x coordinate")?;
            let y: f64 = it
                .next()
                .ok_or("missing y")?
                .parse()
                .map_err(|_| "bad y coordinate")?;
            coords.push([x, y]);
        }
        let header = lines.next().ok_or("missing elements header")??;
        let n_elems: usize = header
            .strip_prefix("elements ")
            .ok_or("expected 'elements <m>'")?
            .trim()
            .parse()
            .map_err(|_| "bad element count")?;
        let mut elems = Vec::with_capacity(n_elems);
        for _ in 0..n_elems {
            let line = lines.next().ok_or("truncated element list")??;
            let ids: Vec<usize> = line
                .split_whitespace()
                .map(|t| t.parse().map_err(|_| "bad node id".to_string()))
                .collect::<Result<_, _>>()?;
            if ids.len() != 4 {
                return Err("element line must have 4 node ids".into());
            }
            elems.push([ids[0], ids[1], ids[2], ids[3]]);
        }
        Ok(Self::from_parts(coords, elems))
    }
}

impl Cells for GenericQuadMesh {
    fn n_cell_nodes(&self) -> usize {
        self.n_nodes()
    }
    fn n_cells(&self) -> usize {
        self.n_elems()
    }
    fn cell_nodes(&self, e: usize) -> Vec<usize> {
        self.elem_nodes(e).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GenericQuadMesh {
        GenericQuadMesh::from_structured(&QuadMesh::rectangle(3, 2, 3.0, 2.0))
    }

    #[test]
    fn from_structured_round_trips_connectivity() {
        let q = QuadMesh::rectangle(3, 2, 3.0, 2.0);
        let g = GenericQuadMesh::from_structured(&q);
        assert_eq!(g.n_nodes(), q.n_nodes());
        assert_eq!(g.n_elems(), q.n_elems());
        assert_eq!(g.elem_nodes(0), q.elem_nodes(0));
        assert_eq!(g.elem_coords(3), q.elem_coords(3));
    }

    #[test]
    fn boundary_detection_matches_the_rectangle() {
        let g = sample();
        let boundary = g.boundary_nodes();
        // A 3x2 grid: 12 nodes, only the 2 interior nodes are not boundary.
        assert_eq!(boundary.len(), 10);
        assert!(!boundary.contains(&5));
        assert!(!boundary.contains(&6));
    }

    #[test]
    fn min_x_nodes_form_the_left_edge() {
        let g = sample();
        assert_eq!(g.nodes_at_min_x(1e-12), vec![0, 4, 8]);
    }

    #[test]
    fn text_format_round_trips() {
        let g = sample();
        let mut buf = Vec::new();
        g.write(&mut buf).unwrap();
        let g2 = GenericQuadMesh::read(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(GenericQuadMesh::read("nonsense\n".as_bytes()).is_err());
        assert!(GenericQuadMesh::read("nodes 1\n0 0\nelements 1\n0 0 0\n".as_bytes()).is_err());
        assert!(GenericQuadMesh::read("nodes 2\n0 0\n".as_bytes()).is_err());
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_elements_rejected() {
        GenericQuadMesh::from_parts(
            vec![[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            vec![[0, 3, 2, 1]], // clockwise
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_ids_rejected() {
        GenericQuadMesh::from_parts(vec![[0.0, 0.0]], vec![[0, 1, 2, 3]]);
    }

    #[test]
    fn cells_impl_feeds_the_partitioner() {
        let g = sample();
        // Explicit owner partition over the generic mesh.
        let owner = vec![0, 0, 1, 0, 1, 1];
        let part = crate::partition::ElementPartition::from_owner(2, owner);
        let subs = part.subdomains_of(&g);
        assert_eq!(subs.len(), 2);
        let total: usize = subs.iter().map(|s| s.elements.len()).sum();
        assert_eq!(total, 6);
        // Shared interface nodes must pair up.
        let link = &subs[0].neighbors[0];
        assert!(!link.shared_local_nodes.is_empty());
    }
}
