//! Mesh adjacency graphs and a greedy BFS partitioner.
//!
//! The paper relies on "specific graph methods" (its reference \[21\]) to
//! partition unstructured meshes. Our structured cantilever meshes use the
//! strip/block partitions of [`crate::partition`]; this module provides the
//! graph machinery for general input: node and element adjacency, and a
//! greedy breadth-first partitioner that grows balanced connected element
//! regions — the classical substitute for a multilevel partitioner.

use crate::cells::Cells;
use crate::partition::ElementPartition;
use crate::structured::QuadMesh;

/// Undirected adjacency lists over `n` vertices.
#[derive(Debug, Clone)]
pub struct Adjacency {
    adj: Vec<Vec<usize>>,
}

impl Adjacency {
    /// Node adjacency of a mesh: two nodes are adjacent when they share an
    /// element. This is the graph `G(K)` of the assembled stiffness matrix
    /// (paper Section 5): `K_ij != 0` iff nodes `i, j` share an element.
    pub fn node_graph(mesh: &QuadMesh) -> Self {
        Self::node_graph_from_cells(
            mesh.n_nodes(),
            (0..mesh.n_elems()).map(|e| mesh.elem_nodes(e).to_vec()),
        )
    }

    /// Generic node graph from arbitrary cell connectivity — used for the
    /// triangle and 8-node quadrilateral discretizations of the Section-5
    /// planarity study.
    pub fn node_graph_from_cells<I>(n_nodes: usize, cells: I) -> Self
    where
        I: IntoIterator<Item = Vec<usize>>,
    {
        let mut adj = vec![Vec::new(); n_nodes];
        for cell in cells {
            for &a in &cell {
                for &b in &cell {
                    if a != b && !adj[a].contains(&b) {
                        adj[a].push(b);
                    }
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        Adjacency { adj }
    }

    /// Element adjacency of any [`Cells`] mesh: two elements are adjacent
    /// when they share at least `min_shared` nodes (2 = edge neighbours,
    /// 1 = vertex neighbours).
    pub fn element_graph_of<M: Cells>(mesh: &M, min_shared: usize) -> Self {
        // Invert connectivity: node -> elements.
        let mut node_elems = vec![Vec::new(); mesh.n_cell_nodes()];
        for e in 0..mesh.n_cells() {
            for &n in &mesh.cell_nodes(e) {
                node_elems[n].push(e);
            }
        }
        let mut adj = vec![Vec::new(); mesh.n_cells()];
        for e in 0..mesh.n_cells() {
            let nodes = mesh.cell_nodes(e);
            let mut counts: Vec<(usize, usize)> = Vec::new();
            for &n in &nodes {
                for &f in &node_elems[n] {
                    if f == e {
                        continue;
                    }
                    match counts.iter_mut().find(|(g, _)| *g == f) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((f, 1)),
                    }
                }
            }
            for (f, c) in counts {
                if c >= min_shared {
                    adj[e].push(f);
                }
            }
            adj[e].sort_unstable();
        }
        Adjacency { adj }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Neighbours of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// Whether the graph satisfies the planar edge bound `|E| ≤ 3|V| − 6`.
    ///
    /// This is Euler's *necessary* condition for planarity — sufficient to
    /// certify non-planarity, which is exactly how the paper's Section 5
    /// argues that 4- and 8-noded quadrilaterals break the planar-SpMV
    /// scalability result (`G(K)` is planar for 3-noded triangles only).
    pub fn satisfies_planar_edge_bound(&self) -> bool {
        let v = self.adj.len();
        if v < 3 {
            return true;
        }
        self.n_edges() <= 3 * v - 6
    }

    /// Average vertex degree — the mean off-diagonal entries per matrix row.
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        2.0 * self.n_edges() as f64 / self.adj.len() as f64
    }
}

/// Greedy BFS element partitioner: grows `p` connected regions of balanced
/// size over the element edge-adjacency graph.
///
/// Deterministic: seeds are chosen as the lowest-numbered unassigned element
/// each round, and BFS frontiers expand in element order.
///
/// # Panics
/// Panics if `p` is zero or exceeds the element count.
pub fn greedy_bfs_partition(mesh: &QuadMesh, p: usize) -> ElementPartition {
    greedy_bfs_partition_cells(mesh, p)
}

/// [`greedy_bfs_partition`] over any [`Cells`] mesh — the entry point for
/// imported unstructured meshes.
///
/// # Panics
/// Panics if `p` is zero or exceeds the cell count.
pub fn greedy_bfs_partition_cells<M: Cells>(mesh: &M, p: usize) -> ElementPartition {
    let ne = mesh.n_cells();
    assert!(p > 0 && p <= ne, "part count must be in 1..=n_elems");
    let graph = Adjacency::element_graph_of(mesh, 2);
    let mut owner = vec![usize::MAX; ne];
    let mut assigned = 0usize;
    for part in 0..p {
        // Remaining elements spread over remaining parts.
        let target = (ne - assigned).div_ceil(p - part);
        // Seed: lowest unassigned element.
        let seed = (0..ne)
            .find(|&e| owner[e] == usize::MAX)
            .expect("unassigned element must exist");
        let mut queue = std::collections::VecDeque::from([seed]);
        owner[seed] = part;
        assigned += 1;
        let mut size = 1;
        while size < target {
            let Some(v) = queue.pop_front() else {
                // Region ran out of connected frontier; grab the next free
                // element (keeps the partition total even if disconnected).
                let Some(next) = (0..ne).find(|&e| owner[e] == usize::MAX) else {
                    break;
                };
                owner[next] = part;
                assigned += 1;
                size += 1;
                queue.push_back(next);
                continue;
            };
            for &w in graph.neighbors(v) {
                if owner[w] == usize::MAX && size < target {
                    owner[w] = part;
                    assigned += 1;
                    size += 1;
                    queue.push_back(w);
                }
            }
            if size < target && queue.is_empty() {
                // Re-seed within this part from any frontier leftovers.
                if let Some(next) = (0..ne).find(|&e| owner[e] == usize::MAX) {
                    owner[next] = part;
                    assigned += 1;
                    size += 1;
                    queue.push_back(next);
                } else {
                    break;
                }
            }
        }
    }
    // Any stragglers go to the last part.
    for o in &mut owner {
        if *o == usize::MAX {
            *o = p - 1;
        }
    }
    ElementPartition::from_owner(p, owner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_graph_degrees_on_small_mesh() {
        let mesh = QuadMesh::rectangle(2, 2, 2.0, 2.0);
        let g = Adjacency::node_graph(&mesh);
        assert_eq!(g.n_vertices(), 9);
        // Corner node 0 is in one element: adjacent to 3 nodes.
        assert_eq!(g.degree(0), 3);
        // Centre node 4 is in all four elements: adjacent to all 8 others.
        assert_eq!(g.degree(4), 8);
    }

    #[test]
    fn triangle_graph_is_planar_quad_graph_is_not() {
        // Section 5: G(K) planar for 3-noded triangles, non-planar for
        // 4-noded quadrilaterals (each cell's diagonals create K4s).
        let q = QuadMesh::rectangle(6, 6, 6.0, 6.0);
        let quad_graph = Adjacency::node_graph(&q);
        assert!(
            !quad_graph.satisfies_planar_edge_bound(),
            "quad node graph must violate |E| <= 3|V| - 6"
        );
        let t = crate::tri::TriMesh::from_quad_mesh(&q);
        let tri_graph = Adjacency::node_graph_from_cells(
            t.n_nodes(),
            (0..t.n_elems()).map(|e| t.elem_nodes(e).to_vec()),
        );
        assert!(
            tri_graph.satisfies_planar_edge_bound(),
            "triangle node graph must satisfy the planar bound"
        );
        // And the quad graph is strictly denser.
        assert!(quad_graph.average_degree() > tri_graph.average_degree());
    }

    #[test]
    fn quad8_graph_is_densest() {
        let q8 = crate::quad8::Quad8Mesh::rectangle(4, 4, 4.0, 4.0);
        let g8 = Adjacency::node_graph_from_cells(
            q8.n_nodes(),
            (0..q8.n_elems()).map(|e| q8.elem_nodes(e).to_vec()),
        );
        assert!(!g8.satisfies_planar_edge_bound());
        let q4 = QuadMesh::rectangle(4, 4, 4.0, 4.0);
        let g4 = Adjacency::node_graph(&q4);
        assert!(
            g8.average_degree() > g4.average_degree(),
            "8-node coupling must be denser: {} vs {}",
            g8.average_degree(),
            g4.average_degree()
        );
    }

    #[test]
    fn edge_count_and_degree_helpers() {
        // A single quad cell: K4 -> 6 edges, degree 3.
        let q = QuadMesh::rectangle(1, 1, 1.0, 1.0);
        let g = Adjacency::node_graph(&q);
        assert_eq!(g.n_edges(), 6);
        assert_eq!(g.average_degree(), 3.0);
        // K4 satisfies |E| <= 3*4-6 = 6 (planar, as K4 indeed is).
        assert!(g.satisfies_planar_edge_bound());
    }

    #[test]
    fn element_graph_edge_neighbors() {
        let mesh = QuadMesh::rectangle(3, 1, 3.0, 1.0);
        let g = Adjacency::element_graph_of(&mesh, 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn element_graph_vertex_neighbors_include_diagonals() {
        let mesh = QuadMesh::rectangle(2, 2, 2.0, 2.0);
        let edge = Adjacency::element_graph_of(&mesh, 2);
        let vertex = Adjacency::element_graph_of(&mesh, 1);
        // Element 0 and element 3 share only the centre node.
        assert!(!edge.neighbors(0).contains(&3));
        assert!(vertex.neighbors(0).contains(&3));
    }

    #[test]
    fn bfs_partition_is_balanced_and_total() {
        let mesh = QuadMesh::rectangle(10, 6, 10.0, 6.0);
        let part = greedy_bfs_partition(&mesh, 4);
        let mut counts = vec![0usize; 4];
        for e in 0..mesh.n_elems() {
            counts[part.owner(e)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 60);
        for &c in &counts {
            assert!((12..=18).contains(&c), "unbalanced part of size {c}");
        }
    }

    #[test]
    fn bfs_partition_single_part() {
        let mesh = QuadMesh::rectangle(3, 3, 3.0, 3.0);
        let part = greedy_bfs_partition(&mesh, 1);
        assert!(part.owners().iter().all(|&o| o == 0));
    }

    #[test]
    fn bfs_partition_as_many_parts_as_elements() {
        let mesh = QuadMesh::rectangle(2, 2, 2.0, 2.0);
        let part = greedy_bfs_partition(&mesh, 4);
        let mut owners: Vec<usize> = part.owners().to_vec();
        owners.sort_unstable();
        assert_eq!(owners, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_partition_subdomains_are_valid() {
        // The produced partition must produce consistent subdomain interface
        // data (pairing checked inside partition tests; here just smoke).
        let mesh = QuadMesh::rectangle(8, 8, 8.0, 8.0);
        let part = greedy_bfs_partition(&mesh, 5);
        let subs = part.subdomains_of(&mesh);
        assert_eq!(subs.len(), 5);
        let union: usize = subs.iter().map(|s| s.elements.len()).sum();
        assert_eq!(union, 64);
    }
}
