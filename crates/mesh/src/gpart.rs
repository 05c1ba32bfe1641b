//! Graph partitioning of mesh elements.
//!
//! The strip and block partitions of [`crate::partition`] exploit the
//! structured cantilever grids; real large-P runs need a partitioner that
//! works from connectivity alone, like the "specific graph methods" (METIS)
//! the paper cites for unstructured meshes. This module provides one:
//!
//! 1. **Recursive bisection** of [`Adjacency::element_graph_of`] with
//!    [`parfem_sparse::graph::bisect`] — the multilevel edge bisection
//!    (heavy-edge coarsening, greedy growth, FM refinement on every level)
//!    the nested-dissection ordering of the sparse LDLᵀ also splits with;
//!    a split of `k` parts gives side 0 `⌊k/2⌋/k` of the elements;
//! 2. **k-way boundary refinement** moves a vertex to the adjacent part it
//!    is most connected to whenever that strictly reduces the edge cut
//!    without violating the balance tolerance;
//! 3. a **candidate pool** also evaluates the structured strip and block
//!    layouts (when the mesh has a logical grid), refines them the same
//!    way, and keeps whichever candidate cuts fewest node-adjacent
//!    element pairs — so the graph partitioner never does worse than the
//!    structured layouts it replaces.
//! 4. A final **absorption pass** reattaches disconnected fragments of a
//!    part to the neighbouring part they touch most, so every part is
//!    connected in the element graph whenever the mesh itself is.
//!
//! Nothing is random and ties break on the lowest vertex id, so a mesh and
//! a part count determine the partition.

use crate::cells::Cells;
use crate::graph::Adjacency;
use crate::partition::ElementPartition;
use parfem_sparse::graph::{self, induced, Graph};
use std::fmt;

/// Which element partitioner to use — parsed from CLI `--partitioner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerSpec {
    /// Vertical strips of element columns (the paper's layout).
    Strips,
    /// A near-square `px x py` grid of element blocks.
    Blocks,
    /// The graph partitioner of this module.
    Graph,
}

impl PartitionerSpec {
    /// Parses `strips`, `blocks` or `graph`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "strips" => Ok(PartitionerSpec::Strips),
            "blocks" => Ok(PartitionerSpec::Blocks),
            "graph" => Ok(PartitionerSpec::Graph),
            _ if s.starts_with("graph:") => Err(format!(
                "the graph partitioner takes no seed: use 'graph', not '{s}'"
            )),
            _ => Err(format!(
                "unknown partitioner '{s}' (valid: strips|blocks|graph)"
            )),
        }
    }

    /// Partitions the elements of `mesh` into `p` parts.
    ///
    /// # Panics
    /// Panics if `p` is zero, exceeds the cell count, or (for the
    /// structured layouts) does not fit the mesh's logical grid.
    pub fn element_partition<M: Cells>(&self, mesh: &M, p: usize) -> ElementPartition {
        match *self {
            // `blocks_of(mesh, p, 1)` assigns column i to part (i*p)/nx,
            // exactly the strips_x formula, for any structured Cells mesh.
            PartitionerSpec::Strips => ElementPartition::blocks_of(mesh, p, 1),
            PartitionerSpec::Blocks => {
                let (nx, ny) = mesh
                    .grid_dims()
                    .expect("blocks partitioner needs a structured mesh");
                let (px, py) = balanced_grid(p, nx, ny);
                ElementPartition::blocks_of(mesh, px, py)
            }
            PartitionerSpec::Graph => graph_partition(mesh, p),
        }
    }
}

impl fmt::Display for PartitionerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionerSpec::Strips => write!(f, "strips"),
            PartitionerSpec::Blocks => write!(f, "blocks"),
            PartitionerSpec::Graph => write!(f, "graph"),
        }
    }
}

/// Factorizes `p = px * py` as near-square as the `nx x ny` cell grid
/// allows, preferring more parts along the longer grid axis.
///
/// # Panics
/// Panics if no factorization fits the grid.
pub fn balanced_grid(p: usize, nx: usize, ny: usize) -> (usize, usize) {
    assert!(p > 0, "need at least one part");
    try_balanced_grid(p, nx, ny)
        .unwrap_or_else(|| panic!("no {p}-part block grid fits a {nx}x{ny} mesh"))
}

/// Graph partition of the mesh elements.
///
/// See the module docs for the algorithm. The refinement minimises the
/// edge cut (node-adjacent element pairs straddling part boundaries, the
/// metric [`ElementPartition::with_edge_cut`] computes for any layout).
///
/// # Panics
/// Panics if `p` is zero or exceeds the cell count.
pub fn graph_partition<M: Cells>(mesh: &M, p: usize) -> ElementPartition {
    let n = mesh.n_cells();
    assert!(p > 0 && p <= n, "part count must be in 1..=n_elems");
    // Vertex adjacency (elements sharing >= 1 node): its cut IS the
    // node-adjacent pair count that ElementPartition reports.
    let graph = unit_graph(&Adjacency::element_graph_of(mesh, 1));

    // The structured layouts come first, so they keep a tie.
    let mut candidates: Vec<Vec<usize>> = Vec::new();
    if let Some((nx, ny)) = mesh.grid_dims() {
        // Blocks of a `px x py` grid; `px = p, py = 1` are the strips.
        let layout = |px: usize, py: usize| -> Vec<usize> {
            (0..n)
                .map(|e| {
                    let (i, j) = mesh.grid_cell(e).expect("structured cell");
                    ((j * py) / ny) * px + (i * px) / nx
                })
                .collect()
        };
        if p <= nx {
            candidates.push(layout(p, 1));
        }
        if let Some((px, py)) = try_balanced_grid(p, nx, ny) {
            candidates.push(layout(px, py));
        }
    }
    candidates.push(bisection_owner(&graph, p));
    let owner = refine_best(&graph, candidates, p);
    ElementPartition::from_owner(p, owner)
}

/// Partitions an arbitrary adjacency graph into `p` parts — the mesh-free
/// core of [`graph_partition`], exposed for callers that already hold a
/// graph (or for graphs that are not element graphs at all).
///
/// # Panics
/// Panics if `p` is zero or exceeds the vertex count.
pub fn partition_adjacency(adjacency: &Adjacency, p: usize) -> Vec<usize> {
    let n = adjacency.n_vertices();
    assert!(p > 0 && p <= n, "part count must be in 1..=n_vertices");
    let graph = unit_graph(adjacency);
    refine_best(&graph, vec![bisection_owner(&graph, p)], p)
}

/// The candidate (a part per vertex) that cuts fewest edges once k-way
/// refined, the first among equals, with its fragments absorbed.
fn refine_best(graph: &Graph, candidates: Vec<Vec<usize>>, p: usize) -> Vec<usize> {
    let max_size = balance_cap(graph.n(), p);
    let refined = candidates.into_iter().map(|mut owner| {
        refine_kway(graph, &mut owner, p, max_size);
        (cut_of(graph, &owner), owner)
    });
    let (_, mut owner) = refined.min_by_key(|(cut, _)| *cut).expect("a candidate");
    absorb_fragments(graph, &mut owner, p);
    owner
}

/// `adjacency` as a CSR graph with unit vertex and edge weights.
fn unit_graph(adjacency: &Adjacency) -> Graph {
    Graph::unit((0..adjacency.n_vertices()).map(|v| adjacency.neighbors(v)))
}

/// Undirected edges whose endpoints live in different parts.
fn cut_of(graph: &Graph, owner: &[usize]) -> usize {
    let mut cut = 0usize;
    for v in 0..graph.n() {
        for &w in graph.neighbours(v as u32) {
            if w as usize > v && owner[v] != owner[w as usize] {
                cut += 1;
            }
        }
    }
    cut
}

/// Largest part size the refinement passes tolerate: the perfectly
/// balanced ceiling plus 5 %.
fn balance_cap(n: usize, p: usize) -> usize {
    n.div_ceil(p).max((n * 21).div_ceil(p * 20))
}

/// [`balanced_grid`], or `None` when no factorization fits.
fn try_balanced_grid(p: usize, nx: usize, ny: usize) -> Option<(usize, usize)> {
    // Squareness of the resulting blocks: an (nx/px) x (ny/py) block is
    // ideal when its aspect ratio is 1; the first of equals wins.
    (1..=p)
        .filter(|&py| p.is_multiple_of(py) && p / py <= nx && py <= ny)
        .map(|py| {
            let px = p / py;
            let aspect = (nx as f64 / px as f64) / (ny as f64 / py as f64);
            (px, py, aspect.max(1.0 / aspect))
        })
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .map(|(px, py, _)| (px, py))
}

/// Recursive bisection: the part (`0..p`) of every vertex. A subgraph of
/// `k` parts splits into `⌊k/2⌋` and `⌈k/2⌉` parts in proportion to its
/// vertices, each side keeping at least as many vertices as it has parts.
fn bisection_owner(graph: &Graph, p: usize) -> Vec<usize> {
    let mut owner = vec![0usize; graph.n()];
    let ids: Vec<u32> = (0..graph.n() as u32).collect();
    split(graph, &ids, p, 0, &mut owner);
    owner
}

/// Gives the vertices of `g` (the vertices `ids` of the whole graph) the
/// parts `first..first + k`.
fn split(g: &Graph, ids: &[u32], k: usize, first: usize, owner: &mut [usize]) {
    if k == 1 {
        for &v in ids {
            owner[v as usize] = first;
        }
        return;
    }
    let parts = [k / 2, k - k / 2];
    let side = graph::bisect(g, parts);
    for (s, first) in [(0, first), (1, first + parts[0])] {
        let verts: Vec<u32> = (0..g.n() as u32)
            .filter(|&v| side[v as usize] == s as u8)
            .collect();
        debug_assert!(verts.len() >= parts[s], "fewer vertices than parts");
        let (sub, sub_ids) = induced(g, &verts, ids);
        split(&sub, &sub_ids, parts[s], first, owner);
    }
}

/// Greedy k-way boundary refinement: repeatedly moves a boundary vertex
/// to the adjacent part it is most connected to, when the move strictly
/// reduces the cut and respects `max_size` (and never empties a part).
fn refine_kway(graph: &Graph, owner: &mut [usize], p: usize, max_size: usize) {
    let n = graph.n();
    let mut sizes = vec![0usize; p];
    for &o in owner.iter() {
        sizes[o] += 1;
    }
    let mut conn = vec![0usize; p];
    for _pass in 0..8 {
        let mut moved = false;
        for v in 0..n {
            let own = owner[v];
            if sizes[own] <= 1 {
                continue;
            }
            // Connection counts to each adjacent part.
            let mut touched: Vec<usize> = Vec::new();
            for &w in graph.neighbours(v as u32) {
                let q = owner[w as usize];
                if conn[q] == 0 {
                    touched.push(q);
                }
                conn[q] += 1;
            }
            let internal = conn[own];
            let mut best_part = own;
            let mut best_conn = internal;
            let overloaded = sizes[own] > max_size;
            for &q in &touched {
                if q == own || sizes[q] + 1 > max_size {
                    continue;
                }
                let better =
                    conn[q] > best_conn || (overloaded && conn[q] == best_conn && q < best_part);
                if better {
                    best_conn = conn[q];
                    best_part = q;
                }
            }
            for &q in &touched {
                conn[q] = 0;
            }
            if best_part != own {
                sizes[own] -= 1;
                sizes[best_part] += 1;
                owner[v] = best_part;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Reattaches every non-largest connected fragment of each part to the
/// neighbouring part it shares the most edges with. Terminates because
/// each move strictly reduces the total number of per-part fragments,
/// and never increases the cut (a fragment has no edges to the rest of
/// its own part, so its boundary can only shrink).
fn absorb_fragments(graph: &Graph, owner: &mut [usize], p: usize) {
    while let Some(frag) = part_fragments(graph, owner, p) {
        // Most-connected neighbouring part of the fragment.
        let mut conn = vec![0usize; p];
        for &v in &frag {
            for &w in graph.neighbours(v as u32) {
                let q = owner[w as usize];
                if q != owner[v] {
                    conn[q] += 1;
                }
            }
        }
        let (target, links) = conn
            .iter()
            .enumerate()
            .max_by_key(|&(q, c)| (*c, std::cmp::Reverse(q)))
            .expect("at least one part");
        if *links == 0 {
            // The fragment touches nothing (mesh itself disconnected):
            // leave it where it is.
            break;
        }
        for &v in &frag {
            owner[v] = target;
        }
    }
}

/// Finds one non-largest connected fragment of some part, or `None` when
/// every part is connected.
fn part_fragments(graph: &Graph, owner: &[usize], p: usize) -> Option<Vec<usize>> {
    let n = graph.n();
    let mut comp = vec![usize::MAX; n];
    let mut comp_part: Vec<usize> = Vec::new();
    let mut comp_members: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        if comp[v] != usize::MAX {
            continue;
        }
        let c = comp_part.len();
        comp_part.push(owner[v]);
        let mut members = vec![v];
        comp[v] = c;
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            for &w in graph.neighbours(u as u32) {
                let w = w as usize;
                if owner[w] == owner[v] && comp[w] == usize::MAX {
                    comp[w] = c;
                    members.push(w);
                    stack.push(w);
                }
            }
        }
        comp_members.push(members);
    }
    // Largest component per part survives; report any other.
    let mut largest = vec![usize::MAX; p];
    for (c, members) in comp_members.iter().enumerate() {
        let part = comp_part[c];
        if largest[part] == usize::MAX || members.len() > comp_members[largest[part]].len() {
            largest[part] = c;
        }
    }
    comp_members
        .iter()
        .enumerate()
        .find(|(c, _)| largest[comp_part[*c]] != *c)
        .map(|(_, members)| members.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::QuadMesh;

    #[test]
    fn spec_parses_all_forms() {
        assert_eq!(
            PartitionerSpec::parse("strips"),
            Ok(PartitionerSpec::Strips)
        );
        assert_eq!(
            PartitionerSpec::parse("blocks"),
            Ok(PartitionerSpec::Blocks)
        );
        assert_eq!(PartitionerSpec::parse("graph"), Ok(PartitionerSpec::Graph));
        // The partitioner has no seed: a seeded spelling is an error that
        // names the one spelling.
        let seeded = PartitionerSpec::parse("graph:42").unwrap_err();
        assert!(seeded.contains("use 'graph'"), "{seeded}");
        assert!(PartitionerSpec::parse("metis").is_err());
        assert!(PartitionerSpec::parse("graph:x").is_err());
        assert_eq!(PartitionerSpec::Graph.to_string(), "graph");
    }

    #[test]
    fn strips_spec_matches_strips_x() {
        let mesh = QuadMesh::rectangle(8, 3, 8.0, 3.0);
        let a = PartitionerSpec::Strips.element_partition(&mesh, 4);
        let b = ElementPartition::strips_x(&mesh, 4);
        assert_eq!(a.owners(), b.owners());
    }

    #[test]
    fn blocks_spec_picks_a_fitting_grid() {
        let mesh = QuadMesh::rectangle(8, 4, 8.0, 4.0);
        let part = PartitionerSpec::Blocks.element_partition(&mesh, 8);
        assert_eq!(part.n_parts(), 8);
        // 8 parts on an 8x4 grid: 4x2 blocks of 2x2 cells are the square
        // choice.
        assert_eq!(balanced_grid(8, 8, 4), (4, 2));
    }

    #[test]
    fn graph_partition_is_total_and_balanced() {
        let mesh = QuadMesh::rectangle(12, 8, 12.0, 8.0);
        let part = graph_partition(&mesh, 6);
        assert_eq!(part.n_parts(), 6);
        let mut sizes = [0usize; 6];
        for e in 0..96 {
            sizes[part.owner(e)] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), 96);
        assert!(part.imbalance() <= 1.25, "{part:?}");
        assert!(part.with_edge_cut(&mesh).edge_cut().is_some());
    }

    #[test]
    fn graph_partition_is_deterministic_per_seed() {
        let mesh = QuadMesh::rectangle(10, 10, 10.0, 10.0);
        let a = graph_partition(&mesh, 5);
        let b = graph_partition(&mesh, 5);
        assert_eq!(a.owners(), b.owners());
    }

    #[test]
    fn graph_cut_never_exceeds_strips_cut() {
        for &(nx, ny, p) in &[(16usize, 16usize, 8usize), (24, 6, 6), (32, 2, 4)] {
            let mesh = QuadMesh::rectangle(nx, ny, nx as f64, ny as f64);
            let strips = ElementPartition::strips_x(&mesh, p).with_edge_cut(&mesh);
            let graph = graph_partition(&mesh, p).with_edge_cut(&mesh);
            assert!(
                graph.edge_cut().unwrap() <= strips.edge_cut().unwrap(),
                "{nx}x{ny} p={p}: graph {:?} > strips {:?}",
                graph.edge_cut(),
                strips.edge_cut()
            );
        }
    }

    #[test]
    fn partition_adjacency_covers_plain_graphs() {
        let mesh = QuadMesh::rectangle(6, 6, 6.0, 6.0);
        let adjacency = Adjacency::element_graph_of(&mesh, 1);
        let owner = partition_adjacency(&adjacency, 4);
        assert_eq!(owner.len(), 36);
        let mut seen = [false; 4];
        for &o in &owner {
            seen[o] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(cut_of(&unit_graph(&adjacency), &owner) > 0);
    }
}
