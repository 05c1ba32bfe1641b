//! Element- and node-based domain partitioning.
//!
//! The paper contrasts two decompositions of the same mesh:
//!
//! - **Element-based (EDD, Section 3)**: elements are partitioned into `P`
//!   non-overlapping sets; interface *nodes* are duplicated on every
//!   subdomain whose elements touch them. Each subdomain assembles only its
//!   own elements, so the global operator is `Σ Bₛᵀ K̂⁽ˢ⁾ Bₛ` and interface
//!   values are combined by a nearest-neighbour sum (Eq. 28).
//! - **Node-based (RDD, Section 4)**: nodes (hence matrix rows) are
//!   partitioned; the assembled matrix is block-row distributed, and the
//!   matvec needs external interface values gathered from neighbours
//!   (Eq. 48).
//!
//! [`Subdomain`] carries everything a rank needs: its elements, its local
//! node numbering, node multiplicities, and per-neighbour shared-node lists
//! in a canonical order (ascending global node id) so that paired sends and
//! receives line up without any negotiation.

use crate::cells::Cells;
use crate::structured::QuadMesh;
use std::collections::BTreeSet;
use std::fmt;

/// A partition of mesh *elements* into `P` subdomains (EDD).
#[derive(Clone)]
pub struct ElementPartition {
    n_parts: usize,
    owner: Vec<usize>,
    /// Node-adjacent element pairs straddling a part boundary, once
    /// [`ElementPartition::with_edge_cut`] computed them.
    edge_cut: Option<usize>,
}

/// Shared `P * max_part_size / n_items` imbalance, `0.0` for empty owner
/// arrays (an empty partition is vacuously balanced, not `NaN`).
fn imbalance_of(n_parts: usize, owner: &[usize]) -> f64 {
    if owner.is_empty() {
        return 0.0;
    }
    let mut sizes = vec![0usize; n_parts];
    for &o in owner {
        sizes[o] += 1;
    }
    let max = sizes.iter().copied().max().unwrap_or(0);
    (n_parts * max) as f64 / owner.len() as f64
}

/// Node-adjacent cell pairs whose cells live in different parts — the
/// communication-volume proxy reported in the partition's `Debug` output.
fn edge_cut_of<M: Cells>(mesh: &M, owner: &[usize]) -> usize {
    let mut node_cells: Vec<Vec<usize>> = vec![Vec::new(); mesh.n_cell_nodes()];
    mesh.for_each_cell(|e, nodes| nodes.iter().for_each(|&n| node_cells[n].push(e)));
    let mut cut: BTreeSet<(usize, usize)> = BTreeSet::new();
    for cells in &node_cells {
        for (i, &a) in cells.iter().enumerate() {
            for &b in &cells[i + 1..] {
                if owner[a] != owner[b] {
                    cut.insert((a.min(b), a.max(b)));
                }
            }
        }
    }
    cut.len()
}

impl ElementPartition {
    /// Builds a partition from an explicit per-element owner array.
    ///
    /// No constructor computes the edge cut; chain
    /// [`ElementPartition::with_edge_cut`] where it is read.
    ///
    /// # Panics
    /// Panics if any owner is `>= n_parts` or if some part is empty.
    pub fn from_owner(n_parts: usize, owner: Vec<usize>) -> Self {
        assert!(n_parts > 0, "need at least one part");
        let mut seen = vec![false; n_parts];
        for &o in &owner {
            assert!(o < n_parts, "element owner {o} out of range");
            seen[o] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every part must own at least one element"
        );
        ElementPartition {
            n_parts,
            owner,
            edge_cut: None,
        }
    }

    /// Computes and records the edge cut against `mesh` — the one place an
    /// element partition's cut is computed.
    ///
    /// # Panics
    /// Panics if the partition does not match the mesh.
    pub fn with_edge_cut<M: Cells>(mut self, mesh: &M) -> Self {
        assert_eq!(
            self.owner.len(),
            mesh.n_cells(),
            "partition does not match mesh"
        );
        self.edge_cut = Some(edge_cut_of(mesh, &self.owner));
        self
    }

    /// Partition into `p` vertical strips of element columns (balanced to
    /// within one column: column `i` goes to part `(i·p)/nx`). This is the
    /// natural partition of the paper's elongated cantilever meshes.
    ///
    /// # Panics
    /// Panics if `p` is zero or exceeds the number of element columns.
    pub fn strips_x(mesh: &QuadMesh, p: usize) -> Self {
        assert!(p > 0 && p <= mesh.nx(), "strip count must be in 1..=nx");
        Self::blocks_of(mesh, p, 1)
    }

    /// Partition of any structured [`Cells`] mesh (T3, Q4, Q8, hex8, …) into
    /// a `px x py` grid of cell blocks, balanced to within one grid
    /// row/column; `blocks_of(mesh, p, 1)` is [`ElementPartition::strips_x`].
    /// Cells mapping to the same grid coordinate (the two triangles of a
    /// split quad) stay in the same part, so the interfaces match the
    /// quadrilateral blocks exactly.
    ///
    /// # Panics
    /// Panics if the mesh has no logical grid ([`Cells::grid_dims`] is
    /// `None`), if the grid is empty, or if it exceeds the cell grid.
    pub fn blocks_of<M: Cells>(mesh: &M, px: usize, py: usize) -> Self {
        let (nx, ny) = mesh
            .grid_dims()
            .expect("blocks_of needs a structured mesh with a logical grid");
        assert!(px > 0 && py > 0, "block grid must be non-empty");
        assert!(px <= nx && py <= ny, "block grid exceeds element grid");
        let owner: Vec<usize> = (0..mesh.n_cells())
            .map(|e| {
                let (i, j) = mesh.grid_cell(e).expect("structured cell");
                let bi = (i * px) / nx;
                let bj = (j * py) / ny;
                bj * px + bi
            })
            .collect();
        ElementPartition {
            n_parts: px * py,
            owner,
            edge_cut: None,
        }
    }

    /// Number of parts.
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// Owner of element `e`.
    pub fn owner(&self, e: usize) -> usize {
        self.owner[e]
    }

    /// Per-element owner array.
    pub fn owners(&self) -> &[usize] {
        &self.owner
    }

    /// Node-adjacent element pairs straddling part boundaries, when known
    /// (see [`ElementPartition::with_edge_cut`]).
    pub fn edge_cut(&self) -> Option<usize> {
        self.edge_cut
    }

    /// Load imbalance `P * max_part_size / n_elems` — `1.0` is perfectly
    /// balanced; `2.0` means the largest part carries twice its fair share.
    /// A partition with no elements reports `0.0`, never `NaN`.
    pub fn imbalance(&self) -> f64 {
        imbalance_of(self.n_parts, &self.owner)
    }

    /// Builds subdomain descriptions for any [`Cells`] mesh (T3, Q4, Q8, …).
    pub fn subdomains_of<M: Cells>(&self, mesh: &M) -> Vec<Subdomain> {
        assert_eq!(
            self.owner.len(),
            mesh.n_cells(),
            "partition does not match mesh"
        );
        let (p, n_nodes) = (self.n_parts, mesh.n_cell_nodes());
        // Which parts touch each node, as one CSR: the owners of the node's
        // cells (a counting pass sizes each node's run), then each run
        // sorted and its repeats dropped in place.
        let mut ptr = vec![0; n_nodes + 1];
        mesh.for_each_cell(|_, nodes| nodes.iter().for_each(|&n| ptr[n + 1] += 1));
        for n in 0..n_nodes {
            ptr[n + 1] += ptr[n];
        }
        let mut parts = vec![0; ptr[n_nodes]];
        let mut next = ptr.clone();
        mesh.for_each_cell(|e, nodes| {
            for &n in nodes {
                parts[next[n]] = self.owner[e];
                next[n] += 1;
            }
        });
        let mut kept = 0;
        for n in 0..n_nodes {
            let (run, start) = (ptr[n]..ptr[n + 1], kept);
            parts[run.clone()].sort_unstable();
            for k in run {
                if kept == start || parts[kept - 1] != parts[k] {
                    parts[kept] = parts[k];
                    kept += 1;
                }
            }
            ptr[n] = start;
        }
        ptr[n_nodes] = kept;

        let mut subs: Vec<Subdomain> = (0..p)
            .map(|rank| Subdomain {
                rank,
                elements: Vec::new(),
                nodes: Vec::new(),
                multiplicity: Vec::new(),
                neighbors: Vec::new(),
            })
            .collect();
        for (e, &o) in self.owner.iter().enumerate() {
            subs[o].elements.push(e);
        }
        // Local node sets in ascending global order; neighbour links are
        // the nodes shared between pairs of parts, ascending global id
        // (canonical on both sides).
        for n in 0..n_nodes {
            let shared = &parts[ptr[n]..ptr[n + 1]];
            for &s in shared {
                subs[s].nodes.push(n);
                subs[s].multiplicity.push(shared.len());
            }
            for (ai, &a) in shared.iter().enumerate() {
                for &b in &shared[ai + 1..] {
                    let (la, lb) = (subs[a].nodes.len() - 1, subs[b].nodes.len() - 1);
                    push_shared(&mut subs[a].neighbors, b, la);
                    push_shared(&mut subs[b].neighbors, a, lb);
                }
            }
        }
        for s in &mut subs {
            s.neighbors.sort_by_key(|l| l.rank);
        }
        subs
    }
}

impl fmt::Debug for ElementPartition {
    /// Quality-annotated summary: per-part sizes, the imbalance ratio and —
    /// once [`ElementPartition::with_edge_cut`] computed it — the edge cut.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sizes = vec![0usize; self.n_parts];
        for &o in &self.owner {
            sizes[o] += 1;
        }
        let mut d = f.debug_struct("ElementPartition");
        d.field("n_parts", &self.n_parts)
            .field("n_elems", &self.owner.len())
            .field("part_sizes", &sizes)
            .field("imbalance", &self.imbalance());
        match self.edge_cut {
            Some(cut) => d.field("edge_cut", &cut),
            None => d.field("edge_cut", &"unknown"),
        };
        d.finish()
    }
}

fn push_shared(links: &mut Vec<NeighborLink>, rank: usize, local_node: usize) {
    if let Some(l) = links.iter_mut().find(|l| l.rank == rank) {
        l.shared_local_nodes.push(local_node);
    } else {
        links.push(NeighborLink {
            rank,
            shared_local_nodes: vec![local_node],
        });
    }
}

/// Shared-interface description between one subdomain and one neighbour.
///
/// `shared_local_nodes` lists *local* node indices in ascending global-node
/// order; since both sides sort by the same global ids, entry `k` on rank `a`
/// and entry `k` on rank `b` refer to the same physical node.
#[derive(Debug, Clone)]
pub struct NeighborLink {
    /// The neighbouring subdomain's rank.
    pub rank: usize,
    /// Local node indices shared with that neighbour, canonical order.
    pub shared_local_nodes: Vec<usize>,
}

/// One subdomain of an element-based partition.
#[derive(Debug, Clone)]
pub struct Subdomain {
    /// This subdomain's rank (its index in the partition).
    pub rank: usize,
    /// Global ids of the elements owned by this subdomain.
    pub elements: Vec<usize>,
    /// Global ids of all nodes touched by those elements, ascending.
    pub nodes: Vec<usize>,
    /// For each local node, how many subdomains share it (1 = interior).
    pub multiplicity: Vec<usize>,
    /// Interface links to neighbouring subdomains, sorted by rank.
    pub neighbors: Vec<NeighborLink>,
}

impl Subdomain {
    /// Number of local nodes.
    pub fn n_local_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The local index of global node `n`, if present.
    pub fn local_node(&self, n: usize) -> Option<usize> {
        self.nodes.binary_search(&n).ok()
    }

    /// Number of interface nodes.
    pub fn n_interface_nodes(&self) -> usize {
        self.multiplicity.iter().filter(|&&m| m > 1).count()
    }
}

/// Node pairs sharing an element whose nodes live in different parts —
/// the RDD counterpart of [`ElementPartition::edge_cut`]: off-diagonal
/// stiffness couplings `K_ij != 0` that cross the block-row partition.
fn node_cut_of<M: Cells>(mesh: &M, owner: &[usize]) -> usize {
    let mut cut: BTreeSet<(usize, usize)> = BTreeSet::new();
    mesh.for_each_cell(|_, nodes| {
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                if owner[a] != owner[b] {
                    cut.insert((a.min(b), a.max(b)));
                }
            }
        }
    });
    cut.len()
}

/// A partition of mesh *nodes* into `P` parts (RDD block-row partition).
#[derive(Debug, Clone)]
pub struct NodePartition {
    n_parts: usize,
    owner: Vec<usize>,
    /// Cross-part node couplings, once [`NodePartition::with_edge_cut`]
    /// computed them.
    edge_cut: Option<usize>,
}

/// Why [`NodePartition::from_elements`] cannot derive a node partition:
/// every node of some part's elements also touches a lower-numbered part,
/// so the part would own no row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartWithoutNodes {
    /// The first part left without a node.
    pub part: usize,
}

impl fmt::Display for PartWithoutNodes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "part {} owns no node: lower parts touch all its nodes",
            self.part
        )
    }
}

impl std::error::Error for PartWithoutNodes {}

impl NodePartition {
    /// Builds a partition from an explicit per-node owner array.
    ///
    /// # Panics
    /// Panics if any owner is out of range or some part is empty.
    pub fn from_owner(n_parts: usize, owner: Vec<usize>) -> Self {
        assert!(n_parts > 0, "need at least one part");
        let mut seen = vec![false; n_parts];
        for &o in &owner {
            assert!(o < n_parts, "node owner {o} out of range");
            seen[o] = true;
        }
        assert!(seen.iter().all(|&s| s), "every part must own a node");
        NodePartition {
            n_parts,
            owner,
            edge_cut: None,
        }
    }

    /// The node partition of an element partition: each node goes to the
    /// lowest-numbered part among the elements of `mesh` that touch it, so
    /// RDD block rows follow whatever cut EDD runs on. On `P | nx` strips
    /// this is the node-column formula `(j·P)/(nx+1)`.
    ///
    /// # Errors
    /// Names the first part left without a node. (A partition that does not
    /// match the mesh panics.)
    pub fn from_elements<M: Cells>(
        elements: &ElementPartition,
        mesh: &M,
    ) -> Result<Self, PartWithoutNodes> {
        assert_eq!(
            elements.owner.len(),
            mesh.n_cells(),
            "partition does not match mesh"
        );
        let mut owner = vec![usize::MAX; mesh.n_cell_nodes()];
        mesh.for_each_cell(|e, nodes| {
            let o = elements.owner[e];
            nodes.iter().for_each(|&n| owner[n] = owner[n].min(o));
        });
        let mut seen = vec![false; elements.n_parts];
        for o in &mut owner {
            // A node no element touches couples to nothing; part 0 takes it.
            *o = if *o == usize::MAX { 0 } else { *o };
            seen[*o] = true;
        }
        match seen.iter().position(|&s| !s) {
            Some(part) => Err(PartWithoutNodes { part }),
            None => Ok(Self::from_owner(elements.n_parts, owner)),
        }
    }

    /// Computes and records the node-coupling cut against `mesh` — the one
    /// place a node partition's cut is computed, with parity to
    /// [`ElementPartition::with_edge_cut`] so both decompositions report
    /// comparable communication-volume proxies.
    ///
    /// # Panics
    /// Panics if the partition does not match the mesh's node count.
    pub fn with_edge_cut<M: Cells>(mut self, mesh: &M) -> Self {
        assert_eq!(
            self.owner.len(),
            mesh.n_cell_nodes(),
            "partition does not match mesh"
        );
        self.edge_cut = Some(node_cut_of(mesh, &self.owner));
        self
    }

    /// Cross-part node couplings, when known (see
    /// [`NodePartition::with_edge_cut`]).
    pub fn edge_cut(&self) -> Option<usize> {
        self.edge_cut
    }

    /// Load imbalance `P * max_part_size / n_nodes` — parity with
    /// [`ElementPartition::imbalance`]; `0.0` for an empty owner array.
    pub fn imbalance(&self) -> f64 {
        imbalance_of(self.n_parts, &self.owner)
    }

    /// Number of parts.
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// Owner of node `n`.
    pub fn owner(&self, n: usize) -> usize {
        self.owner[n]
    }

    /// Per-node owner array.
    pub fn owners(&self) -> &[usize] {
        &self.owner
    }

    /// The nodes owned by `rank`, ascending.
    pub fn nodes_of(&self, rank: usize) -> Vec<usize> {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, &o)| o == rank)
            .map(|(n, _)| n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_cover_all_elements_once() {
        let mesh = QuadMesh::rectangle(8, 3, 8.0, 3.0);
        let part = ElementPartition::strips_x(&mesh, 4);
        assert_eq!(part.n_parts(), 4);
        let mut counts = vec![0usize; 4];
        for e in 0..mesh.n_elems() {
            counts[part.owner(e)] += 1;
        }
        // 8 columns over 4 parts -> 2 columns x 3 rows = 6 elements each.
        assert_eq!(counts, vec![6, 6, 6, 6]);
    }

    #[test]
    fn strip_subdomains_have_linear_neighbor_chain() {
        let mesh = QuadMesh::rectangle(8, 2, 8.0, 2.0);
        let part = ElementPartition::strips_x(&mesh, 4);
        let subs = part.subdomains_of(&mesh);
        assert_eq!(subs.len(), 4);
        // Interior strips have exactly two neighbours, end strips one.
        assert_eq!(subs[0].neighbors.len(), 1);
        assert_eq!(subs[1].neighbors.len(), 2);
        assert_eq!(subs[2].neighbors.len(), 2);
        assert_eq!(subs[3].neighbors.len(), 1);
        assert_eq!(subs[0].neighbors[0].rank, 1);
        assert_eq!(subs[3].neighbors[0].rank, 2);
        // Each strip interface is one node column: ny+1 = 3 nodes.
        assert_eq!(subs[0].neighbors[0].shared_local_nodes.len(), 3);
    }

    #[test]
    fn shared_node_lists_pair_up() {
        let mesh = QuadMesh::rectangle(6, 4, 6.0, 4.0);
        let part = ElementPartition::blocks_of(&mesh, 2, 2);
        let subs = part.subdomains_of(&mesh);
        for s in &subs {
            for link in &s.neighbors {
                let t = &subs[link.rank];
                let back = t
                    .neighbors
                    .iter()
                    .find(|l| l.rank == s.rank)
                    .expect("neighbour link must be symmetric");
                assert_eq!(link.shared_local_nodes.len(), back.shared_local_nodes.len());
                // Entry k on both sides must be the same global node.
                for (la, lb) in link.shared_local_nodes.iter().zip(&back.shared_local_nodes) {
                    assert_eq!(s.nodes[*la], t.nodes[*lb]);
                }
            }
        }
    }

    #[test]
    fn multiplicities_sum_matches_duplication() {
        // Sum over subdomains of local node counts equals sum over nodes of
        // multiplicity.
        let mesh = QuadMesh::rectangle(5, 5, 5.0, 5.0);
        let part = ElementPartition::blocks_of(&mesh, 2, 2);
        let subs = part.subdomains_of(&mesh);
        let total_local: usize = subs.iter().map(|s| s.n_local_nodes()).sum();
        assert!(total_local > mesh.n_nodes(), "interfaces are duplicated");
        // Each node appears exactly once per owning subdomain.
        let mut per_node = vec![0usize; mesh.n_nodes()];
        for s in &subs {
            for &n in &s.nodes {
                per_node[n] += 1;
            }
        }
        for (n, &cnt) in per_node.iter().enumerate() {
            assert!(cnt >= 1, "node {n} lost");
        }
        let mult_sum: usize = subs
            .iter()
            .flat_map(|s| s.multiplicity.iter())
            .sum::<usize>();
        // Sum of multiplicities counts each node (multiplicity m) m times in
        // each of its m subdomains: m^2 total. Cross-check against per_node.
        let expect: usize = per_node.iter().map(|&c| c * c).sum();
        assert_eq!(mult_sum, expect);
    }

    #[test]
    fn corner_nodes_in_block_partition_have_multiplicity_four() {
        let mesh = QuadMesh::rectangle(4, 4, 4.0, 4.0);
        let part = ElementPartition::blocks_of(&mesh, 2, 2);
        let subs = part.subdomains_of(&mesh);
        // The centre node (2,2) = node 12 touches all four blocks.
        let centre = mesh.node_at(2, 2);
        for s in &subs {
            let l = s.local_node(centre).expect("centre is in every block");
            assert_eq!(s.multiplicity[l], 4);
        }
        // All four blocks are pairwise neighbours through the centre node.
        assert_eq!(subs[0].neighbors.len(), 3);
    }

    #[test]
    fn interior_nodes_have_multiplicity_one() {
        let mesh = QuadMesh::rectangle(6, 2, 6.0, 2.0);
        let part = ElementPartition::strips_x(&mesh, 2);
        let subs = part.subdomains_of(&mesh);
        let interior = mesh.node_at(1, 1); // deep inside strip 0
        let s0 = &subs[0];
        let l = s0.local_node(interior).unwrap();
        assert_eq!(s0.multiplicity[l], 1);
        assert!(subs[1].local_node(interior).is_none());
        assert_eq!(s0.n_interface_nodes(), 3);
    }

    #[test]
    fn single_part_partition_has_no_neighbors() {
        let mesh = QuadMesh::rectangle(3, 3, 3.0, 3.0);
        let part = ElementPartition::strips_x(&mesh, 1);
        let subs = part.subdomains_of(&mesh);
        assert_eq!(subs.len(), 1);
        assert!(subs[0].neighbors.is_empty());
        assert_eq!(subs[0].n_local_nodes(), mesh.n_nodes());
        assert!(subs[0].multiplicity.iter().all(|&m| m == 1));
    }

    #[test]
    fn from_owner_validates() {
        let mesh = QuadMesh::rectangle(2, 1, 2.0, 1.0);
        let part = ElementPartition::from_owner(2, vec![0, 1]);
        assert_eq!(part.owner(0), 0);
        assert_eq!(part.owner(1), 1);
        let _ = mesh; // explicit partitions need not reference a mesh
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_owner_rejects_bad_rank() {
        ElementPartition::from_owner(2, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn from_owner_rejects_empty_part() {
        ElementPartition::from_owner(3, vec![0, 1, 0]);
    }

    #[test]
    fn blocks_of_matches_blocks_on_quads() {
        let mesh = QuadMesh::rectangle(6, 4, 6.0, 4.0);
        let a = ElementPartition::blocks_of(&mesh, 3, 2).with_edge_cut(&mesh);
        let b = ElementPartition::blocks_of(&mesh, 3, 2).with_edge_cut(&mesh);
        assert_eq!(a.owners(), b.owners());
        assert_eq!(a.n_parts(), 6);
        assert_eq!(a.edge_cut(), b.edge_cut());
        assert!(a.edge_cut().is_some());
    }

    #[test]
    fn blocks_of_partitions_triangles_and_quad8() {
        let quad = QuadMesh::rectangle(6, 4, 6.0, 4.0);
        let tri = crate::tri::TriMesh::from_quad_mesh(&quad);
        let tp = ElementPartition::blocks_of(&tri, 2, 2);
        assert_eq!(tp.n_parts(), 4);
        // Both triangles of every split quad share an owner, and it equals
        // the owner the quad partition assigns to that cell.
        let qp = ElementPartition::blocks_of(&quad, 2, 2);
        for e in 0..quad.n_elems() {
            assert_eq!(tp.owner(2 * e), tp.owner(2 * e + 1));
            assert_eq!(tp.owner(2 * e), qp.owner(e));
        }

        let q8 = crate::quad8::Quad8Mesh::rectangle(6, 4, 6.0, 4.0);
        let ep = ElementPartition::blocks_of(&q8, 2, 2);
        assert_eq!(ep.owners(), qp.owners());
        // Q8 edge midside nodes only join cells that already share corner
        // nodes, so the cut pairs match the 4-node partition's.
        let (ep, qp) = (ep.with_edge_cut(&q8), qp.with_edge_cut(&quad));
        assert_eq!(ep.edge_cut(), qp.edge_cut());
    }

    #[test]
    fn edge_cut_counts_straddling_adjacent_pairs() {
        // Two elements in a row, split in half: exactly one adjacent pair
        // crosses the boundary.
        let mesh = QuadMesh::rectangle(2, 1, 2.0, 1.0);
        let part = ElementPartition::strips_x(&mesh, 2);
        // No constructor computes the cut; `with_edge_cut` does.
        assert_eq!(part.edge_cut(), None);
        assert_eq!(part.with_edge_cut(&mesh).edge_cut(), Some(1));
        // One part: nothing to cut.
        let whole = ElementPartition::strips_x(&mesh, 1).with_edge_cut(&mesh);
        assert_eq!(whole.edge_cut(), Some(0));
    }

    #[test]
    fn debug_output_reports_partition_quality() {
        let mesh = QuadMesh::rectangle(8, 3, 8.0, 3.0);
        let part = ElementPartition::strips_x(&mesh, 4);
        let text = format!("{part:?}");
        assert!(text.contains("part_sizes: [6, 6, 6, 6]"), "{text}");
        assert!(text.contains("imbalance: 1.0"), "{text}");
        assert!(text.contains("edge_cut:"), "{text}");
        // from_owner has no mesh: the cut is reported as unknown until
        // with_edge_cut supplies one.
        let manual = ElementPartition::from_owner(2, vec![0, 0, 0, 1]);
        let text = format!("{manual:?}");
        assert!(text.contains("edge_cut: \"unknown\""), "{text}");
        assert!(text.contains("imbalance: 1.5"), "{text}");
        let mesh = QuadMesh::rectangle(4, 1, 4.0, 1.0);
        let manual = ElementPartition::from_owner(2, vec![0, 0, 0, 1]).with_edge_cut(&mesh);
        assert_eq!(manual.edge_cut(), Some(1));
    }

    /// The node strips of `p` element strips on an `nx x ny` quad mesh.
    fn node_strips(nx: usize, ny: usize, p: usize) -> (QuadMesh, NodePartition) {
        let mesh = QuadMesh::rectangle(nx, ny, nx as f64, ny as f64);
        let strips = ElementPartition::strips_x(&mesh, p);
        let nodes = NodePartition::from_elements(&strips, &mesh).unwrap();
        (mesh, nodes)
    }

    #[test]
    fn node_strips_follow_columns() {
        let (mesh, np) = node_strips(6, 2, 3); // 7 node columns
        for j in 0..=2 {
            // Column 2 touches parts 0 and 1: the lower one takes it.
            assert_eq!(np.owner(mesh.node_at(2, j)), 0);
            assert_eq!(np.owner(mesh.node_at(3, j)), 1);
            assert_eq!(np.owner(mesh.node_at(6, j)), 2);
        }
        // All parts non-empty.
        for r in 0..3 {
            assert!(!np.nodes_of(r).is_empty());
        }
    }

    #[test]
    fn node_strips_of_uneven_element_strips_give_part_0_one_column_more() {
        // 40 columns at P = 3: element strips 14/13/13 columns wide, node
        // strips 15/13/13 node columns where `(j·P)/(nx+1)` gives 14/14/13.
        let (mesh, np) = node_strips(40, 1, 3);
        let sizes: Vec<usize> = (0..3).map(|r| np.nodes_of(r).len() / 2).collect();
        assert_eq!(sizes, [15, 13, 13]);
        let mut formula = [0; 3];
        (0..41).for_each(|j| formula[(j * 3) / 41] += 1);
        assert_eq!(formula, [14, 14, 13]);
        assert_eq!(np.owner(mesh.node_at(14, 0)), 0);
    }

    #[test]
    fn from_elements_names_the_first_part_left_without_a_node() {
        // A 3x1 row whose middle element is part 2 and whose outer elements
        // are parts 0 and 1: every node of part 2 also touches 0 or 1.
        let mesh = QuadMesh::rectangle(3, 1, 3.0, 1.0);
        let elements = ElementPartition::from_owner(3, vec![0, 2, 1]);
        let err = NodePartition::from_elements(&elements, &mesh).unwrap_err();
        assert_eq!(err, PartWithoutNodes { part: 2 });
        assert!(err.to_string().contains("part 2"), "{err}");
    }

    #[test]
    fn imbalance_of_elementless_partition_is_zero() {
        // `from_owner` rejects empty parts, but internal callers (the graph
        // partitioner's intermediate states) construct partitions directly;
        // imbalance must stay finite, not NaN.
        let empty = ElementPartition {
            n_parts: 3,
            owner: Vec::new(),
            edge_cut: None,
        };
        assert_eq!(empty.imbalance(), 0.0);
        let empty_nodes = NodePartition {
            n_parts: 2,
            owner: Vec::new(),
            edge_cut: None,
        };
        assert_eq!(empty_nodes.imbalance(), 0.0);
    }

    #[test]
    fn node_partition_reports_cut_and_imbalance_parity() {
        let (mesh, np) = node_strips(6, 2, 3);
        // No constructor computes the cut; `with_edge_cut` does.
        assert_eq!(np.edge_cut(), None);
        let cut = np.clone().with_edge_cut(&mesh).edge_cut().unwrap();
        assert!(cut > 0);
        let manual = NodePartition::from_owner(3, np.owners().to_vec()).with_edge_cut(&mesh);
        assert_eq!(manual.edge_cut(), Some(cut));
        assert!(np.imbalance() >= 1.0);
        // One part split down the middle: couplings across the boundary
        // column pair every boundary node with its 2-3 cross neighbours.
        let n = mesh.n_nodes();
        let half = (0..n).map(|i| (2 * i) / n).collect();
        let half = NodePartition::from_owner(2, half).with_edge_cut(&mesh);
        assert!(half.edge_cut().unwrap() > 0);
    }

    #[test]
    fn node_partition_from_owner_round_trips() {
        let np = NodePartition::from_owner(2, vec![0, 1, 0, 1]);
        assert_eq!(np.nodes_of(0), vec![0, 2]);
        assert_eq!(np.nodes_of(1), vec![1, 3]);
        assert_eq!(np.owners(), &[0, 1, 0, 1]);
    }
}
