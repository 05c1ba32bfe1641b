//! Property-based tests for the graph partitioner: total ownership,
//! part counts, per-part connectivity on structured meshes, determinism,
//! and the no-regression guarantee against the strip layout on the paper's
//! Table-2 cantilever meshes.

use parfem_mesh::gpart::{graph_partition, partition_adjacency, PartitionerSpec};
use parfem_mesh::graph::Adjacency;
use parfem_mesh::{ElementPartition, QuadMesh};
use proptest::prelude::*;

/// Strategy: a structured mesh plus a valid part count. The raw part draw
/// is folded into `1..=min(n_elems, 9)` so every sample is valid.
fn mesh_and_parts() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..14, 1usize..8, 0usize..64).prop_map(|(nx, ny, p_raw)| {
        let p = 1 + p_raw % (nx * ny).min(9);
        (nx, ny, p)
    })
}

/// Whether every part induces a connected subgraph of `graph`.
fn parts_connected(graph: &Adjacency, owner: &[usize], p: usize) -> bool {
    for part in 0..p {
        let members: Vec<usize> = (0..owner.len()).filter(|&v| owner[v] == part).collect();
        if members.is_empty() {
            return false;
        }
        let mut seen = vec![false; owner.len()];
        let mut stack = vec![members[0]];
        seen[members[0]] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &w in graph.neighbors(v) {
                if owner[w] == part && !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        if count != members.len() {
            return false;
        }
    }
    true
}

proptest! {
    #[test]
    fn every_element_is_owned_exactly_once((nx, ny, p) in mesh_and_parts()) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let part = graph_partition(&mesh, p);
        prop_assert_eq!(part.n_parts(), p);
        prop_assert_eq!(part.owners().len(), nx * ny);
        let mut sizes = vec![0usize; p];
        for e in 0..nx * ny {
            let o = part.owner(e);
            prop_assert!(o < p, "owner {} out of range", o);
            sizes[o] += 1;
        }
        // Ownership is a partition: sizes sum to the element count and no
        // part is empty.
        prop_assert_eq!(sizes.iter().sum::<usize>(), nx * ny);
        prop_assert!(sizes.iter().all(|&s| s > 0), "empty part in {:?}", sizes);
    }

    #[test]
    fn parts_are_connected_on_structured_meshes((nx, ny, p) in mesh_and_parts()) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let part = graph_partition(&mesh, p);
        // Connectivity in the node-sharing element graph — the graph the
        // partitioner optimizes and whose cut the partition reports.
        let graph = Adjacency::element_graph_of(&mesh, 1);
        prop_assert!(
            parts_connected(&graph, part.owners(), p),
            "disconnected part: {:?}",
            part
        );
    }

    #[test]
    fn fixed_seed_is_deterministic((nx, ny, p) in mesh_and_parts()) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let a = graph_partition(&mesh, p);
        let b = graph_partition(&mesh, p);
        prop_assert_eq!(a.owners(), b.owners());
        // The spec round-trips to the same partition.
        let via_spec = PartitionerSpec::Graph.element_partition(&mesh, p);
        prop_assert_eq!(a.owners(), via_spec.owners());
    }

    #[test]
    fn adjacency_partition_matches_mesh_contract((nx, ny, p) in mesh_and_parts()) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let graph = Adjacency::element_graph_of(&mesh, 1);
        let owner = partition_adjacency(&graph, p);
        prop_assert_eq!(owner.len(), nx * ny);
        let mut seen = vec![false; p];
        for &o in &owner {
            prop_assert!(o < p);
            seen[o] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

/// Table-2 cantilever meshes (the sizes the solver benchmarks run on):
/// the graph partitioner must never cut more node-adjacent element pairs
/// than the vertical strip layout it replaces.
#[test]
fn graph_cut_never_worse_than_strips_on_paper_meshes() {
    // (nx, ny) for Mesh1, Mesh2, Mesh3, Mesh4 — the larger Table-2 entries
    // scale the same construction and are exercised by the scaling bench.
    let paper = [(7usize, 1usize), (40, 8), (40, 20), (50, 50)];
    for &(nx, ny) in &paper {
        let mesh = QuadMesh::cantilever(nx, ny);
        for p in [2usize, 4, 8] {
            if p > nx {
                continue;
            }
            let strips = ElementPartition::strips_x(&mesh, p).with_edge_cut(&mesh);
            let graph = graph_partition(&mesh, p).with_edge_cut(&mesh);
            let (gc, sc) = (graph.edge_cut().unwrap(), strips.edge_cut().unwrap());
            assert!(
                gc <= sc,
                "{nx}x{ny} P={p}: graph cut {gc} exceeds strips cut {sc}"
            );
            assert!(graph.imbalance() <= strips.imbalance().max(1.25));
        }
    }
}
