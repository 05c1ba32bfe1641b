//! `ElementPartition::subdomains_of` describes every subdomain — elements,
//! nodes, multiplicities, neighbour links — exactly as the per-node part
//! lists it was first written with, kept below as the reference.

use parfem_mesh::{Cells, ElementPartition, HexMesh, PartitionerSpec, QuadMesh, Subdomain};

/// The subdomains as a node → parts list per node builds them: a `Vec` of
/// parts per node, filled by a `contains` scan per cell node, then sorted.
fn reference<M: Cells>(part: &ElementPartition, mesh: &M) -> Vec<Subdomain> {
    let mut node_parts: Vec<Vec<usize>> = vec![Vec::new(); mesh.n_cell_nodes()];
    mesh.for_each_cell(|e, nodes| {
        let o = part.owner(e);
        for &n in nodes {
            if !node_parts[n].contains(&o) {
                node_parts[n].push(o);
            }
        }
    });
    for parts in &mut node_parts {
        parts.sort_unstable();
    }
    let mut subs: Vec<Subdomain> = (0..part.n_parts())
        .map(|rank| Subdomain {
            rank,
            elements: Vec::new(),
            nodes: Vec::new(),
            multiplicity: Vec::new(),
            neighbors: Vec::new(),
        })
        .collect();
    for e in 0..mesh.n_cells() {
        subs[part.owner(e)].elements.push(e);
    }
    for (n, parts) in node_parts.iter().enumerate() {
        for &s in parts {
            subs[s].nodes.push(n);
            subs[s].multiplicity.push(parts.len());
        }
    }
    let mut links: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); subs.len()];
    for (n, parts) in node_parts.iter().enumerate() {
        for (ai, &a) in parts.iter().enumerate() {
            for &b in &parts[ai + 1..] {
                for (s, t) in [(a, b), (b, a)] {
                    let local = subs[s].local_node(n).expect("listed above");
                    match links[s].iter_mut().find(|(r, _)| *r == t) {
                        Some((_, shared)) => shared.push(local),
                        None => links[s].push((t, vec![local])),
                    }
                }
            }
        }
    }
    for (sub, mut links) in subs.iter_mut().zip(links) {
        links.sort_by_key(|(r, _)| *r);
        sub.neighbors = (links.into_iter())
            .map(
                |(rank, shared_local_nodes)| parfem_mesh::partition::NeighborLink {
                    rank,
                    shared_local_nodes,
                },
            )
            .collect();
    }
    subs
}

/// Every field of every subdomain, for comparison.
fn fields(subs: &[Subdomain]) -> Vec<String> {
    subs.iter().map(|s| format!("{s:?}")).collect()
}

fn check<M: Cells>(what: &str, mesh: &M, part: &ElementPartition) {
    assert_eq!(
        fields(&part.subdomains_of(mesh)),
        fields(&reference(part, mesh)),
        "{what}"
    );
}

/// Element owners scattered over `p` parts, so a node's cells come from up
/// to four parts in no particular order.
fn scattered<M: Cells>(mesh: &M, p: usize) -> ElementPartition {
    let owner = (0..mesh.n_cells()).map(|e| (e * 7 + e / 3) % p).collect();
    ElementPartition::from_owner(p, owner)
}

#[test]
fn quad_subdomains_equal_the_per_node_lists() {
    for (nx, ny) in [(7, 5), (12, 4), (9, 9), (16, 3)] {
        let mesh = QuadMesh::cantilever(nx, ny);
        for p in [1, 2, 3, 4, 6] {
            for spec in [
                PartitionerSpec::Strips,
                PartitionerSpec::Blocks,
                PartitionerSpec::Graph,
            ] {
                let part = spec.element_partition(&mesh, p);
                check(&format!("quad {nx}x{ny} {spec} P = {p}"), &mesh, &part);
            }
            check(
                &format!("quad {nx}x{ny} scattered P = {p}"),
                &mesh,
                &scattered(&mesh, p),
            );
        }
    }
}

#[test]
fn hex_subdomains_equal_the_per_node_lists() {
    for (nx, ny, nz) in [(4, 3, 2), (6, 2, 2), (5, 4, 3)] {
        let mesh = HexMesh::cantilever(nx, ny, nz);
        for p in [1, 2, 3, 4] {
            for spec in [
                PartitionerSpec::Strips,
                PartitionerSpec::Blocks,
                PartitionerSpec::Graph,
            ] {
                let part = spec.element_partition(&mesh, p);
                check(&format!("hex {nx}x{ny}x{nz} {spec} P = {p}"), &mesh, &part);
            }
            let what = format!("hex {nx}x{ny}x{nz} scattered P = {p}");
            check(&what, &mesh, &scattered(&mesh, p));
        }
    }
}
