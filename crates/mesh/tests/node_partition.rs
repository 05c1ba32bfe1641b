//! Node partitions derived from element partitions: on `P | nx` strips the
//! lowest-part rule of `NodePartition::from_elements` reproduces the
//! node-column formula `(j·P)/(nx+1)` exactly, for quadrilateral and
//! hexahedral meshes; on any structured layout every part keeps a node.

use parfem_mesh::{Cells, ElementPartition, HexMesh, NodePartition, PartitionerSpec, QuadMesh};
use proptest::prelude::*;

/// The node-column strips the RDD partition used before it derived its
/// rows from the element strips: column `j` of `nx + 1` goes to part
/// `(j·P)/(nx+1)`.
fn column_formula(n_nodes: usize, nx: usize, p: usize) -> Vec<usize> {
    (0..n_nodes)
        .map(|n| ((n % (nx + 1)) * p) / (nx + 1))
        .collect()
}

fn node_strips<M: Cells>(mesh: &M, p: usize) -> NodePartition {
    let strips = PartitionerSpec::Strips.element_partition(mesh, p);
    NodePartition::from_elements(&strips, mesh).expect("every strip keeps a node column")
}

/// Strategy: a column count `nx` that `P` divides, with `P` itself.
fn divisible() -> impl Strategy<Value = (usize, usize)> {
    (1usize..9, 1usize..12).prop_map(|(p, m)| (m * p, p))
}

proptest! {
    #[test]
    fn quad_strips_give_the_column_formula((nx, p) in divisible(), ny in 1usize..7) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let nodes = node_strips(&mesh, p);
        prop_assert_eq!(nodes.owners(), &column_formula(mesh.n_nodes(), nx, p)[..]);
    }

    #[test]
    fn hex_strips_give_the_column_formula(
        (nx, p) in divisible(),
        ny in 1usize..4,
        nz in 1usize..4,
    ) {
        let mesh = HexMesh::cantilever(nx, ny, nz);
        let nodes = node_strips(&mesh, p);
        prop_assert_eq!(nodes.owners(), &column_formula(mesh.n_nodes(), nx, p)[..]);
    }

    /// Strips and blocks leave no part without a node, whatever `P`: each
    /// part owns the node above and right of its first cell.
    #[test]
    fn structured_layouts_keep_a_node_in_every_part(
        nx in 1usize..13,
        ny in 1usize..7,
        p_raw in 0usize..64,
    ) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let p = 1 + p_raw % nx;
        for spec in [PartitionerSpec::Strips, PartitionerSpec::Blocks] {
            let elements = spec.element_partition(&mesh, p);
            prop_assert!(NodePartition::from_elements(&elements, &mesh).is_ok());
        }
    }
}

/// On uneven strips too, node column `j` goes to the part of element
/// column `j − 1` (column 0 to part 0): the lowest part that touches it.
#[test]
fn uneven_strips_give_each_node_column_its_left_element_column() {
    for (nx, p) in [(40, 3), (7, 2), (9, 4), (13, 5)] {
        let mesh = QuadMesh::cantilever(nx, 2);
        let got = node_strips(&mesh, p);
        let strips = ElementPartition::strips_x(&mesh, p);
        for j in 0..=nx {
            let want = strips.owner(j.max(1) - 1);
            assert_eq!(
                got.owner(mesh.node_at(j, 0)),
                want,
                "{nx} / {p}: column {j}"
            );
        }
    }
}
