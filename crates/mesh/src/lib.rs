//! Meshes and domain partitioning for the `parfem` solver stack.
//!
//! - [`structured`] — structured 2-D quadrilateral meshes (the cantilever
//!   meshes Mesh1–Mesh10 of the paper's Table 2),
//! - [`hex`] — structured 3-D hexahedral meshes (the box cantilever of the
//!   3-D elasticity workload),
//! - [`numbering`] — DOF numbering (physics-dependent DOFs per node:
//!   1 scalar, 2 for 2-D elasticity, 3 for 3-D) and Dirichlet constraint
//!   sets,
//! - [`partition`] — element-based partitions (the paper's EDD, Section 3)
//!   and node-based partitions (the RDD baseline, Section 4), including the
//!   subdomain interface graphs that drive nearest-neighbour communication,
//! - [`graph`] — mesh adjacency graphs and a greedy BFS partitioner for
//!   unstructured input,
//! - [`gpart`] — the graph partitioner (recursive bisection with the
//!   multilevel edge bisection of `parfem_sparse::graph`, k-way boundary
//!   refinement) and the [`PartitionerSpec`] selector wired through the
//!   CLI's `--partitioner` flag.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Indexed `for r in 0..n` loops are the idiomatic form for the sparse/FEM
// kernels in this workspace (the index feeds several arrays and the CSR
// row spans at once); the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod cells;
pub mod generic;
pub mod gpart;
pub mod graph;
pub mod hex;
pub mod numbering;
pub mod partition;
pub mod quad8;
pub mod structured;
pub mod tri;

pub use cells::Cells;
pub use generic::GenericQuadMesh;
pub use gpart::{graph_partition, PartitionerSpec};
pub use hex::{Face, HexMesh};
pub use numbering::{DofMap, Edge};
pub use partition::{ElementPartition, NodePartition, PartWithoutNodes, Subdomain};
pub use quad8::Quad8Mesh;
pub use structured::QuadMesh;
pub use tri::TriMesh;
