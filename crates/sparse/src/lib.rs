//! Sparse linear-algebra substrate for the `parfem` solver stack.
//!
//! This crate provides the serial building blocks every other crate in the
//! workspace is layered on:
//!
//! - [`dense`] — flat `f64` vector kernels (AXPY, dot products, norms) used in
//!   the hot loops of the Krylov solvers,
//! - [`coo`] — a coordinate-format accumulator used by finite-element
//!   assembly, with duplicate summation on conversion,
//! - [`csr`] — compressed sparse row matrices and matrix–vector products,
//! - [`kernels`] — the tuned hot-path kernels behind them: 4-way-unrolled
//!   SpMV (full, accumulating, row-subset) and the blocked dot/AXPY/nrm2
//!   primitives of the Gram–Schmidt step,
//! - [`scaling`] — the paper's norm-1 diagonal scaling (Theorem 1 /
//!   Algorithms 3–4) that maps the matrix spectrum into `(0, 1]`, the `Θ`
//!   the polynomial preconditioners are built on (a measured spectrum, for
//!   the Fig. 10 study, is `parfem-krylov`'s Lanczos `measure_spectrum`),
//! - [`graph`] — the one graph bisection: multilevel edge bisection of a
//!   weighted CSR graph, under both the nested-dissection ordering and
//!   `parfem-mesh`'s element partitioner,
//! - [`ilu`] — ILU(0), the sequential comparator preconditioner in the
//!   paper's Figures 11–12,
//! - [`op`] — the [`LinearOperator`] abstraction shared by the sequential
//!   and distributed solvers,
//! - [`io`] — MatrixMarket import/export for reproducibility,
//! - [`bcsr`] — node-block CSR storage (`B × B` blocks, `B ∈ {2, 3}`); the
//!   one alternative to CSR, for matrices whose DOFs come `B` to a node,
//! - [`rows`] — [`SparseRows`], the row view both storages share (block fill
//!   left out), and [`NodeMatrix`], a local matrix in the storage its DOFs
//!   per node give it,
//! - [`ldlt`] — the one factorization: a pivot-tolerant sparse LDLᵀ under a
//!   deterministic fill-reducing ordering (nested dissection, minimum degree
//!   on small graphs), behind both the exact `direct` subdomain
//!   preconditioner and the two-level preconditioner's Galerkin coarse
//!   solve.
//!
//! All matrices are real, square-or-rectangular, `f64`-valued. Row and column
//! indices are `usize`. Nothing in this crate allocates in per-iteration hot
//! paths: every kernel has an `_into` variant writing into a caller-provided
//! buffer.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Indexed `for r in 0..n` loops are the idiomatic form for the sparse/FEM
// kernels in this workspace (the index feeds several arrays and the CSR
// row spans at once); the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod graph;
pub mod ilu;
pub mod io;
pub mod kernels;
pub mod ldlt;
pub mod op;
pub mod rows;
pub mod scaling;

pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use ilu::Ilu0;
pub use ldlt::SparseLdlt;
pub use op::LinearOperator;
pub use rows::{NodeMatrix, SparseRows};
pub use scaling::DiagonalScaling;
