//! Time-to-solution benchmark for parfem: four workloads, set-up next to
//! solve, a per-layer ledger. See `README.md`; `main.rs` is the command
//! line, [`adapter`] the only file that calls into the repository.

pub mod adapter;
pub mod bench;
pub mod child;
pub mod host;
pub mod json;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod workload;
