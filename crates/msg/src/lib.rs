//! Message-passing substrate for the `parfem` distributed solvers.
//!
//! The paper runs C + MPI on an IBM SP2 and an SGI Origin. This crate
//! substitutes both:
//!
//! - [`comm`] — an MPI-shaped [`comm::Communicator`] trait
//!   covering exactly the subset the paper's Algorithms 5/6/8 use:
//!   neighbour exchange rounds over paired point-to-point messages, a
//!   summing all-reduce, and a barrier, all in caller-owned buffers — and
//!   [`comm::SelfComm`], the one-rank communicator the sequential solve
//!   runs on;
//! - [`thread`] — [`thread::ThreadComm`], a real implementation
//!   over OS threads and shared memory: `P` ranks run concurrently and
//!   exchange actual messages through one mailbox per ordered rank pair and
//!   one rank-ordered all-reduce rendezvous, so the communication structure
//!   (and every numerical result) is the same as an MPI run. A warm
//!   exchange or all-reduce allocates nothing, and a rank waiting for a
//!   peer spins briefly before it parks when every rank has a hardware
//!   thread.
//!   [`thread::run_ranks_traced`] additionally records every communicator
//!   operation as a structured `parfem-trace` event, and each rank's
//!   wall-clock wait;
//! - [`model`] — a **virtual-time LogP-style machine model**. The host this
//!   reproduction runs on may have a single core, where wall-clock speedup
//!   is physically meaningless; instead every rank advances a virtual clock
//!   by `flops / rate` for computation (reported by the solvers through
//!   [`comm::Communicator::work`]), message receives
//!   synchronize clocks at `sender + α + bytes/β`, and all-reduces cost a
//!   `⌈log₂ P⌉` tree. Presets [`MachineModel::ibm_sp2`](model::MachineModel::ibm_sp2)
//!   and [`MachineModel::sgi_origin`](model::MachineModel::sgi_origin)
//!   reproduce the latency/bandwidth contrast the paper observes in
//!   Fig. 17(e);
//! - [`topology`] — composable network topologies behind the machine
//!   model: the legacy flat network plus two-level cluster / fat-tree /
//!   3-D-torus presets with route-aware message costs, deterministic
//!   per-batch link contention, and `O(log P)` hierarchical collective
//!   algorithms for the P=64..4096 scaling laboratory;
//! - [`stats`] — per-rank communication statistics (message counts, bytes,
//!   reductions) that regenerate the paper's Table 1 cost comparison;
//! - [`error`] and [`fault`] — the failure model: typed [`CommError`]s with
//!   sticky latching and wall-clock watchdogs on every blocking wait, plus
//!   deterministic seeded fault injection ([`FaultPlan`]/[`FaultyComm`])
//!   with sequence-numbered retransmission, so chaos runs reproduce bit
//!   for bit and degraded runs return errors instead of hanging.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Indexed `for r in 0..n` loops are the idiomatic form for the sparse/FEM
// kernels in this workspace (the index feeds several arrays and the CSR
// row spans at once); the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod comm;
pub mod error;
pub mod fault;
pub mod model;
pub mod stats;
pub mod thread;
pub mod topology;

pub use comm::{Communicator, ExchangeHandle, SelfComm};
pub use error::CommError;
pub use fault::{FaultPlan, FaultStats, FaultyComm, RankKill};
pub use model::{MachineModel, UnknownMachine};
pub use stats::CommStats;
pub use thread::{
    run_ranks, run_ranks_traced, try_run_ranks, RankPanic, RankReport, RunOptions, RunOutput,
    ThreadComm,
};
pub use topology::{CollectiveAlgo, Link, Topology};
