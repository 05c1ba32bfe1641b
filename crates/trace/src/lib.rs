//! Zero-dependency structured tracing for the parfem stack.
//!
//! The crate provides the observability layer described in DESIGN.md:
//!
//! * [`TraceEvent`] — one timestamped record carrying both a **wall-clock**
//!   time (seconds since the sink's epoch) and a **virtual** time (the LogP
//!   machine-model clock of the emitting rank), a kind, a name, and a flat
//!   bag of numeric/string fields.
//! * [`TraceSink`] / [`RankTracer`] — the sink is the cheap, cloneable,
//!   thread-safe handle threaded through the solver stack; each rank thread
//!   checks out its own single-threaded [`RankTracer`] which buffers events
//!   locally and flushes them into the sink when dropped. A disabled sink is
//!   a `None` and every emission short-circuits on one branch, so tracing
//!   costs nothing when off.
//! * [`jsonl`] — the JSON-Lines trace codec over [`json`]: one event per
//!   line, round-trip exact for finite floats.
//! * [`Histogram`] — low-overhead power-of-two-bucket histograms for hot
//!   paths (message sizes).
//! * [`alloc`] — an opt-in counting global allocator; when a binary or test
//!   installs it, solve summaries gain `alloc_bytes` / `alloc_count` fields
//!   so allocation regressions in the Krylov hot path show up in
//!   `parfem report`.
//! * [`TraceReport`] — the in-memory aggregator: rolls a recorded event
//!   stream into per-rank phase breakdowns (partition → assembly → scaling →
//!   precond-build → FGMRES cycles → gather), Table-1-style communication
//!   counts, a per-iteration convergence record, and an ASCII per-rank
//!   timeline over virtual time.
//! * [`CritPath`] — the critical-path analyzer: reconstructs the cross-rank
//!   dependency DAG from the recorded send/recv/collective events and walks
//!   back the makespan-bounding chain, attributing it to compute, message
//!   flight, and collective segments.
//! * [`chrome`] — a Chrome/Perfetto `trace_event` exporter for interactive
//!   per-rank timelines at high rank counts.
//! * [`json`] — the workspace's one JSON codec (no serde): a value type,
//!   one parser with a nesting bound, and one writer with a compact and an
//!   indented layout. The trace codec, the exporters, the perf gate and the
//!   bench snapshots all read and write through it.
//!
//! The event schema is documented on [`TraceEvent`]; the stable JSON keys are
//! documented in [`jsonl`].

#![deny(missing_docs)]
// `deny` rather than `forbid`: the [`alloc`] module needs one audited
// `unsafe impl GlobalAlloc` (forwarding to `System` around atomic counters)
// and opts in locally; everything else stays unsafe-free.
#![deny(unsafe_code)]

mod aggregate;
pub mod alloc;
pub mod chrome;
mod critpath;
mod event;
pub mod json;
pub mod jsonl;
mod metrics;
mod report;
mod sink;

pub use aggregate::{
    CarriedSpace, CoarseSetupSummary, CommCounts, FactorSummary, IterRecord, PhaseTotals,
    RankSummary, SolveSummary, TraceReport,
};
pub use chrome::export_chrome_trace;
pub use critpath::{render_critical_path, CritPath, PathSegment, RankWaits, SegmentKind};
pub use event::{EventKind, TraceEvent, Value};
pub use metrics::Histogram;
pub use report::{render_comm_table, render_convergence, render_phase_table, render_timeline};
pub use sink::{RankTracer, TraceSink};
