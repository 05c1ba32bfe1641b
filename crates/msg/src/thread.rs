//! `ThreadComm`: the communicator over OS threads and channels.
//!
//! Every rank is an OS thread; point-to-point messages travel over dedicated
//! unbounded `std::sync::mpsc` channels (one per ordered rank pair, so
//! messages between a pair stay in order), and collectives rendezvous at a
//! shared mutex/condvar point that sums contributions **in rank order** —
//! parallel results are therefore bit-for-bit deterministic and independent
//! of scheduling.
//!
//! Virtual-time rules (see [`crate::model`]):
//! - `work(f)` advances the local clock by `f / rate`;
//! - a message is stamped `sender_clock + α + bytes/β` (plus any injected
//!   delay, see [`crate::fault`]); the receiver's clock becomes
//!   `max(receiver_clock, stamp)` (eager/asynchronous send);
//! - an all-reduce synchronizes every participant to
//!   `max(all clocks) + ⌈log₂P⌉ · stage_cost`.
//!
//! Failure handling: every blocking wait carries a **wall-clock watchdog**
//! ([`RunOptions::comm_timeout`]). A rank whose peer died sees the closed
//! channel immediately ([`CommError::Disconnected`]); a rank whose peer
//! merely never sends gives up after the watchdog
//! ([`CommError::Timeout`]). Errors latch on the endpoint (see
//! [`Communicator::status`]) so a degraded rank fails fast after its first
//! watchdog wait, and [`try_run_ranks`] converts rank panics into per-rank
//! [`RankPanic`] values instead of aborting the whole process.
//!
//! Tracing: [`run_ranks_traced`] hands each rank a
//! [`parfem_trace::RankTracer`], and every communicator operation then emits
//! a structured event stamped with both wall and virtual time — a recorded
//! run replays into the per-rank Gantt timeline and the Table-1
//! communication counts. [`run_ranks`] passes a disabled sink, so the
//! untraced path pays one `Option` branch per operation.

use crate::comm::Communicator;
use crate::error::CommError;
use crate::model::MachineModel;
use crate::stats::CommStats;
use parfem_trace::alloc::{self, AllocStats};
use parfem_trace::{EventKind, Histogram, RankTracer, TraceSink, Value};
use std::cell::{Cell, RefCell};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A message with its modeled arrival time.
struct Msg {
    data: Vec<f64>,
    arrival: f64,
}

/// Shared rendezvous state for collectives.
struct CollectiveState {
    generation: u64,
    contributions: Vec<Option<Vec<f64>>>,
    clocks: Vec<f64>,
    count: usize,
    result: Vec<f64>,
    result_clock: f64,
}

struct CollectivePoint {
    size: usize,
    state: Mutex<CollectiveState>,
    cv: Condvar,
}

impl CollectivePoint {
    fn new(size: usize) -> Self {
        CollectivePoint {
            size,
            state: Mutex::new(CollectiveState {
                generation: 0,
                contributions: vec![None; size],
                clocks: vec![0.0; size],
                count: 0,
                result: Vec::new(),
                result_clock: 0.0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Contributes `v` at virtual time `clock`; returns the rank-ordered sum
    /// and the max contribution clock. A rank that waits longer than
    /// `timeout` wall-clock seconds withdraws its contribution and returns a
    /// timeout error, so a dead rank cannot hang the survivors.
    fn allreduce(
        &self,
        rank: usize,
        v: &[f64],
        clock: f64,
        timeout: Duration,
    ) -> Result<(Vec<f64>, f64), CommError> {
        if self.size == 1 {
            return Ok((v.to_vec(), clock));
        }
        let mut st = self.state.lock().map_err(|_| CommError::Poisoned)?;
        let my_gen = st.generation;
        st.contributions[rank] = Some(v.to_vec());
        st.clocks[rank] = clock;
        st.count += 1;
        if st.count == self.size {
            // Deterministic rank-ordered summation.
            let mut sum = vec![0.0; v.len()];
            for c in st.contributions.iter_mut() {
                let contrib = c.take().expect("all ranks contributed");
                assert_eq!(
                    contrib.len(),
                    sum.len(),
                    "allreduce called with mismatched lengths across ranks"
                );
                for (s, x) in sum.iter_mut().zip(&contrib) {
                    *s += x;
                }
            }
            let max_clock = st.clocks.iter().fold(0.0_f64, |m, &c| m.max(c));
            st.result = sum.clone();
            st.result_clock = max_clock;
            st.count = 0;
            st.generation += 1;
            self.cv.notify_all();
            Ok((sum, max_clock))
        } else {
            let start = Instant::now();
            while st.generation == my_gen {
                let waited = start.elapsed();
                if waited >= timeout {
                    // Withdraw so a later generation is not corrupted by a
                    // stale contribution.
                    st.contributions[rank] = None;
                    st.count -= 1;
                    return Err(CommError::Timeout {
                        op: "allreduce",
                        rank,
                        peer: None,
                        waited_s: waited.as_secs_f64(),
                    });
                }
                let (guard, _) = self
                    .cv
                    .wait_timeout(st, timeout - waited)
                    .map_err(|_| CommError::Poisoned)?;
                st = guard;
            }
            Ok((st.result.clone(), st.result_clock))
        }
    }
}

/// One rank's endpoint of a threaded communicator.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    model: Arc<MachineModel>,
    /// `senders[d]` sends to rank `d` (None at `d == rank`).
    senders: Vec<Option<Sender<Msg>>>,
    /// `receivers[s]` receives from rank `s` (None at `s == rank`).
    receivers: Vec<Option<Receiver<Msg>>>,
    collective: Arc<CollectivePoint>,
    clock: Cell<f64>,
    stats: RefCell<CommStats>,
    /// Wall-clock watchdog for blocking waits.
    timeout: Duration,
    /// First communication failure observed by this endpoint (sticky).
    error: RefCell<Option<CommError>>,
    /// Present only under a recording sink; every comm op then emits an
    /// event and sends feed the message-size histogram.
    tracer: Option<RankTracer>,
    msg_bytes: RefCell<Histogram>,
    /// Per-peer send/receive ordinals. Channels are FIFO per ordered pair,
    /// so the k-th send `s → d` is consumed by the k-th receive at `d` from
    /// `s`; stamping that ordinal on both events lets the critical-path
    /// analyzer re-match message flights offline.
    send_seq: RefCell<Vec<u64>>,
    recv_seq: RefCell<Vec<u64>>,
    /// Collective ordinal: all collectives serialize through one
    /// [`CollectivePoint`], and SPMD code calls them in the same order on
    /// every rank, so ordinal `k` names the same rendezvous everywhere.
    coll_seq: Cell<u64>,
    /// Link-sharing factors of the exchange round currently posting its
    /// sends: `(peer, factor > 1)` pairs set by
    /// [`Communicator::note_exchange_batch`] from the topology (a pure
    /// function of the neighbour list, never of scheduling) and cleared by
    /// [`Communicator::end_exchange_batch`]. Empty on flat topologies, so
    /// legacy runs never consult it.
    batch_factors: RefCell<Vec<(usize, f64)>>,
}

impl ThreadComm {
    /// Short-circuit with the latched error, if any.
    fn check(&self) -> Result<(), CommError> {
        match &*self.error.borrow() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Latch `err` (first error wins) and return it.
    fn latch(&self, err: CommError) -> CommError {
        let mut slot = self.error.borrow_mut();
        if slot.is_none() {
            *slot = Some(err.clone());
        }
        err
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn try_send_delayed(
        &self,
        to: usize,
        data: &[f64],
        extra_delay_s: f64,
    ) -> Result<(), CommError> {
        assert!(to < self.size && to != self.rank, "send: bad peer {to}");
        self.check()?;
        let bytes = std::mem::size_of_val(data);
        let factor = self
            .batch_factors
            .borrow()
            .iter()
            .find(|(peer, _)| *peer == to)
            .map_or(1.0, |(_, f)| *f);
        let flight = if factor > 1.0 {
            self.model
                .message_time_contended(self.size, self.rank, to, bytes, factor)
        } else {
            self.model
                .message_time_between(self.size, self.rank, to, bytes)
        };
        let arrival = self.clock.get() + flight + extra_delay_s;
        let sent = self.senders[to]
            .as_ref()
            .expect("sender exists for peers")
            .send(Msg {
                data: data.to_vec(),
                arrival,
            });
        if sent.is_err() {
            return Err(self.latch(CommError::Disconnected {
                rank: self.rank,
                peer: to,
            }));
        }
        let mut st = self.stats.borrow_mut();
        st.sends += 1;
        st.bytes_sent += bytes as u64;
        if factor > 1.0 {
            st.contended_sends += 1;
        }
        drop(st);
        let seq = {
            let mut seqs = self.send_seq.borrow_mut();
            let s = seqs[to];
            seqs[to] += 1;
            s
        };
        if let Some(tracer) = &self.tracer {
            let mut fields = vec![
                ("peer".to_string(), Value::U64(to as u64)),
                ("bytes".to_string(), Value::U64(bytes as u64)),
                ("seq".to_string(), Value::U64(seq)),
            ];
            if factor > 1.0 {
                let uncontended = self
                    .model
                    .message_time_between(self.size, self.rank, to, bytes);
                fields.push(("contention".to_string(), Value::F64(factor)));
                fields.push(("t_contention".to_string(), Value::F64(flight - uncontended)));
            }
            tracer.emit(EventKind::Send, "", self.clock.get(), fields);
            self.msg_bytes.borrow_mut().record(bytes as u64);
        }
        Ok(())
    }

    fn try_recv(&self, from: usize) -> Result<Vec<f64>, CommError> {
        assert!(
            from < self.size && from != self.rank,
            "recv: bad peer {from}"
        );
        self.check()?;
        let msg = self.receivers[from]
            .as_ref()
            .expect("receiver exists for peers")
            .recv_timeout(self.timeout);
        let msg = match msg {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => {
                return Err(self.latch(CommError::Timeout {
                    op: "recv",
                    rank: self.rank,
                    peer: Some(from),
                    waited_s: self.timeout.as_secs_f64(),
                }))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(self.latch(CommError::Disconnected {
                    rank: self.rank,
                    peer: from,
                }))
            }
        };
        let t_before = self.clock.get();
        self.clock.set(t_before.max(msg.arrival));
        let bytes = std::mem::size_of_val(&msg.data[..]);
        let mut st = self.stats.borrow_mut();
        st.recvs += 1;
        st.bytes_received += bytes as u64;
        drop(st);
        let seq = {
            let mut seqs = self.recv_seq.borrow_mut();
            let s = seqs[from];
            seqs[from] += 1;
            s
        };
        if let Some(tracer) = &self.tracer {
            tracer.emit(
                EventKind::Recv,
                "",
                self.clock.get(),
                vec![
                    ("peer".to_string(), Value::U64(from as u64)),
                    ("bytes".to_string(), Value::U64(bytes as u64)),
                    ("seq".to_string(), Value::U64(seq)),
                    ("t_before".to_string(), Value::F64(t_before)),
                    ("t_arrival".to_string(), Value::F64(msg.arrival)),
                ],
            );
        }
        Ok(msg.data)
    }

    fn try_allreduce_sum_into(&self, buf: &mut [f64]) -> Result<(), CommError> {
        self.check()?;
        let bytes = std::mem::size_of_val(&buf[..]);
        let t_before = self.clock.get();
        let coll = self.coll_seq.get();
        self.coll_seq.set(coll + 1);
        let (sum, max_clock) = self
            .collective
            .allreduce(self.rank, buf, t_before, self.timeout)
            .map_err(|e| self.latch(e))?;
        buf.copy_from_slice(&sum);
        self.clock
            .set(max_clock + self.model.allreduce_time(self.size, bytes));
        let mut st = self.stats.borrow_mut();
        st.allreduces += 1;
        st.allreduce_bytes += bytes as u64;
        drop(st);
        if let Some(tracer) = &self.tracer {
            tracer.emit(
                EventKind::Allreduce,
                "",
                self.clock.get(),
                vec![
                    ("bytes".to_string(), Value::U64(bytes as u64)),
                    ("coll".to_string(), Value::U64(coll)),
                    ("t_before".to_string(), Value::F64(t_before)),
                    ("t_sync".to_string(), Value::F64(max_clock)),
                ],
            );
        }
        Ok(())
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        self.check()?;
        let t_before = self.clock.get();
        let coll = self.coll_seq.get();
        self.coll_seq.set(coll + 1);
        let (_, max_clock) = self
            .collective
            .allreduce(self.rank, &[], t_before, self.timeout)
            .map_err(|e| self.latch(e))?;
        self.clock
            .set(max_clock + self.model.allreduce_time(self.size, 0));
        self.stats.borrow_mut().barriers += 1;
        if let Some(tracer) = &self.tracer {
            tracer.emit(
                EventKind::Barrier,
                "",
                self.clock.get(),
                vec![
                    ("coll".to_string(), Value::U64(coll)),
                    ("t_before".to_string(), Value::F64(t_before)),
                    ("t_sync".to_string(), Value::F64(max_clock)),
                ],
            );
        }
        Ok(())
    }

    fn status(&self) -> Result<(), CommError> {
        self.check()
    }

    fn post_error(&self, err: CommError) {
        self.latch(err);
    }

    fn work(&self, flops: u64) {
        self.clock
            .set(self.clock.get() + self.model.compute_time(flops));
        self.stats.borrow_mut().flops += flops;
    }

    fn virtual_time(&self) -> f64 {
        self.clock.get()
    }

    fn stats(&self) -> CommStats {
        *self.stats.borrow()
    }

    fn count_neighbor_exchange(&self) {
        self.stats.borrow_mut().neighbor_exchanges += 1;
        if let Some(tracer) = &self.tracer {
            tracer.emit(EventKind::Exchange, "", self.clock.get(), Vec::new());
        }
    }

    fn note_exchange_batch(&self, neighbors: &[usize]) {
        let factors = self
            .model
            .contention_factors(self.size, self.rank, neighbors);
        let mut slot = self.batch_factors.borrow_mut();
        slot.clear();
        for (&nb, &f) in neighbors.iter().zip(&factors) {
            if f > 1.0 {
                slot.push((nb, f));
            }
        }
    }

    fn end_exchange_batch(&self) {
        self.batch_factors.borrow_mut().clear();
    }

    fn tracer(&self) -> Option<&RankTracer> {
        self.tracer.as_ref()
    }
}

/// Per-rank summary returned by [`run_ranks`].
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Rank id.
    pub rank: usize,
    /// Final virtual time of the rank (modeled seconds).
    pub virtual_time: f64,
    /// Communication counters.
    pub stats: CommStats,
    /// What the rank's thread allocated over its closure (zeros unless a
    /// [`parfem_trace::alloc::CountingAlloc`] is installed). Ranks are
    /// threads and the counters are per thread, so this is the rank's own
    /// share, untouched by its peers.
    pub allocs: AllocStats,
}

/// Output of a parallel run.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank reports, indexed by rank.
    pub reports: Vec<RankReport>,
    /// Modeled parallel time: the maximum final virtual clock.
    pub modeled_time: f64,
}

/// A rank's closure panicked during a [`try_run_ranks`] run.
///
/// The panic is caught on the rank's own thread; the rank's report (and its
/// `rank_end` trace event) are still produced, and surviving ranks see the
/// dead rank's closed channels as [`CommError::Disconnected`] instead of
/// hanging.
#[derive(Debug, Clone)]
pub struct RankPanic {
    /// The rank that panicked.
    pub rank: usize,
    /// The panic payload, rendered as a string.
    pub message: String,
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankPanic {}

/// Knobs for a parallel run's failure handling.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Wall-clock watchdog for every blocking communicator wait (receives
    /// and collective rendezvous). A rank that waits longer surfaces
    /// [`CommError::Timeout`] instead of hanging forever. This is *real*
    /// time, unrelated to the virtual clock.
    pub comm_timeout: Duration,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            // Generous enough that a healthy run never trips it, short
            // enough that CI watchdogs see a typed error, not a hang.
            comm_timeout: Duration::from_secs(30),
        }
    }
}

/// Runs `f` on `p` ranks over OS threads and collects results and reports.
///
/// `f` receives each rank's [`ThreadComm`]; ranks communicate only through
/// it. The function blocks until every rank returns.
///
/// ```
/// use parfem_msg::{run_ranks, Communicator, MachineModel};
///
/// let out = run_ranks(4, MachineModel::sgi_origin(), |comm| {
///     comm.work(1_000_000); // report local compute to the virtual clock
///     comm.allreduce_sum_scalar(comm.rank() as f64)
/// });
/// assert_eq!(out.results, vec![6.0; 4]); // 0+1+2+3 on every rank
/// assert!(out.modeled_time > 0.0);
/// ```
///
/// # Panics
/// Panics if `p == 0` or if any rank panics (use [`try_run_ranks`] to get
/// per-rank results instead).
pub fn run_ranks<F, R>(p: usize, model: MachineModel, f: F) -> RunOutput<R>
where
    F: Fn(&ThreadComm) -> R + Send + Sync,
    R: Send,
{
    run_ranks_traced(p, model, &TraceSink::disabled(), f)
}

/// [`run_ranks`], recording structured events into `sink`.
///
/// Under a recording sink every rank gets a [`parfem_trace::RankTracer`]
/// (reachable from solver code via [`Communicator::tracer`]); all
/// point-to-point and collective operations emit events, per-message sizes
/// feed a histogram, and when a rank's closure returns a `rank_end` event is
/// stamped with the final virtual clock, the rank's modeled flops, and the
/// histogram. With [`TraceSink::disabled`] this is exactly [`run_ranks`].
///
/// # Panics
/// Panics if `p == 0` or if any rank panics (use [`try_run_ranks`] to get
/// per-rank results instead).
pub fn run_ranks_traced<F, R>(p: usize, model: MachineModel, sink: &TraceSink, f: F) -> RunOutput<R>
where
    F: Fn(&ThreadComm) -> R + Send + Sync,
    R: Send,
{
    let out = try_run_ranks(p, model, RunOptions::default(), sink, f);
    let results = out
        .results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("rank panicked: {}", e.message),
        })
        .collect();
    RunOutput {
        results,
        reports: out.reports,
        modeled_time: out.modeled_time,
    }
}

/// Fault-tolerant [`run_ranks_traced`]: rank panics become per-rank
/// [`RankPanic`] values instead of aborting the run.
///
/// Each rank's closure runs under `catch_unwind`; a panicking rank still
/// produces its [`RankReport`] (and `rank_end` trace event), and its
/// dropped channel endpoints make every surviving peer's next receive fail
/// fast with [`CommError::Disconnected`] rather than hang. Combined with
/// the wall-clock watchdog in [`RunOptions::comm_timeout`], a run with any
/// mixture of dead, killed, and healthy ranks always terminates: every
/// thread is joined before this function returns — no orphans.
///
/// # Panics
/// Panics if `p == 0`.
pub fn try_run_ranks<F, R>(
    p: usize,
    model: MachineModel,
    opts: RunOptions,
    sink: &TraceSink,
    f: F,
) -> RunOutput<Result<R, RankPanic>>
where
    F: Fn(&ThreadComm) -> R + Send + Sync,
    R: Send,
{
    assert!(p > 0, "need at least one rank");
    let model = Arc::new(model);
    let collective = Arc::new(CollectivePoint::new(p));

    // Channel matrix: channel (s, d) carries messages s -> d.
    let mut senders: Vec<Vec<Option<Sender<Msg>>>> = (0..p).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> = (0..p).map(|_| Vec::new()).collect();
    for s in 0..p {
        for d in 0..p {
            if s == d {
                senders[s].push(None);
            } else {
                let (tx, rx) = channel();
                senders[s].push(Some(tx));
                // Receiver slots arrive in increasing s order: pad the row
                // with None up to index s, then append.
                receivers[d].resize_with(s, || None);
                receivers[d].push(Some(rx));
            }
        }
    }
    for r in receivers.iter_mut() {
        r.resize_with(p, || None);
    }

    let mut comms: Vec<ThreadComm> = Vec::with_capacity(p);
    let receivers_iter = receivers.into_iter();
    for (rank, (tx_row, rx_row)) in senders.into_iter().zip(receivers_iter).enumerate() {
        comms.push(ThreadComm {
            rank,
            size: p,
            model: Arc::clone(&model),
            senders: tx_row,
            receivers: rx_row,
            collective: Arc::clone(&collective),
            clock: Cell::new(0.0),
            stats: RefCell::new(CommStats::default()),
            timeout: opts.comm_timeout,
            error: RefCell::new(None),
            tracer: sink.tracer(Some(rank)),
            msg_bytes: RefCell::new(Histogram::new()),
            send_seq: RefCell::new(vec![0; p]),
            recv_seq: RefCell::new(vec![0; p]),
            coll_seq: Cell::new(0),
            batch_factors: RefCell::new(Vec::new()),
        });
    }

    let f = &f;
    let outputs: Vec<(Result<R, RankPanic>, RankReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(move || {
                    let (result, allocs) = alloc::measure(|| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)))
                    });
                    let report = RankReport {
                        rank: comm.rank(),
                        virtual_time: comm.virtual_time(),
                        stats: comm.stats(),
                        allocs,
                    };
                    if let Some(tracer) = &comm.tracer {
                        let mut fields = vec![
                            ("flops".to_string(), Value::U64(report.stats.flops)),
                            ("t_virt_final".to_string(), Value::F64(report.virtual_time)),
                        ];
                        fields.extend(comm.msg_bytes.borrow().to_fields());
                        tracer.emit(EventKind::RankEnd, "", report.virtual_time, fields);
                    }
                    let result = result.map_err(|payload| RankPanic {
                        rank: report.rank,
                        message: panic_message(payload.as_ref()),
                    });
                    // Dropping `comm` drops its tracer, flushing this rank's
                    // buffered events into the sink in one lock acquisition
                    // — and closes its channels, so peers of a dead rank
                    // fail fast instead of waiting out the watchdog.
                    (result, report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread could not be joined"))
            .collect()
    });

    let mut results = Vec::with_capacity(p);
    let mut reports = Vec::with_capacity(p);
    for (r, rep) in outputs {
        results.push(r);
        reports.push(rep);
    }
    let modeled_time = reports
        .iter()
        .map(|r| r.virtual_time)
        .fold(0.0_f64, f64::max);
    RunOutput {
        results,
        reports,
        modeled_time,
    }
}

/// Renders a caught panic payload as a string (the common `&str` / `String`
/// payloads verbatim, anything else as a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = run_ranks(1, MachineModel::ideal(), |c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.size(), 1);
            c.work(100e6 as u64);
            c.allreduce_sum_scalar(5.0)
        });
        assert_eq!(out.results, vec![5.0]);
        assert!((out.modeled_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let out = run_ranks(4, MachineModel::ideal(), |c| {
            c.allreduce_sum_scalar(c.rank() as f64 + 1.0)
        });
        for r in out.results {
            assert_eq!(r, 10.0);
        }
    }

    #[test]
    fn allreduce_vector_is_deterministic_and_uniform() {
        // Sum of distinctly scaled vectors: every rank gets the exact same
        // floating-point result because summation is rank-ordered.
        let out = run_ranks(3, MachineModel::ideal(), |c| {
            let v = vec![0.1 * (c.rank() as f64 + 1.0); 5];
            c.allreduce_sum(&v)
        });
        let first = &out.results[0];
        for r in &out.results {
            assert_eq!(r, first);
        }
        for x in first {
            assert!((x - 0.6).abs() < 1e-15);
        }
    }

    #[test]
    fn point_to_point_ring_exchange() {
        let out = run_ranks(4, MachineModel::ideal(), |c| {
            let p = c.size();
            let next = (c.rank() + 1) % p;
            let prev = (c.rank() + p - 1) % p;
            c.send(next, &[c.rank() as f64]);
            let got = c.recv(prev);
            got[0]
        });
        assert_eq!(out.results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn messages_between_a_pair_stay_ordered() {
        let out = run_ranks(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                for k in 0..10 {
                    c.send(1, &[k as f64]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| c.recv(0)[0]).collect::<Vec<f64>>()
            }
        });
        assert_eq!(
            out.results[1],
            (0..10).map(|k| k as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn exchange_helper_swaps_buffers() {
        let out = run_ranks(2, MachineModel::ideal(), |c| {
            let other = 1 - c.rank();
            let data = vec![vec![c.rank() as f64 * 10.0 + 1.0; 3]];
            let got = c.exchange(&[other], &data);
            got[0][0]
        });
        assert_eq!(out.results, vec![11.0, 1.0]);
        assert_eq!(out.reports[0].stats.neighbor_exchanges, 1);
    }

    #[test]
    fn split_exchange_overlaps_compute_with_communication() {
        // Two symmetric ranks swap one buffer and compute `flops` of local
        // work. Blocking order (compute, then exchange) pays the sum of the
        // two phases; the split exchange (post sends, compute, receive)
        // pays max(compute, comm) — the overlap credit of
        // MachineModel::overlapped_time.
        let model = MachineModel::ibm_sp2();
        let flops = 1000u64; // ~17 µs compute vs ~40 µs latency
        let bytes = 3 * std::mem::size_of::<f64>();
        let compute = model.compute_time(flops);
        let comm = model.message_time(bytes);
        let blocking = run_ranks(2, model.clone(), |c| {
            let other = 1 - c.rank();
            c.work(flops);
            let mut out = vec![Vec::new()];
            c.exchange_into(&[other], &[vec![c.rank() as f64; 3]], &mut out);
            c.virtual_time()
        });
        let split = run_ranks(2, model.clone(), |c| {
            let other = 1 - c.rank();
            let handle = c.start_exchange(&[other], &[vec![c.rank() as f64; 3]]);
            c.work(flops);
            let mut out = vec![Vec::new()];
            c.finish_exchange(handle, &[other], &mut out);
            c.virtual_time()
        });
        for r in 0..2 {
            assert!((blocking.results[r] - (compute + comm)).abs() < 1e-12);
            assert!(
                (split.results[r] - model.overlapped_time(compute, comm)).abs() < 1e-12,
                "split exchange must cost max(compute, comm)"
            );
        }
        // Both forms count as one neighbour-exchange round and the same
        // message traffic.
        for (b, s) in blocking.reports.iter().zip(&split.reports) {
            assert_eq!(b.stats.neighbor_exchanges, s.stats.neighbor_exchanges);
            assert_eq!(b.stats.sends, s.stats.sends);
            assert_eq!(b.stats.bytes_sent, s.stats.bytes_sent);
        }
    }

    #[test]
    fn virtual_time_tracks_work_imbalance() {
        let out = run_ranks(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                c.work(300e6 as u64); // 3 s
            } else {
                c.work(100e6 as u64); // 1 s
            }
        });
        assert!((out.reports[0].virtual_time - 3.0).abs() < 1e-9);
        assert!((out.reports[1].virtual_time - 1.0).abs() < 1e-9);
        assert!((out.modeled_time - 3.0).abs() < 1e-9);
    }

    #[test]
    fn allreduce_synchronizes_clocks() {
        let out = run_ranks(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                c.work(200e6 as u64); // 2 s
            }
            c.allreduce_sum_scalar(1.0);
            c.virtual_time()
        });
        // The idle rank's clock jumps to the busy rank's 2 s.
        assert!((out.results[1] - 2.0).abs() < 1e-9, "{}", out.results[1]);
    }

    #[test]
    fn message_latency_advances_receiver_clock() {
        let model = MachineModel::flat("test", 0.5, f64::INFINITY, 1e9, 0.0);
        let out = run_ranks(2, model, |c| {
            if c.rank() == 0 {
                c.send(1, &[1.0]);
                0.0
            } else {
                c.recv(0);
                c.virtual_time()
            }
        });
        assert!((out.results[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delayed_send_charges_only_the_receiver() {
        let out = run_ranks(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                c.try_send_delayed(1, &[1.0], 2.5).expect("send");
                c.virtual_time()
            } else {
                c.recv(0);
                c.virtual_time()
            }
        });
        assert_eq!(out.results[0], 0.0, "sender clock untouched (eager send)");
        assert!((out.results[1] - 2.5).abs() < 1e-12, "receiver pays delay");
    }

    #[test]
    fn barrier_joins_all_ranks() {
        let out = run_ranks(3, MachineModel::ideal(), |c| {
            if c.rank() == 2 {
                c.work(100e6 as u64);
            }
            c.barrier();
            c.virtual_time() >= 1.0 - 1e-9
        });
        assert!(out.results.iter().all(|&b| b));
        assert!(out.reports.iter().all(|r| r.stats.barriers == 1));
    }

    #[test]
    fn stats_count_sends_and_reductions() {
        let out = run_ranks(2, MachineModel::ideal(), |c| {
            let other = 1 - c.rank();
            c.send(other, &[1.0, 2.0]);
            c.recv(other);
            c.allreduce_sum_scalar(1.0);
        });
        for rep in &out.reports {
            assert_eq!(rep.stats.sends, 1);
            assert_eq!(rep.stats.recvs, 1);
            assert_eq!(rep.stats.bytes_sent, 16);
            assert_eq!(rep.stats.allreduces, 1);
        }
    }

    #[test]
    fn modeled_speedup_of_balanced_work_is_linear_on_ideal_machine() {
        let total: u64 = 400e6 as u64;
        let t1 = run_ranks(1, MachineModel::ideal(), |c| c.work(total)).modeled_time;
        let t4 = run_ranks(4, MachineModel::ideal(), |c| c.work(total / 4)).modeled_time;
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_distributes_roots_buffer() {
        let out = run_ranks(4, MachineModel::ideal(), |c| {
            let data = if c.rank() == 2 {
                vec![7.0, 8.0]
            } else {
                vec![0.0, 0.0]
            };
            c.broadcast(2, &data)
        });
        for r in out.results {
            assert_eq!(r, vec![7.0, 8.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_ranks(3, MachineModel::ideal(), |c| {
            c.gather(0, &[c.rank() as f64 * 10.0])
        });
        let gathered = out.results[0].as_ref().expect("root gets the data");
        assert_eq!(gathered, &vec![vec![0.0], vec![10.0], vec![20.0]]);
        assert!(out.results[1].is_none());
        assert!(out.results[2].is_none());
    }

    #[test]
    fn gather_then_broadcast_round_trips() {
        // allgather emulation: gather at 0, flatten, broadcast back.
        let out = run_ranks(3, MachineModel::ideal(), |c| {
            let gathered = c.gather(0, &[c.rank() as f64 + 1.0]);
            let flat: Vec<f64> = gathered
                .map(|g| g.into_iter().flatten().collect())
                .unwrap_or_default();
            c.broadcast(0, &flat)
        });
        for r in out.results {
            assert_eq!(r, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn broadcast_costs_latency_on_receivers() {
        let model = MachineModel::flat("test", 1.0, f64::INFINITY, 1e9, 0.0);
        let out = run_ranks(2, model, |c| {
            let _ = c.broadcast(0, &[1.0]);
            c.virtual_time()
        });
        assert_eq!(out.results[0], 0.0, "sender pays nothing (eager send)");
        assert!((out.results[1] - 1.0).abs() < 1e-12, "receiver pays alpha");
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn self_send_panics_the_run() {
        // The offending rank panics with "bad peer"; run_ranks surfaces the
        // failure when joining.
        run_ranks(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                c.send(0, &[1.0]);
            } else {
                // Keep rank 1 from waiting on the dead rank.
            }
        });
    }

    #[test]
    fn try_run_captures_panics_per_rank() {
        let out = try_run_ranks(
            2,
            MachineModel::ideal(),
            RunOptions::default(),
            &TraceSink::disabled(),
            |c| {
                if c.rank() == 0 {
                    panic!("deliberate failure on rank 0");
                }
                c.rank()
            },
        );
        let err = out.results[0].as_ref().expect_err("rank 0 panicked");
        assert_eq!(err.rank, 0);
        assert!(err.message.contains("deliberate failure"));
        assert_eq!(*out.results[1].as_ref().expect("rank 1 survives"), 1);
        assert_eq!(out.reports.len(), 2);
    }

    #[test]
    fn dead_peer_surfaces_as_disconnected_not_hang() {
        let opts = RunOptions {
            comm_timeout: Duration::from_secs(5),
        };
        let start = Instant::now();
        let out = try_run_ranks(
            2,
            MachineModel::ideal(),
            opts,
            &TraceSink::disabled(),
            |c| {
                if c.rank() == 0 {
                    // Return immediately: rank 1's recv sees closed channels.
                    Ok(())
                } else {
                    c.try_recv(0).map(|_| ())
                }
            },
        );
        assert!(out.results[0].as_ref().expect("no panic").is_ok());
        let r1 = out.results[1].as_ref().expect("no panic");
        assert_eq!(
            *r1,
            Err(CommError::Disconnected { rank: 1, peer: 0 }),
            "{r1:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "disconnect must beat the watchdog"
        );
    }

    #[test]
    fn recv_timeout_fires_and_latches() {
        let opts = RunOptions {
            comm_timeout: Duration::from_millis(50),
        };
        let out = try_run_ranks(
            2,
            MachineModel::ideal(),
            opts,
            &TraceSink::disabled(),
            |c| {
                if c.rank() == 1 {
                    // Rank 0 never sends: the watchdog fires. The error
                    // latches, so the next operation fails instantly.
                    let first = c.try_recv(0);
                    let second_started = Instant::now();
                    let second = c.try_recv(0);
                    assert_eq!(first, second, "sticky error repeats");
                    assert!(
                        second_started.elapsed() < Duration::from_millis(40),
                        "latched error must short-circuit"
                    );
                    assert!(c.status().is_err());
                    matches!(first, Err(CommError::Timeout { op: "recv", .. }))
                } else {
                    // Keep rank 0 alive past rank 1's first watchdog window
                    // so the closed-channel (Disconnected) path cannot win.
                    std::thread::sleep(Duration::from_millis(80));
                    true
                }
            },
        );
        assert!(out.results.iter().all(|r| *r.as_ref().expect("no panic")));
    }

    #[test]
    fn allreduce_timeout_does_not_hang_survivors() {
        let opts = RunOptions {
            comm_timeout: Duration::from_millis(50),
        };
        let start = Instant::now();
        let out = try_run_ranks(
            3,
            MachineModel::ideal(),
            opts,
            &TraceSink::disabled(),
            |c| {
                if c.rank() == 0 {
                    // Never joins the collective.
                    Ok(0.0)
                } else {
                    c.try_allreduce_sum_scalar(1.0)
                }
            },
        );
        for r in 1..3 {
            let res = out.results[r].as_ref().expect("no panic");
            assert!(
                matches!(
                    res,
                    Err(CommError::Timeout {
                        op: "allreduce",
                        ..
                    })
                ),
                "rank {r}: {res:?}"
            );
        }
        assert!(start.elapsed() < Duration::from_secs(10), "no hang");
    }

    #[test]
    fn infallible_ops_latch_and_degrade() {
        let out = try_run_ranks(
            2,
            MachineModel::ideal(),
            RunOptions {
                comm_timeout: Duration::from_millis(50),
            },
            &TraceSink::disabled(),
            |c| {
                if c.rank() == 0 {
                    return (true, true);
                }
                // Infallible recv from a dead peer: empty buffer, latched
                // error, and subsequent allreduce degrades to identity.
                let got = c.recv(0);
                let sum = c.allreduce_sum(&[41.0]);
                (got.is_empty() && sum == vec![41.0], c.status().is_err())
            },
        );
        let (degraded, latched) = out.results[1].as_ref().expect("no panic");
        assert!(degraded, "degraded returns are identity-shaped");
        assert!(latched, "error latched for the solver to pick up");
    }

    #[test]
    fn untraced_run_exposes_no_tracer() {
        run_ranks(2, MachineModel::ideal(), |c| {
            assert!(c.tracer().is_none());
            c.barrier();
        });
    }

    /// Two nodes of two ranks: rank 0's batch to `[1, 2, 3]` has one free
    /// intra-node message and two cross-node messages sharing the node
    /// uplink (factor 2). The contended arrival is `α + 2·bytes/β`; the
    /// intra-node arrival is unaffected; a send outside the batch is
    /// uncontended again.
    #[test]
    fn contended_batch_charges_the_shared_uplink() {
        use crate::topology::{CollectiveAlgo, Link, Topology};
        let model = MachineModel {
            name: "2x2",
            flops_per_s: 1e9,
            topology: Topology::TwoLevel {
                node_size: 2,
                intra: Link::new(0.0, f64::INFINITY),
                inter: Link::new(1.0, 8.0), // 8 B (one f64) costs 1 s
            },
            collective: CollectiveAlgo::Tree,
        };
        let run = || {
            run_ranks(4, model.clone(), |c| {
                if c.rank() == 0 {
                    c.note_exchange_batch(&[1, 2, 3]);
                    for to in 1..4 {
                        c.send(to, &[1.0]);
                    }
                    c.end_exchange_batch();
                    c.stats().contended_sends as f64
                } else {
                    c.recv(0);
                    c.virtual_time()
                }
            })
        };
        let out = run();
        assert_eq!(out.results[0], 2.0, "two cross-node sends contend");
        assert_eq!(out.results[1], 0.0, "intra-node message is free");
        // α=1 + factor 2 × (8 B / 8 B/s) = 3 s on both uplink riders.
        assert!((out.results[2] - 3.0).abs() < 1e-12, "{}", out.results[2]);
        assert!((out.results[3] - 3.0).abs() < 1e-12);
        // Scheduling independence: a second run reproduces bit for bit.
        let again = run();
        assert_eq!(out.results, again.results);
    }

    /// The default `exchange` wires the batch hooks itself: an all-to-all
    /// on the two-level machine counts its cross-node sends as contended.
    #[test]
    fn exchange_on_hierarchical_topology_counts_contended_sends() {
        use crate::topology::{CollectiveAlgo, Link, Topology};
        let model = MachineModel {
            name: "2x2",
            flops_per_s: 1e9,
            topology: Topology::TwoLevel {
                node_size: 2,
                intra: Link::new(0.1, 1e9),
                inter: Link::new(1.0, 1e9),
            },
            collective: CollectiveAlgo::Tree,
        };
        let out = run_ranks(4, model, |c| {
            let neighbors: Vec<usize> = (0..4).filter(|&r| r != c.rank()).collect();
            let data: Vec<Vec<f64>> = neighbors.iter().map(|_| vec![1.0; 4]).collect();
            let _ = c.exchange(&neighbors, &data);
            c.stats()
        });
        for st in &out.results {
            assert_eq!(st.sends, 3);
            assert_eq!(st.contended_sends, 2, "two cross-node sends per rank");
        }
        // Flat machines never contend, even through the same helper.
        let flat = run_ranks(4, MachineModel::ideal(), |c| {
            let neighbors: Vec<usize> = (0..4).filter(|&r| r != c.rank()).collect();
            let data: Vec<Vec<f64>> = neighbors.iter().map(|_| vec![1.0; 4]).collect();
            let _ = c.exchange(&neighbors, &data);
            c.stats().contended_sends
        });
        assert!(flat.results.iter().all(|&n| n == 0));
    }

    #[test]
    fn traced_run_events_match_live_stats() {
        use parfem_trace::TraceReport;

        let sink = TraceSink::recording();
        let out = run_ranks_traced(3, MachineModel::sgi_origin(), &sink, |c| {
            assert!(c.tracer().is_some());
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.work(1_000_000);
            let _ = c.exchange(
                &[next, prev],
                &[vec![c.rank() as f64; 4], vec![c.rank() as f64; 2]],
            );
            c.send(prev, &[1.0, 2.0]);
            let _ = c.recv(next);
            c.allreduce_sum_scalar(1.0);
            c.barrier();
        });
        let report = TraceReport::from_events(&sink.take_events());
        assert_eq!(report.nranks(), 3);
        for rep in &out.reports {
            let traced = &report.ranks[rep.rank];
            assert_eq!(traced.comm.sends, rep.stats.sends);
            assert_eq!(traced.comm.bytes_sent, rep.stats.bytes_sent);
            assert_eq!(traced.comm.recvs, rep.stats.recvs);
            assert_eq!(traced.comm.bytes_received, rep.stats.bytes_received);
            assert_eq!(traced.comm.allreduces, rep.stats.allreduces);
            assert_eq!(traced.comm.allreduce_bytes, rep.stats.allreduce_bytes);
            assert_eq!(traced.comm.barriers, rep.stats.barriers);
            assert_eq!(traced.comm.neighbor_exchanges, rep.stats.neighbor_exchanges);
            assert_eq!(traced.comm.flops, rep.stats.flops);
            assert!((traced.final_virt - rep.virtual_time).abs() < 1e-15);
            let hist = traced.msg_bytes.as_ref().expect("histogram recorded");
            assert_eq!(hist.count(), rep.stats.sends);
            assert_eq!(hist.sum(), rep.stats.bytes_sent);
        }
    }
}
