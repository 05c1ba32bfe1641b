//! `ThreadComm`: the communicator over OS threads and shared memory.
//!
//! Every rank is an OS thread. Point-to-point messages travel through one
//! **mailbox** per ordered rank pair (so messages between a pair stay in
//! order); collectives meet at one shared **rendezvous** that sums
//! contributions **in rank order** — parallel results are therefore
//! bit-for-bit deterministic and independent of scheduling.
//!
//! Steady-state communication allocates nothing and, when the peer is only
//! microseconds behind, does not sleep:
//! - a mailbox is a FIFO of payloads with their modeled arrival stamps, an
//!   atomic count of posted messages that the receiver polls without taking
//!   the lock, and a free list of payload buffers: the sender copies into a
//!   recycled buffer, and [`Communicator::try_recv_into`] swaps the filled
//!   buffer with the caller's (or copies, when the caller's is too small)
//!   and returns the buffer left over to the list;
//! - the rendezvous keeps one reused contribution slot per rank and one
//!   reused result buffer; an atomic word holds the generation and the
//!   arrival count, and the last rank to arrive sums the slots in rank order
//!   (the same left fold from `0.0` as a sequential reduction);
//! - every blocking wait follows one rule (`SPIN_BUDGET`): when the run
//!   has no more ranks than the host has hardware threads, spin for up to
//!   the budget, then park; otherwise park at once, so oversubscribed runs
//!   never burn a core a peer needs.
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
//! ([`RunOptions::comm_timeout`]). Dropping an endpoint closes its
//! mailboxes: a rank whose peer died drains what the peer had already sent
//! and then sees [`CommError::Disconnected`] immediately, and a send to a
//! dead rank fails the same way; a rank whose peer merely never sends gives
//! up after the watchdog ([`CommError::Timeout`]), and a rank that times out
//! in a collective withdraws its contribution. Errors latch on the endpoint
//! (see [`Communicator::status`]) so a degraded rank fails fast after its
//! first watchdog wait, and [`try_run_ranks`] converts rank panics into
//! per-rank [`RankPanic`] values instead of aborting the whole process.
//!
//! Tracing: [`run_ranks_traced`] hands each rank a
//! [`parfem_trace::RankTracer`], and every communicator operation then emits
//! a structured event stamped with both wall and virtual time — a recorded
//! run replays into the per-rank Gantt timeline and the Table-1
//! communication counts. A traced rank also times its blocking receives and
//! collective waits on the wall clock and stamps the totals as the rank
//! counters `comm_wait_recv_us` / `comm_wait_collective_us`. [`run_ranks`]
//! passes a disabled sink, so the untraced path pays one `Option` branch
//! per operation.
//!
//! Placement is the scheduler's. A host whose cpuset does not balance load
//! (`cpuset.sched_load_balance = 0`) can leave every rank thread on the CPU
//! that spawned them, so a traced rank stamps the CPU it ended on as the
//! rank counter `rank_cpu` (Linux `sched_getcpu`): a co-located run shows
//! one CPU for all ranks. Next to it goes `rank_minflt`, the minor page
//! faults the rank thread took over its life (Linux
//! `getrusage(RUSAGE_THREAD)`): the first touches of the pages its setup
//! buffers occupy, a cost no allocation counter shows.

use crate::comm::Communicator;
use crate::error::CommError;
use crate::model::MachineModel;
use crate::stats::CommStats;
use parfem_trace::alloc::{self, AllocStats};
use parfem_trace::{EventKind, Histogram, RankTracer, TraceSink, Value};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a waiting rank spins before it parks, when the run has no more
/// ranks than [`std::thread::available_parallelism`] (otherwise it parks at
/// once). A park/unpark round trip costs tens of microseconds of futex
/// syscalls and scheduler latency; inside a Krylov iteration the peer is
/// usually only that far behind. Sized on `elas2d-edd-gls7` and
/// `heat2d-rdd-multirhs` at P = 2 (EXPERIMENTS.md, "The thread
/// communicator"): against the channel substrate a 50 µs budget gave
/// −10.1 % / −9.3 % time to solution and 200 µs −11.3 % / −10.2 %, with CPU
/// time 4–6 % lower at both; heat2d, whose waits are longer, paid 4–8 %
/// more CPU when the host was busy.
const SPIN_BUDGET: Duration = Duration::from_micros(200);

/// Whether a run of `ranks` threads spins before parking: only when every
/// rank can have a hardware thread to itself.
fn spins(ranks: usize) -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    ranks <= *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The CPU the calling thread runs on (Linux `sched_getcpu`, which every
/// Rust program there already links from the C library; `None` elsewhere
/// or when the call fails).
fn current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
        }
        // SAFETY: no arguments; returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Locks `m`, ignoring poison: nothing panics while holding these locks,
/// and a rank panic elsewhere must not take its peers' mailboxes down.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A payload with its modeled arrival time.
struct Msg {
    data: Vec<f64>,
    arrival: f64,
}

/// The locked half of a mailbox.
#[derive(Default)]
struct Queue {
    /// Posted and not yet received, in send order.
    msgs: VecDeque<Msg>,
    /// Emptied payload buffers for the sender to fill next.
    free: Vec<Vec<f64>>,
}

/// Messages from one rank to another (padded to its own cache lines: the
/// two directions of a pair are written by different ranks).
#[repr(align(128))]
#[derive(Default)]
struct Mailbox {
    queue: Mutex<Queue>,
    /// Messages ever posted. The receiver compares it with its own receive
    /// count, so polling takes no lock.
    posted: AtomicU64,
    /// The sending endpoint was dropped: once the queue is drained, the
    /// receiver sees [`CommError::Disconnected`].
    sender_gone: AtomicBool,
    /// The receiving endpoint was dropped: sends fail.
    receiver_gone: AtomicBool,
}

/// Where a rank parks once its spin budget is spent.
#[repr(align(128))]
#[derive(Default)]
struct Parking {
    /// Set while the rank is parked (or about to park); a peer that changes
    /// anything the rank may be waiting for unparks it.
    waiting: AtomicBool,
    /// The rank's thread, registered the first time it parks.
    thread: OnceLock<Thread>,
}

/// One rank's reused contribution to the rendezvous.
#[repr(align(128))]
#[derive(Default)]
struct Slot(Mutex<(Vec<f64>, f64)>);

/// Low bits of [`Collective::state`]: ranks arrived at the current
/// generation. High 32 bits: the generation.
const ARRIVED: u64 = u32::MAX as u64;

/// The rendezvous behind all-reduce and barrier.
struct Collective {
    /// `generation << 32 | arrived`.
    state: AtomicU64,
    /// A participant called with a mismatched length; every later
    /// collective fails with [`CommError::Poisoned`].
    poisoned: AtomicBool,
    slots: Vec<Slot>,
    /// The last rank-ordered sum and the largest contributing clock.
    result: Mutex<(Vec<f64>, f64)>,
}

impl Collective {
    /// Sums the slots in rank order into the result and into `buf`, and
    /// returns the largest contributing clock; `None` when a slot's length
    /// differs from `buf`'s.
    fn reduce(&self, buf: &mut [f64]) -> Option<f64> {
        let mut result = lock(&self.result);
        let (sum, clock) = &mut *result;
        sum.clear();
        sum.resize(buf.len(), 0.0);
        let mut max_clock = 0.0_f64;
        for slot in &self.slots {
            let contribution = lock(&slot.0);
            if contribution.0.len() != buf.len() {
                return None;
            }
            for (s, x) in sum.iter_mut().zip(&contribution.0) {
                *s += x;
            }
            max_clock = max_clock.max(contribution.1);
        }
        *clock = max_clock;
        buf.copy_from_slice(sum);
        Some(max_clock)
    }

    /// Takes back one arrival at generation `generation` after a watchdog
    /// timeout. `false` when the rendezvous completed (or its last arriver
    /// is summing) meanwhile, so the result is valid after all.
    fn withdraw(&self, generation: u64) -> bool {
        loop {
            let s = self.state.load(SeqCst);
            if s >> 32 != generation {
                return false;
            }
            if (s & ARRIVED) as usize == self.slots.len() {
                std::thread::yield_now();
                continue;
            }
            if self
                .state
                .compare_exchange(s, s - 1, SeqCst, SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }
}

/// State shared by every endpoint of one run.
struct Shared {
    size: usize,
    /// The wait rule of this run (see [`SPIN_BUDGET`]).
    spin: bool,
    /// `mailboxes[from * size + to]` (the diagonal is unused).
    mailboxes: Vec<Mailbox>,
    parking: Vec<Parking>,
    collective: Collective,
}

impl Shared {
    fn new(size: usize) -> Self {
        Shared {
            size,
            spin: spins(size),
            mailboxes: (0..size * size).map(|_| Mailbox::default()).collect(),
            parking: (0..size).map(|_| Parking::default()).collect(),
            collective: Collective {
                state: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
                slots: (0..size).map(|_| Slot::default()).collect(),
                result: Mutex::new((Vec::new(), 0.0)),
            },
        }
    }

    fn mailbox(&self, from: usize, to: usize) -> &Mailbox {
        &self.mailboxes[from * self.size + to]
    }

    /// Blocks `rank` until `ready()` holds or `timeout` has passed (`false`).
    /// Spins first under the run's wait rule, then parks. `ready` must read
    /// with `SeqCst`, as [`Shared::wake`] does: the rank raises its
    /// `waiting` flag before its last look, the peer publishes before it
    /// looks at the flag, so at least one of them sees the other.
    fn wait(&self, rank: usize, timeout: Duration, ready: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        if self.spin {
            let budget = SPIN_BUDGET.min(timeout);
            while start.elapsed() < budget {
                std::hint::spin_loop();
                if ready() {
                    return true;
                }
            }
        }
        let parking = &self.parking[rank];
        parking.thread.get_or_init(std::thread::current);
        let done = loop {
            parking.waiting.store(true, SeqCst);
            if ready() {
                break true;
            }
            let waited = start.elapsed();
            if waited >= timeout {
                break false;
            }
            // Returns early on any unpark, stale ones included: the loop
            // re-checks.
            std::thread::park_timeout(timeout - waited);
        };
        parking.waiting.store(false, SeqCst);
        done
    }

    /// Unparks `rank` if it is parked (a spinning rank sees the change by
    /// itself).
    fn wake(&self, rank: usize) {
        let parking = &self.parking[rank];
        if parking.waiting.load(SeqCst) {
            if let Some(thread) = parking.thread.get() {
                thread.unpark();
            }
        }
    }

    /// Copies `data` into a recycled buffer and queues it for `to`; `false`
    /// when `to`'s endpoint is gone.
    fn post(&self, from: usize, to: usize, data: &[f64], arrival: f64) -> bool {
        let mb = self.mailbox(from, to);
        if mb.receiver_gone.load(SeqCst) {
            return false;
        }
        // Copy outside the lock: the receiver may be popping the previous
        // message meanwhile.
        let mut buf = lock(&mb.queue).free.pop().unwrap_or_default();
        buf.extend_from_slice(data);
        lock(&mb.queue).msgs.push_back(Msg { data: buf, arrival });
        mb.posted.fetch_add(1, SeqCst);
        self.wake(to);
        true
    }
}

/// One rank's endpoint of a threaded communicator.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    model: Arc<MachineModel>,
    shared: Arc<Shared>,
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
    /// Per-peer send/receive ordinals. Mailboxes are FIFO per ordered
    /// pair, so the k-th send `s → d` is consumed by the k-th receive at `d`
    /// from `s`; stamping that ordinal on both events lets the
    /// critical-path analyzer re-match message flights offline. The receive
    /// ordinal is also what a receiver compares a mailbox's `posted` count
    /// with.
    send_seq: RefCell<Vec<u64>>,
    recv_seq: RefCell<Vec<u64>>,
    /// Collective ordinal: all collectives serialize through one
    /// rendezvous, and SPMD code calls them in the same order on every
    /// rank, so ordinal `k` names the same rendezvous everywhere.
    coll_seq: Cell<u64>,
    /// Link-sharing factors of the exchange round currently posting its
    /// sends: `(peer, factor > 1)` pairs set by
    /// [`Communicator::note_exchange_batch`] from the topology (a pure
    /// function of the neighbour list, never of scheduling) and cleared by
    /// [`Communicator::end_exchange_batch`]. Empty on flat topologies, so
    /// legacy runs never consult it.
    batch_factors: RefCell<Vec<(usize, f64)>>,
    /// Wall-clock time spent blocked in receives and in collectives (timed
    /// only under a tracer).
    wait_recv: Cell<Duration>,
    wait_collective: Cell<Duration>,
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

    /// Waits under the watchdog until `ready()` (`false` on timeout), adding
    /// the wall time blocked to `total` when traced.
    fn wait(&self, total: &Cell<Duration>, ready: impl Fn() -> bool) -> bool {
        if ready() {
            return true;
        }
        let start = self.tracer.as_ref().map(|_| Instant::now());
        let done = self.shared.wait(self.rank, self.timeout, ready);
        if let Some(start) = start {
            total.set(total.get() + start.elapsed());
        }
        done
    }

    /// Contributes `buf` at virtual time `clock` and replaces it with the
    /// rank-ordered sum over all ranks; returns the largest contributing
    /// clock. A rank that waits past the watchdog withdraws its
    /// contribution, so a dead rank cannot hang the survivors.
    ///
    /// # Panics
    /// Panics (after failing every waiting peer with
    /// [`CommError::Poisoned`]) if the ranks' lengths differ.
    fn rendezvous(&self, buf: &mut [f64], clock: f64) -> Result<f64, CommError> {
        let shared = &*self.shared;
        if shared.size == 1 {
            return Ok(clock);
        }
        let coll = &shared.collective;
        if coll.poisoned.load(SeqCst) {
            return Err(CommError::Poisoned);
        }
        {
            let mut slot = lock(&coll.slots[self.rank].0);
            slot.0.clear();
            slot.0.extend_from_slice(buf);
            slot.1 = clock;
        }
        let before = coll.state.fetch_add(1, SeqCst);
        let generation = before >> 32;
        let next = (generation + 1) << 32;
        if (before & ARRIVED) as usize + 1 == shared.size {
            let sum = coll.reduce(buf);
            if sum.is_none() {
                coll.poisoned.store(true, SeqCst);
            }
            coll.state.store(next, SeqCst);
            (0..shared.size).for_each(|r| shared.wake(r));
            return Ok(sum.expect("allreduce called with mismatched lengths across ranks"));
        }
        let done = || coll.state.load(SeqCst) >> 32 != generation;
        if !self.wait(&self.wait_collective, done) && coll.withdraw(generation) {
            return Err(CommError::Timeout {
                op: "allreduce",
                rank: self.rank,
                peer: None,
                waited_s: self.timeout.as_secs_f64(),
            });
        }
        if coll.poisoned.load(SeqCst) {
            return Err(CommError::Poisoned);
        }
        let result = lock(&coll.result);
        buf.copy_from_slice(&result.0);
        Ok(result.1)
    }
}

impl Drop for ThreadComm {
    /// Closes this rank's mailboxes, so its peers drain what it sent and
    /// then fail fast instead of waiting out the watchdog.
    fn drop(&mut self) {
        let shared = &*self.shared;
        for peer in (0..shared.size).filter(|&p| p != self.rank) {
            shared
                .mailbox(peer, self.rank)
                .receiver_gone
                .store(true, SeqCst);
            shared
                .mailbox(self.rank, peer)
                .sender_gone
                .store(true, SeqCst);
            shared.wake(peer);
        }
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
        if !self.shared.post(self.rank, to, data, arrival) {
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
        let mut buf = Vec::new();
        self.try_recv_into(from, &mut buf)?;
        Ok(buf)
    }

    /// Swaps the payload into `buf` when `buf` can hold it (no copy) and
    /// copies it otherwise; the buffer left over goes back to the pair's
    /// free list for the sender's next message.
    fn try_recv_into(&self, from: usize, buf: &mut Vec<f64>) -> Result<(), CommError> {
        assert!(
            from < self.size && from != self.rank,
            "recv: bad peer {from}"
        );
        buf.clear();
        self.check()?;
        let mb = self.shared.mailbox(from, self.rank);
        let received = self.recv_seq.borrow()[from];
        let ready = || mb.posted.load(SeqCst) > received || mb.sender_gone.load(SeqCst);
        if !self.wait(&self.wait_recv, ready) {
            return Err(self.latch(CommError::Timeout {
                op: "recv",
                rank: self.rank,
                peer: Some(from),
                waited_s: self.timeout.as_secs_f64(),
            }));
        }
        let arrival = {
            let mut queue = lock(&mb.queue);
            let Some(mut msg) = queue.msgs.pop_front() else {
                return Err(self.latch(CommError::Disconnected {
                    rank: self.rank,
                    peer: from,
                }));
            };
            // Either way the pool keeps as many buffers as it had, so
            // receive buffers that live for one solve cannot drain it.
            if buf.capacity() >= msg.data.len() {
                std::mem::swap(buf, &mut msg.data);
            } else {
                buf.extend_from_slice(&msg.data);
                msg.data.clear();
            }
            queue.free.push(msg.data);
            msg.arrival
        };
        let t_before = self.clock.get();
        self.clock.set(t_before.max(arrival));
        let bytes = std::mem::size_of_val(&buf[..]);
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
                    ("t_arrival".to_string(), Value::F64(arrival)),
                ],
            );
        }
        Ok(())
    }

    fn try_allreduce_sum_into(&self, buf: &mut [f64]) -> Result<(), CommError> {
        self.check()?;
        let bytes = std::mem::size_of_val(&buf[..]);
        let t_before = self.clock.get();
        let coll = self.coll_seq.get();
        self.coll_seq.set(coll + 1);
        let max_clock = self.rendezvous(buf, t_before).map_err(|e| self.latch(e))?;
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
        let max_clock = self
            .rendezvous(&mut [], t_before)
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
        let mut slot = self.batch_factors.borrow_mut();
        slot.clear();
        for &nb in neighbors {
            let f = (self.model.topology).contention_factor(self.size, self.rank, nb, neighbors);
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
    /// threads and the counters are per thread, so a peer's own work is
    /// never charged here — except the message layer's pooled buffers: a
    /// mailbox pool belongs to a pair of ranks, and its growth is charged
    /// to whichever rank thread grows it (the sender copying into it, or
    /// the receiver copying out of a payload too large for its buffer).
    /// Per-rank counts of identical work therefore split by scheduling;
    /// only the sum over ranks is a stable pin.
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
/// dead rank's closed mailboxes as [`CommError::Disconnected`] instead of
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
/// dropped endpoint closes its mailboxes, so every surviving peer's next
/// receive fails fast with [`CommError::Disconnected`] rather than hang (once
/// it has drained what the dead rank sent). Combined with
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
    let shared = Arc::new(Shared::new(p));
    let comms: Vec<ThreadComm> = (0..p)
        .map(|rank| ThreadComm {
            rank,
            size: p,
            model: Arc::clone(&model),
            shared: Arc::clone(&shared),
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
            wait_recv: Cell::new(Duration::ZERO),
            wait_collective: Cell::new(Duration::ZERO),
        })
        .collect();

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
                        let micros = |d: &Cell<Duration>| d.get().as_micros() as u64;
                        tracer.add_count("comm_wait_recv_us", micros(&comm.wait_recv));
                        tracer.add_count("comm_wait_collective_us", micros(&comm.wait_collective));
                        if let Some(cpu) = current_cpu() {
                            tracer.add_count("rank_cpu", cpu as u64);
                        }
                        if let Some(faults) = alloc::minor_faults() {
                            tracer.add_count("rank_minflt", faults);
                        }
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
                    // — and closes its mailboxes, so peers of a dead rank
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
            let mut v = vec![0.1 * (c.rank() as f64 + 1.0); 5];
            c.allreduce_sum_into(&mut v);
            v
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
            c.try_send(next, &[c.rank() as f64]).unwrap();
            let got = c.try_recv(prev).unwrap();
            got[0]
        });
        assert_eq!(out.results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn messages_between_a_pair_stay_ordered() {
        let out = run_ranks(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                for k in 0..10 {
                    c.try_send(1, &[k as f64]).unwrap();
                }
                Vec::new()
            } else {
                (0..10)
                    .map(|_| c.try_recv(0).unwrap()[0])
                    .collect::<Vec<f64>>()
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
            let mut got = vec![Vec::new()];
            c.exchange_into(&[other], &data, &mut got);
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
                c.try_send(1, &[1.0]).unwrap();
                0.0
            } else {
                c.try_recv(0).unwrap();
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
                c.try_recv(0).unwrap();
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
            c.try_send(other, &[1.0, 2.0]).unwrap();
            c.try_recv(other).unwrap();
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
    #[should_panic(expected = "rank panicked")]
    fn self_send_panics_the_run() {
        // The offending rank panics with "bad peer"; run_ranks surfaces the
        // failure when joining.
        run_ranks(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                let _ = c.try_send(0, &[1.0]);
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
                let mut got = vec![1.0];
                c.recv_into(0, &mut got);
                let mut sum = [41.0];
                c.allreduce_sum_into(&mut sum);
                (got.is_empty() && sum == [41.0], c.status().is_err())
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
                        c.try_send(to, &[1.0]).unwrap();
                    }
                    c.end_exchange_batch();
                    c.stats().contended_sends as f64
                } else {
                    c.try_recv(0).unwrap();
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

    /// The default `exchange_into` wires the batch hooks itself: an all-to-all
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
            c.exchange_into(&neighbors, &data, &mut vec![Vec::new(); 3]);
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
            c.exchange_into(&neighbors, &data, &mut vec![Vec::new(); 3]);
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
            c.exchange_into(
                &[next, prev],
                &[vec![c.rank() as f64; 4], vec![c.rank() as f64; 2]],
                &mut [Vec::new(), Vec::new()],
            );
            c.try_send(prev, &[1.0, 2.0]).unwrap();
            c.try_recv(next).unwrap();
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

    /// A hundred messages of varying length queue up before the first
    /// receive; they come out in send order, through one reused buffer.
    #[test]
    fn deep_queue_stays_fifo_per_pair() {
        let payload = |k: usize| vec![k as f64; k % 7 + 1];
        let out = run_ranks(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                for k in 0..100 {
                    c.try_send(1, &payload(k)).unwrap();
                }
                c.barrier();
                true
            } else {
                // Past the barrier all 100 are queued.
                c.barrier();
                let mut buf = Vec::new();
                (0..100).all(|k| {
                    c.recv_into(0, &mut buf);
                    buf == payload(k)
                })
            }
        });
        assert!(out.results.iter().all(|&ok| ok));
        assert_eq!(out.reports[1].stats.recvs, 100);
    }

    /// A rank that returns drops its endpoint: its peer still receives
    /// everything it sent, then `Disconnected` at once, well inside the
    /// watchdog.
    #[test]
    fn dead_sender_delivers_its_queue_then_disconnects() {
        let opts = RunOptions {
            comm_timeout: Duration::from_secs(20),
        };
        let start = Instant::now();
        let out = try_run_ranks(
            2,
            MachineModel::ideal(),
            opts,
            &TraceSink::disabled(),
            |c| {
                if c.rank() == 0 {
                    for k in 0..3 {
                        c.try_send(1, &[k as f64]).unwrap();
                    }
                    return (Vec::new(), Ok(()));
                }
                // Receive only once rank 0's endpoint is gone.
                while !c.shared.mailbox(0, 1).sender_gone.load(SeqCst) {
                    std::thread::yield_now();
                }
                let got = (0..3).map(|_| c.try_recv(0).map(|m| m[0]));
                let got: Result<Vec<f64>, _> = got.collect();
                (
                    got.expect("queued messages survive the sender"),
                    c.try_recv(0).map(|_| ()),
                )
            },
        );
        let (got, after) = out.results[1].as_ref().expect("no panic");
        assert_eq!(got, &vec![0.0, 1.0, 2.0]);
        assert_eq!(*after, Err(CommError::Disconnected { rank: 1, peer: 0 }));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "no watchdog wait"
        );
    }

    #[test]
    fn send_to_dead_receiver_is_disconnected() {
        let out = try_run_ranks(
            2,
            MachineModel::ideal(),
            RunOptions::default(),
            &TraceSink::disabled(),
            |c| {
                if c.rank() == 1 {
                    return (Ok(()), Ok(()));
                }
                // Sends are queued eagerly while rank 1 lives; once its
                // endpoint is gone they fail, and the error latches.
                let start = Instant::now();
                let sent = loop {
                    match c.try_send(1, &[1.0]) {
                        Ok(()) if start.elapsed() < Duration::from_secs(10) => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        other => break other,
                    }
                };
                (sent, c.status())
            },
        );
        let (sent, status) = out.results[0].as_ref().expect("no panic");
        let dead = Err(CommError::Disconnected { rank: 0, peer: 1 });
        assert_eq!(*sent, dead);
        assert_eq!(*status, dead);
    }

    /// Every rank gets the bits of `0.0 + v₀ + v₁ + … + v_{P−1}`, summed left
    /// to right, whatever the arrival order — for every rank count and
    /// length, with one buffer reused over 1 000 rounds.
    #[test]
    fn allreduce_bits_equal_a_rank_order_fold() {
        // Non-zero values over seven binades, alternating in sign, so any
        // other summation order shows in the bits. Rank r contributes
        // `value(r, (i + round) % M)` at index i.
        const M: usize = 1009;
        let value = |rank: usize, k: usize| {
            let mantissa = ((rank * 7919 + k * 31) % 1000 + 1) as f64;
            let sign = if (rank + k).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            sign * mantissa * [1e-4, 1e-1, 1e2][rank % 3]
        };
        for p in [1, 2, 3, 4, 8] {
            let fold: Vec<f64> = (0..M)
                .map(|k| (0..p).fold(0.0, |s, r| s + value(r, k)))
                .collect();
            let out = run_ranks(p, MachineModel::ideal(), |c| {
                let mine: Vec<f64> = (0..M).map(|k| value(c.rank(), k)).collect();
                [0usize, 1, 27, 1000].iter().all(|&len| {
                    let mut buf = vec![0.0; len];
                    (0..1000).all(|round| {
                        for (i, x) in buf.iter_mut().enumerate() {
                            *x = mine[(i + round) % M];
                        }
                        c.allreduce_sum_into(&mut buf);
                        (buf.iter().enumerate())
                            .all(|(i, x)| x.to_bits() == fold[(i + round) % M].to_bits())
                    })
                })
            });
            assert!(out.results.iter().all(|&ok| ok), "P = {p}");
            assert!(out.reports.iter().all(|r| r.stats.allreduces == 4000));
        }
    }

    /// More ranks than hardware threads: every wait parks at once (a
    /// spinning rank would hold a core the rank it waits for needs), and a
    /// ring exchange plus 1 000 all-reduces finishes quickly — 0.04 s here,
    /// 1.1 s when forced to spin; one lost wakeup would sit out the 30 s
    /// watchdog.
    #[test]
    fn oversubscribed_run_parks_instead_of_spinning() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let p = 4 * cores;
        assert!(!spins(p) && spins(cores), "the wait rule of {p} ranks");
        let start = Instant::now();
        let out = run_ranks(p, MachineModel::ideal(), |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let mut buf = Vec::new();
            let mut acc = 0.0;
            for round in 0..1000 {
                c.try_send(next, &[(round + prev) as f64]).unwrap();
                c.recv_into(prev, &mut buf);
                acc += c.allreduce_sum_scalar(buf[0] - round as f64);
            }
            acc
        });
        // Each round sums every rank's predecessor, i.e. every rank once.
        let want = 1000.0 * (p * (p - 1) / 2) as f64;
        assert!(
            out.results.iter().all(|&acc| acc == want),
            "{:?}",
            out.results
        );
        let took = start.elapsed();
        assert!(took < Duration::from_secs(5), "{p} ranks took {took:?}");
    }
}
