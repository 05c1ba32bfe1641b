//! The communicator abstraction.
//!
//! Exactly the MPI subset the paper's algorithms use: paired point-to-point
//! messages on the subdomain interface graph, a summing all-reduce for the
//! Gram–Schmidt inner products, and a barrier. Implementations additionally
//! account virtual time (see [`crate::model`]) so modeled parallel
//! performance can be extracted from any run.
//!
//! # Failure model
//!
//! Every blocking operation has a fallible `try_*` form returning
//! [`CommError`] — a timeout on a hung peer, an immediate error on a
//! disconnected one, a typed give-up after a retransmission budget. The
//! plain (infallible) forms remain for setup code and tests: on failure
//! they **latch** the error on the endpoint (see [`Communicator::status`])
//! and degrade to a harmless no-op instead of panicking. Errors are sticky:
//! once latched, every subsequent fallible operation short-circuits with
//! the same error, so a degraded rank pays its wall-clock watchdog once and
//! then fails fast. Solver loops call `status()` at iteration boundaries to
//! convert a latched error into a typed solve failure.
//!
//! Programming errors — peer index out of range, self-send, mismatched
//! collective lengths — still panic: they are bugs, not runtime conditions.

use crate::error::CommError;
use crate::stats::CommStats;
use parfem_trace::RankTracer;

/// In-flight nonblocking neighbour exchange started by
/// [`Communicator::start_exchange`].
///
/// The handle records how many receives are still pending; it must be
/// passed back to [`Communicator::finish_exchange`] with the *same*
/// neighbour list to complete the round. Dropping it without finishing
/// leaves messages queued and the exchange-round accounting short, hence
/// `#[must_use]`.
#[must_use = "an exchange must be completed with finish_exchange"]
#[derive(Debug)]
pub struct ExchangeHandle {
    pending: usize,
}

impl ExchangeHandle {
    /// Number of receives still outstanding.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

/// A rank's endpoint into a `P`-way communicator.
pub trait Communicator {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Fallible send with an extra virtual-latency penalty: the message is
    /// charged `extra_delay_s` modeled seconds *on top of* the machine
    /// model's `α + bytes/β` before it becomes visible to the receiver's
    /// clock. This is the hook the fault layer uses to charge
    /// retransmission backoff and injected delays to virtual time without
    /// perturbing the sender's own clock (the eager-send semantics).
    ///
    /// Implementations without a virtual clock may ignore the penalty.
    ///
    /// # Errors
    /// [`CommError::Disconnected`] if the peer's endpoint is gone; any
    /// previously latched error (sticky failure).
    ///
    /// # Panics
    /// Panics if `to` is out of range or equal to this rank.
    fn try_send_delayed(
        &self,
        to: usize,
        data: &[f64],
        extra_delay_s: f64,
    ) -> Result<(), CommError>;

    /// Fallible form of [`Communicator::send`].
    ///
    /// # Errors
    /// See [`Communicator::try_send_delayed`].
    ///
    /// # Panics
    /// Panics if `to` is out of range or equal to this rank.
    fn try_send(&self, to: usize, data: &[f64]) -> Result<(), CommError> {
        self.try_send_delayed(to, data, 0.0)
    }

    /// Sends `data` to rank `to` (asynchronous, unbounded buffering — the
    /// classic MPI eager protocol, which makes paired exchanges
    /// deadlock-free). On communication failure the error is latched (see
    /// [`Communicator::status`]) and the call is a no-op.
    ///
    /// # Panics
    /// Panics if `to` is out of range or equal to this rank.
    fn send(&self, to: usize, data: &[f64]) {
        if let Err(e) = self.try_send(to, data) {
            self.post_error(e);
        }
    }

    /// Fallible form of [`Communicator::recv`]: blocks until the next
    /// message from `from` arrives or the wall-clock watchdog expires.
    ///
    /// # Errors
    /// [`CommError::Timeout`] after the watchdog,
    /// [`CommError::Disconnected`] if the peer's endpoint is gone, or any
    /// previously latched error.
    ///
    /// # Panics
    /// Panics if `from` is out of range or equal to this rank.
    fn try_recv(&self, from: usize) -> Result<Vec<f64>, CommError>;

    /// Receives the next message from rank `from`, blocking.
    ///
    /// Messages between a fixed pair of ranks arrive in send order. On
    /// communication failure (timeout, disconnected peer) the error is
    /// latched (see [`Communicator::status`]) and an **empty** buffer is
    /// returned, so downstream arithmetic degrades to a no-op until the
    /// caller checks `status()`.
    ///
    /// # Panics
    /// Panics if `from` is out of range or equal to this rank.
    fn recv(&self, from: usize) -> Vec<f64> {
        match self.try_recv(from) {
            Ok(msg) => msg,
            Err(e) => {
                self.post_error(e);
                Vec::new()
            }
        }
    }

    /// Fallible form of [`Communicator::recv_into`].
    ///
    /// # Errors
    /// See [`Communicator::try_recv`]. On error `buf` is cleared.
    fn try_recv_into(&self, from: usize, buf: &mut Vec<f64>) -> Result<(), CommError> {
        buf.clear();
        match self.try_recv(from) {
            Ok(msg) => {
                buf.extend_from_slice(&msg);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// [`Communicator::recv`] into a caller-owned buffer, so a persistent
    /// buffer absorbs repeated receives without per-message allocation on
    /// the receiving side (once its capacity has grown to the message
    /// size). `buf` is cleared and refilled; its capacity is reused. On
    /// communication failure the error is latched and `buf` stays empty.
    fn recv_into(&self, from: usize, buf: &mut Vec<f64>) {
        if let Err(e) = self.try_recv_into(from, buf) {
            self.post_error(e);
        }
    }

    /// Fallible in-place all-reduce: `buf` is replaced by the element-wise
    /// sum over all ranks (summed in rank order, so the outcome is
    /// deterministic). All ranks must call with equal lengths.
    ///
    /// # Errors
    /// [`CommError::Timeout`] if some rank never reaches the collective
    /// within the watchdog, [`CommError::Poisoned`] if a participant
    /// panicked mid-rendezvous, or any previously latched error.
    ///
    /// # Panics
    /// Panics if ranks call with mismatched lengths.
    fn try_allreduce_sum_into(&self, buf: &mut [f64]) -> Result<(), CommError>;

    /// Element-wise sum of `v` across all ranks; every rank receives the
    /// same result. On communication failure the error is latched and `v`
    /// is returned unchanged (the single-rank identity).
    fn allreduce_sum(&self, v: &[f64]) -> Vec<f64> {
        let mut out = v.to_vec();
        if let Err(e) = self.try_allreduce_sum_into(&mut out) {
            self.post_error(e);
            out.copy_from_slice(v);
        }
        out
    }

    /// Fallible allocating all-reduce.
    ///
    /// # Errors
    /// See [`Communicator::try_allreduce_sum_into`].
    fn try_allreduce_sum(&self, v: &[f64]) -> Result<Vec<f64>, CommError> {
        let mut out = v.to_vec();
        self.try_allreduce_sum_into(&mut out)?;
        Ok(out)
    }

    /// In-place variant of [`Communicator::allreduce_sum`]: `buf` is
    /// replaced by the element-wise sum over all ranks. Lets hot loops
    /// (the batched Gram–Schmidt reduction) reuse one persistent buffer
    /// instead of allocating a result vector per iteration. Counts as
    /// exactly one all-reduce, like the allocating form. On failure the
    /// error is latched and `buf` is left as it was.
    fn allreduce_sum_into(&self, buf: &mut [f64]) {
        if let Err(e) = self.try_allreduce_sum_into(buf) {
            self.post_error(e);
        }
    }

    /// Scalar all-reduce, in place on the stack (no allocation). On
    /// communication failure the error is latched and `v` is returned (the
    /// single-rank identity).
    fn allreduce_sum_scalar(&self, v: f64) -> f64 {
        let mut buf = [v];
        if let Err(e) = self.try_allreduce_sum_into(&mut buf) {
            self.post_error(e);
            return v;
        }
        buf[0]
    }

    /// Fallible scalar all-reduce.
    ///
    /// # Errors
    /// See [`Communicator::try_allreduce_sum_into`].
    fn try_allreduce_sum_scalar(&self, v: f64) -> Result<f64, CommError> {
        let mut buf = [v];
        self.try_allreduce_sum_into(&mut buf)?;
        Ok(buf[0])
    }

    /// Fallible form of [`Communicator::barrier`].
    ///
    /// # Errors
    /// See [`Communicator::try_allreduce_sum_into`].
    fn try_barrier(&self) -> Result<(), CommError>;

    /// Blocks until every rank reaches the barrier. On failure the error is
    /// latched and the call returns.
    fn barrier(&self) {
        if let Err(e) = self.try_barrier() {
            self.post_error(e);
        }
    }

    /// The endpoint's latched failure state: `Ok(())` while healthy, the
    /// first observed [`CommError`] once anything failed. Solver loops call
    /// this at iteration boundaries — the infallible operations degrade to
    /// no-ops after a failure, so checking here converts silent degradation
    /// into a typed error exactly once per solve.
    ///
    /// # Errors
    /// The first communication failure observed by this endpoint.
    fn status(&self) -> Result<(), CommError>;

    /// Latches `err` as this endpoint's failure state (first error wins).
    /// Called by the infallible wrappers; also available to wrappers such
    /// as the fault layer to record out-of-band failures.
    fn post_error(&self, err: CommError);

    /// Reports `flops` of local computation to the virtual clock.
    fn work(&self, flops: u64);

    /// This rank's current virtual time in modeled seconds.
    fn virtual_time(&self) -> f64;

    /// Snapshot of this rank's communication counters.
    fn stats(&self) -> CommStats;

    /// Increments the nearest-neighbour-exchange round counter (called once
    /// per `⊕Σ_{∂Ω}` operation by the distributed vector code).
    fn count_neighbor_exchange(&self);

    /// Announces the neighbour list of an exchange round *before* its sends
    /// are posted, so topology-aware endpoints can derive deterministic
    /// link-sharing (contention) factors for the batch — see
    /// [`Topology::contention_factors`](crate::topology::Topology::contention_factors).
    /// The default (and any flat-topology endpoint) is a no-op. Called by
    /// the default `exchange*` implementations; wrappers must forward it to
    /// their inner communicator.
    fn note_exchange_batch(&self, _neighbors: &[usize]) {}

    /// Closes the send half of an exchange round: batch contention factors
    /// stop applying to subsequent sends. Paired with
    /// [`Communicator::note_exchange_batch`]; default no-op.
    fn end_exchange_batch(&self) {}

    /// The structured-event tracer attached to this rank, when the run was
    /// started under a recording [`parfem_trace::TraceSink`]. Solver code
    /// uses this to emit per-iteration events and hot-path counters; the
    /// default (and any untraced run) is `None`, so instrumentation costs a
    /// single branch when tracing is off.
    fn tracer(&self) -> Option<&RankTracer> {
        None
    }

    /// Exchanges `data[k]` with `neighbors[k]` for all `k` and returns the
    /// received buffers in the same order. This is the communication kernel
    /// of the paper's interface sum: all sends are posted first, then all
    /// receives, so the exchange cannot deadlock.
    ///
    /// # Panics
    /// Panics if `neighbors` and `data` lengths differ.
    fn exchange(&self, neighbors: &[usize], data: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(
            neighbors.len(),
            data.len(),
            "exchange: neighbour/data length mismatch"
        );
        self.count_neighbor_exchange();
        self.note_exchange_batch(neighbors);
        for (&nb, buf) in neighbors.iter().zip(data) {
            self.send(nb, buf);
        }
        self.end_exchange_batch();
        neighbors.iter().map(|&nb| self.recv(nb)).collect()
    }

    /// [`Communicator::exchange`] into caller-owned receive buffers (one
    /// per neighbour, capacities reused across rounds). Counts as one
    /// neighbour-exchange round, like the allocating form.
    ///
    /// # Panics
    /// Panics if `neighbors`, `data` and `out` lengths differ.
    fn exchange_into(&self, neighbors: &[usize], data: &[Vec<f64>], out: &mut [Vec<f64>]) {
        if let Err(e) = self.try_exchange_into(neighbors, data, out) {
            self.post_error(e);
        }
    }

    /// Fallible form of [`Communicator::exchange_into`]: stops at the first
    /// failing send or receive.
    ///
    /// # Errors
    /// The first send/receive failure of the round.
    ///
    /// # Panics
    /// Panics if `neighbors`, `data` and `out` lengths differ.
    fn try_exchange_into(
        &self,
        neighbors: &[usize],
        data: &[Vec<f64>],
        out: &mut [Vec<f64>],
    ) -> Result<(), CommError> {
        assert_eq!(
            neighbors.len(),
            data.len(),
            "exchange_into: neighbour/data length mismatch"
        );
        assert_eq!(
            neighbors.len(),
            out.len(),
            "exchange_into: neighbour/output length mismatch"
        );
        self.count_neighbor_exchange();
        self.note_exchange_batch(neighbors);
        let mut sent = Ok(());
        for (&nb, buf) in neighbors.iter().zip(data) {
            if let Err(e) = self.try_send(nb, buf) {
                sent = Err(e);
                break;
            }
        }
        self.end_exchange_batch();
        sent?;
        for (&nb, buf) in neighbors.iter().zip(out.iter_mut()) {
            self.try_recv_into(nb, buf)?;
        }
        Ok(())
    }

    /// Nonblocking half of [`Communicator::exchange_into`]: posts the sends
    /// to every neighbour and returns immediately with an
    /// [`ExchangeHandle`], *without* waiting for the matching receives. The
    /// caller computes while the messages fly and completes the round with
    /// [`Communicator::finish_exchange`].
    ///
    /// Counts as the exchange round's single `count_neighbor_exchange`
    /// (the finish half counts nothing), so a split exchange is
    /// indistinguishable from a blocking one in the communication
    /// statistics.
    ///
    /// Under the virtual-time model this is what buys overlap: the sends
    /// are stamped with the clock *at posting time*, so a receiver that
    /// computes before collecting them advances to
    /// `max(own compute, message arrival)` instead of their sum — see
    /// [`MachineModel::overlapped_time`](crate::model::MachineModel::overlapped_time).
    ///
    /// On a send failure the error is latched and the remaining sends are
    /// skipped; the matching [`Communicator::finish_exchange`] then fails
    /// fast on the sticky error.
    ///
    /// # Panics
    /// Panics if `neighbors` and `data` lengths differ.
    fn start_exchange(&self, neighbors: &[usize], data: &[Vec<f64>]) -> ExchangeHandle {
        assert_eq!(
            neighbors.len(),
            data.len(),
            "start_exchange: neighbour/data length mismatch"
        );
        self.count_neighbor_exchange();
        self.note_exchange_batch(neighbors);
        for (&nb, buf) in neighbors.iter().zip(data) {
            if let Err(e) = self.try_send(nb, buf) {
                self.post_error(e);
                break;
            }
        }
        self.end_exchange_batch();
        ExchangeHandle {
            pending: neighbors.len(),
        }
    }

    /// Completes an exchange started by [`Communicator::start_exchange`]:
    /// receives one message from each neighbour, in neighbour order, into
    /// the caller-owned buffers. `neighbors` must be the list the exchange
    /// was started with. The modeled time this rank spends blocked on
    /// late messages is recorded as an `exchange-wait` span when tracing.
    /// On a receive failure the error is latched and the remaining buffers
    /// are cleared.
    ///
    /// # Panics
    /// Panics if the handle's pending count or `out` length disagrees with
    /// `neighbors`.
    fn finish_exchange(&self, handle: ExchangeHandle, neighbors: &[usize], out: &mut [Vec<f64>]) {
        assert_eq!(
            handle.pending,
            neighbors.len(),
            "finish_exchange: handle does not match neighbour list"
        );
        assert_eq!(
            neighbors.len(),
            out.len(),
            "finish_exchange: neighbour/output length mismatch"
        );
        let wait_start = self.virtual_time();
        for (&nb, buf) in neighbors.iter().zip(out.iter_mut()) {
            self.recv_into(nb, buf);
        }
        if let Some(tracer) = self.tracer() {
            tracer.span_begin("exchange-wait", wait_start);
            tracer.span_end("exchange-wait", self.virtual_time());
        }
    }

    /// Broadcasts `data` from `root` to every rank; all ranks (including
    /// the root) return the root's buffer. Flat fan-out over point-to-point
    /// messages — fine for the setup-phase uses it serves here.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    fn broadcast(&self, root: usize, data: &[f64]) -> Vec<f64> {
        assert!(root < self.size(), "broadcast: bad root {root}");
        if self.size() == 1 {
            return data.to_vec();
        }
        if self.rank() == root {
            for r in 0..self.size() {
                if r != root {
                    self.send(r, data);
                }
            }
            data.to_vec()
        } else {
            self.recv(root)
        }
    }

    /// Gathers every rank's buffer at `root`. The root receives the buffers
    /// in rank order (`Some(vec)` with `vec[r]` from rank `r`); other ranks
    /// return `None`.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    fn gather(&self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        assert!(root < self.size(), "gather: bad root {root}");
        if self.rank() == root {
            let mut out = Vec::with_capacity(self.size());
            for r in 0..self.size() {
                if r == root {
                    out.push(data.to_vec());
                } else {
                    out.push(self.recv(r));
                }
            }
            Some(out)
        } else {
            self.send(root, data);
            None
        }
    }
}

/// The one-rank communicator: the whole problem on rank 0 of 1. It has no
/// neighbours to message, its all-reduce is the identity, it keeps no clock
/// and no counters, and nothing on it can fail — which is what makes the
/// distributed solver loop over it the sequential solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfComm;

impl Communicator for SelfComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn try_send_delayed(&self, to: usize, _: &[f64], _: f64) -> Result<(), CommError> {
        panic!("SelfComm: rank 0 of 1 has no peer {to}")
    }

    fn try_recv(&self, from: usize) -> Result<Vec<f64>, CommError> {
        panic!("SelfComm: rank 0 of 1 has no peer {from}")
    }

    fn try_allreduce_sum_into(&self, _: &mut [f64]) -> Result<(), CommError> {
        Ok(())
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        Ok(())
    }

    fn status(&self) -> Result<(), CommError> {
        Ok(())
    }

    fn post_error(&self, _: CommError) {}

    fn work(&self, _: u64) {}

    fn virtual_time(&self) -> f64 {
        0.0
    }

    fn stats(&self) -> CommStats {
        CommStats::default()
    }

    fn count_neighbor_exchange(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_comm_reductions_are_the_identity() {
        let comm = SelfComm;
        assert_eq!((comm.rank(), comm.size()), (0, 1));
        let mut buf = [1.5, -2.0];
        comm.try_allreduce_sum_into(&mut buf).unwrap();
        assert_eq!(buf, [1.5, -2.0]);
        assert_eq!(comm.allreduce_sum_scalar(3.0), 3.0);
        assert_eq!(comm.exchange(&[], &[]), Vec::<Vec<f64>>::new());
        comm.barrier();
        comm.work(1_000);
        assert!(comm.status().is_ok());
        assert_eq!(comm.stats(), CommStats::default());
        assert_eq!(comm.virtual_time(), 0.0);
    }
}
