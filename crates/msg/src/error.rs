//! Structured communication errors.
//!
//! Real message-passing substrates fail in a handful of well-understood
//! ways: a peer goes away (crash, early exit), a blocking operation never
//! completes (lost message, hung rank), or a transport gives up after its
//! retransmission budget. [`CommError`] gives each of those a typed,
//! `Display`-able representation so solvers can surface degraded runs as
//! `Result`s instead of panicking or deadlocking — the error taxonomy of
//! DESIGN.md §10.
//!
//! Errors are **sticky**: once a communicator endpoint observes one, every
//! subsequent fallible operation on that endpoint short-circuits with the
//! same error (see [`crate::Communicator::status`]). That guarantees a rank
//! pays the wall-clock watchdog at most once before its solve loop notices
//! and aborts — the "returns `Err` within the timeout budget" property the
//! chaos suite pins.

use std::fmt;

/// A structured failure of a communicator operation.
///
/// Programming errors (bad peer index, mismatched collective lengths) still
/// panic — they are bugs, not runtime conditions. `CommError` covers the
/// conditions a correct program can encounter on a degraded machine.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// A blocking operation exceeded the wall-clock watchdog.
    ///
    /// This is how a *silent* failure (peer hung, message lost without
    /// trace) surfaces: the receiver or collective waits `waited_s` real
    /// seconds and gives up instead of hanging forever.
    Timeout {
        /// The operation that timed out (`"recv"`, `"allreduce"`, …).
        op: &'static str,
        /// The rank that observed the timeout.
        rank: usize,
        /// The peer being waited on, when the operation has one.
        peer: Option<usize>,
        /// Wall-clock seconds waited before giving up.
        waited_s: f64,
    },
    /// The peer's endpoint was dropped — its rank returned early, errored
    /// out, or panicked. Unlike [`CommError::Timeout`] this is detected
    /// immediately (the mailbox is closed), so surviving ranks fail fast.
    Disconnected {
        /// The rank that observed the disconnect.
        rank: usize,
        /// The peer whose endpoint is gone.
        peer: usize,
    },
    /// This rank was killed by the active fault plan after `after_ops`
    /// communicator operations (the deterministic stand-in for a node
    /// crash). All of the rank's subsequent operations return this error.
    RankKilled {
        /// The killed rank.
        rank: usize,
        /// Operation count at which the kill fired.
        after_ops: u64,
    },
    /// A message could not be delivered within the retransmission budget:
    /// the fault plan dropped the original send and every retry.
    RetriesExhausted {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Sequence number of the undeliverable message.
        seq: u64,
        /// Attempts made (original send plus retries).
        attempts: u32,
    },
    /// A collective rendezvous was poisoned: a participant panicked while
    /// holding the rendezvous lock, leaving the shared state unusable.
    Poisoned,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                op,
                rank,
                peer,
                waited_s,
            } => match peer {
                Some(p) => write!(
                    f,
                    "rank {rank}: {op} from rank {p} timed out after {waited_s:.3}s"
                ),
                None => write!(f, "rank {rank}: {op} timed out after {waited_s:.3}s"),
            },
            CommError::Disconnected { rank, peer } => {
                write!(f, "rank {rank}: peer rank {peer} disconnected")
            }
            CommError::RankKilled { rank, after_ops } => {
                write!(f, "rank {rank} killed by fault plan after {after_ops} ops")
            }
            CommError::RetriesExhausted {
                from,
                to,
                seq,
                attempts,
            } => write!(
                f,
                "message {seq} from rank {from} to rank {to} undeliverable after {attempts} attempts"
            ),
            CommError::Poisoned => write!(f, "collective rendezvous poisoned by a rank panic"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parties() {
        let e = CommError::Timeout {
            op: "recv",
            rank: 0,
            peer: Some(3),
            waited_s: 1.5,
        };
        let s = e.to_string();
        assert!(s.contains("rank 0") && s.contains("rank 3") && s.contains("recv"));
        let e = CommError::RetriesExhausted {
            from: 1,
            to: 2,
            seq: 7,
            attempts: 5,
        };
        let s = e.to_string();
        assert!(s.contains("rank 1") && s.contains("rank 2") && s.contains('7'));
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let e = CommError::Disconnected { rank: 0, peer: 1 };
        assert_eq!(e.clone(), e);
        assert_ne!(e, CommError::Poisoned);
    }
}
