//! Critical-path analysis over a recorded trace: reconstructs the
//! cross-rank dependency chain that bounds the makespan.
//!
//! ## The dependency DAG
//!
//! In the virtual-time machine model every rank's clock advances for three
//! reasons only: local compute (`Comm::work`), waiting for a point-to-point
//! message (`recv` sets the clock to `max(own, arrival)`), and collective
//! rendezvous (`allreduce`/`barrier` set it to `max(all contributions) +
//! tree cost`). The trace records enough to replay those edges exactly:
//!
//! - every `send` carries a per-directed-pair sequence number `seq`; the
//!   channel between an ordered rank pair is FIFO, so the `k`-th send
//!   `s → d` matches the `k`-th recv on `d` from `s` (this stays true
//!   under fault injection, whose physical frames pass one-for-one
//!   through the same channel);
//! - every `recv` carries `seq`, the receiver clock *before* the receive
//!   (`t_before`), and the message arrival stamp (`t_arrival`); the recv
//!   blocked iff `t_arrival > t_before`;
//! - every `allreduce`/`barrier` carries a per-rank collective ordinal
//!   `coll` (all collectives serialise through one rendezvous, so ordinal
//!   `n` names the same rendezvous on every rank), the entry clock
//!   `t_before`, and the rendezvous maximum `t_sync`; the bounding
//!   contributor is the rank whose `t_before` equals `t_sync`.
//!
//! ## The walk
//!
//! [`CritPath::from_events`] walks *backwards* from the rank that finishes
//! last. At each step it scans that rank's comm events for the latest
//! *blocking* one; the gap above it is local compute. A blocking recv hops
//! to the matching send (the message flight becomes a `Message` segment);
//! a collective hops to its bounding contributor (the tree cost becomes a
//! `Collective` segment). Segments are contiguous by construction, so they
//! tile `[0, makespan]` exactly — the sum of segment lengths *equals* the
//! makespan, which the acceptance test asserts on a real P≥8 overlapped
//! solve.

use crate::aggregate::TraceReport;
use crate::event::{EventKind, TraceEvent};
use crate::json::Json;
use std::collections::HashMap;
use std::fmt::Write as _;

/// What one critical-path segment spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local compute (including the time under any non-blocking comm).
    Compute,
    /// A point-to-point message in flight (send stamp → arrival stamp).
    Message,
    /// Collective tree cost (rendezvous maximum → post-collective clock).
    Collective,
}

impl SegmentKind {
    /// Stable lower-case label (`compute`/`message`/`collective`).
    pub fn as_str(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Message => "message",
            SegmentKind::Collective => "collective",
        }
    }
}

/// One contiguous span of the makespan-bounding chain.
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// The rank the chain runs on during this span (for a `Message`
    /// segment: the *receiving* rank; the sender is named in `detail`).
    pub rank: usize,
    /// Segment start, virtual seconds.
    pub t0: f64,
    /// Segment end, virtual seconds (`t1 >= t0`).
    pub t1: f64,
    /// What the time went on.
    pub kind: SegmentKind,
    /// Human-readable annotation (`"r2→r3 seq 41 (88B)"`,
    /// `"allreduce #17"`, …). Empty for plain compute.
    pub detail: String,
}

impl PathSegment {
    /// Segment length in virtual seconds.
    pub fn len(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Whether the segment has zero virtual extent.
    pub fn is_empty(&self) -> bool {
        self.t1 <= self.t0
    }
}

/// Per-rank wait/busy decomposition over the whole run (not only the
/// critical chain).
#[derive(Debug, Clone)]
pub struct RankWaits {
    /// The rank.
    pub rank: usize,
    /// The rank's final virtual clock.
    pub final_virt: f64,
    /// Time blocked on point-to-point receives (`Σ max(0, arrival − before)`).
    pub recv_wait: f64,
    /// Time waiting at collective rendezvous for slower ranks
    /// (`Σ max(0, t_sync − t_before)`).
    pub collective_wait: f64,
    /// Collective tree cost charged after rendezvous (`Σ (post − t_sync)`).
    pub collective_cost: f64,
    /// Residual busy time: `final_virt` minus all waits and costs.
    pub busy: f64,
    /// Idle tail between this rank's end and the makespan.
    pub idle_tail: f64,
}

/// The analysis result: the bounding chain plus whole-run attribution.
#[derive(Debug, Clone)]
pub struct CritPath {
    /// Number of ranks seen in the trace.
    pub nranks: usize,
    /// The observed makespan (max final virtual clock).
    pub makespan: f64,
    /// The rank that finishes last (the walk's starting point).
    pub bound_rank: usize,
    /// The bounding chain, ordered forward in time, tiling `[0, makespan]`.
    pub segments: Vec<PathSegment>,
    /// Virtual seconds of the chain spent in local compute.
    pub path_compute: f64,
    /// Virtual seconds of the chain spent in message flight.
    pub path_message: f64,
    /// Portion of `path_message` attributable to link contention — the
    /// extra flight time the topology's bandwidth-sharing model charged
    /// the path's messages beyond their uncontended cost. Zero on flat
    /// (dedicated-wire) machine models.
    pub path_contention: f64,
    /// Virtual seconds of the chain spent in collective cost.
    pub path_collective: f64,
    /// Per-rank wait decomposition over the whole run.
    pub ranks: Vec<RankWaits>,
    /// Modeled parallel efficiency vs ideal:
    /// `Σ busy / (nranks × makespan)` — 1.0 means every rank computed the
    /// whole time.
    pub efficiency: f64,
}

/// One comm event in a rank's virtual-time order, pre-digested for the walk.
#[derive(Debug, Clone, Copy)]
struct CommEv {
    t_virt: f64,
    kind: EventKind,
    peer: usize,
    seq: u64,
    bytes: u64,
    t_before: f64,
    t_arrival: f64,
    t_sync: f64,
    coll: u64,
    t_cont: f64,
}

impl CritPath {
    /// Reconstructs the critical path from a recorded event stream.
    ///
    /// Events missing the matching fields (`seq`, `t_before`, …) — e.g.
    /// traces recorded before the fields existed — degrade gracefully: a
    /// recv without a matchable send is attributed as message wait on the
    /// receiving rank, and the walk continues locally.
    pub fn from_events(events: &[TraceEvent]) -> CritPath {
        // ---- gather per-rank comm events (virtual-time order == recorded
        // order per rank: clocks are monotone and take_events is stable).
        let mut per_rank: Vec<Vec<CommEv>> = Vec::new();
        let mut finals: Vec<f64> = Vec::new();
        let at = |v: &mut Vec<Vec<CommEv>>, f: &mut Vec<f64>, r: usize| {
            while v.len() <= r {
                v.push(Vec::new());
                f.push(0.0);
            }
        };
        for ev in events {
            let Some(rank) = ev.rank else { continue };
            at(&mut per_rank, &mut finals, rank);
            match ev.kind {
                EventKind::Send | EventKind::Recv => {
                    per_rank[rank].push(CommEv {
                        t_virt: ev.t_virt,
                        kind: ev.kind,
                        peer: ev.u64("peer").unwrap_or(u64::MAX) as usize,
                        seq: ev.u64("seq").unwrap_or(u64::MAX),
                        bytes: ev.u64("bytes").unwrap_or(0),
                        t_before: ev.f64("t_before").unwrap_or(ev.t_virt),
                        t_arrival: ev.f64("t_arrival").unwrap_or(ev.t_virt),
                        t_sync: 0.0,
                        coll: 0,
                        t_cont: ev.f64("t_contention").unwrap_or(0.0),
                    });
                }
                EventKind::Allreduce | EventKind::Barrier => {
                    per_rank[rank].push(CommEv {
                        t_virt: ev.t_virt,
                        kind: ev.kind,
                        peer: usize::MAX,
                        seq: u64::MAX,
                        bytes: ev.u64("bytes").unwrap_or(0),
                        t_before: ev.f64("t_before").unwrap_or(ev.t_virt),
                        t_arrival: 0.0,
                        t_sync: ev.f64("t_sync").unwrap_or(ev.t_virt),
                        coll: ev.u64("coll").unwrap_or(u64::MAX),
                        t_cont: 0.0,
                    });
                }
                EventKind::RankEnd => {
                    let fv = ev.f64("t_virt_final").unwrap_or(ev.t_virt);
                    finals[rank] = finals[rank].max(fv);
                }
                _ => {}
            }
            finals[rank] = finals[rank].max(ev.t_virt);
        }
        let nranks = per_rank.len();
        let makespan = finals.iter().cloned().fold(0.0, f64::max);

        // ---- indices for the hops.
        // (src, dst, seq) -> (index in src's list, send stamp, contention
        // delay the model charged this message).
        let mut send_index: HashMap<(usize, usize, u64), (usize, f64, f64)> = HashMap::new();
        // coll ordinal -> [(rank, index, t_before)].
        let mut coll_index: HashMap<u64, Vec<(usize, usize, f64)>> = HashMap::new();
        for (rank, evs) in per_rank.iter().enumerate() {
            for (i, e) in evs.iter().enumerate() {
                match e.kind {
                    EventKind::Send if e.seq != u64::MAX && e.peer != usize::MAX => {
                        send_index.insert((rank, e.peer, e.seq), (i, e.t_virt, e.t_cont));
                    }
                    EventKind::Allreduce | EventKind::Barrier if e.coll != u64::MAX => {
                        coll_index
                            .entry(e.coll)
                            .or_default()
                            .push((rank, i, e.t_before));
                    }
                    _ => {}
                }
            }
        }

        // ---- per-rank wait decomposition (whole run, path-independent).
        let mut ranks: Vec<RankWaits> = Vec::new();
        let mut busy_total = 0.0;
        for (rank, evs) in per_rank.iter().enumerate() {
            let mut recv_wait = 0.0;
            let mut coll_wait = 0.0;
            let mut coll_cost = 0.0;
            for e in evs {
                match e.kind {
                    EventKind::Recv => recv_wait += (e.t_arrival - e.t_before).max(0.0),
                    EventKind::Allreduce | EventKind::Barrier => {
                        coll_wait += (e.t_sync - e.t_before).max(0.0);
                        coll_cost += (e.t_virt - e.t_sync).max(0.0);
                    }
                    _ => {}
                }
            }
            let busy = (finals[rank] - recv_wait - coll_wait - coll_cost).max(0.0);
            busy_total += busy;
            ranks.push(RankWaits {
                rank,
                final_virt: finals[rank],
                recv_wait,
                collective_wait: coll_wait,
                collective_cost: coll_cost,
                busy,
                idle_tail: (makespan - finals[rank]).max(0.0),
            });
        }
        let efficiency = if nranks > 0 && makespan > 0.0 {
            busy_total / (nranks as f64 * makespan)
        } else {
            1.0
        };

        // ---- the backward walk.
        let mut segments: Vec<PathSegment> = Vec::new();
        let mut path_contention = 0.0f64;
        let bound_rank = finals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(r, _)| r);
        if nranks > 0 && makespan > 0.0 {
            let mut cursor: Vec<usize> = per_rank.iter().map(Vec::len).collect();
            let mut r = bound_rank;
            let mut t = finals[r];
            // Each step strictly decreases Σ cursor, so the walk terminates.
            loop {
                // Latest blocking event below the cursor.
                let mut hit = None;
                while cursor[r] > 0 {
                    let e = per_rank[r][cursor[r] - 1];
                    cursor[r] -= 1;
                    let blocking = match e.kind {
                        EventKind::Recv => e.t_arrival > e.t_before,
                        EventKind::Allreduce | EventKind::Barrier => true,
                        _ => false,
                    };
                    if blocking {
                        hit = Some(e);
                        break;
                    }
                }
                let Some(e) = hit else {
                    if t > 0.0 {
                        segments.push(PathSegment {
                            rank: r,
                            t0: 0.0,
                            t1: t,
                            kind: SegmentKind::Compute,
                            detail: String::new(),
                        });
                    }
                    break;
                };
                // Compute gap between the blocking event and the cursor time.
                if t > e.t_virt {
                    segments.push(PathSegment {
                        rank: r,
                        t0: e.t_virt,
                        t1: t,
                        kind: SegmentKind::Compute,
                        detail: String::new(),
                    });
                }
                match e.kind {
                    EventKind::Recv => {
                        let matched = send_index.get(&(e.peer, r, e.seq)).copied();
                        if let Some((sidx, s_stamp, s_cont)) = matched {
                            let detail = if s_cont > 0.0 {
                                path_contention += s_cont.min((e.t_virt - s_stamp).max(0.0));
                                format!(
                                    "r{}→r{} seq {} ({}B, +{:.3e}s contention)",
                                    e.peer, r, e.seq, e.bytes, s_cont
                                )
                            } else {
                                format!("r{}→r{} seq {} ({}B)", e.peer, r, e.seq, e.bytes)
                            };
                            segments.push(PathSegment {
                                rank: r,
                                t0: s_stamp,
                                t1: e.t_virt,
                                kind: SegmentKind::Message,
                                detail,
                            });
                            cursor[e.peer] = cursor[e.peer].min(sidx);
                            r = e.peer;
                            t = s_stamp;
                        } else {
                            // Unmatchable (legacy trace): attribute the wait
                            // here and continue locally.
                            segments.push(PathSegment {
                                rank: r,
                                t0: e.t_before,
                                t1: e.t_virt,
                                kind: SegmentKind::Message,
                                detail: format!("recv from r{} (unmatched)", e.peer),
                            });
                            t = e.t_before;
                        }
                    }
                    EventKind::Allreduce | EventKind::Barrier => {
                        let label = if e.kind == EventKind::Allreduce {
                            "allreduce"
                        } else {
                            "barrier"
                        };
                        segments.push(PathSegment {
                            rank: r,
                            t0: e.t_sync,
                            t1: e.t_virt,
                            kind: SegmentKind::Collective,
                            detail: if e.coll != u64::MAX {
                                format!("{label} #{}", e.coll)
                            } else {
                                label.to_string()
                            },
                        });
                        // Hop to the bounding contributor: the entry whose
                        // clock equals the rendezvous maximum (tie → lowest
                        // rank, matching the deterministic reduction order).
                        let bounding = coll_index.get(&e.coll).and_then(|entries| {
                            entries
                                .iter()
                                .filter(|(_, _, b)| *b >= e.t_sync)
                                .min_by_key(|(rank, _, _)| *rank)
                                .copied()
                        });
                        if let Some((q, qidx, _)) = bounding {
                            if q != r {
                                cursor[q] = cursor[q].min(qidx);
                                r = q;
                            }
                        }
                        t = e.t_sync;
                    }
                    _ => unreachable!("only blocking kinds reach here"),
                }
                if t <= 0.0 {
                    break;
                }
            }
            segments.reverse();
        }

        let mut path_compute = 0.0;
        let mut path_message = 0.0;
        let mut path_collective = 0.0;
        for s in &segments {
            match s.kind {
                SegmentKind::Compute => path_compute += s.len(),
                SegmentKind::Message => path_message += s.len(),
                SegmentKind::Collective => path_collective += s.len(),
            }
        }

        CritPath {
            nranks,
            makespan,
            bound_rank,
            segments,
            path_compute,
            path_message,
            path_contention,
            path_collective,
            ranks,
            efficiency,
        }
    }

    /// Convenience: analyze the same event stream a [`TraceReport`] was
    /// built from and cross-check the makespans agree.
    pub fn from_report_events(report: &TraceReport, events: &[TraceEvent]) -> CritPath {
        let cp = Self::from_events(events);
        debug_assert!((cp.makespan - report.makespan_virt()).abs() <= 1e-12 * cp.makespan.max(1.0));
        cp
    }

    /// Total virtual length of the chain — equals [`CritPath::makespan`]
    /// up to floating-point summation (asserted by tests).
    pub fn path_length(&self) -> f64 {
        self.path_compute + self.path_message + self.path_collective
    }

    /// Exports the analysis as one JSON document (schema
    /// `parfem-critpath-v1`, indented layout of [`crate::json`]).
    pub fn to_json(&self) -> String {
        let segments = self.segments.iter().map(|s| {
            Json::obj([
                ("rank", s.rank.into()),
                ("t0", s.t0.into()),
                ("t1", s.t1.into()),
                ("kind", s.kind.as_str().into()),
                ("detail", s.detail.as_str().into()),
            ])
        });
        let ranks = self.ranks.iter().map(|r| {
            Json::obj([
                ("rank", r.rank.into()),
                ("final_virt", r.final_virt.into()),
                ("recv_wait", r.recv_wait.into()),
                ("collective_wait", r.collective_wait.into()),
                ("collective_cost", r.collective_cost.into()),
                ("busy", r.busy.into()),
                ("idle_tail", r.idle_tail.into()),
            ])
        });
        let path = Json::obj([
            ("compute", self.path_compute.into()),
            ("message", self.path_message.into()),
            ("contention", self.path_contention.into()),
            ("collective", self.path_collective.into()),
        ]);
        Json::obj([
            ("schema", "parfem-critpath-v1".into()),
            ("nranks", self.nranks.into()),
            ("bound_rank", self.bound_rank.into()),
            ("makespan", self.makespan.into()),
            ("efficiency", self.efficiency.into()),
            ("path", path),
            ("segments", Json::Arr(segments.collect())),
            ("ranks", Json::Arr(ranks.collect())),
        ])
        .to_indented()
    }
}

/// Renders the analysis as plain text: headline attribution, the per-rank
/// wait table, and the bounding chain (compute runs merged for brevity).
pub fn render_critical_path(cp: &CritPath) -> String {
    fn pct(part: f64, whole: f64) -> f64 {
        if whole > 0.0 {
            100.0 * part / whole
        } else {
            0.0
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical path: makespan {:.6e}s bound by rank {} ({} ranks, modeled efficiency {:.1}%)",
        cp.makespan,
        cp.bound_rank,
        cp.nranks,
        100.0 * cp.efficiency
    );
    let _ = writeln!(
        out,
        "path attribution: compute {:.6e}s ({:.1}%)  message {:.6e}s ({:.1}%, {:.6e}s contention)  collective {:.6e}s ({:.1}%)",
        cp.path_compute,
        pct(cp.path_compute, cp.makespan),
        cp.path_message,
        pct(cp.path_message, cp.makespan),
        cp.path_contention,
        cp.path_collective,
        pct(cp.path_collective, cp.makespan),
    );
    let _ = writeln!(
        out,
        "{:>5} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "rank", "busy", "recv-wait", "coll-wait", "coll-cost", "idle-tail", "end"
    );
    for r in &cp.ranks {
        let _ = writeln!(
            out,
            "{:>5} {:>13.6e} {:>13.6e} {:>13.6e} {:>13.6e} {:>13.6e} {:>13.6e}",
            r.rank,
            r.busy,
            r.recv_wait,
            r.collective_wait,
            r.collective_cost,
            r.idle_tail,
            r.final_virt
        );
    }
    // The chain, compressed: consecutive segments on one rank with one kind
    // merge; long compute runs dominate, so cap the listing.
    let _ = writeln!(out, "bounding chain ({} segments):", cp.segments.len());
    let mut shown = 0usize;
    const MAX_SHOWN: usize = 40;
    let mut i = 0usize;
    while i < cp.segments.len() && shown < MAX_SHOWN {
        let s = &cp.segments[i];
        let mut t1 = s.t1;
        let mut j = i + 1;
        while j < cp.segments.len()
            && cp.segments[j].rank == s.rank
            && cp.segments[j].kind == s.kind
        {
            t1 = cp.segments[j].t1;
            j += 1;
        }
        let _ = writeln!(
            out,
            "  [{:>12.6e} .. {:>12.6e}] rank {:>3} {:<10} {}",
            s.t0,
            t1,
            s.rank,
            s.kind.as_str(),
            if j > i + 1 {
                format!("({} merged)", j - i)
            } else {
                s.detail.clone()
            }
        );
        shown += 1;
        i = j;
    }
    if i < cp.segments.len() {
        let _ = writeln!(
            out,
            "  ... {} more segments (see --json export)",
            cp.segments.len() - i
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    fn ev(rank: usize, t: f64, kind: EventKind, fields: Vec<(&str, Value)>) -> TraceEvent {
        TraceEvent {
            rank: Some(rank),
            t_wall: t,
            t_virt: t,
            kind,
            name: String::new(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Two ranks: rank 0 computes 1s then sends; rank 1 computes 0.2s,
    /// blocks on the recv (arrival 1.5), computes 0.5s more. The path must
    /// be: compute on 0 [0,1], flight [1,1.5], compute on 1 [1.5,2.0].
    #[test]
    fn two_rank_send_recv_chain_tiles_makespan() {
        let events = vec![
            ev(
                0,
                1.0,
                EventKind::Send,
                vec![
                    ("peer", Value::U64(1)),
                    ("bytes", Value::U64(80)),
                    ("seq", Value::U64(0)),
                ],
            ),
            ev(
                0,
                1.0,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(1.0))],
            ),
            ev(
                1,
                1.5,
                EventKind::Recv,
                vec![
                    ("peer", Value::U64(0)),
                    ("bytes", Value::U64(80)),
                    ("seq", Value::U64(0)),
                    ("t_before", Value::F64(0.2)),
                    ("t_arrival", Value::F64(1.5)),
                ],
            ),
            ev(
                1,
                2.0,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(2.0))],
            ),
        ];
        let cp = CritPath::from_events(&events);
        assert_eq!(cp.nranks, 2);
        assert_eq!(cp.bound_rank, 1);
        assert!((cp.makespan - 2.0).abs() < 1e-12);
        assert!((cp.path_length() - cp.makespan).abs() < 1e-12);
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.segments[0].rank, 0);
        assert_eq!(cp.segments[0].kind, SegmentKind::Compute);
        assert_eq!(cp.segments[1].kind, SegmentKind::Message);
        assert!((cp.segments[1].t0 - 1.0).abs() < 1e-12);
        assert!((cp.segments[1].t1 - 1.5).abs() < 1e-12);
        assert_eq!(cp.segments[2].rank, 1);
        // Rank 1 waited 1.3s on the recv.
        assert!((cp.ranks[1].recv_wait - 1.3).abs() < 1e-12);
        assert!((cp.ranks[0].busy - 1.0).abs() < 1e-12);
        // No contention fields anywhere: nothing attributed.
        assert_eq!(cp.path_contention, 0.0);
    }

    /// A send stamped with a contention delay: the matched message segment
    /// carries the attribution in its detail, the chain total picks it up,
    /// and it round-trips through the JSON export.
    #[test]
    fn contended_send_is_attributed_on_the_path() {
        let events = vec![
            ev(
                0,
                1.0,
                EventKind::Send,
                vec![
                    ("peer", Value::U64(1)),
                    ("bytes", Value::U64(80)),
                    ("seq", Value::U64(0)),
                    ("contention", Value::F64(3.0)),
                    ("t_contention", Value::F64(0.2)),
                ],
            ),
            ev(
                0,
                1.0,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(1.0))],
            ),
            ev(
                1,
                1.5,
                EventKind::Recv,
                vec![
                    ("peer", Value::U64(0)),
                    ("bytes", Value::U64(80)),
                    ("seq", Value::U64(0)),
                    ("t_before", Value::F64(0.2)),
                    ("t_arrival", Value::F64(1.5)),
                ],
            ),
            ev(
                1,
                2.0,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(2.0))],
            ),
        ];
        let cp = CritPath::from_events(&events);
        assert!((cp.path_contention - 0.2).abs() < 1e-12);
        let msg = cp
            .segments
            .iter()
            .find(|s| s.kind == SegmentKind::Message)
            .expect("message segment on the path");
        assert!(msg.detail.contains("contention"), "{}", msg.detail);
        let json = cp.to_json();
        assert!(json.contains("\"contention\": 0.2"), "{json}");
        let text = render_critical_path(&cp);
        assert!(text.contains("contention"), "{text}");
    }

    /// A non-blocking recv (arrival before the receiver got there) must NOT
    /// divert the walk: the path stays pure compute on the late rank.
    #[test]
    fn non_blocking_recv_stays_local() {
        let events = vec![
            ev(
                0,
                0.1,
                EventKind::Send,
                vec![
                    ("peer", Value::U64(1)),
                    ("bytes", Value::U64(8)),
                    ("seq", Value::U64(0)),
                ],
            ),
            ev(
                0,
                0.1,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(0.1))],
            ),
            ev(
                1,
                1.0,
                EventKind::Recv,
                vec![
                    ("peer", Value::U64(0)),
                    ("bytes", Value::U64(8)),
                    ("seq", Value::U64(0)),
                    ("t_before", Value::F64(1.0)),
                    ("t_arrival", Value::F64(0.3)),
                ],
            ),
            ev(
                1,
                3.0,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(3.0))],
            ),
        ];
        let cp = CritPath::from_events(&events);
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.segments[0].kind, SegmentKind::Compute);
        assert_eq!(cp.segments[0].rank, 1);
        assert!((cp.path_length() - 3.0).abs() < 1e-12);
        assert_eq!(cp.ranks[1].recv_wait, 0.0);
    }

    /// A collective hops to the straggler: rank 1 arrives late (t_before
    /// == t_sync), so the chain crosses from rank 0's post-collective
    /// compute through the collective cost onto rank 1's pre-collective
    /// compute.
    #[test]
    fn collective_hops_to_bounding_contributor() {
        let mk_coll = |rank: usize, before: f64| {
            ev(
                rank,
                2.25,
                EventKind::Allreduce,
                vec![
                    ("bytes", Value::U64(8)),
                    ("coll", Value::U64(0)),
                    ("t_before", Value::F64(before)),
                    ("t_sync", Value::F64(2.0)),
                ],
            )
        };
        let events = vec![
            mk_coll(0, 0.5),
            ev(
                0,
                3.0,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(3.0))],
            ),
            mk_coll(1, 2.0),
            ev(
                1,
                2.25,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(2.25))],
            ),
        ];
        let cp = CritPath::from_events(&events);
        assert_eq!(cp.bound_rank, 0);
        assert!((cp.makespan - 3.0).abs() < 1e-12);
        assert!((cp.path_length() - 3.0).abs() < 1e-12);
        // compute on 0 [2.25, 3.0]; collective [2.0, 2.25]; compute on 1 [0, 2.0].
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.segments[0].rank, 1);
        assert_eq!(cp.segments[0].kind, SegmentKind::Compute);
        assert!((cp.segments[0].t1 - 2.0).abs() < 1e-12);
        assert_eq!(cp.segments[1].kind, SegmentKind::Collective);
        assert_eq!(cp.segments[2].rank, 0);
        // Rank 0 waited 1.5s at the rendezvous; rank 1 not at all.
        assert!((cp.ranks[0].collective_wait - 1.5).abs() < 1e-12);
        assert!((cp.ranks[1].collective_wait - 0.0).abs() < 1e-12);
        assert!((cp.ranks[0].collective_cost - 0.25).abs() < 1e-12);
    }

    /// Chains survive repeated collectives bounded by the walking rank
    /// itself (no hop) without looping.
    #[test]
    fn self_bound_collective_continues_locally() {
        let mut events = Vec::new();
        for c in 0..3u64 {
            let t0 = c as f64;
            events.push(ev(
                0,
                t0 + 1.0,
                EventKind::Allreduce,
                vec![
                    ("bytes", Value::U64(8)),
                    ("coll", Value::U64(c)),
                    ("t_before", Value::F64(t0 + 0.9)),
                    ("t_sync", Value::F64(t0 + 0.9)),
                ],
            ));
        }
        events.push(ev(
            0,
            3.0,
            EventKind::RankEnd,
            vec![("t_virt_final", Value::F64(3.0))],
        ));
        let cp = CritPath::from_events(&events);
        assert!((cp.path_length() - 3.0).abs() < 1e-12);
        assert_eq!(
            cp.segments
                .iter()
                .filter(|s| s.kind == SegmentKind::Collective)
                .count(),
            3
        );
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let cp = CritPath::from_events(&[]);
        assert_eq!(cp.nranks, 0);
        assert_eq!(cp.makespan, 0.0);
        assert!(cp.segments.is_empty());
        assert_eq!(cp.efficiency, 1.0);
        // Renders without panicking.
        assert!(render_critical_path(&cp).contains("critical path"));
        assert!(cp.to_json().contains("parfem-critpath-v1"));
    }

    #[test]
    fn json_export_parses_and_round_trips_totals() {
        let events = vec![
            ev(
                0,
                1.0,
                EventKind::Send,
                vec![
                    ("peer", Value::U64(1)),
                    ("bytes", Value::U64(80)),
                    ("seq", Value::U64(0)),
                ],
            ),
            ev(
                1,
                1.5,
                EventKind::Recv,
                vec![
                    ("peer", Value::U64(0)),
                    ("bytes", Value::U64(80)),
                    ("seq", Value::U64(0)),
                    ("t_before", Value::F64(0.2)),
                    ("t_arrival", Value::F64(1.5)),
                ],
            ),
            ev(
                1,
                2.0,
                EventKind::RankEnd,
                vec![("t_virt_final", Value::F64(2.0))],
            ),
        ];
        let cp = CritPath::from_events(&events);
        let doc = crate::json::parse(&cp.to_json()).expect("export must be valid JSON");
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("parfem-critpath-v1")
        );
        assert_eq!(doc.get("makespan").unwrap().as_f64(), Some(cp.makespan));
        let segs = doc.get("segments").unwrap().as_array().unwrap();
        assert_eq!(segs.len(), cp.segments.len());
        let total: f64 = segs
            .iter()
            .map(|s| {
                s.get("t1").unwrap().as_f64().unwrap() - s.get("t0").unwrap().as_f64().unwrap()
            })
            .sum();
        assert!((total - cp.makespan).abs() < 1e-12);
    }
}
