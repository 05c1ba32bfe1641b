//! The in-memory aggregator: rolls a flat event stream back up into
//! per-rank phase breakdowns, communication counts, and a convergence
//! record — everything the `--profile` table and `parfem report` print.

use crate::event::{EventKind, TraceEvent};
use crate::metrics::Histogram;

/// Communication totals for one rank, reconstructed by *counting events*
/// (not by trusting any summary), so they can be cross-checked against the
/// live `CommStats` of the same run. `flops` is the exception: there is no
/// per-flop event, so it comes from the `rank_end` summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounts {
    /// Point-to-point messages sent.
    pub sends: u64,
    /// Bytes sent point-to-point.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub recvs: u64,
    /// Bytes received point-to-point.
    pub bytes_received: u64,
    /// All-reduce operations participated in.
    pub allreduces: u64,
    /// Bytes contributed to all-reduces.
    pub allreduce_bytes: u64,
    /// Barriers participated in.
    pub barriers: u64,
    /// Logical neighbour exchanges (interface sums / halo updates).
    pub neighbor_exchanges: u64,
    /// Floating-point work charged to the machine model.
    pub flops: u64,
}

impl CommCounts {
    /// Element-wise sum.
    pub fn merged(&self, other: &CommCounts) -> CommCounts {
        CommCounts {
            sends: self.sends + other.sends,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            recvs: self.recvs + other.recvs,
            bytes_received: self.bytes_received + other.bytes_received,
            allreduces: self.allreduces + other.allreduces,
            allreduce_bytes: self.allreduce_bytes + other.allreduce_bytes,
            barriers: self.barriers + other.barriers,
            neighbor_exchanges: self.neighbor_exchanges + other.neighbor_exchanges,
            flops: self.flops + other.flops,
        }
    }
}

/// Accumulated time in one named phase on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotals {
    /// Phase name (`partition`, `assembly`, `scaling`, `precond-build`,
    /// `fgmres`, `gather`, …).
    pub name: String,
    /// Total wall-clock seconds inside the phase.
    pub wall_s: f64,
    /// Total virtual (machine-model) seconds inside the phase.
    pub virt_s: f64,
    /// How many begin/end pairs were observed.
    pub count: u64,
    /// Virtual time at which the phase first opened (for timeline layout).
    pub first_open_virt: f64,
    /// Virtual time at which the phase last closed.
    pub last_close_virt: f64,
}

/// Everything reconstructed for one rank.
#[derive(Debug, Clone)]
pub struct RankSummary {
    /// The rank.
    pub rank: usize,
    /// Phase totals, in order of first appearance.
    pub phases: Vec<PhaseTotals>,
    /// Event-counted communication totals.
    pub comm: CommCounts,
    /// Final virtual clock (from `rank_end`; falls back to the max event
    /// timestamp when the stream was truncated).
    pub final_virt: f64,
    /// Hot-path counters flushed at rank end (`spmv_calls`, `spmv_rows`,
    /// `precond_applies`, …).
    pub counters: Vec<(String, u64)>,
    /// Per-message payload-size histogram, when the stream carries one.
    pub msg_bytes: Option<Histogram>,
}

/// One solver iteration as recorded by rank 0.
#[derive(Debug, Clone, PartialEq)]
pub struct IterRecord {
    /// Global iteration index (1-based, matching the residual history).
    pub iter: u64,
    /// Relative residual after this iteration.
    pub rel_res: f64,
    /// Index within the current restart cycle.
    pub restart_index: u64,
    /// Restart cycle number.
    pub cycle: u64,
    /// Active preconditioner degree (escalating schedules vary this).
    pub degree: u64,
    /// Neighbour exchanges performed during this iteration.
    pub exchanges: u64,
    /// All-reduces performed during this iteration.
    pub allreduces: u64,
    /// Virtual time at the end of the iteration.
    pub t_virt: f64,
}

/// A Krylov cycle that began from a carried space, as rank 0 recorded it.
#[derive(Debug, Clone, PartialEq)]
pub enum CarriedSpace {
    /// A `deflated_restart`: the restart carried `k` harmonic Ritz vectors,
    /// the smallest of whose values has modulus `theta_min`.
    Deflated {
        /// Vectors carried into the next cycle.
        k: u64,
        /// Smallest `|θ|` among the deflated harmonic Ritz values.
        theta_min: f64,
    },
    /// A `recycled_start`: a solve began from the previous solve's
    /// recycled pair of dimension `k`, which held the share `captured =
    /// ‖Cᵀr₀‖/‖r₀‖` of its initial residual.
    Recycled {
        /// Dimension of the recycled space.
        k: u64,
        /// Share of the initial residual inside the recycled space.
        captured: f64,
    },
}

impl CarriedSpace {
    /// Reads a `deflated_restart` or `recycled_start` instant; `None` for
    /// any other event.
    fn from_event(ev: &TraceEvent) -> Option<Self> {
        let k = ev.u64("k")?;
        match ev.name.as_str() {
            "deflated_restart" => {
                let theta_min = (0..)
                    .map_while(|i| {
                        let re = ev.f64(&format!("theta{i}_re"))?;
                        Some(re.hypot(ev.f64(&format!("theta{i}_im")).unwrap_or(0.0)))
                    })
                    .fold(f64::INFINITY, f64::min);
                Some(CarriedSpace::Deflated { k, theta_min })
            }
            "recycled_start" => Some(CarriedSpace::Recycled {
                k,
                captured: ev.f64("captured").unwrap_or(f64::NAN),
            }),
            _ => None,
        }
    }
}

/// The end-of-run summary the session engine stamps on the stream — one per
/// `run()` or `run_multi()`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSummary {
    /// Whether every right-hand side converged.
    pub converged: bool,
    /// Total iterations, summed over the right-hand sides.
    pub iterations: u64,
    /// Restart cycles used, summed over the right-hand sides.
    pub restarts: u64,
    /// Final relative residual (the worst one over the right-hand sides).
    pub final_rel_res: f64,
    /// Right-hand sides solved in the run (1 for traces that predate the
    /// field).
    pub n_rhs: u64,
    /// Modeled (virtual) time of the whole solve.
    pub modeled_time: f64,
    /// Preconditioner name.
    pub precond: String,
    /// Solver variant (`edd-basic`, `edd-enhanced`, `rdd`, …).
    pub variant: String,
    /// Whether the nonblocking overlapped interface exchange was enabled.
    pub overlap: bool,
    /// Allocation calls during the solve, when the run was instrumented
    /// with [`crate::alloc::CountingAlloc`] (absent otherwise).
    pub alloc_count: Option<u64>,
    /// Bytes requested during the solve, when instrumented.
    pub alloc_bytes: Option<u64>,
    /// The rank-side coarse build of a two-level solve (absent for
    /// one-level preconditioners).
    pub coarse: Option<CoarseSetupSummary>,
    /// The subdomain factorization of a solve under `direct` (absent
    /// otherwise).
    pub factor: Option<FactorSummary>,
}

/// What the subdomain factorizations produced — the `factor_*` fields of the
/// `solve_summary` event: the largest rank's sizes, skipped pivots summed
/// over the ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorSummary {
    /// Stored entries of the strictly lower `L`.
    pub nnz_l: u64,
    /// `nnz(L)` over the strict lower triangle of the factored block.
    pub fill: f64,
    /// Flops of one rank's factorization, as charged to its clock.
    pub flops: u64,
    /// Flops of one of its solves, charged per application.
    pub solve_flops: u64,
    /// Heap bytes one rank's factor holds.
    pub bytes: u64,
    /// Pivots skipped over all ranks.
    pub skipped: u64,
    /// Supernodes (dense panels) of one rank's factor.
    pub supernodes: u64,
    /// Entries of one rank's largest panel, rows × width.
    pub max_front: u64,
    /// Rows in one rank's root separator (`0` under minimum degree).
    pub separator: u64,
}

impl FactorSummary {
    /// Reads the `factor_*` fields of a `solve_summary` event; `None` when
    /// it carries none.
    pub fn from_event(ev: &TraceEvent) -> Option<Self> {
        Some(FactorSummary {
            nnz_l: ev.u64("factor_nnz_l")?,
            fill: ev.f64("factor_fill").unwrap_or(0.0),
            flops: ev.u64("factor_flops").unwrap_or(0),
            solve_flops: ev.u64("factor_solve_flops").unwrap_or(0),
            bytes: ev.u64("factor_bytes").unwrap_or(0),
            skipped: ev.u64("factor_skipped").unwrap_or(0),
            supernodes: ev.u64("factor_supernodes").unwrap_or(0),
            max_front: ev.u64("factor_max_front").unwrap_or(0),
            separator: ev.u64("factor_separator").unwrap_or(0),
        })
    }
}

/// What the two-level coarse build produced and what it charged to the rank
/// clocks — the `coarse_*` fields of the `solve_summary` event. Sizes are
/// the ones every rank agrees on; `live_modes` and `virtual_s` are the
/// busiest rank's, `flops` and `bytes_sent` sums over the ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseSetupSummary {
    /// Global number of coarse modes.
    pub modes: u64,
    /// Most modes live on any one rank.
    pub live_modes: u64,
    /// Stored entries of the Galerkin operator.
    pub nnz: u64,
    /// Pivots the coarse factorization skipped.
    pub skipped_pivots: u64,
    /// Power-iteration estimate `λ̂` of the smoothing (0 without `.sK`).
    pub lambda_hat: f64,
    /// Smoothing damping `ω = 4/(3 λ̂)` (0 without `.sK`).
    pub omega: f64,
    /// Flops charged to the rank clocks.
    pub flops: u64,
    /// Point-to-point bytes sent.
    pub bytes_sent: u64,
    /// Neighbour-exchange rounds per rank.
    pub exchanges: u64,
    /// All-reduces per rank.
    pub allreduces: u64,
    /// Modeled seconds the build took on the slowest rank.
    pub virtual_s: f64,
    /// Allocation calls of the build, when instrumented.
    pub alloc_count: Option<u64>,
}

impl CoarseSetupSummary {
    /// Reads the `coarse_*` fields of a `solve_summary` (or rank
    /// `coarse_build`) event; `None` when it carries none.
    pub fn from_event(ev: &TraceEvent) -> Option<Self> {
        Some(CoarseSetupSummary {
            modes: ev.u64("coarse_modes")?,
            live_modes: ev.u64("coarse_live_modes").unwrap_or(0),
            nnz: ev.u64("coarse_nnz").unwrap_or(0),
            skipped_pivots: ev.u64("coarse_skipped_pivots").unwrap_or(0),
            lambda_hat: ev.f64("coarse_lambda_hat").unwrap_or(0.0),
            omega: ev.f64("coarse_omega").unwrap_or(0.0),
            flops: ev.u64("coarse_flops").unwrap_or(0),
            bytes_sent: ev.u64("coarse_bytes_sent").unwrap_or(0),
            exchanges: ev.u64("coarse_exchanges").unwrap_or(0),
            allreduces: ev.u64("coarse_allreduces").unwrap_or(0),
            virtual_s: ev.f64("coarse_virtual_s").unwrap_or(0.0),
            alloc_count: ev.u64("coarse_alloc_count"),
        })
    }
}

/// A recorded trace rolled up for reporting.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Host-side (driver) phases: partition, assembly, gather.
    pub host_phases: Vec<PhaseTotals>,
    /// Per-rank summaries, sorted by rank.
    pub ranks: Vec<RankSummary>,
    /// Rank-0 per-iteration records, in order.
    pub iters: Vec<IterRecord>,
    /// End-of-solve summary, when present.
    pub solve: Option<SolveSummary>,
    /// Rank-0 deflated restarts and recycled starts, in stream order.
    pub carried: Vec<CarriedSpace>,
}

#[derive(Default)]
struct RankAcc {
    phases: Vec<PhaseTotals>,
    open: Vec<(String, f64, f64)>, // (name, wall at begin, virt at begin)
    comm: CommCounts,
    final_virt: f64,
    max_seen_virt: f64,
    counters: Vec<(String, u64)>,
    msg_bytes: Option<Histogram>,
    saw_rank_end: bool,
}

impl RankAcc {
    fn phase_entry(&mut self, name: &str, open_virt: f64) -> &mut PhaseTotals {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            &mut self.phases[i]
        } else {
            self.phases.push(PhaseTotals {
                name: name.to_string(),
                wall_s: 0.0,
                virt_s: 0.0,
                count: 0,
                first_open_virt: open_virt,
                last_close_virt: open_virt,
            });
            self.phases.last_mut().unwrap()
        }
    }

    fn apply(&mut self, ev: &TraceEvent) {
        self.max_seen_virt = self.max_seen_virt.max(ev.t_virt);
        match ev.kind {
            EventKind::SpanBegin => {
                self.phase_entry(&ev.name, ev.t_virt);
                self.open.push((ev.name.clone(), ev.t_wall, ev.t_virt));
            }
            EventKind::SpanEnd => {
                // Close the most recent matching open span; tolerate strays.
                if let Some(i) = self.open.iter().rposition(|(n, _, _)| *n == ev.name) {
                    let (name, w0, v0) = self.open.remove(i);
                    let entry = self.phase_entry(&name, v0);
                    entry.wall_s += (ev.t_wall - w0).max(0.0);
                    entry.virt_s += (ev.t_virt - v0).max(0.0);
                    entry.count += 1;
                    entry.last_close_virt = entry.last_close_virt.max(ev.t_virt);
                }
            }
            EventKind::Send => {
                self.comm.sends += 1;
                self.comm.bytes_sent += ev.u64("bytes").unwrap_or(0);
            }
            EventKind::Recv => {
                self.comm.recvs += 1;
                self.comm.bytes_received += ev.u64("bytes").unwrap_or(0);
            }
            EventKind::Allreduce => {
                self.comm.allreduces += 1;
                self.comm.allreduce_bytes += ev.u64("bytes").unwrap_or(0);
            }
            EventKind::Barrier => self.comm.barriers += 1,
            EventKind::Exchange => self.comm.neighbor_exchanges += 1,
            EventKind::Counter => {
                let value = ev.u64("value").unwrap_or(0);
                if let Some(e) = self.counters.iter_mut().find(|(k, _)| *k == ev.name) {
                    e.1 += value;
                } else {
                    self.counters.push((ev.name.clone(), value));
                }
            }
            EventKind::RankEnd => {
                self.saw_rank_end = true;
                self.final_virt = ev.f64("t_virt_final").unwrap_or(ev.t_virt);
                self.comm.flops += ev.u64("flops").unwrap_or(0);
                if ev.field("count").is_some() {
                    self.msg_bytes = Histogram::from_fields(&ev.fields);
                }
            }
            EventKind::Instant | EventKind::Iter => {}
        }
    }
}

impl RankSummary {
    /// The value of the rank counter `name`, when the rank flushed one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        (self.counters.iter().find(|(n, _)| n == name)).map(|(_, v)| *v)
    }
}

impl TraceReport {
    /// Builds the report from an event stream (any order; events are
    /// bucketed per rank and spans matched within each rank).
    pub fn from_events(events: &[TraceEvent]) -> TraceReport {
        let mut host = RankAcc::default();
        let mut ranks: Vec<(usize, RankAcc)> = Vec::new();
        let mut iters = Vec::new();
        let mut solve = None;
        let mut carried = Vec::new();

        for ev in events {
            let acc = match ev.rank {
                None => &mut host,
                Some(r) => {
                    if let Some(i) = ranks.iter().position(|(rank, _)| *rank == r) {
                        &mut ranks[i].1
                    } else {
                        ranks.push((r, RankAcc::default()));
                        &mut ranks.last_mut().unwrap().1
                    }
                }
            };
            acc.apply(ev);

            match ev.kind {
                EventKind::Iter if ev.rank == Some(0) => iters.push(IterRecord {
                    iter: ev.u64("iter").unwrap_or(0),
                    rel_res: ev.f64("rel_res").unwrap_or(f64::NAN),
                    restart_index: ev.u64("restart_index").unwrap_or(0),
                    cycle: ev.u64("cycle").unwrap_or(0),
                    degree: ev.u64("degree").unwrap_or(0),
                    exchanges: ev.u64("exchanges").unwrap_or(0),
                    allreduces: ev.u64("allreduces").unwrap_or(0),
                    t_virt: ev.t_virt,
                }),
                EventKind::Instant if ev.name == "solve_summary" => {
                    solve = Some(SolveSummary {
                        converged: ev.u64("converged").unwrap_or(0) != 0,
                        iterations: ev.u64("iterations").unwrap_or(0),
                        restarts: ev.u64("restarts").unwrap_or(0),
                        final_rel_res: ev.f64("final_rel_res").unwrap_or(f64::NAN),
                        n_rhs: ev.u64("n_rhs").unwrap_or(1),
                        modeled_time: ev.f64("modeled_time").unwrap_or(f64::NAN),
                        precond: ev.str("precond").unwrap_or("?").to_string(),
                        variant: ev.str("variant").unwrap_or("?").to_string(),
                        overlap: ev.u64("overlap").unwrap_or(0) != 0,
                        alloc_count: ev.u64("alloc_count"),
                        alloc_bytes: ev.u64("alloc_bytes"),
                        coarse: CoarseSetupSummary::from_event(ev),
                        factor: FactorSummary::from_event(ev),
                    });
                }
                EventKind::Instant if ev.rank == Some(0) => {
                    carried.extend(CarriedSpace::from_event(ev));
                }
                _ => {}
            }
        }

        iters.sort_by_key(|r| r.iter);
        ranks.sort_by_key(|(r, _)| *r);
        let ranks = ranks
            .into_iter()
            .map(|(rank, acc)| RankSummary {
                rank,
                final_virt: if acc.saw_rank_end {
                    acc.final_virt
                } else {
                    acc.max_seen_virt
                },
                phases: acc.phases,
                comm: acc.comm,
                counters: acc.counters,
                msg_bytes: acc.msg_bytes,
            })
            .collect();
        TraceReport {
            host_phases: host.phases,
            ranks,
            iters,
            solve,
            carried,
        }
    }

    /// Communication totals summed over every rank.
    pub fn comm_totals(&self) -> CommCounts {
        self.ranks
            .iter()
            .fold(CommCounts::default(), |acc, r| acc.merged(&r.comm))
    }

    /// Number of ranks that emitted events.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// The largest final virtual clock over all ranks (the modeled make-span).
    pub fn makespan_virt(&self) -> f64 {
        self.ranks.iter().fold(0.0f64, |m, r| m.max(r.final_virt))
    }

    /// Per-iteration averages of (neighbour exchanges, all-reduces) over the
    /// recorded iteration events — the quantities in the paper's Table 1.
    pub fn per_iteration_comm(&self) -> Option<(f64, f64)> {
        if self.iters.is_empty() {
            return None;
        }
        let n = self.iters.len() as f64;
        let ex: u64 = self.iters.iter().map(|r| r.exchanges).sum();
        let ar: u64 = self.iters.iter().map(|r| r.allreduces).sum();
        Some((ex as f64 / n, ar as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    fn ev(
        rank: Option<usize>,
        t: f64,
        kind: EventKind,
        name: &str,
        fields: Vec<(String, Value)>,
    ) -> TraceEvent {
        TraceEvent {
            rank,
            t_wall: t,
            t_virt: t,
            kind,
            name: name.to_string(),
            fields,
        }
    }

    #[test]
    fn spans_accumulate_per_rank_and_host() {
        let events = vec![
            ev(None, 0.0, EventKind::SpanBegin, "assembly", vec![]),
            ev(None, 2.0, EventKind::SpanEnd, "assembly", vec![]),
            ev(Some(0), 0.0, EventKind::SpanBegin, "fgmres", vec![]),
            ev(Some(0), 3.0, EventKind::SpanEnd, "fgmres", vec![]),
            ev(Some(0), 3.0, EventKind::SpanBegin, "fgmres", vec![]),
            ev(Some(0), 4.0, EventKind::SpanEnd, "fgmres", vec![]),
        ];
        let report = TraceReport::from_events(&events);
        assert_eq!(report.host_phases.len(), 1);
        assert_eq!(report.host_phases[0].name, "assembly");
        assert!((report.host_phases[0].wall_s - 2.0).abs() < 1e-12);
        let fg = &report.ranks[0].phases[0];
        assert_eq!(fg.count, 2);
        assert!((fg.virt_s - 4.0).abs() < 1e-12);
        assert!((fg.first_open_virt - 0.0).abs() < 1e-12);
        assert!((fg.last_close_virt - 4.0).abs() < 1e-12);
    }

    #[test]
    fn comm_events_are_counted_not_trusted() {
        let events = vec![
            ev(
                Some(1),
                0.1,
                EventKind::Send,
                "",
                vec![
                    ("peer".into(), 0usize.into()),
                    ("bytes".into(), 64u64.into()),
                ],
            ),
            ev(
                Some(1),
                0.2,
                EventKind::Recv,
                "",
                vec![
                    ("peer".into(), 0usize.into()),
                    ("bytes".into(), 32u64.into()),
                ],
            ),
            ev(
                Some(1),
                0.3,
                EventKind::Allreduce,
                "",
                vec![("bytes".into(), 8u64.into())],
            ),
            ev(Some(1), 0.4, EventKind::Exchange, "", vec![]),
            ev(Some(1), 0.5, EventKind::Barrier, "", vec![]),
            ev(
                Some(1),
                0.6,
                EventKind::RankEnd,
                "",
                vec![
                    ("flops".into(), 1234u64.into()),
                    ("t_virt_final".into(), 0.75.into()),
                ],
            ),
        ];
        let report = TraceReport::from_events(&events);
        let r = &report.ranks[0];
        assert_eq!(r.rank, 1);
        assert_eq!(
            r.comm,
            CommCounts {
                sends: 1,
                bytes_sent: 64,
                recvs: 1,
                bytes_received: 32,
                allreduces: 1,
                allreduce_bytes: 8,
                barriers: 1,
                neighbor_exchanges: 1,
                flops: 1234,
            }
        );
        assert!((r.final_virt - 0.75).abs() < 1e-12);
        assert_eq!(report.comm_totals().sends, 1);
    }

    #[test]
    fn iteration_records_come_from_rank_zero_only() {
        let mk = |rank, iter: u64| {
            ev(
                Some(rank),
                iter as f64,
                EventKind::Iter,
                "",
                vec![
                    ("iter".into(), iter.into()),
                    ("rel_res".into(), (0.5f64).into()),
                    ("exchanges".into(), 2u64.into()),
                    ("allreduces".into(), 1u64.into()),
                ],
            )
        };
        let events = vec![mk(0, 2), mk(1, 1), mk(0, 1)];
        let report = TraceReport::from_events(&events);
        assert_eq!(report.iters.len(), 2);
        assert_eq!(report.iters[0].iter, 1);
        assert_eq!(report.per_iteration_comm(), Some((2.0, 1.0)));
    }

    #[test]
    fn solve_summary_is_extracted() {
        let events = vec![ev(
            None,
            9.0,
            EventKind::Instant,
            "solve_summary",
            vec![
                ("converged".into(), 1u64.into()),
                ("iterations".into(), 17u64.into()),
                ("restarts".into(), 0u64.into()),
                ("final_rel_res".into(), 1e-9.into()),
                ("modeled_time".into(), 0.25.into()),
                ("precond".into(), "gls(m=3)".into()),
                ("variant".into(), "edd-enhanced".into()),
                ("overlap".into(), 1u64.into()),
            ],
        )];
        let report = TraceReport::from_events(&events);
        let s = report.solve.unwrap();
        assert!(s.converged);
        assert_eq!(s.iterations, 17);
        assert_eq!(s.precond, "gls(m=3)");
        assert_eq!(s.variant, "edd-enhanced");
        assert!(s.overlap);
        // A stream without `n_rhs` is a single-right-hand-side run.
        assert_eq!(s.n_rhs, 1);
        // No counting allocator was advertised in the stream.
        assert_eq!(s.alloc_count, None);
        assert_eq!(s.alloc_bytes, None);
    }

    #[test]
    fn solve_summary_carries_alloc_counters_when_present() {
        let events = vec![ev(
            None,
            9.0,
            EventKind::Instant,
            "solve_summary",
            vec![
                ("converged".into(), 1u64.into()),
                ("iterations".into(), 3u64.into()),
                ("alloc_count".into(), 42u64.into()),
                ("alloc_bytes".into(), 4096u64.into()),
            ],
        )];
        let s = TraceReport::from_events(&events).solve.unwrap();
        assert_eq!(s.alloc_count, Some(42));
        assert_eq!(s.alloc_bytes, Some(4096));
    }

    #[test]
    fn truncated_stream_falls_back_to_max_virt() {
        let events = vec![ev(Some(0), 1.5, EventKind::Barrier, "", vec![])];
        let report = TraceReport::from_events(&events);
        assert!((report.ranks[0].final_virt - 1.5).abs() < 1e-12);
        assert!((report.makespan_virt() - 1.5).abs() < 1e-12);
    }
}
