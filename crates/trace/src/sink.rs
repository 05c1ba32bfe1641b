//! The shared sink and the per-rank single-threaded tracer.

use crate::event::{EventKind, TraceEvent, Value};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct SinkShared {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// A cheap, cloneable, thread-safe handle to one trace recording — or a
/// no-op when disabled.
///
/// The sink is threaded through the solver stack by value. Code that emits
/// events checks out a [`RankTracer`] (one per rank thread, plus one for the
/// host side); a disabled sink hands out `None`, so instrumented code pays a
/// single `Option` branch when tracing is off.
#[derive(Clone)]
pub struct TraceSink(Option<Arc<SinkShared>>);

impl TraceSink {
    /// A live sink: events accumulate in memory until [`TraceSink::take_events`].
    pub fn recording() -> Self {
        TraceSink(Some(Arc::new(SinkShared {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        })))
    }

    /// The no-op sink. `const`, so it can sit in statics and defaults.
    pub const fn disabled() -> Self {
        TraceSink(None)
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Checks out a tracer for one rank (`Some(rank)`) or for the host side
    /// (`None`). Returns `None` when the sink is disabled.
    ///
    /// The tracer buffers events locally (it is deliberately not `Sync`) and
    /// flushes them into the sink when dropped or on [`RankTracer::flush`].
    pub fn tracer(&self, rank: Option<usize>) -> Option<RankTracer> {
        self.0.as_ref().map(|shared| RankTracer {
            shared: Arc::clone(shared),
            rank,
            buf: RefCell::new(Vec::new()),
            counters: RefCell::new(Vec::new()),
        })
    }

    /// Shorthand for the host-side (driver) tracer.
    pub fn host_tracer(&self) -> Option<RankTracer> {
        self.tracer(None)
    }

    /// Drains every recorded event, sorted by wall-clock time (stable, so
    /// same-timestamp events keep emission order per rank).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        let Some(shared) = self.0.as_ref() else {
            return Vec::new();
        };
        let mut events = std::mem::take(&mut *shared.events.lock().unwrap());
        events.sort_by(|a, b| a.t_wall.total_cmp(&b.t_wall));
        events
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraceSink({})",
            if self.is_enabled() {
                "recording"
            } else {
                "disabled"
            }
        )
    }
}

/// A single-threaded event emitter owned by one rank thread (or the host).
///
/// Events are buffered in a `RefCell` and flushed to the shared sink in one
/// lock acquisition when the tracer drops — rank threads never contend on
/// the sink mutex inside the solve. Hot paths use [`RankTracer::add_count`],
/// which only bumps an integer and materialises a single `counter` event per
/// name at flush time.
pub struct RankTracer {
    shared: Arc<SinkShared>,
    rank: Option<usize>,
    buf: RefCell<Vec<TraceEvent>>,
    counters: RefCell<Vec<(String, u64)>>,
}

impl RankTracer {
    /// The rank this tracer stamps on its events (`None` = host).
    pub fn rank(&self) -> Option<usize> {
        self.rank
    }

    fn now(&self) -> f64 {
        self.shared.epoch.elapsed().as_secs_f64()
    }

    /// Emits one event with the given kind, name, virtual timestamp, and
    /// fields. The wall timestamp is taken here.
    pub fn emit(&self, kind: EventKind, name: &str, t_virt: f64, fields: Vec<(String, Value)>) {
        self.buf.borrow_mut().push(TraceEvent {
            rank: self.rank,
            t_wall: self.now(),
            t_virt,
            kind,
            name: name.to_string(),
            fields,
        });
    }

    /// Opens a named span at the given virtual time.
    pub fn span_begin(&self, name: &str, t_virt: f64) {
        self.emit(EventKind::SpanBegin, name, t_virt, Vec::new());
    }

    /// Closes the most recent open span with this name.
    pub fn span_end(&self, name: &str, t_virt: f64) {
        self.emit(EventKind::SpanEnd, name, t_virt, Vec::new());
    }

    /// Emits a point-in-time annotation.
    pub fn instant(&self, name: &str, t_virt: f64, fields: Vec<(String, Value)>) {
        self.emit(EventKind::Instant, name, t_virt, fields);
    }

    /// Bumps a named monotonic counter. O(#names) scan over a short vec; no
    /// event is created until flush, so this is safe on hot paths (SpMV row
    /// loops, per-message accounting).
    pub fn add_count(&self, name: &str, n: u64) {
        let mut counters = self.counters.borrow_mut();
        if let Some(entry) = counters.iter_mut().find(|(k, _)| k == name) {
            entry.1 += n;
        } else {
            counters.push((name.to_string(), n));
        }
    }

    /// Flushes buffered events (and materialised counters) into the sink.
    /// Called automatically on drop.
    pub fn flush(&self) {
        let mut counters = self.counters.borrow_mut();
        if !counters.is_empty() {
            let t_wall = self.now();
            let mut buf = self.buf.borrow_mut();
            for (name, value) in counters.drain(..) {
                buf.push(TraceEvent {
                    rank: self.rank,
                    t_wall,
                    t_virt: 0.0,
                    kind: EventKind::Counter,
                    name,
                    fields: vec![("value".to_string(), Value::U64(value))],
                });
            }
        }
        drop(counters);
        let mut buf = self.buf.borrow_mut();
        if !buf.is_empty() {
            self.shared.events.lock().unwrap().append(&mut buf);
        }
    }
}

impl Drop for RankTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for RankTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RankTracer(rank={:?})", self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_hands_out_no_tracers_and_no_events() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.tracer(Some(0)).is_none());
        assert!(sink.take_events().is_empty());
    }

    #[test]
    fn events_flush_on_drop_and_sort_by_wall_time() {
        let sink = TraceSink::recording();
        {
            let t0 = sink.tracer(Some(0)).unwrap();
            t0.span_begin("fgmres", 0.0);
            t0.span_end("fgmres", 1.0);
            // Not flushed yet: sink sees nothing.
            assert!(sink.take_events().is_empty());
            let t1 = sink.tracer(Some(1)).unwrap();
            t1.instant("hello", 0.5, vec![("x".into(), Value::U64(7))]);
        }
        let events = sink.take_events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].t_wall <= w[1].t_wall));
        // Drained.
        assert!(sink.take_events().is_empty());
    }

    #[test]
    fn counters_accumulate_into_one_event_per_name() {
        let sink = TraceSink::recording();
        {
            let t = sink.tracer(Some(3)).unwrap();
            t.add_count("spmv_rows", 100);
            t.add_count("spmv_rows", 50);
            t.add_count("precond_applies", 1);
        }
        let events = sink.take_events();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Counter)
            .collect();
        assert_eq!(counters.len(), 2);
        let rows = counters.iter().find(|e| e.name == "spmv_rows").unwrap();
        assert_eq!(rows.u64("value"), Some(150));
        assert_eq!(rows.rank, Some(3));
    }

    #[test]
    fn tracers_from_many_threads_merge() {
        let sink = TraceSink::recording();
        std::thread::scope(|scope| {
            for rank in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    let t = sink.tracer(Some(rank)).unwrap();
                    for i in 0..10u64 {
                        t.instant("tick", i as f64, vec![("i".into(), Value::U64(i))]);
                    }
                });
            }
        });
        let events = sink.take_events();
        assert_eq!(events.len(), 40);
        for rank in 0..4 {
            assert_eq!(events.iter().filter(|e| e.rank == Some(rank)).count(), 10);
        }
    }
}
