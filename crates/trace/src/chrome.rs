//! Chrome / Perfetto `trace_event` exporter.
//!
//! Converts a recorded [`TraceEvent`] stream into the JSON object format
//! consumed by `chrome://tracing`, [Perfetto](https://ui.perfetto.dev) and
//! Speedscope, so per-rank timelines stay inspectable at P = 64+ where the
//! ASCII renderer stops being useful.
//!
//! Mapping (all timestamps in microseconds, as the format requires):
//!
//! | trace event            | `trace_event` record                          |
//! |------------------------|-----------------------------------------------|
//! | rank span begin/end    | `B` / `E` on `tid = rank + 1`, virtual time   |
//! | host span begin/end    | `B` / `E` on `tid = 0`, wall time             |
//! | `recv` that blocked    | `X` slice `recv-wait` (`t_before → t_virt`)   |
//! | `allreduce`/`barrier`  | `X` slice (`t_before → t_virt`)               |
//! | `send`/`recv`/`iter`/… | `i` instant with the fields as `args`         |
//! | flushed `counter`      | `C` counter sample                            |
//! | `rank_end`             | `i` instant (final clock in `args`)           |
//!
//! One process (`pid` 0) per trace; rank clocks are virtual seconds from
//! the same origin, so slices line up across rank rows exactly as the
//! machine model scheduled them. Host events run on wall time in their own
//! row — a different clock, kept for orientation rather than alignment.

use crate::event::{EventKind, TraceEvent};
use crate::json::Json;

/// One `trace_event` record; `ts` and `dur` in seconds, written in µs (the
/// format accepts fractional microseconds).
fn record(ph: &str, name: &str, tid: u64, ts: f64, dur: Option<f64>, args: Option<Json>) -> Json {
    let mut members = vec![
        ("name", name.into()),
        ("ph", ph.into()),
        ("pid", 0u64.into()),
        ("tid", tid.into()),
        ("ts", (ts * 1e6).into()),
    ];
    members.extend(dur.map(|d| ("dur", (d * 1e6).into())));
    members.extend(args.map(|a| ("args", a)));
    Json::obj(members)
}

fn args(ev: &TraceEvent) -> Option<Json> {
    Some(Json::obj(
        ev.fields.iter().map(|(k, v)| (k.as_str(), v.into())),
    ))
}

/// Renders the event stream as one `trace_event` JSON document
/// (`{"traceEvents":[...]}`, compact layout) through [`crate::json`].
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    // Thread-name metadata: host row + one row per rank seen.
    let max_rank = events.iter().filter_map(|ev| ev.rank).max();
    let has_host = events.iter().any(|ev| ev.rank.is_none());
    let name_meta = |tid: u64, label: String| {
        Json::obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 0u64.into()),
            ("tid", tid.into()),
            ("args", Json::obj([("name", label.into())])),
        ])
    };
    let mut records: Vec<Json> = Vec::with_capacity(events.len() + 16);
    if has_host {
        records.push(name_meta(0, "host (wall clock)".to_string()));
    }
    for r in max_rank.map_or(0..0, |m| 0..m + 1) {
        records.push(name_meta(r as u64 + 1, format!("rank {r}")));
    }

    for ev in events {
        // Host events run on wall time in row 0; rank rows use virtual time.
        let (tid, ts) = match ev.rank {
            Some(r) => (r as u64 + 1, ev.t_virt),
            None => (0, ev.t_wall),
        };
        let before = ev.f64("t_before").unwrap_or(ev.t_virt);
        records.push(match ev.kind {
            EventKind::SpanBegin => record("B", &ev.name, tid, ts, None, None),
            EventKind::SpanEnd => record("E", &ev.name, tid, ts, None, None),
            // A blocked receive renders as a wait slice; the instant
            // carries the matching fields either way.
            EventKind::Recv if ev.t_virt > before => {
                let dur = Some(ev.t_virt - before);
                record("X", "recv-wait", tid, before, dur, args(ev))
            }
            EventKind::Allreduce | EventKind::Barrier => {
                let dur = Some((ev.t_virt - before).max(0.0));
                let name = ev.kind.as_str();
                record("X", name, tid, before.min(ev.t_virt), dur, args(ev))
            }
            EventKind::Counter => {
                let value = Json::obj([("value", ev.u64("value").unwrap_or(0).into())]);
                record("C", &ev.name, tid, ts, None, Some(value))
            }
            EventKind::Instant => record("i", &ev.name, tid, ts, None, args(ev)),
            EventKind::Recv
            | EventKind::Send
            | EventKind::Exchange
            | EventKind::Iter
            | EventKind::RankEnd => record("i", ev.kind.as_str(), tid, ts, None, args(ev)),
        });
    }
    let mut out = Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(records)),
    ])
    .to_compact();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;
    use crate::json;

    fn sample_events() -> Vec<TraceEvent> {
        let mk = |rank: Option<usize>,
                  t: f64,
                  kind: EventKind,
                  name: &str,
                  fields: Vec<(&str, Value)>| TraceEvent {
            rank,
            t_wall: t,
            t_virt: t,
            kind,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        };
        vec![
            mk(None, 0.0, EventKind::SpanBegin, "assembly", vec![]),
            mk(None, 0.25, EventKind::SpanEnd, "assembly", vec![]),
            mk(Some(0), 0.0, EventKind::SpanBegin, "fgmres", vec![]),
            mk(
                Some(0),
                0.5,
                EventKind::Send,
                "",
                vec![
                    ("peer", Value::U64(1)),
                    ("bytes", Value::U64(80)),
                    ("seq", Value::U64(0)),
                ],
            ),
            mk(
                Some(1),
                0.9,
                EventKind::Recv,
                "",
                vec![
                    ("peer", Value::U64(0)),
                    ("bytes", Value::U64(80)),
                    ("seq", Value::U64(0)),
                    ("t_before", Value::F64(0.4)),
                    ("t_arrival", Value::F64(0.9)),
                ],
            ),
            mk(
                Some(0),
                1.0,
                EventKind::Allreduce,
                "",
                vec![
                    ("bytes", Value::U64(8)),
                    ("coll", Value::U64(0)),
                    ("t_before", Value::F64(0.8)),
                    ("t_sync", Value::F64(0.9)),
                ],
            ),
            mk(Some(0), 1.5, EventKind::SpanEnd, "fgmres", vec![]),
            mk(
                Some(0),
                1.5,
                EventKind::Counter,
                "spmv_calls",
                vec![("value", Value::U64(42))],
            ),
            mk(
                Some(0),
                1.5,
                EventKind::RankEnd,
                "",
                vec![("t_virt_final", Value::F64(1.5))],
            ),
        ]
    }

    #[test]
    fn export_is_valid_trace_event_json() {
        let text = export_chrome_trace(&sample_events());
        let doc = json::parse(&text).expect("exporter output must parse as JSON");
        let events = doc
            .get("traceEvents")
            .expect("traceEvents key")
            .as_array()
            .expect("traceEvents must be an array");
        assert!(!events.is_empty());
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
            assert!(["B", "E", "X", "i", "C", "M"].contains(&ph), "ph {ph:?}");
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(|t| t.as_f64()).is_some(), "ts on {ph}");
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn spans_pair_up_and_land_on_the_right_thread() {
        let text = export_chrome_trace(&sample_events());
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let fgmres: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("fgmres"))
            .collect();
        assert_eq!(fgmres.len(), 2);
        for e in &fgmres {
            assert_eq!(e.get("tid").unwrap().as_f64(), Some(1.0)); // rank 0 → tid 1
        }
        // B before E, microsecond timestamps.
        assert_eq!(fgmres[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(fgmres[1].get("ph").unwrap().as_str(), Some("E"));
        assert_eq!(fgmres[1].get("ts").unwrap().as_f64(), Some(1.5e6));
        // Host span sits on tid 0.
        let host: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("assembly"))
            .collect();
        assert_eq!(host.len(), 2);
        assert_eq!(host[0].get("tid").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn blocked_recv_becomes_wait_slice() {
        let text = export_chrome_trace(&sample_events());
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let wait = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("recv-wait"))
            .expect("blocked recv must export a wait slice");
        assert_eq!(wait.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(wait.get("ts").unwrap().as_f64(), Some(0.4e6));
        let dur = wait.get("dur").unwrap().as_f64().unwrap();
        assert!((dur - 0.5e6).abs() < 1e-6);
    }

    #[test]
    fn empty_stream_exports_empty_valid_document() {
        let text = export_chrome_trace(&[]);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }
}
