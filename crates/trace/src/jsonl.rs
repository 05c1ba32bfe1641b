//! The JSON-Lines codec for [`TraceEvent`] streams, over [`crate::json`].
//!
//! One JSON object per line. Reserved keys: `rank` (integer or `null`),
//! `tw`, `tv` (numbers), `kind` (string), `name` (string, omitted when
//! empty). Every other key/value pair is an event field. Values are limited
//! to non-negative integers, floats, strings, and `null` (non-finite float);
//! the writer's shortest-round-trip float formatting makes encode → parse
//! exact for finite values.

use crate::event::{EventKind, TraceEvent, Value};
use crate::json::{self, Json};

impl From<&Value> for Json {
    fn from(v: &Value) -> Json {
        match v {
            Value::U64(u) => Json::Int(*u),
            Value::F64(f) => Json::Num(*f),
            Value::Str(s) => Json::from(s.as_str()),
        }
    }
}

fn to_json(ev: &TraceEvent) -> Json {
    let rank = ev.rank.map_or(Json::Null, Json::from);
    let mut members = vec![
        ("rank", rank),
        ("tw", ev.t_wall.into()),
        ("tv", ev.t_virt.into()),
        ("kind", ev.kind.as_str().into()),
    ];
    if !ev.name.is_empty() {
        members.push(("name", ev.name.as_str().into()));
    }
    let fields = ev.fields.iter().map(|(k, v)| (k.as_str(), v.into()));
    Json::obj(members.into_iter().chain(fields))
}

/// Encodes one event as a single JSON line (no trailing newline).
pub fn encode(ev: &TraceEvent) -> String {
    to_json(ev).to_compact()
}

/// Encodes a whole event stream as JSON-Lines text (one `\n` per event).
pub fn encode_all(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        to_json(ev).write_compact(&mut out);
        out.push('\n');
    }
    out
}

/// A parse failure: the offending line (1-based) and a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the parsed text.
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON line back into an event.
pub fn decode(line: &str) -> Result<TraceEvent, String> {
    let Json::Obj(members) = json::parse(line).map_err(|e| e.to_string())? else {
        return Err("a trace line must be a JSON object".to_string());
    };
    // `null` stands for a non-finite float.
    let number = |key: &str, v: &Json| match v {
        Json::Null => Ok(f64::NAN),
        v => v.as_f64().ok_or(format!("{key} must be a number")),
    };
    let mut ev = TraceEvent {
        rank: None,
        t_wall: 0.0,
        t_virt: 0.0,
        kind: EventKind::Instant,
        name: String::new(),
        fields: Vec::new(),
    };
    let mut kind = None;
    for (key, value) in members {
        match (key.as_str(), value) {
            ("rank", Json::Null) => ev.rank = None,
            ("rank", Json::Int(r)) => ev.rank = Some(r as usize),
            ("rank", other) => return Err(format!("rank must be integer or null, got {other:?}")),
            ("tw", v) => ev.t_wall = number("tw", &v)?,
            ("tv", v) => ev.t_virt = number("tv", &v)?,
            ("kind", Json::Str(s)) => {
                kind = Some(EventKind::parse(&s).ok_or_else(|| format!("unknown kind {s:?}"))?);
            }
            ("kind", _) => return Err("kind must be a string".to_string()),
            ("name", Json::Str(s)) => ev.name = s,
            ("name", _) => return Err("name must be a string".to_string()),
            (_, Json::Int(u)) => ev.fields.push((key, Value::U64(u))),
            (_, Json::Str(s)) => ev.fields.push((key, Value::Str(s))),
            (_, v) => {
                let f = number(&key, &v)?;
                ev.fields.push((key, Value::F64(f)));
            }
        }
    }
    ev.kind = kind.ok_or("missing kind")?;
    Ok(ev)
}

/// Parses a JSON-Lines document (blank lines ignored) into events.
pub fn decode_all(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(decode(line).map_err(|reason| ParseError {
            line: i + 1,
            reason,
        })?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            rank: Some(2),
            t_wall: 0.001953125,
            t_virt: 1.25e-4,
            kind: EventKind::Send,
            name: String::new(),
            fields: vec![
                ("peer".into(), Value::U64(3)),
                ("bytes".into(), Value::U64(640)),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let ev = sample();
        let line = encode(&ev);
        assert_eq!(decode(&line).unwrap(), ev);
    }

    #[test]
    fn host_events_have_null_rank() {
        let mut ev = sample();
        ev.rank = None;
        ev.kind = EventKind::SpanBegin;
        ev.name = "assembly".into();
        ev.fields.clear();
        let line = encode(&ev);
        assert!(line.contains("\"rank\":null"));
        assert_eq!(decode(&line).unwrap(), ev);
    }

    #[test]
    #[allow(clippy::excessive_precision)] // a value that rounds on parse is the point
    fn awkward_floats_round_trip() {
        for v in [
            0.1,
            1.0 / 3.0,
            6.62607015e-34,
            1.7976931348623157e308,
            5e-324,
            -0.0,
            123456789.123456789,
        ] {
            let ev = TraceEvent {
                rank: Some(0),
                t_wall: v,
                t_virt: -v,
                kind: EventKind::Instant,
                name: "f".into(),
                fields: vec![("x".into(), Value::F64(v))],
            };
            let back = decode(&encode(&ev)).unwrap();
            assert_eq!(back.t_wall.to_bits(), v.to_bits(), "tw for {v}");
            assert_eq!(back.f64("x").unwrap().to_bits(), v.to_bits(), "x for {v}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let ev = TraceEvent {
            rank: None,
            t_wall: 0.0,
            t_virt: 0.0,
            kind: EventKind::Instant,
            name: "we\"ird\\na–me\n\t\u{1}".into(),
            fields: vec![("s".into(), Value::Str("α β".into()))],
        };
        assert_eq!(decode(&encode(&ev)).unwrap(), ev);
    }

    #[test]
    fn non_finite_floats_become_null_then_nan() {
        let ev = TraceEvent {
            rank: Some(0),
            t_wall: 0.0,
            t_virt: 0.0,
            kind: EventKind::Iter,
            name: String::new(),
            fields: vec![("rel_res".into(), Value::F64(f64::INFINITY))],
        };
        let line = encode(&ev);
        assert!(line.contains("\"rel_res\":null"));
        assert!(decode(&line).unwrap().f64("rel_res").unwrap().is_nan());
    }

    #[test]
    fn decode_all_skips_blank_lines_and_numbers_errors() {
        let ev = sample();
        let text = format!("{}\n\n{}\n", encode(&ev), encode(&ev));
        assert_eq!(decode_all(&text).unwrap().len(), 2);

        let bad = format!("{}\nnot json\n", encode(&ev));
        let err = decode_all(&bad).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn fields_hold_only_numbers_strings_and_null() {
        let head = "{\"rank\":0,\"tw\":0,\"tv\":0,\"kind\":\"send\",\"x\":";
        for bad in ["true", "[1]", "{\"a\":1}"] {
            let err = decode(&format!("{head}{bad}}}")).unwrap_err();
            assert!(err.contains("x must be a number"), "{bad}: {err}");
        }
        assert!(decode(&format!("{head}null}}"))
            .unwrap()
            .f64("x")
            .unwrap()
            .is_nan());
        assert!(decode("[1]").is_err());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(decode("{\"rank\":0,\"tw\":0,\"tv\":0,\"kind\":\"warp\"}").is_err());
    }
}
