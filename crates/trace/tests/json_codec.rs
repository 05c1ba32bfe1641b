//! Tests of the one JSON codec, `parfem_trace::json`: `parse` inverts both
//! writer layouts over arbitrary trees (floats bit for bit, every string
//! escape, integers up to `u64::MAX`), and the JSON-Lines bytes a fixed
//! event set encodes to stay what they were before the trace codec moved
//! onto the shared writer.

use parfem_trace::json::{self, Json};
use parfem_trace::jsonl;
use parfem_trace::{EventKind, TraceEvent, Value};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// Characters that take every path of the writer's escaping, plus
/// multi-byte scalars.
const CHARS: [char; 16] = [
    '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{8}', '\u{c}', '/', 'a', ' ', 'é', '–', '⊕',
    '😀',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.next_u64() % 8)
        .map(|_| match rng.next_u64() % 3 {
            0 => CHARS[(rng.next_u64() % CHARS.len() as u64) as usize],
            _ => (b' ' + (rng.next_u64() % 95) as u8) as char,
        })
        .collect()
}

/// A finite float: any bit pattern (subnormals and extremes included) or
/// one of the awkward values.
#[allow(clippy::excessive_precision)]
fn float(rng: &mut TestRng) -> f64 {
    const AWKWARD: [f64; 8] = [0.1, 1.0 / 3.0, -0.0, 0.0, 4.0, 5e-324, f64::MAX, 1e20];
    if rng.next_u64() & 1 == 0 {
        return AWKWARD[(rng.next_u64() % AWKWARD.len() as u64) as usize];
    }
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

fn tree(rng: &mut TestRng, depth: usize) -> Json {
    match rng.next_u64() % if depth == 0 { 5 } else { 7 } {
        0 => {
            [Json::Null, Json::Bool(false), Json::Bool(true)][(rng.next_u64() % 3) as usize].clone()
        }
        1 => Json::Int(match rng.next_u64() % 3 {
            0 => u64::MAX,
            1 => rng.next_u64() % 1000,
            _ => rng.next_u64(),
        }),
        2 => Json::Num(float(rng)),
        3 | 4 => Json::Str(string(rng)),
        5 => Json::Arr(
            (0..rng.next_u64() % 5)
                .map(|_| tree(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.next_u64() % 5)
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Arbitrary JSON trees up to four levels deep.
struct Trees;

impl Strategy for Trees {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        tree(rng, 4)
    }
}

/// `parse(write(v))` against `v`: floats compare by bits, and a float the
/// writer spells as bare digits (`4.0` → `4`) may come back as the same
/// value typed [`Json::Int`].
fn same(back: &Json, v: &Json) -> bool {
    match (back, v) {
        (Json::Num(_) | Json::Int(_), Json::Num(x)) => {
            back.as_f64().map(f64::to_bits) == Some(x.to_bits())
        }
        (Json::Arr(a), Json::Arr(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
        }
        (Json::Obj(a), Json::Obj(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, x), (kb, y))| ka == kb && same(x, y))
        }
        _ => back == v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_inverts_both_layouts(v in Trees) {
        for text in [v.to_compact(), v.to_indented()] {
            let back = match json::parse(&text) {
                Ok(back) => back,
                Err(e) => return Err(TestCaseError::fail(format!("{text}: {e}"))),
            };
            prop_assert!(same(&back, &v), "{:?} came back as {:?}", v, back);
        }
    }
}

#[test]
fn compact_layout_has_no_whitespace_outside_strings() {
    let v = Json::obj([(
        "a",
        Json::Arr(vec![1u64.into(), Json::obj([("b", Json::Null)])]),
    )]);
    assert_eq!(v.to_compact(), r#"{"a":[1,{"b":null}]}"#);
    assert!(!v.to_compact().contains('\n'));
}

#[allow(clippy::excessive_precision)]
fn pinned_events() -> Vec<TraceEvent> {
    let ev = |rank, t_wall, t_virt, kind, name: &str, fields: Vec<(&str, Value)>| TraceEvent {
        rank,
        t_wall,
        t_virt,
        kind,
        name: name.to_string(),
        fields: fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    };
    vec![
        ev(None, 0.0, 0.0, EventKind::SpanBegin, "assembly", vec![]),
        ev(
            Some(3),
            0.1,
            1.0 / 3.0,
            EventKind::Send,
            "",
            vec![("peer", Value::U64(0)), ("bytes", Value::U64(u64::MAX))],
        ),
        ev(
            None,
            1.7976931348623157e308,
            5e-324,
            EventKind::Instant,
            "we\"ird\\na–me\n\t\u{1}\u{1f}\r",
            vec![
                ("inf", Value::F64(f64::INFINITY)),
                ("nan", Value::F64(f64::NAN)),
                ("neg_zero", Value::F64(-0.0)),
                ("tiny", Value::F64(6.62607015e-34)),
                ("whole", Value::F64(4.0)),
                ("big", Value::F64(1e300)),
                ("s", Value::Str("α β / \"q\"".into())),
            ],
        ),
        ev(
            Some(0),
            123456789.123456789,
            -2.5e-7,
            EventKind::Counter,
            "spmv_calls",
            vec![("value", Value::U64(42))],
        ),
    ]
}

#[test]
fn jsonl_bytes_stay_pinned() {
    let text = jsonl::encode_all(&pinned_events());
    let zeros = |n: usize| "0".repeat(n);
    let expected = [
        "{\"rank\":null,\"tw\":0,\"tv\":0,\"kind\":\"span_begin\",\"name\":\"assembly\"}\n"
            .to_string(),
        "{\"rank\":3,\"tw\":0.1,\"tv\":0.3333333333333333,\"kind\":\"send\",\"peer\":0,\
         \"bytes\":18446744073709551615}\n"
            .to_string(),
        format!(
            "{{\"rank\":null,\"tw\":17976931348623157{},\"tv\":0.{}5,\"kind\":\"instant\",\
             \"name\":\"we\\\"ird\\\\na–me\\n\\t\\u0001\\u001f\\r\",\"inf\":null,\"nan\":null,\
             \"neg_zero\":-0,\"tiny\":0.{}662607015,\"whole\":4,\"big\":1{},\
             \"s\":\"α β / \\\"q\\\"\"}}\n",
            zeros(292),
            zeros(323),
            zeros(33),
            zeros(300)
        ),
        "{\"rank\":0,\"tw\":123456789.12345679,\"tv\":-0.00000025,\"kind\":\"counter\",\
         \"name\":\"spmv_calls\",\"value\":42}\n"
            .to_string(),
    ]
    .concat();
    assert_eq!(text, expected);
}
