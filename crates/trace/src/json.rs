//! The workspace's one JSON codec: a [`Json`] value, one parser and one
//! writer.
//!
//! Everything the tree reads or writes as JSON goes through here: the
//! JSON-Lines trace ([`crate::jsonl`], compact layout), the chrome export
//! (compact), the critical-path export and the bench snapshots
//! (`BENCH_PERF.json`, `BENCH_BASELINE.json`, indented). Like the rest of
//! the crate it is `std`-only.
//!
//! - **Numbers.** An all-digit literal that fits in `u64` parses as an
//!   exact [`Json::Int`] (trace counters go up to `u64::MAX`); every other
//!   number is a [`Json::Num`]. [`Json::as_f64`] reads both. The writer
//!   writes a finite float with `{}` (shortest round trip, so parsing it
//!   back recovers the bits) and a non-finite one as `null`.
//! - **Nesting.** The parser rejects documents nested deeper than 64
//!   arrays and objects with a [`JsonError`] instead of recursing without
//!   bound.

use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`parse`] accepts. Everything
/// the tree writes nests at most 4 deep.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, exact.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (keys are not deduplicated).
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on an object (first match wins); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as a number (an integer too), if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object member list, if it is one.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The one-line layout (no whitespace), as JSON-Lines needs it.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the one-line layout to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None);
    }

    /// The indented layout: one member or item per line, two spaces per
    /// level, `"key": value`, and a final newline.
    pub fn to_indented(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items, |out, v, ind| {
                v.write(out, ind)
            }),
            Json::Obj(members) => write_seq(out, indent, '{', '}', members, |out, (k, v), ind| {
                push_str(out, k);
                out.push_str(if ind.is_some() { ": " } else { ":" });
                v.write(out, ind);
            }),
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|i| i + 2);
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(ind) = inner {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', ind));
        }
        item(out, v, inner);
    }
    if let (Some(ind), false) = (indent, items.is_empty()) {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', ind));
    }
    out.push(close);
}

/// Appends `s` as one quoted JSON string literal.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// One value at nesting `depth` (the number of arrays and objects
    /// around it).
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err(&format!(
                "nested deeper than {MAX_DEPTH} arrays and objects"
            ))),
            Some(b'{') => {
                let members = self.seq(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    Ok((key, p.value(depth + 1)?))
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => Ok(Json::Arr(self.seq(b'[', b']', |p| p.value(depth + 1))?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// A comma-separated sequence between `open` and `close`.
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(self.err(&format!(
                        "expected ',' or '{}' after {} item",
                        close as char,
                        if open == b'{' {
                            "an object"
                        } else {
                            "an array"
                        }
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The input came in as &str, so the bytes from here to
                    // the next quote or backslash are whole UTF-8 scalars.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // An all-digit literal past `u64::MAX` (the `{}` form of a huge
        // float) falls back to `f64`.
        match text.parse::<u64>() {
            Ok(v) if text.bytes().all(|b| b.is_ascii_digit()) => Ok(Json::Int(v)),
            _ => text
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err(&format!("malformed number {text:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": null, "e": true}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1, 2",
            r#"{"a": }"#,
            r#"{"a": 1} extra"#,
            "{\"a\": 1,}",
            "\"unterminated",
            "nul",
            "- 3",
            "1.2.3",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_and_literals() {
        let doc = parse(r#"["A", "π", "a\/b\b\f"]"#).unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("A"));
        assert_eq!(items[1].as_str(), Some("π"));
        assert_eq!(items[2].as_str(), Some("a/b\u{8}\u{c}"));
    }

    #[test]
    fn parses_committed_perf_schema_shape() {
        let doc = parse(
            r#"{"schema": "parfem-bench-perf-v1",
                "spmv": { "n": 65536, "secs": 3.43e-4, "mflops": 1904.6 }}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("parfem-bench-perf-v1")
        );
        let spmv = doc.get("spmv").unwrap();
        assert_eq!(spmv.get("mflops").unwrap().as_f64(), Some(1904.6));
    }

    #[test]
    fn integers_stay_exact_and_huge_literals_fall_back_to_floats() {
        let doc = parse("[0, 18446744073709551615, 18446744073709551616, -1, 4.0, 1e2]").unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0], Json::Int(0));
        assert_eq!(items[1], Json::Int(u64::MAX));
        assert_eq!(items[2], Json::Num(18446744073709551616.0));
        assert_eq!(items[3], Json::Num(-1.0));
        assert_eq!(items[4], Json::Num(4.0));
        assert_eq!(items[5].as_f64(), Some(100.0));
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert!(err.reason.contains("nested deeper"), "{err}");
        assert_eq!(err.pos, MAX_DEPTH);
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn layouts() {
        let doc = Json::obj([
            ("s", Json::from("q\"\u{1}")),
            (
                "n",
                Json::Arr(vec![1u64.into(), 0.5.into(), f64::NAN.into()]),
            ),
            ("e", Json::Obj(vec![])),
        ]);
        assert_eq!(
            doc.to_compact(),
            r#"{"s":"q\"\u0001","n":[1,0.5,null],"e":{}}"#
        );
        assert_eq!(
            doc.to_indented(),
            "{\n  \"s\": \"q\\\"\\u0001\",\n  \"n\": [\n    1,\n    0.5,\n    null\n  ],\n  \"e\": {}\n}\n"
        );
    }
}
