//! A minimal JSON document model with a writer and a recursive-descent
//! parser.
//!
//! The build environment has no crates.io access, so no serde is
//! available.  Telemetry, however, genuinely needs bytes on disk — the JSONL
//! event stream and the `BENCH_scaling.json` perf-trajectory artifact are
//! consumed by CI and by humans — so this module carries the small,
//! dependency-free JSON kernel those writers share.  It is deliberately tiny: just enough of RFC 8259 to
//! round-trip the event vocabulary and the metrics snapshots (no `\u`
//! escapes beyond what the writer emits, numbers parsed as `f64`).

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the writer, so documents
    /// built from sorted inputs render deterministically.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder from `(key, value)` pairs.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        Self::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The value of `key` when `self` is an object that carries it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number when `self` is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a non-negative integer (counters, indices).
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The string when `self` is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean when `self` is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements when `self` is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields when `self` is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value as indented multi-line JSON (2-space steps).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (open_pad, item_pad, close_pad) = match indent {
            Some(step) => (
                "\n".to_owned() + &" ".repeat(step * (depth + 1)),
                "\n".to_owned() + &" ".repeat(step * (depth + 1)),
                "\n".to_owned() + &" ".repeat(step * depth),
            ),
            None => (String::new(), String::new(), String::new()),
        };
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(true) => out.push_str("true"),
            Self::Bool(false) => out.push_str("false"),
            Self::Num(x) => write_number(out, *x),
            Self::Str(s) => write_string(out, s),
            Self::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                out.push_str(&open_pad);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        out.push_str(&item_pad);
                    }
                    item.write(out, indent, depth + 1);
                }
                out.push_str(&close_pad);
                out.push(']');
            }
            Self::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                out.push_str(&open_pad);
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        out.push_str(&item_pad);
                    }
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text` (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable description with the byte offset of the first
    /// problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Self {
        Self::Num(value)
    }
}

impl From<u64> for Json {
    #[allow(clippy::cast_precision_loss)]
    fn from(value: u64) -> Self {
        Self::Num(value as f64)
    }
}

impl From<usize> for Json {
    #[allow(clippy::cast_precision_loss)]
    fn from(value: usize) -> Self {
        Self::Num(value as f64)
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Self {
        Self::Bool(value)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Self::Str(value.to_owned())
    }
}

impl From<String> for Json {
    fn from(value: String) -> Self {
        Self::Str(value)
    }
}

/// Writes a number the parser can read back exactly: integers without an
/// exponent, everything else via `f64`'s shortest round-trip `Display`.
/// Non-finite values (never produced by the metrics, but a wall clock could
/// conceivably overflow a division) degrade to `null`.
fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        let _ = write!(out, "{x:.0}");
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, literal: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null", Json::Null),
        Some(b't') => expect(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let mut chars = text[*pos..].char_indices();
    while let Some((offset, c)) = chars.next() {
        match c {
            '"' => {
                *pos += offset + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((escape_at, 'u')) => {
                    let start = *pos + escape_at + 1;
                    let hex = text
                        .get(start..start + 4)
                        .ok_or_else(|| "truncated \\u escape".to_owned())?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        for (value, expected) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::Num(42.0), "42"),
            (Json::Num(-1.5), "-1.5"),
            (
                Json::Str("hi \"there\"\n".into()),
                "\"hi \\\"there\\\"\\n\"",
            ),
        ] {
            assert_eq!(value.render(), expected);
            assert_eq!(Json::parse(expected).unwrap(), value);
        }
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj(vec![
            ("name", "perf_trajectory".into()),
            ("counts", Json::Arr(vec![1u64.into(), 2u64.into()])),
            (
                "nested",
                Json::obj(vec![
                    ("pi", std::f64::consts::PI.into()),
                    ("none", Json::Null),
                ]),
            ),
            ("ok", true.into()),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, "x", true]}, "n": 7}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        let items = doc
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_str(), Some("x"));
        assert_eq!(items[2].as_bool(), Some(true));
        assert!(doc.get("missing").is_none());
        assert_eq!(doc.as_object().unwrap().len(), 2);
        assert!(Json::Num(1.5).as_u64().is_none());
        assert!(Json::Num(-1.0).as_u64().is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":}",
            "nope",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn large_integers_render_without_exponent() {
        let big = (1u64 << 52) + 12345;
        let json = Json::from(big);
        assert_eq!(json.render(), format!("{big}"));
        assert_eq!(Json::parse(&json.render()).unwrap().as_u64(), Some(big));
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn unicode_and_control_escapes_round_trip() {
        let s = Json::Str("tabs\tand\u{1}bells — ünïcode".into());
        assert_eq!(Json::parse(&s.render()).unwrap(), s);
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
    }
}
