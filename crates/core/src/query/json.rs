//! Minimal JSON for the query layer — no external dependencies.
//!
//! The shard protocol needs exactly three things from a serialization
//! format, and general-purpose crates provide none of them offline:
//!
//! 1. **Canonical output** — [`Value::render`] writes object keys in
//!    insertion order with fixed spacing, so two [`Report`](super::Report)s
//!    with equal contents serialize to *byte-identical* text. The CI shard
//!    smoke step literally `diff`s a merged two-shard report against the
//!    single-process run.
//! 2. **Arbitrary-precision integers** — sufficient statistics are exact
//!    `u128` sums. Numbers are kept as raw token strings
//!    ([`Value::Num`]), so `Σx²` survives a round-trip without touching
//!    `f64`.
//! 3. **Determinism of floats** — derived means and half-widths are
//!    written with Rust's shortest-round-trip formatting (`{}`), a pure
//!    function of the bits.
//!
//! The parser is a recursive-descent reader of the JSON subset the query
//! layer emits (objects, arrays, strings, numbers, booleans, null —
//! string escapes `\" \\ \/ \n \t \r \b \f \uXXXX`). It rejects an
//! object that repeats a key.

use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve key insertion order (canonical
/// rendering); numbers keep their raw token (exact integers).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (never parsed to `f64` unless
    /// asked, so 128-bit sums stay exact).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered key→value list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object constructor from an ordered field list.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A number value from anything integer-like.
    pub fn num<T: std::fmt::Display>(n: T) -> Value {
        Value::Num(n.to_string())
    }

    /// A float value via shortest-round-trip formatting.
    ///
    /// # Panics
    /// If `f` is not finite (JSON has no NaN/∞; the query layer never
    /// produces them).
    pub fn float(f: f64) -> Value {
        assert!(f.is_finite(), "non-finite float {f} has no JSON form");
        let mut s = f.to_string();
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            // Keep floats visually distinct from integers ("0.95", "512.0").
            s.push_str(".0");
        }
        Value::Num(s)
    }

    /// A string value.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object key.
    pub fn req(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number token parsed as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `u128` (exact sufficient statistics).
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Renders canonically: 2-space indentation, keys in insertion order,
    /// a trailing newline. Equal values render to byte-identical text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(tok) => out.push_str(tok),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                // Arrays of scalars stay on one line; arrays of containers
                // get one element per line.
                let nested = items
                    .iter()
                    .any(|v| matches!(v, Value::Arr(_) | Value::Obj(_)));
                if nested {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        out.push_str(if i == 0 { "\n" } else { ",\n" });
                        push_indent(out, indent + 1);
                        v.write(out, indent + 1);
                    }
                    out.push('\n');
                    push_indent(out, indent);
                    out.push(']');
                } else {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        v.write(out, indent);
                    }
                    out.push(']');
                }
            }
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// ```
/// use mrw_core::query::json::{parse, Value};
///
/// let v = parse(r#"{"trials": 512, "tags": ["a", "b"]}"#).unwrap();
/// assert_eq!(v.req("trials").unwrap().as_u64(), Some(512));
/// assert_eq!(v.req("tags").unwrap().as_arr().unwrap().len(), 2);
/// // render → parse is the identity.
/// assert_eq!(parse(&v.render()).unwrap(), v);
/// ```
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let one hostile
/// document (a frame of `[`s) overflow the stack; every document this
/// crate writes nests at most a handful of levels.
const MAX_DEPTH: usize = 64;

/// Parses the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let at = *pos;
                let key = parse_string(bytes, pos)?;
                // A repeated key would make every reader pick one copy
                // silently; canonical output never repeats one.
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key '{key}' at byte {at}"));
                }
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!(
                    "unexpected character {:?} at byte {start}",
                    bytes[start] as char
                ));
            }
            let tok = std::str::from_utf8(&bytes[start..*pos]).expect("scanned ASCII");
            // Validate the token is a number without losing its text.
            if tok.parse::<f64>().is_err() {
                return Err(format!("malformed number '{tok}' at byte {start}"));
            }
            Ok(Value::Num(tok.to_string()))
        }
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {pos}", pos = *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multibyte sequences pass through).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_canonical_form() {
        let v = Value::obj(vec![
            ("name", Value::str("cycle(64)")),
            ("count", Value::num(512u64)),
            (
                "sum",
                Value::num(340_282_366_920_938_463_463_374_607_431u128),
            ),
            ("mean", Value::float(123.456)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            ("arr", Value::Arr(vec![Value::num(1), Value::num(2)])),
        ]);
        let text = v.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.render(), text, "render is canonical");
        assert_eq!(
            back.req("sum").unwrap().as_u128(),
            Some(340_282_366_920_938_463_463_374_607_431)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::str("a\"b\\c\nd\te — π");
        let back = parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn float_formatting_is_distinct_from_ints() {
        assert_eq!(Value::float(512.0).render(), "512.0\n");
        assert_eq!(Value::num(512u64).render(), "512\n");
        assert_eq!(Value::float(0.05).render(), "0.05\n");
    }

    #[test]
    fn parse_errors() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("--5").is_err());
        // Nesting is capped, so a deep document is an error naming the
        // byte of the first bracket past the cap, not a stack overflow.
        let deep = |open: &str, close: &str, levels: usize| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        assert!(parse(&deep("[", "]", MAX_DEPTH)).is_ok());
        let err = parse(&deep("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than 64 levels at byte {MAX_DEPTH}")
        );
        assert!(parse(&deep("{\"a\":", "}", MAX_DEPTH)).is_ok());
        let err = parse(&deep("{\"a\":", "}", 100_000)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than 64 levels at byte {}", 5 * MAX_DEPTH)
        );
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse(r#"{"trials": 10, "trials": 500}"#).unwrap_err();
        assert!(err.contains("duplicate key 'trials'"), "{err}");
        assert!(parse(r#"{"a": {"b": 1, "b": 2}}"#).is_err());
        // The same key in sibling objects is fine.
        assert!(parse(r#"[{"b": 1}, {"b": 2}]"#).is_ok());
    }

    #[test]
    fn accepts_standard_json_whitespace() {
        let v = parse("  {\n \"a\" : [ 1 ,\t2 ] , \"b\" : null }\r\n").unwrap();
        assert_eq!(v.req("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.req("b").unwrap(), &Value::Null);
    }

    #[test]
    #[should_panic(expected = "no JSON form")]
    fn non_finite_floats_rejected() {
        Value::float(f64::NAN);
    }
}
