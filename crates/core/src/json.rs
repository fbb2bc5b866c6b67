//! A small JSON value type, parser, and writer.
//!
//! The queue wire format ("every message in the queue describes a single
//! task") and the GTM model-distribution format are JSON so they stay
//! inspectable and language-neutral, but the workspace is dependency-free
//! by design — this module is the ~300 lines of JSON we actually need.
//!
//! Numbers keep integer/float identity: integers round-trip exactly at
//! full `u64`/`i64` range (not through `f64`), and floats are written with
//! Rust's shortest round-trip formatting.

use crate::error::{PpcError, Result};
use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integer literal (no fraction/exponent in the source).
    Int(i128),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key-value pairs in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors with the missing key's name.
    pub fn field(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| PpcError::Codec(format!("missing field '{key}'")))
    }

    pub fn as_u64(&self) -> Result<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).map_err(|_| type_err("u64", self)),
            Json::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Ok(*f as u64)
            }
            other => Err(type_err("u64", other)),
        }
    }

    pub fn as_usize(&self) -> Result<usize> {
        usize::try_from(self.as_u64()?).map_err(|_| type_err("usize", self))
    }

    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).map_err(|_| type_err("i64", self)),
            other => Err(type_err("i64", other)),
        }
    }

    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(f) => Ok(*f),
            other => Err(type_err("number", other)),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_err("string", other)),
        }
    }

    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_err("array", other)),
        }
    }

    /// Array of numbers → `Vec<f64>` (the matrix payload shape).
    pub fn as_f64_vec(&self) -> Result<Vec<f64>> {
        self.as_arr()?.iter().map(Json::as_f64).collect()
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "int",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

fn type_err(want: &str, got: &Json) -> PpcError {
    PpcError::Codec(format!("expected {want}, got {}", got.kind()))
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
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
impl FromIterator<f64> for Json {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Json::Float).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(v) => {
                if v.is_finite() {
                    // Rust's shortest round-trip float formatting; force a
                    // fraction so the value re-parses as a float.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no NaN/Infinity; null is the conventional hole.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> PpcError {
        PpcError::Codec(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: expect \uDC00-\uDFFF next.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 advanced pos past the digits; continue the
                            // loop without the extra +1 below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the source.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty char"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid float literal"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid integer literal"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn float_round_trips_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-300, 12345.6789, -2.5e17, 1.0] {
            let v = Json::Float(f);
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(back.as_f64().unwrap(), f, "float {f} round trip");
        }
    }

    #[test]
    fn u64_range_is_exact() {
        let v = Json::from(u64::MAX);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn nested_document() {
        let text = r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":true}, "e": -3}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.field("e").unwrap().as_i64().unwrap(), -3);
        assert!(matches!(v.field("b").unwrap().get("c"), Some(Json::Null)));
        // Re-render and re-parse: stable.
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(again, v);
    }

    #[test]
    fn string_escapes() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{1F600} ünïcode";
        let v = Json::Str(original.to_string());
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_str().unwrap(), original);
        // Escaped-source forms parse too.
        let v = Json::parse(r#""aA\n😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aA\n\u{1F600}");
    }

    #[test]
    fn errors_are_codec_errors() {
        for bad in [
            "{not json",
            "[1,",
            "\"unterminated",
            "01x",
            "{\"a\":1} junk",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.code(), "Codec", "input {bad:?}");
        }
    }

    #[test]
    fn missing_field_names_the_key() {
        let v = Json::parse("{}").unwrap();
        let err = v.field("profile").unwrap_err();
        assert!(err.to_string().contains("profile"));
    }
}
