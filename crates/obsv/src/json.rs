//! The one JSON codec for every artifact the workspace writes or reads:
//! metrics snapshots, Chrome traces, `BENCH_*.json` and the goldens.
//!
//! Numbers are kept as their text, so `u64` counters and golden integers
//! stay exact and each writer keeps its own float precision. The layout
//! is fixed: two-space indent, one member or element per line, `{\n  }`
//! for an empty object at depth 1, and a trailing newline after the
//! top-level value. [`Json::parse`] is strict: it rejects trailing text,
//! duplicate keys, unterminated input, `null`, raw control characters and
//! every escape [`Json::render`] never writes, and it never panics.

use std::collections::HashSet;
use std::fmt;

/// Deepest nesting [`Json::parse`] accepts. Artifacts nest at most four
/// levels; the bound keeps a hostile file from exhausting the stack.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects keep their members in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its JSON text (e.g. `42`, `7.802347097`).
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in order, keys unique.
    Object(Vec<(String, Json)>),
}

/// Why [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An object from `(key, value)` members, in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A number written as `x`'s `Display` text: exact for integers,
    /// the shortest round-trip text for a finite `f64`.
    pub fn num(x: impl fmt::Display) -> Json {
        Json::Number(x.to_string())
    }

    /// A number with exactly `decimals` digits after the point.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Number(format!("{x:.decimals$}"))
    }

    /// Member `key` of an object; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Object(members) = self else { return None };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number parsed as `T` (`u64`, `f64`, ...), if this is a number
    /// and `T` can hold it.
    pub fn number<T: std::str::FromStr>(&self) -> Option<T> {
        let Json::Number(n) = self else { return None };
        n.parse().ok()
    }

    /// The artifact text: the value in the fixed layout plus a newline.
    pub fn render(&self) -> String {
        format!("{self}\n")
    }

    /// Parses exactly one JSON value, optionally surrounded by whitespace.
    ///
    /// # Errors
    ///
    /// [`JsonError`] naming the first offending byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        if p.skip_ws().is_some() {
            return p.fail("trailing text after the value");
        }
        Ok(value)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (members, open, close): (Vec<_>, _, _) = match self {
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Number(n) => return f.write_str(n),
            Json::String(s) => return write_string(f, s),
            Json::Array(items) => (items.iter().map(|v| (None, v)).collect(), "[", "]"),
            Json::Object(members) => {
                (members.iter().map(|(k, v)| (Some(k), v)).collect(), "{", "}")
            }
        };
        f.write_str(open)?;
        for (i, (key, value)) in members.into_iter().enumerate() {
            write!(f, "{}\n{:2$}", if i > 0 { "," } else { "" }, "", 2 * depth + 2)?;
            if let Some(key) = key {
                write_string(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        write!(f, "\n{:1$}{close}", "", 2 * depth)
    }
}

/// The value in the artifact layout, without the trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

/// Escapes `"` and `\` by backslash and control characters as `\u00XX`,
/// the only escapes [`Json::parse`] accepts.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(f, "\\{c}")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, reason: &'static str) -> Result<T, JsonError> {
        Err(JsonError { offset: self.pos, reason })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and returns the next byte.
    fn skip_ws(&mut self) -> Option<u8> {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
        self.peek()
    }

    /// Consumes `byte` if it comes next after whitespace.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.skip_ws() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        match self.skip_ws() {
            Some(b'{' | b'[') => self.container(depth),
            Some(b'"') => self.string().map(Json::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.text[self.pos..].starts_with("true") => {
                self.pos += 4;
                Ok(Json::Bool(true))
            }
            _ if self.text[self.pos..].starts_with("false") => {
                self.pos += 5;
                Ok(Json::Bool(false))
            }
            _ => self.fail("expected a value"),
        }
    }

    /// An object or array, starting at its opening bracket.
    fn container(&mut self, depth: usize) -> Result<Json, JsonError> {
        let object = self.peek() == Some(b'{');
        let close = if object { b'}' } else { b']' };
        self.pos += 1;
        let (mut items, mut members, mut keys) = (Vec::new(), Vec::new(), HashSet::new());
        if !self.eat(close) {
            loop {
                if object {
                    if self.skip_ws() != Some(b'"') {
                        return self.fail("expected a member key");
                    }
                    let key_at = self.pos;
                    let key = self.string()?;
                    if !keys.insert(key.clone()) {
                        return Err(JsonError { offset: key_at, reason: "duplicate key" });
                    }
                    if !self.eat(b':') {
                        return self.fail("expected ':' after a member key");
                    }
                    members.push((key, self.value(depth + 1)?));
                } else {
                    items.push(self.value(depth + 1)?);
                }
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return self.fail("expected ',' or a closing bracket");
                }
            }
        }
        Ok(if object { Json::Object(members) } else { Json::Array(items) })
    }

    /// A string, starting at its opening quote. Positions only ever stop
    /// on ASCII bytes, so every slice falls on a character boundary.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return self.fail("raw control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// One escape at its backslash: `\"`, `\\` or `\u00XX` below `0x20`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let escaped = match self.text.as_bytes().get(self.pos + 1) {
            Some(b'"') => Some((b'"', 2)),
            Some(b'\\') => Some((b'\\', 2)),
            Some(b'u') => self
                .text
                .get(self.pos + 2..self.pos + 6)
                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|hex| u8::from_str_radix(hex, 16).ok())
                .filter(|&code| code < 0x20)
                .map(|code| (code, 6)),
            _ => None,
        };
        let Some((byte, len)) = escaped else { return self.fail("unsupported escape") };
        self.pos += len;
        Ok(char::from(byte))
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
        }
        Ok(Json::Number(self.text[start..self.pos].to_string()))
    }

    /// One or more digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.fail("expected a digit");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_artifact_layout() {
        let doc = Json::object([
            ("schema", Json::from("s")),
            ("n", Json::num(3)),
            ("empty", Json::Object(Vec::new())),
            ("list", Json::Array(vec![Json::Bool(true), Json::fixed(1.0, 2)])),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"schema\": \"s\",\n  \"n\": 3,\n  \"empty\": {\n  },\n  \
             \"list\": [\n    true,\n    1.00\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&text), Ok(doc));
    }

    #[test]
    fn strings_round_trip_through_the_escapes_render_writes() {
        let s = Json::from("a\"b\\c\u{1}d é");
        let text = s.render();
        assert_eq!(text, "\"a\\\"b\\\\c\\u0001d é\"\n");
        assert_eq!(Json::parse(&text), Ok(s));
    }

    #[test]
    fn numbers_keep_their_text() {
        let big = u64::MAX.to_string();
        assert_eq!(Json::parse(&big).unwrap().number::<u64>(), Some(u64::MAX));
        assert_eq!(Json::parse("-0.5e+3"), Ok(Json::Number("-0.5e+3".into())));
        assert_eq!(Json::parse("1.50").unwrap().to_string(), "1.50");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\": 1",
            "{\"a\": 1,}",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": 1} x",
            "[1 2]",
            "null",
            "01",
            "1.",
            "-",
            "1e",
            "\"\\n\"",
            "\"\\u0041\"",
            "\"\\u00zz\"",
            "\"\\u",
            "\"tab\there\"",
            "\"open",
            "tru",
            "{1: 2}",
            "not json",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(Json::parse(&deep).unwrap_err().reason, "nesting too deep");
    }

    #[test]
    fn errors_name_the_offset() {
        let err = Json::parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert_eq!(err, JsonError { offset: 9, reason: "duplicate key" });
        assert_eq!(err.to_string(), "invalid JSON at byte 9: duplicate key");
    }
}
