//! A deliberately small, dependency-free JSON layer.
//!
//! The build environment is offline, so instead of `serde` the exporters
//! build a [`Json`] tree and render it; object members keep insertion
//! order, which makes every export byte-stable across runs. A matching
//! recursive-descent [`parse`]/[`validate`] pair lets the tests (and CI)
//! assert that emitted documents are well-formed without external tools.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for counters).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float. Non-finite values render as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Appends a member to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(members) => members.push((key.into(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Looks up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array, or an empty slice.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Numeric view (integers widen; non-numbers are `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline — the
    /// format committed to `BENCH_*.json`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) if v.is_finite() => {
                // `{}` prints the shortest roundtrip form; force a decimal
                // point so the value parses back as a float.
                let s = format!("{v}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, b'[', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(members) => write_seq(out, indent, b'{', members.len(), |out, i, ind| {
                write_escaped(out, &members[i].0);
                out.push_str(": ");
                members[i].1.write(out, ind);
            }),
        }
    }
}

/// Shared layout for arrays and objects: one element per line when
/// pretty-printing, comma-separated otherwise.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: u8,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    let close = if open == b'[' { ']' } else { '}' };
    out.push(open as char);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(level) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(level + 1));
        }
        item(out, i, indent.map(|l| l + 1));
        if i + 1 < len {
            out.push(',');
            if indent.is_none() {
                out.push(' ');
            }
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// How deeply arrays and objects may nest. The parser recurses once
/// per level, so without a bound a document of nothing but `[` would
/// overflow the stack. The deepest committed document nests 7 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (complete input, no trailing garbage).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error,
/// or of the first array or object nested more than 128 levels deep.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

/// Checks that `text` is well-formed JSON.
///
/// # Errors
///
/// See [`parse`].
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Parses one value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// The UTF-16 code unit spelled by the four hex digits at byte `at`.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.bytes
            .get(at..at + 4)?
            .iter()
            .try_fold(0, |unit, &b| Some(unit << 4 | (b as char).to_digit(16)?))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let unit = self
                                .hex4(self.pos + 1)
                                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                            self.pos += 4;
                            // A high surrogate escape followed by a low
                            // one is one UTF-16 pair; any other surrogate
                            // stands alone and becomes U+FFFD.
                            let low = match self.bytes.get(self.pos + 1..self.pos + 3) {
                                Some(b"\\u") if (0xD800..0xDC00).contains(&unit) => self
                                    .hex4(self.pos + 3)
                                    .filter(|lo| (0xDC00..0xE000).contains(lo)),
                                _ => None,
                            };
                            let cp = match low {
                                Some(lo) => {
                                    self.pos += 6;
                                    0x10000 + ((unit - 0xD800) << 10) + (lo - 0xDC00)
                                }
                                None => unit,
                            };
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control character at byte {start}"))
                }
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one multi-byte UTF-8 scalar. The input is a
                    // &str, so the bytes are valid and `pos` is at a
                    // boundary — decode just this scalar's bytes rather
                    // than re-validating the whole remaining input (which
                    // would make parsing quadratic in document size).
                    let len = match lead {
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let ch = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| "invalid utf-8".to_string())?
                        .chars()
                        .next()
                        .unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Parses a number by RFC 8259's grammar: an optional `-`, then `0`
    /// or a digit run not starting with `0`, then an optional fraction and
    /// exponent, each with at least one digit.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad()),
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Json::U64(u))
        } else {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compact_and_pretty() {
        let doc = Json::obj([
            ("name", Json::Str("LL 3: inner \"product\"".into())),
            ("cycles", Json::U64(1234)),
            ("mflops", Json::F64(5.5)),
            ("neg", Json::I64(-3)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        for text in [doc.to_string(), doc.pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(back.get("cycles").unwrap().as_f64(), Some(1234.0));
            assert_eq!(
                back.get("name").unwrap().as_str(),
                Some("LL 3: inner \"product\"")
            );
            assert_eq!(back.get("flags").unwrap().items().len(), 2);
        }
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Json::F64(2.0).to_string(), "2.0");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert!(matches!(parse("2.0").unwrap(), Json::F64(_)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\\x\"",
            "nul",
            "\"\\u+041\"",
            "01",
            "-01",
            "1.",
            "1.e5",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let err = parse(&format!("[{at_limit}]")).unwrap_err();
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let s = Json::Str("a\"b\\c\nd\u{1}".into()).to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
        // An escaped surrogate pair is one scalar; a lone surrogate of
        // either kind is U+FFFD.
        for (doc, want) in [
            (r#""\ud83d\ude00""#, "\u{1F600}"),
            (r#""\uD83D\uDE00""#, "\u{1F600}"),
            (r#""\ud83d""#, "\u{FFFD}"),
            (r#""\ude00""#, "\u{FFFD}"),
            (r#""\ud83d\u0041""#, "\u{FFFD}A"),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut doc = Json::obj([("z", Json::U64(1))]);
        doc.push("a", Json::U64(2));
        assert_eq!(doc.to_string(), "{\"z\": 1, \"a\": 2}");
    }
}
