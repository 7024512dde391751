//! A minimal JSON value, writer and reader.
//!
//! The build environment has no registry access, so the exporters and
//! their round-trip/validation tests use this self-contained
//! implementation instead of serde. Integers are kept exact (`i128`), so
//! `u64` metric counts survive a serialize → parse → serialize cycle bit
//! for bit; floats use the shortest `{:?}` form, which Rust guarantees to
//! round-trip.
//!
//! There is one reader: the [`Reader`] tokenizer. [`Json::parse`] builds
//! trees on it, and the ledger and cache decoders walk their lines with
//! it directly, keeping a payload they only pass along as [`RawJson`]
//! text.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integer (exact; covers all `u64`/`i64` metric values).
    Int(i128),
    /// Non-integer number.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is preserved — snapshots are deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize without whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f:?}");
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// Arrays and objects nest at most [`MAX_DEPTH`] deep; deeper input
    /// is an error rather than a recursion that overflows the stack.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(text);
        let value = r.value()?;
        r.finish()?;
        Ok(value)
    }
}

/// The compact text of a JSON value, held as written: exactly the bytes
/// [`Json::to_string_compact`] renders for it, so it is valid JSON by
/// construction and writes back byte for byte without a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawJson(String);

impl RawJson {
    /// The compact text of `value`.
    pub fn new(value: &Json) -> RawJson {
        RawJson(value.to_string_compact())
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Writes one JSON object's members straight into a string, in the
/// bytes [`Json::to_string_compact`] would render for the same fields.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open an object at the end of `out`.
    pub fn open(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Start member `key` and return the string its value is written to.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) {
        write_escaped(self.key(key), value);
    }

    /// An integer member.
    pub fn int(&mut self, key: &str, value: u64) {
        let _ = write!(self.key(key), "{value}");
    }

    /// A member holding any value.
    pub fn value(&mut self, key: &str, value: &Json) {
        value.write(self.key(key));
    }

    /// A member holding a value already in compact text.
    pub fn raw(&mut self, key: &str, value: &RawJson) {
        self.key(key).push_str(value.as_str());
    }

    /// Close the object.
    pub fn close(self) {
        self.out.push('}');
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deep [`Json::parse`] lets arrays and objects nest. Every writer in
/// the workspace stays within a handful of levels; the cap keeps a
/// corrupt line of `[`s from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Decoders that report errors as text can read with `?`.
impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// A JSON scalar as [`Reader::scalar`] found it. A string without
/// escapes borrows its text from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    Null,
    Bool(bool),
    Int(i128),
    Float(f64),
    Str(Cow<'a, str>),
}

impl Scalar<'_> {
    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }
}

/// The JSON tokenizer every reader in the workspace shares: the grammar,
/// the [`MAX_DEPTH`] nesting cap and the byte-offset errors live here
/// and nowhere else. [`Json::parse`] builds trees on it; typed decoders
/// walk a document with it directly and keep nothing they do not need.
///
/// A document is read value by value: [`Reader::array`] and
/// [`Reader::object`] hand each member to a callback, which must read
/// exactly one value ([`Reader::scalar`], [`Reader::value`],
/// [`Reader::raw`], [`Reader::skip`] or a nested container);
/// [`Reader::finish`] then rejects trailing garbage.
///
/// The per-token steps are `#[inline(always)]`: decoders in other crates
/// take one per number, and without the attribute the calls cost a
/// third of a cache payload's decode.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Cleared when the reader passes anything
    /// [`Json::to_string_compact`] would write differently: whitespace,
    /// an escaped or raw control character, a float or an integer
    /// spelled with a sign or a leading zero. [`Reader::raw`] reads it.
    compact: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the first value of `text` (leading whitespace
    /// skipped).
    pub fn new(text: &'a str) -> Reader<'a> {
        let mut r = Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            compact: true,
        };
        r.skip_ws();
        r
    }

    /// The next byte, without consuming it: `[` and `{` open containers.
    #[inline(always)]
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// End of document: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing garbage"));
        }
        Ok(())
    }

    /// Read one value as a tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        Tree::default().value(self)
    }

    /// Read one value and keep its compact text (see [`RawJson`]): the
    /// input slice itself when it is already written the way
    /// [`Json::to_string_compact`] writes, re-rendered otherwise.
    pub fn raw(&mut self) -> Result<RawJson, JsonError> {
        let start = self.pos;
        self.compact = true;
        self.skip()?;
        let text = &self.text[start..self.pos];
        Ok(RawJson(if self.compact {
            text.to_owned()
        } else {
            Json::parse(text)?.to_string_compact()
        }))
    }

    /// Read one value, validating it, and drop it.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            // Members are read by `scalar`, which recurses only into a
            // nested container.
            Some(b'[') => self.array(|r| r.scalar().map(drop)),
            Some(b'{') => self.object(|r, _| r.scalar().map(drop)),
            _ => self.leaf().map(drop),
        }
    }

    /// Read one value: `Some` scalar, or `None` for an array or object,
    /// which is skipped (and validated) whole.
    #[inline(always)]
    pub fn scalar(&mut self) -> Result<Option<Scalar<'a>>, JsonError> {
        match self.peek() {
            Some(b'[' | b'{') => self.skip().map(|()| None),
            _ => self.leaf().map(Some),
        }
    }

    /// Read one value as a `u64`: `Some` for an integer in range, `None`
    /// for anything else (an array or object is skipped whole).
    #[inline(always)]
    pub fn u64(&mut self) -> Result<Option<u64>, JsonError> {
        Ok(match self.peek() {
            Some(b'0'..=b'9') => self.number()?.as_u64(),
            _ => self.scalar()?.as_ref().and_then(Scalar::as_u64),
        })
    }

    /// Read one value that is not an array or object.
    #[inline(always)]
    fn leaf(&mut self) -> Result<Scalar<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal(b"null", Scalar::Null),
            Some(b't') => self.literal(b"true", Scalar::Bool(true)),
            Some(b'f') => self.literal(b"false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Read one array, calling `each` once per element to read it.
    pub fn array<E: From<JsonError>>(
        &mut self,
        mut each: impl FnMut(&mut Reader<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.nest(b'[', "expected array")?;
        self.skip_ws();
        if !self.eat(b']') {
            loop {
                each(self)?;
                if !self.next_member(b']', "expected , or ]")? {
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Read one object, calling `each` once per member with its key to
    /// read the value. Keys arrive in document order, duplicates
    /// included.
    pub fn object<E: From<JsonError>>(
        &mut self,
        mut each: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.nest(b'{', "expected object")?;
        self.skip_ws();
        if !self.eat(b'}') {
            loop {
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':', "expected :")?;
                self.skip_ws();
                each(self, key)?;
                if !self.next_member(b'}', "expected , or }")? {
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    /// After a member of an array or object closed by `close`: `true`
    /// past the `,` and whitespace before the next member, `false` past
    /// the closing bracket.
    #[inline(always)]
    fn next_member(&mut self, close: u8, message: &'static str) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(&b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(message)),
        }
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        if let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.compact = false;
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
        }
    }

    #[inline(always)]
    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    #[inline(always)]
    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &[u8], value: Scalar<'a>) -> Result<Scalar<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "expected string")?;
        // Fast path: a string without escapes or control characters is
        // one slice of the input (`"` and `\\` are ASCII, so both ends
        // are char boundaries).
        let start = self.pos;
        let rest = &self.bytes[start..];
        if let Some(len) = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        {
            if rest[len] == b'"' {
                self.pos += len + 1;
                return Ok(Cow::Borrowed(&self.text[start..start + len]));
            }
        }
        self.compact = false;
        self.escaped_string().map(Cow::Owned)
    }

    /// The rest of a string that holds an escape (or no closing quote),
    /// one character at a time.
    fn escaped_string(&mut self) -> Result<String, JsonError> {
        let mut s = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let chunk = std::str::from_utf8(chunk).map_err(|_| self.err("bad UTF-8"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    #[inline(always)]
    fn number(&mut self) -> Result<Scalar<'a>, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        // Accumulated on the way; used only when it cannot have wrapped.
        let mut magnitude = 0u64;
        while let Some(&c) = self.bytes.get(self.pos).filter(|c| c.is_ascii_digit()) {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - start - usize::from(negative);
        // `Json::Int` writes no sign on a non-negative value and no
        // leading zero (floats are handled below).
        if negative || (digits > 1 && self.bytes[self.pos - digits] == b'0') {
            self.compact = false;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Up to 19 digits always fit a `u64`.
        if !is_float && !negative && (1..=19).contains(&digits) {
            return Ok(Scalar::Int(i128::from(magnitude)));
        }
        let text = &self.text[start..self.pos];
        if is_float {
            // A float may be written any number of ways.
            self.compact = false;
            text.parse::<f64>()
                .map(Scalar::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i128>()
                .map(Scalar::Int)
                .map_err(|_| self.err("bad number"))
        }
    }

    /// Open one array or object; past [`MAX_DEPTH`] the parse fails.
    #[inline(always)]
    fn nest(&mut self, open: u8, message: &'static str) -> Result<(), JsonError> {
        self.expect(open, message)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deep"));
        }
        self.depth += 1;
        Ok(())
    }
}

/// Builds [`Json`] trees on a [`Reader`]. The members of every open
/// array and object wait on its stacks, innermost last; a container is
/// collected off the top when it closes: one allocation of the exact
/// size instead of a growing `Vec` each.
#[derive(Default)]
struct Tree {
    items: Vec<Json>,
    fields: Vec<(String, Json)>,
}

impl Tree {
    fn value(&mut self, r: &mut Reader) -> Result<Json, JsonError> {
        match r.peek() {
            Some(b'[') => {
                let base = self.items.len();
                r.array(|r| {
                    let item = self.value(r)?;
                    self.items.push(item);
                    Ok::<(), JsonError>(())
                })?;
                Ok(Json::Arr(self.items.drain(base..).collect()))
            }
            Some(b'{') => {
                let base = self.fields.len();
                r.object(|r, key| {
                    let value = self.value(r)?;
                    self.fields.push((key.into_owned(), value));
                    Ok::<(), JsonError>(())
                })?;
                Ok(Json::Obj(self.fields.drain(base..).collect()))
            }
            _ => Ok(match r.leaf()? {
                Scalar::Null => Json::Null,
                Scalar::Bool(b) => Json::Bool(b),
                Scalar::Int(i) => Json::Int(i),
                Scalar::Float(f) => Json::Float(f),
                Scalar::Str(s) => Json::Str(s.into_owned()),
            }),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Int(u64::MAX as i128)),
            ("b".into(), Json::Float(0.125)),
            (
                "c".into(),
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    Json::Str("x\"y\n".into()),
                ]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_max_is_exact() {
        let text = format!("{}", u64::MAX);
        assert_eq!(Json::parse(&text).unwrap().as_int(), Some(u64::MAX as i128));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Json::parse(" { \"k\" : [ 1 , -2.5e1 , \"\\u0041\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_int(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("A"));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        for deep in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            let err = Json::parse(&deep).unwrap_err();
            assert_eq!(err.message, "nested too deep");
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Depth counts open containers, not containers seen.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn slice_read_strings_and_integers_match_the_slow_paths() {
        let v = Json::parse(r#"["plain","é中😀","a\"b","\u00e9x",007,-0,18446744073709551615,9999999999999999999,10000000000000000000]"#)
            .unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("plain"));
        assert_eq!(items[1].as_str(), Some("é中😀"));
        assert_eq!(items[2].as_str(), Some("a\"b"));
        assert_eq!(items[3].as_str(), Some("éx"));
        assert_eq!(items[4].as_int(), Some(7));
        assert_eq!(items[5].as_int(), Some(0));
        assert_eq!(items[6].as_int(), Some(u64::MAX as i128));
        assert_eq!(items[7].as_int(), Some(9_999_999_999_999_999_999));
        assert_eq!(items[8].as_int(), Some(10_000_000_000_000_000_000));
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("\"open\\").is_err());
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        let v = Json::parse("{\"a\":1}").unwrap();
        assert!(v.get("missing").is_none());
        assert!(v.as_arr().is_none());
        assert!(v.get("a").unwrap().as_str().is_none());
    }
}
