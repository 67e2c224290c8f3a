//! The workspace's one JSON codec: a value tree, a parser, a writer, and
//! the [`ToJson`]/[`FromJson`] traits that persisted types derive.
//!
//! Every JSON byte proxim reads or writes goes through this module:
//! characterized models, and the cell and technology descriptions hashed
//! into cache keys (through the derives); the serving wire, `.pxm` store
//! metadata, and the fleet protocol; JSONL trace lines and their
//! Chrome-trace conversion; benchmark baselines. The parser accepts
//! standard JSON (objects, arrays, strings with escapes including
//! surrogate pairs, numbers, bools, null) nested at most
//! [`MAX_PARSE_DEPTH`] deep; the writer emits compact JSON with
//! deterministic key order (keys keep insertion order).
//!
//! # Persisted types
//!
//! `#[derive(ToJson, FromJson)]` (re-exported here from
//! `proxim-json-derive`) covers structs with named fields, which become
//! objects in field order, and enums whose variants are units (`"Name"`)
//! or carry one value (`{"Name":value}`). Encoding writes text straight
//! into a `String`; decoding parses into a [`Json`] tree and moves every
//! field, string, and array out of it rather than copying them. Floats
//! print in Rust's shortest round-trip `Display` form (integral values
//! without a fraction, `-0.0` as `-0`, never an exponent), and a
//! non-finite float is an encoding error: a persisted table holding NaN
//! fails to save instead of writing `null`. Integers must be exact in the
//! `f64` tree, so integer fields refuse fractions, negatives, and anything
//! past 2^53, on either side.

use std::fmt;
use std::fmt::Write as _;

pub use proxim_json_derive::{FromJson, ToJson};

/// Deepest container nesting [`Json::parse`] accepts. The parser recurses
/// once per `[` or `{`, so unbounded depth lets a few kilobytes of `[[[[…`
/// overflow the thread stack; every document proxim writes nests a
/// handful of levels.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A parsed JSON value. Object keys keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first problem,
    /// including containers nested deeper than [`MAX_PARSE_DEPTH`].
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders compact JSON into `out`.
    pub fn render(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(x) => push_f64(out, *x),
            Self::Str(s) => push_escaped(out, s),
            Self::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Self::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, k);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// The compact rendering as a fresh string.
    pub fn to_compact(&self) -> String {
        let mut s = String::new();
        self.render(&mut s);
        s
    }
}

/// Appends `v` in decimal without going through `core::fmt` — the trace
/// emission hot path renders five integers per span record, and the
/// formatting machinery's overhead is measurable at serving rates.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap_or("0"));
}

/// Appends a JSON number in Rust's shortest round-trip `Display` form:
/// integral values without a fraction (`42`, `-0`), never an exponent.
/// Non-finite values (which JSON cannot represent) are written as `null`;
/// [`ToJson`] refuses them instead.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted, escaped JSON string. The overwhelmingly common
/// case — no character needs escaping — is a single scan and one bulk
/// append rather than a per-character loop.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
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
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, detail: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_PARSE_DEPTH {
            return Err(self.err(&format!(
                "containers nested deeper than {MAX_PARSE_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free, ASCII-or-UTF-8 run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so slices on char boundaries are
                // valid UTF-8; the loop above only stops on ASCII bytes,
                // which are always boundaries.
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Why a value could not be encoded to JSON or decoded from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The text is not one JSON document.
    Syntax(JsonError),
    /// The value has no JSON form (a non-finite float, an integer past
    /// 2^53), or the document does not fit the type: wrong kind, missing
    /// field, unknown variant, wrong length, or an integer field holding a
    /// fraction or an out-of-range number.
    Shape(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax(e) => e.fmt(f),
            Self::Shape(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for CodecError {}

/// A value with a JSON encoding.
pub trait ToJson {
    /// Appends the compact JSON encoding of `self` to `out`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Shape`] if some part of the value has no JSON form.
    fn encode(&self, out: &mut String) -> Result<(), CodecError>;
}

/// A value that can be decoded from a parsed [`Json`] tree.
pub trait FromJson: Sized {
    /// Decodes `value`, moving strings and arrays out of it.
    ///
    /// # Errors
    ///
    /// [`CodecError::Shape`] if `value` does not fit the type.
    fn decode(value: Json) -> Result<Self, CodecError>;
}

/// Encodes `value` as compact JSON.
///
/// # Errors
///
/// [`CodecError::Shape`] if some part of the value has no JSON form.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, CodecError> {
    let mut out = String::new();
    value.encode(&mut out)?;
    Ok(out)
}

/// Parses `text` and decodes it as a `T`.
///
/// # Errors
///
/// [`CodecError::Syntax`] if `text` is not JSON, [`CodecError::Shape`] if
/// it does not fit `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, CodecError> {
    T::decode(Json::parse(text).map_err(CodecError::Syntax)?)
}

fn kind(value: &Json) -> String {
    match value {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) => x.to_string(),
        Json::Str(_) => "a string".into(),
        Json::Arr(_) => "an array".into(),
        Json::Obj(_) => "an object".into(),
    }
}

fn mismatch(expected: &str, found: &Json) -> CodecError {
    CodecError::Shape(format!("expected {expected}, found {}", kind(found)))
}

/// The members of an object, for a derived struct decoder.
///
/// # Errors
///
/// [`CodecError::Shape`] if `value` is not an object.
pub fn object(value: Json, ty: &str) -> Result<Vec<(String, Json)>, CodecError> {
    match value {
        Json::Obj(members) => Ok(members),
        other => Err(mismatch(&format!("an object for `{ty}`"), &other)),
    }
}

/// Removes member `name` from `members` and decodes it, for a derived
/// struct decoder. Fields are taken in declaration order, which is the
/// order they are written in, so the search ends at the first member.
///
/// # Errors
///
/// [`CodecError::Shape`] if the member is missing or does not fit `T`.
pub fn field<T: FromJson>(members: &mut Vec<(String, Json)>, name: &str) -> Result<T, CodecError> {
    let i = members
        .iter()
        .position(|(k, _)| k == name)
        .ok_or_else(|| CodecError::Shape(format!("missing field `{name}`")))?;
    T::decode(members.remove(i).1).map_err(|e| match e {
        CodecError::Shape(detail) => CodecError::Shape(format!("in `{name}`: {detail}")),
        e => e,
    })
}

/// Splits an enum's encoding into its variant name and, for a variant
/// that carries a value, that value: `"Name"` or `{"Name":value}`.
///
/// # Errors
///
/// [`CodecError::Shape`] for any other shape.
pub fn variant(value: Json, ty: &str) -> Result<(String, Option<Json>), CodecError> {
    match value {
        Json::Str(name) => Ok((name, None)),
        Json::Obj(mut members) if members.len() == 1 => {
            let (name, payload) = members.remove(0);
            Ok((name, Some(payload)))
        }
        other => Err(mismatch(&format!("a variant of `{ty}`"), &other)),
    }
}

/// The error for a variant name (or variant shape) `ty` does not have.
pub fn unknown_variant(ty: &str, name: &str) -> CodecError {
    CodecError::Shape(format!("unknown variant `{name}` of `{ty}`"))
}

fn array(value: Json) -> Result<Vec<Json>, CodecError> {
    match value {
        Json::Arr(items) => Ok(items),
        other => Err(mismatch("an array", &other)),
    }
}

impl ToJson for bool {
    fn encode(&self, out: &mut String) -> Result<(), CodecError> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
}

impl FromJson for bool {
    fn decode(value: Json) -> Result<Self, CodecError> {
        match value {
            Json::Bool(b) => Ok(b),
            other => Err(mismatch("a boolean", &other)),
        }
    }
}

impl ToJson for f64 {
    fn encode(&self, out: &mut String) -> Result<(), CodecError> {
        if !self.is_finite() {
            return Err(CodecError::Shape(format!(
                "cannot encode non-finite float {self}"
            )));
        }
        push_f64(out, *self);
        Ok(())
    }
}

impl FromJson for f64 {
    fn decode(value: Json) -> Result<Self, CodecError> {
        match value {
            Json::Num(x) => Ok(x),
            other => Err(mismatch("a number", &other)),
        }
    }
}

/// 2^53: every integer up to it is exact in an `f64`, and the next is not.
const MAX_EXACT_INT: u64 = 1 << 53;

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn encode(&self, out: &mut String) -> Result<(), CodecError> {
                let v = *self as u64;
                if v > MAX_EXACT_INT {
                    return Err(CodecError::Shape(format!(
                        "cannot encode integer {v} past 2^53 exactly"
                    )));
                }
                push_u64(out, v);
                Ok(())
            }
        }

        impl FromJson for $t {
            fn decode(value: Json) -> Result<Self, CodecError> {
                match value {
                    Json::Num(x)
                        if x.fract() == 0.0
                            && (0.0..=MAX_EXACT_INT as f64).contains(&x)
                            && x <= <$t>::MAX as f64 =>
                    {
                        Ok(x as $t)
                    }
                    other => Err(mismatch(
                        concat!("an integer in range for ", stringify!($t)),
                        &other,
                    )),
                }
            }
        }
    )*};
}
unsigned!(u32, usize);

impl ToJson for String {
    fn encode(&self, out: &mut String) -> Result<(), CodecError> {
        push_escaped(out, self);
        Ok(())
    }
}

impl FromJson for String {
    fn decode(value: Json) -> Result<Self, CodecError> {
        match value {
            Json::Str(s) => Ok(s),
            other => Err(mismatch("a string", &other)),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn encode(&self, out: &mut String) -> Result<(), CodecError> {
        match self {
            Some(v) => v.encode(out),
            None => {
                out.push_str("null");
                Ok(())
            }
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn decode(value: Json) -> Result<Self, CodecError> {
        match value {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn encode(&self, out: &mut String) -> Result<(), CodecError> {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.encode(out)?;
        }
        out.push(']');
        Ok(())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn encode(&self, out: &mut String) -> Result<(), CodecError> {
        self.as_slice().encode(out)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn decode(value: Json) -> Result<Self, CodecError> {
        // Not `collect()`: that would decode in place and keep the array's
        // 32-byte-per-item allocation alive under a decoded model's tables.
        let items = array(value)?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::decode(item)?);
        }
        Ok(out)
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn encode(&self, out: &mut String) -> Result<(), CodecError> {
        self.as_slice().encode(out)
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn decode(value: Json) -> Result<Self, CodecError> {
        let items = Vec::<T>::decode(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| CodecError::Shape(format!("expected an array of length {N}, found {len}")))
    }
}

macro_rules! tuple {
    ($len:literal; $first:ident $fi:tt $(, $t:ident $i:tt)*) => {
        impl<$first: ToJson $(, $t: ToJson)*> ToJson for ($first, $($t),*) {
            fn encode(&self, out: &mut String) -> Result<(), CodecError> {
                out.push('[');
                self.$fi.encode(out)?;
                $(
                    out.push(',');
                    self.$i.encode(out)?;
                )*
                out.push(']');
                Ok(())
            }
        }

        impl<$first: FromJson $(, $t: FromJson)*> FromJson for ($first, $($t),*) {
            fn decode(value: Json) -> Result<Self, CodecError> {
                let items = array(value)?;
                if items.len() != $len {
                    return Err(CodecError::Shape(format!(
                        "expected a {}-tuple, found {} items",
                        $len,
                        items.len()
                    )));
                }
                let mut items = items.into_iter();
                let mut next = || items.next().unwrap_or(Json::Null);
                Ok(($first::decode(next())?, $($t::decode(next())?),*))
            }
        }
    };
}
tuple!(2; A 0, B 1);
tuple!(3; A 0, B 1, C 2);

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structured_values() {
        let text = r#"{"a":1,"b":[true,false,null],"c":{"s":"x\"y\\z\n"},"d":-2.5e3}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("c").unwrap().get("s").unwrap().as_str(),
            Some("x\"y\\z\n")
        );
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-2500.0));
        // render → parse is the identity on the value.
        let again = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        let v = Json::parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str(), Some("A😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "{} extra",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escaping_survives_controls() {
        let mut out = String::new();
        push_escaped(&mut out, "tab\there \"quoted\" \u{1}");
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("tab\there \"quoted\" \u{1}"));
    }

    #[test]
    fn numbers_render_exactly() {
        let render = |x: f64| {
            let mut s = String::new();
            push_f64(&mut s, x);
            s
        };
        assert_eq!(render(42.0), "42");
        assert_eq!(render(f64::NAN), "null");
        assert_eq!(render(0.125), "0.125");
        // The forms the persisted models have always been written in.
        assert_eq!(render(-0.0), "-0");
        assert_eq!(render(1e15), "1000000000000000");
        assert_eq!(render(-3.7e18), "-3700000000000000000");
        assert_eq!(render(5e-324), format!("0.{}5", "0".repeat(323)));
        assert_eq!(
            render(f64::MAX),
            format!("17976931348623157{}", "0".repeat(292))
        );
        for x in [-0.0, 5e-324, f64::MAX, 1e15, -3.7e18, 0.1 + 0.2, 1e-12] {
            let back = Json::parse(&render(x)).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} does not round-trip");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Inside the limit, nesting parses.
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(Json::parse(&over)
            .unwrap_err()
            .detail
            .contains("nested deeper"));
        // A hostile document fails typed on a default-sized thread stack.
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                (
                    Json::parse(&"[".repeat(100_000)),
                    Json::parse(&"{\"a\":".repeat(100_000)),
                )
            })
            .unwrap()
            .join()
            .expect("parser thread must not overflow its stack");
        assert!(outcome.0.unwrap_err().detail.contains("nested deeper"));
        assert!(outcome.1.unwrap_err().detail.contains("nested deeper"));
    }

    #[test]
    fn codec_round_trips_std_shapes() {
        let v: Vec<(f64, Option<usize>)> = vec![(1.0, Some(3)), (-0.0, None), (2.25e-12, Some(0))];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[[1,3],[-0,null],[0.00000000000225,0]]");
        let back: Vec<(f64, Option<usize>)> = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back[1].0.to_bits(), (-0.0f64).to_bits());

        let a: [String; 2] = ["x\"y".into(), "z".into()];
        let back: [String; 2] = from_str(&to_string(&a).unwrap()).unwrap();
        assert_eq!(back, a);
        assert!(matches!(
            from_str::<[bool; 2]>("[true]"),
            Err(CodecError::Shape(_))
        ));
        assert!(matches!(from_str::<f64>("[1,"), Err(CodecError::Syntax(_))));
    }

    #[test]
    fn non_finite_floats_refuse_to_encode() {
        let table = vec![1.0, f64::NAN, 3.0];
        assert!(matches!(to_string(&table), Err(CodecError::Shape(_))));
        assert!(to_string(&Some(f64::INFINITY)).is_err());
    }

    #[test]
    fn integer_fields_refuse_fractions_negatives_and_overflow() {
        for bad in ["2.5", "-1", "1e300", "true", "\"3\""] {
            assert!(
                matches!(from_str::<usize>(bad), Err(CodecError::Shape(_))),
                "usize accepted {bad}"
            );
        }
        assert!(from_str::<u32>("4294967296").is_err());
        assert_eq!(from_str::<u32>("4294967295").unwrap(), u32::MAX);
        assert_eq!(from_str::<usize>("7").unwrap(), 7);
        assert!(from_str::<usize>("9007199254740994").is_err());
        assert!(to_string(&usize::MAX).is_err());
    }
}
