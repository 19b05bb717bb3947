//! The workspace's one JSON reader and writer: every JSON line the MEEK
//! tools emit is a [`Json`] value — built with [`obj!`](crate::obj), the
//! `From` conversions and [`Json::fixed`] — rendered by [`Json::render`].
//!
//! The workspace is offline-vendored — no `serde` — and the serve
//! protocol needs exact `u64` round-trips (campaign seeds use all 64
//! bits, which an `f64`-based parser would silently round). So numbers
//! are kept as their raw source text and converted on access.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed JSON value. Object member order is preserved (the
/// protocol's golden tests compare serialised frames byte-for-byte).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw source text so 64-bit integers survive.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// An object whose members keep the order given.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number written with exactly `decimals` digits after the point,
    /// as `format!("{x:.3}")` writes it.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}"))
    }

    /// Serialises the value back to compact JSON (objects keep their
    /// member order, numbers their source text).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// An object literal: `obj! { "seg": 3u32, "pass": true }` is
/// [`Json::obj`] of those members in that order, each value converted
/// by `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::Json::obj([$(($key, $crate::Json::from($value))),*])
    };
}

macro_rules! from_value {
    ($make:expr; $($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                ($make)(v)
            }
        }
    )*};
}
from_value!(|n| Json::Num(format!("{n}")); u32, u64, u128, usize, i64);
from_value!(Json::Bool; bool);
from_value!(Json::Str; String);
from_value!(|s: &str| Json::Str(s.to_string()); &str);

/// A `{name: count}` map as an object, keys in map order.
impl From<&BTreeMap<String, u64>> for Json {
    fn from(map: &BTreeMap<String, u64>) -> Json {
        Json::obj(map.iter().map(|(k, &v)| (k.as_str(), Json::from(v))))
    }
}

/// Writes `s` as a quoted JSON string.
fn escape_into(out: &mut String, s: &str) {
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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'-' | b'0'..=b'9') => parse_digits(bytes, pos),
        Some(_) => parse_lit(bytes, pos),
    }
}

/// `true`, `false` or `null`; any other text starts with a character
/// no JSON value starts with.
fn parse_lit(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    for (lit, value) in
        [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
    {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            return Ok(value);
        }
    }
    let c = String::from_utf8_lossy(&bytes[*pos..]).chars().next().expect("a byte is left");
    Err(format!("unexpected character `{c}` at byte {pos}", pos = *pos))
}

/// A number, kept as its digits so `u64` seeds survive exactly.
fn parse_digits(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected a value at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("ascii span");
    // Validate by parsing: every protocol number fits f64 or u64.
    if raw.parse::<f64>().is_err() && raw.parse::<u64>().is_err() {
        return Err(format!("malformed number `{raw}` at byte {start}"));
    }
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".into());
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0C),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // Surrogate pairs are outside the protocol's
                        // needs; reject rather than mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unknown escape `\\{}`", *other as char)),
                }
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
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

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let v = Json::parse(r#"{"seed":18446744073709551615}"#).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.render(), r#"{"seed":18446744073709551615}"#);
    }

    #[test]
    fn values_parse_and_render() {
        let text = r#"{"a":[1,2.5,-3],"b":"x\"y","c":true,"d":null,"e":{}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_i64(), Some(-3));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn escapes_round_trip() {
        for original in [
            "line\nbreak\ttab \"quote\" back\\slash \u{1}ctl\r",
            "non-ASCII: µs, Zürich, 漢字, 🦀",
            "",
        ] {
            let rendered = Json::obj([(original, Json::from(original))]).render();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back.get(original).and_then(Json::as_str), Some(original), "{rendered}");
        }
        assert_eq!(Json::from("a\"b\u{1}").render(), r#""a\"b\u0001""#);
    }

    #[test]
    fn fixed_decimals_match_the_format_macro() {
        for x in [0.0, 10.0, 62.5, 1.0 / 3.0, 2.0005, 123_456.789_012_5, 1e-7, -4.25] {
            assert_eq!(Json::fixed(x, 3).render(), format!("{x:.3}"));
            assert_eq!(Json::fixed(x, 6).render(), format!("{x:.6}"));
        }
    }

    #[test]
    fn conversions_build_the_values_the_writers_emit() {
        let mut counters = BTreeMap::new();
        counters.insert("b".to_string(), 2);
        counters.insert("a".to_string(), 1);
        let v = Json::obj([
            ("n", Json::from(u64::MAX)),
            ("i", Json::from(-2i64)),
            ("t", Json::from(true)),
            ("s", Json::from("x".to_string())),
            ("map", Json::from(&counters)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"n":18446744073709551615,"i":-2,"t":true,"s":"x","map":{"a":1,"b":2}}"#
        );
        let literal = crate::obj! {
            "n": u64::MAX, "i": -2i64, "t": true, "s": "x".to_string(), "map": &counters,
        };
        assert_eq!(literal, v, "obj! builds the same ordered object");
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn an_unexpected_character_is_named_with_its_byte() {
        for (bad, c, at) in
            [("not json", 'n', 0), ("xyz", 'x', 0), ("tru", 't', 0), ("{\"a\":nul}", 'n', 5)]
        {
            let want = format!("unexpected character `{c}` at byte {at}");
            assert_eq!(Json::parse(bad), Err(want), "`{bad}`");
        }
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in
            ["", "{", "{\"a\":}", "[1,]", "truth", "\"open", "{\"a\":1}x", "nan", "{\"a\" 1}"]
        {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
