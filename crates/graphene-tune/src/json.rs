//! A minimal JSON reader/writer for the tuning database.
//!
//! The workspace is built offline (no crates.io), so `serde_json` is
//! not available; the tuning cache needs only a small, strict subset of
//! JSON — objects, arrays, strings, finite numbers, booleans, null —
//! which this hand-rolled recursive-descent parser covers. Emission is
//! done by the database itself ([`crate::db`]); [`escape`] is the
//! shared string escaper.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
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

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so a bound keeps a hostile document
/// (a request line of 10,000 `[`) from overflowing a worker thread's
/// stack, which no `catch_unwind` could recover from.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a position-annotated message on malformed input, or on
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", ch as char))
    }
}

/// Parses the value at `pos`, which `depth` arrays or objects enclose.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("malformed number `{s}` at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the full sequence.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && b[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"version": 1, "entries": [{"kernel": "gemm", "time_s": 1.5e-4,
                      "point": {"bm": 128, "swizzle": true}, "note": null}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("version").and_then(Json::as_i64), Some(1));
        let entries = v.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries[0].get("kernel").and_then(Json::as_str), Some("gemm"));
        assert_eq!(entries[0].get("time_s").and_then(Json::as_f64), Some(1.5e-4));
        assert_eq!(entries[0].get("point").unwrap().get("bm").and_then(Json::as_i64), Some(128));
        assert_eq!(entries[0].get("note"), Some(&Json::Null));
    }

    #[test]
    fn round_trips_escapes() {
        let v = parse(&format!("\"{}\"", escape("a\"b\\c\nd"))).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nope").is_err());
    }

    /// A 10,000-level document is rejected, naming the limit, on a
    /// 2 MiB stack (a daemon worker's); exactly the limit parses.
    #[test]
    fn bounds_nesting_depth_on_a_worker_sized_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let run = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
            let deep = format!("{{\"id\":1,\"cmd\":\"stats\",\"x\":{}}}", nested(10_000));
            let err = parse(&deep).expect_err("10,000 levels");
            assert!(err.contains(&format!("deeper than {MAX_DEPTH} levels")), "{err}");
            let mut v = parse(&nested(MAX_DEPTH)).expect("exactly the limit parses");
            for _ in 1..MAX_DEPTH {
                v = v.as_arr().expect("array")[0].clone();
            }
            assert_eq!(v, Json::Arr(Vec::new()));
            assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        });
        run.expect("spawn").join().expect("parser thread");
    }
}
