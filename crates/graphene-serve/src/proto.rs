//! The wire protocol: newline-delimited JSON, one object per line.
//!
//! A request is a *flat* JSON object: `"cmd"` names the operation,
//! an optional numeric `"id"` is echoed back verbatim, and every
//! other field is stringified into an option map — the exact
//! `HashMap<String, String>` shape the kernel/tune catalogs consume,
//! so a request field `"m": 256` and a CLI flag `--m 256` take the
//! same parsing and validation path:
//!
//! ```text
//! {"id":1,"cmd":"run","kernel":"gemm","m":256,"n":256,"k":64,"exec":"replay"}
//! {"id":1,"ok":true,"kernel":"sm86_gemm_256x256x64", ... ,"checksum":12998.310547}
//! ```
//!
//! Responses are flat objects too: `"id"` (echoed), `"ok"`, then
//! per-command fields, or `"error"` when `"ok"` is `false`. [`Obj`] is
//! the shared response builder.

use graphene_tune::json::{escape, parse, Json};
use std::collections::HashMap;

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response (0 when
    /// the client sent none).
    pub id: u64,
    /// The operation: `lint`, `run`, `run-graph`, `tune`, `poll`,
    /// `cancel`, `stats`, or `shutdown`.
    pub cmd: String,
    /// Every other field, stringified — consumed exactly like CLI
    /// `--key value` options.
    pub opts: HashMap<String, String>,
}

impl Request {
    /// Option lookup.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }
}

/// 2^53: below it, an f64 holds every integer exactly.
const EXACT_INTS: f64 = 9_007_199_254_740_992.0;

/// Parses one request line.
///
/// # Errors
///
/// A user-facing message for malformed JSON, a missing/non-string
/// `"cmd"`, non-scalar option values, or integers of magnitude 2^53
/// or more.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let Json::Obj(fields) = parse(line)? else {
        return Err("request must be a JSON object".into());
    };
    let mut id = 0;
    let mut cmd = None;
    let mut opts = HashMap::new();
    for (key, value) in fields {
        match (key.as_str(), &value) {
            ("id", v) => {
                id = v.as_i64().filter(|&n| n >= 0).ok_or("`id` must be a non-negative integer")?
                    as u64;
            }
            ("cmd", Json::Str(s)) => cmd = Some(s.clone()),
            ("cmd", _) => return Err("`cmd` must be a string".into()),
            (_, Json::Str(s)) => {
                opts.insert(key, s.clone());
            }
            (_, Json::Num(n)) => {
                // Integers render without the trailing `.0` so the
                // catalogs' integer parsing accepts them. From 2^53 on,
                // an f64 no longer holds every integer, so rendering
                // would name a value the client never sent.
                let s = if n.fract() != 0.0 {
                    format!("{n}")
                } else if n.abs() < EXACT_INTS {
                    format!("{}", *n as i64)
                } else {
                    return Err(format!(
                        "option `{key}` must be an integer below 2^53 in magnitude \
                         (JSON numbers lose digits past it)"
                    ));
                };
                opts.insert(key, s);
            }
            (_, Json::Bool(b)) => {
                opts.insert(key, b.to_string());
            }
            (_, Json::Null) => {}
            (k, _) => return Err(format!("option `{k}` must be a scalar")),
        }
    }
    let cmd = cmd.ok_or("request needs a `cmd` field")?;
    Ok(Request { id, cmd, opts })
}

/// A flat JSON object builder for response lines.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Adds an integer field.
    pub fn num(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a signed integer field.
    pub fn int(mut self, k: &str, v: i64) -> Obj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim (caller guarantees
    /// validity — e.g. another [`Obj::finish`], a `{:.6}` float, or an
    /// array literal).
    pub fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// The success-response envelope: `{"id":ID,"ok":true, <fields>}`.
pub fn ok_envelope(id: u64, fields: Obj) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true{}{}}}",
        if fields.buf.is_empty() { "" } else { "," },
        fields.buf
    )
}

/// The error-response envelope: `{"id":ID,"ok":false,"error":MSG}`.
pub fn err_envelope(id: u64, error: &str) -> String {
    format!("{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}", escape(error))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_mixed_scalar_request() {
        let r = parse_request(
            r#"{"id":7,"cmd":"run","kernel":"gemm","m":256,"budget":1.5,"prove":true,"skip":null}"#,
        )
        .unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.cmd, "run");
        assert_eq!(r.opt("kernel"), Some("gemm"));
        assert_eq!(r.opt("m"), Some("256"), "integers must render without `.0`");
        assert_eq!(r.opt("budget"), Some("1.5"));
        assert_eq!(r.opt("prove"), Some("true"));
        assert_eq!(r.opt("skip"), None, "null drops the field");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("[1,2]").unwrap_err().contains("JSON object"));
        assert!(parse_request(r#"{"kernel":"gemm"}"#).unwrap_err().contains("cmd"));
        assert!(parse_request(r#"{"cmd":5}"#).unwrap_err().contains("string"));
        assert!(parse_request(r#"{"cmd":"run","x":[1]}"#).unwrap_err().contains("scalar"));
        assert!(parse_request(r#"{"cmd":"run","id":-3}"#).unwrap_err().contains("non-negative"));
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn envelopes_and_builder_compose_to_valid_json() {
        let fields = Obj::new()
            .str("kernel", "a\"b")
            .num("steps", 12)
            .bool("hit", true)
            .raw("checksum", "1.500000")
            .raw("nested", &Obj::new().int("x", -1).finish());
        let line = ok_envelope(3, fields);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("kernel").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("nested").unwrap().get("x").and_then(Json::as_i64), Some(-1));
        let e = parse(&err_envelope(0, "bad `thing`")).unwrap();
        assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
        assert!(e.get("error").and_then(Json::as_str).unwrap().contains("bad"));
    }
}
