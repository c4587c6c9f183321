//! Minimal hand-rolled JSON reader (the workspace is hermetic — no
//! serde). Parses the subset the bgr tool chain emits — objects,
//! arrays, strings with `\"`/`\\`/`\n`-class escapes, numbers, bools,
//! null — into a [`Json`] tree. Numbers are held as `f64`, which is
//! exact for every integer the schemas carry (all well below 2^53).
//!
//! This is a *reader* for our own writers (`trace.rs`, the bench bins'
//! `BENCH_*.json`), not a general-purpose validator: it accepts all
//! valid JSON of that shape and reports structured offsets on malformed
//! input, but does not chase spec corner cases (no `\u` surrogate-pair
//! validation beyond decoding).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (our writers emit fixed orders).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first
    /// malformed construct.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing characters after value".into(),
            });
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if this is a
    /// non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A structured parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail<T>(pos: usize, message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        offset: pos,
        message: message.into(),
    })
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        fail(*pos, format!("expected '{}'", byte as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => fail(*pos, format!("unexpected character '{}'", *c as char)),
        None => fail(*pos, "unexpected end of input"),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        fail(*pos, format!("expected '{lit}'"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => fail(start, format!("malformed number {text:?}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return fail(*pos, "unterminated string"),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| JsonError {
                                offset: *pos,
                                message: "malformed \\u escape".into(),
                            })?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return fail(*pos, "malformed escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the run up to the next quote or escape at once
                // (multi-byte sequences pass through unchanged). Both
                // delimiters are ASCII, so the run is whole UTF-8, and
                // only the run is validated — not the rest of the input
                // per character.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| JsonError {
                    offset: *pos,
                    message: "invalid utf-8 in string".into(),
                })?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
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
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return fail(*pos, "expected ',' or ']'"),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
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
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return fail(*pos, "expected ',' or '}'"),
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (the inverse
/// of what `parse_string` unescapes). Shared by every hand-rolled
/// writer that needs to embed free text (audit verdicts, error
/// messages) in a JSONL stream.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_trace_line_shapes() {
        let line = r#"{"type":"event","seq":7,"kind":"deletion_selected","net":3,"edge":9,"tier":"d_max"}"#;
        let v = Json::parse(line).expect("valid line");
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("tier").and_then(Json::as_str), Some("d_max"));

        let span = r#"{"type":"span","phase":"initial_routing","wall_us":8123,"events":152,"counters":{"key_evals":12,"heap_pushes":0}}"#;
        let v = Json::parse(span).expect("valid span");
        let counters = v.get("counters").expect("nested object");
        assert_eq!(counters.get("key_evals").and_then(Json::as_u64), Some(12));

        let hist = r#"{"type":"hist","name":"dirty_set_size","buckets":[0,5,3,0,0,0,0,0]}"#;
        let v = Json::parse(hist).expect("valid hist");
        let buckets = v.get("buckets").and_then(Json::as_arr).expect("array");
        assert_eq!(buckets.len(), 8);
        assert_eq!(buckets[1].as_u64(), Some(5));
    }

    #[test]
    fn parses_nested_bench_documents() {
        let doc = r#"{"schema":1,"bench":"deletion_rate","rows":[
            {"instance":"RATE","strategy":"scoreboard","threads":1,"wall_ms":141.5,"deletions":1400},
            {"instance":"C2P1","strategy":"rescan","threads":8,"wall_ms":90.25,"deletions":700}
        ]}"#;
        let v = Json::parse(doc).expect("valid doc");
        let rows = v.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("wall_ms").and_then(Json::as_f64), Some(141.5));
        assert_eq!(rows[1].get("instance").and_then(Json::as_str), Some("C2P1"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nwith \"quotes\" and \\slash\t tab \u{1} ctl";
        let wire = format!("{{\"m\":\"{}\"}}", escape_json(original));
        let v = Json::parse(&wire).expect("escaped text parses");
        assert_eq!(v.get("m").and_then(Json::as_str), Some(original));
    }

    #[test]
    fn negatives_bools_null_and_floats() {
        let v = Json::parse(r#"[-3, 2.5, true, false, null, 1e3]"#).expect("parses");
        let items = v.as_arr().expect("array");
        assert_eq!(items[0].as_f64(), Some(-3.0));
        assert_eq!(items[0].as_u64(), None, "negative is not u64");
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[1].as_u64(), None, "fractional is not u64");
        assert_eq!(items[2], Json::Bool(true));
        assert_eq!(items[3], Json::Bool(false));
        assert_eq!(items[4], Json::Null);
        assert_eq!(items[5].as_f64(), Some(1000.0));
    }

    #[test]
    fn malformed_input_reports_offsets() {
        for (text, expect_in_msg) in [
            ("{\"a\":}", "unexpected character"),
            ("{\"a\":1", "expected ',' or '}'"),
            ("[1,2", "expected ',' or ']'"),
            ("\"unterminated", "unterminated string"),
            ("{\"a\":1} trailing", "trailing characters"),
            ("nul", "expected 'null'"),
            ("", "unexpected end of input"),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert!(err.message.contains(expect_in_msg), "{text}: {err}");
        }
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("{\"s\":\"µs → done\"}").expect("utf-8 ok");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("µs → done"));
        // Multi-byte runs split by escapes.
        let v = Json::parse("\"é\\n→\\\"ü\"").expect("utf-8 ok");
        assert_eq!(v.as_str(), Some("é\n→\"ü"));
    }
}
