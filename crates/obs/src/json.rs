//! Hand-rolled JSON writing and a minimal reader.
//!
//! The writer half (originally grown in `prim-bench` for
//! `BENCH_kernels.json`, now shared from here) renders values verbatim —
//! numbers via [`num`], strings via [`str()`] — and maintains section-per-line
//! record files via [`update_section`]. The reader half is a small
//! recursive-descent parser used to validate run reports emitted by the
//! [`crate::Recorder`] sink: CI parses every appended line and checks the
//! schema tag and epoch records without an external JSON dependency.

use std::collections::BTreeMap;
use std::path::Path;

/// Renders an object from `(key, raw-JSON-value)` pairs. Values are
/// inserted verbatim — pass numbers via [`num`] and strings via [`str()`].
pub fn obj(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number with stable formatting.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// A JSON integer (no fractional digits, never `null`).
pub fn int(v: u64) -> String {
    format!("{v}")
}

/// A JSON string (escapes quotes, backslashes and control characters).
pub fn str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
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
    out
}

/// An array of raw JSON values.
pub fn arr(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

fn parse_sections(text: &str) -> BTreeMap<String, String> {
    // The file is always written by `write_sections` below: one section
    // per line, `  "name": {...}` with an optional trailing comma.
    let mut sections = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some((head, rest)) = line.split_once(": ") {
            let name = head.trim().trim_matches('"');
            if !name.is_empty() && rest.starts_with('{') {
                sections.insert(name.to_string(), rest.trim_end_matches(',').to_string());
            }
        }
    }
    sections
}

fn write_sections(path: &Path, sections: &BTreeMap<String, String>) {
    let mut out = String::from("{\n");
    let last = sections.len().saturating_sub(1);
    for (i, (name, body)) in sections.iter().enumerate() {
        out.push_str(&format!(
            "  \"{name}\": {body}{}\n",
            if i == last { "" } else { "," }
        ));
    }
    out.push_str("}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// Inserts or replaces one bench's section (a single-line JSON object)
/// in the record file, preserving every other section.
pub fn update_section(path: &Path, section: &str, body: &str) {
    assert!(!body.contains('\n'), "section body must be a single line");
    let mut sections = std::fs::read_to_string(path)
        .map(|t| parse_sections(&t))
        .unwrap_or_default();
    sections.insert(section.to_string(), body.to_string());
    write_sections(path, &sections);
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array inside, if any.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
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
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        // Lone surrogates degrade to the replacement char —
                        // the recorder never emits them.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte sequences pass through).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
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
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let line = obj(&[
            ("schema", str("prim-obs/v1")),
            ("loss", num(0.5)),
            ("steps", int(42)),
            ("tags", arr(&[str("a\"b"), str("c\\d")])),
            ("none", num(f64::NAN)),
        ]);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("prim-obs/v1"));
        assert_eq!(v.get("loss").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("steps").unwrap().as_f64(), Some(42.0));
        let tags = v.get("tags").unwrap().as_arr().unwrap();
        assert_eq!(tags[0].as_str(), Some("a\"b"));
        assert_eq!(tags[1].as_str(), Some("c\\d"));
        assert_eq!(v.get("none"), Some(&Value::Null));
    }

    #[test]
    fn parser_handles_nesting_and_whitespace() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : true } , null ] } ").unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b"), Some(&Value::Bool(true)));
        assert_eq!(a[2], Value::Null);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak\ttab \"quoted\" back\\slash \u{1} é";
        let v = parse(&str(original)).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn sections_round_trip() {
        let scratch = crate::Scratch::new("json");
        let path = scratch.0.join("bench.json");

        let a = obj(&[("ms", num(1.5))]);
        update_section(&path, "alpha", &a);
        let b = obj(&[("per_query_ms", num(0.61))]);
        update_section(&path, "beta", &b);
        let a2 = obj(&[("ms", num(2.0))]);
        update_section(&path, "alpha", &a2);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"alpha\": {\"ms\": 2.000000}"), "{text}");
        assert!(
            text.contains("\"beta\": {\"per_query_ms\": 0.610000}"),
            "{text}"
        );
        assert!(parse(&text).is_ok(), "section file must itself be JSON");
    }
}
