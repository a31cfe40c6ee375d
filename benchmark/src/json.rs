//! The benchmark's one JSON writer. Values are the repository's own
//! [`Json`] tree; every document is rendered here and re-parsed with
//! `shc_core::json::parse_json` before it is written or printed.

use shc_core::json::parse_json;
pub use shc_core::json::Json;
use std::path::Path;

pub fn num(value: f64) -> Json {
    Json::Number(value)
}

pub fn text(value: &str) -> Json {
    Json::String(value.to_string())
}

pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Render compactly. Numbers print with every digit `f64` needs to
/// round-trip; whole numbers print without a fraction.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) if !n.is_finite() => out.push_str("null"),
        Json::Number(n) => out.push_str(&n.to_string()),
        Json::String(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Object(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(member, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// Render and prove the text parses back to the same tree.
pub fn render_checked(value: &Json) -> Result<String, String> {
    let rendered = render(value);
    match parse_json(&rendered) {
        Ok(parsed) if parsed == *value => Ok(rendered),
        Ok(_) => Err("document does not round-trip through parse_json".to_string()),
        Err(e) => Err(format!("document does not parse: {e}")),
    }
}

pub fn write_file(path: &Path, value: &Json) -> Result<(), String> {
    let rendered = render_checked(value)?;
    std::fs::write(path, rendered + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_file(path: &Path) -> Result<Json, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_json(&body).map_err(|e| format!("parse {}: {e}", path.display()))
}

pub fn as_f64(value: &Json) -> Option<f64> {
    match value {
        Json::Number(n) => Some(*n),
        _ => None,
    }
}
