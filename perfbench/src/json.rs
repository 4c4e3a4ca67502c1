//! Writers for the program's own JSON value ([`db_telemetry::scope::Json`],
//! read back with [`parse`]): a compact single line for the result line and
//! the fingerprint, and a one-key-per-line layout for committed documents.

use std::fmt::Write as _;

pub use db_telemetry::scope::{parse_json as parse, Json};

pub fn str(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// An object whose keys keep the given order.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` is the shortest representation that parses back exactly.
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&db_telemetry::json_escape(s));
    out.push('"');
}

/// Compact single-line rendering.
pub fn compact(v: &Json) -> String {
    let mut out = String::new();
    write_compact(&mut out, v);
    out
}

fn write_compact(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(out, k);
                out.push_str(": ");
                write_compact(out, item);
            }
            out.push('}');
        }
    }
}

/// Rendering for committed documents: the top-level object one key per
/// line, arrays of objects one element per line, everything else compact.
pub fn pretty(v: &Json) -> String {
    let Json::Obj(fields) = v else {
        return compact(v) + "\n";
    };
    let mut out = String::from("{\n");
    for (i, (k, item)) in fields.iter().enumerate() {
        out.push_str("  ");
        write_str(&mut out, k);
        out.push_str(": ");
        match item {
            Json::Arr(items) if items.iter().any(|x| matches!(x, Json::Obj(_))) => {
                out.push_str("[\n");
                for (j, x) in items.iter().enumerate() {
                    out.push_str("    ");
                    write_compact(&mut out, x);
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            _ => write_compact(&mut out, item),
        }
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// The keys of an object, in order.
#[cfg(test)]
pub fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_both_renderings() {
        let v = obj([
            ("a", Json::Num(1.0)),
            ("b", Json::Num(0.123_456_789_012_345_67)),
            ("c", str("q\"uo\\te\n\u{1}é")),
            (
                "d",
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    obj([("x", Json::Num(-2.5e-9))]),
                ]),
            ),
        ]);
        assert_eq!(parse(&compact(&v)), Ok(v.clone()));
        assert_eq!(parse(&pretty(&v)), Ok(v));
    }
}
