//! JSON in and out, over the vendored `serde::Value` tree. The stand-in
//! `serde_json` renders and parses only through its two traits, so a
//! transparent wrapper carries a tree across them.

use serde::{DeError, Deserialize, Serialize};
pub use serde_json::Value;

struct Tree(Value);

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Tree {
    fn from_value(v: &Value) -> Result<Tree, DeError> {
        Ok(Tree(v.clone()))
    }
}

/// `value` as one line of JSON.
pub fn render(value: &Value) -> String {
    serde_json::to_string(&Tree(value.clone())).expect("the stand-in renderer never fails")
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Tree>(text)
        .map(|t| t.0)
        .map_err(|e| e.to_string())
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Value {
    Value::Str(s.into())
}

/// A metric as every result line carries it.
pub fn metric(value: f64, unit: &str) -> Value {
    obj(vec![("value", Value::F64(value)), ("unit", text(unit))])
}

/// `value` over several lines, two-space indented; objects whose fields
/// are all scalars (a metric, a workload) stay on one line.
pub fn pretty(value: &Value) -> String {
    fn go(v: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        let nested = |v: &Value| matches!(v, Value::Arr(_) | Value::Obj(_));
        match v {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Value::Obj(fields) if fields.iter().any(|(_, v)| nested(v)) => {
                out.push_str("{\n");
                for (i, (key, item)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&render(&text(key)));
                    out.push_str(": ");
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
            other => out.push_str(&render(other)),
        }
    }
    let mut out = String::new();
    go(value, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trees_round_trip_and_pretty_print_parses_back() {
        let doc = obj(vec![
            ("name", text("a \"quoted\" name")),
            ("n", Value::U64(3)),
            (
                "rows",
                Value::Arr(vec![metric(1.5, "ms"), metric(-2.0, "s")]),
            ),
            ("empty", Value::Arr(Vec::new())),
        ]);
        assert_eq!(parse(&render(&doc)), Ok(doc.clone()));
        let shown = pretty(&doc);
        assert!(
            shown.contains("\n    {\"value\":1.5,\"unit\":\"ms\"},\n"),
            "{shown}"
        );
        assert_eq!(parse(&shown), Ok(doc));
        assert!(parse("{\"a\":").is_err());
    }
}
