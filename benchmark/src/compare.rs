//! `run.sh compare <a.json> <b.json>`: each end-to-end metric's bound,
//! applied per workload, plus the per-layer deltas with no verdict.

use std::fmt::Write as _;

use crate::json::{self, Value};

use crate::spec;

pub const SCHEMA: &str = "catalyzer-benchmark/v1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The repetitions of one side spread wider than the bound: the
    /// runs cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a` by which `b` is worse (negative when `b` is better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    let change = if better == "higher" { a - b } else { b - a };
    if a != 0.0 {
        change / a.abs()
    } else if change == 0.0 {
        0.0
    } else {
        change.signum() * f64::INFINITY
    }
}

/// `spread` is the wider `rep_spread` of the two sides where the metric is
/// a timing over repetitions, 0 otherwise. A bound of 0 means exact.
pub fn verdict(better: &str, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    if spread > bound && bound > 0.0 {
        Verdict::Unresolved
    } else if worsening(better, a, b) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn number(doc: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |v, key| v.get(key))?.as_f64()
}

fn workloads(doc: &Value) -> Result<&[(String, Value)], String> {
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} result file"));
    }
    match doc.get("workloads") {
        Some(Value::Obj(rows)) => Ok(rows),
        _ => Err("result file has no workloads".into()),
    }
}

/// `(name, unit, better, bound)` of the seven end-to-end metrics of a
/// result file: the three the driver gates, then the four exact ones.
fn end_to_end() -> Vec<(&'static str, &'static str, &'static str, f64)> {
    let gated = spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound));
    let exact = spec::EXACT_END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, "lower", 0.0));
    gated.chain(exact).collect()
}

/// The end-to-end table of one result file.
pub fn table(doc: &Value) -> String {
    let mut out = String::new();
    let Ok(rows) = workloads(doc) else {
        return out;
    };
    let metrics = end_to_end();
    let _ = write!(out, "{:<14}", "workload");
    for (name, unit, _, _) in &metrics {
        let _ = write!(out, " {:>22}", format!("{name} [{unit}]"));
    }
    out.push('\n');
    for (workload, row) in rows {
        let _ = write!(out, "{workload:<14}");
        for (name, _, _, _) in &metrics {
            let value = number(row, &["end_to_end", name, "value"]).unwrap_or(f64::NAN);
            let _ = write!(out, " {value:>22.4}");
        }
        out.push('\n');
    }
    out
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // A captured stdout may hold more than the result: take the last line.
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    json::parse(line).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(false)` when any metric is worse or
/// unresolved.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (rows_a, rows_b) = (workloads(&a)?, workloads(&b)?);
    for key in ["fingerprint", "seed", "seconds", "smoke"] {
        if a.get(key) != b.get(key) {
            println!(
                "note: {key} differs: {} vs {}",
                a.get(key).map(json::render).unwrap_or_default(),
                b.get(key).map(json::render).unwrap_or_default()
            );
        }
    }
    let mut clean = true;
    for (workload, row_a) in rows_a {
        let Some((_, row_b)) = rows_b.iter().find(|(name, _)| name == workload) else {
            println!("{workload}: missing from {b_path}");
            clean = false;
            continue;
        };
        println!("{workload}");
        let spread = [row_a, row_b]
            .iter()
            .filter_map(|row| number(row, &["rep_spread"]))
            .fold(0.0, f64::max);
        for (name, unit, better, bound) in end_to_end() {
            let path = ["end_to_end", name, "value"];
            let (Some(x), Some(y)) = (number(row_a, &path), number(row_b, &path)) else {
                println!("  {name:<22} missing");
                clean = false;
                continue;
            };
            let timing = name == "ops_per_s";
            let v = verdict(better, bound, x, y, if timing { spread } else { 0.0 });
            clean &= v == Verdict::Ok;
            let note = match v {
                Verdict::Unresolved => format!("  (repetitions spread {:.1} %)", spread * 100.0),
                _ if bound == 0.0 && x != y => "  (exact metric moved: the model changed)".into(),
                _ => String::new(),
            };
            println!(
                "  {name:<22} {x:>16.4} -> {y:>16.4} {unit:<6} {:>+8.2} % worse, bound {:>4.1} %  {}{note}",
                worsening(better, x, y) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        if let (Some(Value::Obj(layers_a)), Some(layers_b)) =
            (row_a.get("per_layer"), row_b.get("per_layer"))
        {
            for (name, entry) in layers_a {
                let x = entry.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                let y = number(layers_b, &[name, "value"]).unwrap_or(0.0);
                if x == 0.0 && y == 0.0 {
                    continue;
                }
                let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
                let change = if x != 0.0 {
                    (y - x) / x.abs() * 100.0
                } else {
                    f64::NAN
                };
                println!("    {name:<40} {x:>16.3} -> {y:>16.3} {unit:<9} {change:>+8.2} %");
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_apply_the_bound_in_the_metrics_direction() {
        // Throughput: higher is better, 10 % bound.
        assert_eq!(verdict("higher", 0.10, 100.0, 95.0, 0.02), Verdict::Ok);
        assert_eq!(verdict("higher", 0.10, 100.0, 89.0, 0.02), Verdict::Worse);
        assert_eq!(verdict("higher", 0.10, 100.0, 150.0, 0.02), Verdict::Ok);
        // Memory: lower is better, 5 % bound.
        assert_eq!(verdict("lower", 0.05, 1000.0, 1040.0, 0.0), Verdict::Ok);
        assert_eq!(verdict("lower", 0.05, 1000.0, 1060.0, 0.0), Verdict::Worse);
        assert_eq!(verdict("lower", 0.05, 1000.0, 10.0, 0.0), Verdict::Ok);
    }

    #[test]
    fn wide_repetition_spread_is_unresolved_not_unchanged() {
        assert_eq!(
            verdict("higher", 0.10, 100.0, 99.0, 0.15),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict("higher", 0.10, 100.0, 50.0, 0.15),
            Verdict::Unresolved
        );
        assert_eq!(verdict("higher", 0.10, 100.0, 50.0, 0.10), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        assert_eq!(verdict("lower", 0.0, 357.877, 357.877, 0.0), Verdict::Ok);
        assert_eq!(verdict("lower", 0.0, 357.877, 357.878, 0.0), Verdict::Worse);
        assert_eq!(verdict("lower", 0.0, 0.0, 0.0, 0.0), Verdict::Ok);
        assert_eq!(verdict("lower", 0.0, 0.0, 0.001, 0.0), Verdict::Worse);
        // Spread never excuses an exact metric.
        assert_eq!(verdict("lower", 0.0, 10.0, 11.0, 0.5), Verdict::Worse);
    }

    #[test]
    fn worsening_is_a_share_of_the_first_file() {
        assert!((worsening("higher", 200.0, 150.0) - 0.25).abs() < 1e-12);
        assert!((worsening("lower", 200.0, 150.0) + 0.25).abs() < 1e-12);
        assert_eq!(worsening("lower", 0.0, 0.0), 0.0);
    }
}
