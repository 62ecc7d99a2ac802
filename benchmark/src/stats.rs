//! Harness arithmetic: medians, quartiles, the "ten samples beyond" rule.

use crate::json::Value;

/// Quartile cut points `(q1, median, q3)`, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so the
/// spreads printed here match the ones the builder's driver computes.
/// Fewer than two samples have no spread: all three equal the one value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(max − min) ÷ median` of the timed repetitions.
pub fn range_share(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid
}

/// Nearest-rank percentile; `None` unless ten samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if (n as f64) * (1.0 - p) < 10.0 - 1e-9 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(data[rank - 1])
}

/// A timing as the harness reports it: sample count, median, quartiles.
pub fn summary(values: &[f64], unit: &str) -> Value {
    let (q1, mid, q3) = quartiles(values);
    Value::Obj(vec![
        ("value".into(), Value::F64(mid)),
        ("unit".into(), Value::Str(unit.into())),
        ("n".into(), Value::U64(values.len() as u64)),
        ("q1".into(), Value::F64(q1)),
        ("q3".into(), Value::F64(q3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 50, 90], n=4) == [15.0, 30.0, 70.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 50.0, 90.0]),
            (15.0, 30.0, 70.0)
        );
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spreads_are_shares_of_the_median() {
        assert!((range_share(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert_eq!(range_share(&[]), 0.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&v[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.9), None);
    }
}
