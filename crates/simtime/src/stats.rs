//! Summary statistics and CDFs for figure regeneration.
//!
//! Figure 1 of the paper is a CDF of the execution/overall-latency ratio
//! across 14 serverless functions. This module provides the small,
//! dependency-free statistics needed to print such series; bucketed
//! histograms are [`crate::metrics::LatencyHistogram`]'s job.

use crate::SimNanos;

/// Summary statistics over a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: SimNanos,
    /// Minimum sample.
    pub min: SimNanos,
    /// Maximum sample.
    pub max: SimNanos,
    /// Median (p50).
    pub p50: SimNanos,
    /// 95th percentile.
    pub p95: SimNanos,
    /// 99th percentile.
    pub p99: SimNanos,
}

/// Computes summary statistics. Returns `None` for an empty sample.
///
/// Percentiles use the nearest-rank method on a sorted copy.
///
/// # Example
///
/// ```
/// use simtime::stats::summarize;
/// use simtime::SimNanos;
///
/// let xs: Vec<SimNanos> = (1..=100).map(SimNanos::from_micros).collect();
/// let s = summarize(&xs).unwrap();
/// assert_eq!(s.p50, SimNanos::from_micros(50));
/// assert_eq!(s.p99, SimNanos::from_micros(99));
/// ```
pub fn summarize(samples: &[SimNanos]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let count = sorted.len();
    let total_ns: u128 = sorted.iter().map(|d| d.as_nanos() as u128).sum();
    let mean = SimNanos::from_nanos((total_ns / count as u128) as u64);
    let rank = |p: f64| -> SimNanos {
        let idx = ((p * count as f64).ceil() as usize).clamp(1, count) - 1;
        sorted[idx]
    };
    Some(Summary {
        count,
        mean,
        min: sorted[0],
        max: sorted[count - 1],
        p50: rank(0.50),
        p95: rank(0.95),
        p99: rank(0.99),
    })
}

/// An empirical CDF over arbitrary `f64` values (e.g. latency *ratios* for
/// Figure 1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples; NaNs are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(sorted.iter().all(|x| !x.is_nan()), "CDF sample was NaN");
        sorted.sort_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// Fraction of samples ≤ `x` (0.0 for an empty CDF).
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The value below which fraction `q` of samples fall (inverse CDF,
    /// nearest rank). Returns `None` for an empty CDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let idx = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.sorted[idx])
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Emits `(x, F(x))` steps for plotting/printing, one per sample.
    pub fn steps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n as f64))
    }

    /// The maximum sample, if any (Fig. 1 reports "the ratio of all functions
    /// in gVisor can not even achieve 65.54 %": the CDF's max x).
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_empty_is_none() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn summarize_single_sample() {
        let s = summarize(&[SimNanos::from_micros(7)]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, SimNanos::from_micros(7));
        assert_eq!(s.min, s.max);
        assert_eq!(s.p99, SimNanos::from_micros(7));
    }

    #[test]
    fn summarize_percentiles() {
        let xs: Vec<SimNanos> = (1..=1000).map(SimNanos::from_nanos).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.p50, SimNanos::from_nanos(500));
        assert_eq!(s.p95, SimNanos::from_nanos(950));
        assert_eq!(s.p99, SimNanos::from_nanos(990));
        assert_eq!(s.min, SimNanos::from_nanos(1));
        assert_eq!(s.max, SimNanos::from_nanos(1000));
    }

    #[test]
    fn cdf_basic() {
        let cdf = Cdf::from_samples([0.1, 0.5, 0.9, 0.3]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.at(0.0), 0.0);
        assert_eq!(cdf.at(0.3), 0.5);
        assert_eq!(cdf.at(1.0), 1.0);
        assert_eq!(cdf.max(), Some(0.9));
        assert_eq!(cdf.quantile(0.5), Some(0.3));
    }

    #[test]
    fn cdf_steps_are_monotone() {
        let cdf = Cdf::from_samples([3.0, 1.0, 2.0]);
        let steps: Vec<(f64, f64)> = cdf.steps().collect();
        assert_eq!(steps, vec![(1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0), (3.0, 1.0)]);
    }

    #[test]
    fn cdf_empty() {
        let cdf = Cdf::from_samples([]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.at(5.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.max(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_rejects_nan() {
        let _ = Cdf::from_samples([f64::NAN]);
    }
}
