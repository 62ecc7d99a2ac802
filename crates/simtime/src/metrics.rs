//! Deterministic counters, gauges, and fixed-bucket latency histograms.
//!
//! The platform layer (gateway, pools, autoscaler) needs aggregate
//! observability — invocation counts, pool occupancy, per-function latency
//! distributions — with the same determinism guarantee as the span tracer:
//! identical runs must serialize to identical bytes. Everything here is
//! keyed through `BTreeMap`s (stable iteration order) and counts virtual
//! [`SimNanos`], never wall time.
//!
//! Histograms use a fixed 1-2-5 log ladder from 1 µs to 10 s plus an
//! overflow bucket, so bucket boundaries are part of the stable JSON schema
//! (`BENCH_pr2.json`) rather than data-dependent.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::SimNanos;

/// Inclusive upper bounds (ns) of the fixed histogram buckets: a 1-2-5
/// ladder from 1 µs to 10 s. Samples above the last bound land in one
/// overflow bucket.
pub const BUCKET_BOUNDS_NS: [u64; 22] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// A latency histogram over the fixed [`BUCKET_BOUNDS_NS`] ladder.
///
/// Quantiles resolve to the inclusive upper bound of the bucket holding the
/// nearest-rank sample (the recorded maximum for the overflow bucket), so
/// p50/p90/p99 are conservative upper estimates with bounded, schema-stable
/// error.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    min: SimNanos,
    max: SimNanos,
    sum: SimNanos,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; BUCKET_BOUNDS_NS.len() + 1],
            count: 0,
            min: SimNanos::ZERO,
            max: SimNanos::ZERO,
            sum: SimNanos::ZERO,
        }
    }

    fn bucket_of(sample: SimNanos) -> usize {
        BUCKET_BOUNDS_NS.partition_point(|&b| b < sample.as_nanos())
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimNanos) {
        self.buckets[Self::bucket_of(sample)] += 1;
        if self.count == 0 || sample < self.min {
            self.min = sample;
        }
        if sample > self.max {
            self.max = sample;
        }
        self.sum = self.sum.saturating_add(sample);
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<SimNanos> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<SimNanos> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<SimNanos> {
        (self.count > 0).then(|| SimNanos::from_nanos(self.sum.as_nanos() / self.count))
    }

    /// Upper bound on the quantile `q` ∈ [0, 1]: the bound of the bucket
    /// containing the nearest-rank sample. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<SimNanos> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(match BUCKET_BOUNDS_NS.get(i) {
                    Some(&bound) => SimNanos::from_nanos(bound),
                    None => self.max, // overflow bucket
                });
            }
        }
        Some(self.max)
    }

    /// Median upper bound.
    pub fn p50(&self) -> Option<SimNanos> {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> Option<SimNanos> {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> Option<SimNanos> {
        self.quantile(0.99)
    }

    /// Folds `other` into `self`, as if every sample recorded into `other`
    /// had been recorded here instead. Because the bucket ladder is fixed
    /// and shared, merging is exact: counts add bucket-wise and min/max/sum
    /// combine, so `a.merge(&b)` equals recording the union in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
    }

    /// Iterates the non-empty buckets as `(inclusive upper bound, count)`;
    /// the overflow bucket reports the recorded maximum as its bound.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (SimNanos, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let bound = match BUCKET_BOUNDS_NS.get(i) {
                    Some(&b) => SimNanos::from_nanos(b),
                    None => self.max,
                };
                (bound, c)
            })
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl FromIterator<SimNanos> for LatencyHistogram {
    fn from_iter<I: IntoIterator<Item = SimNanos>>(iter: I) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in iter {
            h.record(s);
        }
        h
    }
}

/// A deterministic registry of named counters, gauges, and latency
/// histograms.
///
/// Names follow a `subsystem.metric` convention (e.g. `pool.hits`,
/// `gateway.boot.c-hello`). Reading a metric that was never written returns
/// zero/`None` rather than creating it, so read paths never perturb the
/// serialized state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increments the counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `by` to the counter `name`.
    pub fn add(&mut self, name: &str, by: u64) {
        let c = self.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(by);
    }

    /// Reads the counter `name` (zero when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Reads the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records `sample` into the histogram `name`, creating it on first
    /// observation.
    pub fn observe(&mut self, name: &str, sample: SimNanos) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .record(sample);
    }

    /// Reads the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LatencyHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms
    /// [`merge`](LatencyHistogram::merge) bucket-wise, and gauges (which are
    /// point-in-time readings, not accumulations) take `other`'s value.
    /// Used to roll per-pool registries up into one fleet view.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.add(name, value);
        }
        for (name, value) in other.gauges() {
            self.set_gauge(name, value);
        }
        for (name, hist) in other.histograms() {
            self.histograms
                .entry(name.to_owned())
                .or_default()
                .merge(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_sorted_and_fixed() {
        assert!(BUCKET_BOUNDS_NS.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(BUCKET_BOUNDS_NS[0], 1_000);
        assert_eq!(*BUCKET_BOUNDS_NS.last().unwrap(), 10_000_000_000);
    }

    #[test]
    fn histogram_records_into_the_right_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(SimNanos::from_nanos(400)); // ≤1 µs
        h.record(SimNanos::from_micros(1)); // ≤1 µs (inclusive bound)
        h.record(SimNanos::from_micros(3)); // ≤5 µs
        h.record(SimNanos::from_secs(30)); // overflow
        assert_eq!(h.count(), 4);
        let buckets: Vec<(SimNanos, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets[0], (SimNanos::from_micros(1), 2));
        assert_eq!(buckets[1], (SimNanos::from_micros(5), 1));
        assert_eq!(buckets[2], (SimNanos::from_secs(30), 1)); // overflow reports max
        assert_eq!(h.min(), Some(SimNanos::from_nanos(400)));
        assert_eq!(h.max(), Some(SimNanos::from_secs(30)));
    }

    #[test]
    fn histogram_sum_saturates_at_the_boundary() {
        let mut h = LatencyHistogram::new();
        h.record(SimNanos::MAX);
        h.record(SimNanos::MAX);
        assert_eq!(h.sum, SimNanos::MAX);
        assert_eq!(h.count(), 2);
        let mut merged = h.clone();
        merged.merge(&h);
        assert_eq!(merged.sum, SimNanos::MAX);
        assert_eq!(merged.count(), 4);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h: LatencyHistogram = (1..=100).map(SimNanos::from_micros).collect();
        // p50: 50th sample = 50 µs, bucket bound 50 µs exactly.
        assert_eq!(h.p50(), Some(SimNanos::from_micros(50)));
        // p90: 90th sample = 90 µs → ≤100 µs bucket.
        assert_eq!(h.p90(), Some(SimNanos::from_micros(100)));
        assert_eq!(h.p99(), Some(SimNanos::from_micros(100)));
        assert_eq!(LatencyHistogram::new().p50(), None);
    }

    #[test]
    fn overflow_quantile_reports_recorded_max() {
        let mut h = LatencyHistogram::new();
        h.record(SimNanos::from_secs(25));
        assert_eq!(h.p99(), Some(SimNanos::from_secs(25)));
    }

    #[test]
    fn mean_and_emptiness() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        h.record(SimNanos::from_micros(2));
        h.record(SimNanos::from_micros(4));
        assert_eq!(h.mean(), Some(SimNanos::from_micros(3)));
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.inc("pool.hits");
        m.add("pool.hits", 2);
        m.set_gauge("pool.size", 4);
        m.observe("boot", SimNanos::from_millis(1));
        assert_eq!(m.counter("pool.hits"), 3);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("pool.size"), Some(4));
        assert_eq!(m.gauge("never"), None);
        assert_eq!(m.histogram("boot").unwrap().count(), 1);
        assert!(m.histogram("never").is_none());
        assert!(!m.is_empty());
    }

    #[test]
    fn registry_iteration_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.inc("z");
        m.inc("a");
        m.inc("m");
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let samples_a = [3u64, 900, 40_000];
        let samples_b = [1u64, 25_000_000_000];
        let mut a: LatencyHistogram = samples_a
            .iter()
            .map(|&us| SimNanos::from_micros(us))
            .collect();
        let b: LatencyHistogram = samples_b
            .iter()
            .map(|&us| SimNanos::from_micros(us))
            .collect();
        a.merge(&b);
        let union: LatencyHistogram = samples_a
            .iter()
            .chain(&samples_b)
            .map(|&us| SimNanos::from_micros(us))
            .collect();
        assert_eq!(a, union);
        // Merging an empty histogram changes nothing, in either direction.
        let mut empty = LatencyHistogram::new();
        empty.merge(&union);
        assert_eq!(empty, union);
        let mut merged = union.clone();
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, union);
    }

    #[test]
    fn registry_merge_rolls_up() {
        let mut fleet = MetricsRegistry::new();
        fleet.inc("pool.boot");
        fleet.observe("startup", SimNanos::from_millis(2));
        let mut pool = MetricsRegistry::new();
        pool.add("pool.boot", 2);
        pool.set_gauge("pool.idle", 3);
        pool.observe("startup", SimNanos::from_micros(5));
        fleet.merge_from(&pool);
        assert_eq!(fleet.counter("pool.boot"), 3);
        assert_eq!(fleet.gauge("pool.idle"), Some(3));
        assert_eq!(fleet.histogram("startup").unwrap().count(), 2);
    }

    #[test]
    fn registry_serialization_round_trips() {
        let mut m = MetricsRegistry::new();
        m.inc("invocations");
        m.set_gauge("pool.size", -1);
        m.observe("boot", SimNanos::from_micros(700));
        let text = serde_json::to_string(&m).unwrap();
        let back: MetricsRegistry = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }
}
