use std::fmt;
use std::iter::Sum;
use std::ops::Div;

use serde::{Deserialize, Serialize};

/// A virtual duration (or instant on a [`SimClock`](crate::SimClock) timeline)
/// with nanosecond precision.
///
/// `SimNanos` is the single unit of latency in the reproduction: every cost in
/// the [`CostModel`](crate::CostModel) and every phase in a boot breakdown is
/// expressed in it. It is a `u64` count of nanoseconds, which covers ~584
/// years of virtual time — far beyond any experiment.
///
/// # Example
///
/// ```
/// use simtime::SimNanos;
///
/// let parse = SimNanos::from_micros(1_369); // 1.369 ms, paper Fig. 2
/// assert_eq!(parse.as_millis_f64(), 1.369);
/// assert_eq!(format!("{parse}"), "1.369ms");
/// ```
///
/// # Arithmetic
///
/// There is no `+`, `-`, `*` or `+=` on `SimNanos`: a latency sum that
/// overflows must clamp, not panic in debug and wrap in release, so the only
/// spellings are [`saturating_add`](SimNanos::saturating_add),
/// [`saturating_sub`](SimNanos::saturating_sub),
/// [`saturating_mul`](SimNanos::saturating_mul), [`scale`](SimNanos::scale),
/// `/ u64` and `Sum`. This works:
///
/// ```
/// use simtime::SimNanos;
///
/// let (a, b) = (SimNanos::from_micros(2), SimNanos::from_micros(3));
/// assert_eq!(a.saturating_add(b), SimNanos::from_micros(5));
/// assert_eq!(b.saturating_sub(a), SimNanos::from_micros(1));
/// assert_eq!(a.saturating_mul(2), SimNanos::from_micros(4));
/// ```
///
/// and each operator form is a type error:
///
/// ```compile_fail,E0369
/// use simtime::SimNanos;
/// let (a, b) = (SimNanos::from_micros(2), SimNanos::from_micros(3));
/// let _ = a + b; // no `Add`
/// ```
///
/// ```compile_fail,E0369
/// use simtime::SimNanos;
/// let (a, b) = (SimNanos::from_micros(2), SimNanos::from_micros(3));
/// let _ = b - a; // no `Sub`
/// ```
///
/// ```compile_fail,E0369
/// use simtime::SimNanos;
/// let a = SimNanos::from_micros(2);
/// let _ = a * 2; // no `Mul<u64>`
/// ```
///
/// ```compile_fail,E0368
/// use simtime::SimNanos;
/// let (mut a, b) = (SimNanos::from_micros(2), SimNanos::from_micros(3));
/// a += b; // no `AddAssign`
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimNanos(u64);

impl SimNanos {
    /// The zero duration.
    pub const ZERO: SimNanos = SimNanos(0);
    /// The maximum representable duration.
    pub const MAX: SimNanos = SimNanos(u64::MAX);

    /// Creates a duration of `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimNanos(ns)
    }

    /// Creates a duration of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimNanos(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimNanos(ms * 1_000_000)
    }

    /// Creates a duration of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimNanos(s * 1_000_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest nanosecond. Values below zero clamp to [`SimNanos::ZERO`].
    ///
    /// This is the main entry point for calibration constants quoted in the
    /// paper, which are printed in milliseconds (e.g. `1.369`).
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        SimNanos((ms * 1e6).max(0.0).round() as u64)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond. Values below zero clamp to [`SimNanos::ZERO`].
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        SimNanos((us * 1e3).max(0.0).round() as u64)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Adds, saturating at [`SimNanos::MAX`] instead of overflowing.
    #[inline]
    pub fn saturating_add(self, rhs: SimNanos) -> SimNanos {
        SimNanos(self.0.saturating_add(rhs.0))
    }

    /// Subtracts, saturating at [`SimNanos::ZERO`] instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: SimNanos) -> SimNanos {
        SimNanos(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a unitless count, saturating on overflow.
    ///
    /// Used for "N operations at this unit cost" accounting.
    #[inline]
    pub fn saturating_mul(self, count: u64) -> SimNanos {
        SimNanos(self.0.saturating_mul(count))
    }

    /// Scales the duration by a non-negative factor, rounding to the nearest
    /// nanosecond. Negative factors clamp to zero.
    #[inline]
    pub fn scale(self, factor: f64) -> SimNanos {
        SimNanos((self.0 as f64 * factor.max(0.0)).round() as u64)
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: SimNanos) -> SimNanos {
        SimNanos(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: SimNanos) -> SimNanos {
        SimNanos(self.0.min(other.0))
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Div<u64> for SimNanos {
    type Output = SimNanos;
    #[inline]
    fn div(self, rhs: u64) -> SimNanos {
        SimNanos(self.0 / rhs)
    }
}

impl Sum for SimNanos {
    fn sum<I: Iterator<Item = SimNanos>>(iter: I) -> SimNanos {
        iter.fold(SimNanos::ZERO, |acc, d| acc.saturating_add(d))
    }
}

impl<'a> Sum<&'a SimNanos> for SimNanos {
    fn sum<I: Iterator<Item = &'a SimNanos>>(iter: I) -> SimNanos {
        iter.copied().sum()
    }
}

impl fmt::Display for SimNanos {
    /// Pretty-prints with an automatically chosen unit: `250ns`, `12.500us`,
    /// `1.369ms`, or `2.150s`. Honours width/alignment flags (`{:>10}`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        let text = if ns < 1_000 {
            format!("{ns}ns")
        } else if ns < 1_000_000 {
            format!("{:.3}us", self.as_micros_f64())
        } else if ns < 1_000_000_000 {
            format!("{:.3}ms", self.as_millis_f64())
        } else {
            format!("{:.3}s", self.as_secs_f64())
        };
        f.pad(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimNanos::from_micros(1), SimNanos::from_nanos(1_000));
        assert_eq!(SimNanos::from_millis(1), SimNanos::from_micros(1_000));
        assert_eq!(SimNanos::from_secs(1), SimNanos::from_millis(1_000));
        assert_eq!(
            SimNanos::from_millis_f64(1.369),
            SimNanos::from_nanos(1_369_000)
        );
        assert_eq!(SimNanos::from_micros_f64(0.5), SimNanos::from_nanos(500));
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(SimNanos::from_millis_f64(-3.0), SimNanos::ZERO);
        assert_eq!(SimNanos::from_micros_f64(-0.1), SimNanos::ZERO);
        assert_eq!(SimNanos::from_millis(5).scale(-1.0), SimNanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimNanos::from_millis(2);
        let b = SimNanos::from_millis(3);
        assert_eq!(a.saturating_add(b), SimNanos::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimNanos::from_millis(1));
        assert_eq!(a.saturating_mul(4), SimNanos::from_millis(8));
        assert_eq!(b / 3, SimNanos::from_millis(1));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimNanos::MAX.saturating_add(SimNanos::from_nanos(1)),
            SimNanos::MAX
        );
        assert_eq!(
            SimNanos::ZERO.saturating_sub(SimNanos::from_nanos(1)),
            SimNanos::ZERO
        );
        assert_eq!(SimNanos::MAX.saturating_mul(2), SimNanos::MAX);
    }

    #[test]
    fn sum_iterates() {
        let parts = [SimNanos::from_micros(10), SimNanos::from_micros(20)];
        let total: SimNanos = parts.iter().sum();
        assert_eq!(total, SimNanos::from_micros(30));
        let owned: SimNanos = parts.into_iter().sum();
        assert_eq!(owned, SimNanos::from_micros(30));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimNanos::from_nanos(250).to_string(), "250ns");
        assert_eq!(SimNanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimNanos::from_millis_f64(1.369).to_string(), "1.369ms");
        assert_eq!(SimNanos::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn min_max_and_zero() {
        let a = SimNanos::from_micros(1);
        let b = SimNanos::from_micros(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimNanos::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(
            SimNanos::from_nanos(10).scale(0.25),
            SimNanos::from_nanos(3)
        );
        assert_eq!(
            SimNanos::from_millis(100).scale(1.5),
            SimNanos::from_millis(150)
        );
    }
}
