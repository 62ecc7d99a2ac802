use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use crate::SimNanos;

/// An accumulating virtual clock.
///
/// Boot engines, guest kernels, and workloads *charge* costs to the clock as
/// they perform work; the clock's reading is the total latency on the current
/// critical path. Clones share the same underlying counter, so a clock handle
/// can be passed down through subsystems cheaply.
///
/// `SimClock` is deliberately single-threaded (`!Send`), and so is everything
/// that charges it: a parallel stage (such as Catalyzer's stage-2
/// relation-table fixup) does its work on the calling thread, tallies what
/// each *modelled* worker would have paid, and charges the *maximum* — the
/// critical path — once, via [`SimClock::charge_parallel`].
///
/// # Example
///
/// ```
/// use simtime::{SimClock, SimNanos};
///
/// let clock = SimClock::new();
/// let handle = clock.clone(); // shares the same timeline
/// handle.charge(SimNanos::from_micros(500));
/// assert_eq!(clock.now(), SimNanos::from_micros(500));
/// ```
#[derive(Clone, Default)]
pub struct SimClock {
    ns: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Creates a clock pre-advanced to `start` (useful for resuming a
    /// timeline from a recorded breakdown).
    pub fn starting_at(start: SimNanos) -> Self {
        let clock = SimClock::new();
        clock.charge(start);
        clock
    }

    /// Returns the current virtual time.
    #[inline]
    pub fn now(&self) -> SimNanos {
        SimNanos::from_nanos(self.ns.get())
    }

    /// Advances the clock by `cost`, saturating at the maximum representable
    /// time rather than overflowing.
    #[inline]
    pub fn charge(&self, cost: SimNanos) {
        self.ns.set(self.ns.get().saturating_add(cost.as_nanos()));
    }

    /// Charges the **critical path** of a parallel stage: the maximum of the
    /// per-worker durations. An empty iterator charges nothing.
    ///
    /// This models Catalyzer's parallel pointer re-establishment (§3.2): each
    /// update is independent, so wall latency is the slowest worker, not the
    /// sum.
    pub fn charge_parallel<I>(&self, worker_costs: I) -> SimNanos
    where
        I: IntoIterator<Item = SimNanos>,
    {
        let critical = worker_costs.into_iter().fold(SimNanos::ZERO, SimNanos::max);
        self.charge(critical);
        critical
    }

    /// Returns the elapsed time since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than the current time, which indicates a
    /// bookkeeping bug in the caller.
    pub fn since(&self, earlier: SimNanos) -> SimNanos {
        let now = self.now();
        assert!(
            earlier <= now,
            "SimClock::since called with a future instant ({earlier} > {now})"
        );
        now.saturating_sub(earlier)
    }

    /// Runs `f` and returns both its result and the virtual time it charged.
    pub fn measure<T>(&self, f: impl FnOnce(&SimClock) -> T) -> (T, SimNanos) {
        let start = self.now();
        let out = f(self);
        (out, self.since(start))
    }
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimClock")
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimNanos::ZERO);
        clock.charge(SimNanos::from_millis(1));
        clock.charge(SimNanos::from_micros(500));
        assert_eq!(clock.now(), SimNanos::from_micros(1_500));
    }

    #[test]
    fn clones_share_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        b.charge(SimNanos::from_nanos(42));
        assert_eq!(a.now(), SimNanos::from_nanos(42));
    }

    #[test]
    fn starting_at_offsets() {
        let clock = SimClock::starting_at(SimNanos::from_millis(10));
        assert_eq!(clock.now(), SimNanos::from_millis(10));
    }

    #[test]
    fn parallel_charges_max() {
        let clock = SimClock::new();
        let critical = clock.charge_parallel([
            SimNanos::from_micros(10),
            SimNanos::from_micros(80),
            SimNanos::from_micros(30),
        ]);
        assert_eq!(critical, SimNanos::from_micros(80));
        assert_eq!(clock.now(), SimNanos::from_micros(80));
    }

    #[test]
    fn parallel_empty_is_free() {
        let clock = SimClock::new();
        assert_eq!(clock.charge_parallel([]), SimNanos::ZERO);
        assert_eq!(clock.now(), SimNanos::ZERO);
    }

    #[test]
    fn measure_reports_span() {
        let clock = SimClock::new();
        clock.charge(SimNanos::from_millis(3));
        let (value, span) = clock.measure(|clk| {
            clk.charge(SimNanos::from_millis(2));
            7
        });
        assert_eq!(value, 7);
        assert_eq!(span, SimNanos::from_millis(2));
        assert_eq!(clock.now(), SimNanos::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "future instant")]
    fn since_rejects_future() {
        let clock = SimClock::new();
        clock.since(SimNanos::from_nanos(1));
    }

    #[test]
    fn saturates_at_max() {
        let clock = SimClock::starting_at(SimNanos::MAX);
        clock.charge(SimNanos::from_nanos(1));
        assert_eq!(clock.now(), SimNanos::MAX);
        assert_eq!(clock.since(SimNanos::MAX), SimNanos::ZERO);
        assert_eq!(clock.since(SimNanos::ZERO), SimNanos::MAX);
    }
}
