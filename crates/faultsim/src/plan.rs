//! Seeded fault schedules.

use serde::{Deserialize, Serialize};
use simtime::SimNanos;

use crate::point::InjectionPoint;

/// Per-injection-point schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointPlan {
    /// Probability that a consultation at this point fires a fault, in
    /// `[0, 1]`; NaN never fires.
    pub rate: f64,
    /// Fraction of fired faults that are stalls (timeout-detected) rather
    /// than fast error returns, in `[0, 1]`.
    pub stall_ratio: f64,
    /// Longest transient burst: a fired fault keeps firing for `1..=burst`
    /// consecutive consultations at this point before clearing.
    pub max_burst: u32,
}

impl PointPlan {
    /// A point that never faults.
    pub const QUIET: PointPlan = PointPlan {
        rate: 0.0,
        stall_ratio: 0.0,
        max_burst: 1,
    };

    /// A point firing at `rate` (clamped to `[0, 1]`; NaN is 0) with the
    /// default burst/stall mix.
    pub fn at_rate(rate: f64) -> PointPlan {
        PointPlan {
            rate: if rate > 0.0 { rate.min(1.0) } else { 0.0 },
            stall_ratio: 0.25,
            max_burst: 2,
        }
    }
}

/// A seeded, virtually-scheduled fault plan.
///
/// The plan is pure data: handing the same plan to two [`FaultInjector`]s
/// consulted in the same order produces byte-identical fault sequences.
/// Poison faults fire only at the injection points whose
/// [`InjectionPoint::poisons_prepared_state`] is true, with probability
/// `poison_ratio` per fired fault there.
///
/// [`FaultInjector`]: crate::FaultInjector
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// RNG seed for the whole schedule.
    pub seed: u64,
    /// Per-point parameters, indexed by [`InjectionPoint::index`]. Held as
    /// a `Vec` with exactly [`InjectionPoint::ALL`]`.len()` entries;
    /// lookups treat a missing entry as [`PointPlan::QUIET`].
    points: Vec<PointPlan>,
    /// Fraction of faults at prepared-state points that poison the state,
    /// in `[0, 1]`.
    pub poison_ratio: f64,
    /// Detection latency of a fast-failing fault (an error return).
    pub detect_latency: SimNanos,
    /// Detection latency of a stalled operation (the watchdog timeout).
    pub stall_timeout: SimNanos,
    /// Virtual-time window during which the plan is active; consultations
    /// outside `[storm_start, storm_end)` never fault. `None` means always
    /// active.
    pub window: Option<(SimNanos, SimNanos)>,
}

impl FaultPlan {
    /// A plan that never fires — the baseline. Carrying a zero plan must
    /// cost nothing: no clock charges, no spans, byte-identical traces.
    pub fn zero(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            points: vec![PointPlan::QUIET; InjectionPoint::ALL.len()],
            poison_ratio: 0.0,
            detect_latency: SimNanos::from_micros(50),
            stall_timeout: SimNanos::from_millis(5),
            window: None,
        }
    }

    /// A plan firing at the same `rate` at every injection point, with the
    /// default kind mix (25 % stalls; 50 % poisons at prepared-state
    /// points).
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            poison_ratio: 0.5,
            points: vec![PointPlan::at_rate(rate); InjectionPoint::ALL.len()],
            ..FaultPlan::zero(seed)
        }
    }

    /// A fault *storm*: every point fires at `rate`, but only inside the
    /// virtual-time window `[start, end)` — the canonical overload scenario
    /// (a host incident striking a running fleet, then clearing). Shorthand
    /// for `uniform(seed, rate).with_window(start, end)`.
    pub fn storm(seed: u64, rate: f64, start: SimNanos, end: SimNanos) -> FaultPlan {
        FaultPlan::uniform(seed, rate).with_window(start, end)
    }

    /// Sets one point's schedule, builder-style.
    pub fn with_point(mut self, point: InjectionPoint, plan: PointPlan) -> FaultPlan {
        if self.points.len() < InjectionPoint::ALL.len() {
            self.points
                .resize(InjectionPoint::ALL.len(), PointPlan::QUIET);
        }
        self.points[point.index()] = plan;
        self
    }

    /// Sets the poison probability at prepared-state points, builder-style.
    pub fn with_poison_ratio(mut self, ratio: f64) -> FaultPlan {
        self.poison_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    /// Restricts the plan to the virtual-time window `[start, end)` — a
    /// fault *storm*, builder-style.
    pub fn with_window(mut self, start: SimNanos, end: SimNanos) -> FaultPlan {
        self.window = Some((start, end));
        self
    }

    /// The schedule for `point`.
    pub fn point(&self, point: InjectionPoint) -> PointPlan {
        self.points
            .get(point.index())
            .copied()
            .unwrap_or(PointPlan::QUIET)
    }

    /// True when no point can ever fire.
    pub fn is_zero(&self) -> bool {
        InjectionPoint::ALL
            .iter()
            .all(|&p| self.point(p).rate == 0.0)
    }

    /// True when the plan is active at virtual time `now`.
    pub fn active_at(&self, now: SimNanos) -> bool {
        match self.window {
            None => true,
            Some((start, end)) => now >= start && now < end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero() {
        assert!(FaultPlan::zero(7).is_zero());
        assert!(!FaultPlan::uniform(7, 0.1).is_zero());
    }

    #[test]
    fn builder_sets_one_point() {
        let plan = FaultPlan::zero(1).with_point(InjectionPoint::Relink, PointPlan::at_rate(0.5));
        assert_eq!(plan.point(InjectionPoint::Relink).rate, 0.5);
        assert_eq!(plan.point(InjectionPoint::ImageMmap).rate, 0.0);
        assert!(!plan.is_zero());
    }

    #[test]
    fn storm_is_windowed_uniform() {
        let storm = FaultPlan::storm(9, 0.8, SimNanos::from_millis(3), SimNanos::from_millis(7));
        let by_hand = FaultPlan::uniform(9, 0.8)
            .with_window(SimNanos::from_millis(3), SimNanos::from_millis(7));
        assert_eq!(storm, by_hand);
        assert!(!storm.active_at(SimNanos::ZERO));
        assert!(storm.active_at(SimNanos::from_millis(5)));
    }

    #[test]
    fn window_bounds_are_half_open() {
        let plan = FaultPlan::uniform(1, 1.0)
            .with_window(SimNanos::from_millis(1), SimNanos::from_millis(2));
        assert!(!plan.active_at(SimNanos::ZERO));
        assert!(plan.active_at(SimNanos::from_millis(1)));
        assert!(!plan.active_at(SimNanos::from_millis(2)));
    }

    #[test]
    fn rates_are_clamped() {
        assert_eq!(PointPlan::at_rate(7.0).rate, 1.0);
        assert_eq!(PointPlan::at_rate(-1.0).rate, 0.0);
    }

    #[test]
    fn plan_serializes_round_trip() {
        let plan = FaultPlan::uniform(99, 0.25);
        let text = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn short_points_vec_reads_as_quiet() {
        let mut plan = FaultPlan::zero(3);
        plan.points.clear();
        assert!(plan.is_zero());
        let plan = plan.with_point(InjectionPoint::SforkMerge, PointPlan::at_rate(1.0));
        assert_eq!(plan.point(InjectionPoint::SforkMerge).rate, 1.0);
        assert_eq!(plan.point(InjectionPoint::ImageMmap).rate, 0.0);
    }
}
