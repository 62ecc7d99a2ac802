//! The stateful fault consultant its owner lends to a `BootCtx`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simtime::jitter::Jitter;
use simtime::SimNanos;

use crate::plan::FaultPlan;
use crate::point::{FaultKind, InjectionPoint};

const POINTS: usize = InjectionPoint::ALL.len();

/// A fault that fired at an injection point.
///
/// The engine that consulted the injector must charge `delay` to its clock
/// (the virtual cost of *detecting* the failure) and then abort the
/// operation with a typed error wrapping this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// Position in the injector's global fault sequence, starting at 0.
    pub seq: u64,
    /// Where the fault fired.
    pub point: InjectionPoint,
    /// How the fault behaves (retry vs. quarantine semantics).
    pub kind: FaultKind,
    /// Virtual time the failing operation consumed before the failure was
    /// detected: a fast error return for transients and poisons, the stall
    /// timeout for stalls.
    pub delay: SimNanos,
}

/// One entry of the injector's append-only fault log: the fault plus the
/// virtual time of the consultation that fired it.
///
/// Serializing the whole log is how tests assert that two runs of the same
/// plan produced byte-identical fault sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Virtual time at which the engine consulted the injector.
    pub at: SimNanos,
    /// The fault that fired.
    pub fault: InjectedFault,
}

/// Deterministic fault source for one simulation run.
///
/// The injector is a pure function of `(plan, consultation sequence)`: the
/// RNG is seeded from the plan and advanced only when a consultation can
/// actually fire, so a zero plan consumes no entropy and a replayed run
/// yields a byte-identical [`FaultRecord`] log.
///
/// Poison faults persist: once a prepared-state point is poisoned, every
/// consultation there keeps failing until [`heal`](FaultInjector::heal) is
/// called — which is the platform's job, after it has quarantined and
/// rebuilt the poisoned template or zygote.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    jitter: Jitter,
    /// Remaining consecutive failures of an active transient/stall burst.
    burst: [u32; POINTS],
    burst_kind: [FaultKind; POINTS],
    poisoned: [bool; POINTS],
    fired: [u64; POINTS],
    seq: u64,
    log: Vec<FaultRecord>,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            rng: StdRng::seed_from_u64(plan.seed),
            jitter: Jitter::seeded(plan.seed.wrapping_add(0x4661_756c)),
            plan,
            burst: [0; POINTS],
            burst_kind: [FaultKind::Transient; POINTS],
            poisoned: [false; POINTS],
            fired: [0; POINTS],
            seq: 0,
            log: Vec::new(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consults the schedule at `point` at virtual time `now`.
    ///
    /// `None` means the operation proceeds normally, at zero cost — no RNG
    /// state is consumed unless the point can fire, so inactive injection
    /// points leave traces and latencies byte-identical to a run without an
    /// injector. `Some(fault)` means the operation fails after `fault.delay`
    /// of virtual detection time.
    pub fn check(&mut self, point: InjectionPoint, now: SimNanos) -> Option<InjectedFault> {
        let idx = point.index();

        // A poisoned point keeps failing until healed, window or not:
        // the corrupt prepared state does not repair itself.
        if self.poisoned[idx] {
            return Some(self.fire(point, FaultKind::Poison, now));
        }
        // An active burst drains even if the storm window has closed: the
        // burst models one failing operation observed several times.
        if self.burst[idx] > 0 {
            self.burst[idx] -= 1;
            let kind = self.burst_kind[idx];
            return Some(self.fire(point, kind, now));
        }

        let pp = self.plan.point(point);
        // A NaN rate (only a struct literal can carry one) never fires.
        if pp.rate.is_nan() || pp.rate <= 0.0 || !self.plan.active_at(now) {
            return None;
        }
        if !self.rng.gen_bool(pp.rate.clamp(0.0, 1.0)) {
            return None;
        }

        let kind = if point.poisons_prepared_state()
            && self.plan.poison_ratio > 0.0
            && self.rng.gen_bool(self.plan.poison_ratio.clamp(0.0, 1.0))
        {
            self.poisoned[idx] = true;
            FaultKind::Poison
        } else if pp.stall_ratio > 0.0 && self.rng.gen_bool(pp.stall_ratio.clamp(0.0, 1.0)) {
            FaultKind::Stall
        } else {
            FaultKind::Transient
        };
        if kind != FaultKind::Poison && pp.max_burst > 1 {
            // Total consecutive failures including this one is 1..=max_burst.
            self.burst[idx] = self.rng.gen_range(1..=pp.max_burst) - 1;
            self.burst_kind[idx] = kind;
        }
        Some(self.fire(point, kind, now))
    }

    /// Clears poison (and any draining burst) at `point`.
    ///
    /// Called by the resilience layer once it has quarantined and rebuilt
    /// the prepared state the poison corrupted; until then every
    /// consultation at the point keeps failing.
    pub fn heal(&mut self, point: InjectionPoint) {
        let idx = point.index();
        self.poisoned[idx] = false;
        self.burst[idx] = 0;
    }

    /// True while `point` is poisoned (a fault of kind `Poison` fired there
    /// and [`heal`](FaultInjector::heal) has not been called since).
    pub fn is_poisoned(&self, point: InjectionPoint) -> bool {
        self.poisoned[point.index()]
    }

    /// Number of faults fired at `point` so far.
    pub fn fired_at(&self, point: InjectionPoint) -> u64 {
        self.fired[point.index()]
    }

    /// Total faults fired so far across all points.
    pub fn total_fired(&self) -> u64 {
        self.seq
    }

    /// The append-only log of every fault fired, in firing order.
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    fn fire(&mut self, point: InjectionPoint, kind: FaultKind, now: SimNanos) -> InjectedFault {
        let delay = match kind {
            FaultKind::Stall => self.jitter.uniform(self.plan.stall_timeout, 0.1),
            FaultKind::Transient | FaultKind::Poison => {
                self.jitter.uniform(self.plan.detect_latency, 0.2)
            }
        };
        let fault = InjectedFault {
            seq: self.seq,
            point,
            kind,
            delay,
        };
        self.seq += 1;
        self.fired[point.index()] += 1;
        self.log.push(FaultRecord { at: now, fault });
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PointPlan;

    fn drain(
        inj: &mut FaultInjector,
        point: InjectionPoint,
        n: usize,
    ) -> Vec<Option<InjectedFault>> {
        (0..n)
            .map(|i| inj.check(point, SimNanos::from_micros(i as u64)))
            .collect()
    }

    #[test]
    fn zero_plan_never_fires_and_keeps_log_empty() {
        let mut inj = FaultInjector::new(FaultPlan::zero(11));
        for point in InjectionPoint::ALL {
            for i in 0..64 {
                assert_eq!(inj.check(point, SimNanos::from_micros(i)), None);
            }
        }
        assert_eq!(inj.total_fired(), 0);
        assert!(inj.log().is_empty());
    }

    #[test]
    fn rate_one_always_fires_with_positive_delay() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(42, 1.0));
        for i in 0..32 {
            let fault = inj
                .check(InjectionPoint::Relink, SimNanos::from_micros(i))
                .expect("rate 1.0 must fire");
            assert_eq!(fault.point, InjectionPoint::Relink);
            assert!(fault.delay > SimNanos::ZERO);
            assert_eq!(fault.seq, i);
        }
        assert_eq!(inj.fired_at(InjectionPoint::Relink), 32);
    }

    #[test]
    fn same_plan_replays_byte_identical_log() {
        let consult = |seed: u64| {
            let mut inj = FaultInjector::new(FaultPlan::uniform(seed, 0.35));
            for i in 0..256u64 {
                let point = InjectionPoint::ALL[(i % 6) as usize];
                inj.check(point, SimNanos::from_micros(i));
                if inj.is_poisoned(point) && i % 4 == 0 {
                    inj.heal(point);
                }
            }
            serde_json::to_string(&inj.log().to_vec()).unwrap()
        };
        assert_eq!(consult(7), consult(7));
        assert_ne!(consult(7), consult(8), "different seeds should diverge");
    }

    #[test]
    fn poison_persists_until_healed() {
        let plan = FaultPlan::uniform(3, 1.0); // poison_ratio 0.5: will poison soon
        let mut inj = FaultInjector::new(plan);
        let point = InjectionPoint::ZygoteSpecialize;
        let mut steps = 0;
        while !inj.is_poisoned(point) {
            inj.check(point, SimNanos::ZERO).expect("rate 1.0 fires");
            steps += 1;
            assert!(steps < 64, "poison_ratio 0.5 should poison quickly");
        }
        for _ in 0..8 {
            let fault = inj.check(point, SimNanos::ZERO).unwrap();
            assert_eq!(fault.kind, FaultKind::Poison);
        }
        inj.heal(point);
        assert!(!inj.is_poisoned(point));
    }

    #[test]
    fn transient_points_never_poison() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(5, 1.0));
        for f in drain(&mut inj, InjectionPoint::ImageMmap, 128)
            .into_iter()
            .flatten()
        {
            assert_ne!(f.kind, FaultKind::Poison);
        }
        assert!(!inj.is_poisoned(InjectionPoint::ImageMmap));
    }

    #[test]
    fn stalls_cost_the_stall_timeout() {
        let plan = FaultPlan::zero(9).with_point(
            InjectionPoint::IoReconnect,
            PointPlan {
                rate: 1.0,
                stall_ratio: 1.0,
                max_burst: 1,
            },
        );
        let timeout = plan.stall_timeout;
        let mut inj = FaultInjector::new(plan);
        for f in drain(&mut inj, InjectionPoint::IoReconnect, 16)
            .into_iter()
            .flatten()
        {
            assert_eq!(f.kind, FaultKind::Stall);
            assert!(f.delay >= timeout.scale(0.9) && f.delay <= timeout.scale(1.1));
        }
    }

    #[test]
    fn bursts_drain_outside_the_storm_window() {
        let plan = FaultPlan::zero(13)
            .with_point(
                InjectionPoint::ArenaMap,
                PointPlan {
                    rate: 1.0,
                    stall_ratio: 0.0,
                    max_burst: 4,
                },
            )
            .with_window(SimNanos::ZERO, SimNanos::from_nanos(1));
        let mut inj = FaultInjector::new(plan);
        // Inside the window: fires, possibly arming a burst.
        assert!(inj
            .check(InjectionPoint::ArenaMap, SimNanos::ZERO)
            .is_some());
        let armed = inj.burst[InjectionPoint::ArenaMap.index()];
        // Outside the window: exactly the armed burst drains, then quiet.
        let late = SimNanos::from_millis(1);
        for _ in 0..armed {
            assert!(inj.check(InjectionPoint::ArenaMap, late).is_some());
        }
        assert_eq!(inj.check(InjectionPoint::ArenaMap, late), None);
    }

    #[test]
    fn nan_rates_never_fire_and_draw_nothing() {
        let literal = PointPlan {
            rate: f64::NAN,
            stall_ratio: 0.5,
            max_burst: 2,
        };
        let every_point = |pp: PointPlan| {
            InjectionPoint::ALL
                .iter()
                .fold(FaultPlan::zero(1), |plan, &p| plan.with_point(p, pp))
        };
        let plans = [
            FaultPlan::uniform(1, f64::NAN),
            every_point(PointPlan::at_rate(f64::NAN)),
            every_point(literal),
        ];
        assert!(plans[0].is_zero() && plans[1].is_zero());
        for plan in plans {
            let mut inj = FaultInjector::new(plan);
            for point in InjectionPoint::ALL {
                assert_eq!(inj.check(point, SimNanos::ZERO), None, "{point}");
            }
            assert_eq!(
                inj.rng.clone().gen::<u64>(),
                StdRng::seed_from_u64(1).gen::<u64>(),
                "a NaN rate drew from the RNG"
            );
        }
    }
}
