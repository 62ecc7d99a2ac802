//! Graceful degradation: retry with simulated-time backoff, fallback along
//! the boot ladder, and quarantine of poisoned prepared state.
//!
//! This module is the *single* home of the platform's recovery logic:
//! [`Gateway`](crate::Gateway) and [`InstancePool`](crate::pool::InstancePool)
//! both boot through [`resilient_boot`], so retry/fallback semantics can
//! never diverge between the detailed and summary invocation paths.
//!
//! The recovery ladder, per request:
//!
//! 1. **retry** the current boot path up to [`ResiliencePolicy::max_retries`]
//!    times, charging exponential backoff on the virtual clock;
//! 2. **fall back** one rung down the engine's boot ladder
//!    ([`BootEngine::degrade`]: sfork → warm restore → cold boot — or, on a
//!    cluster node with a reachable remote template, local sfork → *remote
//!    sfork* → warm → cold, see
//!    [`ClusterEngine`](crate::cluster::ClusterEngine)) and start retrying
//!    there;
//! 3. when the ladder is exhausted, surface the typed error.
//!
//! A `Poison` fault additionally **quarantines** the corrupt prepared state
//! ([`BootEngine::quarantine`] rebuilds it, charged to the request's clock)
//! before the retry — without quarantine the poisoned path would fail every
//! retry and burn straight down the ladder. Under
//! [`ResiliencePolicy::defer_quarantine`] the rebuild moves *off* the
//! request path: the poison only marks the state suspect and the request
//! falls back one rung immediately; a self-healing pool repairs the
//! capacity in the background ([`InstancePool::tick`](crate::pool::InstancePool::tick)).
//!
//! Only injected host faults ([`SandboxError::Fault`]) are recovered;
//! genuine program errors (bad config, missing template) propagate
//! immediately — retrying those would mask real bugs.

use faultsim::{FaultKind, InjectionPoint};
use runtimes::AppProfile;
use sandbox::{BootCtx, BootEngine, BootOutcome, SandboxError};
use simtime::names;
use simtime::{MetricsRegistry, SimNanos};

/// How hard the platform works to keep a request alive through host faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Failed attempts retried per ladder rung before falling back.
    pub max_retries: u32,
    /// Backoff charged before retry `n` (1-based): `backoff_base << (n-1)`.
    pub backoff_base: SimNanos,
    /// Walk the engine's boot ladder when retries are exhausted.
    pub fallback: bool,
    /// Rebuild poisoned zygote/template state before retrying.
    pub quarantine: bool,
    /// Defer the quarantine rebuild off the request path: a poison only
    /// *marks* the prepared state suspect ([`BootEngine::mark_suspect`]) and
    /// falls straight back one rung; a background repair loop (the
    /// self-healing [`InstancePool`](crate::pool::InstancePool)) later pays
    /// the rebuild. Only meaningful when `quarantine` is set.
    pub defer_quarantine: bool,
}

impl ResiliencePolicy {
    /// No recovery at all: the first fault surfaces as an error. The
    /// baseline every other policy is measured against.
    pub fn none() -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries: 0,
            backoff_base: SimNanos::ZERO,
            fallback: false,
            quarantine: false,
            defer_quarantine: false,
        }
    }

    /// Retries on the preferred path only — no fallback, no quarantine.
    pub fn retry_only() -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries: 2,
            backoff_base: SimNanos::from_micros(200),
            fallback: false,
            quarantine: false,
            defer_quarantine: false,
        }
    }

    /// The full ladder: retry, fall back, quarantine. The default.
    pub fn full() -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries: 2,
            backoff_base: SimNanos::from_micros(200),
            fallback: true,
            quarantine: true,
            defer_quarantine: false,
        }
    }

    /// Stable label for bench exports.
    pub fn label(&self) -> &'static str {
        match (self.max_retries > 0, self.fallback) {
            (false, false) => "none",
            (true, false) => "retry",
            (_, true) => "retry+fallback",
        }
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::full()
    }
}

/// What it took to get one boot through: the outcome plus the recovery
/// accounting the gateway turns into metrics.
#[derive(Debug)]
pub struct ResilientBoot {
    /// The successful boot.
    pub outcome: BootOutcome,
    /// Injected faults absorbed on the way.
    pub faults: u64,
    /// Failed attempts that were retried (on any rung).
    pub retries: u64,
    /// Quarantine-and-rebuild cycles performed.
    pub quarantines: u64,
    /// Deepest fallback rung used, when the boot did not succeed on the
    /// preferred path (e.g. `"warm"`, `"cold"`).
    pub fallback_path: Option<&'static str>,
    /// Injection points whose poison was *deferred* rather than rebuilt
    /// inline (only populated under
    /// [`ResiliencePolicy::defer_quarantine`]); the caller's repair loop
    /// owes these a background rebuild and an injector heal.
    pub poisoned: Vec<InjectionPoint>,
    /// Virtual time spent on failed attempts, backoff, and quarantine —
    /// everything before the successful attempt began.
    pub recovery: SimNanos,
}

impl ResilientBoot {
    /// True when the request survived at least one fault (a *degraded*
    /// success: correct answer, recovery latency paid).
    pub fn degraded(&self) -> bool {
        self.faults > 0
    }
}

/// Boots `profile` through `engine` under `policy`, recovering injected
/// faults per the module-level ladder. Fault counters (`fault.<point>`,
/// `invoke.retries`, `fallback.<rung>`, `quarantine.count`) land in
/// `metrics` as they happen; outcome-level accounting is the caller's job
/// via the returned [`ResilientBoot`].
///
/// The engine is always reset to its preferred boot path first, so one
/// request's degradation does not leak into the next.
///
/// # Errors
///
/// Non-fault errors immediately; [`SandboxError::Fault`] once the policy's
/// recovery ladder is exhausted.
pub fn resilient_boot<E: BootEngine>(
    engine: &mut E,
    profile: &AppProfile,
    policy: &ResiliencePolicy,
    ctx: &mut BootCtx,
    metrics: &mut MetricsRegistry,
) -> Result<ResilientBoot, SandboxError> {
    engine.reset_path();
    let started = ctx.now();
    let mut faults = 0u64;
    let mut retries = 0u64;
    let mut quarantines = 0u64;
    let mut fallback_path = None;
    let mut poisoned: Vec<InjectionPoint> = Vec::new();
    let mut retries_here = 0u32;

    loop {
        let attempt_start = ctx.now();
        match engine.boot(profile, ctx) {
            Ok(outcome) => {
                return Ok(ResilientBoot {
                    outcome,
                    faults,
                    retries,
                    quarantines,
                    fallback_path,
                    poisoned,
                    // Everything charged before the winning attempt began.
                    recovery: attempt_start.saturating_sub(started),
                });
            }
            Err(err) => {
                let Some(fault) = err.injected().copied() else {
                    return Err(err);
                };
                faults += 1;
                metrics.inc(&names::fault_metric(&fault.point.to_string()));

                if fault.kind == FaultKind::Poison && policy.quarantine {
                    if policy.defer_quarantine {
                        // Cheap half only: mark the state suspect and leave
                        // the rebuild (and the injector heal) to the
                        // caller's background repair loop. Retrying this
                        // rung is futile while the poison persists, so fall
                        // back immediately instead of burning the budget.
                        engine.mark_suspect(profile, fault.point);
                        if !poisoned.contains(&fault.point) {
                            poisoned.push(fault.point);
                        }
                        metrics.inc(names::QUARANTINE_DEFERRED);
                        if policy.fallback {
                            if let Some(rung) = engine.degrade() {
                                fallback_path = Some(rung);
                                metrics.inc(&names::fallback_rung(rung));
                                retries_here = 0;
                                continue;
                            }
                        }
                        return Err(err);
                    }
                    ctx.span("quarantine", |ctx| {
                        engine.quarantine(profile, fault.point, ctx.clock(), ctx.model())
                    })?;
                    ctx.heal(fault.point);
                    quarantines += 1;
                    metrics.inc(names::QUARANTINE_COUNT);
                }

                if retries_here < policy.max_retries {
                    retries_here += 1;
                    retries += 1;
                    metrics.inc(names::INVOKE_RETRIES);
                    if !policy.backoff_base.is_zero() {
                        let backoff = policy
                            .backoff_base
                            .saturating_mul(1u64 << (retries_here - 1).min(16));
                        ctx.charge_span("backoff", backoff);
                    }
                    continue;
                }
                if policy.fallback {
                    if let Some(rung) = engine.degrade() {
                        fallback_path = Some(rung);
                        metrics.inc(&names::fallback_rung(rung));
                        retries_here = 0;
                        continue;
                    }
                }
                return Err(err);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyzer::{BootMode, CatalyzerEngine};
    use faultsim::{FaultInjector, FaultPlan, InjectionPoint, PointPlan};
    use simtime::CostModel;

    fn boot_with(
        plan: FaultPlan,
        policy: ResiliencePolicy,
    ) -> (
        Result<ResilientBoot, SandboxError>,
        FaultInjector,
        MetricsRegistry,
    ) {
        let model = CostModel::experimental_machine();
        let mut engine = CatalyzerEngine::standalone(BootMode::Fork);
        let mut injector = FaultInjector::new(plan);
        let mut ctx = BootCtx::fresh(&model).with_injector(&mut injector);
        let mut metrics = MetricsRegistry::new();
        let profile = runtimes::AppProfile::c_hello();
        let result = resilient_boot(&mut engine, &profile, &policy, &mut ctx, &mut metrics);
        (result, injector, metrics)
    }

    #[test]
    fn zero_plan_boots_clean() {
        let (result, injector, metrics) = boot_with(FaultPlan::zero(1), ResiliencePolicy::full());
        let boot = result.unwrap();
        assert!(!boot.degraded());
        assert_eq!(boot.recovery, SimNanos::ZERO);
        assert_eq!(injector.total_fired(), 0);
        assert!(metrics.is_empty());
    }

    #[test]
    fn policy_none_surfaces_the_first_fault_typed() {
        let plan =
            FaultPlan::zero(2).with_point(InjectionPoint::SforkMerge, PointPlan::at_rate(1.0));
        let (result, _, _) = boot_with(plan, ResiliencePolicy::none());
        match result.unwrap_err() {
            SandboxError::Fault(fault) => assert_eq!(fault.point, InjectionPoint::SforkMerge),
            other => panic!("expected a typed fault, got {other:?}"),
        }
    }

    #[test]
    fn fallback_ladder_saves_a_permanently_failing_rung() {
        // sfork always faults with transients only (no poison): retries
        // fail, the ladder saves. The fallback rungs (warm, cold) are clean.
        let plan = FaultPlan::zero(3).with_poison_ratio(0.0).with_point(
            InjectionPoint::SforkMerge,
            PointPlan {
                rate: 1.0,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        );
        let (result, _, metrics) = boot_with(plan, ResiliencePolicy::full());
        let boot = result.unwrap();
        assert!(boot.degraded());
        assert_eq!(boot.fallback_path, Some("warm"));
        assert!(boot.recovery > SimNanos::ZERO);
        assert_eq!(metrics.counter("fallback.warm"), 1);
        assert!(metrics.counter("fault.sfork-merge") >= 1);
    }

    #[test]
    fn quarantine_heals_a_poisoned_template() {
        // poison_ratio 1.0: the first sfork fault poisons the template.
        let plan = FaultPlan::zero(4).with_poison_ratio(1.0).with_point(
            InjectionPoint::SforkMerge,
            PointPlan {
                rate: 0.5,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        );
        let policy = ResiliencePolicy {
            fallback: false, // force recovery through quarantine alone
            max_retries: 8,
            ..ResiliencePolicy::full()
        };
        let (result, injector, metrics) = boot_with(plan, policy);
        let boot = result.unwrap();
        assert!(boot.quarantines >= 1);
        assert_eq!(metrics.counter("quarantine.count"), boot.quarantines);
        assert!(!injector.is_poisoned(InjectionPoint::SforkMerge));
        assert!(boot.recovery > SimNanos::ZERO, "rebuild is on the clock");
    }

    #[test]
    fn without_quarantine_poison_exhausts_the_rung() {
        let plan = FaultPlan::zero(5).with_poison_ratio(1.0).with_point(
            InjectionPoint::SforkMerge,
            PointPlan {
                rate: 1.0,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        );
        // Retries alone cannot clear a poison...
        let (result, injector, _) = boot_with(plan.clone(), ResiliencePolicy::retry_only());
        assert!(matches!(result.unwrap_err(), SandboxError::Fault(_)));
        assert!(injector.is_poisoned(InjectionPoint::SforkMerge));
        // ...but the full ladder still saves the request via fallback.
        let (result, _, _) = boot_with(plan, ResiliencePolicy::full());
        assert!(result.unwrap().degraded());
    }

    #[test]
    fn deferred_quarantine_marks_and_falls_back_without_rebuilding() {
        let plan = FaultPlan::zero(6).with_poison_ratio(1.0).with_point(
            InjectionPoint::SforkMerge,
            PointPlan {
                rate: 1.0,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        );
        let policy = ResiliencePolicy {
            defer_quarantine: true,
            ..ResiliencePolicy::full()
        };
        let (result, injector, metrics) = boot_with(plan, policy);
        let boot = result.unwrap();
        assert_eq!(boot.quarantines, 0, "no inline rebuild");
        assert_eq!(boot.poisoned, vec![InjectionPoint::SforkMerge]);
        assert!(
            injector.is_poisoned(InjectionPoint::SforkMerge),
            "the heal is the repair loop's job, not ours"
        );
        assert!(metrics.counter("quarantine.deferred") >= 1);
        assert_eq!(metrics.counter("quarantine.count"), 0);
        assert!(
            boot.fallback_path.is_some(),
            "fell back instead of retrying"
        );
        assert_eq!(
            metrics.counter("invoke.retries"),
            0,
            "retrying a persisting poison would be wasted budget"
        );
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(ResiliencePolicy::none().label(), "none");
        assert_eq!(ResiliencePolicy::retry_only().label(), "retry");
        assert_eq!(ResiliencePolicy::full().label(), "retry+fallback");
        assert_eq!(ResiliencePolicy::default(), ResiliencePolicy::full());
    }
}
