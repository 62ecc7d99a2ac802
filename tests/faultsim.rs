//! Integration: deterministic fault injection end to end.
//!
//! Three claims the faultsim subsystem stands on:
//!
//! 1. **Zero cost when inactive** — booting with a zero-rate plan attached
//!    is byte-identical (latency and serialized span tree) to booting with
//!    no injector at all, for every engine.
//! 2. **No panic, no silent success** — under any seeded plan, every
//!    request either succeeds (counted degraded iff faults fired during
//!    it) or surfaces a typed [`SandboxError::Fault`]; nothing else.
//! 3. **Same seed, same history** — identical plans replay byte-identical
//!    fault logs, reports, and span trees.

use std::cell::RefCell;
use std::rc::Rc;

use catalyzer_suite::faultsim::{FaultInjector, FaultPlan, InjectionPoint, PointPlan};
use catalyzer_suite::platform::{PlatformError, ResiliencePolicy};
use catalyzer_suite::prelude::*;
use catalyzer_suite::sandbox::SandboxError;
use proptest::prelude::*;

fn model() -> CostModel {
    CostModel::experimental_machine()
}

fn zero_injector() -> Rc<RefCell<FaultInjector>> {
    Rc::new(RefCell::new(FaultInjector::new(FaultPlan::zero(9))))
}

/// Boots the same engine type twice — bare, and carrying a zero-rate
/// injector — and requires identical latency and serialized span tree.
fn assert_zero_plan_invisible<E: BootEngine>(mut bare: E, mut armed: E) {
    let model = model();
    let profile = AppProfile::c_hello();

    let mut ctx = BootCtx::fresh(&model);
    let baseline = bare.boot(&profile, &mut ctx).unwrap();

    let mut ctx = BootCtx::fresh(&model).with_injector(zero_injector());
    let carried = armed.boot(&profile, &mut ctx).unwrap();

    assert_eq!(
        baseline.boot_latency, carried.boot_latency,
        "{}",
        baseline.system
    );
    assert_eq!(
        serde_json::to_string(&baseline.trace).unwrap(),
        serde_json::to_string(&carried.trace).unwrap(),
        "{}: span trees diverge under a zero plan",
        baseline.system
    );
}

#[test]
fn zero_plan_is_invisible_to_every_engine() {
    assert_zero_plan_invisible(DockerEngine::new(), DockerEngine::new());
    assert_zero_plan_invisible(GvisorEngine::new(), GvisorEngine::new());
    assert_zero_plan_invisible(FirecrackerEngine::new(), FirecrackerEngine::new());
    assert_zero_plan_invisible(HyperContainerEngine::new(), HyperContainerEngine::new());
    assert_zero_plan_invisible(GvisorRestoreEngine::new(), GvisorRestoreEngine::new());
    for mode in [BootMode::Cold, BootMode::Warm, BootMode::Fork] {
        assert_zero_plan_invisible(
            CatalyzerEngine::standalone(mode),
            CatalyzerEngine::standalone(mode),
        );
    }
}

/// Builds a plan from proptest-drawn knobs: which points fire (bitmask),
/// how often, and how poisonous the prepared-state points are.
fn drawn_plan(seed: u64, mask: u32, rate_pct: u32, poison_pct: u32) -> FaultPlan {
    let mut plan = FaultPlan::zero(seed).with_poison_ratio(f64::from(poison_pct) / 100.0);
    for (i, point) in InjectionPoint::ALL.iter().enumerate() {
        if mask & (1 << i) != 0 {
            plan = plan.with_point(*point, PointPlan::at_rate(f64::from(rate_pct) / 100.0));
        }
    }
    plan
}

fn faulted_gateway(plan: FaultPlan, policy: ResiliencePolicy) -> Gateway<CatalyzerEngine> {
    let mut gateway = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model())
        .with_policy(policy)
        .with_faults(plan);
    gateway.register(AppProfile::c_hello());
    gateway
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the plan, a request ends in exactly one of two ways: a
    /// success counted degraded iff faults fired while serving it, or a
    /// typed injected-fault error. No panic, no silent success, no
    /// stringly-typed failure.
    #[test]
    fn every_fault_is_recovered_or_typed(
        seed in any::<u64>(),
        mask in 1u32..64,
        rate_pct in 1u32..101,
        poison_pct in 0u32..101,
        requests in 3u32..7,
    ) {
        let plan = drawn_plan(seed, mask, rate_pct, poison_pct);
        let mut gateway = faulted_gateway(plan, ResiliencePolicy::full());
        for _ in 0..requests {
            let fired_before = gateway.injector().unwrap().borrow().total_fired();
            let degraded_before = gateway.metrics().counter("invoke.degraded");
            match gateway.call(InvokeRequest::new("C-hello")) {
                Ok(invocation) => {
                    let fired = gateway.injector().unwrap().borrow().total_fired() - fired_before;
                    let degraded = gateway.metrics().counter("invoke.degraded") - degraded_before;
                    prop_assert_eq!(
                        degraded,
                        u64::from(fired > 0),
                        "a success that absorbed faults must be counted degraded"
                    );
                    prop_assert!(invocation.report.total() > SimNanos::ZERO);
                }
                Err(PlatformError::Sandbox(SandboxError::Fault(fault))) => {
                    // Typed surface: the failing point is in the fault.
                    prop_assert!(InjectionPoint::ALL.contains(&fault.point));
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!("untyped failure: {other}")));
                }
            }
        }
    }

    /// Two gateways over the same plan replay byte-identical histories:
    /// the injector's fault log, every report, and every span tree.
    #[test]
    fn same_seed_same_fault_and_span_history(
        seed in any::<u64>(),
        mask in 1u32..64,
        rate_pct in 1u32..101,
        requests in 2u32..5,
    ) {
        let plan = drawn_plan(seed, mask, rate_pct, 50);
        let run = |plan: FaultPlan| {
            let mut gateway = faulted_gateway(plan, ResiliencePolicy::full());
            let mut history = Vec::new();
            for _ in 0..requests {
                match gateway.call(InvokeRequest::new("C-hello")) {
                    Ok(invocation) => history.push(format!(
                        "ok boot={} exec={} trace={}",
                        invocation.report.boot,
                        invocation.report.exec,
                        serde_json::to_string(&invocation.trace).unwrap()
                    )),
                    Err(e) => history.push(format!("err {e}")),
                }
            }
            let log = serde_json::to_string(
                &gateway.injector().unwrap().borrow().log().to_vec()
            ).unwrap();
            (history, log)
        };
        let (history_a, log_a) = run(plan.clone());
        let (history_b, log_b) = run(plan);
        prop_assert_eq!(history_a, history_b);
        prop_assert_eq!(log_a, log_b);
    }
}

/// Collects every span named `name`, depth-first.
fn spans_named<'a>(span: &'a Span, name: &str, out: &mut Vec<&'a Span>) {
    if span.name == name {
        out.push(span);
    }
    for child in &span.children {
        spans_named(child, name, out);
    }
}

/// Point-scoped quarantine: a zygote poison absorbed on the warm fallback
/// rung drains the pooled zygotes only — it must not re-charge the template
/// rebuild the fork rung's own quarantine already paid for.
#[test]
fn fallback_rung_poison_does_not_recharge_the_template_rebuild() {
    // Both prepared-state points poison deterministically; a zero retry
    // budget walks the ladder with one quarantine per poisoned rung:
    // sfork (template rebuild, charged) → warm (zygote drain, free) →
    // cold (no prepared state, clean).
    let plan = FaultPlan::zero(0xD0B1)
        .with_poison_ratio(1.0)
        .with_point(InjectionPoint::SforkMerge, PointPlan::at_rate(1.0))
        .with_point(InjectionPoint::ZygoteSpecialize, PointPlan::at_rate(1.0));
    let mut gateway = faulted_gateway(
        plan,
        ResiliencePolicy {
            max_retries: 0,
            backoff_base: SimNanos::ZERO,
            ..ResiliencePolicy::full()
        },
    );

    let invocation = gateway.call(InvokeRequest::new("C-hello")).unwrap();
    assert_eq!(gateway.metrics().counter("quarantine.count"), 2);
    assert_eq!(gateway.metrics().counter("fallback.warm"), 1);
    assert_eq!(gateway.metrics().counter("fallback.cold"), 1);

    let mut quarantines = Vec::new();
    spans_named(&invocation.trace, "quarantine", &mut quarantines);
    assert_eq!(quarantines.len(), 2, "one quarantine per poisoned rung");
    assert!(
        quarantines[0].duration() > SimNanos::ZERO,
        "the sfork-merge poison pays the template rebuild inline"
    );
    assert_eq!(
        quarantines[1].duration(),
        SimNanos::ZERO,
        "the warm rung's zygote poison must not re-charge a template rebuild"
    );
}

/// The fixed-seed smoke the acceptance criteria name: a nonzero plan under
/// the full ladder keeps availability at 100% while the degraded counters
/// and recovery histogram are nonzero and exactly reproducible.
#[test]
fn fixed_seed_full_ladder_keeps_availability() {
    let run = || {
        let plan = FaultPlan::uniform(0xFA17, 0.2);
        let mut gateway = faulted_gateway(
            plan,
            ResiliencePolicy {
                max_retries: 6,
                ..ResiliencePolicy::full()
            },
        );
        for _ in 0..32 {
            gateway
                .call(InvokeRequest::new("C-hello"))
                .expect("the ladder answers everything");
        }
        let metrics = gateway.metrics();
        (
            metrics.counter("invoke.degraded"),
            metrics.counter("invoke.retries"),
            metrics
                .histogram("invoke.recovery")
                .map(|h| (h.count(), h.p99()))
                .unwrap_or((0, None)),
        )
    };
    let (degraded, retries, (recoveries, recovery_p99)) = run();
    assert!(degraded > 0, "a 20% fault rate must degrade some requests");
    assert!(retries > 0);
    assert_eq!(recoveries, degraded, "every degraded success pays recovery");
    assert!(recovery_p99.unwrap() > SimNanos::ZERO);
    assert_eq!(run(), (degraded, retries, (recoveries, recovery_p99)));
}
