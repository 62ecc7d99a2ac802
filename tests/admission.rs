//! Integration: admission control end to end over the gateway.
//!
//! The claims the admission subsystem stands on:
//!
//! 1. **Invisible at zero load** — an admission-controlled gateway serving
//!    sparse traffic produces the same latency reports as a bare one, sheds
//!    nothing, and never moves a breaker.
//! 2. **Every rejection is typed** — overload, deadline, and open-breaker
//!    sheds each surface as their own [`PlatformError`] variant; nothing
//!    panics, nothing is silently dropped.
//! 3. **The span tree carries the queue** — admitted requests have the
//!    stable `[admission, boot, exec]` shape under the invoke root, with
//!    the admission span exactly the queue wait.
//! 4. **Same seed, same history** — identical plans and arrival traces
//!    replay byte-identical admission logs, breaker transitions, and span
//!    trees.

use catalyzer_suite::faultsim::{FaultPlan, InjectionPoint, PointPlan};
use catalyzer_suite::platform::admission::SPAN_ADMISSION;
use catalyzer_suite::platform::{AdmissionPolicy, BreakerState, PlatformError, ResiliencePolicy};
use catalyzer_suite::prelude::*;

fn model() -> CostModel {
    CostModel::experimental_machine()
}

fn ms(v: u64) -> SimNanos {
    SimNanos::from_millis(v)
}

fn fork_gateway(admission: AdmissionPolicy) -> Gateway<CatalyzerEngine> {
    let mut gw = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model());
    gw.register(AppProfile::c_hello());
    gw.with_admission(admission)
}

#[test]
fn zero_load_admission_is_invisible() {
    let mut gated = fork_gateway(AdmissionPolicy::standard(4, ms(100)));
    let mut bare = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model());
    bare.register(AppProfile::c_hello());

    for i in 0..8u64 {
        let inv = gated
            .call(InvokeRequest::at("C-hello", ms(10 * i)))
            .unwrap();
        assert_eq!(inv.queued, SimNanos::ZERO, "nothing queues at zero load");
        let plain = bare.call(InvokeRequest::new("C-hello")).unwrap().report;
        assert_eq!(inv.report, plain, "admission added no latency");
    }
    assert_eq!(gated.metrics().counter("admit.count"), 8);
    assert_eq!(gated.metrics().counter("admit.queued"), 0);
    assert_eq!(gated.metrics().counter("shed.overload"), 0);
    assert_eq!(gated.metrics().counter("shed.deadline"), 0);
    assert_eq!(gated.metrics().counter("shed.breaker"), 0);
    let ctrl = gated.admission().unwrap();
    assert_eq!(ctrl.breaker_state("C-hello"), Some(BreakerState::Closed));
    assert!(ctrl.transitions("C-hello").is_empty());
    assert_eq!(ctrl.log().len(), 8);
}

#[test]
fn queued_requests_carry_the_admission_span() {
    // Limit 1: the second request (arriving mid-service of the first)
    // queues until the first completes.
    let mut gw = fork_gateway(AdmissionPolicy::standard(1, SimNanos::from_secs(10)));
    let first = gw
        .call(InvokeRequest::at("C-hello", SimNanos::ZERO))
        .unwrap();
    assert_eq!(first.queued, SimNanos::ZERO);

    let second = gw
        .call(InvokeRequest::at("C-hello", SimNanos::from_micros(100)))
        .unwrap();
    assert!(second.queued > SimNanos::ZERO, "second request must queue");
    // It starts exactly when the first finishes.
    assert_eq!(
        SimNanos::from_micros(100).saturating_add(second.queued),
        first.end_to_end()
    );

    // Stable span shape: [admission, boot, exec] under the invoke root,
    // with the admission span equal to the queue wait.
    assert_eq!(second.trace.name, "invoke:C-hello");
    assert_eq!(second.trace.children.len(), 3);
    assert_eq!(second.trace.children[0].name, SPAN_ADMISSION);
    assert_eq!(second.trace.children[1].name, SPAN_BOOT);
    assert_eq!(second.trace.children[2].name, SPAN_EXEC);
    assert_eq!(second.trace.children[0].duration(), second.queued);
    second.trace.validate_nesting().unwrap();
    // The report's boot leg excludes the wait; end-to-end includes it.
    assert_eq!(second.report.boot, second.trace.children[1].duration());
    assert_eq!(second.end_to_end(), second.trace.duration());
    assert_eq!(gw.metrics().counter("admit.queued"), 1);
}

#[test]
fn overload_and_deadline_sheds_are_typed() {
    // Deadline far away: a same-instant burst overflows the bounded queue
    // (limit 1 + 2 waiters) and sheds `Overload`.
    let mut gw = fork_gateway(AdmissionPolicy::standard(1, SimNanos::from_secs(10)));
    let mut overloads = 0;
    for i in 0..8u64 {
        match gw.call(InvokeRequest::at("C-hello", SimNanos::from_micros(i * 10))) {
            Ok(_) => {}
            Err(PlatformError::Overload {
                function,
                in_flight,
                limit,
            }) => {
                assert_eq!(function, "C-hello");
                assert!(in_flight > limit);
                overloads += 1;
            }
            Err(other) => panic!("only Overload expected here, got {other:?}"),
        }
    }
    assert!(overloads > 0, "the bounded queue must overflow");
    assert_eq!(gw.metrics().counter("shed.overload"), overloads);

    // Tight deadline: the queue slot frees too late, so the request is
    // shed `DeadlineExceeded` at admission instead of running doomed.
    let mut gw = fork_gateway(AdmissionPolicy::standard(1, SimNanos::from_micros(500)));
    gw.call(InvokeRequest::at("C-hello", SimNanos::ZERO))
        .unwrap();
    match gw.call(InvokeRequest::at("C-hello", SimNanos::from_micros(100))) {
        Err(PlatformError::DeadlineExceeded {
            function,
            deadline,
            would_start,
        }) => {
            assert_eq!(function, "C-hello");
            assert!(would_start > deadline);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(gw.metrics().counter("shed.deadline"), 1);
}

#[test]
fn poison_trips_the_breaker_and_probes_close_it() {
    // Every sfork attempt inside the first 3 ms poisons the template; the
    // gateway's inline quarantine recovers each request, but two poisoned
    // completions in a row trip the breaker.
    let plan = FaultPlan::zero(0xB0A7)
        .with_poison_ratio(1.0)
        .with_point(
            InjectionPoint::SforkMerge,
            PointPlan {
                rate: 1.0,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        )
        .with_window(SimNanos::ZERO, ms(3));
    let mut gw = fork_gateway(AdmissionPolicy::standard(4, SimNanos::from_secs(10)))
        .with_policy(ResiliencePolicy::full())
        .with_faults(plan);

    gw.call(InvokeRequest::at("C-hello", ms(0))).unwrap();
    gw.call(InvokeRequest::at("C-hello", ms(1))).unwrap();
    assert_eq!(
        gw.admission().unwrap().breaker_state("C-hello"),
        Some(BreakerState::Open),
        "two poisoned completions trip the breaker"
    );

    // While open: typed fast-fail carrying the cooldown end.
    let until = match gw.call(InvokeRequest::at("C-hello", ms(2))) {
        Err(PlatformError::CircuitOpen { function, until }) => {
            assert_eq!(function, "C-hello");
            until
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    };
    assert_eq!(gw.metrics().counter("shed.breaker"), 1);

    // At the cooldown's end (past the fault window) probes are admitted
    // and two clean completions close the breaker.
    gw.call(InvokeRequest::at("C-hello", until)).unwrap();
    assert_eq!(
        gw.admission().unwrap().breaker_state("C-hello"),
        Some(BreakerState::HalfOpen)
    );
    gw.call(InvokeRequest::at("C-hello", until.saturating_add(ms(1))))
        .unwrap();
    assert_eq!(
        gw.admission().unwrap().breaker_state("C-hello"),
        Some(BreakerState::Closed)
    );

    let kinds: Vec<(BreakerState, BreakerState)> = gw
        .admission()
        .unwrap()
        .transitions("C-hello")
        .iter()
        .map(|t| (t.from, t.to))
        .collect();
    assert_eq!(
        kinds,
        vec![
            (BreakerState::Closed, BreakerState::Open),
            (BreakerState::Open, BreakerState::HalfOpen),
            (BreakerState::HalfOpen, BreakerState::Closed),
        ]
    );
    assert_eq!(gw.metrics().counter("breaker.open"), 1);
    assert_eq!(gw.metrics().counter("breaker.half-open"), 1);
    assert_eq!(gw.metrics().counter("breaker.closed"), 1);
}

/// Drives one seeded storm through an admission-controlled gateway and
/// serializes everything observable: per-request outcome (span tree or
/// typed shed), the admission log, and the breaker transition history.
fn storm_history(seed: u64) -> String {
    let plan = FaultPlan::uniform(seed, 0.8).with_window(ms(1), ms(6));
    let mut gw = fork_gateway(AdmissionPolicy::standard(2, ms(20)))
        .with_policy(ResiliencePolicy {
            max_retries: 6,
            ..ResiliencePolicy::full()
        })
        .with_faults(plan);

    let mut history = String::new();
    for i in 0..16u64 {
        match gw.call(InvokeRequest::at("C-hello", SimNanos::from_micros(i * 500))) {
            Ok(inv) => {
                history.push_str(&serde_json::to_string(&inv.trace).unwrap());
            }
            Err(shed) => {
                assert!(
                    matches!(
                        shed,
                        PlatformError::Overload { .. }
                            | PlatformError::DeadlineExceeded { .. }
                            | PlatformError::CircuitOpen { .. }
                    ),
                    "recovery must absorb faults; only typed sheds may surface: {shed:?}"
                );
                history.push_str(&format!("{shed:?}"));
            }
        }
        history.push('\n');
    }
    let ctrl = gw.admission().unwrap();
    history.push_str(&serde_json::to_string(&ctrl.log().to_vec()).unwrap());
    history.push_str(&format!("{:?}", ctrl.all_transitions()));
    history
}

#[test]
fn same_seed_replays_identical_admission_and_span_history() {
    assert_eq!(
        storm_history(0x5EED),
        storm_history(0x5EED),
        "same seed must replay byte-identical admit/shed/breaker history"
    );
}
