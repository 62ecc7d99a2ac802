//! The per-server gateway daemon (paper §2.1): accepts "invoke function"
//! requests and starts sandboxes through a pluggable [`BootEngine`],
//! recording per-function latency histograms and a span tree per request.
//!
//! Boots go through [`resilience::resilient_boot`](crate::resilience), so a
//! gateway configured with a [`FaultPlan`] absorbs injected host faults by
//! retrying, falling back along the engine's boot ladder, and quarantining
//! poisoned prepared state — surfacing every recovery in its metrics
//! (`fault.<point>`, `invoke.retries`, `invoke.degraded`, the
//! `invoke.recovery` histogram) and in the request's span tree.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use faultsim::{FaultInjector, FaultPlan};
use runtimes::ExecReport;
use sandbox::{BootCtx, BootEngine, BootOutcome, SPAN_EXEC};
use simtime::names;
use simtime::trace::Span;
use simtime::{CostModel, MetricsRegistry, SimClock, SimNanos};

use crate::admission::{AdmissionController, AdmissionPolicy, HealthSignal, SPAN_ADMISSION};
use crate::resilience::{resilient_boot, ResiliencePolicy};
use crate::{FunctionRegistry, PlatformError};

/// One request against the gateway — the single input shape behind
/// [`Gateway::call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokeRequest<'a> {
    /// The function to invoke.
    pub function: &'a str,
    /// Arrival on the platform timeline; `None` runs on a request-local
    /// clock (and bypasses admission), the classic single-request mode.
    pub arrival: Option<SimNanos>,
}

impl<'a> InvokeRequest<'a> {
    /// An untimestamped request: request-local clock, no admission gating.
    pub fn new(function: &'a str) -> InvokeRequest<'a> {
        InvokeRequest {
            function,
            arrival: None,
        }
    }

    /// A request arriving at `arrival` on the platform timeline, gated by
    /// admission control when the gateway has it armed.
    pub fn at(function: &'a str, arrival: SimNanos) -> InvokeRequest<'a> {
        InvokeRequest {
            function,
            arrival: Some(arrival),
        }
    }
}

/// One end-to-end invocation: boot + handler execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationReport {
    /// Startup latency (gateway request → handler ready).
    pub boot: SimNanos,
    /// Handler execution latency.
    pub exec: SimNanos,
}

impl InvocationReport {
    /// Total user-visible latency.
    pub fn total(self) -> SimNanos {
        self.boot.saturating_add(self.exec)
    }

    /// Fig. 1's x-axis: execution latency as a fraction of overall latency.
    pub fn execution_ratio(self) -> f64 {
        if self.total().is_zero() {
            return 0.0;
        }
        self.exec.as_nanos() as f64 / self.total().as_nanos() as f64
    }
}

/// Everything one request produced: the latency split, the boot outcome
/// (live sandbox plus its boot trace), the handler's execution report, and
/// the invocation span tree.
#[derive(Debug)]
pub struct Invocation {
    /// The latency split. Both legs are derived from the span tree, so they
    /// always agree with [`Invocation::trace`].
    pub report: InvocationReport,
    /// Virtual time spent queued at admission before the boot began
    /// ([`SimNanos::ZERO`] on a gateway without admission control).
    pub queued: SimNanos,
    /// The boot outcome (breakdown, boot span, live sandbox).
    pub outcome: BootOutcome,
    /// The handler execution report.
    pub exec: ExecReport,
    /// The request's span tree: `invoke:<fn>` → `[boot, exec]` (with an
    /// `admission` span first on admission-controlled gateways).
    pub trace: Span,
}

impl Invocation {
    /// End-to-end user-visible latency: queue wait + boot + execution.
    pub fn end_to_end(&self) -> SimNanos {
        self.queued.saturating_add(self.report.total())
    }
}

/// The per-server gateway daemon (paper §2.1): accepts "invoke function"
/// requests and starts sandboxes through a pluggable [`BootEngine`].
pub struct Gateway<E: BootEngine> {
    engine: E,
    registry: FunctionRegistry,
    model: CostModel,
    invocations: u64,
    metrics: MetricsRegistry,
    policy: ResiliencePolicy,
    injector: Option<Rc<RefCell<FaultInjector>>>,
    admission: Option<AdmissionController>,
    /// Breaker transitions per function already turned into metrics.
    breaker_seen: BTreeMap<String, usize>,
}

impl<E: BootEngine> Gateway<E> {
    /// A gateway over `engine` with the given machine model.
    pub fn new(engine: E, model: CostModel) -> Gateway<E> {
        Gateway {
            engine,
            registry: FunctionRegistry::new(),
            model,
            invocations: 0,
            metrics: MetricsRegistry::new(),
            policy: ResiliencePolicy::full(),
            injector: None,
            admission: None,
            breaker_seen: BTreeMap::new(),
        }
    }

    /// Sets the recovery policy, builder-style. Without a fault plan the
    /// policy is moot — no faults ever fire.
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Gateway<E> {
        self.policy = policy;
        self
    }

    /// Arms deterministic fault injection with `plan`, builder-style. Every
    /// boot from then on consults the same seeded injector, so the whole
    /// request history is a pure function of `(trace, plan)`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Gateway<E> {
        self.injector = Some(Rc::new(RefCell::new(FaultInjector::new(plan))));
        self
    }

    /// Arms admission control with `policy`, builder-style. An
    /// admission-controlled gateway is driven through [`Gateway::call`]
    /// with time-sorted [`InvokeRequest::at`] arrivals; sheds surface as
    /// the typed [`PlatformError::Overload`] /
    /// [`PlatformError::DeadlineExceeded`] / [`PlatformError::CircuitOpen`]
    /// and land in the `shed.*` counters.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Gateway<E> {
        self.admission = Some(AdmissionController::new(policy));
        self
    }

    /// The admission controller, if armed — its decision log and breaker
    /// transitions are the ground truth for determinism checks.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// The active recovery policy.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    /// The armed fault injector, if any — its log is the ground truth for
    /// determinism checks.
    pub fn injector(&self) -> Option<&Rc<RefCell<FaultInjector>>> {
        self.injector.as_ref()
    }

    /// Deploys a function.
    pub fn register(&mut self, profile: runtimes::AppProfile) {
        self.registry.register(profile);
    }

    /// The registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Requests served.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Gateway metrics: per-function `boot.<fn>` / `exec.<fn>` latency
    /// histograms and `invoke.*` counters, all on the virtual timeline.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Prepares `function` off the critical path: templates, zygotes, or
    /// snapshot images, depending on the engine (engines with no offline
    /// work treat this as a no-op). The engine-specific preparation that
    /// used to require reaching into the engine directly.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownFunction`]; engine preparation errors.
    pub fn warm(&mut self, function: &str) -> Result<(), PlatformError> {
        let profile = self
            .registry
            .get(function)
            .ok_or_else(|| PlatformError::UnknownFunction {
                name: function.to_string(),
            })?
            .clone();
        self.engine.warm(&profile, &self.model)?;
        self.metrics.inc(names::WARM_COUNT);
        Ok(())
    }

    /// Serves one request end to end — boot an ephemeral sandbox, run the
    /// handler, tear down — and returns everything it produced. The
    /// gateway's single entry point.
    ///
    /// An untimestamped request ([`InvokeRequest::new`]) runs on a
    /// request-local clock starting at zero and bypasses admission control —
    /// the classic single-request experiment. A timestamped request
    /// ([`InvokeRequest::at`]) runs on the *platform* timeline: the boot
    /// context's clock starts at the admitted start time, so fault windows
    /// ([`FaultPlan::storm`](faultsim::FaultPlan::storm)) and span stamps
    /// line up with arrivals; on an admission-controlled gateway it is first
    /// gated (the queue wait appears as an `admission` span inside the
    /// invoke root and in [`Invocation::queued`]) and its completion feeds
    /// the function's circuit breaker. Timestamped arrivals must be
    /// time-sorted.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownFunction`]; typed admission sheds
    /// (`Overload`, `DeadlineExceeded`, `CircuitOpen` — timestamped
    /// requests only); engine and handler errors.
    pub fn call(&mut self, req: InvokeRequest<'_>) -> Result<Invocation, PlatformError> {
        let function = req.function;
        let profile = self
            .registry
            .get(function)
            .ok_or_else(|| PlatformError::UnknownFunction {
                name: function.to_string(),
            })?
            .clone();

        let queued = match (req.arrival, &mut self.admission) {
            (Some(arrival), Some(ctrl)) => match ctrl.admit(function, arrival) {
                Ok(admitted) => {
                    self.metrics.inc(names::ADMIT_COUNT);
                    if !admitted.queued.is_zero() {
                        self.metrics.inc(names::ADMIT_QUEUED);
                        self.metrics.observe(names::ADMIT_WAIT, admitted.queued);
                    }
                    admitted.queued
                }
                Err(err) => {
                    self.metrics.inc(match &err {
                        PlatformError::Overload { .. } => names::SHED_OVERLOAD,
                        PlatformError::DeadlineExceeded { .. } => names::SHED_DEADLINE,
                        _ => names::SHED_BREAKER,
                    });
                    self.sync_breaker_metrics(function);
                    return Err(err);
                }
            },
            _ => SimNanos::ZERO,
        };

        let mut ctx = match req.arrival {
            Some(arrival) => BootCtx::new(&SimClock::starting_at(arrival), &self.model),
            None => BootCtx::fresh(&self.model),
        };
        if let Some(injector) = &self.injector {
            ctx = ctx.with_injector(Rc::clone(injector));
        }
        // The closure-scoped root: a `?` inside it leaves the closure, not
        // the span, so every early return below finds the trace closed.
        let admitted = req.arrival.is_some() && self.admission.is_some();
        let (served, trace) = ctx.span_out(names::invoke_span(function), |ctx| {
            if admitted {
                // Always present on admitted requests (zero when unqueued),
                // so the span shape is stable: [admission, boot, exec].
                ctx.charge_span(SPAN_ADMISSION, queued);
            }
            let mut booted = resilient_boot(
                &mut self.engine,
                &profile,
                &self.policy,
                ctx,
                &mut self.metrics,
            )?;
            let (exec, exec_span) = ctx.span_out(SPAN_EXEC, |ctx| {
                booted
                    .outcome
                    .program
                    .invoke_handler(ctx.clock(), ctx.model())
            });
            Ok::<_, PlatformError>((booted, exec?, exec_span))
        });
        let (booted, exec, exec_span) = match served {
            Ok(served) => served,
            Err(e) => {
                self.metrics.inc(names::INVOKE_ERRORS);
                if req.arrival.is_some() {
                    self.finish_admitted(function, ctx.now(), HealthSignal::Failed);
                }
                return Err(e);
            }
        };

        // Both latency legs come from the span tree itself — the report can
        // never drift from the trace. The boot leg is everything the
        // *platform* spent before the handler ran: failed attempts, backoff,
        // and quarantine included, the admission wait excluded (`queued` is
        // zero on untimestamped requests).
        let report = InvocationReport {
            boot: trace
                .duration()
                .saturating_sub(exec_span.duration())
                .saturating_sub(queued),
            exec: exec_span.duration(),
        };
        self.invocations += 1;
        self.metrics.inc(names::INVOKE_COUNT);
        self.metrics.inc(&names::invoke_fn_count(function));
        self.metrics
            .observe(&names::boot_hist(function), report.boot);
        self.metrics
            .observe(&names::exec_hist(function), report.exec);
        if booted.degraded() {
            self.metrics.inc(names::INVOKE_DEGRADED);
            self.metrics
                .observe(names::INVOKE_RECOVERY, booted.recovery);
            if let Some(rung) = booted.fallback_path {
                self.metrics.inc(&names::invoke_degraded_rung(rung));
            }
        }
        if req.arrival.is_some() {
            let signal = if !booted.poisoned.is_empty() || booted.quarantines > 0 {
                HealthSignal::Poisoned
            } else {
                HealthSignal::Healthy
            };
            self.finish_admitted(function, ctx.now(), signal);
        }
        Ok(Invocation {
            report,
            queued,
            outcome: booted.outcome,
            exec,
            trace,
        })
    }

    /// Feeds a completion back into admission control (slot release +
    /// breaker signal) and rolls new breaker transitions into metrics.
    fn finish_admitted(&mut self, function: &str, finish: SimNanos, signal: HealthSignal) {
        if let Some(ctrl) = &mut self.admission {
            ctrl.complete(function, finish, signal);
        }
        self.sync_breaker_metrics(function);
    }

    fn sync_breaker_metrics(&mut self, function: &str) {
        let Some(ctrl) = &self.admission else {
            return;
        };
        let transitions = ctrl.transitions(function);
        let seen = self.breaker_seen.entry(function.to_owned()).or_insert(0);
        for transition in transitions.iter().skip(*seen) {
            self.metrics
                .inc(&names::breaker_gauge(transition.to.label()));
        }
        *seen = transitions.len();
    }
}

impl<E: BootEngine> fmt::Debug for Gateway<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("engine", &self.engine.name())
            .field("functions", &self.registry.len())
            .field("invocations", &self.invocations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyzer::{BootMode, CatalyzerEngine};
    use runtimes::AppProfile;
    use sandbox::{GvisorEngine, SPAN_BOOT};

    #[test]
    fn unknown_function_is_an_error() {
        let model = CostModel::experimental_machine();
        let mut gw = Gateway::new(GvisorEngine::new(), model);
        assert!(matches!(
            gw.call(InvokeRequest::new("ghost")).unwrap_err(),
            PlatformError::UnknownFunction { .. }
        ));
        assert!(matches!(
            gw.warm("ghost").unwrap_err(),
            PlatformError::UnknownFunction { .. }
        ));
    }

    #[test]
    fn report_totals_saturate_at_the_boundary() {
        let report = InvocationReport {
            boot: SimNanos::MAX,
            exec: SimNanos::from_nanos(1),
        };
        assert_eq!(report.total(), SimNanos::MAX);
        assert!(report.execution_ratio() < 1e-9);
    }

    #[test]
    fn gvisor_hello_is_startup_dominated() {
        let model = CostModel::experimental_machine();
        let mut gw = Gateway::new(GvisorEngine::new(), model);
        gw.register(AppProfile::python_hello());
        let r = gw.call(InvokeRequest::new("Python-hello")).unwrap().report;
        // Fig. 1: in gVisor, startup dominates for most functions.
        assert!(r.execution_ratio() < 0.3, "ratio {}", r.execution_ratio());
        assert_eq!(gw.invocations(), 1);
    }

    #[test]
    fn catalyzer_flips_the_ratio() {
        let model = CostModel::experimental_machine();
        let mut gw = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model);
        gw.register(AppProfile::python_django());
        let r = gw.call(InvokeRequest::new("Python-Django")).unwrap().report;
        assert!(r.execution_ratio() > 0.9, "ratio {}", r.execution_ratio());
    }

    #[test]
    fn report_legs_equal_span_durations() {
        let model = CostModel::experimental_machine();
        let mut gw = Gateway::new(GvisorEngine::new(), model);
        gw.register(AppProfile::c_hello());
        let inv = gw.call(InvokeRequest::new("C-hello")).unwrap();

        // The invoke root holds exactly [boot, exec], contiguous in time.
        assert_eq!(inv.trace.name, "invoke:C-hello");
        assert_eq!(inv.trace.children.len(), 2);
        let boot_span = &inv.trace.children[0];
        let exec_span = &inv.trace.children[1];
        assert_eq!(boot_span.name, SPAN_BOOT);
        assert_eq!(exec_span.name, SPAN_EXEC);
        assert_eq!(inv.report.boot, boot_span.duration());
        assert_eq!(inv.report.exec, exec_span.duration());
        assert_eq!(inv.report.total(), inv.trace.duration());
        assert_eq!(inv.report.boot, inv.outcome.boot_latency);
        inv.trace.validate_nesting().unwrap();
    }

    #[test]
    fn warm_prepares_the_template_off_path() {
        let model = CostModel::experimental_machine();
        let mut gw = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model);
        gw.register(AppProfile::c_hello());
        gw.warm("C-hello").unwrap();
        let r = gw.call(InvokeRequest::new("C-hello")).unwrap().report;
        assert!(r.boot < SimNanos::from_millis(1), "fork boot {}", r.boot);
        assert_eq!(gw.metrics().counter("warm.count"), 1);
    }

    #[test]
    fn gateway_metrics_accumulate() {
        let model = CostModel::experimental_machine();
        let mut gw = Gateway::new(GvisorEngine::new(), model);
        gw.register(AppProfile::c_hello());
        gw.register(AppProfile::python_hello());
        for _ in 0..3 {
            gw.call(InvokeRequest::new("C-hello")).unwrap();
        }
        gw.call(InvokeRequest::new("Python-hello")).unwrap();
        assert_eq!(gw.metrics().counter("invoke.count"), 4);
        assert_eq!(gw.metrics().counter("invoke.C-hello.count"), 3);
        let h = gw.metrics().histogram("boot.C-hello").unwrap();
        assert_eq!(h.count(), 3);
        assert!(h.p99().unwrap() >= h.p50().unwrap());
        assert!(gw.metrics().histogram("exec.Python-hello").is_some());
        assert_eq!(gw.metrics().counter("invoke.errors"), 0);
    }

    #[test]
    fn invocation_report_math() {
        let r = InvocationReport {
            boot: SimNanos::from_millis(30),
            exec: SimNanos::from_millis(10),
        };
        assert_eq!(r.total(), SimNanos::from_millis(40));
        assert_eq!(r.execution_ratio(), 0.25);
        let zero = InvocationReport {
            boot: SimNanos::ZERO,
            exec: SimNanos::ZERO,
        };
        assert_eq!(zero.execution_ratio(), 0.0);
    }
}
