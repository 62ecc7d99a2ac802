//! The simulation core behind one builder-style [`Simulation`] API.
//!
//! Two ways to run a trace, at two fidelity levels:
//!
//! - **Closed loop** ([`Simulation::run`]): every request is served to
//!   completion through real [`InstancePool`]s, boot engines, fault
//!   injection, resilience, and admission control — full fidelity, suited
//!   to thousands of requests. A request's whole life is decided when it
//!   arrives, so this is a single pass over the time-sorted trace, not an
//!   event simulation: nothing is scheduled, and the only state between
//!   arrivals is the finish times of the requests still in flight.
//!   Everything the run produced comes back in one [`SimReport`].
//! - **Open-loop fleet** ([`Simulation::run_fleet`]): per-function boot and
//!   execution costs are calibrated once through the real engines, then
//!   millions of requests flow through a central [`EventQueue`] — a merge
//!   of the time-sorted trace itself (the arrival source, never copied), a
//!   FIFO run of keep-alive expiries and a `BinaryHeap` of the work in
//!   flight — arrivals, boot and execution completions, keep-alive
//!   expiries and self-healing pool ticks popped in a deterministic,
//!   insertion-order-independent order — against
//!   instances held in index-based arenas ([`Arena`], [`InstanceId`],
//!   [`FnId`]) instead of `Rc<RefCell<...>>` webs. This is the regime that
//!   extends Figure 15 from 10^3 to 10^5–10^6 concurrent instances.
//!
//! The queue, the arenas, and the calibration memoiser are shared with the
//! multi-node kernel in [`crate::cluster`], which adds the transfer, repair
//! and node-fault event classes. Those two — `run_fleet` and the cluster's
//! `drive` — are the only event loops.
//!
//! Determinism is the contract: the same catalogue, knobs, and trace
//! produce byte-identical outcomes, logs, and metrics.
//!
//! # Example
//!
//! ```
//! use platform::simulate::{Simulation, TraceRequest};
//! use platform::AdmissionPolicy;
//! use runtimes::AppProfile;
//! use simtime::SimNanos;
//!
//! let trace: Vec<TraceRequest> = (0..16)
//!     .map(|i| TraceRequest {
//!         arrival: SimNanos::from_millis(2).saturating_mul(i),
//!         function: 0,
//!     })
//!     .collect();
//! let report = Simulation::new(vec![AppProfile::c_hello()])
//!     .with_keep_alive(SimNanos::from_secs(5))
//!     .with_admission(AdmissionPolicy::standard(4, SimNanos::from_millis(100)))
//!     .run(&trace)?;
//! assert_eq!(report.completed, 16);
//! # Ok::<(), platform::PlatformError>(())
//! ```

pub mod arena;
pub mod events;
pub mod fleet;
mod trace;

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;

use catalyzer::{BootMode, CatalyzerEngine};
use faultsim::{FaultInjector, FaultPlan};
use runtimes::AppProfile;
use sandbox::BootEngine;
use simtime::names;
use simtime::stats::{summarize, Summary};
use simtime::{CostModel, MetricsRegistry, SimNanos};

use crate::admission::{
    AdmissionController, AdmissionPolicy, AdmissionRecord, Admitted, BreakerTransition,
    HealthSignal,
};
use crate::pool::{InstancePool, PoolStats, RepairStats};
use crate::resilience::ResiliencePolicy;
use crate::PlatformError;

pub use arena::{Arena, FnId, InstanceId};
pub use events::{Event, EventQueue};
pub(crate) use fleet::calibrate_shapes;
pub use fleet::{FleetOutcome, Quantiles};
pub(crate) use trace::validate_trace;

/// Scheduler hand-off charged when a request is served by reusing a warm
/// instance instead of booting one. Both engines — the closed-loop pools
/// and the open-loop fleet — charge exactly this, so reuse latency can
/// never diverge between fidelity levels.
pub const REUSE_HANDOFF: SimNanos = SimNanos::from_micros(150);

/// A request against the simulated platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Virtual arrival time.
    pub arrival: SimNanos,
    /// Index into the function list.
    pub function: usize,
}

/// Boxed engine constructor: one factory serves heterogeneous fleets.
type EngineFactory = Box<dyn FnMut(&AppProfile) -> Box<dyn BootEngine>>;

/// Builder-style front door to the simulation core.
///
/// Composes the platform's policies as first-class knobs — fault plans,
/// resilience ladders, admission control, keep-alive and prewarm — over a
/// function catalogue, then runs a trace through either the full-fidelity
/// closed loop ([`Simulation::run`]) or the calibrated open-loop fleet
/// engine ([`Simulation::run_fleet`]).
pub struct Simulation {
    catalogue: Vec<AppProfile>,
    engine: EngineFactory,
    model: CostModel,
    keep_alive: SimNanos,
    max_idle: usize,
    min_ready: usize,
    plan: Option<FaultPlan>,
    policy: ResiliencePolicy,
    admission: Option<AdmissionPolicy>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("functions", &self.catalogue.len())
            .field("keep_alive", &self.keep_alive)
            .field("max_idle", &self.max_idle)
            .field("min_ready", &self.min_ready)
            .field("faults", &self.plan.is_some())
            .field("admission", &self.admission.is_some())
            .finish()
    }
}

impl Simulation {
    /// A simulation over `catalogue` with the paper's defaults: Catalyzer
    /// fork boot for every function, the experimental machine's cost
    /// model, a 5 s keep-alive window, up to 4 idle instances per
    /// function, the full resilience ladder, and no faults or admission
    /// control.
    pub fn new(catalogue: impl Into<Vec<AppProfile>>) -> Simulation {
        Simulation {
            catalogue: catalogue.into(),
            engine: Box::new(|_| Box::new(CatalyzerEngine::standalone(BootMode::Fork))),
            model: CostModel::experimental_machine(),
            keep_alive: SimNanos::from_secs(5),
            max_idle: 4,
            min_ready: 0,
            plan: None,
            policy: ResiliencePolicy::full(),
            admission: None,
        }
    }

    /// Sets the boot-engine factory: `make` constructs the engine for each
    /// function, so a fleet can be homogeneous or per-function.
    pub fn with_engine<E, F>(mut self, mut make: F) -> Simulation
    where
        E: BootEngine + 'static,
        F: FnMut(&AppProfile) -> E + 'static,
    {
        self.engine = Box::new(move |profile| Box::new(make(profile)));
        self
    }

    /// Sets the machine cost model.
    pub fn with_model(mut self, model: CostModel) -> Simulation {
        self.model = model;
        self
    }

    /// Sets the keep-alive window idle instances survive.
    pub fn with_keep_alive(mut self, keep_alive: SimNanos) -> Simulation {
        self.keep_alive = keep_alive;
        self
    }

    /// Caps idle instances parked per function.
    pub fn with_max_idle(mut self, max_idle: usize) -> Simulation {
        self.max_idle = max_idle;
        self
    }

    /// Keeps at least `min_ready` instances warm per function: pools turn
    /// self-healing and the background repair loop replenishes the floor.
    pub fn with_prewarm(mut self, min_ready: usize) -> Simulation {
        self.min_ready = min_ready;
        self
    }

    /// Arms deterministic fault injection: all functions share one seeded
    /// injector built from `plan`, so the whole run is a pure function of
    /// `(catalogue, knobs, trace)`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Simulation {
        self.plan = Some(plan);
        self
    }

    /// Sets the recovery policy boots climb when faults fire.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Simulation {
        self.policy = policy;
        self
    }

    /// Arms admission control: arrivals are gated (typed sheds, deadline
    /// stamps, circuit breakers) and completions feed the breakers.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Simulation {
        self.admission = Some(policy);
        self
    }

    /// Drives `trace` through the closed loop: every request runs to
    /// completion through real pools and boot engines, in trace order.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidTrace`] for malformed traces (this entry
    /// point never panics on bad input); engine or handler errors. With
    /// admission armed, a failed *admitted* request is counted as
    /// availability loss instead of aborting the run.
    pub fn run(self, trace: &[TraceRequest]) -> Result<SimReport, PlatformError> {
        self.run_closed(trace)
    }

    /// The closed loop is a fold over the time-sorted trace, not an event
    /// simulation: a request's whole life is decided the moment it
    /// arrives (the pools own booting, expiry and repair), so the only
    /// thing carried between arrivals is the finish times of requests
    /// still in flight.
    fn run_closed(mut self, trace: &[TraceRequest]) -> Result<SimReport, PlatformError> {
        validate_trace(trace, self.catalogue.len())?;
        let injector = self
            .plan
            .take()
            .map(|p| Rc::new(RefCell::new(FaultInjector::new(p))));
        let self_healing = self.admission.is_some() || self.min_ready > 0;
        let mut pools: Vec<InstancePool<Box<dyn BootEngine>>> = self
            .catalogue
            .iter()
            .map(|profile| {
                let mut pool = InstancePool::new(
                    (self.engine)(profile),
                    profile.clone(),
                    self.keep_alive,
                    self.max_idle,
                )
                .with_policy(self.policy);
                if self_healing {
                    pool = pool.with_self_healing(self.min_ready);
                }
                if let Some(injector) = &injector {
                    pool = pool.with_injector(Rc::clone(injector));
                }
                pool
            })
            .collect();
        let mut ctrl = self.admission.take().map(AdmissionController::new);

        let mut admitted = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut shed_overload = 0u64;
        let mut shed_deadline = 0u64;
        let mut shed_breaker = 0u64;
        let mut goodput = 0u64;
        let mut reuses = 0u64;
        // Finish times of the requests in flight, earliest on top.
        let mut in_flight: BinaryHeap<Reverse<SimNanos>> = BinaryHeap::new();
        let mut peak_in_flight = 0usize;
        let mut startups = Vec::with_capacity(trace.len());
        let mut e2es = Vec::with_capacity(trace.len());

        for req in trace {
            let now = req.arrival;
            // A request finishing at `now` has left before the one arriving
            // at `now` sees the world.
            while in_flight.peek().is_some_and(|finish| finish.0 <= now) {
                in_flight.pop();
            }
            let name = self.catalogue[req.function].name.as_str();
            let pool = &mut pools[req.function];
            // The repair daemon wakes between arrivals: anything poisoned
            // earlier is rebuilt and healed here, off the request path.
            pool.tick(now, &self.model)?;
            let slot = match &mut ctrl {
                Some(ctrl) => match ctrl.admit(name, now) {
                    Ok(slot) => slot,
                    Err(err) => {
                        // Every shed is typed; nothing is silently dropped.
                        match err {
                            PlatformError::Overload { .. } => shed_overload += 1,
                            PlatformError::DeadlineExceeded { .. } => shed_deadline += 1,
                            PlatformError::CircuitOpen { .. } => shed_breaker += 1,
                            other => return Err(other),
                        }
                        continue;
                    }
                },
                None => Admitted {
                    start: now,
                    queued: SimNanos::ZERO,
                    deadline: None,
                },
            };
            admitted += 1;
            let served = match pool.serve_at(slot.start, &self.model) {
                Ok(served) => served,
                Err(err) => {
                    // Availability loss: the admitted request died. The
                    // slot frees at its start time and the breaker hears
                    // about it. With nobody to hear, the run aborts.
                    let Some(ctrl) = &mut ctrl else {
                        return Err(err);
                    };
                    failed += 1;
                    ctrl.complete(name, slot.start, HealthSignal::Failed);
                    continue;
                }
            };
            completed += 1;
            if served.reused {
                reuses += 1;
            }
            let busy = served.startup.saturating_add(served.exec);
            let finish = slot.start.saturating_add(busy);
            startups.push(served.startup);
            e2es.push(slot.queued.saturating_add(busy));
            if slot.deadline.is_none_or(|d| finish <= d) {
                goodput += 1;
            }
            if let Some(ctrl) = &mut ctrl {
                let signal = if served.poisoned {
                    HealthSignal::Poisoned
                } else {
                    HealthSignal::Healthy
                };
                ctrl.complete(name, finish, signal);
            }
            in_flight.push(Reverse(finish));
            peak_in_flight = peak_in_flight.max(in_flight.len());
        }

        let mut metrics = MetricsRegistry::new();
        let mut repairs = RepairStats::default();
        let mut degraded = 0u64;
        let mut pool_stats = PoolStats::default();
        for pool in &pools {
            metrics.merge_from(pool.metrics());
            degraded += pool.metrics().counter(names::POOL_DEGRADED);
            let r = pool.repair_stats();
            repairs.repairs += r.repairs;
            repairs.evicted += r.evicted;
            repairs.replenished += r.replenished;
            repairs.repair_time = repairs.repair_time.saturating_add(r.repair_time);
            let s = pool.stats();
            pool_stats.reuses += s.reuses;
            pool_stats.boots += s.boots;
            pool_stats.expirations += s.expirations;
        }
        let (admission_log, transitions, breaker_opens) = match ctrl {
            Some(ctrl) => {
                metrics.add(names::ADMIT_COUNT, admitted);
                metrics.add(names::SHED_OVERLOAD, shed_overload);
                metrics.add(names::SHED_DEADLINE, shed_deadline);
                metrics.add(names::SHED_BREAKER, shed_breaker);
                let transitions = ctrl.all_transitions();
                for (_, transition) in &transitions {
                    metrics.inc(&names::breaker_gauge(transition.to.label()));
                }
                (ctrl.log().to_vec(), transitions, ctrl.breaker_opens())
            }
            None => (Vec::new(), Vec::new(), 0),
        };
        let faults = injector.map_or(0, |i| i.borrow().total_fired());

        let requests = u64::try_from(trace.len()).unwrap_or(u64::MAX);
        Ok(SimReport {
            requests,
            admitted,
            completed,
            failed,
            shed_overload,
            shed_deadline,
            shed_breaker,
            goodput,
            reuses,
            startup: summarize(&startups),
            end_to_end: summarize(&e2es),
            pools: pool_stats,
            peak_in_flight,
            events: requests.saturating_add(completed),
            faults,
            degraded,
            breaker_opens,
            repairs,
            admission_log,
            transitions,
            metrics,
        })
    }
}

/// Everything one closed-loop [`Simulation::run`] produced.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Requests in the trace.
    pub requests: u64,
    /// Requests admission let through (all of them without admission).
    pub admitted: u64,
    /// Admitted requests that served successfully.
    pub completed: u64,
    /// Admitted requests that surfaced an error (availability loss; only
    /// possible with admission armed — without it the run aborts).
    pub failed: u64,
    /// Requests shed typed as [`PlatformError::Overload`].
    pub shed_overload: u64,
    /// Requests shed typed as [`PlatformError::DeadlineExceeded`].
    pub shed_deadline: u64,
    /// Requests shed typed as [`PlatformError::CircuitOpen`].
    pub shed_breaker: u64,
    /// Completed requests that finished within their deadline (all of them
    /// when no deadline is stamped).
    pub goodput: u64,
    /// Completed requests served by reusing an idle instance.
    pub reuses: u64,
    /// Startup-latency distribution of completed requests.
    pub startup: Option<Summary>,
    /// End-to-end (queue wait + startup + execution) distribution of
    /// completed requests.
    pub end_to_end: Option<Summary>,
    /// Aggregated pool statistics (summed over functions).
    pub pools: PoolStats,
    /// Maximum requests concurrently in flight (arrival-to-completion); a
    /// request finishing at `t` is gone before one arriving at `t` counts.
    pub peak_in_flight: usize,
    /// Arrivals handled plus completions retired (`requests + completed`),
    /// a proxy for simulation work.
    pub events: u64,
    /// Injected faults absorbed across the fleet.
    pub faults: u64,
    /// Boots that succeeded only after recovering from at least one fault.
    pub degraded: u64,
    /// Breaker trips (transitions into Open) across all functions.
    pub breaker_opens: u64,
    /// Background repair-loop work, summed over pools.
    pub repairs: RepairStats,
    /// The full admission decision log (empty without admission).
    pub admission_log: Vec<AdmissionRecord>,
    /// Every breaker transition, `(function, transition)`.
    pub transitions: Vec<(String, BreakerTransition)>,
    /// Fleet-wide metrics rollup (pool metrics merged; with admission also
    /// `admit.*`, `shed.*`, and `breaker.<state>` counters).
    pub metrics: MetricsRegistry,
}

impl SimReport {
    /// Total sheds of any type.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_deadline + self.shed_breaker
    }

    /// `reuses / completed` — the warm-serve fraction.
    pub fn reuse_rate(&self) -> f64 {
        fraction(self.reuses, self.completed)
    }

    /// `completed / admitted` — 1.0 means no admitted request was lost.
    pub fn availability(&self) -> f64 {
        fraction(self.completed, self.admitted)
    }
}

/// Exact for the request counts involved (< 2^32) without numeric casts.
pub(crate) fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    f64::from(u32::try_from(part).unwrap_or(u32::MAX))
        / f64::from(u32::try_from(whole).unwrap_or(u32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TraceError;
    use sandbox::GvisorRestoreEngine;

    fn functions() -> Vec<AppProfile> {
        vec![AppProfile::c_hello(), AppProfile::c_nginx()]
    }

    fn steady_trace(n: usize, gap: SimNanos) -> Vec<TraceRequest> {
        (0..n)
            .map(|i| TraceRequest {
                arrival: gap.saturating_mul(i as u64),
                function: i % 2,
            })
            .collect()
    }

    fn burst(n: u64, gap: SimNanos) -> Vec<TraceRequest> {
        (0..n)
            .map(|i| TraceRequest {
                arrival: gap.saturating_mul(i),
                function: 0,
            })
            .collect()
    }

    #[test]
    fn steady_traffic_reuses_after_warmup() {
        let report = Simulation::new(functions())
            .with_engine(|_| GvisorRestoreEngine::new())
            .run(&steady_trace(20, SimNanos::from_millis(500)))
            .unwrap();
        // 2 cold boots (one per function), 18 reuses.
        assert_eq!(report.pools.boots, 2);
        assert!(
            (report.reuse_rate() - 0.9).abs() < 1e-9,
            "{}",
            report.reuse_rate()
        );
        // The p99 startup is still a cold boot: caching can't fix the tail.
        let startup = report.startup.unwrap();
        assert!(startup.p99 > SimNanos::from_millis(50));
        assert!(startup.p50 < SimNanos::from_millis(1));
    }

    #[test]
    fn sparse_traffic_expires_and_recolds() {
        let report = Simulation::new(functions())
            .with_engine(|_| GvisorRestoreEngine::new())
            // The default 5 s keep-alive is shorter than the 30 s gap.
            .run(&steady_trace(8, SimNanos::from_secs(30)))
            .unwrap();
        assert_eq!(report.pools.boots, 8, "every request cold boots");
        assert_eq!(report.reuses, 0);
        assert!(report.pools.expirations > 0);
    }

    #[test]
    fn fork_boot_fleet_has_flat_distribution() {
        let report = Simulation::new(functions())
            .with_keep_alive(SimNanos::from_secs(1))
            .with_max_idle(0)
            .run(&steady_trace(20, SimNanos::from_secs(30))) // all keep-alive misses
            .unwrap();
        assert_eq!(report.reuses, 0);
        let startup = report.startup.unwrap();
        assert!(startup.p99 < SimNanos::from_millis(1), "{startup:?}");
        // max/min within 2x: no tail at all.
        assert!(startup.max < startup.min.saturating_mul(2));
    }

    #[test]
    fn burst_drives_peak_concurrency() {
        // 10 requests in the same millisecond: executions overlap.
        let report = Simulation::new(vec![AppProfile::c_nginx()])
            .with_max_idle(0) // no reuse: every request boots its own instance
            .run(&burst(10, SimNanos::from_micros(100)))
            .unwrap();
        assert!(report.peak_in_flight > 1, "{}", report.peak_in_flight);
        assert_eq!(report.pools.boots, 10);
    }

    #[test]
    fn admitted_zero_load_sheds_nothing() {
        // Sparse arrivals, generous limit: admission must be invisible.
        let report = Simulation::new(vec![AppProfile::c_hello()])
            .with_prewarm(1)
            .with_admission(AdmissionPolicy::standard(4, SimNanos::from_millis(100)))
            .run(&burst(12, SimNanos::from_millis(50)))
            .unwrap();
        assert_eq!(report.requests, 12);
        assert_eq!(report.admitted, 12);
        assert_eq!(report.completed, 12);
        assert_eq!(report.shed(), 0, "zero load must shed nothing");
        assert_eq!(report.breaker_opens, 0, "no false breaker trips");
        assert_eq!(report.failed, 0);
        assert_eq!(report.goodput, 12);
        assert!((report.availability() - 1.0).abs() < 1e-12);
        assert!(report.repairs.repairs == 0, "nothing to repair");
        assert!(report.repairs.replenished >= 1, "floor kept warm");
    }

    #[test]
    fn prewarm_without_admission_keeps_the_floor_warm() {
        // One serve arm: the repair daemon ticks whether or not a
        // controller is armed, so the floor `with_prewarm` promises holds.
        let report = Simulation::new(vec![AppProfile::c_hello()])
            .with_prewarm(1)
            .run(&burst(4, SimNanos::from_millis(50)))
            .unwrap();
        assert!(report.repairs.replenished >= 1, "floor kept warm");
        assert_eq!(report.reuses, 4, "every request finds a warm instance");
    }

    #[test]
    fn admitted_burst_sheds_typed_and_bounds_the_queue() {
        // Same-instant burst far beyond limit+queue: overload sheds.
        let trace = burst(24, SimNanos::from_micros(10));
        let report = Simulation::new(vec![AppProfile::c_nginx()])
            .with_admission(AdmissionPolicy::standard(2, SimNanos::from_secs(10)))
            .run(&trace)
            .unwrap();
        assert!(report.shed_overload > 0, "queue is bounded");
        assert_eq!(
            report.admitted + report.shed(),
            report.requests,
            "every request is admitted or shed typed — none dropped"
        );
        assert_eq!(report.failed, 0);
        assert_eq!(report.completed, report.admitted);
        // The decision log records every arrival.
        assert_eq!(report.admission_log.len(), trace.len());
    }

    #[test]
    fn admitted_is_deterministic() {
        let trace = steady_trace(16, SimNanos::from_millis(2));
        let run_once = || {
            let report = Simulation::new(functions())
                .with_prewarm(1)
                .with_faults(FaultPlan::storm(
                    11,
                    0.8,
                    SimNanos::from_millis(4),
                    SimNanos::from_millis(20),
                ))
                .with_admission(AdmissionPolicy::standard(2, SimNanos::from_millis(50)))
                .run(&trace)
                .unwrap();
            serde_json::to_string(&report.admission_log).unwrap()
        };
        assert_eq!(run_once(), run_once(), "same seed, same decision history");
    }

    #[test]
    fn unsorted_trace_rejected_typed() {
        let bad = vec![
            TraceRequest {
                arrival: SimNanos::from_secs(1),
                function: 0,
            },
            TraceRequest {
                arrival: SimNanos::ZERO,
                function: 0,
            },
        ];
        let err = Simulation::new(vec![AppProfile::c_hello()])
            .run(&bad)
            .unwrap_err();
        assert!(
            matches!(
                err,
                PlatformError::InvalidTrace(TraceError::Unsorted { at: 1, .. })
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("time-sorted"), "{err}");
    }

    #[test]
    fn unknown_function_rejected_typed() {
        let trace = vec![TraceRequest {
            arrival: SimNanos::ZERO,
            function: 3,
        }];
        let err = Simulation::new(functions()).run(&trace).unwrap_err();
        assert!(
            matches!(
                err,
                PlatformError::InvalidTrace(TraceError::UnknownFunction {
                    at: 0,
                    function: 3,
                    functions: 2,
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn empty_trace_rejected_typed() {
        let err = Simulation::new(functions()).run(&[]).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::InvalidTrace(TraceError::Empty)
        ));
    }

    #[test]
    fn builder_defaults_run_fork_boot() {
        let trace = steady_trace(8, SimNanos::from_millis(10));
        let report = Simulation::new(functions()).run(&trace).unwrap();
        assert_eq!(report.requests, 8);
        assert_eq!(report.completed, 8);
        assert_eq!(report.shed(), 0);
        assert!((report.availability() - 1.0).abs() < 1e-12);
        let startup = report.startup.unwrap();
        assert!(
            startup.p99 < SimNanos::from_millis(1),
            "fork boot stays sub-ms: {startup:?}"
        );
        assert!(report.events >= 16, "arrival + completion per request");
    }
}
