//! The open-loop fleet engine: calibrated costs, arena instances, and the
//! full five-class event loop at 10^5–10^6 concurrent instances.
//!
//! [`Simulation::run`] serves every request through real
//! [`InstancePool`](crate::pool::InstancePool)s — full fidelity, but each
//! request pays engine phase simulation, span tracing, and per-pool metric
//! updates, which caps practical traces in the tens of thousands. This
//! module trades per-boot microstructure for scale while keeping the
//! platform dynamics the paper's Figure 15 is about (cold-boot cost versus
//! keep-alive reuse versus density):
//!
//! 1. **Calibrate** (once per distinct cost shape — functions differing
//!    only in name share a calibration): boot the function's real engine
//!    once on an offline clock and run the booted child's handler once.
//!    Two numbers per function, a `ShapeCost`: `boot` and `exec`. The
//!    paper initialises a function once and prepares it offline, so a
//!    first boot costs what every later boot costs.
//! 2. **Flow** the trace through the event queue, which reads arrivals
//!    straight off the validated trace and holds only what they set in
//!    motion;
//!    a warm instance (arena slot) is reused for the scheduler hand-off
//!    cost or a cold boot is scheduled at the calibrated cost; boot and
//!    execution completions, keep-alive expiries, and self-healing pool
//!    ticks are all events. Instances live in a generational [`Arena`] —
//!    a stale expiry against a reused slot simply misses. Keep-alive is
//!    one rule, `WarmSet`, that the cluster kernel runs too: the newest
//!    warm instance serves first, at most `max_idle` park per function,
//!    and each is reclaimed one window after it parked.
//!
//! The run counts straight into the [`FleetOutcome`] it returns. Debug
//! builds check after every pop that virtual time never runs back, that
//! no more requests are in flight than instances live, and that every
//! arrival popped is in flight, completed or shed.
//!
//! Faults ([`Simulation::with_faults`]) consult the same deterministic
//! [`FaultInjector`] schedule at each cold boot: transients and stalls
//! charge their detection delay plus one retry backoff; a poison charges
//! its detection delay on top of the boot and schedules a repair tick one
//! boot later that heals the injector, mirroring the closed-loop pool's
//! deferred quarantine. No boot pays a template rebuild: the closed loop
//! under [`ResiliencePolicy::full`](crate::ResiliencePolicy::full) charges
//! the rebuild on the request path, the fleet does not.
//!
//! Admission ([`Simulation::with_admission`]) degrades to its per-function
//! concurrency cap — at open-loop scale the queue is the event queue
//! itself, so `max_in_flight + max_queue` arrivals may be in flight before
//! overload sheds begin.
//!
//! Latency distributions use fixed-ladder [`LatencyHistogram`]s (O(1)
//! memory at any trace length); determinism is byte-exact: same catalogue,
//! knobs, and trace — same [`FleetOutcome`], every typed count included.

use faultsim::{FaultInjector, FaultKind, InjectionPoint};
use runtimes::AppProfile;
use sandbox::{BootCtx, BootOutcome, SandboxError};
use serde::{Deserialize, Serialize};
use simtime::{CostModel, LatencyHistogram, SimNanos};

use super::arena::{Arena, FnId};
use super::events::{Event, EventQueue};
use super::{validate_trace, Instance, Simulation, TraceRequest, WarmSet, REUSE_HANDOFF};
use crate::PlatformError;

/// Latency distribution digest from a fixed-ladder histogram: quantiles
/// are conservative upper bounds with bounded, schema-stable error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quantiles {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean.
    pub mean: SimNanos,
    /// Exact minimum.
    pub min: SimNanos,
    /// Exact maximum.
    pub max: SimNanos,
    /// Median upper bound.
    pub p50: SimNanos,
    /// 90th-percentile upper bound.
    pub p90: SimNanos,
    /// 99th-percentile upper bound.
    pub p99: SimNanos,
}

impl Quantiles {
    pub(crate) fn from_histogram(h: &LatencyHistogram) -> Quantiles {
        Quantiles {
            count: h.count(),
            mean: h.mean().unwrap_or(SimNanos::ZERO),
            min: h.min().unwrap_or(SimNanos::ZERO),
            max: h.max().unwrap_or(SimNanos::ZERO),
            p50: h.p50().unwrap_or(SimNanos::ZERO),
            p90: h.p90().unwrap_or(SimNanos::ZERO),
            p99: h.p99().unwrap_or(SimNanos::ZERO),
        }
    }
}

/// What one open-loop fleet run produced: the density-grid cell.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FleetOutcome {
    /// Requests in the trace.
    pub requests: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests shed by the per-function concurrency cap.
    pub shed: u64,
    /// Cold boots across the fleet.
    pub cold_boots: u64,
    /// Requests served by reusing a warm instance.
    pub reuses: u64,
    /// Instances reclaimed by keep-alive expiry.
    pub expirations: u64,
    /// Instances booted in the background. Always 0: the open loop keeps
    /// no warm floor. Kept because `benchmark/`'s `fleet-open` reads it.
    pub prewarm_boots: u64,
    /// Injected faults absorbed across the fleet.
    pub faults: u64,
    /// Cold boots that recovered from a transient/stall on the way.
    pub degraded: u64,
    /// Background repair sweeps (heals) the fleet ran.
    pub repairs: u64,
    /// Most instances (busy + warm) ever live at once — the density axis
    /// of the Figure 15 extension.
    pub peak_instances: usize,
    /// Most requests ever concurrently in flight.
    pub peak_in_flight: usize,
    /// Events the queue processed: arrivals consumed (the queue reads them
    /// off the trace; they are never scheduled) plus events scheduled.
    pub events: u64,
    /// Virtual time of the last event — the simulated horizon.
    pub horizon: SimNanos,
    /// Startup-latency distribution (reuse hand-offs and cold boots).
    pub startup: Quantiles,
    /// End-to-end (startup + execution) distribution.
    pub end_to_end: Quantiles,
    /// `reuses / completed` — the warm-serve fraction.
    pub reuse_rate: f64,
}

/// What one cost shape costs, measured once on real engines and read by
/// both open-loop kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShapeCost {
    /// A boot against prepared state.
    pub(crate) boot: SimNanos,
    /// The booted child's handler execution.
    pub(crate) exec: SimNanos,
}

impl ShapeCost {
    /// Runs `boot` on a fresh offline [`BootCtx`], then the booted child's
    /// handler on another; the two clocks are the two costs.
    pub(crate) fn measure(
        model: &CostModel,
        boot: impl FnOnce(&mut BootCtx) -> Result<BootOutcome, SandboxError>,
    ) -> Result<ShapeCost, PlatformError> {
        let mut boot_ctx = BootCtx::fresh(model);
        let mut outcome = boot(&mut boot_ctx)?;
        let exec_ctx = BootCtx::fresh(model);
        outcome
            .program
            .invoke_handler(exec_ctx.clock(), exec_ctx.model())?;
        Ok(ShapeCost {
            boot: boot_ctx.now(),
            exec: exec_ctx.now(),
        })
    }
}

/// Calibrated per-function state: its cost plus the warm set.
struct FleetFn {
    cost: ShapeCost,
    /// A poison's repair tick is queued: set until the tick heals it.
    poisoned: bool,
    warm: WarmSet,
    /// Requests currently in flight against this function.
    in_flight: usize,
}

impl Simulation {
    /// Drives `trace` through the open-loop fleet engine — see the module
    /// docs for the calibration/flow split. Use this for density-grid
    /// scale (10^5+ concurrent instances); use [`Simulation::run`] when
    /// per-request fidelity matters more than scale.
    ///
    /// Each shape is booted once, so every cold boot costs what the first
    /// boot cost. An engine whose first boot does more than its later ones
    /// (Catalyzer's cold boot builds the Base-EPT the next ones attach) is
    /// charged that first boot every time, as the cluster kernel's cold
    /// rung already is.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidTrace`] for malformed traces; engine or
    /// handler errors surfaced during calibration.
    #[deny(
        clippy::wildcard_enum_match_arm,
        reason = "every `Event` variant is matched by name, so a new one does not compile until this loop handles it"
    )]
    pub fn run_fleet(mut self, trace: &[TraceRequest]) -> Result<FleetOutcome, PlatformError> {
        let mut queue = EventQueue::over(validate_trace(trace, self.catalogue.len())?);
        let mut fns = self.calibrate()?;
        let mut injector = self.plan.take().map(FaultInjector::new);
        let cap = self
            .admission
            .as_ref()
            .filter(|p| p.max_in_flight > 0)
            .map(|p| p.max_in_flight.saturating_add(p.max_queue));
        let (keep_alive, max_idle) = (self.keep_alive, self.max_idle);
        // An instance's tag is the request its boot serves.
        let mut instances: Arena<Instance<u64>> = Arena::with_capacity(trace.len().min(1 << 20));

        let mut out = FleetOutcome {
            requests: u64::try_from(trace.len()).unwrap_or(u64::MAX),
            ..FleetOutcome::default()
        };
        let (mut in_flight, mut arrived) = (0usize, 0u64);
        let mut startup_hist = LatencyHistogram::new();
        let mut e2e_hist = LatencyHistogram::new();

        while let Some((now, event)) = queue.pop() {
            debug_assert!(now >= out.horizon, "time ran back to {now}");
            debug_assert!(
                in_flight <= instances.len(),
                "a request in flight lost its instance"
            );
            debug_assert_eq!(
                in_flight as u64 + out.completed + out.shed,
                arrived,
                "an arrival was neither in flight, completed nor shed"
            );
            out.horizon = now;
            match event {
                Event::Arrival { request } => {
                    arrived += 1;
                    let Some(req) = trace.get(usize::try_from(request).unwrap_or(usize::MAX))
                    else {
                        continue;
                    };
                    let function = FnId::from_index(req.function);
                    let Some(f) = fns.get_mut(req.function) else {
                        continue;
                    };
                    if cap.is_some_and(|cap| f.in_flight >= cap) {
                        out.shed += 1;
                        continue;
                    }
                    f.in_flight += 1;
                    in_flight += 1;
                    out.peak_in_flight = out.peak_in_flight.max(in_flight);

                    // Warm path: the newest live warm instance.
                    if let Some(instance) = f.warm.reuse(&mut instances) {
                        out.reuses += 1;
                        let e2e = REUSE_HANDOFF.saturating_add(f.cost.exec);
                        startup_hist.record(REUSE_HANDOFF);
                        e2e_hist.record(e2e);
                        let done = now.saturating_add(e2e);
                        queue.schedule(done, Event::ExecComplete { request, instance });
                        continue;
                    }

                    // Cold path: one calibrated boot.
                    out.cold_boots += 1;
                    let mut cost = f.cost.boot;
                    let fault = injector
                        .as_mut()
                        .and_then(|i| i.check(InjectionPoint::SforkMerge, now));
                    if let Some(fault) = fault {
                        // Every fault charges its detection delay.
                        cost = cost.saturating_add(fault.delay);
                        if fault.kind == FaultKind::Poison {
                            // Deferred quarantine at fleet scale: one repair
                            // tick per poisoning heals the injector a boot
                            // later.
                            if !f.poisoned {
                                let tick = now.saturating_add(f.cost.boot);
                                queue.schedule(tick, Event::PoolTick { function });
                            }
                            f.poisoned = true;
                        } else {
                            // Transient/stall: plus one retry backoff, then
                            // the retry succeeds.
                            cost = cost.saturating_add(self.policy.backoff_base);
                            out.degraded += 1;
                        }
                    }
                    let instance = instances.insert(Instance::serving(function, request));
                    startup_hist.record(cost);
                    e2e_hist.record(cost.saturating_add(f.cost.exec));
                    queue.schedule(now.saturating_add(cost), Event::BootComplete { instance });
                }
                Event::BootComplete { instance } => {
                    let Some(inst) = instances.get(instance) else {
                        continue;
                    };
                    let exec = fns
                        .get(inst.function.index())
                        .map_or(SimNanos::ZERO, |f| f.cost.exec);
                    let request = inst.tag;
                    queue.schedule(
                        now.saturating_add(exec),
                        Event::ExecComplete { request, instance },
                    );
                }
                Event::ExecComplete { instance: id, .. } => {
                    let Some(inst) = instances.get(id) else {
                        continue;
                    };
                    let function = inst.function;
                    out.completed += 1;
                    in_flight -= 1;
                    let Some(f) = fns.get_mut(function.index()) else {
                        continue;
                    };
                    f.in_flight -= 1;
                    f.warm
                        .park(id, &mut instances, now, keep_alive, max_idle, &mut queue);
                }
                Event::KeepAliveExpiry { instance } => {
                    let Some(f) = instances
                        .get(instance)
                        .and_then(|inst| fns.get_mut(inst.function.index()))
                    else {
                        continue;
                    };
                    if f.warm.expire(instance, &mut instances, now, keep_alive) {
                        out.expirations += 1;
                    }
                }
                // Cluster- and chaos-only classes: the single-node fleet
                // never schedules them.
                Event::TransferComplete { .. }
                | Event::NodeRepair { .. }
                | Event::NodeCrash { .. }
                | Event::PartitionHeal { .. }
                | Event::HedgeFire { .. }
                | Event::HeartbeatTick { .. } => {}
                Event::PoolTick { function } => {
                    let Some(f) = fns.get_mut(function.index()) else {
                        continue;
                    };
                    out.repairs += 1;
                    f.poisoned = false;
                    if let Some(injector) = &mut injector {
                        injector.heal(InjectionPoint::SforkMerge);
                    }
                }
            }
        }

        out.faults = injector.map_or(0, |i| i.total_fired());
        out.peak_instances = instances.peak_live();
        out.events = queue.scheduled();
        out.startup = Quantiles::from_histogram(&startup_hist);
        out.end_to_end = Quantiles::from_histogram(&e2e_hist);
        out.reuse_rate = super::fraction(out.reuses, out.completed);
        Ok(out)
    }

    /// Boots each distinct cost shape's real engine once on an offline
    /// clock for its [`ShapeCost`]; the engines are dropped afterwards.
    fn calibrate(&mut self) -> Result<Vec<FleetFn>, PlatformError> {
        let costs = calibrate_shapes(&self.catalogue, |profile| {
            let mut engine = (self.engine)(profile);
            ShapeCost::measure(&self.model, |ctx| engine.boot(profile, ctx))
        })?;
        Ok(costs
            .into_iter()
            .map(|cost| FleetFn {
                cost,
                poisoned: false,
                warm: WarmSet::default(),
                in_flight: 0,
            })
            .collect())
    }
}

/// Runs `boot` on the first function of each distinct cost shape in
/// `catalogue`, in catalogue order, and returns the calibrated costs per
/// function. Functions that differ only in name share one calibration:
/// engines derive their behaviour from the profile's cost fields, never
/// its name, so a synthetic fleet catalogue with a bounded set of distinct
/// cost shapes (e.g. `workloads::catalogue::synthetic`) pays dozens of
/// calibration boots instead of thousands. Both open-loop engines — the
/// single-node fleet and the cluster kernel — memoise through here.
pub(crate) fn calibrate_shapes<C: Copy>(
    catalogue: &[AppProfile],
    mut boot: impl FnMut(&AppProfile) -> Result<C, PlatformError>,
) -> Result<Vec<C>, PlatformError> {
    let mut shapes: Vec<(AppProfile, C)> = Vec::new();
    catalogue
        .iter()
        .map(|profile| {
            let mut key = profile.clone();
            key.name = String::new();
            if let Some((_, costs)) = shapes.iter().find(|(shape, _)| *shape == key) {
                return Ok(*costs);
            }
            let costs = boot(profile)?;
            shapes.push((key, costs));
            Ok(costs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyzer::{BootMode, CatalyzerEngine};
    use faultsim::FaultPlan;
    use runtimes::AppProfile;
    use sandbox::GvisorRestoreEngine;

    fn steady_trace(n: u64, gap: SimNanos) -> Vec<TraceRequest> {
        (0..n)
            .map(|i| TraceRequest {
                arrival: gap.saturating_mul(i),
                function: (i % 2) as usize,
            })
            .collect()
    }

    fn functions() -> Vec<AppProfile> {
        vec![AppProfile::c_hello(), AppProfile::c_nginx()]
    }

    #[test]
    fn fleet_reuses_under_steady_traffic() {
        let out = Simulation::new(functions())
            .run_fleet(&steady_trace(200, SimNanos::from_millis(5)))
            .unwrap();
        assert_eq!(out.requests, 200);
        assert_eq!(out.completed, 200);
        assert_eq!(out.cold_boots, 2, "one cold boot per function");
        assert_eq!(out.reuses, 198);
        assert!(out.reuse_rate > 0.98, "{}", out.reuse_rate);
        assert_eq!(out.shed, 0);
        // Quantiles are bucket upper bounds: the 150 µs hand-off lands in
        // the 200 µs bucket.
        assert!(
            out.startup.p50 <= SimNanos::from_micros(200),
            "{:?}",
            out.startup
        );
        assert_eq!(out.startup.min, REUSE_HANDOFF);
    }

    #[test]
    fn fleet_cold_boots_when_keep_alive_lapses() {
        let out = Simulation::new(functions())
            .with_keep_alive(SimNanos::from_millis(1))
            .run_fleet(&steady_trace(20, SimNanos::from_secs(1)))
            .unwrap();
        assert_eq!(out.cold_boots, 20, "every request cold boots");
        assert_eq!(out.reuses, 0);
        assert!(out.expirations >= 18, "{}", out.expirations);
    }

    #[test]
    fn fleet_fork_boots_are_flat() {
        let out = Simulation::new(vec![AppProfile::c_hello()])
            .with_engine(|_| CatalyzerEngine::standalone(BootMode::Fork))
            .with_keep_alive(SimNanos::from_millis(1))
            .run_fleet(
                &steady_trace(10, SimNanos::from_secs(1))
                    .iter()
                    .map(|r| TraceRequest {
                        arrival: r.arrival,
                        function: 0,
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(out.cold_boots, 10);
        // Calibrated fork boots match the closed-loop expectation: sub-ms
        // and flat — no cold-start tail at all.
        assert!(
            out.startup.max < SimNanos::from_millis(1),
            "{:?}",
            out.startup
        );
        assert!(out.startup.max < out.startup.min.saturating_mul(2));
    }

    #[test]
    fn fleet_matches_closed_loop_on_boot_counts() {
        // Gaps wide enough that each request finishes (boot + exec) before
        // the next arrives: the closed loop's serial-reuse pool and the
        // fleet's busy/idle instances then agree exactly.
        let trace = steady_trace(40, SimNanos::from_millis(500));
        let closed = Simulation::new(functions())
            .with_engine(|_| GvisorRestoreEngine::new())
            .run(&trace)
            .unwrap();
        let fleet = Simulation::new(functions())
            .with_engine(|_| GvisorRestoreEngine::new())
            .run_fleet(&trace)
            .unwrap();
        assert_eq!(fleet.completed, closed.completed);
        assert_eq!(fleet.cold_boots, closed.pools.boots);
        assert_eq!(fleet.reuses, closed.reuses);
    }

    #[test]
    fn fleet_density_scales_past_the_closed_loop() {
        // A same-instant burst per function with no reuse possible: the
        // arena's high-water mark is the burst size.
        let trace: Vec<TraceRequest> = (0..5_000u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_nanos(i),
                function: 0,
            })
            .collect();
        let out = Simulation::new(vec![AppProfile::c_hello()])
            .with_max_idle(0)
            .run_fleet(&trace)
            .unwrap();
        assert_eq!(out.completed, 5_000);
        assert!(out.peak_instances >= 4_000, "{}", out.peak_instances);
        assert_eq!(out.cold_boots, 5_000);
    }

    #[test]
    fn fleet_admission_cap_sheds_overload() {
        let trace: Vec<TraceRequest> = (0..100u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_nanos(i),
                function: 0,
            })
            .collect();
        let out = Simulation::new(vec![AppProfile::c_nginx()])
            .with_admission(crate::AdmissionPolicy::standard(4, SimNanos::from_secs(1)))
            .run_fleet(&trace)
            .unwrap();
        assert!(out.shed > 0);
        assert_eq!(out.completed + out.shed, out.requests);
    }

    #[test]
    fn fleet_poison_heals_through_repair_tick() {
        let out = Simulation::new(vec![AppProfile::c_hello()])
            .with_engine(|_| CatalyzerEngine::standalone(BootMode::Fork))
            .with_keep_alive(SimNanos::from_micros(1)) // force cold boots
            .with_faults(FaultPlan::uniform(0x9013, 0.3).with_poison_ratio(1.0))
            .run_fleet(
                &steady_trace(30, SimNanos::from_millis(50))
                    .iter()
                    .map(|r| TraceRequest {
                        arrival: r.arrival,
                        function: 0,
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert!(out.faults >= 1);
        assert!(out.repairs >= 1, "poison schedules a repair tick");
        assert_eq!(out.completed, 30, "poison never loses requests");
    }

    #[test]
    fn fleet_is_deterministic() {
        let trace = steady_trace(500, SimNanos::from_micros(40));
        let once = || {
            let out = Simulation::new(functions())
                .with_faults(FaultPlan::uniform(0xF1EE7, 0.1))
                .with_admission(crate::AdmissionPolicy::standard(
                    8,
                    SimNanos::from_millis(10),
                ))
                .run_fleet(&trace)
                .unwrap();
            serde_json::to_string(&out).unwrap()
        };
        assert_eq!(once(), once(), "same inputs, byte-identical outcome");
    }

    #[test]
    fn shapes_are_calibrated_once_each_in_catalogue_order() {
        let named = |mut profile: AppProfile, name: &str| {
            profile.name = name.into();
            profile
        };
        let catalogue = vec![
            named(AppProfile::c_nginx(), "b0"),
            named(AppProfile::c_hello(), "a0"),
            named(AppProfile::python_hello(), "c0"),
            named(AppProfile::c_hello(), "a1"),
            named(AppProfile::c_nginx(), "b1"),
        ];
        let mut booted = Vec::new();
        let costs = calibrate_shapes(&catalogue, |profile| {
            booted.push(profile.name.clone());
            Ok(profile.init_heap_pages)
        })
        .unwrap();
        // One boot per shape, its first function standing for it.
        assert_eq!(booted, ["b0", "a0", "c0"]);
        let heaps: Vec<u64> = catalogue.iter().map(|p| p.init_heap_pages).collect();
        assert_eq!(costs, heaps);

        // An error stops the calibration and is the caller's.
        let mut boots = 0;
        let failed = calibrate_shapes(&catalogue, |_| {
            boots += 1;
            Err::<u64, _>(PlatformError::ClusterConfig {
                detail: "boom".into(),
            })
        });
        assert!(failed.is_err());
        assert_eq!(boots, 1);
    }
}
