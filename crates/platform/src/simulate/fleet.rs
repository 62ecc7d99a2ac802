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
//!    twice on an offline clock — the first boot pays template/zygote
//!    construction, the second is the steady state — and run its handler
//!    once. Three numbers per function: `first`, `boot`, `exec`.
//! 2. **Flow** the trace through the event queue, which reads arrivals
//!    straight off the validated trace and holds only what they set in
//!    motion;
//!    a warm instance (arena slot) is reused for the scheduler hand-off
//!    cost or a cold boot is scheduled at the calibrated cost; boot and
//!    execution completions, keep-alive expiries, and self-healing pool
//!    ticks are all events. Instances live in a generational [`Arena`] —
//!    a stale expiry against a reused slot simply misses.
//!
//! Faults ([`Simulation::with_faults`]) consult the same deterministic
//! [`FaultInjector`] schedule at each cold boot: transients and stalls
//! charge their detection delay plus one retry backoff; a poison marks the
//! function's prepared state suspect (subsequent boots pay the full
//! template rebuild) and schedules a repair tick that heals it off the
//! request path, mirroring the closed-loop pool's deferred quarantine.
//! Admission ([`Simulation::with_admission`]) degrades to its per-function
//! concurrency cap — at open-loop scale the queue is the event queue
//! itself, so `max_in_flight + max_queue` arrivals may be in flight before
//! overload sheds begin.
//!
//! Latency distributions use fixed-ladder [`LatencyHistogram`]s (O(1)
//! memory at any trace length); determinism is byte-exact: same catalogue,
//! knobs, and trace — same [`FleetOutcome`], every typed count included.

use std::cmp::Reverse;

use faultsim::{FaultInjector, FaultKind, InjectionPoint};
use runtimes::AppProfile;
use sandbox::BootCtx;
use serde::{Deserialize, Serialize};
use simtime::{LatencyHistogram, MetricsRegistry, SimNanos};

use super::arena::{Arena, FnId, InstanceId};
use super::events::{Event, EventQueue};
use super::{validate_trace, Simulation, TraceRequest, REUSE_HANDOFF};
use crate::resilience::{resilient_boot, ResiliencePolicy};
use crate::PlatformError;

/// Latency distribution digest from a fixed-ladder histogram: quantiles
/// are conservative upper bounds with bounded, schema-stable error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize)]
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

/// Calibrated per-function state: three costs plus the warm set.
struct FleetFn {
    /// First-ever cold boot: pays template/zygote construction.
    first: SimNanos,
    /// Steady-state cold boot against prepared state.
    boot: SimNanos,
    /// Handler execution.
    exec: SimNanos,
    /// Set once the construction cost has been paid.
    booted_once: bool,
    /// Prepared state is suspect: boots pay `first` until the repair tick,
    /// which is queued exactly while this is set.
    poisoned: bool,
    /// LIFO stack of warm instances (lazily pruned: expired entries miss
    /// the arena's generation check and are skipped on pop).
    idle: Vec<InstanceId>,
    /// Warm instances actually live (the stack may hold stale ids).
    idle_live: usize,
    /// Requests currently in flight against this function.
    in_flight: usize,
}

/// One live instance slot.
struct Instance {
    function: FnId,
    /// The request being served (meaningful while `busy`).
    request: u64,
    busy: bool,
    idle_since: SimNanos,
}

impl Simulation {
    /// Drives `trace` through the open-loop fleet engine — see the module
    /// docs for the calibration/flow split. Use this for density-grid
    /// scale (10^5+ concurrent instances); use [`Simulation::run`] when
    /// per-request fidelity matters more than scale.
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
        let cap = self.admission.as_ref().map(|p| {
            if p.max_in_flight == 0 {
                usize::MAX
            } else {
                p.max_in_flight.saturating_add(p.max_queue)
            }
        });

        let mut instances: Arena<Instance> = Arena::with_capacity(trace.len().min(1 << 20));

        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut cold_boots = 0u64;
        let mut reuses = 0u64;
        let mut expirations = 0u64;
        let mut degraded = 0u64;
        let mut repairs = 0u64;
        let mut in_flight = 0usize;
        let mut peak_in_flight = 0usize;
        let mut horizon = SimNanos::ZERO;
        let mut startup_hist = LatencyHistogram::new();
        let mut e2e_hist = LatencyHistogram::new();

        while let Some((now, event)) = queue.pop() {
            horizon = now;
            match event {
                Event::Arrival { request } => {
                    let Some(req) = trace.get(usize::try_from(request).unwrap_or(usize::MAX))
                    else {
                        continue;
                    };
                    let Some(f) = fns.get_mut(req.function) else {
                        continue;
                    };
                    if cap.is_some_and(|cap| f.in_flight >= cap) {
                        shed += 1;
                        continue;
                    }
                    f.in_flight += 1;
                    in_flight += 1;
                    peak_in_flight = peak_in_flight.max(in_flight);

                    // Warm path: pop past stale ids (expired slots miss the
                    // generation check) to the newest live warm instance.
                    let mut warm = None;
                    while let Some(id) = f.idle.pop() {
                        if instances.contains(id) {
                            warm = Some(id);
                            break;
                        }
                    }
                    if let Some(id) = warm {
                        f.idle_live = f.idle_live.saturating_sub(1);
                        if let Some(inst) = instances.get_mut(id) {
                            inst.busy = true;
                            inst.request = request;
                        }
                        reuses += 1;
                        startup_hist.record(REUSE_HANDOFF);
                        e2e_hist.record(REUSE_HANDOFF.saturating_add(f.exec));
                        queue.schedule(
                            now.saturating_add(REUSE_HANDOFF).saturating_add(f.exec),
                            Event::ExecComplete {
                                request,
                                instance: id,
                            },
                        );
                        continue;
                    }

                    // Cold path: the first boot ever (and every boot against
                    // poisoned prepared state) pays template construction.
                    cold_boots += 1;
                    let mut cost = if f.poisoned || !f.booted_once {
                        f.first
                    } else {
                        f.boot
                    };
                    f.booted_once = true;
                    if let Some(injector) = &mut injector {
                        if let Some(fault) = injector.check(InjectionPoint::SforkMerge, now) {
                            if fault.kind == FaultKind::Poison {
                                // Deferred quarantine at fleet scale: this
                                // boot pays the rebuild, later ones stay
                                // degraded until the repair tick heals.
                                if !f.poisoned {
                                    queue.schedule(
                                        now.saturating_add(f.first),
                                        Event::PoolTick {
                                            function: FnId::from_index(req.function),
                                        },
                                    );
                                }
                                f.poisoned = true;
                                cost = f.first.saturating_add(fault.delay);
                            } else {
                                // Transient/stall: detection delay plus one
                                // retry backoff, then the retry succeeds.
                                cost = cost
                                    .saturating_add(fault.delay)
                                    .saturating_add(self.policy.backoff_base);
                                degraded += 1;
                            }
                        }
                    }
                    let id = instances.insert(Instance {
                        function: FnId::from_index(req.function),
                        request,
                        busy: true,
                        idle_since: SimNanos::ZERO,
                    });
                    startup_hist.record(cost);
                    e2e_hist.record(cost.saturating_add(f.exec));
                    queue.schedule(
                        now.saturating_add(cost),
                        Event::BootComplete { instance: id },
                    );
                }
                Event::BootComplete { instance } => {
                    let Some(inst) = instances.get(instance) else {
                        continue;
                    };
                    let exec = fns
                        .get(inst.function.index())
                        .map_or(SimNanos::ZERO, |f| f.exec);
                    queue.schedule(
                        now.saturating_add(exec),
                        Event::ExecComplete {
                            request: inst.request,
                            instance,
                        },
                    );
                }
                Event::ExecComplete { instance: id, .. } => {
                    let Some(inst) = instances.get_mut(id) else {
                        continue;
                    };
                    let function = inst.function;
                    completed += 1;
                    in_flight = in_flight.saturating_sub(1);
                    let Some(f) = fns.get_mut(function.index()) else {
                        continue;
                    };
                    f.in_flight = f.in_flight.saturating_sub(1);
                    if f.idle_live < self.max_idle {
                        // Park warm: the id stays current, so the expiry
                        // scheduled here resolves unless the slot is reused
                        // (then `busy`/a fresher `idle_since` defers it).
                        inst.busy = false;
                        inst.idle_since = now;
                        f.idle.push(id);
                        f.idle_live += 1;
                        queue.schedule(
                            now.saturating_add(self.keep_alive),
                            Event::KeepAliveExpiry { instance: id },
                        );
                    } else {
                        // Warm set full: retire the instance outright.
                        instances.remove(id);
                    }
                }
                Event::KeepAliveExpiry { instance } => {
                    let due = match instances.get(instance) {
                        // Reused since parking: the expiry for the *next*
                        // park (if any) supersedes this one.
                        Some(inst) if inst.busy => false,
                        Some(inst) => now.saturating_sub(inst.idle_since) >= self.keep_alive,
                        // Already reclaimed (retired or expired).
                        None => false,
                    };
                    if due {
                        if let Some(inst) = instances.remove(instance) {
                            expirations += 1;
                            if let Some(f) = fns.get_mut(inst.function.index()) {
                                f.idle_live = f.idle_live.saturating_sub(1);
                            }
                        }
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
                    repairs += 1;
                    f.poisoned = false;
                    if let Some(injector) = &mut injector {
                        injector.heal(InjectionPoint::SforkMerge);
                    }
                }
            }
        }

        let faults = injector.map_or(0, |i| i.total_fired());

        Ok(FleetOutcome {
            requests: u64::try_from(trace.len()).unwrap_or(u64::MAX),
            completed,
            shed,
            cold_boots,
            reuses,
            expirations,
            prewarm_boots: 0,
            faults,
            degraded,
            repairs,
            peak_instances: instances.peak_live(),
            peak_in_flight,
            events: queue.scheduled(),
            horizon,
            startup: Quantiles::from_histogram(&startup_hist),
            end_to_end: Quantiles::from_histogram(&e2e_hist),
            reuse_rate: super::fraction(reuses, completed),
        })
    }

    /// Boots each distinct cost shape's real engine on an offline clock to
    /// extract its three calibrated costs; the engines are dropped
    /// afterwards.
    fn calibrate(&mut self) -> Result<Vec<FleetFn>, PlatformError> {
        let calibration = ResiliencePolicy::none();
        let mut scratch = MetricsRegistry::new();
        let costs = calibrate_shapes(&self.catalogue, |profile| {
            let mut engine = (self.engine)(profile);
            let mut first_ctx = BootCtx::fresh(&self.model);
            let booted = resilient_boot(
                &mut engine,
                profile,
                &calibration,
                &mut first_ctx,
                &mut scratch,
            )?;
            let mut outcome = booted.outcome;
            let exec_ctx = BootCtx::fresh(&self.model);
            outcome
                .program
                .invoke_handler(exec_ctx.clock(), exec_ctx.model())?;
            let mut steady_ctx = BootCtx::fresh(&self.model);
            resilient_boot(
                &mut engine,
                profile,
                &calibration,
                &mut steady_ctx,
                &mut scratch,
            )?;
            Ok((first_ctx.now(), steady_ctx.now(), exec_ctx.now()))
        })?;
        Ok(costs
            .into_iter()
            .map(|(first, boot, exec)| FleetFn {
                first,
                boot,
                exec,
                booted_once: false,
                poisoned: false,
                idle: Vec::new(),
                idle_live: 0,
                in_flight: 0,
            })
            .collect())
    }
}

/// Runs `boot` once per distinct cost shape in `catalogue` and returns the
/// calibrated costs per function, in catalogue order. Functions that differ
/// only in name share one calibration: engines derive their behaviour from
/// the profile's cost fields, never its name, so a synthetic fleet
/// catalogue with a bounded set of distinct cost shapes (e.g.
/// `workloads::catalogue::synthetic`) pays dozens of calibration boots
/// instead of thousands. Both open-loop engines — the single-node fleet
/// and the cluster kernel — memoise through here.
///
/// Shapes are booted **largest heap first** (the first function of a shape
/// stands for it, as before; a calibration depends on nothing but its
/// shape, so the order moves no cost). What the order does decide is the
/// heap the host allocator hands the event loop. Every engine is dropped
/// before the next is built, but each leaves small-object remnants (glibc
/// keeps the last few freed chunks of every size class out of coalescing)
/// that split the pages it freed. In catalogue order — which a seed
/// shuffles — some hundred engines of mixed size split that space
/// differently for every seed, and whether the queues' 8 MiB buffers then
/// fitted under calibration's high-water mark or went on top of it was a
/// per-seed coin: `fleet-open` read 145, 153 or 161 MiB peak RSS. By size,
/// the big templates run first, on the least-split heap, the remnants
/// left last are the smallest engines', and the freed space stays in
/// fewer, larger runs (EXPERIMENTS.md, PR 20: 39 seeds in 40 at 145.6).
pub(crate) fn calibrate_shapes<C: Copy>(
    catalogue: &[AppProfile],
    mut boot: impl FnMut(&AppProfile) -> Result<C, PlatformError>,
) -> Result<Vec<C>, PlatformError> {
    let mut shapes: Vec<(AppProfile, C)> = Vec::new();
    let mut memoised = |profile: &AppProfile| -> Result<C, PlatformError> {
        let mut key = profile.clone();
        key.name = String::new();
        if let Some((_, costs)) = shapes.iter().find(|(shape, _)| *shape == key) {
            return Ok(*costs);
        }
        let costs = boot(profile)?;
        shapes.push((key, costs));
        Ok(costs)
    };
    // A stable sort: within one heap size, first appearance still leads.
    let mut largest_first: Vec<&AppProfile> = catalogue.iter().collect();
    largest_first.sort_by_key(|profile| Reverse(profile.init_heap_pages));
    for profile in largest_first {
        memoised(profile)?;
    }
    // Every shape is known now: this pass only looks up.
    catalogue.iter().map(memoised).collect()
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
    fn shapes_are_calibrated_once_each_largest_heap_first() {
        let named = |mut profile: AppProfile, name: &str| {
            profile.name = name.into();
            profile
        };
        // Heap pages: c_hello < c_nginx < python_hello.
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
        assert_eq!(booted, ["c0", "b0", "a0"]);
        // Costs come back in catalogue order whatever the boot order was.
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
