//! An autoscaling instance pool: the piece of a serverless platform that
//! decides *when* a boot happens at all.
//!
//! The gateway serves each request from an idle instance when one exists;
//! otherwise it boots a new instance through the engine (scale-up). Idle
//! instances expire after `keep_alive` of virtual inactivity (scale-down) —
//! the classic keep-alive policy whose cold-start tail Catalyzer's fork boot
//! eliminates (paper §2.2 "caching does not help with the tail latency").
//!
//! A pool can additionally be **self-healing**
//! ([`InstancePool::with_self_healing`]): poisons reported by the boot
//! ladder are only *marked* on the request path (deferred quarantine), and
//! a background repair loop ([`InstancePool::tick`], driven on the platform
//! clock between requests) evicts the quarantined idle capacity, rebuilds
//! the engine's suspect prepared state on its own offline clock, and heals
//! the fault injector lent to it — so the rebuild cost never lands on a
//! request's latency.
//!
//! In a multi-node deployment every [`cluster`](crate::cluster) node runs
//! its own pools behind its own gateway: pool capacity is strictly
//! node-local, and the cluster scheduler routes *around* a saturated
//! node's pools (remote sfork) rather than growing them.

use std::collections::{BTreeSet, VecDeque};

use faultsim::{FaultInjector, FaultKind, InjectionPoint};
use runtimes::AppProfile;
use sandbox::{BootCtx, BootEngine, BootOutcome, SandboxError};
use simtime::names;
use simtime::{CostModel, MetricsRegistry, SimClock, SimNanos};

use crate::admission::SPAN_REPAIR;
use crate::resilience::{resilient_boot, ResiliencePolicy};
use crate::simulate::REUSE_HANDOFF;
use crate::PlatformError;

/// One pooled, idle instance.
#[derive(Debug)]
struct IdleInstance {
    outcome: BootOutcome,
    idle_since: SimNanos,
}

/// Pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from an idle instance.
    pub reuses: u64,
    /// Requests that required a new boot.
    pub boots: u64,
    /// Instances reclaimed by keep-alive expiry.
    pub expirations: u64,
}

/// Background repair-loop statistics for a self-healing pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Repair passes that rebuilt suspect prepared state.
    pub repairs: u64,
    /// Quarantined idle instances evicted by repair passes.
    pub evicted: u64,
    /// Virtual time spent rebuilding, all off the request path.
    pub repair_time: SimNanos,
}

/// One request served by the pool, with the health signals admission
/// control needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolServe {
    /// Startup latency (reuse hand-off or boot).
    pub startup: SimNanos,
    /// Handler execution latency.
    pub exec: SimNanos,
    /// Served from an idle instance.
    pub reused: bool,
    /// The boot absorbed at least one injected fault.
    pub degraded: bool,
    /// The boot absorbed a poison — prepared state is suspect until the
    /// repair loop runs.
    pub poisoned: bool,
}

/// An autoscaling pool for one function over one boot engine.
///
/// Time is the *platform's* virtual timeline: pass the arrival clock reading
/// with each request, monotonically non-decreasing.
#[derive(Debug)]
pub struct InstancePool<E: BootEngine> {
    engine: E,
    profile: AppProfile,
    keep_alive: SimNanos,
    max_idle: usize,
    idle: VecDeque<IdleInstance>,
    stats: PoolStats,
    metrics: MetricsRegistry,
    policy: ResiliencePolicy,
    /// Injection points owed a background repair + injector heal.
    pending_repair: BTreeSet<InjectionPoint>,
    repair_stats: RepairStats,
    /// The repair daemon's own offline timeline.
    repair_clock: SimClock,
}

impl<E: BootEngine> InstancePool<E> {
    /// A pool for `profile` with the given keep-alive window and idle cap.
    pub fn new(engine: E, profile: AppProfile, keep_alive: SimNanos, max_idle: usize) -> Self {
        InstancePool {
            engine,
            profile,
            keep_alive,
            max_idle,
            idle: VecDeque::new(),
            stats: PoolStats::default(),
            metrics: MetricsRegistry::new(),
            policy: ResiliencePolicy::full(),
            pending_repair: BTreeSet::new(),
            repair_stats: RepairStats::default(),
            repair_clock: SimClock::new(),
        }
    }

    /// Sets the recovery policy, builder-style.
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Makes the pool self-healing, builder-style: quarantine rebuilds are
    /// *deferred* off the request path (a poison only marks state suspect
    /// and falls back one rung), and [`InstancePool::tick`] repairs the
    /// capacity in the background.
    pub fn with_self_healing(mut self) -> Self {
        self.policy.quarantine = true;
        self.policy.defer_quarantine = true;
        self
    }

    /// Pool statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Pool metrics: `pool.reuse` / `pool.boot` / `pool.expire` counters, a
    /// `pool.idle` gauge, and the `pool.startup` latency histogram; under
    /// fault injection also `fault.<point>` / `pool.degraded` counters and
    /// the `pool.recovery` histogram.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Background repair-loop statistics.
    pub fn repair_stats(&self) -> RepairStats {
        self.repair_stats
    }

    /// Expires idle instances older than the keep-alive window at `now`.
    pub fn reap(&mut self, now: SimNanos) {
        let keep_alive = self.keep_alive;
        let before = self.idle.len();
        self.idle
            .retain(|i| now.saturating_sub(i.idle_since) < keep_alive);
        let expired = (before - self.idle.len()) as u64;
        self.stats.expirations += expired;
        self.metrics.add(names::POOL_EXPIRE, expired);
        self.metrics
            .set_gauge(names::POOL_IDLE, self.idle.len() as i64);
    }

    /// Serves one request arriving at `now`: reuse an idle instance or boot
    /// a new one; run the handler; park the instance back in the pool.
    /// The boot context's clock starts at `now` — the platform timeline —
    /// so fault windows ([`FaultPlan::storm`](faultsim::FaultPlan::storm))
    /// and span stamps line up with arrivals. The [`PoolServe`] carries the
    /// health signals ([`PoolServe::degraded`], [`PoolServe::poisoned`])
    /// that drive circuit breakers. A pool owns no fault injector, so these
    /// boots are uninjected; [`Simulation::run`](crate::Simulation::run)
    /// lends its run's injector call by call.
    ///
    /// # Errors
    ///
    /// Engine or handler errors.
    pub fn serve_at(
        &mut self,
        now: SimNanos,
        model: &CostModel,
    ) -> Result<PoolServe, PlatformError> {
        self.serve_with(now, model, None)
    }

    fn note_poison(&mut self, point: InjectionPoint) {
        if self.pending_repair.insert(point) {
            self.metrics.inc(names::POOL_POISONED);
        }
    }

    /// One pass of the background repair loop, run on the
    /// platform clock between requests (`now` is only used to reap
    /// keep-alive expiry; all rebuild work is charged to the daemon's own
    /// offline clock and traced under a `repair` span).
    ///
    /// When poisons are pending: evicts every quarantined idle instance
    /// (they were specialized from suspect prepared state), rebuilds the
    /// engine's suspect templates/zygotes ([`BootEngine::repair`]), and
    /// heals the poisoned points in the injector the closed loop lent the
    /// call, if any.
    ///
    /// # Errors
    ///
    /// Engine errors from the rebuild.
    pub fn tick(&mut self, now: SimNanos, model: &CostModel) -> Result<(), PlatformError> {
        self.tick_with(now, model, None)
    }

    /// [`InstancePool::serve_at`] with `injector` lent for the call — how
    /// the closed loop, which owns one injector per run, serves its pools:
    /// a scale-up boot consults it.
    pub(crate) fn serve_with(
        &mut self,
        now: SimNanos,
        model: &CostModel,
        injector: Option<&mut FaultInjector>,
    ) -> Result<PoolServe, PlatformError> {
        self.reap(now);
        let (mut outcome, startup, reused, degraded, poisoned) = match self.idle.pop_front() {
            Some(instance) => {
                self.stats.reuses += 1;
                self.metrics.inc(names::POOL_REUSE);
                // Reuse: scheduler hand-off only.
                (instance.outcome, REUSE_HANDOFF, true, false, false)
            }
            None => {
                self.stats.boots += 1;
                self.metrics.inc(names::POOL_BOOT);
                let mut ctx = BootCtx::new(&SimClock::starting_at(now), model);
                if let Some(injector) = injector {
                    ctx = ctx.with_injector(injector);
                }
                let booted = match resilient_boot(
                    &mut self.engine,
                    &self.profile,
                    &self.policy,
                    &mut ctx,
                    &mut self.metrics,
                ) {
                    Ok(booted) => booted,
                    Err(err) => {
                        // A deferred poison on a failed boot still owes the
                        // repair loop a rebuild and an injector heal.
                        if let SandboxError::Fault(fault) = &err {
                            if self.policy.defer_quarantine && fault.kind == FaultKind::Poison {
                                self.note_poison(fault.point);
                            }
                        }
                        return Err(err.into());
                    }
                };
                let poisoned = !booted.poisoned.is_empty();
                for &point in &booted.poisoned {
                    self.note_poison(point);
                }
                if booted.degraded() {
                    self.metrics.inc(names::POOL_DEGRADED);
                    self.metrics.observe(names::POOL_RECOVERY, booted.recovery);
                }
                let startup = ctx.now().saturating_sub(now);
                let degraded = booted.degraded();
                (booted.outcome, startup, false, degraded, poisoned)
            }
        };
        self.metrics.observe(names::POOL_STARTUP, startup);
        let ctx = BootCtx::fresh(model);
        outcome.program.invoke_handler(ctx.clock(), ctx.model())?;
        let exec = ctx.now();
        if self.idle.len() < self.max_idle {
            self.idle.push_back(IdleInstance {
                outcome,
                idle_since: now.saturating_add(startup).saturating_add(exec),
            });
            self.metrics
                .set_gauge(names::POOL_IDLE, self.idle.len() as i64);
        }
        Ok(PoolServe {
            startup,
            exec,
            reused,
            degraded,
            poisoned,
        })
    }

    /// [`InstancePool::tick`] with `injector` lent for the call: the
    /// repair pass heals it.
    pub(crate) fn tick_with(
        &mut self,
        now: SimNanos,
        model: &CostModel,
        injector: Option<&mut FaultInjector>,
    ) -> Result<(), PlatformError> {
        self.reap(now);
        if self.pending_repair.is_empty() {
            return Ok(());
        }
        let evicted = u64::try_from(self.idle.len()).unwrap_or(u64::MAX);
        self.idle.clear();
        self.metrics.set_gauge(names::POOL_IDLE, 0);
        self.repair_stats.evicted += evicted;
        self.metrics.add(names::POOL_REPAIR_EVICTED, evicted);

        let mut ctx = BootCtx::new(&self.repair_clock, model);
        let done = ctx.span(SPAN_REPAIR, |ctx| {
            let spent = self.engine.repair(&self.profile, model)?;
            ctx.charge_span("rebuild", spent);
            if let Some(injector) = injector {
                for &point in &self.pending_repair {
                    injector.heal(point);
                }
            }
            self.pending_repair.clear();
            self.repair_stats.repairs += 1;
            self.repair_stats.repair_time = self.repair_stats.repair_time.saturating_add(spent);
            self.metrics.inc(names::POOL_REPAIR_COUNT);
            self.metrics.observe(names::POOL_REPAIR_TIME, spent);
            Ok::<(), PlatformError>(())
        });
        if done.is_err() {
            self.metrics.inc(names::POOL_REPAIR_FAILED);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyzer::{BootMode, CatalyzerEngine};
    use sandbox::GvisorRestoreEngine;

    fn model() -> CostModel {
        CostModel::experimental_machine()
    }

    #[test]
    fn reuses_within_keep_alive_boots_after() {
        let model = model();
        let mut pool = InstancePool::new(
            GvisorRestoreEngine::new(),
            AppProfile::c_hello(),
            SimNanos::from_secs(10),
            4,
        );
        let first = pool.serve_at(SimNanos::ZERO, &model).unwrap();
        assert!(!first.reused);
        assert!(
            first.startup > SimNanos::from_millis(50),
            "first request cold boots"
        );

        let second = pool.serve_at(SimNanos::from_secs(1), &model).unwrap();
        assert!(second.reused, "warm instance must be reused");
        assert!(second.startup < SimNanos::from_millis(1));

        // Past the keep-alive window, the instance is gone: cold again.
        let third = pool.serve_at(SimNanos::from_secs(60), &model).unwrap();
        assert!(!third.reused);
        assert_eq!(
            third.startup, first.startup,
            "where the clock starts must not change what a boot costs"
        );
        assert_eq!(pool.stats().expirations, 1);
        assert_eq!(pool.stats().boots, 2);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn burst_beyond_pool_boots_every_time_but_fork_boot_stays_cheap() {
        let model = model();
        let mut pool = InstancePool::new(
            CatalyzerEngine::standalone(BootMode::Fork),
            AppProfile::c_hello(),
            SimNanos::from_secs(10),
            0, // nothing is ever parked: every request "misses"
        );
        for i in 0..10 {
            let served = pool
                .serve_at(SimNanos::from_millis(i * 10), &model)
                .unwrap();
            assert!(!served.reused);
            assert!(
                served.startup < SimNanos::from_millis(1),
                "fork boot keeps even 100% miss rates sub-ms: {}",
                served.startup
            );
        }
        assert_eq!(pool.stats().boots, 10);
    }

    #[test]
    fn self_healing_pool_repairs_off_the_request_path() {
        use faultsim::{FaultPlan, PointPlan};

        let model = model();
        // One poison fires at sfork-merge inside a [0, 1 ms) window on the
        // platform timeline; nothing else ever faults.
        let plan = FaultPlan::zero(7)
            .with_poison_ratio(1.0)
            .with_point(
                InjectionPoint::SforkMerge,
                PointPlan {
                    rate: 1.0,
                    stall_ratio: 0.0,
                    max_burst: 1,
                },
            )
            .with_window(SimNanos::ZERO, SimNanos::from_millis(1));
        let mut injector = FaultInjector::new(plan);
        let mut pool = InstancePool::new(
            CatalyzerEngine::standalone(BootMode::Fork),
            AppProfile::c_hello(),
            SimNanos::from_secs(10),
            4,
        )
        .with_self_healing();

        // Request path: the poison is only *marked* — no rebuild charged.
        let served = pool
            .serve_with(SimNanos::ZERO, &model, Some(&mut injector))
            .unwrap();
        assert!(served.poisoned, "poison absorbed and reported");
        assert!(served.degraded);
        assert!(!served.reused);
        assert!(
            served.startup < SimNanos::from_millis(10),
            "no inline template rebuild on the request: {}",
            served.startup
        );
        assert!(injector.is_poisoned(InjectionPoint::SforkMerge));

        // Background pass: evict quarantined capacity, rebuild, heal.
        pool.tick_with(SimNanos::from_millis(10), &model, Some(&mut injector))
            .unwrap();
        assert!(!injector.is_poisoned(InjectionPoint::SforkMerge));
        let stats = pool.repair_stats();
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.evicted, 1, "the parked suspect instance");
        assert!(stats.repair_time > SimNanos::ZERO, "rebuild paid offline");
        assert_eq!(pool.metrics().counter("pool.repair.count"), 1);

        // The next request boots from the rebuilt template, clean: a poison
        // left unhealed would fire again outside the fault window.
        let served = pool
            .serve_with(SimNanos::from_millis(20), &model, Some(&mut injector))
            .unwrap();
        assert!(!served.reused, "the suspect instance was evicted");
        assert!(!served.poisoned);
        assert!(!served.degraded);
        // A quiet follow-up tick is a no-op.
        pool.tick(SimNanos::from_millis(30), &model).unwrap();
        assert_eq!(pool.repair_stats().repairs, 1);
    }

    #[test]
    fn max_idle_caps_the_pool() {
        // Five arrivals 1 µs apart, each before the last one finishes. A
        // serve pops an idle instance before it parks one, so a cap of 1 or
        // more holds the one instance each serve frees; a cap of 0 parks
        // none, and every arrival boots.
        let model = model();
        for (cap, boots, reuses, idle) in [(0, 5, 0, 0), (1, 1, 4, 1), (2, 1, 4, 1)] {
            let mut pool = InstancePool::new(
                CatalyzerEngine::standalone(BootMode::Fork),
                AppProfile::c_hello(),
                SimNanos::from_secs(100),
                cap,
            );
            for i in 0..5 {
                pool.serve_at(SimNanos::from_micros(i), &model).unwrap();
            }
            assert_eq!(pool.stats().boots, boots, "cap {cap}");
            assert_eq!(pool.stats().reuses, reuses, "cap {cap}");
            assert!(
                pool.metrics().gauges().eq([(names::POOL_IDLE, idle)]),
                "cap {cap}: {:?}",
                pool.metrics().gauges().collect::<Vec<_>>()
            );
        }
    }
}
