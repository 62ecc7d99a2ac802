//! The open-loop cluster engine: calibrated per-node costs, template
//! transfers, node repairs and node faults as event classes, fleet-scale
//! traces — one event loop for the plain grid and the chaos grid alike.
//!
//! [`Cluster`](super::Cluster) serves requests through real per-node
//! gateways — full fidelity, closed loop. This module is its open-loop
//! sibling, built on the same discrete-event core as
//! [`Simulation::run_fleet`](crate::simulate::Simulation::run_fleet):
//! per-boot microstructure is calibrated once per distinct cost shape, and
//! the trace then flows through the event queue at 10k-function scale. The
//! cluster dynamics the bench sweeps — placement budget versus remote-fork
//! traffic, flash crowds saturating the template holders, transfer faults
//! degrading down the ladder — all live in the event loop:
//!
//! - **reuse** — a warm instance on a routable node serves at the
//!   scheduler hand-off cost;
//! - **local** — a template-holder node under capacity sforks at the
//!   calibrated steady fork cost;
//! - **remote** — holders saturated: a non-holder starts (or joins) a
//!   template transfer ([`Event::TransferComplete`]) and its waiters fork
//!   when it lands. The transfer consults
//!   [`InjectionPoint::TemplateTransfer`]; a transient re-prices the wire,
//!   a poison corrupts the in-flight replica, the request degrades to a
//!   cold boot, and a background [`Event::NodeRepair`] heals the fabric;
//! - **cold** — no reachable template (or the [`RoutingPolicy::LocalCold`]
//!   baseline): pay the registry pull once per node, then the full cold
//!   boot;
//! - **shed** — every routable node at capacity.
//!
//! Holder nodes are *provisioned*: their templates are built offline (the
//! placement budget is exactly the provisioned-concurrency knob), so a
//! holder's first boot already runs at the steady fork cost.
//!
//! **One kernel, an optional chaos layer.** [`ClusterSim::run_cluster`] and
//! [`ClusterSim::run_chaos`] are two thin entry points over the same
//! private loop. `run_chaos` installs a [`ChaosState`] — node crashes,
//! partitions and gray windows from a [`NodePlan`], heartbeat beliefs,
//! hedged transfers, waiter timeouts, re-replication. `run_cluster` runs
//! the loop with no chaos state at all: every node is reachable, believed
//! `Up`, at slowdown 1.0, and no crash, heal, heartbeat or hedge event is
//! ever scheduled. `tests/cluster.rs` proves the layer inert: a quiet plan
//! under either policy and no plan at all agree on every outcome field but
//! the event count.
//!
//! **One kernel state.** The loop's state is a private `Kernel`: its one
//! `match` calls one method per event class, its counters are the fields
//! of the [`ChaosOutcome`] it returns, and keep-alive is the fleet's own
//! warm set, one per node and function. Debug builds check after every
//! pop that virtual time never runs back and that the nodes' instance
//! counts sum to the arena's, and every `ARENA_CHECK_EVERY` pops that each
//! live instance is busy or parked in exactly one warm set whose count is
//! exact.
//!
//! Determinism is byte-exact: same catalogue, config, knobs, and trace —
//! same [`ClusterOutcome`], including the routing-decision hash.

use std::collections::BTreeSet;

use faultsim::{FaultInjector, FaultKind, FaultPlan, InjectionPoint, NodePlan};
use runtimes::AppProfile;
use sandbox::BootCtx;
use serde::Serialize;
use simtime::{CostModel, LatencyHistogram, SimNanos};

use super::chaos::{
    within_heartbeat_horizon, ChaosEvent, ChaosPolicy, ChaosRecord, ChaosState, NodeHealth,
    HEDGE_DELAY, TRANSFER_TIMEOUT,
};
use super::{transfer_time, ClusterConfig, RoutingPolicy, COLD_PULL};
use crate::simulate::{
    calibrate_shapes, fraction, validate_trace, Arena, Event, EventQueue, FnId, Instance,
    InstanceId, Quantiles, ShapeCost, TraceRequest, WarmSet, REUSE_HANDOFF,
};
use crate::PlatformError;

use catalyzer::{BootMode, Catalyzer};

/// How one request was served — the alphabet of the routing history hash.
const ROUTE_REUSE: u64 = 0;
const ROUTE_LOCAL: u64 = 1;
const ROUTE_REMOTE: u64 = 2;
const ROUTE_COLD: u64 = 3;
const ROUTE_SHED: u64 = 4;
/// The request was routed at a node the fabric could not reach (crash or
/// partition) and failed typed — chaos runs only.
const ROUTE_FAILED: u64 = 5;

/// Background delay before a poisoned transfer fabric is repaired.
const REPAIR_DELAY: SimNanos = SimNanos::from_millis(5);

/// Retry backoff charged when a transfer absorbs a transient or stall.
const TRANSFER_BACKOFF: SimNanos = SimNanos::from_micros(200);

/// Debug builds run [`Kernel::check_arena`] once this many pops, so that
/// its O(arena) pass stays a small share of a debug run.
const ARENA_CHECK_EVERY: u64 = 64;

/// Builder for an open-loop cluster run: the catalogue, the cluster shape,
/// and the per-node serving knobs.
#[derive(Debug)]
pub struct ClusterSim {
    catalogue: Vec<AppProfile>,
    config: ClusterConfig,
    model: CostModel,
    keep_alive: SimNanos,
    max_idle: usize,
    /// Per-node concurrent-instance cap; `0` means unbounded.
    node_capacity: usize,
    plan: Option<FaultPlan>,
    /// Node-level fault schedule and failover policy, consulted only by
    /// [`ClusterSim::run_chaos`] — [`ClusterSim::run_cluster`] never reads
    /// it, so installing chaos cannot perturb the plain grid.
    chaos: Option<(NodePlan, ChaosPolicy)>,
}

impl ClusterSim {
    /// A cluster simulation over `catalogue` with shape `config` and
    /// defaults matching the single-node fleet engine: 5 s keep-alive, a
    /// warm set of 4 per (node, function), unbounded node capacity.
    pub fn new(catalogue: impl Into<Vec<AppProfile>>, config: ClusterConfig) -> ClusterSim {
        ClusterSim {
            catalogue: catalogue.into(),
            config,
            model: CostModel::experimental_machine(),
            keep_alive: SimNanos::from_secs(5),
            max_idle: 4,
            node_capacity: 0,
            plan: None,
            chaos: None,
        }
    }

    /// Replaces the cost model, builder-style.
    pub fn with_model(mut self, model: CostModel) -> ClusterSim {
        self.model = model;
        self
    }

    /// Sets the keep-alive window, builder-style.
    pub fn with_keep_alive(mut self, keep_alive: SimNanos) -> ClusterSim {
        self.keep_alive = keep_alive;
        self
    }

    /// Caps the warm set per (node, function), builder-style.
    pub fn with_max_idle(mut self, max_idle: usize) -> ClusterSim {
        self.max_idle = max_idle;
        self
    }

    /// Caps concurrent instances per node (`0` = unbounded), builder-style
    /// — the density axis of the bench sweep.
    pub fn with_node_capacity(mut self, node_capacity: usize) -> ClusterSim {
        self.node_capacity = node_capacity;
        self
    }

    /// Arms the deterministic fault injector with `plan`, builder-style.
    /// Only the template-transfer seam is consulted at cluster fleet
    /// scale; boot-path faults are the single-node engines' concern.
    pub fn with_faults(mut self, plan: FaultPlan) -> ClusterSim {
        self.plan = Some(plan);
        self
    }

    /// Installs a node-level fault schedule and failover policy,
    /// builder-style. Drive the run with [`ClusterSim::run_chaos`];
    /// [`ClusterSim::run_cluster`] ignores this field entirely.
    pub fn with_chaos(mut self, plan: NodePlan, policy: ChaosPolicy) -> ClusterSim {
        self.chaos = Some((plan, policy));
        self
    }
}

/// What one open-loop cluster run produced: the nodes × placement-budget ×
/// routing-policy grid cell.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClusterOutcome {
    /// Requests in the trace.
    pub requests: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests shed with every node at capacity.
    pub shed: u64,
    /// Requests served by a warm instance.
    pub reuses: u64,
    /// Requests served by a local sfork on a template holder.
    pub local: u64,
    /// Requests served by a remote sfork (transfer started or joined).
    pub remote: u64,
    /// Requests served by a cold boot.
    pub cold: u64,
    /// Requests pushed off the template-local nodes by saturation.
    pub reroutes: u64,
    /// Template transfers started.
    pub transfers: u64,
    /// Transfers that absorbed an injected fault.
    pub transfer_faults: u64,
    /// Background node repairs after poisoned transfers.
    pub node_repairs: u64,
    /// Instances reclaimed by keep-alive expiry.
    pub expirations: u64,
    /// Events the queue processed: arrivals consumed (read off the trace,
    /// never scheduled) plus events scheduled, failover re-arrivals
    /// included.
    pub events: u64,
    /// Virtual time of the last event.
    pub horizon: SimNanos,
    /// Most instances ever live at once, per node — the density profile
    /// placement is trading against.
    pub per_node_peak: Vec<usize>,
    /// `max(per_node_peak)`.
    pub peak_node_instances: usize,
    /// `completed / requests` — under chaos, the survivability gate's
    /// headline availability.
    pub goodput: f64,
    /// `cold / requests` — what the remote rung is suppressing.
    pub cold_rate: f64,
    /// Startup-latency distribution across every served request.
    pub startup: Quantiles,
    /// End-to-end (startup + execution) distribution.
    pub end_to_end: Quantiles,
    /// Startup distribution of the remote-sfork rung alone.
    pub remote_startup: Quantiles,
    /// Startup distribution of the cold rung alone.
    pub cold_startup: Quantiles,
    /// FNV-1a digest of every routing decision `(request, node, kind)` in
    /// order — two same-seed runs must agree byte-for-byte.
    pub route_hash: u64,
}

/// What one chaos run produced: the plain cluster outcome plus the
/// fault/repair ledger. A separate struct — not new [`ClusterOutcome`]
/// fields — so the chaos layer cannot move a byte of the plain grid's
/// serialized output.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ChaosOutcome {
    /// The underlying cluster outcome. Conservation under chaos is
    /// `cluster.completed + cluster.shed + failed == cluster.requests`.
    pub cluster: ClusterOutcome,
    /// Requests that failed outright: killed in flight by a crash, routed
    /// at an unreachable node, or hung on an orphaned transfer. Failures,
    /// not sheds — capacity existed, the fabric (or the policy) lost them.
    pub failed: u64,
    /// Of `failed`: transfer waiters still stranded when the run ended
    /// (the no-failover baseline's signature pathology).
    pub hung: u64,
    /// Scheduled node crashes that fired.
    pub crashes: u64,
    /// Heartbeat rounds the health tracker ran.
    pub heartbeats: u64,
    /// Heartbeat transitions into `Suspect` — gray nodes caught slow-ack.
    pub suspected: u64,
    /// Waiters re-routed off an aborted transfer by the failover policy.
    pub failovers: u64,
    /// Template replicas rebuilt on new holders after a crash.
    pub rereplications: u64,
    /// Hedged (second-source) transfers fired.
    pub hedges: u64,
    /// Hedges that beat their primary (the loser's completion lazy-misses
    /// on its stale generation).
    pub hedge_wins: u64,
    /// In-flight transfers aborted by a source-node crash.
    pub aborted_transfers: u64,
    /// Requests that failed typed at an unreachable node.
    pub unreachable: u64,
    /// The chaos observation history, in order — byte-identical across
    /// same-seed runs.
    pub chaos_log: Vec<ChaosRecord>,
}

/// Calibrated per-function costs.
#[derive(Clone, Copy)]
struct ClusterFn {
    /// Local sfork on a provisioned holder, and the child's handler run.
    fork: ShapeCost,
    /// Template transfer to a non-holder (from the cost model).
    transfer: SimNanos,
    /// Full cold boot (restore path), excluding the registry pull.
    cold_boot: SimNanos,
}

/// Per-node aggregates.
#[derive(Clone, Default)]
struct NodeState {
    /// Instances (busy + warm) live on the node.
    live: usize,
    /// High-water mark of `live`.
    peak: usize,
    /// A repair event is already queued for this node.
    repair_pending: bool,
}

/// One in-flight template transfer — a first-class object: it knows its
/// source (so a source crash can abort it), carries a generation (so a
/// cancelled or hedged-out completion lazy-misses), and holds its waiters
/// (so the initiator and every joiner share one fate: fork when it lands,
/// time out and re-route when it aborts).
struct Transfer {
    /// Generation this transfer's events carry; stale events miss.
    gen: u32,
    /// The holder node sourcing the template.
    source: usize,
    /// When the template lands — [`SimNanos::MAX`] marks an orphan whose
    /// source crashed under the no-failover baseline.
    done: SimNanos,
    /// A hedge already fired (or is suppressed) for this transfer.
    hedged: bool,
    /// Requests (and their reserved instances) forking when it lands.
    waiters: Vec<(u64, InstanceId)>,
}

/// Per-(node, function) serving state.
#[derive(Default)]
struct Replica {
    /// The node physically holds a usable template replica (placement
    /// holder, or a completed transfer).
    has_template: bool,
    /// The in-flight transfer targeting this node, if any.
    transfer: Option<Transfer>,
    /// Monotone per-slot generation source: every transfer (and every
    /// orphaning) takes the next value, so no stale event ever collides.
    gen_counter: u32,
    /// The cold image has been pulled to this node already.
    pulled: bool,
    warm: WarmSet,
}

impl Replica {
    /// Takes the slot's next generation.
    fn next_gen(&mut self) -> u32 {
        self.gen_counter += 1;
        self.gen_counter - 1
    }
}

/// `t` stretched by a gray node's latency multiplier; the healthy `1.0`
/// case takes the untouched value, not a `scale(1.0)` round-trip.
fn stretch(t: SimNanos, slowdown: f64) -> SimNanos {
    if slowdown > 1.0 {
        t.scale(slowdown)
    } else {
        t
    }
}

impl ClusterSim {
    /// Drives `trace` through the open-loop cluster engine with no chaos
    /// layer — see the module docs for the rung semantics. This is the
    /// entry point the `BENCH_pr8` grid sweeps.
    ///
    /// # Errors
    ///
    /// [`PlatformError::ClusterConfig`] for a zero node count or placement
    /// budget; [`PlatformError::InvalidTrace`] for malformed traces;
    /// engine or handler errors surfaced during calibration.
    pub fn run_cluster(self, trace: &[TraceRequest]) -> Result<ClusterOutcome, PlatformError> {
        Ok(self.drive(trace, None)?.cluster)
    }

    /// Drives `trace` through the same engine with the installed
    /// [`NodePlan`] misbehaving underneath and the [`ChaosPolicy`] deciding
    /// what the scheduler does about it — health-aware routing, holder
    /// re-replication, hedged transfers, and waiter timeouts under
    /// [`ChaosPolicy::full`]; static-placement routing that fails typed,
    /// hangs, and sheds under [`ChaosPolicy::none`]. Without
    /// [`ClusterSim::with_chaos`] the plan is quiet and the policy full.
    ///
    /// Requests end in exactly one of three buckets — completed, shed,
    /// failed — and `completed + shed + failed == requests` under every
    /// schedule. Rung counters (`local`, `remote`, ...) count *routings*:
    /// a request re-routed after a transfer abort is routed twice.
    ///
    /// # Errors
    ///
    /// [`PlatformError::ClusterConfig`] for a zero node count, zero
    /// placement budget, or a plan touching a node the cluster lacks;
    /// [`PlatformError::InvalidTrace`], including
    /// [`TraceError::Horizon`](crate::TraceError::Horizon) when the last
    /// arrival is more than
    /// [`MAX_HEARTBEAT_ROUNDS`](super::chaos::MAX_HEARTBEAT_ROUNDS)
    /// heartbeat intervals out; calibration errors.
    pub fn run_chaos(mut self, trace: &[TraceRequest]) -> Result<ChaosOutcome, PlatformError> {
        let chaos = self
            .chaos
            .take()
            .unwrap_or((NodePlan::quiet(0), ChaosPolicy::full()));
        self.drive(trace, Some(chaos))
    }

    /// The cluster kernel: the one event loop behind both entry points,
    /// one [`Kernel`] method per event class. `chaos` is the optional
    /// node-fault layer; with `None` there is no [`ChaosState`], every node
    /// stays reachable, believed `Up` and at slowdown 1.0, and the
    /// crash/heal/heartbeat/hedge classes are never scheduled.
    #[deny(
        clippy::wildcard_enum_match_arm,
        reason = "every `Event` variant is matched by name, so a new one does not compile until this loop handles it"
    )]
    fn drive(
        self,
        trace: &[TraceRequest],
        chaos: Option<(NodePlan, ChaosPolicy)>,
    ) -> Result<ChaosOutcome, PlatformError> {
        self.config.ensure_valid()?;
        let queue = EventQueue::over(validate_trace(trace, self.catalogue.len())?);
        // The heartbeat chain ticks up to the last arrival: bound its
        // rounds before any calibration work.
        let hb_end = trace.last().map_or(SimNanos::ZERO, |r| r.arrival);
        if chaos.is_some() {
            within_heartbeat_horizon(hb_end)?;
        }
        let fns = self.calibrate()?;
        let chaos = chaos
            .map(|(plan, policy)| ChaosState::new(plan, policy, self.config.nodes))
            .transpose()?;
        let mut k = Kernel::new(self, trace, queue, fns, chaos);
        // The node-fault schedule: crashes, partition heals and the
        // heartbeat chain, which ticks up to the last arrival.
        if let Some(c) = &mut k.chaos {
            c.schedule(&mut k.queue, hb_end);
        }

        while let Some((now, event)) = k.queue.pop() {
            k.check_invariants(now);
            k.out.cluster.horizon = now;
            match event {
                Event::Arrival { request } => k.arrival(now, request),
                Event::ExecComplete { instance, .. } => k.exec_complete(now, instance),
                Event::KeepAliveExpiry { instance } => k.expiry(now, instance),
                Event::TransferComplete {
                    node,
                    function,
                    gen,
                } => k.transfer_complete(now, node, function, gen),
                Event::NodeRepair { node } => k.node_repair(node),
                Event::NodeCrash { node } => k.node_crash(now, node),
                Event::PartitionHeal { epoch } => {
                    if let Some(c) = &mut k.chaos {
                        c.heal(epoch, now);
                    }
                }
                Event::HedgeFire {
                    node,
                    function,
                    gen,
                } => k.hedge_fire(now, node, function, gen),
                Event::HeartbeatTick { round } => {
                    if let Some(c) = &mut k.chaos {
                        c.tick(round, now, &mut k.queue);
                    }
                }
                // Never scheduled by the cluster kernel: boots collapse
                // into `ExecComplete`, and pools tick only in `run_fleet`.
                Event::BootComplete { .. } | Event::PoolTick { .. } => {}
            }
        }
        Ok(k.finish())
    }

    /// Boots each distinct cost shape on one real [`Catalyzer`], initialised
    /// once: [`Catalyzer::prepare_image_and_template`] runs the profile to its
    /// entry point a single time and derives both the func-image and the
    /// template sandbox from that program, on offline clocks (holders are
    /// provisioned, so only boots are on-path). From it: the local sfork
    /// and the child's handler execution, plus the full cold restore for
    /// the rung the remote fork is competing against. Functions differing
    /// only in name share one calibration.
    fn calibrate(&self) -> Result<Vec<ClusterFn>, PlatformError> {
        let costs = calibrate_shapes(&self.catalogue, |profile| shape_costs(profile, &self.model))?;
        Ok(self
            .catalogue
            .iter()
            .zip(costs)
            .map(|(profile, (fork, cold_boot))| ClusterFn {
                fork,
                transfer: transfer_time(profile),
                cold_boot,
            })
            .collect())
    }
}

/// One shape's cluster calibration: its fork [`ShapeCost`] and its cold
/// boot, both from one [`Catalyzer`] initialised once.
fn shape_costs(
    profile: &AppProfile,
    model: &CostModel,
) -> Result<(ShapeCost, SimNanos), PlatformError> {
    let mut system = Catalyzer::new();
    system.prepare_image_and_template(profile, model)?;
    let fork = ShapeCost::measure(model, |ctx| system.boot(BootMode::Fork, profile, ctx))?;
    let mut ctx = BootCtx::fresh(model);
    system.boot(BootMode::Cold, profile, &mut ctx)?;
    Ok((fork, ctx.now()))
}

/// One request being routed, or served, at `now`.
#[derive(Clone, Copy)]
struct Call {
    now: SimNanos,
    request: u64,
    function: usize,
    /// Time since the trace arrival: a failover re-arrival, or a waiter
    /// on a transfer, is served later, and its latency honestly includes
    /// the wait.
    lag: SimNanos,
    f: ClusterFn,
}

/// The cluster kernel's state between events, and one method per event
/// class. Its counters are the fields of the [`ChaosOutcome`] it returns.
struct Kernel<'t> {
    sim: ClusterSim,
    trace: &'t [TraceRequest],
    queue: EventQueue<'t>,
    fns: Vec<ClusterFn>,
    nodes: usize,
    /// Template holders per function at placement.
    replicas: usize,
    /// Health-aware routing, re-replication, hedging and waiter timeouts;
    /// off both for the no-failover baseline and for a run with no chaos
    /// layer, where static placement is simply true.
    failover: bool,
    injector: Option<FaultInjector>,
    chaos: Option<ChaosState>,
    /// Per-(node, function) serving state, indexed by [`Kernel::slot`].
    state: Vec<Replica>,
    node_state: Vec<NodeState>,
    /// Every live instance, tagged with its node.
    instances: Arena<Instance<usize>>,
    /// What the scheduler sees of each node at the current arrival:
    /// physically reachable, gray stretch, and eligible for new work.
    /// `reach`/`slow` are re-read from the chaos layer when an arrival
    /// passes a plan instant and `elig` is re-derived per arrival; without
    /// a chaos layer they keep these inert values for the whole run.
    reach: Vec<bool>,
    slow: Vec<f64>,
    elig: Vec<bool>,
    startup: LatencyHistogram,
    e2e: LatencyHistogram,
    remote: LatencyHistogram,
    cold: LatencyHistogram,
    out: ChaosOutcome,
}

impl<'t> Kernel<'t> {
    fn new(
        mut sim: ClusterSim,
        trace: &'t [TraceRequest],
        queue: EventQueue<'t>,
        fns: Vec<ClusterFn>,
        chaos: Option<ChaosState>,
    ) -> Kernel<'t> {
        let nodes = sim.config.nodes;
        let width = fns.len();
        // Placement: the same round-robin spread as the closed-loop
        // scheduler — holders are provisioned (template built offline).
        let replicas = sim.config.placement_budget.min(nodes);
        let mut state: Vec<Replica> = Vec::new();
        state.resize_with(nodes.saturating_mul(width), Replica::default);
        for f in 0..width {
            for r in 0..replicas {
                state[(f + r) % nodes * width + f].has_template = true;
            }
        }
        let instances = Arena::with_capacity(trace.len().min(1 << 20));
        Kernel {
            failover: chaos.as_ref().is_some_and(|c| c.policy().failover),
            injector: sim.plan.take().map(FaultInjector::new),
            sim,
            trace,
            queue,
            fns,
            nodes,
            replicas,
            chaos,
            state,
            node_state: vec![NodeState::default(); nodes],
            instances,
            reach: vec![true; nodes],
            slow: vec![1.0; nodes],
            elig: vec![true; nodes],
            startup: LatencyHistogram::new(),
            e2e: LatencyHistogram::new(),
            remote: LatencyHistogram::new(),
            cold: LatencyHistogram::new(),
            out: ChaosOutcome {
                cluster: ClusterOutcome {
                    requests: u64::try_from(trace.len()).unwrap_or(u64::MAX),
                    route_hash: 0xcbf2_9ce4_8422_2325,
                    ..ClusterOutcome::default()
                },
                ..ChaosOutcome::default()
            },
        }
    }

    /// Debug builds, after every pop: virtual time never runs back, and
    /// the nodes' instance counts sum to the arena's. Every
    /// [`ARENA_CHECK_EVERY`] pops, the O(arena) [`Kernel::check_arena`].
    fn check_invariants(&self, now: SimNanos) {
        debug_assert!(now >= self.out.cluster.horizon, "time ran back to {now}");
        debug_assert_eq!(
            self.node_state.iter().map(|n| n.live).sum::<usize>(),
            self.instances.len(),
            "per-node live counts drifted from the arena"
        );
        // Events entered less those pending: the pops so far.
        if cfg!(debug_assertions)
            && (self.queue.scheduled() - self.queue.len() as u64).is_multiple_of(ARENA_CHECK_EVERY)
        {
            self.check_arena();
        }
    }

    /// Every live instance is busy or parked in exactly one warm set, and
    /// each set's count is its parked instances.
    fn check_arena(&self) {
        let mut parked = BTreeSet::new();
        for s in &self.state {
            let before = parked.len();
            for id in s.warm.parked(&self.instances) {
                let once = parked.insert(id);
                debug_assert!(once, "{id:?} parked twice");
            }
            let count = parked.len() - before;
            debug_assert_eq!(count, s.warm.live(), "a warm set miscounts");
        }
        let busy = self.instances.iter().filter(|(_, i)| i.busy()).count();
        debug_assert_eq!(
            parked.len() + busy,
            self.instances.len(),
            "an instance is neither busy nor parked in one warm set"
        );
    }

    /// Index of `(node, function)` in `state`.
    fn slot(&self, node: usize, function: usize) -> usize {
        node * self.fns.len() + function
    }

    /// The least-loaded node `ok` admits, the lowest-indexed on a tie.
    fn least_loaded(&self, ok: impl Fn(usize) -> bool) -> Option<usize> {
        (0..self.nodes)
            .filter(|&n| ok(n))
            .min_by_key(|&n| (self.node_state[n].live, n))
    }

    /// Eligible for new work and under capacity (`0` is unbounded).
    fn open(&self, node: usize) -> bool {
        let cap = self.sim.node_capacity;
        self.elig[node] && (cap == 0 || self.node_state[node].live < cap)
    }

    /// The scheduler believes `node` holds `function`'s template. Full
    /// policy believes physical placement (crashes clear it,
    /// re-replication restores it); otherwise the scheduler believes the
    /// original round-robin spread.
    fn believed(&self, node: usize, function: usize) -> bool {
        self.state[self.slot(node, function)].has_template
            || (!self.failover && (0..self.replicas).any(|r| (function + r) % self.nodes == node))
    }

    fn reachable(&self, node: usize, now: SimNanos) -> bool {
        self.chaos.as_ref().is_none_or(|c| c.reachable(node, now))
    }

    fn slowdown(&self, node: usize, now: SimNanos) -> f64 {
        self.chaos.as_ref().map_or(1.0, |c| c.slowdown(node, now))
    }

    fn record(&mut self, now: SimNanos, node: usize, kind: ChaosEvent) {
        if let Some(c) = &mut self.chaos {
            c.record(now, node, kind);
        }
    }

    /// `request` at `now`, with its function's costs.
    fn call(&self, now: SimNanos, request: u64) -> Option<Call> {
        let req = self.trace.get(usize::try_from(request).ok()?)?;
        Some(Call {
            now,
            request,
            function: req.function,
            lag: now.saturating_sub(req.arrival),
            f: *self.fns.get(req.function)?,
        })
    }

    /// Folds one routing decision `(request, node, kind)` into the FNV-1a
    /// routing-history hash.
    fn mix(&mut self, request: u64, node: u64, kind: u64) {
        let hash = &mut self.out.cluster.route_hash;
        for value in [request, node, kind] {
            for byte in value.to_le_bytes() {
                *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    /// Re-reads the scheduler's view of the nodes for an arrival at `now`.
    /// Full policy routes only at reachable nodes believed `Up`, falling
    /// back to any reachable node when the belief map offers none. The
    /// baseline believes static placement and routes anywhere — and pays
    /// for it.
    fn look(&mut self, now: SimNanos) {
        let Some(c) = &mut self.chaos else { return };
        if c.passed_an_instant(now) {
            for (n, (r, s)) in self.reach.iter_mut().zip(&mut self.slow).enumerate() {
                *r = c.reachable(n, now);
                *s = c.slowdown(n, now);
            }
        }
        let reach = &self.reach;
        let any_up = (0..self.nodes).any(|n| reach[n] && c.health(n) == NodeHealth::Up);
        for (n, e) in self.elig.iter_mut().enumerate() {
            *e = !self.failover || (reach[n] && (!any_up || c.health(n) == NodeHealth::Up));
        }
    }

    /// The call was routed at a node the fabric cannot reach (crash or
    /// partition): it fails typed.
    fn fail_unreachable(&mut self, call: &Call, node: usize) {
        self.out.failed += 1;
        self.out.unreachable += 1;
        self.record(call.now, node, ChaosEvent::Unreachable);
        self.mix(call.request, node as u64, ROUTE_FAILED);
    }

    /// Commits the routing decision: hashes it and reserves a busy
    /// instance on `node`.
    fn place(&mut self, call: &Call, node: usize, kind: u64) -> InstanceId {
        self.mix(call.request, node as u64, kind);
        let ns = &mut self.node_state[node];
        ns.live += 1;
        ns.peak = ns.peak.max(ns.live);
        let function = FnId::from_index(call.function);
        self.instances.insert(Instance::serving(function, node))
    }

    /// Starts serving the call on `id` after `cost` of startup, its handler
    /// stretched by `slowdown`; returns the startup latency.
    fn serve(&mut self, call: &Call, id: InstanceId, cost: SimNanos, slowdown: f64) -> SimNanos {
        let startup = call.lag.saturating_add(cost);
        let exec = stretch(call.f.fork.exec, slowdown);
        self.startup.record(startup);
        self.e2e.record(startup.saturating_add(exec));
        let (request, instance) = (call.request, id);
        let done = call.now.saturating_add(cost).saturating_add(exec);
        self.queue
            .schedule(done, Event::ExecComplete { request, instance });
        startup
    }

    /// Routes one arrival down the ladder — reuse, local sfork, remote
    /// sfork, cold — or sheds it.
    fn arrival(&mut self, now: SimNanos, request: u64) {
        let Some(call) = self.call(now, request) else {
            return;
        };
        let fi = call.function;
        self.look(now);

        // Rung 0 — reuse: the lowest-indexed routable node with a parked
        // warm instance serves at the hand-off cost.
        let warm =
            (0..self.nodes).find(|&n| self.elig[n] && self.state[self.slot(n, fi)].warm.live() > 0);
        if let Some(node) = warm {
            if !self.reach[node] {
                // Baseline only: the believed-warm node is on an island —
                // the request fails typed and the instance stays parked.
                return self.fail_unreachable(&call, node);
            }
            let i = self.slot(node, fi);
            if let Some(id) = self.state[i].warm.reuse(&mut self.instances) {
                self.out.cluster.reuses += 1;
                self.mix(request, node as u64, ROUTE_REUSE);
                self.serve(&call, id, REUSE_HANDOFF, self.slow[node]);
                return;
            }
        }

        // Rung 1 — local sfork on the least-loaded believed template
        // holder under capacity.
        if let Some(node) = self.least_loaded(|n| self.open(n) && self.believed(n, fi)) {
            if !self.reach[node] {
                return self.fail_unreachable(&call, node);
            }
            self.out.cluster.local += 1;
            let id = self.place(&call, node, ROUTE_LOCAL);
            let slow = self.slow[node];
            self.serve(&call, id, stretch(call.f.fork.boot, slow), slow);
            return;
        }

        // Template-local nodes saturated (or nonexistent): the scheduler
        // pushes the request off-holder. A re-route is only counted when
        // some other node actually serves it — with nowhere to go, the
        // request sheds and only the shed bucket moves.
        //
        // Rung 2a — join the in-flight transfer: the joiner becomes a
        // waiter with the same fate as the initiator (fork when the
        // template lands; timeout and re-route on abort under the full
        // policy; a hang under the baseline).
        let remote_fork = self.sim.config.routing == RoutingPolicy::RemoteFork;
        let joinable = self.least_loaded(|n| {
            remote_fork && self.open(n) && self.state[self.slot(n, fi)].transfer.is_some()
        });
        if let Some(node) = joinable {
            if !self.reach[node] {
                return self.fail_unreachable(&call, node);
            }
            self.out.cluster.reroutes += 1;
            self.out.cluster.remote += 1;
            let id = self.place(&call, node, ROUTE_REMOTE);
            let i = self.slot(node, fi);
            if let Some(t) = self.state[i].transfer.as_mut() {
                t.waiters.push((request, id));
            }
            return;
        }

        // Rung 2b — start a transfer from a holder the policy believes in.
        let transferable = self.least_loaded(|n| {
            let s = &self.state[self.slot(n, fi)];
            remote_fork && self.open(n) && !s.has_template && s.transfer.is_none()
        });
        // A poisoned transfer pins its cold fallback to the node it was
        // headed for: `(node, detection delay)`.
        let mut poisoned = None;
        if let Some(node) = transferable {
            if !self.reach[node] {
                return self.fail_unreachable(&call, node);
            }
            let source = self.least_loaded(|n| {
                n != node && self.believed(n, fi) && (!self.failover || self.reach[n])
            });
            // No holder left anywhere: fall to cold.
            if let Some(src) = source {
                if !self.reach[src] {
                    // Baseline only: the believed holder is gone — the
                    // transfer dies at setup.
                    return self.fail_unreachable(&call, src);
                }
                let Some(detect) = self.start_transfer(&call, node, src) else {
                    return;
                };
                poisoned = Some((node, detect));
            }
        }

        // Rung 3 — cold: registry pull (once per node) plus the full cold
        // boot, on the poisoned transfer's node or the least-loaded
        // routable one. The LocalCold baseline always lands here.
        let coldable = poisoned.or_else(|| {
            self.least_loaded(|n| self.open(n))
                .map(|n| (n, SimNanos::ZERO))
        });
        if let Some((node, detect)) = coldable {
            if !self.reach[node] {
                return self.fail_unreachable(&call, node);
            }
            self.out.cluster.reroutes += 1;
            self.out.cluster.cold += 1;
            let slow = self.slow[node];
            let i = self.slot(node, fi);
            let s = &mut self.state[i];
            let mut cost = detect.saturating_add(stretch(call.f.cold_boot, slow));
            if !s.pulled {
                cost = cost.saturating_add(COLD_PULL);
                s.pulled = true;
            }
            self.cold.record(call.lag.saturating_add(cost));
            let id = self.place(&call, node, ROUTE_COLD);
            self.serve(&call, id, cost, slow);
            return;
        }

        // Every routable node at capacity: shed.
        self.out.cluster.shed += 1;
        self.mix(request, u64::MAX, ROUTE_SHED);
    }

    /// Rung 2b: starts a template transfer from `src` to `node`, the call
    /// its first waiter. A gray source stretches the wire time — exactly
    /// what the hedge exists to beat. A poisoned transfer starts nothing:
    /// it returns the detection delay the call's cold fallback pays.
    fn start_transfer(&mut self, call: &Call, node: usize, src: usize) -> Option<SimNanos> {
        let now = call.now;
        let mut wire = stretch(call.f.transfer, self.slow[src]);
        let fault = self
            .injector
            .as_mut()
            .and_then(|i| i.check(InjectionPoint::TemplateTransfer, now));
        if let Some(fault) = fault {
            self.out.cluster.transfer_faults += 1;
            if fault.kind == FaultKind::Poison {
                // The in-flight replica is corrupt: degrade this request
                // down the ladder and repair the fabric in the background.
                let ns = &mut self.node_state[node];
                if !ns.repair_pending {
                    ns.repair_pending = true;
                    let event = Event::NodeRepair { node: node as u32 };
                    self.queue.schedule(now.saturating_add(REPAIR_DELAY), event);
                }
                return Some(fault.delay);
            }
            // Transient/stall: detection delay plus one retry backoff,
            // then the retry goes through.
            wire = wire
                .saturating_add(fault.delay)
                .saturating_add(TRANSFER_BACKOFF);
        }
        self.out.cluster.reroutes += 1;
        self.out.cluster.remote += 1;
        self.out.cluster.transfers += 1;
        let id = self.place(call, node, ROUTE_REMOTE);
        let done = now.saturating_add(wire);
        let waiters = vec![(call.request, id)];
        let gen = self.begin_transfer(node, call.function, src, done, !self.failover, waiters);
        if self.failover {
            let (node, function) = (node as u32, FnId::from_index(call.function));
            let hedge = Event::HedgeFire {
                node,
                function,
                gen,
            };
            self.queue.schedule(now.saturating_add(HEDGE_DELAY), hedge);
        }
        None
    }

    /// Registers a transfer of `function`'s template from `src` into
    /// `node`, landing at `done`, and schedules its completion; returns the
    /// generation its events carry.
    fn begin_transfer(
        &mut self,
        node: usize,
        function: usize,
        src: usize,
        done: SimNanos,
        hedged: bool,
        waiters: Vec<(u64, InstanceId)>,
    ) -> u32 {
        let i = self.slot(node, function);
        let s = &mut self.state[i];
        let gen = s.next_gen();
        s.transfer = Some(Transfer {
            gen,
            source: src,
            done,
            hedged,
            waiters,
        });
        let (node, function) = (node as u32, FnId::from_index(function));
        let landed = Event::TransferComplete {
            node,
            function,
            gen,
        };
        self.queue.schedule(done, landed);
        gen
    }

    /// An instance finished its request: it parks warm or retires.
    fn exec_complete(&mut self, now: SimNanos, id: InstanceId) {
        let Some(inst) = self.instances.get(id) else {
            return;
        };
        self.out.cluster.completed += 1;
        let (node, i) = (inst.tag, self.slot(inst.tag, inst.function.index()));
        let (keep_alive, max_idle) = (self.sim.keep_alive, self.sim.max_idle);
        let warm = &mut self.state[i].warm;
        if !warm.park(
            id,
            &mut self.instances,
            now,
            keep_alive,
            max_idle,
            &mut self.queue,
        ) {
            self.node_state[node].live -= 1;
        }
    }

    fn expiry(&mut self, now: SimNanos, id: InstanceId) {
        let Some(inst) = self.instances.get(id) else {
            return;
        };
        let (node, i) = (inst.tag, self.slot(inst.tag, inst.function.index()));
        let warm = &mut self.state[i].warm;
        if warm.expire(id, &mut self.instances, now, self.sim.keep_alive) {
            self.out.cluster.expirations += 1;
            self.node_state[node].live -= 1;
        }
    }

    /// A template landed: the node holds it now, and its waiters fork.
    fn transfer_complete(&mut self, now: SimNanos, node: u32, function: FnId, gen: u32) {
        let node = usize::try_from(node).unwrap_or(usize::MAX);
        let i = self.slot(node, function.index());
        let Some(s) = self.state.get_mut(i) else {
            return;
        };
        // Stale generation: aborted, orphaned, hedged out, or the
        // destination crashed — lazy miss.
        let Some(t) = s.transfer.take_if(|t| t.gen == gen) else {
            return;
        };
        s.has_template = true;
        let slowdown = self.slowdown(node, now);
        for (request, id) in t.waiters {
            let call = self.call(now, request);
            let Some(call) = call.filter(|_| self.instances.contains(id)) else {
                continue;
            };
            let startup = self.serve(&call, id, stretch(call.f.fork.boot, slowdown), slowdown);
            self.remote.record(startup);
        }
    }

    fn node_repair(&mut self, node: u32) {
        let node = usize::try_from(node).unwrap_or(usize::MAX);
        if let Some(ns) = self.node_state.get_mut(node) {
            ns.repair_pending = false;
            self.out.cluster.node_repairs += 1;
            if let Some(injector) = &mut self.injector {
                injector.heal(InjectionPoint::TemplateTransfer);
            }
        }
    }

    /// A scheduled crash fires: the node loses its instances, templates and
    /// inbound transfers; transfers it sourced abort.
    fn node_crash(&mut self, now: SimNanos, node: u32) {
        if self.chaos.is_none() {
            return;
        }
        let node = usize::try_from(node).unwrap_or(usize::MAX);
        self.out.crashes += 1;
        self.record(now, node, ChaosEvent::Crash);
        // 1. Kill sweep: every instance on the node dies; busy ones take
        // their requests with them. Their pending events lazy-miss on the
        // bumped arena generation.
        let victims: Vec<InstanceId> = self
            .instances
            .iter()
            .filter(|(_, inst)| inst.tag == node)
            .map(|(id, _)| id)
            .collect();
        for id in victims {
            if self.instances.remove(id).is_some_and(|inst| inst.busy()) {
                self.out.failed += 1;
            }
        }
        if let Some(ns) = self.node_state.get_mut(node) {
            ns.live = 0;
        }
        // 2. Clear the node's per-function state but its generation
        // source, remembering which templates it held for
        // re-replication. A transfer *into* the dead node dies with it —
        // its waiters were just killed above.
        let mut held: Vec<usize> = Vec::new();
        for fi in 0..self.fns.len() {
            let i = self.slot(node, fi);
            let s = &mut self.state[i];
            if s.has_template {
                held.push(fi);
            }
            let gen_counter = s.gen_counter;
            *s = Replica {
                gen_counter,
                ..Replica::default()
            };
        }
        // 3. Abort sweep: transfers *sourced* from the dead node lose their
        // template mid-wire. The full policy times the waiters out onto a
        // fresh route; the baseline orphans them — `done = MAX`,
        // generation bumped so the pending completion lazy-misses, and the
        // waiters hang.
        for i in 0..self.state.len() {
            let n = i / self.fns.len();
            let s = &mut self.state[i];
            if n == node || s.transfer.as_ref().is_none_or(|t| t.source != node) {
                continue;
            }
            if !self.failover {
                let gen = s.next_gen();
                if let Some(t) = s.transfer.as_mut() {
                    t.done = SimNanos::MAX;
                    t.gen = gen;
                }
            }
            let waiters = s.transfer.take_if(|_| self.failover);
            self.out.aborted_transfers += 1;
            self.record(now, n, ChaosEvent::TransferAbort);
            let Some(t) = waiters else {
                continue;
            };
            for (request, id) in t.waiters {
                if self.instances.remove(id).is_some() {
                    self.node_state[n].live -= 1;
                }
                self.out.failovers += 1;
                let retry = Event::Arrival { request };
                self.queue
                    .schedule(now.saturating_add(TRANSFER_TIMEOUT), retry);
            }
            self.record(now, n, ChaosEvent::Failover);
        }
        // 4. Re-replication: the full policy rebuilds each lost template
        // back up to the placement budget, from the least-loaded surviving
        // holder onto the lowest reachable non-holder. Background repairs
        // are not hedged and carry no waiters.
        if !self.failover {
            return;
        }
        for fi in held {
            let holds =
                |n: usize| self.state[self.slot(n, fi)].has_template && self.reachable(n, now);
            if (0..self.nodes).filter(|&n| holds(n)).count() >= self.replicas {
                continue;
            }
            let dest = (0..self.nodes).find(|&n| {
                let s = &self.state[self.slot(n, fi)];
                self.reachable(n, now) && !s.has_template && s.transfer.is_none()
            });
            let (Some(dest), Some(src)) = (dest, self.least_loaded(holds)) else {
                continue;
            };
            let wire = stretch(self.fns[fi].transfer, self.slowdown(src, now));
            let done = now.saturating_add(REPAIR_DELAY).saturating_add(wire);
            self.begin_transfer(dest, fi, src, done, true, Vec::new());
            self.out.rereplications += 1;
            self.record(now, dest, ChaosEvent::Rereplicate);
        }
    }

    /// A transfer's hedge delay elapsed: a second source, distinct from the
    /// primary — the least-loaded other reachable holder — races it once.
    fn hedge_fire(&mut self, now: SimNanos, node: u32, function: FnId, gen: u32) {
        let node = usize::try_from(node).unwrap_or(usize::MAX);
        let fi = function.index();
        let i = self.slot(node, fi);
        let Some(t) = self.state.get(i).and_then(|s| s.transfer.as_ref()) else {
            return;
        };
        if self.chaos.is_none() || t.gen != gen || t.hedged {
            return;
        }
        let (primary, primary_done) = (t.source, t.done);
        let alt = self.least_loaded(|n| {
            n != node
                && n != primary
                && self.state[self.slot(n, fi)].has_template
                && self.reachable(n, now)
        });
        let Some(t) = self.state[i].transfer.as_mut() else {
            return;
        };
        t.hedged = true;
        let Some(alt) = alt else {
            return;
        };
        let alt_done = now.saturating_add(stretch(self.fns[fi].transfer, self.slowdown(alt, now)));
        self.out.hedges += 1;
        self.record(now, node, ChaosEvent::HedgeFired);
        if alt_done >= primary_done {
            return;
        }
        // The hedge wins: re-point the transfer at the new source under a
        // fresh generation. The primary's completion event now
        // lazy-misses — cancellation by generation, no un-scheduling.
        self.out.hedge_wins += 1;
        self.record(now, node, ChaosEvent::HedgeWon);
        self.out.cluster.transfers += 1;
        let waiters = self.state[i]
            .transfer
            .take()
            .map_or_else(Vec::new, |t| t.waiters);
        self.begin_transfer(node, fi, alt, alt_done, true, waiters);
    }

    /// End sweep — waiters still parked on an orphaned transfer never got
    /// a completion path: the baseline's hang, counted as failed — then
    /// the digests.
    fn finish(mut self) -> ChaosOutcome {
        let horizon = self.out.cluster.horizon;
        for (i, s) in self.state.iter().enumerate() {
            let Some(t) = s.transfer.as_ref().filter(|t| t.done == SimNanos::MAX) else {
                continue;
            };
            for &(_, id) in &t.waiters {
                if self.instances.contains(id) {
                    self.out.hung += 1;
                    self.out.failed += 1;
                    if let Some(c) = &mut self.chaos {
                        c.record(horizon, i / self.fns.len(), ChaosEvent::Hung);
                    }
                }
            }
        }
        let mut out = self.out;
        let c = &mut out.cluster;
        c.events = self.queue.scheduled();
        c.per_node_peak = self.node_state.iter().map(|n| n.peak).collect();
        c.peak_node_instances = c.per_node_peak.iter().copied().max().unwrap_or(0);
        c.goodput = fraction(c.completed, c.requests);
        c.cold_rate = fraction(c.cold, c.requests);
        c.startup = Quantiles::from_histogram(&self.startup);
        c.end_to_end = Quantiles::from_histogram(&self.e2e);
        c.remote_startup = Quantiles::from_histogram(&self.remote);
        c.cold_startup = Quantiles::from_histogram(&self.cold);
        if let Some(chaos) = self.chaos {
            out.heartbeats = chaos.heartbeats();
            out.suspected = chaos.count(ChaosEvent::Suspect);
            out.chaos_log = chaos.into_log();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::chaos::{heartbeat_horizon, MAX_HEARTBEAT_ROUNDS};
    use super::super::Cluster;
    use super::*;
    use crate::TraceError;

    fn burst(n: u64, function: usize) -> Vec<TraceRequest> {
        (0..n)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_nanos(i),
                function,
            })
            .collect()
    }

    #[test]
    fn single_node_cluster_serves_everything_locally() {
        let trace: Vec<TraceRequest> = (0..50u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_millis(i.saturating_mul(5)),
                function: 0,
            })
            .collect();
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(1, 1))
            .run_cluster(&trace)
            .unwrap();
        assert_eq!(out.completed, 50);
        assert_eq!(out.shed, 0);
        assert_eq!(out.remote, 0);
        assert_eq!(out.cold, 0);
        assert_eq!(out.local + out.reuses, 50);
        assert!((out.goodput - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn flash_crowd_remote_fork_beats_the_cold_baseline() {
        let trace = burst(350, 0);
        let cell = |routing: RoutingPolicy| {
            let mut config = ClusterConfig::new(4, 1);
            config.routing = routing;
            ClusterSim::new(vec![AppProfile::c_hello()], config)
                .with_node_capacity(100)
                .run_cluster(&trace)
                .unwrap()
        };
        let forked = cell(RoutingPolicy::RemoteFork);
        let baseline = cell(RoutingPolicy::LocalCold);
        assert_eq!(forked.shed, 0, "{forked:?}");
        assert!(forked.remote > 0, "{forked:?}");
        assert_eq!(forked.cold, 0, "remote sfork suppresses cold boots");
        assert!(baseline.cold > 0, "{baseline:?}");
        assert!(
            forked.startup.p99 < baseline.startup.p99,
            "remote {:?} vs cold {:?}",
            forked.startup,
            baseline.startup
        );
        assert!(forked.cold_rate < baseline.cold_rate);
    }

    #[test]
    fn poisoned_transfers_degrade_to_cold_and_repair() {
        let plan = FaultPlan::zero(0xC11)
            .with_point(
                InjectionPoint::TemplateTransfer,
                faultsim::PointPlan {
                    rate: 1.0,
                    stall_ratio: 0.0,
                    max_burst: 1,
                },
            )
            .with_poison_ratio(1.0);
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
            .with_node_capacity(40)
            .with_faults(plan)
            .run_cluster(&burst(150, 0))
            .unwrap();
        assert_eq!(out.completed + out.shed, out.requests);
        assert!(out.transfer_faults > 0, "{out:?}");
        assert!(out.cold > 0, "poisoned transfers fall to the cold rung");
        assert!(out.node_repairs > 0, "repairs run in the background");
    }

    #[test]
    fn transient_transfer_faults_only_slow_the_wire() {
        let plan = FaultPlan::zero(0xC12).with_point(
            InjectionPoint::TemplateTransfer,
            faultsim::PointPlan {
                rate: 1.0,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        );
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
            .with_node_capacity(64)
            .with_faults(plan)
            .run_cluster(&burst(150, 0))
            .unwrap();
        assert_eq!(out.shed, 0);
        assert!(out.transfer_faults > 0);
        assert_eq!(out.cold, 0, "transients retry on the remote rung");
        assert_eq!(out.completed, out.requests);
    }

    fn chaos_cell(
        nodes: usize,
        budget: usize,
        plan: NodePlan,
        policy: ChaosPolicy,
        n: u64,
    ) -> ChaosOutcome {
        ClusterSim::new(
            vec![AppProfile::c_hello()],
            ClusterConfig::new(nodes, budget),
        )
        .with_node_capacity(100)
        .with_chaos(plan, policy)
        .run_chaos(&burst(n, 0))
        .unwrap()
    }

    #[test]
    fn quiet_chaos_conserves_and_fails_nothing() {
        let out = chaos_cell(4, 2, NodePlan::quiet(0), ChaosPolicy::full(), 300);
        assert_eq!(out.failed, 0);
        assert_eq!(out.hung, 0);
        assert_eq!(out.crashes, 0);
        assert_eq!(
            out.cluster.completed + out.cluster.shed + out.failed,
            out.cluster.requests
        );
        assert!((out.cluster.goodput - 1.0).abs() < f64::EPSILON, "{out:?}");
    }

    #[test]
    fn holder_crash_fails_over_and_rereplicates() {
        // Nodes 0 and 1 hold the replicas; node 0 dies mid-run. The full
        // policy re-routes everything and rebuilds the lost replica from
        // node 1; the baseline keeps routing at the corpse (it looks
        // idle!) and fails typed.
        let trace: Vec<TraceRequest> = (0..200u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(i.saturating_mul(50)),
                function: 0,
            })
            .collect();
        let plan = || NodePlan::quiet(1).with_crash(0, SimNanos::from_millis(3));
        let cell = |policy: ChaosPolicy| {
            ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(4, 2))
                .with_node_capacity(100)
                .with_chaos(plan(), policy)
                .run_chaos(&trace)
                .unwrap()
        };
        let full = cell(ChaosPolicy::full());
        let none = cell(ChaosPolicy::none());
        assert_eq!(full.crashes, 1);
        assert!(full.rereplications > 0, "{full:?}");
        assert_eq!(
            full.unreachable, 0,
            "full policy never routes at the corpse"
        );
        assert!(
            full.cluster.goodput >= 3.0 / 4.0,
            "single crash must hold the (N-1)/N floor: {full:?}"
        );
        assert!(none.unreachable > 0, "{none:?}");
        assert!(
            none.cluster.goodput < full.cluster.goodput,
            "baseline {:.3} vs full {:.3}",
            none.cluster.goodput,
            full.cluster.goodput
        );
        for out in [&full, &none] {
            assert_eq!(
                out.cluster.completed + out.cluster.shed + out.failed,
                out.cluster.requests,
                "conservation: {out:?}"
            );
        }
    }

    #[test]
    fn gray_source_is_hedged_around() {
        // Node 0 (a holder) goes gray with a huge stretch right before a
        // flash crowd forces transfers; the hedge fires and the second
        // source wins.
        let plan = NodePlan::quiet(2).with_gray(0, SimNanos::ZERO, SimNanos::from_secs(1), 200.0);
        let out = chaos_cell(4, 2, plan, ChaosPolicy::full(), 350);
        assert!(out.hedges > 0, "{out:?}");
        assert!(out.hedge_wins > 0, "{out:?}");
        assert_eq!(out.failed, 0);
        assert_eq!(
            out.cluster.completed + out.cluster.shed + out.failed,
            out.cluster.requests
        );
    }

    #[test]
    fn an_infinitely_slow_node_is_the_slowest_node_not_a_healthy_one() {
        let run = |slowdown: f64| {
            let plan =
                NodePlan::quiet(2).with_gray(0, SimNanos::ZERO, SimNanos::from_secs(1), slowdown);
            format!("{:?}", chaos_cell(4, 2, plan, ChaosPolicy::full(), 350))
        };
        let infinite = run(f64::INFINITY);
        assert_eq!(infinite, run(f64::MAX));
        assert_ne!(
            infinite,
            format!(
                "{:?}",
                chaos_cell(4, 2, NodePlan::quiet(2), ChaosPolicy::full(), 350)
            )
        );
    }

    #[test]
    fn source_crash_reroutes_waiters_or_hangs_them() {
        // A flash crowd starts a transfer sourced from node 0, which then
        // crashes mid-wire (the wire is ~30 µs of RDMA setup; the crash
        // lands at 20 µs). Full policy: waiters time out and re-route.
        // Baseline: the transfer is orphaned and its waiters hang.
        let plan = || NodePlan::quiet(3).with_crash(0, SimNanos::from_micros(20));
        let cell = |policy: ChaosPolicy| {
            ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
                .with_node_capacity(100)
                .with_chaos(plan(), policy)
                .run_chaos(&burst(120, 0))
                .unwrap()
        };
        let full = cell(ChaosPolicy::full());
        let none = cell(ChaosPolicy::none());
        assert!(full.aborted_transfers > 0, "{full:?}");
        assert!(full.failovers > 0, "{full:?}");
        assert_eq!(full.hung, 0, "waiters get the timeout path: {full:?}");
        assert!(none.hung > 0, "baseline waiters hang: {none:?}");
        for out in [&full, &none] {
            assert_eq!(
                out.cluster.completed + out.cluster.shed + out.failed,
                out.cluster.requests,
                "conservation: {out:?}"
            );
        }
    }

    #[test]
    fn partition_heals_and_routing_returns() {
        let plan = NodePlan::quiet(4).with_partition(
            vec![1],
            SimNanos::from_micros(10),
            SimNanos::from_millis(2),
        );
        let trace: Vec<TraceRequest> = (0..200u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(i.saturating_mul(50)),
                function: 0,
            })
            .collect();
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(2, 2))
            .with_node_capacity(100)
            .with_chaos(plan, ChaosPolicy::full())
            .run_chaos(&trace)
            .unwrap();
        assert!(
            out.chaos_log
                .iter()
                .any(|r| r.kind == ChaosEvent::Heal && r.node == 1),
            "{:?}",
            out.chaos_log
        );
        assert_eq!(out.failed, 0, "{out:?}");
        assert!((out.cluster.goodput - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn a_warm_instance_cut_off_by_a_partition_is_reused_after_the_heal() {
        // Node 0 holds the only template; the first request leaves its
        // warm instance parked there, and the 10 ms cut is far shorter
        // than the 5 s keep-alive. The baseline still routes at the island:
        // the request during the cut fails typed, and the instance it
        // believed warm is still parked for the first request after the
        // heal.
        let plan = NodePlan::quiet(7).with_partition(
            vec![0],
            SimNanos::from_millis(10),
            SimNanos::from_millis(20),
        );
        let trace = [0, 15, 25].map(|ms| TraceRequest {
            arrival: SimNanos::from_millis(ms),
            function: 0,
        });
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(2, 1))
            .with_chaos(plan, ChaosPolicy::none())
            .run_chaos(&trace)
            .unwrap();
        let c = &out.cluster;
        assert_eq!((out.failed, out.unreachable), (1, 1), "{out:?}");
        assert_eq!((c.local, c.reuses, c.completed), (1, 1, 2), "{out:?}");
    }

    #[test]
    fn chaos_runs_are_byte_deterministic() {
        let once = || {
            let plan = NodePlan::storm(0xC0FFEE, 4, 6, SimNanos::ZERO, SimNanos::from_millis(1));
            let out = chaos_cell(4, 2, plan, ChaosPolicy::full(), 400);
            serde_json::to_string(&out).unwrap()
        };
        assert_eq!(once(), once(), "same seed, byte-identical chaos history");
    }

    #[test]
    fn cluster_fleet_is_deterministic() {
        let trace = burst(400, 0);
        let once = || {
            let out = ClusterSim::new(
                vec![AppProfile::c_hello()],
                ClusterConfig {
                    nodes: 4,
                    placement_budget: 2,
                    routing: RoutingPolicy::RemoteFork,
                },
            )
            .with_node_capacity(64)
            .with_faults(FaultPlan::uniform(0xD00D, 0.2))
            .run_cluster(&trace)
            .unwrap();
            serde_json::to_string(&out).unwrap()
        };
        assert_eq!(once(), once(), "same inputs, byte-identical outcome");
    }

    #[test]
    fn a_chaos_trace_past_the_heartbeat_horizon_is_rejected_before_it_runs() {
        // Uncapped, the heartbeat chain ticks every interval up to the last
        // arrival: ≈ 1.8·10¹² rounds for a request at the end of virtual
        // time, and at `SimNanos::MAX` the next tick saturates onto itself.
        let trace = |last: SimNanos| -> Vec<TraceRequest> {
            [SimNanos::ZERO, last, last]
                .into_iter()
                .map(|arrival| TraceRequest {
                    arrival,
                    function: 0,
                })
                .collect()
        };
        let sim = || ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(2, 1));
        let chaos = |last: SimNanos, policy: ChaosPolicy| {
            sim()
                .with_chaos(NodePlan::quiet(5), policy)
                .run_chaos(&trace(last))
        };
        let limit = heartbeat_horizon();
        for last in [SimNanos::MAX, limit.saturating_add(SimNanos::from_nanos(1))] {
            for policy in [ChaosPolicy::full(), ChaosPolicy::none()] {
                assert_eq!(
                    chaos(last, policy).unwrap_err(),
                    PlatformError::InvalidTrace(TraceError::Horizon { last, limit })
                );
            }
        }
        // Without a chaos layer there is no heartbeat chain to bound.
        let plain = sim().run_cluster(&trace(SimNanos::MAX)).unwrap();
        assert_eq!(plain.completed, 3);
        // At the horizon itself every round still ticks, and the run
        // conserves its requests.
        let out = chaos(limit, ChaosPolicy::full()).unwrap();
        assert_eq!(out.heartbeats, MAX_HEARTBEAT_ROUNDS);
        assert_eq!(
            out.cluster.completed + out.cluster.shed + out.failed,
            out.cluster.requests
        );
    }

    #[test]
    fn a_closed_loop_chaos_call_past_the_heartbeat_horizon_is_rejected_before_it_advances() {
        // `Cluster::call` advances the chaos schedule to its arrival, one
        // heartbeat round per interval; at `SimNanos::MAX` the next tick
        // saturated onto itself and the call never returned. The closed
        // loop takes the open loop's bound.
        let model = CostModel::experimental_machine();
        let cluster = |policy: Option<ChaosPolicy>| {
            let mut cluster = Cluster::new(ClusterConfig::new(2, 1), &model).unwrap();
            if let Some(policy) = policy {
                cluster = cluster.with_chaos(NodePlan::quiet(5), policy).unwrap();
            }
            cluster.register(AppProfile::c_hello());
            cluster
        };
        let limit = heartbeat_horizon();
        for last in [SimNanos::MAX, limit.saturating_add(SimNanos::from_nanos(1))] {
            for policy in [ChaosPolicy::full(), ChaosPolicy::none()] {
                let mut cluster = cluster(Some(policy));
                assert_eq!(
                    cluster.call("C-hello", Some(last)).unwrap_err(),
                    PlatformError::InvalidTrace(TraceError::Horizon { last, limit })
                );
                assert!(cluster.history().is_empty(), "rejected, not routed");
            }
        }
        // Without a chaos layer there is no heartbeat chain to bound.
        let mut plain = cluster(None);
        plain.call("C-hello", Some(SimNanos::MAX)).unwrap();
        // At the horizon itself every round ticks and the call is served.
        let mut at_limit = cluster(Some(ChaosPolicy::full()));
        at_limit.call("C-hello", Some(limit)).unwrap();
        assert_eq!(at_limit.history().len(), 1);
    }

    #[test]
    fn the_fleet_and_cluster_recipes_agree_on_a_fork() {
        // The fleet boots a fork-mode engine whose first boot builds the
        // template; the cluster initialises once for image and template.
        // Where the two overlap, the fork boot and its handler run agree.
        let model = CostModel::experimental_machine();
        for profile in [
            AppProfile::c_hello(),
            AppProfile::c_nginx(),
            AppProfile::python_hello(),
        ] {
            let mut engine = catalyzer::CatalyzerEngine::standalone(BootMode::Fork);
            let fleet = ShapeCost::measure(&model, |ctx| {
                sandbox::BootEngine::boot(&mut engine, &profile, ctx)
            })
            .unwrap();
            let (cluster, _) = shape_costs(&profile, &model).unwrap();
            assert_eq!(fleet, cluster, "{}", profile.name);
        }
    }
}
