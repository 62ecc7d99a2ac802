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
//! the event count and the metric rollup.
//!
//! Determinism is byte-exact: same catalogue, config, knobs, and trace —
//! same [`ClusterOutcome`], including the routing-decision hash.

use faultsim::{FaultInjector, FaultKind, FaultPlan, InjectionPoint, NodeFault, NodePlan};
use runtimes::AppProfile;
use sandbox::BootCtx;
use serde::Serialize;
use simtime::names;
use simtime::{CostModel, LatencyHistogram, MetricsRegistry, SimNanos};

use super::chaos::{ChaosEvent, ChaosPolicy, ChaosRecord, ChaosState, NodeHealth};
use super::{ClusterConfig, RoutingPolicy};
use crate::resilience::{resilient_boot, ResiliencePolicy};
use crate::simulate::{
    calibrate_shapes, fraction, validate_trace, Arena, Event, EventQueue, FnId, InstanceId,
    Quantiles, TraceRequest, REUSE_HANDOFF,
};
use crate::PlatformError;

use catalyzer::{BootMode, CatalyzerEngine};

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
    /// Retry backoff charged when a transfer absorbs a transient or stall.
    backoff: SimNanos,
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
            backoff: SimNanos::from_micros(200),
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
#[derive(Debug, Clone, Serialize)]
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
    /// `completed / requests`.
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
    /// Cluster counter rollup (`cluster.*`).
    pub metrics: MetricsRegistry,
}

/// What one chaos run produced: the plain cluster outcome plus the
/// fault/repair ledger. A separate struct — not new [`ClusterOutcome`]
/// fields — so the chaos layer cannot move a byte of the plain grid's
/// serialized output.
#[derive(Debug, Clone, Serialize)]
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
    /// `completed / requests` — the survivability gate's headline number.
    pub availability: f64,
    /// The chaos observation history, in order — byte-identical across
    /// same-seed runs.
    pub chaos_log: Vec<ChaosRecord>,
}

/// Calibrated per-function costs.
struct ClusterFn {
    /// Steady-state local sfork on a provisioned holder.
    boot: SimNanos,
    /// Handler execution.
    exec: SimNanos,
    /// Template transfer to a non-holder (from the cost model).
    transfer: SimNanos,
    /// Full cold boot (restore path), excluding the registry pull.
    cold_boot: SimNanos,
}

/// Index of `(node, function)` in the flat per-node function-state table.
fn slot_index(node: usize, width: usize, function: usize) -> usize {
    node * width + function
}

/// Per-node aggregates.
#[derive(Default)]
struct NodeState {
    /// Instances (busy + warm) live on the node.
    live: usize,
    /// High-water mark of `live`.
    peak: usize,
    /// A repair event is already queued for this node.
    repair_pending: bool,
}

/// One live instance slot.
struct Slot {
    node: usize,
    function: FnId,
    request: u64,
    busy: bool,
    idle_since: SimNanos,
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
    /// LIFO warm stack (lazily pruned against the arena generation).
    idle: Vec<InstanceId>,
    /// Warm instances actually live.
    idle_live: usize,
}

impl Replica {
    /// Registers a new in-flight transfer under the slot's next generation
    /// and returns that generation for the events that will carry it.
    fn begin_transfer(
        &mut self,
        source: usize,
        done: SimNanos,
        hedged: bool,
        waiters: Vec<(u64, InstanceId)>,
    ) -> u32 {
        let gen = self.gen_counter;
        self.gen_counter += 1;
        self.transfer = Some(Transfer {
            gen,
            source,
            done,
            hedged,
            waiters,
        });
        gen
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

/// Folds one routing decision `(request, node, kind)` into the FNV-1a
/// routing-history hash.
fn mix_route(hash: &mut u64, request: u64, node: u64, kind: u64) {
    for value in [request, node, kind] {
        for byte in value.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
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
    /// [`PlatformError::InvalidTrace`]; calibration errors.
    pub fn run_chaos(mut self, trace: &[TraceRequest]) -> Result<ChaosOutcome, PlatformError> {
        let chaos = self
            .chaos
            .take()
            .unwrap_or((NodePlan::quiet(0), ChaosPolicy::full()));
        self.drive(trace, Some(chaos))
    }

    /// The cluster kernel: the one event loop behind both entry points.
    /// `chaos` is the optional node-fault layer; with `None` there is no
    /// [`ChaosState`], every node stays reachable, believed `Up` and at
    /// slowdown 1.0, and the crash/heal/heartbeat/hedge classes are never
    /// scheduled.
    fn drive(
        mut self,
        trace: &[TraceRequest],
        chaos: Option<(NodePlan, ChaosPolicy)>,
    ) -> Result<ChaosOutcome, PlatformError> {
        self.config.ensure_valid()?;
        let mut queue = EventQueue::over(validate_trace(trace, self.catalogue.len())?);
        let fns = self.calibrate()?;
        let nodes = self.config.nodes;
        let width = fns.len();
        let cap = if self.node_capacity == 0 {
            usize::MAX
        } else {
            self.node_capacity
        };
        let remote_fork = self.config.routing == RoutingPolicy::RemoteFork;
        let mut injector = self.plan.take().map(FaultInjector::new);
        let mut chaos = chaos
            .map(|(plan, policy)| ChaosState::new(plan, policy, nodes))
            .transpose()?;
        // Health-aware routing, re-replication, hedging and waiter
        // timeouts; off both for the no-failover baseline and for a run
        // with no chaos layer, where static placement is simply true.
        let policy = chaos.as_ref().map(|c| *c.policy());
        let failover = policy.is_some_and(|p| p.failover);
        let hedge_delay = policy.filter(|p| p.failover).map(|p| p.hedge_delay);

        // Placement: the same round-robin spread as the closed-loop
        // scheduler — holders are provisioned (template built offline).
        let replicas = self.config.placement_budget.min(nodes);
        let original_holder = |node: usize, function: usize| -> bool {
            (0..replicas).any(|r| (function + r) % nodes == node)
        };
        let mut state: Vec<Replica> = Vec::new();
        state.resize_with(nodes.saturating_mul(width), Replica::default);
        for f in 0..width {
            for r in 0..replicas {
                state[slot_index((f + r) % nodes, width, f)].has_template = true;
            }
        }
        let mut node_state: Vec<NodeState> = Vec::new();
        node_state.resize_with(nodes, NodeState::default);

        let mut instances: Arena<Slot> = Arena::with_capacity(trace.len().min(1 << 20));
        // The fault schedule becomes event classes: crashes fire as
        // `NodeCrash`, partition heals as `PartitionHeal` (epoch = plan
        // order). Partition *starts* and gray windows need no events —
        // reachability and slowdown are pure functions of the plan.
        let hb_end = trace.last().map_or(SimNanos::ZERO, |r| r.arrival);
        if let Some(c) = &chaos {
            for event in c.plan().events() {
                if event.fault == NodeFault::Crash {
                    queue.schedule(event.at, Event::NodeCrash { node: event.node });
                }
            }
            for (epoch, (_, until, _)) in c.partitions().enumerate() {
                let epoch = u32::try_from(epoch).unwrap_or(u32::MAX);
                queue.schedule(until, Event::PartitionHeal { epoch });
            }
            if c.policy().heartbeat_interval <= hb_end {
                queue.schedule(
                    c.policy().heartbeat_interval,
                    Event::HeartbeatTick { round: 0 },
                );
            }
        }

        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut failed = 0u64;
        let mut reuses = 0u64;
        let mut local = 0u64;
        let mut remote = 0u64;
        let mut cold = 0u64;
        let mut reroutes = 0u64;
        let mut transfers = 0u64;
        let mut transfer_faults = 0u64;
        let mut node_repairs = 0u64;
        let mut expirations = 0u64;
        let mut crashes = 0u64;
        let mut failovers = 0u64;
        let mut rereplications = 0u64;
        let mut hedges = 0u64;
        let mut hedge_wins = 0u64;
        let mut aborted_transfers = 0u64;
        let mut unreachable = 0u64;
        let mut horizon = SimNanos::ZERO;
        let mut startup_hist = LatencyHistogram::new();
        let mut e2e_hist = LatencyHistogram::new();
        let mut remote_hist = LatencyHistogram::new();
        let mut cold_hist = LatencyHistogram::new();
        let mut route_hash = 0xcbf2_9ce4_8422_2325u64;
        // What the scheduler sees of each node at the current arrival:
        // physically reachable, gray stretch, and eligible for new work.
        // Refreshed per arrival from the chaos layer; without one they
        // keep these inert values for the whole run.
        let mut reach = vec![true; nodes];
        let mut slow = vec![1.0f64; nodes];
        let mut elig = vec![true; nodes];

        while let Some((now, event)) = queue.pop() {
            horizon = now;
            match event {
                Event::Arrival { request } => {
                    let Some(req) = trace.get(usize::try_from(request).unwrap_or(usize::MAX))
                    else {
                        continue;
                    };
                    let Some(f) = fns.get(req.function) else {
                        continue;
                    };
                    let fnid = FnId::from_index(req.function);
                    let nf = |node: usize| slot_index(node, width, req.function);
                    // A failover re-arrival is served later than the trace
                    // arrival; its latency honestly includes the wait.
                    let lag = now.saturating_sub(req.arrival);
                    if let Some(c) = &chaos {
                        for (n, (r, s)) in reach.iter_mut().zip(&mut slow).enumerate() {
                            *r = c.reachable(n, now);
                            *s = c.slowdown(n, now);
                        }
                        // Full policy routes only at reachable nodes
                        // believed `Up`, falling back to any reachable node
                        // when the belief map offers none. The baseline
                        // believes static placement and routes anywhere —
                        // and pays for it.
                        let any_up = (0..nodes).any(|n| reach[n] && c.health(n) == NodeHealth::Up);
                        for (n, e) in elig.iter_mut().enumerate() {
                            *e = !failover
                                || (reach[n] && (!any_up || c.health(n) == NodeHealth::Up));
                        }
                    }
                    macro_rules! fail_unreachable {
                        ($node:expr) => {{
                            let node = $node;
                            failed += 1;
                            unreachable += 1;
                            if let Some(c) = &mut chaos {
                                c.record(now, node, ChaosEvent::Unreachable);
                            }
                            mix_route(&mut route_hash, request, node as u64, ROUTE_FAILED);
                            continue;
                        }};
                    }
                    // Commits the routing decision: hash it and reserve a
                    // busy instance on the node.
                    macro_rules! place {
                        ($node:expr, $kind:expr) => {{
                            let node = $node;
                            mix_route(&mut route_hash, request, node as u64, $kind);
                            let ns = &mut node_state[node];
                            ns.live += 1;
                            ns.peak = ns.peak.max(ns.live);
                            instances.insert(Slot {
                                node,
                                function: fnid,
                                request,
                                busy: true,
                                idle_since: SimNanos::ZERO,
                            })
                        }};
                    }
                    // Starts serving on `$node` after `$cost` of startup.
                    macro_rules! serve {
                        ($id:expr, $node:expr, $cost:expr) => {{
                            let cost = $cost;
                            let startup = lag.saturating_add(cost);
                            let exec = stretch(f.exec, slow[$node]);
                            startup_hist.record(startup);
                            e2e_hist.record(startup.saturating_add(exec));
                            queue.schedule(
                                now.saturating_add(cost).saturating_add(exec),
                                Event::ExecComplete {
                                    request,
                                    instance: $id,
                                },
                            );
                        }};
                    }

                    // Rung 0 — reuse: the lowest-indexed routable node with
                    // a live warm instance serves at the hand-off cost.
                    let mut warm = None;
                    for node in 0..nodes {
                        if !elig[node] {
                            continue;
                        }
                        let s = &mut state[nf(node)];
                        while let Some(id) = s.idle.pop() {
                            if instances.contains(id) {
                                s.idle_live = s.idle_live.saturating_sub(1);
                                warm = Some((node, id));
                                break;
                            }
                        }
                        if warm.is_some() {
                            break;
                        }
                    }
                    if let Some((node, id)) = warm {
                        if !reach[node] {
                            // Baseline only: the believed-warm node is on
                            // an island — the request fails typed.
                            fail_unreachable!(node);
                        }
                        if let Some(slot) = instances.get_mut(id) {
                            slot.busy = true;
                            slot.request = request;
                        }
                        reuses += 1;
                        mix_route(&mut route_hash, request, node as u64, ROUTE_REUSE);
                        serve!(id, node, REUSE_HANDOFF);
                        continue;
                    }

                    // Rung 1 — local sfork on the least-loaded believed
                    // template holder under capacity. Full policy believes
                    // physical placement (crashes clear it, re-replication
                    // restores it); otherwise the scheduler believes the
                    // original round-robin spread.
                    let believed = |state: &[Replica], n: usize| {
                        state[nf(n)].has_template || (!failover && original_holder(n, req.function))
                    };
                    let holder = (0..nodes)
                        .filter(|&n| elig[n] && believed(&state, n) && node_state[n].live < cap)
                        .min_by_key(|&n| (node_state[n].live, n));
                    if let Some(node) = holder {
                        if !reach[node] {
                            fail_unreachable!(node);
                        }
                        local += 1;
                        let id = place!(node, ROUTE_LOCAL);
                        serve!(id, node, stretch(f.boot, slow[node]));
                        continue;
                    }

                    // Template-local nodes saturated (or nonexistent): the
                    // scheduler pushes the request off-holder. A re-route
                    // is only counted when some other node actually serves
                    // it — with nowhere to go, the request sheds and only
                    // the shed bucket moves.
                    //
                    // Rung 2a — join the in-flight transfer: the joiner
                    // becomes a waiter with the same fate as the initiator
                    // (fork when the template lands; timeout and re-route
                    // on abort under the full policy; a hang under the
                    // baseline).
                    let joinable = (0..nodes)
                        .filter(|&n| {
                            remote_fork
                                && elig[n]
                                && state[nf(n)].transfer.is_some()
                                && node_state[n].live < cap
                        })
                        .min_by_key(|&n| (node_state[n].live, n));
                    if let Some(node) = joinable {
                        if !reach[node] {
                            fail_unreachable!(node);
                        }
                        reroutes += 1;
                        remote += 1;
                        let id = place!(node, ROUTE_REMOTE);
                        if let Some(t) = state[nf(node)].transfer.as_mut() {
                            t.waiters.push((request, id));
                        }
                        continue;
                    }

                    // Rung 2b — start a transfer from a holder the policy
                    // believes in. A gray source stretches the wire time —
                    // exactly what the hedge exists to beat.
                    let transferable = (0..nodes)
                        .filter(|&n| {
                            remote_fork
                                && elig[n]
                                && !state[nf(n)].has_template
                                && state[nf(n)].transfer.is_none()
                                && node_state[n].live < cap
                        })
                        .min_by_key(|&n| (node_state[n].live, n));
                    // A poisoned transfer pins its cold fallback to the
                    // node it was headed for: `(node, detection delay)`.
                    let mut poisoned = None;
                    if let Some(node) = transferable {
                        if !reach[node] {
                            fail_unreachable!(node);
                        }
                        let source = (0..nodes)
                            .filter(|&n| {
                                n != node && believed(&state, n) && (!failover || reach[n])
                            })
                            .min_by_key(|&n| (node_state[n].live, n));
                        match source {
                            Some(src) if !reach[src] => {
                                // Baseline only: the believed holder is
                                // gone — the transfer dies at setup.
                                fail_unreachable!(src);
                            }
                            Some(src) => {
                                let mut wire = stretch(f.transfer, slow[src]);
                                let fault = injector
                                    .as_mut()
                                    .and_then(|i| i.check(InjectionPoint::TemplateTransfer, now));
                                if let Some(fault) = fault {
                                    transfer_faults += 1;
                                    if fault.kind == FaultKind::Poison {
                                        // The in-flight replica is corrupt:
                                        // degrade this request down the
                                        // ladder and repair the fabric in
                                        // the background.
                                        poisoned = Some((node, fault.delay));
                                        let ns = &mut node_state[node];
                                        if !ns.repair_pending {
                                            ns.repair_pending = true;
                                            queue.schedule(
                                                now.saturating_add(REPAIR_DELAY),
                                                Event::NodeRepair { node: node as u32 },
                                            );
                                        }
                                    } else {
                                        // Transient/stall: detection delay
                                        // plus one retry backoff, then the
                                        // retry goes through.
                                        wire = wire
                                            .saturating_add(fault.delay)
                                            .saturating_add(self.backoff);
                                    }
                                }
                                if poisoned.is_none() {
                                    reroutes += 1;
                                    remote += 1;
                                    transfers += 1;
                                    let id = place!(node, ROUTE_REMOTE);
                                    let done = now.saturating_add(wire);
                                    let gen = state[nf(node)].begin_transfer(
                                        src,
                                        done,
                                        !failover,
                                        vec![(request, id)],
                                    );
                                    queue.schedule(
                                        done,
                                        Event::TransferComplete {
                                            node: node as u32,
                                            function: fnid,
                                            gen,
                                        },
                                    );
                                    if let Some(delay) = hedge_delay {
                                        queue.schedule(
                                            now.saturating_add(delay),
                                            Event::HedgeFire {
                                                node: node as u32,
                                                function: fnid,
                                                gen,
                                            },
                                        );
                                    }
                                    continue;
                                }
                            }
                            // No holder left anywhere: fall to cold.
                            None => {}
                        }
                    }

                    // Rung 3 — cold: registry pull (once per node) plus the
                    // full cold boot, on the poisoned transfer's node or
                    // the least-loaded routable one. The LocalCold baseline
                    // always lands here.
                    let coldable = poisoned.or_else(|| {
                        (0..nodes)
                            .filter(|&n| elig[n] && node_state[n].live < cap)
                            .min_by_key(|&n| (node_state[n].live, n))
                            .map(|n| (n, SimNanos::ZERO))
                    });
                    if let Some((node, detect)) = coldable {
                        if !reach[node] {
                            fail_unreachable!(node);
                        }
                        reroutes += 1;
                        cold += 1;
                        let s = &mut state[nf(node)];
                        let mut cost = detect.saturating_add(stretch(f.cold_boot, slow[node]));
                        if !s.pulled {
                            cost = cost.saturating_add(self.config.costs.cold_pull);
                            s.pulled = true;
                        }
                        cold_hist.record(lag.saturating_add(cost));
                        let id = place!(node, ROUTE_COLD);
                        serve!(id, node, cost);
                        continue;
                    }

                    // Every routable node at capacity: shed.
                    shed += 1;
                    mix_route(&mut route_hash, request, u64::MAX, ROUTE_SHED);
                }
                Event::ExecComplete { instance: id, .. } => {
                    let Some(slot) = instances.get_mut(id) else {
                        continue;
                    };
                    completed += 1;
                    let node = slot.node;
                    let function = slot.function;
                    let s = &mut state[slot_index(node, width, function.index())];
                    if s.idle_live < self.max_idle {
                        slot.busy = false;
                        slot.idle_since = now;
                        s.idle.push(id);
                        s.idle_live += 1;
                        queue.schedule(
                            now.saturating_add(self.keep_alive),
                            Event::KeepAliveExpiry { instance: id },
                        );
                    } else {
                        instances.remove(id);
                        node_state[node].live = node_state[node].live.saturating_sub(1);
                    }
                }
                Event::KeepAliveExpiry { instance } => {
                    let due = match instances.get(instance) {
                        Some(slot) if slot.busy => false,
                        Some(slot) => now.saturating_sub(slot.idle_since) >= self.keep_alive,
                        None => false,
                    };
                    if due {
                        if let Some(slot) = instances.remove(instance) {
                            expirations += 1;
                            let s = &mut state[slot_index(slot.node, width, slot.function.index())];
                            s.idle_live = s.idle_live.saturating_sub(1);
                            node_state[slot.node].live =
                                node_state[slot.node].live.saturating_sub(1);
                        }
                    }
                }
                Event::TransferComplete {
                    node,
                    function,
                    gen,
                } => {
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    let Some(s) = state.get_mut(slot_index(node, width, function.index())) else {
                        continue;
                    };
                    // Stale generation: aborted, orphaned, hedged out, or
                    // the destination crashed — lazy miss.
                    let Some(t) = s.transfer.take_if(|t| t.gen == gen) else {
                        continue;
                    };
                    s.has_template = true;
                    let Some(f) = fns.get(function.index()) else {
                        continue;
                    };
                    let slowdown = chaos.as_ref().map_or(1.0, |c| c.slowdown(node, now));
                    let boot = stretch(f.boot, slowdown);
                    let exec = stretch(f.exec, slowdown);
                    for (request, id) in t.waiters {
                        if !instances.contains(id) {
                            continue;
                        }
                        let arrival = trace
                            .get(usize::try_from(request).unwrap_or(usize::MAX))
                            .map_or(now, |r| r.arrival);
                        let startup = now.saturating_sub(arrival).saturating_add(boot);
                        startup_hist.record(startup);
                        remote_hist.record(startup);
                        e2e_hist.record(startup.saturating_add(exec));
                        queue.schedule(
                            now.saturating_add(boot).saturating_add(exec),
                            Event::ExecComplete {
                                request,
                                instance: id,
                            },
                        );
                    }
                }
                Event::NodeRepair { node } => {
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    if let Some(ns) = node_state.get_mut(node) {
                        ns.repair_pending = false;
                        node_repairs += 1;
                        if let Some(injector) = &mut injector {
                            injector.heal(InjectionPoint::TemplateTransfer);
                        }
                    }
                }
                Event::NodeCrash { node } => {
                    let Some(c) = &mut chaos else { continue };
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    crashes += 1;
                    c.record(now, node, ChaosEvent::Crash);
                    // 1. Kill sweep: every instance on the node dies; busy
                    // ones take their requests with them. Their pending
                    // events lazy-miss on the bumped arena generation.
                    let victims: Vec<InstanceId> = instances
                        .iter()
                        .filter(|(_, slot)| slot.node == node)
                        .map(|(id, _)| id)
                        .collect();
                    for id in victims {
                        if let Some(slot) = instances.remove(id) {
                            if slot.busy {
                                failed += 1;
                            }
                        }
                    }
                    if let Some(ns) = node_state.get_mut(node) {
                        ns.live = 0;
                    }
                    // 2. Clear the node's per-function state, remembering
                    // which templates it held for re-replication. A
                    // transfer *into* the dead node dies with it — its
                    // waiters were just killed above.
                    let mut held: Vec<usize> = Vec::new();
                    for fi in 0..width {
                        let s = &mut state[slot_index(node, width, fi)];
                        if s.has_template {
                            held.push(fi);
                        }
                        s.has_template = false;
                        s.pulled = false;
                        s.idle.clear();
                        s.idle_live = 0;
                        s.transfer = None;
                    }
                    // 3. Abort sweep: transfers *sourced* from the dead
                    // node lose their template mid-wire. The full policy
                    // times the waiters out onto a fresh route; the
                    // baseline orphans them — `done = MAX`, generation
                    // bumped so the pending completion lazy-misses, and
                    // the waiters hang.
                    for (n, ns) in node_state.iter_mut().enumerate() {
                        if n == node {
                            continue;
                        }
                        for fi in 0..width {
                            let s = &mut state[slot_index(n, width, fi)];
                            if s.transfer.as_ref().is_none_or(|t| t.source != node) {
                                continue;
                            }
                            aborted_transfers += 1;
                            c.record(now, n, ChaosEvent::TransferAbort);
                            if failover {
                                if let Some(t) = s.transfer.take() {
                                    for (request, id) in t.waiters {
                                        if instances.remove(id).is_some() {
                                            ns.live = ns.live.saturating_sub(1);
                                        }
                                        failovers += 1;
                                        queue.schedule(
                                            now.saturating_add(c.policy().transfer_timeout),
                                            Event::Arrival { request },
                                        );
                                    }
                                }
                                c.record(now, n, ChaosEvent::Failover);
                            } else {
                                if let Some(t) = s.transfer.as_mut() {
                                    t.done = SimNanos::MAX;
                                    t.gen = s.gen_counter;
                                }
                                s.gen_counter += 1;
                            }
                        }
                    }
                    // 4. Re-replication: the full policy rebuilds each
                    // lost template back up to the placement budget, from
                    // the least-loaded surviving holder onto the lowest
                    // reachable non-holder.
                    if failover {
                        for fi in held {
                            let holders: Vec<usize> = (0..nodes)
                                .filter(|&n| {
                                    state[slot_index(n, width, fi)].has_template
                                        && c.reachable(n, now)
                                })
                                .collect();
                            if holders.len() >= replicas {
                                continue;
                            }
                            let dest = (0..nodes).find(|&n| {
                                let s = &state[slot_index(n, width, fi)];
                                c.reachable(n, now) && !s.has_template && s.transfer.is_none()
                            });
                            let source = holders
                                .iter()
                                .copied()
                                .min_by_key(|&n| (node_state[n].live, n));
                            let (Some(dest), Some(src)) = (dest, source) else {
                                continue;
                            };
                            let Some(f) = fns.get(fi) else { continue };
                            let done = now
                                .saturating_add(REPAIR_DELAY)
                                .saturating_add(stretch(f.transfer, c.slowdown(src, now)));
                            // Background repairs are not hedged and carry
                            // no waiters.
                            let gen = state[slot_index(dest, width, fi)].begin_transfer(
                                src,
                                done,
                                true,
                                Vec::new(),
                            );
                            queue.schedule(
                                done,
                                Event::TransferComplete {
                                    node: dest as u32,
                                    function: FnId::from_index(fi),
                                    gen,
                                },
                            );
                            rereplications += 1;
                            c.record(now, dest, ChaosEvent::Rereplicate);
                        }
                    }
                }
                Event::PartitionHeal { epoch } => {
                    if let Some(c) = &mut chaos {
                        c.heal(epoch, now);
                    }
                }
                Event::HedgeFire {
                    node,
                    function,
                    gen,
                } => {
                    let Some(c) = &mut chaos else { continue };
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    let idx = slot_index(node, width, function.index());
                    let Some(t) = state.get(idx).and_then(|s| s.transfer.as_ref()) else {
                        continue;
                    };
                    if t.gen != gen || t.hedged {
                        continue;
                    }
                    let primary_src = t.source;
                    // A second source, distinct from the primary: the
                    // least-loaded other reachable holder.
                    let alt = (0..nodes)
                        .filter(|&n| {
                            n != node
                                && n != primary_src
                                && state[slot_index(n, width, function.index())].has_template
                                && c.reachable(n, now)
                        })
                        .min_by_key(|&n| (node_state[n].live, n));
                    let Some(s) = state.get_mut(idx) else {
                        continue;
                    };
                    let Some(t) = s.transfer.as_mut() else {
                        continue;
                    };
                    t.hedged = true;
                    let Some(alt) = alt else { continue };
                    let Some(f) = fns.get(function.index()) else {
                        continue;
                    };
                    hedges += 1;
                    c.record(now, node, ChaosEvent::HedgeFired);
                    let alt_done = now.saturating_add(stretch(f.transfer, c.slowdown(alt, now)));
                    if alt_done < t.done {
                        // The hedge wins: re-point the transfer at the new
                        // source under a fresh generation. The primary's
                        // completion event now lazy-misses — cancellation
                        // by generation, no un-scheduling needed.
                        hedge_wins += 1;
                        c.record(now, node, ChaosEvent::HedgeWon);
                        t.gen = s.gen_counter;
                        s.gen_counter += 1;
                        t.source = alt;
                        t.done = alt_done;
                        transfers += 1;
                        queue.schedule(
                            alt_done,
                            Event::TransferComplete {
                                node: node as u32,
                                function,
                                gen: t.gen,
                            },
                        );
                    }
                }
                Event::HeartbeatTick { round } => {
                    let Some(c) = &mut chaos else { continue };
                    c.heartbeat(now);
                    let next = now.saturating_add(c.policy().heartbeat_interval);
                    if next <= hb_end {
                        queue.schedule(
                            next,
                            Event::HeartbeatTick {
                                round: round.wrapping_add(1),
                            },
                        );
                    }
                }
                // Never scheduled by the cluster kernel: boots collapse
                // into `ExecComplete`, and pools tick only in `run_fleet`.
                Event::BootComplete { .. } | Event::PoolTick { .. } => {}
            }
        }

        // End sweep: waiters still parked on an orphaned transfer never
        // got a completion path — the baseline's hang, counted as failed.
        let mut hung = 0u64;
        for n in 0..nodes {
            for fi in 0..width {
                let Some(t) = &state[slot_index(n, width, fi)].transfer else {
                    continue;
                };
                if t.done != SimNanos::MAX {
                    continue;
                }
                for &(_, id) in &t.waiters {
                    if instances.contains(id) {
                        hung += 1;
                        failed += 1;
                        if let Some(c) = &mut chaos {
                            c.record(horizon, n, ChaosEvent::Hung);
                        }
                    }
                }
            }
        }

        let per_node_peak: Vec<usize> = node_state.iter().map(|n| n.peak).collect();
        let peak_node_instances = per_node_peak.iter().copied().max().unwrap_or(0);
        let heartbeats = chaos.as_ref().map_or(0, ChaosState::heartbeats);
        let suspected = chaos.as_ref().map_or(0, |c| c.count(ChaosEvent::Suspect));
        let mut metrics = MetricsRegistry::new();
        metrics.add(names::CLUSTER_LOCAL, local);
        metrics.add(names::CLUSTER_REMOTE, remote);
        metrics.add(names::CLUSTER_COLD, cold);
        metrics.add(names::CLUSTER_REUSE, reuses);
        metrics.add(names::CLUSTER_SHED, shed);
        metrics.add(names::CLUSTER_REROUTES, reroutes);
        metrics.add(names::CLUSTER_TRANSFERS, transfers);
        metrics.add(names::CLUSTER_TRANSFER_FAULTS, transfer_faults);
        metrics.add(names::CLUSTER_NODE_REPAIRS, node_repairs);
        if chaos.is_some() {
            metrics.add(names::CHAOS_CRASHES, crashes);
            metrics.add(names::CHAOS_FAILED, failed);
            metrics.add(names::CHAOS_HUNG, hung);
            metrics.add(names::CHAOS_FAILOVERS, failovers);
            metrics.add(names::CHAOS_REREPLICATIONS, rereplications);
            metrics.add(names::CHAOS_HEDGES, hedges);
            metrics.add(names::CHAOS_HEDGE_WINS, hedge_wins);
            metrics.add(names::CHAOS_ABORTED_TRANSFERS, aborted_transfers);
            metrics.add(names::CHAOS_UNREACHABLE, unreachable);
            metrics.add(names::CHAOS_HEARTBEATS, heartbeats);
            metrics.add(names::CHAOS_SUSPECTED, suspected);
        }
        metrics.set_gauge(
            names::CLUSTER_PEAK_NODE_INSTANCES,
            i64::try_from(peak_node_instances).unwrap_or(i64::MAX),
        );

        let requests = u64::try_from(trace.len()).unwrap_or(u64::MAX);
        let availability = fraction(completed, requests);
        Ok(ChaosOutcome {
            cluster: ClusterOutcome {
                requests,
                completed,
                shed,
                reuses,
                local,
                remote,
                cold,
                reroutes,
                transfers,
                transfer_faults,
                node_repairs,
                expirations,
                events: queue.scheduled(),
                horizon,
                per_node_peak,
                peak_node_instances,
                goodput: availability,
                cold_rate: fraction(cold, requests),
                startup: Quantiles::from_histogram(&startup_hist),
                end_to_end: Quantiles::from_histogram(&e2e_hist),
                remote_startup: Quantiles::from_histogram(&remote_hist),
                cold_startup: Quantiles::from_histogram(&cold_hist),
                route_hash,
                metrics,
            },
            failed,
            hung,
            crashes,
            heartbeats,
            suspected,
            failovers,
            rereplications,
            hedges,
            hedge_wins,
            aborted_transfers,
            unreachable,
            availability,
            chaos_log: chaos.map_or_else(Vec::new, |c| c.log().to_vec()),
        })
    }

    /// Boots each distinct cost shape's real engines on an offline clock:
    /// steady local sfork and handler execution (Fork mode, template built
    /// first), plus the full cold restore (Cold mode) for the rung the
    /// remote fork is competing against. Functions differing only in name
    /// share one calibration.
    fn calibrate(&self) -> Result<Vec<ClusterFn>, PlatformError> {
        let calibration = ResiliencePolicy::none();
        let mut scratch = MetricsRegistry::new();
        let mut boot = |engine: &mut CatalyzerEngine, profile: &AppProfile| {
            let mut ctx = BootCtx::fresh(&self.model);
            let booted = resilient_boot(engine, profile, &calibration, &mut ctx, &mut scratch)?;
            Ok::<_, PlatformError>((ctx.now(), booted.outcome))
        };
        let costs = calibrate_shapes(&self.catalogue, |profile| {
            let mut fork = CatalyzerEngine::standalone(BootMode::Fork);
            // Pay template construction offline — holders are
            // provisioned, so only the steady boot is on-path.
            boot(&mut fork, profile)?;
            let (steady, mut outcome) = boot(&mut fork, profile)?;
            let exec_ctx = BootCtx::fresh(&self.model);
            outcome
                .program
                .invoke_handler(exec_ctx.clock(), exec_ctx.model())?;
            let mut cold_engine = CatalyzerEngine::standalone(BootMode::Cold);
            let (cold_boot, _) = boot(&mut cold_engine, profile)?;
            Ok((steady, exec_ctx.now(), cold_boot))
        })?;
        Ok(self
            .catalogue
            .iter()
            .zip(costs)
            .map(|(profile, (boot, exec, cold_boot))| ClusterFn {
                boot,
                exec,
                transfer: self.config.costs.transfer_time(profile),
                cold_boot,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::super::TransferCosts;
    use super::*;

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
        assert_eq!(
            out.metrics.counter(names::CLUSTER_TRANSFER_FAULTS),
            out.transfer_faults
        );
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
        assert!((out.availability - 1.0).abs() < f64::EPSILON, "{out:?}");
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
            full.availability >= 3.0 / 4.0,
            "single crash must hold the (N-1)/N floor: {full:?}"
        );
        assert!(none.unreachable > 0, "{none:?}");
        assert!(
            none.availability < full.availability,
            "baseline {:.3} vs full {:.3}",
            none.availability,
            full.availability
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
        assert!((out.availability - 1.0).abs() < f64::EPSILON);
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
                    costs: TransferCosts::rdma_defaults(),
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
}
