//! Node-level chaos: the health/suspicion state machine both cluster
//! fidelity levels share.
//!
//! A [`NodePlan`] describes *what the machines do* (crash, partition,
//! go gray); this module describes *what the scheduler knows and does
//! about it*:
//!
//! - **Physical state is a pure function of the plan.** Whether a node is
//!   crashed, islanded, or gray at virtual time `t` is computed by
//!   scanning the (small, sorted) plan — no mutable flags, no way for the
//!   two fidelity levels to drift. It changes only at the plan's
//!   `at`/`until` instants, so the open loop re-reads it only when virtual
//!   time passes one (`ChaosState::passed_an_instant`).
//! - **The schedule is one set of events.** `ChaosState::schedule` seeds
//!   crashes, heals and heartbeats into an [`EventQueue`]: the open loop
//!   pops them among its other events, the closed-loop
//!   [`Cluster`](super::Cluster) up to each arrival, so their same-instant
//!   order is [`Event`]'s rank in both. Crash *side effects* (dropping
//!   in-flight work, re-replication) are each loop's own.
//! - **Belief is stateful and lags.** The scheduler learns health from
//!   virtual-time heartbeats: a node whose (gray-stretched) ack exceeds
//!   the suspicion threshold goes [`NodeHealth::Suspect`] — the slow-ack
//!   check that catches fail-slow nodes a liveness bit would miss. An
//!   unreachable node goes [`NodeHealth::Down`].
//! - **Every observation is logged.** [`ChaosRecord`]s form an
//!   append-only history; same plan, same policy, same consultation order
//!   — byte-identical log. The chaos tests pin exactly that.
//!
//! [`ChaosPolicy`] is the failover switch: [`ChaosPolicy::full`] routes
//! around unhealthy nodes, re-replicates templates after a holder dies,
//! hedges slow transfers, and times out waiters orphaned by a source
//! crash; [`ChaosPolicy::none`] is the survivability baseline that keeps
//! routing on static placement — and measurably sheds, fails, or hangs.

use faultsim::{NodeFault, NodeFaultEvent, NodePlan};
use serde::Serialize;
use simtime::SimNanos;

use crate::simulate::{Event, EventQueue};
use crate::{PlatformError, TraceError};

/// The scheduler's belief about one node, refreshed each heartbeat round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NodeHealth {
    /// Acks arrive under the suspicion threshold.
    Up,
    /// The node acks — slowly. Fail-slow suspected; the full policy stops
    /// routing new work at it.
    Suspect,
    /// No ack: crashed or cut off.
    Down,
}

/// What one chaos observation was — the alphabet of the chaos history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ChaosEvent {
    /// A scheduled node crash fired.
    Crash,
    /// A partition healed and the node rejoined.
    Heal,
    /// Heartbeat: the node's ack latency crossed the suspicion threshold.
    Suspect,
    /// Heartbeat: the node stopped acking.
    Down,
    /// Heartbeat: the node acks healthily again.
    Up,
    /// A request was re-routed off a failed primary.
    Failover,
    /// A template replica was rebuilt on a new holder after a crash.
    Rereplicate,
    /// The hedge delay elapsed on a pending transfer and a second source
    /// was fired.
    HedgeFired,
    /// The hedged (second) transfer beat the primary; the primary's
    /// completion now lazy-misses on its stale generation.
    HedgeWon,
    /// An in-flight transfer lost its source node.
    TransferAbort,
    /// A transfer waiter was left with no completion path (no-failover
    /// baseline) and hung to the end of the run.
    Hung,
    /// A request was routed at an unreachable node and failed typed.
    Unreachable,
}

/// One append-only entry of the chaos history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChaosRecord {
    /// Virtual time of the observation.
    pub at: SimNanos,
    /// The node observed (the transfer destination for hedge/abort
    /// records).
    pub node: u32,
    /// What was observed.
    pub kind: ChaosEvent,
}

/// Virtual-time spacing of heartbeat rounds.
pub const HEARTBEAT_INTERVAL: SimNanos = SimNanos::from_millis(10);
/// The most heartbeat rounds one open-loop chaos run ticks: the rounds run
/// every [`HEARTBEAT_INTERVAL`] up to the last arrival, so a trace ending
/// later than this many intervals out is rejected before calibration.
/// 2^20 rounds is ≈ 2.9 h of virtual time; the longest in-tree chaos trace
/// ends near 60 s.
pub const MAX_HEARTBEAT_ROUNDS: u64 = 1 << 20;

/// The heartbeat horizon: [`MAX_HEARTBEAT_ROUNDS`] rounds of
/// [`HEARTBEAT_INTERVAL`], the bound of an open-loop run's last arrival and
/// of a closed-loop call's.
pub(crate) fn heartbeat_horizon() -> SimNanos {
    HEARTBEAT_INTERVAL.saturating_mul(MAX_HEARTBEAT_ROUNDS)
}

/// Rejects an arrival past the [`heartbeat_horizon`], before the chain
/// ticks toward it.
pub(crate) fn within_heartbeat_horizon(last: SimNanos) -> Result<(), TraceError> {
    let limit = heartbeat_horizon();
    if last > limit {
        return Err(TraceError::Horizon { last, limit });
    }
    Ok(())
}

/// A healthy node's heartbeat ack latency (gray nodes stretch it).
const BASE_ACK: SimNanos = SimNanos::from_micros(200);
/// Ack latency above which a node is suspected fail-slow.
pub const SUSPICION_THRESHOLD: SimNanos = SimNanos::from_millis(1);
/// How long a transfer waiter waits after its source crashes before the
/// timeout re-routes it (the typed alternative to hanging).
pub const TRANSFER_TIMEOUT: SimNanos = SimNanos::from_millis(1);
/// Hedge delay: a second transfer fires from another holder when the
/// primary has not landed after this long.
pub const HEDGE_DELAY: SimNanos = SimNanos::from_micros(300);

/// The failover switch — what the scheduler *does* about node faults. Both
/// fidelity levels implement the same policy; its timings are the
/// constants above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChaosPolicy {
    /// Health-aware routing, re-replication, hedging, and waiter timeouts.
    /// Off = the static-placement baseline.
    pub failover: bool,
}

impl ChaosPolicy {
    /// The full survival policy: health-aware routing, re-replication,
    /// hedging and waiter timeouts.
    pub fn full() -> ChaosPolicy {
        ChaosPolicy { failover: true }
    }

    /// The no-failover baseline: heartbeats still tick (the belief log is
    /// comparable) but routing ignores them — no re-replication, no
    /// hedging, no waiter timeouts. This is the policy the survivability
    /// grid shows shedding and hanging.
    pub fn none() -> ChaosPolicy {
        ChaosPolicy { failover: false }
    }

    /// Stable label for bench exports.
    pub fn label(&self) -> &'static str {
        if self.failover {
            "full-failover"
        } else {
            "no-failover"
        }
    }
}

/// The shared chaos state machine: pure physical queries over the plan,
/// stateful health beliefs, and the append-only observation log.
#[derive(Debug)]
pub struct ChaosState {
    policy: ChaosPolicy,
    nodes: usize,
    plan: NodePlan,
    /// Every plan `at` and `until`, sorted and deduplicated: the only
    /// instants at which a node's physical state can change.
    instants: Vec<SimNanos>,
    /// Open-loop read cursor over `instants`.
    passed: usize,
    /// The last instant the heartbeat chain may tick at, set by
    /// [`ChaosState::schedule`].
    last_tick: SimNanos,
    health: Vec<NodeHealth>,
    heartbeats: u64,
    log: Vec<ChaosRecord>,
}

impl ChaosState {
    /// Builds the state machine for a cluster of `nodes` nodes.
    ///
    /// # Errors
    ///
    /// [`PlatformError::ClusterConfig`] when the plan names a node the
    /// cluster does not have.
    pub fn new(
        plan: NodePlan,
        policy: ChaosPolicy,
        nodes: usize,
    ) -> Result<ChaosState, PlatformError> {
        if let Some(max) = plan.max_node() {
            if usize::try_from(max).unwrap_or(usize::MAX) >= nodes {
                return Err(PlatformError::ClusterConfig {
                    detail: format!(
                        "node plan touches node {max}, but the cluster has {nodes} nodes"
                    ),
                });
            }
        }
        let mut instants: Vec<SimNanos> =
            plan.events().iter().flat_map(|e| [e.at, e.until]).collect();
        instants.sort_unstable();
        instants.dedup();
        Ok(ChaosState {
            policy,
            nodes,
            plan,
            instants,
            passed: 0,
            last_tick: SimNanos::ZERO,
            health: vec![NodeHealth::Up; nodes],
            heartbeats: 0,
            log: Vec::new(),
        })
    }

    /// The active policy.
    pub fn policy(&self) -> &ChaosPolicy {
        &self.policy
    }

    /// Seeds the node-fault schedule into `queue`, the one copy both
    /// fidelity levels pop: a [`Event::NodeCrash`] for each crash in plan
    /// order, a [`Event::PartitionHeal`] for each partition (epoch = plan
    /// order), and the first [`Event::HeartbeatTick`] if it falls at or
    /// before `end`, where the chain stops. Partition starts and gray
    /// windows need no events: the physical queries are pure over the plan.
    pub(crate) fn schedule(&mut self, queue: &mut EventQueue<'_>, end: SimNanos) {
        self.last_tick = end;
        for event in self.plan.events() {
            if event.fault == NodeFault::Crash {
                queue.schedule(event.at, Event::NodeCrash { node: event.node });
            }
        }
        for (epoch, partition) in self.cuts().enumerate() {
            let epoch = u32::try_from(epoch).unwrap_or(u32::MAX);
            queue.schedule(partition.until, Event::PartitionHeal { epoch });
        }
        if HEARTBEAT_INTERVAL <= end {
            queue.schedule(HEARTBEAT_INTERVAL, Event::HeartbeatTick { round: 0 });
        }
    }

    /// Applies a popped [`Event::HeartbeatTick`] `round` at `now`: one
    /// [`ChaosState::heartbeat`], then the next tick unless it would fall
    /// after the chain's end.
    pub(crate) fn tick(&mut self, round: u32, now: SimNanos, queue: &mut EventQueue<'_>) {
        self.heartbeat(now);
        let next = now.saturating_add(HEARTBEAT_INTERVAL);
        if next <= self.last_tick {
            queue.schedule(
                next,
                Event::HeartbeatTick {
                    round: round.wrapping_add(1),
                },
            );
        }
    }

    /// True when virtual time has reached a plan instant since the last
    /// call: every physical query is constant between instants, so the
    /// open loop re-reads node state only then. `now` must not go
    /// backwards between calls.
    pub(crate) fn passed_an_instant(&mut self, now: SimNanos) -> bool {
        let before = self.passed;
        while self.instants.get(self.passed).is_some_and(|&t| t <= now) {
            self.passed += 1;
        }
        self.passed > before
    }

    /// True when `node` has crashed by `now`. Pure over the plan.
    pub fn crashed(&self, node: usize, now: SimNanos) -> bool {
        let node = u32::try_from(node).unwrap_or(u32::MAX);
        self.plan
            .events()
            .iter()
            .any(|e| e.fault == NodeFault::Crash && e.node == node && e.at <= now)
    }

    /// The plan's partitions, in plan order: a partition's position is its
    /// heal epoch.
    fn cuts(&self) -> impl Iterator<Item = &NodeFaultEvent> {
        let events = self.plan.events().iter();
        events.filter(|e| e.fault == NodeFault::Partition)
    }

    /// The partitions active at `now` with `node` on an island side.
    fn cuts_off(&self, node: usize, now: SimNanos) -> impl Iterator<Item = &NodeFaultEvent> {
        let node = u32::try_from(node).unwrap_or(u32::MAX);
        self.cuts()
            .filter(move |p| p.at <= now && now < p.until && p.island.contains(&node))
    }

    /// True when `node` sits on an island side of an active partition at
    /// `now`. Pure over the plan.
    pub fn islanded(&self, node: usize, now: SimNanos) -> bool {
        self.cuts_off(node, now).next().is_some()
    }

    /// True when the scheduler's side of the network can reach `node`.
    pub fn reachable(&self, node: usize, now: SimNanos) -> bool {
        !self.crashed(node, now) && !self.islanded(node, now)
    }

    /// The gray latency multiplier on `node` at `now` (`1.0` = healthy).
    /// Pure over the plan; overlapping windows take the worst stretch.
    pub fn slowdown(&self, node: usize, now: SimNanos) -> f64 {
        let node = u32::try_from(node).unwrap_or(u32::MAX);
        self.plan
            .events()
            .iter()
            .filter(|e| {
                e.fault == NodeFault::Gray && e.node == node && e.at <= now && now < e.until
            })
            .fold(1.0f64, |acc, e| acc.max(e.slowdown))
    }

    /// When `node` might become reachable again, as seen at `now`: the
    /// latest active partition heal, or [`SimNanos::MAX`] for a crash.
    pub fn unreachable_until(&self, node: usize, now: SimNanos) -> SimNanos {
        if self.crashed(node, now) {
            return SimNanos::MAX;
        }
        self.cuts_off(node, now)
            .map(|p| p.until)
            .fold(now, SimNanos::max)
    }

    /// The scheduler's current belief about `node`.
    pub fn health(&self, node: usize) -> NodeHealth {
        self.health.get(node).copied().unwrap_or(NodeHealth::Up)
    }

    /// True when the policy lets the scheduler send new work at `node`:
    /// the full policy requires reachability and an `Up` belief, the
    /// baseline trusts static placement and says yes to everything.
    pub fn routable(&self, node: usize, now: SimNanos) -> bool {
        if !self.policy.failover {
            return true;
        }
        self.reachable(node, now) && self.health(node) == NodeHealth::Up
    }

    /// One heartbeat round at `now`: every node's belief is refreshed
    /// from its (possibly gray-stretched) ack latency, and transitions
    /// are logged in node order.
    pub fn heartbeat(&mut self, now: SimNanos) {
        self.heartbeats += 1;
        for node in 0..self.nodes {
            let next = if !self.reachable(node, now) {
                NodeHealth::Down
            } else {
                let stretch = self.slowdown(node, now);
                let ack = if stretch > 1.0 {
                    BASE_ACK.scale(stretch)
                } else {
                    BASE_ACK
                };
                if ack > SUSPICION_THRESHOLD {
                    NodeHealth::Suspect
                } else {
                    NodeHealth::Up
                }
            };
            let prev = self.health[node];
            if prev != next {
                self.health[node] = next;
                let kind = match next {
                    NodeHealth::Up => ChaosEvent::Up,
                    NodeHealth::Suspect => ChaosEvent::Suspect,
                    NodeHealth::Down => ChaosEvent::Down,
                };
                self.record(now, node, kind);
            }
        }
    }

    /// Heartbeat rounds run so far.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats
    }

    /// Partition `epoch` healed: log the rejoin for each island node and
    /// refresh beliefs at the heal instant, so routing resumes without
    /// waiting for the next round — the no-permanent-blacklisting half of
    /// the health machine.
    pub fn heal(&mut self, epoch: u32, now: SimNanos) {
        let island: Vec<u32> = self
            .cuts()
            .nth(usize::try_from(epoch).unwrap_or(usize::MAX))
            .map(|p| p.island.clone())
            .unwrap_or_default();
        for node in island {
            self.record(
                now,
                usize::try_from(node).unwrap_or(usize::MAX),
                ChaosEvent::Heal,
            );
        }
        self.heartbeat(now);
    }

    /// Appends one observation to the history.
    pub fn record(&mut self, at: SimNanos, node: usize, kind: ChaosEvent) {
        self.log.push(ChaosRecord {
            at,
            node: u32::try_from(node).unwrap_or(u32::MAX),
            kind,
        });
    }

    /// The append-only observation history — the byte-identity ground
    /// truth of the chaos tests.
    pub fn log(&self) -> &[ChaosRecord] {
        &self.log
    }

    /// The observation history, moved out of a finished run.
    pub fn into_log(self) -> Vec<ChaosRecord> {
        self.log
    }

    /// Observations of `kind` so far.
    pub fn count(&self, kind: ChaosEvent) -> u64 {
        self.log.iter().filter(|r| r.kind == kind).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use simtime::{names, CostModel};

    use super::super::{Cluster, ClusterConfig};
    use super::*;

    fn policy() -> ChaosPolicy {
        ChaosPolicy::full()
    }

    #[test]
    fn physical_state_is_pure_over_the_plan() {
        let plan = NodePlan::quiet(1)
            .with_crash(0, SimNanos::from_millis(50))
            .with_partition(
                vec![1],
                SimNanos::from_millis(10),
                SimNanos::from_millis(30),
            )
            .with_gray(2, SimNanos::from_millis(5), SimNanos::from_millis(25), 8.0);
        let chaos = ChaosState::new(plan, policy(), 3).unwrap();
        assert!(chaos.reachable(0, SimNanos::from_millis(49)));
        assert!(!chaos.reachable(0, SimNanos::from_millis(50)));
        assert_eq!(
            chaos.unreachable_until(0, SimNanos::from_millis(60)),
            SimNanos::MAX
        );
        assert!(chaos.reachable(1, SimNanos::from_millis(9)));
        assert!(chaos.islanded(1, SimNanos::from_millis(10)));
        assert_eq!(
            chaos.unreachable_until(1, SimNanos::from_millis(15)),
            SimNanos::from_millis(30)
        );
        assert!(
            chaos.reachable(1, SimNanos::from_millis(30)),
            "heal lifts the cut"
        );
        assert_eq!(chaos.slowdown(2, SimNanos::from_millis(4)), 1.0);
        assert_eq!(chaos.slowdown(2, SimNanos::from_millis(5)), 8.0);
        assert_eq!(chaos.slowdown(2, SimNanos::from_millis(25)), 1.0);
    }

    /// The open loop's view — `reach`/`slow` re-read only when
    /// [`ChaosState::passed_an_instant`] says so — equals the queries at
    /// every probe: each plan instant, 1 ns either side of it, zero and
    /// `SimNanos::MAX`, probed one by one and again skipping most probes,
    /// so one arrival can pass several instants.
    fn assert_the_cached_view_matches_the_queries(plan: &NodePlan, nodes: usize) {
        let mut probes = vec![SimNanos::ZERO, SimNanos::MAX];
        for e in plan.events() {
            for t in [e.at, e.until] {
                probes.extend([
                    t.saturating_sub(SimNanos::from_nanos(1)),
                    t,
                    t.saturating_add(SimNanos::from_nanos(1)),
                ]);
            }
        }
        probes.sort_unstable();
        probes.dedup();
        for stride in [1, 5] {
            let mut chaos = ChaosState::new(plan.clone(), policy(), nodes).unwrap();
            let mut reach = vec![true; nodes];
            let mut slow = vec![1.0f64; nodes];
            for &now in probes.iter().step_by(stride) {
                if chaos.passed_an_instant(now) {
                    for node in 0..nodes {
                        reach[node] = chaos.reachable(node, now);
                        slow[node] = chaos.slowdown(node, now);
                    }
                }
                for node in 0..nodes {
                    let at = format!("node {node} at {now:?}, stride {stride}, of {plan:?}");
                    assert_eq!(reach[node], chaos.reachable(node, now), "reach: {at}");
                    assert_eq!(
                        slow[node].to_bits(),
                        chaos.slowdown(node, now).to_bits(),
                        "slow: {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_cached_view_changes_only_at_plan_instants() {
        let ms = SimNanos::from_millis;
        let crafted = [
            // Overlapping gray windows on one node: the worst stretch wins.
            NodePlan::quiet(1)
                .with_gray(0, ms(10), ms(50), 4.0)
                .with_gray(0, ms(20), ms(30), 9.0)
                .with_gray(0, ms(20), ms(40), 9.0)
                .with_gray(0, ms(25), ms(60), 2.0)
                .with_gray(1, ms(30), ms(35), 3.0),
            // Nested and duplicated partitions, one heal inside another.
            NodePlan::quiet(2)
                .with_partition(vec![1, 2], ms(10), ms(100))
                .with_partition(vec![1], ms(20), ms(50))
                .with_partition(vec![2, 3], ms(30), ms(200))
                .with_partition(vec![1, 2], ms(10), ms(100)),
            // A crash inside a partition: the heal does not revive it.
            NodePlan::quiet(3)
                .with_partition(vec![1], ms(10), ms(50))
                .with_crash(1, ms(20))
                .with_gray(1, ms(15), ms(60), 5.0),
            // Empty and inverted windows never show.
            NodePlan::quiet(4)
                .with_partition(vec![2], ms(40), ms(40))
                .with_gray(3, ms(40), ms(40), 5.0)
                .with_partition(vec![2], ms(40), ms(10)),
            // `+∞` and NaN stretches.
            NodePlan::quiet(5)
                .with_gray(3, ms(5), ms(70), f64::INFINITY)
                .with_gray(3, ms(6), ms(80), f64::NAN),
            // Events at the end of time.
            NodePlan::quiet(6)
                .with_crash(0, SimNanos::MAX)
                .with_gray(1, ms(1), SimNanos::MAX, 3.0)
                .with_partition(vec![2], ms(60), SimNanos::MAX)
                .with_partition(vec![3], SimNanos::MAX, SimNanos::MAX),
        ];
        for plan in &crafted {
            assert_the_cached_view_matches_the_queries(plan, 4);
        }
        for seed in [11, 83, 97] {
            // A wide window, and a 5 ns one that stacks events onto shared
            // instants.
            for end in [SimNanos::from_secs(60), SimNanos::from_nanos(5)] {
                let plan = NodePlan::storm(seed, 8, 40, SimNanos::ZERO, end);
                assert_the_cached_view_matches_the_queries(&plan, 8);
            }
        }
    }

    #[test]
    fn out_of_range_plan_is_a_typed_error() {
        let plan = NodePlan::quiet(0).with_crash(5, SimNanos::from_millis(1));
        assert!(matches!(
            ChaosState::new(plan, policy(), 4),
            Err(PlatformError::ClusterConfig { .. })
        ));
    }

    #[test]
    fn heartbeats_suspect_gray_nodes_not_just_dead_ones() {
        let plan = NodePlan::quiet(2)
            .with_gray(
                1,
                SimNanos::from_millis(10),
                SimNanos::from_millis(40),
                20.0, // 200 µs ack → 4 ms: over the 1 ms threshold
            )
            .with_crash(2, SimNanos::from_millis(10));
        let mut chaos = ChaosState::new(plan, policy(), 3).unwrap();
        chaos.heartbeat(SimNanos::from_millis(5));
        assert_eq!(chaos.health(1), NodeHealth::Up);
        chaos.heartbeat(SimNanos::from_millis(15));
        assert_eq!(chaos.health(0), NodeHealth::Up);
        assert_eq!(
            chaos.health(1),
            NodeHealth::Suspect,
            "slow ack, not no ack: the gray node is caught"
        );
        assert_eq!(chaos.health(2), NodeHealth::Down);
        chaos.heartbeat(SimNanos::from_millis(45));
        assert_eq!(chaos.health(1), NodeHealth::Up, "gray window over");
        let kinds: Vec<ChaosEvent> = chaos.log().iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![ChaosEvent::Suspect, ChaosEvent::Down, ChaosEvent::Up]
        );
    }

    #[test]
    fn routable_ignores_health_without_failover() {
        let plan = NodePlan::quiet(3).with_crash(0, SimNanos::from_millis(1));
        let mut full = ChaosState::new(plan.clone(), ChaosPolicy::full(), 2).unwrap();
        let mut none = ChaosState::new(plan, ChaosPolicy::none(), 2).unwrap();
        let now = SimNanos::from_millis(2);
        full.heartbeat(now);
        none.heartbeat(now);
        assert!(!full.routable(0, now));
        assert!(full.routable(1, now));
        assert!(none.routable(0, now), "the baseline routes into the crash");
    }

    #[test]
    fn advance_replays_the_schedule_deterministically() {
        let plan = NodePlan::quiet(4)
            .with_partition(
                vec![1],
                SimNanos::from_millis(12),
                SimNanos::from_millis(34),
            )
            .with_crash(0, SimNanos::from_millis(20));
        // The closed loop's path: the schedule seeded by `with_chaos`, popped
        // up to each arrival by `Cluster::advance_chaos`.
        let run = || {
            let model = CostModel::experimental_machine();
            let mut cluster = Cluster::new(ClusterConfig::new(3, 1), &model)
                .unwrap()
                .with_chaos(plan.clone(), policy())
                .unwrap();
            for ms in [5u64, 15, 22, 40, 60] {
                cluster.advance_chaos(SimNanos::from_millis(ms));
            }
            let crashes = cluster.metrics().counter(names::CHAOS_CRASHES);
            let chaos = cluster.chaos.as_ref().unwrap();
            (crashes, chaos.log().to_vec(), chaos.heartbeats())
        };
        let (crashes, log, beats) = run();
        assert_eq!(run(), (crashes, log.clone(), beats));
        assert_eq!(crashes, 1);
        let crashed: Vec<u32> = log
            .iter()
            .filter(|r| r.kind == ChaosEvent::Crash)
            .map(|r| r.node)
            .collect();
        assert_eq!(crashed, [0]);
        assert!(log
            .iter()
            .any(|r| r.kind == ChaosEvent::Heal && r.node == 1));
        assert!(
            log.iter().any(|r| r.kind == ChaosEvent::Up && r.node == 1),
            "the healed node is believed Up again — no permanent blacklisting"
        );
        assert_eq!(
            beats, 7,
            "ticks every 10 ms through 60 ms, plus the heal's refresh"
        );
    }
}
