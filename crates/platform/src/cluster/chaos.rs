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
//!   two fidelity levels to drift. Crash *side effects* (dropping
//!   in-flight work, re-replication) are the engines' job, driven by
//!   `NodeCrash` events (open loop) or [`ChaosState::advance`] (closed
//!   loop).
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

/// Rejects an arrival past the heartbeat horizon, before the chain ticks
/// toward it: [`MAX_HEARTBEAT_ROUNDS`] rounds of [`HEARTBEAT_INTERVAL`],
/// the bound of an open-loop run's last arrival and of a closed-loop
/// call's.
pub(crate) fn within_heartbeat_horizon(last: SimNanos) -> Result<(), TraceError> {
    let limit = HEARTBEAT_INTERVAL.saturating_mul(MAX_HEARTBEAT_ROUNDS);
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

/// One extracted partition window (plan index = heal epoch).
#[derive(Debug, Clone)]
struct Partition {
    at: SimNanos,
    until: SimNanos,
    island: Vec<u32>,
}

/// The shared chaos state machine: pure physical queries over the plan,
/// stateful health beliefs, and the append-only observation log.
#[derive(Debug)]
pub struct ChaosState {
    policy: ChaosPolicy,
    nodes: usize,
    plan: NodePlan,
    partitions: Vec<Partition>,
    /// Closed-loop consumption cursor over `plan.events()`.
    cursor: usize,
    /// Closed-loop pending partition heals: `(heal time, epoch)`.
    pending_heals: Vec<(SimNanos, u32)>,
    /// Next closed-loop heartbeat round.
    next_tick: SimNanos,
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
        let partitions = plan
            .events()
            .iter()
            .filter(|e| e.fault == NodeFault::Partition)
            .map(|e| Partition {
                at: e.at,
                until: e.until,
                island: e.island.clone(),
            })
            .collect();
        Ok(ChaosState {
            policy,
            nodes,
            plan,
            partitions,
            cursor: 0,
            pending_heals: Vec::new(),
            next_tick: HEARTBEAT_INTERVAL,
            health: vec![NodeHealth::Up; nodes],
            heartbeats: 0,
            log: Vec::new(),
        })
    }

    /// The active policy.
    pub fn policy(&self) -> &ChaosPolicy {
        &self.policy
    }

    /// The installed plan.
    pub fn plan(&self) -> &NodePlan {
        &self.plan
    }

    /// The partition windows, in plan order — the heal-event epochs.
    pub(crate) fn partitions(&self) -> impl Iterator<Item = (SimNanos, SimNanos, &[u32])> {
        self.partitions
            .iter()
            .map(|p| (p.at, p.until, p.island.as_slice()))
    }

    /// True when `node` has crashed by `now`. Pure over the plan.
    pub fn crashed(&self, node: usize, now: SimNanos) -> bool {
        let node = u32::try_from(node).unwrap_or(u32::MAX);
        self.plan
            .events()
            .iter()
            .any(|e| e.fault == NodeFault::Crash && e.node == node && e.at <= now)
    }

    /// True when `node` sits on an island side of an active partition at
    /// `now`. Pure over the plan.
    pub fn islanded(&self, node: usize, now: SimNanos) -> bool {
        let node = u32::try_from(node).unwrap_or(u32::MAX);
        self.partitions
            .iter()
            .any(|p| p.at <= now && now < p.until && p.island.contains(&node))
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
        let id = u32::try_from(node).unwrap_or(u32::MAX);
        self.partitions
            .iter()
            .filter(|p| p.at <= now && now < p.until && p.island.contains(&id))
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
            .partitions
            .get(usize::try_from(epoch).unwrap_or(usize::MAX))
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

    /// Observations of `kind` so far.
    pub fn count(&self, kind: ChaosEvent) -> u64 {
        self.log.iter().filter(|r| r.kind == kind).count() as u64
    }

    /// Closed-loop drive: processes everything due by `now` — plan
    /// events, partition heals, heartbeat rounds — in chronological
    /// order, and returns the crashes that fired (the caller applies
    /// their placement side effects). The open loop schedules these as
    /// event classes instead; both consume the identical schedule.
    pub fn advance(&mut self, now: SimNanos) -> Vec<NodeFaultEvent> {
        let mut crashes = Vec::new();
        loop {
            let event_at = self.plan.events().get(self.cursor).map(|e| e.at);
            let heal_at = self.pending_heals.first().map(|&(at, _)| at);
            let tick_at = Some(self.next_tick);
            let next = [event_at, heal_at, tick_at]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(SimNanos::MAX);
            if next > now {
                break;
            }
            // Ties settle faults first, heals second, heartbeats last —
            // the same intra-instant order the open loop's event classes
            // encode.
            if event_at == Some(next) {
                let event = self.plan.events()[self.cursor].clone();
                self.cursor += 1;
                match event.fault {
                    NodeFault::Crash => {
                        self.record(
                            event.at,
                            usize::try_from(event.node).unwrap_or(usize::MAX),
                            ChaosEvent::Crash,
                        );
                        crashes.push(event);
                    }
                    NodeFault::Partition => {
                        let epoch = self
                            .partitions
                            .iter()
                            .position(|p| p.at == event.at && p.island == event.island)
                            .unwrap_or(0);
                        self.pending_heals
                            .push((event.until, u32::try_from(epoch).unwrap_or(u32::MAX)));
                        self.pending_heals.sort_by_key(|&(at, _)| at);
                    }
                    NodeFault::Gray => {}
                }
            } else if heal_at == Some(next) {
                let (at, epoch) = self.pending_heals.remove(0);
                self.heal(epoch, at);
            } else {
                let at = self.next_tick;
                self.next_tick = at.saturating_add(HEARTBEAT_INTERVAL);
                self.heartbeat(at);
            }
        }
        crashes
    }
}

#[cfg(test)]
mod tests {
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
        let run = || {
            let mut chaos = ChaosState::new(plan.clone(), policy(), 3).unwrap();
            let mut crashes = Vec::new();
            for ms in [5u64, 15, 22, 40, 60] {
                crashes.extend(chaos.advance(SimNanos::from_millis(ms)));
            }
            (crashes, chaos.log().to_vec(), chaos.heartbeats())
        };
        let (crashes, log, beats) = run();
        assert_eq!(run(), (crashes.clone(), log.clone(), beats));
        assert_eq!(crashes.len(), 1);
        assert_eq!(crashes[0].node, 0);
        assert!(log
            .iter()
            .any(|r| r.kind == ChaosEvent::Crash && r.node == 0));
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
