//! Seeded node-level fault schedules.
//!
//! [`FaultPlan`](crate::FaultPlan) injects at boot-pipeline *seams* — an
//! mmap that fails, a transfer that stalls. This module models the layer
//! above: whole machines misbehaving. A [`NodePlan`] is a pure-data,
//! virtually-scheduled list of node faults in three classes:
//!
//! - [`NodeFault::Crash`] — the node drops every in-flight request and
//!   every template replica it held, permanently for the run;
//! - [`NodeFault::Partition`] — a node-set splits off: routing and
//!   transfers across the cut fail typed
//!   (`PlatformError::Unreachable`) until the scheduled heal;
//! - [`NodeFault::Gray`] — fail-slow: a latency multiplier on everything
//!   the node serves for a window. Gray nodes still ack heartbeats — just
//!   slowly — which is exactly what defeats naive liveness checks.
//!
//! Like every schedule in this workspace, a `NodePlan` is replayable by
//! construction: it is sorted data consumed in virtual-time order, with no
//! RNG or clock access at consultation time. The seeded [`NodePlan::storm`]
//! generator draws its schedule once, up front, from the workspace's
//! `StdRng` discipline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simtime::SimNanos;

/// The three classes of node-level misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeFault {
    /// Fail-stop: in-flight work is lost, template replicas are gone, and
    /// the node never rejoins for the rest of the run.
    Crash,
    /// A node set splits from the scheduler's side of the network until a
    /// scheduled heal. Work already running on the island finishes; new
    /// routes and cross-cut transfers fail typed.
    Partition,
    /// Fail-slow: everything the node serves (boots, execs, heartbeat
    /// acks, transfers it sources) is stretched by a multiplier for a
    /// window.
    Gray,
}

impl NodeFault {
    /// Stable label for logs and bench exports.
    pub fn label(self) -> &'static str {
        match self {
            NodeFault::Crash => "crash",
            NodeFault::Partition => "partition",
            NodeFault::Gray => "gray",
        }
    }
}

/// One scheduled node fault, flattened so every class shares one record:
/// `island`/`until`/`slowdown` are meaningful only for the classes that
/// use them (and are normalized to empty/`at`/`1.0` otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFaultEvent {
    /// Virtual time at which the fault takes effect.
    pub at: SimNanos,
    /// The fault class.
    pub fault: NodeFault,
    /// The faulted node ([`NodeFault::Crash`], [`NodeFault::Gray`]); the
    /// lowest island node for [`NodeFault::Partition`].
    pub node: u32,
    /// The nodes on the far side of a [`NodeFault::Partition`] cut; empty
    /// for the other classes.
    pub island: Vec<u32>,
    /// When the fault lifts: the partition's heal time, or the gray
    /// window's end. `at` itself (an empty window) for crashes, which
    /// never lift.
    pub until: SimNanos,
    /// Latency multiplier while gray (`>= 1.0`; exactly `1.0` for the
    /// other classes).
    pub slowdown: f64,
}

impl NodeFaultEvent {
    fn crash(node: u32, at: SimNanos) -> NodeFaultEvent {
        NodeFaultEvent {
            at,
            fault: NodeFault::Crash,
            node,
            island: Vec::new(),
            until: at,
            slowdown: 1.0,
        }
    }

    fn partition(mut island: Vec<u32>, at: SimNanos, heal_at: SimNanos) -> NodeFaultEvent {
        island.sort_unstable();
        island.dedup();
        NodeFaultEvent {
            at,
            fault: NodeFault::Partition,
            node: island.first().copied().unwrap_or(0),
            island,
            until: heal_at.max(at),
            slowdown: 1.0,
        }
    }

    fn gray(node: u32, at: SimNanos, until: SimNanos, slowdown: f64) -> NodeFaultEvent {
        NodeFaultEvent {
            at,
            fault: NodeFault::Gray,
            node,
            island: Vec::new(),
            until: until.max(at),
            slowdown: if slowdown.is_nan() {
                1.0
            } else {
                slowdown.clamp(1.0, f64::MAX)
            },
        }
    }
}

/// A seeded, replayable node-level fault schedule.
///
/// Pure data: two engines consuming the same plan over the same trace
/// replay byte-identical fault histories. An empty plan must be provably
/// inert — the cluster engines take their unfaulted code paths untouched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePlan {
    /// Seed recorded for provenance (and used by [`NodePlan::storm`]).
    pub seed: u64,
    /// The schedule, kept sorted by `at` (stable: ties keep insertion
    /// order).
    events: Vec<NodeFaultEvent>,
}

impl NodePlan {
    /// A plan with no faults — the inert baseline.
    pub fn quiet(seed: u64) -> NodePlan {
        NodePlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds a fail-stop crash of `node` at `at`, builder-style.
    pub fn with_crash(mut self, node: u32, at: SimNanos) -> NodePlan {
        self.push(NodeFaultEvent::crash(node, at));
        self
    }

    /// Adds a partition cutting `island` off from `at` until `heal_at`,
    /// builder-style.
    pub fn with_partition(
        mut self,
        island: impl Into<Vec<u32>>,
        at: SimNanos,
        heal_at: SimNanos,
    ) -> NodePlan {
        self.push(NodeFaultEvent::partition(island.into(), at, heal_at));
        self
    }

    /// Adds a gray (fail-slow) window on `node` from `at` until `until`
    /// with latency multiplier `slowdown`, builder-style.
    ///
    /// The multiplier saturates: `+∞` is `f64::MAX`, the slowest node there
    /// is, never a healthy one. NaN and values at or below 1 are 1.0 — a
    /// node is never faster for being gray.
    pub fn with_gray(
        mut self,
        node: u32,
        at: SimNanos,
        until: SimNanos,
        slowdown: f64,
    ) -> NodePlan {
        self.push(NodeFaultEvent::gray(node, at, until, slowdown));
        self
    }

    /// A seeded storm: `count` faults drawn uniformly across the three
    /// classes and `nodes` nodes, scheduled inside `[start, end)`. The
    /// schedule is drawn once here; consuming it involves no RNG.
    ///
    /// The events are drawn first and stable-sorted once: the same
    /// schedule the builders would make pushing them one at a time, at
    /// O(n log n) instead of a sort per push.
    pub fn storm(seed: u64, nodes: u32, count: usize, start: SimNanos, end: SimNanos) -> NodePlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let span = end.saturating_sub(start).as_nanos().max(1);
        let mut events: Vec<NodeFaultEvent> = (0..count)
            .map(|_| {
                let at = start.saturating_add(SimNanos::from_nanos(rng.gen_range(0..span)));
                let node = rng.gen_range(0..nodes.max(1));
                match rng.gen_range(0..3u8) {
                    0 => NodeFaultEvent::crash(node, at),
                    1 => {
                        let heal = at.saturating_add(SimNanos::from_nanos(rng.gen_range(0..span)));
                        NodeFaultEvent::partition(vec![node], at, heal)
                    }
                    _ => {
                        let until = at.saturating_add(SimNanos::from_nanos(rng.gen_range(0..span)));
                        NodeFaultEvent::gray(node, at, until, rng.gen_range(2.0..50.0))
                    }
                }
            })
            .collect();
        events.sort_by_key(|e| e.at);
        NodePlan { seed, events }
    }

    /// Inserts `event` after every scheduled event firing at or before
    /// it, so equal-`at` events keep insertion order.
    fn push(&mut self, event: NodeFaultEvent) {
        let at = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(at, event);
    }

    /// The schedule, sorted by fire time.
    pub fn events(&self) -> &[NodeFaultEvent] {
        &self.events
    }

    /// The highest node index the plan touches, if any — validation
    /// against the cluster shape.
    pub fn max_node(&self) -> Option<u32> {
        self.events
            .iter()
            .map(|e| {
                e.island
                    .iter()
                    .copied()
                    .max()
                    .map_or(e.node, |i| i.max(e.node))
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_sort_by_time_and_round_trip() {
        let plan = NodePlan::quiet(7)
            .with_gray(2, SimNanos::from_millis(9), SimNanos::from_millis(30), 8.0)
            .with_crash(1, SimNanos::from_millis(3))
            .with_partition(
                vec![2, 0],
                SimNanos::from_millis(5),
                SimNanos::from_millis(20),
            );
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(plan.max_node(), Some(2));
        let partition = &plan.events()[1];
        assert_eq!(partition.fault, NodeFault::Partition);
        assert_eq!(partition.island, vec![0, 2], "island sorted and deduped");
        let json = serde_json::to_string(&plan).unwrap();
        let back: NodePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn quiet_plan_is_quiet() {
        let plan = NodePlan::quiet(0);
        assert!(plan.events().is_empty());
        assert_eq!(plan.max_node(), None);
    }

    #[test]
    fn storm_is_deterministic_and_windowed() {
        let storm = || {
            NodePlan::storm(
                0xBAD,
                4,
                12,
                SimNanos::from_millis(100),
                SimNanos::from_millis(900),
            )
        };
        let a = storm();
        assert_eq!(a, storm());
        assert_eq!(a.events().len(), 12);
        for event in a.events() {
            assert!(event.at >= SimNanos::from_millis(100));
            assert!(event.slowdown >= 1.0);
            assert!(event.until >= event.at);
        }
        assert!(a.max_node().unwrap() < 4);
    }

    /// The storm as it was drawn before the one-sort build: every event
    /// pushed through its builder as it is drawn.
    fn storm_by_builders(
        seed: u64,
        nodes: u32,
        count: usize,
        start: SimNanos,
        end: SimNanos,
    ) -> NodePlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = NodePlan::quiet(seed);
        let span = end.saturating_sub(start).as_nanos().max(1);
        for _ in 0..count {
            let at = start.saturating_add(SimNanos::from_nanos(rng.gen_range(0..span)));
            let node = rng.gen_range(0..nodes.max(1));
            plan = match rng.gen_range(0..3u8) {
                0 => plan.with_crash(node, at),
                1 => {
                    let heal = at.saturating_add(SimNanos::from_nanos(rng.gen_range(0..span)));
                    plan.with_partition(vec![node], at, heal)
                }
                _ => {
                    let until = at.saturating_add(SimNanos::from_nanos(rng.gen_range(0..span)));
                    plan.with_gray(node, at, until, rng.gen_range(2.0..50.0))
                }
            };
        }
        plan
    }

    #[test]
    fn a_storm_equals_its_events_pushed_one_at_a_time() {
        let start = SimNanos::from_millis(900);
        // Wide windows tie rarely; a 1–7 ns window forces most events onto
        // a handful of instants, where insertion order must survive.
        let windows = [
            SimNanos::from_secs(60),
            SimNanos::from_nanos(7),
            SimNanos::from_nanos(1),
            SimNanos::ZERO,
        ];
        for seed in [0, 11, 83, 97, 0xBAD] {
            for count in [0, 1, 2, 12, 300, 2_000] {
                for width in windows {
                    let end = start.saturating_add(width);
                    let storm = NodePlan::storm(seed, 8, count, start, end);
                    assert_eq!(
                        storm,
                        storm_by_builders(seed, 8, count, start, end),
                        "seed {seed}, {count} events, window {width:?}"
                    );
                    assert_eq!(storm.events().len(), count);
                }
            }
        }
    }

    #[test]
    fn equal_instants_keep_insertion_order() {
        let at = SimNanos::from_millis(5);
        let plan = NodePlan::quiet(0)
            .with_gray(3, at, SimNanos::from_millis(9), 4.0)
            .with_crash(1, SimNanos::from_millis(7))
            .with_crash(2, at)
            .with_crash(0, SimNanos::from_millis(1))
            .with_partition(vec![4], at, SimNanos::from_millis(6));
        let order: Vec<(u64, u32)> = plan
            .events()
            .iter()
            .map(|e| (e.at.as_millis_f64() as u64, e.node))
            .collect();
        assert_eq!(order, vec![(1, 0), (5, 3), (5, 2), (5, 4), (7, 1)]);
    }

    #[test]
    fn degenerate_windows_are_clamped() {
        let plan = NodePlan::quiet(1)
            .with_partition(vec![1], SimNanos::from_millis(5), SimNanos::from_millis(2))
            .with_gray(0, SimNanos::from_millis(7), SimNanos::ZERO, 0.5);
        for event in plan.events() {
            assert_eq!(event.until, event.at, "degenerate windows clamp to empty");
            assert_eq!(event.slowdown, 1.0);
        }
    }

    #[test]
    fn an_infinite_slowdown_saturates_and_nan_or_at_most_one_is_healthy() {
        let slowdown = |s: f64| {
            NodePlan::quiet(1)
                .with_gray(0, SimNanos::ZERO, SimNanos::from_millis(1), s)
                .events()[0]
                .slowdown
        };
        assert_eq!(slowdown(f64::INFINITY), f64::MAX);
        assert_eq!(slowdown(f64::MAX), f64::MAX);
        assert_eq!(slowdown(200.0), 200.0);
        for healthy in [f64::NAN, f64::NEG_INFINITY, -3.0, -0.0, 0.0, 0.5, 1.0] {
            assert_eq!(slowdown(healthy), 1.0, "{healthy}");
        }
    }
}
