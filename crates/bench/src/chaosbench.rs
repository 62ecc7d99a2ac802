//! Deterministic JSON export of the chaos/survivability grid (`repro chaos`).
//!
//! [`ChaosBenchExport`]'s `generate` drives the chaos-aware open-loop
//! cluster engine ([`platform::cluster::ClusterSim::with_chaos`]) through a
//! fault-class × cluster-size × failover-policy grid on one shared
//! flash-crowd trace — the `flashcrowd` shape pr8 runs (Zipf Poisson
//! baseline plus a sub-boot-width viral burst) scaled to a 1 000-function
//! catalogue. Every cell injects one node-level
//! fault from [`faultsim::NodePlan`] just before the burst:
//!
//! - **crash** — the viral function's first template holder dies, dropping
//!   its in-flight work and replicas;
//! - **gray** — the same holder goes fail-slow (every boot, exec, and
//!   transfer wire stretched [`GRAY_SLOWDOWN`]×) without ever failing a
//!   liveness check;
//! - **partition** — the holder is islanded across the burst and heals
//!   after it.
//!
//! Each fault runs under both [`platform::cluster::ChaosPolicy`] settings:
//! `full-failover` (health-aware routing, re-replication, hedged
//! transfers, waiter timeouts) and the `no-failover` static-placement
//! baseline. The survivability gate the validator pins: full-failover
//! holds availability ≥ (N−1)/N with a sub-millisecond startup p99 while
//! the baseline fails typed at corpses, routes into the gray node's
//! stretched tail, or hangs waiters on orphaned transfers.
//!
//! The **storm** probe is the kill-the-busiest-holder composition: the
//! viral function's primary holder goes gray right before the burst —
//! slow enough that hedged transfers fire and win — then crashes
//! mid-burst, aborting the still-pending wires. Full-failover re-routes
//! every orphan; the baseline strands them (`hung > 0`).
//!
//! Everything runs on virtual time from seeded traces and plans, so two
//! runs produce byte-identical output — `tools/check.sh` validates
//! `BENCH_pr9.json` the same way it gates the pr2–pr4, pr7, and pr8
//! exports.

use crate::flashcrowd::{self, FlashCrowd};
use crate::{BenchError, Export};
use faultsim::NodePlan;
use platform::cluster::chaos::{
    HEARTBEAT_INTERVAL, HEDGE_DELAY, SUSPICION_THRESHOLD, TRANSFER_TIMEOUT,
};
use platform::cluster::{ChaosOutcome, ChaosPolicy, ClusterConfig, RoutingPolicy};
use platform::simulate::{Quantiles, TraceRequest};
use platform::PlatformError;
use runtimes::AppProfile;
use serde::{Deserialize, Serialize};
use simtime::{CostModel, SimNanos};

/// The shared pr9 workload — the pr8 flash-crowd shape at this grid's
/// scale.
const CROWD: FlashCrowd = FlashCrowd {
    seed: 0x0C10_0901,
    functions: 1_000,
    // ~2 s of baseline traffic.
    tail: 4_000,
    // Larger than both template holders' *combined* capacity, so the
    // overflow must pick a rung (remote sfork, shed) under every policy,
    // and a crash mid-burst always finds transfer wires in flight to
    // orphan.
    burst: 4_500,
};

/// Template replicas placed per function in every cell: the viral
/// function's holders are nodes 0 and 1, and every grid fault targets
/// holder 0.
pub const PLACEMENT_BUDGET: usize = 2;

/// The cluster-size axis of the grid.
pub const NODE_AXIS: [usize; 3] = [2, 4, 8];

/// Instant the grid fault lands — 100 ms before the burst, so the
/// scheduler meets the burst already degraded.
pub const FAULT_AT: SimNanos = SimNanos::from_millis(900);

/// When the partition cell's island rejoins (after the burst has passed).
pub const PARTITION_HEAL: SimNanos = SimNanos::from_millis(1_050);

/// Gray cells stretch every latency on the sick node by this factor.
pub const GRAY_SLOWDOWN: f64 = 200.0;

/// End of the gray window (past the end of the trace: sick all run).
pub const GRAY_UNTIL: SimNanos = SimNanos::from_secs(3);

/// Storm: the busiest holder goes gray this long before the burst…
pub const STORM_GRAY_AT: SimNanos = SimNanos::from_millis(990);

/// …and crashes this far into the burst: after the first hedges have
/// fired (hedge delay 300 µs) but mid-wire for the gray-stretched
/// transfers still pending, which the crash orphans.
pub const STORM_CRASH_AT: SimNanos = SimNanos::from_nanos(1_000_000_000 + 700_000);

/// One grid cell: a node fault × cluster size × failover policy on the
/// shared flash-crowd trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Fault-class label (`crash` / `gray` / `partition` / `storm`).
    pub fault: String,
    /// Nodes in the cluster.
    pub nodes: u64,
    /// Template replicas placed per function.
    pub placement_budget: u64,
    /// Failover-policy label (`full-failover` / `no-failover`).
    pub policy: String,
    /// Requests in the trace.
    pub requests: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests shed with every routable node at capacity.
    pub shed: u64,
    /// Requests the fault (or the policy) lost outright: killed in flight,
    /// routed at an unreachable node, or hung on an orphaned transfer.
    pub failed: u64,
    /// Of `failed`: waiters still stranded on orphaned transfers at the
    /// end of the run.
    pub hung: u64,
    /// `completed / requests` — the survivability gate's headline number.
    pub availability: f64,
    /// Requests served by a warm instance.
    pub reuses: u64,
    /// Requests served by a local sfork on a template holder.
    pub local: u64,
    /// Requests served by a remote sfork.
    pub remote: u64,
    /// Requests served by a cold boot.
    pub cold: u64,
    /// Template transfers started.
    pub transfers: u64,
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
    /// Hedges that beat their primary.
    pub hedge_wins: u64,
    /// In-flight transfers aborted by a source-node crash.
    pub aborted_transfers: u64,
    /// Requests that failed typed at an unreachable node.
    pub unreachable: u64,
    /// Chaos observations logged (crash/heal/suspect/failover/…).
    pub chaos_events: u64,
    /// Events the queue processed.
    pub events: u64,
    /// Virtual time of the last event.
    pub horizon: SimNanos,
    /// Startup distribution across every served request.
    pub startup: Quantiles,
    /// End-to-end (startup + execution) distribution.
    pub end_to_end: Quantiles,
    /// Startup distribution of the remote-sfork rung alone.
    pub remote_startup: Quantiles,
    /// FNV-1a digest of every routing decision in order.
    pub route_hash: u64,
}

/// The whole `BENCH_pr9.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosBenchExport {
    /// Format tag ([`Export::SCHEMA`]).
    pub schema: String,
    /// Machine model the latencies were simulated on.
    pub machine: String,
    /// Catalogue/trace/plan seed.
    pub seed: u64,
    /// Functions in the catalogue.
    pub functions: u64,
    /// Zipf exponent of baseline popularity.
    pub zipf_exponent: f64,
    /// Keep-alive every cell runs with.
    pub keep_alive: SimNanos,
    /// Concurrent-instance cap per node.
    pub node_capacity: u64,
    /// Poisson baseline rate.
    pub base_rate_hz: f64,
    /// Viral burst size.
    pub burst: u64,
    /// Burst window width.
    pub burst_width: SimNanos,
    /// Instant the grid fault lands.
    pub fault_at: SimNanos,
    /// When the partition cells heal.
    pub partition_heal: SimNanos,
    /// Gray-cell latency stretch factor.
    pub gray_slowdown: f64,
    /// Heartbeat spacing of the health tracker.
    pub heartbeat_interval: SimNanos,
    /// Ack latency above which a node is suspected fail-slow.
    pub suspicion_threshold: SimNanos,
    /// Hedge delay before a second transfer source fires.
    pub hedge_delay: SimNanos,
    /// How long an orphaned transfer waiter waits before re-routing.
    pub transfer_timeout: SimNanos,
    /// The grid, in axis order (fault class, then nodes, then policy).
    pub cells: Vec<ChaosCell>,
    /// The gray-then-crash busiest-holder storm under full failover.
    pub storm_full: ChaosCell,
    /// The same storm under the no-failover baseline.
    pub storm_none: ChaosCell,
}

/// The grid's three fault classes, all aimed at the viral function's
/// first template holder (node 0).
fn grid_plans() -> Vec<(&'static str, NodePlan)> {
    vec![
        ("crash", NodePlan::quiet(CROWD.seed).with_crash(0, FAULT_AT)),
        (
            "gray",
            NodePlan::quiet(CROWD.seed).with_gray(0, FAULT_AT, GRAY_UNTIL, GRAY_SLOWDOWN),
        ),
        (
            "partition",
            NodePlan::quiet(CROWD.seed).with_partition([0], FAULT_AT, PARTITION_HEAL),
        ),
    ]
}

/// The storm plan: the busiest holder goes gray just before the burst
/// (hedges fire around its stretched wires), then crashes mid-burst
/// (the pending wires abort).
fn storm_plan() -> NodePlan {
    NodePlan::quiet(CROWD.seed)
        .with_gray(0, STORM_GRAY_AT, GRAY_UNTIL, GRAY_SLOWDOWN)
        .with_crash(0, STORM_CRASH_AT)
}

fn cell_row(
    fault: &str,
    nodes: usize,
    policy: ChaosPolicy,
    requests: usize,
    outcome: &ChaosOutcome,
) -> ChaosCell {
    ChaosCell {
        fault: fault.to_string(),
        nodes: u64::try_from(nodes).unwrap_or(u64::MAX),
        placement_budget: u64::try_from(PLACEMENT_BUDGET).unwrap_or(u64::MAX),
        policy: policy.label().to_string(),
        requests: u64::try_from(requests).unwrap_or(u64::MAX),
        completed: outcome.cluster.completed,
        shed: outcome.cluster.shed,
        failed: outcome.failed,
        hung: outcome.hung,
        availability: outcome.cluster.goodput,
        reuses: outcome.cluster.reuses,
        local: outcome.cluster.local,
        remote: outcome.cluster.remote,
        cold: outcome.cluster.cold,
        transfers: outcome.cluster.transfers,
        crashes: outcome.crashes,
        heartbeats: outcome.heartbeats,
        suspected: outcome.suspected,
        failovers: outcome.failovers,
        rereplications: outcome.rereplications,
        hedges: outcome.hedges,
        hedge_wins: outcome.hedge_wins,
        aborted_transfers: outcome.aborted_transfers,
        unreachable: outcome.unreachable,
        chaos_events: u64::try_from(outcome.chaos_log.len()).unwrap_or(u64::MAX),
        events: outcome.cluster.events,
        horizon: outcome.cluster.horizon,
        startup: outcome.cluster.startup,
        end_to_end: outcome.cluster.end_to_end,
        remote_startup: outcome.cluster.remote_startup,
        route_hash: outcome.cluster.route_hash,
    }
}

fn run_cell(
    model: &CostModel,
    cat: &[AppProfile],
    trace: &[TraceRequest],
    fault: &str,
    nodes: usize,
    plan: &NodePlan,
    policy: ChaosPolicy,
) -> Result<ChaosCell, PlatformError> {
    let mut config = ClusterConfig::new(nodes, PLACEMENT_BUDGET);
    config.routing = RoutingPolicy::RemoteFork;
    let outcome = flashcrowd::cluster_sim(model, cat, config)
        .with_chaos(plan.clone(), policy)
        .run_chaos(trace)?;
    Ok(cell_row(fault, nodes, policy, trace.len(), &outcome))
}

fn check_conservation(tag: &str, cell: &ChaosCell) -> Result<(), String> {
    flashcrowd::check_availability(tag, cell.requests, cell.completed, cell.availability)?;
    if cell.completed + cell.shed + cell.failed != cell.requests {
        return Err(format!("{tag}: completed + shed + failed != requests"));
    }
    if cell.hung > cell.failed {
        return Err(format!("{tag}: hung waiters exceed failures"));
    }
    // Rung counters count routings: a waiter re-routed off an aborted
    // transfer is counted on both its rungs, so the sum bounds completions
    // from below.
    if cell.reuses + cell.local + cell.remote + cell.cold < cell.completed {
        return Err(format!("{tag}: rung counts do not cover completions"));
    }
    // Startup samples are recorded at dispatch; a request killed in flight
    // by a crash leaves a sample without completing, so the sample count
    // brackets completions from above (and total requests from below).
    if cell.startup.count < cell.completed || cell.startup.count > cell.requests {
        return Err(format!(
            "{tag}: startup samples outside [completed, requests]"
        ));
    }
    if cell.end_to_end.count != cell.startup.count {
        return Err(format!("{tag}: end-to-end samples != startup samples"));
    }
    if cell.policy == ChaosPolicy::none().label()
        && (cell.failovers != 0 || cell.rereplications != 0 || cell.hedges != 0)
    {
        return Err(format!("{tag}: the no-failover baseline failed over"));
    }
    Ok(())
}

/// Looks up one grid cell by its three axes.
fn pick<'a>(
    export: &'a ChaosBenchExport,
    fault: &str,
    nodes: usize,
    policy: ChaosPolicy,
) -> Result<&'a ChaosCell, String> {
    export
        .cells
        .iter()
        .find(|c| c.fault == fault && c.nodes == nodes as u64 && c.policy == policy.label())
        .ok_or_else(|| {
            format!(
                "missing {fault} cell for {nodes} nodes / {}",
                policy.label()
            )
        })
}

impl Export for ChaosBenchExport {
    const COMMAND: &'static str = "chaos";
    const DEFAULT_PATH: &'static str = "BENCH_pr9.json";
    const SCHEMA: &'static str = "catalyzer-bench/pr9-v1";

    /// Runs the fault × nodes × policy grid plus the two storm probes.
    fn generate(model: &CostModel) -> Result<Self, BenchError> {
        let cat = CROWD.catalogue();
        let trace = CROWD.trace();

        let mut cells = Vec::new();
        for (fault, plan) in grid_plans() {
            for nodes in NODE_AXIS {
                for policy in [ChaosPolicy::full(), ChaosPolicy::none()] {
                    cells.push(run_cell(model, &cat, &trace, fault, nodes, &plan, policy)?);
                }
            }
        }
        let storm = storm_plan();
        let storm_full = run_cell(model, &cat, &trace, "storm", 4, &storm, ChaosPolicy::full())?;
        let storm_none = run_cell(model, &cat, &trace, "storm", 4, &storm, ChaosPolicy::none())?;

        Ok(Self {
            schema: Self::SCHEMA.to_string(),
            machine: model.machine.label().to_string(),
            seed: CROWD.seed,
            functions: u64::try_from(CROWD.functions).unwrap_or(u64::MAX),
            zipf_exponent: flashcrowd::ZIPF_EXPONENT,
            keep_alive: flashcrowd::KEEP_ALIVE,
            node_capacity: u64::try_from(flashcrowd::NODE_CAPACITY).unwrap_or(u64::MAX),
            base_rate_hz: flashcrowd::BASE_RATE_HZ,
            burst: u64::try_from(CROWD.burst).unwrap_or(u64::MAX),
            burst_width: flashcrowd::BURST_WIDTH,
            fault_at: FAULT_AT,
            partition_heal: PARTITION_HEAL,
            gray_slowdown: GRAY_SLOWDOWN,
            heartbeat_interval: HEARTBEAT_INTERVAL,
            suspicion_threshold: SUSPICION_THRESHOLD,
            hedge_delay: HEDGE_DELAY,
            transfer_timeout: TRANSFER_TIMEOUT,
            cells,
            storm_full,
            storm_none,
        })
    }

    /// Validates an export's internal consistency and the survivability gate
    /// the grid exists to demonstrate: under every fault class the
    /// full-failover policy holds availability ≥ (N−1)/N with a
    /// sub-millisecond startup p99, never routes at an unreachable node, and
    /// never strands a waiter; the no-failover baseline fails typed at
    /// corpses and islands, pays the gray node's stretched tail, and hangs
    /// orphaned transfer waiters in the storm.
    fn validate(&self) -> Result<(), String> {
        Self::check_schema(&self.schema)?;
        let expected = 3 * NODE_AXIS.len() * 2;
        if self.cells.len() != expected {
            return Err(format!(
                "grid incomplete: {} cells (expected {expected})",
                self.cells.len()
            ));
        }

        for cell in &self.cells {
            let tag = format!("cell {}/{}n/{}", cell.fault, cell.nodes, cell.policy);
            check_conservation(&tag, cell)?;
            if cell.fault == "crash" && cell.crashes != 1 {
                return Err(format!("{tag}: scheduled crash never fired"));
            }
            if cell.fault != "crash" && cell.crashes != 0 {
                return Err(format!("{tag}: unscheduled crash fired"));
            }
            if cell.heartbeats == 0 {
                return Err(format!("{tag}: the health tracker never ran"));
            }
        }

        for &nodes in &NODE_AXIS {
            let floor = (nodes as f64 - 1.0) / nodes as f64;
            for fault in ["crash", "gray", "partition"] {
                let full = pick(self, fault, nodes, ChaosPolicy::full())?;
                let base = pick(self, fault, nodes, ChaosPolicy::none())?;
                let tag = format!("{fault}/{nodes}n");

                // The survivability gate: full failover rides out one sick
                // node out of N at sub-millisecond startup.
                if full.availability < floor {
                    return Err(format!(
                        "{tag}: full-failover availability {:.4} under the ({}−1)/{} floor {floor:.4}",
                        full.availability, nodes, nodes
                    ));
                }
                // Quantiles resolve to bucket upper bounds, so "sub-ms" means
                // the 1 ms bucket: every sample at or under one millisecond.
                if full.startup.p99 > SimNanos::from_millis(1) {
                    return Err(format!(
                        "{tag}: full-failover startup p99 {:?} is not sub-millisecond",
                        full.startup.p99
                    ));
                }
                if full.hung != 0 {
                    return Err(format!(
                        "{tag}: full failover stranded {} waiters",
                        full.hung
                    ));
                }
                if full.unreachable != 0 {
                    return Err(format!(
                        "{tag}: health-aware routing sent {} requests at unreachable nodes",
                        full.unreachable
                    ));
                }

                // The baseline must be measurably worse in the fault class's
                // own signature way.
                match fault {
                    "crash" | "partition" => {
                        if base.unreachable == 0 {
                            return Err(format!(
                                "{tag}: the static-placement baseline never hit the dead node"
                            ));
                        }
                        if base.availability >= full.availability {
                            return Err(format!(
                                "{tag}: baseline availability {:.4} not under full-failover's {:.4}",
                                base.availability, full.availability
                            ));
                        }
                    }
                    _ => {
                        // Gray: the node stays reachable, so the baseline keeps
                        // routing into its stretched latencies — the tail, not
                        // availability, is what suffers.
                        if base.startup.p99 <= full.startup.p99 {
                            return Err(format!(
                                "{tag}: baseline startup p99 {:?} not over full-failover's {:?}",
                                base.startup.p99, full.startup.p99
                            ));
                        }
                        if full.suspected == 0 {
                            return Err(format!(
                                "{tag}: the slow-ack check never suspected the gray node"
                            ));
                        }
                        // With a spare node, overflow transfers pick the
                        // idle-looking gray holder as source — and the hedge
                        // must beat its stretched wire.
                        if nodes > PLACEMENT_BUDGET && (full.hedges == 0 || full.hedge_wins == 0) {
                            return Err(format!(
                                "{tag}: no hedge fired (or won) around the gray transfer source"
                            ));
                        }
                    }
                }
            }

            // Crash: the dead holder's replicas are rebuilt — when a
            // non-holder node exists to rebuild on. And with a spare node,
            // every full-failover cell's overflow rides the remote rung.
            if nodes > PLACEMENT_BUDGET {
                let full = pick(self, "crash", nodes, ChaosPolicy::full())?;
                if full.rereplications == 0 {
                    return Err(format!(
                        "crash/{nodes}n: no template re-replication after the holder died"
                    ));
                }
                for fault in ["crash", "gray", "partition"] {
                    let full = pick(self, fault, nodes, ChaosPolicy::full())?;
                    if full.remote == 0 || full.transfers == 0 {
                        return Err(format!(
                            "{fault}/{nodes}n: full failover never used the remote-sfork rung"
                        ));
                    }
                }
            }
        }

        // The storm: gray forces hedges, the crash aborts pending wires, and
        // only the failover policy gets every waiter home.
        for (tag, cell) in [
            ("storm/full", &self.storm_full),
            ("storm/none", &self.storm_none),
        ] {
            check_conservation(tag, cell)?;
            if cell.crashes != 1 {
                return Err(format!("{tag}: the storm crash never fired"));
            }
        }
        let full = &self.storm_full;
        if full.hedges == 0 || full.hedge_wins == 0 {
            return Err("storm/full: hedged transfers never fired or never won".into());
        }
        if full.aborted_transfers == 0 || full.failovers == 0 {
            return Err("storm/full: the crash aborted no wires or re-routed no waiters".into());
        }
        if full.hung != 0 {
            return Err(format!("storm/full: {} waiters stranded", full.hung));
        }
        if full.availability < 0.75 {
            return Err(format!(
                "storm/full: availability {:.4} under the (4−1)/4 floor",
                full.availability
            ));
        }
        if full.rereplications == 0 {
            return Err("storm/full: the dead holder's replicas were never rebuilt".into());
        }
        // Failover re-arrivals carry the 1 ms waiter timeout as queueing lag,
        // so the storm tail sits one bucket over the grid's — but bounded.
        if full.startup.p99 > SimNanos::from_millis(2) {
            return Err(format!(
                "storm/full: startup p99 {:?} over the 2 ms failover bound",
                full.startup.p99
            ));
        }
        if self.storm_none.hung == 0 {
            return Err("storm/none: the baseline never hung a waiter — the storm missed".into());
        }
        if self.storm_none.availability >= full.availability {
            return Err(format!(
                "storm/none: baseline availability {:.4} not under full-failover's {:.4}",
                self.storm_none.availability, full.availability
            ));
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!("{} cells + 2 storms", self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_crash_cell_is_deterministic_and_conserves_requests() {
        let model = CostModel::experimental_machine();
        let cat = vec![AppProfile::c_hello()];
        let trace: Vec<TraceRequest> = (0..300u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(i * 20),
                function: 0,
            })
            .collect();
        let plan = NodePlan::quiet(7).with_crash(0, SimNanos::from_millis(3));
        let run =
            || run_cell(&model, &cat, &trace, "crash", 4, &plan, ChaosPolicy::full()).unwrap();
        let a = run();
        let b = run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        check_conservation("test", &a).unwrap();
        assert_eq!(a.crashes, 1);
    }
}
