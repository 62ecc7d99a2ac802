//! Deterministic JSON export of the cluster sweep (`repro cluster`).
//!
//! [`ClusterBenchExport`]'s `generate` drives the open-loop cluster engine
//! ([`platform::cluster::ClusterSim`]) through a nodes × placement-budget ×
//! routing-policy grid on one shared flash-crowd trace (the `flashcrowd`
//! module's shape): a Poisson baseline with Zipf-skewed popularity over a
//! 10 000-function catalogue, plus a viral burst of 3 000 arrivals for one
//! function inside a window shorter than a single fork boot. The burst
//! saturates the function's template holders, so overflow traffic must
//! pick a rung: remote sfork from a holder
//! ([`platform::cluster::RoutingPolicy::RemoteFork`]) or a registry pull
//! and cold boot (the [`platform::cluster::RoutingPolicy::LocalCold`]
//! baseline).
//!
//! The export also carries two non-grid probes the validator pins:
//!
//! - **parity** — a single-node closed-loop [`Cluster`] and a plain
//!   `Gateway<CatalyzerEngine>` replay the same request sequence; their
//!   span trees and gateway metrics must digest identically (the cluster
//!   layer adds nothing until there is a second node);
//! - **storm** — the grid's remote-fork shape re-run with the
//!   template-transfer seam poisoned: transfers fault, requests degrade to
//!   cold instead of shedding, and background repairs restore the fabric.
//!
//! Everything runs on virtual time from seeded traces, so two runs produce
//! byte-identical output — `tools/check.sh` validates `BENCH_pr8.json` the
//! same way it gates the pr2–pr4 and pr7 exports.

use crate::flashcrowd::{self, FlashCrowd};
use crate::Export;
use catalyzer::{BootMode, CatalyzerEngine};
use faultsim::{FaultPlan, InjectionPoint, PointPlan};
use platform::cluster::{ClusterConfig, ClusterOutcome, RoutingPolicy, TransferCosts};
use platform::simulate::{Quantiles, TraceRequest};
use platform::{Cluster, Gateway, Invocation, InvokeRequest, PlatformError};
use runtimes::AppProfile;
use serde::{Deserialize, Serialize};
use simtime::{CostModel, SimNanos};

/// The shared pr8 workload.
const CROWD: FlashCrowd = FlashCrowd {
    seed: 0x0C10_0801,
    functions: 10_000,
    tail: 6_000,
    // 1.5× one node's capacity: one node cannot absorb the burst, two can —
    // the capacity cliff the routing policies fight over.
    burst: 3_000,
};

/// The node-count axis of the grid.
pub const NODE_AXIS: [usize; 4] = [1, 2, 4, 8];

/// The placement-budget axis (skipped where the budget exceeds the nodes).
pub const BUDGET_AXIS: [usize; 2] = [1, 2];

/// Requests the closed-loop parity probe replays on both stacks.
pub const PARITY_REQUESTS: usize = 48;

/// One grid cell: a cluster shape × routing policy on the shared trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterCell {
    /// Nodes in the cluster.
    pub nodes: u64,
    /// Template replicas placed per function.
    pub placement_budget: u64,
    /// Routing policy label (`remote-fork` / `local-cold`).
    pub policy: String,
    /// Requests in the trace.
    pub requests: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests shed with every node at capacity.
    pub shed: u64,
    /// `completed / requests`.
    pub availability: f64,
    /// Requests served by a warm instance.
    pub reuses: u64,
    /// Requests served by a local sfork on a template holder.
    pub local: u64,
    /// Requests served by a remote sfork.
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
    /// Events the queue processed.
    pub events: u64,
    /// Virtual time of the last event.
    pub horizon: SimNanos,
    /// `cold / requests`.
    pub cold_rate: f64,
    /// Most instances ever live at once on any node.
    pub peak_node_instances: u64,
    /// Per-node peak instance counts.
    pub per_node_peak: Vec<u64>,
    /// Startup distribution across every served request.
    pub startup: Quantiles,
    /// End-to-end (startup + execution) distribution.
    pub end_to_end: Quantiles,
    /// Startup distribution of the remote-sfork rung alone.
    pub remote_startup: Quantiles,
    /// Startup distribution of the cold rung alone.
    pub cold_startup: Quantiles,
    /// FNV-1a digest of every routing decision in order.
    pub route_hash: u64,
}

/// The single-node closed-loop equivalence probe.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParityProbe {
    /// Requests replayed on both stacks.
    pub requests: u64,
    /// FNV-1a digest of the plain `Gateway<CatalyzerEngine>` run: every
    /// span tree plus the final gateway metrics.
    pub gateway_digest: u64,
    /// The same digest over the single-node cluster's node-0 gateway.
    pub cluster_digest: u64,
    /// `gateway_digest == cluster_digest`.
    pub matches: bool,
}

/// The whole `BENCH_pr8.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterBenchExport {
    /// Format tag ([`Export::SCHEMA`]).
    pub schema: String,
    /// Machine model the latencies were simulated on.
    pub machine: String,
    /// Catalogue/trace seed.
    pub seed: u64,
    /// Functions in the catalogue.
    pub functions: u64,
    /// Zipf exponent of baseline popularity.
    pub zipf_exponent: f64,
    /// Keep-alive every cell runs with.
    pub keep_alive: SimNanos,
    /// Warm instances retained per (node, function).
    pub max_idle: u64,
    /// Concurrent-instance cap per node.
    pub node_capacity: u64,
    /// Poisson baseline rate.
    pub base_rate_hz: f64,
    /// Viral burst size.
    pub burst: u64,
    /// Burst window width.
    pub burst_width: SimNanos,
    /// RDMA setup cost per transfer.
    pub transfer_setup: SimNanos,
    /// Per-page one-sided read cost.
    pub transfer_per_page: SimNanos,
    /// Fraction of the template shipped eagerly.
    pub eager_fraction: f64,
    /// Registry pull paid by a cold boot on a non-holder node.
    pub cold_pull: SimNanos,
    /// Single-node closed-loop equivalence probe.
    pub parity: ParityProbe,
    /// The grid, in axis order (nodes, then budget, then policy).
    pub cells: Vec<ClusterCell>,
    /// The remote-fork shape under a poisoned transfer fabric.
    pub storm: ClusterCell,
}

fn fnv_bytes(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash = (*hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
}

fn cell_row(
    nodes: usize,
    budget: usize,
    policy: RoutingPolicy,
    requests: usize,
    outcome: &ClusterOutcome,
) -> ClusterCell {
    ClusterCell {
        nodes: u64::try_from(nodes).unwrap_or(u64::MAX),
        placement_budget: u64::try_from(budget).unwrap_or(u64::MAX),
        policy: policy.label().to_string(),
        requests: u64::try_from(requests).unwrap_or(u64::MAX),
        completed: outcome.completed,
        shed: outcome.shed,
        availability: outcome.goodput,
        reuses: outcome.reuses,
        local: outcome.local,
        remote: outcome.remote,
        cold: outcome.cold,
        reroutes: outcome.reroutes,
        transfers: outcome.transfers,
        transfer_faults: outcome.transfer_faults,
        node_repairs: outcome.node_repairs,
        expirations: outcome.expirations,
        events: outcome.events,
        horizon: outcome.horizon,
        cold_rate: outcome.cold_rate,
        peak_node_instances: u64::try_from(outcome.peak_node_instances).unwrap_or(u64::MAX),
        per_node_peak: outcome
            .per_node_peak
            .iter()
            .map(|&p| u64::try_from(p).unwrap_or(u64::MAX))
            .collect(),
        startup: outcome.startup,
        end_to_end: outcome.end_to_end,
        remote_startup: outcome.remote_startup,
        cold_startup: outcome.cold_startup,
        route_hash: outcome.route_hash,
    }
}

fn run_cell(
    model: &CostModel,
    cat: &[AppProfile],
    trace: &[TraceRequest],
    nodes: usize,
    budget: usize,
    policy: RoutingPolicy,
    plan: Option<FaultPlan>,
) -> Result<ClusterCell, PlatformError> {
    let mut config = ClusterConfig::new(nodes, budget);
    config.routing = policy;
    let mut sim = flashcrowd::cluster_sim(model, cat, config);
    if let Some(plan) = plan {
        sim = sim.with_faults(plan);
    }
    let outcome = sim.run_cluster(trace)?;
    Ok(cell_row(nodes, budget, policy, trace.len(), &outcome))
}

/// Folds one served invocation into a parity digest: the full span tree
/// plus the latency split.
fn fold_invocation(hash: &mut u64, invocation: &Invocation) -> Result<(), PlatformError> {
    let spans =
        serde_json::to_string(&invocation.trace).map_err(|e| PlatformError::ClusterConfig {
            detail: format!("parity digest serialization failed: {e}"),
        })?;
    fnv_bytes(hash, spans.as_bytes());
    fnv_bytes(hash, &invocation.report.boot.as_nanos().to_le_bytes());
    fnv_bytes(hash, &invocation.report.exec.as_nanos().to_le_bytes());
    fnv_bytes(hash, &invocation.queued.as_nanos().to_le_bytes());
    Ok(())
}

fn fold_metrics(hash: &mut u64, metrics: &simtime::MetricsRegistry) -> Result<(), PlatformError> {
    let text = serde_json::to_string(metrics).map_err(|e| PlatformError::ClusterConfig {
        detail: format!("parity digest serialization failed: {e}"),
    })?;
    fnv_bytes(hash, text.as_bytes());
    Ok(())
}

/// The request sequence both parity stacks replay: the two C profiles,
/// interleaved.
fn parity_sequence() -> Vec<&'static str> {
    (0..PARITY_REQUESTS)
        .map(|i| if i % 2 == 0 { "C-hello" } else { "C-Nginx" })
        .collect()
}

/// Replays the parity sequence on a plain gateway and on a single-node
/// cluster, digesting span trees and metrics from both.
fn parity_probe(model: &CostModel) -> Result<ParityProbe, PlatformError> {
    let sequence = parity_sequence();

    let mut gateway = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model.clone());
    gateway.register(AppProfile::c_hello());
    gateway.register(AppProfile::c_nginx());
    let mut gateway_digest = 0xcbf2_9ce4_8422_2325u64;
    for function in &sequence {
        let invocation = gateway.call(InvokeRequest::new(function))?;
        fold_invocation(&mut gateway_digest, &invocation)?;
    }
    fold_metrics(&mut gateway_digest, gateway.metrics())?;

    let mut cluster = Cluster::new(ClusterConfig::new(1, 1), model)?;
    cluster.register(AppProfile::c_hello());
    cluster.register(AppProfile::c_nginx());
    let mut cluster_digest = 0xcbf2_9ce4_8422_2325u64;
    for function in &sequence {
        let (_, invocation) = cluster.call(function, None)?;
        fold_invocation(&mut cluster_digest, &invocation)?;
    }
    let node = cluster
        .nodes()
        .first()
        .ok_or(PlatformError::ClusterConfig {
            detail: "single-node cluster has no node 0".into(),
        })?;
    fold_metrics(&mut cluster_digest, node.gateway().metrics())?;

    Ok(ParityProbe {
        requests: u64::try_from(sequence.len()).unwrap_or(u64::MAX),
        gateway_digest,
        cluster_digest,
        matches: gateway_digest == cluster_digest,
    })
}

/// The storm injector: every transfer consult fires, always poison, so the
/// fabric breaks on first use and background repairs must restore it.
fn storm_plan() -> FaultPlan {
    FaultPlan::zero(CROWD.seed)
        .with_point(
            InjectionPoint::TemplateTransfer,
            PointPlan {
                rate: 1.0,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        )
        .with_poison_ratio(1.0)
}

fn check_conservation(tag: &str, cell: &ClusterCell) -> Result<(), String> {
    flashcrowd::check_availability(tag, cell.requests, cell.completed, cell.availability)?;
    if cell.completed + cell.shed != cell.requests {
        return Err(format!("{tag}: completed + shed != requests"));
    }
    if cell.reuses + cell.local + cell.remote + cell.cold != cell.completed {
        return Err(format!("{tag}: rung counts do not sum to completions"));
    }
    if cell.startup.count != cell.completed || cell.end_to_end.count != cell.completed {
        return Err(format!("{tag}: latency samples != completions"));
    }
    if cell.policy == RoutingPolicy::LocalCold.label() && (cell.remote != 0 || cell.transfers != 0)
    {
        return Err(format!("{tag}: the no-remote-fork baseline remote-sforked"));
    }
    if cell.nodes == 1 && (cell.remote != 0 || cell.reroutes != 0) {
        return Err(format!("{tag}: a single node has nowhere to re-route"));
    }
    Ok(())
}

impl Export for ClusterBenchExport {
    const COMMAND: &'static str = "cluster";
    const DEFAULT_PATH: &'static str = "BENCH_pr8.json";
    const SCHEMA: &'static str = "catalyzer-bench/pr8-v1";

    /// Runs the grid, the parity probe, and the storm.
    fn generate(model: &CostModel) -> Result<Self, Box<dyn std::error::Error>> {
        let cat = CROWD.catalogue();
        let trace = CROWD.trace();
        let costs = TransferCosts::rdma_defaults();

        let mut cells = Vec::new();
        for nodes in NODE_AXIS {
            for budget in BUDGET_AXIS {
                if budget > nodes {
                    continue;
                }
                for policy in [RoutingPolicy::RemoteFork, RoutingPolicy::LocalCold] {
                    cells.push(run_cell(model, &cat, &trace, nodes, budget, policy, None)?);
                }
            }
        }
        let storm = run_cell(
            model,
            &cat,
            &trace,
            4,
            1,
            RoutingPolicy::RemoteFork,
            Some(storm_plan()),
        )?;
        let parity = parity_probe(model)?;

        Ok(Self {
            schema: Self::SCHEMA.to_string(),
            machine: model.machine.label().to_string(),
            seed: CROWD.seed,
            functions: u64::try_from(CROWD.functions).unwrap_or(u64::MAX),
            zipf_exponent: flashcrowd::ZIPF_EXPONENT,
            keep_alive: flashcrowd::KEEP_ALIVE,
            max_idle: u64::try_from(flashcrowd::MAX_IDLE).unwrap_or(u64::MAX),
            node_capacity: u64::try_from(flashcrowd::NODE_CAPACITY).unwrap_or(u64::MAX),
            base_rate_hz: flashcrowd::BASE_RATE_HZ,
            burst: u64::try_from(CROWD.burst).unwrap_or(u64::MAX),
            burst_width: flashcrowd::BURST_WIDTH,
            transfer_setup: costs.setup,
            transfer_per_page: costs.per_page,
            eager_fraction: costs.eager_fraction,
            cold_pull: costs.cold_pull,
            parity,
            cells,
            storm,
        })
    }

    /// Validates an export's internal consistency and the claims the sweep
    /// exists to demonstrate: the single-node cluster is byte-identical to the
    /// plain gateway; every zero-fault remote-fork cell with a second node
    /// holds availability 1.0 with zero cold boots while the local-cold
    /// baseline cold-boots (or sheds) on the same trace and pays a worse
    /// startup tail; and the storm absorbs transfer poison by degrading to
    /// cold — never by shedding — while background repairs run.
    fn validate(&self) -> Result<(), String> {
        Self::check_schema(&self.schema)?;
        if !self.parity.matches || self.parity.gateway_digest != self.parity.cluster_digest {
            return Err(format!(
                "single-node cluster diverged from the plain gateway: {:#x} vs {:#x}",
                self.parity.gateway_digest, self.parity.cluster_digest
            ));
        }

        let expected: usize = NODE_AXIS
            .iter()
            .map(|&n| 2 * BUDGET_AXIS.iter().filter(|&&b| b <= n).count())
            .sum();
        if self.cells.len() != expected {
            return Err(format!(
                "grid incomplete: {} cells (expected {expected})",
                self.cells.len()
            ));
        }

        for cell in &self.cells {
            let tag = format!(
                "cell {}n/{}r/{}",
                cell.nodes, cell.placement_budget, cell.policy
            );
            check_conservation(&tag, cell)?;
            if cell.transfer_faults != 0 || cell.node_repairs != 0 {
                return Err(format!("{tag}: faults fired without an injector"));
            }
        }

        // The headline comparison, per multi-node shape: the full ladder holds
        // availability 1.0 without a single cold boot; the baseline cold-boots
        // or sheds, and its startup tail is strictly worse.
        for &nodes in NODE_AXIS.iter().filter(|&&n| n > 1) {
            let pick = |policy: RoutingPolicy| {
                self.cells.iter().find(|c| {
                    c.nodes == nodes as u64 && c.placement_budget == 1 && c.policy == policy.label()
                })
            };
            let forked = pick(RoutingPolicy::RemoteFork)
                .ok_or_else(|| format!("missing remote-fork cell for {nodes} nodes"))?;
            let baseline = pick(RoutingPolicy::LocalCold)
                .ok_or_else(|| format!("missing local-cold cell for {nodes} nodes"))?;
            if forked.shed != 0 || forked.availability < 1.0 {
                return Err(format!(
                    "{nodes}-node remote-fork cell shed {} requests",
                    forked.shed
                ));
            }
            if forked.cold != 0 {
                return Err(format!("{nodes}-node remote-fork cell cold-booted"));
            }
            if forked.remote == 0 || forked.transfers == 0 {
                return Err(format!(
                    "{nodes}-node remote-fork cell never remote-sforked"
                ));
            }
            if baseline.cold == 0 && baseline.shed == 0 {
                return Err(format!(
                    "{nodes}-node local-cold baseline neither cold-booted nor shed"
                ));
            }
            if forked.startup.p99 >= baseline.startup.p99 {
                return Err(format!(
                    "{nodes}-node remote-fork p99 {:?} not under the cold baseline's {:?}",
                    forked.startup.p99, baseline.startup.p99
                ));
            }
            if baseline.cold > 0 && forked.remote_startup.p99 >= baseline.cold_startup.p99 {
                return Err(format!(
                    "{nodes}-node remote-sfork rung p99 {:?} not under the cold rung's {:?}",
                    forked.remote_startup.p99, baseline.cold_startup.p99
                ));
            }
        }

        // A single node cannot absorb the burst: the capacity cliff the
        // multi-node cells climb over.
        if let Some(single) = self.cells.iter().find(|c| c.nodes == 1) {
            if single.shed == 0 {
                return Err(
                    "the single-node cell absorbed the burst — no cliff to demonstrate".into(),
                );
            }
        }

        check_conservation("storm", &self.storm)?;
        if self.storm.transfer_faults == 0 {
            return Err("storm: the poisoned transfer fabric never faulted".into());
        }
        if self.storm.node_repairs == 0 {
            return Err("storm: no background repairs ran".into());
        }
        if self.storm.cold == 0 {
            return Err("storm: poisoned transfers must degrade to cold boots".into());
        }
        if self.storm.shed != 0 || self.storm.availability < 1.0 {
            return Err(format!(
                "storm: degradation must preserve availability (shed {})",
                self.storm.shed
            ));
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!("{} cells + parity + storm", self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_probe_matches_the_plain_gateway() {
        let model = CostModel::experimental_machine();
        let parity = parity_probe(&model).unwrap();
        assert!(
            parity.matches,
            "digests {:#x} vs {:#x}",
            parity.gateway_digest, parity.cluster_digest
        );
        assert_eq!(parity.requests, PARITY_REQUESTS as u64);
    }

    #[test]
    fn a_small_cell_is_deterministic_and_conserves_requests() {
        let model = CostModel::experimental_machine();
        let cat = vec![AppProfile::c_hello()];
        // 300 arrivals past the lone holder's capacity, all airborne before
        // any boot completes: the overflow has to take the remote rung.
        let trace: Vec<TraceRequest> = (0..flashcrowd::NODE_CAPACITY as u64 + 300)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_nanos(i),
                function: 0,
            })
            .collect();
        let run = || run_cell(&model, &cat, &trace, 4, 1, RoutingPolicy::RemoteFork, None).unwrap();
        let a = run();
        let b = run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        check_conservation("test", &a).unwrap();
        assert!(a.remote > 0, "{a:?}");
    }
}
