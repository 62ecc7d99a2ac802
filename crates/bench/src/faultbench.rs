//! Deterministic JSON export of the fault-injection sweep (`repro faults`).
//!
//! [`FaultBenchExport`]'s `generate` drives a [`Gateway`] over the
//! Catalyzer fork-boot ladder through a fault-rate × resilience-policy grid plus one fault *storm*
//! (every consultation inside a virtual-time window faults), and records
//! what each policy salvages: availability, degraded-success counts,
//! latency quantiles, per-point fault counts, fallback distribution, and
//! recovery latency. Everything runs on virtual time from one seeded
//! [`FaultPlan`], so two runs produce byte-identical output —
//! `tools/check.sh` relies on this to validate `BENCH_pr3.json` the same
//! way it gates `BENCH_pr2.json`.

use crate::Export;
use catalyzer::{BootMode, CatalyzerEngine};
use faultsim::{FaultPlan, InjectionPoint};
use platform::{Gateway, InvokeRequest, ResiliencePolicy};
use runtimes::AppProfile;
use serde::{Deserialize, Serialize};
use simtime::names;
use simtime::{CostModel, LatencyHistogram, SimNanos};

/// Seed every cell's [`FaultPlan`] is built from.
pub const SEED: u64 = 0xFA17;

/// Invocations per grid cell — enough that every nonzero rate fires.
pub const REQUESTS_PER_CELL: u64 = 64;

/// Fault rates swept (probability per injection-point consultation).
pub const RATES: &[f64] = &[0.0, 0.05, 0.2];

/// How often one injection point fired in a cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointCount {
    /// Injection point label (`image-mmap`, `sfork-merge`, ...).
    pub point: String,
    /// Faults fired there over the whole cell.
    pub fired: u64,
}

/// How often one fallback rung absorbed a request in a cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RungCount {
    /// Ladder rung (`warm`, `cold`).
    pub rung: String,
    /// Times the ladder fell back to this rung.
    pub count: u64,
}

/// One (fault rate, policy) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultCell {
    /// Fault rate per injection-point consultation.
    pub rate: f64,
    /// Policy label ([`ResiliencePolicy::label`]).
    pub policy: String,
    /// Requests driven through the gateway.
    pub requests: u64,
    /// Requests answered (clean or degraded).
    pub ok: u64,
    /// Successes that absorbed at least one fault.
    pub degraded: u64,
    /// Requests that surfaced an error.
    pub failed: u64,
    /// `ok / requests`.
    pub availability: f64,
    /// Median end-to-end latency over answered requests.
    pub p50: SimNanos,
    /// 99th-percentile end-to-end latency over answered requests.
    pub p99: SimNanos,
    /// 99th-percentile recovery latency (failed attempts + backoff +
    /// quarantine before the winning attempt) over degraded successes.
    pub recovery_p99: SimNanos,
    /// Retries performed across the cell.
    pub retries: u64,
    /// Quarantine-and-rebuild cycles across the cell.
    pub quarantines: u64,
    /// Faults fired per injection point, in pipeline order (all six points,
    /// zeros included, so rows line up across cells).
    pub faults: Vec<PointCount>,
    /// Fallback distribution over the boot ladder.
    pub fallbacks: Vec<RungCount>,
}

/// The fault-storm experiment: every consultation inside the window faults,
/// and recovery (backoff + retry + fallback) carries the request past the
/// storm's end on the virtual clock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormCell {
    /// Fault rate inside the window.
    pub rate: f64,
    /// Storm start on each request's boot timeline.
    pub window_start: SimNanos,
    /// Storm end (half-open).
    pub window_end: SimNanos,
    /// Requests driven through the storm.
    pub requests: u64,
    /// Requests answered.
    pub ok: u64,
    /// Successes that absorbed at least one fault.
    pub degraded: u64,
    /// Requests that surfaced an error.
    pub failed: u64,
    /// `ok / requests`.
    pub availability: f64,
    /// 99th-percentile end-to-end latency under the storm.
    pub p99: SimNanos,
    /// 99th-percentile end-to-end latency of the same gateway with no
    /// faults armed — the recovery overhead is the gap to [`StormCell::p99`].
    pub p99_quiet: SimNanos,
}

/// The whole `BENCH_pr3.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultBenchExport {
    /// Format tag ([`Export::SCHEMA`]).
    pub schema: String,
    /// Machine model the latencies were simulated on.
    pub machine: String,
    /// Function every cell invokes.
    pub function: String,
    /// Seed every cell's plan uses.
    pub seed: u64,
    /// Invocations per cell.
    pub requests_per_cell: u64,
    /// Fault rates swept.
    pub rates: Vec<f64>,
    /// Policies swept, in sweep order.
    pub policies: Vec<String>,
    /// The rate × policy grid, rates outer, policies inner.
    pub cells: Vec<FaultCell>,
    /// The fault-storm experiment.
    pub storm: StormCell,
}

/// Retry budget per ladder rung for the sweep's recovering policies. The
/// default (2) is tuned for sporadic faults; at the sweep's top rate a
/// burst can eat a whole rung, so the bench provisions deeper.
pub const SWEEP_RETRIES: u32 = 6;

/// The policy lineup every export must cover.
fn policy_lineup() -> Vec<ResiliencePolicy> {
    vec![
        ResiliencePolicy::none(),
        ResiliencePolicy {
            max_retries: SWEEP_RETRIES,
            ..ResiliencePolicy::retry_only()
        },
        ResiliencePolicy {
            max_retries: SWEEP_RETRIES,
            ..ResiliencePolicy::full()
        },
    ]
}

fn fresh_gateway(model: &CostModel) -> Gateway<CatalyzerEngine> {
    let mut gateway = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model.clone());
    gateway.register(AppProfile::c_hello());
    gateway
}

/// Drives `requests` invocations and summarizes what the gateway absorbed.
fn drive(
    mut gateway: Gateway<CatalyzerEngine>,
    requests: u64,
) -> (u64, u64, u64, LatencyHistogram, Gateway<CatalyzerEngine>) {
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut totals = LatencyHistogram::new();
    for _ in 0..requests {
        match gateway.call(InvokeRequest::new("C-hello")) {
            Ok(invocation) => {
                ok += 1;
                totals.record(invocation.report.total());
            }
            Err(_) => failed += 1,
        }
    }
    let degraded = gateway.metrics().counter(names::INVOKE_DEGRADED);
    (ok, failed, degraded, totals, gateway)
}

fn run_cell(rate: f64, policy: ResiliencePolicy, model: &CostModel) -> FaultCell {
    let gateway = fresh_gateway(model)
        .with_policy(policy)
        .with_faults(FaultPlan::uniform(SEED, rate));
    let (ok, failed, degraded, totals, gateway) = drive(gateway, REQUESTS_PER_CELL);
    let metrics = gateway.metrics();
    // The six boot-pipeline points the single-node gateway consults. The
    // cluster-only `TemplateTransfer` seam never fires on this path and is
    // deliberately excluded so the export's rows (and bytes) are stable.
    const BOOT_POINTS: [InjectionPoint; 6] = [
        InjectionPoint::ImageMmap,
        InjectionPoint::ArenaMap,
        InjectionPoint::Relink,
        InjectionPoint::IoReconnect,
        InjectionPoint::ZygoteSpecialize,
        InjectionPoint::SforkMerge,
    ];
    let faults = BOOT_POINTS
        .iter()
        .map(|point| PointCount {
            point: point.label().to_string(),
            fired: gateway.injector().map_or(0, |i| i.fired_at(*point)),
        })
        .collect();
    let fallbacks = ["warm", "cold"]
        .iter()
        .map(|rung| RungCount {
            rung: (*rung).to_string(),
            count: metrics.counter(&names::fallback_rung(rung)),
        })
        .collect();
    FaultCell {
        rate,
        policy: policy.label().to_string(),
        requests: REQUESTS_PER_CELL,
        ok,
        degraded,
        failed,
        availability: ok as f64 / REQUESTS_PER_CELL as f64,
        p50: totals.p50().unwrap_or(SimNanos::ZERO),
        p99: totals.p99().unwrap_or(SimNanos::ZERO),
        recovery_p99: metrics
            .histogram(names::INVOKE_RECOVERY)
            .and_then(LatencyHistogram::p99)
            .unwrap_or(SimNanos::ZERO),
        retries: metrics.counter(names::INVOKE_RETRIES),
        quarantines: metrics.counter(names::QUARANTINE_COUNT),
        faults,
        fallbacks,
    }
}

fn run_storm(model: &CostModel) -> StormCell {
    let window = (SimNanos::ZERO, SimNanos::from_millis(2));
    // Rate 1.0 with pure transients: every consultation inside the window
    // faults, and only the virtual clock advancing past `window.1` (via
    // detection latency + backoff + the fallback ladder) ends the storm.
    let plan = FaultPlan::uniform(SEED, 1.0)
        .with_poison_ratio(0.0)
        .with_window(window.0, window.1);
    let gateway = fresh_gateway(model)
        .with_policy(ResiliencePolicy::full())
        .with_faults(plan);
    let (ok, failed, degraded, totals, _) = drive(gateway, REQUESTS_PER_CELL);
    let (quiet_ok, _, _, quiet_totals, _) = drive(fresh_gateway(model), REQUESTS_PER_CELL);
    debug_assert_eq!(quiet_ok, REQUESTS_PER_CELL);
    StormCell {
        rate: 1.0,
        window_start: window.0,
        window_end: window.1,
        requests: REQUESTS_PER_CELL,
        ok,
        degraded,
        failed,
        availability: ok as f64 / REQUESTS_PER_CELL as f64,
        p99: totals.p99().unwrap_or(SimNanos::ZERO),
        p99_quiet: quiet_totals.p99().unwrap_or(SimNanos::ZERO),
    }
}

impl Export for FaultBenchExport {
    const COMMAND: &'static str = "faults";
    const DEFAULT_PATH: &'static str = "BENCH_pr3.json";
    const SCHEMA: &'static str = "catalyzer-bench/pr3-v1";

    /// Runs the full sweep: [`RATES`] × the policy lineup plus the storm.
    fn generate(model: &CostModel) -> Result<Self, Box<dyn std::error::Error>> {
        let policies = policy_lineup();
        let mut cells = Vec::new();
        for &rate in RATES {
            for &policy in &policies {
                cells.push(run_cell(rate, policy, model));
            }
        }
        Ok(Self {
            schema: Self::SCHEMA.to_string(),
            machine: model.machine.label().to_string(),
            function: AppProfile::c_hello().name,
            seed: SEED,
            requests_per_cell: REQUESTS_PER_CELL,
            rates: RATES.to_vec(),
            policies: policies.iter().map(|p| p.label().to_string()).collect(),
            cells,
            storm: run_storm(model),
        })
    }

    /// Validates an export's internal consistency: schema tag, full grid
    /// coverage, count arithmetic, and the resilience claims the sweep exists
    /// to demonstrate — zero-rate and retry+fallback rows keep availability at
    /// 1.0, the no-recovery baseline actually loses requests, and degraded
    /// successes pay a nonzero, accounted recovery latency.
    fn validate(&self) -> Result<(), String> {
        Self::check_schema(&self.schema)?;
        if self.cells.len() != self.rates.len() * self.policies.len() {
            return Err(format!(
                "grid incomplete: {} cells for {} rates x {} policies",
                self.cells.len(),
                self.rates.len(),
                self.policies.len()
            ));
        }
        for cell in &self.cells {
            let tag = format!("cell rate={} policy={}", cell.rate, cell.policy);
            if !self.policies.contains(&cell.policy) {
                return Err(format!("{tag}: unknown policy"));
            }
            if cell.requests == 0 {
                return Err(format!("{tag}: empty cell"));
            }
            if cell.ok + cell.failed != cell.requests {
                return Err(format!("{tag}: ok + failed != requests"));
            }
            if cell.degraded > cell.ok {
                return Err(format!("{tag}: more degraded than ok"));
            }
            let availability = cell.ok as f64 / cell.requests as f64;
            if (cell.availability - availability).abs() > 1e-12 {
                return Err(format!("{tag}: availability != ok/requests"));
            }
            let fired: u64 = cell.faults.iter().map(|p| p.fired).sum();
            if cell.rate == 0.0 {
                // A zero plan must be invisible: nothing fires, nothing degrades.
                if cell.availability != 1.0 || cell.degraded != 0 || fired != 0 {
                    return Err(format!("{tag}: zero-rate cell saw faults"));
                }
            } else {
                if fired == 0 {
                    return Err(format!("{tag}: nonzero rate never fired"));
                }
                match cell.policy.as_str() {
                    // The sweep's headline: the full ladder answers everything...
                    "retry+fallback" => {
                        if cell.availability != 1.0 {
                            return Err(format!("{tag}: ladder dropped requests"));
                        }
                        if cell.degraded == 0 {
                            return Err(format!("{tag}: faults fired but nothing degraded"));
                        }
                        if cell.recovery_p99.is_zero() {
                            return Err(format!("{tag}: degraded success with free recovery"));
                        }
                    }
                    // ...while no recovery at all visibly loses requests.
                    "none" if cell.failed == 0 => {
                        return Err(format!("{tag}: no-recovery baseline never failed"));
                    }
                    _ => {}
                }
            }
        }
        let storm = &self.storm;
        if storm.ok + storm.failed != storm.requests {
            return Err("storm: ok + failed != requests".to_string());
        }
        if storm.availability != 1.0 {
            return Err("storm: recovery must ride out the storm window".to_string());
        }
        if storm.degraded != storm.requests {
            return Err("storm: every request must hit the storm".to_string());
        }
        if storm.p99 <= storm.p99_quiet {
            return Err("storm: recovery cost must show in the p99".to_string());
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!("{} cells + storm", self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_a_dropped_request_under_the_full_ladder() {
        let model = CostModel::experimental_machine();
        let mut export = FaultBenchExport::generate(&model).unwrap();
        let cell = export
            .cells
            .iter_mut()
            .find(|c| c.rate > 0.0 && c.policy == "retry+fallback")
            .expect("sweep covers the full ladder");
        cell.ok -= 1;
        cell.failed += 1;
        cell.availability = cell.ok as f64 / cell.requests as f64;
        let err = export.validate().unwrap_err();
        assert!(err.contains("ladder dropped"), "{err}");
    }
}
