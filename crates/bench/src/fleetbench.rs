//! Deterministic JSON export of the fleet density grid (`repro fleet`).
//!
//! [`FleetBenchExport`]'s `generate` drives the open-loop event engine
//! ([`platform::Simulation::run_fleet`]) through a density ladder that
//! extends Figure 15 past its 1 000-instance ceiling: each cell fires a
//! flash-crowd burst (all arrivals inside a window shorter than one cold
//! fork boot, so none can be absorbed by completions) on top of a Poisson
//! baseline, over a 10 000-function synthetic catalogue with Zipf-skewed
//! popularity. The ladder climbs 10^3 → 10^4 → 10^5 → 10^6 peak concurrent
//! instances — the closed-loop simulator tops out around 10^4 requests per
//! practical run, so the top cells are only reachable through the event
//! engine's arena + calibrated-cost path.
//!
//! Per cell the export records peak density (instances and in-flight
//! requests), cold boots vs keep-alive reuses, expirations, and
//! fixed-ladder startup / end-to-end quantiles. Everything runs on virtual
//! time from seeded traces, so two runs produce byte-identical output —
//! `tools/check.sh` validates `BENCH_pr7.json` the same way it gates the
//! pr2–pr4 exports.

use crate::Export;
use platform::simulate::fleet::{FleetOutcome, Quantiles};
use platform::simulate::TraceRequest;
use platform::{PlatformError, Simulation};
use serde::{Deserialize, Serialize};
use simtime::{CostModel, SimNanos};
use workloads::catalogue;
use workloads::generator::{open_loop, Arrivals, Popularity, TraceSpec};

/// Seed for both the synthetic catalogue and the per-cell traces.
pub const SEED: u64 = 0x0F1E_E701;

/// Functions in every cell's catalogue (the "10k+ functions" axis).
pub const FUNCTIONS: usize = 10_000;

/// Zipf exponent of function popularity (the classic web skew).
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Keep-alive every cell runs with.
pub const KEEP_ALIVE: SimNanos = SimNanos::from_secs(5);

/// Warm instances retained per function.
pub const MAX_IDLE: usize = 4;

/// Poisson baseline rate under the burst (drives reuse traffic).
pub const BASE_RATE_HZ: f64 = 2_000.0;

/// Burst period: one burst, fired after a second of baseline warm-up.
pub const BURST_EVERY: SimNanos = SimNanos::from_secs(1);

/// Window the burst's arrivals spread over. Shorter than one cold fork
/// boot (≈ 620 µs), so the whole burst is airborne before any of its own
/// boots complete — peak density is guaranteed to reach the burst size.
pub const BURST_WIDTH: SimNanos = SimNanos::from_micros(500);

/// Baseline requests added around each burst (≈ 1 s before, ≈ 2 s after,
/// exercising warm reuse and keep-alive expiry on both sides).
pub const TAIL: usize = 6_000;

/// The density ladder: `(label, burst size)`, ascending.
pub const LADDER: [(&str, usize); 4] = [
    ("1e3", 1_000),
    ("1e4", 10_000),
    ("1e5", 120_000),
    ("1e6", 1_000_000),
];

/// One rung of the density ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCell {
    /// Density label (`1e3` … `1e6`).
    pub label: String,
    /// Functions in the catalogue.
    pub functions: u64,
    /// Burst size — the density target.
    pub burst: u64,
    /// Requests in the trace (burst + baseline).
    pub requests: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests shed (zero: the grid runs without admission caps).
    pub shed: u64,
    /// Cold boots across the fleet.
    pub cold_boots: u64,
    /// Warm reuses.
    pub reuses: u64,
    /// `reuses / completed`.
    pub reuse_rate: f64,
    /// Instances reclaimed by keep-alive expiry.
    pub expirations: u64,
    /// Most instances (busy + warm) ever live at once — the density axis.
    pub peak_instances: u64,
    /// Most requests ever concurrently in flight.
    pub peak_in_flight: u64,
    /// Events the queue processed.
    pub events: u64,
    /// Virtual time of the last event.
    pub horizon: SimNanos,
    /// Startup-latency distribution.
    pub startup: Quantiles,
    /// End-to-end latency distribution.
    pub end_to_end: Quantiles,
}

/// The whole `BENCH_pr7.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetBenchExport {
    /// Format tag ([`Export::SCHEMA`]).
    pub schema: String,
    /// Machine model the latencies were simulated on.
    pub machine: String,
    /// Catalogue/trace seed.
    pub seed: u64,
    /// Functions per cell.
    pub functions: u64,
    /// Zipf exponent of function popularity.
    pub zipf_exponent: f64,
    /// Keep-alive every cell runs with.
    pub keep_alive: SimNanos,
    /// Warm instances retained per function.
    pub max_idle: u64,
    /// Poisson baseline rate.
    pub base_rate_hz: f64,
    /// Burst window width.
    pub burst_width: SimNanos,
    /// The density ladder, ascending.
    pub cells: Vec<FleetCell>,
}

fn cell_row(label: &str, burst: usize, requests: usize, outcome: &FleetOutcome) -> FleetCell {
    FleetCell {
        label: label.to_string(),
        functions: u64::try_from(FUNCTIONS).unwrap_or(u64::MAX),
        burst: u64::try_from(burst).unwrap_or(u64::MAX),
        requests: u64::try_from(requests).unwrap_or(u64::MAX),
        completed: outcome.completed,
        shed: outcome.shed,
        cold_boots: outcome.cold_boots,
        reuses: outcome.reuses,
        reuse_rate: outcome.reuse_rate,
        expirations: outcome.expirations,
        peak_instances: u64::try_from(outcome.peak_instances).unwrap_or(u64::MAX),
        peak_in_flight: u64::try_from(outcome.peak_in_flight).unwrap_or(u64::MAX),
        events: outcome.events,
        horizon: outcome.horizon,
        startup: outcome.startup,
        end_to_end: outcome.end_to_end,
    }
}

/// One cell's trace: a burst of `burst` arrivals inside [`BURST_WIDTH`] at
/// t ≈ [`BURST_EVERY`], over a Poisson baseline contributing [`TAIL`]
/// requests of reuse traffic.
fn cell_trace(burst: usize) -> Vec<TraceRequest> {
    let spec = TraceSpec {
        functions: FUNCTIONS,
        count: burst + TAIL,
        arrivals: Arrivals::Bursty {
            rate_hz: BASE_RATE_HZ,
            every: BURST_EVERY,
            size: burst,
            width: BURST_WIDTH,
        },
        popularity: Popularity::Zipf {
            exponent: ZIPF_EXPONENT,
        },
        seed: SEED ^ u64::try_from(burst).unwrap_or(u64::MAX),
    };
    open_loop(&spec)
        .into_iter()
        .map(|r| TraceRequest {
            arrival: r.arrival,
            function: r.function,
        })
        .collect()
}

/// Runs one rung: `burst` over the baseline, on a fresh fleet.
fn run_cell(model: &CostModel, label: &str, burst: usize) -> Result<FleetCell, PlatformError> {
    let trace = cell_trace(burst);
    let outcome = Simulation::new(catalogue::synthetic(FUNCTIONS, SEED))
        .with_model(model.clone())
        .with_keep_alive(KEEP_ALIVE)
        .with_max_idle(MAX_IDLE)
        .run_fleet(&trace)?;
    Ok(cell_row(label, burst, trace.len(), &outcome))
}

impl Export for FleetBenchExport {
    const COMMAND: &'static str = "fleet";
    const DEFAULT_PATH: &'static str = "BENCH_pr7.json";
    const SCHEMA: &'static str = "catalyzer-bench/pr7-v1";

    /// Runs the density ladder.
    fn generate(model: &CostModel) -> Result<Self, Box<dyn std::error::Error>> {
        let mut cells = Vec::new();
        for (label, burst) in LADDER {
            cells.push(run_cell(model, label, burst)?);
        }
        Ok(Self {
            schema: Self::SCHEMA.to_string(),
            machine: model.machine.label().to_string(),
            seed: SEED,
            functions: u64::try_from(FUNCTIONS).unwrap_or(u64::MAX),
            zipf_exponent: ZIPF_EXPONENT,
            keep_alive: KEEP_ALIVE,
            max_idle: u64::try_from(MAX_IDLE).unwrap_or(u64::MAX),
            base_rate_hz: BASE_RATE_HZ,
            burst_width: BURST_WIDTH,
            cells,
        })
    }

    /// Validates an export's internal consistency: schema tag, the full
    /// ascending ladder, count arithmetic per cell, and the density claims the
    /// grid exists to demonstrate — every cell's peak reaches its burst size,
    /// density climbs monotonically, the top rung clears 10^5 concurrent
    /// instances, and warm reuse plus keep-alive expiry stay exercised at
    /// every scale.
    fn validate(&self) -> Result<(), String> {
        Self::check_schema(&self.schema)?;
        if self.cells.len() != LADDER.len() {
            return Err(format!(
                "ladder incomplete: {} cells (expected {})",
                self.cells.len(),
                LADDER.len()
            ));
        }
        let mut prev_peak = 0u64;
        for cell in &self.cells {
            let tag = format!("cell {}", cell.label);
            if cell.requests == 0 {
                return Err(format!("{tag}: empty cell"));
            }
            if cell.completed + cell.shed != cell.requests {
                return Err(format!("{tag}: completed + shed != requests"));
            }
            if cell.shed != 0 {
                return Err(format!("{tag}: shed without an admission cap"));
            }
            if cell.cold_boots + cell.reuses != cell.completed {
                return Err(format!("{tag}: cold_boots + reuses != completed"));
            }
            if cell.peak_instances < cell.burst {
                return Err(format!(
                    "{tag}: peak {} never reached the {}-instance burst",
                    cell.peak_instances, cell.burst
                ));
            }
            if cell.peak_instances <= prev_peak {
                return Err(format!("{tag}: density ladder is not ascending"));
            }
            prev_peak = cell.peak_instances;
            if cell.reuses == 0 || cell.expirations == 0 {
                return Err(format!("{tag}: baseline reuse/expiry went unexercised"));
            }
            if cell.startup.count != cell.completed || cell.end_to_end.count != cell.completed {
                return Err(format!("{tag}: latency samples != completions"));
            }
            if cell.end_to_end.max < cell.startup.max || cell.horizon < cell.end_to_end.max {
                return Err(format!("{tag}: latency ordering violated"));
            }
        }
        if prev_peak < 100_000 {
            return Err(format!(
                "top rung peaks at {prev_peak} instances — the grid never left Figure 15's regime"
            ));
        }
        Ok(())
    }

    fn summary(&self) -> String {
        let top = self.cells.last().map_or(0, |c| c.peak_instances);
        format!("{} cells, peak {top} instances", self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunk rung exercising the same machinery (the full 10^6 rung
    /// belongs to `repro fleet`, not the unit suite).
    #[test]
    fn burst_density_is_reached_and_deterministic() {
        let model = CostModel::experimental_machine();
        let a = run_cell(&model, "test", 2_000).unwrap();
        let b = run_cell(&model, "test", 2_000).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert!(a.peak_instances >= 2_000, "peak {}", a.peak_instances);
        assert_eq!(a.completed + a.shed, a.requests);
        assert!(a.reuses > 0 && a.expirations > 0);
    }
}
