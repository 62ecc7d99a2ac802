//! Deterministic JSON export of the overload sweep (`repro overload`).
//!
//! [`AdmitBenchExport`]'s `generate` drives the closed-loop
//! [`platform::Simulation`] — admission-controlled, self-healing pools over
//! the Catalyzer fork-boot ladder — through an
//! arrival-gap × concurrency-limit × breaker-policy grid (fault-free), plus
//! one fault *storm* comparing the no-admission baseline against the full
//! overload-protection posture on the identical trace and capacity. The
//! sweep demonstrates the PR's robustness claims:
//!
//! - at zero load, admission is invisible: nothing sheds, no breaker trips;
//! - past saturation, the bounded queue sheds typed `Overload` instead of
//!   queueing without bound — and the breaker, with no failures to see,
//!   changes *nothing* (the matching breaker-on/off cells are identical);
//! - under a poison-plus-transient storm, the baseline's unbounded queue
//!   blows its p99 and goodput collapses, while the full policy sheds the
//!   doomed requests typed, trips the breaker, repairs the poisoned
//!   template off the request path, and keeps admitted requests at
//!   availability 1.0 with a bounded p99.
//!
//! Everything runs on virtual time from seeded plans, so two runs produce
//! byte-identical output — `tools/check.sh` validates `BENCH_pr4.json` the
//! same way it gates `BENCH_pr2.json` and `BENCH_pr3.json`.

use crate::Export;
use catalyzer::{BootMode, CatalyzerEngine};
use faultsim::{FaultPlan, InjectionPoint, PointPlan};
use platform::simulate::TraceRequest;
use platform::{AdmissionPolicy, ResiliencePolicy, SimReport, Simulation};
use runtimes::AppProfile;
use serde::{Deserialize, Serialize};
use simtime::{CostModel, SimNanos};

/// Seed the storm cell's [`FaultPlan`] is built from.
pub const SEED: u64 = 0x00AD_C0DE;

/// Requests per fault-free grid cell.
pub const REQUESTS_PER_CELL: usize = 64;

/// Relative deadline stamped on every request (goodput's yardstick).
pub const DEADLINE: SimNanos = SimNanos::from_millis(5);

/// Arrival gaps swept, widest (zero load) first.
pub const GAPS: [SimNanos; 3] = [
    SimNanos::from_millis(2),
    SimNanos::from_micros(400),
    SimNanos::from_micros(100),
];

/// Per-function concurrency limits swept.
pub const LIMITS: [usize; 2] = [2, 8];

/// Arrival gap of the storm trace. Chosen *under* capacity (service is
/// ≈ 1.16 ms against 2 slots, so the fleet sustains one arrival per
/// ≈ 580 µs): absent the storm, nothing queues and nothing sheds — any
/// collapse below is the storm's doing, not steady-state oversaturation.
pub const STORM_GAP: SimNanos = SimNanos::from_micros(700);

/// Requests in the storm trace (≈ 210 ms of arrivals — well past the
/// window, so the baseline's backlog drain has room to show).
pub const STORM_REQUESTS: usize = 300;

/// The storm window on the platform clock, half-open.
pub const STORM_WINDOW: (SimNanos, SimNanos) =
    (SimNanos::from_millis(20), SimNanos::from_millis(50));

/// Per-function concurrency limit in both storm cells.
pub const STORM_LIMIT: usize = 2;

/// Retry budget per ladder rung in the storm cells. The cumulative
/// exponential backoff (`200 µs × (2^8 − 1) ≈ 51 ms`) is guaranteed to
/// carry a retrying rung past the 30 ms window, so an admitted request
/// never runs out of budget mid-storm.
pub const STORM_RETRIES: u32 = 8;

/// One (gap, limit, breaker-policy) cell of the fault-free grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmitCell {
    /// Arrival gap between consecutive requests.
    pub gap: SimNanos,
    /// Per-function concurrency limit.
    pub limit: u64,
    /// Admission-policy label (`deadline` = breaker off, `full` = on).
    pub policy: String,
    /// Requests offered.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Admitted requests that surfaced an error.
    pub failed: u64,
    /// Sheds typed `Overload`.
    pub shed_overload: u64,
    /// Sheds typed `DeadlineExceeded`.
    pub shed_deadline: u64,
    /// Sheds typed `CircuitOpen`.
    pub shed_breaker: u64,
    /// Completions within their deadline.
    pub goodput: u64,
    /// `completed / admitted`.
    pub availability: f64,
    /// `goodput / requests` — the fraction of *offered* load answered in
    /// time.
    pub goodput_rate: f64,
    /// Median end-to-end latency (queue wait + startup + execution).
    pub p50: SimNanos,
    /// 99th-percentile end-to-end latency.
    pub p99: SimNanos,
    /// Breaker trips (must be zero: the grid is fault-free).
    pub breaker_opens: u64,
}

/// One recorded breaker state change in the storm cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitionRow {
    /// Function whose breaker moved.
    pub function: String,
    /// Virtual time of the transition.
    pub at: SimNanos,
    /// State left.
    pub from: String,
    /// State entered.
    pub to: String,
}

/// One side of the storm comparison (baseline or full policy).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormSide {
    /// Admission-policy label (`baseline` or `full`).
    pub policy: String,
    /// Requests offered.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Admitted requests that surfaced an error.
    pub failed: u64,
    /// Sheds typed `Overload`.
    pub shed_overload: u64,
    /// Sheds typed `DeadlineExceeded`.
    pub shed_deadline: u64,
    /// Sheds typed `CircuitOpen`.
    pub shed_breaker: u64,
    /// Completions within their deadline.
    pub goodput: u64,
    /// `completed / admitted`.
    pub availability: f64,
    /// `goodput / requests`.
    pub goodput_rate: f64,
    /// Median end-to-end latency of completed requests.
    pub p50: SimNanos,
    /// 99th-percentile end-to-end latency of completed requests.
    pub p99: SimNanos,
    /// Breaker trips.
    pub breaker_opens: u64,
    /// Background repair-loop rebuilds of poisoned prepared state.
    pub repairs: u64,
    /// Injected faults absorbed.
    pub faults: u64,
    /// Every breaker transition, in order.
    pub transitions: Vec<TransitionRow>,
}

/// The storm experiment: identical trace and capacity, baseline vs full.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormCompare {
    /// Storm start on the platform clock.
    pub window_start: SimNanos,
    /// Storm end (half-open).
    pub window_end: SimNanos,
    /// Arrival gap of the trace.
    pub gap: SimNanos,
    /// Concurrency limit both sides run at.
    pub limit: u64,
    /// Retry budget per ladder rung both sides run with.
    pub retries: u64,
    /// The no-admission baseline: unbounded queue, deadline stamped but
    /// never enforced, no breaker.
    pub baseline: StormSide,
    /// The full posture: bounded queue, deadline shedding, breaker.
    pub full: StormSide,
}

/// The whole `BENCH_pr4.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmitBenchExport {
    /// Format tag ([`Export::SCHEMA`]).
    pub schema: String,
    /// Machine model the latencies were simulated on.
    pub machine: String,
    /// Function every cell invokes.
    pub function: String,
    /// Seed the storm plan uses.
    pub seed: u64,
    /// Requests per grid cell.
    pub requests_per_cell: u64,
    /// Relative deadline stamped on every request.
    pub deadline: SimNanos,
    /// Arrival gaps swept, widest first.
    pub gaps: Vec<SimNanos>,
    /// Concurrency limits swept.
    pub limits: Vec<u64>,
    /// Admission policies swept, in sweep order.
    pub policies: Vec<String>,
    /// The gap × limit × policy grid, gaps outer, policies inner.
    pub cells: Vec<AdmitCell>,
    /// The storm comparison.
    pub storm: StormCompare,
}

fn trace(n: usize, gap: SimNanos) -> Vec<TraceRequest> {
    (0..n)
        .map(|i| TraceRequest {
            arrival: gap.saturating_mul(u64::try_from(i).unwrap_or(u64::MAX)),
            function: 0,
        })
        .collect()
}

/// The grid's two admission postures at `limit`: breaker off ("deadline")
/// and breaker on ("full"). Identical otherwise, so any divergence between
/// the matching cells is the breaker's doing.
fn grid_policies(limit: usize) -> [AdmissionPolicy; 2] {
    let full = AdmissionPolicy::standard(limit, DEADLINE);
    [
        AdmissionPolicy {
            breaker: None,
            ..full
        },
        full,
    ]
}

/// The storm's fault plan: every in-window sfork attempt poisons the
/// template ([`InjectionPoint::SforkMerge`], deferred to the repair loop),
/// and the warm/cold fallback rungs hit fast transients at
/// [`InjectionPoint::ArenaMap`] until exponential backoff carries the clock
/// past the window. Poison drives the breaker and the repair loop;
/// transients inflate in-storm service time, which is what breaks the
/// baseline's unbounded queue.
fn storm_plan() -> FaultPlan {
    let firing = PointPlan {
        rate: 1.0,
        stall_ratio: 0.0,
        max_burst: 1,
    };
    FaultPlan::zero(SEED)
        .with_poison_ratio(1.0)
        .with_point(InjectionPoint::SforkMerge, firing)
        .with_point(InjectionPoint::ArenaMap, firing)
        .with_window(STORM_WINDOW.0, STORM_WINDOW.1)
}

/// Resilience posture both storm sides boot with: deep per-rung retry
/// budget, exponential backoff, fallback ladder, deferred quarantine.
fn storm_resilience() -> ResiliencePolicy {
    ResiliencePolicy {
        max_retries: STORM_RETRIES,
        ..ResiliencePolicy::full()
    }
}

fn drive(
    requests: &[TraceRequest],
    plan: Option<FaultPlan>,
    policy: ResiliencePolicy,
    admission: AdmissionPolicy,
    model: &CostModel,
) -> SimReport {
    // max_idle 0: a fork-boot fleet keeps no warm instances (the paper's
    // posture — boots are cheap), so every request exercises the ladder.
    let mut sim = Simulation::new(vec![AppProfile::c_hello()])
        .with_engine(|_| CatalyzerEngine::standalone(BootMode::Fork))
        .with_model(model.clone())
        .with_keep_alive(SimNanos::from_secs(1))
        .with_max_idle(0)
        .with_resilience(policy)
        .with_admission(admission);
    if let Some(plan) = plan {
        sim = sim.with_faults(plan);
    }
    sim.run(requests)
        .expect("bench traces only fail through counted availability loss")
}

/// `goodput / requests` — the fraction of *offered* load answered within
/// its deadline.
fn goodput_rate(report: &SimReport) -> f64 {
    report.goodput as f64 / report.requests as f64
}

fn run_cell(
    gap: SimNanos,
    limit: usize,
    admission: AdmissionPolicy,
    model: &CostModel,
) -> AdmitCell {
    let outcome = drive(
        &trace(REQUESTS_PER_CELL, gap),
        None,
        ResiliencePolicy::full(),
        admission,
        model,
    );
    AdmitCell {
        gap,
        limit: u64::try_from(limit).unwrap_or(u64::MAX),
        policy: admission.label().to_string(),
        requests: outcome.requests,
        admitted: outcome.admitted,
        completed: outcome.completed,
        failed: outcome.failed,
        shed_overload: outcome.shed_overload,
        shed_deadline: outcome.shed_deadline,
        shed_breaker: outcome.shed_breaker,
        goodput: outcome.goodput,
        availability: outcome.availability(),
        goodput_rate: goodput_rate(&outcome),
        p50: outcome.end_to_end.map_or(SimNanos::ZERO, |s| s.p50),
        p99: outcome.end_to_end.map_or(SimNanos::ZERO, |s| s.p99),
        breaker_opens: outcome.breaker_opens,
    }
}

fn storm_side(admission: AdmissionPolicy, model: &CostModel) -> StormSide {
    let outcome = drive(
        &trace(STORM_REQUESTS, STORM_GAP),
        Some(storm_plan()),
        storm_resilience(),
        admission,
        model,
    );
    StormSide {
        policy: admission.label().to_string(),
        requests: outcome.requests,
        admitted: outcome.admitted,
        completed: outcome.completed,
        failed: outcome.failed,
        shed_overload: outcome.shed_overload,
        shed_deadline: outcome.shed_deadline,
        shed_breaker: outcome.shed_breaker,
        goodput: outcome.goodput,
        availability: outcome.availability(),
        goodput_rate: goodput_rate(&outcome),
        p50: outcome.end_to_end.map_or(SimNanos::ZERO, |s| s.p50),
        p99: outcome.end_to_end.map_or(SimNanos::ZERO, |s| s.p99),
        breaker_opens: outcome.breaker_opens,
        repairs: outcome.repairs.repairs,
        faults: outcome.faults,
        transitions: outcome
            .transitions
            .iter()
            .map(|(function, t)| TransitionRow {
                function: function.clone(),
                at: t.at,
                from: t.from.label().to_string(),
                to: t.to.label().to_string(),
            })
            .collect(),
    }
}

fn check_side(side: &StormSide, requests: u64) -> Result<(), String> {
    let tag = format!("storm {}", side.policy);
    if side.requests != requests {
        return Err(format!("{tag}: wrong trace length"));
    }
    let shed = side.shed_overload + side.shed_deadline + side.shed_breaker;
    if side.admitted + shed != side.requests {
        return Err(format!("{tag}: admitted + shed != requests"));
    }
    if side.completed + side.failed != side.admitted {
        return Err(format!("{tag}: completed + failed != admitted"));
    }
    if side.failed != 0 || side.availability != 1.0 {
        return Err(format!(
            "{tag}: admitted requests lost ({} failed)",
            side.failed
        ));
    }
    if side.faults == 0 {
        return Err(format!("{tag}: the storm never fired"));
    }
    if side.goodput > side.completed {
        return Err(format!("{tag}: more goodput than completions"));
    }
    Ok(())
}

impl Export for AdmitBenchExport {
    const COMMAND: &'static str = "overload";
    const DEFAULT_PATH: &'static str = "BENCH_pr4.json";
    const SCHEMA: &'static str = "catalyzer-bench/pr4-v1";

    /// Runs the full sweep: [`GAPS`] × [`LIMITS`] × breaker-on/off plus the
    /// storm comparison.
    fn generate(model: &CostModel) -> Result<Self, Box<dyn std::error::Error>> {
        let mut cells = Vec::new();
        for &gap in &GAPS {
            for &limit in &LIMITS {
                for admission in grid_policies(limit) {
                    cells.push(run_cell(gap, limit, admission, model));
                }
            }
        }
        let storm = StormCompare {
            window_start: STORM_WINDOW.0,
            window_end: STORM_WINDOW.1,
            gap: STORM_GAP,
            limit: u64::try_from(STORM_LIMIT).unwrap_or(u64::MAX),
            retries: u64::from(STORM_RETRIES),
            baseline: storm_side(AdmissionPolicy::queue_only(STORM_LIMIT, DEADLINE), model),
            full: storm_side(AdmissionPolicy::standard(STORM_LIMIT, DEADLINE), model),
        };
        Ok(Self {
            schema: Self::SCHEMA.to_string(),
            machine: model.machine.label().to_string(),
            function: AppProfile::c_hello().name,
            seed: SEED,
            requests_per_cell: u64::try_from(REQUESTS_PER_CELL).unwrap_or(u64::MAX),
            deadline: DEADLINE,
            gaps: GAPS.to_vec(),
            limits: LIMITS
                .iter()
                .map(|&l| u64::try_from(l).unwrap_or(u64::MAX))
                .collect(),
            policies: grid_policies(2)
                .iter()
                .map(|p| p.label().to_string())
                .collect(),
            cells,
            storm,
        })
    }

    /// Validates an export's internal consistency: schema tag, full grid
    /// coverage, count arithmetic, and the robustness claims the sweep exists
    /// to demonstrate — admission invisible at zero load, typed overload sheds
    /// past saturation, a fault-free breaker changing nothing, and under the
    /// storm: zero availability loss for admitted requests on both sides, the
    /// baseline's goodput collapsing under its unbounded queue, and the full
    /// policy holding a bounded p99 with at least the baseline's goodput while
    /// the breaker trips and the repair loop rebuilds poisoned state.
    fn validate(&self) -> Result<(), String> {
        Self::check_schema(&self.schema)?;
        let grid = self.gaps.len() * self.limits.len() * self.policies.len();
        if self.cells.len() != grid {
            return Err(format!(
                "grid incomplete: {} cells for {} gaps x {} limits x {} policies",
                self.cells.len(),
                self.gaps.len(),
                self.limits.len(),
                self.policies.len()
            ));
        }
        let widest = self.gaps.iter().copied().max().unwrap_or(SimNanos::ZERO);
        let mut any_overload_shed = false;
        for cell in &self.cells {
            let tag = format!(
                "cell gap={} limit={} policy={}",
                cell.gap, cell.limit, cell.policy
            );
            if !self.policies.contains(&cell.policy) {
                return Err(format!("{tag}: unknown policy"));
            }
            if cell.requests == 0 {
                return Err(format!("{tag}: empty cell"));
            }
            let shed = cell.shed_overload + cell.shed_deadline + cell.shed_breaker;
            if cell.admitted + shed != cell.requests {
                return Err(format!("{tag}: admitted + shed != requests"));
            }
            if cell.completed + cell.failed != cell.admitted {
                return Err(format!("{tag}: completed + failed != admitted"));
            }
            // Fault-free: nothing fails, nothing trips, every admitted request
            // is answered.
            if cell.failed != 0 || cell.availability != 1.0 {
                return Err(format!("{tag}: fault-free cell lost requests"));
            }
            if cell.breaker_opens != 0 || cell.shed_breaker != 0 {
                return Err(format!("{tag}: breaker tripped without faults"));
            }
            // Zero load: admission must be invisible.
            if cell.gap == widest && (shed != 0 || cell.goodput != cell.requests) {
                return Err(format!("{tag}: admission visible at zero load"));
            }
            any_overload_shed |= cell.shed_overload > 0;
        }
        if !any_overload_shed {
            return Err("grid: no cell ever saturated — the bounded queue went unexercised".into());
        }
        // A fault-free breaker changes nothing: the matching on/off cells agree.
        for pair in self.cells.chunks(self.policies.len()) {
            if let [off, on] = pair {
                if (off.admitted, off.shed_overload, off.goodput, off.p99)
                    != (on.admitted, on.shed_overload, on.goodput, on.p99)
                {
                    return Err(format!(
                        "grid gap={} limit={}: fault-free breaker altered the outcome",
                        off.gap, off.limit
                    ));
                }
            }
        }

        let storm = &self.storm;
        check_side(&storm.baseline, storm.baseline.requests)?;
        check_side(&storm.full, storm.full.requests)?;
        if storm.baseline.requests != storm.full.requests {
            return Err("storm: sides ran different traces".into());
        }
        let base = &storm.baseline;
        let full = &storm.full;
        if base.shed_overload + base.shed_deadline + base.shed_breaker != 0 {
            return Err("storm baseline: an unbounded queue must never shed".into());
        }
        if base.breaker_opens != 0 || !base.transitions.is_empty() {
            return Err("storm baseline: no breaker configured, yet it moved".into());
        }
        if base.goodput_rate >= 0.5 {
            return Err(format!(
                "storm baseline: goodput must collapse under the backlog (got {:.2})",
                base.goodput_rate
            ));
        }
        if full.shed_breaker == 0 || full.breaker_opens == 0 {
            return Err("storm full: the breaker must trip and shed typed".into());
        }
        if full.repairs == 0 {
            return Err("storm full: poisoned state must be repaired off the request path".into());
        }
        if full.p99 >= base.p99 {
            return Err("storm full: admission must bound the p99 below the baseline".into());
        }
        if full.p99 > STORM_WINDOW.1 {
            return Err(format!(
                "storm full: p99 {} exceeds the storm window — the queue was not bounded",
                full.p99
            ));
        }
        if full.goodput < base.goodput {
            return Err("storm full: shedding doomed requests must not cost goodput".into());
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
    fn validate_rejects_a_lost_admitted_request() {
        let model = CostModel::experimental_machine();
        let mut export = AdmitBenchExport::generate(&model).unwrap();
        export.storm.full.completed -= 1;
        export.storm.full.failed += 1;
        export.storm.full.availability =
            f64::from(u32::try_from(export.storm.full.completed).unwrap_or(u32::MAX))
                / f64::from(u32::try_from(export.storm.full.admitted).unwrap_or(u32::MAX));
        let err = export.validate().unwrap_err();
        assert!(err.contains("admitted requests lost"), "{err}");
    }

    #[test]
    fn validate_rejects_an_unbounded_full_p99() {
        let model = CostModel::experimental_machine();
        let mut export = AdmitBenchExport::generate(&model).unwrap();
        export.storm.full.p99 = export.storm.baseline.p99;
        let err = export.validate().unwrap_err();
        assert!(err.contains("bound the p99"), "{err}");
    }
}
