//! Deterministic JSON export of the boot pipeline's observability data.
//!
//! [`BenchExport`]'s `generate` boots every Fig. 11 engine repeatedly on a
//! fixed profile set, collects each engine's boot-latency histogram plus one
//! representative span tree, and `repro export` serializes the result to a
//! stable string: the whole pipeline runs on virtual time, so two runs on the
//! same machine model produce byte-identical output (`tests/figure_smoke.rs` and
//! `tools/check.sh` rely on this to validate `BENCH_pr2.json`).

use crate::figures::System;
use crate::Export;
use runtimes::AppProfile;
use sandbox::BootCtx;
use serde::{Deserialize, Serialize};
use simtime::{CostModel, LatencyHistogram, SimNanos, Span};

/// Boots per engine/profile pair — enough to fill every histogram bucket
/// the deterministic latencies land in.
pub const BOOTS_PER_PROFILE: usize = 8;

/// One engine's export: latency quantiles over all profile boots plus the
/// span tree of the last boot of the *reference* profile (Python-hello).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineExport {
    /// System name as the boot outcome reports it (Fig. 11 label).
    pub system: String,
    /// Number of boots aggregated into the histogram.
    pub boots: u64,
    /// Median boot latency.
    pub p50: SimNanos,
    /// 90th-percentile boot latency.
    pub p90: SimNanos,
    /// 99th-percentile boot latency.
    pub p99: SimNanos,
    /// Fastest observed boot.
    pub min: SimNanos,
    /// Slowest observed boot.
    pub max: SimNanos,
    /// Depth-1 phase attribution of the reference trace: `(phase, total)`.
    pub phases: Vec<PhaseTotal>,
    /// Virtual time not covered by any depth-1 child of the boot span.
    pub self_time: SimNanos,
    /// Total duration of the reference boot span; equals the sum of
    /// `phases` plus `self_time` exactly (no rounding in virtual time).
    pub total: SimNanos,
    /// Full nested span tree of the reference boot.
    pub trace: Span,
}

/// One depth-1 phase and its total within the boot span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTotal {
    /// Phase name (`sandbox:*`, `app:*`, `restore:*`, ...).
    pub phase: String,
    /// Summed duration of all depth-1 spans with this name.
    pub total: SimNanos,
}

/// The whole `BENCH_pr2.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchExport {
    /// Format tag ([`Export::SCHEMA`]).
    pub schema: String,
    /// Machine model the latencies were simulated on.
    pub machine: String,
    /// Profiles each engine booted.
    pub profiles: Vec<String>,
    /// Per-engine histograms and traces, in Fig. 11 lineup order.
    pub engines: Vec<EngineExport>,
}

/// The profile set every engine boots: the reference function first (its
/// trace is the one exported), then one heavier app per runtime family.
fn profile_set() -> Vec<AppProfile> {
    vec![
        AppProfile::python_hello(),
        AppProfile::c_hello(),
        AppProfile::java_hello(),
        AppProfile::node_hello(),
    ]
}

/// The Fig. 11 systems every export must cover.
pub const REQUIRED_SYSTEMS: &[&str] = &[
    "HyperContainer",
    "FireCracker",
    "gVisor",
    "Docker",
    "gVisor-restore",
    "Catalyzer-restore",
    "Catalyzer-Zygote",
    "Catalyzer-sfork",
];

impl Export for BenchExport {
    const COMMAND: &'static str = "export";
    const DEFAULT_PATH: &'static str = "BENCH_pr2.json";
    const SCHEMA: &'static str = "catalyzer-bench/pr2-v1";

    /// Runs the full export: every Fig. 11 engine × the profile set ×
    /// [`BOOTS_PER_PROFILE`] boots.
    fn generate(model: &CostModel) -> Result<Self, Box<dyn std::error::Error>> {
        let profiles = profile_set();
        let mut engines = Vec::new();
        for system in &mut System::fig11_lineup() {
            let engine = system.as_engine();
            let mut histogram = LatencyHistogram::new();
            let mut reference: Option<(String, Span)> = None;
            for profile in &profiles {
                for _ in 0..BOOTS_PER_PROFILE {
                    let mut ctx = BootCtx::fresh(model);
                    let outcome = engine.boot(profile, &mut ctx)?;
                    histogram.record(outcome.boot_latency);
                    if reference.is_none() {
                        reference = Some((outcome.system.to_string(), outcome.trace));
                    }
                }
            }
            let (system_name, trace) = reference.expect("profile set is non-empty");
            let phases = trace
                .to_breakdown()
                .iter()
                .map(|(phase, total)| PhaseTotal {
                    phase: phase.to_string(),
                    total,
                })
                .collect();
            engines.push(EngineExport {
                system: system_name,
                boots: histogram.count(),
                p50: histogram.p50().unwrap_or(SimNanos::ZERO),
                p90: histogram.p90().unwrap_or(SimNanos::ZERO),
                p99: histogram.p99().unwrap_or(SimNanos::ZERO),
                min: histogram.min().unwrap_or(SimNanos::ZERO),
                max: histogram.max().unwrap_or(SimNanos::ZERO),
                phases,
                self_time: trace.self_time(),
                total: trace.duration(),
                trace,
            });
        }
        Ok(Self {
            schema: Self::SCHEMA.to_string(),
            machine: model.machine.label().to_string(),
            profiles: profiles.into_iter().map(|p| p.name).collect(),
            engines,
        })
    }

    /// Validates an export's internal consistency: schema tag, full engine
    /// coverage, monotone span nesting, non-empty histograms, and per-phase
    /// attribution summing exactly to the boot total.
    fn validate(&self) -> Result<(), String> {
        Self::check_schema(&self.schema)?;
        for required in REQUIRED_SYSTEMS {
            if !self.engines.iter().any(|e| e.system == *required) {
                return Err(format!("engine missing from export: {required}"));
            }
        }
        for engine in &self.engines {
            let name = &engine.system;
            if engine.boots == 0 {
                return Err(format!("{name}: empty histogram"));
            }
            if engine.p50 > engine.p90 || engine.p90 > engine.p99 {
                return Err(format!("{name}: non-monotone quantiles"));
            }
            if engine.min > engine.max {
                return Err(format!("{name}: min > max"));
            }
            engine
                .trace
                .validate_nesting()
                .map_err(|e| format!("{name}: {e}"))?;
            if engine.trace.name != sandbox::SPAN_BOOT {
                return Err(format!("{name}: root span is '{}'", engine.trace.name));
            }
            let phase_sum: SimNanos = engine.phases.iter().map(|p| p.total).sum();
            if phase_sum.saturating_add(engine.self_time) != engine.total {
                return Err(format!(
                    "{name}: phases {phase_sum} + self {} != total {}",
                    engine.self_time, engine.total
                ));
            }
            if engine.total != engine.trace.duration() {
                return Err(format!("{name}: total != trace duration"));
            }
        }
        Ok(())
    }

    fn summary(&self) -> String {
        format!("{} engines", self.engines.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_missing_engine() {
        let model = CostModel::experimental_machine();
        let mut export = BenchExport::generate(&model).unwrap();
        export.engines.retain(|e| e.system != "Catalyzer-sfork");
        let err = export.validate().unwrap_err();
        assert!(err.contains("Catalyzer-sfork"), "{err}");
    }
}
