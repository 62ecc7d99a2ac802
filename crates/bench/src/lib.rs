//! Experiment harness for the Catalyzer reproduction.
//!
//! One module per table/figure of the paper's evaluation (§2 and §6); each
//! exposes a typed `compute(..)` returning the figure's rows/series and a
//! `render(..)` that prints them the way the paper reports them. The `repro`
//! binary drives them from the command line:
//!
//! ```text
//! cargo run -p bench --bin repro -- all
//! cargo run -p bench --bin repro -- fig11
//! ```
//!
//! Everything here is virtual time. The real wall-clock cost of the
//! mechanisms, per layer and end to end, is the standalone `benchmark/`
//! harness's job.

#![forbid(unsafe_code)]

use std::fmt;

pub mod admitbench;
pub mod chaosbench;
pub mod clusterbench;
pub mod export;
pub mod faultbench;
pub mod figures;
mod flashcrowd;
pub mod fleetbench;

/// One checked-in `BENCH_*.json` export: everything `repro <command>
/// [--check] [path]` needs to regenerate, validate, and describe it. Each
/// `*bench` module implements this for its document type and exposes
/// nothing else that runs or checks a sweep; the `repro` binary's
/// `export_or_check` is the one driver behind all of them.
pub trait Export: serde::Serialize + serde::Deserialize + Sized {
    /// The `repro` subcommand that writes or checks this export.
    const COMMAND: &'static str;
    /// The checked-in file the export lives in.
    const DEFAULT_PATH: &'static str;
    /// The tag in the document's `schema` field, so downstream tooling can
    /// reject stale files.
    const SCHEMA: &'static str;

    /// Runs the sweep on `model`.
    ///
    /// # Errors
    ///
    /// Engine errors (none in practice: inputs are valid by construction).
    fn generate(model: &simtime::CostModel) -> Result<Self, BenchError>;

    /// Checks internal consistency and the claims the sweep demonstrates.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    fn validate(&self) -> Result<(), String>;

    /// What the document holds, for the one-line report (`18 cells + 2
    /// storms`).
    fn summary(&self) -> String;

    /// The first thing every `validate` checks: the document's `schema`
    /// field carries [`Export::SCHEMA`].
    ///
    /// # Errors
    ///
    /// Names both tags when they differ.
    fn check_schema(found: &str) -> Result<(), String> {
        if found == Self::SCHEMA {
            Ok(())
        } else {
            Err(format!(
                "schema mismatch: {found} (expected {})",
                Self::SCHEMA
            ))
        }
    }
}

/// Why a `repro` run failed: an engine error from a sweep or figure, a
/// claim a document does not meet, or reading and writing its file.
#[derive(Debug)]
pub enum BenchError {
    /// A boot engine failed.
    Sandbox(sandbox::SandboxError),
    /// A platform run (gateway, fleet, cluster) failed.
    Platform(platform::PlatformError),
    /// A validator rejected a document, or a checked-in file is stale.
    Check(String),
    /// Reading or writing a `BENCH_*.json` file.
    Io(std::io::Error),
    /// A `BENCH_*.json` file that does not parse.
    Json(serde_json::Error),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Sandbox(e) => e.fmt(f),
            BenchError::Platform(e) => e.fmt(f),
            BenchError::Check(msg) => f.write_str(msg),
            BenchError::Io(e) => e.fmt(f),
            BenchError::Json(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<sandbox::SandboxError> for BenchError {
    fn from(e: sandbox::SandboxError) -> Self {
        BenchError::Sandbox(e)
    }
}

impl From<platform::PlatformError> for BenchError {
    fn from(e: platform::PlatformError) -> Self {
        BenchError::Platform(e)
    }
}

impl From<String> for BenchError {
    fn from(msg: String) -> Self {
        BenchError::Check(msg)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

impl From<serde_json::Error> for BenchError {
    fn from(e: serde_json::Error) -> Self {
        BenchError::Json(e)
    }
}

/// Formats a `SimNanos` latency as the paper prints them (ms with 2–3
/// significant decimals).
pub fn ms(d: simtime::SimNanos) -> String {
    let v = d.as_millis_f64();
    if v < 0.01 {
        format!("{:.4}", v)
    } else if v < 10.0 {
        format!("{:.2}", v)
    } else {
        format!("{:.1}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::Export;
    use crate::admitbench::AdmitBenchExport;
    use crate::chaosbench::ChaosBenchExport;
    use crate::clusterbench::ClusterBenchExport;
    use crate::export::BenchExport;
    use crate::faultbench::FaultBenchExport;
    use crate::fleetbench::FleetBenchExport;

    /// What every export document owes: it validates, survives JSON
    /// byte-for-byte, and is rejected once its schema tag drifts. Returns
    /// the canonical text.
    fn check_document<E: Export>(doc: &E) -> String {
        doc.validate().unwrap();
        let text = serde_json::to_string(doc).unwrap();
        let back: E = serde_json::from_str(&text).unwrap();
        back.validate().unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);

        let drifted = text.replacen(E::SCHEMA, "catalyzer-bench/pr0-v0", 1);
        let err = serde_json::from_str::<E>(&drifted)
            .unwrap()
            .validate()
            .unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        text
    }

    /// The text of the checked-in file.
    fn checked_in<E: Export>() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(E::DEFAULT_PATH);
        std::fs::read_to_string(path).unwrap()
    }

    /// The checked-in file is the canonical text of a document that holds
    /// up — the only form the three minutes-long sweeps are tested in.
    fn check_checked_in<E: Export>() {
        let on_disk = checked_in::<E>();
        let doc: E = serde_json::from_str(&on_disk).unwrap();
        assert_eq!(check_document(&doc), on_disk, "{}", E::DEFAULT_PATH);
    }

    /// A fresh sweep holds up and is the checked-in file, byte for byte:
    /// the sweep is deterministic and the file is what it makes.
    fn check_regenerated<E: Export>() {
        let model = simtime::CostModel::experimental_machine();
        let doc = E::generate(&model).unwrap();
        assert_eq!(check_document(&doc), checked_in::<E>(), "{}", E::COMMAND);
    }

    #[test]
    fn every_checked_in_export_is_valid_canonical_and_schema_guarded() {
        check_checked_in::<BenchExport>();
        check_checked_in::<FaultBenchExport>();
        check_checked_in::<AdmitBenchExport>();
        check_checked_in::<FleetBenchExport>();
        check_checked_in::<ClusterBenchExport>();
        check_checked_in::<ChaosBenchExport>();
    }

    #[test]
    fn the_cheap_sweeps_regenerate_valid_and_deterministic() {
        check_regenerated::<BenchExport>();
        check_regenerated::<FaultBenchExport>();
        check_regenerated::<AdmitBenchExport>();
    }
}
