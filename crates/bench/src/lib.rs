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

pub mod admitbench;
pub mod chaosbench;
pub mod clusterbench;
pub mod export;
pub mod faultbench;
pub mod figures;
pub mod fleetbench;

/// One checked-in `BENCH_*.json` export: everything `repro <command>
/// [--check] [path]` needs to regenerate, validate, and describe it. Each
/// `*bench` module implements this for its document type; the `repro`
/// binary's `export_or_check` is the one driver behind all of them.
pub trait Export: serde::Serialize + serde::Deserialize + Sized {
    /// The `repro` subcommand that writes or checks this export.
    const COMMAND: &'static str;
    /// The checked-in file the export lives in.
    const DEFAULT_PATH: &'static str;

    /// Runs the sweep on `model`.
    ///
    /// # Errors
    ///
    /// Engine errors (none in practice: inputs are valid by construction).
    fn generate(model: &simtime::CostModel) -> Result<Self, Box<dyn std::error::Error>>;

    /// Checks internal consistency and the claims the sweep demonstrates.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    fn validate(&self) -> Result<(), String>;

    /// What the document holds, for the one-line report (`18 cells + 2
    /// storms`).
    fn summary(&self) -> String;
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
