//! OCI-style sandbox configuration bundles.
//!
//! "The first step of invoking a function is to prepare a sandbox ... the
//! arguments are based on OCI specification" (paper §2.1). Configurations
//! are real JSON here, and parsing charges the calibrated Fig. 2 cost
//! (1.369 ms base, plus a per-KiB term for outsized bundles).

use serde::{Deserialize, Serialize};
use simtime::{CostModel, SimClock};

use crate::SandboxError;

/// An OCI-ish runtime configuration bundle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OciConfig {
    /// Spec version.
    pub oci_version: String,
    /// Function / container id.
    pub id: String,
    /// Rootfs path.
    pub rootfs: String,
    /// Process arguments.
    pub args: Vec<String>,
    /// Environment variables (KEY=VALUE).
    pub env: Vec<String>,
    /// Requested VCPUs.
    pub vcpus: u32,
    /// Guest memory, MiB.
    pub memory_mib: u32,
    /// Annotations (e.g. the func-entry point marker).
    pub annotations: Vec<(String, String)>,
}

impl OciConfig {
    /// A bundle for `function` with the catalogue defaults.
    pub fn for_function(function: &str, pad_to_kib: u32) -> OciConfig {
        let padding =
            "x".repeat((usize::try_from(pad_to_kib).expect("small") << 10).saturating_sub(256));
        OciConfig {
            oci_version: "1.0.2".into(),
            id: function.into(),
            rootfs: format!("/var/lib/functions/{function}/rootfs"),
            args: vec!["/app/wrapper".into(), "/app/handler.bin".into()],
            env: vec!["PATH=/usr/bin".into(), format!("FUNC={function}")],
            vcpus: 1,
            memory_mib: 512,
            annotations: vec![
                ("dev.catalyzer.func-entry".into(), "default".into()),
                ("padding".into(), padding),
            ],
        }
    }

    /// Serializes to JSON (what the gateway hands to the runtime).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("config serializes")
    }

    /// Parses a bundle, charging the calibrated parse cost.
    ///
    /// # Errors
    ///
    /// [`SandboxError::Config`] on malformed JSON.
    pub fn parse(
        json: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<OciConfig, SandboxError> {
        let kib = (json.len() as u64) >> 10;
        clock.charge(
            model
                .host
                .config_parse_base
                .saturating_add(model.host.config_parse_per_kib.saturating_mul(kib)),
        );
        serde_json::from_str(json).map_err(|e| SandboxError::Config {
            detail: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimNanos;

    #[test]
    fn round_trips_through_json() {
        let cfg = OciConfig::for_function("hello", 4);
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        let parsed = OciConfig::parse(&cfg.to_json(), &clock, &model).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn parse_charges_fig2_cost() {
        let cfg = OciConfig::for_function("f", 1);
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        OciConfig::parse(&cfg.to_json(), &clock, &model).unwrap();
        let ms = clock.now().as_millis_f64();
        assert!((1.3..1.7).contains(&ms), "parse cost {ms} ms");
    }

    #[test]
    fn bigger_bundles_cost_more() {
        let model = CostModel::experimental_machine();
        let small = SimClock::new();
        OciConfig::parse(&OciConfig::for_function("f", 1).to_json(), &small, &model).unwrap();
        let big = SimClock::new();
        OciConfig::parse(&OciConfig::for_function("f", 64).to_json(), &big, &model).unwrap();
        assert!(big.now() > small.now().saturating_add(SimNanos::from_micros(100)));
    }

    #[test]
    fn malformed_json_is_config_error() {
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        assert!(matches!(
            OciConfig::parse("{ not json", &clock, &model).unwrap_err(),
            SandboxError::Config { .. }
        ));
    }
}
