//! Checker configuration.
//!
//! The *policy* — which files are parse modules, where the name registry
//! lives — is here, in code, because changing policy should look like a
//! code change and go through review. There is no config file and no way
//! to excuse a finding at its site: a finding is fixed in code, or this
//! policy changes.

/// Which files each pass applies to.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from scanning entirely (vendored stand-ins,
    /// build output).
    pub scan_exempt: Vec<String>,
    /// Files that parse untrusted bytes (func-images, checkpoints): the
    /// roots of the panic-freedom pass. Each also denies clippy's
    /// panic-source lints in its own inner attribute — keep the two lists
    /// the same.
    pub parse_files: Vec<String>,
    /// Path prefixes exempt from the namereg pass: the registry itself
    /// (where the names are defined) and the checker (which defines the
    /// grammar it polices).
    pub namereg_exempt: Vec<String>,
    /// The span/metric name registry file. The namereg pass checks that
    /// every public entry in it is emitted somewhere in the workspace, as
    /// well as the other direction (every literal is registered).
    pub registry_file: String,
}

impl Config {
    /// The policy for this workspace.
    pub fn workspace_default() -> Config {
        Config {
            scan_exempt: vec!["third_party/".into(), "target/".into()],
            parse_files: vec![
                "crates/imagefmt/src/flat.rs".into(),
                "crates/imagefmt/src/classic.rs".into(),
                "crates/imagefmt/src/varint.rs".into(),
                "crates/imagefmt/src/lz.rs".into(),
                "crates/imagefmt/src/record.rs".into(),
                "crates/memsim/src/image.rs".into(),
                "crates/guest-kernel/src/checkpoint.rs".into(),
            ],
            namereg_exempt: vec![
                "crates/simtime/src/names.rs".into(),
                "crates/catalint/".into(),
            ],
            registry_file: "crates/simtime/src/names.rs".into(),
        }
    }

    /// True when the path is excluded from all scanning.
    pub fn is_scan_exempt(&self, path: &str) -> bool {
        self.scan_exempt.iter().any(|p| path.starts_with(p))
    }

    /// True when the path is one of the configured parse modules.
    pub fn is_parse_file(&self, path: &str) -> bool {
        self.parse_files.iter().any(|p| p == path)
    }

    /// True when the path is exempt from the namereg pass.
    pub fn is_namereg_exempt(&self, path: &str) -> bool {
        self.namereg_exempt.iter().any(|p| path.starts_with(p))
    }

    /// True for test, bench, example, and binary targets — code that never
    /// ships on the restore path and is allowed its own conventions.
    pub fn is_non_library_path(&self, path: &str) -> bool {
        const MARKERS: [&str; 4] = ["tests/", "examples/", "benches/", "bin/"];
        MARKERS
            .iter()
            .any(|m| path.starts_with(m) || path.contains(&format!("/{m}")))
            || path.ends_with("/main.rs")
            || path == "src/main.rs"
    }
}

#[cfg(test)]
mod tests {
    use super::Config;

    #[test]
    fn path_classification() {
        let c = Config::workspace_default();
        assert!(c.is_scan_exempt("third_party/rand/src/lib.rs"));
        assert!(!c.is_scan_exempt("crates/imagefmt/src/flat.rs"));
        assert!(c.is_parse_file("crates/imagefmt/src/flat.rs"));
        assert!(!c.is_parse_file("crates/imagefmt/src/lib.rs"));
        assert!(c.is_non_library_path("crates/imagefmt/tests/properties.rs"));
        assert!(c.is_non_library_path("tests/determinism.rs"));
        assert!(c.is_non_library_path("crates/bench/src/bin/repro.rs"));
        assert!(c.is_non_library_path("examples/quickstart.rs"));
        assert!(!c.is_non_library_path("crates/core/src/restore.rs"));
    }
}
