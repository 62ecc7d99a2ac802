//! Checker configuration.
//!
//! The *policy* — which files are parse modules, which functions root the
//! restore hot path — lives here, in code, because changing policy should
//! look like a code change and go through review. There is no config file.

/// Which files each pass applies to, and where the restore path starts.
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
    /// Bare names of the functions that root the boot critical paths:
    /// cold/warm restore and fork boot. Everything name-reachable from
    /// these is held to hot-path discipline.
    pub hot_roots: Vec<String>,
    /// Bare names where hot-path traversal stops: work that is off the
    /// restore critical path even though the restore entry points call it
    /// (one-time image compilation).
    pub hot_stops: Vec<String>,
    /// Path prefixes exempt from the namereg pass: the registry itself
    /// (where the names are defined) and the checker (which defines the
    /// grammar it polices).
    pub namereg_exempt: Vec<String>,
    /// Bare names of the engine boot entry points. Everything reachable
    /// from these is the seam-coverage (`seamcover`) scope.
    pub seam_roots: Vec<String>,
    /// The seam registry: each `InjectionPoint` variant mapped to the
    /// bare names of the operations it guards in `core`/`sandbox`. A
    /// boot-path function calling one of these operations must consult
    /// `ctx.fault(<point>)` first.
    pub seam_ops: Vec<(String, Vec<String>)>,
    /// The span/metric name registry file. The namereg pass checks that
    /// every public entry in it is emitted somewhere in the workspace, as
    /// well as the other direction (every literal is registered).
    pub registry_file: String,
    /// The DES event-protocol file: where the `Event` enum and its
    /// tie-break key functions live.
    pub events_file: String,
    /// Name of the DES event enum.
    pub event_enum: String,
    /// The tie-break key functions on the event enum. Together they must
    /// bind every payload field, or insertion order leaks into pop order.
    pub tiebreak_fns: Vec<String>,
    /// Bare names of the open-loop run loops whose event matches the
    /// eventproto pass holds to full variant coverage.
    pub event_loops: Vec<String>,
    /// Bare names of the functions *in the events file* through which an
    /// event reaches a run loop without a `schedule` call: the queue's
    /// `pop`, whose merge of the time-sorted trace is where every streamed
    /// arrival is built. A variant constructed there is not a ghost.
    pub event_merge_fns: Vec<String>,
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
            hot_roots: vec![
                // Catalyzer restore (paper §3: separated state recovery,
                // overlay memory, on-demand I/O).
                "restore_boot".into(),
                "restore_metadata".into(),
                "build_base_layer".into(),
                "app_mem_index".into(),
                "read_io_manifest".into(),
                // Overlay-memory demand paging.
                "attach_base".into(),
                "load_page".into(),
                "load_range".into(),
                // Fork boot (paper §4): `sfork` duplicates page *tables*
                // and kernel bookkeeping copy-on-write. This pass sees a
                // per-page or per-buffer copy under it only when it is
                // spelled `to_vec`/`to_owned` or is a `.clone()` of a
                // receiver named like a buffer; a whole-table clone
                // (`self.dentries.clone()`) it does not see. What holds
                // the kernel tables to sharing is that they are private
                // `Arc` fields of `GuestKernel`/`Vfs`, and the unit test
                // `sfork_clone_and_child_drop_cost_refcounts_not_objects`.
                "sfork".into(),
                "sfork_clone".into(),
            ],
            hot_stops: vec![
                // One-time image preparation (checkpoint side). The paper
                // measures restore with images already built; the builders
                // may buffer and copy freely.
                "ensure_compiled".into(),
            ],
            namereg_exempt: vec![
                "crates/simtime/src/names.rs".into(),
                "crates/catalint/".into(),
            ],
            seam_roots: vec![
                // Every `BootEngine::boot` implementation plus the
                // Catalyzer-specific entry points that bypass the trait.
                "boot".into(),
                "restore_boot".into(),
                "sfork".into(),
                "fork_boot".into(),
                "boot_function".into(),
            ],
            seam_ops: vec![
                // Paper §3: each restore mechanism sits behind its fault
                // seam. The operation names are the `core`/`sandbox`
                // functions that *perform* the seam's work.
                (
                    "ImageMmap".into(),
                    vec!["build_base_layer".into(), "attach_base".into()],
                ),
                ("ArenaMap".into(), vec!["restore_metadata".into()]),
                ("Relink".into(), vec!["restore_from_records".into()]),
                (
                    "IoReconnect".into(),
                    vec!["read_io_manifest".into(), "ensure_connected".into()],
                ),
                ("ZygoteSpecialize".into(), vec!["specialize".into()]),
                ("SforkMerge".into(), vec!["expand".into()]),
                // The cluster's remote-sfork rung: the cross-node template
                // transfer (platform::cluster) behind its own seam.
                ("TemplateTransfer".into(), vec!["transfer_template".into()]),
            ],
            registry_file: "crates/simtime/src/names.rs".into(),
            events_file: "crates/platform/src/simulate/events.rs".into(),
            event_enum: "Event".into(),
            tiebreak_fns: vec!["class".into(), "key".into(), "subkey".into()],
            // The single-node fleet and the cluster kernel behind both
            // `run_cluster` and `run_chaos`. The closed loop
            // (`run_closed`) is a fold over the trace: it schedules
            // nothing, so there is no event match to hold to coverage.
            event_loops: vec!["run_fleet".into(), "drive".into()],
            event_merge_fns: vec!["pop".into()],
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

    /// The `InjectionPoint` variant guarding `op`, per the seam registry.
    pub fn seam_point_for(&self, op: &str) -> Option<&str> {
        self.seam_ops
            .iter()
            .find(|(_, ops)| ops.iter().any(|o| o == op))
            .map(|(point, _)| point.as_str())
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

    #[test]
    fn hot_roots_cover_every_boot_path() {
        let c = Config::workspace_default();
        // Cold/warm restore, demand paging, and fork boot.
        for root in [
            "restore_boot",
            "build_base_layer",
            "attach_base",
            "load_page",
            "sfork",
            "sfork_clone",
        ] {
            assert!(c.hot_roots.iter().any(|r| r == root), "{root} not a root");
        }
        // One-time image compilation stays off the path.
        assert_eq!(c.hot_stops, ["ensure_compiled"]);
    }

    #[test]
    fn seam_registry_lookup() {
        let c = Config::workspace_default();
        assert_eq!(c.seam_point_for("restore_metadata"), Some("ArenaMap"));
        assert_eq!(c.seam_point_for("ensure_connected"), Some("IoReconnect"));
        assert_eq!(c.seam_point_for("specialize"), Some("ZygoteSpecialize"));
        assert_eq!(
            c.seam_point_for("transfer_template"),
            Some("TemplateTransfer")
        );
        assert_eq!(c.seam_point_for("unrelated_op"), None);
    }

    #[test]
    fn event_protocol_policy() {
        let c = Config::workspace_default();
        assert_eq!(c.events_file, "crates/platform/src/simulate/events.rs");
        assert_eq!(c.event_enum, "Event");
        assert_eq!(c.tiebreak_fns, ["class", "key", "subkey"]);
        assert_eq!(c.event_loops, ["run_fleet", "drive"]);
        assert_eq!(c.event_merge_fns, ["pop"]);
    }
}
