use std::sync::Arc;

use guest_kernel::gofer::FsServer;
use guest_kernel::GraphSpec;
use memsim::VpnRange;
use serde::{Deserialize, Serialize};
use simtime::SimNanos;

use crate::{RuntimeKind, HEAP_BASE};

/// A calibrated application profile: everything the simulation needs to know
/// about one of the paper's evaluated programs (§6.1–§6.2).
///
/// The headline numbers are calibrated so that `sandbox init + app init`
/// reproduces the paper's gVisor startup latencies (Fig. 6, Fig. 11,
/// Table 2) — see `DESIGN.md` §6 for the sources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Display name matching the paper's figures ("Java-SPECjbb", ...).
    pub name: String,
    /// Language runtime.
    pub runtime: RuntimeKind,
    /// VM/interpreter start cost (e.g. JVM start: 1.85 s for SPECjbb, Fig. 2).
    pub runtime_start: SimNanos,
    /// Loadable units (classes/modules/gems) pulled in during init.
    pub load_units: u32,
    /// Per-unit load cost (parse + verify + JIT warm).
    pub unit_cost: SimNanos,
    /// Guest heap pages allocated and written during initialization.
    pub init_heap_pages: u64,
    /// Guest-kernel object-graph size at the func-entry point
    /// (37 838 for SPECjbb, §2.2).
    pub kernel_objects: u64,
    /// Handler compute time per request.
    pub exec_time: SimNanos,
    /// Fraction of the init heap the handler touches (Insight II: small).
    pub exec_touch_fraction: f64,
    /// Fraction of touched pages the handler writes (drives CoW).
    pub exec_write_fraction: f64,
    /// Fresh pages the handler allocates per request.
    pub exec_alloc_pages: u64,
    /// Rootfs shape: number of library files the FS server holds.
    pub rootfs_files: u32,
    /// Rootfs shape: bytes per library file.
    pub rootfs_file_size: u32,
    /// OCI configuration size, KiB (parse cost scales with it).
    pub config_kib: u32,
    /// Fraction of `exec_time` hoisted before the func-entry point by the
    /// fine-grained entry-point optimization (§6.7, Fig. 16a). 0 = default
    /// entry point at handler invocation.
    pub entry_point_shift: f64,
    /// Whether the handler performs request I/O (reads its binary, writes
    /// the log, pings a socket). Pure-compute microbenchmarks disable it.
    pub exec_io: bool,
}

impl AppProfile {
    #[allow(clippy::too_many_arguments)] // internal calibration constructor
    fn base(
        name: &str,
        runtime: RuntimeKind,
        runtime_start_ms: f64,
        load_units: u32,
        unit_cost_us: f64,
        init_heap_pages: u64,
        kernel_objects: u64,
        exec_ms: f64,
    ) -> AppProfile {
        AppProfile {
            name: name.to_string(),
            runtime,
            runtime_start: SimNanos::from_millis_f64(runtime_start_ms),
            load_units,
            unit_cost: SimNanos::from_micros_f64(unit_cost_us),
            init_heap_pages,
            kernel_objects,
            exec_time: SimNanos::from_millis_f64(exec_ms),
            exec_touch_fraction: 0.08,
            exec_write_fraction: 0.25,
            exec_alloc_pages: 32,
            rootfs_files: 48,
            rootfs_file_size: 16 << 10,
            config_kib: 4,
            entry_point_shift: 0.0,
            exec_io: true,
        }
    }

    /// C "helloworld" — the minimal application (sub-ms sfork target).
    pub fn c_hello() -> AppProfile {
        let mut p = Self::base("C-hello", RuntimeKind::C, 22.0, 24, 4_000.0, 64, 6_000, 0.2);
        p.exec_touch_fraction = 0.5;
        p.exec_alloc_pages = 4;
        p.rootfs_files = 24;
        p
    }

    /// Nginx web server (the paper's real C application, v1.11.3).
    pub fn c_nginx() -> AppProfile {
        let mut p = Self::base(
            "C-Nginx",
            RuntimeKind::C,
            24.0,
            30,
            4_000.0,
            512,
            7_000,
            1.2,
        );
        p.rootfs_files = 40;
        p
    }

    /// Java "helloworld" (Table 2's lightweight Java function).
    pub fn java_hello() -> AppProfile {
        let mut p = Self::base(
            "Java-hello",
            RuntimeKind::Java,
            505.0,
            420,
            280.0,
            12_800,
            29_500,
            0.5,
        );
        p.rootfs_files = 64;
        p.rootfs_file_size = 32 << 10;
        p
    }

    /// SPECjbb 2015 backend (the paper's heavyweight Java case: 1.85 s JVM
    /// start, 200 MB app memory, 37 838 kernel objects).
    pub fn java_specjbb() -> AppProfile {
        let mut p = Self::base(
            "Java-SPECjbb",
            RuntimeKind::Java,
            1_796.0,
            460,
            280.0,
            51_200,
            37_838,
            2_643.8,
        );
        p.exec_touch_fraction = 0.30;
        p.exec_alloc_pages = 512;
        p.rootfs_files = 96;
        p.rootfs_file_size = 32 << 10;
        p.config_kib = 8;
        p
    }

    /// Python "helloworld".
    pub fn python_hello() -> AppProfile {
        Self::base(
            "Python-hello",
            RuntimeKind::Python,
            84.0,
            40,
            800.0,
            1_536,
            16_500,
            0.3,
        )
    }

    /// Django web framework (the paper's real Python application).
    pub fn python_django() -> AppProfile {
        let mut p = Self::base(
            "Python-Django",
            RuntimeKind::Python,
            84.0,
            310,
            800.0,
            10_240,
            15_000,
            25.0,
        );
        p.rootfs_files = 80;
        p
    }

    /// Ruby "helloworld".
    pub fn ruby_hello() -> AppProfile {
        Self::base(
            "Ruby-hello",
            RuntimeKind::Ruby,
            94.0,
            30,
            1_000.0,
            1_024,
            24_000,
            0.3,
        )
    }

    /// Sinatra web library (the paper's real Ruby application).
    pub fn ruby_sinatra() -> AppProfile {
        Self::base(
            "Ruby-Sinatra",
            RuntimeKind::Ruby,
            94.0,
            230,
            1_000.0,
            6_144,
            12_000,
            18.0,
        )
    }

    /// Node.js "helloworld".
    pub fn node_hello() -> AppProfile {
        Self::base(
            "Node.js-hello",
            RuntimeKind::Node,
            108.0,
            40,
            900.0,
            2_048,
            16_500,
            0.3,
        )
    }

    /// Node.js web server (the paper's real Node application).
    pub fn node_web() -> AppProfile {
        Self::base(
            "Node.js-Web",
            RuntimeKind::Node,
            108.0,
            260,
            900.0,
            6_144,
            9_000,
            8.0,
        )
    }

    /// The ten micro/real applications of Figure 11, in figure order.
    pub fn catalogue() -> Vec<AppProfile> {
        vec![
            Self::c_hello(),
            Self::c_nginx(),
            Self::java_hello(),
            Self::java_specjbb(),
            Self::python_hello(),
            Self::python_django(),
            Self::ruby_hello(),
            Self::ruby_sinatra(),
            Self::node_hello(),
            Self::node_web(),
        ]
    }

    /// Total application-initialization latency (runtime start + unit loads),
    /// excluding the real page faults and syscalls charged during init.
    pub fn app_init_estimate(&self) -> SimNanos {
        self.runtime_start
            .saturating_add(self.unit_cost.saturating_mul(u64::from(self.load_units)))
    }

    /// The guest heap range this application initializes.
    pub fn heap_range(&self) -> VpnRange {
        VpnRange::with_len(HEAP_BASE, self.init_heap_pages)
    }

    /// Kernel-graph spec matching this application.
    pub fn graph_spec(&self) -> GraphSpec {
        GraphSpec::sized(self.kernel_objects)
    }

    /// Builds the per-function FS server with this app's rootfs shape.
    pub fn build_fs_server(&self) -> Arc<FsServer> {
        Arc::new(
            FsServer::builder(self.name.clone())
                .file(
                    "/app/handler.bin",
                    format!("handler:{}", self.name).into_bytes(),
                )
                .file(
                    "/app/config.json",
                    vec![b'{'; (self.config_kib as usize) << 10],
                )
                .synthetic_tree(
                    "/lib",
                    self.rootfs_files as usize,
                    self.rootfs_file_size as usize,
                )
                .persistent("/var/log/function.log")
                .build(),
        )
    }

    /// The function-specific subset of `load_units`: what a *language
    /// runtime template* (paper §4.3) must still load after `sfork`, because
    /// the template only pre-initialized the language environment. Roughly a
    /// quarter of the units belong to the app rather than the runtime.
    pub fn app_only_units(&self) -> u32 {
        (self.load_units / 4).max(1)
    }

    /// Applies the fine-grained func-entry-point optimization (§6.7): hoists
    /// `fraction` of the handler's work before the checkpoint.
    pub fn with_entry_point_shift(mut self, fraction: f64) -> AppProfile {
        self.entry_point_shift = fraction.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_ten_apps_in_figure_order() {
        let apps = AppProfile::catalogue();
        assert_eq!(apps.len(), 10);
        assert_eq!(apps[0].name, "C-hello");
        assert_eq!(apps[3].name, "Java-SPECjbb");
        assert_eq!(apps[9].name, "Node.js-Web");
    }

    #[test]
    fn specjbb_matches_paper_calibration() {
        let p = AppProfile::java_specjbb();
        assert_eq!(p.kernel_objects, 37_838);
        assert_eq!(p.init_heap_pages * 4096, 200 << 20); // 200 MB
                                                         // JVM start + class load ≈ 1.98 s (Fig. 2's 1 850 ms JVM start plus
                                                         // class loading; heap-touch faults add the remainder in simulation).
        let est = p.app_init_estimate().as_millis_f64();
        assert!((1_900.0..2_000.0).contains(&est), "est {est}");
        assert_eq!(p.exec_time, SimNanos::from_micros(2_643_800));
    }

    #[test]
    fn hello_apps_are_light() {
        for p in [
            AppProfile::c_hello(),
            AppProfile::python_hello(),
            AppProfile::ruby_hello(),
        ] {
            // Light in memory and handler work; the kernel-object counts are
            // calibrated against the paper's §6.2 warm-boot latencies.
            assert!(p.init_heap_pages <= 2_048, "{}", p.name);
            assert!(p.exec_time < SimNanos::from_millis(1), "{}", p.name);
            assert!(
                p.kernel_objects < AppProfile::java_specjbb().kernel_objects,
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn vm_languages_start_slower_than_c() {
        // The VM/interpreter start itself dominates for high-level languages
        // (paper §2.2); C pays only loader work.
        let c = AppProfile::c_hello().runtime_start;
        for p in [
            AppProfile::java_hello(),
            AppProfile::python_hello(),
            AppProfile::node_hello(),
        ] {
            assert!(p.runtime_start > c, "{} VM start not slower than C", p.name);
        }
    }

    #[test]
    fn fs_server_shape() {
        let p = AppProfile::c_hello();
        let fs = p.build_fs_server();
        assert!(fs.exists("/app/handler.bin"));
        assert!(fs.exists("/lib/lib0000.so"));
        assert!(fs.exists("/var/log/function.log"));
        assert_eq!(fs.paths().count(), 24 + 3);
    }

    #[test]
    fn entry_point_shift_clamps() {
        let p = AppProfile::c_hello().with_entry_point_shift(2.0);
        assert_eq!(p.entry_point_shift, 1.0);
        let p = AppProfile::c_hello().with_entry_point_shift(-1.0);
        assert_eq!(p.entry_point_shift, 0.0);
    }

    #[test]
    fn heap_range_is_page_count() {
        let p = AppProfile::c_nginx();
        assert_eq!(p.heap_range().len(), 512);
        assert_eq!(p.heap_range().start, HEAP_BASE);
        // A hostile page count is clipped at the top of the page-number
        // space, never wrapped below its start.
        let hostile = AppProfile {
            init_heap_pages: u64::MAX,
            ..p
        };
        assert_eq!(hostile.heap_range().end, u64::MAX);
        assert_eq!(hostile.heap_range().len(), u64::MAX - HEAP_BASE);
    }
}
