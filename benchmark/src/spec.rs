//! The benchmark's declaration: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repository root is `catalyzer-benchmark spec`
//! written to a file; a unit test keeps the two identical.

use crate::json::{obj, pretty, text, Value};

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The seed every committed number was measured with. `--seed 29` is held
/// out: never used while tuning, reserved for later claims.
pub const DEFAULT_SEED: u64 = 11;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "restore-boot",
        "400 cold+warm boots over the 10 paper profiles: imagefmt relink, memsim EPT, guest-kernel restore and core zygotes do all the work; platform does none",
    ),
    (
        "image-build",
        "func-image compile + template generate for the 10 profiles: the restore layers in the write direction (runtimes init, checkpoint, flat write, crc32); platform does none",
    ),
    (
        "sfork-closed",
        "4000 requests (Poisson 200 Hz, Zipf 1.0) through real pools with fork boot: platform per-request path, simtime metrics/tracer, core sfork, memsim CoW; event queue nearly idle",
    ),
    (
        "fleet-open",
        "2M simulated requests (20 kHz + flash crowds) over 10k functions via run_fleet: event queue, arenas and histograms at 10^5 live instances; restore substrate only as calibration",
    ),
    (
        "cluster-storm",
        "1.2M simulated requests on 8 nodes under a seeded node-fault storm via run_chaos: cluster routing/transfer/failover plus faultsim; heavy-profile calibration is most of a repetition",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The end-to-end metrics the driver gates. The harness's own result
/// files add `failed_share` and the three `sim_*` metrics (exact, bound 0)
/// — see `EXACT_END_TO_END` and the README for why those four cannot be
/// declared here.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// End-to-end metrics that must repeat exactly for a fixed seed: compared
/// with bound 0 by `compare`, pinned by the digests in `expected/`.
pub const EXACT_END_TO_END: [(&str, &str); 4] = [
    ("failed_share", "share"),
    ("sim_startup_mean_us", "us"),
    ("sim_startup_p99_us", "us"),
    ("sim_events", "count"),
];

/// `(name, unit, better)` for every per-layer metric of the traced pass.
/// Names are `<crate>.<metric>`; host clock unless the metric part starts
/// with `sim_`. A traced run prints all of them: a layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 72] = [
    ("imagefmt.flat_parse_us", "us", "lower"),
    ("imagefmt.flat_relink_objs_per_s", "objs/s", "higher"),
    ("imagefmt.relink_threads", "count", "lower"),
    ("imagefmt.flat_write_mib_per_s", "MiB/s", "higher"),
    ("imagefmt.crc32_mib_per_s", "MiB/s", "higher"),
    ("imagefmt.image_bytes", "count", "lower"),
    ("imagefmt.classic_write_mib_per_s", "MiB/s", "higher"),
    ("imagefmt.classic_read_mib_per_s", "MiB/s", "higher"),
    ("imagefmt.lz_compress_mib_per_s", "MiB/s", "higher"),
    ("imagefmt.lz_decompress_mib_per_s", "MiB/s", "higher"),
    ("memsim.attach_touch_faults_per_s", "faults/s", "higher"),
    ("memsim.sfork_clone_pages_per_s", "pages/s", "higher"),
    ("memsim.anon_populate_pages_per_s", "pages/s", "higher"),
    ("memsim.cow_faults_per_op", "count", "lower"),
    ("memsim.pages_copied_per_op", "count", "lower"),
    ("guest-kernel.restore_objs_per_s", "objs/s", "higher"),
    ("guest-kernel.checkpoint_objs_per_s", "objs/s", "higher"),
    ("guest-kernel.populate_objs_per_s", "objs/s", "higher"),
    ("guest-kernel.sfork_clone_objs_per_s", "objs/s", "higher"),
    ("runtimes.init_ms", "ms", "lower"),
    ("runtimes.exec_us", "us", "lower"),
    ("sandbox.bootctx_span_ns", "ns", "lower"),
    ("sandbox.gvisor_restore_boot_ms", "ms", "lower"),
    ("core.cold_boot_p50_us", "us", "lower"),
    ("core.cold_boot_p99_us", "us", "lower"),
    ("core.warm_boot_p50_us", "us", "lower"),
    ("core.warm_boot_p99_us", "us", "lower"),
    ("core.zygote_refill_us", "us", "lower"),
    ("core.fork_boot_p50_us", "us", "lower"),
    ("core.fork_boot_p99_us", "us", "lower"),
    ("core.image_compile_ms", "ms", "lower"),
    ("core.template_generate_ms", "ms", "lower"),
    ("core.sim_restore_kernel_us", "us", "lower"),
    ("core.sim_restore_memory_us", "us", "lower"),
    ("core.sim_restore_io_us", "us", "lower"),
    ("core.sim_sfork_us", "us", "lower"),
    ("simtime.metrics_add_ns", "ns", "lower"),
    ("simtime.metrics_observe_ns", "ns", "lower"),
    ("simtime.tracer_span_ns", "ns", "lower"),
    ("simtime.histogram_record_ns", "ns", "lower"),
    ("platform.gateway_call_p50_us", "us", "lower"),
    ("platform.gateway_call_p99_us", "us", "lower"),
    ("platform.pool_serve_reuse_us", "us", "lower"),
    ("platform.pool_serve_boot_us", "us", "lower"),
    ("platform.admission_admit_ns", "ns", "lower"),
    ("platform.closed_reuse_share", "share", "higher"),
    ("platform.queue_push_pop_ns", "ns", "lower"),
    ("platform.arena_churn_ns", "ns", "lower"),
    ("platform.fleet_calibrate_s", "s", "lower"),
    ("platform.fleet_drain_events_per_s", "events/s", "higher"),
    ("platform.cluster_calibrate_s", "s", "lower"),
    ("platform.cluster_drain_events_per_s", "events/s", "higher"),
    ("platform.chaos_drain_events_per_s", "events/s", "higher"),
    ("platform.chaos_overhead_share", "share", "lower"),
    ("platform.cluster_remote_forks", "count", "lower"),
    ("platform.cluster_transfers", "count", "lower"),
    ("platform.chaos_failovers", "count", "lower"),
    ("platform.chaos_rereplications", "count", "lower"),
    ("platform.chaos_hedge_win_share", "share", "higher"),
    ("faultsim.check_ns", "ns", "lower"),
    ("workloads.synthetic_fns_per_s", "fns/s", "higher"),
    ("workloads.open_loop_req_per_s", "req/s", "higher"),
    ("harness.trace_overhead_share", "share", "lower"),
    ("harness.rep_spread", "share", "lower"),
    ("harness.unattributed_share", "share", "lower"),
    // The four exact end-to-end metrics ride along here so that a driver
    // run records them too (they cannot be bounded end-to-end metrics:
    // two of them are 0 by design and none may drift at all).
    ("harness.failed_share", "share", "lower"),
    ("harness.sim_lost_share", "share", "lower"),
    ("harness.sim_startup_mean_us", "us", "lower"),
    ("harness.sim_startup_p99_us", "us", "lower"),
    ("harness.sim_events", "count", "lower"),
    ("harness.ops_per_s_traced", "op/s", "higher"),
    ("harness.ops_per_s_untraced", "op/s", "higher"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: &[&str]| Value::Arr(items.iter().map(|i| text(i)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| obj(vec![("name", text(name)), ("why", text(why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        obj(vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better)),
            ("bound", Value::F64(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|(name, unit, better)| {
        obj(vec![
            ("name", text(name)),
            ("unit", text(unit)),
            ("better", text(better)),
        ])
    });
    pretty(&obj(vec![
        ("command", list(&["bash", "benchmark/run.sh"])),
        ("paths", list(&["benchmark"])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        ("workloads", Value::Arr(workloads.collect())),
        ("end_to_end", Value::Arr(end_to_end.collect())),
        ("per_layer", Value::Arr(per_layer.collect())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declaration_stays_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in &END_TO_END {
            assert!(valid_unit(m.unit) && m.bound <= 0.25, "{}", m.name);
        }
        for (name, unit, better) in PER_LAYER {
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(better == "higher" || better == "lower", "{name}");
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it with `run.sh spec`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
