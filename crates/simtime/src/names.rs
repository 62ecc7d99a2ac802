//! The workspace-wide registry of metric, span, and phase names.
//!
//! Every name the platform emits — counters, gauges, histograms, span
//! labels, phase labels — lives here as a `pub const` (fixed names) or a
//! helper function (parameterized names). Emitters and bench validators
//! both import from this module, so a renamed metric is a one-line change
//! that the compiler propagates instead of a string drifting silently out
//! of sync between a gateway and a dashboard.
//!
//! The registry is closed in both directions, and both are observed rather
//! than scanned for:
//!
//! - **Every emitted name is registered.** [`MetricsRegistry`]'s writers and
//!   [`Tracer::begin`] `debug_assert!` [`is_registered`]: a name under one of
//!   the [`PREFIXES`] (`boot.`, `invoke.`, `pool.`, `sandbox:`, ...) must be
//!   in [`ALL`] or have a helper's shape. Every debug test run checks every
//!   name its paths emit; release builds compile the check out.
//! - **Every registered name is emitted.** The root test
//!   `tests/name_registry.rs` unions the names a fixed set of runs emits and
//!   requires the union to cover [`ALL`], with no exception.
//!
//! Both lists below come from one table each (the `registry!` and
//! `helpers!` macros), so [`ALL`] and the helpers' shapes cannot drift from
//! the constants and functions they list.
//!
//! Naming scheme, by sigil:
//!
//! - `x.y` (dot) — metrics: counters, gauges, histogram families.
//! - `x:y` (colon) — span and phase labels in the trace tree.
//! - Parameterized names interpolate a function name, fallback rung, or
//!   fault point; use the helper so the shape stays canonical.
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry
//! [`Tracer::begin`]: crate::trace::Tracer::begin

/// Defines each fixed name as a `pub const` and lists every one in [`ALL`].
macro_rules! registry {
    ($($(#[$attr:meta])* $name:ident = $value:literal;)*) => {
        $($(#[$attr])* pub const $name: &str = $value;)*

        /// Every fixed name above, in declaration order.
        pub const ALL: &[&str] = &[$($name),*];
    };
}

/// Defines each parameterized name's helper and records its shape — the
/// prefix and suffix around the interpolated part — in `SHAPES`.
macro_rules! helpers {
    ($($(#[$attr:meta])* $name:ident($arg:ident) = $prefix:literal, $suffix:literal;)*) => {
        $(
            $(#[$attr])*
            pub fn $name($arg: &str) -> String {
                format!(concat!($prefix, "{}", $suffix), $arg)
            }
        )*

        /// `(prefix, suffix)` of every helper's names, in declaration order.
        const SHAPES: &[(&str, &str)] = &[$(($prefix, $suffix)),*];
    };
}

/// The registry's grammar: a metric or span name that starts with one of
/// these must be registered ([`is_registered`]). Names outside every prefix
/// (`boot`, `exec`, an engine's private step) are not the registry's.
pub const PREFIXES: [&str; 26] = [
    "boot.",
    "chaos.",
    "cluster.",
    "fleet.",
    "hedge:",
    "exec.",
    "invoke.",
    "invoke:",
    "fault.",
    "fault:",
    "pool.",
    "breaker.",
    "admit.",
    "shed.",
    "fallback.",
    "quarantine.",
    "scaling.",
    "warm.",
    "sandbox:",
    "sfork:",
    "app:",
    "restore:",
    "map-file:",
    "mem:",
    "io:",
    "transfer:",
];

/// True unless `name` is under one of the [`PREFIXES`] and is neither in
/// [`ALL`] nor the shape of a helper (its prefix, a non-empty part, its
/// suffix).
pub fn is_registered(name: &str) -> bool {
    !PREFIXES.iter().any(|prefix| name.starts_with(prefix))
        || ALL.contains(&name)
        || SHAPES.iter().any(|(prefix, suffix)| {
            name.strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(suffix))
                .is_some_and(|part| !part.is_empty())
        })
}

/// Checks an emitted name in debug builds: [`MetricsRegistry`]'s writers
/// and [`Tracer::begin`] call this. Release builds compile it to nothing.
///
/// [`MetricsRegistry`]: crate::MetricsRegistry
/// [`Tracer::begin`]: crate::trace::Tracer::begin
pub(crate) fn debug_assert_registered(name: &str) {
    debug_assert!(
        is_registered(name),
        "`{name}` is under a registry prefix but is neither a simtime::names \
         constant nor a helper's shape"
    );
}

registry! {
    // ---------------------------------------------------------------------------
    // Admission control (platform::admission).

    /// Counter: invocations admitted past the gate.
    ADMIT_COUNT = "admit.count";
    /// Counter: invocations that waited in the admission queue.
    ADMIT_QUEUED = "admit.queued";
    /// Histogram: virtual nanoseconds spent queued before admission.
    ADMIT_WAIT = "admit.wait";
    /// Counter: invocations shed because concurrency was saturated.
    SHED_OVERLOAD = "shed.overload";
    /// Counter: invocations shed because the deadline already passed.
    SHED_DEADLINE = "shed.deadline";
    /// Counter: invocations shed by an open circuit breaker.
    SHED_BREAKER = "shed.breaker";

    // ---------------------------------------------------------------------------
    // Gateway invocation metrics (platform::gateway).

    /// Counter: completed invocations.
    INVOKE_COUNT = "invoke.count";
    /// Counter: invocations that returned an error.
    INVOKE_ERRORS = "invoke.errors";
    /// Counter: invocations served in a degraded (fallback) mode.
    INVOKE_DEGRADED = "invoke.degraded";
    /// Counter: invocations that recovered via retry after a fault.
    INVOKE_RECOVERY = "invoke.recovery";
    /// Counter: total boot retries across all invocations.
    INVOKE_RETRIES = "invoke.retries";
    /// Counter: warm-up calls served by the gateway.
    WARM_COUNT = "warm.count";

    // ---------------------------------------------------------------------------
    // Zygote pool (platform::pool).

    /// Counter: boots served by reusing a pooled sandbox.
    POOL_REUSE = "pool.reuse";
    /// Counter: boots that missed the pool and booted fresh.
    POOL_BOOT = "pool.boot";
    /// Counter: pool serves while the pool was degraded.
    POOL_DEGRADED = "pool.degraded";
    /// Counter: pool serves that recovered a previously poisoned slot.
    POOL_RECOVERY = "pool.recovery";
    /// Counter: sandboxes marked poisoned by a failed boot.
    POOL_POISONED = "pool.poisoned";
    /// Counter: pooled sandboxes expired by TTL.
    POOL_EXPIRE = "pool.expire";
    /// Gauge: idle sandboxes currently pooled.
    POOL_IDLE = "pool.idle";
    /// Histogram: pool startup (first-boot) latency.
    POOL_STARTUP = "pool.startup";
    /// Counter: repair sweeps executed by the self-healing pool.
    POOL_REPAIR_COUNT = "pool.repair.count";
    /// Histogram: virtual time one repair sweep took.
    POOL_REPAIR_TIME = "pool.repair.time";
    /// Counter: poisoned sandboxes evicted by a repair sweep.
    POOL_REPAIR_EVICTED = "pool.repair.evicted";
    /// Counter: repair sweeps that failed to replace a sandbox.
    POOL_REPAIR_FAILED = "pool.repair.failed";
    /// Counter: sandboxes replenished by a repair sweep.
    POOL_REPAIR_REPLENISH = "pool.repair.replenish";

    // ---------------------------------------------------------------------------
    // Fault injection and graceful degradation (platform::resilience).

    /// Counter: invocations quarantined after repeated faults.
    QUARANTINE_COUNT = "quarantine.count";
    /// Counter: quarantine entries deferred because the pool was degraded.
    QUARANTINE_DEFERRED = "quarantine.deferred";

    // ---------------------------------------------------------------------------
    // The closed-loop cluster scheduler and remote sfork
    // (platform::cluster::Cluster). The open-loop kernels report typed
    // outcome fields, not metrics.

    /// Counter: requests routed to a template-local node (local sfork boot).
    CLUSTER_LOCAL = "cluster.local";
    /// Counter: requests served by a remote sfork (template transferred in).
    CLUSTER_REMOTE = "cluster.remote";
    /// Counter: requests that fell all the way to a cold image pull.
    CLUSTER_COLD = "cluster.cold";
    /// Counter: requests shed because every routable node was saturated.
    CLUSTER_SHED = "cluster.shed";
    /// Counter: requests re-routed off an overloaded or breaker-open node.
    CLUSTER_REROUTES = "cluster.reroutes";
    /// Counter: cross-node template transfers started.
    CLUSTER_TRANSFERS = "cluster.transfers";

    // ---------------------------------------------------------------------------
    // Node-level chaos and failover in the closed-loop cluster.

    /// Counter: scheduled node crashes that fired.
    CHAOS_CRASHES = "chaos.crashes";
    /// Counter: requests that failed outright at an unreachable node, with no
    /// failover left to take them elsewhere. Not sheds.
    CHAOS_FAILED = "chaos.failed";
    /// Counter: requests re-routed off a failed node by the failover policy.
    CHAOS_FAILOVERS = "chaos.failovers";
    /// Counter: template replicas rebuilt on new holders after a crash.
    CHAOS_REREPLICATIONS = "chaos.rereplications";
    /// Counter: requests that failed typed (`Unreachable`) at a crashed or
    /// partitioned node.
    CHAOS_UNREACHABLE = "chaos.unreachable";

    /// Span label for the cross-node transfer of a template (the RDMA read a
    /// remote sfork performs before forking from the received replica).
    SPAN_TRANSFER = "transfer:template";
    /// Span label for pulling the function's cold image from the registry when
    /// no template is reachable on any node.
    SPAN_COLD_PULL = "transfer:cold-pull";

    // ---------------------------------------------------------------------------
    // Span and phase labels of the boot pipeline (sandbox::boot re-exports
    // these so engine code keeps its historical import path).

    /// Name of the span a boot engine wraps around the whole boot.
    SPAN_BOOT = "boot";
    /// Name of the span the gateway wraps around handler execution.
    SPAN_EXEC = "exec";

    /// Phase name for application initialization (Fig. 4's "Application").
    PHASE_APP = "app:init";
    /// Phase name for guest-kernel (non-I/O) state recovery (Fig. 12 "Kernel").
    PHASE_RESTORE_KERNEL = "restore:kernel";
    /// Phase name for application-memory loading (Fig. 12 "Memory").
    PHASE_RESTORE_MEMORY = "restore:memory";
    /// Phase name for I/O reconnection (Fig. 12 "I/O").
    PHASE_RESTORE_IO = "restore:io";

    /// Phase: parse the sandbox config (every engine pays this).
    PHASE_SANDBOX_PARSE_CONFIG = "sandbox:parse-config";
    /// Phase: spawn the VMM process (Firecracker / Catalyzer cold boot).
    PHASE_SANDBOX_VMM_PROCESS = "sandbox:vmm-process";
    /// Phase: create and configure the KVM VM.
    PHASE_SANDBOX_KVM_SETUP = "sandbox:kvm-setup";
    /// Phase: boot the guest Linux kernel (microVM engines).
    PHASE_SANDBOX_GUEST_LINUX_BOOT = "sandbox:guest-linux-boot";
    /// Phase: bring up guest userspace (microVM engines).
    PHASE_SANDBOX_GUEST_USERSPACE = "sandbox:guest-userspace";
    /// Phase: container runtime setup (Docker).
    PHASE_SANDBOX_CONTAINER_RUNTIME = "sandbox:container-runtime";
    /// Phase: namespace creation plus process spawn (Docker).
    PHASE_SANDBOX_NAMESPACES_PROCESS = "sandbox:namespaces+process";
    /// Phase: rootfs mounts (Docker).
    PHASE_SANDBOX_ROOTFS_MOUNTS = "sandbox:rootfs-mounts";
    /// Phase: boot the sandbox (Sentry) process (gVisor).
    PHASE_SANDBOX_BOOT_SANDBOX_PROCESS = "sandbox:boot-sandbox-process";
    /// Phase: initialize the guest kernel and platform (gVisor).
    PHASE_SANDBOX_INIT_KERNEL_PLATFORM = "sandbox:init-kernel-platform";
    /// Phase: mount the root filesystem (gVisor).
    PHASE_SANDBOX_MOUNT_ROOTFS = "sandbox:mount-rootfs";
    /// Phase: load the task image (gVisor).
    PHASE_SANDBOX_LOAD_TASK_IMAGE = "sandbox:load-task-image";
    /// Phase: spawn the hyperd daemon (hyper-style engine).
    PHASE_SANDBOX_HYPERD = "sandbox:hyperd";
    /// Phase: specialize a zygote into the target function (fork boot).
    PHASE_SANDBOX_ZYGOTE_SPECIALIZE = "sandbox:zygote-specialize";

    /// Phase: load the function's code units (cold application init).
    PHASE_APP_LOAD_FUNCTION_UNITS = "app:load-function-units";
    /// Phase: build the function heap (cold application init).
    PHASE_APP_FUNCTION_HEAP = "app:function-heap";

    /// Phase: build the shared base mapping from the func image.
    PHASE_MAP_FILE_BUILD_BASE = "map-file:build-base";

    // ---------------------------------------------------------------------------
    // sfork (sandbox fork) phases (core::sfork, paper §4.2).

    /// Phase: the sfork syscall itself.
    PHASE_SFORK_SYSCALL = "sfork:syscall";
    /// Phase: duplicate guest-kernel state.
    PHASE_SFORK_KERNEL_STATE = "sfork:kernel-state";
    /// Phase: re-create namespaces for the child.
    PHASE_SFORK_NAMESPACES = "sfork:namespaces";
    /// Phase: expand the template's thread set.
    PHASE_SFORK_EXPAND_THREADS = "sfork:expand-threads";
    /// Phase: re-randomize ASLR in the child.
    PHASE_SFORK_ASLR = "sfork:aslr";
}

// ---------------------------------------------------------------------------
// Parameterized names.

helpers! {
    /// Span label wrapping one invocation of `function`.
    invoke_span(function) = "invoke:", "";
    /// Counter: completed invocations of `function`.
    invoke_fn_count(function) = "invoke.", ".count";
    /// Counter: degraded invocations served at fallback rung `rung`.
    invoke_degraded_rung(rung) = "invoke.degraded.", "";
    /// Histogram: boot latency of `function`.
    boot_hist(function) = "boot.", "";
    /// Histogram: handler-execution latency of `function`.
    exec_hist(function) = "exec.", "";
    /// Gauge: circuit-breaker state of `function` (0 closed / 1 half-open /
    /// 2 open).
    breaker_gauge(function) = "breaker.", "";
    /// Counter: faults injected at `point` (e.g. `fault.sfork`).
    fault_metric(point) = "fault.", "";
    /// Span label for the fault-injection wrapper at `point`.
    fault_span(point) = "fault:", "";
    /// Counter: fallback boots served at degradation rung `rung`
    /// (e.g. `fallback.warm`).
    fallback_rung(rung) = "fallback.", "";
}

// ---------------------------------------------------------------------------
// Phase-name prefixes: boot attribution sums every phase under one.

/// Phase-name prefix for sandbox-initialization work (Fig. 4's "Sandbox").
pub const PHASE_SANDBOX: &str = "sandbox:";
/// Phase-name prefix shared by the `restore:` phases.
pub const PHASE_RESTORE_PREFIX: &str = "restore:";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_interpolate_canonically() {
        assert_eq!(invoke_span("echo"), "invoke:echo");
        assert_eq!(invoke_fn_count("echo"), "invoke.echo.count");
        assert_eq!(invoke_degraded_rung("warm"), "invoke.degraded.warm");
        assert_eq!(boot_hist("echo"), "boot.echo");
        assert_eq!(exec_hist("echo"), "exec.echo");
        assert_eq!(breaker_gauge("echo"), "breaker.echo");
        assert_eq!(fault_metric("sfork"), "fault.sfork");
        assert_eq!(fault_span("sfork"), "fault:sfork");
        assert_eq!(fallback_rung("cold"), "fallback.cold");
    }

    #[test]
    fn every_constant_and_helper_shape_is_registered() {
        for name in ALL {
            assert!(is_registered(name), "{name}");
        }
        for name in [invoke_span("f"), invoke_fn_count("f"), fault_span("sfork")] {
            assert!(is_registered(&name), "{name}");
        }
        let mut sorted = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len(), "a name is registered twice");
    }

    #[test]
    fn an_unregistered_name_under_a_prefix_is_not() {
        for name in [
            "pool.bogus",
            "sandbox:spawn",
            "invoke.",
            "invoke:",
            "boot.",
            "scaling.up",
        ] {
            assert!(!is_registered(name), "{name}");
        }
        // Outside every prefix, a name is not the registry's to police.
        for name in ["boot", "exec", "separated-state", "startup"] {
            assert!(is_registered(name), "{name}");
        }
    }

    #[test]
    fn restore_phases_share_the_prefix() {
        for phase in [PHASE_RESTORE_KERNEL, PHASE_RESTORE_MEMORY, PHASE_RESTORE_IO] {
            assert!(phase.starts_with(PHASE_RESTORE_PREFIX));
        }
    }
}
