//! The workspace-wide registry of metric, span, and phase names.
//!
//! Every name the platform emits — counters, gauges, histograms, span
//! labels, phase labels — lives here as a `pub const` (fixed names) or a
//! helper function (parameterized names). Emitters and bench validators
//! both import from this module, so a renamed metric is a one-line change
//! that the compiler propagates instead of a string drifting silently out
//! of sync between a gateway and a dashboard.
//!
//! The `namereg` pass of `catalint` enforces the discipline: any string
//! literal elsewhere in the workspace that starts with one of the
//! registered prefixes (`boot.`, `invoke.`, `pool.`, `sandbox:`, ...) is a
//! finding. This file is the single exemption.
//!
//! Naming scheme, by sigil:
//!
//! - `x.y` (dot) — metrics: counters, gauges, histogram families.
//! - `x:y` (colon) — span and phase labels in the trace tree.
//! - Parameterized names interpolate a function name, fallback rung, or
//!   fault point; use the helper so the shape stays canonical.

// ---------------------------------------------------------------------------
// Admission control (platform::admission).

/// Counter: invocations admitted past the gate.
pub const ADMIT_COUNT: &str = "admit.count";
/// Counter: invocations that waited in the admission queue.
pub const ADMIT_QUEUED: &str = "admit.queued";
/// Histogram: virtual nanoseconds spent queued before admission.
pub const ADMIT_WAIT: &str = "admit.wait";
/// Counter: invocations shed because concurrency was saturated.
pub const SHED_OVERLOAD: &str = "shed.overload";
/// Counter: invocations shed because the deadline already passed.
pub const SHED_DEADLINE: &str = "shed.deadline";
/// Counter: invocations shed by an open circuit breaker.
pub const SHED_BREAKER: &str = "shed.breaker";

// ---------------------------------------------------------------------------
// Gateway invocation metrics (platform::gateway).

/// Counter: completed invocations.
pub const INVOKE_COUNT: &str = "invoke.count";
/// Counter: invocations that returned an error.
pub const INVOKE_ERRORS: &str = "invoke.errors";
/// Counter: invocations served in a degraded (fallback) mode.
pub const INVOKE_DEGRADED: &str = "invoke.degraded";
/// Counter: invocations that recovered via retry after a fault.
pub const INVOKE_RECOVERY: &str = "invoke.recovery";
/// Counter: total boot retries across all invocations.
pub const INVOKE_RETRIES: &str = "invoke.retries";
/// Counter: warm-up calls served by the gateway.
pub const WARM_COUNT: &str = "warm.count";

/// Span label wrapping one invocation of `function`.
pub fn invoke_span(function: &str) -> String {
    format!("invoke:{function}")
}

/// Counter: completed invocations of `function`.
pub fn invoke_fn_count(function: &str) -> String {
    format!("invoke.{function}.count")
}

/// Counter: degraded invocations served at fallback rung `rung`.
pub fn invoke_degraded_rung(rung: &str) -> String {
    format!("invoke.degraded.{rung}")
}

/// Histogram: boot latency of `function`.
pub fn boot_hist(function: &str) -> String {
    format!("boot.{function}")
}

/// Histogram: handler-execution latency of `function`.
pub fn exec_hist(function: &str) -> String {
    format!("exec.{function}")
}

/// Gauge: circuit-breaker state of `function` (0 closed / 1 half-open /
/// 2 open).
pub fn breaker_gauge(function: &str) -> String {
    format!("breaker.{function}")
}

// ---------------------------------------------------------------------------
// Zygote pool (platform::pool).

/// Counter: boots served by reusing a pooled sandbox.
pub const POOL_REUSE: &str = "pool.reuse";
/// Counter: boots that missed the pool and booted fresh.
pub const POOL_BOOT: &str = "pool.boot";
/// Counter: pool serves while the pool was degraded.
pub const POOL_DEGRADED: &str = "pool.degraded";
/// Counter: pool serves that recovered a previously poisoned slot.
pub const POOL_RECOVERY: &str = "pool.recovery";
/// Counter: sandboxes marked poisoned by a failed boot.
pub const POOL_POISONED: &str = "pool.poisoned";
/// Counter: pooled sandboxes expired by TTL.
pub const POOL_EXPIRE: &str = "pool.expire";
/// Gauge: idle sandboxes currently pooled.
pub const POOL_IDLE: &str = "pool.idle";
/// Histogram: pool startup (first-boot) latency.
pub const POOL_STARTUP: &str = "pool.startup";
/// Counter: repair sweeps executed by the self-healing pool.
pub const POOL_REPAIR_COUNT: &str = "pool.repair.count";
/// Histogram: virtual time one repair sweep took.
pub const POOL_REPAIR_TIME: &str = "pool.repair.time";
/// Counter: poisoned sandboxes evicted by a repair sweep.
pub const POOL_REPAIR_EVICTED: &str = "pool.repair.evicted";
/// Counter: repair sweeps that failed to replace a sandbox.
pub const POOL_REPAIR_FAILED: &str = "pool.repair.failed";
/// Counter: sandboxes replenished by a repair sweep.
pub const POOL_REPAIR_REPLENISH: &str = "pool.repair.replenish";

// ---------------------------------------------------------------------------
// Fault injection and graceful degradation (platform::resilience).

/// Counter: invocations quarantined after repeated faults.
pub const QUARANTINE_COUNT: &str = "quarantine.count";
/// Counter: quarantine entries deferred because the pool was degraded.
pub const QUARANTINE_DEFERRED: &str = "quarantine.deferred";

/// Counter: faults injected at `point` (e.g. `fault.sfork`).
pub fn fault_metric(point: &str) -> String {
    format!("fault.{point}")
}

/// Span label for the fault-injection wrapper at `point`.
pub fn fault_span(point: &str) -> String {
    format!("fault:{point}")
}

/// Counter: fallback boots served at degradation rung `rung`
/// (e.g. `fallback.warm`).
pub fn fallback_rung(rung: &str) -> String {
    format!("fallback.{rung}")
}

// ---------------------------------------------------------------------------
// Open-loop fleet engine (platform::simulate::fleet).

/// Counter: events the fleet's discrete-event queue processed.
pub const FLEET_EVENTS: &str = "fleet.events";
/// Counter: cold boots across the fleet.
pub const FLEET_COLD_BOOTS: &str = "fleet.boots";
/// Counter: requests served by reusing a warm instance.
pub const FLEET_REUSES: &str = "fleet.reuses";
/// Counter: instances reclaimed by keep-alive expiry.
pub const FLEET_EXPIRATIONS: &str = "fleet.expirations";
/// Counter: instances booted in the background to hold the warm floor.
pub const FLEET_PREWARM: &str = "fleet.prewarm";
/// Counter: requests shed by the per-function concurrency cap.
pub const FLEET_SHED: &str = "fleet.shed";
/// Counter: background repair sweeps (heal + replenish) the fleet ran.
pub const FLEET_REPAIRS: &str = "fleet.repairs";
/// Gauge: peak instances concurrently live across the fleet.
pub const FLEET_PEAK_INSTANCES: &str = "fleet.peak-instances";

// ---------------------------------------------------------------------------
// Cluster scheduler and remote sfork (platform::cluster).

/// Counter: requests routed to a template-local node (local sfork boot).
pub const CLUSTER_LOCAL: &str = "cluster.local";
/// Counter: requests served by a remote sfork (template transferred in).
pub const CLUSTER_REMOTE: &str = "cluster.remote";
/// Counter: requests that fell all the way to a cold image pull.
pub const CLUSTER_COLD: &str = "cluster.cold";
/// Counter: requests served by reusing a node-local warm instance.
pub const CLUSTER_REUSE: &str = "cluster.reuse";
/// Counter: requests shed because every routable node was saturated.
pub const CLUSTER_SHED: &str = "cluster.shed";
/// Counter: requests re-routed off an overloaded or breaker-open node.
pub const CLUSTER_REROUTES: &str = "cluster.reroutes";
/// Counter: cross-node template transfers started.
pub const CLUSTER_TRANSFERS: &str = "cluster.transfers";
/// Counter: faults injected at the template-transfer seam.
pub const CLUSTER_TRANSFER_FAULTS: &str = "cluster.transfer-faults";
/// Counter: background node repairs that healed poisoned replicas.
pub const CLUSTER_NODE_REPAIRS: &str = "cluster.node-repairs";
/// Gauge: peak instances concurrently live on the busiest node.
pub const CLUSTER_PEAK_NODE_INSTANCES: &str = "cluster.peak-node-instances";

// ---------------------------------------------------------------------------
// Node-level chaos and failover (platform::cluster::chaos).

/// Counter: scheduled node crashes that fired.
pub const CHAOS_CRASHES: &str = "chaos.crashes";
/// Counter: requests that failed outright — killed by a crash, routed at an
/// unreachable node, or hung on an orphaned transfer. Not sheds.
pub const CHAOS_FAILED: &str = "chaos.failed";
/// Counter: transfer waiters left with no completion path at run end (the
/// no-failover baseline's signature pathology).
pub const CHAOS_HUNG: &str = "chaos.hung";
/// Counter: requests re-routed off a failed node by the failover policy.
pub const CHAOS_FAILOVERS: &str = "chaos.failovers";
/// Counter: template replicas rebuilt on new holders after a crash.
pub const CHAOS_REREPLICATIONS: &str = "chaos.rereplications";
/// Counter: hedged (second-source) transfers fired after the hedge delay.
pub const CHAOS_HEDGES: &str = "chaos.hedges";
/// Counter: hedged transfers that beat their primary.
pub const CHAOS_HEDGE_WINS: &str = "chaos.hedge-wins";
/// Counter: in-flight transfers aborted by a source-node crash.
pub const CHAOS_ABORTED_TRANSFERS: &str = "chaos.aborted-transfers";
/// Counter: requests that failed typed (`Unreachable`) at a crashed or
/// partitioned node.
pub const CHAOS_UNREACHABLE: &str = "chaos.unreachable";
/// Counter: virtual-time heartbeat rounds the health tracker ran.
pub const CHAOS_HEARTBEATS: &str = "chaos.heartbeats";
/// Counter: heartbeat rounds that marked a node `Suspect` (slow-ack — the
/// gray-node catch a liveness bit would miss).
pub const CHAOS_SUSPECTED: &str = "chaos.suspected";

/// Span label for the cross-node transfer of a template (the RDMA read a
/// remote sfork performs before forking from the received replica).
pub const SPAN_TRANSFER: &str = "transfer:template";
/// Span label for pulling the function's cold image from the registry when
/// no template is reachable on any node.
pub const SPAN_COLD_PULL: &str = "transfer:cold-pull";

// ---------------------------------------------------------------------------
// Span and phase labels of the boot pipeline (sandbox::boot re-exports
// these so engine code keeps its historical import path).

/// Name of the span a boot engine wraps around the whole boot.
pub const SPAN_BOOT: &str = "boot";
/// Name of the span the gateway wraps around handler execution.
pub const SPAN_EXEC: &str = "exec";

/// Phase-name prefix for sandbox-initialization work (Fig. 4's "Sandbox").
pub const PHASE_SANDBOX: &str = "sandbox:";
/// Phase name for application initialization (Fig. 4's "Application").
pub const PHASE_APP: &str = "app:init";
/// Phase name for guest-kernel (non-I/O) state recovery (Fig. 12 "Kernel").
pub const PHASE_RESTORE_KERNEL: &str = "restore:kernel";
/// Phase name for application-memory loading (Fig. 12 "Memory").
pub const PHASE_RESTORE_MEMORY: &str = "restore:memory";
/// Phase name for I/O reconnection (Fig. 12 "I/O").
pub const PHASE_RESTORE_IO: &str = "restore:io";
/// Phase-name prefix shared by the restore phases above.
pub const PHASE_RESTORE_PREFIX: &str = "restore:";

/// Phase: parse the sandbox config (every engine pays this).
pub const PHASE_SANDBOX_PARSE_CONFIG: &str = "sandbox:parse-config";
/// Phase: spawn the VMM process (Firecracker / Catalyzer cold boot).
pub const PHASE_SANDBOX_VMM_PROCESS: &str = "sandbox:vmm-process";
/// Phase: create and configure the KVM VM.
pub const PHASE_SANDBOX_KVM_SETUP: &str = "sandbox:kvm-setup";
/// Phase: boot the guest Linux kernel (microVM engines).
pub const PHASE_SANDBOX_GUEST_LINUX_BOOT: &str = "sandbox:guest-linux-boot";
/// Phase: bring up guest userspace (microVM engines).
pub const PHASE_SANDBOX_GUEST_USERSPACE: &str = "sandbox:guest-userspace";
/// Phase: container runtime setup (Docker).
pub const PHASE_SANDBOX_CONTAINER_RUNTIME: &str = "sandbox:container-runtime";
/// Phase: namespace creation plus process spawn (Docker).
pub const PHASE_SANDBOX_NAMESPACES_PROCESS: &str = "sandbox:namespaces+process";
/// Phase: rootfs mounts (Docker).
pub const PHASE_SANDBOX_ROOTFS_MOUNTS: &str = "sandbox:rootfs-mounts";
/// Phase: boot the sandbox (Sentry) process (gVisor).
pub const PHASE_SANDBOX_BOOT_SANDBOX_PROCESS: &str = "sandbox:boot-sandbox-process";
/// Phase: initialize the guest kernel and platform (gVisor).
pub const PHASE_SANDBOX_INIT_KERNEL_PLATFORM: &str = "sandbox:init-kernel-platform";
/// Phase: mount the root filesystem (gVisor).
pub const PHASE_SANDBOX_MOUNT_ROOTFS: &str = "sandbox:mount-rootfs";
/// Phase: load the task image (gVisor).
pub const PHASE_SANDBOX_LOAD_TASK_IMAGE: &str = "sandbox:load-task-image";
/// Phase: spawn the hyperd daemon (hyper-style engine).
pub const PHASE_SANDBOX_HYPERD: &str = "sandbox:hyperd";
/// Phase: specialize a zygote into the target function (fork boot).
pub const PHASE_SANDBOX_ZYGOTE_SPECIALIZE: &str = "sandbox:zygote-specialize";

/// Phase: load the function's code units (cold application init).
pub const PHASE_APP_LOAD_FUNCTION_UNITS: &str = "app:load-function-units";
/// Phase: build the function heap (cold application init).
pub const PHASE_APP_FUNCTION_HEAP: &str = "app:function-heap";

/// Phase: build the shared base mapping from the func image.
pub const PHASE_MAP_FILE_BUILD_BASE: &str = "map-file:build-base";

// ---------------------------------------------------------------------------
// sfork (sandbox fork) phases (core::sfork, paper §4.2).

/// Phase: the sfork syscall itself.
pub const PHASE_SFORK_SYSCALL: &str = "sfork:syscall";
/// Phase: duplicate guest-kernel state.
pub const PHASE_SFORK_KERNEL_STATE: &str = "sfork:kernel-state";
/// Phase: re-create namespaces for the child.
pub const PHASE_SFORK_NAMESPACES: &str = "sfork:namespaces";
/// Phase: expand the template's thread set.
pub const PHASE_SFORK_EXPAND_THREADS: &str = "sfork:expand-threads";
/// Phase: re-randomize ASLR in the child.
pub const PHASE_SFORK_ASLR: &str = "sfork:aslr";

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
    fn restore_phases_share_the_prefix() {
        for phase in [PHASE_RESTORE_KERNEL, PHASE_RESTORE_MEMORY, PHASE_RESTORE_IO] {
            assert!(phase.starts_with(PHASE_RESTORE_PREFIX));
        }
    }
}
