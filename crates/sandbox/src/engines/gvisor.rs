//! gVisor (runsc): the Sentry user-space kernel over KVM — the paper's base
//! system. The boot pipeline and its phase latencies reproduce Figure 2's
//! upper ("Boot") path.

use std::sync::Arc;

use guest_kernel::gofer::FsServer;
use runtimes::{AppProfile, WrappedProgram};
use simtime::names;

use crate::boot::{
    traced_boot, virtualization_setup, BootCtx, BootEngine, BootOutcome, IsolationLevel, PHASE_APP,
};
use crate::config::OciConfig;
use crate::host::HostTweaks;
use crate::SandboxError;

/// The gVisor baseline engine, on the paper's baseline host tweaks.
#[derive(Debug, Default)]
pub struct GvisorEngine;

impl GvisorEngine {
    /// Creates the engine.
    pub fn new() -> GvisorEngine {
        GvisorEngine
    }

    /// The shared sandbox-preparation pipeline (also used by the restore
    /// engines — gVisor-restore here, and Catalyzer's cold boot in the
    /// `catalyzer` crate — which replace application init with restore
    /// phases). Returns the program parked *before* application
    /// initialization, its kernel serving `fs`: the function's one rootfs,
    /// which a restore path already holds and a boot from scratch builds
    /// (every sandbox of a function mounts the same FS server). Pass
    /// `load_task_image = false` on restore paths, which never load the
    /// wrapped program from the rootfs.
    pub fn prepare_sandbox(
        tweaks: HostTweaks,
        profile: &AppProfile,
        fs: Arc<FsServer>,
        load_task_image: bool,
        ctx: &mut BootCtx,
    ) -> Result<WrappedProgram, SandboxError> {
        let json = OciConfig::for_function(&profile.name, profile.config_kib).to_json();
        let config = ctx.span(names::PHASE_SANDBOX_PARSE_CONFIG, |ctx| {
            OciConfig::parse(&json, ctx.clock(), ctx.model())
        })?;
        ctx.span(names::PHASE_SANDBOX_BOOT_SANDBOX_PROCESS, |ctx| {
            ctx.charge(ctx.model().host.process_spawn); // the Sentry
            ctx.charge(ctx.model().host.gofer_spawn); // the I/O (gofer) process
        });
        let mut program = ctx.span(names::PHASE_SANDBOX_INIT_KERNEL_PLATFORM, |ctx| {
            virtualization_setup(tweaks, config.vcpus, 3, ctx.clock(), ctx.model());
            WrappedProgram::start_with(profile, fs, ctx.clock(), ctx.model())
        })?;
        ctx.span(names::PHASE_SANDBOX_MOUNT_ROOTFS, |ctx| {
            program.kernel.vfs.mount(
                guest_kernel::vfs::MountInfo::new("proc", "/proc", "procfs"),
                ctx.clock(),
                ctx.model(),
            );
        });
        if load_task_image {
            ctx.span(names::PHASE_SANDBOX_LOAD_TASK_IMAGE, |ctx| {
                ctx.charge(ctx.model().host.task_image_load);
            });
        }
        Ok(program)
    }
}

impl BootEngine for GvisorEngine {
    fn name(&self) -> &'static str {
        "gVisor"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::High
    }

    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        traced_boot(self.name(), ctx, |ctx| {
            let fs = profile.build_fs_server();
            let mut program =
                Self::prepare_sandbox(HostTweaks::baseline(), profile, fs, true, ctx)?;
            ctx.span(PHASE_APP, |ctx| {
                program.run_to_entry_point(ctx.clock(), ctx.model())
            })?;
            Ok(program)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{CostModel, SimNanos};

    #[test]
    fn fig2_sandbox_pipeline_near_22ms() {
        let model = CostModel::experimental_machine();
        let mut engine = GvisorEngine::new();
        let boot = engine
            .boot(&AppProfile::java_specjbb(), &mut BootCtx::fresh(&model))
            .unwrap();
        // Fig. 2: 1.369 + 0.319 + 0.757 + 19.889 ≈ 22.3 ms of sandbox init.
        let sandbox = boot.sandbox_time().as_millis_f64();
        assert!((20.0..28.0).contains(&sandbox), "sandbox {sandbox} ms");
        assert!(
            boot.breakdown.total_for("sandbox:parse-config") >= SimNanos::from_millis_f64(1.369)
        );
        assert!((19.0..21.0).contains(
            &boot
                .breakdown
                .total_for("sandbox:load-task-image")
                .as_millis_f64()
        ));
    }

    #[test]
    fn specjbb_total_near_two_seconds() {
        let model = CostModel::experimental_machine();
        let boot = GvisorEngine::new()
            .boot(&AppProfile::java_specjbb(), &mut BootCtx::fresh(&model))
            .unwrap();
        let total = boot.boot_latency.as_millis_f64();
        // Fig. 6: gVisor Java-SPECjbb startup ≈ 2 s.
        assert!((1_900.0..2_200.0).contains(&total), "total {total} ms");
    }

    #[test]
    fn c_hello_near_142ms() {
        let model = CostModel::experimental_machine();
        let boot = GvisorEngine::new()
            .boot(&AppProfile::c_hello(), &mut BootCtx::fresh(&model))
            .unwrap();
        let total = boot.boot_latency.as_millis_f64();
        // Paper §6.2: 142 ms startup latency for C in gVisor.
        assert!((125.0..160.0).contains(&total), "total {total} ms");
    }

    #[test]
    fn booted_program_serves_requests() {
        let model = CostModel::experimental_machine();
        let mut ctx = BootCtx::fresh(&model);
        let mut boot = GvisorEngine::new()
            .boot(&AppProfile::c_hello(), &mut ctx)
            .unwrap();
        let exec = boot.program.invoke_handler(ctx.clock(), &model).unwrap();
        assert!(exec.pages_touched > 0);
    }
}
