//! Docker (runc-style) containers: fast-ish sandbox setup, shared host
//! kernel (medium isolation), full application initialization on every boot.

use runtimes::AppProfile;
use runtimes::WrappedProgram;
use simtime::names;

use crate::boot::{traced_boot, BootCtx, BootEngine, BootOutcome, IsolationLevel, PHASE_APP};
use crate::config::OciConfig;
use crate::SandboxError;

/// The Docker baseline engine.
#[derive(Debug, Default)]
pub struct DockerEngine;

impl DockerEngine {
    /// Creates the engine.
    pub fn new() -> DockerEngine {
        DockerEngine
    }
}

impl BootEngine for DockerEngine {
    fn name(&self) -> &'static str {
        "Docker"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Medium
    }

    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        traced_boot(self.name(), ctx, |ctx| {
            let json = OciConfig::for_function(&profile.name, profile.config_kib).to_json();
            ctx.span(names::PHASE_SANDBOX_PARSE_CONFIG, |ctx| {
                OciConfig::parse(&json, ctx.clock(), ctx.model())
            })?;
            ctx.span(names::PHASE_SANDBOX_CONTAINER_RUNTIME, |ctx| {
                ctx.charge(ctx.model().host.container_runtime_overhead);
            });
            let mut program = ctx.span(names::PHASE_SANDBOX_NAMESPACES_PROCESS, |ctx| {
                let mut program = WrappedProgram::start(profile, ctx.clock(), ctx.model())?;
                // runc sets up pid/user/net/mnt namespaces and cgroups.
                for ns in ["mnt", "cgroup"] {
                    program
                        .kernel
                        .tasks
                        .add_namespace(ns, 0, ctx.clock(), ctx.model());
                }
                ctx.charge(ctx.model().host.process_spawn);
                Ok::<_, SandboxError>(program)
            })?;
            ctx.span(names::PHASE_SANDBOX_ROOTFS_MOUNTS, |ctx| {
                program.kernel.vfs.mount(
                    guest_kernel::vfs::MountInfo::new("proc", "/proc", "proc"),
                    ctx.clock(),
                    ctx.model(),
                );
            });
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
    use simtime::CostModel;

    #[test]
    fn docker_boot_shape() {
        let model = CostModel::experimental_machine();
        let mut engine = DockerEngine::new();
        let boot = engine
            .boot(&AppProfile::python_hello(), &mut BootCtx::fresh(&model))
            .unwrap();
        assert_eq!(boot.system, "Docker");
        // Paper: Docker startup > 100 ms; Python-hello is sandbox-dominated.
        let total = boot.boot_latency.as_millis_f64();
        assert!(total > 100.0, "total {total} ms");
        let sandbox = boot.sandbox_time().as_millis_f64();
        assert!(sandbox > 80.0, "sandbox {sandbox} ms");
        assert!(boot.program.at_entry_point());
    }

    #[test]
    fn app_init_dominates_for_java() {
        let model = CostModel::experimental_machine();
        let mut engine = DockerEngine::new();
        let boot = engine
            .boot(&AppProfile::java_specjbb(), &mut BootCtx::fresh(&model))
            .unwrap();
        assert!(boot.app_time() > boot.sandbox_time().saturating_mul(10));
    }
}
