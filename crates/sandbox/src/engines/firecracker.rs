//! FireCracker-style microVMs: a minimized guest Linux boots in ~100 ms
//! (paper §2.2), then the application initializes from scratch.

use runtimes::{AppProfile, WrappedProgram};
use simtime::names;

use crate::boot::{
    traced_boot, virtualization_setup, BootCtx, BootEngine, BootOutcome, IsolationLevel, PHASE_APP,
};
use crate::config::OciConfig;
use crate::host::HostTweaks;
use crate::SandboxError;

/// The FireCracker baseline engine, on the paper's baseline host tweaks.
#[derive(Debug, Default)]
pub struct FirecrackerEngine;

impl FirecrackerEngine {
    /// Creates the engine.
    pub fn new() -> FirecrackerEngine {
        FirecrackerEngine
    }
}

impl BootEngine for FirecrackerEngine {
    fn name(&self) -> &'static str {
        "FireCracker"
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
            let json = OciConfig::for_function(&profile.name, profile.config_kib).to_json();
            let config = ctx.span(names::PHASE_SANDBOX_PARSE_CONFIG, |ctx| {
                OciConfig::parse(&json, ctx.clock(), ctx.model())
            })?;
            ctx.span(names::PHASE_SANDBOX_VMM_PROCESS, |ctx| {
                ctx.charge(ctx.model().host.process_spawn)
            });
            ctx.span(names::PHASE_SANDBOX_KVM_SETUP, |ctx| {
                virtualization_setup(
                    HostTweaks::baseline(),
                    config.vcpus,
                    4,
                    ctx.clock(),
                    ctx.model(),
                )
            });
            ctx.span(names::PHASE_SANDBOX_GUEST_LINUX_BOOT, |ctx| {
                ctx.charge(ctx.model().kvm.guest_linux_boot);
            });
            let mut program = ctx.span(names::PHASE_SANDBOX_GUEST_USERSPACE, |ctx| {
                WrappedProgram::start(profile, ctx.clock(), ctx.model())
            })?;
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
    fn microvm_boot_pays_guest_kernel() {
        let model = CostModel::experimental_machine();
        let mut engine = FirecrackerEngine::new();
        let boot = engine
            .boot(&AppProfile::python_hello(), &mut BootCtx::fresh(&model))
            .unwrap();
        // Paper: FireCracker boots a microVM + minimized kernel in ~100 ms,
        // before application init.
        let sandbox = boot.sandbox_time().as_millis_f64();
        assert!((100.0..140.0).contains(&sandbox), "sandbox {sandbox} ms");
        assert!(
            boot.breakdown
                .total_for("sandbox:guest-linux-boot")
                .as_millis_f64()
                > 90.0
        );
    }
}
