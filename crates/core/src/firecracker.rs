//! Generality: on-demand restore applied to FireCracker (paper §5).
//!
//! "Although we choose to implement Catalyzer on gVisor/Golang, the design
//! is general ... For example, FireCracker needs more than 100ms to boot a
//! guest kernel, which can be optimized safely with the on-demand restore.
//! The four techniques in on-demand restore only depend on hardware
//! virtualization extensions like Intel EPT or AMD NPT."
//!
//! [`FirecrackerSnapshotEngine`] demonstrates exactly that: the microVM's
//! guest-Linux boot (~108 ms) and the application initialization are both
//! replaced by an on-demand restore from the flat func-image — the snapshot
//! holds the *booted guest kernel plus the initialized application*, and the
//! Base-EPT maps guest memory lazily.

use std::sync::Arc;

use faultsim::InjectionPoint;
use guest_kernel::GuestKernel;
use runtimes::{AppProfile, WrappedProgram};
use sandbox::config::OciConfig;
use sandbox::host::{HostTweaks, KvmDevice};
use sandbox::{
    traced_boot, BootCtx, BootEngine, BootOutcome, IsolationLevel, SandboxError, PHASE_RESTORE_IO,
    PHASE_RESTORE_KERNEL, PHASE_RESTORE_MEMORY,
};
use simtime::names;
use simtime::{CostModel, SimClock};

use crate::store::FuncImageStore;

/// FireCracker with Catalyzer-style snapshot restore.
#[derive(Debug)]
pub struct FirecrackerSnapshotEngine {
    store: FuncImageStore,
    tweaks: HostTweaks,
}

impl FirecrackerSnapshotEngine {
    /// Creates the engine with Catalyzer's host tweaks.
    pub fn new() -> FirecrackerSnapshotEngine {
        FirecrackerSnapshotEngine {
            store: FuncImageStore::new(),
            tweaks: HostTweaks::catalyzer(),
        }
    }

    /// The image store (for inspecting offline work).
    pub fn store(&self) -> &FuncImageStore {
        &self.store
    }
}

impl Default for FirecrackerSnapshotEngine {
    fn default() -> Self {
        FirecrackerSnapshotEngine::new()
    }
}

impl BootEngine for FirecrackerSnapshotEngine {
    fn name(&self) -> &'static str {
        "FireCracker-snapshot"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::High
    }

    fn warm(&mut self, profile: &AppProfile, model: &CostModel) -> Result<(), SandboxError> {
        self.store.ensure_compiled(profile, model)?;
        Ok(())
    }

    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        self.store.ensure_compiled(profile, ctx.model())?;
        let tweaks = self.tweaks;
        let stored = self.store.get_mut(&profile.name).expect("compiled above");
        let fs = Arc::clone(&stored.fs);

        traced_boot("FireCracker-snapshot", ctx, |ctx| {
            // VMM process + KVM resources — unchanged from stock FireCracker.
            let json = OciConfig::for_function(&profile.name, profile.config_kib).to_json();
            let config = ctx.span(names::PHASE_SANDBOX_PARSE_CONFIG, |ctx| {
                OciConfig::parse(&json, ctx.clock(), ctx.model())
            })?;
            ctx.span(names::PHASE_SANDBOX_VMM_PROCESS, |ctx| {
                ctx.charge(ctx.model().host.process_spawn)
            });
            ctx.span(names::PHASE_SANDBOX_KVM_SETUP, |ctx| {
                let mut kvm = KvmDevice::create(tweaks, ctx.clock(), ctx.model());
                for _ in 0..config.vcpus {
                    kvm.create_vcpu(ctx.clock(), ctx.model());
                }
                kvm.kvcalloc(ctx.clock(), ctx.model());
                kvm.set_memory_region(ctx.clock(), ctx.model());
            });

            // NO guest-Linux boot: the snapshot already contains the booted
            // guest; on-demand restore recovers it. Each restore mechanism
            // consults its fault seam first, like the gVisor engines.
            ctx.fault(InjectionPoint::ArenaMap)?;
            let records = ctx.span(PHASE_RESTORE_KERNEL, |ctx| {
                ctx.span("separated-state", |ctx| {
                    stored.flat.restore_metadata(ctx.clock(), ctx.model())
                })
            })?;
            ctx.fault(InjectionPoint::Relink)?;
            let mut kernel = ctx.span(PHASE_RESTORE_KERNEL, |ctx| {
                GuestKernel::restore_from_records(
                    profile.name.clone(),
                    &records,
                    Arc::clone(&fs),
                    false,
                    ctx.clock(),
                    ctx.model(),
                )
            })?;
            let mut space = memsim::AddressSpace::new(profile.name.clone());
            ctx.fault(InjectionPoint::ImageMmap)?;
            ctx.span(PHASE_RESTORE_MEMORY, |ctx| {
                let (base, step) = match &stored.base {
                    Some(base) => (Arc::clone(base), "share-mapping"),
                    None => {
                        let base = ctx.span(names::PHASE_MAP_FILE_BUILD_BASE, |ctx| {
                            stored.flat.build_base_layer(ctx.clock(), ctx.model())
                        })?;
                        stored.base = Some(Arc::clone(&base));
                        (base, "map-file")
                    }
                };
                ctx.span(step, |ctx| {
                    space.attach_base(
                        base,
                        profile.heap_range(),
                        "snapshot",
                        ctx.clock(),
                        ctx.model(),
                    )
                })?;
                Ok::<_, SandboxError>(())
            })?;
            ctx.fault(InjectionPoint::IoReconnect)?;
            ctx.span(PHASE_RESTORE_IO, |ctx| {
                // Lazy I/O: replay listeners only, as in the gVisor
                // implementation.
                ctx.span("io-cache-replay", |ctx| {
                    let socks: Vec<(u64, bool)> = kernel
                        .net
                        .iter()
                        .map(|s| (s.id, s.state == guest_kernel::net::SockState::Listening))
                        .collect();
                    for (id, listening) in socks {
                        if listening {
                            ctx.charge(ctx.model().io.io_cache_replay);
                            kernel
                                .net
                                .ensure_connected(id, &SimClock::new(), ctx.model())?;
                        }
                    }
                    Ok::<_, SandboxError>(())
                })
            })?;

            Ok(WrappedProgram::from_restored(profile, kernel, space))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimNanos;

    #[test]
    fn snapshot_restore_removes_the_guest_boot() {
        let model = CostModel::experimental_machine();
        let profile = AppProfile::python_hello();

        let stock = {
            let mut ctx = BootCtx::fresh(&model);
            sandbox::FirecrackerEngine::new()
                .boot(&profile, &mut ctx)
                .unwrap();
            ctx.now()
        };
        let mut snap_engine = FirecrackerSnapshotEngine::new();
        let snap = {
            let mut ctx = BootCtx::fresh(&model);
            let outcome = snap_engine.boot(&profile, &mut ctx).unwrap();
            assert!(outcome
                .breakdown
                .total_for(names::PHASE_SANDBOX_GUEST_LINUX_BOOT)
                .is_zero());
            ctx.now()
        };
        // §5: stock FireCracker pays >100 ms of guest boot plus app init;
        // the snapshot path drops both.
        assert!(stock > SimNanos::from_millis(200), "stock {stock}");
        assert!(snap < SimNanos::from_millis(40), "snapshot {snap}");
        assert!(stock.as_nanos() / snap.as_nanos() >= 8);
    }

    #[test]
    fn snapshot_boots_get_warmer() {
        let model = CostModel::experimental_machine();
        let profile = AppProfile::c_hello();
        let mut engine = FirecrackerSnapshotEngine::new();
        let cold = {
            let mut ctx = BootCtx::fresh(&model);
            engine.boot(&profile, &mut ctx).unwrap();
            ctx.now()
        };
        let warm = {
            let mut ctx = BootCtx::fresh(&model);
            engine.boot(&profile, &mut ctx).unwrap();
            ctx.now()
        };
        assert!(warm < cold, "warm {warm} !< cold {cold} (shared Base-EPT)");
    }

    #[test]
    fn restored_microvm_serves_requests() {
        let model = CostModel::experimental_machine();
        let mut ctx = BootCtx::fresh(&model);
        let mut engine = FirecrackerSnapshotEngine::new();
        let mut outcome = engine.boot(&AppProfile::node_hello(), &mut ctx).unwrap();
        let exec = outcome.program.invoke_handler(ctx.clock(), &model).unwrap();
        assert!(exec.pages_touched > 0);
        assert_eq!(outcome.system, "FireCracker-snapshot");
    }
}
