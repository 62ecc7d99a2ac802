//! gVisor-restore: C/R-based init-less booting *without* Catalyzer's
//! optimizations (paper §2.2's strawman, Figures 2 and 6).
//!
//! A checkpoint image is compiled offline by running the wrapped program to
//! its func-entry point. Every boot then restores from that image with all
//! recovery on the critical path: full decompression, one-by-one object
//! deserialization, eager memory loading, and eager I/O reconnection.

use std::collections::HashMap;
use std::sync::Arc;

use faultsim::InjectionPoint;
use guest_kernel::gofer::FsServer;
use guest_kernel::GuestKernel;
use imagefmt::classic;
use memsim::SharedBytes;
use memsim::{Perms, ShareMode};
use runtimes::{AppProfile, WrappedProgram};
use simtime::{CostModel, SimClock, SimNanos};

use crate::boot::{
    traced_boot, BootCtx, BootEngine, BootOutcome, IsolationLevel, PHASE_RESTORE_IO,
    PHASE_RESTORE_KERNEL, PHASE_RESTORE_MEMORY,
};
use crate::engines::gvisor::GvisorEngine;
use crate::host::HostTweaks;
use crate::SandboxError;

#[derive(Debug)]
struct Prepared {
    image: SharedBytes,
    fs: Arc<FsServer>,
}

/// The gVisor-restore engine.
#[derive(Debug, Default)]
pub struct GvisorRestoreEngine {
    prepared: HashMap<String, Prepared>,
    /// Virtual time spent in offline image compilation (not on any boot's
    /// critical path).
    offline: SimClock,
}

impl GvisorRestoreEngine {
    /// Creates the engine with an empty image store.
    pub fn new() -> GvisorRestoreEngine {
        GvisorRestoreEngine::default()
    }

    /// Offline (non-critical-path) virtual time spent compiling images.
    pub fn offline_time(&self) -> SimNanos {
        self.offline.now()
    }

    /// Compiles (or returns the cached) checkpoint image for `profile`.
    ///
    /// # Errors
    ///
    /// Substrate errors from the offline initialization run.
    pub fn prepare(&mut self, profile: &AppProfile, model: &CostModel) -> Result<(), SandboxError> {
        if self.prepared.contains_key(&profile.name) {
            return Ok(());
        }
        let fs = profile.build_fs_server();
        let mut program =
            WrappedProgram::start_with(profile, Arc::clone(&fs), &self.offline, model)?;
        program.run_to_entry_point(&self.offline, model)?;
        let src = program.checkpoint_source(&self.offline, model)?;
        let image = classic::write(&src, &self.offline, model);
        self.prepared
            .insert(profile.name.clone(), Prepared { image, fs });
        Ok(())
    }
}

impl BootEngine for GvisorRestoreEngine {
    fn name(&self) -> &'static str {
        "gVisor-restore"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::High
    }

    fn warm(&mut self, profile: &AppProfile, model: &CostModel) -> Result<(), SandboxError> {
        self.prepare(profile, model)
    }

    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        self.prepare(profile, ctx.model())?;
        let prepared = &self.prepared[&profile.name];
        let image = prepared.image.clone();
        let fs = Arc::clone(&prepared.fs);

        traced_boot(self.name(), ctx, |ctx| {
            // Sandbox preparation (Fig. 2's restore path re-uses the boot
            // pipeline minus the task-image load).
            let shell = GvisorEngine::prepare_sandbox(HostTweaks::baseline(), profile, false, ctx)?;
            let mut space = shell.space;

            // Read the checkpoint: the C/R machinery's fixed cost plus the
            // one-by-one deserialization of every object.
            let (src, counts) = classic::read_uncharged(&image)?;
            ctx.span(PHASE_RESTORE_KERNEL, |ctx| {
                ctx.charge_span("decode-objects", {
                    let model = ctx.model();
                    model
                        .obj
                        .classic_restore_fixed
                        .saturating_add(model.obj.decode_per_object.saturating_mul(counts.objects))
                });
            });
            // Non-I/O state redo (recover_per_object charged inside restore).
            ctx.fault(InjectionPoint::Relink)?;
            let mut kernel = ctx.span(PHASE_RESTORE_KERNEL, |ctx| {
                GuestKernel::restore_from_records(
                    profile.name.clone(),
                    &src.objects,
                    Arc::clone(&fs),
                    false,
                    ctx.clock(),
                    ctx.model(),
                )
            })?;

            // Eager memory load: disk read of the compressed stream, full
            // decompression, then copying every page into guest frames.
            ctx.fault(InjectionPoint::ImageMmap)?;
            ctx.span(PHASE_RESTORE_MEMORY, |ctx| {
                let on_disk =
                    (counts.body_bytes as f64 * ctx.model().mem.assumed_image_compression) as u64;
                ctx.charge_span("disk-read", ctx.model().disk_read(on_disk));
                ctx.charge_span("decompress", ctx.model().decompress(counts.body_bytes));
                ctx.span("install-pages", |ctx| {
                    ctx.charge(ctx.model().memcpy(counts.app_bytes));
                    ctx.charge(
                        ctx.model()
                            .mem
                            .page_fault
                            .saturating_mul(src.app_pages.len() as u64),
                    );
                    space.map_anonymous(
                        profile.heap_range(),
                        Perms::RW,
                        ShareMode::Private,
                        "app-heap",
                    )?;
                    for page in &src.app_pages {
                        space.install_page(page.vpn, &page.data)?;
                    }
                    Ok::<_, SandboxError>(())
                })
            })?;

            // Eager I/O reconnection: re-do every connection now.
            ctx.fault(InjectionPoint::IoReconnect)?;
            ctx.span(PHASE_RESTORE_IO, |ctx| {
                ctx.span("reconnect-fds", |ctx| {
                    let fds: Vec<i32> = kernel.vfs.iter_fds().map(|(fd, _)| fd).collect();
                    for fd in fds {
                        kernel.vfs.ensure_connected(fd, ctx.clock(), ctx.model())?;
                    }
                    Ok::<_, SandboxError>(())
                })?;
                ctx.span("reconnect-sockets", |ctx| {
                    let socks: Vec<u64> = kernel.net.iter().map(|s| s.id).collect();
                    for s in socks {
                        kernel.net.ensure_connected(s, ctx.clock(), ctx.model())?;
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
    use crate::BootEngine;

    #[test]
    fn restore_skips_app_init_2_to_5x() {
        let model = CostModel::experimental_machine();
        let profile = AppProfile::python_django();

        let gv = GvisorEngine::new()
            .boot(&profile, &mut BootCtx::fresh(&model))
            .unwrap();
        let rs = GvisorRestoreEngine::new()
            .boot(&profile, &mut BootCtx::fresh(&model))
            .unwrap();
        let speedup = gv.boot_latency.as_nanos() as f64 / rs.boot_latency.as_nanos() as f64;
        // Paper Fig. 6: 2–5× over gVisor, but still >100 ms.
        assert!(speedup > 1.8, "speedup {speedup}");
        assert!(
            rs.boot_latency > SimNanos::from_millis(100),
            "{}",
            rs.boot_latency
        );
    }

    #[test]
    fn specjbb_restore_near_400ms() {
        let model = CostModel::experimental_machine();
        let boot = GvisorRestoreEngine::new()
            .boot(&AppProfile::java_specjbb(), &mut BootCtx::fresh(&model))
            .unwrap();
        let ms = boot.boot_latency.as_millis_f64();
        assert!((330.0..520.0).contains(&ms), "total {ms} ms");
        let (kernel, memory, io) = boot.restore_split();
        // Fig. 2: recover kernel 56.7 ms (+ fixed machinery), memory 128.8–
        // 261 ms, reconnect I/O 79.2 ms.
        assert!(
            (120.0..170.0).contains(&kernel.as_millis_f64()),
            "kernel {kernel}"
        );
        assert!(
            (200.0..290.0).contains(&memory.as_millis_f64()),
            "memory {memory}"
        );
        assert!((45.0..95.0).contains(&io.as_millis_f64()), "io {io}");
    }

    #[test]
    fn restored_program_behaves_like_booted_one() {
        let model = CostModel::experimental_machine();
        let mut ctx = BootCtx::fresh(&model);
        let mut boot = GvisorRestoreEngine::new()
            .boot(&AppProfile::c_hello(), &mut ctx)
            .unwrap();
        let exec = boot.program.invoke_handler(ctx.clock(), &model).unwrap();
        assert!(exec.pages_touched > 0);
        // The restored heap carries the init pattern (checked by the
        // handler's debug_assert) and open fds reconnect on demand.
        assert!(boot.program.kernel.vfs.open_fds() > 0);
    }

    #[test]
    fn image_compiled_once_and_reused() {
        let model = CostModel::experimental_machine();
        let mut engine = GvisorRestoreEngine::new();
        let profile = AppProfile::c_hello();
        engine.boot(&profile, &mut BootCtx::fresh(&model)).unwrap();
        let offline_after_first = engine.offline_time();
        engine.boot(&profile, &mut BootCtx::fresh(&model)).unwrap();
        assert_eq!(engine.offline_time(), offline_after_first);
    }
}
