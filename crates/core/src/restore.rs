//! On-demand restore: Catalyzer's cold and warm boot (paper §3, Fig. 8).
//!
//! The operational flow follows Fig. 8-c:
//!
//! 1. a Zygote is specialized with the function's config and rootfs
//!    (warm boot; cold boot builds the sandbox from scratch, its shell
//!    mounting the function's stored FS server);
//! 2. guest-kernel metadata is recovered by **separated state recovery**
//!    (stage-1 map + stage-2 parallel pointer re-establishment);
//! 3. application memory is attached through **overlay memory**: cold boot
//!    maps the func-image to build the shared Base-EPT (map-file), warm
//!    boot shares the existing Base-EPT (share-mapping);
//! 4. I/O connections recover **on demand**, with the I/O cache eagerly
//!    replaying only the deterministic prefix.
//!
//! Separated state recovery, on-demand I/O and Zygotes can each be disabled
//! via [`CatalyzerConfig`], in which case the engine falls back to the
//! corresponding gVisor-restore behaviour — that is exactly the Fig. 12
//! ablation ladder. Overlay memory is always on: the ladder's baseline is
//! `sandbox::GvisorRestoreEngine` itself.
//!
//! Every step runs under a [`sandbox::BootCtx`] span, so the emitted trace
//! carries the Fig. 8 sub-phases (`restore:kernel` → `separated-state` /
//! `decode-objects`, `restore:memory` → `share-mapping` / `map-file`, …)
//! nested beneath the restore phases that the flat [`Breakdown`] reports.
//!
//! [`Breakdown`]: simtime::Breakdown

use std::sync::Arc;

use faultsim::InjectionPoint;
use guest_kernel::GuestKernel;
use imagefmt::IoConnKind;
use memsim::AddressSpace;
use runtimes::{AppProfile, WrappedProgram};
use sandbox::{
    traced_boot, BootCtx, BootOutcome, GvisorEngine, SandboxError, PHASE_RESTORE_IO,
    PHASE_RESTORE_KERNEL, PHASE_RESTORE_MEMORY,
};
use simtime::names;
use simtime::SimClock;

use crate::engine::BootMode;
use crate::store::FuncImageStore;
use crate::zygote::ZygotePool;
use crate::CatalyzerConfig;

pub(crate) fn restore_boot(
    mode: BootMode,
    config: &CatalyzerConfig,
    store: &mut FuncImageStore,
    zygotes: &mut ZygotePool,
    profile: &AppProfile,
    ctx: &mut BootCtx,
) -> Result<BootOutcome, SandboxError> {
    debug_assert!(matches!(mode, BootMode::Cold | BootMode::Warm));
    store.ensure_compiled(profile, ctx.model())?;

    traced_boot(mode.label(), ctx, |ctx| {
        // --- 1. sandbox acquisition -------------------------------------
        // Every sandbox of a function serves the function's one rootfs: the
        // shell a cold boot (or a warm boot without Zygotes) builds mounts
        // the stored FS server, and the restored kernel is built over it.
        let fs = Arc::clone(&store.get(&profile.name).expect("compiled above").fs);
        let mut space = match mode {
            BootMode::Cold => {
                // Cold boot builds the full sandbox (including importing the
                // function binaries) — this is the ~30 ms the paper reports
                // cold boot pays over warm boot (§6.2).
                let shell = GvisorEngine::prepare_sandbox(
                    config.tweaks,
                    profile,
                    Arc::clone(&fs),
                    true,
                    ctx,
                )?;
                shell.space
            }
            BootMode::Warm if config.zygotes => {
                ctx.fault(InjectionPoint::ZygoteSpecialize)?;
                ctx.span(names::PHASE_SANDBOX_ZYGOTE_SPECIALIZE, |ctx| {
                    let zygote = zygotes.take(ctx.clock(), ctx.model())?;
                    zygote.specialize(&profile.name, ctx.clock(), ctx.model())?;
                    Ok::<_, SandboxError>(AddressSpace::new(profile.name.clone()))
                })?
            }
            BootMode::Warm => {
                // Zygotes disabled: warm boot still shares memory, but pays
                // full sandbox construction.
                let shell = GvisorEngine::prepare_sandbox(
                    config.tweaks,
                    profile,
                    Arc::clone(&fs),
                    false,
                    ctx,
                )?;
                shell.space
            }
            BootMode::Fork => unreachable!("fork boot handled by sfork"),
        };

        let stored = store.get_mut(&profile.name).expect("compiled above");

        // --- 2. guest-kernel metadata ------------------------------------
        ctx.fault(InjectionPoint::ArenaMap)?;
        let records = if config.separated_state {
            ctx.span(PHASE_RESTORE_KERNEL, |ctx| {
                ctx.span("separated-state", |ctx| {
                    stored.flat.restore_metadata(ctx.clock(), ctx.model())
                })
            })?
        } else {
            // Ablation: charge the classic one-by-one deserialization costs
            // (fixed C/R machinery + per-object decode); the recovered data
            // is identical.
            ctx.span(PHASE_RESTORE_KERNEL, |ctx| {
                ctx.charge_span("decode-objects", {
                    let model = ctx.model();
                    model.obj.classic_restore_fixed.saturating_add(
                        model
                            .obj
                            .decode_per_object
                            .saturating_mul(stored.flat.object_count()),
                    )
                });
                stored.flat.restore_metadata(&SimClock::new(), ctx.model())
            })?
        };
        ctx.fault(InjectionPoint::Relink)?;
        let mut kernel = ctx.span(PHASE_RESTORE_KERNEL, |ctx| {
            GuestKernel::restore_from_records(
                profile.name.clone(),
                &records,
                fs,
                false,
                ctx.clock(),
                ctx.model(),
            )
        })?;

        // --- 3. application memory ---------------------------------------
        ctx.fault(InjectionPoint::ImageMmap)?;
        ctx.span(PHASE_RESTORE_MEMORY, |ctx| {
            let (base, step) = match &stored.base {
                Some(base) => (Arc::clone(base), "share-mapping"), // warm
                None => {
                    // map-file (first cold boot builds the Base-EPT)
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
                    "func-image",
                    ctx.clock(),
                    ctx.model(),
                )
            })?;
            Ok::<_, SandboxError>(())
        })?;

        // --- 4. I/O reconnection -----------------------------------------
        ctx.fault(InjectionPoint::IoReconnect)?;
        let manifest = stored
            .flat
            .read_io_manifest(&SimClock::new(), ctx.model())?;
        ctx.span(PHASE_RESTORE_IO, |ctx| {
            if config.lazy_io {
                // Replay only the deterministic prefix (the I/O cache hits);
                // everything else reconnects on first use. The gofer batches
                // the hinted re-opens into one RPC burst, so the critical
                // path pays the per-entry replay constant, not a full open()
                // round trip each — the real reconnection work still happens
                // (scratch clock), only its latency is overlapped.
                ctx.span("io-cache-replay", |ctx| {
                    let scratch = SimClock::new();
                    // The manifest lists the files in fd order: walk the fd
                    // table beside it.
                    let files = manifest
                        .hints()
                        .filter(|(kind, _)| *kind == IoConnKind::File);
                    let mut next = kernel.vfs.next_open_fd(0);
                    for (_, used_immediately) in files {
                        let Some(fd) = next else { break };
                        if used_immediately {
                            ctx.charge(ctx.model().io.io_cache_replay);
                            kernel.vfs.ensure_connected(fd, &scratch, ctx.model())?;
                        }
                        next = kernel.vfs.next_open_fd(fd + 1);
                    }
                    let socks: Vec<(u64, bool)> = kernel
                        .net
                        .iter()
                        .map(|s| (s.id, s.state == guest_kernel::net::SockState::Listening))
                        .collect();
                    for (id, listening) in socks {
                        if listening {
                            ctx.charge(ctx.model().io.io_cache_replay);
                            kernel.net.ensure_connected(id, &scratch, ctx.model())?;
                        }
                    }
                    Ok::<_, SandboxError>(())
                })?;
            } else {
                // Ablation: eager reconnection of everything.
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
                })?;
            }
            Ok::<_, SandboxError>(())
        })?;

        Ok(WrappedProgram::from_restored(profile, kernel, space))
    })
}
