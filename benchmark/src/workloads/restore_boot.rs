//! `restore-boot`: the paper's core path. One op is one cold or warm boot
//! through a shared, fully prepared `Catalyzer`; `platform` does nothing.

use std::sync::Arc;

use catalyzer::{BootMode, Catalyzer, ZygotePool};
use guest_kernel::GuestKernel;
use memsim::AddressSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtimes::AppProfile;
use sandbox::{BootCtx, BootEngine, GvisorRestoreEngine};
use simtime::{CostModel, SimClock, SimNanos};

use super::{
    micros, pooled_rate, probe_bootctx_span, shuffle, timed, Digest, Layers, Rep, Workload,
};
use crate::spans::Recorder;
use crate::stats::{median, percentile};

/// Boots of each (profile, mode) pair in a full repetition: 20 × 10 × 2.
const BOOTS_PER_PAIR: usize = 20;

pub struct RestoreBoot {
    model: CostModel,
    profiles: Vec<AppProfile>,
    system: Catalyzer,
    /// The seeded shuffle of (profile, mode) the repetition walks.
    order: Vec<(usize, BootMode)>,
}

fn span_name(mode: BootMode) -> &'static str {
    match mode {
        BootMode::Cold => "core.cold_boot",
        BootMode::Warm => "core.warm_boot",
        BootMode::Fork => "core.fork_boot",
    }
}

impl Workload for RestoreBoot {
    const NAME: &'static str = "restore-boot";
    const OP: &'static str = "boot";
    // Five traced repetitions: p99 needs 1 000 boots per mode.
    const TRACED_REPS: (usize, usize) = (2, 5);

    fn prepare(seed: u64, divisor: usize) -> RestoreBoot {
        let model = CostModel::experimental_machine();
        let profiles = AppProfile::catalogue();
        let mut system = Catalyzer::new();
        for profile in &profiles {
            // Compiles the image and runs the pre-existing cold boot that
            // builds the shared Base-EPT.
            system
                .warm_for(BootMode::Warm, profile, &model)
                .expect("offline preparation of a catalogue profile");
        }
        let mut order = Vec::new();
        for index in 0..profiles.len() {
            for mode in [BootMode::Cold, BootMode::Warm] {
                order.extend([(index, mode)].repeat((BOOTS_PER_PAIR / divisor).max(1)));
            }
        }
        shuffle(&mut order, &mut StdRng::seed_from_u64(seed));
        RestoreBoot {
            model,
            profiles,
            system,
            order,
        }
    }

    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::new(self.order.len() as u64, "nearest-rank");
        let mut digest = Digest::new();
        let mut latencies = Vec::with_capacity(self.order.len());
        let (mut kernel, mut memory, mut io) = (SimNanos::ZERO, SimNanos::ZERO, SimNanos::ZERO);
        for &(index, mode) in &self.order {
            let profile = &self.profiles[index];
            rec.next_op();
            // The outcome is checked and dropped inside the op's span.
            rec.span(span_name(mode), |_| {
                let mut ctx = BootCtx::fresh(&self.model);
                match self.system.boot(mode, profile, &mut ctx) {
                    Ok(boot) => {
                        let image = &self
                            .system
                            .store()
                            .get(&profile.name)
                            .expect("compiled")
                            .flat;
                        let objects = boot.program.kernel.object_count();
                        let pages = boot.program.space.base().map_or(0, |b| b.len() as u64);
                        rep.require(objects == image.object_count(), || {
                            format!(
                                "{}: {objects} objects restored, image has {}",
                                profile.name,
                                image.object_count()
                            )
                        });
                        rep.require(pages == image.app_page_count(), || {
                            format!(
                                "{}: {pages} pages attached, image has {}",
                                profile.name,
                                image.app_page_count()
                            )
                        });
                        let split = boot.restore_split();
                        kernel = kernel.saturating_add(split.0);
                        memory = memory.saturating_add(split.1);
                        io = io.saturating_add(split.2);
                        latencies.push(boot.boot_latency.as_nanos());
                        digest.words([index as u64, mode as u64, boot.boot_latency.as_nanos()]);
                    }
                    Err(err) => rep.op_failed(&profile.name, err),
                }
            });
        }
        let boots = latencies.len().max(1) as f64;
        rep.startup_from(latencies);
        rep.sim.digest = digest.finish();
        rep.counts = vec![
            (
                "core.sim_restore_kernel_us",
                micros(kernel.as_nanos()) / boots,
            ),
            (
                "core.sim_restore_memory_us",
                micros(memory.as_nanos()) / boots,
            ),
            ("core.sim_restore_io_us", micros(io.as_nanos()) / boots),
        ];
        rep
    }

    fn probes(
        &mut self,
        rec: &mut Recorder,
        _rep: &Rep,
        _rep_seconds: f64,
        out: &mut Layers,
    ) -> f64 {
        let model = &self.model;
        let (mut relink, mut restore, mut crc) = (Vec::new(), Vec::new(), Vec::new());
        let (mut faults, mut attach_touch_s) = (0.0, 0.0);
        let (mut cow, mut copied, mut image_bytes) = (0u64, 0u64, 0u64);
        // Seconds per boot of each profile the layer probes account for.
        let mut per_boot = Vec::new();
        for profile in &self.profiles {
            let stored = self.system.store().get(&profile.name).expect("compiled");
            let objects = stored.flat.object_count() as f64;

            let t_relink = timed(rec, "imagefmt.restore_metadata", 3, || {
                stored.flat.restore_metadata(&SimClock::new(), model)
            });
            let records = stored
                .flat
                .restore_metadata(&SimClock::new(), model)
                .expect("relink of a compiled image");
            let t_restore = timed(rec, "guest-kernel.restore_from_records", 3, || {
                GuestKernel::restore_from_records(
                    profile.name.clone(),
                    &records,
                    Arc::clone(&stored.fs),
                    false,
                    &SimClock::new(),
                    model,
                )
            });

            let base = stored.base.as_ref().expect("base built in set-up");
            let range = profile.heap_range();
            let clock = SimClock::new();
            let mut t_attach = Vec::new();
            let mut t_touch = Vec::new();
            for _ in 0..3 {
                let mut space = AddressSpace::new("probe");
                t_attach.extend(timed(rec, "memsim.attach_base", 1, || {
                    space.attach_base(Arc::clone(base), range, "func-image", &clock, model)
                }));
                t_touch.extend(timed(rec, "memsim.touch_range", 1, || {
                    space.touch_range(range, true, &clock, model)
                }));
            }
            let pages = stored.flat.app_page_count() as f64;

            let raw = stored.flat.image().raw_bytes();
            image_bytes += raw.len() as u64;
            crc.push((
                raw.len() as f64 / (1 << 20) as f64,
                timed(rec, "imagefmt.crc32", 3, || imagefmt::crc32(raw)),
            ));

            per_boot.push(median(&t_relink) + median(&t_restore) + median(&t_attach));
            relink.push((objects, t_relink));
            restore.push((objects, t_restore));
            faults += pages;
            attach_touch_s += median(&t_attach) + median(&t_touch);
        }
        for profile in &self.profiles {
            // One boot plus its first invocation: the CoW the op sets up.
            let mut ctx = BootCtx::fresh(model);
            let mut boot = self
                .system
                .boot(BootMode::Warm, profile, &mut ctx)
                .expect("warm boot of a prepared profile");
            boot.program
                .invoke_handler(ctx.clock(), model)
                .expect("handler of a restored program");
            let stats = boot.program.space.stats();
            cow += stats.cow_faults;
            copied += stats.bytes_copied / memsim::PAGE_SIZE as u64;
        }
        let n = self.profiles.len() as f64;
        out.set("imagefmt.flat_relink_objs_per_s", pooled_rate(&relink));
        out.set("imagefmt.relink_threads", model.parallel_workers as f64);
        out.set("imagefmt.crc32_mib_per_s", pooled_rate(&crc));
        out.set("imagefmt.image_bytes", image_bytes as f64);
        out.set("guest-kernel.restore_objs_per_s", pooled_rate(&restore));
        out.set("memsim.attach_touch_faults_per_s", faults / attach_touch_s);
        out.set("memsim.cow_faults_per_op", cow as f64 / n);
        out.set("memsim.pages_copied_per_op", copied as f64 / n);

        probe_bootctx_span(rec, model, out);

        let mut pool = ZygotePool::new(self.system.config().tweaks);
        let refill = timed(rec, "core.zygote_refill", 200, || {
            pool.refill(1, model).expect("zygote construction");
            pool.take(&SimClock::new(), model)
        });
        out.set("core.zygote_refill_us", median(&refill) * 1e6);

        // Diagnostic: the gVisor-restore baseline the paper compares with.
        let heavy = AppProfile::java_specjbb();
        let mut gvisor = GvisorRestoreEngine::new();
        gvisor
            .warm(&heavy, model)
            .expect("classic image compilation");
        let baseline = timed(rec, "sandbox.gvisor_restore_boot", 2, || {
            gvisor.boot(&heavy, &mut BootCtx::fresh(model))
        });
        out.set("sandbox.gvisor_restore_boot_ms", median(&baseline) * 1e3);

        for (mode, p50, p99) in [
            (
                "core.cold_boot",
                "core.cold_boot_p50_us",
                "core.cold_boot_p99_us",
            ),
            (
                "core.warm_boot",
                "core.warm_boot_p50_us",
                "core.warm_boot_p99_us",
            ),
        ] {
            let boots = rec.seconds_of(mode);
            out.set(p50, median(&boots) * 1e6);
            out.set(p99, percentile(&boots, 0.99).unwrap_or(0.0) * 1e6);
        }

        let refill_s = median(&refill);
        self.order
            .iter()
            .map(|&(index, mode)| {
                per_boot[index]
                    + if mode == BootMode::Warm {
                        refill_s
                    } else {
                        0.0
                    }
            })
            .sum()
    }
}
