//! `image-build`: the restore layers in the write direction. One op is one
//! function prepared offline — a fresh func-image compile plus a template
//! sandbox. It is also the code every other workload pays for in set-up
//! and calibration.

use std::sync::Arc;

use catalyzer::{FuncImageStore, Template};
use guest_kernel::GuestKernel;
use imagefmt::flat::{self, FlatImage};
use imagefmt::{classic, lz};
use memsim::{AddressSpace, MappedImage, Perms, ShareMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtimes::{AppProfile, WrappedProgram};
use simtime::{CostModel, SimClock};

use super::{pooled_rate, shuffle, timed, Digest, Layers, Rep, Workload};
use crate::spans::Recorder;
use crate::stats::median;

pub struct ImageBuild {
    model: CostModel,
    /// The catalogue in seeded order.
    profiles: Vec<AppProfile>,
}

const MIB: f64 = (1u64 << 20) as f64;

impl Workload for ImageBuild {
    const NAME: &'static str = "image-build";
    const OP: &'static str = "function prepared";

    fn prepare(seed: u64, divisor: usize) -> ImageBuild {
        let mut profiles = AppProfile::catalogue();
        if divisor > 1 {
            // Smoke: the five profiles with heaps of at most 8 MiB.
            profiles.retain(|p| p.init_heap_pages <= 2_048);
        }
        shuffle(&mut profiles, &mut StdRng::seed_from_u64(seed));
        ImageBuild {
            model: CostModel::experimental_machine(),
            profiles,
        }
    }

    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let model = &self.model;
        let mut rep = Rep::new(self.profiles.len() as u64, "nearest-rank");
        let mut digest = Digest::new();
        let mut offline = Vec::with_capacity(self.profiles.len());
        for profile in &self.profiles {
            rec.next_op();
            rec.span("image-build.op", |rec| {
                let mut store = FuncImageStore::new();
                let compiled = rec.span("core.image_compile", |_| {
                    store
                        .ensure_compiled(profile, model)
                        .map(|stored| (stored.flat.object_count(), stored.flat.app_page_count()))
                });
                let template = rec.span("core.template_generate", |_| {
                    Template::generate(profile, model)
                });
                match (compiled, template) {
                    (Ok((objects, pages)), Ok(mut template)) => {
                        // The image holds exactly the state a template of
                        // the same function reaches at its entry point.
                        let program = template.program_mut();
                        let (live_objects, live_pages) =
                            (program.kernel.object_count(), program.space.private_pages());
                        rep.require(objects == live_objects, || {
                            format!(
                                "{}: image has {objects} objects, entry point has {live_objects}",
                                profile.name
                            )
                        });
                        rep.require(pages == live_pages, || {
                            format!(
                                "{}: image has {pages} pages, entry point has {live_pages}",
                                profile.name
                            )
                        });
                        let spent = store.offline_time().saturating_add(template.offline_time());
                        offline.push(spent.as_nanos());
                        digest.words([objects, pages, spent.as_nanos()]);
                    }
                    (Err(err), _) | (_, Err(err)) => rep.op_failed(&profile.name, err),
                }
            });
        }
        rep.startup_from(offline);
        rep.sim.digest = digest.finish();
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
        let clock = SimClock::new();
        let (mut init, mut populate, mut anon, mut checkpoint) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut write, mut parse, mut crc) = (Vec::new(), Vec::new(), Vec::new());
        let (mut image_bytes, mut accounted) = (0u64, 0.0);
        let mut diagnostic = None;
        for profile in &self.profiles {
            let fs = profile.build_fs_server();
            // `ensure_compiled`, one public call at a time, twice over;
            // what it drops at its end is dropped between the rounds.
            let (mut t_init, mut t_source, mut t_write, mut t_parse) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let mut kept = None;
            for _ in 0..2 {
                drop(kept.take());
                let mut program = None;
                t_init.extend(timed(rec, "runtimes.init", 1, || {
                    let mut p =
                        WrappedProgram::start_with(profile, Arc::clone(&fs), &clock, model)?;
                    p.run_to_entry_point(&clock, model)?;
                    program = Some(p);
                    Ok::<_, runtimes::RuntimeError>(())
                }));
                let program = program.expect("program initialised to its entry point");
                let mut source = None;
                t_source.extend(timed(rec, "runtimes.checkpoint_source", 1, || {
                    source = program.checkpoint_source(&clock, model).ok();
                }));
                let source = source.expect("checkpoint at the entry point");
                let mut bytes = None;
                t_write.extend(timed(rec, "imagefmt.flat_write", 1, || {
                    bytes = Some(flat::write(&source, &clock, model));
                }));
                let image = MappedImage::new(
                    format!("{}.func", profile.name),
                    bytes.expect("image written"),
                );
                t_parse.extend(timed(rec, "imagefmt.flat_parse", 1, || {
                    FlatImage::parse(&image, &clock, model)
                }));
                kept = Some((program, source, image));
            }
            let (program, source, image) = kept.expect("two rounds ran");

            let objects = program.kernel.object_count() as f64;
            checkpoint.push((
                objects,
                timed(rec, "guest-kernel.checkpoint_objects", 3, || {
                    program.kernel.checkpoint_objects()
                }),
            ));
            let raw = image.raw_bytes();
            image_bytes += raw.len() as u64;
            let mib = raw.len() as f64 / MIB;
            crc.push((
                mib,
                timed(rec, "imagefmt.crc32", 2, || imagefmt::crc32(raw)),
            ));
            // The two halves of initialisation, alone.
            populate.push((
                objects,
                timed(rec, "guest-kernel.populate", 2, || {
                    let mut kernel = GuestKernel::boot("probe", Arc::clone(&fs), &clock, model);
                    profile.graph_spec().populate(&mut kernel, &clock, model)
                }),
            ));
            let heap = profile.heap_range();
            anon.push((
                profile.init_heap_pages as f64,
                timed(rec, "memsim.anon_populate", 2, || {
                    let mut space = AddressSpace::new("probe");
                    space.map_anonymous(heap, Perms::RW, ShareMode::Private, "heap")?;
                    space.touch_range(heap, true, &clock, model)
                }),
            ));

            // Compile and template each initialise once; compile also
            // captures, writes and parses.
            accounted +=
                2.0 * median(&t_init) + median(&t_source) + median(&t_write) + median(&t_parse);
            init.push(t_init);
            write.push((mib, t_write));
            parse.extend(t_parse);
            if profile.name == "Python-hello" {
                diagnostic = Some(source);
            }
        }
        out.set(
            "runtimes.init_ms",
            init.iter().map(|t| median(t)).sum::<f64>() * 1e3,
        );
        out.set(
            "guest-kernel.checkpoint_objs_per_s",
            pooled_rate(&checkpoint),
        );
        out.set("guest-kernel.populate_objs_per_s", pooled_rate(&populate));
        out.set("memsim.anon_populate_pages_per_s", pooled_rate(&anon));
        out.set("imagefmt.flat_write_mib_per_s", pooled_rate(&write));
        out.set("imagefmt.flat_parse_us", median(&parse) * 1e6);
        out.set("imagefmt.crc32_mib_per_s", pooled_rate(&crc));
        out.set("imagefmt.image_bytes", image_bytes as f64);
        for (name, metric) in [
            ("core.image_compile", "core.image_compile_ms"),
            ("core.template_generate", "core.template_generate_ms"),
        ] {
            // Per pass over the catalogue: the halves of the traced
            // repetitions' ops, summed per repetition.
            let halves = rec.seconds_of(name);
            let passes = (halves.len() / self.profiles.len()).max(1);
            let per_pass = halves.iter().sum::<f64>() / passes as f64;
            out.set(metric, per_pass * 1e3);
        }

        // Diagnostic: the gVisor-restore image path (Fig. 2/11/12). Moves
        // no end-to-end metric; watched for collateral damage.
        if let Some(source) = diagnostic {
            let app_mib = source.app_bytes() as f64 / MIB;
            let mut image = None;
            let t = timed(rec, "imagefmt.classic_write", 2, || {
                image = Some(classic::write(&source, &clock, model))
            });
            out.set("imagefmt.classic_write_mib_per_s", app_mib / median(&t));
            let image = image.expect("classic image written");
            let t = timed(rec, "imagefmt.classic_read", 2, || {
                classic::read(&image, &clock, model)
            });
            out.set("imagefmt.classic_read_mib_per_s", app_mib / median(&t));
            let raw: Vec<u8> = source
                .app_pages
                .iter()
                .flat_map(|p| p.data.iter().copied())
                .collect();
            let mut packed = Vec::new();
            let t = timed(rec, "imagefmt.lz_compress", 2, || {
                packed = lz::compress(&raw)
            });
            out.set("imagefmt.lz_compress_mib_per_s", app_mib / median(&t));
            let packed = bytes::Bytes::from(packed);
            let t = timed(rec, "imagefmt.lz_decompress", 2, || lz::decompress(&packed));
            out.set("imagefmt.lz_decompress_mib_per_s", app_mib / median(&t));
        }
        accounted
    }
}
