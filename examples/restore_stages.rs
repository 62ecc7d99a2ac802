//! Stage probe: where a Catalyzer func-image spends its *host* time, written
//! and restored.
//!
//! For each of the ten catalogue profiles, `ROUNDS` times over, in two
//! tables:
//!
//! - **write**: the program's initialisation to its entry point (`init`),
//!   `checkpoint_source` (`source`), `flat::write` (`write`, checksums
//!   included), and a CRC-32 over the bytes the write checksums — the five
//!   metadata sections and the heap pages, one piece each (`wcrc`, the
//!   write's checksum alone);
//! - **restore**: a CRC-32 over the metadata sections' span of the image
//!   (`crc3`, an approximation of the checksum `restore_metadata` pays),
//!   `restore_metadata` (`meta`: the checksums, then one pass that checks
//!   every record header and relation entry and keeps nothing),
//!   `GuestKernel::restore_from_records` (`kernel`: the kernel built from
//!   the runs of same-kind records `restore_metadata` noted — the runtime
//!   objects' run taken whole, the dentries' after one checking pass, and
//!   the other one record in ten read one by one), dropping the records and
//!   then the kernel,
//!   `GvisorEngine::prepare_sandbox` and the drop of what it returns, as a
//!   cold boot calls it (`shell`: the sandbox shell over the function's
//!   stored FS server), and a whole cold and warm `Catalyzer::boot` with the
//!   drop of the cold boot's outcome.
//! - **fork**: `Template::fork_boot` from the profile's template (`fork`),
//!   the child's first `invoke_handler` (`first`: its copy-on-write and
//!   demand-zero faults), a second one (`again`: the page walk of a reused
//!   instance, which faults only its request scratch), that heap walk alone
//!   on the reused child (`walk`: `WrappedProgram::walk_heap`, the
//!   `AddressSpace::sweep` call `invoke_handler` makes), and dropping the
//!   outcome (`drop`).
//!
//! Prints the median of each stage in ms, per profile and summed over the
//! ten.
//!
//! ```text
//! cargo run --release --example restore_stages [ROUNDS]
//! ```
//!
//! The virtual clock is not read: every number here is wall time on the
//! machine that runs it, which is what the `image-build`, `restore-boot` and
//! `sfork-closed` benchmarks measure end to end. Compare two trees by running each one's
//! build of this probe in alternation; a guest's fast and slow phases last
//! minutes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use catalyzer_suite::guest_kernel::GuestKernel;
use catalyzer_suite::imagefmt::{self, flat};
use catalyzer_suite::memsim::{MappedImage, PAGE_SIZE};
use catalyzer_suite::prelude::*;

const WRITE_STAGES: [&str; 4] = ["init", "source", "write", "wcrc"];
const RESTORE_STAGES: [&str; 9] = [
    "crc3", "meta", "kernel", "droprec", "dropker", "shell", "cold", "warm", "dropboot",
];
const FORK_STAGES: [&str; 5] = ["fork", "first", "again", "walk", "drop"];

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(0.0)
}

/// One table: a header, a row of stage medians per profile, their sums.
struct Table {
    sums: Vec<f64>,
}

impl Table {
    fn new(title: &str, stages: &[&str]) -> Table {
        print!("{title:<16} {:>7}", "objs");
        for stage in stages {
            print!(" {stage:>8}");
        }
        println!();
        Table {
            sums: vec![0.0; stages.len()],
        }
    }

    fn row(&mut self, profile: &str, objects: u64, samples: &mut [Vec<f64>]) {
        print!("{profile:<16} {objects:>7}");
        for (sum, stage) in self.sums.iter_mut().zip(samples) {
            let m = median(stage);
            *sum += m;
            print!(" {m:>8.3}");
        }
        println!();
    }

    fn finish(self) {
        print!("{:<16} {:>7}", "SUM (ms)", "");
        for sum in self.sums {
            print!(" {sum:>8.3}");
        }
        println!();
    }
}

/// `ensure_compiled`'s steps, one at a time, then the checksum alone over
/// what `flat::write` checksummed.
fn write_side(
    profiles: &[AppProfile],
    rounds: usize,
    model: &CostModel,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new("write", &WRITE_STAGES);
    for profile in profiles {
        let fs = profile.build_fs_server();
        let mut samples: [Vec<f64>; WRITE_STAGES.len()] = Default::default();
        let mut objects = 0;
        for _ in 0..rounds {
            let clock = SimClock::new();
            let t = Instant::now();
            let mut program = WrappedProgram::start_with(profile, Arc::clone(&fs), &clock, model)?;
            program.run_to_entry_point(&clock, model)?;
            samples[0].push(ms(t));
            let t = Instant::now();
            let source = program.checkpoint_source(&clock, model)?;
            samples[1].push(ms(t));
            let t = Instant::now();
            let bytes = flat::write(&source, &clock, model);
            samples[2].push(ms(t));

            let image = MappedImage::new(profile.name.clone(), bytes);
            let parsed = flat::FlatImage::parse(&image, &clock, model)?;
            objects = parsed.object_count();
            // The five metadata sections lie back to back after the header
            // page; the heap pages end the image.
            let pages = parsed.app_page_count();
            let meta = parsed.metadata_bytes() + parsed.io_manifest_bytes() + 8 * pages;
            let raw = image.raw_bytes();
            let heap_at = raw.len() - usize::try_from(pages)? * PAGE_SIZE;
            let meta = raw.get(PAGE_SIZE..PAGE_SIZE + usize::try_from(meta)?);
            let t = Instant::now();
            black_box(imagefmt::crc32(meta.unwrap_or_default()));
            black_box(imagefmt::crc32(raw.get(heap_at..).unwrap_or_default()));
            samples[3].push(ms(t));
        }
        table.row(&profile.name, objects, &mut samples);
    }
    table.finish();
    Ok(())
}

fn restore_side(
    profiles: &[AppProfile],
    rounds: usize,
    model: &CostModel,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut system = Catalyzer::new();
    for profile in profiles {
        system.warm_for(BootMode::Warm, profile, model)?;
    }
    let mut table = Table::new("restore", &RESTORE_STAGES);
    for profile in profiles {
        let mut samples: [Vec<f64>; RESTORE_STAGES.len()] = Default::default();
        let mut objects = 0;
        for _ in 0..rounds {
            let stored = system.store().get(&profile.name).expect("warmed above");
            objects = stored.flat.object_count();
            let raw = stored.flat.image().raw_bytes();
            let meta_len = usize::try_from(stored.flat.metadata_bytes()).unwrap_or(0);
            let meta_span = raw.get(PAGE_SIZE..PAGE_SIZE + meta_len).unwrap_or_default();

            let t = Instant::now();
            black_box(imagefmt::crc32(meta_span));
            samples[0].push(ms(t));
            let t = Instant::now();
            let records = stored.flat.restore_metadata(&SimClock::new(), model)?;
            samples[1].push(ms(t));
            let t = Instant::now();
            let kernel = GuestKernel::restore_from_records(
                profile.name.clone(),
                &records,
                Arc::clone(&stored.fs),
                false,
                &SimClock::new(),
                model,
            )?;
            samples[2].push(ms(t));
            let t = Instant::now();
            drop(records);
            samples[3].push(ms(t));
            let t = Instant::now();
            drop(kernel);
            samples[4].push(ms(t));

            let tweaks = system.config().tweaks;
            let fs = Arc::clone(&stored.fs);
            let mut ctx = BootCtx::fresh(model);
            let t = Instant::now();
            drop(black_box(GvisorEngine::prepare_sandbox(
                tweaks, profile, fs, true, &mut ctx,
            )?));
            samples[5].push(ms(t));

            for (mode, stage) in [(BootMode::Cold, 6), (BootMode::Warm, 7)] {
                let mut ctx = BootCtx::fresh(model);
                let t = Instant::now();
                let boot = system.boot(mode, profile, &mut ctx)?;
                samples[stage].push(ms(t));
                let t = Instant::now();
                drop(boot);
                if mode == BootMode::Cold {
                    samples[8].push(ms(t));
                }
            }
        }
        table.row(&profile.name, objects, &mut samples);
    }
    table.finish();
    Ok(())
}

/// A fork from each profile's template, its first and second request, the
/// second one's heap walk alone, and its drop. One template at a time, so
/// only one large heap is resident.
fn fork_side(
    profiles: &[AppProfile],
    rounds: usize,
    model: &CostModel,
) -> Result<(), Box<dyn std::error::Error>> {
    let config = CatalyzerConfig::full();
    let mut table = Table::new("fork", &FORK_STAGES);
    for profile in profiles {
        let mut template = Template::generate(profile, model)?;
        let objects = template.program_mut().kernel.object_count();
        let mut samples: [Vec<f64>; FORK_STAGES.len()] = Default::default();
        for _ in 0..rounds {
            let mut ctx = BootCtx::fresh(model);
            let t = Instant::now();
            let mut outcome = template.fork_boot(&config, &mut ctx)?;
            samples[0].push(ms(t));
            for stage in [1, 2] {
                let t = Instant::now();
                black_box(outcome.program.invoke_handler(&SimClock::new(), model)?);
                samples[stage].push(ms(t));
            }
            let t = Instant::now();
            black_box(outcome.program.walk_heap(&SimClock::new(), model)?);
            samples[3].push(ms(t));
            let t = Instant::now();
            drop(outcome);
            samples[4].push(ms(t));
        }
        table.row(&profile.name, objects, &mut samples);
    }
    table.finish();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(20);
    let model = CostModel::experimental_machine();
    let profiles = AppProfile::catalogue();
    // The write side first, so no restore-side image is resident while a
    // large profile's heap is in memory twice (frames and image).
    write_side(&profiles, rounds, &model)?;
    println!();
    restore_side(&profiles, rounds, &model)?;
    println!();
    fork_side(&profiles, rounds, &model)
}
