//! Stage probe: where a Catalyzer restore spends its *host* time.
//!
//! For each of the ten catalogue profiles, `ROUNDS` times over: a CRC-32
//! over the metadata sections' span of the image (`crc3`, an approximation
//! of the checksum `restore_metadata` pays), `restore_metadata` (`meta`,
//! checksum included), `GuestKernel::restore_from_records` (`kernel`),
//! dropping the records and then the kernel, and a whole cold and warm
//! `Catalyzer::boot` with the drop of the cold boot's outcome. Prints the
//! median of each stage in ms, per profile and summed over the ten.
//!
//! ```text
//! cargo run --release --example restore_stages [ROUNDS]
//! ```
//!
//! The virtual clock is not read: every number here is wall time on the
//! machine that runs it, which is what the `restore-boot` benchmark
//! measures end to end. Compare two trees by running each one's build of
//! this probe in alternation; a guest's fast and slow phases last minutes.

use std::sync::Arc;
use std::time::Instant;

use catalyzer_suite::prelude::*;
use catalyzer_suite::{guest_kernel::GuestKernel, imagefmt};

const STAGES: [&str; 8] = [
    "crc3", "meta", "kernel", "droprec", "dropker", "cold", "warm", "dropboot",
];

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(0.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(20);
    let model = CostModel::experimental_machine();
    let profiles = AppProfile::catalogue();
    let mut system = Catalyzer::new();
    for profile in &profiles {
        system.warm_for(BootMode::Warm, profile, &model)?;
    }

    print!("{:<16} {:>7}", "profile", "objs");
    for stage in STAGES {
        print!(" {stage:>8}");
    }
    println!();
    let mut sums = [0.0f64; STAGES.len()];
    for profile in &profiles {
        let mut samples: [Vec<f64>; STAGES.len()] = Default::default();
        let mut objects = 0;
        for _ in 0..rounds {
            let stored = system.store().get(&profile.name).expect("warmed above");
            objects = stored.flat.object_count();
            let raw = stored.flat.image().raw_bytes();
            let meta_len = usize::try_from(stored.flat.metadata_bytes()).unwrap_or(0);
            let meta_span = raw.get(4096..4096 + meta_len).unwrap_or_default();

            let t = Instant::now();
            std::hint::black_box(imagefmt::crc32(meta_span));
            samples[0].push(ms(t));
            let t = Instant::now();
            let records = stored.flat.restore_metadata(&SimClock::new(), &model)?;
            samples[1].push(ms(t));
            let t = Instant::now();
            let kernel = GuestKernel::restore_from_records(
                profile.name.clone(),
                &records,
                Arc::clone(&stored.fs),
                false,
                &SimClock::new(),
                &model,
            )?;
            samples[2].push(ms(t));
            let t = Instant::now();
            drop(records);
            samples[3].push(ms(t));
            let t = Instant::now();
            drop(kernel);
            samples[4].push(ms(t));

            for (mode, stage) in [(BootMode::Cold, 5), (BootMode::Warm, 6)] {
                let mut ctx = BootCtx::fresh(&model);
                let t = Instant::now();
                let boot = system.boot(mode, profile, &mut ctx)?;
                samples[stage].push(ms(t));
                let t = Instant::now();
                drop(boot);
                if mode == BootMode::Cold {
                    samples[7].push(ms(t));
                }
            }
        }
        print!("{:<16} {objects:>7}", profile.name);
        for (sum, stage) in sums.iter_mut().zip(&mut samples) {
            let m = median(stage);
            *sum += m;
            print!(" {m:>8.3}");
        }
        println!();
    }
    print!("{:<16} {:>7}", "SUM (ms)", "");
    for sum in sums {
        print!(" {sum:>8.3}");
    }
    println!();
    Ok(())
}
