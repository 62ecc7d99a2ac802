//! Calibration stage probe: where the two open-loop kernels spend their
//! *host* time before the first event is popped.
//!
//! `run_fleet` and `run_cluster` both calibrate every distinct cost shape of
//! their catalogue on real engines (`calibrate_shapes`: functions differing
//! only in name share one calibration, in catalogue order). This probe
//! makes each kernel's `Catalyzer` calls shape by shape and times them:
//!
//! - **fleet** (`Simulation::run_fleet` over `synthetic(10_000, 11)`): per
//!   shape, `Catalyzer::ensure_template` (what a fork-mode engine's first
//!   boot prepares), a fork boot, and the handler run on that child;
//! - **cluster** (`ClusterSim::run_cluster` over `fig1_functions()`): per
//!   shape, `Catalyzer::prepare_image_and_template` (one initialisation,
//!   the func-image captured at the entry point, the same program made the
//!   template), a fork boot, the handler run on the child, and a cold boot
//!   from the image.
//!
//! Stages, summed over the shapes, in host seconds: `prepare` (the offline
//! preparation: start + run to the entry point, and for the cluster the
//! capture — checkpoint, `flat::write`, parse — and the thread merge),
//! `fill` (the heap fill inside `prepare`, replayed alone on a fresh
//! address space: map the heap, write every page), `boots` (the fleet's
//! fork boot; the cluster's fork and cold boots), `exec` (the child's
//! first handler run), `drops` (dropping the booted instances and the
//! `Catalyzer` with its image and template).
//! `sum` adds the stages but `fill` (it is inside `prepare`); `run` is a
//! one-request `run_fleet` / `run_cluster`, which is calibration plus one
//! event.
//!
//! ```text
//! cargo run --release --example calibration_stages [ROUNDS]
//! ```
//!
//! With more than one round each stage prints its median. The virtual clock
//! is not read: every number is wall time on the machine that runs it,
//! which is what the `fleet-open` and `cluster-storm` benchmarks measure as
//! `platform.fleet_calibrate_s` and `platform.cluster_calibrate_s`.

use std::hint::black_box;
use std::time::Instant;

use catalyzer_suite::memsim::{AddressSpace, Perms, ShareMode};
use catalyzer_suite::platform::cluster::{ClusterConfig, ClusterSim};
use catalyzer_suite::platform::simulate::{Simulation, TraceRequest};
use catalyzer_suite::prelude::*;
use catalyzer_suite::runtimes::heap_page_byte;
use catalyzer_suite::workloads::catalogue;

const STAGES: [&str; 5] = ["prepare", "fill", "boots", "exec", "drops"];

type Probe = Result<(), Box<dyn std::error::Error>>;

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(0.0)
}

/// The first function of each distinct cost shape, in order of first
/// appearance — the order and the representatives `calibrate_shapes` boots.
fn shapes(catalogue: &[AppProfile]) -> Vec<AppProfile> {
    let mut keys: Vec<AppProfile> = Vec::new();
    let mut firsts: Vec<AppProfile> = Vec::new();
    for profile in catalogue {
        let mut key = profile.clone();
        key.name = String::new();
        if !keys.contains(&key) {
            keys.push(key);
            firsts.push(profile.clone());
        }
    }
    firsts
}

/// `run_to_entry_point`'s heap fill alone, on a fresh address space (its
/// drop untimed).
fn fill(profile: &AppProfile, model: &CostModel) -> Result<f64, Box<dyn std::error::Error>> {
    let clock = SimClock::new();
    let heap = profile.heap_range();
    let t = Instant::now();
    let mut space = AddressSpace::new(profile.name.clone());
    space.map_anonymous(heap, Perms::RW, ShareMode::Private, "app-heap")?;
    for vpn in heap.iter() {
        let b = heap_page_byte(vpn);
        space.write(vpn, 0, &[b, b, b, b], &clock, model)?;
    }
    let filled = secs(t);
    drop(black_box(space));
    Ok(filled)
}

/// One calibration of `profile`, stage by stage, added into `stages`.
/// `cold` selects the cluster kernel's calls: prepare the image and the
/// template from one initialisation, fork once, run, and cold-boot;
/// otherwise the fleet's: generate the template, fork once, run.
fn calibrate(profile: &AppProfile, cold: bool, model: &CostModel, stages: &mut [f64]) -> Probe {
    stages[1] += fill(profile, model)?;
    let mut system = Catalyzer::new();
    let t = Instant::now();
    if cold {
        system.prepare_image_and_template(profile, model)?;
    } else {
        system.ensure_template(profile, model)?;
    }
    stages[0] += secs(t);

    let t = Instant::now();
    let mut child = system.boot(BootMode::Fork, profile, &mut BootCtx::fresh(model))?;
    stages[2] += secs(t);
    let t = Instant::now();
    black_box(child.program.invoke_handler(&SimClock::new(), model)?);
    stages[3] += secs(t);
    let t = Instant::now();
    let second = if cold {
        Some(system.boot(BootMode::Cold, profile, &mut BootCtx::fresh(model))?)
    } else {
        None
    };
    stages[2] += secs(t);

    let t = Instant::now();
    drop(second);
    drop(child);
    drop(system);
    stages[4] += secs(t);
    Ok(())
}

/// Every shape of `catalogue` through `calibrate`, `rounds` times, then the
/// one-request kernel run; prints one row of medians.
fn kernel(
    name: &str,
    catalogue: &[AppProfile],
    cold: bool,
    rounds: usize,
    run: impl Fn() -> Result<(), Box<dyn std::error::Error>>,
) -> Probe {
    let model = CostModel::experimental_machine();
    let shapes = shapes(catalogue);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len() + 2];
    for _ in 0..rounds {
        let mut stages = [0.0; STAGES.len()];
        for profile in &shapes {
            calibrate(profile, cold, &model, &mut stages)?;
        }
        let sum: f64 = stages.iter().sum::<f64>() - stages[1];
        let t = Instant::now();
        run()?;
        let whole = secs(t);
        for (column, value) in samples
            .iter_mut()
            .zip(stages.into_iter().chain([sum, whole]))
        {
            column.push(value);
        }
    }
    print!("{name:<8} {:>6}", shapes.len());
    for column in &mut samples {
        print!(" {:>8.3}", median(column));
    }
    println!();
    Ok(())
}

fn main() -> Probe {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(5);
    let one = [TraceRequest {
        arrival: SimNanos::ZERO,
        function: 0,
    }];
    print!("{:<8} {:>6}", "kernel", "shapes");
    for stage in STAGES.iter().chain(&["sum", "run"]) {
        print!(" {stage:>8}");
    }
    println!();

    let fleet = catalogue::synthetic(10_000, 11);
    kernel("fleet", &fleet, false, rounds, || {
        Simulation::new(fleet.clone()).run_fleet(&one)?;
        Ok(())
    })?;
    let cluster = catalogue::fig1_functions();
    kernel("cluster", &cluster, true, rounds, || {
        ClusterSim::new(cluster.clone(), ClusterConfig::new(8, 2)).run_cluster(&one)?;
        Ok(())
    })
}
