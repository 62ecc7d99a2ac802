//! Host-level optimization experiments: Fig. 16 a–d.

use runtimes::AppProfile;
use sandbox::host::{HostFdTable, HostTweaks, KvmDevice};
use sandbox::SandboxError;
use simtime::jitter::Jitter;
use simtime::{CostModel, SimClock, SimNanos};

use super::rule;
use crate::ms;

/// Fig. 16a: normalized execution latency with and without the fine-grained
/// func-entry point, for a memory-reading C microbenchmark and SPECjbb.
/// Returns `(name, baseline exec, optimized exec)` rows.
///
/// # Errors
///
/// Engine errors.
pub fn fig16a(model: &CostModel) -> Result<Vec<(String, SimNanos, SimNanos)>, SandboxError> {
    // The paper moves the entry point past in-function preparation,
    // reducing execution latency ~3×: shift two thirds of the handler work
    // before the checkpoint.
    let mut c_mem = AppProfile::c_hello();
    c_mem.name = "C-mem-read-16K".into();
    c_mem.exec_time = SimNanos::from_micros_f64(360.6);
    c_mem.exec_alloc_pages = 4;
    c_mem.exec_touch_fraction = 0.06; // reads its 16K buffer only
    c_mem.exec_io = false; // pure-compute microbenchmark
    let cases = [c_mem, AppProfile::java_specjbb()];

    let mut rows = Vec::new();
    for base in cases {
        let shifted = base.clone().with_entry_point_shift(2.0 / 3.0);
        let run = |profile: &AppProfile| -> Result<SimNanos, SandboxError> {
            let mut system = catalyzer::Catalyzer::new();
            system.ensure_template(profile, model)?;
            let mut ctx = sandbox::BootCtx::fresh(model);
            let mut boot = system.boot(catalyzer::BootMode::Fork, profile, &mut ctx)?;
            let before = ctx.now();
            boot.program
                .invoke_handler(ctx.clock(), model)
                .map_err(sandbox::SandboxError::Runtime)?;
            Ok(ctx.now().saturating_sub(before))
        };
        let baseline = run(&base)?;
        let optimized = run(&shifted)?;
        rows.push((base.name.clone(), baseline, optimized));
    }
    Ok(rows)
}

/// Prints Fig. 16a.
pub fn render_fig16a(rows: &[(String, SimNanos, SimNanos)]) {
    println!("\nFigure 16a — fine-grained func-entry point (paper: ~3x exec reduction)");
    rule(72);
    println!(
        "{:<18} {:>14} {:>14} {:>8}",
        "workload", "baseline", "optimized", "speedup"
    );
    for (name, base, opt) in rows {
        println!(
            "{:<18} {:>12}ms {:>12}ms {:>7.2}x",
            name,
            ms(*base),
            ms(*opt),
            base.as_nanos() as f64 / opt.as_nanos().max(1) as f64
        );
    }
}

/// Fig. 16b: `kvcalloc` latency per invocation, baseline KVM vs the
/// dedicated cache. Returns `(invocation #, baseline, cached)` rows.
pub fn fig16b(model: &CostModel) -> Vec<(u32, SimNanos, SimNanos)> {
    let clock = SimClock::new();
    let mut baseline = KvmDevice::create(HostTweaks::baseline(), &clock, model);
    let mut cached = KvmDevice::create(HostTweaks::catalyzer(), &clock, model);
    (1..=6)
        .map(|i| {
            (
                i,
                baseline.kvcalloc(&clock, model),
                cached.kvcalloc(&clock, model),
            )
        })
        .collect()
}

/// Prints Fig. 16b.
pub fn render_fig16b(rows: &[(u32, SimNanos, SimNanos)]) {
    println!("\nFigure 16b — kvcalloc latency vs invocations (paper: 1.6 ms total → <50 us)");
    rule(56);
    println!(
        "{:<12} {:>14} {:>14}",
        "invocation", "baseline KVM", "KVM cache"
    );
    for (i, base, cached) in rows {
        println!(
            "{:<12} {:>12}us {:>12}us",
            i,
            base.as_micros_f64().round(),
            cached.as_micros_f64().round()
        );
    }
}

/// Fig. 16c: `set_memory_region` latency per ioctl, PML on vs off.
/// Returns `(ioctl #, default/PML, PML disabled)` rows.
pub fn fig16c(model: &CostModel) -> Vec<(u32, SimNanos, SimNanos)> {
    let clock = SimClock::new();
    let mut pml = KvmDevice::create(HostTweaks::upstream(), &clock, model);
    let mut nopml = KvmDevice::create(HostTweaks::baseline(), &clock, model);
    (1..=11)
        .map(|i| {
            (
                i,
                pml.set_memory_region(&clock, model),
                nopml.set_memory_region(&clock, model),
            )
        })
        .collect()
}

/// Prints Fig. 16c.
pub fn render_fig16c(rows: &[(u32, SimNanos, SimNanos)]) {
    println!("\nFigure 16c — set_memory_region latency (paper: disabling PML ≈ 10x faster)");
    rule(56);
    println!(
        "{:<10} {:>16} {:>16}",
        "ioctl #", "default (PML)", "PML disabled"
    );
    for (i, pml, nopml) in rows {
        println!(
            "{:<10} {:>14}us {:>14}us",
            i,
            pml.as_micros_f64().round(),
            nopml.as_micros_f64().round()
        );
    }
}

/// Fig. 16d: per-call `dup` latency over 40 syscalls with a nearly-full fd
/// table — the burst is the fdtable expansion. Returns `(call #, eager,
/// lazy)` rows; the lazy-dup series never bursts.
pub fn fig16d(model: &CostModel) -> Vec<(u32, SimNanos, SimNanos)> {
    let clock = SimClock::new();
    let mut jitter = Jitter::seeded(16);
    let mut eager = HostFdTable::new(HostTweaks::baseline(), model);
    let mut lazy = HostFdTable::new(HostTweaks::catalyzer(), model);
    // Fill close to the first expansion point.
    for _ in 0..40 {
        eager.dup(&clock, model);
        lazy.dup(&clock, model);
    }
    (1..=40)
        .map(|i| {
            let e = eager.dup(&clock, model);
            let l = lazy.dup(&clock, model);
            // Fast-path calls show scheduler noise; bursts stand alone.
            let mut noise = |d: SimNanos| {
                if d < SimNanos::from_millis(1) {
                    jitter.uniform(d, 0.3)
                } else {
                    d
                }
            };
            (i, noise(e), noise(l))
        })
        .collect()
}

/// Prints Fig. 16d.
pub fn render_fig16d(rows: &[(u32, SimNanos, SimNanos)]) {
    println!("\nFigure 16d — dup latency per call (paper: ~1 us, rare ~30 ms bursts)");
    rule(56);
    println!("{:<8} {:>16} {:>16}", "call #", "dup", "lazy dup");
    for (i, eager, lazy) in rows {
        println!(
            "{:<8} {:>16} {:>16}",
            i,
            format!("{eager}"),
            format!("{lazy}")
        );
    }
}
