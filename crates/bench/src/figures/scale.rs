//! Concurrency experiments: Fig. 14 (memory) and Fig. 15 (scalability),
//! plus the §6.9 sustainable-hot-boot tail study.

use catalyzer::{BootMode, CatalyzerEngine};
use memsim::accounting::MemoryUsage;
use platform::policy::{simulate_trace, BootPolicy, TraceOutcome};
use platform::{memory, scaling};
use runtimes::AppProfile;
use sandbox::{GvisorEngine, GvisorRestoreEngine, SandboxError};
use simtime::CostModel;
use workloads::deathstar::Service;

use super::rule;
use crate::ms;

/// One Fig. 14 point: average memory usage per sandbox at a concurrency.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// System name.
    pub system: &'static str,
    /// Concurrent sandboxes.
    pub n: u32,
    /// Average usage.
    pub usage: MemoryUsage,
}

/// Fig. 14: RSS/PSS of DeathStar `composePost` under 1–16 concurrent
/// sandboxes, gVisor vs Catalyzer (sfork).
///
/// # Errors
///
/// Platform errors.
pub fn fig14(model: &CostModel) -> Result<Vec<MemoryRow>, platform::PlatformError> {
    let profile = Service::ComposePost.profile();
    let mut rows = Vec::new();
    for n in [1u32, 2, 4, 8, 16] {
        let mut gv = GvisorEngine::new();
        rows.push(MemoryRow {
            system: "gVisor",
            n,
            usage: memory::concurrent_usage(&mut gv, &profile, n, model)?,
        });
        let mut cat = CatalyzerEngine::standalone(BootMode::Fork);
        rows.push(MemoryRow {
            system: "Catalyzer",
            n,
            usage: memory::concurrent_usage(&mut cat, &profile, n, model)?,
        });
    }
    Ok(rows)
}

/// Prints Fig. 14.
pub fn render_fig14(rows: &[MemoryRow]) {
    println!("\nFigure 14 — memory usage per sandbox, DeathStar composePost (MB)");
    rule(56);
    println!("{:<12} {:>4} {:>12} {:>12}", "system", "n", "RSS", "PSS");
    for r in rows {
        println!(
            "{:<12} {:>4} {:>11.2}M {:>11.2}M",
            r.system,
            r.n,
            r.usage.rss_mib(),
            r.usage.pss_mib()
        );
    }
}

/// One Fig. 15 series.
#[derive(Debug, Clone)]
pub struct ScaleSeries {
    /// Series label.
    pub system: String,
    /// `(running instances, startup latency)` points.
    pub points: Vec<scaling::ScalePoint>,
}

/// Fig. 15: startup latency with 0–1000 running instances of the DeathStar
/// text function, in steps of 100: gVisor-restore vs Catalyzer
/// (experimental machine) vs Catalyzer on the server machine
/// ("Catalyzer-Indus").
///
/// # Errors
///
/// Engine errors.
pub fn fig15() -> Result<Vec<ScaleSeries>, SandboxError> {
    let profile = Service::Text.profile();
    let steps: Vec<u32> = (0..=1000).step_by(100).collect();
    let exp = CostModel::experimental_machine();
    let srv = CostModel::server_machine();

    let mut out = Vec::new();
    let mut restore = GvisorRestoreEngine::new();
    out.push(ScaleSeries {
        system: "gVisor-restore".into(),
        points: scaling::sweep(&mut restore, &profile, &steps, &exp, 11)?,
    });
    let mut cat = CatalyzerEngine::standalone(BootMode::Fork);
    out.push(ScaleSeries {
        system: "Catalyzer".into(),
        points: scaling::sweep(&mut cat, &profile, &steps, &exp, 12)?,
    });
    let mut cat_srv = CatalyzerEngine::standalone(BootMode::Fork);
    out.push(ScaleSeries {
        system: "Catalyzer-Indus".into(),
        points: scaling::sweep(&mut cat_srv, &profile, &steps, &srv, 13)?,
    });
    Ok(out)
}

/// Prints Fig. 15.
pub fn render_fig15(series: &[ScaleSeries]) {
    println!("\nFigure 15 — startup latency vs running instances (ms)");
    println!("(paper: Catalyzer <10 ms at 1000 instances on both machines)");
    rule(72);
    print!("{:<10}", "running");
    for s in series {
        print!(" {:>18}", s.system);
    }
    println!();
    let n = series.first().map(|s| s.points.len()).unwrap_or(0);
    for i in 0..n {
        print!("{:<10}", series[0].points[i].running);
        for s in series {
            print!(" {:>18}", ms(s.points[i].startup));
        }
        println!();
    }
}

/// §6.9: warm-cache vs fork-boot startup distributions over a multi-function
/// trace. Returns `(cache outcome, fork outcome)`.
///
/// # Errors
///
/// Engine errors.
pub fn tail_latency(
    model: &CostModel,
) -> Result<(TraceOutcome, TraceOutcome), platform::PlatformError> {
    let functions = [
        AppProfile::c_hello(),
        AppProfile::c_nginx(),
        AppProfile::python_hello(),
        AppProfile::ruby_hello(),
        AppProfile::node_hello(),
        AppProfile::python_django(),
    ];
    let mut restore = GvisorRestoreEngine::new();
    let cached = simulate_trace(
        &mut restore,
        &functions,
        48,
        BootPolicy::WarmCache { capacity: 3 },
        model,
    )?;
    let mut fork = CatalyzerEngine::standalone(BootMode::Fork);
    let forked = simulate_trace(&mut fork, &functions, 48, BootPolicy::AlwaysBoot, model)?;
    Ok((cached, forked))
}

/// Prints the tail-latency study.
pub fn render_tail(cached: &TraceOutcome, forked: &TraceOutcome) {
    println!("\n§6.9 — sustainable hot boot: warm cache vs fork boot (startup ms)");
    rule(72);
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>10}",
        "policy", "p50", "p95", "p99", "hit rate"
    );
    for (label, o) in [("warm cache (cap 3)", cached), ("fork boot", forked)] {
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>9.0}%",
            label,
            ms(o.startup.p50),
            ms(o.startup.p95),
            ms(o.startup.p99),
            o.hit_rate * 100.0
        );
    }
}
