//! Platform-level extension experiments: a trace-driven keep-alive vs
//! fork-boot comparison, and the warm-boot phase breakdown.

use catalyzer::{BootMode, Catalyzer, CatalyzerEngine};
use platform::simulate::TraceRequest;
use platform::{SimReport, Simulation};
use runtimes::AppProfile;
use sandbox::{BootCtx, GvisorRestoreEngine, SandboxError};
use simtime::{Breakdown, CostModel, SimNanos};
use workloads::generator::{trace, Popularity};

use super::rule;
use crate::ms;

/// Builds the shared zipf trace over six functions.
fn shared_trace(functions: &[AppProfile]) -> Vec<TraceRequest> {
    trace(
        functions.len(),
        60,
        20.0,
        Popularity::Zipf { exponent: 1.1 },
        2020,
    )
    .into_iter()
    .map(|r| TraceRequest {
        arrival: r.arrival,
        function: r.function,
    })
    .collect()
}

/// Runs the trace against a keep-alive pooled gVisor-restore fleet and a
/// fork-boot fleet. Returns `(pooled, forked)` outcomes.
///
/// # Errors
///
/// Platform errors.
pub fn platform_sim(model: &CostModel) -> Result<(SimReport, SimReport), platform::PlatformError> {
    let functions = [
        AppProfile::c_hello(),
        AppProfile::c_nginx(),
        AppProfile::python_hello(),
        AppProfile::ruby_hello(),
        AppProfile::node_hello(),
        AppProfile::python_django(),
    ];
    let requests = shared_trace(&functions);
    let fleet = || {
        Simulation::new(functions.to_vec())
            .with_model(model.clone())
            .with_keep_alive(SimNanos::from_secs(2))
    };
    let pooled = fleet()
        .with_engine(|_| GvisorRestoreEngine::new())
        .with_max_idle(2)
        .run(&requests)?;
    let forked = fleet()
        .with_engine(|_| CatalyzerEngine::standalone(BootMode::Fork))
        .with_max_idle(0) // fork boot keeps nothing idle: the template is the cache
        .run(&requests)?;
    Ok((pooled, forked))
}

/// Prints the platform simulation.
pub fn render_platform_sim(pooled: &SimReport, forked: &SimReport) {
    println!("\nplatform simulation — 60 zipf requests over 6 functions (extension)");
    rule(86);
    println!(
        "{:<26} {:>9} {:>9} {:>9} {:>8} {:>8} {:>6}",
        "fleet", "p50", "p95", "p99", "reuse", "boots", "peak"
    );
    for (label, o) in [
        ("gVisor-restore + pool", pooled),
        ("Catalyzer fork boot", forked),
    ] {
        let Some(startup) = &o.startup else { continue };
        println!(
            "{:<26} {:>9} {:>9} {:>9} {:>7.0}% {:>8} {:>6}",
            label,
            ms(startup.p50),
            ms(startup.p95),
            ms(startup.p99),
            o.reuse_rate() * 100.0,
            o.pools.boots,
            // The column counts the arriving request on top of the set
            // already in flight.
            o.peak_in_flight + 1
        );
    }
}

/// Warm-boot phase breakdown per language (what is inside the paper's
/// 5/14/9/12/9 ms).
///
/// # Errors
///
/// Engine errors.
pub fn warm_breakdown(model: &CostModel) -> Result<Vec<(String, Breakdown)>, SandboxError> {
    let apps = [
        AppProfile::c_hello(),
        AppProfile::java_hello(),
        AppProfile::python_hello(),
        AppProfile::ruby_hello(),
        AppProfile::node_hello(),
    ];
    let mut out = Vec::new();
    for app in apps {
        let mut system = Catalyzer::new();
        system.boot(BootMode::Cold, &app, &mut BootCtx::fresh(model))?;
        let outcome = system.boot(BootMode::Warm, &app, &mut BootCtx::fresh(model))?;
        out.push((app.name, outcome.breakdown));
    }
    Ok(out)
}

/// Prints the warm-boot breakdown.
pub fn render_warm_breakdown(rows: &[(String, Breakdown)]) {
    println!("\nwarm-boot phase breakdown (what is inside §6.2's zygote numbers)");
    rule(86);
    for (app, breakdown) in rows {
        println!("{app}:");
        for (phase, cost) in breakdown.iter() {
            println!("    {:<28} {:>10}", phase, format!("{cost}"));
        }
        println!(
            "    {:<28} {:>10}",
            "TOTAL",
            format!("{}", breakdown.total())
        );
    }
}
