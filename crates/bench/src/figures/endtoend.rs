//! End-to-end experiments: Fig. 1 (CDF) and Fig. 13 (three suites).

use catalyzer::{BootMode, CatalyzerEngine};
use platform::{Gateway, InvokeRequest};
use runtimes::AppProfile;
use sandbox::GvisorEngine;
use simtime::stats::Cdf;
use simtime::{CostModel, SimNanos};
use workloads::catalogue;
use workloads::deathstar::Service;
use workloads::ecommerce::EcommerceOp;
use workloads::pillow::ImageOp;

use super::rule;
use crate::ms;
use platform::PlatformError;

/// One Fig. 13 bar: boot + execution for one system on one function.
#[derive(Debug, Clone)]
pub struct E2eRow {
    /// System label ("gVisor", "C-sfork", "C-restore").
    pub system: &'static str,
    /// Function name.
    pub function: String,
    /// Startup latency.
    pub boot: SimNanos,
    /// Execution latency.
    pub exec: SimNanos,
}

impl E2eRow {
    /// Total user-visible latency.
    pub fn total(&self) -> SimNanos {
        self.boot.saturating_add(self.exec)
    }
}

fn run_suite(functions: &[AppProfile], model: &CostModel) -> Result<Vec<E2eRow>, PlatformError> {
    let mut rows = Vec::new();
    // gVisor baseline.
    let mut gv = Gateway::new(GvisorEngine::new(), model.clone());
    // Catalyzer fork and cold boot.
    let mut fork = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model.clone());
    let mut cold = Gateway::new(CatalyzerEngine::standalone(BootMode::Cold), model.clone());
    for p in functions {
        gv.register(p.clone());
        fork.register(p.clone());
        cold.register(p.clone());
    }
    for p in functions {
        let r = gv.call(InvokeRequest::new(&p.name))?.report;
        rows.push(E2eRow {
            system: "gVisor",
            function: p.name.clone(),
            boot: r.boot,
            exec: r.exec,
        });
        let r = fork.call(InvokeRequest::new(&p.name))?.report;
        rows.push(E2eRow {
            system: "C-sfork",
            function: p.name.clone(),
            boot: r.boot,
            exec: r.exec,
        });
        let r = cold.call(InvokeRequest::new(&p.name))?.report;
        rows.push(E2eRow {
            system: "C-restore",
            function: p.name.clone(),
            boot: r.boot,
            exec: r.exec,
        });
    }
    Ok(rows)
}

/// Fig. 13a: the five DeathStar microservices.
///
/// # Errors
///
/// Platform errors.
pub fn fig13a(model: &CostModel) -> Result<Vec<E2eRow>, PlatformError> {
    let fns: Vec<AppProfile> = Service::ALL.iter().map(|s| s.profile()).collect();
    run_suite(&fns, model)
}

/// Fig. 13b: the five Pillow image functions.
///
/// # Errors
///
/// Platform errors.
pub fn fig13b(model: &CostModel) -> Result<Vec<E2eRow>, PlatformError> {
    let fns: Vec<AppProfile> = ImageOp::ALL.iter().map(|o| o.profile()).collect();
    run_suite(&fns, model)
}

/// Fig. 13c: the four e-commerce functions, on the server machine.
///
/// # Errors
///
/// Platform errors.
pub fn fig13c() -> Result<Vec<E2eRow>, PlatformError> {
    let model = CostModel::server_machine();
    let fns: Vec<AppProfile> = EcommerceOp::ALL.iter().map(|o| o.profile()).collect();
    run_suite(&fns, &model)
}

/// Prints one Fig. 13 panel.
pub fn render_fig13(title: &str, rows: &[E2eRow]) {
    println!("\n{title}");
    rule(88);
    println!(
        "{:<12} {:<26} {:>10} {:>10} {:>10} {:>8}",
        "system", "function", "boot", "exec", "total", "boot%"
    );
    for r in rows {
        println!(
            "{:<12} {:<26} {:>10} {:>10} {:>10} {:>7.1}%",
            r.system,
            r.function,
            ms(r.boot),
            ms(r.exec),
            ms(r.total()),
            100.0 * r.boot.as_nanos() as f64 / r.total().as_nanos().max(1) as f64
        );
    }
}

/// Fig. 1: the CDF of execution/overall-latency ratio over the 14 functions,
/// for gVisor cold boot and Catalyzer (fork boot). Returns `(gvisor,
/// catalyzer)` CDFs.
///
/// # Errors
///
/// Platform errors.
pub fn fig01(model: &CostModel) -> Result<(Cdf, Cdf), PlatformError> {
    let fns = catalogue::fig1_functions();
    let mut gv = Gateway::new(GvisorEngine::new(), model.clone());
    let mut cat = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model.clone());
    for p in &fns {
        gv.register(p.clone());
        cat.register(p.clone());
    }
    let mut gv_ratios = Vec::new();
    let mut cat_ratios = Vec::new();
    for p in &fns {
        gv_ratios.push(
            gv.call(InvokeRequest::new(&p.name))?
                .report
                .execution_ratio(),
        );
        cat_ratios.push(
            cat.call(InvokeRequest::new(&p.name))?
                .report
                .execution_ratio(),
        );
    }
    Ok((Cdf::from_samples(gv_ratios), Cdf::from_samples(cat_ratios)))
}

/// Prints Fig. 1.
pub fn render_fig01(gvisor: &Cdf, catalyzer: &Cdf) {
    println!("\nFigure 1 — CDF of execution/overall latency ratio, 14 functions");
    println!(
        "(paper: no gVisor function exceeds 65.54 %; ours peaks at {:.2} %)",
        gvisor.max().unwrap_or(0.0) * 100.0
    );
    rule(56);
    println!(
        "{:>14} {:>14} {:>14}",
        "ratio (%)", "gVisor CDF", "Catalyzer CDF"
    );
    for pct in (0..=100).step_by(10) {
        let x = f64::from(pct) / 100.0;
        println!(
            "{:>13}% {:>14.2} {:>14.2}",
            pct,
            gvisor.at(x),
            catalyzer.at(x)
        );
    }
}
