//! Startup-latency experiments: Fig. 4, Fig. 6, Fig. 7, Fig. 11, Table 2.

use catalyzer::{BootMode, Catalyzer};
use runtimes::{AppProfile, RuntimeKind};
use sandbox::{BootCtx, BootEngine, SandboxError};
use simtime::{CostModel, SimNanos};

use super::{boot_once, fig11_lineup, rule};
use crate::ms;

/// One Fig. 4 bar: the sandbox-vs-application split of startup latency.
#[derive(Debug, Clone)]
pub struct ShareRow {
    /// System name.
    pub system: &'static str,
    /// Application name.
    pub app: String,
    /// Sandbox-initialization share of startup (percent).
    pub sandbox_pct: f64,
    /// Application-initialization share of startup (percent).
    pub app_pct: f64,
    /// Total startup.
    pub total: SimNanos,
}

/// Fig. 4: startup-latency distribution for four sandboxes × four apps.
///
/// # Errors
///
/// Engine errors.
pub fn fig04(model: &CostModel) -> Result<Vec<ShareRow>, SandboxError> {
    let apps = [
        AppProfile::java_hello(),
        AppProfile::java_specjbb(),
        AppProfile::python_hello(),
        AppProfile::python_django(),
    ];
    let mut rows = Vec::new();
    for app in &apps {
        let mut systems: Vec<Box<dyn BootEngine>> = vec![
            Box::new(sandbox::DockerEngine::new()),
            Box::new(sandbox::GvisorEngine::new()),
            Box::new(sandbox::FirecrackerEngine::new()),
            Box::new(sandbox::HyperContainerEngine::new()),
        ];
        for engine in &mut systems {
            let (total, outcome) = boot_once(engine.as_mut(), app, model)?;
            let sandbox = outcome.sandbox_time().as_nanos() as f64;
            let appt = outcome.app_time().as_nanos() as f64;
            let sum = (sandbox + appt).max(1.0);
            rows.push(ShareRow {
                system: outcome.system,
                app: app.name.clone(),
                sandbox_pct: 100.0 * sandbox / sum,
                app_pct: 100.0 * appt / sum,
                total,
            });
        }
    }
    Ok(rows)
}

/// Prints Fig. 4.
pub fn render_fig04(rows: &[ShareRow]) {
    println!("\nFigure 4 — startup latency distribution (sandbox vs application %)");
    rule(78);
    println!(
        "{:<16} {:<14} {:>10} {:>10} {:>12}",
        "system", "app", "sandbox%", "app%", "total(ms)"
    );
    for r in rows {
        println!(
            "{:<16} {:<14} {:>9.1}% {:>9.1}% {:>12}",
            r.system,
            r.app,
            r.sandbox_pct,
            r.app_pct,
            ms(r.total)
        );
    }
}

/// One Fig. 6 / Fig. 11 cell.
#[derive(Debug, Clone)]
pub struct StartupRow {
    /// System name.
    pub system: &'static str,
    /// Application name.
    pub app: String,
    /// Startup latency.
    pub startup: SimNanos,
    /// Sandbox-attributed part.
    pub sandbox: SimNanos,
    /// Application/restore-attributed part.
    pub app_part: SimNanos,
}

/// Fig. 6: gVisor vs gVisor-restore across six applications.
///
/// # Errors
///
/// Engine errors.
pub fn fig06(model: &CostModel) -> Result<Vec<StartupRow>, SandboxError> {
    let apps = [
        AppProfile::c_hello(),
        AppProfile::c_nginx(),
        AppProfile::java_hello(),
        AppProfile::java_specjbb(),
        AppProfile::python_hello(),
        AppProfile::python_django(),
    ];
    let mut gvisor = sandbox::GvisorEngine::new();
    let mut restore = sandbox::GvisorRestoreEngine::new();
    let mut rows = Vec::new();
    for app in &apps {
        for engine in [&mut gvisor as &mut dyn BootEngine, &mut restore] {
            let (startup, outcome) = boot_once(engine, app, model)?;
            rows.push(StartupRow {
                system: outcome.system,
                app: app.name.clone(),
                startup,
                sandbox: outcome.sandbox_time(),
                app_part: outcome.app_time(),
            });
        }
    }
    Ok(rows)
}

/// Prints Fig. 6.
pub fn render_fig06(rows: &[StartupRow]) {
    println!("\nFigure 6 — startup latency of gVisor vs gVisor-restore (ms)");
    rule(78);
    println!(
        "{:<16} {:<16} {:>10} {:>12} {:>12}",
        "system", "app", "total", "sandbox", "app/restore"
    );
    for r in rows {
        println!(
            "{:<16} {:<16} {:>10} {:>12} {:>12}",
            r.system,
            r.app,
            ms(r.startup),
            ms(r.sandbox),
            ms(r.app_part)
        );
    }
}

/// Fig. 7: the cold/warm/fork taxonomy latencies for one C-class function
/// (the paper sketches 40 / 12 / 1 ms).
///
/// # Errors
///
/// Engine errors.
pub fn fig07(model: &CostModel) -> Result<[(&'static str, SimNanos); 3], SandboxError> {
    let profile = AppProfile::c_nginx();
    let mut system = Catalyzer::new();
    let cold = {
        let mut ctx = BootCtx::fresh(model);
        system.boot(BootMode::Cold, &profile, &mut ctx)?;
        ctx.now()
    };
    let warm = {
        let mut ctx = BootCtx::fresh(model);
        system.boot(BootMode::Warm, &profile, &mut ctx)?;
        ctx.now()
    };
    system.ensure_template(&profile, model)?;
    let fork = {
        let mut ctx = BootCtx::fresh(model);
        system.boot(BootMode::Fork, &profile, &mut ctx)?;
        ctx.now()
    };
    Ok([
        ("cold boot", cold),
        ("warm boot", warm),
        ("fork boot", fork),
    ])
}

/// Prints Fig. 7.
pub fn render_fig07(rows: &[(&'static str, SimNanos); 3]) {
    println!("\nFigure 7 — Catalyzer boot kinds (C-Nginx; paper sketch: 40/12/1 ms)");
    rule(40);
    for (kind, latency) in rows {
        println!("{:<12} {:>10} ms", kind, ms(*latency));
    }
}

/// Fig. 11: startup latency of every system across the ten applications.
///
/// # Errors
///
/// Engine errors.
pub fn fig11(model: &CostModel) -> Result<Vec<StartupRow>, SandboxError> {
    let apps = AppProfile::catalogue();
    let mut rows = Vec::new();
    for mut engine in fig11_lineup() {
        let name = engine.name();
        for app in &apps {
            // The paper skips Ruby on FireCracker (unsupported kernel).
            if name == "FireCracker" && app.runtime == RuntimeKind::Ruby {
                continue;
            }
            let (startup, outcome) = boot_once(engine.as_mut(), app, model)?;
            rows.push(StartupRow {
                system: outcome.system,
                app: app.name.clone(),
                startup,
                sandbox: outcome.sandbox_time(),
                app_part: outcome.app_time(),
            });
        }
    }
    Ok(rows)
}

/// Prints Fig. 11 as a system × app matrix.
pub fn render_fig11(rows: &[StartupRow]) {
    println!("\nFigure 11 — startup latency (ms), all systems × all applications");
    let apps: Vec<&str> = {
        let mut seen = Vec::new();
        for r in rows {
            if !seen.contains(&r.app.as_str()) {
                seen.push(r.app.as_str());
            }
        }
        seen
    };
    rule(20 + apps.len() * 10);
    print!("{:<18}", "system");
    for app in &apps {
        print!(" {:>9}", app.split('-').next_back().unwrap_or(app));
    }
    println!();
    let mut systems = Vec::new();
    for r in rows {
        if !systems.contains(&r.system) {
            systems.push(r.system);
        }
    }
    for system in systems {
        print!("{:<18}", system);
        for app in &apps {
            match rows.iter().find(|r| r.system == system && r.app == *app) {
                Some(r) => print!(" {:>9}", ms(r.startup)),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
}

/// Table 2: cold boot with the Java runtime template.
#[derive(Debug, Clone, Copy)]
pub struct Table2 {
    /// Native (no sandbox, warm host) JVM start.
    pub native: SimNanos,
    /// gVisor cold boot.
    pub gvisor: SimNanos,
    /// Catalyzer Java-runtime-template cold boot.
    pub template: SimNanos,
}

/// The speedup the JVM gets outside any sandbox with a warm host cache and
/// class-data sharing — calibrated so the "Native" row lands at the paper's
/// 89.4 ms (our in-sandbox JVM profiles model gVisor's interposed syscalls).
pub const NATIVE_JVM_FACTOR: f64 = 0.14;

/// Table 2: computes the three rows for a lightweight Java function.
///
/// # Errors
///
/// Engine errors.
pub fn table2(model: &CostModel) -> Result<Table2, SandboxError> {
    let profile = AppProfile::java_hello();
    let native = profile.app_init_estimate().scale(NATIVE_JVM_FACTOR);
    let (gvisor, _) = boot_once(&mut sandbox::GvisorEngine::new(), &profile, model)?;
    let mut cat = Catalyzer::new();
    cat.ensure_language_template(RuntimeKind::Java, model)?;
    let mut ctx = BootCtx::fresh(model);
    cat.language_template_boot(&profile, &mut ctx)?;
    Ok(Table2 {
        native,
        gvisor,
        template: ctx.now(),
    })
}

/// Prints Table 2.
pub fn render_table2(t: &Table2) {
    println!("\nTable 2 — cold boot with Java runtime templates (paper: 89.4 / 659.1 / 29.3 ms)");
    rule(56);
    println!("{:<14} {:>12} {:>14}", "Native", "gVisor", "Java template");
    println!(
        "{:<14} {:>12} {:>14}",
        ms(t.native),
        ms(t.gvisor),
        ms(t.template)
    );
}
