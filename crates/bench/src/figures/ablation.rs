//! Ablation and cost accounting: Fig. 12 and Table 3.

use catalyzer::{BootMode, Catalyzer, CatalyzerConfig};
use runtimes::AppProfile;
use sandbox::{BootCtx, SandboxError};
use simtime::{CostModel, SimNanos};

use super::rule;
use crate::ms;

/// One Fig. 12 bar: a configuration's cold-boot latency with the
/// kernel / memory / I/O split.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub config: &'static str,
    /// Application.
    pub app: String,
    /// Guest-kernel recovery time.
    pub kernel: SimNanos,
    /// Application-memory time.
    pub memory: SimNanos,
    /// I/O reconnection time.
    pub io: SimNanos,
    /// Total startup.
    pub total: SimNanos,
}

/// Fig. 12: the technique ladder over the gVisor-restore baseline, for
/// Python Django and Java SPECjbb.
///
/// # Errors
///
/// Engine errors.
pub fn fig12(model: &CostModel) -> Result<Vec<AblationRow>, SandboxError> {
    let apps = [AppProfile::python_django(), AppProfile::java_specjbb()];
    let ladder: [(&'static str, Option<CatalyzerConfig>); 4] = [
        ("baseline (gVisor-restore)", None),
        ("+OverlayMem", Some(CatalyzerConfig::overlay_only())),
        (
            "+SeparatedLoad",
            Some(CatalyzerConfig::overlay_and_separated()),
        ),
        (
            "+LazyReconnection",
            Some(CatalyzerConfig::overlay_separated_lazy()),
        ),
    ];
    let mut rows = Vec::new();
    for app in &apps {
        for (label, config) in &ladder {
            let mut ctx = BootCtx::fresh(model);
            let outcome = match config {
                None => {
                    let mut engine = sandbox::GvisorRestoreEngine::new();
                    sandbox::BootEngine::boot(&mut engine, app, &mut ctx)?
                }
                Some(cfg) => {
                    let mut system = Catalyzer::with_config(*cfg);
                    system.boot(BootMode::Cold, app, &mut ctx)?
                }
            };
            let (kernel, memory, io) = outcome.restore_split();
            rows.push(AblationRow {
                config: label,
                app: app.name.clone(),
                kernel,
                memory,
                io,
                total: ctx.now(),
            });
        }
    }
    Ok(rows)
}

/// Prints Fig. 12.
pub fn render_fig12(rows: &[AblationRow]) {
    println!("\nFigure 12 — breakdown of Catalyzer cold-boot techniques (ms)");
    println!("(paper: overlay saves ~261 ms on SPECjbb; separated load ~7x kernel; lazy I/O ~18x)");
    rule(92);
    println!(
        "{:<28} {:<16} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "app", "kernel", "memory", "io", "total"
    );
    for r in rows {
        println!(
            "{:<28} {:<16} {:>10} {:>10} {:>10} {:>10}",
            r.config,
            r.app,
            ms(r.kernel),
            ms(r.memory),
            ms(r.io),
            ms(r.total)
        );
    }
}

/// One Table 3 row: per-function warm-boot memory costs.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Application name.
    pub app: String,
    /// Metadata-object bytes.
    pub metadata: u64,
    /// I/O cache bytes.
    pub io_cache_bytes: u64,
}

/// Table 3: metadata and I/O-cache sizes for the five real applications.
///
/// # Errors
///
/// Engine errors.
pub fn table3(model: &CostModel) -> Result<Vec<Table3Row>, SandboxError> {
    let apps = [
        AppProfile::c_nginx(),
        AppProfile::java_specjbb(),
        AppProfile::python_django(),
        AppProfile::ruby_sinatra(),
        AppProfile::node_web(),
    ];
    let mut system = Catalyzer::new();
    let mut rows = Vec::new();
    for app in &apps {
        system.prewarm_image(app, model)?;
        let (metadata, io_cache_bytes) = system.warm_memory_costs(&app.name, model)?;
        rows.push(Table3Row {
            app: app.name.clone(),
            metadata,
            io_cache_bytes,
        });
    }
    Ok(rows)
}

/// Prints Table 3.
pub fn render_table3(rows: &[Table3Row]) {
    println!("\nTable 3 — warm-boot memory costs per function");
    println!("(paper: metadata 165.5 KB – 680.6 KB; I/O cache 370 B – 2.4 KB)");
    rule(56);
    println!(
        "{:<18} {:>14} {:>12}",
        "application", "metadata", "io cache"
    );
    for r in rows {
        println!(
            "{:<18} {:>12.1}KB {:>11}B",
            r.app,
            r.metadata as f64 / 1024.0,
            r.io_cache_bytes
        );
    }
}
