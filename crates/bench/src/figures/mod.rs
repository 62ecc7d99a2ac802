//! Figure/table regenerators. See `DESIGN.md` §5 for the experiment index.

pub mod ablation;
pub mod csv;
pub mod endtoend;
pub mod generality;
pub mod hostopts;
pub mod pipeline;
pub mod platformsim;
pub mod scale;
pub mod startup;

use catalyzer::{BootMode, Catalyzer, CatalyzerEngine};
use runtimes::AppProfile;
use sandbox::{BootCtx, BootEngine, BootOutcome, SandboxError};
use simtime::{CostModel, SimNanos};
use std::rc::Rc;

/// The Fig. 11 lineup (reused by several experiments), sharing one
/// Catalyzer instance across its three modes (as one deployment would).
#[expect(
    clippy::disallowed_types,
    reason = "`CatalyzerEngine::new` takes the shared cell its three modes borrow in turn"
)]
pub fn fig11_lineup() -> Vec<Box<dyn BootEngine>> {
    let shared = Rc::new(std::cell::RefCell::new(Catalyzer::new()));
    vec![
        Box::new(sandbox::HyperContainerEngine::new()),
        Box::new(sandbox::FirecrackerEngine::new()),
        Box::new(sandbox::GvisorEngine::new()),
        Box::new(sandbox::DockerEngine::new()),
        Box::new(sandbox::GvisorRestoreEngine::new()),
        Box::new(CatalyzerEngine::new(Rc::clone(&shared), BootMode::Cold)),
        Box::new(CatalyzerEngine::new(Rc::clone(&shared), BootMode::Warm)),
        Box::new(CatalyzerEngine::new(shared, BootMode::Fork)),
    ]
}

/// Boots once and returns `(startup latency, outcome)`.
///
/// # Errors
///
/// Engine errors.
pub fn boot_once(
    engine: &mut dyn BootEngine,
    profile: &AppProfile,
    model: &CostModel,
) -> Result<(SimNanos, BootOutcome), SandboxError> {
    let mut ctx = BootCtx::fresh(model);
    let outcome = engine.boot(profile, &mut ctx)?;
    Ok((ctx.now(), outcome))
}

/// Prints a rule line for tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
