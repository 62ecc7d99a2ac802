//! Startup latency under concurrent running instances (paper §6.6, Fig. 15).
//!
//! The paper boots a new DeathStar-text instance while 0–1000 instances are
//! already running, on both machines. Running instances contend for cores,
//! caches, and the scheduler; we model that with a deterministic, seeded
//! contention factor that grows logarithmically in oversubscription
//! (instances per core) plus bounded noise — calibrated so Catalyzer stays
//! under 10 ms at 1000 instances while gVisor-restore sits an order of
//! magnitude higher, as in the figure. A point is one real boot times that
//! factor: the running instances themselves are never booted.

use runtimes::AppProfile;
use sandbox::{BootCtx, BootEngine, SandboxError};
use simtime::jitter::Jitter;
use simtime::{CostModel, MachineKind, SimNanos};

/// One measured point of Fig. 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalePoint {
    /// Concurrent running instances when the boot was measured.
    pub running: u32,
    /// Startup latency of the new instance.
    pub startup: SimNanos,
}

/// Cores available for the contention model.
fn cores_of(machine: MachineKind) -> f64 {
    match machine {
        MachineKind::Experimental => 8.0,
        MachineKind::Server => 96.0,
    }
}

/// Deterministic contention multiplier with `running` instances alive.
pub fn contention_factor(running: u32, model: &CostModel, jitter: &mut Jitter) -> f64 {
    let oversub = f64::from(running) / cores_of(model.machine);
    let base = 1.0 + 0.11 * (1.0 + oversub).ln();
    base * jitter.lognormal_factor(0.06)
}

/// Runs the Fig. 15 sweep: for each `n` in `points`, boots one instance of
/// `profile` and scales its latency by [`contention_factor`] at `n`.
///
/// The engine keeps its caches (images, zygotes, templates) across the
/// sweep, exactly like a long-lived daemon. The `n` instances already
/// running are not booted: they reach the measured boot only through the
/// contention factor, a function of `n` and the machine's cores, so one
/// boot per point gives the figure.
///
/// # Errors
///
/// Engine errors from any boot.
pub fn sweep<E: BootEngine>(
    engine: &mut E,
    profile: &AppProfile,
    points: &[u32],
    model: &CostModel,
    seed: u64,
) -> Result<Vec<ScalePoint>, SandboxError> {
    let mut jitter = Jitter::seeded(seed);
    points
        .iter()
        .map(|&n| {
            // The measured instance exits after serving.
            let mut ctx = BootCtx::fresh(model);
            engine.boot(profile, &mut ctx)?;
            let factor = contention_factor(n, model, &mut jitter);
            Ok(ScalePoint {
                running: n,
                startup: ctx.now().scale(factor),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyzer::{BootMode, CatalyzerEngine};

    #[test]
    fn contention_grows_slowly_and_deterministically() {
        let model = CostModel::experimental_machine();
        let mut a = Jitter::seeded(3);
        let mut b = Jitter::seeded(3);
        let f0 = contention_factor(0, &model, &mut a);
        assert_eq!(f0, contention_factor(0, &model, &mut b));
        let mut j = Jitter::seeded(3);
        let f1000 = contention_factor(1000, &model, &mut j);
        assert!(f1000 < 2.2, "factor at 1000 = {f1000}");
        assert!(f1000 > 1.1);
    }

    #[test]
    fn server_machine_contends_less() {
        let exp = CostModel::experimental_machine();
        let srv = CostModel::server_machine();
        // Compare without noise by averaging many draws.
        let avg = |model: &CostModel| -> f64 {
            let mut j = Jitter::seeded(1);
            (0..64)
                .map(|_| contention_factor(512, model, &mut j))
                .sum::<f64>()
                / 64.0
        };
        assert!(avg(&srv) < avg(&exp));
    }

    #[test]
    fn catalyzer_stays_under_10ms_with_many_instances() {
        let model = CostModel::experimental_machine();
        let mut engine = CatalyzerEngine::standalone(BootMode::Fork);
        let profile = AppProfile::c_hello();
        let points = sweep(&mut engine, &profile, &[0, 8, 32], &model, 42).unwrap();
        for p in &points {
            assert!(
                p.startup < SimNanos::from_millis(10),
                "{} instances: {}",
                p.running,
                p.startup
            );
        }
        // Latency grows with contention but stays the same order.
        assert!(points[2].startup < points[0].startup.saturating_mul(4));
    }
}
