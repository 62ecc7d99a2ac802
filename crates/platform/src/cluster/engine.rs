//! The per-node boot engine behind a cluster node's gateway: the single-node
//! sfork ladder extended with a *remote sfork* rung.
//!
//! A [`ClusterEngine`] owns one node's [`Catalyzer`] system and serves the
//! four-rung ladder the cluster scheduler routes over:
//!
//! 1. **local sfork** — the node holds the function's template; fork from it
//!    (byte-identical to the plain `Gateway<CatalyzerEngine>` path);
//! 2. **remote sfork** — a MITOSIS-style RDMA read of a holder node's
//!    template ([`transfer_template`]), then a local fork from the received
//!    replica. The transfer is the [`InjectionPoint::TemplateTransfer`]
//!    fault seam;
//! 3. **warm** — restore from the node's prepared zygote/snapshot state;
//! 4. **cold** — full boot; a node that never held the template also pays
//!    the cold image pull ([`names::SPAN_COLD_PULL`]).
//!
//! Every rung boots the one system in a [`BootMode`]: local and remote
//! sfork in `Fork`, then `Warm`, then `Cold` — preparing the mode's state
//! first ([`Catalyzer::warm_for`]), then booting ([`Catalyzer::boot`]).
//!
//! The scheduler sets the node's [`RouteDecision`] on its engine before each
//! call; [`BootEngine::reset_path`] starts the ladder at the decided rung,
//! so `resilient_boot`'s reset-retry-degrade loop needs no cluster-specific
//! changes — "remote" is just another rung label in `fallback.<rung>`.

use catalyzer::{BootMode, Catalyzer};
use faultsim::InjectionPoint;
use runtimes::AppProfile;
use sandbox::{BootCtx, BootEngine, BootOutcome, IsolationLevel, SandboxError};
use simtime::names;
use simtime::{CostModel, SimClock, SimNanos};

use super::{transfer_time, COLD_PULL};

/// The scheduler's per-request routing decision, as the node's engine sees
/// it: which rungs of the ladder are reachable from this node right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The node holds the function's template locally (it is a placement
    /// holder, or a completed transfer left a cached replica).
    pub local_template: bool,
    /// Some other node holds the template, so a remote sfork is possible.
    pub remote_available: bool,
}

impl RouteDecision {
    /// Route to a template-local node: the ladder starts at local sfork.
    pub fn local(remote_available: bool) -> RouteDecision {
        RouteDecision {
            local_template: true,
            remote_available,
        }
    }

    /// Route to a non-holder that remote-sforks from a holder.
    pub fn remote() -> RouteDecision {
        RouteDecision {
            local_template: false,
            remote_available: true,
        }
    }

    /// Route to a non-holder with no reachable template: cold image pull.
    pub fn cold() -> RouteDecision {
        RouteDecision {
            local_template: false,
            remote_available: false,
        }
    }
}

impl Default for RouteDecision {
    fn default() -> Self {
        RouteDecision::local(false)
    }
}

/// One rung of the cluster boot ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Rung {
    #[default]
    LocalFork,
    RemoteFork,
    Warm,
    Cold,
}

/// Charges the cross-node template transfer a remote sfork performs before
/// forking: the RDMA setup handshake plus the one-sided reads of the
/// eagerly-shipped slice of the template's state. The caller must consult
/// [`InjectionPoint::TemplateTransfer`] first — the transfer is a fault
/// seam, and `catalint`'s seamcover pass enforces the consult-before-op
/// ordering.
///
/// # Errors
///
/// None today; the `Result` keeps the seam-op signature uniform with the
/// other guarded boot operations.
pub fn transfer_template(profile: &AppProfile, ctx: &mut BootCtx) -> Result<(), SandboxError> {
    ctx.charge_span(names::SPAN_TRANSFER, transfer_time(profile));
    Ok(())
}

/// A cluster node's [`BootEngine`]: the node's own [`Catalyzer`] behind the
/// four-rung local-sfork → remote-sfork → warm → cold ladder, steered by the
/// scheduler's [`RouteDecision`]. See the module docs.
///
/// The default engine owns a fresh node-local system and is routed
/// template-local until the scheduler decides otherwise.
#[derive(Default)]
pub struct ClusterEngine {
    system: Catalyzer,
    /// The scheduler's decision for the request being served, set by
    /// `Cluster::call_node` before the call.
    pub(crate) route: RouteDecision,
    rung: Rung,
}

impl ClusterEngine {
    /// The rung the next boot will use, as a stable label.
    pub fn active_rung(&self) -> &'static str {
        match self.rung {
            Rung::LocalFork => "local",
            Rung::RemoteFork => "remote",
            Rung::Warm => "warm",
            Rung::Cold => "cold",
        }
    }
}

impl std::fmt::Debug for ClusterEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterEngine")
            .field("rung", &self.active_rung())
            .field("route", &self.route)
            .finish()
    }
}

impl BootEngine for ClusterEngine {
    fn name(&self) -> &'static str {
        BootMode::Fork.label()
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::High
    }

    fn warm(&mut self, profile: &AppProfile, model: &CostModel) -> Result<(), SandboxError> {
        self.system.warm_for(BootMode::Fork, profile, model)
    }

    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        let mode = match self.rung {
            Rung::LocalFork => BootMode::Fork,
            Rung::RemoteFork => {
                ctx.fault(InjectionPoint::TemplateTransfer)?;
                transfer_template(profile, ctx)?;
                BootMode::Fork
            }
            Rung::Warm => BootMode::Warm,
            Rung::Cold => {
                if !self.route.local_template {
                    // The image never reached this node: pull it from the
                    // registry before the full cold boot.
                    ctx.charge_span(names::SPAN_COLD_PULL, COLD_PULL);
                }
                BootMode::Cold
            }
        };
        self.system.warm_for(mode, profile, ctx.model())?;
        self.system.boot(mode, profile, ctx)
    }

    fn degrade(&mut self) -> Option<&'static str> {
        let next = match self.rung {
            Rung::LocalFork if self.route.remote_available => Rung::RemoteFork,
            Rung::LocalFork | Rung::RemoteFork => Rung::Warm,
            Rung::Warm => Rung::Cold,
            Rung::Cold => return None,
        };
        self.rung = next;
        Some(match next {
            Rung::RemoteFork => "remote",
            Rung::Warm => "warm",
            _ => "cold",
        })
    }

    fn reset_path(&mut self) {
        self.rung = if self.route.local_template {
            Rung::LocalFork
        } else if self.route.remote_available {
            Rung::RemoteFork
        } else {
            // No template reachable anywhere: the only honest start is the
            // bottom of the ladder.
            Rung::Cold
        };
    }

    fn quarantine(
        &mut self,
        profile: &AppProfile,
        point: InjectionPoint,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        // A poisoned transfer corrupted only the in-flight replica — nothing
        // durable to rebuild; the healed retry simply re-transfers. Every
        // other point delegates to the node's Catalyzer.
        if point == InjectionPoint::TemplateTransfer {
            return Ok(());
        }
        self.system.quarantine(profile, point, clock, model)
    }

    fn mark_suspect(&mut self, profile: &AppProfile, point: InjectionPoint) {
        self.system.mark_suspect(profile, point);
    }

    fn repair(
        &mut self,
        profile: &AppProfile,
        model: &CostModel,
    ) -> Result<SimNanos, SandboxError> {
        let _ = profile;
        self.system.repair_suspect(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(route: RouteDecision) -> ClusterEngine {
        ClusterEngine {
            route,
            ..ClusterEngine::default()
        }
    }

    #[test]
    fn reset_path_starts_at_the_routed_rung() {
        let mut local = engine(RouteDecision::local(true));
        local.reset_path();
        assert_eq!(local.active_rung(), "local");

        let mut remote = engine(RouteDecision::remote());
        remote.reset_path();
        assert_eq!(remote.active_rung(), "remote");

        let mut cold = engine(RouteDecision::cold());
        cold.reset_path();
        assert_eq!(cold.active_rung(), "cold");
    }

    #[test]
    fn ladder_is_local_remote_warm_cold_when_remote_is_available() {
        let mut e = engine(RouteDecision::local(true));
        e.reset_path();
        assert_eq!(e.degrade(), Some("remote"));
        assert_eq!(e.degrade(), Some("warm"));
        assert_eq!(e.degrade(), Some("cold"));
        assert_eq!(e.degrade(), None);
    }

    #[test]
    fn ladder_skips_the_remote_rung_on_a_single_node() {
        let mut e = engine(RouteDecision::local(false));
        e.reset_path();
        assert_eq!(e.degrade(), Some("warm"));
        assert_eq!(e.degrade(), Some("cold"));
        assert_eq!(e.degrade(), None);
    }

    #[test]
    fn remote_boot_charges_the_transfer_span() {
        let model = CostModel::experimental_machine();
        let mut e = engine(RouteDecision::remote());
        e.reset_path();
        let profile = AppProfile::c_hello();
        let mut ctx = BootCtx::fresh(&model);
        let (outcome, trace) = ctx.span_out("test", |ctx| e.boot(&profile, ctx).unwrap());
        assert!(outcome.boot_latency > SimNanos::ZERO);
        assert!(
            trace
                .children
                .iter()
                .any(|s| s.name == names::SPAN_TRANSFER),
            "remote sfork must record the transfer span: {trace:?}"
        );
    }

    #[test]
    fn remote_fork_is_slower_than_local_but_faster_than_cold() {
        let model = CostModel::experimental_machine();
        let profile = AppProfile::c_hello();
        let boot_at = |route: RouteDecision| {
            let mut e = engine(route);
            e.reset_path();
            // Steady state: pay template construction offline first.
            e.warm(&profile, &model).unwrap();
            let mut ctx = BootCtx::fresh(&model);
            e.boot(&profile, &mut ctx).unwrap();
            ctx.now()
        };
        let local = boot_at(RouteDecision::local(true));
        let remote = boot_at(RouteDecision::remote());
        let cold = boot_at(RouteDecision::cold());
        assert!(local < remote, "{local:?} vs {remote:?}");
        assert!(remote < cold, "{remote:?} vs {cold:?}");
    }
}
