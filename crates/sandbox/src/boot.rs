//! The common boot-engine interface and phase conventions.

use faultsim::{FaultInjector, InjectionPoint};
use runtimes::{AppProfile, WrappedProgram};
use simtime::trace::{Span, Tracer};
use simtime::{Breakdown, CostModel, SimClock, SimNanos};

use crate::host::{HostTweaks, KvmDevice};
use crate::SandboxError;

// The span and phase names themselves live in the workspace-wide registry
// (`simtime::names`); these re-exports keep the historical import path that
// every engine uses.
pub use simtime::names::{
    PHASE_APP, PHASE_RESTORE_IO, PHASE_RESTORE_KERNEL, PHASE_RESTORE_MEMORY, PHASE_SANDBOX,
    SPAN_BOOT, SPAN_EXEC,
};

/// Isolation strength, for the Fig. 3 design-space chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsolationLevel {
    /// Software process/thread isolation.
    Low,
    /// Software container isolation (shared host kernel).
    Medium,
    /// Hardware virtualization.
    High,
}

/// Everything a boot engine needs from its caller: the virtual clock being
/// charged, the calibrated cost model, and the span tracer recording where
/// the nanoseconds go.
///
/// A `BootCtx` owns clone *handles*: the clock shares its timeline with the
/// caller's clock, so charges made through the context are visible outside
/// it, and the tracer stamps spans from that same timeline. A fault
/// injector, when one is attached, is only borrowed: its owner lends it for
/// the life of the context and has it back, history intact, afterwards.
///
/// # Example
///
/// ```
/// use sandbox::BootCtx;
/// use simtime::{CostModel, SimClock, SimNanos};
///
/// let clock = SimClock::new();
/// let mut ctx = BootCtx::new(&clock, &CostModel::experimental_machine());
/// ctx.span("sandbox:spawn", |ctx| {
///     let cost = ctx.model().host.process_spawn;
///     ctx.charge(cost);
/// });
/// assert_eq!(clock.now(), ctx.now());
/// ```
///
/// Spans open and close only through the closure-scoped methods, so none
/// can stay open across a `?`. A caller that needs the finished tree takes
/// it from [`BootCtx::span_out`]:
///
/// ```
/// use sandbox::BootCtx;
/// use simtime::{CostModel, SimNanos};
///
/// let mut ctx = BootCtx::fresh(&CostModel::experimental_machine());
/// let (out, span) = ctx.span_out("invoke:f", |ctx| {
///     ctx.charge_span("boot", SimNanos::from_micros(3));
///     Err::<(), &str>("early return")
/// });
/// assert!(out.is_err());
/// assert_eq!(span.duration(), SimNanos::from_micros(3));
/// ```
///
/// and there is no raw begin/end handle to hold instead:
///
/// ```compile_fail,E0599
/// use sandbox::BootCtx;
/// use simtime::CostModel;
///
/// let mut ctx = BootCtx::fresh(&CostModel::experimental_machine());
/// ctx.tracer_mut().begin("invoke:f"); // the tracer is private to `BootCtx`
/// ```
#[derive(Debug)]
pub struct BootCtx<'a> {
    clock: SimClock,
    model: CostModel,
    tracer: Tracer,
    injector: Option<&'a mut FaultInjector>,
}

impl<'a> BootCtx<'a> {
    /// Creates a context charging `clock` under `model`.
    pub fn new(clock: &SimClock, model: &CostModel) -> BootCtx<'a> {
        BootCtx {
            clock: clock.clone(),
            model: model.clone(),
            tracer: Tracer::new(clock),
            injector: None,
        }
    }

    /// Creates a context with its own clock at time zero — the common case
    /// for one-shot boots where only the outcome matters.
    pub fn fresh(model: &CostModel) -> BootCtx<'a> {
        BootCtx::new(&SimClock::new(), model)
    }

    /// The clock being charged.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Current virtual time.
    pub fn now(&self) -> SimNanos {
        self.clock.now()
    }

    /// Advances the clock by `cost`.
    pub fn charge(&self, cost: SimNanos) {
        self.clock.charge(cost);
    }

    /// Runs `f` inside a span named `name`: every charge and nested span
    /// lands inside it.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut BootCtx) -> T) -> T {
        self.tracer.begin(name);
        let out = f(self);
        self.tracer.end();
        out
    }

    /// Like [`BootCtx::span`], but also returns the completed [`Span`].
    pub fn span_out<T>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut BootCtx) -> T,
    ) -> (T, Span) {
        self.tracer.begin(name);
        let out = f(self);
        let span = self.tracer.end();
        (out, span)
    }

    /// Records a leaf span with an already-known cost, charging the clock.
    pub fn charge_span(&mut self, name: impl Into<String>, cost: SimNanos) {
        self.tracer.charge_span(name, cost);
    }

    /// Borrows `injector` for the life of the context, builder-style.
    /// Engines consult it through [`BootCtx::fault`] at the named injection
    /// points; without one, every consultation is free and the context
    /// behaves exactly as before. The caller keeps ownership, so its fault
    /// history survives the context — early returns included.
    pub fn with_injector(mut self, injector: &'a mut FaultInjector) -> BootCtx<'a> {
        self.injector = Some(injector);
        self
    }

    /// Heals `point` in the borrowed injector, if any, once a quarantine
    /// has rebuilt the state its poison corrupted.
    pub fn heal(&mut self, point: InjectionPoint) {
        if let Some(injector) = self.injector.as_deref_mut() {
            injector.heal(point);
        }
    }

    /// Consults the fault schedule at `point` immediately before the real
    /// operation.
    ///
    /// With no injector attached — or when the schedule does not fire — this
    /// returns `Ok(())` at zero cost: no clock charge, no span, leaving the
    /// boot byte-identical to a run without faultsim. When a fault fires,
    /// the failing operation's detection latency is charged inside a
    /// `fault:<point>` span (so the failure is visible in the trace exactly
    /// where it happened) and the typed fault comes back as
    /// [`SandboxError::Fault`].
    ///
    /// # Errors
    ///
    /// [`SandboxError::Fault`] when the schedule fires at this consultation.
    pub fn fault(&mut self, point: InjectionPoint) -> Result<(), SandboxError> {
        let Some(injector) = self.injector.as_deref_mut() else {
            return Ok(());
        };
        match injector.check(point, self.clock.now()) {
            None => Ok(()),
            Some(fault) => {
                self.charge_span(simtime::names::fault_span(&point.to_string()), fault.delay);
                Err(SandboxError::Fault(fault))
            }
        }
    }

    /// Completed top-level spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        self.tracer.roots()
    }
}

/// The result of booting one sandbox: a program parked at its handler,
/// ready to serve, plus full latency accounting.
#[derive(Debug)]
pub struct BootOutcome {
    /// Which engine produced this boot.
    pub system: &'static str,
    /// Total startup latency (gateway request → handler ready).
    pub boot_latency: SimNanos,
    /// Ordered phase breakdown (the root span's direct children).
    pub breakdown: Breakdown,
    /// The full nested span tree for this boot, rooted at [`SPAN_BOOT`].
    pub trace: Span,
    /// The booted program (invoke its handler to serve requests).
    pub program: WrappedProgram,
}

impl BootOutcome {
    /// Latency attributed to sandbox initialization (Fig. 4).
    pub fn sandbox_time(&self) -> SimNanos {
        self.breakdown
            .total_matching(|n| n.starts_with(PHASE_SANDBOX))
    }

    /// Latency attributed to application initialization (Fig. 4). Restore
    /// phases count here: they are the *transformed* application-init cost.
    pub fn app_time(&self) -> SimNanos {
        self.breakdown.total_matching(|n| {
            n == PHASE_APP || n.starts_with(simtime::names::PHASE_RESTORE_PREFIX)
        })
    }

    /// The Fig. 12 three-way split: (kernel, memory, io) restore costs.
    pub fn restore_split(&self) -> (SimNanos, SimNanos, SimNanos) {
        (
            self.breakdown.total_for(PHASE_RESTORE_KERNEL),
            self.breakdown.total_for(PHASE_RESTORE_MEMORY),
            self.breakdown.total_for(PHASE_RESTORE_IO),
        )
    }
}

/// A serverless sandbox design: boots function instances.
///
/// Engines are stateful where the design is (image caches, zygote pools,
/// templates); `boot` may be called repeatedly and concurrently-ish (the
/// simulation is single-threaded, but instances must not alias state they
/// should not share).
pub trait BootEngine {
    /// Engine name as printed in the paper's figures.
    fn name(&self) -> &'static str;

    /// Where the design sits in Fig. 3.
    fn isolation(&self) -> IsolationLevel;

    /// Boots one instance of `profile`, charging the context's clock for
    /// everything on the startup critical path and recording a nested span
    /// tree rooted at [`SPAN_BOOT`] (use [`traced_boot`]).
    ///
    /// # Errors
    ///
    /// Any [`SandboxError`] from the substrates.
    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError>;

    /// Prepares `profile` off the boot critical path — templates, zygotes,
    /// compiled snapshot images. Engines with no offline work accept the
    /// default no-op; the platform exposes this as `Gateway::warm`.
    ///
    /// # Errors
    ///
    /// Any [`SandboxError`] from the preparation work.
    fn warm(&mut self, profile: &AppProfile, model: &CostModel) -> Result<(), SandboxError> {
        let _ = (profile, model);
        Ok(())
    }

    /// Steps the engine one rung down its boot ladder after a failed boot,
    /// returning a label for the new path (e.g. `"warm"`, `"cold"`) or
    /// `None` when there is nothing cheaper-but-slower left to try.
    ///
    /// Single-path engines have no ladder; the default declines.
    fn degrade(&mut self) -> Option<&'static str> {
        None
    }

    /// Restores the engine's preferred boot path after
    /// [`degrade`](BootEngine::degrade) moved it, so one request's
    /// degradation does not become permanent. No-op for single-path engines.
    fn reset_path(&mut self) {}

    /// Discards and rebuilds the prepared state that a poison fault at
    /// `point` corrupted, charging `clock` for the rebuild. The point names
    /// *which* prepared state is poisoned — a zygote-specialize poison
    /// implicates the pooled zygote bases, an sfork-merge poison the
    /// function's template sandbox — so engines rebuild only what the fault
    /// actually touched. Engines without prepared state accept the no-op
    /// default.
    ///
    /// # Errors
    ///
    /// Any [`SandboxError`] from the rebuild.
    fn quarantine(
        &mut self,
        profile: &AppProfile,
        point: InjectionPoint,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        let _ = (profile, point, clock, model);
        Ok(())
    }

    /// Marks the prepared state poisoned at `point` as *suspect* without
    /// rebuilding anything — the deferred-quarantine half of the self-healing
    /// pool protocol: the request path records the damage for free, and a
    /// background [`repair`](BootEngine::repair) pass later pays the rebuild
    /// off the critical path. No-op for engines without prepared state.
    fn mark_suspect(&mut self, profile: &AppProfile, point: InjectionPoint) {
        let _ = (profile, point);
    }

    /// Rebuilds every piece of prepared state previously
    /// [`mark_suspect`](BootEngine::mark_suspect)ed, off the request path,
    /// returning the virtual repair time spent (`ZERO` when nothing was
    /// suspect). Engines without prepared state accept the default.
    ///
    /// # Errors
    ///
    /// Any [`SandboxError`] from the rebuild.
    fn repair(
        &mut self,
        profile: &AppProfile,
        model: &CostModel,
    ) -> Result<SimNanos, SandboxError> {
        let _ = (profile, model);
        Ok(SimNanos::ZERO)
    }
}

/// A boxed engine is an engine: every method — including the ones with
/// provided defaults — delegates to the underlying implementation, so
/// type-erased fleets (`Box<dyn BootEngine>` behind one factory) behave
/// byte-for-byte like their concrete counterparts.
impl BootEngine for Box<dyn BootEngine> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn isolation(&self) -> IsolationLevel {
        (**self).isolation()
    }

    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        (**self).boot(profile, ctx)
    }

    fn warm(&mut self, profile: &AppProfile, model: &CostModel) -> Result<(), SandboxError> {
        (**self).warm(profile, model)
    }

    fn degrade(&mut self) -> Option<&'static str> {
        (**self).degrade()
    }

    fn reset_path(&mut self) {
        (**self).reset_path()
    }

    fn quarantine(
        &mut self,
        profile: &AppProfile,
        point: InjectionPoint,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        (**self).quarantine(profile, point, clock, model)
    }

    fn mark_suspect(&mut self, profile: &AppProfile, point: InjectionPoint) {
        (**self).mark_suspect(profile, point)
    }

    fn repair(
        &mut self,
        profile: &AppProfile,
        model: &CostModel,
    ) -> Result<SimNanos, SandboxError> {
        (**self).repair(profile, model)
    }
}

/// Wraps an engine's boot body in the [`SPAN_BOOT`] root span and assembles
/// the [`BootOutcome`] from the finished span: `boot_latency` is the span's
/// duration and `breakdown` its direct children, so the flat report and the
/// tree can never disagree.
///
/// # Errors
///
/// Propagates the closure's error (the root span still closes, keeping the
/// tracer balanced).
pub fn traced_boot(
    system: &'static str,
    ctx: &mut BootCtx,
    f: impl FnOnce(&mut BootCtx) -> Result<WrappedProgram, SandboxError>,
) -> Result<BootOutcome, SandboxError> {
    let (program, span) = ctx.span_out(SPAN_BOOT, f);
    Ok(BootOutcome {
        system,
        boot_latency: span.duration(),
        breakdown: span.to_breakdown(),
        trace: span,
        program: program?,
    })
}

/// Shared helper: hardware-virtualization setup (KVM VM, VCPUs, memory
/// regions) as performed by every VM-based engine.
pub(crate) fn virtualization_setup(
    tweaks: HostTweaks,
    vcpus: u32,
    regions: u64,
    clock: &SimClock,
    model: &CostModel,
) -> KvmDevice {
    let mut kvm = KvmDevice::create(tweaks, clock, model);
    for _ in 0..vcpus {
        kvm.create_vcpu(clock, model);
    }
    // KVM management allocations taken during VM construction.
    kvm.kvcalloc(clock, model);
    kvm.kvcalloc(clock, model);
    for _ in 0..regions {
        kvm.set_memory_region(clock, model);
    }
    kvm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_levels_order() {
        assert!(IsolationLevel::Low < IsolationLevel::Medium);
        assert!(IsolationLevel::Medium < IsolationLevel::High);
    }

    #[test]
    fn virtualization_setup_charges() {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let kvm = virtualization_setup(HostTweaks::baseline(), 2, 3, &clock, &model);
        assert_eq!(kvm.vcpus(), 2);
        assert_eq!(kvm.regions(), 3);
        // Fig. 2 calibration: gVisor's "create and initialize
        // kernel/platform" step lands near 0.757 ms + region setup.
        let ms = clock.now().as_millis_f64();
        assert!((0.5..1.6).contains(&ms), "setup cost {ms} ms");
    }
}
