//! The Catalyzer facade: one object owning the func-image store, the Zygote
//! pool, and the template sandboxes, dispatching the three boot kinds of
//! Fig. 7.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use faultsim::InjectionPoint;
use runtimes::{AppProfile, RuntimeKind};
use sandbox::{BootCtx, BootEngine, BootOutcome, IsolationLevel, SandboxError};
use simtime::{CostModel, SimClock, SimNanos};

use crate::restore::restore_boot;
use crate::sfork::{LanguageTemplate, Template};
use crate::store::FuncImageStore;
use crate::zygote::ZygotePool;
use crate::CatalyzerConfig;

/// The three boot kinds (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootMode {
    /// Restore from the func-image (map-file); builds the sandbox fresh.
    Cold,
    /// Restore sharing running instances' Base-EPT and a Zygote sandbox.
    Warm,
    /// `sfork` from a running template sandbox.
    Fork,
}

impl BootMode {
    /// Label as printed in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            BootMode::Cold => "Catalyzer-restore",
            BootMode::Warm => "Catalyzer-Zygote",
            BootMode::Fork => "Catalyzer-sfork",
        }
    }
}

/// The Catalyzer system: init-less booting with on-demand restore and sfork.
#[derive(Debug)]
pub struct Catalyzer {
    config: CatalyzerConfig,
    store: FuncImageStore,
    zygotes: ZygotePool,
    templates: BTreeMap<String, Template>,
    lang_templates: BTreeMap<RuntimeKind, LanguageTemplate>,
    suspect_templates: BTreeSet<String>,
}

impl Catalyzer {
    /// The full system.
    pub fn new() -> Catalyzer {
        Catalyzer::with_config(CatalyzerConfig::full())
    }

    /// A system with selected techniques (ablations, Fig. 12).
    pub fn with_config(config: CatalyzerConfig) -> Catalyzer {
        Catalyzer {
            config,
            store: FuncImageStore::new(),
            zygotes: ZygotePool::new(config.tweaks),
            templates: BTreeMap::new(),
            lang_templates: BTreeMap::new(),
            suspect_templates: BTreeSet::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CatalyzerConfig {
        &self.config
    }

    /// The func-image store (Table 3 sizes etc.).
    pub fn store(&self) -> &FuncImageStore {
        &self.store
    }

    /// Compiles the func-image for `profile` offline, if needed.
    ///
    /// # Errors
    ///
    /// Substrate errors from the offline run.
    pub fn prewarm_image(
        &mut self,
        profile: &AppProfile,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        self.store.ensure_compiled(profile, model)?;
        Ok(())
    }

    /// Generates (offline) the template sandbox that fork boot requires.
    ///
    /// # Errors
    ///
    /// Substrate errors from template generation.
    pub fn ensure_template(
        &mut self,
        profile: &AppProfile,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        if !self.templates.contains_key(&profile.name) {
            self.templates
                .insert(profile.name.clone(), Template::generate(profile, model)?);
        }
        Ok(())
    }

    /// Generates (offline) the per-language runtime template (§4.3).
    ///
    /// # Errors
    ///
    /// Substrate errors from template generation.
    pub fn ensure_language_template(
        &mut self,
        runtime: RuntimeKind,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        if let std::collections::btree_map::Entry::Vacant(e) = self.lang_templates.entry(runtime) {
            e.insert(LanguageTemplate::generate(runtime, model)?);
        }
        Ok(())
    }

    /// Performs the offline preparation `mode` requires: template
    /// generation for fork boot, a simulated pre-existing instance for warm
    /// boot, image compilation for cold boot.
    ///
    /// # Errors
    ///
    /// Substrate errors from template generation or the warm-up boot.
    pub fn warm_for(
        &mut self,
        mode: BootMode,
        profile: &AppProfile,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        match mode {
            BootMode::Fork => self.ensure_template(profile, model),
            BootMode::Warm => {
                if !self.store.contains(&profile.name) {
                    // Warm boot presumes running instances: simulate the
                    // pre-existing cold boot off the critical path.
                    self.prewarm_image(profile, model)?;
                    let mut warmup = BootCtx::fresh(model);
                    self.boot(BootMode::Cold, profile, &mut warmup)?;
                }
                Ok(())
            }
            BootMode::Cold => self.prewarm_image(profile, model),
        }
    }

    /// Boots one instance with the requested mode.
    ///
    /// Warm boot keeps the Zygote pool topped up offline (a background
    /// daemon in the real system); fork boot requires
    /// [`Catalyzer::ensure_template`] to have run.
    ///
    /// # Errors
    ///
    /// [`SandboxError::Config`] for fork boot without a template; substrate
    /// errors otherwise.
    pub fn boot(
        &mut self,
        mode: BootMode,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        match mode {
            BootMode::Cold => restore_boot(
                mode,
                &self.config,
                &mut self.store,
                &mut self.zygotes,
                profile,
                ctx,
            ),
            BootMode::Warm => {
                if self.config.zygotes {
                    self.zygotes.refill(1, ctx.model())?; // maintained offline
                }
                restore_boot(
                    mode,
                    &self.config,
                    &mut self.store,
                    &mut self.zygotes,
                    profile,
                    ctx,
                )
            }
            BootMode::Fork => {
                let template =
                    self.templates
                        .get_mut(&profile.name)
                        .ok_or_else(|| SandboxError::Config {
                            detail: format!("no template sandbox for '{}'", profile.name),
                        })?;
                template.fork_boot(&self.config, ctx)
            }
        }
    }

    /// Cold boot through the per-language runtime template (Table 2).
    ///
    /// # Errors
    ///
    /// [`SandboxError::Config`] if the language template is missing.
    pub fn language_template_boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        let config = self.config;
        let lt = self
            .lang_templates
            .get_mut(&profile.runtime)
            .ok_or_else(|| SandboxError::Config {
                detail: format!("no language template for {}", profile.runtime),
            })?;
        lt.boot_function(profile, &config, ctx)
    }

    /// Table 3: per-function warm-boot memory costs, `(metadata bytes,
    /// I/O-cache bytes)`.
    ///
    /// # Errors
    ///
    /// [`SandboxError::Config`] if the func-image is not compiled yet.
    pub fn warm_memory_costs(
        &self,
        function: &str,
        model: &CostModel,
    ) -> Result<(u64, u64), SandboxError> {
        let stored = self
            .store
            .get(function)
            .ok_or_else(|| SandboxError::Config {
                detail: format!("func-image for '{function}' not compiled"),
            })?;
        let manifest = stored.flat.read_io_manifest(&SimClock::new(), model)?;
        let cache_bytes: u64 = manifest
            .iter()
            .filter(|c| c.used_immediately)
            .map(|c| c.wire_size() as u64)
            .sum();
        Ok((stored.flat.metadata_bytes(), cache_bytes))
    }

    /// Total offline virtual time spent (image compilation + zygote refills;
    /// template generation is tracked per template).
    pub fn offline_time(&self) -> SimNanos {
        self.store
            .offline_time()
            .saturating_add(self.zygotes.offline_time())
    }

    /// Quarantines the prepared state a poison fault at `point` corrupted,
    /// *and only that state*: a zygote-specialize poison discards the pooled
    /// Zygotes (they share the base the poisoned specialization came from),
    /// an sfork-merge poison regenerates `profile`'s template sandbox from
    /// scratch with the rebuild time charged to `clock` — quarantine is on
    /// the recovery critical path, unlike routine offline template work.
    /// Scoping the rebuild to the poisoned point matters on the fallback
    /// ladder: a zygote poison absorbed on the warm rung must not re-charge
    /// a template rebuild the fork rung already paid for.
    ///
    /// # Errors
    ///
    /// Substrate errors from template regeneration.
    pub fn quarantine(
        &mut self,
        profile: &AppProfile,
        point: InjectionPoint,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        match point {
            InjectionPoint::ZygoteSpecialize => {
                self.zygotes.drain();
            }
            InjectionPoint::SforkMerge if self.templates.remove(&profile.name).is_some() => {
                let rebuilt = Template::generate(profile, model)?;
                clock.charge(rebuilt.offline_time());
                self.templates.insert(profile.name.clone(), rebuilt);
            }
            // Other points fault I/O or mappings, not prepared state.
            _ => {}
        }
        Ok(())
    }

    /// Records (for free) that the prepared state at `point` is suspect —
    /// the deferred-quarantine entry point. [`Catalyzer::repair_suspect`]
    /// later rebuilds everything recorded here, off the request path.
    pub fn mark_suspect(&mut self, profile: &AppProfile, point: InjectionPoint) {
        match point {
            InjectionPoint::ZygoteSpecialize => self.zygotes.mark_suspect(),
            InjectionPoint::SforkMerge => {
                self.suspect_templates.insert(profile.name.clone());
            }
            _ => {}
        }
    }

    /// True when any prepared state is awaiting repair.
    pub fn has_suspect_state(&self) -> bool {
        self.zygotes.is_suspect() || !self.suspect_templates.is_empty()
    }

    /// Rebuilds every suspect template and the zygote pool (when suspect)
    /// offline, returning the total virtual repair time. The asynchronous
    /// half of deferred quarantine: a background daemon pays this, not the
    /// request that tripped the poison.
    ///
    /// # Errors
    ///
    /// Substrate errors from the rebuilds.
    pub fn repair_suspect(&mut self, model: &CostModel) -> Result<SimNanos, SandboxError> {
        let mut spent = SimNanos::ZERO;
        let names = std::mem::take(&mut self.suspect_templates);
        for name in names {
            let Some(template) = self.templates.remove(&name) else {
                continue;
            };
            let profile = template.profile().clone();
            let rebuilt = Template::generate(&profile, model)?;
            spent = spent.saturating_add(rebuilt.offline_time());
            self.templates.insert(name, rebuilt);
        }
        let (_evicted, zygote_spent) = self.zygotes.repair(model)?;
        Ok(spent.saturating_add(zygote_spent))
    }
}

impl Default for Catalyzer {
    fn default() -> Self {
        Catalyzer::new()
    }
}

/// A [`BootEngine`] adapter preferring one [`BootMode`], so Catalyzer
/// variants slot into the same harnesses as the baseline engines.
///
/// The preferred mode is also the top of the engine's *fallback ladder*
/// (fork → warm → cold): [`BootEngine::degrade`] steps the active mode one
/// rung down after a failed boot, and [`BootEngine::reset_path`] restores
/// the preferred mode so one request's degradation is not permanent.
///
/// The shared Catalyzer sits in a `RefCell`, one of three that
/// `crates/clippy.toml` lets through: every borrow below is one statement,
/// and `boot` borrows only after `warm` has returned. A borrow taken
/// across another panics in the tier-1 boot tests.
#[expect(
    clippy::disallowed_types,
    reason = "modes of one deployment share one Catalyzer, and the benchmark builds the cell"
)]
pub struct CatalyzerEngine {
    inner: Rc<std::cell::RefCell<Catalyzer>>,
    preferred: BootMode,
    current: BootMode,
}

#[expect(
    clippy::disallowed_types,
    reason = "the constructors take and build the cell `CatalyzerEngine` holds"
)]
impl CatalyzerEngine {
    /// Wraps a shared Catalyzer with a preferred boot mode.
    pub fn new(inner: Rc<std::cell::RefCell<Catalyzer>>, mode: BootMode) -> CatalyzerEngine {
        CatalyzerEngine {
            inner,
            preferred: mode,
            current: mode,
        }
    }

    /// Convenience: a standalone engine with its own Catalyzer instance.
    pub fn standalone(mode: BootMode) -> CatalyzerEngine {
        CatalyzerEngine::new(Rc::new(std::cell::RefCell::new(Catalyzer::new())), mode)
    }
}

impl fmt::Debug for CatalyzerEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CatalyzerEngine")
            .field("preferred", &self.preferred)
            .field("current", &self.current)
            .finish()
    }
}

impl BootEngine for CatalyzerEngine {
    fn name(&self) -> &'static str {
        self.preferred.label()
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::High
    }

    fn warm(&mut self, profile: &AppProfile, model: &CostModel) -> Result<(), SandboxError> {
        // Single-statement borrow: the guard drops before the Result
        // propagates, so no `?` ever fires while the cell is held.
        self.inner
            .borrow_mut()
            .warm_for(self.current, profile, model)
    }

    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        self.warm(profile, ctx.model())?;
        let mut system = self.inner.borrow_mut();
        system.boot(self.current, profile, ctx)
    }

    fn degrade(&mut self) -> Option<&'static str> {
        let next = match self.current {
            BootMode::Fork => BootMode::Warm,
            BootMode::Warm => BootMode::Cold,
            BootMode::Cold => return None,
        };
        self.current = next;
        Some(match next {
            BootMode::Warm => "warm",
            _ => "cold",
        })
    }

    fn reset_path(&mut self) {
        self.current = self.preferred;
    }

    fn quarantine(
        &mut self,
        profile: &AppProfile,
        point: InjectionPoint,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), SandboxError> {
        self.inner
            .borrow_mut()
            .quarantine(profile, point, clock, model)
    }

    fn mark_suspect(&mut self, profile: &AppProfile, point: InjectionPoint) {
        self.inner.borrow_mut().mark_suspect(profile, point);
    }

    fn repair(
        &mut self,
        profile: &AppProfile,
        model: &CostModel,
    ) -> Result<SimNanos, SandboxError> {
        let _ = profile;
        self.inner.borrow_mut().repair_suspect(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::experimental_machine()
    }

    #[test]
    fn warm_beats_cold_beats_gvisor_restore() {
        let model = model();
        let profile = AppProfile::python_django();
        let mut cat = Catalyzer::new();

        let mut cold_ctx = BootCtx::fresh(&model);
        cat.boot(BootMode::Cold, &profile, &mut cold_ctx).unwrap();
        let mut warm_ctx = BootCtx::fresh(&model);
        cat.boot(BootMode::Warm, &profile, &mut warm_ctx).unwrap();

        assert!(warm_ctx.now() < cold_ctx.now());
        // Paper: restore ≈ zygote + ~30 ms.
        let gap = cold_ctx
            .now()
            .saturating_sub(warm_ctx.now())
            .as_millis_f64();
        assert!((15.0..45.0).contains(&gap), "cold-warm gap {gap} ms");
    }

    /// The read side of the copy budget is zero bytes, asserted (ROADMAP
    /// 2(d)): after a cold boot and a read of every heap page, the whole
    /// heap is resident as views of the mapped image — nothing was copied
    /// out of it, and the restored kernel objects' payloads are views too.
    #[test]
    fn cold_restore_and_a_full_read_sweep_copy_nothing() {
        let model = model();
        let profile = AppProfile::python_hello();
        let mut cat = Catalyzer::new();
        let mut ctx = BootCtx::fresh(&model);
        let mut boot = cat.boot(BootMode::Cold, &profile, &mut ctx).unwrap();
        let space = &mut boot.program.space;
        space
            .touch_range(profile.heap_range(), false, ctx.clock(), &model)
            .unwrap();
        assert_eq!(space.stats().bytes_copied, 0);
        assert_eq!(space.stats().cow_faults, 0);

        let stored = cat.store().get(&profile.name).unwrap();
        let image = stored.flat.image().raw_bytes().as_ptr_range();
        let inside = |bytes: &[u8]| {
            let bytes = bytes.as_ptr_range();
            image.start <= bytes.start && bytes.end <= image.end
        };
        let mut resident = 0;
        stored.base.as_ref().unwrap().for_each(|vpn, entry| {
            if let memsim::EptEntry::Present { frame } = entry {
                resident += 1;
                assert!(frame.is_image_backed(), "page {vpn} was copied");
                assert!(inside(frame.bytes()), "page {vpn} left the image");
            }
        });
        assert_eq!(resident, stored.flat.app_page_count());
        let records = stored
            .flat
            .restore_metadata(&simtime::SimClock::new(), &model)
            .unwrap();
        assert!(records.iter().all(|record| inside(record.payload())));
    }

    #[test]
    fn zygote_warm_boot_latencies_match_paper() {
        // Paper §6.2: warm (Zygote) boot ≈ C 5 / Java 14 / Python 9 /
        // Ruby 12 / Node 9 ms. Allow ±45 % bands.
        let model = model();
        let cases = [
            (AppProfile::c_hello(), 5.0),
            (AppProfile::java_hello(), 14.0),
            (AppProfile::python_hello(), 9.0),
            (AppProfile::ruby_hello(), 12.0),
            (AppProfile::node_hello(), 9.0),
        ];
        for (profile, expect_ms) in cases {
            let mut engine = CatalyzerEngine::standalone(BootMode::Warm);
            let mut ctx = BootCtx::fresh(&model);
            engine.boot(&profile, &mut ctx).unwrap();
            let ms = ctx.now().as_millis_f64();
            assert!(
                (expect_ms * 0.4..expect_ms * 1.6).contains(&ms),
                "{}: warm boot {ms} ms (paper {expect_ms})",
                profile.name
            );
        }
    }

    #[test]
    fn fork_requires_template() {
        let model = model();
        let mut cat = Catalyzer::new();
        let err = cat
            .boot(
                BootMode::Fork,
                &AppProfile::c_hello(),
                &mut BootCtx::fresh(&model),
            )
            .unwrap_err();
        assert!(matches!(err, SandboxError::Config { .. }));
        cat.ensure_template(&AppProfile::c_hello(), &model).unwrap();
        cat.boot(
            BootMode::Fork,
            &AppProfile::c_hello(),
            &mut BootCtx::fresh(&model),
        )
        .unwrap();
    }

    #[test]
    fn quarantine_scopes_rebuild_to_the_poisoned_point() {
        let model = model();
        let profile = AppProfile::c_hello();
        let mut cat = Catalyzer::new();
        cat.ensure_template(&profile, &model).unwrap();

        // A zygote poison drains the pooled bases but must not re-charge a
        // template rebuild: the request clock stays untouched.
        let clock = SimClock::new();
        cat.quarantine(&profile, InjectionPoint::ZygoteSpecialize, &clock, &model)
            .unwrap();
        assert_eq!(clock.now(), SimNanos::ZERO, "zygote drain is free");

        // A template poison pays the rebuild on the request clock.
        let clock = SimClock::new();
        cat.quarantine(&profile, InjectionPoint::SforkMerge, &clock, &model)
            .unwrap();
        assert!(clock.now() > SimNanos::from_millis(1), "rebuild is charged");

        // Non-prepared-state points quarantine nothing.
        let clock = SimClock::new();
        cat.quarantine(&profile, InjectionPoint::Relink, &clock, &model)
            .unwrap();
        assert_eq!(clock.now(), SimNanos::ZERO);
    }

    #[test]
    fn deferred_repair_runs_off_the_request_path() {
        let model = model();
        let profile = AppProfile::c_hello();
        let mut cat = Catalyzer::new();
        cat.ensure_template(&profile, &model).unwrap();

        cat.mark_suspect(&profile, InjectionPoint::SforkMerge);
        cat.mark_suspect(&profile, InjectionPoint::ZygoteSpecialize);
        assert!(cat.has_suspect_state());

        let spent = cat.repair_suspect(&model).unwrap();
        assert!(spent > SimNanos::from_millis(1), "repair did real work");
        assert!(!cat.has_suspect_state());
        // Repaired state still boots.
        cat.boot(BootMode::Fork, &profile, &mut BootCtx::fresh(&model))
            .unwrap();
        assert_eq!(cat.repair_suspect(&model).unwrap(), SimNanos::ZERO);
    }

    #[test]
    fn restored_instance_serves_correct_state() {
        let model = model();
        let mut ctx = BootCtx::fresh(&model);
        let mut cat = Catalyzer::new();
        let mut boot = cat
            .boot(BootMode::Cold, &AppProfile::c_nginx(), &mut ctx)
            .unwrap();
        // The handler's internal debug_assert verifies the restored heap
        // pattern byte-for-byte.
        let exec = boot.program.invoke_handler(ctx.clock(), &model).unwrap();
        assert!(exec.pages_touched > 0);
        assert!(exec.syscalls > 0);
    }

    #[test]
    fn warm_boots_share_base_ept() {
        let model = model();
        let profile = AppProfile::python_hello();
        let mut cat = Catalyzer::new();
        cat.boot(BootMode::Cold, &profile, &mut BootCtx::fresh(&model))
            .unwrap();

        let mut a = cat
            .boot(BootMode::Warm, &profile, &mut BootCtx::fresh(&model))
            .unwrap();
        let mut b = cat
            .boot(BootMode::Warm, &profile, &mut BootCtx::fresh(&model))
            .unwrap();
        let clock = SimClock::new();
        a.program.invoke_handler(&clock, &model).unwrap();
        b.program.invoke_handler(&clock, &model).unwrap();
        let usage = memsim::accounting::usage(&[&a.program.space, &b.program.space]);
        // Shared base pages make PSS strictly smaller than RSS.
        assert!(usage[0].pss_bytes < usage[0].rss_bytes);
    }

    #[test]
    fn table3_costs_are_kb_scale() {
        let model = model();
        let mut cat = Catalyzer::new();
        let profile = AppProfile::c_nginx();
        cat.prewarm_image(&profile, &model).unwrap();
        let (meta, io) = cat.warm_memory_costs(&profile.name, &model).unwrap();
        assert!(meta > 10 << 10, "metadata {meta} B");
        assert!(meta < 4 << 20, "metadata {meta} B");
        assert!(io > 0 && io < 8 << 10, "io cache {io} B");
        assert!(cat.warm_memory_costs("nope", &model).is_err());
    }

    #[test]
    fn ablation_ladder_improves_monotonically() {
        let model = model();
        let profile = AppProfile::java_specjbb();
        let mut latencies = Vec::new();
        for config in [
            CatalyzerConfig::overlay_only(),
            CatalyzerConfig::overlay_and_separated(),
            CatalyzerConfig::overlay_separated_lazy(),
        ] {
            let mut cat = Catalyzer::with_config(config);
            let mut ctx = BootCtx::fresh(&model);
            cat.boot(BootMode::Cold, &profile, &mut ctx).unwrap();
            latencies.push(ctx.now());
        }
        assert!(latencies[0] > latencies[1], "{latencies:?}");
        assert!(latencies[1] > latencies[2], "{latencies:?}");
    }
}
