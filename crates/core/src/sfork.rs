//! The `sfork` (sandbox fork) primitive and template sandboxes (paper §4).
//!
//! A **template sandbox** is a function instance initialized to its
//! func-entry point that holds *no request state*. It runs in template mode
//! (Table-1-denied syscalls error) and keeps its Sentry threads merged into
//! the transient single thread, so it can duplicate itself at any moment:
//!
//! - user and guest-kernel memory duplicate copy-on-write (including
//!   `MAP_SHARED` regions carrying the paper's new CoW flag);
//! - the stateless overlay rootFS clones its in-memory upper layer, while
//!   read-only gofer descriptors are inherited as-is;
//! - PID/USER namespaces keep identity-derived state consistent;
//! - the child re-expands to the full thread set from saved contexts.
//!
//! [`LanguageTemplate`] (§4.3) is a template holding only an initialized
//! language runtime; it serves *cold* boots of any function in that language
//! by sforking and then loading the function's own classes (Table 2).

use std::fmt;

use faultsim::InjectionPoint;
use runtimes::{heap_page_byte, AppProfile, RuntimeKind, WrappedProgram};
use sandbox::{traced_boot, BootCtx, BootOutcome, SandboxError};
use simtime::names;
use simtime::{CostModel, SimClock, SimNanos};

use crate::store::init_to_entry_point;
use crate::CatalyzerConfig;

/// Pages covered by one last-level page table (the granularity at which
/// `sfork` copies page-table structure). `memsim`'s private layer is built
/// of leaf tables of the same span, so the `copy-page-tables` charge counts
/// the references `AddressSpace::sfork_clone` really takes.
const PTE_TABLE_SPAN: u64 = 512;

/// A template sandbox for one function.
pub struct Template {
    profile: AppProfile,
    program: WrappedProgram,
    layout_cookie: u64,
    forks: u64,
    offline: SimClock,
}

impl Template {
    /// Generates a template (offline): initialize the wrapped program to its
    /// func-entry point, switch the kernel into template mode, and merge the
    /// Sentry threads into the transient single thread.
    ///
    /// # Errors
    ///
    /// Substrate errors from initialization or the thread merge.
    pub fn generate(profile: &AppProfile, model: &CostModel) -> Result<Template, SandboxError> {
        let offline = SimClock::new();
        let program = init_to_entry_point(profile, profile.build_fs_server(), &offline, model)?;
        Template::from_entry_point(profile, program, offline, model)
    }

    /// Makes the template of `program`, already run to its func-entry point
    /// on `offline`: template mode, then the Sentry thread merge, charged to
    /// the same clock — so the template's offline time reads init + merge,
    /// as [`Template::generate`]'s does.
    ///
    /// # Errors
    ///
    /// Substrate errors from the thread merge.
    pub(crate) fn from_entry_point(
        profile: &AppProfile,
        mut program: WrappedProgram,
        offline: SimClock,
        model: &CostModel,
    ) -> Result<Template, SandboxError> {
        program.kernel.set_template_mode(true);
        program
            .kernel
            .sentry_threads
            .merge_to_single(&offline, model)?;
        Ok(Template {
            profile: profile.clone(),
            program,
            layout_cookie: 0x5EED_0000_0000_0001,
            forks: 0,
            offline,
        })
    }

    /// The function this template serves.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Children forked so far (fork boot is *scalable*: any number of
    /// instances from one template, unlike a bounded cache — §2.3).
    pub fn forks(&self) -> u64 {
        self.forks
    }

    /// Offline time spent generating the template.
    pub fn offline_time(&self) -> SimNanos {
        self.offline.now()
    }

    /// The template's address-space layout cookie (§6.8: periodically
    /// re-randomized, or re-randomized per-fork with
    /// [`CatalyzerConfig::aslr_rerandomize`]).
    pub fn layout_cookie(&self) -> u64 {
        self.layout_cookie
    }

    /// **sfork**: duplicate this template into a fresh instance on the boot
    /// critical path. Returns the child program and the child's layout
    /// cookie.
    ///
    /// # Errors
    ///
    /// [`SandboxError::Mem`] if a plain `MAP_SHARED` mapping (without the
    /// CoW flag) survives in the template; other substrate errors.
    pub fn sfork(
        &mut self,
        config: &CatalyzerConfig,
        ctx: &mut BootCtx,
    ) -> Result<(WrappedProgram, u64), SandboxError> {
        let child_name = format!("{}#{}", self.profile.name, self.forks + 1);

        // The sfork syscall: CoW-duplicate the address space (page-table
        // granularity) and the guest-kernel bookkeeping.
        let space = ctx.span(names::PHASE_SFORK_SYSCALL, |ctx| {
            ctx.charge_span("trap", ctx.model().host.sfork_syscall);
            let tables = self.program.space.private_pages().div_ceil(PTE_TABLE_SPAN);
            ctx.charge_span(
                "copy-page-tables",
                SimNanos::from_micros(2).saturating_mul(tables),
            );
            self.program.space.sfork_clone(child_name.clone())
        })?;
        let mut kernel = ctx.span(names::PHASE_SFORK_KERNEL_STATE, |ctx| {
            self.program
                .kernel
                .sfork_clone(child_name.clone(), ctx.clock(), ctx.model())
        });
        // PID/USER namespaces keep getpid()/getuid()-derived state valid.
        ctx.span(names::PHASE_SFORK_NAMESPACES, |ctx| {
            ctx.charge(ctx.model().host.namespace_setup.saturating_mul(2));
        });
        // Child expands back to the full thread set (the single-thread merge
        // discipline is what makes this the fragile step: a fault here means
        // the template's merged thread state is corrupt).
        ctx.fault(InjectionPoint::SforkMerge)?;
        ctx.span(names::PHASE_SFORK_EXPAND_THREADS, |ctx| {
            kernel.sentry_threads.expand(ctx.clock(), ctx.model())
        })?;
        let cookie = ctx.span(names::PHASE_SFORK_ASLR, |ctx| {
            if config.aslr_rerandomize {
                ctx.charge(SimNanos::from_micros(80));
                self.layout_cookie = self.layout_cookie.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            }
            self.layout_cookie
        });

        self.forks += 1;
        Ok((
            WrappedProgram::from_restored(&self.profile, kernel, space),
            cookie,
        ))
    }

    /// Periodically refreshes the template (§6.8: "periodically updating
    /// func-images and template sandboxes" mitigates the ASLR concern of
    /// every child sharing one layout): regenerates the template offline
    /// with a fresh address-space layout cookie. Children forked before and
    /// after observe different layouts.
    ///
    /// # Errors
    ///
    /// Substrate errors from regeneration.
    pub fn refresh(&mut self, model: &CostModel) -> Result<(), SandboxError> {
        let forks = self.forks;
        let old_cookie = self.layout_cookie;
        let mut fresh = Template::generate(&self.profile, model)?;
        fresh.forks = forks;
        fresh.layout_cookie = old_cookie.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5;
        self.offline.charge(fresh.offline.now());
        self.program = fresh.program;
        self.layout_cookie = fresh.layout_cookie;
        Ok(())
    }

    /// Convenience: a full fork-boot outcome.
    ///
    /// # Errors
    ///
    /// Same as [`Template::sfork`].
    pub fn fork_boot(
        &mut self,
        config: &CatalyzerConfig,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        traced_boot("Catalyzer-sfork", ctx, |ctx| {
            let (program, _) = self.sfork(config, ctx)?;
            Ok(program)
        })
    }

    /// Direct access to the template's program (for tests probing template
    /// state; mutating it mutates what future children inherit).
    pub fn program_mut(&mut self) -> &mut WrappedProgram {
        &mut self.program
    }
}

impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Template")
            .field("function", &self.profile.name)
            .field("forks", &self.forks)
            .finish()
    }
}

/// A per-language runtime template (§4.3): the language environment is
/// initialized, but no function is loaded. Serving a cold boot = `sfork` +
/// loading the function's own classes/modules.
pub struct LanguageTemplate {
    runtime: RuntimeKind,
    template: Template,
}

impl LanguageTemplate {
    /// The runtime-only pseudo-profile a language template initializes:
    /// the language's hello-world profile minus its function-specific
    /// quarter of units and heap.
    pub fn base_profile(runtime: RuntimeKind) -> AppProfile {
        let mut p = match runtime {
            RuntimeKind::C => AppProfile::c_hello(),
            RuntimeKind::Java => AppProfile::java_hello(),
            RuntimeKind::Python => AppProfile::python_hello(),
            RuntimeKind::Ruby => AppProfile::ruby_hello(),
            RuntimeKind::Node => AppProfile::node_hello(),
        };
        p.name = format!("{}-runtime-template", runtime.label());
        p.load_units = p.load_units * 3 / 4;
        p.init_heap_pages = p.init_heap_pages * 3 / 4;
        p.kernel_objects = p.kernel_objects * 3 / 4;
        p
    }

    /// Generates the template for `runtime` (offline).
    ///
    /// # Errors
    ///
    /// Same as [`Template::generate`].
    pub fn generate(
        runtime: RuntimeKind,
        model: &CostModel,
    ) -> Result<LanguageTemplate, SandboxError> {
        Ok(LanguageTemplate {
            runtime,
            template: Template::generate(&Self::base_profile(runtime), model)?,
        })
    }

    /// The language this template serves.
    pub fn runtime(&self) -> RuntimeKind {
        self.runtime
    }

    /// Cold-boots `profile` from the language template (Table 2): `sfork`
    /// the runtime, then load the function's own classes and heap.
    ///
    /// # Errors
    ///
    /// Substrate errors; the profile must use this template's runtime.
    pub fn boot_function(
        &mut self,
        profile: &AppProfile,
        config: &CatalyzerConfig,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        assert_eq!(profile.runtime, self.runtime, "language template mismatch");
        traced_boot("Catalyzer-JavaTemplate", ctx, |ctx| {
            let (mut program, _) = self.template.sfork(config, ctx)?;

            // Load the function's own classes/modules (the paper: "the major
            // overhead ... is caused by loading Java class files of requested
            // functions").
            ctx.span(names::PHASE_APP_LOAD_FUNCTION_UNITS, |ctx| {
                ctx.charge(
                    profile
                        .unit_cost
                        .saturating_mul(u64::from(profile.app_only_units())),
                );
            });
            // Extend the heap to the function's footprint, really filling the
            // delta pages so the handler finds its initialized state.
            ctx.span(names::PHASE_APP_FUNCTION_HEAP, |ctx| {
                let base = Self::base_profile(self.runtime);
                let from = base.heap_range().end;
                let to = profile.heap_range().end;
                if to > from {
                    let delta = memsim::VpnRange::new(from, to);
                    program.space.map_anonymous(
                        delta,
                        memsim::Perms::RW,
                        memsim::ShareMode::Private,
                        "function-heap",
                    )?;
                    for vpn in delta.iter() {
                        let b = heap_page_byte(vpn);
                        program
                            .space
                            .write(vpn, 0, &[b, b, b, b], ctx.clock(), ctx.model())?;
                    }
                }
                Ok::<_, SandboxError>(())
            })?;

            Ok(program)
        })
    }
}

impl fmt::Debug for LanguageTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LanguageTemplate")
            .field("runtime", &self.runtime)
            .field("forks", &self.template.forks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_kernel::threads::ThreadMode;

    fn model() -> CostModel {
        CostModel::experimental_machine()
    }

    #[test]
    fn c_hello_sfork_is_sub_millisecond() {
        let model = model();
        let mut t = Template::generate(&AppProfile::c_hello(), &model).unwrap();
        let clock = SimClock::new();
        let boot = t
            .fork_boot(&CatalyzerConfig::full(), &mut BootCtx::new(&clock, &model))
            .unwrap();
        // Paper §6.2: 0.97 ms for C-hello.
        let ms = boot.boot_latency.as_millis_f64();
        assert!(ms < 1.0, "sfork took {ms} ms");
        assert!(ms > 0.3, "suspiciously free sfork: {ms} ms");
        assert_eq!(boot.system, "Catalyzer-sfork");
    }

    #[test]
    fn specjbb_sfork_under_2ms() {
        let model = model();
        let mut t = Template::generate(&AppProfile::java_specjbb(), &model).unwrap();
        let clock = SimClock::new();
        let boot = t
            .fork_boot(&CatalyzerConfig::full(), &mut BootCtx::new(&clock, &model))
            .unwrap();
        // Paper abstract: <2 ms to boot Java SPECjbb.
        let ms = boot.boot_latency.as_millis_f64();
        assert!((0.8..2.0).contains(&ms), "sfork took {ms} ms");
    }

    #[test]
    fn children_inherit_state_and_serve() {
        let model = model();
        let clock = SimClock::new();
        let mut t = Template::generate(&AppProfile::c_hello(), &model).unwrap();
        let mut boot = t
            .fork_boot(&CatalyzerConfig::full(), &mut BootCtx::new(&clock, &model))
            .unwrap();
        let exec = boot.program.invoke_handler(&clock, &model).unwrap();
        assert!(exec.pages_touched > 0);
        // Children run multi-threaded; the template stays merged.
        assert_eq!(boot.program.kernel.sentry_threads.mode(), ThreadMode::Multi);
        assert_eq!(
            t.program_mut().kernel.sentry_threads.mode(),
            ThreadMode::TransientSingle
        );
    }

    #[test]
    fn fork_boot_is_scalable() {
        let model = model();
        let mut t = Template::generate(&AppProfile::c_hello(), &model).unwrap();
        let mut latencies = Vec::new();
        for _ in 0..50 {
            let mut ctx = BootCtx::fresh(&model);
            t.fork_boot(&CatalyzerConfig::full(), &mut ctx).unwrap();
            latencies.push(ctx.now());
        }
        assert_eq!(t.forks(), 50);
        // Sustainable hot boot: the 50th fork is as fast as the 1st.
        assert_eq!(latencies[0], latencies[49]);
    }

    #[test]
    fn siblings_do_not_alias_memory() {
        let model = model();
        let clock = SimClock::new();
        let mut t = Template::generate(&AppProfile::c_hello(), &model).unwrap();
        let cfg = CatalyzerConfig::full();
        let mut a = t
            .fork_boot(&cfg, &mut BootCtx::new(&clock, &model))
            .unwrap()
            .program;
        let mut b = t
            .fork_boot(&cfg, &mut BootCtx::new(&clock, &model))
            .unwrap()
            .program;
        let heap = AppProfile::c_hello().heap_range();
        a.space
            .write(heap.start, 0, b"AAAA", &clock, &model)
            .unwrap();
        let mut buf = [0u8; 4];
        b.space
            .read(heap.start, 0, &mut buf, &clock, &model)
            .unwrap();
        let expect = heap_page_byte(heap.start);
        assert_eq!(buf, [expect; 4], "sibling saw writer's bytes");
    }

    #[test]
    fn template_mode_blocks_denied_syscalls() {
        let model = model();
        let mut t = Template::generate(&AppProfile::c_hello(), &model).unwrap();
        let err = t
            .program_mut()
            .kernel
            .check_syscall(guest_kernel::syscalls::SyscallName::Ptrace)
            .unwrap_err();
        assert!(matches!(
            err,
            guest_kernel::KernelError::DeniedSyscall { .. }
        ));
    }

    #[test]
    fn periodic_refresh_changes_layout_and_keeps_serving() {
        let model = model();
        let mut t = Template::generate(&AppProfile::c_hello(), &model).unwrap();
        let clock = SimClock::new();
        let cfg = CatalyzerConfig::full();
        let before = t.layout_cookie();
        t.fork_boot(&cfg, &mut BootCtx::new(&clock, &model))
            .unwrap();
        t.refresh(&model).unwrap();
        assert_ne!(t.layout_cookie(), before, "refresh must re-randomize");
        assert_eq!(t.forks(), 1, "fork count survives the refresh");
        let mut boot = t
            .fork_boot(&cfg, &mut BootCtx::new(&clock, &model))
            .unwrap();
        boot.program.invoke_handler(&clock, &model).unwrap();
    }

    #[test]
    fn aslr_rerandomization_changes_layout_cookie() {
        let model = model();
        let mut t = Template::generate(&AppProfile::c_hello(), &model).unwrap();
        let mut ctx = BootCtx::fresh(&model);

        let fixed = CatalyzerConfig::full();
        let (_, c1) = t.sfork(&fixed, &mut ctx).unwrap();
        let (_, c2) = t.sfork(&fixed, &mut ctx).unwrap();
        assert_eq!(c1, c2, "without re-randomization the layout repeats");

        let rerand = CatalyzerConfig {
            aslr_rerandomize: true,
            ..fixed
        };
        let (_, c3) = t.sfork(&rerand, &mut ctx).unwrap();
        let (_, c4) = t.sfork(&rerand, &mut ctx).unwrap();
        assert_ne!(c3, c4, "re-randomization must change the layout");
    }

    #[test]
    fn java_language_template_cold_boot_near_table2() {
        let model = model();
        let mut lt = LanguageTemplate::generate(RuntimeKind::Java, &model).unwrap();
        let clock = SimClock::new();
        let boot = lt
            .boot_function(
                &AppProfile::java_hello(),
                &CatalyzerConfig::full(),
                &mut BootCtx::new(&clock, &model),
            )
            .unwrap();
        // Table 2: 29.3 ms (vs 659.1 ms gVisor cold boot).
        let ms = boot.boot_latency.as_millis_f64();
        assert!((20.0..45.0).contains(&ms), "template cold boot {ms} ms");
        assert_eq!(boot.system, "Catalyzer-JavaTemplate");
    }

    #[test]
    fn language_template_child_serves_function_heap() {
        let model = model();
        let clock = SimClock::new();
        let mut lt = LanguageTemplate::generate(RuntimeKind::Python, &model).unwrap();
        let mut boot = lt
            .boot_function(
                &AppProfile::python_hello(),
                &CatalyzerConfig::full(),
                &mut BootCtx::new(&clock, &model),
            )
            .unwrap();
        let exec = boot.program.invoke_handler(&clock, &model).unwrap();
        assert!(exec.pages_touched > 0);
    }

    #[test]
    #[should_panic(expected = "language template mismatch")]
    fn language_template_rejects_wrong_runtime() {
        let model = model();
        let mut lt = LanguageTemplate::generate(RuntimeKind::Java, &model).unwrap();
        let _ = lt.boot_function(
            &AppProfile::python_hello(),
            &CatalyzerConfig::full(),
            &mut BootCtx::fresh(&model),
        );
    }
}
