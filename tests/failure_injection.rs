//! Integration: failure paths surface as errors instead of wrong results —
//! resource exhaustion, missing prerequisites, policy violations, and
//! corrupted state.

use catalyzer_suite::guest_kernel::vfs::MAX_FDS;
use catalyzer_suite::guest_kernel::KernelError;
use catalyzer_suite::memsim::MemError;
use catalyzer_suite::prelude::*;
use catalyzer_suite::runtimes::RuntimeError;
use catalyzer_suite::sandbox::SandboxError;
use catalyzer_suite::simtime::SimClock;

fn model() -> CostModel {
    CostModel::experimental_machine()
}

/// A profile whose kernel graph would need more descriptors than the guest
/// fd table allows.
fn fd_hungry_profile() -> AppProfile {
    let mut p = AppProfile::c_hello();
    p.name = "fd-hungry".into();
    // GraphSpec::sized opens ~1.2% of the object count as files; 120k
    // objects ⇒ ~1 440 opens > MAX_FDS.
    p.kernel_objects = 120_000;
    p
}

#[test]
fn fd_exhaustion_fails_the_boot_cleanly() {
    assert_eq!(MAX_FDS, 1024);
    let model = model();
    let mut engine = GvisorEngine::new();
    let err = engine
        .boot(&fd_hungry_profile(), &mut BootCtx::fresh(&model))
        .expect_err("boot must fail when the fd table runs out");
    // Typed, not textual: the exhaustion surfaces as a kernel error whether
    // the boot path hit the fd table directly or through the runtime layer.
    match err {
        SandboxError::Kernel(KernelError::ResourceExhausted { what })
        | SandboxError::Runtime(RuntimeError::Kernel(KernelError::ResourceExhausted { what })) => {
            assert_eq!(what, "guest fds");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn catalyzer_cannot_compile_an_image_for_a_broken_function() {
    let model = model();
    let mut cat = Catalyzer::new();
    assert!(cat.prewarm_image(&fd_hungry_profile(), &model).is_err());
    // The failure is not sticky for other functions.
    cat.prewarm_image(&AppProfile::c_hello(), &model).unwrap();
}

#[test]
fn fork_boot_without_template_is_a_config_error() {
    let model = model();
    let mut cat = Catalyzer::new();
    match cat.boot(
        BootMode::Fork,
        &AppProfile::c_hello(),
        &mut BootCtx::fresh(&model),
    ) {
        Err(SandboxError::Config { detail }) => {
            assert!(detail.contains("template"), "{detail}");
        }
        other => panic!("expected Config error, got {other:?}"),
    }
}

#[test]
fn language_template_boot_without_generation_is_a_config_error() {
    let model = model();
    let mut cat = Catalyzer::new();
    assert!(matches!(
        cat.language_template_boot(&AppProfile::java_hello(), &mut BootCtx::fresh(&model)),
        Err(SandboxError::Config { .. })
    ));
}

#[test]
fn template_sandboxes_reject_denied_syscalls_but_children_do_not() {
    use catalyzer_suite::guest_kernel::{KernelError, SyscallInvocation};
    let model = model();
    let clock = SimClock::new();
    let mut template = Template::generate(&AppProfile::c_hello(), &model).unwrap();

    // Template mode: ptrace denied.
    assert!(matches!(
        template
            .program_mut()
            .kernel
            .syscall(SyscallInvocation::Ptrace, &clock, &model),
        Err(KernelError::DeniedSyscall { .. })
    ));

    // Children leave template mode: getpid etc. work, and the namespace
    // keeps its value identical to the template's.
    let mut boot = template
        .fork_boot(&CatalyzerConfig::full(), &mut BootCtx::new(&clock, &model))
        .unwrap();
    assert!(!boot.program.kernel.is_template());
    assert_eq!(boot.program.kernel.tasks.getpid(), 1);
    boot.program
        .kernel
        .syscall(SyscallInvocation::Getpid, &clock, &model)
        .unwrap();
}

#[test]
fn unknown_function_and_unknown_image_errors() {
    let model = model();
    let cat = Catalyzer::new();
    assert!(cat.warm_memory_costs("never-compiled", &model).is_err());

    let mut gw = platform::Gateway::new(GvisorEngine::new(), model);
    assert!(matches!(
        gw.call(InvokeRequest::new("missing")),
        Err(platform::PlatformError::UnknownFunction { .. })
    ));
}

#[test]
fn plain_shared_mapping_blocks_sfork_until_cow_flagged() {
    use catalyzer_suite::memsim::{Perms, ShareMode, VpnRange};
    let model = model();
    let mut template = Template::generate(&AppProfile::c_hello(), &model).unwrap();
    // Smuggle a plain MAP_SHARED region into the template.
    template
        .program_mut()
        .space
        .map_anonymous(
            VpnRange::new(0xF000, 0xF004),
            Perms::RW,
            ShareMode::Shared,
            "shm-no-cow",
        )
        .unwrap();
    let clock = SimClock::new();
    let err = template
        .fork_boot(&CatalyzerConfig::full(), &mut BootCtx::new(&clock, &model))
        .expect_err("plain MAP_SHARED must block sfork");
    match err {
        SandboxError::Mem(MemError::SharedMappingRequiresCow { vma })
        | SandboxError::Runtime(RuntimeError::Mem(MemError::SharedMappingRequiresCow { vma })) => {
            assert_eq!(vma, "shm-no-cow");
        }
        other => panic!("expected SharedMappingRequiresCow, got {other:?}"),
    }
}
