//! Integration: every restore path reproduces the checkpointed state
//! faithfully — kernel object graphs, heap contents, I/O connections —
//! across the classic format, the flat func-image, and full engine boots.

use std::sync::Arc;

use catalyzer_suite::imagefmt::{classic, flat};
use catalyzer_suite::memsim::MappedImage;
use catalyzer_suite::prelude::*;
use catalyzer_suite::runtimes::heap_page_byte;
use catalyzer_suite::simtime::SimClock;

fn model() -> CostModel {
    CostModel::experimental_machine()
}

#[test]
fn classic_and_flat_restore_identical_graphs_from_a_real_program() {
    let model = model();
    let profile = AppProfile::python_hello();
    let offline = SimClock::new();
    let mut program = WrappedProgram::start(&profile, &offline, &model).unwrap();
    program.run_to_entry_point(&offline, &model).unwrap();
    let src = program.checkpoint_source(&offline, &model).unwrap();

    let classic_img = classic::write(&src, &offline, &model);
    let classic_back = classic::read(&classic_img, &offline, &model).unwrap();

    let flat_img = MappedImage::new("fidelity", flat::write(&src, &offline, &model));
    let parsed = flat::FlatImage::parse(&flat_img, &offline, &model).unwrap();
    let flat_back = parsed.restore_metadata(&offline, &model).unwrap();

    assert_eq!(classic_back.objects, src.objects);
    assert_eq!(flat_back, src.objects);
    assert_eq!(classic_back.io_conns, src.io_conns);
    assert_eq!(
        parsed.read_io_manifest(&offline, &model).unwrap(),
        src.io_conns
    );
    assert_eq!(classic_back.app_pages.len(), src.app_pages.len());
    assert_eq!(parsed.app_page_count() as usize, src.app_pages.len());
}

#[test]
fn every_boot_path_serves_the_same_initialized_heap() {
    let model = model();
    let profile = AppProfile::c_nginx();
    let heap = profile.heap_range();
    let probes: Vec<_> = [heap.start, heap.start + heap.len() / 2, heap.end - 1].to_vec();

    let check = |mut outcome: BootOutcome, label: &str| {
        let clock = SimClock::new();
        for &vpn in &probes {
            let mut buf = [0u8; 4];
            outcome
                .program
                .space
                .read(vpn, 0, &mut buf, &clock, &model)
                .unwrap_or_else(|e| panic!("{label}: read {vpn:#x}: {e}"));
            let expect = heap_page_byte(vpn);
            assert_eq!(buf, [expect; 4], "{label}: heap mismatch at {vpn:#x}");
        }
    };

    let mut gvisor = GvisorEngine::new();
    check(
        gvisor.boot(&profile, &mut BootCtx::fresh(&model)).unwrap(),
        "gVisor",
    );
    let mut restore = GvisorRestoreEngine::new();
    check(
        restore.boot(&profile, &mut BootCtx::fresh(&model)).unwrap(),
        "gVisor-restore",
    );

    let mut cat = Catalyzer::new();
    cat.ensure_template(&profile, &model).unwrap();
    for mode in [BootMode::Cold, BootMode::Warm, BootMode::Fork] {
        let outcome = cat
            .boot(mode, &profile, &mut BootCtx::fresh(&model))
            .unwrap();
        check(outcome, mode.label());
    }
}

#[test]
fn catalyzer_restored_kernel_matches_checkpointed_graph() {
    let model = model();
    let profile = AppProfile::ruby_hello();

    // Reference: a directly initialized program.
    let offline = SimClock::new();
    let mut reference = WrappedProgram::start(&profile, &offline, &model).unwrap();
    reference.run_to_entry_point(&offline, &model).unwrap();

    let mut cat = Catalyzer::new();
    let restored = cat
        .boot(BootMode::Cold, &profile, &mut BootCtx::fresh(&model))
        .unwrap();

    let a = &reference.kernel;
    let b = &restored.program.kernel;
    assert_eq!(a.object_count(), b.object_count());
    assert_eq!(a.io_object_count(), b.io_object_count());
    assert_eq!(a.tasks.tasks().len(), b.tasks.tasks().len());
    assert_eq!(a.tasks.thread_count(), b.tasks.thread_count());
    assert_eq!(a.timers.len(), b.timers.len());
    assert_eq!(a.net.len(), b.net.len());
    assert_eq!(a.vfs.open_fds(), b.vfs.open_fds());
    b.validate()
        .expect("restored kernel must be self-consistent");
}

#[test]
fn lazy_io_reconnects_exactly_what_the_handler_uses() {
    let model = model();
    let profile = AppProfile::python_hello();
    let mut cat = Catalyzer::new();
    let mut outcome = cat
        .boot(BootMode::Cold, &profile, &mut BootCtx::fresh(&model))
        .unwrap();

    let before = outcome.program.kernel.vfs.reconnects();
    let clock = SimClock::new();
    outcome.program.invoke_handler(&clock, &model).unwrap();
    let after = outcome.program.kernel.vfs.reconnects();
    // The handler re-opens its binary and log through fresh fds; on-demand
    // reconnection only fires for checkpointed descriptors it actually uses.
    let open_fds = outcome.program.kernel.vfs.open_fds() as u64;
    assert!(after >= before, "reconnect counter went backwards");
    assert!(
        after - before <= open_fds,
        "reconnected more than exists: {} of {}",
        after - before,
        open_fds
    );
}

#[test]
fn corrupted_func_image_never_boots() {
    let model = model();
    let profile = AppProfile::c_hello();
    // Compile a valid image, then corrupt the metadata and re-parse.
    let offline = SimClock::new();
    let mut program = WrappedProgram::start(&profile, &offline, &model).unwrap();
    program.run_to_entry_point(&offline, &model).unwrap();
    let src = program.checkpoint_source(&offline, &model).unwrap();
    let mut bytes = flat::write(&src, &offline, &model).to_vec();
    bytes[4096 + 64] ^= 0x40; // inside the metadata sections
    let mapped = MappedImage::new("corrupt", catalyzer_suite::memsim::SharedBytes::from(bytes));
    match flat::FlatImage::parse(&mapped, &offline, &model) {
        Err(_) => {}
        Ok(parsed) => {
            assert!(parsed.restore_metadata(&offline, &model).is_err());
        }
    }
}

#[test]
fn sfork_children_share_fs_server_but_not_writes() {
    let model = model();
    let profile = AppProfile::c_hello();
    let mut cat = Catalyzer::new();
    cat.ensure_template(&profile, &model).unwrap();

    let clock = SimClock::new();
    let mut a = cat
        .boot(BootMode::Fork, &profile, &mut BootCtx::new(&clock, &model))
        .unwrap();
    let b = cat
        .boot(BootMode::Fork, &profile, &mut BootCtx::new(&clock, &model))
        .unwrap();
    assert!(Arc::ptr_eq(
        a.program.kernel.vfs.server(),
        b.program.kernel.vfs.server()
    ));

    // Divergent overlay writes stay private.
    let fd_a = a
        .program
        .kernel
        .vfs
        .create("/tmp/who", &clock, &model)
        .unwrap();
    a.program
        .kernel
        .vfs
        .write(fd_a, b"sandbox-a", &clock, &model)
        .unwrap();
    assert!(
        b.program.kernel.vfs.stat("/tmp/who").is_err(),
        "overlay leaked across sfork"
    );
}
