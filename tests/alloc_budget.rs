//! Allocation budgets, counted rather than inferred from timing.
//!
//! A func-image restore maps its records and relinks them in place (paper
//! §3.2), so rebuilding a guest kernel from them, and dropping it again,
//! should allocate per *table* and per string that must be owned — not per
//! object. This binary installs a counting global allocator over
//! [`System`] and holds `GuestKernel::restore_from_records` plus the
//! kernel's drop to that shape across the catalogue's smallest and largest
//! object graphs, and the checksum over the image's sections to none at all.
//!
//! The counter is thread-local, so tests running in parallel on other
//! threads never add to a count being taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use catalyzer_suite::guest_kernel::GuestKernel;
use catalyzer_suite::imagefmt::{self, flat, CheckpointSource};
use catalyzer_suite::memsim::MappedImage;
use catalyzer_suite::prelude::*;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards every call to [`System`] and counts the calls that hand out
/// memory: `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

fn count() {
    // `try_with`: the allocator also serves threads that are tearing down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: each method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell<u64>`, which neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The kernel a profile's func-image checkpoints, without its heap: the
/// runtime's boot, the rootfs files its class/module loading opens, and the
/// object graph it leaves behind (`WrappedProgram::run_to_entry_point`,
/// steps 2 and 4).
fn initialized_kernel(profile: &AppProfile, clock: &SimClock, model: &CostModel) -> GuestKernel {
    let mut kernel = GuestKernel::boot(
        profile.name.clone(),
        profile.build_fs_server(),
        clock,
        model,
    );
    let opens = (profile.load_units / 4).clamp(8, 120) as usize;
    let paths: Vec<String> = kernel
        .vfs
        .server()
        .paths()
        .filter(|p| p.starts_with("/lib"))
        .take(opens)
        .map(str::to_string)
        .collect();
    for path in &paths {
        let fd = kernel.vfs.open(path, false, clock, model).unwrap();
        kernel.vfs.read(fd, 64, clock, model).unwrap();
    }
    profile
        .graph_spec()
        .populate(&mut kernel, clock, model)
        .unwrap();
    kernel
}

/// `(objects, allocations)` of one restore of `profile`'s kernel from its
/// func-image, the kernel's drop included.
fn restore_allocations(profile: &AppProfile) -> (u64, u64) {
    let clock = SimClock::new();
    let model = CostModel::experimental_machine();
    let kernel = initialized_kernel(profile, &clock, &model);
    let source = CheckpointSource {
        objects: kernel.checkpoint_objects(),
        ..CheckpointSource::default()
    };
    let image = MappedImage::new(profile.name.clone(), flat::write(&source, &clock, &model));
    let parsed = flat::FlatImage::parse(&image, &clock, &model).unwrap();
    let records = parsed.restore_metadata(&clock, &model).unwrap();
    let fs = Arc::clone(kernel.vfs.server());
    let name = profile.name.clone();
    let allocations = allocations_in(|| {
        let restored =
            GuestKernel::restore_from_records(name, &records, fs, false, &clock, &model).unwrap();
        drop(restored);
    });
    (records.len() as u64, allocations)
}

/// A restore's allocations grow with the strings it must own (task names,
/// mounts, descriptor paths, socket addresses: a few percent of a graph),
/// not with the runtime objects and dentries that are most of it, which
/// stay ranges of the mapped arena.
#[test]
fn a_restore_allocates_per_table_and_owned_string_not_per_object() {
    let (small_objects, small) = restore_allocations(&AppProfile::c_hello());
    let (large_objects, large) = restore_allocations(&AppProfile::java_specjbb());
    assert!(small_objects > 5_000 && large_objects > 35_000);
    let per_object = (large - small) as f64 / (large_objects - small_objects) as f64;
    println!(
        "restore + drop: {small} allocations for {small_objects} objects, \
         {large} for {large_objects}: {per_object:.4} per added object"
    );
    assert!(
        per_object < 0.05,
        "{per_object:.4} allocations per added object ({small} → {large})"
    );
}

/// The checksum every restore pays over its metadata sections keeps its
/// working window on the stack: none over a large profile's arena size.
#[test]
fn the_checksum_allocates_nothing() {
    let arena: Vec<u8> = (0..2_300_000u32).map(|i| (i % 251) as u8).collect();
    let mut crc = 0;
    assert_eq!(allocations_in(|| crc = imagefmt::crc32(&arena)), 0);
    assert_ne!(crc, 0);
}
