//! Allocation budgets: the one enforcer of "no per-object or per-page copy on
//! a boot path" (DESIGN.md §12), counted rather than inferred from timing or
//! from how the code is spelled.
//!
//! A func-image restore maps its records and relinks them in place (paper
//! §3.2), overlay memory shares the image's pages instead of reading them
//! (§3.1), and `sfork` duplicates tables, not objects (§4). Each is a claim
//! about work, so each is held to a count: this binary installs a counting
//! global allocator over [`System`] and runs every boot-path operation on a
//! small and a large workload — for the kernel and its images, the
//! catalogue's smallest and largest object graphs (C-hello, Java-SPECjbb).
//! A budget asserts a *shape* — allocation calls or bytes per object, page or
//! event the large workload adds — never a count pinned to today's value:
//!
//! - **restore**: `FlatImage::restore_metadata` and
//!   `GuestKernel::restore_from_records` with the kernel's drop, per table,
//!   not per object or string — a restored string is a view of the arena,
//!   and a restored descriptor a row of one table; stage 1 allocates less
//!   than the sections it maps, so it never holds a copy of the arena;
//! - **kernel clone**: `GuestKernel::sfork_clone` with the child's drop, a
//!   reference per shared table and a copy of the small ones;
//! - **fork boot**: `Template::fork_boot` (`sfork`, the address space's
//!   `sfork_clone`, thread expansion) beyond its kernel clone, a reference
//!   per 512-page table;
//! - **cold and warm boot**: `Catalyzer::boot` (`restore_boot`,
//!   `build_base_layer` and `app_mem_index` on the first cold boot,
//!   `attach_base`, `read_io_manifest`) beyond its restore, per table, I/O
//!   connection and page-table entry; a cold boot's sandbox shell mounts the
//!   function's stored FS server instead of building a rootfs; dropping the
//!   outcome allocates nothing;
//! - **faults**: a forked child's first `invoke_handler` and a reused
//!   instance's next one allocate at most one block per copy-on-write or
//!   demand-zero fault — a guest page is its counts and its bytes in one
//!   allocation — and a reused one faults only its request scratch;
//! - **Base-EPT reads**: a read through an attached space is served an
//!   image page as a view of the mapped image, a few bytes of bookkeeping,
//!   never a page of its own;
//! - **page loads**: `MappedImage::load_page` and `load_range` over every
//!   page of an image allocate nothing;
//! - **image write**: `flat::write` allocates per section, not per object;
//! - **fleet drain**: a `run_fleet` drain allocates nothing per event;
//! - **checksum**: the CRC-32 allocates nothing.
//!
//! A boot budget counts a boot *beyond* the stage budget inside it — a cold
//! or warm boot net of its restore, a fork boot net of its kernel clone — so
//! a copy added to a stage fails that stage's budget and no other.
//!
//! `-- --nocapture` prints one line per budget: calls and bytes for each
//! workload, then the per-unit growth the budget asserts on. The counters are
//! thread-local, so tests running in parallel on other threads never add to a
//! count being taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::{Add, Sub};
use std::sync::Arc;

use catalyzer_suite::guest_kernel::gofer::FsServer;
use catalyzer_suite::guest_kernel::GuestKernel;
use catalyzer_suite::imagefmt::{self, flat, CheckpointSource};
use catalyzer_suite::memsim::{AddressSpace, MappedImage};
use catalyzer_suite::platform::{Simulation, TraceRequest};
use catalyzer_suite::prelude::*;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards every call to [`System`] and counts the calls that hand out
/// memory — `alloc`, `alloc_zeroed` and `realloc` — and the bytes each asks
/// for.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also serves threads that are tearing down.
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: each method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only const-initialised
// thread-local `Cell<u64>`s, which neither allocate nor register a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocation calls and the bytes they asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Allocs {
    calls: u64,
    bytes: u64,
}

impl Add for Allocs {
    type Output = Allocs;
    fn add(self, other: Allocs) -> Allocs {
        Allocs {
            calls: self.calls + other.calls,
            bytes: self.bytes + other.bytes,
        }
    }
}

impl Sub for Allocs {
    type Output = Allocs;
    fn sub(self, other: Allocs) -> Allocs {
        Allocs {
            calls: self.calls - other.calls,
            bytes: self.bytes - other.bytes,
        }
    }
}

/// What `f` allocates on this thread.
fn allocs_in(f: impl FnOnce()) -> Allocs {
    let now = || Allocs {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    };
    let before = now();
    f();
    now() - before
}

/// How much `large` grows over `small` per unit added, `added` units apart.
fn per_added(small: u64, large: u64, added: u64) -> f64 {
    (large as f64 - small as f64) / added as f64
}

/// A budget's one line: calls and bytes for each workload, then its growth.
fn report(budget: &str, small: Allocs, large: Allocs, growth: &str) {
    println!(
        "alloc budget {budget}: {} calls, {} B -> {} calls, {} B; {growth}",
        small.calls, small.bytes, large.calls, large.bytes
    );
}

/// The small and the large workload of every kernel and image budget.
fn profiles() -> [AppProfile; 2] {
    [AppProfile::c_hello(), AppProfile::java_specjbb()]
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

/// `kernel`'s objects as a func-image source without a heap.
fn kernel_source(kernel: &GuestKernel) -> CheckpointSource {
    CheckpointSource {
        objects: kernel.checkpoint_objects(),
        ..CheckpointSource::default()
    }
}

/// `profile`'s initialized kernel and its func-image without a heap, mapped
/// and parsed.
fn metadata_image(profile: &AppProfile) -> (GuestKernel, flat::FlatImage) {
    let clock = SimClock::new();
    let model = CostModel::experimental_machine();
    let kernel = initialized_kernel(profile, &clock, &model);
    let bytes = flat::write(&kernel_source(&kernel), &clock, &model);
    let image = MappedImage::new(profile.name.clone(), bytes);
    let parsed = flat::FlatImage::parse(&image, &clock, &model).unwrap();
    (kernel, parsed)
}

/// One restore of `image`'s kernel, counted by stage: `restore_metadata`,
/// then `restore_from_records` with the kernel's drop.
fn restore(image: &flat::FlatImage, fs: &Arc<FsServer>, name: &str) -> [Allocs; 2] {
    let clock = SimClock::new();
    let model = CostModel::experimental_machine();
    let mut records = None;
    let stage1 = allocs_in(|| records = Some(image.restore_metadata(&clock, &model).unwrap()));
    let records = records.unwrap();
    let stage2 = allocs_in(|| {
        let kernel = GuestKernel::restore_from_records(
            name,
            &records,
            Arc::clone(fs),
            false,
            &clock,
            &model,
        )
        .unwrap();
        drop(kernel);
    });
    [stage1, stage2]
}

/// A restore's allocations grow with the tables it fills (a `Vec` doubling
/// now and then), not with its objects: runtime objects and dentries stay
/// ranges of the mapped arena, task names, namespace kinds, mount fields,
/// descriptor paths and socket addresses are views of it, and the restored
/// descriptors are rows of one table. Stage 1 keeps nothing but the
/// sections: fewer bytes than it maps.
#[test]
fn a_restore_allocates_per_table_and_owned_string_not_per_object() {
    let [small, large] = profiles().map(|profile| {
        let (kernel, image) = metadata_image(&profile);
        let [stage1, stage2] = restore(&image, kernel.vfs.server(), &profile.name);
        (
            image.object_count(),
            image.metadata_bytes(),
            stage1,
            stage1 + stage2,
        )
    });
    assert!(small.0 > 5_000 && large.0 > 35_000);
    let calls = per_added(small.3.calls, large.3.calls, large.0 - small.0);
    report(
        "restore + kernel drop",
        small.3,
        large.3,
        &format!("{calls:.4} calls per added object"),
    );
    assert!(
        calls < 0.005,
        "{calls:.4} allocations per added object ({} -> {})",
        small.3.calls,
        large.3.calls
    );
    for (objects, mapped, stage1, _) in [small, large] {
        assert!(
            stage1.bytes < mapped,
            "restore_metadata allocated {} B for {objects} objects over {mapped} B of \
             sections: a copy, not a map",
            stage1.bytes
        );
    }
}

/// A kernel clone takes one reference per shared table (dentries, epolls,
/// wait queues, runtime objects) and copies the small task, timer and
/// socket tables and one description per open fd; the child's drop releases
/// them. Copying a shared table costs a row per object: 16–32 B.
#[test]
fn a_kernel_clone_shares_its_tables_instead_of_copying_objects() {
    let [small, large] = profiles().map(|profile| {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let kernel = initialized_kernel(&profile, &clock, &model);
        let clone = allocs_in(|| drop(kernel.sfork_clone("child", &clock, &model)));
        (kernel.object_count(), clone)
    });
    let added = large.0 - small.0;
    let calls = per_added(small.1.calls, large.1.calls, added);
    let bytes = per_added(small.1.bytes, large.1.bytes, added);
    report(
        "GuestKernel::sfork_clone + child drop",
        small.1,
        large.1,
        &format!("{calls:.4} calls, {bytes:.2} B per added object"),
    );
    assert!(calls < 0.01, "{calls:.4} allocations per added object");
    assert!(
        bytes < 2.0,
        "{bytes:.2} bytes per added object: a table copied"
    );
}

/// Beyond its kernel clone (the budget above), a fork boot clones the
/// address space one reference per 512-page table and expands the thread
/// set: a copied page table would cost an entry per page (≥ 8 B).
#[test]
fn a_fork_boot_adds_a_reference_per_page_table_to_its_kernel_clone() {
    let [small, large] = profiles().map(|profile| {
        let model = CostModel::experimental_machine();
        let config = CatalyzerConfig::full();
        let mut template = Template::generate(&profile, &model).unwrap();
        let program = template.program_mut();
        let (objects, pages) = (program.kernel.object_count(), program.space.private_pages());
        let clock = SimClock::new();
        let clone = allocs_in(|| drop(program.kernel.sfork_clone("child", &clock, &model)));
        let mut fork = || {
            let mut ctx = BootCtx::fresh(&model);
            let mut outcome = None;
            let booted =
                allocs_in(|| outcome = Some(template.fork_boot(&config, &mut ctx).unwrap()));
            assert_eq!(allocs_in(|| drop(outcome)), Allocs::default());
            booted
        };
        fork();
        (objects, pages, fork() - clone)
    });
    let calls = per_added(small.2.calls, large.2.calls, large.0 - small.0);
    let bytes = per_added(small.2.bytes, large.2.bytes, large.1 - small.1);
    report(
        "Catalyzer-sfork boot beyond its kernel clone",
        small.2,
        large.2,
        &format!("{calls:.4} calls per added object, {bytes:.3} B per added page"),
    );
    assert!(calls < 0.01, "{calls:.4} allocations per added object");
    assert!(
        bytes < 1.0,
        "{bytes:.3} bytes per added page: a page table copied"
    );
}

/// Beyond its restore (the first budget), a cold or warm boot allocates per
/// table, I/O connection and page-table entry: the sandbox, the Base-EPT a
/// first cold boot builds from the app-memory index, the attach, the I/O
/// manifest and the replay of its hinted connections. A page read or copied
/// would cost 4 KiB a page; the Base-EPT costs an entry a page, and a boot
/// that reuses it next to nothing — a sandbox shell that built its own
/// rootfs, as large as the function's, would cost tens of bytes a page.
/// Every boot's kernel serves the function's one stored FS server. Dropping
/// the booted outcome allocates nothing.
#[test]
fn cold_and_warm_boots_allocate_around_their_restore_per_table_not_per_object() {
    // Each boot, and the bytes per added page it may allocate.
    const BOOTS: [(&str, f64); 3] = [
        ("Catalyzer-restore boot building the Base-EPT", 256.0),
        ("Catalyzer-restore boot", 8.0),
        ("Catalyzer-Zygote boot", 256.0),
    ];
    let [small, large] = profiles().map(|profile| {
        let model = CostModel::experimental_machine();
        let mut system = Catalyzer::new();
        system.prewarm_image(&profile, &model).unwrap();
        let stored = system.store().get(&profile.name).unwrap();
        let (objects, pages) = (stored.flat.object_count(), stored.flat.app_page_count());
        let [stage1, stage2] = restore(&stored.flat, &stored.fs, &profile.name);
        let fs = Arc::clone(&stored.fs);
        let mut boot = |mode| {
            let mut ctx = BootCtx::fresh(&model);
            let mut outcome = None;
            let booted =
                allocs_in(|| outcome = Some(system.boot(mode, &profile, &mut ctx).unwrap()));
            let kernel = &outcome.as_ref().unwrap().program.kernel;
            assert!(
                Arc::ptr_eq(kernel.vfs.server(), &fs),
                "{mode:?}: another rootfs"
            );
            assert_eq!(allocs_in(|| drop(outcome)), Allocs::default());
            booted - stage1 - stage2
        };
        let first = boot(BootMode::Cold);
        let cold = boot(BootMode::Cold);
        boot(BootMode::Warm);
        (objects, pages, [first, cold, boot(BootMode::Warm)])
    });
    for (i, (budget, max_bytes)) in BOOTS.into_iter().enumerate() {
        let (s, l) = (small.2[i], large.2[i]);
        let calls = per_added(s.calls, l.calls, large.0 - small.0);
        let bytes = per_added(s.bytes, l.bytes, large.1 - small.1);
        report(
            &format!("{budget} beyond its restore"),
            s,
            l,
            &format!("{calls:.4} calls per added object, {bytes:.1} B per added page"),
        );
        assert!(
            calls < 0.05,
            "{budget}: {calls:.4} allocations per added object"
        );
        assert!(
            bytes < max_bytes,
            "{budget}: {bytes:.1} bytes per added page"
        );
    }
}

/// A copy-on-write or demand-zero fault makes one guest page, and a page is
/// one block: its reference counts and its 4,096 bytes together (a box and a
/// separate reference-counted handle made it two). A fault may also find a
/// block its thread kept from a freed page, and allocate nothing. A reused
/// instance's invocation reads its heap in place and faults only its
/// request scratch, so it allocates for no more than those pages. The leaf
/// tables a child's first writes copy (one per 512 pages) and the
/// invocation's I/O are the rest.
#[test]
fn a_fault_allocates_at_most_one_block_and_a_reuse_faults_only_its_scratch() {
    const STEPS: [&str; 2] = [
        "forked child's first invocation",
        "reused instance's invocation",
    ];
    let [small, large] = profiles().map(|profile| {
        let model = CostModel::experimental_machine();
        let mut template = Template::generate(&profile, &model).unwrap();
        let mut ctx = BootCtx::fresh(&model);
        let mut outcome = template
            .fork_boot(&CatalyzerConfig::full(), &mut ctx)
            .unwrap();
        let program = &mut outcome.program;
        let clock = SimClock::new();
        [0, 1].map(|_| {
            let before = program.space.stats();
            let invoke = allocs_in(|| {
                program.invoke_handler(&clock, &model).unwrap();
            });
            let after = program.space.stats();
            let faults =
                after.cow_faults + after.minor_faults - before.cow_faults - before.minor_faults;
            (faults, invoke)
        })
    });
    for (i, step) in STEPS.iter().enumerate() {
        let ((small_faults, s), (large_faults, l)) = (small[i], large[i]);
        let calls = per_added(s.calls, l.calls, large_faults - small_faults);
        report(
            step,
            s,
            l,
            &format!("{calls:.4} calls per added fault ({small_faults} -> {large_faults} faults)"),
        );
        assert!(
            calls <= 1.05,
            "{step}: {calls:.4} allocations per added fault: a page is more than one block"
        );
    }
    assert!(
        large[1].0 < large[0].0 / 4,
        "a reused instance faulted {} pages, its first invocation {}",
        large[1].0,
        large[0].0
    );
}

/// A read through a space attached to a restored Base-EPT is served each
/// image page as a view of the mapped image: the image's page cache records
/// the first touch, the read-only table is not written, and the space notes
/// the page merged. A page copied or boxed would cost 4 KiB.
#[test]
fn reading_a_restored_base_ept_allocates_no_page() {
    let [small, large] = profiles().map(|profile| {
        let model = CostModel::experimental_machine();
        let mut system = Catalyzer::new();
        system.prewarm_image(&profile, &model).unwrap();
        let stored = system.store().get(&profile.name).unwrap();
        let clock = SimClock::new();
        let base = stored.flat.build_base_layer(&clock, &model).unwrap();
        let heap = profile.heap_range();
        assert_eq!(heap.len(), stored.flat.app_page_count());
        let mut space = AddressSpace::new("reader");
        space
            .attach_base(base, heap, "func-image", &clock, &model)
            .unwrap();
        let mut word = [0u8; 8];
        let reads = allocs_in(|| {
            for vpn in heap.iter() {
                space.read(vpn, 0, &mut word, &clock, &model).unwrap();
            }
        });
        assert_eq!(space.stats().ept_merges, heap.len());
        (heap.len(), reads)
    });
    let bytes = per_added(small.1.bytes, large.1.bytes, large.0 - small.0);
    report(
        "reads through an attached Base-EPT, every page",
        small.1,
        large.1,
        &format!("{bytes:.1} B per added page"),
    );
    assert!(
        bytes <= 64.0,
        "{bytes:.1} bytes per added page: a served image page is more than a view"
    );
}

/// Overlay memory maps a func-image, it does not read it: a loaded page is a
/// view of the image buffer, and the page cache is a bitmap sized when the
/// image is mapped.
#[test]
fn loading_every_page_of_an_image_allocates_nothing() {
    let [small, large] = profiles().map(|profile| {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let (_, image) = metadata_image(&profile);
        let mapped = image.image();
        let pages = mapped.pages();
        let remapped = MappedImage::new("again", mapped.raw_bytes().clone());
        let loads = allocs_in(|| {
            for index in 0..pages {
                drop(mapped.load_page(index, &clock, &model).unwrap());
            }
            remapped.load_range(0, pages, &clock, &model).unwrap();
        });
        (pages, loads)
    });
    let calls = per_added(small.1.calls, large.1.calls, large.0 - small.0);
    report(
        "load_page + load_range over every page",
        small.1,
        large.1,
        &format!("{calls:.4} calls per added page"),
    );
    assert_eq!((small.1, large.1), Default::default());
}

/// `flat::write` stages the metadata sections in a few growing buffers and
/// assembles the image in one: calls grow with the buffers' doublings, not
/// with objects, and bytes stay within five images — the image once, each
/// staging buffer's growth at most four times its length.
#[test]
fn a_func_image_write_allocates_per_section_not_per_object() {
    let [small, large] = profiles().map(|profile| {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let source = kernel_source(&initialized_kernel(&profile, &clock, &model));
        let mut len = 0;
        let write = allocs_in(|| len = flat::write(&source, &clock, &model).len() as u64);
        (source.objects.len() as u64, len, write)
    });
    let calls = per_added(small.2.calls, large.2.calls, large.0 - small.0);
    report(
        "flat::write, metadata only",
        small.2,
        large.2,
        &format!(
            "{calls:.5} calls per added object, {} and {} B of image",
            small.1, large.1
        ),
    );
    assert!(calls < 0.001, "{calls:.5} allocations per added object");
    for (objects, len, write) in [small, large] {
        assert!(
            write.bytes <= 5 * len,
            "{} B allocated writing a {len} B image of {objects} objects",
            write.bytes
        );
    }
}

/// The open-loop engine's drain reads arrivals off the trace, keeps
/// instances in a pre-sized arena and latencies in fixed histograms: past
/// calibration (the same for both traces) only the queue's heap grows, by
/// doubling.
#[test]
fn a_fleet_drain_allocates_nothing_per_event() {
    let run = |requests: u64| {
        let trace: Vec<TraceRequest> = (0..requests)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(50 * i),
                function: (i % 2) as usize,
            })
            .collect();
        let fleet = Simulation::new(vec![AppProfile::c_hello(), AppProfile::python_hello()]);
        let mut events = 0;
        let drain = allocs_in(|| events = fleet.run_fleet(&trace).unwrap().events);
        (events, drain)
    };
    let (small, large) = (run(20_000), run(40_000));
    let calls = per_added(small.1.calls, large.1.calls, large.0 - small.0);
    report(
        "run_fleet, two functions",
        small.1,
        large.1,
        &format!(
            "{calls:.5} calls per added event ({} -> {} events)",
            small.0, large.0
        ),
    );
    assert!(calls < 0.001, "{calls:.5} allocations per added event");
}

/// The checksum every restore pays over its metadata sections keeps its
/// working window on the stack: none over a large profile's arena size.
#[test]
fn the_checksum_allocates_nothing() {
    let arena: Vec<u8> = (0..2_300_000u32).map(|i| (i % 251) as u8).collect();
    let mut crc = 0;
    let checksum = allocs_in(|| crc = imagefmt::crc32(&arena));
    report("crc32 over 2.3 MB", checksum, checksum, "none at any size");
    assert_eq!(checksum, Allocs::default());
    assert_ne!(crc, 0);
}
