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
//!   `GuestKernel::restore_from_records` with the kernel's drop, per table and
//!   owned string, not per object; stage 1 allocates less than the sections
//!   it maps, so it holds one slot per object and never a copy of the arena;
//! - **kernel clone**: `GuestKernel::sfork_clone` with the child's drop, a
//!   reference per shared table and a copy of the small ones;
//! - **fork boot**: `Template::fork_boot` (`sfork`, the address space's
//!   `sfork_clone`, thread expansion) beyond its kernel clone, a reference
//!   per 512-page table;
//! - **cold and warm boot**: `Catalyzer::boot` (`restore_boot`,
//!   `build_base_layer` and `app_mem_index` on the first cold boot,
//!   `attach_base`, `read_io_manifest`) beyond its restore, per table, I/O
//!   connection and page-table entry; dropping the outcome allocates nothing;
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
use catalyzer_suite::memsim::MappedImage;
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

/// A restore's allocations grow with the tables it fills and the strings it
/// must own (task names, mounts, descriptor paths, socket addresses: a few
/// percent of a graph), not with the runtime objects and dentries that are
/// most of it, which stay ranges of the mapped arena. Stage 1 holds a slot
/// per object and a pointer table: fewer bytes than the sections it maps.
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
        calls < 0.05,
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
/// would cost 4 KiB a page. Dropping the booted outcome allocates nothing.
#[test]
fn cold_and_warm_boots_allocate_around_their_restore_per_table_not_per_object() {
    const BOOTS: [&str; 3] = [
        "Catalyzer-restore boot building the Base-EPT",
        "Catalyzer-restore boot",
        "Catalyzer-Zygote boot",
    ];
    let [small, large] = profiles().map(|profile| {
        let model = CostModel::experimental_machine();
        let mut system = Catalyzer::new();
        system.prewarm_image(&profile, &model).unwrap();
        let stored = system.store().get(&profile.name).unwrap();
        let (objects, pages) = (stored.flat.object_count(), stored.flat.app_page_count());
        let [stage1, stage2] = restore(&stored.flat, &stored.fs, &profile.name);
        let mut boot = |mode| {
            let mut ctx = BootCtx::fresh(&model);
            let mut outcome = None;
            let booted =
                allocs_in(|| outcome = Some(system.boot(mode, &profile, &mut ctx).unwrap()));
            assert_eq!(allocs_in(|| drop(outcome)), Allocs::default());
            booted - stage1 - stage2
        };
        let first = boot(BootMode::Cold);
        let cold = boot(BootMode::Cold);
        boot(BootMode::Warm);
        (objects, pages, [first, cold, boot(BootMode::Warm)])
    });
    for (i, budget) in BOOTS.iter().enumerate() {
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
        assert!(bytes < 256.0, "{budget}: {bytes:.1} bytes per added page");
    }
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
