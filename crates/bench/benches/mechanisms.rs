//! Criterion micro-benchmarks of the core mechanisms: the real Rust-level
//! cost of the data paths whose *simulated* cost the figures report.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use imagefmt::{classic, flat, CheckpointSource, IoConn, ObjKind, ObjRecord, PagePayload};
use memsim::{AddressSpace, EptLayer, MappedImage, Perms, ShareMode, VpnRange, PAGE_SIZE};
use simtime::{CostModel, SimClock};
use std::hint::black_box;
use std::sync::Arc;

fn sample_source(objects: u64, pages: u64) -> CheckpointSource {
    CheckpointSource {
        objects: (0..objects)
            .map(|i| {
                ObjRecord::new(
                    i + 1,
                    ObjKind::ALL[(i % 14) as usize],
                    i as u32,
                    (0..(i % 3)).map(|k| (i + k) % objects + 1).collect(),
                    vec![(i % 251) as u8; 24],
                )
            })
            .collect(),
        app_pages: (0..pages)
            .map(|i| PagePayload {
                vpn: 0x1_0000 + i,
                data: Bytes::from(vec![(i % 255) as u8; PAGE_SIZE]),
            })
            .collect(),
        io_conns: vec![IoConn::file("/lib/x.so", true); 8],
    }
}

fn lz_codec(c: &mut Criterion) {
    let data: Vec<u8> = (0..1 << 20)
        .map(|i: u32| {
            if i.is_multiple_of(7) {
                (i / 7) as u8
            } else {
                0xAB
            }
        })
        .collect();
    let packed = bytes::Bytes::from(imagefmt::lz::compress(&data));
    let mut group = c.benchmark_group("lz");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("compress_1MiB", |b| {
        b.iter(|| black_box(imagefmt::lz::compress(&data)))
    });
    group.bench_function("decompress_1MiB", |b| {
        b.iter(|| black_box(imagefmt::lz::decompress(&packed).unwrap()))
    });
    group.finish();
}

fn classic_format(c: &mut Criterion) {
    let model = CostModel::experimental_machine();
    let src = sample_source(5_000, 16);
    let image = classic::write(&src, &SimClock::new(), &model);
    let mut group = c.benchmark_group("classic");
    group.bench_function("write_5k_objects", |b| {
        b.iter(|| black_box(classic::write(&src, &SimClock::new(), &model)))
    });
    group.bench_function("read_5k_objects", |b| {
        b.iter(|| black_box(classic::read(&image, &SimClock::new(), &model).unwrap()))
    });
    group.finish();
}

fn flat_format(c: &mut Criterion) {
    let model = CostModel::experimental_machine();
    let src = sample_source(5_000, 16);
    let bytes = flat::write(&src, &SimClock::new(), &model);
    let mapped = MappedImage::new("bench.func", bytes);
    let parsed = flat::FlatImage::parse(&mapped, &SimClock::new(), &model).unwrap();
    let mut group = c.benchmark_group("flat");
    group.bench_function("write_5k_objects", |b| {
        b.iter(|| black_box(flat::write(&src, &SimClock::new(), &model)))
    });
    // Heap-dominated, like a real func-image: 8 MiB of app pages behind
    // 5k objects, so the writer's copies per image byte show up here.
    let heavy = sample_source(5_000, 2_048);
    group.bench_function("write_5k_objects_2048_pages", |b| {
        b.iter(|| black_box(flat::write(&heavy, &SimClock::new(), &model)))
    });
    group.bench_function("restore_metadata_5k_objects", |b| {
        // Stage 1 (map) + stage 2 (one pass over the relation table).
        b.iter(|| black_box(parsed.restore_metadata(&SimClock::new(), &model).unwrap()))
    });
    group.finish();
}

fn ept_paths(c: &mut Criterion) {
    let model = CostModel::experimental_machine();
    let pages = 1_024u64;
    let image = MappedImage::new(
        "mem.img",
        Bytes::from(vec![7u8; (pages as usize) * PAGE_SIZE]),
    );
    let mut group = c.benchmark_group("ept");
    group.throughput(Throughput::Bytes(pages * PAGE_SIZE as u64));
    group.bench_function("cow_fault_storm_1024_pages", |b| {
        let clock = SimClock::new();
        let base = EptLayer::lazy_from_image(&image, 0, &clock, &model);
        b.iter(|| {
            let mut space = AddressSpace::new("bench");
            space
                .attach_base(
                    Arc::clone(&base),
                    VpnRange::new(0, pages),
                    "img",
                    &clock,
                    &model,
                )
                .unwrap();
            space
                .touch_range(VpnRange::new(0, pages), true, &clock, &model)
                .unwrap();
            black_box(space.stats().cow_faults)
        })
    });
    group.bench_function("sfork_clone_1024_pages", |b| {
        let clock = SimClock::new();
        let mut template = AddressSpace::new("tmpl");
        template
            .map_anonymous(
                VpnRange::new(0, pages),
                Perms::RW,
                ShareMode::Private,
                "heap",
            )
            .unwrap();
        template
            .touch_range(VpnRange::new(0, pages), true, &clock, &model)
            .unwrap();
        b.iter(|| black_box(template.sfork_clone("child").unwrap()))
    });
    group.finish();
}

fn kernel_graph(c: &mut Criterion) {
    let model = CostModel::experimental_machine();
    let clock = SimClock::new();
    let fs = Arc::new(
        guest_kernel::gofer::FsServer::builder("bench")
            .synthetic_tree("/lib", 32, 256)
            .build(),
    );
    let mut kernel = guest_kernel::GuestKernel::boot("bench", Arc::clone(&fs), &clock, &model);
    guest_kernel::GraphSpec::sized(5_000)
        .populate(&mut kernel, &clock, &model)
        .unwrap();
    let records = kernel.checkpoint_objects();
    let mut group = c.benchmark_group("kernel");
    group.bench_function("checkpoint_5k_objects", |b| {
        b.iter(|| black_box(kernel.checkpoint_objects()))
    });
    group.bench_function("restore_5k_objects", |b| {
        b.iter(|| {
            black_box(
                guest_kernel::GuestKernel::restore_from_records(
                    "r",
                    &records,
                    Arc::clone(&fs),
                    false,
                    &SimClock::new(),
                    &model,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn crc(c: &mut Criterion) {
    // One heap page and Table 3's smallest I/O manifest beside the bulk
    // case: the short inputs show per-call setup, the long one the loop.
    // More iterations for the short ones so the timer does not dominate.
    let mut group = c.benchmark_group("crc32");
    for (name, len, iters) in [
        ("1MiB", 1 << 20, 10),
        ("4KiB", PAGE_SIZE, 1_000),
        ("370B", 370, 10_000),
    ] {
        let data = vec![0x5Au8; len];
        group.sample_size(iters);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| b.iter(|| black_box(imagefmt::crc32(&data))));
    }
    group.finish();
}

criterion_group!(
    mechanisms,
    lz_codec,
    classic_format,
    flat_format,
    ept_paths,
    kernel_graph,
    crc
);
criterion_main!(mechanisms);
