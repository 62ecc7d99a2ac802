//! Golden-format test for the func-image writer.
//!
//! `flat::write` may change how it gets bytes into the image, never which
//! bytes: stored images outlive the writer that produced them. The lengths
//! and digests below were pinned from the writer as it stood before the
//! single-pass rewrite; a diff here is a format break, not a refactor.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use std::sync::Arc;

use imagefmt::varint::read_u64_le;
use imagefmt::{flat, CheckpointSource, IoConn, ObjKind, ObjRecord, PagePayload};
use memsim::{Frame, MappedImage, PAGE_SIZE};
use simtime::{CostModel, SimClock};

/// FNV-1a 64 — deliberately not `imagefmt::crc32`, so the pin does not
/// lean on the checksum the image itself is guarded with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn objects() -> Vec<ObjRecord> {
    vec![
        ObjRecord::new(1, ObjKind::Task, 0x11, vec![], b"init".to_vec()),
        ObjRecord::new(2, ObjKind::Thread, 0, vec![1], vec![]),
        ObjRecord::new(
            3,
            ObjKind::Mount,
            0xDEAD_BEEF,
            vec![1, 2, 3, 4, 1],
            vec![0xA5; 37],
        ),
        ObjRecord::new(
            4,
            ObjKind::Socket,
            7,
            vec![3],
            (0u8..=200).collect::<Vec<_>>(),
        ),
    ]
}

fn conns() -> Vec<IoConn> {
    vec![
        IoConn::file("/app/rootfs/lib.so", true),
        IoConn::socket("10.0.0.7:6379", false),
    ]
}

/// Three pages at non-contiguous vpns, each byte a function of (vpn, i).
fn pages() -> Vec<PagePayload> {
    [0x4_0000u64, 0x4_0007, 0x9_1234]
        .into_iter()
        .map(|vpn| PagePayload {
            vpn,
            data: Arc::new(Frame::from_bytes(
                &(0..PAGE_SIZE)
                    .map(|i| ((i as u64 * 31 + vpn) % 251) as u8)
                    .collect::<Vec<_>>(),
            )),
        })
        .collect()
}

/// Writes `src`, checks the pinned length/digest and virtual-time charge,
/// the page alignment of the image and of its app-page section, and that
/// every reader round-trips.
fn check(src: &CheckpointSource, want_len: usize, want_digest: u64, want_charge_ns: u64) {
    let model = CostModel::experimental_machine();
    let clock = SimClock::new();
    let bytes = flat::write(src, &clock, &model);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (want_len, want_digest),
        "image bytes moved: got ({}, {:#018x})",
        bytes.len(),
        fnv1a(&bytes)
    );
    assert_eq!(
        clock.now().as_nanos(),
        want_charge_ns,
        "offline charge moved"
    );
    assert_eq!(bytes.len() % PAGE_SIZE, 0, "image must be whole pages");

    // Header: magic(4) version(4) n_objects(8) n_pages(8), then six
    // 20-byte section entries; `appmem_pages` is the sixth.
    let mut pos = 24 + 5 * 20;
    let mut field = || usize::try_from(read_u64_le(&bytes, &mut pos, "header").unwrap()).unwrap();
    let (pages_at, pages_len) = (field(), field());
    assert_eq!(pages_at % PAGE_SIZE, 0, "app pages must be page-aligned");
    assert_eq!(pages_len, src.app_pages.len() * PAGE_SIZE);
    assert_eq!(pages_at + pages_len, bytes.len());
    for (i, page) in src.app_pages.iter().enumerate() {
        let at = pages_at + i * PAGE_SIZE;
        assert_eq!(&bytes[at..at + PAGE_SIZE], &page.data[..], "page {i}");
    }

    let image = MappedImage::new("golden.func", bytes);
    let parsed = flat::FlatImage::parse(&image, &clock, &model).unwrap();
    assert_eq!(
        parsed.restore_metadata(&clock, &model).unwrap(),
        src.objects
    );
    assert_eq!(
        parsed.read_io_manifest(&clock, &model).unwrap(),
        src.io_conns
    );
    let want_index: Vec<(u64, u64)> = src
        .app_pages
        .iter()
        .enumerate()
        .map(|(i, p)| (p.vpn, (pages_at / PAGE_SIZE + i) as u64))
        .collect();
    assert_eq!(parsed.app_mem_index(&clock, &model).unwrap(), want_index);
}

#[test]
fn full_source_bytes_are_pinned() {
    let src = CheckpointSource {
        objects: objects(),
        app_pages: pages(),
        io_conns: conns(),
    };
    check(&src, 20_480, 0xbc89_1dd5_19d9_8127, 10_248);
}

#[test]
fn zero_page_source_bytes_are_pinned() {
    let src = CheckpointSource {
        objects: objects(),
        app_pages: vec![],
        io_conns: conns(),
    };
    check(&src, 8_192, 0x0cdd_cafb_cd9e_ecdd, 9_019);
}

#[test]
fn zero_object_source_bytes_are_pinned() {
    let src = CheckpointSource {
        objects: vec![],
        app_pages: pages(),
        io_conns: vec![],
    };
    check(&src, 20_480, 0xe921_689d_7c6f_889c, 2_048);
}

#[test]
fn empty_source_bytes_are_pinned() {
    check(
        &CheckpointSource::default(),
        8_192,
        0x93f7_3030_c04b_47a2,
        819,
    );
}
