//! Property-based tests: both image formats are faithful, agree with each
//! other, and reject corruption.

// Tests may unwrap and narrow freely; the crate's lint ban is about
// library code that handles untrusted images.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use imagefmt::{classic, flat, CheckpointSource, IoConn, ObjKind, ObjRecord, PagePayload};
use memsim::{FrameRef, MappedImage, SharedBytes, PAGE_SIZE};
use proptest::prelude::*;
use simtime::{CostModel, SimClock};

fn arb_record(max_id: u64) -> impl Strategy<Value = ObjRecord> {
    (
        1..=max_id,
        0usize..14,
        any::<u32>(),
        proptest::collection::vec(1..=max_id, 0..6),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(id, kind, flags, refs, payload)| {
            ObjRecord::new(id, ObjKind::ALL[kind], flags, refs, payload)
        })
}

fn arb_source() -> impl Strategy<Value = CheckpointSource> {
    (
        proptest::collection::vec(arb_record(1_000), 0..80),
        proptest::collection::vec((0u64..1_000_000, any::<u8>()), 0..4),
        proptest::collection::vec(
            ("[a-z/._-]{1,24}", any::<bool>()).prop_map(|(p, u)| IoConn::file(p, u)),
            0..6,
        ),
    )
        .prop_map(|(objects, pages, io_conns)| CheckpointSource {
            objects,
            app_pages: pages
                .into_iter()
                .map(|(vpn, fill)| PagePayload {
                    vpn,
                    data: FrameRef::from_bytes(&[fill; PAGE_SIZE]),
                })
                .collect(),
            io_conns,
        })
}

/// Holds what a func-image restore hands out to the records it must equal:
/// the same objects in the same order, each view's every field — read
/// through the view, both ways a payload can be taken — equal to its
/// record's. Names the first difference.
fn views_mismatch(restored: &flat::RestoredRecords, records: &[ObjRecord]) -> Option<String> {
    if restored.len() != records.len() || restored.iter().len() != records.len() {
        return Some(format!(
            "{} views of {} records",
            restored.len(),
            records.len()
        ));
    }
    restored
        .iter()
        .zip(records)
        .enumerate()
        .find_map(|(i, (view, rec))| {
            let (buf, at) = view.payload_source();
            let same = view.id == rec.id
                && view.kind == rec.kind
                && view.flags == rec.flags
                && view.refs().eq(rec.refs.iter().copied())
                && view.payload() == &rec.payload[..]
                && buf.get(at..at + rec.payload.len()) == Some(&rec.payload[..])
                && view == *rec;
            (!same).then(|| format!("object {i}: {view:?} is not {rec:?}"))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The LZ codec round-trips arbitrary byte strings.
    #[test]
    fn lz_round_trip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let packed = imagefmt::lz::compress(&data);
        prop_assert_eq!(imagefmt::lz::decompress(&packed).unwrap(), data);
    }

    /// Highly repetitive inputs always shrink.
    #[test]
    fn lz_compresses_repetition(byte in any::<u8>(), reps in 256usize..8192) {
        let data = vec![byte; reps];
        let packed = imagefmt::lz::compress(&data);
        prop_assert!(packed.len() < data.len() / 4, "{} -> {}", data.len(), packed.len());
        prop_assert_eq!(imagefmt::lz::decompress(&packed).unwrap(), data);
    }

    /// Varints round-trip and are minimally sized.
    #[test]
    fn varint_round_trip(values in proptest::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = Vec::new();
        for v in &values {
            imagefmt::varint::put_u64(&mut buf, *v);
        }
        let mut pos = 0;
        for v in &values {
            prop_assert_eq!(imagefmt::varint::get_u64(&buf, &mut pos).unwrap(), *v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// Classic format: write → read is the identity.
    #[test]
    fn classic_round_trip(src in arb_source()) {
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        let image = classic::write(&src, &clock, &model);
        let back = classic::read(&image, &clock, &model).unwrap();
        prop_assert_eq!(back, src);
    }

    /// Flat format: metadata, manifest, and app pages all survive.
    #[test]
    fn flat_round_trip(src in arb_source()) {
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        let bytes = flat::write(&src, &clock, &model);
        let mapped = MappedImage::new("p", bytes);
        let img = flat::FlatImage::parse(&mapped, &clock, &model).unwrap();
        let restored = img.restore_metadata(&clock, &model).unwrap();
        prop_assert_eq!(views_mismatch(&restored, &src.objects), None);
        prop_assert_eq!(img.read_io_manifest(&clock, &model).unwrap(), src.io_conns.clone());
        let index = img.app_mem_index(&clock, &model).unwrap();
        prop_assert_eq!(index.len(), src.app_pages.len());
        for ((vpn, page), expect) in index.iter().zip(&src.app_pages) {
            prop_assert_eq!(*vpn, expect.vpn);
            let frame = mapped.load_page(*page, &clock, &model).unwrap();
            prop_assert_eq!(frame.bytes(), &expect.data[..]);
        }
    }

    /// The two formats restore identical object graphs from the same source.
    #[test]
    fn formats_agree(src in arb_source()) {
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        let from_classic = classic::read(
            &classic::write(&src, &clock, &model), &clock, &model).unwrap();
        let mapped = MappedImage::new("p", flat::write(&src, &clock, &model));
        let img = flat::FlatImage::parse(&mapped, &clock, &model).unwrap();
        let from_flat = img.restore_metadata(&clock, &model).unwrap();
        prop_assert_eq!(views_mismatch(&from_flat, &from_classic.objects), None);
        prop_assert_eq!(views_mismatch(&from_flat, &src.objects), None);
    }

    /// Single-byte corruption in the classic body never restores silently.
    #[test]
    fn classic_detects_corruption(src in arb_source(), pos_seed in any::<u64>(), xor in 1u8..=255) {
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        let image = classic::write(&src, &clock, &model);
        prop_assume!(image.len() > 21);
        let mut bytes = image.to_vec();
        let pos = 20 + (pos_seed as usize % (bytes.len() - 20));
        bytes[pos] ^= xor;
        prop_assert!(classic::read(&SharedBytes::from(bytes), &clock, &model).is_err());
    }

    /// Single-byte corruption in the flat metadata sections never restores
    /// silently (app pages are covered by their own lazy accesses and are
    /// exempt from eager checksumming by design).
    #[test]
    fn flat_detects_metadata_corruption(
        src in arb_source(), pos_seed in any::<u64>(), xor in 1u8..=255,
    ) {
        prop_assume!(!src.objects.is_empty());
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        let image = flat::write(&src, &clock, &model);
        let meta_len: usize = src.objects.iter().map(|o| o.wire_size()).sum();
        prop_assume!(meta_len > 0);
        let mut bytes = image.to_vec();
        let pos = PAGE_SIZE + (pos_seed as usize % meta_len);
        bytes[pos] ^= xor;
        let mapped = MappedImage::new("c", SharedBytes::from(bytes));
        match flat::FlatImage::parse(&mapped, &clock, &model) {
            Err(_) => {}
            Ok(img) => prop_assert!(img.restore_metadata(&clock, &model).is_err()),
        }
    }
}
