//! Adversarial corruption tests for the flat func-image reader.
//!
//! A func-image is untrusted input to the restore path, so the contract is
//! total: for *any* byte sequence — truncated, bit-flipped, or with a
//! mangled section table — every reader returns `Err(ImageError)`, and
//! nothing panics, over-allocates, or loops. Panics (including index and
//! arithmetic-overflow panics) fail these tests; proptest shrinks to the
//! offending image.

// Tests may unwrap and narrow freely; the crate's lint ban is about
// library code that handles untrusted images.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use imagefmt::{flat, CheckpointSource, ImageError, IoConn, ObjKind, ObjRecord, PagePayload};
use memsim::{FrameRef, MappedImage, SharedBytes, PAGE_SIZE};
use proptest::prelude::*;
use simtime::{CostModel, SimClock};

fn arb_source() -> impl Strategy<Value = CheckpointSource> {
    (
        proptest::collection::vec(
            (
                1u64..=500,
                0usize..14,
                any::<u32>(),
                proptest::collection::vec(1u64..=500, 0..5),
                proptest::collection::vec(any::<u8>(), 0..48),
            ),
            1..40,
        ),
        proptest::collection::vec(any::<u8>(), 0..3),
        0u64..4,
    )
        .prop_map(|(recs, conn_seed, n_pages)| CheckpointSource {
            objects: recs
                .into_iter()
                .map(|(id, kind, flags, refs, payload)| {
                    ObjRecord::new(id, ObjKind::ALL[kind], flags, refs, payload)
                })
                .collect(),
            app_pages: (0..n_pages)
                .map(|i| PagePayload {
                    vpn: 0x1000 + i,
                    data: FrameRef::from_bytes(&[u8::try_from(i % 251).unwrap_or(0); PAGE_SIZE]),
                })
                .collect(),
            io_conns: conn_seed
                .iter()
                .map(|s| IoConn::file(format!("/f/{s}"), s % 2 == 0))
                .collect(),
        })
}

/// Runs the entire flat read path; the first error wins.
fn full_read(image: SharedBytes) -> Result<(), ImageError> {
    let clock = SimClock::new();
    let model = CostModel::experimental_machine();
    let img = MappedImage::new("corrupt.img", image);
    let flat = flat::FlatImage::parse(&img, &clock, &model)?;
    flat.restore_metadata(&clock, &model)?;
    flat.read_io_manifest(&clock, &model)?;
    flat.app_mem_index(&clock, &model)?;
    flat.build_base_layer(&clock, &model)?;
    Ok(())
}

fn write_image(src: &CheckpointSource) -> Vec<u8> {
    flat::write(src, &SimClock::new(), &CostModel::experimental_machine()).to_vec()
}

/// Writes `n` objects with one pointer each (no connections; two pages whose
/// index bytes directly follow the relation table and the 1-byte manifest),
/// forges the relation table — grown by `grow` bytes, then edited — and
/// re-seals its CRC, so only stage 2's own checks stand before `Ok`.
fn read_forged_relations(
    n: u64,
    grow: u64,
    edit: impl FnOnce(&mut [u8]),
) -> Result<(), ImageError> {
    let mut bytes = write_image(&CheckpointSource {
        objects: (0..n)
            .map(|i| ObjRecord::new(i + 1, ObjKind::ALL[0], 0, vec![(i + 1) % n + 1], vec![]))
            .collect(),
        app_pages: (0..2)
            .map(|i| PagePayload {
                vpn: 0x00FF_FFFF + i,
                data: FrameRef::zeroed(),
            })
            .collect(),
        io_conns: vec![],
    });
    let (start, len) = section(&bytes, REL_TABLE);
    let len = len + grow as usize;
    edit(&mut bytes[start..start + len]);
    reseal(&mut bytes, REL_TABLE, len);
    full_read(SharedBytes::from(bytes))
}

/// Header offsets of two section-table entries (20 bytes each from 24:
/// offset, len, crc).
const META_ARENA: usize = 44;
const REL_TABLE: usize = 64;

/// `(offset, len)` of the section whose table entry is at `entry`.
fn section(bytes: &[u8], entry: usize) -> (usize, usize) {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    (u64_at(entry) as usize, u64_at(entry + 8) as usize)
}

/// Declares that section `len` bytes long and gives it the CRC its bytes
/// now have, so a forgery gets past the checksum.
fn reseal(bytes: &mut [u8], entry: usize, len: usize) {
    let (start, _) = section(bytes, entry);
    bytes[entry + 8..entry + 16].copy_from_slice(&(len as u64).to_le_bytes());
    let crc = imagefmt::crc32(&bytes[start..start + len]);
    bytes[entry + 16..entry + 20].copy_from_slice(&crc.to_le_bytes());
}

/// Stage 2 rejects, and names, the offending entry: a trailing one for
/// record 0xFFFF_FF00 of 2 (the table grown to swallow the manifest byte and
/// 13 index bytes), a duplicate of the second entry, a swapped pair.
#[test]
fn forged_relation_entries_are_rejected_with_their_indices() {
    let bad = |record| Err(ImageError::BadRelation { record, slot: 0 });
    let dangling = read_forged_relations(2, 14, |_| {});
    assert_eq!(dangling, bad(4_294_967_040));
    let duplicate = read_forged_relations(3, 0, |rel| rel.copy_within(14..28, 28));
    assert_eq!(duplicate, bad(1));
    let swapped = read_forged_relations(3, 0, |rel| {
        let (second, third) = rel[14..].split_at_mut(14);
        second.swap_with_slice(third);
    });
    assert_eq!(swapped, bad(1));
}

/// A pointer the relation table does not cover is not a pointer: the arena
/// slot of record 1 is forged to a live object id, its relation entry is
/// dropped (the table closed up and shortened by one entry), and both
/// sections are re-sealed. The slot no longer *looks* unpatched, so only
/// "every slot is covered by exactly one entry" stands before `Ok`.
#[test]
fn forged_unpatched_slot_is_rejected() {
    let mut bytes = write_image(&CheckpointSource {
        objects: (0..3)
            .map(|i| ObjRecord::new(i + 1, ObjKind::ALL[0], 0, vec![(i + 1) % 3 + 1], vec![]))
            .collect(),
        app_pages: vec![],
        io_conns: vec![],
    });
    // Arena records are header(20) + one 8-byte slot, no payload.
    let (arena, arena_len) = section(&bytes, META_ARENA);
    let slot = arena + 28 + 20;
    assert_eq!(bytes[slot..slot + 8], [0xFF; 8], "record 1's placeholder");
    bytes[slot..slot + 8].copy_from_slice(&1u64.to_le_bytes());
    reseal(&mut bytes, META_ARENA, arena_len);
    let (rel, rel_len) = section(&bytes, REL_TABLE);
    bytes.copy_within(rel + 28..rel + 42, rel + 14);
    reseal(&mut bytes, REL_TABLE, rel_len - 14);
    assert_eq!(
        full_read(SharedBytes::from(bytes)),
        Err(ImageError::BadRelation { record: 1, slot: 0 })
    );
}

/// Flips one bit `at(len)` bytes into the metadata arena of an image whose
/// arena (87,017 B) is far longer than the checksum's sparse threshold (a
/// page), and reads the image back. `metadata_bit_flips_always_error`'s
/// images stay under it. On the sparse loop a word is cleared into the words
/// 145, 183, 211 and 300 after it, and the last 300 words and the tail go
/// through the table loop: one flip at each of those places.
fn flip_in_long_arena(at: impl FnOnce(usize) -> usize) -> Result<(), ImageError> {
    let mut bytes = write_image(&CheckpointSource {
        objects: (0..401u64)
            .map(|i| ObjRecord::new(i + 1, ObjKind::ALL[0], 0, vec![], vec![i as u8; 197]))
            .collect(),
        app_pages: vec![],
        io_conns: vec![],
    });
    let (start, len) = section(&bytes, META_ARENA);
    assert!(len > 8 * 2 * 300 && len % 8 != 0, "arena of {len} B");
    bytes[start + at(len)] ^= 0x08;
    full_read(SharedBytes::from(bytes))
}

fn arena_checksum() -> Result<(), ImageError> {
    Err(ImageError::Checksum {
        section: "meta arena",
    })
}

#[test]
fn long_arena_flip_in_the_first_word() {
    assert_eq!(flip_in_long_arena(|_| 0), arena_checksum());
}

#[test]
fn long_arena_flip_145_words_in() {
    assert_eq!(flip_in_long_arena(|_| 8 * 145 + 7), arena_checksum());
}

#[test]
fn long_arena_flip_183_words_in() {
    assert_eq!(flip_in_long_arena(|_| 8 * 183), arena_checksum());
}

#[test]
fn long_arena_flip_211_words_in() {
    assert_eq!(flip_in_long_arena(|_| 8 * 211 + 3), arena_checksum());
}

#[test]
fn long_arena_flip_300_words_in() {
    assert_eq!(flip_in_long_arena(|_| 8 * 300), arena_checksum());
}

#[test]
fn long_arena_flip_in_the_first_residue_word() {
    assert_eq!(
        flip_in_long_arena(|len| 8 * (len / 8 - 300)),
        arena_checksum()
    );
}

#[test]
fn long_arena_flip_in_the_last_byte() {
    assert_eq!(flip_in_long_arena(|len| len - 1), arena_checksum());
}

proptest! {
    /// Cutting the image anywhere must never panic, and cutting into the
    /// header page must always be rejected.
    #[test]
    fn truncation_never_panics(src in arb_source(), cut_seed in any::<u64>()) {
        let full = write_image(&src);
        let len = full.len() as u64;
        let cut = usize::try_from(cut_seed % len).unwrap_or(0);
        let result = full_read(SharedBytes::from(full[..cut].to_vec()));
        if cut < PAGE_SIZE {
            prop_assert!(result.is_err(), "truncated header accepted at cut {cut}");
        }
    }

    /// A bit flip anywhere inside the CRC-guarded metadata sections must be
    /// detected — restore must fail, not silently produce wrong objects.
    #[test]
    fn metadata_bit_flips_always_error(
        src in arb_source(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = write_image(&src);
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let img = MappedImage::new("probe.img", SharedBytes::from(bytes.clone()));
        let meta_len = flat::FlatImage::parse(&img, &clock, &model)
            .expect("pristine image parses")
            .metadata_bytes();
        prop_assume!(meta_len > 0);
        // The writer lays the metadata sections down contiguously starting
        // right after the header page.
        let pos = PAGE_SIZE + usize::try_from(pos_seed % meta_len).unwrap_or(0);
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            full_read(SharedBytes::from(bytes)).is_err(),
            "flipped bit {bit} at {pos} went undetected"
        );
    }

    /// Pointing a section past the end of the image must be rejected for
    /// every one of the six sections.
    #[test]
    fn out_of_bounds_section_offsets_always_error(
        src in arb_source(),
        section in 0usize..6,
        delta in 1u64..0x1_0000,
    ) {
        let mut bytes = write_image(&src);
        let bogus = u64::try_from(bytes.len()).unwrap_or(0) + PAGE_SIZE as u64 + delta;
        let at = 24 + section * 20; // header: magic(4) ver(4) counts(16), then 20 B/section
        bytes[at..at + 8].copy_from_slice(&bogus.to_le_bytes());
        prop_assert!(
            full_read(SharedBytes::from(bytes)).is_err(),
            "section {section} offset past EOF accepted"
        );
    }

    /// Arbitrary garbage in a section-table entry (offset, length, or CRC)
    /// must never panic, whatever it decodes to.
    #[test]
    fn mangled_section_table_never_panics(
        src in arb_source(),
        section in 0usize..6,
        field in 0usize..3,
        garbage in any::<u64>(),
    ) {
        let mut bytes = write_image(&src);
        let at = 24 + section * 20 + field * 8;
        let end = (at + 8).min(24 + section * 20 + 20);
        let le = garbage.to_le_bytes();
        bytes[at..end].copy_from_slice(&le[..end - at]);
        let _ = full_read(SharedBytes::from(bytes));
    }

    /// Corrupting the header's object/page counts must never panic and must
    /// never pre-allocate unbounded memory on the strength of a forged count.
    #[test]
    fn forged_counts_always_error(src in arb_source(), count in any::<u64>()) {
        prop_assume!(count != 0);
        let mut bytes = write_image(&src);
        // n_objects at 8, n_pages at 16; forge both.
        bytes[8..16].copy_from_slice(&count.to_le_bytes());
        bytes[16..24].copy_from_slice(&count.to_le_bytes());
        let changed = count != u64::try_from(src.objects.len()).unwrap_or(u64::MAX)
            || count != u64::try_from(src.app_pages.len()).unwrap_or(u64::MAX);
        prop_assume!(changed);
        prop_assert!(full_read(SharedBytes::from(bytes)).is_err(), "forged count {count} accepted");
    }

    /// Complete byte soup — with or without a valid magic — never panics.
    #[test]
    fn arbitrary_bytes_never_panic(
        mut soup in proptest::collection::vec(any::<u8>(), 0..3 * PAGE_SIZE),
        plant_magic in any::<bool>(),
    ) {
        if plant_magic && soup.len() >= 4 {
            soup[0..4].copy_from_slice(b"FUNC");
        }
        let _ = full_read(SharedBytes::from(soup));
    }
}
