//! The flat **func-image** format (paper §3.1–§3.2).
//!
//! A func-image is *well-formed*: uncompressed, page-aligned, and directly
//! `mmap`-able. It holds:
//!
//! - a **metadata arena** of partially deserialized guest-kernel objects —
//!   records laid out in their in-memory shape with every pointer slot
//!   zeroed to a placeholder;
//! - a **relation table** mapping `(record, pointer slot) → target object`,
//!   used by stage 2 of separated state recovery to re-establish pointers
//!   (one entry per pointer slot, strictly ordered, so each patch is
//!   independent — the reader checks it — and the clock is charged the
//!   critical path of `parallel_workers` workers);
//! - an **I/O manifest** of connections to re-establish (lazily, §3.3);
//! - the **application memory pages**, page-aligned so the Base-EPT can
//!   reference them lazily without any copy.
//!
//! Restore therefore never pays per-object deserialization: stage 1 is a
//! mapping (page-cache touches of the metadata sections), stage 2 is pointer
//! patching. This is the mechanism behind the paper's 7× "kernel loading"
//! reduction in Figure 12.
//!
//! The host code does the same. [`FlatImage::restore_metadata`] returns a
//! [`RestoredRecords`]: the mapped arena, one 32-byte slot per object (its
//! scalar fields, where its payload lies, how many pointers it has) and one
//! pointer table — three allocations whatever the object count, none per
//! object. Stage 2 is a single in-order pass over the relation table, whose
//! targets *are* that pointer table: the writer emits one entry per pointer
//! slot, `(record, slot)` strictly increasing, so "the next entry is the slot
//! that is due" is the whole check — order, duplicates, dangling entries and
//! uncovered slots all fail it — and the arena's own slot bytes are never
//! read. Objects are read through borrowed [`ObjView`]s.
//!
//! Every pointer is really taken from the table and totality really checked,
//! on the calling thread; only the parallel *schedule* is modelled. Spawning
//! and joining host threads per restore cost more than splitting a few
//! thousand `u64` writes saved, across the paper's ten profiles.

// Untrusted bytes are parsed here: a panic source spelled in this module
// fails clippy; one reached through a helper is catalint's `panic` pass.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::as_conversions,
        clippy::indexing_slicing
    )
)]

use std::fmt;
use std::sync::Arc;

use memsim::{EptEntry, EptLayer, MappedImage, SharedBytes, Vpn, PAGE_SIZE, PAGE_SIZE_U64};
use simtime::{CostModel, SimClock};

use crate::crc::Crc32;
use crate::record::{PayloadBuf, REF_PLACEHOLDER};
use crate::varint::{read_u16_le, read_u32_le, read_u64_le};
use crate::{
    classic, crc32, CheckpointSource, ImageError, IoConn, ObjId, ObjKind, ObjRecord, ObjView,
};

const MAGIC: &[u8; 4] = b"FUNC";
const VERSION: u32 = 1;
/// Fixed record header: id(8) kind(2) flags(4) nrefs(2) payload_len(4).
const REC_HEADER: usize = 20;
/// Relation-table entry: record(4) slot(2) target(8).
const REL_ENTRY: usize = 14;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Section {
    offset: u64,
    len: u64,
    crc: u32,
}

/// The six sections of a func-image, in on-disk header order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sections {
    meta_index: Section,
    meta_arena: Section,
    rel_table: Section,
    io_manifest: Section,
    appmem_index: Section,
    appmem_pages: Section,
}

impl Sections {
    /// Header serialization order.
    fn in_order(&self) -> [Section; 6] {
        [
            self.meta_index,
            self.meta_arena,
            self.rel_table,
            self.io_manifest,
            self.appmem_index,
            self.appmem_pages,
        ]
    }
}

// Writer-side narrowing helpers. Checkpoint structures live in memory, so
// the saturating fallback is unreachable in practice; `try_from` keeps this
// parse module free of lossy `as` casts without panicking (the module
// denies both).
fn w64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}
fn w32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}
fn w16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Writes a func-image (the offline func-image *compilation* step, §5).
///
/// Charges per-object encode plus bulk copy costs — all off the startup
/// critical path.
pub fn write(src: &CheckpointSource, clock: &SimClock, model: &CostModel) -> SharedBytes {
    // --- metadata arena + index + relation table ---
    let mut arena = Vec::new();
    let mut index = Vec::with_capacity(src.objects.len() * 8);
    let mut rel = Vec::new();
    for (rec_idx, obj) in src.objects.iter().enumerate() {
        assert!(
            obj.refs.len() <= usize::from(u16::MAX),
            "too many pointer slots"
        );
        index.extend_from_slice(&w64(arena.len()).to_le_bytes());
        arena.extend_from_slice(&obj.id.to_le_bytes());
        arena.extend_from_slice(&obj.kind.code().to_le_bytes());
        arena.extend_from_slice(&obj.flags.to_le_bytes());
        arena.extend_from_slice(&w16(obj.refs.len()).to_le_bytes());
        arena.extend_from_slice(&w32(obj.payload.len()).to_le_bytes());
        for (slot, target) in obj.refs.iter().enumerate() {
            // Zeroed placeholder in the arena; the truth goes into the
            // relation table.
            arena.extend_from_slice(&REF_PLACEHOLDER.to_le_bytes());
            rel.extend_from_slice(&w32(rec_idx).to_le_bytes());
            rel.extend_from_slice(&w16(slot).to_le_bytes());
            rel.extend_from_slice(&target.to_le_bytes());
        }
        arena.extend_from_slice(&obj.payload);
    }

    // --- I/O manifest (same wire encoding as the classic format) ---
    let mut manifest = Vec::new();
    crate::varint::put_u64(&mut manifest, w64(src.io_conns.len()));
    for conn in &src.io_conns {
        classic::encode_conn(&mut manifest, conn);
    }

    // --- application memory index ---
    let mut appmem_index = Vec::with_capacity(src.app_pages.len() * 8);
    for page in &src.app_pages {
        appmem_index.extend_from_slice(&page.vpn.to_le_bytes());
    }

    // --- assemble ---
    // The heap is nearly all of the image: `body` is allocated once at the
    // exact image size and each page is copied once, from the checkpointed
    // sandbox's own frame to its final offset. `body` is then handed over as
    // it stands: it is the buffer the image is mapped from. Only the (small)
    // metadata sections pass through scratch Vecs.
    let meta_len = index.len() + arena.len() + rel.len() + manifest.len() + appmem_index.len();
    // Raw app pages start on a page boundary, after the header page.
    let pages_at = (PAGE_SIZE + meta_len).next_multiple_of(PAGE_SIZE);
    let pages_len = src.app_pages.len() * PAGE_SIZE;
    let mut body = Vec::with_capacity(pages_at + pages_len);
    body.resize(PAGE_SIZE, 0); // reserve the header page
    let place = |body: &mut Vec<u8>, bytes: &[u8]| -> Section {
        let offset = w64(body.len());
        body.extend_from_slice(bytes);
        Section {
            offset,
            len: w64(bytes.len()),
            crc: crc32(bytes),
        }
    };
    // Fields are evaluated in source order, which is the on-disk order.
    let sections = Sections {
        meta_index: place(&mut body, &index),
        meta_arena: place(&mut body, &arena),
        rel_table: place(&mut body, &rel),
        io_manifest: place(&mut body, &manifest),
        appmem_index: place(&mut body, &appmem_index),
        appmem_pages: {
            body.resize(pages_at, 0);
            // Each page is checksummed as it lands, while it is in cache:
            // the heap crosses the memory bus once, not once to be placed
            // and once more to be read back.
            let mut crc = Crc32::new();
            for page in &src.app_pages {
                let at = body.len();
                body.extend_from_slice(&page.data);
                crc.fold(body.get(at..).unwrap_or_default());
            }
            // Whole pages from a page boundary: the image ends well-formed
            // with no tail padding.
            Section {
                offset: w64(pages_at),
                len: w64(pages_len),
                crc: crc.finish(),
            }
        },
    };

    // --- header page ---
    let mut header = Vec::with_capacity(PAGE_SIZE);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&w64(src.objects.len()).to_le_bytes());
    header.extend_from_slice(&w64(src.app_pages.len()).to_le_bytes());
    for s in sections.in_order() {
        header.extend_from_slice(&s.offset.to_le_bytes());
        header.extend_from_slice(&s.len.to_le_bytes());
        header.extend_from_slice(&s.crc.to_le_bytes());
    }
    assert!(header.len() <= PAGE_SIZE, "header must fit one page");
    if let Some(dst) = body.get_mut(..header.len()) {
        dst.copy_from_slice(&header);
    }

    clock.charge(
        model
            .obj
            .encode_per_object
            .saturating_mul(w64(src.objects.len())),
    );
    clock.charge(model.memcpy(w64(body.len())));
    SharedBytes::from(body)
}

/// A parsed func-image handle: cheap header view over a [`MappedImage`].
#[derive(Debug)]
pub struct FlatImage {
    image: Arc<MappedImage>,
    sections: Sections,
    n_objects: u64,
    n_pages: u64,
}

impl FlatImage {
    /// Parses the header page. Charges one page touch (the header) plus the
    /// `mmap` of the image region — nothing else; every section stays lazy.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on bad magic/version or out-of-bounds sections.
    pub fn parse(
        image: &Arc<MappedImage>,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<FlatImage, ImageError> {
        clock.charge(model.mmap_region(image.len()));
        let header = image
            .load_page(0, clock, model)
            .map_err(|_| ImageError::Truncated {
                what: "flat header",
            })?;
        let buf = header.bytes();
        if buf.get(0..4) != Some(MAGIC.as_slice()) {
            return Err(ImageError::BadMagic);
        }
        let mut pos = 4usize;
        let version = read_u32_le(buf, &mut pos, "flat header")?;
        if version != VERSION {
            return Err(ImageError::BadVersion { found: version });
        }
        let n_objects = read_u64_le(buf, &mut pos, "flat header")?;
        let n_pages = read_u64_le(buf, &mut pos, "flat header")?;
        let image_ceiling = image.len().next_multiple_of(PAGE_SIZE_U64);
        let read_section = |pos: &mut usize| -> Result<Section, ImageError> {
            let offset = read_u64_le(buf, pos, "flat section header")?;
            let len = read_u64_le(buf, pos, "flat section header")?;
            let crc = read_u32_le(buf, pos, "flat section header")?;
            let end = offset.checked_add(len).ok_or(ImageError::BadSection {
                section: "flat section",
            })?;
            if end > image_ceiling {
                return Err(ImageError::BadSection {
                    section: "flat section",
                });
            }
            Ok(Section { offset, len, crc })
        };
        let sections = Sections {
            meta_index: read_section(&mut pos)?,
            meta_arena: read_section(&mut pos)?,
            rel_table: read_section(&mut pos)?,
            io_manifest: read_section(&mut pos)?,
            appmem_index: read_section(&mut pos)?,
            appmem_pages: read_section(&mut pos)?,
        };
        Ok(FlatImage {
            image: Arc::clone(image),
            sections,
            n_objects,
            n_pages,
        })
    }

    /// The backing image.
    pub fn image(&self) -> &Arc<MappedImage> {
        &self.image
    }

    /// Number of metadata objects.
    pub fn object_count(&self) -> u64 {
        self.n_objects
    }

    /// Number of application memory pages.
    pub fn app_page_count(&self) -> u64 {
        self.n_pages
    }

    /// Size of the metadata sections (index + arena + relation table), i.e.
    /// Table 3's "Metadata Objects" column.
    pub fn metadata_bytes(&self) -> u64 {
        self.sections.meta_index.len + self.sections.meta_arena.len + self.sections.rel_table.len
    }

    /// Size of the I/O manifest section.
    pub fn io_manifest_bytes(&self) -> u64 {
        self.sections.io_manifest.len
    }

    /// Reads a whole section through the page cache, charging page touches.
    fn section_bytes(
        &self,
        s: Section,
        name: &'static str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<SharedBytes, ImageError> {
        let end64 = s
            .offset
            .checked_add(s.len)
            .ok_or(ImageError::BadSection { section: name })?;
        let start =
            usize::try_from(s.offset).map_err(|_| ImageError::BadSection { section: name })?;
        let end = usize::try_from(end64).map_err(|_| ImageError::BadSection { section: name })?;
        if end > self.image.raw_bytes().len() {
            return Err(ImageError::BadSection { section: name });
        }
        // Touch the section via the shared page cache with readahead: disk
        // is charged once globally; the per-space fault cost is charged here.
        let first_page = s.offset / PAGE_SIZE_U64;
        let last_page = end64.div_ceil(PAGE_SIZE_U64);
        self.image
            .load_range(
                first_page,
                last_page.saturating_sub(first_page),
                clock,
                model,
            )
            .map_err(|_| ImageError::Truncated { what: name })?;
        clock.charge(
            model
                .mem
                .page_fault
                .saturating_mul(last_page.saturating_sub(first_page)),
        );
        let bytes = self.image.raw_bytes().slice(start..end);
        if crc32(&bytes) != s.crc {
            return Err(ImageError::Checksum { section: name });
        }
        clock.charge(model.memcpy(w64(bytes.len()))); // checksum pass
        Ok(bytes)
    }

    /// **Separated state recovery** (§3.2): stage 1 maps the metadata arena
    /// — one fixed-size slot per object saying where its fields lie, no
    /// per-object decode or allocation; stage 2 re-establishes pointer
    /// relations in one pass over the relation table, which *becomes* the
    /// pointer table, charging the critical path of `model.parallel_workers`
    /// modelled workers over contiguous record chunks.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on corrupt sections, malformed records, or a relation
    /// table that does not cover every pointer slot exactly once, in order:
    /// [`ImageError::BadRelation`] names the first slot left uncovered, or the
    /// entry before it that is dangling, duplicated or out of order.
    pub fn restore_metadata(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<RestoredRecords, ImageError> {
        // Stage 1: map.
        let index = self.section_bytes(self.sections.meta_index, "meta index", clock, model)?;
        let arena = self.section_bytes(self.sections.meta_arena, "meta arena", clock, model)?;
        let rel = self.section_bytes(self.sections.rel_table, "relation table", clock, model)?;

        let n_objects = usize::try_from(self.n_objects).map_err(|_| ImageError::Malformed {
            what: "object count",
        })?;
        let want = n_objects.checked_mul(8).ok_or(ImageError::Malformed {
            what: "object count",
        })?;
        if index.len() != want {
            return Err(ImageError::Truncated { what: "meta index" });
        }
        // Bounded by the (already size-checked) index section itself.
        let mut slots = Vec::with_capacity(n_objects);
        for entry in index.as_chunks::<8>().0 {
            let off =
                usize::try_from(u64::from_le_bytes(*entry)).map_err(|_| ImageError::Malformed {
                    what: "meta index entry",
                })?;
            slots.push(parse_arena_record(&arena, off)?);
        }

        // Stage 2: pointer re-establishment, in one pass. The writer emits
        // one entry per pointer slot, `(record, slot)` strictly increasing,
        // so the entry that is due is known before it is read and the
        // targets, in table order, are each record's pointers back to back.
        // What the arena holds in a slot is never read, and no two entries
        // write one slot: any partition over workers yields these same
        // records, and only that partition's schedule is modelled.
        let (entries, stray) = rel.as_chunks::<REL_ENTRY>();
        if !stray.is_empty() {
            return Err(ImageError::Truncated {
                what: "relation table",
            });
        }
        let mut entries = entries.iter().map(relation_entry);
        // Bounded by the relation section itself.
        let mut refs = Vec::with_capacity(entries.len());
        for (i, rec) in slots.iter().enumerate() {
            for due_slot in 0..rec.n_refs {
                let due = (w64(i), due_slot);
                match entries.next() {
                    Some((record, slot, target)) if (u64::from(record), slot) == due => {
                        refs.push(target);
                    }
                    // Behind the slot that is due: dangling, a duplicate, or
                    // out of order.
                    Some((record, slot, _)) if (u64::from(record), slot) < due => {
                        return Err(ImageError::BadRelation { record, slot });
                    }
                    // Ahead of it, or the table has ended: nothing will
                    // cover the due slot any more.
                    _ => {
                        return Err(ImageError::BadRelation {
                            record: u32::try_from(i).unwrap_or(u32::MAX),
                            slot: due_slot,
                        });
                    }
                }
            }
        }
        // Totality the other way round: no entry without a slot.
        if let Some((record, slot, _)) = entries.next() {
            return Err(ImageError::BadRelation { record, slot });
        }
        let workers = model.parallel_workers.max(1);
        let chunk_len = slots.len().div_ceil(workers).max(1);
        clock.charge_parallel(slots.chunks(chunk_len).map(|chunk| {
            let patched = chunk.iter().map(|rec| u64::from(rec.n_refs)).sum();
            model.obj.fixup_per_pointer.saturating_mul(patched)
        }));
        Ok(RestoredRecords { arena, slots, refs })
    }

    /// Reads the I/O manifest (cheap; the manifest is tiny — Table 3 shows
    /// 370 B–2.4 KB of cached connections).
    ///
    /// # Errors
    ///
    /// [`ImageError`] on a corrupt manifest section.
    pub fn read_io_manifest(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Vec<IoConn>, ImageError> {
        let bytes = self.section_bytes(self.sections.io_manifest, "io manifest", clock, model)?;
        let mut pos = 0usize;
        let n = usize::try_from(crate::varint::get_u64(&bytes, &mut pos)?).map_err(|_| {
            ImageError::Malformed {
                what: "io manifest count",
            }
        })?;
        // Every connection takes at least one byte, so a count larger than
        // the section is already known-bad; the cap keeps a forged count
        // from pre-allocating unbounded memory.
        let mut conns = Vec::with_capacity(n.min(bytes.len()));
        for _ in 0..n {
            conns.push(classic::decode_conn(&bytes, &mut pos)?);
        }
        Ok(conns)
    }

    /// Reads the `(vpn → image page)` application-memory index.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on a corrupt index section.
    pub fn app_mem_index(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Vec<(Vpn, u64)>, ImageError> {
        let bytes = self.section_bytes(self.sections.appmem_index, "appmem index", clock, model)?;
        let n_pages = usize::try_from(self.n_pages).map_err(|_| ImageError::Malformed {
            what: "appmem page count",
        })?;
        let want = n_pages.checked_mul(8).ok_or(ImageError::Malformed {
            what: "appmem page count",
        })?;
        if bytes.len() != want {
            return Err(ImageError::Truncated {
                what: "appmem index",
            });
        }
        let pages_base = self.sections.appmem_pages.offset / PAGE_SIZE_U64;
        let mut out = Vec::with_capacity(n_pages);
        for (i, c) in bytes.chunks_exact(8).enumerate() {
            let mut p = 0usize;
            let vpn = read_u64_le(c, &mut p, "appmem index")?;
            let page = pages_base
                .checked_add(w64(i))
                .ok_or(ImageError::Malformed {
                    what: "appmem page offset",
                })?;
            out.push((vpn, page));
        }
        Ok(out)
    }

    /// Builds the shared **Base-EPT** over this image's application memory:
    /// every checkpointed page becomes a lazy, demand-loaded entry (the
    /// *map-file* operation of overlay memory, §3.1). No page is read.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on a corrupt appmem index.
    pub fn build_base_layer(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Arc<EptLayer>, ImageError> {
        let index = self.app_mem_index(clock, model)?;
        clock.charge(model.mmap_region(self.n_pages.saturating_mul(PAGE_SIZE_U64)));
        let layer = EptLayer::new();
        for (vpn, page) in index {
            layer.insert(
                vpn,
                EptEntry::LazyImage {
                    image: Arc::clone(&self.image),
                    page,
                },
            );
        }
        Ok(Arc::new(layer))
    }
}

/// Where one object's fields lie: its scalar fields by value, its payload
/// as a range of the arena, its pointers as a count — they are the next
/// `n_refs` entries of the pointer table, records being laid down in order.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: ObjId,
    flags: u32,
    kind: ObjKind,
    n_refs: u16,
    payload: (usize, usize),
}

/// Reads one record header out of the mapped metadata arena and bounds the
/// body behind it — stage 1 of separated state recovery maps object fields,
/// it never duplicates them (§3.2). The pointer slots are stepped over, not
/// read: stage 2 takes every pointer from the relation table.
fn parse_arena_record(arena: &[u8], off: usize) -> Result<Slot, ImageError> {
    let mut pos = off;
    let id = read_u64_le(arena, &mut pos, "arena record")?;
    let code = read_u16_le(arena, &mut pos, "arena record")?;
    let kind = ObjKind::from_code(code).ok_or(ImageError::BadObjKind { code })?;
    let flags = read_u32_le(arena, &mut pos, "arena record")?;
    let n_refs = read_u16_le(arena, &mut pos, "arena record")?;
    let payload_len =
        usize::try_from(read_u32_le(arena, &mut pos, "arena record")?).map_err(|_| {
            ImageError::Malformed {
                what: "arena payload length",
            }
        })?;
    debug_assert_eq!(pos, off + REC_HEADER);
    let refs_end = pos
        .checked_add(
            usize::from(n_refs)
                .checked_mul(8)
                .ok_or(ImageError::Malformed { what: "arena refs" })?,
        )
        .ok_or(ImageError::Malformed { what: "arena refs" })?;
    let end = refs_end
        .checked_add(payload_len)
        .ok_or(ImageError::Malformed {
            what: "arena payload length",
        })?;
    if end > arena.len() {
        return Err(ImageError::Truncated {
            what: "arena record body",
        });
    }
    Ok(Slot {
        id,
        flags,
        kind,
        n_refs,
        payload: (refs_end, end),
    })
}

/// One relation-table entry: `(record, pointer slot, target object)`.
fn relation_entry(entry: &[u8; REL_ENTRY]) -> (u32, u16, ObjId) {
    let [r0, r1, r2, r3, s0, s1, target @ ..] = *entry;
    (
        u32::from_le_bytes([r0, r1, r2, r3]),
        u16::from_le_bytes([s0, s1]),
        ObjId::from_le_bytes(target),
    )
}

/// The metadata objects of a restored func-image, as separated state
/// recovery leaves them: the mapped arena (held once), one fixed-size slot
/// per object, and one pointer table. Nothing here is per object on the
/// heap; an object is read through a borrowed [`ObjView`], in checkpoint
/// order, by iterating `&records`.
pub struct RestoredRecords {
    arena: SharedBytes,
    slots: Vec<Slot>,
    /// Every record's pointers, back to back in record order.
    refs: Vec<ObjId>,
}

impl RestoredRecords {
    /// Number of objects.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True for an image without metadata objects.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The objects, in checkpoint order.
    pub fn iter(&self) -> Views<'_> {
        Views {
            arena: PayloadBuf::from(&self.arena),
            slots: self.slots.iter(),
            refs: &self.refs,
        }
    }
}

impl<'a> IntoIterator for &'a RestoredRecords {
    type Item = ObjView<'a>;
    type IntoIter = Views<'a>;
    fn into_iter(self) -> Views<'a> {
        self.iter()
    }
}

/// Equal to the records a writer was given when every view equals its
/// record, field by field and in order.
impl PartialEq<Vec<ObjRecord>> for RestoredRecords {
    fn eq(&self, records: &Vec<ObjRecord>) -> bool {
        self.len() == records.len() && self.iter().zip(records).all(|(view, rec)| view == *rec)
    }
}

impl fmt::Debug for RestoredRecords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

/// Iterator over the objects of a [`RestoredRecords`].
#[derive(Debug, Clone)]
pub struct Views<'a> {
    arena: PayloadBuf<'a>,
    slots: std::slice::Iter<'a, Slot>,
    /// The pointers of the objects still to come.
    refs: &'a [ObjId],
}

impl<'a> Iterator for Views<'a> {
    type Item = ObjView<'a>;

    #[inline]
    fn next(&mut self) -> Option<ObjView<'a>> {
        let slot = self.slots.next()?;
        // Stage 2 pushed exactly `n_refs` pointers per slot and stage 1
        // bounded every payload, so neither lookup can miss.
        let (refs, rest) = self.refs.split_at_checked(usize::from(slot.n_refs))?;
        self.refs = rest;
        ObjView::new(
            slot.id,
            slot.kind,
            slot.flags,
            refs,
            self.arena,
            slot.payload,
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for Views<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagePayload;
    use memsim::Frame;
    use simtime::SimNanos;

    fn sample_source(n_objects: u64, n_pages: u64) -> CheckpointSource {
        CheckpointSource {
            objects: (0..n_objects)
                .map(|i| {
                    ObjRecord::new(
                        i + 1,
                        ObjKind::ALL[(i % 14) as usize],
                        i as u32,
                        (0..(i % 4)).map(|k| (i + k) % n_objects + 1).collect(),
                        vec![(i % 251) as u8; (i % 40) as usize],
                    )
                })
                .collect(),
            app_pages: (0..n_pages)
                .map(|i| PagePayload {
                    vpn: 0x4_0000 + i,
                    data: Arc::new(Frame::from_bytes(&[(i % 255) as u8; PAGE_SIZE])),
                })
                .collect(),
            io_conns: vec![
                IoConn::file("/app/rootfs/lib.so", true),
                IoConn::file("/home/user/hello.txt", false),
                IoConn::socket("0.0.0.0:80", true),
            ],
        }
    }

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    fn make_image(src: &CheckpointSource) -> Arc<MappedImage> {
        let bytes = write(src, &SimClock::new(), &CostModel::experimental_machine());
        MappedImage::new("func.img", bytes)
    }

    #[test]
    fn metadata_round_trip_identity() {
        let (clock, model) = setup();
        let src = sample_source(500, 8);
        let img = make_image(&src);
        let flat = FlatImage::parse(&img, &clock, &model).unwrap();
        assert_eq!(flat.object_count(), 500);
        assert_eq!(flat.app_page_count(), 8);
        let objects = flat.restore_metadata(&clock, &model).unwrap();
        assert_eq!(objects, src.objects);
    }

    /// Stage 2 is judged by its charge, not by host threads: the clock pays
    /// the slowest of `parallel_workers` contiguous record chunks, and the
    /// records do not depend on the worker count.
    #[test]
    fn stage2_charges_the_slowest_modelled_worker() {
        for n in [0u64, 1, 3, 5_000] {
            let src = sample_source(n, 0);
            for workers in [1usize, 4, 16] {
                let mut model = CostModel::experimental_machine();
                model.parallel_workers = workers;
                let mut free_fixup = model.clone();
                free_fixup.obj.fixup_per_pointer = SimNanos::ZERO;
                // Fresh image each time, so stage 1 sees the same cold cache.
                let restore = |model: &CostModel| {
                    let clock = SimClock::new();
                    let flat = FlatImage::parse(&make_image(&src), &clock, model).unwrap();
                    let objects = flat.restore_metadata(&clock, model).unwrap();
                    (clock.now(), objects)
                };
                let (total, objects) = restore(&model);
                let (stage1, _) = restore(&free_fixup);

                let chunk_len = src.objects.len().div_ceil(workers).max(1);
                let per_chunk = src.objects.chunks(chunk_len);
                let slowest = per_chunk
                    .map(|chunk| chunk.iter().map(|o| o.refs.len() as u64).sum::<u64>())
                    .max()
                    .unwrap_or(0);
                assert_eq!(
                    total.saturating_sub(stage1),
                    model.obj.fixup_per_pointer.saturating_mul(slowest),
                    "{n} objects on {workers} workers"
                );
                assert_eq!(objects, src.objects, "{n} objects on {workers} workers");
            }
        }
    }

    /// The write side of the copy budget (ROADMAP 2(d)): the buffer the
    /// writer returns is the one the image is mapped from and sliced out of.
    #[test]
    fn the_written_buffer_is_the_mapped_buffer() {
        let (clock, model) = setup();
        let written = write(&sample_source(40, 6), &clock, &model);
        let at = written.as_ptr();
        let image = MappedImage::new("func.img", written);
        assert_eq!(image.raw_bytes().as_ptr(), at, "mapping copied the image");
        let tail = image.raw_bytes().slice(PAGE_SIZE..);
        assert_eq!(tail.as_ptr(), at.wrapping_add(PAGE_SIZE), "slicing copied");
        let page = image.load_page(1, &clock, &model).unwrap();
        assert_eq!(page.bytes().as_ptr(), at.wrapping_add(PAGE_SIZE));
    }

    /// The read side: stage 1 maps the arena, so every restored payload is a
    /// view into the image's arena section.
    #[test]
    fn restored_payloads_point_into_the_arena_section() {
        let (clock, model) = setup();
        let img = make_image(&sample_source(300, 2));
        let flat = FlatImage::parse(&img, &clock, &model).unwrap();
        let arena = flat.sections.meta_arena;
        let (start, end) = (arena.offset as usize, (arena.offset + arena.len) as usize);
        let arena = img.raw_bytes()[start..end].as_ptr_range();
        let objects = flat.restore_metadata(&clock, &model).unwrap();
        assert!(objects.iter().any(|obj| !obj.payload().is_empty()));
        for obj in &objects {
            for payload in [obj.payload(), &obj.payload_shared()] {
                let payload = payload.as_ptr_range();
                assert!(
                    arena.start <= payload.start && payload.end <= arena.end,
                    "payload of object {} was copied out of the arena",
                    obj.id
                );
            }
        }
    }

    /// Stage 2 fills one pointer table: every view's `refs` is the slice of
    /// it that follows the previous view's, not a vector of the object's own.
    #[test]
    fn restored_refs_live_in_one_table() {
        let (clock, model) = setup();
        let src = sample_source(300, 0);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        let objects = flat.restore_metadata(&clock, &model).unwrap();
        assert_eq!(objects.refs.len() as u64, src.pointer_count());
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        let mut next = objects.refs.as_ptr();
        for obj in &objects {
            assert_eq!(obj.refs.as_ptr(), next, "object {} owns its refs", obj.id);
            next = obj.refs.as_ptr_range().end;
        }
        assert_eq!(next, objects.refs.as_ptr_range().end);
    }

    /// No verdict is remembered: every call re-reads and re-checks every
    /// section it uses, so a second restore of an untouched image succeeds on
    /// its own checks and pays the checksum passes again.
    #[test]
    fn every_restore_verifies_every_section_again() {
        let (_, model) = setup();
        let src = sample_source(400, 3);
        let flat = FlatImage::parse(&make_image(&src), &SimClock::new(), &model).unwrap();
        let metadata = [
            flat.sections.meta_index,
            flat.sections.meta_arena,
            flat.sections.rel_table,
        ];
        let checksum_passes: SimNanos = metadata.iter().map(|s| model.memcpy(s.len)).sum();
        for round in 0..2 {
            let clock = SimClock::new();
            assert_eq!(flat.restore_metadata(&clock, &model).unwrap(), src.objects);
            assert!(
                clock.now() >= checksum_passes,
                "round {round}: {}",
                clock.now()
            );
            assert_eq!(flat.read_io_manifest(&clock, &model).unwrap(), src.io_conns);
            assert_eq!(flat.app_mem_index(&clock, &model).unwrap().len(), 3);
        }
    }

    /// The other half: a section that is wrong is wrong every time it is
    /// read, for each of the three readers.
    #[test]
    fn a_corrupted_image_fails_the_first_restore_and_every_repeat() {
        let (clock, model) = setup();
        let pristine = write(&sample_source(50, 2), &clock, &model);
        let sections = FlatImage::parse(&MappedImage::new("p", pristine.clone()), &clock, &model)
            .unwrap()
            .sections;
        let corrupt = |section: Section| {
            let mut bytes = pristine.to_vec();
            bytes[(section.offset + section.len / 2) as usize] ^= 0x10;
            let image = MappedImage::new("corrupt", SharedBytes::from(bytes));
            FlatImage::parse(&image, &clock, &model).unwrap()
        };
        let (arena, manifest, index) = (
            corrupt(sections.meta_arena),
            corrupt(sections.io_manifest),
            corrupt(sections.appmem_index),
        );
        for _ in 0..3 {
            assert_eq!(
                arena.restore_metadata(&clock, &model).unwrap_err(),
                ImageError::Checksum {
                    section: "meta arena"
                }
            );
            assert_eq!(
                manifest.read_io_manifest(&clock, &model).unwrap_err(),
                ImageError::Checksum {
                    section: "io manifest"
                }
            );
            assert_eq!(
                index.app_mem_index(&clock, &model).unwrap_err(),
                ImageError::Checksum {
                    section: "appmem index"
                }
            );
            // The sections a reader does not use are not its business.
            assert!(manifest.restore_metadata(&clock, &model).is_ok());
        }
    }

    #[test]
    fn io_manifest_round_trips() {
        let (clock, model) = setup();
        let src = sample_source(10, 0);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        assert_eq!(flat.read_io_manifest(&clock, &model).unwrap(), src.io_conns);
    }

    #[test]
    fn app_pages_restore_through_base_layer() {
        let (clock, model) = setup();
        let src = sample_source(5, 4);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        let base = flat.build_base_layer(&clock, &model).unwrap();
        assert_eq!(base.len(), 4);
        assert_eq!(base.present_pages(), 0, "map-file must not populate");
        // Demand-load one page and compare contents.
        let frame = base.materialize(0x4_0002, &clock, &model).unwrap().unwrap();
        assert_eq!(frame.bytes(), &src.app_pages[2].data[..]);
    }

    #[test]
    fn flat_restore_cheaper_than_classic_for_many_objects() {
        let model = CostModel::experimental_machine();
        let src = sample_source(20_000, 0);

        let classic_img = classic::write(&src, &SimClock::new(), &model);
        let classic_clock = SimClock::new();
        classic::read(&classic_img, &classic_clock, &model).unwrap();

        let img = make_image(&src);
        let flat_clock = SimClock::new();
        let flat = FlatImage::parse(&img, &flat_clock, &model).unwrap();
        let objs = flat.restore_metadata(&flat_clock, &model).unwrap();
        assert_eq!(objs.len(), 20_000);

        assert!(
            flat_clock.now().saturating_mul(3) < classic_clock.now(),
            "flat {} vs classic {}",
            flat_clock.now(),
            classic_clock.now()
        );
    }

    #[test]
    fn parse_is_cheap_and_lazy() {
        let model = CostModel::experimental_machine();
        let src = sample_source(10_000, 64);
        let img = make_image(&src);
        let clock = SimClock::new();
        let _flat = FlatImage::parse(&img, &clock, &model).unwrap();
        // Only the header page's readahead cluster (+ mmap) may be touched.
        assert!(
            img.resident_pages() <= 8,
            "resident {}",
            img.resident_pages()
        );
        assert!(
            clock.now() < SimNanos::from_millis(2),
            "parse cost {}",
            clock.now()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let (clock, model) = setup();
        let mut bytes = write(&sample_source(3, 0), &clock, &model).to_vec();
        bytes[0] = b'Z';
        let img = MappedImage::new("bad", SharedBytes::from(bytes));
        assert_eq!(
            FlatImage::parse(&img, &clock, &model).unwrap_err(),
            ImageError::BadMagic
        );
    }

    #[test]
    fn corrupt_arena_fails_checksum() {
        let (clock, model) = setup();
        let src = sample_source(50, 0);
        let mut bytes = write(&src, &clock, &model).to_vec();
        // Flip a byte beyond the header page (inside the metadata sections).
        bytes[PAGE_SIZE + 100] ^= 0xFF;
        let img = MappedImage::new("corrupt", SharedBytes::from(bytes));
        let flat = FlatImage::parse(&img, &clock, &model).unwrap();
        assert!(matches!(
            flat.restore_metadata(&clock, &model).unwrap_err(),
            ImageError::Checksum { .. }
        ));
    }

    #[test]
    fn truncated_image_rejected() {
        let (clock, model) = setup();
        let src = sample_source(50, 2);
        let bytes = write(&src, &clock, &model);
        let cut = bytes.slice(0..PAGE_SIZE + 10);
        let img = MappedImage::new("cut", cut);
        // Header parses (sections declared), but reading sections fails.
        match FlatImage::parse(&img, &clock, &model) {
            Err(_) => {}
            Ok(flat) => {
                assert!(flat.restore_metadata(&clock, &model).is_err());
            }
        }
    }

    #[test]
    fn warm_restore_pays_no_disk() {
        let model = CostModel::experimental_machine();
        let src = sample_source(2_000, 16);
        let img = make_image(&src);

        let cold = SimClock::new();
        let flat = FlatImage::parse(&img, &cold, &model).unwrap();
        flat.restore_metadata(&cold, &model).unwrap();
        let cold_cost = cold.now();

        // Second instance, same image: page cache is hot.
        let warm = SimClock::new();
        let flat2 = FlatImage::parse(&img, &warm, &model).unwrap();
        flat2.restore_metadata(&warm, &model).unwrap();
        assert!(
            warm.now() < cold_cost,
            "warm {} must beat cold {}",
            warm.now(),
            cold_cost
        );
    }

    #[test]
    fn table3_sizes_are_exposed() {
        let (clock, model) = setup();
        let src = sample_source(100, 0);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        assert!(flat.metadata_bytes() > 0);
        assert!(flat.io_manifest_bytes() > 0);
        assert!(flat.io_manifest_bytes() < 1024);
    }

    #[test]
    fn empty_source_round_trips() {
        let (clock, model) = setup();
        let src = CheckpointSource::default();
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        assert_eq!(flat.restore_metadata(&clock, &model).unwrap(), Vec::new());
        assert_eq!(flat.read_io_manifest(&clock, &model).unwrap(), Vec::new());
        assert_eq!(flat.build_base_layer(&clock, &model).unwrap().len(), 0);
    }
}
