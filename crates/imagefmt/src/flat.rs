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
//! The host code does the same, in one pass. [`FlatImage::restore_metadata`]
//! checksums the three metadata sections, then checks the records once: each
//! index entry must be where the previous record ended (the records tile the
//! arena), each header must bound its body inside it, and the relation table
//! must cover every pointer slot exactly once, in order — the writer emits
//! one entry per slot, `(record, slot)` strictly increasing, so "the next
//! entry is the slot that is due" is the whole check, and order, duplicates,
//! dangling entries and uncovered slots all fail it. Each header is read at
//! the offset its index entry holds, so no load waits on the record before
//! it, and a failure is named by a sequential walk of the same checks. Nothing
//! per object is stored: what comes back, a [`RestoredRecords`], is the three
//! sections themselves, a view the check has validated, plus where each run
//! of same-kind records starts — one compare a record as the pass goes, one
//! entry a run. A reader takes those runs ([`crate::Records::runs`]): a run
//! it keeps whole is a [`RecordRun`] — two reference counts, on the arena and
//! the run's index entries, however long — that it reads in place when it
//! reads it at all, and any other run it walks through borrowed
//! [`ObjView`]s, a record's pointers being its run of relation entries, read
//! in place; the arena's own slot bytes are never read. Three reference
//! counts and the run list, whatever the object count.
//!
//! Every pointer is really taken from the table and totality really checked,
//! on the calling thread; only the parallel *schedule* is modelled. Spawning
//! and joining host threads per restore cost more than splitting a few
//! thousand `u64` writes saved, across the paper's ten profiles.

// Untrusted bytes are parsed here. The crate denies every panicking
// macro and `unwrap`/`expect` (its Cargo.toml); this module also spells no
// `as` cast and no indexing, so a hostile length cannot truncate or panic.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing))]

use std::fmt;
use std::sync::Arc;

use memsim::{EptLayer, MappedImage, SharedBytes, Vpn, PAGE_SIZE, PAGE_SIZE_U64};
use simtime::{CostModel, SimClock};

use crate::crc::Crc32;
use crate::record::{relation_entry, PayloadBuf, REF_PLACEHOLDER, REL_ENTRY};
use crate::varint::{read_u16_le, read_u32_le, read_u64_le};
use crate::{
    classic, crc32, CheckpointSource, ImageError, IoConn, IoConnKind, IoConnView, ObjId, ObjKind,
    ObjRecord, ObjView,
};

const MAGIC: &[u8; 4] = b"FUNC";
const VERSION: u32 = 1;
/// Fixed record header: id(8) kind(2) flags(4) nrefs(2) payload_len(4).
const REC_HEADER: usize = 20;
/// Heap pages the writer places between two checksum folds: 256 KiB, still
/// in L2 when the fold reads them back. A fold's last 2,400 B take the
/// checksum's table loop whatever its length, a cost a batch pays once and a
/// lone page would pay per 4 KiB.
const PAGES_PER_FOLD: usize = 64;

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
            // Pages are checksummed a batch at a time as they land, while
            // they are in cache: the heap crosses the memory bus once, not
            // once to be placed and once more to be read back.
            let mut crc = Crc32::new();
            for batch in src.app_pages.chunks(PAGES_PER_FOLD) {
                let at = body.len();
                for page in batch {
                    body.extend_from_slice(&page.data);
                }
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

    /// **Separated state recovery** (§3.2): stage 1 maps the metadata
    /// sections — a checksum pass each, no per-object decode, copy or
    /// allocation; stage 2 re-establishes pointer relations from the
    /// relation table, charging the critical path of `model.parallel_workers`
    /// modelled workers over contiguous record chunks. Both are one pass over
    /// the records that checks every header and every relation entry and
    /// keeps nothing but the sections: the result is a validated view.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on corrupt sections, malformed records, index entries
    /// that do not lead from one record to the next, or a relation table that
    /// does not cover every pointer slot exactly once, in order:
    /// [`ImageError::BadRelation`] names the first slot left uncovered, or the
    /// entry before it that is dangling, duplicated or out of order.
    pub fn restore_metadata(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<RestoredRecords, ImageError> {
        self.restore_metadata_with(clock, model, |index, arena, entries, chunk_len| {
            match check_records(index, arena, entries, chunk_len) {
                Some(checked) => Ok(checked),
                None => check_records_in_order(index, arena, entries, chunk_len),
            }
        })
    }

    /// [`FlatImage::restore_metadata`] with the check pass `check`: the
    /// records' index entries, their arena, their relation entries and the
    /// modelled workers' chunk length in, what the pass learns out.
    #[inline]
    fn restore_metadata_with(
        &self,
        clock: &SimClock,
        model: &CostModel,
        check: impl FnOnce(&[[u8; 8]], &[u8], &[[u8; REL_ENTRY]], usize) -> Result<Checked, ImageError>,
    ) -> Result<RestoredRecords, ImageError> {
        // Stage 1: map.
        let index_bytes =
            self.section_bytes(self.sections.meta_index, "meta index", clock, model)?;
        let arena = self.section_bytes(self.sections.meta_arena, "meta arena", clock, model)?;
        let rel = self.section_bytes(self.sections.rel_table, "relation table", clock, model)?;

        let n_objects = usize::try_from(self.n_objects).map_err(|_| ImageError::Malformed {
            what: "object count",
        })?;
        let want = n_objects.checked_mul(8).ok_or(ImageError::Malformed {
            what: "object count",
        })?;
        if index_bytes.len() != want {
            return Err(ImageError::Truncated { what: "meta index" });
        }
        let (entries, stray) = rel.as_chunks::<REL_ENTRY>();
        if !stray.is_empty() {
            return Err(ImageError::Truncated {
                what: "relation table",
            });
        }

        // The check of stage 1 and stage 2's pointer re-establishment, in one
        // pass over the records that keeps nothing but where each run of
        // same-kind records starts. Any partition over workers yields these
        // same records, and only that partition's schedule is modelled — the
        // slowest chunk's pointer count, tallied as the pass goes. A record
        // that fails a check sends the records through the sequential
        // reference, which names the first error.
        let index = index_bytes.as_chunks::<8>().0;
        let chunk_len = n_objects.div_ceil(model.parallel_workers.max(1)).max(1);
        // The arena's bytes are read out of its handle once: the run list's
        // growth is a call the loop would otherwise have to reload them after.
        let arena_bytes: &[u8] = &arena;
        let Checked { runs, slowest } = check(index, arena_bytes, entries, chunk_len)?;
        clock.charge_parallel([model.obj.fixup_per_pointer.saturating_mul(slowest)]);
        Ok(RestoredRecords {
            index: index_bytes,
            arena,
            rel,
            runs,
        })
    }

    /// Reads the I/O manifest (cheap; the manifest is tiny — Table 3 shows
    /// 370 B–2.4 KB of cached connections): the checksum, then one pass
    /// that checks every connection and keeps nothing. What comes back is a
    /// validated view of the section, like [`FlatImage::restore_metadata`]'s
    /// records: a boot reads each connection's hints in place and never
    /// copies a target.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on a corrupt manifest section.
    pub fn read_io_manifest(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<IoManifest, ImageError> {
        let bytes = self.section_bytes(self.sections.io_manifest, "io manifest", clock, model)?;
        let mut pos = 0usize;
        let len = usize::try_from(crate::varint::get_u64(&bytes, &mut pos)?).map_err(|_| {
            ImageError::Malformed {
                what: "io manifest count",
            }
        })?;
        let first = pos;
        for _ in 0..len {
            classic::check_conn(&bytes, &mut pos)?;
        }
        Ok(IoManifest { bytes, first, len })
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

    /// Builds the shared, read-only **Base-EPT** over this image's
    /// application memory: every checkpointed page becomes an entry served
    /// through the image's page cache on touch (the *map-file* operation of
    /// overlay memory, §3.1). No page is read.
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
        Ok(EptLayer::map_image(&self.image, index))
    }
}

/// One record's header, read where it lies: its scalar fields, its pointer
/// count — the record's run of relation entries is that long — and where
/// its payload lies in the arena, which is where the record ends.
#[derive(Debug, Clone, Copy)]
struct Header {
    id: ObjId,
    flags: u32,
    kind: ObjKind,
    n_refs: u16,
    payload: (usize, usize),
}

/// The arena offset a meta-index entry holds (`None` past `usize`).
#[inline]
fn index_offset(entry: &[u8; 8]) -> Option<usize> {
    usize::try_from(u64::from_le_bytes(*entry)).ok()
}

/// Reads the record header at `at` of the mapped metadata arena and bounds
/// the body behind it — separated state recovery maps object fields, it
/// never duplicates them (§3.2). The pointer slots are stepped over, not
/// read: every pointer comes from the relation table. `None` when there is
/// no well-formed record there; [`record_error`] says why. Both passes over
/// the records read headers through this one function, and the second is
/// compiled into the guest kernel's build loop, so it is a handful of loads
/// and compares with nothing to call.
#[inline]
fn header_at(arena: &[u8], at: usize) -> Option<Header> {
    let (head, _) = arena.get(at..)?.split_first_chunk::<REC_HEADER>()?;
    let [i0, i1, i2, i3, i4, i5, i6, i7, k0, k1, f0, f1, f2, f3, n0, n1, l0, l1, l2, l3] = *head;
    let kind = ObjKind::from_code(u16::from_le_bytes([k0, k1]))?;
    let n_refs = u16::from_le_bytes([n0, n1]);
    // At most 65,535 slots of 8 bytes: no overflow before the add.
    let refs_end = at.checked_add(REC_HEADER + usize::from(n_refs) * 8)?;
    let payload_len = usize::try_from(u32::from_le_bytes([l0, l1, l2, l3])).ok()?;
    let end = refs_end.checked_add(payload_len)?;
    (end <= arena.len()).then_some(Header {
        id: ObjId::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]),
        flags: u32::from_le_bytes([f0, f1, f2, f3]),
        kind,
        n_refs,
        payload: (refs_end, end),
    })
}

/// Why [`header_at`] found no record at `at`: the header read field by
/// field, each failure typed.
#[cold]
fn record_error(arena: &[u8], at: usize) -> ImageError {
    let mut pos = at;
    let mut read_header = || -> Result<(), ImageError> {
        read_u64_le(arena, &mut pos, "arena record")?;
        let code = read_u16_le(arena, &mut pos, "arena record")?;
        ObjKind::from_code(code).ok_or(ImageError::BadObjKind { code })?;
        read_u32_le(arena, &mut pos, "arena record")?;
        read_u16_le(arena, &mut pos, "arena record")?;
        read_u32_le(arena, &mut pos, "arena record")?;
        Ok(())
    };
    match read_header() {
        Err(e) => e,
        Ok(()) => ImageError::Truncated {
            what: "arena record body",
        },
    }
}

/// What the check pass learns of records that pass it: the runs of
/// same-kind records, and the pointer count of the slowest modelled worker.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Checked {
    runs: Vec<KindRun>,
    slowest: u64,
}

/// The check pass: `Some` exactly when [`check_records_in_order`] is `Ok`,
/// and then the same. Each record's header is read at the offset its index
/// entry holds, so no load waits on the record before it; the checks fold
/// into one flag a chunk of `chunk_len` records — the index entry is where
/// the record before it ended, and the relation entries due are the
/// record's slots in order — and the kind code is decoded only where it
/// changes, which is where a run starts. That every header bounds its body
/// inside the arena follows: each record ends where the next one's header
/// was read, and the last where the arena does. `None` on any failure, which
/// the sequential reference then names.
#[inline]
fn check_records(
    index: &[[u8; 8]],
    arena: &[u8],
    entries: &[[u8; REL_ENTRY]],
    chunk_len: usize,
) -> Option<Checked> {
    let mut runs = Vec::new();
    // The kind code of the run the records are in: none yet, and no code
    // fits a `u16` and equals this.
    let mut code = u32::MAX;
    // Where the record before ended, and the relation entries still due.
    let (mut end, mut remaining) = (0usize, entries);
    let (mut i, mut slowest) = (0usize, 0u64);
    for chunk in index.chunks(chunk_len) {
        let (mut ok, mut patched) = (true, 0u64);
        for entry in chunk {
            let at = index_offset(entry)?;
            ok &= at == end;
            let (head, _) = arena.get(at..)?.split_first_chunk::<REC_HEADER>()?;
            let [.., k0, k1, _, _, _, _, n0, n1, l0, l1, l2, l3] = *head;
            let kind = u16::from_le_bytes([k0, k1]);
            if u32::from(kind) != code {
                runs.push(KindRun {
                    kind: ObjKind::from_code(kind)?,
                    first: i,
                    len: 0,
                    relations: entries.len() - remaining.len(),
                });
                code = u32::from(kind);
            }
            let n_refs = u16::from_le_bytes([n0, n1]);
            let slots = usize::from(n_refs);
            let payload_len = usize::try_from(u32::from_le_bytes([l0, l1, l2, l3])).ok()?;
            // At most 65,535 slots of 8 bytes: no overflow before the adds.
            // No compare with the arena's length: the next record must start
            // here, and the last one end where the arena does.
            end = at
                .saturating_add(REC_HEADER + slots * 8)
                .saturating_add(payload_len);
            // Most records have no pointer slot: one compare skips them.
            if slots != 0 {
                let (due, rest) = remaining.split_at_checked(slots)?;
                remaining = rest;
                let record = w64(i);
                for (slot, entry) in (0u16..).zip(due) {
                    let (r, s, _) = relation_entry(entry);
                    ok &= u64::from(r) == record && s == slot;
                }
            }
            patched += u64::from(n_refs);
            i += 1;
        }
        if !ok {
            return None;
        }
        slowest = slowest.max(patched);
    }
    if end != arena.len() || !remaining.is_empty() {
        return None;
    }
    close_runs(&mut runs, index.len());
    Some(Checked { runs, slowest })
}

/// The check pass as a walk down the arena, one record after the other, and
/// the reference [`check_records`] is held to: each index entry must be where
/// the previous record ended (the records tile the arena), each header must
/// bound its body inside it, and the relation table must cover every pointer
/// slot exactly once, in order. The writer emits one entry per slot,
/// `(record, slot)` strictly increasing, so "the next entry is the slot that
/// is due" is the whole check, and order, duplicates, dangling entries and
/// uncovered slots all fail it. The first failure is the error.
#[cold]
fn check_records_in_order(
    index: &[[u8; 8]],
    arena: &[u8],
    entries: &[[u8; REL_ENTRY]],
    chunk_len: usize,
) -> Result<Checked, ImageError> {
    let mut slowest = 0u64;
    let n_entries = entries.len();
    let mut entries = entries.iter().map(relation_entry);
    let (mut at, mut i) = (0usize, 0usize);
    let (mut runs, mut kind) = (Vec::new(), None);
    for chunk in index.chunks(chunk_len) {
        let mut patched = 0u64;
        for entry in chunk {
            if index_offset(entry) != Some(at) {
                return Err(ImageError::Malformed {
                    what: "meta index entry",
                });
            }
            let Some(rec) = header_at(arena, at) else {
                return Err(record_error(arena, at));
            };
            if kind != Some(rec.kind) {
                kind = Some(rec.kind);
                runs.push(KindRun {
                    kind: rec.kind,
                    first: i,
                    len: 0,
                    relations: n_entries - entries.len(),
                });
            }
            for due_slot in 0..rec.n_refs {
                let due = (w64(i), due_slot);
                match entries.next() {
                    Some((record, slot, _)) if (u64::from(record), slot) == due => {}
                    // Behind the slot that is due: dangling, a duplicate, or
                    // out of order.
                    Some((record, slot, _)) if (u64::from(record), slot) < due => {
                        return Err(ImageError::BadRelation { record, slot });
                    }
                    // Ahead of it, or the table has ended: nothing will cover
                    // the due slot any more.
                    _ => {
                        return Err(ImageError::BadRelation {
                            record: u32::try_from(i).unwrap_or(u32::MAX),
                            slot: due_slot,
                        });
                    }
                }
            }
            at = rec.payload.1;
            patched += u64::from(rec.n_refs);
            i += 1;
        }
        slowest = slowest.max(patched);
    }
    if at != arena.len() {
        return Err(ImageError::Malformed {
            what: "meta arena past its last record",
        });
    }
    // Totality the other way round: no entry without a slot.
    if let Some((record, slot, _)) = entries.next() {
        return Err(ImageError::BadRelation { record, slot });
    }
    close_runs(&mut runs, index.len());
    Ok(Checked { runs, slowest })
}

/// Sets each run's length: it ends where the next one starts, the last one
/// at record `n_objects`.
fn close_runs(runs: &mut [KindRun], n_objects: usize) {
    let mut end = n_objects;
    for run in runs.iter_mut().rev() {
        run.len = end - run.first;
        end = run.first;
    }
}

/// The metadata objects of a restored func-image, as separated state
/// recovery leaves them: the mapped index, arena and relation table, held
/// once each, that [`FlatImage::restore_metadata`] checked record by record,
/// and where each run of same-kind records starts. Nothing here is per
/// object; an object is read through a borrowed [`ObjView`], in checkpoint
/// order, by iterating `&records` — one walk down the three sections side by
/// side — and a run of them is taken whole through [`crate::Records`].
pub struct RestoredRecords {
    index: SharedBytes,
    arena: SharedBytes,
    rel: SharedBytes,
    /// The runs of same-kind records, in record order: each record is in
    /// exactly one, so there are at most as many as records.
    runs: Vec<KindRun>,
}

/// Records of one kind that lie one after another: the `len` records from
/// number `first`, whose pointers are the relation entries from number
/// `relations` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KindRun {
    pub(crate) kind: ObjKind,
    first: usize,
    pub(crate) len: usize,
    relations: usize,
}

impl RestoredRecords {
    /// Number of objects.
    pub fn len(&self) -> usize {
        self.index.len() / 8
    }

    /// True for an image without metadata objects.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The objects, in checkpoint order.
    pub fn iter(&self) -> Views<'_> {
        self.views(0, self.len(), 0)
    }

    /// The runs of same-kind records, in record order.
    pub(crate) fn runs(&self) -> &[KindRun] {
        &self.runs
    }

    /// The objects of `run`, in checkpoint order.
    #[inline]
    pub(crate) fn run_views(&self, run: &KindRun) -> Views<'_> {
        self.views(run.first, run.len, run.relations)
    }

    /// `run` as a [`RecordRun`]: two reference counts, on the arena and on
    /// the run's index entries.
    pub(crate) fn record_run(&self, run: &KindRun) -> RecordRun {
        let entries = run
            .first
            .checked_mul(8)
            .zip(
                run.first
                    .checked_add(run.len)
                    .and_then(|end| end.checked_mul(8)),
            )
            .filter(|&(_, end)| end <= self.index.len());
        RecordRun {
            arena: self.arena.clone(),
            index: entries.map_or_else(SharedBytes::default, |(start, end)| {
                self.index.slice(start..end)
            }),
        }
    }

    /// The `len` objects from number `first`, whose pointers are the
    /// relation entries from number `relations` on.
    #[inline]
    fn views(&self, first: usize, len: usize, relations: usize) -> Views<'_> {
        Views {
            arena: PayloadBuf::from(&self.arena),
            index: index_entries(&self.index, first, len).iter(),
            relations: self
                .rel
                .as_chunks::<REL_ENTRY>()
                .0
                .get(relations..)
                .unwrap_or_default(),
        }
    }
}

/// The entries of the `len` records from number `first` of a meta index
/// (none if they are not all there).
#[inline]
fn index_entries(index: &[u8], first: usize, len: usize) -> &[[u8; 8]] {
    let entries = index.as_chunks::<8>().0;
    first
        .checked_add(len)
        .and_then(|end| entries.get(first..end))
        .unwrap_or_default()
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

/// Records of a restored func-image that lie one after another, held as
/// the arena and their entries of the meta index: two reference counts
/// however many records there are. A table whose rows are these records'
/// payloads — the guest kernel's runtime objects and dentries — keeps the
/// run instead of a row each and reads every row in place.
#[derive(Debug, Clone)]
pub struct RecordRun {
    arena: SharedBytes,
    /// The records' index entries: where each one starts in the arena.
    index: SharedBytes,
}

impl RecordRun {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.index.len() / 8
    }

    /// True for a run without records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The buffer the records' payloads lie in.
    pub fn arena(&self) -> &SharedBytes {
        &self.arena
    }

    /// Where each record's payload lies in [`RecordRun::arena`], in record
    /// order, as `(start, end)`.
    pub fn payloads(&self) -> Payloads<'_> {
        Payloads {
            arena: &self.arena,
            index: self.index.as_chunks::<8>().0.iter(),
        }
    }
}

/// Iterator over the payload ranges of a [`RecordRun`]: each record's index
/// entry says where it starts, and its header how long its slots and its
/// payload are — no record's bounds wait on the record before it.
#[derive(Debug, Clone)]
pub struct Payloads<'a> {
    arena: &'a [u8],
    /// The index entries of the records still to come.
    index: std::slice::Iter<'a, [u8; 8]>,
}

impl Iterator for Payloads<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        // A run is made of records `restore_metadata` checked: each header
        // bounds its body inside the arena.
        let at = index_offset(self.index.next()?)?;
        let lengths = at.checked_add(REC_HEADER - 6)?;
        let (&[n0, n1, l0, l1, l2, l3], _) = self.arena.get(lengths..)?.split_first_chunk()?;
        let start = lengths + 6 + 8 * usize::from(u16::from_le_bytes([n0, n1]));
        let len = usize::try_from(u32::from_le_bytes([l0, l1, l2, l3])).ok()?;
        Some((start, start.saturating_add(len)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.index.size_hint()
    }
}

impl ExactSizeIterator for Payloads<'_> {}

/// The I/O manifest of a func-image, as [`FlatImage::read_io_manifest`]
/// leaves it: the mapped section, checked connection by connection. Nothing
/// here is per connection; iterate `&manifest` for borrowed
/// [`IoConnView`]s, in checkpoint order.
pub struct IoManifest {
    bytes: SharedBytes,
    /// Where the first connection starts, after the count.
    first: usize,
    len: usize,
}

impl IoManifest {
    /// Number of connections.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a manifest without connections.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The connections, in checkpoint order.
    pub fn iter(&self) -> Conns<'_> {
        Conns {
            bytes: &self.bytes,
            pos: self.first,
            left: self.len,
        }
    }

    /// Each connection's kind and `used_immediately` hint, in checkpoint
    /// order: what an I/O-cache replay reads, stepping over the targets
    /// without reading them.
    pub fn hints(&self) -> impl Iterator<Item = (IoConnKind, bool)> + '_ {
        let mut pos = self.first;
        (0..self.len).map_while(move |_| {
            // `read_io_manifest` checked every connection once already.
            let (kind, used_immediately, ..) = classic::conn_fields(&self.bytes, &mut pos).ok()?;
            Some((kind, used_immediately))
        })
    }
}

impl<'a> IntoIterator for &'a IoManifest {
    type Item = IoConnView<'a>;
    type IntoIter = Conns<'a>;
    fn into_iter(self) -> Conns<'a> {
        self.iter()
    }
}

/// Equal to the connections a writer was given when every view equals its
/// connection, in order.
impl PartialEq<Vec<IoConn>> for IoManifest {
    fn eq(&self, conns: &Vec<IoConn>) -> bool {
        self.len() == conns.len() && self.iter().zip(conns).all(|(view, conn)| view == *conn)
    }
}

impl fmt::Debug for IoManifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

/// Iterator over the connections of an [`IoManifest`].
#[derive(Debug, Clone)]
pub struct Conns<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
}

impl<'a> Iterator for Conns<'a> {
    type Item = IoConnView<'a>;

    fn next(&mut self) -> Option<IoConnView<'a>> {
        self.left = self.left.checked_sub(1)?;
        // `read_io_manifest` decoded every connection once already.
        classic::decode_conn(self.bytes, &mut self.pos).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Conns<'_> {}

/// Iterator over the objects of a [`RestoredRecords`], or of one run of
/// them.
#[derive(Debug, Clone)]
pub struct Views<'a> {
    arena: PayloadBuf<'a>,
    /// The index entries of the records still to come.
    index: std::slice::Iter<'a, [u8; 8]>,
    /// The relation entries of the records still to come.
    relations: &'a [[u8; REL_ENTRY]],
}

impl<'a> Iterator for Views<'a> {
    type Item = ObjView<'a>;

    #[inline]
    fn next(&mut self) -> Option<ObjView<'a>> {
        // `restore_metadata` checked that every index entry leads to a
        // record that bounds its body, and that the relation table covers
        // their slots in order, so none of these lookups can miss.
        let rec = header_at(self.arena.bytes(), index_offset(self.index.next()?)?)?;
        let (relations, rest) = self.relations.split_at_checked(usize::from(rec.n_refs))?;
        self.relations = rest;
        ObjView::restored(
            (rec.id, rec.kind, rec.flags),
            relations,
            self.arena,
            rec.payload,
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.index.size_hint()
    }
}

impl ExactSizeIterator for Views<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagePayload;
    use memsim::FrameRef;
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
                    data: FrameRef::from_bytes(&[(i % 255) as u8; PAGE_SIZE]),
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

    /// The runs `restore_metadata` notes are the runs of same-kind records
    /// that comparing neighbours finds, each read back record for record —
    /// pointers included — whether every record is a run of its own or the
    /// kinds come in blocks.
    #[test]
    fn restored_runs_are_the_runs_of_same_kind_records() {
        let (clock, model) = setup();
        let mut blocks = sample_source(600, 0);
        blocks.objects.sort_by_key(|o| (o.kind.code() % 5, o.id));
        for src in [sample_source(300, 0), blocks] {
            let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
            let restored = flat.restore_metadata(&clock, &model).unwrap();
            let runs = |records: crate::Records<'_>| -> Vec<(ObjKind, usize, Vec<ObjRecord>)> {
                records
                    .runs()
                    .map(|run| {
                        let views = run.views().map(|v| {
                            ObjRecord::new(
                                v.id,
                                v.kind,
                                v.flags,
                                v.refs().collect(),
                                v.payload().to_vec(),
                            )
                        });
                        (run.kind(), run.len(), views.collect())
                    })
                    .collect()
            };
            let (from_image, owned) = (runs((&restored).into()), runs((&src.objects).into()));
            assert!(from_image.len() > 10);
            assert_eq!(from_image, owned);
            for run in crate::Records::from(&restored).runs() {
                let whole = run.record_run().unwrap();
                let payloads: Vec<&[u8]> = whole
                    .payloads()
                    .map(|(start, end)| &whole.arena()[start..end])
                    .collect();
                assert!(payloads
                    .iter()
                    .copied()
                    .eq(run.views().map(|v| v.payload())));
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
            let (buf, at) = obj.payload_source();
            for payload in [obj.payload(), &buf[at..at + obj.payload().len()]] {
                let payload = payload.as_ptr_range();
                assert!(
                    arena.start <= payload.start && payload.end <= arena.end,
                    "payload of object {} was copied out of the arena",
                    obj.id
                );
            }
        }
    }

    /// Nothing is copied or kept per object: the records are the index, the
    /// arena and the relation section of the mapped image, three views of its
    /// buffer, and
    /// every view's pointers are read out of the relation section.
    #[test]
    fn restored_records_are_three_views_of_the_image() {
        let (clock, model) = setup();
        let src = sample_source(300, 0);
        let img = make_image(&src);
        let flat = FlatImage::parse(&img, &clock, &model).unwrap();
        let objects = flat.restore_metadata(&clock, &model).unwrap();
        let image = img.raw_bytes().as_ptr_range();
        for (view, section) in [
            (&objects.index, flat.sections.meta_index),
            (&objects.arena, flat.sections.meta_arena),
            (&objects.rel, flat.sections.rel_table),
        ] {
            assert_eq!(view.len() as u64, section.len);
            assert_eq!(
                view.as_ptr(),
                image.start.wrapping_add(section.offset as usize)
            );
        }
        assert_eq!(objects.len(), src.objects.len());
        let refs: usize = objects.iter().map(|obj| obj.refs().len()).sum();
        assert_eq!(refs as u64, src.pointer_count());
        assert_eq!(objects, src.objects);
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

    /// Recomputes the checksums of the three metadata sections in `image`'s
    /// header, so a forged section reaches the check pass.
    fn reseal(image: &mut [u8]) {
        for section in 0..3 {
            let at = 24 + 20 * section;
            let field = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
            let (offset, len) = (field(at) as usize, field(at + 8) as usize);
            let crc = crc32(&image[offset..offset + len]);
            image[at + 16..at + 20].copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// One forgery of a valid func-image's metadata: a field overwritten
    /// with `value` (or moved by it), its place picked by `at` modulo what
    /// there is.
    #[derive(Debug, Clone)]
    enum Forgery {
        None,
        /// An index entry.
        Index {
            at: usize,
            value: u64,
        },
        /// A header field of a record: id, kind, flags, pointer count or
        /// payload length.
        Header {
            at: usize,
            field: usize,
            value: u64,
        },
        /// A relation entry's record, slot or target.
        Relation {
            at: usize,
            field: usize,
            value: u64,
        },
        /// The length of the arena section (`rel` false) or of the relation
        /// table.
        SectionLen {
            rel: bool,
            by: i64,
        },
    }

    fn forgery() -> impl proptest::Strategy<Value = Forgery> {
        use proptest::prelude::*;
        // Values near the ones a valid image holds, or any value at all.
        (
            0usize..5,
            any::<usize>(),
            0usize..5,
            0u64..64,
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(what, at, field, small, any, near)| {
                let value = if near { small } else { any };
                match what {
                    0 => Forgery::None,
                    1 => Forgery::Index { at, value },
                    2 => Forgery::Header { at, field, value },
                    3 => Forgery::Relation {
                        at,
                        field: field % 3,
                        value,
                    },
                    _ => Forgery::SectionLen {
                        rel: field % 2 == 1,
                        by: small as i64 - 32,
                    },
                }
            })
    }

    /// `src` written, forged, resealed and parsed.
    fn forged_image(src: &CheckpointSource, forgery: &Forgery) -> FlatImage {
        let (clock, model) = setup();
        let mut image = write(src, &clock, &model).to_vec();
        let sections = FlatImage::parse(
            &MappedImage::new("valid", image.clone().into()),
            &clock,
            &model,
        )
        .unwrap()
        .sections;
        let (index, arena, rel) = (
            sections.meta_index.offset as usize,
            sections.meta_arena.offset as usize,
            sections.rel_table.offset as usize,
        );
        let put = |image: &mut Vec<u8>, at: usize, width: usize, value: u64| {
            image[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        };
        let n = src.objects.len();
        let n_rel = sections.rel_table.len as usize / REL_ENTRY;
        match *forgery {
            Forgery::None => {}
            Forgery::Index { at, value } if n > 0 => {
                put(&mut image, index + 8 * (at % n), 8, value)
            }
            Forgery::Header { at, field, value } if n > 0 => {
                let record = at % n;
                let start = arena
                    + u64::from_le_bytes(image[index + 8 * record..][..8].try_into().unwrap())
                        as usize;
                let (offset, width) = [(0, 8), (8, 2), (10, 4), (14, 2), (16, 4)][field];
                // Small values move the field; larger ones replace it.
                let old = {
                    let mut bytes = [0u8; 8];
                    bytes[..width].copy_from_slice(&image[start + offset..][..width]);
                    u64::from_le_bytes(bytes)
                };
                let new = if value < 8 { old ^ value } else { value };
                put(&mut image, start + offset, width, new);
            }
            Forgery::Relation { at, field, value } if n_rel > 0 => {
                let (offset, width) = [(0, 4), (4, 2), (6, 8)][field];
                put(
                    &mut image,
                    rel + REL_ENTRY * (at % n_rel) + offset,
                    width,
                    value,
                );
            }
            Forgery::SectionLen { rel, by } => {
                let section = if rel {
                    sections.rel_table
                } else {
                    sections.meta_arena
                };
                let len = (section.len as i64 + by).max(0) as u64;
                put(&mut image, 24 + 20 * (1 + usize::from(rel)) + 8, 8, len);
            }
            _ => {}
        }
        reseal(&mut image);
        FlatImage::parse(&MappedImage::new("forged", image.into()), &clock, &model).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The check pass that reads each header where its index entry
        /// says agrees with the sequential walk it replaced, on valid images
        /// of mixed kinds and pointers and on each one-field forgery of
        /// them: the same runs and slowest worker when both pass, and
        /// `restore_metadata` fails with the reference's first error
        /// otherwise, charging the clock alike either way.
        #[test]
        fn the_check_pass_is_the_sequential_walk(
            objects in proptest::collection::vec(
                (0usize..14, 0usize..4, 0usize..4, 0usize..24),
                0..48,
            ),
            forgery in forgery(),
            workers in 0usize..3,
        ) {
            // Runs: a record takes its predecessor's kind unless it draws a
            // repeat count of zero.
            let mut kind = ObjKind::Task;
            let src = CheckpointSource {
                objects: objects
                    .iter()
                    .enumerate()
                    .map(|(i, &(k, repeat, refs, payload))| {
                        if repeat == 0 {
                            kind = ObjKind::ALL[k];
                        }
                        let refs = (0..refs as u64).map(|r| r * 7 + i as u64).collect();
                        ObjRecord::new(i as u64 + 1, kind, i as u32, refs, vec![i as u8; payload])
                    })
                    .collect(),
                ..CheckpointSource::default()
            };
            let flat = forged_image(&src, &forgery);
            let mut model = CostModel::experimental_machine();
            model.parallel_workers = [1, 4, 16][workers];

            let agree = std::cell::Cell::new(true);
            let reference_clock = SimClock::new();
            let reference = flat
                .restore_metadata_with(&reference_clock, &model, |index, arena, entries, chunk| {
                    let reference = check_records_in_order(index, arena, entries, chunk);
                    agree.set(check_records(index, arena, entries, chunk) == reference.clone().ok());
                    reference
                })
                .map(|records| records.runs);
            proptest::prop_assert!(agree.get(), "{:?}: {:?}", forgery, reference);
            let clock = SimClock::new();
            let restored = flat.restore_metadata(&clock, &model).map(|records| records.runs);
            proptest::prop_assert_eq!(&restored, &reference, "{:?}", forgery);
            proptest::prop_assert_eq!(clock.now(), reference_clock.now());
            if matches!(forgery, Forgery::None) {
                proptest::prop_assert!(restored.is_ok());
            }
        }
    }

    #[test]
    fn io_manifest_round_trips() {
        let (clock, model) = setup();
        let src = sample_source(10, 0);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        let manifest = flat.read_io_manifest(&clock, &model).unwrap();
        assert_eq!(manifest, src.io_conns);
        assert!(manifest
            .hints()
            .eq(src.io_conns.iter().map(|c| (c.kind, c.used_immediately))));
    }

    #[test]
    fn app_pages_restore_through_base_layer() {
        let (clock, model) = setup();
        let src = sample_source(5, 4);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        let image = flat.image();
        let resident = image.resident_pages();
        let base = flat.build_base_layer(&clock, &model).unwrap();
        assert_eq!(base.len(), 4);
        assert_eq!(
            image.resident_pages(),
            resident,
            "map-file must not populate"
        );
        // Demand-load one page and compare contents.
        let frame = base.load(0x4_0002, &clock, &model).unwrap().unwrap();
        assert_eq!(frame.bytes(), &src.app_pages[2].data[..]);
        assert!(frame.is_image_backed(), "a view of the image, not a copy");
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
