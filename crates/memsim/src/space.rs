use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simtime::{CostModel, SimClock};

use crate::layer::{same_leaf, EptEntry, Leaf};
use crate::{EptLayer, FrameRef, MemError, Perms, Vpn, VpnRange, PAGE_SIZE};

/// Bytes an [`AddressSpace::sweep`] reads from the start of each page.
const HEAD: usize = 4;

/// How a mapping behaves across `sfork` (paper §4, Table 1 "Mem" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShareMode {
    /// Ordinary private memory: copy-on-write across `sfork`.
    Private,
    /// `MAP_SHARED` without Catalyzer's CoW flag. Forbidden across `sfork`
    /// (inheriting it would break inter-sandbox isolation; the paper's only
    /// kernel modification adds the CoW flag below to avoid this).
    Shared,
    /// `MAP_SHARED` with Catalyzer's new CoW flag: behaves as shared within
    /// one sandbox but duplicates copy-on-write across `sfork`.
    SharedCow,
}

/// A virtual memory area: a contiguous run of pages with uniform attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    /// Pages covered.
    pub range: VpnRange,
    /// Access permissions.
    pub perms: Perms,
    /// Behaviour across `sfork`.
    pub share: ShareMode,
    /// Diagnostic label ("heap", "jvm-heap", "func-image", ...).
    pub name: String,
}

/// Counters accumulated by one address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceStats {
    /// Zero-fill (minor) faults taken.
    pub minor_faults: u64,
    /// Copy-on-write faults taken (page actually copied).
    pub cow_faults: u64,
    /// EPT violations taken to merge a Base-EPT entry into hardware.
    pub ept_merges: u64,
    /// Image pages demand-loaded *through this space* (cold touches).
    pub image_pages_loaded: u64,
    /// Bytes physically copied by CoW.
    pub bytes_copied: u64,
}

/// The pages an [`AddressSpace::sweep`] visits, in ascending order: `start`,
/// `start + stride`, … — at most `count` of them, each below `bound`. A
/// step past the top of the page-number space ends the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// The first page visited.
    pub start: Vpn,
    /// Pages from one visit to the next; zero is [`MemError::ZeroStride`].
    pub stride: u64,
    /// The most pages visited.
    pub count: u64,
    /// The first page number the walk may not visit.
    pub bound: Vpn,
}

/// What an [`AddressSpace::sweep`] does at each page it visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// Read the page's first four bytes and hand them to the visitor; where
    /// it answers `true`, write the same four bytes back at `write_at`.
    Read {
        /// In-page offset of the write-back.
        write_at: usize,
    },
    /// Write this byte at offset 0, reading nothing; the visitor is not
    /// asked.
    Write(u8),
}

/// Pages an [`AddressSpace::sweep`] has visited and written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Swept {
    /// Pages visited.
    pub touched: u64,
    /// Pages written.
    pub written: u64,
}

/// A sandbox's guest-physical address space: a Private-EPT layered over an
/// optional shared Base-EPT.
///
/// See the crate docs for the overall model; the key operations are
/// [`AddressSpace::read`] / [`AddressSpace::write`] (which take faults and
/// charge the clock exactly where real hardware would) and
/// [`AddressSpace::sfork_clone`] (CoW duplication for sandbox fork).
///
/// The two layers are held the way they are owned. The Private-EPT belongs
/// to this space alone and is written through `&mut self`: an access to a
/// resident private page clones no entry and allocates nothing. The
/// Base-EPT is shared with every sandbox of the function as an
/// `Arc<EptLayer>` and never written: a base page's first touch is recorded
/// in the image's page cache, and this space notes which base pages it has
/// merged into its hardware EPT.
#[derive(Debug)]
pub struct AddressSpace {
    name: String,
    vmas: Vec<Vma>,
    /// Holds resident pages only: every insert (`write`, `resolve_for_read`,
    /// `install_page`) is a `Present` frame. Image entries live in the base.
    private: EptLayer,
    base: Option<Arc<EptLayer>>,
    /// Base pages whose merged hardware EPT entry this space has built.
    hw_merged: BTreeSet<Vpn>,
    stats: SpaceStats,
}

impl AddressSpace {
    /// Creates an empty address space labelled `name`.
    pub fn new(name: impl Into<String>) -> AddressSpace {
        AddressSpace {
            name: name.into(),
            vmas: Vec::new(),
            private: EptLayer::default(),
            base: None,
            hw_merged: BTreeSet::new(),
            stats: SpaceStats::default(),
        }
    }

    /// The diagnostic label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Accumulated fault counters.
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }

    /// The VMAs, in insertion order.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// The shared Base-EPT, if one is attached.
    pub fn base(&self) -> Option<&Arc<EptLayer>> {
        self.base.as_ref()
    }

    fn find_vma(&self, vpn: Vpn) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.range.contains(vpn))
    }

    fn check_no_overlap(&self, range: VpnRange) -> Result<(), MemError> {
        if self.vmas.iter().any(|v| v.range.overlaps(&range)) {
            return Err(MemError::Overlap {
                start: range.start,
                end: range.end,
            });
        }
        Ok(())
    }

    /// Maps anonymous (demand-zero) memory. No frames are materialized until
    /// first touch.
    ///
    /// # Errors
    ///
    /// [`MemError::Overlap`] if the range intersects an existing VMA.
    pub fn map_anonymous(
        &mut self,
        range: VpnRange,
        perms: Perms,
        share: ShareMode,
        name: impl Into<String>,
    ) -> Result<(), MemError> {
        self.check_no_overlap(range)?;
        self.vmas.push(Vma {
            range,
            perms,
            share,
            name: name.into(),
        });
        Ok(())
    }

    /// Attaches a shared Base-EPT covering `range` (the *share-mapping*
    /// operation of warm boot, or the tail of cold boot's map-file). Charges
    /// one `mmap` call — the costly per-page work was done when the layer was
    /// built, or is deferred to demand faults.
    ///
    /// # Errors
    ///
    /// [`MemError::Overlap`] if `range` intersects an existing VMA.
    ///
    /// # Panics
    ///
    /// Panics if a base is already attached (one Base-EPT per sandbox).
    pub fn attach_base(
        &mut self,
        base: Arc<EptLayer>,
        range: VpnRange,
        name: impl Into<String>,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), MemError> {
        assert!(self.base.is_none(), "base EPT already attached");
        self.check_no_overlap(range)?;
        clock.charge(model.mem.mmap_call);
        self.vmas.push(Vma {
            range,
            perms: Perms::RW, // writes CoW into the private layer
            share: ShareMode::Private,
            name: name.into(),
        });
        self.base = Some(base);
        Ok(())
    }

    /// Removes the mapping covering exactly `range`.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if no VMA matches `range` exactly.
    pub fn unmap(
        &mut self,
        range: VpnRange,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), MemError> {
        let idx = self
            .vmas
            .iter()
            .position(|v| v.range == range)
            .ok_or(MemError::Unmapped { vpn: range.start })?;
        self.vmas.remove(idx);
        self.private.remove_range(range.start, range.end);
        // By range, not `retain` over the whole set: a reused instance
        // unmaps its request scratch on every invocation.
        while let Some(&vpn) = self.hw_merged.range(range.start..).next() {
            if vpn >= range.end {
                break;
            }
            self.hw_merged.remove(&vpn);
        }
        clock.charge(model.mem.munmap_call);
        Ok(())
    }

    /// Reads `buf.len()` bytes from page `vpn` at `offset`, taking demand
    /// faults as needed.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] outside any VMA, [`MemError::PageCross`] if the
    /// access crosses the page end, or an image error from demand loading.
    pub fn read(
        &mut self,
        vpn: Vpn,
        offset: usize,
        buf: &mut [u8],
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), MemError> {
        if offset > PAGE_SIZE || buf.len() > PAGE_SIZE - offset {
            return Err(MemError::PageCross {
                offset,
                len: buf.len(),
            });
        }
        self.find_vma(vpn).ok_or(MemError::Unmapped { vpn })?;
        // Resident private page: read through the borrowed entry.
        if let Some(EptEntry::Present { frame }) = self.private.get(vpn) {
            buf.copy_from_slice(&frame.bytes()[offset..offset + buf.len()]);
            return Ok(());
        }
        let frame = self.resolve_for_read(vpn, clock, model)?;
        buf.copy_from_slice(&frame.bytes()[offset..offset + buf.len()]);
        Ok(())
    }

    /// Writes `src` to page `vpn` at `offset`, taking CoW faults as needed.
    ///
    /// # Errors
    ///
    /// [`MemError::Protection`] on a read-only VMA, plus the same errors as
    /// [`AddressSpace::read`].
    pub fn write(
        &mut self,
        vpn: Vpn,
        offset: usize,
        src: &[u8],
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), MemError> {
        if offset > PAGE_SIZE || src.len() > PAGE_SIZE - offset {
            return Err(MemError::PageCross {
                offset,
                len: src.len(),
            });
        }
        let vma = self.find_vma(vpn).ok_or(MemError::Unmapped { vpn })?;
        if !vma.perms.writable() {
            return Err(MemError::Protection { vpn });
        }

        // In place: the page is resident and owned outright — its leaf table
        // is not shared with an `sfork` relative, its frame is held by that
        // leaf alone, and it is not an image page. A frame's own refcount
        // cannot tell: after `sfork_clone` it is still 1, behind a leaf two
        // spaces hold. `writable_frame` checks both.
        if let Some(page) = self.private.writable_frame(vpn) {
            page[offset..offset + src.len()].copy_from_slice(src);
            return Ok(());
        }

        // Fault: build the private copy once from its source (or from
        // zeroes where there is none), patch it, map it.
        let source = self.copy_from_any_layer(vpn, clock, model)?;
        let had_source = source.is_some();
        let mut owned = source.unwrap_or_else(FrameRef::zeroed);
        owned.write_in_place(offset, src);
        self.private.insert(vpn, EptEntry::Present { frame: owned });
        if had_source {
            self.stats.cow_faults += 1;
            self.stats.bytes_copied += PAGE_SIZE as u64;
            clock.charge(model.cow_fault(PAGE_SIZE as u64));
        } else {
            self.stats.minor_faults += 1;
            clock.charge(model.mem.page_fault);
        }
        Ok(())
    }

    /// Touches every page of `range` (read or write), simulating a workload
    /// sweep; returns the number of pages touched.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::read`] / [`AddressSpace::write`].
    pub fn touch_range(
        &mut self,
        range: VpnRange,
        write: bool,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<u64, MemError> {
        let walk = Walk {
            start: range.start,
            stride: 1,
            count: range.len(),
            bound: range.end,
        };
        let touch = if write {
            Touch::Write(0xA5)
        } else {
            Touch::Read { write_at: 0 }
        };
        Ok(self
            .sweep(walk, touch, clock, model, |_, _, _| false)?
            .touched)
    }

    /// Visits the pages of `walk` in order, doing `touch` at each. In
    /// [`Touch::Read`] mode, `visit(vpn, head, done)` gets each page's first
    /// four bytes and the pages visited and written before it, and answers
    /// whether to write them back. Returns what was visited and written.
    ///
    /// Every access has exactly the effect of [`AddressSpace::read`] /
    /// [`AddressSpace::write`] on that page, in the same order. The
    /// difference is the cost to the host: the VMA and the 512-page leaf
    /// table are found once per run of pages that share them, and a
    /// resident page is read — and, where [`EptLayer`]'s leaf-and-frame
    /// rule allows, written — through the borrowed leaf. Every other page
    /// goes through `read` / `write` themselves, so they stay the only code
    /// that takes a fault, charges the clock or returns an error.
    ///
    /// # Errors
    ///
    /// [`MemError::ZeroStride`] for a stride of 0; otherwise the first error
    /// of [`AddressSpace::read`] / [`AddressSpace::write`], after the pages
    /// before it were done.
    pub fn sweep(
        &mut self,
        walk: Walk,
        touch: Touch,
        clock: &SimClock,
        model: &CostModel,
        mut visit: impl FnMut(Vpn, &[u8; HEAD], Swept) -> bool,
    ) -> Result<Swept, MemError> {
        if walk.stride == 0 {
            return Err(MemError::ZeroStride);
        }
        let mut done = Swept::default();
        let mut next = Some(walk.start);
        while let Some(first) = next.filter(|&vpn| vpn < walk.bound && done.touched < walk.count) {
            // One run: the pages from `first` on that share its VMA and its
            // leaf. Outside any VMA the run is that page alone, and `read` /
            // `write` report it.
            let (writable, end, mut leaf) = match self.find_vma(first) {
                Some(vma) => (
                    vma.perms.writable(),
                    vma.range.end.min(walk.bound),
                    self.private.leaf_mut(first),
                ),
                None => (false, first, None),
            };
            let mut vpn = first;
            loop {
                let mut head = [0u8; HEAD];
                let patch = match touch {
                    Touch::Read { write_at } => {
                        match leaf.as_deref().and_then(|leaf| leaf.frame(vpn)) {
                            Some(frame) => head.copy_from_slice(&frame.bytes()[..HEAD]),
                            None => {
                                self.read(vpn, 0, &mut head, clock, model)?;
                                leaf = self.private.leaf_mut(vpn);
                            }
                        }
                        visit(vpn, &head, done).then_some((write_at, HEAD))
                    }
                    Touch::Write(byte) => {
                        head[0] = byte;
                        Some((0, 1))
                    }
                };
                if let Some((at, len)) = patch {
                    let src = &head[..len];
                    let in_place = leaf
                        .as_mut()
                        .filter(|_| writable)
                        .and_then(|leaf| Leaf::writable_frame(leaf, vpn))
                        .and_then(|page| page.get_mut(at..)?.get_mut(..len));
                    match in_place {
                        Some(dst) => dst.copy_from_slice(src),
                        None => {
                            self.write(vpn, at, src, clock, model)?;
                            leaf = self.private.leaf_mut(vpn);
                        }
                    }
                    done.written += 1;
                }
                done.touched += 1;
                next = vpn.checked_add(walk.stride);
                match next {
                    Some(step)
                        if step < end && same_leaf(step, first) && done.touched < walk.count =>
                    {
                        vpn = step;
                    }
                    _ => break,
                }
            }
        }
        Ok(done)
    }

    /// The read-fault path, for a page [`AddressSpace::read`] did not find
    /// resident in the private layer: resolves its frame from the base, or
    /// zero-fills it, charging faults where hardware would.
    fn resolve_for_read(
        &mut self,
        vpn: Vpn,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<FrameRef, MemError> {
        if let Some(base) = &self.base {
            let clock_before = clock.now();
            if let Some(frame) = base.load(vpn, clock, model)? {
                if clock.now() > clock_before {
                    self.stats.image_pages_loaded += 1;
                }
                if self.hw_merged.insert(vpn) {
                    clock.charge(model.kvm.ept_violation);
                    self.stats.ept_merges += 1;
                }
                return Ok(frame);
            }
        }
        // Demand-zero: first touch of anonymous memory.
        let frame = FrameRef::zeroed();
        self.private.insert(
            vpn,
            EptEntry::Present {
                frame: frame.clone(),
            },
        );
        clock.charge(model.mem.page_fault);
        self.stats.minor_faults += 1;
        Ok(frame)
    }

    /// An owned, writable copy of the current contents of `vpn` (from the
    /// private layer, else the base) — the one copy a CoW fault makes. `None`
    /// where there is nothing to copy: the page is demand-zero.
    fn copy_from_any_layer(
        &mut self,
        vpn: Vpn,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Option<FrameRef>, MemError> {
        if let Some(EptEntry::Present { frame }) = self.private.get(vpn) {
            return Ok(Some(frame.cow_copy()));
        }
        if let Some(base) = &self.base {
            if let Some(frame) = base.load(vpn, clock, model)? {
                self.hw_merged.insert(vpn);
                return Ok(Some(frame.cow_copy()));
            }
        }
        Ok(None)
    }

    /// Duplicates this space for `sfork`: the private layer's leaf tables
    /// (and through them its frames) become shared CoW — one reference per
    /// 512-page table, the unit `copy-page-tables` charges, no per-page
    /// work — the Base-EPT is shared by reference, and fault counters reset.
    ///
    /// # Errors
    ///
    /// [`MemError::SharedMappingRequiresCow`] if any VMA is plain
    /// [`ShareMode::Shared`] — the paper's kernel CoW flag must be applied
    /// (convert to [`ShareMode::SharedCow`]) before a sandbox can fork.
    pub fn sfork_clone(&self, child_name: impl Into<String>) -> Result<AddressSpace, MemError> {
        if let Some(vma) = self.vmas.iter().find(|v| v.share == ShareMode::Shared) {
            return Err(MemError::SharedMappingRequiresCow {
                vma: vma.name.clone(),
            });
        }
        Ok(AddressSpace {
            name: child_name.into(),
            vmas: self.vmas.clone(),
            private: self.private.clone(),
            base: self.base.clone(),
            hw_merged: self.hw_merged.clone(),
            stats: SpaceStats::default(),
        })
    }

    /// Resident set size in bytes: private resident pages plus base pages
    /// this space has merged into its hardware EPT (a page is merged only
    /// once the base has served it a frame).
    pub fn rss_bytes(&self) -> u64 {
        (self.private_pages() + self.hw_merged.len() as u64) * PAGE_SIZE as u64
    }

    /// Visits every resident frame (private and merged-base) with its
    /// identity, for PSS accounting.
    pub(crate) fn for_each_resident_frame(&self, mut f: impl FnMut(usize, &FrameRef)) {
        self.private.for_each(|_, entry| {
            if let EptEntry::Present { frame } = entry {
                f(frame.identity(), frame);
            }
        });
        if let Some(base) = &self.base {
            for vpn in &self.hw_merged {
                if let Some(frame) = base.view(*vpn) {
                    f(frame.identity(), &frame);
                }
            }
        }
    }

    /// Number of pages resident in the private layer only (it holds
    /// nothing else).
    pub fn private_pages(&self) -> u64 {
        self.private.len() as u64
    }

    /// Bulk-installs a page into the private layer (classic-restore load
    /// path: the restore loop memcpys decompressed pages straight into guest
    /// memory, without taking per-page faults). The caller must have mapped
    /// a covering VMA and should charge one bulk memcpy for the whole load.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if no VMA covers `vpn`.
    pub fn install_page(&mut self, vpn: Vpn, data: &[u8]) -> Result<(), MemError> {
        self.find_vma(vpn).ok_or(MemError::Unmapped { vpn })?;
        self.private.insert(
            vpn,
            EptEntry::Present {
                frame: FrameRef::from_bytes(data),
            },
        );
        Ok(())
    }

    /// Snapshots every resident private page as `(vpn, frame)`, in vpn
    /// order — the application-memory capture step of a checkpoint. The
    /// snapshot *shares* the resident frames, it does not copy them: a page
    /// this space writes while the snapshot is alive takes the ordinary
    /// copy-on-write fault (the snapshot holder is one more sharer of the
    /// frame) and the snapshot keeps the bytes it captured. Reads nothing
    /// lazily and charges nothing (checkpointing is offline).
    pub fn snapshot_private_pages(&self) -> Vec<(Vpn, FrameRef)> {
        let mut out = Vec::with_capacity(self.private.len());
        self.private.for_each(|vpn, entry| {
            if let EptEntry::Present { frame } = entry {
                out.push((vpn, frame.clone()));
            }
        });
        out
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "space {}: {} vmas, rss {} KiB",
            self.name,
            self.vmas.len(),
            self.rss_bytes() / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MappedImage, SharedBytes};
    use simtime::SimNanos;

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    fn patterned_image(pages: usize) -> Arc<MappedImage> {
        let mut data = vec![0u8; pages * PAGE_SIZE];
        for (i, chunk) in data.chunks_mut(PAGE_SIZE).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        MappedImage::new("img", SharedBytes::from(data))
    }

    /// A Base-EPT mapping every page of `img` from guest page `at` on.
    fn base_over(img: &Arc<MappedImage>, at: Vpn) -> Arc<EptLayer> {
        EptLayer::map_image(img, (0..img.pages()).map(|page| (at + page, page)))
    }

    #[test]
    fn anonymous_read_write_round_trip() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 8), Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        s.write(3, 100, b"data", &clock, &model).unwrap();
        let mut buf = [0u8; 4];
        s.read(3, 100, &mut buf, &clock, &model).unwrap();
        assert_eq!(&buf, b"data");
        assert_eq!(s.stats().minor_faults, 1);
    }

    #[test]
    fn unmapped_access_faults() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        let mut buf = [0u8; 1];
        assert_eq!(
            s.read(42, 0, &mut buf, &clock, &model).unwrap_err(),
            MemError::Unmapped { vpn: 42 }
        );
        assert_eq!(
            s.write(42, 0, &[1], &clock, &model).unwrap_err(),
            MemError::Unmapped { vpn: 42 }
        );
    }

    #[test]
    fn readonly_write_is_protection_fault() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 1), Perms::RO, ShareMode::Private, "ro")
            .unwrap();
        assert_eq!(
            s.write(0, 0, &[1], &clock, &model).unwrap_err(),
            MemError::Protection { vpn: 0 }
        );
    }

    #[test]
    fn page_cross_rejected() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 1), Perms::RW, ShareMode::Private, "m")
            .unwrap();
        let err = s
            .write(0, PAGE_SIZE - 2, &[0; 4], &clock, &model)
            .unwrap_err();
        assert!(matches!(err, MemError::PageCross { .. }));
    }

    #[test]
    fn hostile_offsets_are_page_crosses_not_overflows() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 1), Perms::RW, ShareMode::Private, "m")
            .unwrap();
        s.write(0, 0, b"resident", &clock, &model).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            s.read(0, usize::MAX, &mut buf, &clock, &model),
            Err(MemError::PageCross {
                offset: usize::MAX,
                len: 8
            })
        );
        assert_eq!(
            s.write(0, usize::MAX - 2, b"abcd", &clock, &model),
            Err(MemError::PageCross {
                offset: usize::MAX - 2,
                len: 4
            })
        );
        s.read(0, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(&buf, b"resident", "a rejected write wrote nothing");
    }

    #[test]
    fn hostile_walks_stop_or_fail_typed() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 8), Perms::RW, ShareMode::Private, "low")
            .unwrap();
        let top = VpnRange::new(u64::MAX - 512, u64::MAX);
        s.map_anonymous(top, Perms::RW, ShareMode::Private, "top")
            .unwrap();
        let mut sweep = |start, stride, count, bound, touch| {
            let walk = Walk {
                start,
                stride,
                count,
                bound,
            };
            s.sweep(walk, touch, &clock, &model, |_, _, _| true)
        };
        let read = Touch::Read { write_at: 8 };
        let (max, none) = (u64::MAX, Swept::default());
        let swept = |touched| {
            Ok(Swept {
                touched,
                written: touched,
            })
        };

        // A zero stride would revisit its page forever, however few it asks for.
        assert_eq!(sweep(0, 0, 5, 8, read), Err(MemError::ZeroStride));
        assert_eq!(sweep(0, 0, 0, 8, read), Err(MemError::ZeroStride));
        // Nothing to visit: no count, or a start at or past the bound.
        assert_eq!(sweep(0, 1, 0, 8, read), Ok(none));
        assert_eq!(sweep(8, 1, 5, 8, read), Ok(none));
        assert_eq!(sweep(max, 1, max, max, read), Ok(none));
        assert_eq!(sweep(max - 1, 1, max, 3, Touch::Write(1)), Ok(none));
        // A step past the top of the page-number space ends the walk.
        assert_eq!(sweep(max - 2, 1, max, max, read), swept(2));
        assert_eq!(sweep(3, max, max, max, read), swept(1));
        assert_eq!(sweep(max - 1, max - 1, 2, max, Touch::Write(1)), swept(1));
        // A step that lands outside every mapping is the read's typed error,
        // and so is a huge count once the mapping ends.
        assert_eq!(
            sweep(0, max - 600, 3, max, read),
            Err(MemError::Unmapped { vpn: max - 600 })
        );
        assert_eq!(
            sweep(0, 1, max, max, read),
            Err(MemError::Unmapped { vpn: 8 })
        );
        // A write-back past the page end is the write's typed error.
        assert_eq!(
            sweep(
                0,
                1,
                1,
                8,
                Touch::Read {
                    write_at: usize::MAX
                }
            ),
            Err(MemError::PageCross {
                offset: usize::MAX,
                len: 4
            })
        );
    }

    #[test]
    fn overlap_rejected() {
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "a")
            .unwrap();
        let err = s
            .map_anonymous(VpnRange::new(3, 6), Perms::RW, ShareMode::Private, "b")
            .unwrap_err();
        assert!(matches!(err, MemError::Overlap { .. }));
    }

    #[test]
    fn base_read_through_then_cow_isolates() {
        let (clock, model) = setup();
        let img = patterned_image(2);
        let base = base_over(&img, 0);

        let mut a = AddressSpace::new("a");
        let mut b = AddressSpace::new("b");
        a.attach_base(
            Arc::clone(&base),
            VpnRange::new(0, 2),
            "fimg",
            &clock,
            &model,
        )
        .unwrap();
        b.attach_base(base, VpnRange::new(0, 2), "fimg", &clock, &model)
            .unwrap();

        let mut buf = [0u8; 1];
        a.read(0, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(buf[0], 1);

        // A writes: CoW into its private layer; B must keep seeing base data.
        a.write(0, 0, &[0xEE], &clock, &model).unwrap();
        a.read(0, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(buf[0], 0xEE);
        b.read(0, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(buf[0], 1, "CoW leaked into the shared base");
        assert_eq!(a.stats().cow_faults, 1);
        assert_eq!(b.stats().cow_faults, 0);
    }

    #[test]
    fn warm_boot_shares_demand_loaded_pages() {
        let (clock, model) = setup();
        let img = patterned_image(1);
        let base = base_over(&img, 0);
        let mut a = AddressSpace::new("a");
        a.attach_base(Arc::clone(&base), VpnRange::new(0, 1), "f", &clock, &model)
            .unwrap();
        let mut buf = [0u8; 1];
        a.read(0, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(a.stats().image_pages_loaded, 1);

        // Second sandbox: no disk read, just the EPT merge.
        let warm = SimClock::new();
        let mut b = AddressSpace::new("b");
        b.attach_base(base, VpnRange::new(0, 1), "f", &warm, &model)
            .unwrap();
        b.read(0, 0, &mut buf, &warm, &model).unwrap();
        assert_eq!(b.stats().image_pages_loaded, 0);
        assert_eq!(b.stats().ept_merges, 1);
        assert!(warm.now() < model.disk_read(PAGE_SIZE as u64));
    }

    #[test]
    fn sfork_clone_is_cow() {
        let (clock, model) = setup();
        let mut parent = AddressSpace::new("tmpl");
        parent
            .map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        parent.write(1, 0, b"JVM", &clock, &model).unwrap();

        let mut child = parent.sfork_clone("child").unwrap();
        let mut buf = [0u8; 3];
        child.read(1, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(&buf, b"JVM", "child inherits template state");

        // Child writes: parent unchanged.
        child.write(1, 0, b"XXX", &clock, &model).unwrap();
        let mut pbuf = [0u8; 3];
        parent.read(1, 0, &mut pbuf, &clock, &model).unwrap();
        assert_eq!(&pbuf, b"JVM", "child write leaked into template");
        assert_eq!(child.stats().cow_faults, 1);
    }

    #[test]
    fn sfork_rejects_plain_shared_mappings() {
        let mut s = AddressSpace::new("t");
        s.map_anonymous(VpnRange::new(0, 1), Perms::RW, ShareMode::Shared, "shm")
            .unwrap();
        let err = s.sfork_clone("c").unwrap_err();
        assert!(matches!(err, MemError::SharedMappingRequiresCow { .. }));
    }

    #[test]
    fn sfork_allows_shared_cow_flag() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("t");
        s.map_anonymous(VpnRange::new(0, 1), Perms::RW, ShareMode::SharedCow, "shm")
            .unwrap();
        s.write(0, 0, &[7], &clock, &model).unwrap();
        let mut c = s.sfork_clone("c").unwrap();
        c.write(0, 0, &[9], &clock, &model).unwrap();
        let mut buf = [0u8; 1];
        s.read(0, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn rss_counts_resident_only() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 100), Perms::RW, ShareMode::Private, "big")
            .unwrap();
        assert_eq!(s.rss_bytes(), 0, "mapping alone is not resident");
        s.touch_range(VpnRange::new(0, 10), true, &clock, &model)
            .unwrap();
        assert_eq!(s.rss_bytes(), 10 * PAGE_SIZE as u64);
    }

    #[test]
    fn unmap_releases_pages() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        let range = VpnRange::new(0, 4);
        s.map_anonymous(range, Perms::RW, ShareMode::Private, "m")
            .unwrap();
        s.touch_range(range, true, &clock, &model).unwrap();
        assert!(s.rss_bytes() > 0);
        s.unmap(range, &clock, &model).unwrap();
        assert_eq!(s.rss_bytes(), 0);
        let mut buf = [0u8; 1];
        assert!(s.read(0, 0, &mut buf, &clock, &model).is_err());
    }

    #[test]
    fn unmap_drops_only_its_own_merged_base_pages() {
        let (clock, model) = setup();
        let img = patterned_image(4);
        let base = base_over(&img, 0);
        let mut s = AddressSpace::new("s");
        let image_range = VpnRange::new(0, 4);
        s.attach_base(base, image_range, "f", &clock, &model)
            .unwrap();
        s.touch_range(image_range, false, &clock, &model).unwrap();
        let scratch = VpnRange::new(100, 104);
        s.map_anonymous(scratch, Perms::RW, ShareMode::Private, "scratch")
            .unwrap();
        s.touch_range(scratch, true, &clock, &model).unwrap();
        assert_eq!(s.rss_bytes(), 8 * PAGE_SIZE as u64);

        s.unmap(scratch, &clock, &model).unwrap();
        assert_eq!(
            s.rss_bytes(),
            4 * PAGE_SIZE as u64,
            "merged base pages stay"
        );
        s.unmap(image_range, &clock, &model).unwrap();
        assert_eq!(s.rss_bytes(), 0);
    }

    #[test]
    fn unmap_of_a_sparse_huge_vma_costs_what_it_holds() {
        // Stepping `for vpn in start..end` over 2^40 pages would never end.
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        let huge = VpnRange::new(0, 1 << 40);
        s.map_anonymous(huge, Perms::RW, ShareMode::Private, "sparse")
            .unwrap();
        for vpn in [0, 12_345, (1 << 40) - 1] {
            s.write(vpn, 0, &[1], &clock, &model).unwrap();
        }
        assert_eq!(s.private_pages(), 3);
        s.unmap(huge, &clock, &model).unwrap();
        assert_eq!(s.private_pages(), 0);
        assert!(s.vmas().is_empty());
    }

    #[test]
    fn write_fast_path_avoids_repeat_cow() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 1), Perms::RW, ShareMode::Private, "m")
            .unwrap();
        s.write(0, 0, &[1], &clock, &model).unwrap();
        let after_first = clock.now();
        for i in 0..16 {
            s.write(0, i, &[i as u8], &clock, &model).unwrap();
        }
        assert_eq!(clock.now(), after_first, "in-place writes must be free");
        assert_eq!(s.stats().cow_faults, 0);
        assert_eq!(s.stats().minor_faults, 1);
    }

    /// `(identity, strong count)` of every resident frame, in vpn order.
    fn frame_counts(space: &AddressSpace) -> Vec<(usize, usize)> {
        let mut counts = Vec::new();
        space.for_each_resident_frame(|id, frame| counts.push((id, frame.handles())));
        counts
    }

    #[test]
    fn sfork_clone_and_child_drop_cost_tables_not_pages() {
        // SPECjbb's heap: 51,200 pages = 100 leaf tables.
        const PAGES: u64 = 51_200;
        let mut template = AddressSpace::new("tmpl");
        template
            .map_anonymous(
                VpnRange::new(0, PAGES),
                Perms::RW,
                ShareMode::Private,
                "heap",
            )
            .unwrap();
        for vpn in 0..PAGES {
            template.install_page(vpn, &[1]).unwrap();
        }
        let before = frame_counts(&template);
        assert_eq!(before.len() as u64, PAGES);
        assert!(before.iter().all(|(_, count)| *count == 1));

        // The fork touched no frame's refcount: every one is still 1, though
        // two spaces now map it — sharing lives in the 100 leaf `Arc`s.
        let child = template.sfork_clone("child").unwrap();
        assert_eq!(frame_counts(&template), before);
        assert_eq!(frame_counts(&child), before);
        assert_eq!(child.private.leaf_count() as u64, PAGES.div_ceil(512));
        assert_eq!(child.private_pages(), PAGES);

        // Nor does dropping a child that never wrote.
        drop(child);
        assert_eq!(frame_counts(&template), before);
    }

    #[test]
    fn write_through_a_shared_leaf_is_cow_and_spares_the_parent() {
        let (clock, model) = setup();
        let mut parent = AddressSpace::new("tmpl");
        parent
            .map_anonymous(VpnRange::new(0, 8), Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        parent.write(1, 0, b"JVM", &clock, &model).unwrap();
        parent.write(2, 0, b"GC!", &clock, &model).unwrap();

        // The child's frames have strong count 1 (only the shared leaf holds
        // them); the write must fault all the same.
        let mut child = parent.sfork_clone("child").unwrap();
        let t0 = clock.now();
        child.write(1, 0, b"XXX", &clock, &model).unwrap();
        assert_eq!(child.stats().cow_faults, 1);
        assert_eq!(child.stats().bytes_copied, PAGE_SIZE as u64);
        assert_eq!(clock.since(t0), model.cow_fault(PAGE_SIZE as u64));
        // Its neighbour in the (now copied) leaf is still shared with the
        // parent: a second fault, not an in-place write.
        child.write(2, 0, b"YYY", &clock, &model).unwrap();
        assert_eq!(child.stats().cow_faults, 2);
        // The child's own copies are now written in place, for free.
        let t1 = clock.now();
        child.write(1, 3, b"!", &clock, &model).unwrap();
        assert_eq!(child.stats().cow_faults, 2);
        assert_eq!(clock.now(), t1);

        let mut buf = [0u8; 3];
        parent.read(1, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(&buf, b"JVM", "child write reached the template's frame");
        parent.read(2, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(&buf, b"GC!");
    }

    #[test]
    fn template_writes_in_place_again_after_the_last_child_drops() {
        let (clock, model) = setup();
        let mut template = AddressSpace::new("tmpl");
        template
            .map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        template.write(0, 0, &[1], &clock, &model).unwrap();
        template.write(1, 0, &[1], &clock, &model).unwrap();

        let a = template.sfork_clone("a").unwrap();
        let b = template.sfork_clone("b").unwrap();
        template.write(0, 0, &[2], &clock, &model).unwrap();
        assert_eq!(template.stats().cow_faults, 1, "children alive: CoW");
        drop(a);
        template.write(1, 0, &[2], &clock, &model).unwrap();
        assert_eq!(template.stats().cow_faults, 2, "one child still alive: CoW");
        drop(b);

        let t0 = clock.now();
        template.write(0, 1, &[3], &clock, &model).unwrap();
        template.write(1, 1, &[3], &clock, &model).unwrap();
        assert_eq!(template.stats().cow_faults, 2, "sole owner: in place");
        assert_eq!(clock.now(), t0);
    }

    /// The resident private frame at `vpn`.
    fn resident(space: &AddressSpace, vpn: Vpn) -> FrameRef {
        match space.private.get(vpn) {
            Some(EptEntry::Present { frame }) => frame.clone(),
            other => panic!("page {vpn} not resident: {other:?}"),
        }
    }

    #[test]
    fn snapshot_shares_the_resident_frames_in_vpn_order() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(
            VpnRange::new(0, 2048),
            Perms::RW,
            ShareMode::Private,
            "heap",
        )
        .unwrap();
        // Out of order, across leaf tables.
        for vpn in [1500, 3, 512, 0, 511, 2047] {
            s.write(vpn, 0, &[vpn as u8], &clock, &model).unwrap();
        }
        let t0 = clock.now();
        let snapshot = s.snapshot_private_pages();
        assert_eq!(clock.now(), t0, "a checkpoint is offline");
        let vpns: Vec<Vpn> = snapshot.iter().map(|(vpn, _)| *vpn).collect();
        assert_eq!(vpns, [0, 3, 511, 512, 1500, 2047]);
        for (vpn, frame) in &snapshot {
            assert!(
                FrameRef::ptr_eq(frame, &resident(&s, *vpn)),
                "page {vpn} was copied, not shared"
            );
            assert_eq!(frame[0], *vpn as u8);
        }
        assert_eq!(s.stats().bytes_copied, 0);
    }

    #[test]
    fn write_under_a_live_snapshot_is_one_cow_and_spares_the_snapshot() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        s.write(1, 0, b"JVM", &clock, &model).unwrap();
        s.write(2, 0, b"GC!", &clock, &model).unwrap();
        let before = s.stats();

        let snapshot = s.snapshot_private_pages();
        let t0 = clock.now();
        s.write(1, 0, b"XXX", &clock, &model).unwrap();
        // Exactly one fault: the snapshot is one more sharer of the frame.
        assert_eq!(s.stats().cow_faults, before.cow_faults + 1);
        assert_eq!(
            s.stats().bytes_copied,
            before.bytes_copied + PAGE_SIZE as u64
        );
        assert_eq!(s.stats().minor_faults, before.minor_faults);
        assert_eq!(clock.since(t0), model.cow_fault(PAGE_SIZE as u64));
        // The space sees its write; the snapshot keeps what it captured.
        let mut buf = [0u8; 3];
        s.read(1, 0, &mut buf, &clock, &model).unwrap();
        assert_eq!(&buf, b"XXX");
        assert_eq!(&snapshot[0].1[..3], b"JVM");
        assert!(!FrameRef::ptr_eq(&snapshot[0].1, &resident(&s, 1)));
        // The private copy is the space's own: written in place from now on.
        let t1 = clock.now();
        s.write(1, 3, b"!", &clock, &model).unwrap();
        assert_eq!(s.stats().cow_faults, before.cow_faults + 1);
        assert_eq!(clock.now(), t1);
        // The page it did not write is still the shared frame.
        assert!(FrameRef::ptr_eq(&snapshot[1].1, &resident(&s, 2)));
        assert_eq!(&snapshot[1].1[..3], b"GC!");
    }

    #[test]
    fn pages_are_written_in_place_again_once_the_snapshot_is_dropped() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        s.write(1, 0, &[1], &clock, &model).unwrap();
        let frame = resident(&s, 1).identity();
        drop(s.snapshot_private_pages());

        let (stats, t0) = (s.stats(), clock.now());
        s.write(1, 0, &[2], &clock, &model).unwrap();
        assert_eq!(s.stats(), stats, "sole holder again: no fault");
        assert_eq!(clock.now(), t0);
        assert_eq!(resident(&s, 1).identity(), frame, "same frame");
        assert_eq!(resident(&s, 1)[0], 2);
    }

    #[test]
    fn a_page_freed_by_one_space_never_shows_its_bytes_to_the_next() {
        crate::frame::clear_spares();
        let (clock, model) = setup();
        let range = VpnRange::new(0, 64);
        let mut first = AddressSpace::new("first");
        first
            .map_anonymous(range, Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        for vpn in range.iter() {
            first
                .write(vpn, 0, &[0x5E; PAGE_SIZE], &clock, &model)
                .unwrap();
        }
        let freed: BTreeSet<usize> = range
            .iter()
            .map(|vpn| resident(&first, vpn).identity())
            .collect();
        drop(first);

        // Demand-zero reads, a short write and a CoW copy of an image page:
        // each fault may take a block the first space freed, and each shows
        // only what its own page holds.
        let mut next = AddressSpace::new("next");
        next.attach_base(
            base_over(&patterned_image(1), 100),
            VpnRange::new(100, 101),
            "f",
            &clock,
            &model,
        )
        .unwrap();
        next.map_anonymous(range, Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        let mut page = vec![0u8; PAGE_SIZE];
        let mut reused = 0;
        for vpn in range.iter() {
            if vpn % 2 == 0 {
                next.read(vpn, 0, &mut page, &clock, &model).unwrap();
                assert!(page.iter().all(|&b| b == 0), "page {vpn} kept old bytes");
            } else {
                next.write(vpn, 1, b"new", &clock, &model).unwrap();
                next.read(vpn, 0, &mut page, &clock, &model).unwrap();
                assert_eq!(&page[..4], b"\0new");
                assert!(
                    page[4..].iter().all(|&b| b == 0),
                    "page {vpn} kept old bytes"
                );
            }
            reused += usize::from(freed.contains(&resident(&next, vpn).identity()));
        }
        next.write(100, 0, b"!", &clock, &model).unwrap();
        next.read(100, 0, &mut page, &clock, &model).unwrap();
        assert_eq!(page[0], b'!');
        assert!(
            page[1..].iter().all(|&b| b == 1),
            "the CoW copy is the image page"
        );
        assert!(
            reused > 0,
            "no freed block was reused: the test shows nothing"
        );
    }

    #[test]
    fn cold_boot_charges_more_than_warm() {
        let model = CostModel::experimental_machine();
        let img = patterned_image(64);

        let cold = SimClock::new();
        let base = base_over(&img, 0);
        let mut a = AddressSpace::new("cold");
        a.attach_base(Arc::clone(&base), VpnRange::new(0, 64), "f", &cold, &model)
            .unwrap();
        a.touch_range(VpnRange::new(0, 64), false, &cold, &model)
            .unwrap();
        let cold_cost = cold.now();

        let warm = SimClock::new();
        let mut b = AddressSpace::new("warm");
        b.attach_base(base, VpnRange::new(0, 64), "f", &warm, &model)
            .unwrap();
        b.touch_range(VpnRange::new(0, 64), false, &warm, &model)
            .unwrap();
        let warm_cost = warm.now();

        assert!(
            cold_cost > warm_cost.saturating_mul(2),
            "cold {cold_cost} should dwarf warm {warm_cost}"
        );
        assert!(warm_cost > SimNanos::ZERO);
    }
}
