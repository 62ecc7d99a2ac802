use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simtime::{CostModel, SimClock};

use crate::frame::frame_identity;
use crate::layer::EptTable;
use crate::{EptEntry, EptLayer, Frame, FrameRef, MemError, Perms, Vpn, VpnRange, PAGE_SIZE};

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

/// A sandbox's guest-physical address space: a Private-EPT layered over an
/// optional shared Base-EPT.
///
/// See the crate docs for the overall model; the key operations are
/// [`AddressSpace::read`] / [`AddressSpace::write`] (which take faults and
/// charge the clock exactly where real hardware would) and
/// [`AddressSpace::sfork_clone`] (CoW duplication for sandbox fork).
///
/// The two layers are held the way they are owned. The Private-EPT belongs
/// to this space alone, so it is a bare table reached through `&mut self`:
/// an access to a resident private page takes no lock, clones no entry and
/// allocates nothing. The Base-EPT is shared with every sandbox of the
/// function and upgraded in place on first touch, so it stays behind
/// [`EptLayer`]'s lock.
#[derive(Debug)]
pub struct AddressSpace {
    name: String,
    vmas: Vec<Vma>,
    /// Holds resident pages only: every insert (`write`, `resolve_for_read`,
    /// `install_page`) is a `Present` frame. Lazy entries live in the base.
    private: EptTable,
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
            private: EptTable::default(),
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

    /// Changes the permissions of the VMA covering exactly `range`.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if no VMA matches `range` exactly.
    pub fn protect(&mut self, range: VpnRange, perms: Perms) -> Result<(), MemError> {
        let vma = self
            .vmas
            .iter_mut()
            .find(|v| v.range == range)
            .ok_or(MemError::Unmapped { vpn: range.start })?;
        vma.perms = perms;
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
        if offset + buf.len() > PAGE_SIZE {
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
        if offset + src.len() > PAGE_SIZE {
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
        if let Some(frame) = self.private.writable_frame(vpn) {
            frame.write_in_place(offset, src);
            return Ok(());
        }

        // Fault: build the private copy once from its source (or from
        // zeroes where there is none), patch it, map it.
        let source = self.copy_from_any_layer(vpn, clock, model)?;
        let had_source = source.is_some();
        let mut owned = source.unwrap_or_else(Frame::zeroed);
        owned.write_in_place(offset, src);
        self.private.insert(
            vpn,
            EptEntry::Present {
                frame: Arc::new(owned),
            },
        );
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
        let mut scratch = [0u8; 8];
        for vpn in range.iter() {
            if write {
                self.write(vpn, 0, &[0xA5], clock, model)?;
            } else {
                self.read(vpn, 0, &mut scratch, clock, model)?;
            }
        }
        Ok(range.len())
    }

    /// The read-fault path, for a page [`AddressSpace::read`] did not find
    /// resident in the private layer: resolves its frame, materializing
    /// lazily and charging faults where hardware would.
    fn resolve_for_read(
        &mut self,
        vpn: Vpn,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<FrameRef, MemError> {
        debug_assert!(
            self.private.get(vpn).is_none(),
            "private entry not resident"
        );
        if let Some(base) = &self.base {
            let clock_before = clock.now();
            if let Some(frame) = base.materialize(vpn, clock, model)? {
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
        let frame: FrameRef = Arc::new(Frame::zeroed());
        self.private.insert(
            vpn,
            EptEntry::Present {
                frame: Arc::clone(&frame),
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
    ) -> Result<Option<Frame>, MemError> {
        if let Some(EptEntry::Present { frame }) = self.private.get(vpn) {
            return Ok(Some(frame.cow_copy()));
        }
        debug_assert!(
            self.private.get(vpn).is_none(),
            "private entry not resident"
        );
        if let Some(base) = &self.base {
            if let Some(frame) = base.materialize(vpn, clock, model)? {
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
    /// this space has merged into its hardware EPT.
    pub fn rss_bytes(&self) -> u64 {
        let base_touched = self
            .base
            .as_ref()
            .map(|base| {
                self.hw_merged
                    .iter()
                    .filter(|vpn| matches!(base.get(**vpn), Some(e) if e.is_present()))
                    .count() as u64
            })
            .unwrap_or(0);
        (self.private.present_pages() + base_touched) * PAGE_SIZE as u64
    }

    /// Visits every resident frame (private and merged-base) with its
    /// identity, for PSS accounting.
    pub(crate) fn for_each_resident_frame(&self, mut f: impl FnMut(usize, &FrameRef)) {
        self.private.for_each(|_, entry| {
            if let EptEntry::Present { frame } = entry {
                f(frame_identity(frame), frame);
            }
        });
        if let Some(base) = &self.base {
            for vpn in &self.hw_merged {
                if let Some(EptEntry::Present { frame }) = base.get(*vpn) {
                    f(frame_identity(&frame), &frame);
                }
            }
        }
    }

    /// Number of pages resident in the private layer only.
    pub fn private_pages(&self) -> u64 {
        self.private.present_pages()
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
                frame: Arc::new(Frame::from_bytes(data)),
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
        let resident = usize::try_from(self.private_pages()).unwrap_or(0);
        debug_assert_eq!(self.private.len(), resident, "private entry not resident");
        let mut out = Vec::with_capacity(resident);
        self.private.for_each(|vpn, entry| {
            if let EptEntry::Present { frame } = entry {
                out.push((vpn, Arc::clone(frame)));
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
        let base = EptLayer::lazy_from_image(&img, 0, &clock, &model);

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
        let base = EptLayer::lazy_from_image(&img, 0, &clock, &model);
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
        let base = EptLayer::lazy_from_image(&img, 0, &clock, &model);
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
    fn protect_flips_permissions() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        let range = VpnRange::new(0, 1);
        s.map_anonymous(range, Perms::RW, ShareMode::Private, "m")
            .unwrap();
        s.write(0, 0, &[1], &clock, &model).unwrap();
        s.protect(range, Perms::RO).unwrap();
        assert!(matches!(
            s.write(0, 0, &[2], &clock, &model),
            Err(MemError::Protection { .. })
        ));
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
        space.for_each_resident_frame(|id, frame| counts.push((id, Arc::strong_count(frame))));
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
            Some(EptEntry::Present { frame }) => Arc::clone(frame),
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
                Arc::ptr_eq(frame, &resident(&s, *vpn)),
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
        assert!(!Arc::ptr_eq(&snapshot[0].1, &resident(&s, 1)));
        // The private copy is the space's own: written in place from now on.
        let t1 = clock.now();
        s.write(1, 3, b"!", &clock, &model).unwrap();
        assert_eq!(s.stats().cow_faults, before.cow_faults + 1);
        assert_eq!(clock.now(), t1);
        // The page it did not write is still the shared frame.
        assert!(Arc::ptr_eq(&snapshot[1].1, &resident(&s, 2)));
        assert_eq!(&snapshot[1].1[..3], b"GC!");
    }

    #[test]
    fn pages_are_written_in_place_again_once_the_snapshot_is_dropped() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        s.write(1, 0, &[1], &clock, &model).unwrap();
        let frame = Arc::as_ptr(&resident(&s, 1));
        drop(s.snapshot_private_pages());

        let (stats, t0) = (s.stats(), clock.now());
        s.write(1, 0, &[2], &clock, &model).unwrap();
        assert_eq!(s.stats(), stats, "sole holder again: no fault");
        assert_eq!(clock.now(), t0);
        assert_eq!(Arc::as_ptr(&resident(&s, 1)), frame, "same frame");
        assert_eq!(resident(&s, 1)[0], 2);
    }

    #[test]
    fn cold_boot_charges_more_than_warm() {
        let model = CostModel::experimental_machine();
        let img = patterned_image(64);

        let cold = SimClock::new();
        let base = EptLayer::lazy_from_image(&img, 0, &cold, &model);
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
