use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use simtime::{CostModel, SimClock};

use crate::{Frame, FrameRef, MappedImage, MemError, Vpn, PAGE_SIZE};

/// One slot of an EPT layer.
#[derive(Debug, Clone)]
pub enum EptEntry {
    /// A resident frame.
    Present {
        /// The mapped frame.
        frame: FrameRef,
    },
    /// Anonymous memory not yet materialized (zero-fill on first touch).
    LazyZero,
    /// A func-image page not yet materialized (demand-load on first touch).
    LazyImage {
        /// The backing image.
        image: Arc<MappedImage>,
        /// Page index within the image.
        page: u64,
    },
}

impl EptEntry {
    /// True if the entry holds a resident frame.
    pub fn is_present(&self) -> bool {
        matches!(self, EptEntry::Present { .. })
    }
}

/// Pages covered by one leaf table — a last-level x86 page table, the unit
/// `sfork` copies and `core`'s `copy-page-tables` charge counts.
const LEAF_SPAN: usize = 512;
const LEAF_SPAN_U64: u64 = LEAF_SPAN as u64;

/// Splits a page number into its leaf key and the slot within that leaf.
fn split(vpn: Vpn) -> (u64, usize) {
    (vpn / LEAF_SPAN_U64, (vpn % LEAF_SPAN_U64) as usize)
}

/// One last-level table: 512 slots plus the counts of what they hold, so a
/// table's totals never need a walk.
#[derive(Clone)]
struct Leaf {
    slots: [Option<EptEntry>; LEAF_SPAN],
    /// Slots that are `Some`.
    entries: usize,
    /// Slots that are `Some(Present)`.
    present: u64,
}

impl Leaf {
    fn empty() -> Leaf {
        Leaf {
            slots: [const { None }; LEAF_SPAN],
            entries: 0,
            present: 0,
        }
    }

    /// Stores `new` in `slot` and returns what was there, keeping the
    /// counts true. The only place a slot is assigned.
    fn replace(&mut self, slot: usize, new: Option<EptEntry>) -> Option<EptEntry> {
        let old = std::mem::replace(&mut self.slots[slot], new);
        if let Some(old) = &old {
            self.entries -= 1;
            self.present -= u64::from(old.is_present());
        }
        if let Some(new) = &self.slots[slot] {
            self.entries += 1;
            self.present += u64::from(new.is_present());
        }
        old
    }
}

/// The storage of one EPT layer: a two-level table, shaped like the
/// hardware's. An ordered map from `vpn / 512` to an `Arc`-held [`Leaf`].
///
/// `Clone` is the page-table copy of `sfork`: it shares every leaf by
/// reference — one `Arc` per *table*, no per-page work — and a leaf is
/// copied only when one of its sharers first writes a slot in it
/// (`Arc::make_mut`). Dropping a clone that never wrote is the same handful
/// of `Arc` operations. Empty leaves are freed, so the map never holds one.
///
/// Consequence for copy-on-write: a frame reachable through a *shared leaf*
/// is shared even when its own `Arc::strong_count` is 1. Only
/// [`EptTable::writable_frame`] decides what may be written in place.
#[derive(Clone, Default)]
pub(crate) struct EptTable {
    leaves: BTreeMap<u64, Arc<Leaf>>,
}

impl EptTable {
    /// The entry for `vpn`, borrowed.
    pub(crate) fn get(&self, vpn: Vpn) -> Option<&EptEntry> {
        let (key, slot) = split(vpn);
        self.leaves.get(&key)?.slots[slot].as_ref()
    }

    /// Inserts or replaces the entry for `vpn`, copying its leaf first if
    /// the leaf is shared.
    pub(crate) fn insert(&mut self, vpn: Vpn, entry: EptEntry) {
        let (key, slot) = split(vpn);
        let leaf = self
            .leaves
            .entry(key)
            .or_insert_with(|| Arc::new(Leaf::empty()));
        Arc::make_mut(leaf).replace(slot, Some(entry));
    }

    /// Removes the entry for `vpn`, returning it if there was one.
    pub(crate) fn remove(&mut self, vpn: Vpn) -> Option<EptEntry> {
        let (key, slot) = split(vpn);
        let leaf = self.leaves.get_mut(&key)?;
        leaf.slots[slot].as_ref()?;
        let leaf = Arc::make_mut(leaf);
        let old = leaf.replace(slot, None);
        if leaf.entries == 0 {
            self.leaves.remove(&key);
        }
        old
    }

    /// Removes every entry in `[start, end)`. Walks the leaves that exist in
    /// the window, never the page numbers, so a sparse 2^40-page window
    /// costs what it holds: leaves wholly inside go in one step, the (at
    /// most two) leaves on the edges are cleared slot by slot.
    pub(crate) fn remove_range(&mut self, start: Vpn, end: Vpn) {
        if start >= end {
            return;
        }
        let window = start / LEAF_SPAN_U64..=(end - 1) / LEAF_SPAN_U64;
        let mut emptied = Vec::new();
        for (&key, leaf) in self.leaves.range_mut(window) {
            let first = key * LEAF_SPAN_U64;
            let (_, lo) = split(start.max(first));
            let hi = (end - first).min(LEAF_SPAN_U64) as usize;
            let doomed = leaf.slots[lo..hi].iter().flatten().count();
            if doomed == leaf.entries {
                emptied.push(key);
            } else if doomed > 0 {
                let leaf = Arc::make_mut(leaf);
                for slot in lo..hi {
                    leaf.replace(slot, None);
                }
            }
        }
        for key in emptied {
            self.leaves.remove(&key);
        }
    }

    /// Number of entries (any state): a sum of per-leaf counters.
    pub(crate) fn len(&self) -> usize {
        self.leaves.values().map(|leaf| leaf.entries).sum()
    }

    /// True if the table has no entries (it never holds an empty leaf).
    pub(crate) fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Number of `Present` entries: a sum of per-leaf counters.
    pub(crate) fn present_pages(&self) -> u64 {
        self.leaves.values().map(|leaf| leaf.present).sum()
    }

    /// Applies `f` to every `(vpn, entry)` pair in ascending `vpn` order
    /// (checkpoint and func-image bytes depend on the order).
    pub(crate) fn for_each(&self, mut f: impl FnMut(Vpn, &EptEntry)) {
        for (key, leaf) in &self.leaves {
            let first = key * LEAF_SPAN_U64;
            for (offset, slot) in (0..LEAF_SPAN_U64).zip(&leaf.slots) {
                if let Some(entry) = slot {
                    f(first + offset, entry);
                }
            }
        }
    }

    /// The frame at `vpn` if it may be written in place: its leaf is held by
    /// this table alone, the frame by that leaf alone, and it is not an
    /// image page. Anything else — a missing or lazy entry, a leaf still
    /// shared with an `sfork` relative, a frame another leaf or a reader
    /// holds — is `None`, and the write must take the copy-on-write arm.
    pub(crate) fn writable_frame(&mut self, vpn: Vpn) -> Option<&mut Frame> {
        let (key, slot) = split(vpn);
        let leaf = Arc::get_mut(self.leaves.get_mut(&key)?)?;
        match &mut leaf.slots[slot] {
            Some(EptEntry::Present { frame }) => {
                Arc::get_mut(frame).filter(|frame| !frame.is_image_backed())
            }
            _ => None,
        }
    }

    /// Leaf tables held (shared or not).
    #[cfg(test)]
    pub(crate) fn leaf_count(&self) -> usize {
        self.leaves.len()
    }
}

impl fmt::Debug for EptTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EptTable")
            .field("entries", &self.len())
            .field("present", &self.present_pages())
            .finish()
    }
}

/// A lockable layer of the two-level overlay EPT (paper §3.1).
///
/// This is the type of the **Base-EPT**: an `Arc<EptLayer>` shared among
/// every sandbox running the same function. Its lock lets a lazily-loaded
/// base page be upgraded to `Present` once, globally, through `&self` — the
/// analogue of the host page cache populating under a shared file mapping.
/// A sandbox's **Private-EPT** is the same table without the lock: an
/// [`crate::AddressSpace`] owns it and reaches it through `&mut self`.
#[derive(Default)]
pub struct EptLayer {
    table: RwLock<EptTable>,
}

impl EptLayer {
    /// An empty layer.
    pub fn new() -> EptLayer {
        EptLayer::default()
    }

    /// Builds a shared Base-EPT whose entries lazily reference `image`,
    /// starting at guest page `at`. This is the *map-file* operation of
    /// overlay memory: one `mmap` of the whole image, no population.
    pub fn lazy_from_image(
        image: &Arc<MappedImage>,
        at: Vpn,
        clock: &SimClock,
        model: &CostModel,
    ) -> Arc<EptLayer> {
        clock.charge(model.mmap_region(image.pages() * PAGE_SIZE as u64));
        let mut table = EptTable::default();
        for page in 0..image.pages() {
            table.insert(
                at + page,
                EptEntry::LazyImage {
                    image: Arc::clone(image),
                    page,
                },
            );
        }
        Arc::new(EptLayer {
            table: RwLock::new(table),
        })
    }

    /// Looks up the entry for `vpn`, cloned out from under the lock (an
    /// entry is a handle: at most one `Arc` and a page index).
    pub fn get(&self, vpn: Vpn) -> Option<EptEntry> {
        self.table.read().get(vpn).cloned()
    }

    /// Inserts or replaces the entry for `vpn`.
    pub fn insert(&self, vpn: Vpn, entry: EptEntry) {
        self.table.write().insert(vpn, entry);
    }

    /// Removes the entry for `vpn`, returning it if present.
    pub fn remove(&self, vpn: Vpn) -> Option<EptEntry> {
        self.table.write().remove(vpn)
    }

    /// Materializes a lazy image entry for `vpn` as `Present`, returning the
    /// frame. Present entries return their frame unchanged. `LazyZero` and
    /// missing entries return `None` (the caller decides zero-fill policy).
    ///
    /// # Errors
    ///
    /// Propagates [`MemError::ImageBounds`] from the backing image.
    pub fn materialize(
        &self,
        vpn: Vpn,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Option<FrameRef>, MemError> {
        match self.get(vpn) {
            Some(EptEntry::Present { frame }) => Ok(Some(frame)),
            Some(EptEntry::LazyImage { image, page }) => {
                let frame: FrameRef = Arc::new(image.load_page(page, clock, model)?);
                self.insert(
                    vpn,
                    EptEntry::Present {
                        frame: Arc::clone(&frame),
                    },
                );
                Ok(Some(frame))
            }
            Some(EptEntry::LazyZero) | None => Ok(None),
        }
    }

    /// Number of entries (any state). Does not walk them.
    pub fn len(&self) -> usize {
        self.table.read().len()
    }

    /// True if the layer has no entries.
    pub fn is_empty(&self) -> bool {
        self.table.read().is_empty()
    }

    /// Number of `Present` (resident) entries. Does not walk them.
    pub fn present_pages(&self) -> u64 {
        self.table.read().present_pages()
    }

    /// Applies `f` to every `(vpn, entry)` pair, in ascending `vpn` order.
    pub fn for_each(&self, f: impl FnMut(Vpn, &EptEntry)) {
        self.table.read().for_each(f);
    }

    /// Duplicates the layer the way `sfork` duplicates page tables: the
    /// copy shares every 512-page leaf table (and so every frame) with the
    /// original, copy-on-write. Costs one `Arc` per table, not per page.
    pub fn clone_entries(&self) -> EptLayer {
        EptLayer {
            table: RwLock::new(self.table.read().clone()),
        }
    }

    /// Removes every entry in `[start, end)`.
    pub fn remove_range(&self, start: Vpn, end: Vpn) {
        self.table.write().remove_range(start, end);
    }
}

impl fmt::Debug for EptLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.table.read().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedBytes;
    use simtime::SimNanos;

    fn test_image(pages: usize) -> Arc<MappedImage> {
        let mut data = vec![0u8; pages * PAGE_SIZE];
        for (i, chunk) in data.chunks_mut(PAGE_SIZE).enumerate() {
            chunk[0] = i as u8;
        }
        MappedImage::new("img", SharedBytes::from(data))
    }

    #[test]
    fn lazy_from_image_creates_all_entries() {
        let img = test_image(3);
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let base = EptLayer::lazy_from_image(&img, 100, &clock, &model);
        assert_eq!(base.len(), 3);
        assert_eq!(base.present_pages(), 0);
        assert!(clock.now() > SimNanos::ZERO); // the mmap was charged
        assert!(base.get(100).is_some());
        assert!(base.get(102).is_some());
        assert!(base.get(103).is_none());
    }

    #[test]
    fn materialize_upgrades_once_globally() {
        let img = test_image(2);
        let model = CostModel::experimental_machine();
        let base = EptLayer::lazy_from_image(&img, 0, &SimClock::new(), &model);

        let cold = SimClock::new();
        let f1 = base.materialize(1, &cold, &model).unwrap().unwrap();
        assert_eq!(f1.bytes()[0], 1);
        assert!(cold.now() > SimNanos::ZERO); // disk read charged
        assert_eq!(base.present_pages(), 1);

        // A different sandbox touching the same base page pays nothing.
        let warm = SimClock::new();
        let f2 = base.materialize(1, &warm, &model).unwrap().unwrap();
        assert_eq!(warm.now(), SimNanos::ZERO);
        assert!(Arc::ptr_eq(&f1, &f2), "shared base page must be one frame");
    }

    #[test]
    fn materialize_lazy_zero_and_missing_return_none() {
        let layer = EptLayer::new();
        layer.insert(5, EptEntry::LazyZero);
        let model = CostModel::experimental_machine();
        assert!(layer
            .materialize(5, &SimClock::new(), &model)
            .unwrap()
            .is_none());
        assert!(layer
            .materialize(6, &SimClock::new(), &model)
            .unwrap()
            .is_none());
    }

    fn present(frame: &FrameRef) -> EptEntry {
        EptEntry::Present {
            frame: Arc::clone(frame),
        }
    }

    fn frame_at(layer: &EptLayer, vpn: Vpn) -> FrameRef {
        match layer.get(vpn) {
            Some(EptEntry::Present { frame }) => frame,
            other => panic!("unexpected entry at {vpn}: {other:?}"),
        }
    }

    #[test]
    fn clone_entries_shares_frames() {
        let layer = EptLayer::new();
        let frame: FrameRef = Arc::new(Frame::from_bytes(b"x"));
        layer.insert(1, present(&frame));
        let cloned = layer.clone_entries();
        // Both sides map the very same frame...
        assert!(Arc::ptr_eq(&frame_at(&layer, 1), &frame));
        assert!(Arc::ptr_eq(&frame_at(&cloned, 1), &frame));

        // ...and a write on either side stays on that side.
        let other: FrameRef = Arc::new(Frame::from_bytes(b"y"));
        cloned.insert(1, present(&other));
        cloned.insert(2, EptEntry::LazyZero);
        assert!(Arc::ptr_eq(&frame_at(&layer, 1), &frame));
        assert!(Arc::ptr_eq(&frame_at(&cloned, 1), &other));
        assert!(layer.get(2).is_none());
        layer.remove(1);
        assert!(Arc::ptr_eq(&frame_at(&cloned, 1), &other));
        assert_eq!((layer.len(), cloned.len()), (0, 2));
    }

    #[test]
    fn counts_follow_every_kind_of_replacement() {
        let layer = EptLayer::new();
        let frame: FrameRef = Arc::new(Frame::zeroed());
        layer.insert(7, EptEntry::LazyZero);
        assert_eq!((layer.len(), layer.present_pages()), (1, 0));
        layer.insert(7, present(&frame)); // lazy → present
        assert_eq!((layer.len(), layer.present_pages()), (1, 1));
        layer.insert(7, present(&frame)); // present → present
        assert_eq!((layer.len(), layer.present_pages()), (1, 1));
        layer.insert(7 + 512, present(&frame)); // a second leaf
        assert_eq!((layer.len(), layer.present_pages()), (2, 2));
        layer.insert(7, EptEntry::LazyZero); // present → lazy
        assert_eq!((layer.len(), layer.present_pages()), (2, 1));
        layer.remove_range(0, 1024);
        assert_eq!((layer.len(), layer.present_pages()), (0, 0));
        assert_eq!(layer.table.read().leaf_count(), 0, "empty leaves are freed");
    }

    #[test]
    fn for_each_is_ascending_across_leaves() {
        let layer = EptLayer::new();
        for vpn in [5_000, 3, 511, 512, 1 << 40, 0] {
            layer.insert(vpn, EptEntry::LazyZero);
        }
        let mut seen = Vec::new();
        layer.for_each(|vpn, _| seen.push(vpn));
        assert_eq!(seen, [0, 3, 511, 512, 5_000, 1 << 40]);
    }

    #[test]
    fn remove_range_clears_window() {
        let layer = EptLayer::new();
        for vpn in 0..10 {
            layer.insert(vpn, EptEntry::LazyZero);
        }
        layer.remove_range(3, 7);
        assert_eq!(layer.len(), 6);
        assert!(layer.get(3).is_none());
        assert!(layer.get(6).is_none());
        assert!(layer.get(7).is_some());
    }

    #[test]
    fn remove_range_walks_leaves_not_page_numbers() {
        // Would not return in a lifetime if it stepped `for vpn in 0..MAX`.
        let layer = EptLayer::new();
        for vpn in [0, 700, 1 << 40, u64::MAX - 1, u64::MAX] {
            layer.insert(vpn, EptEntry::LazyZero);
        }
        layer.remove_range(1, u64::MAX);
        let mut left = Vec::new();
        layer.for_each(|vpn, _| left.push(vpn));
        assert_eq!(left, [0, u64::MAX], "the window is half-open");
        layer.remove_range(0, u64::MAX);
        assert_eq!(layer.len(), 1);
        layer.remove_range(9, 9);
        layer.remove_range(9, 3);
        assert_eq!(layer.len(), 1);
    }

    #[test]
    fn remove_returns_entry() {
        let layer = EptLayer::new();
        layer.insert(9, EptEntry::LazyZero);
        assert!(layer.remove(9).is_some());
        assert!(layer.remove(9).is_none());
        assert!(layer.is_empty());
    }

    #[test]
    fn writable_frame_needs_leaf_and_frame_unshared() {
        let mut table = EptTable::default();
        table.insert(
            1,
            EptEntry::Present {
                frame: Arc::new(Frame::zeroed()),
            },
        );
        table.insert(2, EptEntry::LazyZero);
        assert!(table.writable_frame(1).is_some());
        assert!(table.writable_frame(2).is_none(), "lazy");
        assert!(table.writable_frame(3).is_none(), "missing");

        // Shared leaf: the frame's own count is still 1, yet it is shared.
        let child = table.clone();
        assert!(table.writable_frame(1).is_none());
        drop(child);
        assert!(table.writable_frame(1).is_some());

        // Unshared leaf, shared frame (a reader holds it).
        let Some(EptEntry::Present { frame }) = table.get(1).cloned() else {
            panic!("present entry expected");
        };
        assert!(table.writable_frame(1).is_none());
        drop(frame);

        // Image pages are never written in place.
        let image = Frame::from_image_slice(SharedBytes::from(vec![0u8; PAGE_SIZE]));
        table.insert(
            4,
            EptEntry::Present {
                frame: Arc::new(image),
            },
        );
        assert!(table.writable_frame(4).is_none());
    }
}
