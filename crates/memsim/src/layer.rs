use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use simtime::{CostModel, SimClock};

use crate::{FrameRef, MappedImage, MemError, Vpn, PAGE_SIZE};

/// One slot of an EPT layer.
#[derive(Debug, Clone)]
pub(crate) enum EptEntry {
    /// A resident frame: every entry of a Private-EPT.
    Present {
        /// The mapped frame.
        frame: FrameRef,
    },
    /// A func-image page: every entry of a Base-EPT. It stays this way;
    /// first touch is recorded in the image's page cache, not here.
    LazyImage {
        /// The backing image.
        image: Arc<MappedImage>,
        /// Page index within the image.
        page: u64,
    },
}

/// Pages covered by one leaf table — a last-level x86 page table, the unit
/// `sfork` copies and `core`'s `copy-page-tables` charge counts.
const LEAF_SPAN: usize = 512;
const LEAF_SPAN_U64: u64 = LEAF_SPAN as u64;

/// Splits a page number into its leaf key and the slot within that leaf.
fn split(vpn: Vpn) -> (u64, usize) {
    (vpn / LEAF_SPAN_U64, (vpn % LEAF_SPAN_U64) as usize)
}

/// One last-level table: 512 slots plus the count of those in use, so a
/// table's length never needs a walk.
///
/// A frame leaves a table through [`release`], so the page blocks a dropped
/// or emptied leaf held last go to the thread's spares (`FrameRef::release`).
#[derive(Clone)]
struct Leaf {
    slots: [Option<EptEntry>; LEAF_SPAN],
    /// Slots that are `Some`.
    entries: usize,
}

impl Leaf {
    fn empty() -> Leaf {
        Leaf {
            slots: [const { None }; LEAF_SPAN],
            entries: 0,
        }
    }

    /// Stores `new` in `slot` and returns what was there, keeping the
    /// count true. The only place a slot is assigned.
    fn replace(&mut self, slot: usize, new: Option<EptEntry>) -> Option<EptEntry> {
        self.entries += usize::from(new.is_some());
        let old = std::mem::replace(&mut self.slots[slot], new);
        self.entries -= usize::from(old.is_some());
        old
    }
}

impl Drop for Leaf {
    fn drop(&mut self) {
        // Every frame's count is read before any is let go of: the reads do
        // not wait for each other, so their cache misses overlap, where each
        // lock-prefixed decrement would wait for the one before it. A forked
        // child's copied leaf holds 512 frames, most shared with its
        // template, each count in a block of its own.
        let mut last = [false; LEAF_SPAN];
        for (slot, last) in self.slots.iter().zip(&mut last) {
            if let Some(EptEntry::Present { frame }) = slot {
                *last = frame.is_sole_handle();
            }
        }
        for (slot, last) in self.slots.iter_mut().zip(last) {
            if last {
                release(slot.take());
            }
        }
    }
}

/// Lets go of an entry a table no longer holds.
fn release(entry: Option<EptEntry>) {
    if let Some(EptEntry::Present { frame }) = entry {
        frame.release();
    }
}

/// One layer of the two-level overlay EPT (paper §3.1): a two-level table,
/// shaped like the hardware's — an ordered map from `vpn / 512` to an
/// `Arc`-held leaf of 512 slots.
///
/// It is both layers' type. A sandbox's **Private-EPT** is one that an
/// [`crate::AddressSpace`] owns and writes through `&mut self`; it holds
/// resident frames only. The **Base-EPT** is one that
/// [`EptLayer::map_image`] builds and hands out as an `Arc<EptLayer>`,
/// shared by every sandbox running the same function and never written
/// again: [`EptLayer::load`] serves each of its pages through
/// [`MappedImage::load_page`], whose page cache is the one record of first
/// touch, as the host page cache is under a read-only `mmap`.
///
/// `Clone` is the page-table copy of `sfork`: it shares every leaf by
/// reference — one `Arc` per *table*, no per-page work — and a leaf is
/// copied only when one of its sharers first writes a slot in it
/// (`Arc::make_mut`). Dropping a clone that never wrote is the same handful
/// of `Arc` operations. Empty leaves are freed, so the map never holds one.
///
/// Consequence for copy-on-write: a frame reachable through a *shared leaf*
/// is shared even when its own `Arc::strong_count` is 1. Only
/// `EptLayer::writable_frame` decides what may be written in place.
#[derive(Clone, Default)]
pub struct EptLayer {
    leaves: BTreeMap<u64, Arc<Leaf>>,
}

impl EptLayer {
    /// Builds a Base-EPT that maps each `(vpn, page)` pair to page `page` of
    /// `image`: the *map-file* operation of overlay memory, one `mmap` of
    /// the image, no population. Reads no page and charges nothing; the
    /// caller charges the `mmap`.
    pub fn map_image(
        image: &Arc<MappedImage>,
        pages: impl IntoIterator<Item = (Vpn, u64)>,
    ) -> Arc<EptLayer> {
        let mut layer = EptLayer::default();
        for (vpn, page) in pages {
            layer.insert(
                vpn,
                EptEntry::LazyImage {
                    image: Arc::clone(image),
                    page,
                },
            );
        }
        Arc::new(layer)
    }

    /// The frame mapped at `vpn`, or `None` where the layer has no entry. An
    /// image page is [`MappedImage::load_page`]'s view, which charges the
    /// disk read on the first touch of that page by anyone.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError::ImageBounds`] from the backing image.
    pub fn load(
        &self,
        vpn: Vpn,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Option<FrameRef>, MemError> {
        match self.get(vpn) {
            Some(EptEntry::Present { frame }) => Ok(Some(frame.clone())),
            Some(EptEntry::LazyImage { image, page }) => {
                image.load_page(*page, clock, model).map(Some)
            }
            None => Ok(None),
        }
    }

    /// The frame at `vpn` as [`EptLayer::load`] would serve it, without
    /// touching the page cache or charging: what PSS accounting counts.
    pub(crate) fn view(&self, vpn: Vpn) -> Option<FrameRef> {
        match self.get(vpn)? {
            EptEntry::Present { frame } => Some(frame.clone()),
            EptEntry::LazyImage { image, page } => image.page_view(*page),
        }
    }

    /// Number of entries (any state): a sum of per-leaf counters.
    pub fn len(&self) -> usize {
        self.leaves.values().map(|leaf| leaf.entries).sum()
    }

    /// True if the layer has no entries (it never holds an empty leaf).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

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
        release(Arc::make_mut(leaf).replace(slot, Some(entry)));
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
                    release(leaf.replace(slot, None));
                }
            }
        }
        for key in emptied {
            self.leaves.remove(&key);
        }
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
    pub(crate) fn writable_frame(&mut self, vpn: Vpn) -> Option<&mut [u8; PAGE_SIZE]> {
        let (key, slot) = split(vpn);
        let leaf = Arc::get_mut(self.leaves.get_mut(&key)?)?;
        match &mut leaf.slots[slot] {
            Some(EptEntry::Present { frame }) => frame.get_mut(),
            _ => None,
        }
    }

    /// Leaf tables held (shared or not).
    #[cfg(test)]
    pub(crate) fn leaf_count(&self) -> usize {
        self.leaves.len()
    }
}

impl fmt::Debug for EptLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EptLayer")
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedBytes;
    use proptest::prelude::*;
    use simtime::SimNanos;

    fn test_image(pages: usize) -> Arc<MappedImage> {
        let mut data = vec![0u8; pages * PAGE_SIZE];
        for (i, chunk) in data.chunks_mut(PAGE_SIZE).enumerate() {
            chunk[0] = i as u8 + 1;
        }
        MappedImage::new("img", SharedBytes::from(data))
    }

    /// An entry that is not a frame: page 0 of a fresh one-page image.
    fn image_entry() -> EptEntry {
        EptEntry::LazyImage {
            image: test_image(1),
            page: 0,
        }
    }

    fn present(frame: &FrameRef) -> EptEntry {
        EptEntry::Present {
            frame: frame.clone(),
        }
    }

    fn frame_at(layer: &EptLayer, vpn: Vpn) -> FrameRef {
        match layer.get(vpn) {
            Some(EptEntry::Present { frame }) => frame.clone(),
            other => panic!("unexpected entry at {vpn}: {other:?}"),
        }
    }

    #[test]
    fn a_frame_handle_is_two_words_and_a_slot_three() {
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<FrameRef>(), 2 * word);
        assert_eq!(std::mem::size_of::<Option<EptEntry>>(), 3 * word);
    }

    #[test]
    fn map_image_maps_every_pair_and_reads_nothing() {
        let img = test_image(3);
        let base = EptLayer::map_image(&img, (0..3).map(|page| (100 + page, page)));
        assert_eq!(base.len(), 3);
        assert_eq!(img.resident_pages(), 0, "map-file reads no page");
        assert!(base.get(100).is_some());
        assert!(base.get(102).is_some());
        assert!(base.get(103).is_none());
    }

    #[test]
    fn load_charges_the_first_touch_anywhere_and_writes_nothing() {
        let img = test_image(2);
        let model = CostModel::experimental_machine();
        let base = EptLayer::map_image(&img, [(0, 0), (1, 1)]);

        let cold = SimClock::new();
        let f1 = base.load(1, &cold, &model).unwrap().unwrap();
        assert_eq!(f1.bytes()[0], 2);
        assert!(cold.now() > SimNanos::ZERO); // disk read charged
        assert!(f1.is_image_backed(), "a view of the image, not a copy");

        // A different sandbox touching the same base page pays nothing, and
        // gets the same frame; the table itself never changed.
        let warm = SimClock::new();
        let f2 = base.load(1, &warm, &model).unwrap().unwrap();
        assert_eq!(warm.now(), SimNanos::ZERO);
        assert!(
            FrameRef::ptr_eq(&f1, &f2),
            "shared base page must be one frame"
        );
        assert!(FrameRef::ptr_eq(&f1, &base.view(1).unwrap()));
        assert!(
            matches!(base.get(1), Some(EptEntry::LazyImage { page: 1, .. })),
            "first touch is the page cache's, not the table's"
        );
        assert_eq!(img.resident_pages(), 1, "page 1 and its readahead");

        assert!(base.load(2, &warm, &model).unwrap().is_none(), "missing");
        assert!(base.view(2).is_none());
    }

    #[test]
    fn a_page_past_the_image_is_a_typed_error() {
        let img = test_image(1);
        let base = EptLayer::map_image(&img, [(7, 3)]);
        let model = CostModel::experimental_machine();
        let err = base.load(7, &SimClock::new(), &model).unwrap_err();
        assert_eq!(err, MemError::ImageBounds { page: 3, pages: 1 });
        assert!(base.view(7).is_none());
    }

    #[test]
    fn a_clone_shares_frames_until_either_side_writes() {
        let mut layer = EptLayer::default();
        let frame = FrameRef::from_bytes(b"x");
        layer.insert(1, present(&frame));
        let mut cloned = layer.clone();
        // Both sides map the very same frame...
        assert!(FrameRef::ptr_eq(&frame_at(&layer, 1), &frame));
        assert!(FrameRef::ptr_eq(&frame_at(&cloned, 1), &frame));

        // ...and a write on either side stays on that side.
        let other = FrameRef::from_bytes(b"y");
        cloned.insert(1, present(&other));
        cloned.insert(2, image_entry());
        assert!(FrameRef::ptr_eq(&frame_at(&layer, 1), &frame));
        assert!(FrameRef::ptr_eq(&frame_at(&cloned, 1), &other));
        assert!(layer.get(2).is_none());
        layer.remove_range(1, 2);
        assert!(FrameRef::ptr_eq(&frame_at(&cloned, 1), &other));
        assert_eq!((layer.len(), cloned.len()), (0, 2));
    }

    #[test]
    fn the_count_follows_every_kind_of_replacement() {
        let mut layer = EptLayer::default();
        let frame = FrameRef::zeroed();
        layer.insert(7, image_entry());
        assert_eq!(layer.len(), 1);
        layer.insert(7, present(&frame)); // image → present
        assert_eq!(layer.len(), 1);
        layer.insert(7, present(&frame)); // present → present
        assert_eq!(layer.len(), 1);
        layer.insert(7 + 512, present(&frame)); // a second leaf
        assert_eq!(layer.len(), 2);
        layer.insert(7, image_entry()); // present → image
        assert_eq!(layer.len(), 2);
        layer.remove_range(0, 1024);
        assert_eq!(layer.len(), 0);
        assert_eq!(layer.leaf_count(), 0, "empty leaves are freed");
    }

    #[test]
    fn for_each_is_ascending_across_leaves() {
        let mut layer = EptLayer::default();
        for vpn in [5_000, 3, 511, 512, 1 << 40, 0] {
            layer.insert(vpn, image_entry());
        }
        let mut seen = Vec::new();
        layer.for_each(|vpn, _| seen.push(vpn));
        assert_eq!(seen, [0, 3, 511, 512, 5_000, 1 << 40]);
    }

    #[test]
    fn remove_range_clears_window() {
        let mut layer = EptLayer::default();
        for vpn in 0..10 {
            layer.insert(vpn, image_entry());
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
        let mut layer = EptLayer::default();
        for vpn in [0, 700, 1 << 40, u64::MAX - 1, u64::MAX] {
            layer.insert(vpn, image_entry());
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
    fn writable_frame_needs_leaf_and_frame_unshared() {
        let mut table = EptLayer::default();
        table.insert(
            1,
            EptEntry::Present {
                frame: FrameRef::zeroed(),
            },
        );
        table.insert(2, image_entry());
        assert!(table.writable_frame(1).is_some());
        assert!(table.writable_frame(2).is_none(), "image entry");
        assert!(table.writable_frame(3).is_none(), "missing");

        // Shared leaf: the frame's own count is still 1, yet it is shared.
        let child = table.clone();
        assert!(table.writable_frame(1).is_none());
        drop(child);
        assert!(table.writable_frame(1).is_some());

        // Unshared leaf, shared frame (a reader holds it).
        let frame = frame_at(&table, 1);
        assert!(table.writable_frame(1).is_none());
        drop(frame);

        // Image pages are never written in place.
        let image = FrameRef::from_image_slice(SharedBytes::from(vec![0u8; PAGE_SIZE]));
        table.insert(4, EptEntry::Present { frame: image });
        assert!(table.writable_frame(4).is_none());
    }

    // -----------------------------------------------------------------------
    // The two-level table against a flat-map oracle
    // -----------------------------------------------------------------------

    /// Page numbers that straddle leaf-table boundaries (512 pages each), sit
    /// far apart, and reach the top of the address range.
    const TABLE_VPNS: [Vpn; 18] = [
        0,
        1,
        2,
        510,
        511,
        512,
        513,
        1022,
        1023,
        1024,
        1025,
        1 << 40,
        (1 << 40) + 1,
        (1 << 40) + 511,
        (1 << 40) + 512,
        u64::MAX - 512,
        u64::MAX - 1,
        u64::MAX,
    ];

    #[derive(Debug, Clone)]
    enum TableOp {
        InsertPresent(Vpn),
        InsertImage(Vpn, u64),
        /// One page: `remove_range(vpn, vpn + 1)`, clipped at the top.
        Remove(Vpn),
        RemoveRange(Vpn, Vpn),
        Load(Vpn),
        Clone,
    }

    /// A weighted pick of one operation (the vendored proptest has no
    /// `prop_oneof!`: draw raw numbers, decode here).
    fn table_op() -> impl Strategy<Value = TableOp> {
        let vpn = 0..TABLE_VPNS.len();
        (0u8..13, vpn.clone(), vpn, 0u64..4).prop_map(|(kind, a, b, page)| {
            let (a, b) = (TABLE_VPNS[a], TABLE_VPNS[b]);
            match kind {
                0..=2 => TableOp::InsertPresent(a),
                3..=5 => TableOp::InsertImage(a, page),
                6 | 7 => TableOp::Remove(a),
                8 | 9 => TableOp::RemoveRange(a, b),
                10 | 11 => TableOp::Load(a),
                _ => TableOp::Clone,
            }
        })
    }

    /// Entries are handles: equal when they name the same frame / image page.
    fn same_entry(a: &EptEntry, b: &EptEntry) -> bool {
        match (a, b) {
            (EptEntry::Present { frame: x }, EptEntry::Present { frame: y }) => {
                FrameRef::ptr_eq(x, y)
            }
            (
                EptEntry::LazyImage { image: x, page: p },
                EptEntry::LazyImage { image: y, page: q },
            ) => Arc::ptr_eq(x, y) && p == q,
            _ => false,
        }
    }

    /// The oracle: the flat ordered map the table replaced.
    type FlatMap = BTreeMap<Vpn, EptEntry>;

    fn assert_layer_matches(layer: &EptLayer, oracle: &FlatMap) -> Result<(), TestCaseError> {
        prop_assert_eq!(layer.len(), oracle.len());
        prop_assert_eq!(layer.is_empty(), oracle.is_empty());

        let mut walked: Vec<(Vpn, EptEntry)> = Vec::new();
        layer.for_each(|vpn, entry| walked.push((vpn, entry.clone())));
        prop_assert_eq!(walked.len(), oracle.len());
        for ((vpn, entry), (want_vpn, want)) in walked.iter().zip(oracle) {
            prop_assert_eq!(vpn, want_vpn, "for_each must visit in ascending vpn order");
            prop_assert!(
                same_entry(entry, want),
                "for_each at {}: {:?} vs {:?}",
                vpn,
                entry,
                want
            );
        }
        for (vpn, want) in oracle {
            let got = layer.get(*vpn);
            prop_assert!(
                got.is_some_and(|got| same_entry(got, want)),
                "get({}): {:?} vs {:?}",
                vpn,
                got,
                want
            );
            // The neighbours of a mapped page are only mapped if the oracle says so.
            for near in [vpn.wrapping_sub(1), vpn.wrapping_add(1), vpn ^ 512] {
                prop_assert_eq!(layer.get(near).is_some(), oracle.contains_key(&near));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any sequence of table operations leaves the table — the original
        /// and every `sfork` copy (`Clone`) taken along the way — observably
        /// equal to a plain `BTreeMap<Vpn, EptEntry>` that deep-copies on
        /// clone; and a load reads the table without writing it.
        #[test]
        fn ept_table_matches_a_flat_map(
            ops in proptest::collection::vec((table_op(), 0usize..4), 1..80),
        ) {
            let model = CostModel::experimental_machine();
            let clock = SimClock::new();
            let image = test_image(4);
            let mut layers: Vec<(EptLayer, FlatMap)> = vec![(EptLayer::default(), FlatMap::new())];

            for (op, who) in ops {
                let who = who % layers.len();
                if matches!(op, TableOp::Clone) {
                    if layers.len() < 4 {
                        let copy = layers[who].clone();
                        layers.push(copy);
                    }
                } else {
                    let (layer, oracle) = &mut layers[who];
                    match op {
                        TableOp::InsertPresent(vpn) => {
                            let entry = EptEntry::Present { frame: FrameRef::zeroed() };
                            layer.insert(vpn, entry.clone());
                            oracle.insert(vpn, entry);
                        }
                        TableOp::InsertImage(vpn, page) => {
                            let entry = EptEntry::LazyImage { image: Arc::clone(&image), page };
                            layer.insert(vpn, entry.clone());
                            oracle.insert(vpn, entry);
                        }
                        TableOp::Remove(vpn) => {
                            let end = vpn.saturating_add(1);
                            layer.remove_range(vpn, end);
                            oracle.retain(|at, _| !(vpn..end).contains(at));
                        }
                        TableOp::RemoveRange(start, end) => {
                            layer.remove_range(start, end);
                            oracle.retain(|vpn, _| !(start..end).contains(vpn));
                        }
                        TableOp::Load(vpn) => {
                            let got = layer.load(vpn, &clock, &model).unwrap();
                            match oracle.get(&vpn) {
                                Some(EptEntry::Present { frame }) => {
                                    prop_assert!(got.is_some_and(|got| FrameRef::ptr_eq(&got, frame)));
                                }
                                Some(EptEntry::LazyImage { page, .. }) => {
                                    let frame = got.unwrap();
                                    prop_assert_eq!(frame.bytes()[0], *page as u8 + 1);
                                    prop_assert!(frame.is_image_backed());
                                }
                                None => prop_assert!(got.is_none()),
                            }
                        }
                        TableOp::Clone => {} // handled above
                    }
                }
                for (layer, oracle) in &layers {
                    assert_layer_matches(layer, oracle)?;
                }
            }
        }
    }
}
