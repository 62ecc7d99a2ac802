use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
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

/// Words of an overlay's own mask: one bit per slot.
const MASK_WORDS: usize = LEAF_SPAN / 64;

/// Splits a page number into its leaf key and the slot within that leaf.
#[inline]
fn split(vpn: Vpn) -> (u64, usize) {
    (vpn / LEAF_SPAN_U64, (vpn % LEAF_SPAN_U64) as usize)
}

/// True if `a` and `b` are mapped by one leaf table.
pub(crate) fn same_leaf(a: Vpn, b: Vpn) -> bool {
    a / LEAF_SPAN_U64 == b / LEAF_SPAN_U64
}

/// One last-level table as a table holds it: a plain leaf, or an overlay
/// over one (paper §3.1's private-over-shared layering, one leaf wide).
///
/// A table that writes through a plain leaf it shares does not copy the
/// leaf: it puts an [`Overlay`] in its place that holds what it writes and
/// reads everything else through the plain leaf below. Overlays stay one
/// deep: writing through a shared overlay makes a sibling over the same
/// plain leaf, never an overlay of an overlay.
#[derive(Clone)]
pub(crate) enum Leaf {
    /// Slots of its own; shared by every table and overlay that holds it.
    Plain(Arc<Plain>),
    /// A private layer of slots over a shared plain leaf.
    Overlay(Arc<Overlay>),
}

/// 512 slots, the count of those in use, and two counts the overlays over
/// it keep: how many there are and, per slot, how many of them own it.
///
/// A frame leaves a plain leaf through [`release`], so the page blocks a
/// dropped or emptied leaf held last go to the thread's spares
/// (`FrameRef::release`).
pub(crate) struct Plain {
    slots: [Option<EptEntry>; LEAF_SPAN],
    /// Slots that are `Some`.
    entries: usize,
    /// Overlays over this leaf (each holds one of its `Arc` counts).
    overlays: AtomicU32,
    /// Per slot, the overlays that own it, and so do not read it here.
    owners: [AtomicU32; LEAF_SPAN],
}

/// A table's private slots over a shared plain leaf.
///
/// A slot whose bit is set in `own` is the overlay's: its entry, or a
/// tombstone (`None`) that hides the plain leaf's entry. Every other slot
/// reads through to `base`, and holds `None` here.
pub(crate) struct Overlay {
    slots: [Option<EptEntry>; LEAF_SPAN],
    own: [u64; MASK_WORDS],
    /// Slots visible through the overlay: its own entries and the base
    /// entries it does not hide.
    entries: usize,
    base: Arc<Plain>,
}

/// Checks the count invariant the sole-viewer rule stands on: no slot has
/// more owners than its plain leaf has overlays.
fn debug_check_owners(base: &Plain, slot: usize) {
    debug_assert!(
        base.owners(slot) <= base.overlays(),
        "slot {slot}: {} owners of {} overlays",
        base.owners(slot),
        base.overlays()
    );
}

/// One bit of an own mask.
#[inline]
fn bit(slot: usize) -> (usize, u64) {
    (slot / 64, 1 << (slot % 64))
}

/// The slots an own mask sets, ascending.
fn owned_slots(own: [u64; MASK_WORDS]) -> impl Iterator<Item = usize> {
    (0..MASK_WORDS).flat_map(move |word| {
        let mut bits = own[word];
        std::iter::from_fn(move || {
            let at = bits.trailing_zeros() as usize;
            bits &= bits.checked_sub(1)?;
            Some(word * 64 + at)
        })
    })
}

impl Plain {
    fn empty() -> Plain {
        Plain {
            slots: [const { None }; LEAF_SPAN],
            entries: 0,
            overlays: AtomicU32::new(0),
            owners: [const { AtomicU32::new(0) }; LEAF_SPAN],
        }
    }

    /// Stores `new` in `slot` and returns what was there, keeping the
    /// count true. Only a leaf held by one table alone is written, so no
    /// overlay reads the slot.
    fn replace(&mut self, slot: usize, new: Option<EptEntry>) -> Option<EptEntry> {
        self.entries += usize::from(new.is_some());
        let old = std::mem::replace(&mut self.slots[slot], new);
        self.entries -= usize::from(old.is_some());
        old
    }

    fn overlays(&self) -> usize {
        self.overlays.load(Relaxed) as usize
    }

    fn owners(&self, slot: usize) -> usize {
        self.owners[slot].load(Relaxed) as usize
    }

    /// True if `slot` holds an owned frame no other handle holds.
    fn sole_frame(&self, slot: usize) -> bool {
        matches!(&self.slots[slot], Some(EptEntry::Present { frame }) if frame.is_sole_handle())
    }
}

/// A private copy of the entries, with no overlay over it. Never taken by
/// the table, which puts an overlay over a shared plain leaf instead; it is
/// what lets [`Arc::make_mut`] hand out a leaf the table holds alone.
impl Clone for Plain {
    fn clone(&self) -> Plain {
        let mut copy = Plain::empty();
        copy.slots.clone_from(&self.slots);
        copy.entries = self.entries;
        copy
    }
}

impl Drop for Plain {
    fn drop(&mut self) {
        // Every frame's count is read before any is let go of: the reads do
        // not wait for each other, so their cache misses overlap, where each
        // lock-prefixed decrement would wait for the one before it. A
        // template's leaf holds 512 frames, each count in a block of its
        // own.
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

impl Overlay {
    /// An overlay over `base` that owns nothing yet.
    fn over(base: Arc<Plain>) -> Overlay {
        base.overlays.fetch_add(1, Relaxed);
        Overlay {
            slots: [const { None }; LEAF_SPAN],
            own: [0; MASK_WORDS],
            entries: base.entries,
            base,
        }
    }

    #[inline]
    fn owns(&self, slot: usize) -> bool {
        let (word, bit) = bit(slot);
        self.own[word] & bit != 0
    }

    #[inline]
    fn get(&self, slot: usize) -> Option<&EptEntry> {
        if self.owns(slot) {
            self.slots[slot].as_ref()
        } else {
            self.base.slots[slot].as_ref()
        }
    }

    /// Moves this overlay's own slots into its plain leaf, if it is the
    /// leaf's last holder, and returns the leaf; the overlay is left owning
    /// nothing.
    fn fold(&mut self) -> Option<Arc<Plain>> {
        let base = Arc::get_mut(&mut self.base)?;
        for slot in owned_slots(self.own) {
            release(base.replace(slot, self.slots[slot].take()));
            *base.owners[slot].get_mut() -= 1;
        }
        self.own = [0; MASK_WORDS];
        debug_assert_eq!(base.entries, self.entries);
        Some(Arc::clone(&self.base))
    }

    /// Stores `new` in `slot`, owning it from now on, and returns the entry
    /// the overlay owned there (a base entry it hides stays the base's).
    fn replace(&mut self, slot: usize, new: Option<EptEntry>) -> Option<EptEntry> {
        let visible = self.get(slot).is_some();
        self.entries += usize::from(new.is_some());
        self.entries -= usize::from(visible);
        if !self.owns(slot) {
            let (word, bit) = bit(slot);
            self.own[word] |= bit;
            self.base.owners[slot].fetch_add(1, Relaxed);
            debug_check_owners(&self.base, slot);
        }
        std::mem::replace(&mut self.slots[slot], new)
    }
}

/// A sibling over the same plain leaf: copies of this overlay's own
/// entries — never of the plain leaf's — counted as one more overlay and
/// one more owner of each slot it owns.
impl Clone for Overlay {
    fn clone(&self) -> Overlay {
        let mut sibling = Overlay::over(Arc::clone(&self.base));
        sibling.own = self.own;
        sibling.entries = self.entries;
        for slot in owned_slots(self.own) {
            sibling.slots[slot].clone_from(&self.slots[slot]);
            self.base.owners[slot].fetch_add(1, Relaxed);
            debug_check_owners(&self.base, slot);
        }
        sibling
    }
}

impl Drop for Overlay {
    fn drop(&mut self) {
        // As a plain leaf's drop does: every count read first, then let go.
        self.base.overlays.fetch_sub(1, Relaxed);
        let mut last = [false; LEAF_SPAN];
        for slot in owned_slots(self.own) {
            if let Some(EptEntry::Present { frame }) = &self.slots[slot] {
                last[slot] = frame.is_sole_handle();
            }
        }
        for slot in owned_slots(self.own) {
            self.base.owners[slot].fetch_sub(1, Relaxed);
            debug_check_owners(&self.base, slot);
            if last[slot] {
                release(self.slots[slot].take());
            }
        }
    }
}

/// A leaf table this table holds alone, to write.
enum LeafMut<'a> {
    Plain(&'a mut Plain),
    Overlay(&'a mut Overlay),
}

impl LeafMut<'_> {
    fn get(&self, slot: usize) -> Option<&EptEntry> {
        match self {
            LeafMut::Plain(plain) => plain.slots[slot].as_ref(),
            LeafMut::Overlay(overlay) => overlay.get(slot),
        }
    }

    fn replace(&mut self, slot: usize, new: Option<EptEntry>) -> Option<EptEntry> {
        match self {
            LeafMut::Plain(plain) => plain.replace(slot, new),
            LeafMut::Overlay(overlay) => overlay.replace(slot, new),
        }
    }
}

/// How a write may reach the frame at one slot: see [`Leaf::writable_frame`].
enum Access {
    /// Through the table's own slot, if the frame's handle is sole.
    Borrow,
    /// The space is the frame's sole viewer, but the frame sits in a plain
    /// leaf others hold: copied into the table's overlay first.
    HostCopy,
    /// Another space sees the frame: the write faults.
    Fault,
}

impl Leaf {
    fn empty() -> Leaf {
        Leaf::Plain(Arc::new(Plain::empty()))
    }

    /// Slots visible through this leaf.
    fn entries(&self) -> usize {
        match self {
            Leaf::Plain(plain) => plain.entries,
            Leaf::Overlay(overlay) => overlay.entries,
        }
    }

    #[inline]
    fn get(&self, slot: usize) -> Option<&EptEntry> {
        match self {
            Leaf::Plain(plain) => plain.slots[slot].as_ref(),
            Leaf::Overlay(overlay) => overlay.get(slot),
        }
    }

    /// Applies `f` to every visible `(slot, entry)` pair, ascending.
    fn for_each(&self, mut f: impl FnMut(usize, &EptEntry)) {
        match self {
            Leaf::Plain(plain) => {
                for (slot, entry) in plain.slots.iter().enumerate() {
                    if let Some(entry) = entry {
                        f(slot, entry);
                    }
                }
            }
            Leaf::Overlay(overlay) => {
                for slot in 0..LEAF_SPAN {
                    if let Some(entry) = overlay.get(slot) {
                        f(slot, entry);
                    }
                }
            }
        }
    }

    /// The entry this leaf maps at `vpn`, borrowed.
    pub(crate) fn entry(&self, vpn: Vpn) -> Option<&EptEntry> {
        self.get(split(vpn).1)
    }

    /// The frame at `vpn` if this table's space may write it in place, free:
    /// it is the only space that sees the frame, which is owned, not an
    /// image page. The one statement of the rule; see
    /// [`EptLayer::writable_frame`].
    ///
    /// A sole viewer whose frame sits in a plain leaf other tables or
    /// overlays hold gets a copy of it in its overlay first — made on the
    /// host and charged to nobody, since the guest would have written in
    /// place.
    pub(crate) fn writable_frame(&mut self, vpn: Vpn) -> Option<&mut [u8; PAGE_SIZE]> {
        let slot = split(vpn).1;
        match self.access(slot) {
            Access::Borrow => {}
            // A fold leaves the frame in a plain leaf the table holds alone.
            Access::HostCopy => {
                if let LeafMut::Overlay(overlay) = self.make_mut() {
                    let copy = match &overlay.base.slots[slot] {
                        Some(EptEntry::Present { frame }) => frame.cow_copy(),
                        _ => return None,
                    };
                    overlay.replace(slot, Some(EptEntry::Present { frame: copy }));
                }
            }
            Access::Fault => return None,
        }
        let entry = match self {
            Leaf::Plain(plain) => &mut Arc::get_mut(plain)?.slots[slot],
            Leaf::Overlay(overlay) => {
                let overlay = Arc::get_mut(overlay)?;
                if !overlay.owns(slot) {
                    return None;
                }
                &mut overlay.slots[slot]
            }
        };
        match entry {
            Some(EptEntry::Present { frame }) => frame.get_mut(),
            _ => None,
        }
    }

    /// Which way a write reaches `slot`. A space is the frame's sole viewer
    /// when one of these holds:
    ///
    /// - its leaf is plain and no other table or overlay reads the slot:
    ///   every holder of the leaf but this table is an overlay
    ///   (`strong_count − overlays == 1`) and every overlay owns the slot;
    /// - its leaf is an overlay it holds alone, and the overlay owns the slot;
    /// - its leaf is an overlay it holds alone that reads the slot through,
    ///   no table holds the plain leaf directly (`strong_count == overlays`)
    ///   and every other overlay owns the slot;
    ///
    /// and the frame's handle is sole (checked on the borrow).
    fn access(&self, slot: usize) -> Access {
        let (base, readers) = match self {
            Leaf::Plain(plain) => {
                let holders = Arc::strong_count(plain);
                if holders == 1 {
                    return Access::Borrow;
                }
                let overlays = plain.overlays();
                let sole =
                    holders.checked_sub(overlays) == Some(1) && overlays == plain.owners(slot);
                (plain, usize::from(!sole))
            }
            Leaf::Overlay(overlay) => {
                if Arc::strong_count(overlay) != 1 {
                    return Access::Fault;
                }
                if overlay.owns(slot) {
                    return Access::Borrow;
                }
                let base = &overlay.base;
                let overlays = base.overlays();
                let direct = Arc::strong_count(base).saturating_sub(overlays);
                let through = overlays.saturating_sub(base.owners(slot));
                // This overlay is one of those reading through.
                (base, (direct + through).saturating_sub(1))
            }
        };
        if readers == 0 && base.sole_frame(slot) {
            Access::HostCopy
        } else {
            Access::Fault
        }
    }

    /// Makes this leaf the table's alone to write, copying no leaf: a plain
    /// leaf others hold goes under a new overlay, a shared overlay becomes a
    /// sibling over the same plain leaf, and an overlay that is the last
    /// holder of its plain leaf folds back into it.
    fn make_mut(&mut self) -> LeafMut<'_> {
        if let Leaf::Plain(plain) = self {
            if Arc::strong_count(plain) > 1 {
                *self = Leaf::Overlay(Arc::new(Overlay::over(Arc::clone(plain))));
            }
        }
        if let Leaf::Overlay(overlay) = self {
            if let Some(plain) = Arc::get_mut(overlay).and_then(Overlay::fold) {
                *self = Leaf::Plain(plain);
            }
        }
        match self {
            Leaf::Plain(plain) => LeafMut::Plain(Arc::make_mut(plain)),
            Leaf::Overlay(overlay) => LeafMut::Overlay(Arc::make_mut(overlay)),
        }
    }

    /// This leaf as a sweep holds it across a run of pages: the leaf
    /// itself, borrowed once, when the table holds it alone.
    pub(crate) fn hold(&mut self) -> Held<'_> {
        let alone = match self {
            Leaf::Plain(plain) => Arc::strong_count(plain) == 1,
            Leaf::Overlay(overlay) => Arc::strong_count(overlay) == 1,
        };
        if !alone {
            return Held::Shared(self);
        }
        // `make_mut` clones nothing here: the table holds the only count.
        match self {
            Leaf::Plain(plain) => Held::Plain(Arc::make_mut(plain)),
            Leaf::Overlay(overlay) => Held::Overlay(Arc::make_mut(overlay)),
        }
    }
}

/// A leaf table a sweep holds across one run of pages. A leaf the table
/// holds alone is borrowed once for the run, so its pages are read and
/// written with no count taken per page; any other is the table's [`Leaf`],
/// under the whole rule.
pub(crate) enum Held<'a> {
    /// A plain leaf the table holds alone: every slot writable in place.
    Plain(&'a mut Plain),
    /// An overlay the table holds alone: its own slots writable in place,
    /// the rest read through its plain leaf.
    Overlay(&'a mut Overlay),
    /// A leaf other tables hold too.
    Shared(&'a mut Leaf),
}

// A sweep is compiled in its caller's crate; its per-page calls are
// `#[inline]` so they are compiled there with it, not called.
impl Held<'_> {
    /// The resident frame mapped at `vpn`, borrowed.
    #[inline]
    pub(crate) fn frame(&self, vpn: Vpn) -> Option<&FrameRef> {
        let slot = split(vpn).1;
        let entry = match self {
            Held::Plain(plain) => plain.slots[slot].as_ref(),
            Held::Overlay(overlay) => overlay.get(slot),
            Held::Shared(leaf) => leaf.get(slot),
        };
        match entry {
            Some(EptEntry::Present { frame }) => Some(frame),
            _ => None,
        }
    }

    /// [`Leaf::writable_frame`], through the held borrow. An overlay's
    /// slot it does not own is `None` here: the write goes to
    /// `AddressSpace::write`, which applies the whole rule.
    #[inline]
    pub(crate) fn writable_frame(&mut self, vpn: Vpn) -> Option<&mut [u8; PAGE_SIZE]> {
        let slot = split(vpn).1;
        let entry = match self {
            Held::Plain(plain) => &mut plain.slots[slot],
            Held::Overlay(overlay) if overlay.owns(slot) => &mut overlay.slots[slot],
            Held::Overlay(_) => return None,
            Held::Shared(leaf) => return leaf.writable_frame(vpn),
        };
        match entry {
            Some(EptEntry::Present { frame }) => frame.get_mut(),
            _ => None,
        }
    }

    /// Maps `make()` at `vpn` if nothing is visible there and the table
    /// holds this leaf alone; true if it did. A demand-zero fault inside a
    /// sweep, with no leaf to look up again.
    pub(crate) fn fill_hole(&mut self, vpn: Vpn, make: impl FnOnce() -> FrameRef) -> bool {
        let slot = split(vpn).1;
        let mut leaf = match self {
            Held::Plain(plain) => LeafMut::Plain(plain),
            Held::Overlay(overlay) => LeafMut::Overlay(overlay),
            Held::Shared(_) => return false,
        };
        if leaf.get(slot).is_some() {
            return false;
        }
        leaf.replace(slot, Some(EptEntry::Present { frame: make() }));
        true
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
/// reference — one `Arc` per *table*, no per-page work. A sharer's first
/// write into a shared leaf copies no leaf: the table puts an overlay over
/// it that holds what it writes, one deep (a write through a shared overlay
/// makes a sibling that copies only the overlay's own entries). Dropping a
/// clone releases only what it wrote. Empty leaves are freed, so the map
/// never holds one.
///
/// Consequence for copy-on-write: a frame reachable through a *shared leaf*
/// is shared even when its own `Arc::strong_count` is 1. Only
/// `EptLayer::writable_frame` decides what may be written in place.
#[derive(Clone, Default)]
pub struct EptLayer {
    leaves: BTreeMap<u64, Leaf>,
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
        self.leaves.values().map(Leaf::entries).sum()
    }

    /// True if the layer has no entries (it never holds an empty leaf).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The entry for `vpn`, borrowed.
    pub(crate) fn get(&self, vpn: Vpn) -> Option<&EptEntry> {
        let (key, slot) = split(vpn);
        self.leaves.get(&key)?.get(slot)
    }

    /// Inserts or replaces the entry for `vpn`. A leaf the table shares gets
    /// an overlay, not a copy.
    pub(crate) fn insert(&mut self, vpn: Vpn, entry: EptEntry) {
        let (key, slot) = split(vpn);
        let leaf = self.leaves.entry(key).or_insert_with(Leaf::empty);
        release(leaf.make_mut().replace(slot, Some(entry)));
    }

    /// Removes every entry in `[start, end)`. Walks the leaves that exist in
    /// the window, never the page numbers, so a sparse 2^40-page window
    /// costs what it holds: leaves wholly emptied go in one step, the others
    /// are cleared slot by slot — a shared one through an overlay of
    /// tombstones, never a copy.
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
            let doomed = (lo..hi).filter(|&slot| leaf.get(slot).is_some()).count();
            if doomed == leaf.entries() {
                emptied.push(key);
            } else if doomed > 0 {
                let mut leaf = leaf.make_mut();
                for slot in lo..hi {
                    if leaf.get(slot).is_some() {
                        release(leaf.replace(slot, None));
                    }
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
            leaf.for_each(|slot, entry| f(first + slot as u64, entry));
        }
    }

    /// The frame at `vpn` if it may be written in place: this space is the
    /// only one that sees the frame, no reader holds it, and it is not an
    /// image page ([`Leaf::writable_frame`]). Anything else — a missing or
    /// lazy entry, a frame an `sfork` relative still sees through a shared
    /// leaf or overlay, a frame a snapshot holds — is `None`, and the write
    /// must take the copy-on-write arm.
    pub(crate) fn writable_frame(&mut self, vpn: Vpn) -> Option<&mut [u8; PAGE_SIZE]> {
        self.leaf_mut(vpn)?.writable_frame(vpn)
    }

    /// The leaf table that maps `vpn`, if there is one — what a sweep holds
    /// across the pages of one leaf instead of searching the map per page.
    pub(crate) fn leaf_mut(&mut self, vpn: Vpn) -> Option<&mut Leaf> {
        self.leaves.get_mut(&split(vpn).0)
    }

    /// The leaf table that maps `vpn`, borrowed.
    pub(crate) fn leaf(&self, vpn: Vpn) -> Option<&Leaf> {
        self.leaves.get(&split(vpn).0)
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

    /// The leaf that maps `vpn`: its overlay's plain leaf, or itself.
    fn plain_under(layer: &EptLayer, vpn: Vpn) -> &Arc<Plain> {
        match layer.leaf(vpn) {
            Some(Leaf::Plain(plain)) => plain,
            Some(Leaf::Overlay(overlay)) => &overlay.base,
            None => panic!("no leaf at {vpn}"),
        }
    }

    #[test]
    fn a_write_through_a_shared_leaf_makes_an_overlay_not_a_copy() {
        let mut table = EptLayer::default();
        let frames: Vec<FrameRef> = (0..3).map(|_| FrameRef::zeroed()).collect();
        for (vpn, frame) in (0..).zip(&frames) {
            table.insert(vpn, present(frame));
        }
        let mut child = table.clone();
        let mine = FrameRef::zeroed();
        child.insert(1, present(&mine));
        assert!(matches!(child.leaf(1), Some(Leaf::Overlay(_))));
        assert!(Arc::ptr_eq(plain_under(&child, 1), plain_under(&table, 1)));
        // The frames the child reads through gained no handle (the test
        // holds one, the plain leaf the other).
        assert!(frames.iter().all(|frame| frame.handles() == 2));
        assert!(FrameRef::ptr_eq(&frame_at(&child, 0), &frames[0]));
        assert!(FrameRef::ptr_eq(&frame_at(&child, 1), &mine));
        assert!(FrameRef::ptr_eq(&frame_at(&table, 1), &frames[1]));

        // A removal is a tombstone: it hides the plain leaf's entry.
        child.remove_range(2, 3);
        assert!(child.get(2).is_none());
        assert!(FrameRef::ptr_eq(&frame_at(&table, 2), &frames[2]));
        assert_eq!((table.len(), child.len()), (3, 2));
        let plain = plain_under(&table, 0);
        assert_eq!(
            (plain.overlays(), plain.owners(1), plain.owners(2)),
            (1, 1, 1)
        );

        // Dropping the child releases what it wrote and its counts.
        drop(child);
        let plain = plain_under(&table, 0);
        assert_eq!(
            (plain.overlays(), plain.owners(1), plain.owners(2)),
            (0, 0, 0)
        );
        assert_eq!(Arc::strong_count(plain), 1);
        assert_eq!(mine.handles(), 1);
    }

    #[test]
    fn overlays_stay_one_deep_and_fold_back_when_alone() {
        let mut table = EptLayer::default();
        table.insert(0, present(&FrameRef::zeroed()));
        table.insert(1, present(&FrameRef::zeroed()));
        let mut child = table.clone();
        child.insert(0, present(&FrameRef::zeroed()));

        // A write through the child's overlay that a grandchild shares makes
        // a sibling over the same plain leaf, copying the overlay's own
        // entry: the grandchild keeps the original overlay.
        let grandchild = child.clone();
        child.insert(1, present(&FrameRef::zeroed()));
        for layer in [&child, &grandchild] {
            assert!(matches!(layer.leaf(0), Some(Leaf::Overlay(_))));
            assert!(Arc::ptr_eq(plain_under(layer, 0), plain_under(&table, 0)));
        }
        assert!(FrameRef::ptr_eq(
            &frame_at(&child, 0),
            &frame_at(&grandchild, 0)
        ));
        let plain = plain_under(&table, 0);
        assert_eq!(
            (plain.overlays(), plain.owners(0), plain.owners(1)),
            (2, 2, 1)
        );

        // Once the child's overlay is its plain leaf's last holder, its next
        // write folds the two back into one plain leaf.
        drop((table, grandchild));
        let kept = frame_at(&child, 1);
        child.remove_range(0, 1);
        assert!(matches!(child.leaf(1), Some(Leaf::Plain(_))));
        assert!(child.get(0).is_none());
        assert!(FrameRef::ptr_eq(&frame_at(&child, 1), &kept));
        assert_eq!(child.len(), 1);
        drop(kept);
        assert!(child.writable_frame(1).is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "owners of")]
    fn more_owners_than_overlays_fails_when_an_overlay_drops() {
        let mut table = EptLayer::default();
        table.insert(1, present(&FrameRef::zeroed()));
        let mut child = table.clone();
        child.insert(1, present(&FrameRef::zeroed()));
        // A count bug: one owner more than there are overlays.
        plain_under(&child, 1).owners[1].fetch_add(1, Relaxed);
        drop(child);
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
