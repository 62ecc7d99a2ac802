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

use parking_lot::Mutex;
use simtime::{CostModel, SimClock};

use crate::{Frame, MemError, SharedBytes, PAGE_SIZE, PAGE_SIZE_U64};

/// A page-aligned image file mapped into memory, with a shared page cache.
///
/// Catalyzer's func-images are *well-formed*: uncompressed and page-aligned,
/// so they can be `mmap`-ed directly (paper §3.1). When any sandbox first
/// touches a page, the host reads it from storage into the page cache; every
/// later touch — by the same sandbox or any other sharing the Base-EPT — hits
/// the cache for free. `MappedImage` reproduces exactly that: the first
/// [`MappedImage::load_page`] for a page index charges a disk read to the
/// calling clock, later calls charge nothing.
///
/// # Example
///
/// ```
/// use memsim::{MappedImage, SharedBytes, PAGE_SIZE};
/// use simtime::{CostModel, SimClock};
///
/// let image = MappedImage::new("func.img", SharedBytes::from(vec![7u8; PAGE_SIZE * 2]));
/// let model = CostModel::experimental_machine();
/// let clock = SimClock::new();
/// let frame = image.load_page(1, &clock, &model)?;
/// assert_eq!(frame.bytes()[0], 7);
/// let cold = clock.now();
/// image.load_page(1, &clock, &model)?; // cached: free
/// assert_eq!(clock.now(), cold);
/// # Ok::<(), memsim::MemError>(())
/// ```
pub struct MappedImage {
    name: String,
    bytes: SharedBytes,
    pages: u64,
    resident: Mutex<Residency>,
}

/// The shared page cache's state: which pages are in, and how many — the
/// count is kept beside the bitmap so that asking for it never walks it.
struct Residency {
    pages: Vec<bool>,
    count: u64,
}

impl Residency {
    /// Marks `pages[from..to]` (clamped to the image) resident and returns
    /// how many of them were not yet.
    fn load(&mut self, from: usize, to: usize) -> u64 {
        let to = to.min(self.pages.len());
        let mut loaded = 0u64;
        for slot in self.pages.get_mut(from..to).unwrap_or_default() {
            if !*slot {
                *slot = true;
                loaded += 1;
            }
        }
        self.count += loaded;
        loaded
    }
}

impl MappedImage {
    /// Wraps `bytes` as a mapped image. The length is padded *logically* to a
    /// whole number of pages (a trailing partial page reads as zero-filled).
    pub fn new(name: impl Into<String>, bytes: SharedBytes) -> Arc<MappedImage> {
        let page_slots = bytes.len().div_ceil(PAGE_SIZE);
        let pages = u64::try_from(page_slots).unwrap_or(u64::MAX);
        Arc::new(MappedImage {
            name: name.into(),
            bytes,
            pages,
            resident: Mutex::new(Residency {
                pages: vec![false; page_slots],
                count: 0,
            }),
        })
    }

    /// Image name (path-like label for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Image length in pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Image length in bytes (unpadded).
    pub fn len(&self) -> u64 {
        u64::try_from(self.bytes.len()).unwrap_or(u64::MAX)
    }

    /// True if the image holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Number of pages currently resident in the shared page cache.
    pub fn resident_pages(&self) -> u64 {
        self.resident.lock().count
    }

    /// Loads page `index`, charging a disk read on the first touch only.
    ///
    /// Returns a zero-copy [`Frame`] over the image buffer (or an owned
    /// zero-padded frame for a trailing partial page).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ImageBounds`] if `index` is past the end.
    pub fn load_page(
        &self,
        index: u64,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Frame, MemError> {
        if index >= self.pages {
            return Err(MemError::ImageBounds {
                page: index,
                pages: self.pages,
            });
        }
        // `index < self.pages`, and the resident table was sized in usize,
        // so this conversion cannot lose range on any supported target.
        let index_us = usize::try_from(index).map_err(|_| MemError::ImageBounds {
            page: index,
            pages: self.pages,
        })?;
        {
            // Fault-around: a miss reads a small cluster ahead, the way host
            // kernels do readahead under mmap. One seek covers the cluster.
            let mut resident = self.resident.lock();
            if resident.pages.get(index_us).is_some_and(|r| !*r) {
                let loaded = resident.load(index_us, index_us.saturating_add(8));
                drop(resident);
                clock.charge(model.disk_read(loaded.saturating_mul(PAGE_SIZE_U64)));
            }
        }
        let start = index_us.saturating_mul(PAGE_SIZE);
        let end = start.saturating_add(PAGE_SIZE).min(self.bytes.len());
        if end.saturating_sub(start) == PAGE_SIZE {
            Ok(Frame::from_image_slice(self.bytes.slice(start..end)))
        } else {
            Ok(Frame::from_bytes(self.bytes.get(start..end).unwrap_or(&[])))
        }
    }

    /// Sequentially loads pages `[first, first + count)` with readahead
    /// semantics: one seek plus transfer for however many pages were not yet
    /// resident. Models `mmap` readahead / `read(2)` of a section.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ImageBounds`] if the range extends past the image.
    pub fn load_range(
        &self,
        first: u64,
        count: u64,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), MemError> {
        let end = first.saturating_add(count);
        if end > self.pages {
            return Err(MemError::ImageBounds {
                page: end.saturating_sub(1),
                pages: self.pages,
            });
        }
        let first_us = usize::try_from(first).unwrap_or(usize::MAX);
        let end_us = usize::try_from(end).unwrap_or(usize::MAX);
        let missing = self.resident.lock().load(first_us, end_us);
        if missing > 0 {
            clock.charge(model.disk_read(missing.saturating_mul(PAGE_SIZE_U64)));
        }
        Ok(())
    }

    /// Marks every page resident, as if the file were read sequentially
    /// (used by the *classic* restore path, which loads everything eagerly),
    /// charging one bulk disk read.
    pub fn prefetch_all(&self, clock: &SimClock, model: &CostModel) {
        let missing = self.resident.lock().load(0, usize::MAX);
        if missing > 0 {
            clock.charge(model.disk_read(missing.saturating_mul(PAGE_SIZE_U64)));
        }
    }

    /// Raw access to the underlying buffer (used by the image format parser;
    /// does **not** touch the page cache or charge costs).
    pub fn raw_bytes(&self) -> &SharedBytes {
        &self.bytes
    }
}

impl fmt::Debug for MappedImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedImage")
            .field("name", &self.name)
            .field("pages", &self.pages)
            .field("resident", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimNanos;

    fn image_of(pages: usize, fill: u8) -> Arc<MappedImage> {
        MappedImage::new("test.img", SharedBytes::from(vec![fill; pages * PAGE_SIZE]))
    }

    #[test]
    fn first_touch_charges_later_touches_free() {
        let img = image_of(4, 3);
        let model = CostModel::experimental_machine();
        let clock = SimClock::new();
        img.load_page(2, &clock, &model).unwrap();
        let after_first = clock.now();
        assert!(after_first > SimNanos::ZERO);
        img.load_page(2, &clock, &model).unwrap();
        assert_eq!(clock.now(), after_first);
        // Fault-around brought in the rest of the cluster (pages 2..4).
        assert_eq!(img.resident_pages(), 2);
    }

    #[test]
    fn cache_is_shared_across_callers() {
        let img = image_of(2, 1);
        let model = CostModel::experimental_machine();
        let warm_clock = SimClock::new();
        // Another "sandbox" already touched page 0.
        img.load_page(0, &SimClock::new(), &model).unwrap();
        img.load_page(0, &warm_clock, &model).unwrap();
        assert_eq!(warm_clock.now(), SimNanos::ZERO);
    }

    #[test]
    fn out_of_bounds_is_error() {
        let img = image_of(2, 0);
        let err = img
            .load_page(2, &SimClock::new(), &CostModel::experimental_machine())
            .unwrap_err();
        assert_eq!(err, MemError::ImageBounds { page: 2, pages: 2 });
    }

    #[test]
    fn partial_trailing_page_zero_pads() {
        let img = MappedImage::new("t", SharedBytes::from(vec![9u8; PAGE_SIZE + 10]));
        assert_eq!(img.pages(), 2);
        let model = CostModel::experimental_machine();
        let clock = SimClock::new();
        let f = img.load_page(1, &clock, &model).unwrap();
        assert_eq!(f.bytes()[9], 9);
        assert_eq!(f.bytes()[10], 0);
        assert!(!f.is_image_backed()); // padded copy, not zero-copy
    }

    #[test]
    fn full_pages_are_zero_copy() {
        let img = image_of(1, 5);
        let f = img
            .load_page(0, &SimClock::new(), &CostModel::experimental_machine())
            .unwrap();
        assert!(f.is_image_backed());
    }

    #[test]
    fn prefetch_all_charges_once() {
        let img = image_of(8, 0);
        let model = CostModel::experimental_machine();
        let clock = SimClock::new();
        img.prefetch_all(&clock, &model);
        let cost = clock.now();
        assert!(cost > SimNanos::ZERO);
        assert_eq!(img.resident_pages(), 8);
        img.prefetch_all(&clock, &model);
        assert_eq!(clock.now(), cost);
    }

    #[test]
    fn prefetch_after_partial_touch_charges_remainder() {
        let img = image_of(12, 0);
        let model = CostModel::experimental_machine();
        // Fault-around loads the 8-page cluster at 0.
        img.load_page(0, &SimClock::new(), &model).unwrap();
        assert_eq!(img.resident_pages(), 8);
        let clock = SimClock::new();
        img.prefetch_all(&clock, &model);
        // 4 pages remained: 1 seek + 4 pages of transfer.
        let expected = model.disk_read(4 * PAGE_SIZE as u64);
        assert_eq!(clock.now(), expected);
    }

    #[test]
    fn empty_image() {
        let img = MappedImage::new("empty", SharedBytes::default());
        assert!(img.is_empty());
        assert_eq!(img.pages(), 0);
        assert!(img
            .load_page(0, &SimClock::new(), &CostModel::experimental_machine())
            .is_err());
    }
}
