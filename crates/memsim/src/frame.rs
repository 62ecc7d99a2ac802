use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::{SharedBytes, PAGE_SIZE};

/// The bytes of one owned page.
type Block = [u8; PAGE_SIZE];

/// What a demand-zero page is a copy of.
static ZERO_PAGE: Block = [0; PAGE_SIZE];

/// Owned page blocks a thread keeps, once their last handle let go of
/// them, for its next faults: at most 4 MiB.
///
/// - A reused instance unmaps and re-faults its request scratch on every
///   invocation (512 pages for Java-SPECjbb): that churn never reaches the
///   allocator.
/// - The thread keeps the highest-addressed blocks it is offered and hands
///   out the lowest first. A kept block above a freed run stops the
///   allocator from merging the run into its heap top and handing it back
///   to the OS, only to fault and zero the same pages again on the next
///   burst of faults (a forked Java-SPECjbb child frees 4,352 pages at
///   once).
///
/// Every kept block is overwritten in full before its next owner can read
/// it.
const SPARE_BLOCKS: usize = 1_024;

/// A kept block, keyed by its address.
type Spare = Reverse<(usize, Arc<Block>)>;

thread_local! {
    /// Kept blocks, lowest address on top.
    #[expect(
        clippy::disallowed_types,
        reason = "a per-thread free list has no owner to lend it; its borrows in `block_from` and `release` reach nothing that borrows it again"
    )]
    static SPARE: std::cell::RefCell<BinaryHeap<Spare>> =
        const { std::cell::RefCell::new(BinaryHeap::new()) };
}

/// Lets go of the blocks this thread keeps, so a test starts from none.
#[cfg(test)]
pub(crate) fn clear_spares() {
    SPARE.with_borrow_mut(BinaryHeap::clear);
}

/// A block holding a copy of `src`: a spare one if this thread keeps one,
/// else a new allocation.
fn block_from(src: &Block) -> Arc<Block> {
    let spare = SPARE
        .try_with(|spare| spare.borrow_mut().pop().map(|Reverse((_, block))| block))
        .ok()
        .flatten();
    match spare {
        Some(mut block) => {
            // Unique: a block is kept only once no handle holds it.
            Arc::make_mut(&mut block).copy_from_slice(src);
            block
        }
        None => Arc::new(*src),
    }
}

/// Shared handle to one 4 KiB guest-physical page frame.
///
/// A frame's contents come from one of two places:
///
/// - **Owned** memory (heap, stack, CoW copies): one reference-counted block
///   holding the counts and the page's 4,096 bytes together. Reading it
///   follows one pointer; a fault that makes one is one allocation, or none
///   when the thread keeps a spare block, and freeing it is one free.
/// - A zero-copy **image** page of a mapped func-image: one reference on the
///   image buffer and the page's offset in it, exactly like `mmap`-ing a
///   file read-only. It never grows into a page of its own: materializing a
///   Base-EPT page allocates nothing.
///
/// Either way the handle is two words, so an EPT slot holding one stays
/// three.
///
/// `Clone` is one reference count either way, and what it shares is the
/// frame itself, so a [`FrameRef`] is also what a checkpoint carries for a
/// page ([`crate::AddressSpace::snapshot_private_pages`]). The count is
/// *not* the sharing degree: `sfork` shares whole leaf tables, so one
/// reference held by one table can stand for many spaces.
/// [`crate::accounting`] counts sharers by frame identity across the group
/// instead, and the address space decides writability from the table *and*
/// the frame (see `AddressSpace::write`).
///
/// A frame dereferences to its page of bytes and compares by content.
#[derive(Clone)]
pub struct FrameRef(Page);

#[derive(Clone)]
enum Page {
    /// Writable in place while this is its only handle.
    Owned(Arc<Block>),
    /// One page of an image buffer, from the offset: always read-only
    /// (writes CoW first). The buffer holds the whole page.
    Image(Arc<Vec<u8>>, usize),
}

impl FrameRef {
    /// A new zero-filled anonymous frame.
    pub fn zeroed() -> FrameRef {
        FrameRef(Page::Owned(block_from(&ZERO_PAGE)))
    }

    /// An anonymous frame holding a copy of `bytes`, zero-padded to a page.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > PAGE_SIZE`.
    pub fn from_bytes(bytes: &[u8]) -> FrameRef {
        assert!(bytes.len() <= PAGE_SIZE, "frame contents exceed a page");
        FrameRef::padded(bytes)
    }

    /// [`FrameRef::from_bytes`] for a `bytes` known to fit: a full page (every
    /// CoW copy) is one copy, only a short one is zeroed underneath first.
    fn padded(bytes: &[u8]) -> FrameRef {
        let block = match <&Block>::try_from(bytes) {
            Ok(page) => block_from(page),
            Err(_) => {
                let mut block = block_from(&ZERO_PAGE);
                if let Some(prefix) = Arc::make_mut(&mut block).get_mut(..bytes.len()) {
                    prefix.copy_from_slice(bytes);
                }
                block
            }
        };
        FrameRef(Page::Owned(block))
    }

    /// A zero-copy frame over one page of an image buffer.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not exactly [`PAGE_SIZE`] long.
    pub fn from_image_slice(slice: SharedBytes) -> FrameRef {
        assert_eq!(slice.len(), PAGE_SIZE, "image frame must be page-sized");
        let (buffer, at) = slice.into_parts();
        FrameRef(Page::Image(buffer, at))
    }

    /// One page of a mapped image: a view of a full page, a zero-padded
    /// owned copy of a trailing partial one. Never panics.
    pub(crate) fn image_page(bytes: &SharedBytes, start: usize) -> FrameRef {
        let end = start.saturating_add(PAGE_SIZE).min(bytes.len());
        if end.saturating_sub(start) == PAGE_SIZE {
            let (buffer, at) = bytes.slice(start..end).into_parts();
            FrameRef(Page::Image(buffer, at))
        } else {
            FrameRef::padded(bytes.get(start..end).unwrap_or_default())
        }
    }

    /// The page contents.
    pub fn bytes(&self) -> &[u8] {
        match &self.0 {
            Page::Owned(block) => &block[..],
            Page::Image(buffer, at) => buffer
                .get(*at..at.saturating_add(PAGE_SIZE))
                .unwrap_or_default(),
        }
    }

    /// True if the frame is an image-backed (inherently read-only) page.
    pub fn is_image_backed(&self) -> bool {
        matches!(self.0, Page::Image(..))
    }

    /// A writable copy of this frame (the CoW copy operation).
    pub fn cow_copy(&self) -> FrameRef {
        FrameRef::padded(self.bytes())
    }

    /// True if `a` and `b` are the same frame: one owned block, or views of
    /// the same page of the same image buffer.
    pub fn ptr_eq(a: &FrameRef, b: &FrameRef) -> bool {
        match (&a.0, &b.0) {
            (Page::Owned(x), Page::Owned(y)) => Arc::ptr_eq(x, y),
            (Page::Image(x, at), Page::Image(y, bt)) => Arc::ptr_eq(x, y) && at == bt,
            _ => false,
        }
    }

    /// The page's bytes to write in place, if this handle may: it is the
    /// only one on an owned block. The address space also requires the leaf
    /// table holding it to be unshared (`EptTable::writable_frame`).
    pub(crate) fn get_mut(&mut self) -> Option<&mut Block> {
        match &mut self.0 {
            Page::Owned(block) => Arc::get_mut(block),
            Page::Image(..) => None,
        }
    }

    /// Writes `src` at `offset` through the only handle on an owned block.
    ///
    /// # Panics
    ///
    /// Panics if another handle holds the block, the frame is image-backed,
    /// or the write crosses the page end.
    #[expect(
        clippy::panic,
        reason = "a write through a shared handle is an address-space bug, documented under # Panics"
    )]
    pub(crate) fn write_in_place(&mut self, offset: usize, src: &[u8]) {
        let Some(page) = self.get_mut() else {
            panic!("write_in_place on a shared or image-backed frame");
        };
        page[offset..offset + src.len()].copy_from_slice(src);
    }

    /// The frame's identity, for PSS accounting: the address of its bytes.
    /// An owned block is its own frame; two views of one image page are one
    /// frame, the page of the mapped image they both show.
    pub(crate) fn identity(&self) -> usize {
        self.bytes().as_ptr() as usize
    }

    /// True if this is the only handle on an owned block (a plain read of
    /// its count: no lock).
    pub(crate) fn is_sole_handle(&self) -> bool {
        matches!(&self.0, Page::Owned(block) if Arc::strong_count(block) == 1)
    }

    /// Drops this handle; if it was the last one on an owned block, the
    /// thread keeps the block for a later fault while it has room.
    pub(crate) fn release(self) {
        if let Page::Owned(mut block) = self.0 {
            if Arc::get_mut(&mut block).is_some() {
                let _ = SPARE.try_with(|spare| {
                    let mut spare = spare.borrow_mut();
                    let kept = (Arc::as_ptr(&block) as usize, block);
                    if spare.len() < SPARE_BLOCKS {
                        spare.push(Reverse(kept));
                    } else if let Some(mut lowest) = spare.peek_mut() {
                        if lowest.0 .0 < kept.0 {
                            // The lower block goes back to the allocator.
                            *lowest = Reverse(kept);
                        }
                    }
                });
            }
        }
    }

    /// Strong references on an owned frame's block; 0 for an image view.
    #[cfg(test)]
    pub(crate) fn handles(&self) -> usize {
        match &self.0 {
            Page::Owned(block) => Arc::strong_count(block),
            Page::Image(..) => 0,
        }
    }
}

impl Deref for FrameRef {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

/// By content: an image-backed page equals the anonymous page holding the
/// same bytes (a restored heap equals the checkpointed one).
impl PartialEq for FrameRef {
    fn eq(&self, other: &FrameRef) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for FrameRef {}

/// The kind only: a derived `Debug` would print 4,096 bytes per page.
impl fmt::Debug for FrameRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.0 {
            Page::Owned(_) => "Frame(owned)",
            Page::Image(..) => "Frame(image)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_all_zero() {
        let f = FrameRef::zeroed();
        assert_eq!(f.bytes().len(), PAGE_SIZE);
        assert!(f.bytes().iter().all(|&b| b == 0));
        assert!(!f.is_image_backed());
    }

    #[test]
    fn from_bytes_pads_with_zero() {
        let f = FrameRef::from_bytes(b"abc");
        assert_eq!(&f.bytes()[..3], b"abc");
        assert_eq!(f.bytes()[3], 0);
        assert_eq!(f.bytes().len(), PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn from_bytes_rejects_oversize() {
        let _ = FrameRef::from_bytes(&vec![0u8; PAGE_SIZE + 1]);
    }

    #[test]
    fn image_slice_round_trip() {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        let f = FrameRef::from_image_slice(SharedBytes::from(buf));
        assert!(f.is_image_backed());
        assert_eq!(f.bytes()[0], 0xAB);
    }

    #[test]
    #[should_panic(expected = "page-sized")]
    fn image_slice_must_be_page_sized() {
        let _ = FrameRef::from_image_slice(SharedBytes::from(b"short".to_vec()));
    }

    #[test]
    fn derefs_to_its_bytes_and_compares_by_content() {
        let owned = FrameRef::from_bytes(&[7u8; PAGE_SIZE]);
        let image = FrameRef::from_image_slice(SharedBytes::from(vec![7u8; PAGE_SIZE]));
        assert_eq!(owned.len(), PAGE_SIZE);
        assert!(image.iter().all(|&b| b == 7));
        assert_eq!(owned, image, "same bytes, whatever backs them");
        assert_ne!(owned, FrameRef::zeroed());
        assert_eq!(format!("{owned:?} {image:?}"), "Frame(owned) Frame(image)");
    }

    #[test]
    fn cow_copy_is_independent() {
        let a = FrameRef::from_bytes(b"xyz");
        let mut b = a.cow_copy();
        b.write_in_place(0, b"Q");
        assert_eq!(a.bytes()[0], b'x');
        assert_eq!(b.bytes()[0], b'Q');
        assert!(!b.is_image_backed());
    }

    #[test]
    fn cow_copy_of_image_frame_is_writable() {
        let f = FrameRef::from_image_slice(SharedBytes::from(vec![7u8; PAGE_SIZE]));
        let mut c = f.cow_copy();
        c.write_in_place(10, &[9]);
        assert_eq!(c.bytes()[10], 9);
        assert_eq!(c.bytes()[0], 7);
        assert!(!c.is_image_backed());
    }

    #[test]
    #[should_panic(expected = "image-backed")]
    fn write_to_image_frame_panics() {
        let mut f = FrameRef::from_image_slice(SharedBytes::from(vec![0u8; PAGE_SIZE]));
        f.write_in_place(0, &[1]);
    }

    #[test]
    fn image_frames_and_shared_blocks_are_never_writable() {
        let mut image = FrameRef::from_image_slice(SharedBytes::from(vec![0u8; PAGE_SIZE]));
        assert!(image.get_mut().is_none());
        let mut owned = FrameRef::zeroed();
        let reader = owned.clone();
        assert!(owned.get_mut().is_none(), "a second handle holds it");
        drop(reader);
        assert!(owned.get_mut().is_some());
    }

    #[test]
    fn identity_distinguishes_frames() {
        let a = FrameRef::zeroed();
        let b = FrameRef::zeroed();
        let a2 = a.clone();
        assert_eq!(a.identity(), a2.identity());
        assert_ne!(a.identity(), b.identity());
        assert!(FrameRef::ptr_eq(&a, &a2) && !FrameRef::ptr_eq(&a, &b));

        // Two views of one image page are one frame; the next page is not.
        let image = SharedBytes::from(vec![0u8; 2 * PAGE_SIZE]);
        let (v1, v2) = (
            FrameRef::image_page(&image, 0),
            FrameRef::image_page(&image, 0),
        );
        let next = FrameRef::image_page(&image, PAGE_SIZE);
        assert_eq!(v1.identity(), v2.identity());
        assert!(FrameRef::ptr_eq(&v1, &v2));
        assert_ne!(v1.identity(), next.identity());
        assert!(!FrameRef::ptr_eq(&v1, &next) && !FrameRef::ptr_eq(&v1, &a));
    }

    #[test]
    fn a_released_block_is_overwritten_before_its_next_owner_reads_it() {
        clear_spares();
        // A page full of one owner's secret, released to this thread's spares.
        let secret = FrameRef::from_bytes(&[0x5E; PAGE_SIZE]);
        let id = secret.identity();
        secret.release();
        // The next fault on this thread gets the very block back, with no
        // byte of the old contents left in it.
        let zero = FrameRef::zeroed();
        assert_eq!(zero.identity(), id, "the spare block was reused");
        assert!(zero.bytes().iter().all(|&b| b == 0));
        zero.release();
        let short = FrameRef::from_bytes(b"new");
        assert_eq!(short.identity(), id);
        assert_eq!(&short[..3], b"new");
        assert!(short[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn only_the_last_handle_releases_and_spares_are_bounded() {
        let held = FrameRef::zeroed();
        let id = held.identity();
        held.clone().release(); // another handle still holds it
        assert_ne!(FrameRef::zeroed().identity(), id);

        let pages: Vec<FrameRef> = (0..SPARE_BLOCKS + 8).map(|_| FrameRef::zeroed()).collect();
        pages.into_iter().for_each(FrameRef::release);
        assert_eq!(SPARE.with_borrow(BinaryHeap::len), SPARE_BLOCKS);
        drop(held);
    }
}
