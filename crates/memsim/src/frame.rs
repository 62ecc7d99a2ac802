use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::{SharedBytes, PAGE_SIZE};

/// One 4 KiB guest-physical page frame.
///
/// A frame's contents come from one of two places:
///
/// - **Anonymous** memory, owned by the frame (heap, stack, CoW copies); or
/// - a zero-copy **image slice** of a mapped func-image ([`SharedBytes`]
///   views share the underlying buffer, exactly like `mmap`-ing a file
///   read-only).
///
/// Frames are shared between address spaces through [`FrameRef`]
/// (`Arc<Frame>`). The `Arc` strong count is *not* the sharing degree:
/// `sfork` shares whole leaf tables, so one reference held by one table can
/// stand for many spaces. [`crate::accounting`] counts sharers by frame
/// identity across the group instead, and the address space decides
/// writability from the table *and* the frame (see `AddressSpace::write`).
///
/// A frame dereferences to its page of bytes and compares by content, so a
/// [`FrameRef`] is also what a checkpoint carries for a page
/// ([`crate::AddressSpace::snapshot_private_pages`]): the frame itself,
/// shared, not a copy of it.
#[derive(Clone)]
pub struct Frame {
    data: FrameData,
}

/// Shared handle to a frame.
pub type FrameRef = Arc<Frame>;

#[derive(Clone)]
enum FrameData {
    /// Owned, writable-in-place storage.
    Owned(Box<[u8]>),
    /// Zero-copy slice of an image file; always read-only (writes CoW first).
    Image(SharedBytes),
}

impl Frame {
    /// A new zero-filled anonymous frame.
    pub fn zeroed() -> Frame {
        Frame {
            data: FrameData::Owned(vec![0u8; PAGE_SIZE].into_boxed_slice()),
        }
    }

    /// An anonymous frame holding a copy of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > PAGE_SIZE`.
    pub fn from_bytes(bytes: &[u8]) -> Frame {
        assert!(bytes.len() <= PAGE_SIZE, "frame contents exceed a page");
        // A full page (every CoW copy) is one allocation and one pass;
        // only a short one needs the zero padding underneath it.
        let data: Box<[u8]> = if bytes.len() == PAGE_SIZE {
            bytes.into()
        } else {
            let mut buf = vec![0u8; PAGE_SIZE];
            buf[..bytes.len()].copy_from_slice(bytes);
            buf.into_boxed_slice()
        };
        Frame {
            data: FrameData::Owned(data),
        }
    }

    /// A zero-copy frame over one page of an image buffer.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not exactly [`PAGE_SIZE`] long.
    pub fn from_image_slice(slice: SharedBytes) -> Frame {
        assert_eq!(slice.len(), PAGE_SIZE, "image frame must be page-sized");
        Frame {
            data: FrameData::Image(slice),
        }
    }

    /// The page contents.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            FrameData::Owned(b) => b,
            FrameData::Image(b) => b,
        }
    }

    /// True if the frame is an image-backed (inherently read-only) page.
    pub fn is_image_backed(&self) -> bool {
        matches!(self.data, FrameData::Image(_))
    }

    /// Writes `src` at `offset` in place.
    ///
    /// Callers must hold the only reference — `&mut Frame` out of an
    /// `Arc<Frame>` is `Arc::get_mut`, which the address space also requires
    /// of the leaf table holding it; image-backed frames must be CoW-copied
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if the frame is image-backed or the write crosses the page end.
    pub(crate) fn write_in_place(&mut self, offset: usize, src: &[u8]) {
        assert!(offset + src.len() <= PAGE_SIZE, "write crosses page end");
        match &mut self.data {
            FrameData::Owned(b) => b[offset..offset + src.len()].copy_from_slice(src),
            FrameData::Image(_) => panic!("write_in_place on an image-backed frame"),
        }
    }

    /// A writable deep copy of this frame (the CoW copy operation).
    pub fn cow_copy(&self) -> Frame {
        Frame::from_bytes(self.bytes())
    }
}

impl Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

/// By content: an image-backed page equals the anonymous page holding the
/// same bytes (a restored heap equals the checkpointed one).
impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Frame {}

/// The kind only: a derived `Debug` would print 4,096 bytes per page.
impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.data {
            FrameData::Owned(_) => "Frame(owned)",
            FrameData::Image(_) => "Frame(image)",
        })
    }
}

/// Hash-consable identity of a frame, for PSS accounting.
pub(crate) fn frame_identity(frame: &FrameRef) -> usize {
    Arc::as_ptr(frame) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_all_zero() {
        let f = Frame::zeroed();
        assert_eq!(f.bytes().len(), PAGE_SIZE);
        assert!(f.bytes().iter().all(|&b| b == 0));
        assert!(!f.is_image_backed());
    }

    #[test]
    fn from_bytes_pads_with_zero() {
        let f = Frame::from_bytes(b"abc");
        assert_eq!(&f.bytes()[..3], b"abc");
        assert_eq!(f.bytes()[3], 0);
        assert_eq!(f.bytes().len(), PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn from_bytes_rejects_oversize() {
        let _ = Frame::from_bytes(&vec![0u8; PAGE_SIZE + 1]);
    }

    #[test]
    fn image_slice_round_trip() {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        let f = Frame::from_image_slice(SharedBytes::from(buf));
        assert!(f.is_image_backed());
        assert_eq!(f.bytes()[0], 0xAB);
    }

    #[test]
    #[should_panic(expected = "page-sized")]
    fn image_slice_must_be_page_sized() {
        let _ = Frame::from_image_slice(SharedBytes::from(b"short".to_vec()));
    }

    #[test]
    fn derefs_to_its_bytes_and_compares_by_content() {
        let owned = Frame::from_bytes(&[7u8; PAGE_SIZE]);
        let image = Frame::from_image_slice(SharedBytes::from(vec![7u8; PAGE_SIZE]));
        assert_eq!(owned.len(), PAGE_SIZE);
        assert!(image.iter().all(|&b| b == 7));
        assert_eq!(owned, image, "same bytes, whatever backs them");
        assert_ne!(owned, Frame::zeroed());
        assert_eq!(format!("{owned:?} {image:?}"), "Frame(owned) Frame(image)");
    }

    #[test]
    fn cow_copy_is_independent() {
        let a = Frame::from_bytes(b"xyz");
        let mut b = a.cow_copy();
        b.write_in_place(0, b"Q");
        assert_eq!(a.bytes()[0], b'x');
        assert_eq!(b.bytes()[0], b'Q');
        assert!(!b.is_image_backed());
    }

    #[test]
    fn cow_copy_of_image_frame_is_writable() {
        let f = Frame::from_image_slice(SharedBytes::from(vec![7u8; PAGE_SIZE]));
        let mut c = f.cow_copy();
        c.write_in_place(10, &[9]);
        assert_eq!(c.bytes()[10], 9);
        assert_eq!(c.bytes()[0], 7);
        assert!(!c.is_image_backed());
    }

    #[test]
    #[should_panic(expected = "image-backed")]
    fn write_to_image_frame_panics() {
        let mut f = Frame::from_image_slice(SharedBytes::from(vec![0u8; PAGE_SIZE]));
        f.write_in_place(0, &[1]);
    }

    #[test]
    fn identity_distinguishes_frames() {
        let a: FrameRef = Arc::new(Frame::zeroed());
        let b: FrameRef = Arc::new(Frame::zeroed());
        let a2 = Arc::clone(&a);
        assert_eq!(frame_identity(&a), frame_identity(&a2));
        assert_ne!(frame_identity(&a), frame_identity(&b));
    }
}
