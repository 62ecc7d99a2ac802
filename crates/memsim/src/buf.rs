use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable view of a shared byte buffer; the bytes a view shows
/// never change under it.
///
/// This is the carrier of the overlay-memory premise (paper §3.1: a
/// func-image is *mapped, never copied*). `From<Vec<u8>>` takes the vector's
/// allocation over as it is, so the buffer `imagefmt::flat::write` assembles
/// is the buffer [`crate::MappedImage`] maps; clones and [`SharedBytes::slice`]
/// are views of that one allocation, so every image-backed [`crate::Frame`]
/// and metadata section of a restored sandbox points into it. A restored
/// guest kernel's tables go one step further: each holds a single handle on
/// the metadata arena and keeps plain ranges of it, not a view per object
/// ([`SharedBytes::same_view`] is how a table tells its own buffer).
///
/// There is deliberately no constructor that copies — no `From<&[u8]>`, no
/// `copy_from_slice`. The one copy the type makes is [`SharedBytes::append`]'s
/// copy-on-write: a view whose buffer another handle also holds is copied
/// into a buffer of its own before bytes are added to it, and only then. A
/// caller that wants a copy otherwise writes `SharedBytes::from(slice.to_vec())`;
/// on a boot path, that copy fails the allocation budgets in
/// `tests/alloc_budget.rs`, which count bytes per object and page.
#[derive(Clone, Default)]
pub struct SharedBytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl SharedBytes {
    /// A sub-view sharing this view's allocation; `range` is relative to
    /// this view. No byte is copied.
    ///
    /// # Panics
    ///
    /// Panics if the range is reversed or reaches past the end of the view.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> SharedBytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice range reversed: {begin}..{end}");
        assert!(end <= len, "slice out of bounds: {end} > {len}");
        SharedBytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// True when `other` is this very view — the same allocation and the
    /// same range — so an offset into one is an offset into the other.
    /// Compares three words; never reads a byte.
    pub fn same_view(&self, other: &SharedBytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data) && (self.start, self.end) == (other.start, other.end)
    }

    /// Adds `bytes` at the end of this view and returns the offset, within
    /// the view, they start at.
    ///
    /// Written in place when no other handle shares the buffer (which then
    /// grows the way a `Vec` does); otherwise the view is first copied into
    /// a buffer of its own — copy-on-write, so no other holder ever sees a
    /// byte change.
    pub fn append(&mut self, bytes: &[u8]) -> usize {
        // Both copies below are writes: a func-image restore keeps ranges of
        // the arena it maps and a fork shares whole tables, so neither path
        // appends (the guest kernel's `table::Table::place`).
        let at = self.len();
        if Arc::get_mut(&mut self.data).is_none() {
            let mut own = Vec::with_capacity(at + bytes.len());
            own.extend_from_slice(self);
            *self = SharedBytes::from(own);
        }
        if let Some(data) = Arc::get_mut(&mut self.data) {
            data.truncate(self.end);
            data.extend_from_slice(bytes);
            self.end = data.len();
        }
        at
    }
}

impl From<Vec<u8>> for SharedBytes {
    /// Shares `v`'s own allocation: no byte moves.
    fn from(v: Vec<u8>) -> SharedBytes {
        let end = v.len();
        SharedBytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // `start <= end <= data.len()` by construction (`from`, `slice`).
        self.data.get(self.start..self.end).unwrap_or_default()
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedBytes(len={})", self.len())
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &SharedBytes) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl Hash for SharedBytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl serde::Serialize for SharedBytes {
    fn to_value(&self) -> serde::Value {
        serde::Value::Arr(self.iter().map(serde::Serialize::to_value).collect())
    }
}

impl serde::Deserialize for SharedBytes {
    fn from_value(v: &serde::Value) -> Result<SharedBytes, serde::DeError> {
        Vec::<u8>::from_value(v).map(SharedBytes::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(b: &SharedBytes) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![7u8; 10_000];
        let ptr = v.as_ptr();
        let b = SharedBytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> must not copy");
        assert_eq!(b.clone().as_ptr(), ptr);
        assert_eq!(b.len(), 10_000);
    }

    #[test]
    fn slices_are_views_of_the_one_allocation() {
        let b = SharedBytes::from((0u8..100).collect::<Vec<u8>>());
        let base = b.as_ptr();
        let s = b.slice(10..60);
        assert_eq!(s.as_ptr(), base.wrapping_add(10));
        assert_eq!(&s[..3], &[10, 11, 12]);
        // Nested: ranges are relative to the view, not the allocation.
        let n = s.slice(5..=9);
        assert_eq!(n.as_ptr(), base.wrapping_add(15));
        assert_eq!(&n[..], &[15, 16, 17, 18, 19]);
        assert_eq!(s.slice(..).as_ptr(), s.as_ptr());
        assert_eq!(s.slice(45..).len(), 5);
        assert!(s.slice(50..).is_empty());
        // The view outlives the handle it was cut from.
        drop(b);
        drop(s);
        assert_eq!(&n[..], &[15, 16, 17, 18, 19]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_view_panics() {
        // In bounds of the allocation, out of bounds of the view.
        let _ = SharedBytes::from(vec![0u8; 16]).slice(0..8).slice(0..9);
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn reversed_slice_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = SharedBytes::from(vec![0u8; 16]).slice(9..3);
    }

    #[test]
    fn same_view_is_identity_not_content() {
        let b = SharedBytes::from(b"abcabc".to_vec());
        assert!(b.same_view(&b.clone()));
        assert!(b.slice(1..4).same_view(&b.slice(1..4)));
        assert!(
            !b.slice(0..3).same_view(&b.slice(3..6)),
            "equal bytes, other range"
        );
        assert!(!b.same_view(&SharedBytes::from(b"abcabc".to_vec())));
    }

    #[test]
    fn append_writes_in_place_only_behind_a_sole_handle() {
        // Sole handle on a view that does not reach the buffer's end: the
        // tail no one can see is overwritten in place.
        let mut own = SharedBytes::from(b"xxabcyy".to_vec()).slice(2..5);
        let base = own.as_ptr();
        assert_eq!(own.append(b"de"), 3);
        assert_eq!(&own[..], b"abcde");
        assert_eq!(own.as_ptr(), base, "written in place");

        // Shared: the other holder keeps its bytes, the writer gets a copy.
        let mut mine = SharedBytes::from(b"abc".to_vec());
        let theirs = mine.clone();
        assert_eq!(mine.append(b"d"), 3);
        assert_eq!((&mine[..], &theirs[..]), (&b"abcd"[..], &b"abc"[..]));
        assert_ne!(mine.as_ptr(), theirs.as_ptr());
    }

    #[test]
    fn equality_and_hash_are_by_content() {
        let a = SharedBytes::from(b"xxabcxx".to_vec()).slice(2..5);
        let b = SharedBytes::from(b"abc".to_vec());
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(&a[..], b"abc");
        assert_ne!(a, SharedBytes::from(b"abd".to_vec()));
        assert_eq!(format!("{a:?}"), "SharedBytes(len=3)");
        assert!(SharedBytes::default().is_empty());
    }

    #[test]
    fn serde_round_trips_the_view_only() {
        use serde::{Deserialize, Serialize};
        let view = SharedBytes::from(vec![9, 1, 2, 3, 9]).slice(1..4);
        let value = view.to_value();
        assert_eq!(value, vec![1u8, 2, 3].to_value());
        assert_eq!(SharedBytes::from_value(&value).unwrap(), view);
    }
}
