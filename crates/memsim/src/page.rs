use std::fmt;

use serde::{Deserialize, Serialize};

/// Guest page size, in bytes (x86-64 base pages).
pub const PAGE_SIZE: usize = 4096;

/// [`PAGE_SIZE`] as a `u64`, for page-number arithmetic on wire offsets.
pub const PAGE_SIZE_U64: u64 = 4096;

/// A virtual page number in a sandbox's guest-physical address space.
pub type Vpn = u64;

/// Number of whole pages needed to hold `bytes` bytes.
///
/// ```
/// use memsim::{pages_for_bytes, PAGE_SIZE};
/// assert_eq!(pages_for_bytes(0), 0);
/// assert_eq!(pages_for_bytes(1), 1);
/// assert_eq!(pages_for_bytes(PAGE_SIZE as u64 + 1), 2);
/// ```
pub fn pages_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

/// Access permissions for a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Perms {
    /// Read-only.
    RO,
    /// Read-write.
    RW,
}

impl Perms {
    /// True if writes are permitted.
    pub fn writable(self) -> bool {
        matches!(self, Perms::RW)
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Perms::RO => write!(f, "r-"),
            Perms::RW => write!(f, "rw"),
        }
    }
}

/// A half-open range of virtual page numbers `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VpnRange {
    /// First page in the range.
    pub start: Vpn,
    /// One past the last page in the range.
    pub end: Vpn,
}

impl VpnRange {
    /// Creates a range; `start > end` is normalized to the empty range at
    /// `start`.
    pub fn new(start: Vpn, end: Vpn) -> Self {
        VpnRange {
            start,
            end: end.max(start),
        }
    }

    /// Range covering `count` pages from `start`, clipped at the top of the
    /// page-number space.
    pub fn with_len(start: Vpn, count: u64) -> Self {
        VpnRange {
            start,
            end: start.saturating_add(count),
        }
    }

    /// Number of pages in the range (0 for an inverted one, which the
    /// public fields or a deserialized value can still spell).
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True if the range holds no page.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True if `vpn` falls inside the range.
    pub fn contains(&self, vpn: Vpn) -> bool {
        (self.start..self.end).contains(&vpn)
    }

    /// True if the two ranges share any page. Empty ranges never overlap.
    pub fn overlaps(&self, other: &VpnRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// Iterates over the page numbers in the range.
    pub fn iter(&self) -> impl Iterator<Item = Vpn> {
        self.start..self.end
    }
}

impl fmt::Display for VpnRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x},{:#x})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = VpnRange::new(10, 14);
        assert_eq!(r.len(), 4);
        assert!(r.contains(10));
        assert!(r.contains(13));
        assert!(!r.contains(14));
        assert!(!r.is_empty());
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn inverted_range_normalizes_to_empty() {
        let r = VpnRange::new(9, 3);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(!r.contains(9));
        // Spelled through the public fields, it is empty all the same.
        let spelled = VpnRange { start: 9, end: 3 };
        assert!(spelled.is_empty());
        assert_eq!(spelled.len(), 0);
        assert_eq!(spelled.iter().count(), 0);
        assert!(!spelled.overlaps(&VpnRange::new(0, 10)));
    }

    #[test]
    fn with_len_constructs() {
        let r = VpnRange::with_len(100, 5);
        assert_eq!(r.start, 100);
        assert_eq!(r.end, 105);
    }

    #[test]
    fn with_len_saturates_at_the_top_of_the_space() {
        let r = VpnRange::with_len(u64::MAX - 1, 5);
        assert_eq!((r.start, r.end), (u64::MAX - 1, u64::MAX));
        assert_eq!(r.len(), 1);
        assert!(r.contains(u64::MAX - 1));
        assert_eq!(VpnRange::with_len(u64::MAX, u64::MAX).len(), 0);
    }

    #[test]
    fn overlap_detection() {
        let a = VpnRange::new(0, 10);
        assert!(a.overlaps(&VpnRange::new(9, 12)));
        assert!(a.overlaps(&VpnRange::new(0, 1)));
        assert!(!a.overlaps(&VpnRange::new(10, 20)));
        assert!(!a.overlaps(&VpnRange::new(20, 30)));
        assert!(!a.overlaps(&VpnRange::new(5, 5))); // empty never overlaps
    }

    #[test]
    fn perms_writable() {
        assert!(Perms::RW.writable());
        assert!(!Perms::RO.writable());
        assert_eq!(Perms::RW.to_string(), "rw");
        assert_eq!(Perms::RO.to_string(), "r-");
    }
}
