use std::fmt;

use crate::Vpn;

/// Memory-subsystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// Access to a page with no mapping (no VMA covers it).
    Unmapped {
        /// The faulting page.
        vpn: Vpn,
    },
    /// Write to a read-only mapping.
    Protection {
        /// The faulting page.
        vpn: Vpn,
    },
    /// A new mapping overlaps an existing VMA.
    Overlap {
        /// The requested start page.
        start: Vpn,
        /// The requested end page.
        end: Vpn,
    },
    /// An access crossed the end of its page.
    PageCross {
        /// The offending in-page offset.
        offset: usize,
        /// The access length.
        len: usize,
    },
    /// Image page index out of bounds.
    ImageBounds {
        /// Requested page index.
        page: u64,
        /// Image size in pages.
        pages: u64,
    },
    /// `sfork` attempted on a space holding a plain `MAP_SHARED` mapping;
    /// the paper's kernel CoW flag must be applied first (§4).
    SharedMappingRequiresCow {
        /// Name of the offending VMA.
        vma: String,
    },
    /// A page walk asked to step zero pages at a time: it would revisit its
    /// first page forever.
    ZeroStride,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { vpn } => write!(f, "page fault: vpn {vpn:#x} is not mapped"),
            MemError::Protection { vpn } => {
                write!(f, "protection fault: vpn {vpn:#x} is not writable")
            }
            MemError::Overlap { start, end } => {
                write!(f, "mapping [{start:#x},{end:#x}) overlaps an existing vma")
            }
            MemError::PageCross { offset, len } => {
                write!(
                    f,
                    "access of {len} bytes at offset {offset} crosses a page boundary"
                )
            }
            MemError::ImageBounds { page, pages } => {
                write!(f, "image page {page} out of bounds ({pages} pages)")
            }
            MemError::SharedMappingRequiresCow { vma } => {
                write!(f, "sfork: shared mapping '{vma}' lacks the CoW flag")
            }
            MemError::ZeroStride => write!(f, "page walk with a stride of zero pages"),
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        assert!(MemError::Unmapped { vpn: 0x10 }
            .to_string()
            .contains("0x10"));
        assert!(MemError::Protection { vpn: 1 }
            .to_string()
            .contains("writable"));
        assert!(MemError::Overlap { start: 0, end: 4 }
            .to_string()
            .contains("overlaps"));
        assert!(MemError::PageCross {
            offset: 4000,
            len: 200
        }
        .to_string()
        .contains("crosses"));
        assert!(MemError::ImageBounds { page: 9, pages: 4 }
            .to_string()
            .contains("bounds"));
        assert!(MemError::ZeroStride.to_string().contains("zero"));
    }
}
