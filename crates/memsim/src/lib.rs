//! Guest-physical memory simulation for the Catalyzer reproduction.
//!
//! Catalyzer's *overlay memory* (paper §3.1) layers a private, writable EPT
//! over a shared, read-only **Base-EPT** built by directly `mmap`-ing a
//! well-formed func-image. This crate reproduces that machinery on real data
//! structures:
//!
//! - [`SharedBytes`]: the sliceable shared buffer an image is assembled in,
//!   mapped from and served out of — one allocation, views all the way down.
//! - [`Frame`]: one 4 KiB guest-physical page, either anonymous (owned bytes)
//!   or a zero-copy slice of an image file.
//! - [`MappedImage`]: a file-backed region with a shared page cache — the
//!   first touch of a page anywhere charges a disk read; later touches are
//!   free, exactly like the host page cache under `mmap`.
//! - [`EptLayer`] / [`AddressSpace`]: the Private-over-Base overlay with
//!   hardware-style merge-on-access, copy-on-write faults, demand zero-fill,
//!   and `sfork`-style CoW duplication (including the paper's new CoW flag
//!   for `MAP_SHARED` mappings). A layer is a two-level table whose
//!   512-page leaf tables are themselves shared copy-on-write, so a fork
//!   costs page *tables*, not pages — what the paper's sfork does and what
//!   the cost model charges.
//! - [`accounting`]: RSS/PSS computation across a set of sandboxes (paper
//!   Fig. 14).
//!
//! All hardware/host costs (EPT violations, page faults, disk reads, page
//! copies) are charged to a [`simtime::SimClock`] through the calibrated
//! [`simtime::CostModel`]; the data movement itself really happens, so a
//! broken CoW path corrupts data and fails tests rather than silently
//! reporting good numbers.
//!
//! # Example
//!
//! ```
//! use memsim::{AddressSpace, Perms, ShareMode, VpnRange, PAGE_SIZE};
//! use simtime::{CostModel, SimClock};
//!
//! let model = CostModel::experimental_machine();
//! let clock = SimClock::new();
//! let mut space = AddressSpace::new("demo");
//! space.map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "heap")?;
//! space.write(0, 0, b"hello", &clock, &model)?;
//! let mut buf = [0u8; 5];
//! space.read(0, 0, &mut buf, &clock, &model)?;
//! assert_eq!(&buf, b"hello");
//! # Ok::<(), memsim::MemError>(())
//! ```

// Tests may unwrap freely; the lint ban is about library code that
// handles untrusted images.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod accounting;
mod buf;
mod error;
mod frame;
mod image;
mod layer;
mod page;
mod space;

pub use buf::SharedBytes;
pub use error::MemError;
pub use frame::{Frame, FrameRef};
pub use image::MappedImage;
pub use layer::{EptEntry, EptLayer};
pub use page::{pages_for_bytes, Perms, Vpn, VpnRange, PAGE_SIZE, PAGE_SIZE_U64};
pub use space::{AddressSpace, ShareMode, SpaceStats, Vma};
