//! Guest-physical memory simulation for the Catalyzer reproduction.
//!
//! Catalyzer's *overlay memory* (paper §3.1) layers a private, writable EPT
//! over a shared, read-only **Base-EPT** built by directly `mmap`-ing a
//! well-formed func-image. This crate reproduces that machinery on real data
//! structures:
//!
//! - [`SharedBytes`]: the sliceable shared buffer an image is assembled in,
//!   mapped from and served out of — one allocation, views all the way down.
//! - [`FrameRef`]: a shared handle to one 4 KiB guest-physical page. An
//!   anonymous page (heap, stack, CoW copy) is one reference-counted block
//!   holding its counts and its bytes together, so a read follows one pointer
//!   and a fault makes one allocation; an image page is a zero-copy view of
//!   the mapped func-image, never a page of its own.
//! - [`MappedImage`]: a file-backed region with a shared page cache — the
//!   first touch of a page anywhere charges a disk read; later touches are
//!   free, exactly like the host page cache under `mmap`. The cache is the
//!   one record of first touch: a monotone atomic flag per page.
//! - [`EptLayer`] / [`AddressSpace`]: the Private-over-Base overlay with
//!   hardware-style merge-on-access, copy-on-write faults, demand zero-fill,
//!   and `sfork`-style CoW duplication (including the paper's new CoW flag
//!   for `MAP_SHARED` mappings). A layer is a two-level table whose
//!   512-page leaf tables are themselves shared, so a fork costs page
//!   *tables*, not pages — what the paper's sfork does and what the cost
//!   model charges — and a write through a shared leaf puts a one-deep
//!   overlay over it that holds only what was written. The Base-EPT is
//!   such a table built once ([`EptLayer::map_image`]) and never written
//!   again.
//!
//! Shared state here is immutable once built, or a monotone atomic record;
//! no type in this crate takes a lock.
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

// Tests may narrow freely (they unwrap under `crates/clippy.toml`'s
// `allow-*-in-tests`); the lint ban is about library code that handles
// untrusted images.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
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
pub use frame::FrameRef;
pub use image::MappedImage;
pub use layer::EptLayer;
pub use page::{pages_for_bytes, Perms, Vpn, VpnRange, PAGE_SIZE, PAGE_SIZE_U64};
pub use space::{AddressSpace, ShareMode, SpaceStats, Swept, Touch, Vma, Walk};
