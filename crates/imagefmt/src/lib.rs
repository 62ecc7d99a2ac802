//! Checkpoint image formats for the Catalyzer reproduction.
//!
//! The paper contrasts two ways of persisting a checkpointed sandbox:
//!
//! - **Classic** (gVisor's C/R, §2.2): guest-kernel metadata objects are
//!   serialized one-by-one and the whole stream is compressed. Restoring must
//!   read + decompress the stream and deserialize every object on the
//!   critical path (37 838 objects for SPECjbb ⇒ >50 ms).
//! - **Flat** (Catalyzer's *func-image*, §3.1–3.2): a *well-formed*,
//!   page-aligned, uncompressed layout that can be `mmap`-ed directly.
//!   Metadata objects are stored **partially deserialized** — in their
//!   in-memory shape with pointer fields zeroed to placeholders — together
//!   with a **relation table** mapping pointer slots to target objects.
//!   Restore is: map the arena (stage 1: no object of its own on the heap),
//!   then re-establish pointers from the relation table — each patch
//!   independent, charged as parallel workers (stage 2) — in one checking
//!   pass that keeps nothing but the two sections; objects are then read
//!   through borrowed [`ObjView`]s, and application memory pages are
//!   referenced lazily through the overlay Base-EPT.
//!
//! Both formats really serialize and really restore: the round-trip identity
//! `restore(checkpoint(state)) == state` is enforced by unit and property
//! tests, and a corrupted image fails its CRC instead of "restoring".
//!
//! # Example
//!
//! ```
//! use imagefmt::{classic, flat, CheckpointSource, IoConn, ObjKind, ObjRecord};
//! use simtime::{CostModel, SimClock};
//!
//! let src = CheckpointSource {
//!     objects: vec![ObjRecord::new(1, ObjKind::Task, 0, vec![2], b"init".to_vec()),
//!                   ObjRecord::new(2, ObjKind::Timer, 0, vec![], vec![])],
//!     app_pages: vec![],
//!     io_conns: vec![IoConn::file("/etc/hosts", true)],
//! };
//! let model = CostModel::experimental_machine();
//! let clock = SimClock::new();
//!
//! let image = flat::write(&src, &clock, &model);
//! let parsed = flat::FlatImage::parse(&memsim::MappedImage::new("f", image), &clock, &model)?;
//! let objects = parsed.restore_metadata(&clock, &model)?;
//! assert_eq!(objects, src.objects);
//! // What came back owns no object: each is read in place, through a view.
//! let init = objects.iter().next().expect("the task");
//! assert_eq!((init.kind, init.payload()), (ObjKind::Task, &b"init"[..]));
//! assert!(init.refs().eq([2]));
//! # Ok::<(), imagefmt::ImageError>(())
//! ```

// Tests may narrow freely (they unwrap under `crates/clippy.toml`'s
// `allow-*-in-tests`); the lint ban is about library code that handles
// untrusted images.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod classic;
mod crc;
mod error;
pub mod flat;
pub mod lz;
mod record;
pub mod varint;

pub use crc::crc32;
pub use error::ImageError;
pub use memsim::SharedBytes;
pub use record::{
    CheckpointSource, IoConn, IoConnKind, IoConnView, ObjId, ObjKind, ObjRecord, ObjView,
    PagePayload, Records, Refs, Run,
};
