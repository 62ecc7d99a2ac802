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

use memsim::{FrameRef, SharedBytes};
use serde::{Deserialize, Serialize};

/// Identifier of a checkpointed guest-kernel object.
pub type ObjId = u64;

/// The placeholder written into zeroed pointer slots in a flat image.
pub(crate) const REF_PLACEHOLDER: ObjId = u64::MAX;

/// Kind of a checkpointed guest-kernel object.
///
/// These mirror the categories the paper counts when restoring SPECjbb
/// ("threads/tasks, mounts, sessionLists, timers, and etc." — §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u16)]
pub enum ObjKind {
    /// A task (process) control block.
    Task = 0,
    /// A thread context.
    Thread = 1,
    /// A mount-table entry.
    Mount = 2,
    /// A directory-cache entry.
    Dentry = 3,
    /// An open file description (I/O state).
    File = 4,
    /// A file-descriptor table slot (I/O state).
    FdSlot = 5,
    /// A socket endpoint (I/O state).
    Socket = 6,
    /// A kernel timer.
    Timer = 7,
    /// A session/process-group record.
    Session = 8,
    /// A virtual memory area descriptor.
    MemRegion = 9,
    /// A futex/wait-queue record.
    WaitQueue = 10,
    /// An epoll instance (I/O state).
    Epoll = 11,
    /// A namespace record.
    Namespace = 12,
    /// Anything else (opaque runtime state).
    Misc = 13,
}

impl ObjKind {
    /// All kinds, for iteration in generators and tests.
    pub const ALL: [ObjKind; 14] = [
        ObjKind::Task,
        ObjKind::Thread,
        ObjKind::Mount,
        ObjKind::Dentry,
        ObjKind::File,
        ObjKind::FdSlot,
        ObjKind::Socket,
        ObjKind::Timer,
        ObjKind::Session,
        ObjKind::MemRegion,
        ObjKind::WaitQueue,
        ObjKind::Epoll,
        ObjKind::Namespace,
        ObjKind::Misc,
    ];

    /// Wire code (the `#[repr(u16)]` discriminant, spelled out so the
    /// mapping stays cast-free in this parse module).
    pub fn code(self) -> u16 {
        match self {
            ObjKind::Task => 0,
            ObjKind::Thread => 1,
            ObjKind::Mount => 2,
            ObjKind::Dentry => 3,
            ObjKind::File => 4,
            ObjKind::FdSlot => 5,
            ObjKind::Socket => 6,
            ObjKind::Timer => 7,
            ObjKind::Session => 8,
            ObjKind::MemRegion => 9,
            ObjKind::WaitQueue => 10,
            ObjKind::Epoll => 11,
            ObjKind::Namespace => 12,
            ObjKind::Misc => 13,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u16) -> Option<ObjKind> {
        ObjKind::ALL.get(usize::from(code)).copied()
    }

    /// True if this object represents I/O system state, whose recovery
    /// Catalyzer defers off the critical path (§3.3).
    pub fn is_io_state(self) -> bool {
        matches!(
            self,
            ObjKind::File | ObjKind::FdSlot | ObjKind::Socket | ObjKind::Epoll
        )
    }
}

/// One checkpointed guest-kernel object: an id, a kind, flags, its pointer
/// fields (`refs`, as object ids), and an opaque serialized payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjRecord {
    /// Unique object id within the checkpoint.
    pub id: ObjId,
    /// Object kind.
    pub kind: ObjKind,
    /// Kind-specific flags.
    pub flags: u32,
    /// Pointer fields: ids of referenced objects.
    pub refs: Vec<ObjId>,
    /// Opaque serialized field data. Held as [`SharedBytes`] so a record
    /// parsed out of a mapped func-image arena is a zero-copy view of the
    /// image — the restore path never duplicates payload bytes (§3.2).
    pub payload: SharedBytes,
}

impl ObjRecord {
    /// Convenience constructor. The payload is anything that becomes a
    /// [`SharedBytes`] without a copy: a `Vec<u8>` (its allocation is taken
    /// over) or an existing view.
    pub fn new(
        id: ObjId,
        kind: ObjKind,
        flags: u32,
        refs: Vec<ObjId>,
        payload: impl Into<SharedBytes>,
    ) -> Self {
        ObjRecord {
            id,
            kind,
            flags,
            refs,
            payload: payload.into(),
        }
    }

    /// Approximate serialized size in bytes (used for Table 3 accounting).
    pub fn wire_size(&self) -> usize {
        8 + 2 + 4 + 2 + 4 + self.refs.len() * 8 + self.payload.len()
    }
}

/// One checkpointed object, borrowed from whoever holds it: an owned
/// [`ObjRecord`], or the arena and pointer table a func-image restore mapped
/// ([`crate::flat::RestoredRecords`]). This is what a restore *reads*; it
/// owns nothing, so handing one out allocates nothing.
#[derive(Clone, Copy)]
pub struct ObjView<'a> {
    /// Unique object id within the checkpoint.
    pub id: ObjId,
    /// Object kind.
    pub kind: ObjKind,
    /// Kind-specific flags.
    pub flags: u32,
    /// Pointer fields: ids of referenced objects.
    pub refs: &'a [ObjId],
    /// `payload` is `buf[at..][..payload.len()]`.
    payload: &'a [u8],
    buf: &'a SharedBytes,
    at: usize,
}

/// A buffer payloads are viewed out of, dereferenced once for all of them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PayloadBuf<'a> {
    buf: &'a SharedBytes,
    bytes: &'a [u8],
}

impl<'a> From<&'a SharedBytes> for PayloadBuf<'a> {
    fn from(buf: &'a SharedBytes) -> PayloadBuf<'a> {
        PayloadBuf { buf, bytes: buf }
    }
}

// `#[inline]` throughout: the loop that reads views
// (`GuestKernel::restore_from_records`) is generic over where they come
// from, so it is compiled in its caller's crate, where these would otherwise
// be calls into this one — four an object, 1.6× the whole kernel build.
impl<'a> ObjView<'a> {
    /// A view whose payload is `arena[start..end]`; `None` if that is not a
    /// range of `arena`.
    #[inline]
    pub(crate) fn new(
        id: ObjId,
        kind: ObjKind,
        flags: u32,
        refs: &'a [ObjId],
        arena: PayloadBuf<'a>,
        (start, end): (usize, usize),
    ) -> Option<ObjView<'a>> {
        Some(ObjView {
            id,
            kind,
            flags,
            refs,
            payload: arena.bytes.get(start..end)?,
            buf: arena.buf,
            at: start,
        })
    }

    /// Opaque serialized field data, in place.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// The payload as a view a restored kernel can keep: it shares the
    /// buffer (one reference count), it does not copy out of it.
    #[inline]
    pub fn payload_shared(&self) -> SharedBytes {
        self.buf.slice(self.at..self.at + self.payload.len())
    }
}

impl<'a> From<&'a ObjRecord> for ObjView<'a> {
    #[inline]
    fn from(rec: &'a ObjRecord) -> ObjView<'a> {
        ObjView {
            id: rec.id,
            kind: rec.kind,
            flags: rec.flags,
            refs: &rec.refs,
            payload: &rec.payload,
            buf: &rec.payload,
            at: 0,
        }
    }
}

impl PartialEq<ObjRecord> for ObjView<'_> {
    fn eq(&self, rec: &ObjRecord) -> bool {
        (self.id, self.kind, self.flags) == (rec.id, rec.kind, rec.flags)
            && self.refs == rec.refs.as_slice()
            && *self.payload() == *rec.payload
    }
}

impl fmt::Debug for ObjView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjView")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("flags", &self.flags)
            .field("refs", &self.refs)
            .field("payload", &self.payload())
            .finish()
    }
}

/// Kind of a checkpointed I/O connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoConnKind {
    /// An opened file.
    File,
    /// A network connection / listener.
    Socket,
}

/// One I/O connection recorded at checkpoint time, to be re-established at
/// restore (eagerly in gVisor's C/R; lazily or via the I/O cache in
/// Catalyzer, §3.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoConn {
    /// File or socket.
    pub kind: IoConnKind,
    /// Path (files) or address (sockets).
    pub target: String,
    /// Whether the function deterministically uses this connection right
    /// after boot (learned by profiling a cold boot; drives the I/O cache).
    pub used_immediately: bool,
    /// Whether the connection needs write access (e.g. log files).
    pub writable: bool,
}

impl IoConn {
    /// A file connection.
    pub fn file(path: impl Into<String>, used_immediately: bool) -> IoConn {
        IoConn {
            kind: IoConnKind::File,
            target: path.into(),
            used_immediately,
            writable: false,
        }
    }

    /// A socket connection.
    pub fn socket(addr: impl Into<String>, used_immediately: bool) -> IoConn {
        IoConn {
            kind: IoConnKind::Socket,
            target: addr.into(),
            used_immediately,
            writable: true,
        }
    }

    /// Approximate serialized size (Table 3's "I/O Cache" column counts the
    /// cached subset of these).
    pub fn wire_size(&self) -> usize {
        1 + 1 + 1 + 2 + self.target.len()
    }
}

/// A page of application memory captured at checkpoint time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagePayload {
    /// Guest virtual page number.
    pub vpn: memsim::Vpn,
    /// Page contents: the frame itself, shared with whoever else holds it —
    /// the checkpointed sandbox's page table, or the image a classic restore
    /// decoded it from — never a copy. Dereferences to the page's
    /// [`memsim::PAGE_SIZE`] bytes and compares by content.
    pub data: FrameRef,
}

/// Everything a checkpoint captures: the guest-kernel object graph, the
/// application memory pages, and the I/O connection manifest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointSource {
    /// Guest-kernel metadata objects.
    pub objects: Vec<ObjRecord>,
    /// Application memory pages.
    pub app_pages: Vec<PagePayload>,
    /// I/O connections to re-establish at restore.
    pub io_conns: Vec<IoConn>,
}

impl Default for ObjRecord {
    fn default() -> Self {
        ObjRecord::new(0, ObjKind::Misc, 0, Vec::new(), Vec::new())
    }
}

/// Widens a `usize` count to `u64`; the saturating fallback is unreachable
/// in practice; `try_from` keeps this parse module free of lossy `as` casts
/// without panicking (the module denies both).
fn w64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

impl CheckpointSource {
    /// Total application-memory bytes.
    pub fn app_bytes(&self) -> u64 {
        w64(self.app_pages.len() * memsim::PAGE_SIZE)
    }

    /// Total metadata wire size (Table 3's "Metadata Objects" column).
    pub fn metadata_bytes(&self) -> u64 {
        self.objects.iter().map(|o| w64(o.wire_size())).sum()
    }

    /// Number of pointer fields across all objects.
    pub fn pointer_count(&self) -> u64 {
        self.objects.iter().map(|o| w64(o.refs.len())).sum()
    }
}

impl fmt::Display for CheckpointSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint: {} objects ({} ptrs), {} app pages, {} io conns",
            self.objects.len(),
            self.pointer_count(),
            self.app_pages.len(),
            self.io_conns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for kind in ObjKind::ALL {
            assert_eq!(ObjKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ObjKind::from_code(999), None);
    }

    #[test]
    fn io_state_classification() {
        assert!(ObjKind::File.is_io_state());
        assert!(ObjKind::Socket.is_io_state());
        assert!(ObjKind::Epoll.is_io_state());
        assert!(!ObjKind::Task.is_io_state());
        assert!(!ObjKind::Timer.is_io_state());
    }

    #[test]
    fn wire_size_counts_refs_and_payload() {
        let r = ObjRecord::new(1, ObjKind::Task, 0, vec![2, 3], vec![0; 10]);
        assert_eq!(r.wire_size(), 8 + 2 + 4 + 2 + 4 + 16 + 10);
    }

    #[test]
    fn source_aggregates() {
        let src = CheckpointSource {
            objects: vec![
                ObjRecord::new(1, ObjKind::Task, 0, vec![2], vec![]),
                ObjRecord::new(2, ObjKind::Timer, 0, vec![1, 1], vec![1, 2, 3]),
            ],
            app_pages: vec![],
            io_conns: vec![
                IoConn::file("/a", true),
                IoConn::socket("1.2.3.4:80", false),
            ],
        };
        assert_eq!(src.pointer_count(), 3);
        assert_eq!(src.app_bytes(), 0);
        assert!(src.metadata_bytes() > 0);
        let text = src.to_string();
        assert!(text.contains("2 objects"));
        assert!(text.contains("2 io conns"));
    }

    #[test]
    fn ioconn_constructors() {
        let f = IoConn::file("/var/log/app.log", true);
        assert_eq!(f.kind, IoConnKind::File);
        assert!(!f.writable);
        let s = IoConn::socket("10.0.0.1:6379", false);
        assert_eq!(s.kind, IoConnKind::Socket);
        assert!(s.writable);
        assert!(f.wire_size() > "/var/log/app.log".len());
    }
}
