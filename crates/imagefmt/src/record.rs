// Untrusted bytes are parsed here. The crate denies every panicking
// macro and `unwrap`/`expect` (its Cargo.toml); this module also spells no
// `as` cast and no indexing, so a hostile length cannot truncate or panic.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing))]

use std::fmt;

use memsim::{FrameRef, SharedBytes};

use crate::flat::{KindRun, RecordRun, RestoredRecords, Views};
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
    #[inline]
    pub fn from_code(code: u16) -> Option<ObjKind> {
        ObjKind::ALL.get(usize::from(code)).copied()
    }

    /// True if this object represents I/O system state, whose recovery
    /// Catalyzer defers off the critical path (§3.3).
    #[inline]
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
/// [`ObjRecord`], or the arena and relation table a func-image restore mapped
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
    refs: RefSlots<'a>,
    /// `payload` is `buf[at..][..payload.len()]`.
    payload: &'a [u8],
    buf: &'a SharedBytes,
    at: usize,
}

/// Relation-table entry: record(4) slot(2) target(8).
pub(crate) const REL_ENTRY: usize = 14;

/// One relation-table entry: `(record, pointer slot, target object)`.
#[inline]
pub(crate) fn relation_entry(entry: &[u8; REL_ENTRY]) -> (u32, u16, ObjId) {
    let [r0, r1, r2, r3, s0, s1, target @ ..] = *entry;
    (
        u32::from_le_bytes([r0, r1, r2, r3]),
        u16::from_le_bytes([s0, s1]),
        ObjId::from_le_bytes(target),
    )
}

/// Where a view's pointers are read from.
#[derive(Debug, Clone, Copy)]
enum RefSlots<'a> {
    /// An owned record's own ids.
    Ids(&'a [ObjId]),
    /// The run of relation-table entries that covers a restored record's
    /// slots, in slot order, read in place.
    Relations(&'a [[u8; REL_ENTRY]]),
}

/// The pointer fields of one [`ObjView`] — ids of referenced objects, in
/// slot order. A restored func-image's views read them straight out of the
/// relation table, so no pointer is copied anywhere on the way.
#[derive(Clone)]
pub struct Refs<'a>(RefSlots<'a>);

impl fmt::Debug for Refs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl Iterator for Refs<'_> {
    type Item = ObjId;

    #[inline]
    fn next(&mut self) -> Option<ObjId> {
        match &mut self.0 {
            RefSlots::Ids(ids) => {
                let (first, rest) = ids.split_first()?;
                *ids = rest;
                Some(*first)
            }
            RefSlots::Relations(entries) => {
                let (first, rest) = entries.split_first()?;
                *entries = rest;
                Some(relation_entry(first).2)
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match self.0 {
            RefSlots::Ids(ids) => ids.len(),
            RefSlots::Relations(entries) => entries.len(),
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Refs<'_> {}

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

impl<'a> PayloadBuf<'a> {
    /// The buffer's bytes.
    #[inline]
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

// `#[inline]` throughout: the loop that reads views
// (`GuestKernel::restore_from_records`) is compiled in the guest kernel's
// crate, where these would otherwise be calls into this one — four an
// object, 1.6× the whole kernel build.
impl<'a> ObjView<'a> {
    /// A restored record's view: its pointers are `relations`, and its
    /// payload is `arena[start..end]`; `None` if that is not a range of
    /// `arena`.
    #[inline]
    pub(crate) fn restored(
        (id, kind, flags): (ObjId, ObjKind, u32),
        relations: &'a [[u8; REL_ENTRY]],
        arena: PayloadBuf<'a>,
        (start, end): (usize, usize),
    ) -> Option<ObjView<'a>> {
        Some(ObjView {
            id,
            kind,
            flags,
            refs: RefSlots::Relations(relations),
            payload: arena.bytes.get(start..end)?,
            buf: arena.buf,
            at: start,
        })
    }

    /// Pointer fields: ids of referenced objects, in slot order.
    #[inline]
    pub fn refs(&self) -> Refs<'a> {
        Refs(self.refs)
    }

    /// Opaque serialized field data, in place.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Where the payload lies: the buffer it is viewed out of and the offset
    /// it starts at there (`payload()` is `buf[at..][..payload().len()]`).
    /// Every view of a [`crate::flat::RestoredRecords`] names the one arena,
    /// so a restored kernel keeps one handle on it and plain ranges.
    #[inline]
    pub fn payload_source(&self) -> (&'a SharedBytes, usize) {
        (self.buf, self.at)
    }
}

impl<'a> From<&'a ObjRecord> for ObjView<'a> {
    #[inline]
    fn from(rec: &'a ObjRecord) -> ObjView<'a> {
        ObjView {
            id: rec.id,
            kind: rec.kind,
            flags: rec.flags,
            refs: RefSlots::Ids(&rec.refs),
            payload: &rec.payload,
            buf: &rec.payload,
            at: 0,
        }
    }
}

impl PartialEq<ObjRecord> for ObjView<'_> {
    fn eq(&self, rec: &ObjRecord) -> bool {
        (self.id, self.kind, self.flags) == (rec.id, rec.kind, rec.flags)
            && self.refs().eq(rec.refs.iter().copied())
            && *self.payload() == *rec.payload
    }
}

impl fmt::Debug for ObjView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjView")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("flags", &self.flags)
            .field("refs", &self.refs())
            .field("payload", &self.payload())
            .finish()
    }
}

/// Checkpoint records as a restore reads them: owned ones (what a classic
/// image decodes to) or a restored func-image's. Either way they come as
/// runs of one kind, in checkpoint order ([`Records::runs`]), and a run of a
/// func-image can be kept whole ([`Run::record_run`]).
#[derive(Debug, Clone, Copy)]
pub enum Records<'a> {
    /// Owned records.
    Owned(&'a [ObjRecord]),
    /// The records of a restored func-image.
    Restored(&'a RestoredRecords),
}

impl<'a> From<&'a Vec<ObjRecord>> for Records<'a> {
    fn from(records: &'a Vec<ObjRecord>) -> Records<'a> {
        Records::Owned(records)
    }
}

impl<'a> From<&'a RestoredRecords> for Records<'a> {
    fn from(records: &'a RestoredRecords) -> Records<'a> {
        Records::Restored(records)
    }
}

impl<'a> Records<'a> {
    /// The records as runs of one kind, in checkpoint order: a func-image's
    /// as [`crate::flat::FlatImage::restore_metadata`] found them while it
    /// checked them, owned ones by comparing neighbours' kinds.
    pub fn runs(self) -> impl Iterator<Item = Run<'a>> {
        let (owned, restored) = match self {
            Records::Owned(records) => (records, None),
            Records::Restored(image) => (&[][..], Some(image)),
        };
        let owned = owned.chunk_by(|a, b| a.kind == b.kind).map(|run| Run {
            kind: run.first().map_or(ObjKind::Misc, |rec| rec.kind),
            of: RunOf::Owned(run),
        });
        let restored = restored.into_iter().flat_map(|image| {
            image.runs().iter().map(move |run| Run {
                kind: run.kind,
                of: RunOf::Restored(image, *run),
            })
        });
        owned.chain(restored)
    }
}

/// Records of one kind that lie one after another in a checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    kind: ObjKind,
    of: RunOf<'a>,
}

#[derive(Debug, Clone, Copy)]
enum RunOf<'a> {
    Owned(&'a [ObjRecord]),
    Restored(&'a RestoredRecords, KindRun),
}

impl<'a> Run<'a> {
    /// The kind of every record of the run.
    pub fn kind(&self) -> ObjKind {
        self.kind
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match self.of {
            RunOf::Owned(records) => records.len(),
            RunOf::Restored(_, run) => run.len,
        }
    }

    /// True for a run without records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records, in checkpoint order.
    #[inline]
    pub fn views(&self) -> impl Iterator<Item = ObjView<'a>> {
        match self.of {
            RunOf::Owned(records) => RunViews::Owned(records.iter()),
            RunOf::Restored(image, run) => RunViews::Restored(image.run_views(&run)),
        }
    }

    /// The run held whole — one reference count on the image's arena,
    /// however long it is — for a func-image's records; `None` for owned
    /// ones, which lie in no image.
    pub fn record_run(&self) -> Option<RecordRun> {
        match self.of {
            RunOf::Owned(_) => None,
            RunOf::Restored(image, run) => Some(image.record_run(&run)),
        }
    }
}

/// The views of a [`Run`].
enum RunViews<'a> {
    Owned(std::slice::Iter<'a, ObjRecord>),
    Restored(Views<'a>),
}

impl<'a> Iterator for RunViews<'a> {
    type Item = ObjView<'a>;

    #[inline]
    fn next(&mut self) -> Option<ObjView<'a>> {
        match self {
            RunViews::Owned(records) => records.next().map(ObjView::from),
            RunViews::Restored(views) => views.next(),
        }
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
        IoConnView::from(self).wire_size()
    }
}

/// One I/O connection, borrowed from whoever holds it: an owned [`IoConn`],
/// or the manifest section a func-image restore mapped
/// ([`crate::flat::IoManifest`]), read in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConnView<'a> {
    /// File or socket.
    pub kind: IoConnKind,
    /// Path (files) or address (sockets).
    pub target: &'a str,
    /// Whether the function deterministically uses this connection right
    /// after boot.
    pub used_immediately: bool,
    /// Whether the connection needs write access.
    pub writable: bool,
}

impl IoConnView<'_> {
    /// Approximate serialized size (Table 3's "I/O Cache" column counts the
    /// cached subset of these).
    pub fn wire_size(&self) -> usize {
        1 + 1 + 1 + 2 + self.target.len()
    }
}

impl<'a> From<&'a IoConn> for IoConnView<'a> {
    fn from(conn: &'a IoConn) -> IoConnView<'a> {
        IoConnView {
            kind: conn.kind,
            target: &conn.target,
            used_immediately: conn.used_immediately,
            writable: conn.writable,
        }
    }
}

impl From<IoConnView<'_>> for IoConn {
    fn from(view: IoConnView<'_>) -> IoConn {
        IoConn {
            kind: view.kind,
            target: view.target.to_string(),
            used_immediately: view.used_immediately,
            writable: view.writable,
        }
    }
}

impl PartialEq<IoConn> for IoConnView<'_> {
    fn eq(&self, conn: &IoConn) -> bool {
        *self == IoConnView::from(conn)
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
