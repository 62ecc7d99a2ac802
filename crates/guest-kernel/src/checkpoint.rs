//! Checkpointing the guest-kernel object graph to [`imagefmt`] records, and
//! restoring it back.
//!
//! The checkpoint walks every subsystem and emits one [`ObjRecord`] per
//! kernel object, with real inter-object references (threads → task,
//! sessions → leader, fd slots → file descriptions, epolls → fd slots,
//! dentries → parent). For SPECjbb-class workloads this graph reaches tens
//! of thousands of objects — the restore cost the paper measures (§2.2).
//!
//! Restore supports both policies:
//!
//! - **eager I/O** (gVisor-restore): every file is re-opened and every
//!   socket reconnected on the critical path;
//! - **deferred I/O** (Catalyzer): descriptors and sockets are installed
//!   disconnected; reconnection happens on demand or from the I/O cache.

// Untrusted bytes are parsed here. The crate denies every panicking
// macro and `unwrap`/`expect` (its Cargo.toml); this module also spells no
// `as` cast and no indexing, so a hostile length cannot truncate or panic.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing))]

use std::collections::BTreeMap;
use std::sync::Arc;

use imagefmt::flat::RecordRun;
use imagefmt::varint;
use imagefmt::{ImageError, ObjKind, ObjRecord, ObjView, Records};
use memsim::SharedBytes;
use simtime::{CostModel, SimClock};

use crate::gofer::FsServer;
use crate::kernel::{DentryRow, GuestKernel};
use crate::net::SockState;
use crate::table::{Lists, RunRow, RunTable, Span, Text};
use crate::tasks::{GuestThread, NamespaceInfo, Session, Task};
use crate::vfs::RestoredFds;
use crate::KernelError;

/// Length prefix for a collection. `usize` → `u64` cannot truncate on any
/// supported target; saturate rather than panic if it ever could.
fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Encodes a guest fd for a checkpoint payload. Guest fds are never
/// negative; a hypothetical negative one encodes as 0 rather than
/// sign-extending into a huge u64.
fn fd_u64(fd: i32) -> u64 {
    u64::try_from(fd).unwrap_or(0)
}

/// A malformed field of an untrusted payload.
fn payload_err(e: ImageError) -> KernelError {
    KernelError::CorruptGraph {
        detail: format!("payload: {e}"),
    }
}

/// A string field of an untrusted payload, checked in place — ASCII, which
/// every path and label a runtime leaves is, a word at a time. This is the
/// one check: what a restore keeps is the field's range. `#[inline]`, like
/// everything the restore loop calls per object.
#[inline]
fn check_utf8(bytes: &[u8], what: &str) -> Result<(), KernelError> {
    if bytes.is_ascii() || std::str::from_utf8(bytes).is_ok() {
        return Ok(());
    }
    Err(not_utf8(what))
}

#[cold]
fn not_utf8(what: &str) -> KernelError {
    KernelError::CorruptGraph {
        detail: format!("{what} not utf-8"),
    }
}

/// The length-prefixed string field at `*pos` of `rec`'s payload, checked:
/// where it lies, as the buffer the record is viewed out of (for a
/// func-image, the mapped arena), the offset there and the length.
#[inline]
fn field_range<'a>(
    rec: &ObjView<'a>,
    pos: &mut usize,
    what: &str,
) -> Result<(&'a SharedBytes, usize, usize), KernelError> {
    let field = varint::get_bytes(rec.payload(), pos).map_err(payload_err)?;
    check_utf8(field, what)?;
    let (buf, at) = rec.payload_source();
    Ok((buf, at.saturating_add(*pos - field.len()), field.len()))
}

/// The length-prefixed string field at `*pos` of `rec`'s payload, checked
/// and kept where it lies: a span of the buffer the record is viewed out of
/// (for a func-image, the mapped arena), not a copy.
fn text_field(rec: &ObjView<'_>, pos: &mut usize, what: &str) -> Result<Text, KernelError> {
    let (buf, at, len) = field_range(rec, pos, what)?;
    Ok(Text::span(buf, at, len))
}

/// A dentry record's payload: the path — checked to be UTF-8, kept as its
/// range of the payload — then the inode and the parent's index plus one (0
/// for none). A restore reads a func-image's dentries through this once, as
/// one tight pass, and the table reads each again when it is read.
impl RunRow for DentryRow {
    #[inline]
    fn read(p: &[u8]) -> Result<DentryRow, KernelError> {
        let mut pos = 0usize;
        let path = varint::get_bytes(p, &mut pos).map_err(payload_err)?;
        check_utf8(path, "dentry path")?;
        let path = Span::at(pos - path.len(), path.len());
        let inode = varint::get_u64(p, &mut pos).map_err(payload_err)?;
        let parent = match varint::get_u64(p, &mut pos).map_err(payload_err)? {
            0 => None,
            plus_one => {
                Some(
                    u32::try_from(plus_one - 1).map_err(|_| KernelError::CorruptGraph {
                        detail: format!("dentry parent {} out of u32 range", plus_one - 1),
                    })?,
                )
            }
        };
        Ok(DentryRow {
            path,
            inode,
            parent,
        })
    }

    fn placed(self, place: impl FnOnce(Span) -> Span) -> DentryRow {
        DentryRow {
            path: place(self.path),
            ..self
        }
    }
}

/// Every check a dentry row is read with, record by record, in record order:
/// the one pass a restore makes over the dentries it keeps whole. A
/// payload of the shape [`plain_dentry`] recognises passes them all; any
/// other is read the long way, which says what is wrong with it, if
/// anything.
fn check_dentries(run: &RecordRun) -> Result<(), KernelError> {
    let arena = run.arena();
    for (start, end) in run.payloads() {
        let p = arena.get(start..end).unwrap_or_default();
        if plain_dentry(p).is_none() {
            DentryRow::read(p)?;
        }
    }
    Ok(())
}

/// `Some` for a dentry payload that [`DentryRow::read`] accepts, found in a
/// few compares: a one-byte path length, an ASCII path, then an inode varint
/// of at most nine bytes (no `u64` overflow) and a parent varint of at most
/// four (below 2²⁸, so in `u32` range). Every dentry a checkpoint writes for
/// a path under 128 bytes and a table under 2²⁸ rows has this shape; the
/// general reader's three varint loops and `Result`s cost nearly twice as
/// much. A payload of 16 to 45 bytes — every path of 15 to 31 bytes — is
/// judged on its first and last 16 bytes as words ([`plain_dentry_words`]),
/// any other byte by byte.
#[inline]
fn plain_dentry(p: &[u8]) -> Option<()> {
    match plain_dentry_words(p) {
        Some(plain) => plain.then_some(()),
        None => plain_dentry_bytes(p),
    }
}

/// Bit 7 of each byte of a 16-byte word: the bit a byte under 0x80 has
/// clear — an ASCII byte, or the last byte of a varint.
const HIGH_BITS: u128 = u128::from_le_bytes([0x80; 16]);

/// [`plain_dentry_bytes`]'s verdict on a payload of at least 16 bytes whose
/// path length byte and path lie in its first 32 and whose varints lie in
/// its last 13, read out of two or three 16-byte words without a loop: the
/// varints end at the first two bytes of the tail under 0x80, and the
/// path is ASCII when no byte before the varints has bit 7 set. `None` for
/// any other payload.
#[inline]
fn plain_dentry_words(p: &[u8]) -> Option<bool> {
    let first = u128::from_le_bytes(*p.first_chunk::<16>()?);
    let last = u128::from_le_bytes(*p.last_chunk::<16>()?);
    let (&len, _) = p.split_first()?;
    let head = 1 + usize::from(len);
    let Some(rest) = p.len().checked_sub(head) else {
        return Some(false);
    };
    if rest < 2 {
        return Some(false);
    }
    if rest > 13 || head > 32 {
        return None;
    }
    // The tail's bytes under 0x80, the first byte of the varints at bit 7.
    let ends = (!last & HIGH_BITS) >> (8 * (16 - u32::try_from(rest).ok()?));
    let inode = ends.trailing_zeros() / 8;
    let parent = (ends & ends.wrapping_sub(1)).trailing_zeros() / 8;
    let head_bits = match head.checked_sub(16) {
        // The head is the first word's low `head` bytes.
        None => first & (u128::MAX >> (8 * (16 - u32::try_from(head).ok()?))),
        // The head is the first word and the 16 bytes that end it.
        Some(from) => first | u128::from_le_bytes(*p.get(from..)?.first_chunk::<16>()?),
    };
    Some(inode < 9 && parent < inode + 5 && head_bits & HIGH_BITS == 0)
}

/// [`plain_dentry`], byte by byte.
#[inline]
fn plain_dentry_bytes(p: &[u8]) -> Option<()> {
    let (&len, rest) = p.split_first()?;
    let (path, rest) = rest.split_at_checked(usize::from(len))?;
    let inode = rest.iter().position(|b| *b < 0x80)?;
    let parent = rest.get(inode + 1..)?.iter().position(|b| *b < 0x80)?;
    (len < 0x80 && inode < 9 && parent < 4 && path.is_ascii()).then_some(())
}

impl GuestKernel {
    /// Serializes the kernel object graph into checkpoint records.
    ///
    /// Application memory is checkpointed separately (it lives in the
    /// sandbox's [`memsim::AddressSpace`]); combine both into an
    /// [`imagefmt::CheckpointSource`] at the sandbox layer.
    pub fn checkpoint_objects(&self) -> Vec<ObjRecord> {
        let mut out = Vec::with_capacity(usize::try_from(self.object_count()).unwrap_or(0));
        let mut next_id: u64 = 1;
        let mut id = || {
            let v = next_id;
            next_id += 1;
            v
        };

        // Pre-assign ids so references can point forward or backward.
        let mut task_ids: BTreeMap<u32, u64> = BTreeMap::new();
        let mut thread_ids: BTreeMap<u32, u64> = BTreeMap::new();
        for task in self.tasks.tasks() {
            task_ids.insert(task.pid, id());
            for th in &task.threads {
                thread_ids.insert(th.tid, id());
            }
        }
        let session_ids: Vec<u64> = self.tasks.sessions().iter().map(|_| id()).collect();
        let ns_ids: Vec<u64> = self.tasks.namespaces().iter().map(|_| id()).collect();
        let mount_ids: Vec<u64> = self.vfs.mounts().iter().map(|_| id()).collect();
        let dentry_ids: Vec<u64> = (0..self.dentries().len()).map(|_| id()).collect();
        let timer_ids: Vec<u64> = self.timers.iter().map(|_| id()).collect();
        let wq_ids: Vec<u64> = (0..self.waitqueues().len()).map(|_| id()).collect();
        let misc_ids: Vec<u64> = (0..self.misc().len()).map(|_| id()).collect();
        let fds: Vec<(i32, crate::vfs::FdView<'_>)> = self.vfs.iter_fds().collect();
        let file_ids: Vec<u64> = fds.iter().map(|_| id()).collect();
        let fdslot_ids: Vec<u64> = fds.iter().map(|_| id()).collect();
        let mut fdslot_by_fd: BTreeMap<i32, u64> = BTreeMap::new();
        for ((fd, _), slot_id) in fds.iter().zip(&fdslot_ids) {
            fdslot_by_fd.insert(*fd, *slot_id);
        }
        let sock_ids: BTreeMap<u64, u64> = self.net.iter().map(|s| (s.id, id())).collect();
        let epoll_ids: Vec<u64> = (0..self.epolls().len()).map(|_| id()).collect();

        // --- tasks + threads ---
        for task in self.tasks.tasks() {
            // Ids were assigned from this same iteration just above; a miss
            // is impossible, but the checkpoint writer must not panic.
            let Some(&task_id) = task_ids.get(&task.pid) else {
                continue;
            };
            let mut payload = Vec::new();
            varint::put_u64(&mut payload, u64::from(task.pid));
            varint::put_u64(&mut payload, u64::from(task.ppid));
            varint::put_u64(&mut payload, u64::from(task.sid));
            varint::put_bytes(&mut payload, task.name().as_bytes());
            let refs = task
                .threads
                .iter()
                .filter_map(|t| thread_ids.get(&t.tid).copied())
                .collect();
            out.push(ObjRecord::new(task_id, ObjKind::Task, 0, refs, payload));
            for th in &task.threads {
                let Some(&thread_id) = thread_ids.get(&th.tid) else {
                    continue;
                };
                let mut p = Vec::new();
                varint::put_u64(&mut p, u64::from(th.tid));
                varint::put_u64(&mut p, th.context);
                varint::put_u64(&mut p, th.blocked_on.map(|b| b + 1).unwrap_or(0));
                varint::put_u64(&mut p, u64::from(task.pid));
                out.push(ObjRecord::new(
                    thread_id,
                    ObjKind::Thread,
                    0,
                    vec![task_id],
                    p,
                ));
            }
        }
        // --- sessions ---
        for (session, sid_id) in self.tasks.sessions().iter().zip(&session_ids) {
            let mut p = Vec::new();
            varint::put_u64(&mut p, u64::from(session.sid));
            varint::put_u64(&mut p, u64::from(session.leader));
            let refs = task_ids.get(&session.leader).copied().into_iter().collect();
            out.push(ObjRecord::new(*sid_id, ObjKind::Session, 0, refs, p));
        }
        // --- namespaces ---
        for (ns, ns_id) in self.tasks.namespaces().iter().zip(&ns_ids) {
            let mut p = Vec::new();
            varint::put_bytes(&mut p, ns.kind().as_bytes());
            varint::put_u64(&mut p, u64::from(ns.init_id));
            out.push(ObjRecord::new(*ns_id, ObjKind::Namespace, 0, vec![], p));
        }
        // --- mounts ---
        for (m, m_id) in self.vfs.mounts().iter().zip(&mount_ids) {
            let mut p = Vec::new();
            varint::put_bytes(&mut p, m.source().as_bytes());
            varint::put_bytes(&mut p, m.target().as_bytes());
            varint::put_bytes(&mut p, m.fs_type().as_bytes());
            out.push(ObjRecord::new(*m_id, ObjKind::Mount, 0, vec![], p));
        }
        // --- dentries ---
        for (d, d_id) in self.dentries().zip(&dentry_ids) {
            let mut p = Vec::new();
            varint::put_bytes(&mut p, d.path().as_bytes());
            varint::put_u64(&mut p, d.inode());
            varint::put_u64(&mut p, d.parent().map(|x| u64::from(x) + 1).unwrap_or(0));
            let refs = d
                .parent()
                .and_then(|i| usize::try_from(i).ok())
                .and_then(|i| dentry_ids.get(i).copied())
                .into_iter()
                .collect();
            out.push(ObjRecord::new(*d_id, ObjKind::Dentry, 0, refs, p));
        }
        // --- timers ---
        for (t, t_id) in self.timers.iter().zip(&timer_ids) {
            let mut p = Vec::new();
            varint::put_u64(&mut p, t.deadline.as_nanos());
            varint::put_u64(&mut p, t.period.as_nanos());
            varint::put_u64(&mut p, u64::from(t.owner_pid));
            let refs = task_ids.get(&t.owner_pid).copied().into_iter().collect();
            out.push(ObjRecord::new(*t_id, ObjKind::Timer, 0, refs, p));
        }
        // --- wait queues ---
        for (waiters, wq_id) in self.waitqueues().zip(&wq_ids) {
            let mut p = Vec::new();
            varint::put_u64(&mut p, len_u64(waiters.len()));
            for w in waiters {
                varint::put_u64(&mut p, u64::from(*w));
            }
            let refs = waiters
                .iter()
                .filter_map(|w| thread_ids.get(w).copied())
                .collect();
            out.push(ObjRecord::new(*wq_id, ObjKind::WaitQueue, 0, refs, p));
        }
        // --- misc runtime objects ---
        for (blob, m_id) in self.misc_shared().zip(&misc_ids) {
            out.push(ObjRecord::new(*m_id, ObjKind::Misc, 0, vec![], blob));
        }
        // --- files, then fd slots (I/O state) ---
        // Two runs, in the order their ids were given out: a restore takes
        // each whole. The k-th slot names the fd of the k-th file.
        for ((_, desc), f_id) in fds.iter().zip(&file_ids) {
            let mut p = Vec::new();
            varint::put_bytes(&mut p, desc.path().as_bytes());
            varint::put_u64(&mut p, desc.offset);
            let flags = u32::from(desc.writable) | (u32::from(desc.used) << 1);
            out.push(ObjRecord::new(*f_id, ObjKind::File, flags, vec![], p));
        }
        for (((fd, _), f_id), s_id) in fds.iter().zip(&file_ids).zip(&fdslot_ids) {
            let mut sp = Vec::new();
            varint::put_u64(&mut sp, fd_u64(*fd));
            out.push(ObjRecord::new(*s_id, ObjKind::FdSlot, 0, vec![*f_id], sp));
        }
        // --- sockets ---
        for sock in self.net.iter() {
            let Some(&sock_id) = sock_ids.get(&sock.id) else {
                continue;
            };
            let mut p = Vec::new();
            varint::put_bytes(&mut p, sock.addr().as_bytes());
            varint::put_u64(
                &mut p,
                match sock.state {
                    SockState::Created => 0,
                    SockState::Listening => 1,
                    SockState::Connected => 2,
                },
            );
            out.push(ObjRecord::new(sock_id, ObjKind::Socket, 0, vec![], p));
        }
        // --- epolls ---
        for (watched, e_id) in self.epolls().zip(&epoll_ids) {
            let mut p = Vec::new();
            varint::put_u64(&mut p, len_u64(watched.len()));
            let mut refs = Vec::new();
            for fd in watched {
                varint::put_u64(&mut p, fd_u64(*fd));
                if let Some(slot) = fdslot_by_fd.get(fd) {
                    refs.push(*slot);
                }
            }
            out.push(ObjRecord::new(*e_id, ObjKind::Epoll, 0, refs, p));
        }
        out
    }

    /// Rebuilds a kernel from checkpoint records: owned ones (`&Vec<ObjRecord>`,
    /// what a classic image decodes to and [`Self::checkpoint_objects`]
    /// returns) or the views a func-image restore maps
    /// (`&imagefmt::flat::RestoredRecords`) — one body reads both, a run of
    /// same-kind records at a time ([`Records::runs`]). The views of a
    /// func-image all name its one arena, and the restored kernel holds the
    /// arena, not a copy per object: a run of its runtime objects *is* the
    /// runtime-object table, taken in O(1) without visiting a record, and a
    /// run of its dentries is the dentry table after one tight pass that
    /// makes every check the rows are read with. Rows of either are read in
    /// place and made only on the first write. The descriptors are a run of
    /// files, each a row of the restored-descriptor table with its path a
    /// range of the arena, then a run of fd slots: the k-th slot installs the
    /// k-th file at the fd it names, holes included, so a restored kernel
    /// numbers its descriptors as the checkpointed one did (either order of
    /// the two kinds restores alike). The other records — tasks, threads,
    /// timers, wait queues, sockets, epolls — are read one by one, strings
    /// kept as ranges of the arena. Owned records' bytes are copied into the
    /// tables' own buffers.
    ///
    /// Charges [`simtime::ObjectCosts::recover_per_object_non_io`] for every
    /// non-I/O object (the paper's "Recover Kernel" redo work). With
    /// `eager_io`, every file is re-opened and every socket reconnected on
    /// the spot (gVisor-restore); otherwise I/O state is installed
    /// disconnected for on-demand reconnection (Catalyzer).
    ///
    /// # Errors
    ///
    /// [`KernelError::CorruptGraph`] on malformed payloads, dangling
    /// references, an fd slot naming an fd twice or one past
    /// [`crate::vfs::MAX_FDS`], or a count of fd slots that is not the count
    /// of files.
    pub fn restore_from_records<'a>(
        name: impl Into<String>,
        records: impl Into<Records<'a>>,
        fs: Arc<FsServer>,
        eager_io: bool,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<GuestKernel, KernelError> {
        Self::restore_runs(name.into(), records.into(), fs, eager_io, clock, model)
    }

    /// The body of [`Self::restore_from_records`], compiled once in this
    /// crate rather than once per caller.
    fn restore_runs(
        name: String,
        records: Records<'_>,
        fs: Arc<FsServer>,
        eager_io: bool,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<GuestKernel, KernelError> {
        let bad = |detail: String| KernelError::CorruptGraph { detail };
        let imgerr = payload_err;
        // Typed narrowing for untrusted payload fields: out-of-range values
        // are corrupt input, not a reason to panic.
        let u32_of = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| bad(format!("{what} {v} out of u32 range")))
        };
        let usize_of = |v: u64, what: &str| {
            usize::try_from(v).map_err(|_| bad(format!("{what} {v} out of usize range")))
        };
        let i32_of = |v: u64, what: &str| {
            i32::try_from(v).map_err(|_| bad(format!("{what} {v} out of i32 range")))
        };
        let mut kernel = GuestKernel::empty_shell(name, fs);
        // The root mount is re-created by Vfs::new; drop it so the restored
        // mount table matches the checkpoint exactly.
        let mut restored_mounts = Vec::new();
        let mut tasks_by_pid: BTreeMap<u32, Task> = BTreeMap::new();
        let mut task_order: Vec<u32> = Vec::new();
        // The four shared tables are filled here and installed once below:
        // reaching one through the kernel is an `Arc::make_mut` a push. The
        // dentry and runtime-object tables keep the records' buffer — for a
        // func-image, the mapped arena itself — so neither allocates nor
        // counts a reference per object.
        let (mut dentries, mut waitqueues, mut misc, mut epolls) = (
            RunTable::default(),
            Lists::default(),
            RunTable::default(),
            Lists::default(),
        );
        // The descriptors: the descriptions in one table, and each one at
        // the fd its slot record names.
        let mut fds = RestoredFds::default();

        let mut non_io_objects: u64 = 0;
        for run in records.runs() {
            if !run.kind().is_io_state() {
                non_io_objects += len_u64(run.len());
            }
            let whole = match run.kind() {
                ObjKind::Dentry | ObjKind::Misc => run.record_run(),
                _ => None,
            };
            match (run.kind(), whole) {
                (ObjKind::Misc, Some(whole)) => {
                    misc.push_run(whole);
                    continue;
                }
                (ObjKind::Dentry, Some(whole)) => {
                    check_dentries(&whole)?;
                    dentries.push_run(whole);
                    continue;
                }
                (ObjKind::File, _) => fds.reserve_files(run.len()),
                _ => {}
            }
            for rec in run.views() {
                let p = rec.payload();
                let mut pos = 0usize;
                match rec.kind {
                    ObjKind::Task => {
                        let pid =
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "task pid")?;
                        let ppid =
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "task ppid")?;
                        let sid =
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "task sid")?;
                        let name = text_field(&rec, &mut pos, "task name")?;
                        tasks_by_pid.insert(
                            pid,
                            Task {
                                pid,
                                ppid,
                                name,
                                threads: Vec::new(),
                                sid,
                            },
                        );
                        task_order.push(pid);
                    }
                    ObjKind::Thread => {
                        let tid =
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "thread tid")?;
                        let context = varint::get_u64(p, &mut pos).map_err(imgerr)?;
                        let blocked = varint::get_u64(p, &mut pos).map_err(imgerr)?;
                        let task_pid =
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "thread task")?;
                        let task = tasks_by_pid.get_mut(&task_pid).ok_or_else(|| {
                            bad(format!("thread {tid} references missing task {task_pid}"))
                        })?;
                        task.threads.push(GuestThread {
                            tid,
                            context,
                            blocked_on: if blocked == 0 {
                                None
                            } else {
                                Some(blocked - 1)
                            },
                        });
                    }
                    ObjKind::Session => {
                        let sid =
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "session sid")?;
                        let leader = u32_of(
                            varint::get_u64(p, &mut pos).map_err(imgerr)?,
                            "session leader",
                        )?;
                        kernel
                            .tasks
                            .install_restored_session(Session { sid, leader });
                    }
                    ObjKind::Namespace => {
                        let kind = text_field(&rec, &mut pos, "ns kind")?;
                        let init_id =
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "ns init id")?;
                        kernel
                            .tasks
                            .install_restored_namespace(NamespaceInfo { kind, init_id });
                    }
                    ObjKind::Mount => {
                        let mut read = || text_field(&rec, &mut pos, "mount field");
                        restored_mounts.push(crate::vfs::MountInfo {
                            source: read()?,
                            target: read()?,
                            fs_type: read()?,
                        });
                    }
                    ObjKind::Dentry => dentries.push_record(&rec)?,
                    ObjKind::Timer => {
                        let deadline = varint::get_u64(p, &mut pos).map_err(imgerr)?;
                        let period = varint::get_u64(p, &mut pos).map_err(imgerr)?;
                        let owner =
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "timer owner")?;
                        kernel.timers.install_restored(
                            simtime::SimNanos::from_nanos(deadline),
                            simtime::SimNanos::from_nanos(period),
                            owner,
                        );
                    }
                    ObjKind::WaitQueue => {
                        let n =
                            usize_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "wq count")?;
                        // Nothing is reserved from `n`: a corrupt count fails at
                        // the first missing varint.
                        waitqueues.try_push((0..n).map(|_| {
                            u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "wq waiter")
                        }))?;
                    }
                    ObjKind::Misc => misc.push_record(&rec)?,
                    ObjKind::File => {
                        let path = field_range(&rec, &mut pos, "file path")?;
                        let offset = varint::get_u64(p, &mut pos).map_err(imgerr)?;
                        fds.push_file(path, offset, rec.flags & 1 != 0);
                    }
                    ObjKind::FdSlot => {
                        fds.push_slot(varint::get_u64(p, &mut pos).map_err(imgerr)?)?;
                    }
                    ObjKind::Socket => {
                        let addr = text_field(&rec, &mut pos, "socket addr")?;
                        let state = match varint::get_u64(p, &mut pos).map_err(imgerr)? {
                            0 => SockState::Created,
                            1 => SockState::Listening,
                            2 => SockState::Connected,
                            other => return Err(bad(format!("socket state {other}"))),
                        };
                        kernel.net.install_restored(addr, state);
                    }
                    ObjKind::Epoll => {
                        let n =
                            usize_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "epoll count")?;
                        epolls.try_push((0..n).map(|_| {
                            i32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "epoll fd")
                        }))?;
                    }
                    ObjKind::MemRegion => { /* memory is restored via the EPT */ }
                }
            }
        }

        kernel.install_tables(dentries, waitqueues, misc, epolls);
        kernel.vfs.install_restored(fds)?;
        for pid in task_order {
            let task = tasks_by_pid
                .remove(&pid)
                .ok_or_else(|| bad(format!("task {pid} appears twice in the checkpoint")))?;
            kernel.tasks.install_restored_task(task);
        }
        if !restored_mounts.is_empty() {
            kernel.vfs.set_mounts(restored_mounts);
        }

        // Non-I/O system state re-establishment on the critical path.
        clock.charge(
            model
                .obj
                .recover_per_object_non_io
                .saturating_mul(non_io_objects),
        );

        if eager_io {
            // gVisor-restore: re-do every I/O connection now.
            let fds: Vec<i32> = kernel.vfs.iter_fds().map(|(fd, _)| fd).collect();
            for fd in fds {
                kernel
                    .vfs
                    .ensure_connected(fd, clock, model)
                    .map_err(|e| bad(format!("eager reconnect fd {fd}: {e}")))?;
            }
            let socks: Vec<u64> = kernel.net.iter().map(|s| s.id).collect();
            for s in socks {
                kernel
                    .net
                    .ensure_connected(s, clock, model)
                    .map_err(|e| bad(format!("eager reconnect sock {s}: {e}")))?;
            }
        }
        Ok(kernel)
    }
}

/// `records` written into a func-image — sealed, every section checksummed —
/// and mapped back the way a cold boot maps them.
#[cfg(test)]
pub(crate) fn sealed_func_image(records: Vec<ObjRecord>) -> imagefmt::flat::RestoredRecords {
    use imagefmt::{flat, CheckpointSource};
    let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
    let source = CheckpointSource {
        objects: records,
        ..CheckpointSource::default()
    };
    let image = memsim::MappedImage::new("func.img", flat::write(&source, &clock, &model));
    flat::FlatImage::parse(&image, &clock, &model)
        .and_then(|parsed| parsed.restore_metadata(&clock, &model))
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::GraphSpec;
    use crate::vfs::MAX_FDS;
    use simtime::SimNanos;

    fn test_fs() -> Arc<FsServer> {
        Arc::new(
            FsServer::builder("f")
                .synthetic_tree("/lib", 8, 64)
                .file("/app/bin", b"bin".to_vec())
                .persistent("/var/log/app.log")
                .build(),
        )
    }

    fn build_kernel() -> (SimClock, CostModel, GuestKernel) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let mut k = GuestKernel::boot("orig", test_fs(), &clock, &model);
        GraphSpec {
            extra_tasks: 3,
            threads_per_task: 2,
            dentries: 20,
            open_files: 5,
            sockets: 3,
            timers: 4,
            waitqueues: 2,
            epolls: 1,
            misc_objects: 10,
            misc_payload: 24,
        }
        .populate(&mut k, &clock, &model)
        .unwrap();
        (clock, model, k)
    }

    #[test]
    fn checkpoint_emits_full_graph() {
        let (_, _, k) = build_kernel();
        let records = k.checkpoint_objects();
        assert_eq!(records.len() as u64, k.object_count());
        // Ids are unique.
        let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), records.len());
        // Every ref points at an existing id.
        let idset: std::collections::BTreeSet<u64> = ids.into_iter().collect();
        for r in &records {
            for target in &r.refs {
                assert!(idset.contains(target), "dangling ref in {:?}", r.kind);
            }
        }
    }

    #[test]
    fn restore_round_trips_state() {
        let (clock, model, k) = build_kernel();
        let records = k.checkpoint_objects();
        let restored =
            GuestKernel::restore_from_records("copy", &records, test_fs(), false, &clock, &model)
                .unwrap();
        assert_eq!(restored.object_count(), k.object_count());
        assert_eq!(restored.tasks.tasks().len(), k.tasks.tasks().len());
        assert_eq!(restored.tasks.thread_count(), k.tasks.thread_count());
        assert_eq!(restored.timers.len(), k.timers.len());
        assert_eq!(restored.net.len(), k.net.len());
        assert_eq!(restored.vfs.open_fds(), k.vfs.open_fds());
        assert_eq!(restored.vfs.mounts(), k.vfs.mounts());
        assert!(restored.dentries().eq(k.dentries()));
        assert!(restored.misc().eq(k.misc()));
        // Re-checkpointing yields the identical record stream.
        assert_eq!(restored.checkpoint_objects(), records);
    }

    #[test]
    fn deferred_io_restores_disconnected() {
        let (clock, model, k) = build_kernel();
        let records = k.checkpoint_objects();
        let opens_before = {
            let fs = test_fs();
            let restored = GuestKernel::restore_from_records(
                "c",
                &records,
                Arc::clone(&fs),
                false,
                &clock,
                &model,
            )
            .unwrap();
            assert!(restored.vfs.iter_fds().all(|(_, d)| !d.connected));
            fs.opens_served()
        };
        assert_eq!(opens_before, 0, "deferred restore must not open files");
    }

    #[test]
    fn eager_io_reconnects_everything_and_costs_more() {
        let (_, model, k) = build_kernel();
        let records = k.checkpoint_objects();

        let lazy_clock = SimClock::new();
        GuestKernel::restore_from_records("l", &records, test_fs(), false, &lazy_clock, &model)
            .unwrap();

        let eager_clock = SimClock::new();
        let fs = test_fs();
        let restored = GuestKernel::restore_from_records(
            "e",
            &records,
            Arc::clone(&fs),
            true,
            &eager_clock,
            &model,
        )
        .unwrap();
        assert!(restored.vfs.iter_fds().all(|(_, d)| d.connected));
        assert!(fs.opens_served() > 0);
        assert!(
            eager_clock.now() > lazy_clock.now().saturating_add(SimNanos::from_micros(100)),
            "eager {} vs lazy {}",
            eager_clock.now(),
            lazy_clock.now()
        );
    }

    #[test]
    fn corrupt_thread_reference_rejected() {
        let (clock, model, k) = build_kernel();
        let mut records = k.checkpoint_objects();
        // Point a thread at a nonexistent task pid.
        let thread = records
            .iter_mut()
            .find(|r| r.kind == ObjKind::Thread)
            .expect("has threads");
        let mut p = Vec::new();
        varint::put_u64(&mut p, 999);
        varint::put_u64(&mut p, 0);
        varint::put_u64(&mut p, 0);
        varint::put_u64(&mut p, 4242); // missing task
        thread.payload = p.into();
        assert!(matches!(
            GuestKernel::restore_from_records("x", &records, test_fs(), false, &clock, &model),
            Err(KernelError::CorruptGraph { .. })
        ));
    }

    /// A descriptor comes back at the fd it was checkpointed at, holes
    /// included, from owned records and from a sealed func-image alike; the
    /// old order, each file's slot record right after it, restores the same
    /// table. A slot record naming an fd twice, one past the table or one
    /// that does not parse is a corrupt graph.
    #[test]
    fn fd_numbers_survive_checkpoint_and_restore() {
        let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
        let mut k = GuestKernel::boot("holes", test_fs(), &clock, &model);
        for (path, writable) in [
            ("/app/bin", false),
            ("/var/log/app.log", true),
            ("/app/bin", false),
        ] {
            k.vfs.open(path, writable, &clock, &model).unwrap();
        }
        k.vfs.close(1, &clock, &model).unwrap();
        let table = |k: &GuestKernel| -> Vec<(i32, String, bool)> {
            k.vfs
                .iter_fds()
                .map(|(fd, d)| (fd, d.path().to_string(), d.writable))
                .collect()
        };
        let want = table(&k);
        assert_eq!(want.iter().map(|(fd, ..)| *fd).collect::<Vec<_>>(), [0, 2]);

        let records = k.checkpoint_objects();
        let kinds: Vec<ObjKind> = records.iter().map(|r| r.kind).collect();
        let at = kinds
            .iter()
            .position(|kind| *kind == ObjKind::File)
            .unwrap();
        assert_eq!(
            kinds[at..at + 4],
            [
                ObjKind::File,
                ObjKind::File,
                ObjKind::FdSlot,
                ObjKind::FdSlot
            ],
            "the files, then their slots"
        );
        let mut interleaved = records.clone();
        interleaved.swap(at + 1, at + 2);
        let restore = |records: Records<'_>| {
            GuestKernel::restore_from_records("r", records, test_fs(), false, &clock, &model)
        };
        for records in [&records, &interleaved] {
            let sealed = sealed_func_image(records.clone());
            for restored in [restore(records.into()), restore((&sealed).into())] {
                let restored = restored.unwrap();
                assert_eq!(table(&restored), want);
                assert_eq!(restored.checkpoint_objects(), k.checkpoint_objects());
                // The hole is the next open's.
                let mut restored = restored;
                assert_eq!(restored.vfs.open("/app/bin", false, &clock, &model), Ok(1));
            }
        }

        let slot = |fd: &[u8]| {
            let mut forged = records.clone();
            forged[at + 3].payload = fd.to_vec().into();
            forged
        };
        let mut far = Vec::new();
        varint::put_u64(&mut far, MAX_FDS as u64);
        for (forged, want) in [
            (slot(&[0]), "fd 0 restored twice".to_string()),
            (slot(&far), "fd slot 1024 out of range".to_string()),
            (
                slot(&[0x80]),
                format!("payload: {}", ImageError::Truncated { what: "varint" }),
            ),
        ] {
            let sealed = sealed_func_image(forged.clone());
            for restored in [restore((&forged).into()), restore((&sealed).into())] {
                match restored {
                    Err(KernelError::CorruptGraph { detail }) => assert_eq!(detail, want),
                    other => panic!("{want}: {other:?}"),
                }
            }
        }
    }

    /// Every string a restore keeps is checked once, and a forged one is a
    /// typed error on both restore paths — a func-image sealed over it and
    /// owned records — never a kernel and never a panic.
    #[test]
    fn non_utf8_strings_are_corrupt_graphs() {
        let (clock, model, k) = build_kernel();
        let records = k.checkpoint_objects();
        // (kind, varints before the string field, what the error names)
        let fields = [
            (ObjKind::Task, 3, "task name"),
            (ObjKind::Namespace, 0, "ns kind"),
            (ObjKind::Mount, 0, "mount field"),
            (ObjKind::Dentry, 0, "dentry path"),
            (ObjKind::File, 0, "file path"),
            (ObjKind::Socket, 0, "socket addr"),
        ];
        for (kind, skip, what) in fields {
            let mut forged = records.clone();
            let rec = forged.iter_mut().find(|r| r.kind == kind).unwrap();
            let p = &rec.payload[..];
            let mut pos = 0;
            for _ in 0..skip {
                varint::get_u64(p, &mut pos).unwrap();
            }
            let mut payload = p[..pos].to_vec();
            let mut field = varint::get_bytes(p, &mut pos).unwrap().to_vec();
            field.push(0xFF); // never valid in UTF-8
            varint::put_bytes(&mut payload, &field);
            payload.extend_from_slice(&p[pos..]);
            rec.payload = payload.into();

            let sealed = sealed_func_image(forged.clone());
            for restored in [
                GuestKernel::restore_from_records("x", &sealed, test_fs(), false, &clock, &model),
                GuestKernel::restore_from_records("x", &forged, test_fs(), false, &clock, &model),
            ] {
                match restored {
                    Err(KernelError::CorruptGraph { detail }) => {
                        assert_eq!(detail, format!("{what} not utf-8"));
                    }
                    other => panic!("{kind:?}: {other:?}"),
                }
            }
        }
    }

    /// A mount field, descriptor path or socket address whose length runs
    /// past its payload — and, its record moved last, past the whole arena —
    /// is a typed error from the walk over a sealed func-image and from owned
    /// records alike: never a short kernel, a panic, or a view of bytes that
    /// are not the field's.
    #[test]
    fn text_fields_running_past_the_arena_are_corrupt_graphs() {
        let (clock, model, k) = build_kernel();
        let records = k.checkpoint_objects();
        for kind in [ObjKind::Mount, ObjKind::File, ObjKind::Socket] {
            let mut forged = records.clone();
            let at = forged.iter().position(|r| r.kind == kind).unwrap();
            let mut rec = forged.remove(at);
            let mut payload = Vec::new();
            varint::put_u64(&mut payload, 1 << 20);
            payload.extend_from_slice(b"/short");
            rec.payload = payload.into();
            forged.push(rec);

            let sealed = sealed_func_image(forged.clone());
            let (arena, start) = sealed.iter().last().unwrap().payload_source();
            assert!(start + (1 << 20) > arena.len(), "{kind:?} within the arena");
            for restored in [
                GuestKernel::restore_from_records("x", &sealed, test_fs(), false, &clock, &model),
                GuestKernel::restore_from_records("x", &forged, test_fs(), false, &clock, &model),
            ] {
                match restored {
                    Err(KernelError::CorruptGraph { detail }) => {
                        assert!(detail.starts_with("payload: "), "{kind:?}: {detail}");
                    }
                    other => panic!("{kind:?}: {other:?}"),
                }
            }
        }
    }

    /// The strings a restored kernel keeps are views of the arena it was
    /// restored from, not copies.
    #[test]
    fn restored_strings_are_spans_of_the_arena() {
        let (clock, model, k) = build_kernel();
        let sealed = sealed_func_image(k.checkpoint_objects());
        let arena = sealed.iter().next().unwrap().payload_source().0;
        let arena = arena.as_ptr_range();
        let restored =
            GuestKernel::restore_from_records("r", &sealed, test_fs(), false, &clock, &model)
                .unwrap();
        let t = &restored.tasks;
        let strings = (t.tasks().iter().map(|task| task.name()))
            .chain(t.namespaces().iter().map(|ns| ns.kind()))
            .chain(
                restored
                    .vfs
                    .mounts()
                    .iter()
                    .flat_map(|m| [m.source(), m.target(), m.fs_type()]),
            )
            .chain(restored.vfs.iter_fds().map(|(_, desc)| desc.path()))
            .chain(restored.net.iter().map(|sock| sock.addr()))
            .filter(|s| !s.is_empty());
        let mut seen = 0;
        for s in strings {
            let s = s.as_bytes().as_ptr_range();
            assert!(
                arena.start <= s.start && s.end <= arena.end,
                "a copied string"
            );
            seen += 1;
        }
        assert!(seen > 15, "{seen} strings");
        assert_eq!(restored.checkpoint_objects(), k.checkpoint_objects());
    }

    /// Record orders a restore must read alike from a sealed func-image and
    /// from owned records: the runtime objects and dentries as they are
    /// written, split into several runs among the other kinds, alternating
    /// in runs of one, ahead of every other kind, or missing. Each order
    /// keeps every kind's own order (a dentry's parent is an index into the
    /// dentries, an fd slot's file its place among the files) and so
    /// every thread after its task.
    fn odd_layouts(records: &[ObjRecord]) -> Vec<(&'static str, Vec<ObjRecord>)> {
        let of = |kind| -> Vec<ObjRecord> {
            records.iter().filter(|r| r.kind == kind).cloned().collect()
        };
        let (dentries, misc) = (of(ObjKind::Dentry), of(ObjKind::Misc));
        let rest: Vec<ObjRecord> = records
            .iter()
            .filter(|r| !matches!(r.kind, ObjKind::Dentry | ObjKind::Misc))
            .cloned()
            .collect();
        let (third, half) = (rest.len() / 3, dentries.len() / 2);
        let split = [
            &rest[..third],
            &dentries[..half],
            &misc[..misc.len() / 2],
            &rest[third..2 * third],
            &dentries[half..],
            &rest[2 * third..],
            &misc[misc.len() / 2..],
        ]
        .concat();
        let mut alternating = rest[..third].to_vec();
        for i in 0..dentries.len().max(misc.len()) {
            alternating.extend(dentries.get(i).cloned());
            alternating.extend(misc.get(i).cloned());
        }
        alternating.extend_from_slice(&rest[third..]);
        vec![
            ("as written", records.to_vec()),
            ("split", split),
            ("alternating", alternating),
            ("ahead", [&dentries[..], &misc, &rest].concat()),
            ("missing", rest),
        ]
    }

    /// Both paths through the one restore body give the same kernel and the
    /// same charge, to the nanosecond, whatever runs the records form.
    #[test]
    fn odd_run_layouts_restore_alike_on_both_paths() {
        let (_, model, k) = build_kernel();
        for (layout, records) in odd_layouts(&k.checkpoint_objects()) {
            let sealed = sealed_func_image(records.clone());
            let restore = |records: Records<'_>| {
                let clock = SimClock::new();
                let kernel = GuestKernel::restore_from_records(
                    "x",
                    records,
                    test_fs(),
                    false,
                    &clock,
                    &model,
                )
                .unwrap();
                (kernel.checkpoint_objects(), clock.now())
            };
            let (from_image, charged) = restore(Records::from(&sealed));
            assert_eq!((&from_image, charged), {
                let (owned, charged) = restore(Records::from(&records));
                (&owned.clone(), charged)
            });
            let non_io = records.iter().filter(|r| !r.kind.is_io_state()).count() as u64;
            let floor = model.obj.recover_per_object_non_io.saturating_mul(non_io);
            assert_eq!(charged, floor, "{layout}");
            if layout != "missing" {
                assert_eq!(from_image, k.checkpoint_objects(), "{layout}");
            }
        }
    }

    /// A dentry forged in the middle of its run fails with the text the
    /// record-by-record walk gives, on both paths — and, a record of another
    /// kind forged before it, with that record's text: errors come in record
    /// order.
    #[test]
    fn a_forged_dentry_mid_run_fails_alike_on_both_paths() {
        let (clock, model, k) = build_kernel();
        let (_, records) = odd_layouts(&k.checkpoint_objects()).swap_remove(1);
        let dentry = |records: &[ObjRecord]| {
            let at: Vec<usize> = (0..records.len())
                .filter(|i| records[*i].kind == ObjKind::Dentry)
                .collect();
            at[at.len() / 4]
        };
        let payload = |path: &[u8], inode: &[u8], parent: &[u8]| {
            let mut p = Vec::new();
            varint::put_bytes(&mut p, path);
            p.extend_from_slice(inode);
            p.extend_from_slice(parent);
            p
        };
        let mut parent = Vec::new();
        varint::put_u64(&mut parent, (1 << 32) + 1);
        let forgeries = [
            (
                payload(b"/proc/\xFF", &[7], &[0]),
                "dentry path not utf-8".to_string(),
            ),
            (
                payload(b"/proc/cache", &[7], &[0x80]),
                format!("payload: {}", ImageError::Truncated { what: "varint" }),
            ),
            (
                payload(b"/proc/cache", &[7], &parent),
                "dentry parent 4294967296 out of u32 range".to_string(),
            ),
        ];
        for (forged_payload, want) in forgeries {
            let mut forged = records.clone();
            let at = dentry(&forged);
            forged[at].payload = forged_payload.clone().into();
            // A runtime object after it is forged too; it is never reached.
            let last = forged
                .iter()
                .rposition(|r| r.kind == ObjKind::Socket)
                .unwrap();
            assert!(last > at);
            forged[last].payload = vec![0x80].into();
            let sealed = sealed_func_image(forged.clone());
            for restored in [
                GuestKernel::restore_from_records("x", &sealed, test_fs(), false, &clock, &model),
                GuestKernel::restore_from_records("x", &forged, test_fs(), false, &clock, &model),
            ] {
                match restored {
                    Err(KernelError::CorruptGraph { detail }) => assert_eq!(detail, want),
                    other => panic!("{want}: {other:?}"),
                }
            }
        }

        // A task forged ahead of the dentries is the error instead.
        let mut forged = records.clone();
        let at = dentry(&forged);
        forged[at].payload = payload(b"\xFF", &[7], &[0]).into();
        let task = forged.iter().position(|r| r.kind == ObjKind::Task).unwrap();
        assert!(task < at);
        let mut p = Vec::new();
        for v in [1, 0, 1] {
            varint::put_u64(&mut p, v);
        }
        varint::put_bytes(&mut p, b"\xFF");
        forged[task].payload = p.into();
        let sealed = sealed_func_image(forged.clone());
        for restored in [
            GuestKernel::restore_from_records("x", &sealed, test_fs(), false, &clock, &model),
            GuestKernel::restore_from_records("x", &forged, test_fs(), false, &clock, &model),
        ] {
            match restored {
                Err(KernelError::CorruptGraph { detail }) => {
                    assert_eq!(detail, "task name not utf-8");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// The dentry fast path never passes a payload the general reader
    /// rejects, and passes every plain one a checkpoint writes.
    #[test]
    fn the_plain_dentry_shape_implies_a_readable_dentry() {
        let varints = [0, 1, 127, 128, 0x1000, 1 << 28, (1 << 32) + 1, u64::MAX];
        let mut tried = 0;
        for path in [
            &b""[..],
            b"/proc/cache/entry-7",
            b"/\xC3\xA9",
            b"/\xFF",
            &[b'a'; 130],
            // Heads of 13, 20, 32 and 33 bytes: either side of the words'
            // reach, a byte past the first word not ASCII.
            b"/proc/x/abcd",
            b"/proc/\xC3\xA9/abc",
            b"/proc/cache/entr\xFF-7",
            &[b'b'; 31],
            &[b'c'; 32],
        ] {
            for inode in varints {
                for parent in varints {
                    let mut p = Vec::new();
                    varint::put_bytes(&mut p, path);
                    varint::put_u64(&mut p, inode);
                    varint::put_u64(&mut p, parent);
                    for cut in 0..=p.len() {
                        let p = &p[..cut];
                        let read = DentryRow::read(p);
                        if plain_dentry(p).is_some() {
                            assert!(read.is_ok(), "{p:?}: {read:?}");
                        }
                        if let Some(plain) = plain_dentry_words(p) {
                            assert_eq!(plain, plain_dentry_bytes(p).is_some(), "{p:?}");
                        }
                        tried += 1;
                    }
                    let plain =
                        path.len() < 128 && path.is_ascii() && inode < 1 << 63 && parent < 1 << 28;
                    assert_eq!(plain_dentry(&p).is_some(), plain, "{p:?}");
                }
            }
        }
        assert!(tried > 5_000);
    }

    #[test]
    fn restore_cost_scales_with_non_io_objects() {
        let (_, model, k) = build_kernel();
        let records = k.checkpoint_objects();
        let clock = SimClock::new();
        GuestKernel::restore_from_records("c", &records, test_fs(), false, &clock, &model).unwrap();
        let non_io = records.iter().filter(|r| !r.kind.is_io_state()).count() as u64;
        let floor = model.obj.recover_per_object_non_io.saturating_mul(non_io);
        assert!(clock.now() >= floor);
    }
}
