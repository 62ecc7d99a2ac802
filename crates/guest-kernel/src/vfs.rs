//! The guest VFS: mount table, fd table, and the **stateless overlay
//! rootFS** (paper §4.2).
//!
//! Each sandbox sees two file-system layers:
//!
//! - an **upper**, in-memory, read-write overlay private to the sandbox
//!   (shared copy-on-write across `sfork`: the map is copied by the first
//!   relative that writes an overlay file, file contents never); over
//! - the **lower**, read-only rootfs owned by the per-function
//!   [`FsServer`] (gofer), accessed through granted
//!   read-only descriptors that remain valid across `sfork`.
//!
//! After a restore, descriptors exist but are *disconnected*: the first use
//! triggers on-demand reconnection (paper §3.3), unless the restore path
//! eagerly reconnected them (gVisor-restore) or replayed them from the I/O
//! cache (Catalyzer warm boot).
//!
//! [`FsServer`]: crate::gofer::FsServer

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use memsim::SharedBytes;
use simtime::{CostModel, SimClock};

use crate::gofer::{FsServer, GoferFd};
use crate::table::{Span, Table, Text};
use crate::KernelError;

/// Maximum guest descriptors per sandbox.
pub const MAX_FDS: usize = 1024;

/// Where a descriptor's bytes live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backend {
    /// The in-memory upper overlay layer (read-write).
    Upper,
    /// A read-only grant from the FS server.
    Gofer(GoferFd),
    /// A writable persistent grant (log files) — write-through to the server.
    Persistent(GoferFd),
}

/// What an open file description holds besides its path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DescState {
    offset: u64,
    writable: bool,
    backend: Backend,
    connected: bool,
    used: bool,
}

impl DescState {
    /// A description just opened: at offset 0, connected, not yet used.
    fn opened(writable: bool, backend: Backend) -> DescState {
        DescState {
            offset: 0,
            writable,
            backend,
            connected: true,
            used: false,
        }
    }
}

/// An open file description of this sandbox's own: its path and its state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileDesc {
    path: Text,
    state: DescState,
}

/// A description a restore installed, as a row of the restored table: its
/// path a span of the table's buffer — for a func-image, the mapped arena —
/// so a row holds no reference count.
#[derive(Debug, Clone)]
struct RestoredDesc {
    path: Span,
    state: DescState,
}

/// An open file description as [`Vfs::iter_fds`] shows it, borrowed from
/// wherever the VFS keeps it.
#[derive(Debug, Clone, Copy)]
pub struct FdView<'a> {
    path: &'a str,
    /// Current file offset.
    pub offset: u64,
    /// Whether writes are allowed.
    pub writable: bool,
    /// Backing layer.
    pub backend: &'a Backend,
    /// False right after a restore until the connection is re-established.
    pub connected: bool,
    /// True once the descriptor has been used (read/written) — feeds the
    /// `used_immediately` hint in the checkpoint I/O manifest.
    pub used: bool,
}

impl<'a> FdView<'a> {
    fn of(path: &'a str, state: &'a DescState) -> FdView<'a> {
        FdView {
            path,
            offset: state.offset,
            writable: state.writable,
            backend: &state.backend,
            connected: state.connected,
            used: state.used,
        }
    }

    /// Path within the sandbox rootfs.
    pub fn path(&self) -> &'a str {
        self.path
    }
}

/// A mount-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountInfo {
    pub(crate) source: Text,
    pub(crate) target: Text,
    pub(crate) fs_type: Text,
}

impl MountInfo {
    /// A mount of `source` at `target`, of type `fs_type`.
    pub fn new(source: &str, target: &str, fs_type: &str) -> MountInfo {
        MountInfo {
            source: source.into(),
            target: target.into(),
            fs_type: fs_type.into(),
        }
    }

    /// Device / source label.
    pub fn source(&self) -> &str {
        self.source.as_str()
    }

    /// Mount point.
    pub fn target(&self) -> &str {
        self.target.as_str()
    }

    /// Filesystem type label.
    pub fn fs_type(&self) -> &str {
        self.fs_type.as_str()
    }
}

/// One fd slot's description.
#[derive(Debug, Clone)]
enum Slot {
    /// The row at this index of [`Vfs::restored`], read in place, and
    /// written there too while no `sfork` relative shares the table; a write
    /// under a shared table copies it out into a slot of its own.
    Restored(usize),
    /// A description of this sandbox's, shared with its `sfork` relatives
    /// until either side writes it.
    Own(Arc<FileDesc>),
}

/// The descriptors a restore reads out of a checkpoint, gathered before
/// [`Vfs::install_restored`] installs them: the descriptions in checkpoint
/// order, and the fd table in which the k-th fd slot record holds the k-th
/// description at the fd it names. Files and fd slots may come in either
/// order, as two runs or interleaved.
#[derive(Debug, Default)]
pub(crate) struct RestoredFds {
    files: Table<RestoredDesc>,
    fds: Vec<Option<Slot>>,
    /// Fd slot records read so far.
    slots: usize,
}

impl RestoredFds {
    /// Room for `additional` more descriptions: a run of them is one
    /// reservation.
    pub(crate) fn reserve_files(&mut self, additional: usize) {
        self.files.reserve(additional);
    }

    /// The next description, in checkpoint order: its path the `len` bytes
    /// at `at` of `buf` — placed as [`Table::place`] does, in place for every
    /// file of a func-image — then its offset and whether it is writable.
    /// It comes back disconnected (reconnection happens eagerly, lazily, or
    /// via the I/O cache depending on the restore engine), with a backend
    /// that names no grant (id 0) and no path of its own until
    /// [`Vfs::ensure_connected`] re-grants the path: a restored descriptor
    /// allocates nothing.
    pub(crate) fn push_file(
        &mut self,
        (buf, at, len): (&SharedBytes, usize, usize),
        offset: u64,
        writable: bool,
    ) {
        let placeholder = GoferFd {
            id: 0,
            path: String::new(),
            writable,
        };
        let path = self.files.place(buf, at, len);
        self.files.push(RestoredDesc {
            path,
            state: DescState {
                offset,
                writable,
                backend: if writable {
                    Backend::Persistent(placeholder)
                } else {
                    Backend::Gofer(placeholder)
                },
                connected: false,
                used: false,
            },
        });
    }

    /// The next fd slot record's fd: the next description's number.
    ///
    /// # Errors
    ///
    /// [`KernelError::CorruptGraph`] for an fd past the table's
    /// [`MAX_FDS`] slots, or one an earlier slot record named.
    pub(crate) fn push_slot(&mut self, fd: u64) -> Result<(), KernelError> {
        let at = usize::try_from(fd)
            .ok()
            .filter(|at| *at < MAX_FDS)
            .ok_or_else(|| KernelError::CorruptGraph {
                detail: format!("fd slot {fd} out of range"),
            })?;
        if self.fds.len() <= at {
            self.fds.resize_with(at + 1, || None);
        }
        let slot = &mut self.fds[at];
        if slot.is_some() {
            return Err(KernelError::CorruptGraph {
                detail: format!("fd {fd} restored twice"),
            });
        }
        *slot = Some(Slot::Restored(self.slots));
        self.slots += 1;
        Ok(())
    }
}

/// The per-sandbox VFS.
///
/// Everything an `sfork` child inherits sits behind an [`Arc`] and is
/// copied by the first write to it, on either side: the upper map and the
/// mount table as wholes, file descriptions one fd slot at a time.
#[derive(Debug)]
pub struct Vfs {
    server: Arc<FsServer>,
    /// Upper-layer contents are held as [`SharedBytes`]: copy-up shares the
    /// server's buffer, copying the map is a reference bump per file, and
    /// reads return zero-copy slices. Writes (off the restore hot path)
    /// rebuild the buffer — classic copy-on-write.
    upper: Arc<BTreeMap<String, SharedBytes>>,
    fds: Vec<Option<Slot>>,
    /// The descriptions a restore installed, in one table: a restore adds a
    /// row per descriptor, not an allocation, and a fork shares the table.
    restored: Arc<Table<RestoredDesc>>,
    /// Empty slots in `fds`. An open reuses the lowest one; while there is
    /// none it appends without a scan, so a restore installing hundreds of
    /// descriptors is linear, not quadratic.
    holes: usize,
    mounts: Arc<Vec<MountInfo>>,
    /// Count of on-demand reconnections performed (Fig. 12 I/O accounting).
    reconnects: u64,
}

impl Vfs {
    /// Creates a VFS over the function's FS server with the root mount
    /// installed.
    pub fn new(server: Arc<FsServer>) -> Vfs {
        Vfs {
            server,
            upper: Arc::default(),
            fds: Vec::new(),
            restored: Arc::default(),
            holes: 0,
            mounts: Arc::new(vec![MountInfo::new("rootfs", "/", "overlay")]),
            reconnects: 0,
        }
    }

    /// The backing FS server.
    pub fn server(&self) -> &Arc<FsServer> {
        &self.server
    }

    /// Registered mounts.
    pub fn mounts(&self) -> &[MountInfo] {
        &self.mounts
    }

    /// Replaces the whole mount table (restore path; no cost — the redo cost
    /// is accounted per-object by the restore engine).
    pub(crate) fn set_mounts(&mut self, mounts: Vec<MountInfo>) {
        self.mounts = Arc::new(mounts);
    }

    /// Adds a mount, charging the mount cost.
    pub fn mount(&mut self, info: MountInfo, clock: &SimClock, model: &CostModel) {
        clock.charge(model.host.mount_fs);
        Arc::make_mut(&mut self.mounts).push(info);
    }

    /// Number of open descriptors.
    pub fn open_fds(&self) -> usize {
        self.fds.len() - self.holes
    }

    /// On-demand reconnections performed since boot/restore.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// True if `fd` names an open descriptor.
    pub fn is_open(&self, fd: i32) -> bool {
        self.desc(fd).is_ok()
    }

    fn alloc_fd(&mut self, path: &str, state: DescState) -> Result<i32, KernelError> {
        let path = path.into();
        self.alloc_slot(Slot::Own(Arc::new(FileDesc { path, state })))
    }

    fn alloc_slot(&mut self, slot: Slot) -> Result<i32, KernelError> {
        if self.holes > 0 {
            if let Some(i) = self.fds.iter().position(Option::is_none) {
                self.fds[i] = Some(slot);
                self.holes -= 1;
                return Ok(i as i32);
            }
        }
        if self.fds.len() >= MAX_FDS {
            return Err(KernelError::ResourceExhausted { what: "guest fds" });
        }
        self.fds.push(Some(slot));
        Ok((self.fds.len() - 1) as i32)
    }

    /// The description `slot` holds.
    fn resolve<'a>(&'a self, slot: &'a Slot) -> Option<FdView<'a>> {
        match slot {
            Slot::Restored(row) => {
                let desc = self.restored.get(*row)?;
                let path = std::str::from_utf8(desc.path.of(self.restored.bytes()));
                Some(FdView::of(path.unwrap_or_default(), &desc.state))
            }
            Slot::Own(desc) => Some(FdView::of(desc.path.as_str(), &desc.state)),
        }
    }

    /// The path `slot`'s description holds, as a string of its own: for a
    /// restored row, a view of the table's buffer.
    fn path_text(&self, slot: &Slot) -> Text {
        match slot {
            Slot::Restored(row) => self.restored.get(*row).map_or_else(Text::default, |desc| {
                Text::Span(desc.path.view(self.restored.bytes()))
            }),
            Slot::Own(desc) => desc.path.clone(),
        }
    }

    /// A copy of `slot`'s description that is this sandbox's own.
    fn owned(&self, slot: &Slot) -> Option<FileDesc> {
        let state = match slot {
            Slot::Restored(row) => &self.restored.get(*row)?.state,
            Slot::Own(desc) => &desc.state,
        };
        Some(FileDesc {
            path: self.path_text(slot),
            state: state.clone(),
        })
    }

    fn desc(&self, fd: i32) -> Result<FdView<'_>, KernelError> {
        self.fds
            .get(fd as usize)
            .and_then(Option::as_ref)
            .and_then(|slot| self.resolve(slot))
            .ok_or(KernelError::BadFd { fd })
    }

    /// The description's state for writing: a row of the restored table is
    /// written in place while no `sfork` relative shares the table, and
    /// copied out into a slot of its own first otherwise; a slot of its own
    /// is copied first if a relative still shares it.
    fn desc_mut(&mut self, fd: i32) -> Result<&mut DescState, KernelError> {
        let bad = || KernelError::BadFd { fd };
        let slot = self
            .fds
            .get(fd as usize)
            .and_then(Option::as_ref)
            .ok_or_else(bad)?;
        if matches!(slot, Slot::Restored(_)) && Arc::get_mut(&mut self.restored).is_none() {
            let own = self.owned(slot).ok_or_else(bad)?;
            self.fds[fd as usize] = Some(Slot::Own(Arc::new(own)));
        }
        let slot = self
            .fds
            .get_mut(fd as usize)
            .and_then(Option::as_mut)
            .ok_or_else(bad)?;
        match slot {
            Slot::Own(desc) => Ok(&mut Arc::make_mut(desc).state),
            Slot::Restored(row) => Arc::get_mut(&mut self.restored)
                .and_then(|rows| rows.get_mut(*row))
                .map(|desc| &mut desc.state)
                .ok_or_else(bad),
        }
    }

    /// Opens `path`. Read-only opens resolve upper-then-lower; writable opens
    /// copy the file up into the overlay (unless it is a persistent grant
    /// path, which stays write-through).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoEntry`] if the path exists in neither layer;
    /// [`KernelError::ResourceExhausted`] if the fd table is full.
    pub fn open(
        &mut self,
        path: &str,
        writable: bool,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<i32, KernelError> {
        clock.charge(model.host.syscall_base);
        // Upper layer wins (overlay precedence).
        if self.upper.contains_key(path) {
            return self.alloc_fd(path, DescState::opened(writable, Backend::Upper));
        }
        if writable {
            if let Ok(grant) = self.server.grant_persistent(path, clock, model) {
                return self.alloc_fd(path, DescState::opened(true, Backend::Persistent(grant)));
            }
            // Copy-up: adopt the lower contents into the overlay. The server
            // hands back a `SharedBytes` view, so no bytes are duplicated until a
            // write actually lands.
            let gfd = self.server.open(path, clock, model)?;
            let len = usize::try_from(self.server.size_of(path).unwrap_or(0)).unwrap_or(usize::MAX);
            let data = self.server.read(&gfd, 0, len, clock, model)?;
            Arc::make_mut(&mut self.upper).insert(path.to_string(), data);
            return self.alloc_fd(path, DescState::opened(true, Backend::Upper));
        }
        let gfd = self.server.open(path, clock, model)?;
        self.alloc_fd(path, DescState::opened(false, Backend::Gofer(gfd)))
    }

    /// Creates (or truncates) a file in the overlay layer.
    ///
    /// # Errors
    ///
    /// [`KernelError::ResourceExhausted`] if the fd table is full.
    pub fn create(
        &mut self,
        path: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<i32, KernelError> {
        clock.charge(model.host.syscall_base);
        Arc::make_mut(&mut self.upper).insert(path.to_string(), SharedBytes::default());
        self.alloc_fd(path, DescState::opened(true, Backend::Upper))
    }

    /// Re-establishes a disconnected descriptor (on-demand I/O reconnection).
    /// No-op when already connected.
    ///
    /// # Errors
    ///
    /// Propagates FS-server errors if the path vanished.
    pub fn ensure_connected(
        &mut self,
        fd: i32,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        let desc = self.desc(fd)?;
        if desc.connected {
            return Ok(());
        }
        let backend = match *desc.backend {
            Backend::Upper => Backend::Upper,
            Backend::Gofer(_) => Backend::Gofer(self.server.open(desc.path(), clock, model)?),
            Backend::Persistent(_) => {
                Backend::Persistent(self.server.grant_persistent(desc.path(), clock, model)?)
            }
        };
        let slot = self.desc_mut(fd)?;
        slot.backend = backend;
        slot.connected = true;
        self.reconnects += 1;
        Ok(())
    }

    /// Reads up to `len` bytes at the current offset, advancing it.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadFd`]; reconnection errors on first post-restore use.
    pub fn read(
        &mut self,
        fd: i32,
        len: usize,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<SharedBytes, KernelError> {
        clock.charge(model.host.syscall_base);
        self.ensure_connected(fd, clock, model)?;
        let desc = self.desc(fd)?;
        let data = match desc.backend {
            Backend::Upper => {
                // `cloned()` bumps a refcount; `slice()` is a zero-copy view.
                // Only the simulated guest→user copy is charged.
                let content = self.upper.get(desc.path()).cloned().unwrap_or_default();
                let start = usize::try_from(desc.offset)
                    .unwrap_or(usize::MAX)
                    .min(content.len());
                let end = start.saturating_add(len).min(content.len());
                clock.charge(model.memcpy((end - start) as u64));
                content.slice(start..end)
            }
            Backend::Gofer(g) | Backend::Persistent(g) => {
                self.server.read(g, desc.offset, len, clock, model)?
            }
        };
        let slot = self.desc_mut(fd)?;
        slot.offset += data.len() as u64;
        slot.used = true;
        Ok(data)
    }

    /// Writes at the current offset, advancing it. Overlay-backed files
    /// mutate the in-memory layer; persistent grants are counted as
    /// write-through (contents live server-side and are not modeled).
    ///
    /// # Errors
    ///
    /// [`KernelError::ReadOnly`] on read-only descriptors; [`KernelError::BadFd`].
    pub fn write(
        &mut self,
        fd: i32,
        data: &[u8],
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<usize, KernelError> {
        clock.charge(model.host.syscall_base);
        self.ensure_connected(fd, clock, model)?;
        let desc = self.desc(fd)?;
        if !desc.writable {
            return Err(KernelError::ReadOnly { fd });
        }
        match desc.backend {
            Backend::Upper => {
                // Copy-on-write: materialize a private buffer, mutate, and
                // store the new view.
                let (path, off) = (desc.path().to_string(), desc.offset as usize);
                let entry = Arc::make_mut(&mut self.upper).entry(path).or_default();
                let mut content = entry.to_vec();
                if content.len() < off + data.len() {
                    content.resize(off + data.len(), 0);
                }
                content[off..off + data.len()].copy_from_slice(data);
                *entry = SharedBytes::from(content);
                clock.charge(model.memcpy(data.len() as u64));
            }
            Backend::Persistent(_) => {
                clock.charge(
                    model
                        .io
                        .gofer_rpc
                        .saturating_add(model.memcpy(data.len() as u64)),
                );
            }
            Backend::Gofer(_) => return Err(KernelError::ReadOnly { fd }),
        }
        let slot = self.desc_mut(fd)?;
        slot.offset += data.len() as u64;
        slot.used = true;
        Ok(data.len())
    }

    /// Duplicates a descriptor.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadFd`]; [`KernelError::ResourceExhausted`].
    pub fn dup(
        &mut self,
        fd: i32,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<i32, KernelError> {
        clock.charge(model.host.syscall_base.saturating_add(model.io.dup_fast));
        let desc = self
            .fds
            .get(fd as usize)
            .and_then(Option::as_ref)
            .and_then(|slot| self.owned(slot))
            .ok_or(KernelError::BadFd { fd })?;
        self.alloc_slot(Slot::Own(Arc::new(desc)))
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadFd`].
    pub fn close(
        &mut self,
        fd: i32,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        clock.charge(model.host.syscall_base.saturating_add(model.io.close_fd));
        let slot = self
            .fds
            .get_mut(fd as usize)
            .ok_or(KernelError::BadFd { fd })?;
        if slot.take().is_none() {
            return Err(KernelError::BadFd { fd });
        }
        self.holes += 1;
        Ok(())
    }

    /// File size as seen through the overlay.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoEntry`].
    pub fn stat(&self, path: &str) -> Result<u64, KernelError> {
        if let Some(content) = self.upper.get(path) {
            return Ok(content.len() as u64);
        }
        self.server
            .size_of(path)
            .ok_or_else(|| KernelError::NoEntry { path: path.into() })
    }

    /// Clones this VFS for `sfork`, copy-on-write: the child takes one
    /// reference to the overlay map and one to the mount table (a small
    /// per-entry bookkeeping cost is charged; the map is copied by whichever
    /// side writes an overlay file first) and one reference per open
    /// descriptor — **read-only gofer descriptors are inherited as-is**,
    /// they stay valid because the server content is immutable. Persistent
    /// (writable) grants are re-granted, into a description of the child's
    /// own, so its log handle is its own.
    pub fn sfork_clone(&self, clock: &SimClock, model: &CostModel) -> Vfs {
        let fds = self
            .fds
            .iter()
            .map(|slot| {
                let slot = slot.as_ref()?;
                let desc = self.resolve(slot)?;
                if let Backend::Persistent(_) = desc.backend {
                    if let Ok(grant) = self.server.grant_persistent(desc.path(), clock, model) {
                        return Some(Slot::Own(Arc::new(FileDesc {
                            path: self.path_text(slot),
                            state: DescState {
                                offset: desc.offset,
                                writable: desc.writable,
                                backend: Backend::Persistent(grant),
                                connected: desc.connected,
                                used: desc.used,
                            },
                        })));
                    }
                }
                Some(slot.clone())
            })
            .collect();
        // Upper layer: CoW bookkeeping only.
        clock.charge(simtime::SimNanos::from_nanos(120).saturating_mul(self.upper.len() as u64));
        Vfs {
            server: Arc::clone(&self.server),
            upper: Arc::clone(&self.upper),
            fds,
            restored: Arc::clone(&self.restored),
            holes: self.holes,
            mounts: Arc::clone(&self.mounts),
            reconnects: 0,
        }
    }

    /// Installs the descriptors a restore read into this VFS of an empty
    /// shell: the descriptions become the restored table, one row each, and
    /// each one's slot is the fd its checkpoint named, holes included.
    ///
    /// # Errors
    ///
    /// [`KernelError::CorruptGraph`] when the checkpoint has a different
    /// number of descriptions and fd slots.
    pub(crate) fn install_restored(&mut self, fds: RestoredFds) -> Result<(), KernelError> {
        if fds.files.len() != fds.slots {
            return Err(KernelError::CorruptGraph {
                detail: format!("{} files for {} fd slots", fds.files.len(), fds.slots),
            });
        }
        self.holes = fds.fds.len() - fds.slots;
        self.fds = fds.fds;
        self.restored = Arc::new(fds.files);
        Ok(())
    }

    /// Iterates over open descriptors as `(fd, desc)`.
    pub fn iter_fds(&self) -> impl Iterator<Item = (i32, FdView<'_>)> {
        self.fds.iter().enumerate().filter_map(|(i, slot)| {
            let desc = self.resolve(slot.as_ref()?)?;
            Some((i as i32, desc))
        })
    }

    /// The lowest open descriptor at or above `fd`: a walk over the fd
    /// table in order that holds no borrow of it from one step to the next,
    /// so each step may reconnect what it finds.
    pub fn next_open_fd(&self, fd: i32) -> Option<i32> {
        let from = usize::try_from(fd).unwrap_or(0);
        let at = self.fds.get(from..)?.iter().position(Option::is_some)?;
        i32::try_from(from + at).ok()
    }

    /// Paths currently materialized in the upper overlay layer.
    pub fn upper_paths(&self) -> impl Iterator<Item = &str> {
        self.upper.keys().map(String::as_str)
    }
}

#[cfg(test)]
impl Vfs {
    /// Strong counts of what `sfork_clone` shares: the upper map, the mount
    /// table, the restored descriptions, then each open slot of its own.
    pub(crate) fn share_counts(&self) -> Vec<usize> {
        [
            Arc::strong_count(&self.upper),
            Arc::strong_count(&self.mounts),
            Arc::strong_count(&self.restored),
        ]
        .into_iter()
        .chain(self.fds.iter().flatten().filter_map(|slot| match slot {
            Slot::Own(desc) => Some(Arc::strong_count(desc)),
            Slot::Restored(_) => None,
        }))
        .collect()
    }

    /// What `self` still shares with `other`: the upper map, the mount
    /// table, and which descriptors.
    pub(crate) fn shared_with(&self, other: &Vfs) -> (bool, bool, Vec<i32>) {
        let fds = (0..self.fds.len())
            .filter(
                |fd| match (&self.fds[*fd], other.fds.get(*fd).and_then(Option::as_ref)) {
                    (Some(Slot::Own(mine)), Some(Slot::Own(theirs))) => Arc::ptr_eq(mine, theirs),
                    (Some(Slot::Restored(mine)), Some(Slot::Restored(theirs))) => {
                        mine == theirs && Arc::ptr_eq(&self.restored, &other.restored)
                    }
                    _ => false,
                },
            )
            .map(|fd| fd as i32)
            .collect();
        (
            Arc::ptr_eq(&self.upper, &other.upper),
            Arc::ptr_eq(&self.mounts, &other.mounts),
            fds,
        )
    }
}

impl fmt::Display for Vfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vfs: {} fds, {} upper files, {} mounts",
            self.open_fds(),
            self.upper.len(),
            self.mounts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimClock, CostModel, Vfs) {
        let server = FsServer::builder("f")
            .file("/app/config.json", b"{}".to_vec())
            .file("/lib/base.so", vec![1u8; 256])
            .persistent("/var/log/fn.log")
            .build();
        (
            SimClock::new(),
            CostModel::experimental_machine(),
            Vfs::new(Arc::new(server)),
        )
    }

    #[test]
    fn open_read_lower_layer() {
        let (clock, model, mut vfs) = setup();
        let fd = vfs.open("/app/config.json", false, &clock, &model).unwrap();
        assert_eq!(&vfs.read(fd, 2, &clock, &model).unwrap()[..], b"{}");
        assert_eq!(vfs.open_fds(), 1);
    }

    #[test]
    fn missing_path() {
        let (clock, model, mut vfs) = setup();
        assert!(matches!(
            vfs.open("/nope", false, &clock, &model).unwrap_err(),
            KernelError::NoEntry { .. }
        ));
    }

    #[test]
    fn write_copies_up_into_overlay() {
        let (clock, model, mut vfs) = setup();
        let fd = vfs.open("/lib/base.so", true, &clock, &model).unwrap();
        vfs.write(fd, b"patched", &clock, &model).unwrap();
        assert!(vfs.upper_paths().any(|p| p == "/lib/base.so"));
        // Lower layer is untouched.
        assert_eq!(vfs.server().size_of("/lib/base.so"), Some(256));
        // Reading back through a fresh fd sees the overlay version.
        let fd2 = vfs.open("/lib/base.so", false, &clock, &model).unwrap();
        assert_eq!(&vfs.read(fd2, 7, &clock, &model).unwrap()[..], b"patched");
    }

    #[test]
    fn create_and_stat() {
        let (clock, model, mut vfs) = setup();
        let fd = vfs.create("/tmp/scratch", &clock, &model).unwrap();
        vfs.write(fd, &[0u8; 100], &clock, &model).unwrap();
        assert_eq!(vfs.stat("/tmp/scratch").unwrap(), 100);
        assert_eq!(vfs.stat("/lib/base.so").unwrap(), 256);
        assert!(vfs.stat("/gone").is_err());
    }

    #[test]
    fn readonly_write_rejected() {
        let (clock, model, mut vfs) = setup();
        let fd = vfs.open("/app/config.json", false, &clock, &model).unwrap();
        assert!(matches!(
            vfs.write(fd, b"x", &clock, &model).unwrap_err(),
            KernelError::ReadOnly { .. }
        ));
    }

    #[test]
    fn persistent_log_is_write_through() {
        let (clock, model, mut vfs) = setup();
        let fd = vfs.open("/var/log/fn.log", true, &clock, &model).unwrap();
        assert!(matches!(
            vfs.iter_fds().next().unwrap().1.backend,
            Backend::Persistent(_)
        ));
        vfs.write(fd, b"log line", &clock, &model).unwrap();
        assert!(!vfs.upper_paths().any(|p| p == "/var/log/fn.log"));
    }

    #[test]
    fn dup_and_close() {
        let (clock, model, mut vfs) = setup();
        let fd = vfs.open("/app/config.json", false, &clock, &model).unwrap();
        let dup = vfs.dup(fd, &clock, &model).unwrap();
        assert_ne!(fd, dup);
        vfs.close(fd, &clock, &model).unwrap();
        assert!(vfs.read(dup, 1, &clock, &model).is_ok());
        assert!(matches!(
            vfs.close(fd, &clock, &model).unwrap_err(),
            KernelError::BadFd { .. }
        ));
    }

    /// Restores one read-only descriptor per path into `vfs`, numbered in
    /// order, and returns their fds.
    fn restore(vfs: &mut Vfs, paths: &[&str]) -> Vec<i32> {
        let mut fds = RestoredFds::default();
        for (fd, path) in paths.iter().enumerate() {
            let path = SharedBytes::from(path.as_bytes().to_vec());
            fds.push_file((&path, 0, path.len()), 0, false);
            fds.push_slot(fd as u64).unwrap();
        }
        vfs.install_restored(fds).unwrap();
        (0..paths.len() as i32).collect()
    }

    #[test]
    fn restored_fd_reconnects_on_first_use() {
        let (clock, model, mut vfs) = setup();
        let fd = restore(&mut vfs, &["/app/config.json"])[0];
        assert_eq!(vfs.reconnects(), 0);
        let before = vfs.server().opens_served();
        let data = vfs.read(fd, 2, &clock, &model).unwrap();
        assert_eq!(&data[..], b"{}");
        assert_eq!(vfs.reconnects(), 1);
        assert_eq!(vfs.server().opens_served(), before + 1);
        // Reconnected in its row of the unshared table: no slot of its own.
        assert_eq!(vfs.share_counts(), [1, 1, 1]);
        assert!(vfs.iter_fds().all(|(_, desc)| desc.connected && desc.used));
        // Second read: no further reconnection.
        vfs.read(fd, 0, &clock, &model).unwrap();
        assert_eq!(vfs.reconnects(), 1);
    }

    /// Restored descriptions are rows of one table that a fork shares whole;
    /// the first write through a slot copies that one row out, on whichever
    /// side writes, and the other side still reads the row.
    #[test]
    fn restored_descriptors_are_shared_rows_until_written() {
        let (clock, model, mut vfs) = setup();
        let fds = restore(&mut vfs, &["/app/config.json", "/lib/base.so"]);
        let mut child = vfs.sfork_clone(&clock, &model);
        assert_eq!(vfs.share_counts(), [2, 2, 2]);
        assert_eq!(child.shared_with(&vfs), (true, true, fds.clone()));

        assert_eq!(&child.read(fds[1], 4, &clock, &model).unwrap()[..], &[1; 4]);
        assert_eq!(child.shared_with(&vfs), (true, true, vec![fds[0]]));
        assert_eq!(child.share_counts(), [2, 2, 2, 1]);
        let (_, parent_desc) = vfs.iter_fds().nth(1).unwrap();
        assert_eq!((parent_desc.offset, parent_desc.connected), (0, false));
        assert_eq!(parent_desc.path(), "/lib/base.so");
    }

    #[test]
    fn sfork_clone_inherits_readonly_fds_and_isolates_overlay() {
        let (clock, model, mut vfs) = setup();
        let ro = vfs.open("/app/config.json", false, &clock, &model).unwrap();
        let scratch = vfs.create("/tmp/x", &clock, &model).unwrap();
        vfs.write(scratch, b"parent", &clock, &model).unwrap();

        let mut child = vfs.sfork_clone(&clock, &model);
        // Read-only fd works in the child without reopening.
        let opens_before = child.server().opens_served();
        assert_eq!(&child.read(ro, 2, &clock, &model).unwrap()[..], b"{}");
        assert_eq!(child.server().opens_served(), opens_before);

        // Overlay writes diverge.
        let cfd = child.open("/tmp/x", true, &clock, &model).unwrap();
        child.write(cfd, b"child!", &clock, &model).unwrap();
        let pfd = vfs.open("/tmp/x", false, &clock, &model).unwrap();
        assert_eq!(&vfs.read(pfd, 6, &clock, &model).unwrap()[..], b"parent");
    }

    /// Restored descriptors sit at the fds their slot records name, holes
    /// included, and the first open after the restore fills the lowest hole.
    /// A slot past the table or a second slot at one fd is a corrupt graph,
    /// and so is a count of slots that is not the count of descriptions.
    #[test]
    fn restored_fds_keep_their_numbers() {
        let (clock, model, mut vfs) = setup();
        let mut fds = RestoredFds::default();
        for (fd, path) in [(3, "/app/config.json"), (0, "/lib/base.so")] {
            let path = SharedBytes::from(path.as_bytes().to_vec());
            fds.push_file((&path, 0, path.len()), 0, false);
            fds.push_slot(fd).unwrap();
        }
        vfs.install_restored(fds).unwrap();
        let open: Vec<(i32, &str)> = vfs.iter_fds().map(|(fd, d)| (fd, d.path())).collect();
        assert_eq!(open, [(0, "/lib/base.so"), (3, "/app/config.json")]);
        assert_eq!(vfs.open_fds(), 2);
        assert_eq!(vfs.next_open_fd(1), Some(3));
        assert_eq!(vfs.next_open_fd(4), None);
        assert_eq!(vfs.open("/lib/base.so", false, &clock, &model).unwrap(), 1);

        let corrupt = |detail: &str| KernelError::CorruptGraph {
            detail: detail.to_string(),
        };
        let mut fds = RestoredFds::default();
        fds.push_slot(2).unwrap();
        assert_eq!(
            fds.push_slot(2).unwrap_err(),
            corrupt("fd 2 restored twice")
        );
        assert_eq!(
            fds.push_slot(MAX_FDS as u64).unwrap_err(),
            corrupt("fd slot 1024 out of range")
        );
        assert_eq!(
            fds.push_slot(u64::MAX).unwrap_err(),
            corrupt(&format!("fd slot {} out of range", u64::MAX))
        );
        assert_eq!(
            Vfs::new(Arc::clone(vfs.server()))
                .install_restored(fds)
                .unwrap_err(),
            corrupt("0 files for 1 fd slots")
        );
    }

    #[test]
    fn fd_exhaustion() {
        let (clock, model, mut vfs) = setup();
        for _ in 0..MAX_FDS {
            vfs.create("/tmp/a", &clock, &model).unwrap();
        }
        assert!(matches!(
            vfs.create("/tmp/a", &clock, &model).unwrap_err(),
            KernelError::ResourceExhausted { .. }
        ));
    }

    #[test]
    fn mounts_register() {
        let (clock, model, mut vfs) = setup();
        assert_eq!(vfs.mounts().len(), 1);
        vfs.mount(MountInfo::new("proc", "/proc", "procfs"), &clock, &model);
        assert_eq!(vfs.mounts().len(), 2);
    }
}
