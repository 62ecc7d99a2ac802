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

/// One open file description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDesc {
    /// Path within the sandbox rootfs.
    pub path: String,
    /// Current file offset.
    pub offset: u64,
    /// Whether writes are allowed.
    pub writable: bool,
    /// Backing layer.
    pub backend: Backend,
    /// False right after a restore until the connection is re-established.
    pub connected: bool,
    /// True once the descriptor has been used (read/written) — feeds the
    /// `used_immediately` hint in the checkpoint I/O manifest.
    pub used: bool,
}

/// A mount-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountInfo {
    /// Device / source label.
    pub source: String,
    /// Mount point.
    pub target: String,
    /// Filesystem type label.
    pub fs_type: String,
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
    fds: Vec<Option<Arc<FileDesc>>>,
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
            mounts: Arc::new(vec![MountInfo {
                source: "rootfs".into(),
                target: "/".into(),
                fs_type: "overlay".into(),
            }]),
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
    pub fn set_mounts(&mut self, mounts: Vec<MountInfo>) {
        self.mounts = Arc::new(mounts);
    }

    /// Adds a mount, charging the mount cost.
    pub fn mount(&mut self, info: MountInfo, clock: &SimClock, model: &CostModel) {
        clock.charge(model.host.mount_fs);
        Arc::make_mut(&mut self.mounts).push(info);
    }

    /// Number of open descriptors.
    pub fn open_fds(&self) -> usize {
        self.fds.iter().flatten().count()
    }

    /// On-demand reconnections performed since boot/restore.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// True if `fd` names an open descriptor.
    pub fn is_open(&self, fd: i32) -> bool {
        self.desc(fd).is_ok()
    }

    fn alloc_fd(&mut self, desc: FileDesc) -> Result<i32, KernelError> {
        let desc = Arc::new(desc);
        if let Some(i) = self.fds.iter().position(Option::is_none) {
            self.fds[i] = Some(desc);
            return Ok(i as i32);
        }
        if self.fds.len() >= MAX_FDS {
            return Err(KernelError::ResourceExhausted { what: "guest fds" });
        }
        self.fds.push(Some(desc));
        Ok((self.fds.len() - 1) as i32)
    }

    fn desc(&self, fd: i32) -> Result<&FileDesc, KernelError> {
        self.fds
            .get(fd as usize)
            .and_then(Option::as_deref)
            .ok_or(KernelError::BadFd { fd })
    }

    /// The description for writing: copies it first if an `sfork` relative
    /// still shares this slot.
    fn desc_mut(&mut self, fd: i32) -> Result<&mut FileDesc, KernelError> {
        self.fds
            .get_mut(fd as usize)
            .and_then(Option::as_mut)
            .map(Arc::make_mut)
            .ok_or(KernelError::BadFd { fd })
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
            return self.alloc_fd(FileDesc {
                path: path.into(),
                offset: 0,
                writable,
                backend: Backend::Upper,
                connected: true,
                used: false,
            });
        }
        if writable {
            if let Ok(grant) = self.server.grant_persistent(path, clock, model) {
                return self.alloc_fd(FileDesc {
                    path: path.into(),
                    offset: 0,
                    writable: true,
                    backend: Backend::Persistent(grant),
                    connected: true,
                    used: false,
                });
            }
            // Copy-up: adopt the lower contents into the overlay. The server
            // hands back a `SharedBytes` view, so no bytes are duplicated until a
            // write actually lands.
            let gfd = self.server.open(path, clock, model)?;
            let len = usize::try_from(self.server.size_of(path).unwrap_or(0)).unwrap_or(usize::MAX);
            let data = self.server.read(&gfd, 0, len, clock, model)?;
            Arc::make_mut(&mut self.upper).insert(path.to_string(), data);
            return self.alloc_fd(FileDesc {
                path: path.into(),
                offset: 0,
                writable: true,
                backend: Backend::Upper,
                connected: true,
                used: false,
            });
        }
        let gfd = self.server.open(path, clock, model)?;
        self.alloc_fd(FileDesc {
            path: path.into(),
            offset: 0,
            writable: false,
            backend: Backend::Gofer(gfd),
            connected: true,
            used: false,
        })
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
        self.alloc_fd(FileDesc {
            path: path.into(),
            offset: 0,
            writable: true,
            backend: Backend::Upper,
            connected: true,
            used: false,
        })
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
        let backend = match desc.backend {
            Backend::Upper => Backend::Upper,
            Backend::Gofer(_) => Backend::Gofer(self.server.open(&desc.path, clock, model)?),
            Backend::Persistent(_) => {
                Backend::Persistent(self.server.grant_persistent(&desc.path, clock, model)?)
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
        let data = match &desc.backend {
            Backend::Upper => {
                // `cloned()` bumps a refcount; `slice()` is a zero-copy view.
                // Only the simulated guest→user copy is charged.
                let content = self.upper.get(&desc.path).cloned().unwrap_or_default();
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
        match &desc.backend {
            Backend::Upper => {
                // Copy-on-write: materialize a private buffer, mutate, and
                // store the new view.
                let (path, off) = (desc.path.clone(), desc.offset as usize);
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
        let desc = self.desc(fd)?.clone();
        self.alloc_fd(desc)
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
                let desc = slot.as_ref()?;
                if let Backend::Persistent(_) = desc.backend {
                    if let Ok(grant) = self.server.grant_persistent(&desc.path, clock, model) {
                        return Some(Arc::new(FileDesc {
                            path: desc.path.clone(),
                            backend: Backend::Persistent(grant),
                            ..**desc
                        }));
                    }
                }
                Some(Arc::clone(desc))
            })
            .collect();
        // Upper layer: CoW bookkeeping only.
        clock.charge(simtime::SimNanos::from_nanos(120).saturating_mul(self.upper.len() as u64));
        Vfs {
            server: Arc::clone(&self.server),
            upper: Arc::clone(&self.upper),
            fds,
            mounts: Arc::clone(&self.mounts),
            reconnects: 0,
        }
    }

    /// Installs a descriptor restored from a checkpoint, in the disconnected
    /// state (reconnection happens eagerly, lazily, or via the I/O cache
    /// depending on the restore engine).
    ///
    /// # Errors
    ///
    /// [`KernelError::ResourceExhausted`].
    pub fn install_restored_fd(
        &mut self,
        path: &str,
        writable: bool,
        offset: u64,
    ) -> Result<i32, KernelError> {
        let backend = if writable {
            Backend::Persistent(GoferFd {
                id: 0,
                path: path.into(),
                writable: true,
            })
        } else {
            Backend::Gofer(GoferFd {
                id: 0,
                path: path.into(),
                writable: false,
            })
        };
        self.alloc_fd(FileDesc {
            path: path.into(),
            offset,
            writable,
            backend,
            connected: false,
            used: false,
        })
    }

    /// Iterates over open descriptors as `(fd, desc)`.
    pub fn iter_fds(&self) -> impl Iterator<Item = (i32, &FileDesc)> {
        self.fds
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_deref().map(|d| (i as i32, d)))
    }

    /// Paths currently materialized in the upper overlay layer.
    pub fn upper_paths(&self) -> impl Iterator<Item = &str> {
        self.upper.keys().map(String::as_str)
    }
}

#[cfg(test)]
impl Vfs {
    /// Strong counts of what `sfork_clone` shares: the upper map, the mount
    /// table, then each open slot.
    pub(crate) fn share_counts(&self) -> Vec<usize> {
        [
            Arc::strong_count(&self.upper),
            Arc::strong_count(&self.mounts),
        ]
        .into_iter()
        .chain(self.fds.iter().flatten().map(Arc::strong_count))
        .collect()
    }

    /// What `self` still shares with `other`: the upper map, the mount
    /// table, and which descriptors.
    pub(crate) fn shared_with(&self, other: &Vfs) -> (bool, bool, Vec<i32>) {
        let fds = self
            .iter_fds()
            .filter(|(fd, desc)| other.desc(*fd).is_ok_and(|o| std::ptr::eq(*desc, o)))
            .map(|(fd, _)| fd)
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

    #[test]
    fn restored_fd_reconnects_on_first_use() {
        let (clock, model, mut vfs) = setup();
        let fd = vfs
            .install_restored_fd("/app/config.json", false, 0)
            .unwrap();
        assert_eq!(vfs.reconnects(), 0);
        let before = vfs.server().opens_served();
        let data = vfs.read(fd, 2, &clock, &model).unwrap();
        assert_eq!(&data[..], b"{}");
        assert_eq!(vfs.reconnects(), 1);
        assert_eq!(vfs.server().opens_served(), before + 1);
        // Second read: no further reconnection.
        vfs.read(fd, 0, &clock, &model).unwrap();
        assert_eq!(vfs.reconnects(), 1);
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
        vfs.mount(
            MountInfo {
                source: "proc".into(),
                target: "/proc".into(),
                fs_type: "procfs".into(),
            },
            &clock,
            &model,
        );
        assert_eq!(vfs.mounts().len(), 2);
    }
}
