//! The FS server ("Gofer") companion process.
//!
//! In gVisor, the Sentry never touches host files directly: a per-sandbox
//! Gofer process opens files on its behalf and passes descriptors back over
//! RPC. Catalyzer makes the FS server *per-function* and read-only (paper
//! §4.2): sandboxes receive read-only descriptors for rootfs content and may
//! be granted a small number of writable descriptors for persistent files
//! (e.g. logs).

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use memsim::SharedBytes;
use simtime::{CostModel, SimClock};

use crate::KernelError;

/// A descriptor granted by the FS server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoferFd {
    /// Server-side id.
    pub id: u64,
    /// Path within the function rootfs.
    pub path: String,
    /// Whether the grant allows writes (only persistent grants do).
    pub writable: bool,
}

/// Per-function FS server holding the real rootfs contents.
///
/// Shared (`Arc`) among every sandbox of the function; read-only grants are
/// safe to inherit across `sfork` because the server content never mutates
/// (writes go to the per-sandbox in-memory overlay, or to explicit persistent
/// grants).
pub struct FsServer {
    function: String,
    files: BTreeMap<String, SharedBytes>,
    persistent: HashSet<String>,
    next_fd: AtomicU64,
    opens: AtomicU64,
}

/// Builder for [`FsServer`].
#[derive(Debug, Default)]
pub struct FsServerBuilder {
    function: String,
    files: BTreeMap<String, SharedBytes>,
    persistent: HashSet<String>,
}

impl FsServerBuilder {
    /// Adds a rootfs file.
    pub fn file(mut self, path: impl Into<String>, data: impl Into<SharedBytes>) -> Self {
        self.files.insert(path.into(), data.into());
        self
    }

    /// Adds `count` synthetic library files of `size` bytes each under `dir`
    /// (used to populate realistic rootfs shapes for runtimes).
    pub fn synthetic_tree(mut self, dir: &str, count: usize, size: usize) -> Self {
        for i in 0..count {
            let path = format!("{dir}/lib{i:04}.so");
            let fill = (i % 251) as u8;
            self.files.insert(path, SharedBytes::from(vec![fill; size]));
        }
        self
    }

    /// Marks a path as persistent (writable grants allowed, e.g. a log file).
    /// Creates it empty if absent.
    pub fn persistent(mut self, path: impl Into<String>) -> Self {
        let path = path.into();
        self.files.entry(path.clone()).or_default();
        self.persistent.insert(path);
        self
    }

    /// Finishes the server.
    pub fn build(self) -> FsServer {
        FsServer {
            function: self.function,
            files: self.files,
            persistent: self.persistent,
            next_fd: AtomicU64::new(1),
            opens: AtomicU64::new(0),
        }
    }
}

impl FsServer {
    /// Starts building a server for `function`.
    pub fn builder(function: impl Into<String>) -> FsServerBuilder {
        FsServerBuilder {
            function: function.into(),
            ..FsServerBuilder::default()
        }
    }

    /// The function this server belongs to.
    pub fn function(&self) -> &str {
        &self.function
    }

    /// Number of rootfs files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total `open` RPCs served (drives Fig. 12's I/O bar).
    pub fn opens_served(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// True if `path` exists in the rootfs.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// File size, if it exists.
    pub fn size_of(&self, path: &str) -> Option<u64> {
        self.files.get(path).map(|b| b.len() as u64)
    }

    /// Opens `path` read-only, charging one gofer RPC plus the host `open`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoEntry`] if the path does not exist.
    pub fn open(
        &self,
        path: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<GoferFd, KernelError> {
        if !self.files.contains_key(path) {
            // Even a failed lookup costs the RPC round trip.
            clock.charge(model.io.gofer_rpc);
            return Err(KernelError::NoEntry { path: path.into() });
        }
        clock.charge(model.io.gofer_rpc.saturating_add(model.io.open_file));
        self.opens.fetch_add(1, Ordering::Relaxed);
        Ok(GoferFd {
            id: self.next_fd.fetch_add(1, Ordering::Relaxed),
            path: path.into(),
            writable: false,
        })
    }

    /// Grants a writable descriptor for a persistent path (paper §4.2:
    /// "Catalyzer allows the FS server to grant some file descriptors of the
    /// log files with the read/write permission").
    ///
    /// # Errors
    ///
    /// [`KernelError::NoEntry`] if absent, [`KernelError::ReadOnly`] if the
    /// path was not marked persistent.
    pub fn grant_persistent(
        &self,
        path: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<GoferFd, KernelError> {
        if !self.files.contains_key(path) {
            return Err(KernelError::NoEntry { path: path.into() });
        }
        if !self.persistent.contains(path) {
            return Err(KernelError::ReadOnly { fd: -1 });
        }
        clock.charge(model.io.gofer_rpc.saturating_add(model.io.open_file));
        self.opens.fetch_add(1, Ordering::Relaxed);
        Ok(GoferFd {
            id: self.next_fd.fetch_add(1, Ordering::Relaxed),
            path: path.into(),
            writable: true,
        })
    }

    /// Reads up to `len` bytes at `offset`, charging the RPC and transfer.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoEntry`] if the grant's path has vanished (never
    /// happens for well-formed grants; guards corrupted restores).
    pub fn read(
        &self,
        fd: &GoferFd,
        offset: u64,
        len: usize,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<SharedBytes, KernelError> {
        let data = self
            .files
            .get(&fd.path)
            .ok_or_else(|| KernelError::NoEntry {
                path: fd.path.clone(),
            })?;
        clock.charge(model.io.gofer_rpc);
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        clock.charge(model.memcpy((end - start) as u64));
        Ok(data.slice(start..end))
    }

    /// Lists rootfs paths (deterministic order).
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }
}

impl fmt::Debug for FsServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FsServer")
            .field("function", &self.function)
            .field("files", &self.files.len())
            .field("persistent", &self.persistent.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimNanos;

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    fn server() -> FsServer {
        FsServer::builder("f")
            .file("/app/bin", b"code".to_vec())
            .persistent("/var/log/app.log")
            .synthetic_tree("/lib", 3, 128)
            .build()
    }

    #[test]
    fn open_and_read() {
        let (clock, model) = setup();
        let s = server();
        let fd = s.open("/app/bin", &clock, &model).unwrap();
        assert!(!fd.writable);
        let data = s.read(&fd, 0, 4, &clock, &model).unwrap();
        assert_eq!(&data[..], b"code");
        assert_eq!(s.opens_served(), 1);
        assert!(clock.now() > SimNanos::ZERO);
    }

    #[test]
    fn missing_path_is_noentry_but_charges_rpc() {
        let (clock, model) = setup();
        let s = server();
        let err = s.open("/nope", &clock, &model).unwrap_err();
        assert!(matches!(err, KernelError::NoEntry { .. }));
        assert_eq!(clock.now(), model.io.gofer_rpc);
    }

    #[test]
    fn persistent_grant_rules() {
        let (clock, model) = setup();
        let s = server();
        let log = s
            .grant_persistent("/var/log/app.log", &clock, &model)
            .unwrap();
        assert!(log.writable);
        // Non-persistent paths cannot be granted writable.
        assert!(matches!(
            s.grant_persistent("/app/bin", &clock, &model).unwrap_err(),
            KernelError::ReadOnly { .. }
        ));
        assert!(matches!(
            s.grant_persistent("/missing", &clock, &model).unwrap_err(),
            KernelError::NoEntry { .. }
        ));
    }

    #[test]
    fn synthetic_tree_populates() {
        let s = server();
        assert!(s.exists("/lib/lib0000.so"));
        assert!(s.exists("/lib/lib0002.so"));
        assert_eq!(s.size_of("/lib/lib0001.so"), Some(128));
        assert_eq!(s.file_count(), 5);
    }

    #[test]
    fn read_clamps_to_file_end() {
        let (clock, model) = setup();
        let s = server();
        let fd = s.open("/app/bin", &clock, &model).unwrap();
        let data = s.read(&fd, 2, 100, &clock, &model).unwrap();
        assert_eq!(&data[..], b"de");
        let empty = s.read(&fd, 99, 10, &clock, &model).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn fd_ids_are_unique() {
        let (clock, model) = setup();
        let s = server();
        let a = s.open("/app/bin", &clock, &model).unwrap();
        let b = s.open("/app/bin", &clock, &model).unwrap();
        assert_ne!(a.id, b.id);
    }
}
