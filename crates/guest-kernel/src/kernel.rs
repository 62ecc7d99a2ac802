use std::fmt;
use std::sync::Arc;

use imagefmt::IoConn;
use memsim::SharedBytes;
use simtime::{CostModel, SimClock};

use crate::gofer::FsServer;
use crate::net::{SockState, SocketTable};
use crate::syscalls::{SyscallClass, SyscallName};
use crate::table::{Lists, RunTable, Span, Table};
use crate::tasks::TaskTable;
use crate::threads::SentryThreads;
use crate::timers::TimerTable;
use crate::vfs::Vfs;
use crate::KernelError;

/// A directory-cache entry (dentry), part of the checkpointed graph, as the
/// kernel's table hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dentry<'a> {
    path: &'a str,
    inode: u64,
    parent: Option<u32>,
}

impl<'a> Dentry<'a> {
    /// Cached path.
    pub fn path(&self) -> &'a str {
        self.path
    }

    /// Inode number.
    pub fn inode(&self) -> u64 {
        self.inode
    }

    /// Parent dentry index, if any.
    pub fn parent(&self) -> Option<u32> {
        self.parent
    }
}

/// A dentry-table row: the path is a range of the table's buffer (the
/// image's arena, for a restored kernel), checked to be UTF-8 when written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DentryRow {
    pub(crate) path: Span,
    pub(crate) inode: u64,
    pub(crate) parent: Option<u32>,
}

/// Aggregate counters for a kernel instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Syscalls dispatched.
    pub syscalls: u64,
    /// Syscalls denied by template policy.
    pub denied: u64,
}

/// The guest kernel: every piece of system state a sandbox owns.
///
/// See the crate docs for the subsystem map. The kernel can run in
/// *template mode* (paper §4), where Table-1-denied syscalls error out so a
/// template sandbox cannot accumulate non-deterministic state.
#[derive(Debug)]
pub struct GuestKernel {
    /// Sandbox label.
    pub name: String,
    /// VFS: overlay rootfs, fd table, mounts.
    pub vfs: Vfs,
    /// Network endpoints.
    pub net: SocketTable,
    /// Kernel timers.
    pub timers: TimerTable,
    /// Guest tasks, sessions, namespaces.
    pub tasks: TaskTable,
    /// The sandbox process's own (Golang) threads.
    pub sentry_threads: SentryThreads,
    // The four object tables below are shared with every `sfork` relative
    // until one of them writes: `sfork_clone` takes one reference per table
    // and the `*_mut` entries are the only way to a `&mut`, each through
    // `Arc::make_mut`. Private so that rule has one home. Each is plain data
    // (`crate::table`): rows, and byte ranges of one buffer — or, restored
    // from a func-image, the run of records the rows are.
    /// The dentry cache.
    dentries: Arc<RunTable<DentryRow>>,
    /// The guest fds each epoll instance watches (I/O state).
    epolls: Arc<Lists<i32>>,
    /// The thread ids blocked on each wait queue.
    waitqueues: Arc<Lists<u32>>,
    /// Opaque runtime objects: each row is its bytes.
    misc: Arc<RunTable<Span>>,
    template_mode: bool,
    stats: KernelStats,
}

impl GuestKernel {
    /// Boots a fresh guest kernel over the function's FS server, with the
    /// init task and the standard Sentry thread set.
    pub fn boot(
        name: impl Into<String>,
        fs: Arc<FsServer>,
        clock: &SimClock,
        model: &CostModel,
    ) -> GuestKernel {
        let mut tasks = TaskTable::new("wrapper");
        tasks.add_namespace("net", 0, clock, model);
        GuestKernel {
            name: name.into(),
            vfs: Vfs::new(fs),
            net: SocketTable::new(),
            timers: TimerTable::new(),
            tasks,
            sentry_threads: SentryThreads::standard(4, 1),
            dentries: Arc::default(),
            epolls: Arc::default(),
            waitqueues: Arc::default(),
            misc: Arc::default(),
            template_mode: false,
            stats: KernelStats::default(),
        }
    }

    /// An empty shell used by restore paths (subsystems filled from records).
    pub(crate) fn empty_shell(name: impl Into<String>, fs: Arc<FsServer>) -> GuestKernel {
        GuestKernel {
            name: name.into(),
            vfs: Vfs::new(fs),
            net: SocketTable::new(),
            timers: TimerTable::new(),
            tasks: TaskTable::empty(),
            sentry_threads: SentryThreads::standard(4, 1),
            dentries: Arc::default(),
            epolls: Arc::default(),
            waitqueues: Arc::default(),
            misc: Arc::default(),
            template_mode: false,
            stats: KernelStats::default(),
        }
    }

    /// Enables or disables template mode (denied syscalls error).
    pub fn set_template_mode(&mut self, on: bool) {
        self.template_mode = on;
    }

    /// True if in template mode.
    pub fn is_template(&self) -> bool {
        self.template_mode
    }

    /// Aggregate counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Dentry cache.
    pub fn dentries(&self) -> impl ExactSizeIterator<Item = Dentry<'_>> {
        let (bytes, rows) = self.dentries.rows();
        rows.map(move |row: DentryRow| Dentry {
            // UTF-8 was checked when the row was written; reading it back
            // checks again only because the crate forbids `unsafe`.
            path: std::str::from_utf8(row.path.of(bytes)).unwrap_or_default(),
            inode: row.inode,
            parent: row.parent,
        })
    }

    /// Epoll instances: the guest fds each one watches.
    pub fn epolls(&self) -> impl ExactSizeIterator<Item = &[i32]> {
        self.epolls.iter()
    }

    /// Wait queues: the thread ids blocked on each.
    pub fn waitqueues(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.waitqueues.iter()
    }

    /// Opaque runtime objects (language runtime internals etc.).
    pub fn misc(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        let (bytes, spans) = self.misc.rows();
        spans.map(move |span: Span| span.of(bytes))
    }

    /// The runtime objects as views of the table's buffer, for a checkpoint:
    /// a reference count each, no copy.
    pub(crate) fn misc_shared(&self) -> impl Iterator<Item = SharedBytes> + '_ {
        let (bytes, spans) = self.misc.rows();
        spans.map(move |span: Span| span.view(bytes))
    }

    /// The dentry cache for writing; copies its rows first if an `sfork`
    /// relative still shares it, as do the three entries below. (Its bytes
    /// stay shared until an append copies them.)
    pub(crate) fn dentries_mut(&mut self) -> &mut Table<DentryRow> {
        Arc::make_mut(&mut self.dentries).rows_mut()
    }

    pub(crate) fn epolls_mut(&mut self) -> &mut Lists<i32> {
        Arc::make_mut(&mut self.epolls)
    }

    pub(crate) fn waitqueues_mut(&mut self) -> &mut Lists<u32> {
        Arc::make_mut(&mut self.waitqueues)
    }

    pub(crate) fn misc_mut(&mut self) -> &mut Table<Span> {
        Arc::make_mut(&mut self.misc).rows_mut()
    }

    /// Installs the four shared tables a restore built.
    pub(crate) fn install_tables(
        &mut self,
        dentries: RunTable<DentryRow>,
        waitqueues: Lists<u32>,
        misc: RunTable<Span>,
        epolls: Lists<i32>,
    ) {
        *Arc::make_mut(&mut self.dentries) = dentries;
        *Arc::make_mut(&mut self.waitqueues) = waitqueues;
        *Arc::make_mut(&mut self.misc) = misc;
        *Arc::make_mut(&mut self.epolls) = epolls;
    }

    /// Policy gate: dispatchers call this before executing any syscall.
    ///
    /// # Errors
    ///
    /// [`KernelError::DeniedSyscall`] for Table-1-denied calls in template
    /// mode.
    pub fn check_syscall(&mut self, name: SyscallName) -> Result<(), KernelError> {
        self.stats.syscalls += 1;
        if self.template_mode && name.classify() == SyscallClass::Denied {
            self.stats.denied += 1;
            return Err(KernelError::DeniedSyscall {
                name: name.as_str(),
            });
        }
        Ok(())
    }

    /// Total checkpointable objects in the graph (the paper's "37 838
    /// objects" figure for SPECjbb is this count).
    pub fn object_count(&self) -> u64 {
        let t = &self.tasks;
        (t.tasks().len()
            + t.tasks().iter().map(|x| x.threads.len()).sum::<usize>()
            + t.sessions().len()
            + t.namespaces().len()
            + self.vfs.mounts().len()
            + self.dentries.len()
            + self.vfs.open_fds() * 2 // File + FdSlot records
            + self.net.len()
            + self.timers.len()
            + self.epolls.len()
            + self.waitqueues.len()
            + self.misc.len()) as u64
    }

    /// Count of objects representing I/O state (deferred by Catalyzer).
    pub fn io_object_count(&self) -> u64 {
        (self.vfs.open_fds() * 2 + self.net.len() + self.epolls.len()) as u64
    }

    /// Builds the I/O manifest for a checkpoint: every open file and socket,
    /// with the `used_immediately` hint from observed usage.
    pub fn io_manifest(&self) -> Vec<IoConn> {
        let mut conns = Vec::new();
        for (_, desc) in self.vfs.iter_fds() {
            conns.push(IoConn {
                kind: imagefmt::IoConnKind::File,
                target: desc.path().to_string(),
                used_immediately: desc.used,
                writable: desc.writable,
            });
        }
        for sock in self.net.iter() {
            conns.push(IoConn {
                kind: imagefmt::IoConnKind::Socket,
                target: sock.addr().to_string(),
                // Listeners must be ready the moment the handler runs;
                // outbound client connections reconnect lazily (§3.3).
                used_immediately: sock.state == SockState::Listening,
                writable: true,
            });
        }
        conns
    }

    /// Duplicates the whole guest kernel for `sfork` (paper §4), copy-on-
    /// write like the memory under it: the VFS goes through the stateless
    /// overlay rootFS (read-only gofer fds inherited, writable grants
    /// re-granted, see [`Vfs::sfork_clone`]); the dentry, epoll, wait-queue
    /// and runtime-object tables are *shared* — one reference each, copied
    /// by whichever relative writes first, never by one that only reads;
    /// the small task, timer and socket tables are table-copied —
    /// PID/USER namespaces make the child observe identical identities —
    /// and the Sentry thread set is carried over in its merged state for
    /// the caller to expand.
    ///
    /// Charges per-object bookkeeping for the kernel-side duplication (the
    /// memory itself is duplicated CoW by the address-space layer).
    pub fn sfork_clone(
        &self,
        child_name: impl Into<String>,
        clock: &SimClock,
        model: &CostModel,
    ) -> GuestKernel {
        // Kernel bookkeeping: O(objects) but with a tiny constant — the
        // structures are reference-counted or table-copied, not re-created.
        clock.charge(simtime::SimNanos::from_nanos(8).saturating_mul(self.object_count()));
        GuestKernel {
            name: child_name.into(),
            vfs: self.vfs.sfork_clone(clock, model),
            net: self.net.clone(),
            timers: self.timers.clone(),
            tasks: self.tasks.clone(),
            sentry_threads: self.sentry_threads.clone(),
            dentries: Arc::clone(&self.dentries),
            epolls: Arc::clone(&self.epolls),
            waitqueues: Arc::clone(&self.waitqueues),
            misc: Arc::clone(&self.misc),
            template_mode: false, // children serve requests
            stats: KernelStats::default(),
        }
    }

    /// Convenience for experiments: verifies the graph is internally
    /// consistent (thread/task links, epoll fd targets, session leaders).
    ///
    /// # Errors
    ///
    /// [`KernelError::CorruptGraph`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), KernelError> {
        for session in self.tasks.sessions() {
            if !self.tasks.tasks().iter().any(|t| t.pid == session.leader) {
                return Err(KernelError::CorruptGraph {
                    detail: format!("session {} leader {} missing", session.sid, session.leader),
                });
            }
        }
        for watched in self.epolls() {
            for fd in watched {
                if !self.vfs.is_open(*fd) {
                    return Err(KernelError::CorruptGraph {
                        detail: format!("epoll watches dead fd {fd}"),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for GuestKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {}: {} objects ({} io), {} tasks, {} fds, {} socks",
            self.name,
            self.object_count(),
            self.io_object_count(),
            self.tasks.tasks().len(),
            self.vfs.open_fds(),
            self.net.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimClock, CostModel, GuestKernel) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let fs = Arc::new(
            FsServer::builder("f")
                .file("/app/bin", b"x".to_vec())
                .build(),
        );
        let kernel = GuestKernel::boot("k", fs, &clock, &model);
        (clock, model, kernel)
    }

    #[test]
    fn boot_creates_baseline_graph() {
        let (_, _, k) = setup();
        assert!(k.object_count() > 0);
        assert_eq!(k.tasks.getpid(), 1);
        assert!(!k.is_template());
        k.validate().unwrap();
    }

    #[test]
    fn template_mode_denies_denied_syscalls() {
        let (_, _, mut k) = setup();
        k.check_syscall(SyscallName::Getpid).unwrap();
        k.check_syscall(SyscallName::Ptrace).unwrap(); // allowed outside template mode
        k.set_template_mode(true);
        k.check_syscall(SyscallName::Getpid).unwrap();
        assert!(matches!(
            k.check_syscall(SyscallName::Ptrace).unwrap_err(),
            KernelError::DeniedSyscall { name: "ptrace" }
        ));
        assert_eq!(k.stats().denied, 1);
        assert_eq!(k.stats().syscalls, 4);
    }

    #[test]
    fn object_count_tracks_subsystems() {
        let (clock, model, mut k) = setup();
        let before = k.object_count();
        let fd = k.vfs.open("/app/bin", false, &clock, &model).unwrap();
        k.net.socket(&clock, &model);
        k.timers
            .arm(simtime::SimNanos::from_secs(1), simtime::SimNanos::ZERO, 1);
        k.epolls_mut().push([fd]);
        k.misc_mut().push_bytes(&[1, 2, 3]);
        // fd contributes 2 (File + FdSlot); socket, timer, epoll, misc 1 each.
        assert_eq!(k.object_count(), before + 6);
        assert_eq!(k.io_object_count(), 2 + 1 + 1);
        k.validate().unwrap();
    }

    #[test]
    fn io_manifest_reflects_usage() {
        let (clock, model, mut k) = setup();
        let fd = k.vfs.open("/app/bin", false, &clock, &model).unwrap();
        let sock = k.net.socket(&clock, &model);
        k.net.connect(sock, "db:1", &clock, &model).unwrap();
        let manifest = k.io_manifest();
        assert_eq!(manifest.len(), 2);
        assert!(!manifest[0].used_immediately, "file not read yet");
        k.vfs.read(fd, 1, &clock, &model).unwrap();
        let manifest = k.io_manifest();
        assert!(manifest[0].used_immediately);
        assert!(
            !manifest[1].used_immediately,
            "client connections reconnect lazily"
        );
        let listener = k.net.socket(&clock, &model);
        k.net
            .listen(listener, "0.0.0.0:80", &clock, &model)
            .unwrap();
        assert!(
            k.io_manifest()[2].used_immediately,
            "listeners are needed immediately"
        );
    }

    /// Strong counts of the four shared tables: dentries, epolls, wait
    /// queues, runtime objects.
    fn table_counts(k: &GuestKernel) -> [usize; 4] {
        [
            Arc::strong_count(&k.dentries),
            Arc::strong_count(&k.epolls),
            Arc::strong_count(&k.waitqueues),
            Arc::strong_count(&k.misc),
        ]
    }

    /// Which of the four tables `a` and `b` share, in [`table_counts`] order.
    fn shared_tables(a: &GuestKernel, b: &GuestKernel) -> [bool; 4] {
        [
            Arc::ptr_eq(&a.dentries, &b.dentries),
            Arc::ptr_eq(&a.epolls, &b.epolls),
            Arc::ptr_eq(&a.waitqueues, &b.waitqueues),
            Arc::ptr_eq(&a.misc, &b.misc),
        ]
    }

    /// `memsim`'s `sfork_clone_and_child_drop_cost_tables_not_pages`, one
    /// layer up: a fork, a request and a drop touch reference counts, never
    /// the 36 k objects behind them.
    #[test]
    fn sfork_clone_and_child_drop_cost_refcounts_not_objects() {
        use crate::{GraphSpec, SyscallInvocation, SyscallRet};

        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let fs = Arc::new(
            FsServer::builder("f")
                .synthetic_tree("/lib", 16, 64)
                .file("/app/handler.bin", vec![7u8; 64])
                .persistent("/var/log/function.log")
                .build(),
        );
        let mut tmpl = GuestKernel::boot("tmpl", fs, &clock, &model);
        GraphSpec::sized(37_838)
            .populate(&mut tmpl, &clock, &model)
            .unwrap();
        let inherited: Vec<i32> = tmpl.vfs.iter_fds().map(|(fd, _)| fd).collect();
        // Two more descriptors: an overlay file, so the upper map has an
        // entry to share, and a persistent grant, which a child is granted
        // anew instead of inheriting.
        let scratch = tmpl.vfs.create("/tmp/scratch", &clock, &model).unwrap();
        let log = tmpl
            .vfs
            .open("/var/log/function.log", true, &clock, &model)
            .unwrap();
        assert!(tmpl.object_count() > 36_000);

        let shares_tables = |a: &GuestKernel, b: &GuestKernel| shared_tables(a, b) == [true; 4];
        let before = (table_counts(&tmpl), tmpl.vfs.share_counts());
        assert!(before.0.iter().chain(&before.1).all(|count| *count == 1));

        // The fork: one reference per table and per inherited descriptor.
        let mut child = tmpl.sfork_clone("child", &clock, &model);
        assert!(shares_tables(&child, &tmpl));
        assert_eq!(table_counts(&tmpl), [2; 4]);
        let mut shared_fds = inherited.clone();
        shared_fds.push(scratch);
        assert_eq!(
            child.vfs.shared_with(&tmpl.vfs),
            (true, true, shared_fds.clone())
        );
        assert!(child.vfs.is_open(log), "re-granted, not dropped");

        // One request, the way `WrappedProgram::invoke_handler` issues it,
        // and a read through an inherited descriptor on top.
        let call = |k: &mut GuestKernel, invocation| k.syscall(invocation, &clock, &model).unwrap();
        for (path, writable) in [("/app/handler.bin", false), ("/var/log/function.log", true)] {
            let SyscallRet::Fd(fd) = call(&mut child, SyscallInvocation::Openat { path, writable })
            else {
                panic!("openat returns an fd");
            };
            if writable {
                let data = b"request served\n";
                call(&mut child, SyscallInvocation::Write { fd, data });
            } else {
                call(&mut child, SyscallInvocation::Read { fd, len: 32 });
            }
            call(&mut child, SyscallInvocation::Close { fd });
        }
        let sock = child.net.iter().next().unwrap().id;
        call(&mut child, SyscallInvocation::Sendmsg { sock, bytes: 256 });
        let fd = inherited[0];
        call(&mut child, SyscallInvocation::Read { fd, len: 8 });

        // Every table is still the template's; the one slot read through
        // is the child's own now, and the template's offset did not move.
        assert!(shares_tables(&child, &tmpl));
        shared_fds.retain(|shared| *shared != fd);
        assert_eq!(
            child.vfs.shared_with(&tmpl.vfs),
            (true, true, shared_fds.clone())
        );
        assert_eq!(tmpl.vfs.iter_fds().next().unwrap().1.offset, 0);

        // An overlay write copies the upper map and that slot, nothing else.
        let data = b"child";
        call(&mut child, SyscallInvocation::Write { fd: scratch, data });
        assert!(shares_tables(&child, &tmpl));
        shared_fds.retain(|shared| *shared != scratch);
        assert_eq!(child.vfs.shared_with(&tmpl.vfs), (false, true, shared_fds));
        assert_eq!(child.vfs.stat("/tmp/scratch").unwrap(), 5);
        assert_eq!(tmpl.vfs.stat("/tmp/scratch").unwrap(), 0);

        // Dropping the child gives every reference back.
        drop(child);
        assert_eq!((table_counts(&tmpl), tmpl.vfs.share_counts()), before);
    }

    /// The same rule over a template restored from a func-image, whose
    /// tables are ranges of the image's arena: a child's first write through
    /// a `*_mut` entry copies that one table and leaves the template's rows
    /// where they were, and both re-checkpoint to what the records say.
    #[test]
    fn a_restored_template_borrows_its_image_until_a_child_writes() {
        use crate::checkpoint::sealed_func_image;
        use crate::GraphSpec;

        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let fs = Arc::new(
            FsServer::builder("f")
                .synthetic_tree("/lib", 16, 64)
                .build(),
        );
        let mut source = GuestKernel::boot("source", Arc::clone(&fs), &clock, &model);
        GraphSpec::sized(5_000)
            .populate(&mut source, &clock, &model)
            .unwrap();
        let records = source.checkpoint_objects();
        let image = sealed_func_image(records.clone());
        let arena = image.iter().next().unwrap().payload_source().0;
        let arena = arena.as_ptr_range();
        let tmpl =
            GuestKernel::restore_from_records("tmpl", &image, fs, false, &clock, &model).unwrap();
        drop(image); // the kernel holds the arena on its own
        let in_arena = |k: &GuestKernel| {
            let paths = k.dentries().map(|d| d.path().as_bytes());
            k.misc().chain(paths).all(|bytes| {
                let bytes = bytes.as_ptr_range();
                arena.start <= bytes.start && bytes.end <= arena.end
            })
        };
        assert!(in_arena(&tmpl));
        assert!(tmpl.misc.is_run(), "the runtime objects are their records");
        assert!(tmpl.dentries.is_run(), "the dentries are their records");
        assert_eq!(table_counts(&tmpl), [1; 4]);

        let mut child = tmpl.sfork_clone("child", &clock, &model);
        assert_eq!(table_counts(&tmpl), [2; 4]);
        child.misc_mut().push_bytes(b"written by the child");
        assert_eq!(shared_tables(&child, &tmpl), [true, true, true, false]);
        assert_eq!(table_counts(&tmpl), [2, 2, 2, 1]);
        assert!(tmpl.misc.is_run() && !child.misc.is_run());
        assert!(in_arena(&tmpl));
        assert!(child.dentries().all(|d| {
            let path = d.path().as_bytes().as_ptr_range();
            arena.start <= path.start && path.end <= arena.end
        }));

        // The child's first dentry write copies that table alone: the
        // template keeps its run and still reads every row in the arena.
        let child_dentry = |k: &mut GuestKernel| {
            let table = k.dentries_mut();
            let path = table.append(b"/proc/child");
            table.push(DentryRow {
                path,
                inode: 7,
                parent: Some(0),
            });
        };
        child_dentry(&mut child);
        assert_eq!(shared_tables(&child, &tmpl), [false, true, true, false]);
        assert_eq!(table_counts(&tmpl), [1, 2, 2, 1]);
        assert!(tmpl.dentries.is_run() && !child.dentries.is_run());
        assert!(in_arena(&tmpl));
        assert_eq!(child.dentries().len(), tmpl.dentries().len() + 1);
        assert!(child.dentries().zip(tmpl.dentries()).all(|(c, t)| c == t));

        // A deep copy given the same write is the oracle for the child; the
        // template still reads back its records.
        let mut oracle = GuestKernel::restore_from_records(
            "oracle",
            &records,
            Arc::clone(child.vfs.server()),
            false,
            &clock,
            &model,
        )
        .unwrap();
        assert!(!oracle.misc.is_run(), "owned records lie in no image");
        assert!(!oracle.dentries.is_run());
        oracle.misc_mut().push_bytes(b"written by the child");
        child_dentry(&mut oracle);
        assert_eq!(tmpl.checkpoint_objects(), records);
        assert_eq!(child.checkpoint_objects(), oracle.checkpoint_objects());
    }

    /// Runtime objects that do not lie back to back in the image — one
    /// moved to the front — are rows from the first one out of place, and
    /// read back in record order all the same.
    #[test]
    fn a_broken_run_of_runtime_objects_becomes_rows() {
        use crate::checkpoint::sealed_func_image;

        let (clock, model, mut k) = setup();
        for i in 0..5u8 {
            k.misc_mut().push_bytes(&[i; 3]);
        }
        let mut records = k.checkpoint_objects();
        let first = records
            .iter()
            .position(|r| r.kind == imagefmt::ObjKind::Misc)
            .unwrap();
        let moved = records.remove(first);
        records.insert(0, moved);
        let image = sealed_func_image(records.clone());
        let restored = GuestKernel::restore_from_records(
            "r",
            &image,
            Arc::clone(k.vfs.server()),
            false,
            &clock,
            &model,
        )
        .unwrap();
        assert!(!restored.misc.is_run());
        let want = [[0u8; 3], [1; 3], [2; 3], [3; 3], [4; 3]];
        assert!(restored.misc().eq(want.iter().map(|row| &row[..])));
        assert_eq!(restored.checkpoint_objects().len(), records.len());
    }

    #[test]
    fn validate_catches_dead_epoll_target() {
        let (_, _, mut k) = setup();
        k.epolls_mut().push([42]);
        assert!(matches!(
            k.validate().unwrap_err(),
            KernelError::CorruptGraph { .. }
        ));
    }
}
