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

use std::collections::HashMap;
use std::sync::Arc;

use imagefmt::varint;
use imagefmt::{ImageError, ObjKind, ObjRecord, ObjView};
use simtime::{CostModel, SimClock};

use crate::gofer::FsServer;
use crate::kernel::{Dentry, EpollInstance, GuestKernel, WaitQueue};
use crate::net::SockState;
use crate::tasks::{GuestThread, NamespaceInfo, Session, Task};
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
        let mut task_ids: HashMap<u32, u64> = HashMap::new();
        let mut thread_ids: HashMap<u32, u64> = HashMap::new();
        for task in self.tasks.tasks() {
            task_ids.insert(task.pid, id());
            for th in &task.threads {
                thread_ids.insert(th.tid, id());
            }
        }
        let session_ids: Vec<u64> = self.tasks.sessions().iter().map(|_| id()).collect();
        let ns_ids: Vec<u64> = self.tasks.namespaces().iter().map(|_| id()).collect();
        let mount_ids: Vec<u64> = self.vfs.mounts().iter().map(|_| id()).collect();
        let dentry_ids: Vec<u64> = self.dentries().iter().map(|_| id()).collect();
        let timer_ids: Vec<u64> = self.timers.iter().map(|_| id()).collect();
        let wq_ids: Vec<u64> = self.waitqueues().iter().map(|_| id()).collect();
        let misc_ids: Vec<u64> = self.misc().iter().map(|_| id()).collect();
        let fds: Vec<(i32, crate::vfs::FileDesc)> =
            self.vfs.iter_fds().map(|(fd, d)| (fd, d.clone())).collect();
        let file_ids: Vec<u64> = fds.iter().map(|_| id()).collect();
        let fdslot_ids: Vec<u64> = fds.iter().map(|_| id()).collect();
        let mut fdslot_by_fd: HashMap<i32, u64> = HashMap::new();
        for ((fd, _), slot_id) in fds.iter().zip(&fdslot_ids) {
            fdslot_by_fd.insert(*fd, *slot_id);
        }
        let sock_ids: HashMap<u64, u64> = self.net.iter().map(|s| (s.id, id())).collect();
        let epoll_ids: Vec<u64> = self.epolls().iter().map(|_| id()).collect();

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
            varint::put_bytes(&mut payload, task.name.as_bytes());
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
            varint::put_bytes(&mut p, ns.kind.as_bytes());
            varint::put_u64(&mut p, u64::from(ns.init_id));
            out.push(ObjRecord::new(*ns_id, ObjKind::Namespace, 0, vec![], p));
        }
        // --- mounts ---
        for (m, m_id) in self.vfs.mounts().iter().zip(&mount_ids) {
            let mut p = Vec::new();
            varint::put_bytes(&mut p, m.source.as_bytes());
            varint::put_bytes(&mut p, m.target.as_bytes());
            varint::put_bytes(&mut p, m.fs_type.as_bytes());
            out.push(ObjRecord::new(*m_id, ObjKind::Mount, 0, vec![], p));
        }
        // --- dentries ---
        for (d, d_id) in self.dentries().iter().zip(&dentry_ids) {
            let mut p = Vec::new();
            varint::put_bytes(&mut p, d.path.as_bytes());
            varint::put_u64(&mut p, d.inode);
            varint::put_u64(&mut p, d.parent.map(|x| u64::from(x) + 1).unwrap_or(0));
            let refs = d
                .parent
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
        for (wq, wq_id) in self.waitqueues().iter().zip(&wq_ids) {
            let mut p = Vec::new();
            varint::put_u64(&mut p, len_u64(wq.waiters.len()));
            for w in &wq.waiters {
                varint::put_u64(&mut p, u64::from(*w));
            }
            let refs = wq
                .waiters
                .iter()
                .filter_map(|w| thread_ids.get(w).copied())
                .collect();
            out.push(ObjRecord::new(*wq_id, ObjKind::WaitQueue, 0, refs, p));
        }
        // --- misc runtime objects ---
        for (blob, m_id) in self.misc().iter().zip(&misc_ids) {
            out.push(ObjRecord::new(
                *m_id,
                ObjKind::Misc,
                0,
                vec![],
                blob.clone(),
            ));
        }
        // --- files + fd slots (I/O state) ---
        for (((fd, desc), f_id), s_id) in fds.iter().zip(&file_ids).zip(&fdslot_ids) {
            let mut p = Vec::new();
            varint::put_bytes(&mut p, desc.path.as_bytes());
            varint::put_u64(&mut p, desc.offset);
            let flags = u32::from(desc.writable) | (u32::from(desc.used) << 1);
            out.push(ObjRecord::new(*f_id, ObjKind::File, flags, vec![], p));
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
            varint::put_bytes(&mut p, sock.addr.as_bytes());
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
        for (ep, e_id) in self.epolls().iter().zip(&epoll_ids) {
            let mut p = Vec::new();
            varint::put_u64(&mut p, len_u64(ep.watched.len()));
            let mut refs = Vec::new();
            for fd in &ep.watched {
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
    /// (`&imagefmt::flat::RestoredRecords`) — one body reads both.
    ///
    /// Charges [`simtime::ObjectCosts::recover_per_object_non_io`] for every
    /// non-I/O object (the paper's "Recover Kernel" redo work). With
    /// `eager_io`, every file is re-opened and every socket reconnected on
    /// the spot (gVisor-restore); otherwise I/O state is installed
    /// disconnected for on-demand reconnection (Catalyzer).
    ///
    /// # Errors
    ///
    /// [`KernelError::CorruptGraph`] on malformed payloads or dangling
    /// references.
    pub fn restore_from_records<'a>(
        name: impl Into<String>,
        records: impl IntoIterator<Item = impl Into<ObjView<'a>>>,
        fs: Arc<FsServer>,
        eager_io: bool,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<GuestKernel, KernelError> {
        let bad = |detail: String| KernelError::CorruptGraph { detail };
        let imgerr = |e: ImageError| KernelError::CorruptGraph {
            detail: format!("payload: {e}"),
        };
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
        // Validates in place; the single unavoidable copy builds the owned
        // String, with no intermediate Vec.
        let str_of = |b: &[u8], what: &str| {
            std::str::from_utf8(b)
                .map(str::to_string)
                .map_err(|_| bad(format!("{what} not utf-8")))
        };

        let mut kernel = GuestKernel::empty_shell(name, fs);
        // The root mount is re-created by Vfs::new; drop it so the restored
        // mount table matches the checkpoint exactly.
        let mut restored_mounts = Vec::new();
        let mut tasks_by_pid: HashMap<u32, Task> = HashMap::new();
        let mut task_order: Vec<u32> = Vec::new();
        let mut restored_fds: Vec<(String, bool, u64, bool)> = Vec::new();
        // The four shared tables are filled here and installed once below:
        // reaching one through the kernel is an `Arc::make_mut` a push.
        let (mut dentries, mut waitqueues, mut misc, mut epolls) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());

        let mut non_io_objects: u64 = 0;
        for rec in records {
            let rec: ObjView<'a> = rec.into();
            let p = rec.payload();
            let mut pos = 0usize;
            if !rec.kind.is_io_state() {
                non_io_objects += 1;
            }
            match rec.kind {
                ObjKind::Task => {
                    let pid = u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "task pid")?;
                    let ppid = u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "task ppid")?;
                    let sid = u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "task sid")?;
                    let name =
                        str_of(varint::get_bytes(p, &mut pos).map_err(imgerr)?, "task name")?;
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
                    let tid = u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "thread tid")?;
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
                    let sid = u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "session sid")?;
                    let leader = u32_of(
                        varint::get_u64(p, &mut pos).map_err(imgerr)?,
                        "session leader",
                    )?;
                    kernel
                        .tasks
                        .install_restored_session(Session { sid, leader });
                }
                ObjKind::Namespace => {
                    let kind = str_of(varint::get_bytes(p, &mut pos).map_err(imgerr)?, "ns kind")?;
                    let init_id =
                        u32_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "ns init id")?;
                    kernel
                        .tasks
                        .install_restored_namespace(NamespaceInfo { kind, init_id });
                }
                ObjKind::Mount => {
                    let read = |pos: &mut usize| -> Result<String, KernelError> {
                        str_of(varint::get_bytes(p, pos).map_err(imgerr)?, "mount field")
                    };
                    restored_mounts.push(crate::vfs::MountInfo {
                        source: read(&mut pos)?,
                        target: read(&mut pos)?,
                        fs_type: read(&mut pos)?,
                    });
                }
                ObjKind::Dentry => {
                    let path = str_of(
                        varint::get_bytes(p, &mut pos).map_err(imgerr)?,
                        "dentry path",
                    )?;
                    let inode = varint::get_u64(p, &mut pos).map_err(imgerr)?;
                    let parent = varint::get_u64(p, &mut pos).map_err(imgerr)?;
                    dentries.push(Dentry {
                        path,
                        inode,
                        parent: if parent == 0 {
                            None
                        } else {
                            Some(u32_of(parent - 1, "dentry parent")?)
                        },
                    });
                }
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
                    let n = usize_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "wq count")?;
                    // Capacity is clamped: a corrupt count fails at the first
                    // missing varint instead of reserving gigabytes.
                    let mut waiters = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        waiters.push(u32_of(
                            varint::get_u64(p, &mut pos).map_err(imgerr)?,
                            "wq waiter",
                        )?);
                    }
                    waitqueues.push(WaitQueue { waiters });
                }
                ObjKind::Misc => {
                    misc.push(rec.payload_shared());
                }
                ObjKind::File => {
                    let path =
                        str_of(varint::get_bytes(p, &mut pos).map_err(imgerr)?, "file path")?;
                    let offset = varint::get_u64(p, &mut pos).map_err(imgerr)?;
                    let writable = rec.flags & 1 != 0;
                    let used = rec.flags & 2 != 0;
                    restored_fds.push((path, writable, offset, used));
                }
                ObjKind::FdSlot => { /* slot numbering is restored via order */ }
                ObjKind::Socket => {
                    let addr = str_of(
                        varint::get_bytes(p, &mut pos).map_err(imgerr)?,
                        "socket addr",
                    )?;
                    let state = match varint::get_u64(p, &mut pos).map_err(imgerr)? {
                        0 => SockState::Created,
                        1 => SockState::Listening,
                        2 => SockState::Connected,
                        other => return Err(bad(format!("socket state {other}"))),
                    };
                    kernel.net.install_restored(&addr, state);
                }
                ObjKind::Epoll => {
                    let n = usize_of(varint::get_u64(p, &mut pos).map_err(imgerr)?, "epoll count")?;
                    let mut watched = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        watched.push(i32_of(
                            varint::get_u64(p, &mut pos).map_err(imgerr)?,
                            "epoll fd",
                        )?);
                    }
                    epolls.push(EpollInstance { watched });
                }
                ObjKind::MemRegion => { /* memory is restored via the EPT */ }
            }
        }

        *kernel.dentries_mut() = dentries;
        *kernel.waitqueues_mut() = waitqueues;
        *kernel.misc_mut() = misc;
        *kernel.epolls_mut() = epolls;
        for pid in task_order {
            let task = tasks_by_pid
                .remove(&pid)
                .ok_or_else(|| bad(format!("task {pid} appears twice in the checkpoint")))?;
            kernel.tasks.install_restored_task(task);
        }
        if !restored_mounts.is_empty() {
            kernel.vfs.set_mounts(restored_mounts);
        }
        for (path, writable, offset, _used) in &restored_fds {
            kernel
                .vfs
                .install_restored_fd(path, *writable, *offset)
                .map_err(|e| bad(format!("fd install: {e}")))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::GraphSpec;
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
        let idset: std::collections::HashSet<u64> = ids.into_iter().collect();
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
        assert_eq!(restored.dentries(), k.dentries());
        assert_eq!(restored.misc(), k.misc());
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
