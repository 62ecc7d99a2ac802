//! The executable syscall dispatcher: guest programs drive the kernel
//! through [`SyscallInvocation`]s, each gated by the Table-1 policy
//! (`template mode` denies the Denied class) and charged the Sentry's
//! syscall-interposition cost.

use memsim::SharedBytes;
use simtime::{CostModel, SimClock, SimNanos};

use crate::syscalls::SyscallName;
use crate::{GuestKernel, KernelError};

/// A concrete syscall with its arguments.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SyscallInvocation<'a> {
    /// `openat(2)`.
    Openat {
        /// Path to open.
        path: &'a str,
        /// Whether to open for writing.
        writable: bool,
    },
    /// `read(2)`.
    Read {
        /// Descriptor.
        fd: i32,
        /// Bytes requested.
        len: usize,
    },
    /// `write(2)`.
    Write {
        /// Descriptor.
        fd: i32,
        /// Data to write.
        data: &'a [u8],
    },
    /// `close(2)`.
    Close {
        /// Descriptor.
        fd: i32,
    },
    /// `dup(2)`.
    Dup {
        /// Descriptor.
        fd: i32,
    },
    /// `getpid(2)`.
    Getpid,
    /// `clone(2)` creating a thread in task `pid`.
    Clone {
        /// Task to add the thread to.
        pid: u32,
    },
    /// `socket(2)`.
    Socket,
    /// `listen(2)` (bind + listen on `addr`).
    Listen {
        /// Socket id.
        sock: u64,
        /// Address to listen on.
        addr: &'a str,
    },
    /// `accept(2)`.
    Accept {
        /// Listening socket id.
        sock: u64,
        /// Peer label.
        peer: &'a str,
    },
    /// `sendmsg(2)`.
    Sendmsg {
        /// Socket id.
        sock: u64,
        /// Payload size.
        bytes: usize,
    },
    /// `shutdown(2)`.
    Shutdown {
        /// Socket id.
        sock: u64,
    },
    /// `nanosleep(2)`.
    Nanosleep {
        /// Sleep duration.
        duration: SimNanos,
    },
    /// `setsid(2)` for task `pid`.
    Setsid {
        /// Calling task.
        pid: u32,
    },
    /// `ptrace(2)` — representative denied syscall.
    Ptrace,
}

/// What a dispatched syscall returned.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SyscallRet {
    /// A file descriptor.
    Fd(i32),
    /// A socket id.
    Sock(u64),
    /// Data read.
    Data(SharedBytes),
    /// Bytes written.
    Written(usize),
    /// A pid / tid / sid.
    Id(u32),
    /// Nothing.
    Unit,
}

impl<'a> SyscallInvocation<'a> {
    /// The Table-1 name of this invocation (drives policy and accounting).
    pub fn name(&self) -> SyscallName {
        match self {
            SyscallInvocation::Openat { .. } => SyscallName::Openat,
            SyscallInvocation::Read { .. } => SyscallName::Read,
            SyscallInvocation::Write { .. } => SyscallName::Write,
            SyscallInvocation::Close { .. } => SyscallName::Close,
            SyscallInvocation::Dup { .. } => SyscallName::Dup,
            SyscallInvocation::Getpid => SyscallName::Getpid,
            SyscallInvocation::Clone { .. } => SyscallName::Clone,
            SyscallInvocation::Socket => SyscallName::Poll, // socket(2) is outside Table 1; account as VFS plumbing
            SyscallInvocation::Listen { .. } => SyscallName::Listen,
            SyscallInvocation::Accept { .. } => SyscallName::Accept,
            SyscallInvocation::Sendmsg { .. } => SyscallName::Sendmsg,
            SyscallInvocation::Shutdown { .. } => SyscallName::Shutdown,
            SyscallInvocation::Nanosleep { .. } => SyscallName::Nanosleep,
            SyscallInvocation::Setsid { .. } => SyscallName::Setsid,
            SyscallInvocation::Ptrace => SyscallName::Ptrace,
        }
    }
}

impl GuestKernel {
    /// Dispatches one syscall: policy gate, then execution against the
    /// owning subsystem, with all costs charged.
    ///
    /// # Errors
    ///
    /// [`KernelError::DeniedSyscall`] under template mode for denied calls;
    /// otherwise whatever the subsystem returns.
    pub fn syscall(
        &mut self,
        invocation: SyscallInvocation<'_>,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<SyscallRet, KernelError> {
        self.check_syscall(invocation.name())?;
        match invocation {
            SyscallInvocation::Openat { path, writable } => self
                .vfs
                .open(path, writable, clock, model)
                .map(SyscallRet::Fd),
            SyscallInvocation::Read { fd, len } => {
                self.vfs.read(fd, len, clock, model).map(SyscallRet::Data)
            }
            SyscallInvocation::Write { fd, data } => self
                .vfs
                .write(fd, data, clock, model)
                .map(SyscallRet::Written),
            SyscallInvocation::Close { fd } => {
                self.vfs.close(fd, clock, model).map(|()| SyscallRet::Unit)
            }
            SyscallInvocation::Dup { fd } => self.vfs.dup(fd, clock, model).map(SyscallRet::Fd),
            SyscallInvocation::Getpid => {
                clock.charge(model.host.syscall_base);
                Ok(SyscallRet::Id(self.tasks.getpid()))
            }
            SyscallInvocation::Clone { pid } => self
                .tasks
                .spawn_thread(pid, clock, model)
                .map(SyscallRet::Id),
            SyscallInvocation::Socket => Ok(SyscallRet::Sock(self.net.socket(clock, model))),
            SyscallInvocation::Listen { sock, addr } => self
                .net
                .listen(sock, addr, clock, model)
                .map(|()| SyscallRet::Unit),
            SyscallInvocation::Accept { sock, peer } => self
                .net
                .accept(sock, peer, clock, model)
                .map(SyscallRet::Sock),
            SyscallInvocation::Sendmsg { sock, bytes } => self
                .net
                .send(sock, bytes, clock, model)
                .map(|()| SyscallRet::Unit),
            SyscallInvocation::Shutdown { sock } => self
                .net
                .shutdown(sock, clock, model)
                .map(|()| SyscallRet::Unit),
            SyscallInvocation::Nanosleep { duration } => {
                clock.charge(model.host.syscall_base.saturating_add(duration));
                Ok(SyscallRet::Unit)
            }
            SyscallInvocation::Setsid { pid } => {
                clock.charge(model.host.syscall_base);
                self.tasks.setsid(pid).map(SyscallRet::Id)
            }
            SyscallInvocation::Ptrace => {
                unreachable!(
                    "denied syscalls never pass the policy gate in template mode; \
                              outside template mode ptrace is unimplemented"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gofer::FsServer;
    use std::sync::Arc;

    fn kernel() -> (SimClock, CostModel, GuestKernel) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let fs = Arc::new(
            FsServer::builder("d")
                .file("/app/bin", b"payload".to_vec())
                .build(),
        );
        (
            clock.clone(),
            model.clone(),
            GuestKernel::boot("d", fs, &clock, &model),
        )
    }

    #[test]
    fn file_lifecycle_through_the_dispatcher() {
        let (clock, model, mut k) = kernel();
        let fd = match k
            .syscall(
                SyscallInvocation::Openat {
                    path: "/app/bin",
                    writable: false,
                },
                &clock,
                &model,
            )
            .unwrap()
        {
            SyscallRet::Fd(fd) => fd,
            other => panic!("{other:?}"),
        };
        let data = match k
            .syscall(SyscallInvocation::Read { fd, len: 7 }, &clock, &model)
            .unwrap()
        {
            SyscallRet::Data(d) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(&data[..], b"payload");
        let dup = k
            .syscall(SyscallInvocation::Dup { fd }, &clock, &model)
            .unwrap();
        assert!(matches!(dup, SyscallRet::Fd(d) if d != fd));
        k.syscall(SyscallInvocation::Close { fd }, &clock, &model)
            .unwrap();
        assert!(k
            .syscall(SyscallInvocation::Read { fd, len: 1 }, &clock, &model)
            .is_err());
    }

    #[test]
    fn network_lifecycle_through_the_dispatcher() {
        let (clock, model, mut k) = kernel();
        let sock = match k
            .syscall(SyscallInvocation::Socket, &clock, &model)
            .unwrap()
        {
            SyscallRet::Sock(s) => s,
            other => panic!("{other:?}"),
        };
        k.syscall(
            SyscallInvocation::Listen {
                sock,
                addr: "0.0.0.0:80",
            },
            &clock,
            &model,
        )
        .unwrap();
        let conn = match k
            .syscall(
                SyscallInvocation::Accept {
                    sock,
                    peer: "10.0.0.1:5",
                },
                &clock,
                &model,
            )
            .unwrap()
        {
            SyscallRet::Sock(s) => s,
            other => panic!("{other:?}"),
        };
        k.syscall(
            SyscallInvocation::Sendmsg {
                sock: conn,
                bytes: 64,
            },
            &clock,
            &model,
        )
        .unwrap();
        k.syscall(SyscallInvocation::Shutdown { sock: conn }, &clock, &model)
            .unwrap();
    }

    #[test]
    fn identity_and_time_calls() {
        let (clock, model, mut k) = kernel();
        assert_eq!(
            k.syscall(SyscallInvocation::Getpid, &clock, &model)
                .unwrap(),
            SyscallRet::Id(1)
        );
        let tid = k
            .syscall(SyscallInvocation::Clone { pid: 1 }, &clock, &model)
            .unwrap();
        assert!(matches!(tid, SyscallRet::Id(t) if t > 1));
        let before = clock.now();
        k.syscall(
            SyscallInvocation::Nanosleep {
                duration: SimNanos::from_millis(5),
            },
            &clock,
            &model,
        )
        .unwrap();
        assert!(clock.now() >= before.saturating_add(SimNanos::from_millis(5)));
        let sid = k
            .syscall(SyscallInvocation::Setsid { pid: 1 }, &clock, &model)
            .unwrap();
        assert_eq!(sid, SyscallRet::Id(1));
    }

    #[test]
    fn template_mode_denies_through_the_dispatcher() {
        let (clock, model, mut k) = kernel();
        k.set_template_mode(true);
        assert!(matches!(
            k.syscall(SyscallInvocation::Ptrace, &clock, &model)
                .unwrap_err(),
            KernelError::DeniedSyscall { name: "ptrace" }
        ));
        // Allowed calls still work in template mode.
        k.syscall(SyscallInvocation::Getpid, &clock, &model)
            .unwrap();
    }

    #[test]
    fn syscall_counter_tracks_dispatches() {
        let (clock, model, mut k) = kernel();
        let before = k.stats().syscalls;
        k.syscall(SyscallInvocation::Getpid, &clock, &model)
            .unwrap();
        k.syscall(SyscallInvocation::Socket, &clock, &model)
            .unwrap();
        assert_eq!(k.stats().syscalls, before + 2);
    }
}
