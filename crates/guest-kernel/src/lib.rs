//! A gVisor-Sentry-like guest kernel for the Catalyzer reproduction.
//!
//! gVisor runs each sandbox as a user-space kernel (the *Sentry*) plus an I/O
//! companion process (the *Gofer*). The Sentry owns all guest system state —
//! tasks, threads, mounts, dentries, open files, sockets, timers, sessions,
//! namespaces — and it is exactly this state (37 838 objects for SPECjbb,
//! paper §2.2) that checkpoint/restore must persist and re-establish.
//!
//! This crate provides:
//!
//! - [`GuestKernel`]: the typed object graph plus live subsystems
//!   ([`vfs`], [`net`], [`timers`], [`tasks`]) driven through a
//!   [`SyscallInvocation`] dispatcher with per-call cost accounting;
//! - [`gofer::FsServer`]: the per-function FS server backing the overlay
//!   rootfs (paper §4.2) with read-only fd grants and write-through log fds;
//! - [`threads::SentryThreads`]: the sandbox process's own (Golang) thread
//!   set with the *transient single-thread* merge/expand protocol (§4.1);
//! - [`syscalls::classify`]: the paper's Table 1 — which syscalls are
//!   allowed, handled, or denied in a template sandbox;
//! - checkpoint/restore to and from [`imagefmt`] object records, with
//!   deferred (on-demand) I/O reconnection (§3.3).
//!
//! # Example
//!
//! ```
//! use guest_kernel::{gofer::FsServer, GuestKernel};
//! use simtime::{CostModel, SimClock};
//! use std::sync::Arc;
//!
//! let model = CostModel::experimental_machine();
//! let clock = SimClock::new();
//! let fs = FsServer::builder("demo-fn")
//!     .file("/app/handler.bin", b"elf".to_vec())
//!     .build();
//! let mut kernel = GuestKernel::boot("demo", Arc::new(fs), &clock, &model);
//! let fd = kernel.vfs.open("/app/handler.bin", false, &clock, &model)?;
//! let data = kernel.vfs.read(fd, 3, &clock, &model)?;
//! assert_eq!(&data[..], b"elf");
//! # Ok::<(), guest_kernel::KernelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod checkpoint;
mod dispatch;
mod error;
pub mod gofer;
mod kernel;
pub mod net;
pub mod synth;
pub mod syscalls;
mod table;
pub mod tasks;
pub mod threads;
pub mod timers;
pub mod vfs;

pub use dispatch::{SyscallInvocation, SyscallRet};
pub use error::KernelError;
pub use kernel::{GuestKernel, KernelStats};
pub use synth::GraphSpec;
