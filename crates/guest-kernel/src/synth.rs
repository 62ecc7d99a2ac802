//! Synthesizing realistic kernel object graphs.
//!
//! Language runtimes create wildly different amounts of guest-kernel state
//! during initialization: a C hello-world leaves a few hundred objects, a
//! JVM running SPECjbb leaves 37 838 (paper §2.2). [`GraphSpec`] drives the
//! live subsystems (never raw record injection) so the synthesized kernel is
//! a *valid* kernel: everything it creates can be checkpointed, restored,
//! validated, and exercised.

use std::fmt::Write;

use simtime::{CostModel, SimClock, SimNanos};

use crate::kernel::{DentryRow, GuestKernel};
use crate::KernelError;

/// How much state to synthesize into a kernel. Counts are *additional* to
/// whatever the kernel already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphSpec {
    /// Extra tasks to spawn (children of init).
    pub extra_tasks: u32,
    /// Threads to add to each extra task.
    pub threads_per_task: u32,
    /// Dentry-cache entries.
    pub dentries: u32,
    /// Files to open (paths cycle over the FS server's rootfs).
    pub open_files: u32,
    /// Connected sockets.
    pub sockets: u32,
    /// Armed timers.
    pub timers: u32,
    /// Wait queues (each with up to 3 waiters).
    pub waitqueues: u32,
    /// Epoll instances (each watching one open fd, if any).
    pub epolls: u32,
    /// Opaque runtime objects.
    pub misc_objects: u32,
    /// Payload bytes per misc object.
    pub misc_payload: u32,
}

impl GraphSpec {
    /// A spec whose populated kernel lands close to `target` total objects,
    /// with proportions resembling a managed-runtime process (mostly misc
    /// runtime objects and dentries, some threads/timers, a minority of I/O).
    pub fn sized(target: u64) -> GraphSpec {
        let t = target as f64;
        GraphSpec {
            extra_tasks: 2,
            threads_per_task: ((t / 4_000.0).ceil() as u32).clamp(1, 64),
            dentries: (t * 0.18) as u32,
            open_files: ((t * 0.012) as u32).max(1),
            sockets: ((t * 0.003) as u32).max(1),
            timers: ((t * 0.01) as u32).max(1),
            waitqueues: (t * 0.02) as u32,
            epolls: 1,
            misc_objects: (t * 0.72) as u32,
            misc_payload: 32,
        }
    }

    /// Populates `kernel` through its live subsystems.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (e.g. fd exhaustion when `open_files`
    /// exceeds the table size).
    pub fn populate(
        &self,
        kernel: &mut GuestKernel,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        let init_pid = kernel.tasks.getpid();
        for i in 0..self.extra_tasks {
            let pid = kernel
                .tasks
                .spawn_task(init_pid, &format!("worker-{i}"), clock, model);
            for _ in 0..self.threads_per_task {
                kernel.tasks.spawn_thread(pid, clock, model)?;
            }
        }
        let dentries = kernel.dentries_mut();
        let mut path = String::new();
        for i in 0..self.dentries {
            path.clear();
            let _ = write!(path, "/proc/cache/entry-{i}");
            let span = dentries.append(path.as_bytes());
            dentries.push(DentryRow {
                path: span,
                inode: 0x1000 + u64::from(i),
                parent: if i == 0 { None } else { Some(i - 1) },
            });
        }
        let paths: Vec<String> = kernel.vfs.server().paths().map(str::to_string).collect();
        let mut opened = Vec::new();
        for i in 0..self.open_files {
            let path = match paths.get(i as usize % paths.len().max(1)) {
                Some(p) => p.clone(),
                None => break,
            };
            opened.push(kernel.vfs.open(&path, false, clock, model)?);
        }
        for i in 0..self.sockets {
            let s = kernel.net.socket(clock, model);
            kernel
                .net
                .connect(s, &format!("10.0.0.{}:6379", i % 250), clock, model)?;
        }
        for i in 0..self.timers {
            kernel.timers.arm(
                SimNanos::from_millis(10 + u64::from(i)),
                if i % 2 == 0 {
                    SimNanos::from_millis(50)
                } else {
                    SimNanos::ZERO
                },
                init_pid,
            );
        }
        let tids: Vec<u32> = kernel
            .tasks
            .tasks()
            .iter()
            .flat_map(|t| t.threads.iter().map(|th| th.tid))
            .collect();
        let waitqueues = kernel.waitqueues_mut();
        for i in 0..self.waitqueues {
            let waiters = tids.iter().skip(i as usize % tids.len().max(1)).take(3);
            waitqueues.push(waiters.copied());
        }
        let epolls = kernel.epolls_mut();
        for _ in 0..self.epolls {
            epolls.push(opened.first().copied());
        }
        let misc = kernel.misc_mut();
        let mut blob = Vec::with_capacity(self.misc_payload as usize);
        for i in 0..self.misc_objects {
            blob.clear();
            blob.extend((0..self.misc_payload as usize).map(|j| (i as usize + j) as u8));
            misc.push_bytes(&blob);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gofer::FsServer;
    use std::sync::Arc;

    fn fresh_kernel() -> (SimClock, CostModel, GuestKernel) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let fs = Arc::new(
            FsServer::builder("f")
                .synthetic_tree("/lib", 16, 64)
                .build(),
        );
        let k = GuestKernel::boot("synth", fs, &clock, &model);
        (clock, model, k)
    }

    #[test]
    fn sized_spec_hits_target_within_tolerance() {
        for target in [500u64, 5_000, 37_838] {
            let (clock, model, mut k) = fresh_kernel();
            let baseline = k.object_count();
            GraphSpec::sized(target)
                .populate(&mut k, &clock, &model)
                .unwrap();
            let total = k.object_count();
            let lo = (target as f64 * 0.9) as u64;
            let hi = (target as f64 * 1.1) as u64 + baseline + 64;
            assert!(
                (lo..=hi).contains(&total),
                "target {target}: got {total} objects"
            );
            k.validate().unwrap();
        }
    }

    #[test]
    fn populated_kernel_round_trips_through_checkpoint() {
        let (clock, model, mut k) = fresh_kernel();
        GraphSpec::sized(2_000)
            .populate(&mut k, &clock, &model)
            .unwrap();
        let records = k.checkpoint_objects();
        assert_eq!(records.len() as u64, k.object_count());
        let restored = GuestKernel::restore_from_records(
            "r",
            &records,
            Arc::clone(k.vfs.server()),
            false,
            &clock,
            &model,
        )
        .unwrap();
        assert_eq!(restored.object_count(), k.object_count());
    }

    #[test]
    fn io_fraction_is_minority() {
        let (clock, model, mut k) = fresh_kernel();
        GraphSpec::sized(10_000)
            .populate(&mut k, &clock, &model)
            .unwrap();
        let io = k.io_object_count() as f64;
        let total = k.object_count() as f64;
        assert!(io / total < 0.2, "io fraction {}", io / total);
        assert!(io > 0.0);
    }

    #[test]
    fn default_spec_adds_nothing() {
        let (clock, model, mut k) = fresh_kernel();
        let before = k.object_count();
        GraphSpec::default()
            .populate(&mut k, &clock, &model)
            .unwrap();
        assert_eq!(k.object_count(), before);
    }
}
