//! The sandbox process's own (Golang) threads and the **transient
//! single-thread** protocol (paper §4.1, Fig. 9b).
//!
//! gVisor's Sentry is a Go program: its host threads fall into three
//! categories — *runtime* threads (GC, sysmon, preemption), *scheduling*
//! threads (the `M`s multiplexing goroutines), and *blocking* threads
//! (dedicated to goroutines stuck in blocking syscalls). Plain `fork` only
//! carries one thread into the child, so Catalyzer modifies the Go runtime
//! to temporarily **merge** all threads into a single `m0`: runtime threads
//! save their contexts to memory and exit; scheduling is configured down to
//! one `M`; blocking threads observe a time-out, save, and exit. After
//! `sfork`, the child **expands** back to the full set from the saved
//! contexts.

use simtime::{CostModel, SimClock, SimNanos};

use crate::KernelError;

/// Category of a Sentry host thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadCategory {
    /// Go runtime service thread (GC, sysmon, preemption).
    Runtime,
    /// Scheduling thread (`M`) running goroutines.
    Scheduling,
    /// Thread dedicated to a goroutine blocked in a syscall.
    Blocking,
}

/// One Sentry host thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentryThread {
    /// Host thread id.
    pub htid: u32,
    /// Category.
    pub category: ThreadCategory,
    /// Opaque saved context digest.
    pub context: u64,
    /// Blocking threads carry the time-out that lets them observe the merge
    /// request (paper: "we add a time-out in all blocking threads").
    pub block_timeout: Option<SimNanos>,
}

/// Thread-set mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadMode {
    /// Normal multi-threaded operation.
    Multi,
    /// Merged into the single `m0` (ready for `sfork`).
    TransientSingle,
}

/// The Sentry's host thread set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentryThreads {
    mode: ThreadMode,
    /// Live threads. In `TransientSingle` mode this is exactly `[m0]`.
    live: Vec<SentryThread>,
    /// Saved contexts of merged threads, kept in memory for re-expansion.
    saved: Vec<SentryThread>,
    next_htid: u32,
}

impl SentryThreads {
    /// The standard gVisor-like thread set: `m0`, `sched - 1` additional
    /// scheduling threads, 3 runtime threads, and `blocking` blocked threads.
    pub fn standard(sched: usize, blocking: usize) -> SentryThreads {
        let mut set = SentryThreads {
            mode: ThreadMode::Multi,
            live: Vec::new(),
            saved: Vec::new(),
            next_htid: 1,
        };
        set.push(ThreadCategory::Scheduling, None); // m0
        for _ in 1..sched.max(1) {
            set.push(ThreadCategory::Scheduling, None);
        }
        for _ in 0..3 {
            set.push(ThreadCategory::Runtime, None);
        }
        for _ in 0..blocking {
            set.push(ThreadCategory::Blocking, Some(SimNanos::from_millis(10)));
        }
        set
    }

    fn push(&mut self, category: ThreadCategory, block_timeout: Option<SimNanos>) -> u32 {
        let htid = self.next_htid;
        self.next_htid += 1;
        self.live.push(SentryThread {
            htid,
            category,
            context: u64::from(htid) * 0x9E37_79B9,
            block_timeout,
        });
        htid
    }

    /// Current mode.
    pub fn mode(&self) -> ThreadMode {
        self.mode
    }

    /// Live thread count.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Saved (merged-away) thread count.
    pub fn saved_count(&self) -> usize {
        self.saved.len()
    }

    /// Live threads.
    pub fn live(&self) -> &[SentryThread] {
        &self.live
    }

    /// Spawns an additional blocking thread (a goroutine entered a blocking
    /// syscall).
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadMode`] in transient single-thread mode — no new
    /// threads may appear while merged.
    pub fn enter_blocking_syscall(
        &mut self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<u32, KernelError> {
        if self.mode != ThreadMode::Multi {
            return Err(KernelError::ThreadMode {
                detail: "cannot spawn threads while merged",
            });
        }
        clock.charge(model.host.thread_spawn);
        Ok(self.push(ThreadCategory::Blocking, Some(SimNanos::from_millis(10))))
    }

    /// Merges the set into the transient single thread (`m0`): runtime
    /// threads save context and exit; scheduling is configured to one `M`;
    /// blocking threads observe their time-out, save, and exit.
    ///
    /// Charges context saves and joins, plus the largest blocking time-out
    /// (threads check the merge flag when their time-out fires). This runs
    /// during offline template generation, not on the startup critical path.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadMode`] if already merged.
    pub fn merge_to_single(
        &mut self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        if self.mode != ThreadMode::Multi {
            return Err(KernelError::ThreadMode {
                detail: "already in transient single-thread mode",
            });
        }
        let max_timeout = self
            .live
            .iter()
            .filter_map(|t| t.block_timeout)
            .fold(SimNanos::ZERO, SimNanos::max);
        clock.charge(max_timeout);

        let m0 = self.live[0].clone();
        debug_assert_eq!(m0.category, ThreadCategory::Scheduling);
        let merged: Vec<SentryThread> = self.live.drain(1..).collect();
        clock.charge(
            model
                .host
                .thread_ctx_save
                .saturating_add(model.host.thread_join)
                .saturating_mul(merged.len() as u64),
        );
        self.saved = merged;
        self.live = vec![m0];
        self.mode = ThreadMode::TransientSingle;
        Ok(())
    }

    /// Expands back to the full thread set from saved contexts — the child
    /// side of `sfork`, on the startup critical path.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadMode`] if not merged.
    pub fn expand(&mut self, clock: &SimClock, model: &CostModel) -> Result<(), KernelError> {
        if self.mode != ThreadMode::TransientSingle {
            return Err(KernelError::ThreadMode {
                detail: "expand requires transient single-thread mode",
            });
        }
        clock.charge(
            model
                .host
                .thread_spawn
                .saturating_add(model.host.thread_ctx_restore)
                .saturating_mul(self.saved.len() as u64),
        );
        self.live.append(&mut self.saved);
        self.mode = ThreadMode::Multi;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    #[test]
    fn standard_set_shape() {
        let t = SentryThreads::standard(4, 2);
        assert_eq!(t.mode(), ThreadMode::Multi);
        assert_eq!(t.live_count(), 4 + 3 + 2);
        assert_eq!(
            t.live()
                .iter()
                .filter(|x| x.category == ThreadCategory::Runtime)
                .count(),
            3
        );
    }

    #[test]
    fn merge_then_expand_round_trips() {
        let (clock, model) = setup();
        let mut t = SentryThreads::standard(4, 2);
        let before = t.clone();
        t.merge_to_single(&clock, &model).unwrap();
        assert_eq!(t.mode(), ThreadMode::TransientSingle);
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.saved_count(), 8);
        t.expand(&clock, &model).unwrap();
        assert_eq!(t.mode(), ThreadMode::Multi);
        assert_eq!(t.live_count(), 9);
        assert_eq!(t.saved_count(), 0);
        // All contexts survive (order: m0 then the merged tail).
        assert_eq!(t.live(), before.live());
    }

    #[test]
    fn merge_charges_blocking_timeout() {
        let (clock, model) = setup();
        let mut t = SentryThreads::standard(2, 1);
        t.merge_to_single(&clock, &model).unwrap();
        assert!(
            clock.now() >= SimNanos::from_millis(10),
            "blocking time-out dominates"
        );
    }

    #[test]
    fn merge_without_blocking_threads_is_fast() {
        let (clock, model) = setup();
        let mut t = SentryThreads::standard(2, 0);
        t.merge_to_single(&clock, &model).unwrap();
        assert!(clock.now() < SimNanos::from_millis(1));
    }

    #[test]
    fn expand_is_cheap_enough_for_sub_ms_sfork() {
        let (clock, model) = setup();
        let mut t = SentryThreads::standard(4, 2);
        t.merge_to_single(&SimClock::new(), &model).unwrap();
        t.expand(&clock, &model).unwrap();
        // 8 threads × (spawn + ctx restore) must stay well under 1 ms.
        assert!(
            clock.now() < SimNanos::from_micros(400),
            "expand cost {}",
            clock.now()
        );
    }

    #[test]
    fn mode_errors() {
        let (clock, model) = setup();
        let mut t = SentryThreads::standard(2, 0);
        assert!(t.expand(&clock, &model).is_err());
        t.merge_to_single(&clock, &model).unwrap();
        assert!(t.merge_to_single(&clock, &model).is_err());
        assert!(t.enter_blocking_syscall(&clock, &model).is_err());
        t.expand(&clock, &model).unwrap();
        let tid = t.enter_blocking_syscall(&clock, &model).unwrap();
        assert!(tid > 0);
    }
}
