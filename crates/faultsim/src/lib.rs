//! Deterministic fault injection for the boot pipeline.
//!
//! Catalyzer's production story (paper §6.9) assumes boots survive a hostile
//! host: the Base-EPT `mmap` can fail, relation-table re-linking can hit a
//! corrupt arena, socket reconnection can time out, and a zygote or template
//! sandbox can be poisoned by a bad specialization. Every engine in this
//! workspace models the success path; this crate *creates* the failure
//! paths, deterministically, so the platform layer can prove it degrades
//! gracefully through them.
//!
//! The model has three pieces:
//!
//! - [`InjectionPoint`]: the seven named places in the boot pipeline where a
//!   fault can fire (image mmap, stage-1 arena map, stage-2 relink, I/O
//!   reconnect, zygote specialization, sfork thread merge);
//! - [`FaultPlan`]: a seeded, [`SimNanos`](simtime::SimNanos)-windowed
//!   schedule — per-point firing rates, burst lengths, and detection
//!   latencies — reusing the workspace's `Jitter`/`StdRng` determinism
//!   discipline: the same plan consulted in the same order always yields
//!   the same fault sequence;
//! - [`FaultInjector`]: the stateful consultant a `BootCtx` borrows from
//!   its owner. Engines call `check` at each injection point;
//!   `Some(InjectedFault)` means the operation fails *now*, after charging
//!   the fault's detection latency;
//! - [`NodePlan`]: the layer above the seams — whole-machine faults
//!   (crash, partition, gray/fail-slow) as a sorted, replayable schedule
//!   the cluster engines consume in virtual-time order.
//!
//! Faults come in three [`FaultKind`]s: `Transient` (clears once its burst
//! drains — a retry recovers), `Stall` (the operation hangs until a timeout;
//! expensive to detect, then behaves like a transient), and `Poison`
//! (prepared state — a template or zygote — is corrupt; retrying without
//! quarantining and rebuilding that state keeps failing).
//!
//! Nothing here touches the wall clock or ambient entropy: the injector is
//! a pure function of `(plan, consultation sequence)`, which is what makes
//! `repro faults` byte-reproducible.
//!
//! # Example
//!
//! ```
//! use faultsim::{FaultInjector, FaultPlan, InjectionPoint};
//! use simtime::SimNanos;
//!
//! let plan = FaultPlan::uniform(42, 1.0); // every consultation faults
//! let mut inj = FaultInjector::new(plan);
//! let fault = inj
//!     .check(InjectionPoint::ImageMmap, SimNanos::ZERO)
//!     .expect("rate 1.0 always fires");
//! assert_eq!(fault.point, InjectionPoint::ImageMmap);
//! assert!(fault.delay > SimNanos::ZERO, "detection costs virtual time");
//!
//! // Determinism: a fresh injector from the same plan replays the same
//! // fault sequence.
//! let mut again = FaultInjector::new(FaultPlan::uniform(42, 1.0));
//! assert_eq!(
//!     again.check(InjectionPoint::ImageMmap, SimNanos::ZERO),
//!     Some(fault)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod injector;
mod nodeplan;
mod plan;
mod point;

pub use injector::{FaultInjector, FaultRecord, InjectedFault};
pub use nodeplan::{NodeFault, NodeFaultEvent, NodePlan};
pub use plan::{FaultPlan, PointPlan};
pub use point::{FaultKind, InjectionPoint};
