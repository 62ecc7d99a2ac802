//! Virtual time and cost accounting for the Catalyzer reproduction.
//!
//! The Catalyzer paper ([Du et al., ASPLOS 2020]) reports wall-clock latencies
//! measured on two physical machines (an i7-7700 desktop and a 96-core server)
//! running a patched gVisor on Linux/KVM. This reproduction runs the same
//! *mechanisms* (checkpoint/restore, on-demand paging, sandbox fork) on real
//! Rust data structures, but the raw *hardware and host-kernel* costs — disk
//! reads, KVM ioctls, page-fault traps, process spawns — are charged to a
//! deterministic virtual clock using a calibrated [`CostModel`].
//!
//! The crate provides:
//!
//! - [`SimNanos`]: a nanosecond-precision virtual duration / instant newtype.
//! - [`SimClock`]: an accumulating virtual clock that boot engines charge.
//! - [`CostModel`]: every machine-level unit cost, with presets calibrated
//!   against the numbers printed in the paper (see `DESIGN.md` §6).
//! - [`trace`]: nested span trees stamped with virtual time; a span's direct
//!   children flatten to a [`Breakdown`], the paper's Figure 2 pipelines.
//! - [`metrics`]: deterministic counters, gauges, and fixed-bucket latency
//!   histograms — the workspace's one histogram type.
//! - [`stats`]: summary statistics and CDFs used by the figure regenerators.
//!
//! # Example
//!
//! ```
//! use simtime::{CostModel, SimClock, SimNanos, Tracer};
//!
//! let model = CostModel::experimental_machine();
//! let clock = SimClock::new();
//! let mut tracer = Tracer::new(&clock);
//!
//! tracer.begin("boot");
//! tracer.charge_span("parse-config", model.host.config_parse_base);
//! let phases = tracer.end().to_breakdown();
//!
//! assert_eq!(clock.now(), model.host.config_parse_base);
//! assert!(phases.total() > SimNanos::ZERO);
//! ```
//!
//! [Du et al., ASPLOS 2020]: https://doi.org/10.1145/3373376.3378512

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod clock;
mod cost;
mod duration;
pub mod jitter;
pub mod metrics;
pub mod names;
mod phase;
pub mod stats;
pub mod trace;

pub use clock::SimClock;
pub use cost::{CostModel, HostCosts, IoCosts, KvmCosts, MachineKind, MemCosts, ObjectCosts};
pub use duration::SimNanos;
pub use metrics::{LatencyHistogram, MetricsRegistry};
pub use phase::Breakdown;
pub use trace::{Span, Tracer};
