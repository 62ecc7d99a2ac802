//! The serverless platform layer.
//!
//! The paper's end-to-end experiments run whole functions through a gateway
//! (§2.1): a request arrives, a sandbox boots, the handler executes, and the
//! user-visible latency is `boot + execution`. This crate provides:
//!
//! - [`FunctionRegistry`]: the deployed functions;
//! - [`Gateway`]: per-request invocation over any [`sandbox::BootEngine`]
//!   through one entry point, [`Gateway::call`] on an [`InvokeRequest`],
//!   producing an [`Invocation`] whose [`InvocationReport`] is Fig. 1's
//!   ratio and Fig. 13's bars;
//! - [`scaling`]: startup latency under 0–1000 concurrent running instances
//!   (Fig. 15), with a deterministic contention model;
//! - [`memory`]: RSS/PSS accounting across concurrent sandboxes (Fig. 14);
//! - [`policy`]: boot-mode selection and the cache-vs-fork tail-latency
//!   experiment (§6.9 "sustainable hot boot");
//! - [`pool`]: an autoscaling instance pool with keep-alive expiry, showing
//!   where cold starts come from in the first place;
//! - [`resilience`]: retry with simulated-time backoff, fallback along the
//!   boot ladder (sfork → warm → cold), and quarantine of poisoned
//!   zygote/template state, driven by `faultsim` fault plans;
//! - [`admission`]: deterministic overload protection in front of all of
//!   the above — deadline-aware admission queues with per-function
//!   concurrency limits, circuit breakers driven by the fault signals, and
//!   self-healing capacity pools that repair poisoned prepared state off
//!   the request path;
//! - [`simulate`]: the simulation core behind the builder-style
//!   [`Simulation`] API — a full-fidelity closed loop
//!   ([`Simulation::run`], one pass over the trace through real pools,
//!   reporting a [`SimReport`]) and a calibrated open-loop fleet engine
//!   ([`Simulation::run_fleet`], one central event queue and generational
//!   instance arenas) that extends Fig. 15's density axis to 10^5–10^6
//!   concurrent instances — the builder is the only way in;
//! - [`cluster`]: the multi-node layer above all of it — per-node gateways
//!   behind a placement/routing scheduler, a MITOSIS-style *remote sfork*
//!   rung (cross-node template transfer, its own fault seam) between local
//!   sfork and warm/cold, and an open-loop cluster engine
//!   ([`ClusterSim`]) sweeping nodes × placement budget × routing policy
//!   — one event loop whose optional chaos layer (node crashes,
//!   partitions, gray failures, failover) is inert under
//!   [`ClusterSim::run_cluster`] and live under [`ClusterSim::run_chaos`].
//!
//! # Example
//!
//! ```
//! use platform::{Gateway, InvokeRequest};
//! use runtimes::AppProfile;
//! use sandbox::GvisorEngine;
//! use simtime::CostModel;
//!
//! let model = CostModel::experimental_machine();
//! let mut gw = Gateway::new(GvisorEngine::new(), model);
//! gw.register(AppProfile::c_hello());
//! let report = gw.call(InvokeRequest::new("C-hello"))?.report;
//! assert!(report.boot > report.exec, "hello is startup-dominated");
//! # Ok::<(), platform::PlatformError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod admission;
pub mod cluster;
mod error;
mod gateway;
pub mod memory;
pub mod policy;
pub mod pool;
mod registry;
pub mod resilience;
pub mod scaling;
pub mod simulate;

pub use admission::{
    AdmissionController, AdmissionPolicy, BreakerPolicy, BreakerState, CircuitBreaker, HealthSignal,
};
pub use cluster::{
    Cluster, ClusterConfig, ClusterEngine, ClusterOutcome, ClusterSim, RouteDecision, RouteRecord,
    RoutingPolicy, TransferCosts,
};
pub use error::{PlatformError, TraceError};
pub use gateway::{Gateway, Invocation, InvocationReport, InvokeRequest};
pub use pool::{InstancePool, PoolServe, RepairStats};
pub use registry::FunctionRegistry;
pub use resilience::{resilient_boot, ResiliencePolicy, ResilientBoot};
pub use simulate::{FleetOutcome, SimReport, Simulation, TraceRequest};
