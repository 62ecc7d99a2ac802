//! The flash-crowd workload the pr8 cluster grid and the pr9 chaos grid
//! share: a Zipf Poisson baseline over a catalogue cycling the fourteen
//! paper profiles, plus one viral burst for the Zipf head — every arrival
//! inside a window shorter than a single fork boot, so the whole burst is
//! airborne before any of its boots complete.
//!
//! What the two grids agree on is a constant here; what they scale —
//! catalogue, baseline length, burst size, seed — is a [`FlashCrowd`]
//! literal in each grid's module.

use platform::cluster::{ClusterConfig, ClusterSim};
use platform::simulate::TraceRequest;
use runtimes::AppProfile;
use simtime::{CostModel, SimNanos};
use workloads::catalogue;
use workloads::generator::{open_loop, Arrivals, Popularity, TraceSpec};

/// Zipf exponent of baseline function popularity.
pub(crate) const ZIPF_EXPONENT: f64 = 1.0;

/// Poisson baseline rate under the burst (drives reuse and keep-alive).
pub(crate) const BASE_RATE_HZ: f64 = 2_000.0;

/// The function that goes viral (the Zipf head). Placement puts its
/// template on node 0 first, so that is the node a grid's faults target.
pub(crate) const VIRAL_FUNCTION: usize = 0;

/// Instant the viral burst lands.
pub(crate) const BURST_AT: SimNanos = SimNanos::from_secs(1);

/// Window the burst's arrivals spread over — shorter than one fork boot.
pub(crate) const BURST_WIDTH: SimNanos = SimNanos::from_micros(500);

/// Keep-alive every cell runs with — short enough that the warm set stays
/// a small fraction of node capacity at the baseline rate.
pub(crate) const KEEP_ALIVE: SimNanos = SimNanos::from_millis(200);

/// Warm instances retained per (node, function).
pub(crate) const MAX_IDLE: usize = 4;

/// Concurrent-instance cap per node. Both grids size their burst against
/// it: one node cannot absorb a burst, so the overflow must pick a rung.
pub(crate) const NODE_CAPACITY: usize = 2_000;

/// One grid's scaling of the shape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlashCrowd {
    /// Seed of the baseline trace and of the grid's fault plans.
    pub seed: u64,
    /// Functions in the catalogue.
    pub functions: usize,
    /// Baseline requests around the burst.
    pub tail: usize,
    /// Burst size: arrivals for [`VIRAL_FUNCTION`].
    pub burst: usize,
}

impl FlashCrowd {
    /// The catalogue: every function gets its own name (its own placement,
    /// routing, and warm set) — the base profile's, suffixed with the
    /// index zero-padded to the catalogue size's width — while the
    /// underlying cost shapes repeat, so the per-cell calibration pass
    /// stays a fixed fourteen shapes instead of growing with the catalogue.
    pub(crate) fn catalogue(&self) -> Vec<AppProfile> {
        let bases = catalogue::fig1_functions();
        let width = self.functions.to_string().len();
        (0..self.functions)
            .map(|i| {
                let mut p = bases[i % bases.len()].clone();
                p.name = format!("{}-{i:0width$}", p.name);
                p
            })
            .collect()
    }

    /// The trace: the baseline with [`FlashCrowd::burst`] extra arrivals
    /// for the viral function merged in, time-sorted.
    pub(crate) fn trace(&self) -> Vec<TraceRequest> {
        let spec = TraceSpec {
            functions: self.functions,
            count: self.tail,
            arrivals: Arrivals::Poisson {
                rate_hz: BASE_RATE_HZ,
            },
            popularity: Popularity::Zipf {
                exponent: ZIPF_EXPONENT,
            },
            seed: self.seed,
        };
        let mut trace: Vec<TraceRequest> = open_loop(&spec)
            .into_iter()
            .map(|r| TraceRequest {
                arrival: r.arrival,
                function: r.function,
            })
            .collect();
        let step = BURST_WIDTH.as_nanos().max(1) / self.burst as u64;
        for i in 0..self.burst {
            let offset = SimNanos::from_nanos(step.saturating_mul(i as u64));
            trace.push(TraceRequest {
                arrival: BURST_AT.saturating_add(offset),
                function: VIRAL_FUNCTION,
            });
        }
        trace.sort_by_key(|r| r.arrival);
        trace
    }
}

/// The simulator a cell of either grid runs on: `cat` on a cluster shaped
/// by `config`, at the shape's keep-alive, idle and capacity settings.
pub(crate) fn cluster_sim(
    model: &CostModel,
    cat: &[AppProfile],
    config: ClusterConfig,
) -> ClusterSim {
    ClusterSim::new(cat.to_vec(), config)
        .with_model(model.clone())
        .with_keep_alive(KEEP_ALIVE)
        .with_max_idle(MAX_IDLE)
        .with_node_capacity(NODE_CAPACITY)
}

/// The conservation checks a cell of either grid owes whatever else it
/// counts: the trace was not empty, and `availability` is
/// `completed / requests`.
pub(crate) fn check_availability(
    tag: &str,
    requests: u64,
    completed: u64,
    availability: f64,
) -> Result<(), String> {
    if requests == 0 {
        return Err(format!("{tag}: empty cell"));
    }
    if (availability - completed as f64 / requests as f64).abs() > 1e-9 {
        return Err(format!("{tag}: availability != completed / requests"));
    }
    Ok(())
}
