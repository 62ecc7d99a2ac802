//! The five workloads and what they share.
//!
//! A workload builds its inputs from the seed, prepares the program state
//! its operations need, and runs fixed-size *repetitions*: fixed counts,
//! not fixed durations, so that every simulated output of a repetition
//! repeats exactly. The driver in `main.rs` decides how many repetitions
//! to time; a workload never reads a clock for anything but probes.

pub mod cluster_storm;
pub mod fleet_open;
pub mod image_build;
pub mod restore_boot;
pub mod sfork_closed;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use platform::simulate::{Quantiles, TraceRequest};
use rand::rngs::StdRng;
use rand::Rng;
use sandbox::BootCtx;
use simtime::{CostModel, LatencyHistogram, SimNanos};
use workloads::generator::{open_loop, TraceSpec};

use crate::spans::Recorder;
use crate::spec;
use crate::stats::median;

/// The simulated (virtual-clock) outputs of one repetition. Deterministic
/// for a fixed seed: every repetition of a run must reproduce the
/// warm-up's, and a change meant only to speed the code up must leave
/// them byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Exact mean modelled startup latency per operation, µs.
    pub startup_mean_us: f64,
    /// Modelled p99 startup latency, µs (see `p99_kind`).
    pub startup_p99_us: f64,
    /// `nearest-rank` where the benchmark holds per-op values,
    /// `bucket-bound` where only the engine's 1-2-5 histogram exists.
    pub p99_kind: &'static str,
    /// DES events the repetition processed (0 where no queue is involved).
    pub events: u64,
    /// Requests the *model* shed, failed or left hung — simulated outcomes
    /// of injected node faults, pinned by the digest; not benchmark
    /// failures.
    pub lost: u64,
    /// FNV-1a digest over every simulated output of the repetition.
    pub digest: u64,
}

/// What one repetition did.
#[derive(Debug)]
pub struct Rep {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
    pub sim: Sim,
    /// Invariants the outputs broke, in words. Non-empty fails every op
    /// of the repetition.
    pub violations: Vec<String>,
    /// Exact per-layer values the repetition's own outputs carry.
    pub counts: Vec<(&'static str, f64)>,
}

impl Rep {
    /// An empty repetition of `ops` operations; `p99_kind` says how the
    /// workload's `startup_p99_us` is computed.
    pub fn new(ops: u64, p99_kind: &'static str) -> Rep {
        Rep {
            ops,
            failed: 0,
            sim: Sim {
                startup_mean_us: 0.0,
                startup_p99_us: 0.0,
                p99_kind,
                events: 0,
                lost: 0,
                digest: 0,
            },
            violations: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Fills the startup mean and nearest-rank p99 from per-op modelled
    /// latencies in nanoseconds.
    pub fn startup_from(&mut self, mut latencies: Vec<u64>) {
        let total: u64 = latencies.iter().sum();
        latencies.sort_unstable();
        let rank = (latencies.len() * 99).div_ceil(100).max(1);
        self.sim.startup_mean_us = micros(total) / latencies.len().max(1) as f64;
        self.sim.startup_p99_us = latencies.get(rank - 1).map_or(0.0, |&l| micros(l));
    }

    /// One operation returned `Err`: it alone fails.
    pub fn op_failed(&mut self, what: &str, err: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("  FAILED OP: {what}: {err}");
    }

    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// What one operation is, for the report.
    const OP: &'static str;
    /// Untraced and traced repetitions the traced pass runs.
    const TRACED_REPS: (usize, usize) = (2, 2);

    /// Builds inputs from `seed` and prepares program state. `divisor` is
    /// 1 for a full run and 20 for `--smoke`.
    fn prepare(seed: u64, divisor: usize) -> Self;

    /// One fixed-size repetition, with a span around each whole op.
    fn repetition(&mut self, rec: &mut Recorder) -> Rep;

    /// Layer probes: the inputs the ops feed each layer, passed straight
    /// to that layer's public functions, one span per call. `rep` and
    /// `rep_seconds` are the median traced repetition. Returns the seconds
    /// of one repetition the probes account for.
    fn probes(&mut self, rec: &mut Recorder, rep: &Rep, rep_seconds: f64, out: &mut Layers) -> f64;
}

/// Per-layer metric values of one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// # Panics
    ///
    /// On a name `spec::PER_LAYER` does not declare: a typo must not
    /// silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.0 == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, value: u64) -> &mut Digest {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn words(&mut self, values: impl IntoIterator<Item = u64>) -> &mut Digest {
        for v in values {
            self.word(v);
        }
        self
    }

    pub fn quantiles(&mut self, q: &Quantiles) -> &mut Digest {
        self.words([
            q.count,
            q.mean.as_nanos(),
            q.min.as_nanos(),
            q.max.as_nanos(),
            q.p50.as_nanos(),
            q.p90.as_nanos(),
            q.p99.as_nanos(),
        ])
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Calls `f` `iters` times, one span per call (the result is dropped
/// inside the span); returns each call's seconds.
pub fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    iters: usize,
    mut f: impl FnMut() -> T,
) -> Vec<f64> {
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            rec.span(name, |_| {
                black_box(f());
            });
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median nanoseconds per call of a cheap operation: five spans, each
/// around `calls` back-to-back calls.
pub fn nanos_per_call(
    rec: &mut Recorder,
    name: &'static str,
    calls: u64,
    mut f: impl FnMut(u64),
) -> f64 {
    let rounds = timed(rec, name, 5, || {
        for i in 0..calls {
            f(black_box(i));
        }
    });
    median(&rounds) * 1e9 / calls as f64
}

/// `sandbox.bootctx_span_ns`: nanoseconds per span a boot engine records,
/// measured on a `span` wrapping one `charge_span`.
pub fn probe_bootctx_span(rec: &mut Recorder, model: &CostModel, out: &mut Layers) {
    let mut ctx = BootCtx::fresh(model);
    let leaf = SimNanos::from_nanos(1);
    let pair = nanos_per_call(rec, "sandbox.bootctx_span", 20_000, |_| {
        ctx.span("probe", |ctx| ctx.charge_span("leaf", leaf));
    });
    out.set("sandbox.bootctx_span_ns", pair / 2.0);
}

/// `simtime.histogram_record_ns`: one `LatencyHistogram::record`, over
/// samples spread across the whole bucket ladder.
pub fn probe_histogram_record(rec: &mut Recorder, out: &mut Layers) -> f64 {
    let mut histogram = LatencyHistogram::new();
    let record = nanos_per_call(rec, "simtime.histogram_record", 1_000_000, |i| {
        histogram.record(SimNanos::from_nanos(
            i.wrapping_mul(0x9E37_79B9) % 50_000_000,
        ));
    });
    out.set("simtime.histogram_record_ns", record);
    record
}

/// Σ work ÷ Σ median seconds: the throughput of a probe whose inputs
/// differ in size (one `(work, samples)` entry per input).
pub fn pooled_rate(parts: &[(f64, Vec<f64>)]) -> f64 {
    let work: f64 = parts.iter().map(|p| p.0).sum();
    let seconds: f64 = parts.iter().map(|p| median(&p.1)).sum();
    if seconds > 0.0 {
        work / seconds
    } else {
        0.0
    }
}

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

pub fn open_loop_trace(spec: &TraceSpec) -> Vec<TraceRequest> {
    open_loop(spec)
        .into_iter()
        .map(|r| TraceRequest {
            arrival: r.arrival,
            function: r.function,
        })
        .collect()
}

pub fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}
