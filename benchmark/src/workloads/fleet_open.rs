//! `fleet-open`: the DES core. One op is one simulated request through
//! `run_fleet` — event queue, arenas and latency histograms at 10^5 live
//! instances, with reuse and keep-alive expiry both live. The restore
//! substrate appears only as the per-run calibration. "Open" names the
//! *simulated* arrival process; the host driver is a closed loop of one.

use platform::simulate::{Arena, Event, EventQueue, FleetOutcome, TraceRequest};
use platform::Simulation;
use runtimes::AppProfile;
use simtime::SimNanos;
use workloads::catalogue;
use workloads::generator::{open_loop, Arrivals, Popularity, TraceSpec};

use super::{
    micros, nanos_per_call, open_loop_trace, probe_histogram_record, timed, Digest, Layers, Rep,
    Workload,
};
use crate::spans::Recorder;
use crate::stats::median;

const FUNCTIONS: usize = 10_000;
const REQUESTS: usize = 2_000_000;
const KEEP_ALIVE: SimNanos = SimNanos::from_secs(5);
const MAX_IDLE: usize = 4;
/// Queue depth and live-instance count the isolated probes hold.
const DEPTH: u64 = 100_000;

pub struct FleetOpen {
    seed: u64,
    spec: TraceSpec,
    catalogue: Vec<AppProfile>,
    trace: Vec<TraceRequest>,
    /// Cold boots of the latest repetition, for the probes' attribution.
    cold_boots: u64,
}

impl FleetOpen {
    fn run(&self, trace: &[TraceRequest]) -> Result<FleetOutcome, platform::PlatformError> {
        Simulation::new(self.catalogue.clone())
            .with_keep_alive(KEEP_ALIVE)
            .with_max_idle(MAX_IDLE)
            .run_fleet(trace)
    }
}

impl Workload for FleetOpen {
    const NAME: &'static str = "fleet-open";
    const OP: &'static str = "simulated request";

    fn prepare(seed: u64, divisor: usize) -> FleetOpen {
        // A 20 kHz Poisson baseline plus a 120 000-request flash crowd,
        // 500 µs wide, every 10 virtual seconds.
        let spec = TraceSpec {
            functions: FUNCTIONS,
            count: REQUESTS / divisor,
            arrivals: Arrivals::Bursty {
                rate_hz: 20_000.0,
                every: SimNanos::from_secs(10),
                size: 120_000,
                width: SimNanos::from_micros(500),
            },
            popularity: Popularity::Zipf { exponent: 1.0 },
            seed,
        };
        FleetOpen {
            seed,
            spec,
            catalogue: catalogue::synthetic(FUNCTIONS, seed),
            trace: open_loop_trace(&spec),
            cold_boots: 0,
        }
    }

    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let requests = self.trace.len() as u64;
        let mut rep = Rep::new(requests, "bucket-bound");
        rec.next_op();
        let out = match rec.span("fleet-open.run_fleet", |_| self.run(&self.trace)) {
            Ok(out) => out,
            Err(err) => {
                rep.failed = requests;
                rep.violations.push(format!("run_fleet: {err}"));
                return rep;
            }
        };
        rep.require(out.completed + out.shed == out.requests, || {
            format!(
                "conservation: {} completed + {} shed != {} requests",
                out.completed, out.shed, out.requests
            )
        });
        rep.require(out.reuses > 0 && out.expirations > 0, || {
            format!(
                "{} reuses, {} expirations: both must be live",
                out.reuses, out.expirations
            )
        });
        let mut digest = Digest::new();
        digest
            .words([
                out.requests,
                out.completed,
                out.shed,
                out.cold_boots,
                out.reuses,
                out.expirations,
                out.prewarm_boots,
                out.faults,
                out.degraded,
                out.repairs,
                out.peak_instances as u64,
                out.peak_in_flight as u64,
                out.events,
                out.horizon.as_nanos(),
            ])
            .quantiles(&out.startup)
            .quantiles(&out.end_to_end);
        rep.sim.startup_mean_us = micros(out.startup.mean.as_nanos());
        rep.sim.startup_p99_us = micros(out.startup.p99.as_nanos());
        rep.sim.events = out.events;
        rep.sim.lost = out.shed;
        rep.sim.digest = digest.finish();
        self.cold_boots = out.cold_boots;
        rep
    }

    fn probes(&mut self, rec: &mut Recorder, rep: &Rep, rep_seconds: f64, out: &mut Layers) -> f64 {
        // Calibration alone: the same catalogue, a one-request trace.
        let calibrate = median(&timed(rec, "platform.fleet_calibrate", 2, || {
            self.run(&self.trace[..1])
        }));
        out.set("platform.fleet_calibrate_s", calibrate);
        let events = rep.sim.events as f64;
        out.set(
            "platform.fleet_drain_events_per_s",
            events / (rep_seconds - calibrate).max(f64::EPSILON),
        );

        // The queue at depth: every pop is followed by a push further out.
        let mut queue = EventQueue::with_capacity(DEPTH as usize);
        for i in 0..DEPTH {
            queue.schedule(
                SimNanos::from_nanos(i * 997 % DEPTH),
                Event::Arrival { request: i },
            );
        }
        let push_pop = nanos_per_call(rec, "platform.queue_push_pop", 1_000_000, |i| {
            if let Some((at, event)) = queue.pop() {
                queue.schedule(
                    at.saturating_add(SimNanos::from_nanos(DEPTH + i % 1_000)),
                    event,
                );
            }
        });
        out.set("platform.queue_push_pop_ns", push_pop);

        // The arena at 10^5 live slots: retire one, admit one.
        let mut arena: Arena<u64> = Arena::with_capacity(DEPTH as usize);
        let mut live: Vec<_> = (0..DEPTH).map(|i| arena.insert(i)).collect();
        let churn = nanos_per_call(rec, "platform.arena_churn", 1_000_000, |i| {
            let slot = (i.wrapping_mul(0x9E37_79B9) % DEPTH) as usize;
            arena.remove(live[slot]);
            live[slot] = arena.insert(i);
        });
        out.set("platform.arena_churn_ns", churn);

        let record = probe_histogram_record(rec, out);

        // Input generation (set-up's share of this workload).
        let fns = median(&timed(rec, "workloads.synthetic", 3, || {
            catalogue::synthetic(FUNCTIONS, self.seed)
        }));
        out.set("workloads.synthetic_fns_per_s", FUNCTIONS as f64 / fns);
        let gen = median(&timed(rec, "workloads.open_loop", 2, || {
            open_loop(&self.spec)
        }));
        out.set(
            "workloads.open_loop_req_per_s",
            self.spec.count as f64 / gen,
        );

        // Attribution: calibration, one queue round-trip per event, two
        // histogram records per request, one arena slot per cold boot.
        calibrate
            + (events * push_pop + rep.ops as f64 * 2.0 * record + self.cold_boots as f64 * churn)
                / 1e9
    }
}
