//! `cluster-storm`: cluster routing, template transfer, heartbeat and
//! failover under a seeded node-fault storm. One op is one simulated
//! request through `run_chaos`. Calibrating the real heavy profiles is
//! most of a repetition here, so this is also the workload where a
//! restore-substrate gain propagates upward the most.

use faultsim::{FaultInjector, FaultPlan, InjectionPoint, NodePlan};
use platform::cluster::{ChaosOutcome, ChaosPolicy, ClusterConfig, ClusterSim};
use platform::simulate::TraceRequest;
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

const FUNCTIONS: usize = 1_000;
const BASELINE: usize = 1_000_000;
const NODES: u32 = 8;
/// Viral burst: this many requests over 500 µs at every virtual second,
/// rotating over functions 0–2. Larger than both template holders'
/// combined capacity, so the overflow has to pick a rung.
const BURST: u64 = 4_500;
const BURST_WIDTH_NS: u64 = 500_000;
const STORM_FAULTS: usize = 12;
const GRAY_SLOWDOWN: f64 = 200.0;

pub struct ClusterStorm {
    spec: TraceSpec,
    catalogue: Vec<AppProfile>,
    trace: Vec<TraceRequest>,
    plan: NodePlan,
}

impl ClusterStorm {
    fn sim(&self) -> ClusterSim {
        ClusterSim::new(
            self.catalogue.clone(),
            ClusterConfig::new(NODES as usize, 2),
        )
        .with_keep_alive(SimNanos::from_millis(200))
        .with_max_idle(4)
        .with_node_capacity(2_000)
    }

    fn chaos(&self, trace: &[TraceRequest]) -> Result<ChaosOutcome, platform::PlatformError> {
        self.sim()
            .with_chaos(self.plan.clone(), ChaosPolicy::full())
            .run_chaos(trace)
    }
}

impl Workload for ClusterStorm {
    const NAME: &'static str = "cluster-storm";
    const OP: &'static str = "simulated request";

    fn prepare(seed: u64, divisor: usize) -> ClusterStorm {
        let bases = catalogue::fig1_functions();
        let catalogue = (0..FUNCTIONS)
            .map(|i| {
                let mut profile = bases[i % bases.len()].clone();
                profile.name = format!("{}-{i:04}", profile.name);
                profile
            })
            .collect();
        let spec = TraceSpec {
            functions: FUNCTIONS,
            count: BASELINE / divisor,
            arrivals: Arrivals::Poisson { rate_hz: 20_000.0 },
            popularity: Popularity::Zipf { exponent: 1.0 },
            seed,
        };
        let mut trace = open_loop_trace(&spec);
        let horizon = trace.last().map_or(SimNanos::ZERO, |r| r.arrival);
        for second in 1..=horizon.as_nanos() / 1_000_000_000 {
            let at = SimNanos::from_secs(second);
            trace.extend((0..BURST).map(|i| TraceRequest {
                arrival: at.saturating_add(SimNanos::from_nanos(i * BURST_WIDTH_NS / BURST)),
                function: ((second - 1) % 3) as usize,
            }));
        }
        trace.sort_by_key(|r| r.arrival);
        // A seeded storm across all nodes, plus the gray-then-crash pair
        // on the first viral function's first template holder (node 0):
        // gray just before the first burst so hedges fire around its
        // stretched wires, crash mid-burst so pending wires abort.
        let plan = NodePlan::storm(
            seed,
            NODES,
            STORM_FAULTS,
            SimNanos::from_millis(900),
            horizon,
        )
        .with_gray(0, SimNanos::from_millis(990), horizon, GRAY_SLOWDOWN)
        .with_crash(0, SimNanos::from_nanos(1_000_700_000));
        ClusterStorm {
            spec,
            catalogue,
            trace,
            plan,
        }
    }

    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let requests = self.trace.len() as u64;
        let mut rep = Rep::new(requests, "bucket-bound");
        rec.next_op();
        let out = match rec.span("cluster-storm.run_chaos", |_| self.chaos(&self.trace)) {
            Ok(out) => out,
            Err(err) => {
                rep.failed = requests;
                rep.violations.push(format!("run_chaos: {err}"));
                return rep;
            }
        };
        let c = &out.cluster;
        rep.require(c.completed + c.shed + out.failed == c.requests, || {
            format!(
                "conservation: {} completed + {} shed + {} failed != {} requests",
                c.completed, c.shed, out.failed, c.requests
            )
        });
        rep.require(out.hung == 0, || {
            format!("{} waiters hung under ChaosPolicy::full", out.hung)
        });
        rep.require(
            c.transfers > 0 && out.rereplications > 0 && out.hedges > 0,
            || {
                format!(
                    "{} transfers, {} re-replications, {} hedges: the failover machinery must run",
                    c.transfers, out.rereplications, out.hedges
                )
            },
        );
        let mut digest = Digest::new();
        digest
            .words([
                c.requests,
                c.completed,
                c.shed,
                c.reuses,
                c.local,
                c.remote,
                c.cold,
                c.reroutes,
                c.transfers,
                c.transfer_faults,
                c.node_repairs,
                c.expirations,
                c.events,
                c.horizon.as_nanos(),
                c.route_hash,
                out.failed,
                out.hung,
                out.crashes,
                out.heartbeats,
                out.suspected,
                out.failovers,
                out.rereplications,
                out.hedges,
                out.hedge_wins,
                out.aborted_transfers,
                out.unreachable,
                out.chaos_log.len() as u64,
            ])
            .words(c.per_node_peak.iter().map(|&p| p as u64))
            .quantiles(&c.startup)
            .quantiles(&c.end_to_end)
            .quantiles(&c.remote_startup)
            .quantiles(&c.cold_startup);
        rep.sim.startup_mean_us = micros(c.startup.mean.as_nanos());
        rep.sim.startup_p99_us = micros(c.startup.p99.as_nanos());
        rep.sim.events = c.events;
        rep.sim.lost = c.shed + out.failed;
        rep.sim.digest = digest.finish();
        rep.counts = vec![
            ("platform.cluster_remote_forks", c.remote as f64),
            ("platform.cluster_transfers", c.transfers as f64),
            ("platform.chaos_failovers", out.failovers as f64),
            ("platform.chaos_rereplications", out.rereplications as f64),
            (
                "platform.chaos_hedge_win_share",
                out.hedge_wins as f64 / (out.hedges as f64).max(1.0),
            ),
        ];
        rep
    }

    fn probes(&mut self, rec: &mut Recorder, rep: &Rep, rep_seconds: f64, out: &mut Layers) -> f64 {
        // Calibration alone, then the same trace with no node faults: the
        // difference to the chaos repetition is what chaos itself costs.
        let calibrate = median(&timed(rec, "platform.cluster_calibrate", 1, || {
            self.sim().run_cluster(&self.trace[..1])
        }));
        out.set("platform.cluster_calibrate_s", calibrate);
        let mut quiet_events = 0u64;
        let quiet = median(&timed(rec, "platform.run_cluster", 1, || {
            self.sim()
                .run_cluster(&self.trace)
                .map(|o| quiet_events = o.events)
        }));
        let drain = |events: u64, run: f64| events as f64 / (run - calibrate).max(f64::EPSILON);
        out.set(
            "platform.cluster_drain_events_per_s",
            drain(quiet_events, quiet),
        );
        out.set(
            "platform.chaos_drain_events_per_s",
            drain(rep.sim.events, rep_seconds),
        );
        out.set(
            "platform.chaos_overhead_share",
            (rep_seconds - quiet) / rep_seconds,
        );

        // One consultation of the fault schedule, averaged over a plan
        // that never fires and one that does.
        let mut quiet_injector = FaultInjector::new(FaultPlan::zero(self.spec.seed));
        let mut active_injector = FaultInjector::new(FaultPlan::uniform(self.spec.seed, 0.01));
        let check = nanos_per_call(rec, "faultsim.check", 200_000, |i| {
            let now = SimNanos::from_micros(i);
            let injector = if i % 2 == 0 {
                &mut quiet_injector
            } else {
                &mut active_injector
            };
            std::hint::black_box(injector.check(InjectionPoint::TemplateTransfer, now));
        });
        out.set("faultsim.check_ns", check);

        probe_histogram_record(rec, out);
        let gen = median(&timed(rec, "workloads.open_loop", 2, || {
            open_loop(&self.spec)
        }));
        out.set(
            "workloads.open_loop_req_per_s",
            self.spec.count as f64 / gen,
        );

        // Attribution: calibration + the quiet drain + the chaos overhead
        // add up to the repetition by construction; what is left over is
        // measurement noise between the two runs.
        calibrate + (quiet - calibrate) + (rep_seconds - quiet).max(0.0)
    }
}
