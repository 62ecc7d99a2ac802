//! Contract tests for the discrete-event simulation core.
//!
//! Three claims the simulation core's API rests on:
//!
//! 1. **Determinism** — the same catalogue, knobs, and trace produce a
//!    byte-identical report, closed-loop and fleet alike (property tests
//!    over random traces and fault seeds).
//! 2. **Insertion-order independence** — the event queue's tie-break is a
//!    total order over distinct events, so the drain sequence never
//!    depends on scheduling order (property test over random event sets).
//! 3. **Engine fidelity** — the [`Simulation`] builder reproduces the
//!    pre-refactor closed-loop simulator *exactly*, pinned against four
//!    fixtures captured before the engine swap (down to the byte for the
//!    admission decision logs). The fixtures were captured through the
//!    since-deleted `run` / `run_with_faults` / `run_admitted` free
//!    functions; each test spells out the builder chain that function
//!    was, and reads the same numbers off [`SimReport`](platform::SimReport)
//!    (the legacy `peak_concurrency` was `peak_in_flight + 1`, the legacy
//!    `reuse_rate` was `reuses / requests`). The two no-admission
//!    fixtures were captured with request-local boot clocks and hold
//!    unchanged on the platform timeline: neither run has a time-windowed
//!    fault plan (`FaultPlan::uniform` fires by draw order, not by `now`),
//!    and a boot's startup is `ctx.now() - start`, so where the clock
//!    starts shifts span stamps only.
//! 4. **In-flight accounting** — the closed loop is a fold over the trace,
//!    not an event simulation; its `peak_in_flight` and `events` are held
//!    to a brute-force interval sweep over a replay on mirror pools.
//! 5. **Open-loop order at ties** — three `run_fleet` traces and one
//!    `run_chaos` trace built so that arrivals land on the exact instant of
//!    a completion, a keep-alive expiry, a same-instant burst and a node
//!    crash. Each pins its whole serialized outcome (length + FNV-1a, as
//!    `imagefmt/tests/golden.rs` pins images). The pins were produced by
//!    running this very file against the parent of PR 19 (commit
//!    `09ad0cb`), where both kernels still pushed the entire trace into
//!    one heap before the first pop; the queue has merged the trace in
//!    place since, and must keep reproducing them.

use catalyzer::{BootMode, CatalyzerEngine};
use faultsim::{FaultPlan, NodePlan};
use platform::admission::AdmitDecision;
use platform::cluster::{ChaosPolicy, ClusterConfig, ClusterSim};
use platform::simulate::arena::{Arena, FnId, InstanceId};
use platform::simulate::events::{Event, EventQueue};
use platform::simulate::TraceRequest;
use platform::{AdmissionPolicy, InstancePool, ResiliencePolicy, SimReport, Simulation};
use proptest::prelude::*;
use runtimes::AppProfile;
use sandbox::GvisorRestoreEngine;
use simtime::stats::{summarize, Summary};
use simtime::{CostModel, SimNanos};

fn fixture_functions() -> Vec<AppProfile> {
    vec![AppProfile::c_hello(), AppProfile::c_nginx()]
}

/// The pinned closed-loop trace: 12 requests, 7 ms apart, alternating
/// between the two functions.
fn fixture_trace() -> Vec<TraceRequest> {
    (0..12)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_millis(7).saturating_mul(i),
            function: usize::try_from(i % 2).unwrap_or(0),
        })
        .collect()
}

/// A pinned latency distribution, as [`SimReport`](platform::SimReport)
/// carries it.
fn summary(count: usize, stats: [u64; 6]) -> Option<Summary> {
    Some(Summary {
        count,
        mean: SimNanos::from_nanos(stats[0]),
        min: SimNanos::from_nanos(stats[1]),
        max: SimNanos::from_nanos(stats[2]),
        p50: SimNanos::from_nanos(stats[3]),
        p95: SimNanos::from_nanos(stats[4]),
        p99: SimNanos::from_nanos(stats[5]),
    })
}

#[test]
fn closed_loop_matches_the_pre_refactor_fixture() {
    let out = Simulation::new(fixture_functions())
        .with_engine(|_| GvisorRestoreEngine::new())
        .with_keep_alive(SimNanos::from_secs(5))
        .with_max_idle(2)
        .run(&fixture_trace())
        .unwrap();
    assert_eq!(
        out.startup,
        summary(
            12,
            [
                19_229_537,
                150_000,
                117_437_956,
                150_000,
                117_437_956,
                117_437_956
            ]
        )
    );
    assert_eq!(
        out.end_to_end,
        summary(
            12,
            [
                20_260_087,
                665_850,
                118_983_206,
                1_695_250,
                118_983_206,
                118_983_206
            ]
        )
    );
    assert_eq!((out.reuses, out.requests), (10, 12));
    assert_eq!(
        (out.pools.reuses, out.pools.boots, out.pools.expirations),
        (10, 2, 0)
    );
    assert_eq!(out.peak_in_flight + 1, 4);
    assert_eq!((out.faults, out.degraded), (0, 0));
}

#[test]
fn faulted_closed_loop_matches_the_pre_refactor_fixture() {
    let out = Simulation::new(fixture_functions())
        .with_engine(|_| CatalyzerEngine::standalone(BootMode::Fork))
        .with_keep_alive(SimNanos::from_secs(5))
        .with_max_idle(2)
        .with_faults(FaultPlan::uniform(0xF1D0, 0.2))
        .with_resilience(ResiliencePolicy::full())
        .run(&fixture_trace())
        .unwrap();
    assert_eq!(
        out.startup,
        summary(
            12,
            [
                12_113_407,
                150_000,
                143_230_038,
                150_000,
                143_230_038,
                143_230_038
            ]
        )
    );
    assert_eq!(
        out.end_to_end,
        summary(
            12,
            [
                13_147_872,
                665_850,
                143_766_768,
                1_695_250,
                143_766_768,
                143_766_768
            ]
        )
    );
    assert_eq!((out.reuses, out.requests), (10, 12));
    assert_eq!(
        (out.pools.reuses, out.pools.boots, out.pools.expirations),
        (10, 2, 0)
    );
    assert_eq!(out.peak_in_flight + 1, 3);
    assert_eq!((out.faults, out.degraded), (1, 1));
}

#[test]
fn admitted_closed_loop_matches_the_pre_refactor_fixture() {
    let out = Simulation::new(fixture_functions())
        .with_engine(|_| CatalyzerEngine::standalone(BootMode::Fork))
        .with_keep_alive(SimNanos::from_secs(5))
        .with_max_idle(2)
        .with_prewarm(1)
        .with_faults(FaultPlan::storm(
            11,
            0.8,
            SimNanos::from_millis(4),
            SimNanos::from_millis(20),
        ))
        .with_resilience(ResiliencePolicy::full())
        .with_admission(AdmissionPolicy::standard(2, SimNanos::from_millis(50)))
        .run(&fixture_trace())
        .unwrap();
    assert_eq!(
        (out.requests, out.admitted, out.completed, out.failed),
        (12, 12, 12, 0)
    );
    assert_eq!(
        (
            out.shed_overload,
            out.shed_deadline,
            out.shed_breaker,
            out.goodput
        ),
        (0, 0, 0, 12)
    );
    assert_eq!((out.faults, out.degraded, out.breaker_opens), (0, 0, 0));
    assert_eq!(
        (
            out.repairs.repairs,
            out.repairs.evicted,
            out.repairs.replenished
        ),
        (0, 0, 2)
    );
    assert_eq!(out.repairs.repair_time, SimNanos::ZERO);
    assert_eq!(
        out.end_to_end,
        summary(
            12,
            [1_184_465, 665_850, 1_721_350, 686_730, 1_721_350, 1_721_350]
        )
    );
    assert_eq!(
        out.startup,
        summary(12, [150_000, 150_000, 150_000, 150_000, 150_000, 150_000])
    );
    // The full decision log, down to the byte.
    assert_eq!(
        serde_json::to_string(&out.admission_log).unwrap(),
        r#"[{"at":0,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":7000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":14000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":21000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":28000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":35000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":42000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":49000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":56000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":63000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":70000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":77000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}}]"#
    );
}

#[test]
fn admitted_hot_burst_matches_the_pre_refactor_fixture() {
    let burst: Vec<TraceRequest> = (0..20)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_micros(40).saturating_mul(i),
            function: usize::try_from(i % 2).unwrap_or(0),
        })
        .collect();
    let out = Simulation::new(fixture_functions())
        .with_engine(|_| CatalyzerEngine::standalone(BootMode::Fork))
        .with_keep_alive(SimNanos::from_secs(5))
        .with_max_idle(2)
        .with_prewarm(1)
        .with_faults(FaultPlan::uniform(0xBEEF, 0.3))
        .with_resilience(ResiliencePolicy::full())
        .with_admission(AdmissionPolicy::standard(1, SimNanos::from_millis(2)))
        .run(&burst)
        .unwrap();
    assert_eq!((out.admitted, out.completed, out.failed), (6, 6, 0));
    assert_eq!(
        (
            out.shed_overload,
            out.shed_deadline,
            out.shed_breaker,
            out.goodput
        ),
        (6, 8, 0, 5)
    );
    assert_eq!(out.breaker_opens, 0);
    assert_eq!(
        (
            out.repairs.repairs,
            out.repairs.evicted,
            out.repairs.replenished
        ),
        (0, 0, 2)
    );
    assert_eq!(
        out.end_to_end.as_ref().map(|s| s.p99),
        Some(SimNanos::from_nanos(3_336_600))
    );
    assert_eq!(
        out.startup.as_ref().map(|s| s.p99),
        Some(SimNanos::from_micros(150))
    );
    assert_eq!(
        serde_json::to_string(&out.admission_log).unwrap(),
        r#"[{"at":0,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":40000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":80000,"function":"C-hello","decision":{"kind":"admitted","queued":606730}},{"at":120000,"function":"C-Nginx","decision":{"kind":"admitted","queued":1641350}},{"at":160000,"function":"C-hello","decision":{"kind":"admitted","queued":1192580}},{"at":200000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":240000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":280000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":320000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":360000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":400000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":440000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":480000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":520000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":560000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":600000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":640000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":680000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":720000,"function":"C-hello","decision":{"kind":"admitted","queued":1298430}},{"at":760000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}}]"#
    );
}

/// When each request of `trace` started service under `report` (`None` =
/// shed): its arrival without admission, arrival plus the logged queue
/// wait with it.
fn service_starts(trace: &[TraceRequest], report: &SimReport) -> Vec<Option<SimNanos>> {
    if report.admission_log.is_empty() {
        return trace.iter().map(|r| Some(r.arrival)).collect();
    }
    report
        .admission_log
        .iter()
        .map(|rec| match rec.decision {
            AdmitDecision::Admitted { queued } => Some(rec.at.saturating_add(queued)),
            _ => None,
        })
        .collect()
}

/// The oracle for the closed loop's in-flight accounting: replays the
/// served requests on mirror pools (the `Simulation` defaults), checks the
/// replay against the report's own latency summaries, and sweeps the
/// `[arrival, finish)` intervals by brute force — half-open, so a request
/// finishing at `t` is gone before one arriving at `t` is counted.
fn brute_force_peak(trace: &[TraceRequest], report: &SimReport) -> usize {
    let model = CostModel::experimental_machine();
    let mut pools: Vec<_> = fixture_functions()
        .into_iter()
        .map(|profile| {
            let engine = CatalyzerEngine::standalone(BootMode::Fork);
            InstancePool::new(engine, profile, SimNanos::from_secs(5), 4)
        })
        .collect();
    let mut intervals = Vec::new();
    let (mut startups, mut e2es) = (Vec::new(), Vec::new());
    for (req, start) in trace.iter().zip(service_starts(trace, report)) {
        let Some(start) = start else { continue };
        let served = pools[req.function].serve_at(start, &model).unwrap();
        let finish = start
            .saturating_add(served.startup)
            .saturating_add(served.exec);
        intervals.push((req.arrival, finish));
        startups.push(served.startup);
        e2es.push(finish.saturating_sub(req.arrival));
    }
    assert_eq!(report.startup, summarize(&startups));
    assert_eq!(report.end_to_end, summarize(&e2es));
    (0..intervals.len())
        .map(|i| {
            let now = intervals[i].0;
            intervals[..=i].iter().filter(|(_, f)| *f > now).count()
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn arrival_at_a_finish_instant_does_not_overlap_it() {
    let at = |arrivals: &[SimNanos]| -> Vec<TraceRequest> {
        arrivals
            .iter()
            .map(|&arrival| TraceRequest {
                arrival,
                function: 0,
            })
            .collect()
    };
    let run = |trace: &[TraceRequest]| Simulation::new(fixture_functions()).run(trace).unwrap();
    // Alone, the request occupies [0, finish).
    let finish = run(&at(&[SimNanos::ZERO])).end_to_end.unwrap().max;
    let touching = run(&at(&[SimNanos::ZERO, finish]));
    assert_eq!(touching.peak_in_flight, 1, "completion settles first");
    assert_eq!(touching.events, 4, "two arrivals + two completions");
    let just_before = finish.saturating_sub(SimNanos::from_nanos(1));
    let overlapping = run(&at(&[SimNanos::ZERO, just_before]));
    assert_eq!(overlapping.peak_in_flight, 2);
}

#[test]
fn unlimited_admission_and_no_admission_are_the_same_run() {
    let trace = trace_from(&[0, 0, 90, 400, 0, 2_500, 10, 700, 0, 0, 6_000_000, 30]);
    let plain = Simulation::new(fixture_functions()).run(&trace).unwrap();
    let gated = Simulation::new(fixture_functions())
        .with_admission(AdmissionPolicy::unlimited())
        .run(&trace)
        .unwrap();
    assert_eq!(gated.shed(), 0);
    assert_eq!(gated.admission_log.len(), trace.len());
    let counts = |r: &SimReport| {
        (
            (r.requests, r.admitted, r.completed, r.failed),
            (r.goodput, r.reuses, r.pools, r.peak_in_flight, r.events),
            (r.faults, r.degraded, r.breaker_opens, r.repairs),
        )
    };
    assert_eq!(counts(&plain), counts(&gated));
    assert_eq!(plain.startup, gated.startup);
    assert_eq!(plain.end_to_end, gated.end_to_end);
}

/// Length and FNV-1a 64 of `outcome`'s serialized form: every exported
/// field, metric rollup and chaos log included.
fn pinned(outcome: &impl serde::Serialize) -> (usize, u64) {
    let json = serde_json::to_string(outcome).unwrap();
    let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (json.len(), digest)
}

/// The open-loop fixtures' keep-alive: short, so expiries fall inside the
/// traces.
const OPEN_KEEP_ALIVE: SimNanos = SimNanos::from_millis(2);

fn open_loop() -> Simulation {
    Simulation::new(fixture_functions())
        .with_keep_alive(OPEN_KEEP_ALIVE)
        .with_max_idle(2)
}

/// `count` requests of function 0 at each of `instants`.
fn bursts(instants: &[SimNanos], count: usize) -> Vec<TraceRequest> {
    let burst = |&arrival| {
        std::iter::repeat_n(
            TraceRequest {
                arrival,
                function: 0,
            },
            count,
        )
    };
    instants.iter().flat_map(burst).collect()
}

/// When a lone request at time zero completes: the last event of that run
/// is its instance's keep-alive expiry, one window later.
fn lone_completion() -> SimNanos {
    let alone = open_loop()
        .run_fleet(&bursts(&[SimNanos::ZERO], 1))
        .unwrap();
    assert_eq!(alone.events, 4, "arrival, boot, completion, expiry");
    alone.horizon.saturating_sub(OPEN_KEEP_ALIVE)
}

#[test]
fn arrival_at_a_completion_instant_reuses_the_freed_instance() {
    let done = lone_completion();
    let out = open_loop()
        .run_fleet(&bursts(&[SimNanos::ZERO, done], 1))
        .unwrap();
    assert_eq!((out.cold_boots, out.reuses), (1, 1), "completion first");
    assert_eq!(pinned(&out), (644, 8_171_625_161_516_185_930));
}

#[test]
fn arrival_at_an_expiry_instant_finds_the_instance_gone() {
    let expiry = lone_completion().saturating_add(OPEN_KEEP_ALIVE);
    let out = open_loop()
        .run_fleet(&bursts(&[SimNanos::ZERO, expiry], 1))
        .unwrap();
    assert_eq!((out.cold_boots, out.reuses), (2, 0), "expiry first");
    assert_eq!(out.expirations, 2);
    assert_eq!(pinned(&out), (647, 2_243_124_945_780_761_462));
}

#[test]
fn same_instant_bursts_match_the_single_heap_fixture() {
    // Bursts of six on one function at time zero (tying with the prewarm
    // pool ticks), at the first completion, one nanosecond later, and at
    // the first expiry — under a cap tight enough to shed and a fault plan
    // that schedules repair ticks.
    let done = lone_completion();
    let instants = [
        SimNanos::ZERO,
        done,
        done.saturating_add(SimNanos::from_nanos(1)),
        done.saturating_add(OPEN_KEEP_ALIVE),
    ];
    let out = open_loop()
        .with_prewarm(1)
        .with_faults(FaultPlan::uniform(0xF1EE7, 0.3).with_poison_ratio(0.5))
        .with_admission(AdmissionPolicy::standard(2, SimNanos::from_millis(1)))
        .run_fleet(&bursts(&instants, 6))
        .unwrap();
    assert_eq!(out.completed + out.shed, out.requests);
    assert!(out.shed > 0 && out.reuses > 0 && out.repairs > 0);
    assert_eq!(pinned(&out), (670, 10_148_884_811_102_933_364));
}

#[test]
fn crash_at_an_arrival_instant_matches_the_single_heap_fixture() {
    // Three nodes, one template holder. A burst saturates the holder, the
    // overflow rides one transfer, and the source crashes at 20 µs — the
    // exact instant of five more arrivals, which must route against the
    // post-crash world. The failed-over waiters re-arrive (scheduled by
    // hand, so through the heap) one waiter timeout later, on the exact
    // instant of five streamed arrivals.
    let crash = SimNanos::from_micros(20);
    let retry = crash.saturating_add(ChaosPolicy::full().transfer_timeout);
    let mut trace: Vec<TraceRequest> = (0..120u64)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_nanos(i),
            function: 0,
        })
        .collect();
    trace.extend(bursts(&[crash, retry], 5));
    let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
        .with_node_capacity(40)
        .with_keep_alive(OPEN_KEEP_ALIVE)
        .with_chaos(NodePlan::quiet(3).with_crash(0, crash), ChaosPolicy::full())
        .run_chaos(&trace)
        .unwrap();
    assert_eq!(out.crashes, 1);
    assert!(out.failovers > 1, "waiters re-arrive: {}", out.failovers);
    assert_eq!(
        out.cluster.completed + out.cluster.shed + out.failed,
        out.cluster.requests
    );
    assert_eq!(pinned(&out), (1744, 9_995_583_643_144_920_121));
}

/// Local mirror of the queue's tie-break fingerprint, used only to drop
/// exact duplicates (the one case where the sequence number decides).
fn fingerprint(at: SimNanos, event: &Event) -> (u64, u8, u64) {
    let (class, key) = match event {
        Event::ExecComplete { request, .. } => (0, *request),
        Event::KeepAliveExpiry { instance } => (1, instance.key()),
        Event::TransferComplete {
            node,
            function,
            gen,
        } => (
            2,
            (u64::from(*gen) << 48)
                ^ ((u64::from(*node) << 32) | u64::try_from(function.index()).unwrap_or(u64::MAX)),
        ),
        Event::BootComplete { instance } => (3, instance.key()),
        Event::PoolTick { function } => (4, u64::try_from(function.index()).unwrap_or(u64::MAX)),
        Event::NodeRepair { node } => (5, u64::from(*node)),
        Event::NodeCrash { node } => (6, u64::from(*node)),
        Event::PartitionHeal { epoch } => (7, u64::from(*epoch)),
        Event::HedgeFire {
            node,
            function,
            gen,
        } => (
            8,
            (u64::from(*gen) << 48)
                ^ ((u64::from(*node) << 32) | u64::try_from(function.index()).unwrap_or(u64::MAX)),
        ),
        Event::HeartbeatTick { round } => (9, u64::from(*round)),
        Event::Arrival { request } => (10, *request),
    };
    (at.as_nanos(), class, key)
}

fn trace_from(gaps_us: &[u32]) -> Vec<TraceRequest> {
    let mut now = SimNanos::ZERO;
    gaps_us
        .iter()
        .enumerate()
        .map(|(i, &gap)| {
            now = now.saturating_add(SimNanos::from_micros(u64::from(gap)));
            TraceRequest {
                arrival: now,
                function: i % 2,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Distinct events drain in the same order no matter how they were
    /// scheduled: forward and reverse insertion produce identical pops.
    #[test]
    fn drain_order_is_insertion_order_independent(
        raw in prop::collection::vec((0u64..400, 0u8..11, 0u64..24), 1..80),
    ) {
        let mut arena: Arena<u8> = Arena::new();
        let ids: Vec<InstanceId> = (0..24).map(|_| arena.insert(0)).collect();
        let mut events: Vec<(SimNanos, Event)> = raw
            .iter()
            .map(|&(t, class, key)| {
                let slot = usize::try_from(key).unwrap_or(0);
                let event = match class {
                    0 => Event::ExecComplete { request: key, instance: ids[slot] },
                    1 => Event::KeepAliveExpiry { instance: ids[slot] },
                    2 => Event::BootComplete { instance: ids[slot] },
                    3 => Event::PoolTick { function: FnId::from_index(slot) },
                    4 => Event::TransferComplete {
                        node: u32::try_from(key % 4).unwrap_or(0),
                        function: FnId::from_index(slot),
                        gen: u32::try_from(key % 3).unwrap_or(0),
                    },
                    5 => Event::NodeRepair { node: u32::try_from(key).unwrap_or(0) },
                    6 => Event::NodeCrash { node: u32::try_from(key).unwrap_or(0) },
                    7 => Event::PartitionHeal { epoch: u32::try_from(key).unwrap_or(0) },
                    8 => Event::HedgeFire {
                        node: u32::try_from(key % 4).unwrap_or(0),
                        function: FnId::from_index(slot),
                        gen: u32::try_from(key % 3).unwrap_or(0),
                    },
                    9 => Event::HeartbeatTick { round: u32::try_from(key).unwrap_or(0) },
                    _ => Event::Arrival { request: key },
                };
                (SimNanos::from_nanos(t), event)
            })
            .collect();
        events.sort_by_key(|(at, e)| fingerprint(*at, e));
        events.dedup_by_key(|(at, e)| fingerprint(*at, e));

        let mut forward = EventQueue::new();
        for &(at, event) in &events {
            forward.schedule(at, event);
        }
        let mut backward = EventQueue::new();
        for &(at, event) in events.iter().rev() {
            backward.schedule(at, event);
        }
        let drained: Vec<(SimNanos, Event)> =
            std::iter::from_fn(|| forward.pop()).collect();
        let reversed: Vec<(SimNanos, Event)> =
            std::iter::from_fn(|| backward.pop()).collect();
        prop_assert_eq!(drained, reversed);

        // And the drain respects the (time, class, key) total order.
        let mut keys: Vec<(u64, u8, u64)> = events
            .iter()
            .map(|(at, e)| fingerprint(*at, e))
            .collect();
        keys.sort_unstable();
        let forward_again: Vec<(u64, u8, u64)> = {
            let mut q = EventQueue::new();
            for &(at, event) in &events {
                q.schedule(at, event);
            }
            std::iter::from_fn(|| q.pop())
                .map(|(at, e)| fingerprint(at, &e))
                .collect()
        };
        prop_assert_eq!(keys, forward_again);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same trace, same knobs, same fault seed — byte-identical closed-loop
    /// report (Debug covers every field, metrics rollup included).
    #[test]
    fn closed_loop_is_deterministic(
        gaps in prop::collection::vec(1u32..4_000, 1..20),
        seed in 0u64..1 << 48,
        rate_pct in 0u32..40,
    ) {
        let trace = trace_from(&gaps);
        let run = || {
            Simulation::new(fixture_functions())
                .with_faults(FaultPlan::uniform(seed, f64::from(rate_pct) / 100.0))
                .run(&trace)
                .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// The fold's in-flight accounting against the brute-force sweep, on
    /// traces dense in duplicate timestamps, ungated and under a policy
    /// tight enough to queue and shed.
    #[test]
    fn closed_loop_in_flight_matches_the_interval_sweep(
        steps in prop::collection::vec(0u32..5, 1..40),
        limit in 0usize..4,
    ) {
        // One gap in five is zero; `limit == 0` is the ungated run.
        let gaps: Vec<u32> = steps.iter().map(|s| s * 170).collect();
        let trace = trace_from(&gaps);
        let run = || {
            let sim = Simulation::new(fixture_functions());
            match limit {
                0 => sim,
                n => sim.with_admission(AdmissionPolicy::standard(n, SimNanos::from_millis(3))),
            }
            .run(&trace)
            .unwrap()
        };
        let report = run();
        prop_assert_eq!(report.peak_in_flight, brute_force_peak(&trace, &report));
        prop_assert_eq!(report.events, report.requests + report.completed);
        prop_assert_eq!(report.completed + report.shed(), report.requests);
        prop_assert_eq!(format!("{report:?}"), format!("{:?}", run()));
    }

    /// Same trace, same knobs, same fault seed — byte-identical fleet
    /// outcome (serialized JSON covers every exported field).
    #[test]
    fn fleet_is_deterministic_across_runs(
        gaps in prop::collection::vec(0u32..2_000, 1..60),
        seed in 0u64..1 << 48,
    ) {
        let trace = trace_from(&gaps);
        let run = || {
            Simulation::new(fixture_functions())
                .with_faults(FaultPlan::uniform(seed, 0.2).with_poison_ratio(0.5))
                .with_prewarm(1)
                .run_fleet(&trace)
                .unwrap()
        };
        let a = serde_json::to_string(&run()).unwrap();
        let b = serde_json::to_string(&run()).unwrap();
        prop_assert_eq!(a, b);
    }
}
