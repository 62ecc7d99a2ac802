//! Integration: the cluster subsystem end to end.
//!
//! Three claims the `platform::cluster` layer stands on:
//!
//! 1. **Single-node transparency** — a one-node cluster is the plain
//!    `Gateway<CatalyzerEngine>` with a scheduler in front: same span
//!    trees, same latency split, same gateway metrics, byte for byte —
//!    under injected faults too, with the same fault log.
//! 2. **Same seed, same history** — identical configurations replay
//!    byte-identical routing histories, metrics, and (open-loop) route
//!    hashes and fault counters, whatever the shape, policy, or plan.
//! 3. **Remote sfork degrades, never panics** — a faulted template
//!    transfer walks down the ladder (remote → warm → cold) or surfaces a
//!    typed error; open-loop, every request is completed or shed, none
//!    are lost.
//! 4. **The chaos layer is inert when quiet** — `run_cluster` (the kernel
//!    with no chaos layer) and `run_chaos` under a quiet `NodePlan` (the
//!    same kernel with the layer installed, either policy) agree on every
//!    outcome field except the event count.

use catalyzer_suite::faultsim::{FaultPlan, InjectionPoint, NodePlan, PointPlan};
use catalyzer_suite::platform::cluster::{
    ChaosPolicy, Cluster, ClusterConfig, ClusterOutcome, ClusterSim, RoutingPolicy,
};
use catalyzer_suite::platform::simulate::TraceRequest;
use catalyzer_suite::platform::{AdmissionPolicy, PlatformError, ResiliencePolicy};
use catalyzer_suite::prelude::*;
use catalyzer_suite::sandbox::SandboxError;
use proptest::prelude::*;

fn model() -> CostModel {
    CostModel::experimental_machine()
}

/// The request sequence the parity tests replay: both C profiles,
/// interleaved, with the first function pre-warmed.
const PARITY_CALLS: usize = 24;

fn parity_functions() -> Vec<&'static str> {
    (0..PARITY_CALLS)
        .map(|i| if i % 2 == 0 { "C-hello" } else { "C-Nginx" })
        .collect()
}

#[test]
fn single_node_cluster_is_byte_identical_to_the_plain_gateway() {
    // Two inputs: fault-free, and a seeded plan firing at every
    // boot-pipeline point (half the prepared-state faults poison), so
    // requests retry, quarantine and fall down the fork → warm → cold
    // ladder.
    for plan in [None, Some(FaultPlan::uniform(5, 0.35))] {
        let functions = parity_functions();
        let outcome = |result: Result<Invocation, PlatformError>| {
            result
                .map(|inv| (inv.trace, inv.report, inv.queued))
                .map_err(|err| err.to_string())
        };

        let mut gateway = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model());
        if let Some(plan) = &plan {
            gateway = gateway.with_faults(plan.clone());
        }
        gateway.register(AppProfile::c_hello());
        gateway.register(AppProfile::c_nginx());
        gateway.warm("C-hello").unwrap();
        let mut plain = Vec::new();
        for function in &functions {
            plain.push(outcome(gateway.call(InvokeRequest::new(function))));
        }

        let mut cluster = Cluster::new(ClusterConfig::new(1, 1), &model()).unwrap();
        if let Some(plan) = &plan {
            cluster = cluster.with_faults(plan.clone());
        }
        cluster.register(AppProfile::c_hello());
        cluster.register(AppProfile::c_nginx());
        cluster.warm("C-hello").unwrap();
        let mut clustered = Vec::new();
        for function in &functions {
            let result = cluster.call(function, None).map(|(node, invocation)| {
                assert_eq!(node, 0, "a single-node cluster has one place to route");
                invocation
            });
            clustered.push(outcome(result));
        }

        // Span trees carry every charge on the boot path; the reports carry
        // the latency split. Identical trees and metrics mean the cluster
        // layer added nothing — not a span, not a nanosecond, not a counter.
        assert_eq!(plain, clustered);
        let node = cluster.nodes()[0].gateway();
        assert_eq!(
            gateway.metrics(),
            node.metrics(),
            "node-0 gateway metrics must match the plain gateway's"
        );
        assert_eq!(
            gateway.injector().map(|i| i.log()),
            node.injector().map(|i| i.log()),
            "node 0 must consult its injector exactly as the plain gateway does"
        );
        assert_eq!(cluster.metrics().counter("cluster.remote"), 0);
        assert_eq!(cluster.metrics().counter("cluster.cold"), 0);
        if plan.is_some() {
            // The faulted input pins the degraded ladder and quarantine,
            // not just the happy path.
            let metrics = gateway.metrics();
            for counter in ["fallback.warm", "fallback.cold", "quarantine.count"] {
                assert!(metrics.counter(counter) > 0, "{counter} never moved");
            }
        }
    }
}

/// One closed-loop run, serialized: the routing history plus the scheduler
/// and node-0 gateway metrics.
fn closed_loop_digest(
    nodes: usize,
    budget: usize,
    remote: bool,
    limit: usize,
    picks: &[usize],
) -> (String, String, String) {
    let mut config = ClusterConfig::new(nodes, budget);
    if !remote {
        config.routing = RoutingPolicy::LocalCold;
    }
    let mut cluster = Cluster::new(config, &model())
        .unwrap()
        .with_admission(AdmissionPolicy::standard(limit, SimNanos::from_secs(5)));
    cluster.register(AppProfile::c_hello());
    cluster.register(AppProfile::c_nginx());
    let names = ["C-hello", "C-Nginx"];
    for (i, &pick) in picks.iter().enumerate() {
        // Same-instant bursts (index-paced arrivals) so admission can shed
        // and the scheduler can re-route; errors are part of the history.
        let _ = cluster.call(
            names[pick % names.len()],
            Some(SimNanos::from_nanos(i as u64)),
        );
    }
    let history: Vec<String> = cluster
        .history()
        .iter()
        .map(|record| serde_json::to_string(record).unwrap())
        .collect();
    (
        history.join("\n"),
        serde_json::to_string(cluster.metrics()).unwrap(),
        serde_json::to_string(cluster.nodes()[0].gateway().metrics()).unwrap(),
    )
}

/// A one-function flash crowd: `n` same-window arrivals.
fn burst_trace(n: u64) -> Vec<TraceRequest> {
    (0..n)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_nanos(i),
            function: 0,
        })
        .collect()
}

/// One open-loop run under a transfer-seam plan, serialized whole (route
/// hash, rung counts, fault counters, latency digests, metrics).
fn open_loop_digest(nodes: usize, capacity: usize, burst: u64, plan: Option<FaultPlan>) -> String {
    let mut sim = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(nodes, 1))
        .with_node_capacity(capacity);
    if let Some(plan) = plan {
        sim = sim.with_faults(plan);
    }
    let outcome = sim.run_cluster(&burst_trace(burst)).unwrap();
    serde_json::to_string(&outcome).unwrap()
}

fn transfer_plan(seed: u64, rate_pct: u32, poison_pct: u32) -> FaultPlan {
    FaultPlan::zero(seed)
        .with_point(
            InjectionPoint::TemplateTransfer,
            PointPlan::at_rate(f64::from(rate_pct) / 100.0),
        )
        .with_poison_ratio(f64::from(poison_pct) / 100.0)
}

/// A cluster outcome, serialized with its one layer-dependent field
/// blanked: the event count (a chaos layer schedules heartbeats).
fn layer_independent(mut outcome: ClusterOutcome) -> String {
    outcome.events = 0;
    serde_json::to_string(&outcome).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cross-path agreement: the cluster kernel without a chaos layer and
    /// the same kernel under a quiet node plan — full failover or none —
    /// route, serve, and time every request identically. Only the event
    /// count (heartbeats, hedge timers) differs.
    #[test]
    fn quiet_chaos_agrees_with_the_plain_cluster_run(
        seed in any::<u64>(),
        nodes in 1usize..9,
        budget in 1usize..3,
        capacity in 0usize..64,
        keep_alive_us in 50u64..20_000,
        remote in any::<bool>(),
        bursts in proptest::collection::vec((0u64..3_000, 1u64..60, 0usize..2), 1..6),
    ) {
        // Small draws stand for "uncapped" so both regimes are sampled.
        let capacity = if capacity < 8 { 0 } else { capacity };
        // Each burst: a gap, then `count` arrivals 1 µs apart for one of
        // the two functions.
        let mut trace = Vec::new();
        let mut at = 0u64;
        for (gap_us, count, function) in bursts {
            at += gap_us;
            for _ in 0..count {
                trace.push(TraceRequest { arrival: SimNanos::from_micros(at), function });
                at += 1;
            }
        }
        let sim = || {
            let mut config = ClusterConfig::new(nodes, budget.min(nodes));
            config.routing = if remote { RoutingPolicy::RemoteFork } else { RoutingPolicy::LocalCold };
            ClusterSim::new(vec![AppProfile::c_hello(), AppProfile::c_nginx()], config)
                .with_node_capacity(capacity)
                .with_keep_alive(SimNanos::from_micros(keep_alive_us))
        };
        let plain = layer_independent(sim().run_cluster(&trace).unwrap());
        for policy in [ChaosPolicy::full(), ChaosPolicy::none()] {
            let quiet = sim()
                .with_chaos(NodePlan::quiet(seed), policy)
                .run_chaos(&trace)
                .unwrap();
            prop_assert_eq!(quiet.failed, 0);
            prop_assert_eq!(quiet.hung, 0);
            prop_assert_eq!(
                &plain,
                &layer_independent(quiet.cluster),
                "policy {}", policy.label()
            );
        }
    }

    /// Same configuration, same request sequence → byte-identical routing
    /// history and metrics, across cluster shapes and both policies.
    #[test]
    fn same_seed_routing_and_placement_are_byte_identical(
        nodes in 1usize..5,
        budget in 1usize..3,
        remote in any::<bool>(),
        limit in 1usize..4,
        picks in proptest::collection::vec(0usize..2, 4..16),
    ) {
        let budget = budget.min(nodes);
        let a = closed_loop_digest(nodes, budget, remote, limit, &picks);
        let b = closed_loop_digest(nodes, budget, remote, limit, &picks);
        prop_assert_eq!(a, b);
    }

    /// Same seed, same plan → the open-loop engine replays a byte-identical
    /// outcome: route hash, rung counts, and fault history included.
    #[test]
    fn same_seed_fleet_runs_replay_routing_and_fault_history(
        seed in any::<u64>(),
        nodes in 2usize..5,
        rate_pct in 0u32..101,
        poison_pct in 0u32..101,
        burst in 40u64..120,
    ) {
        let plan = transfer_plan(seed, rate_pct, poison_pct);
        let a = open_loop_digest(nodes, 20, burst, Some(plan.clone()));
        let b = open_loop_digest(nodes, 20, burst, Some(plan));
        prop_assert_eq!(a, b);
    }

    /// Whatever the transfer-seam plan, the closed loop never panics: every
    /// re-routed request either completes (the ladder degraded remote →
    /// warm → cold underneath it) or surfaces a typed shed/fault error.
    #[test]
    fn remote_sfork_failures_degrade_down_the_ladder(
        seed in any::<u64>(),
        rate_pct in 50u32..101,
        poison_pct in 0u32..101,
    ) {
        let plan = transfer_plan(seed, rate_pct, poison_pct);
        let mut cluster = Cluster::new(ClusterConfig::new(2, 1), &model())
            .unwrap()
            .with_policy(ResiliencePolicy::full())
            .with_faults(plan)
            .with_admission(AdmissionPolicy::standard(1, SimNanos::from_secs(5)));
        cluster.register(AppProfile::c_hello());
        for i in 0..6u64 {
            // Same-instant arrivals saturate the holder's single admission
            // slot, pushing overflow onto the remote-sfork rung where the
            // transfer seam is armed.
            match cluster.call("C-hello", Some(SimNanos::from_nanos(i))) {
                Ok((node, invocation)) => {
                    prop_assert!(node < 2);
                    prop_assert!(invocation.report.total() > SimNanos::ZERO);
                }
                Err(err) if err.is_shed() => {}
                Err(PlatformError::Sandbox(SandboxError::Fault(fault))) => {
                    prop_assert!(InjectionPoint::ALL.contains(&fault.point));
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!("untyped failure: {other}")));
                }
            }
        }
    }

    /// Closed loop under a node partition: while the island is cut off the
    /// scheduler never routes at it, and after the heal it is routed again
    /// — whatever the cluster shape or partition window.
    #[test]
    fn partitioned_node_is_never_routed_until_heal(
        nodes in 2usize..5,
        cut_us in 10u64..200,
        width_us in 50u64..400,
        calls in 8usize..24,
    ) {
        let cut = SimNanos::from_micros(cut_us);
        let heal = SimNanos::from_micros(cut_us + width_us);
        let plan = NodePlan::quiet(9).with_partition([0], cut, heal);
        let mut cluster = Cluster::new(ClusterConfig::new(nodes, nodes), &model())
            .unwrap()
            .with_chaos(plan, ChaosPolicy::full())
            .unwrap();
        cluster.register(AppProfile::c_hello());

        // Paced arrivals spanning 0..2×heal: before the cut, inside the
        // window, and (the back half) past the heal.
        let step_ns = heal.as_nanos() * 2 / calls as u64;
        let mut routed_after_heal = false;
        for i in 0..calls {
            let now = SimNanos::from_nanos(step_ns * i as u64);
            let (node, _) = cluster.call("C-hello", Some(now)).unwrap();
            prop_assert!(
                !(now >= cut && now < heal) || node != 0,
                "routed at the islanded node at {now:?} (cut {cut:?}..{heal:?})"
            );
            if now >= heal && node == 0 {
                routed_after_heal = true;
            }
        }
        prop_assert!(
            routed_after_heal,
            "node 0 was never routed again after the heal"
        );
    }

    /// Open loop, same story at fleet scale: under any transfer-seam plan
    /// every request is completed or shed — degradation re-routes work, it
    /// never loses it.
    #[test]
    fn open_loop_transfer_faults_never_lose_requests(
        seed in any::<u64>(),
        nodes in 2usize..5,
        rate_pct in 0u32..101,
        poison_pct in 0u32..101,
        burst in 40u64..120,
    ) {
        let plan = transfer_plan(seed, rate_pct, poison_pct);
        let sim = ClusterSim::new(
            vec![AppProfile::c_hello()],
            ClusterConfig::new(nodes, 1),
        )
        .with_node_capacity(20)
        .with_faults(plan);
        let outcome = sim.run_cluster(&burst_trace(burst)).unwrap();
        prop_assert_eq!(outcome.completed + outcome.shed, outcome.requests);
        prop_assert_eq!(
            outcome.reuses + outcome.local + outcome.remote + outcome.cold,
            outcome.completed
        );
        prop_assert!(outcome.requests == burst);
    }
}
