//! Integration: node-level chaos and the failover policy end to end.
//!
//! Four claims the chaos layer stands on:
//!
//! 1. **Conservation** — whatever the node-fault schedule or policy,
//!    every request is completed, shed, or failed typed; none are lost.
//! 2. **Same seed, same history** — identical plans replay byte-identical
//!    outcomes, chaos logs included.
//! 3. **The survivability floor** — one crashed node out of N costs the
//!    full-failover policy at most its share: availability ≥ (N−1)/N.
//! 4. **Joined waiters are rescued** — a request that *joined* an
//!    in-flight transfer (not just the one that started it) gets the same
//!    timeout/re-route path when the source dies; only the no-failover
//!    baseline hangs them.
//! 5. **Fault plans compose with chaos** — the template-transfer fault
//!    seam is consulted under `run_chaos` exactly as under `run_cluster`;
//!    a fault plan installed next to a node plan is never dropped.

use catalyzer_suite::faultsim::{FaultPlan, InjectionPoint, NodePlan, PointPlan};
use catalyzer_suite::platform::cluster::{ChaosPolicy, ClusterConfig, ClusterSim};
use catalyzer_suite::platform::simulate::TraceRequest;
use catalyzer_suite::prelude::*;
use proptest::prelude::*;

fn model() -> CostModel {
    CostModel::experimental_machine()
}

/// Paced single-function arrivals: `n` requests `gap_us` apart.
fn paced_trace(n: u64, gap_us: u64) -> Vec<TraceRequest> {
    (0..n)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_micros(i * gap_us),
            function: 0,
        })
        .collect()
}

/// One chaos run, serialized whole (outcome, counters, chaos log).
fn chaos_digest(
    nodes: usize,
    budget: usize,
    capacity: usize,
    plan: &NodePlan,
    policy: ChaosPolicy,
    trace: &[TraceRequest],
) -> String {
    let outcome = ClusterSim::new(
        vec![AppProfile::c_hello()],
        ClusterConfig::new(nodes, budget),
    )
    .with_model(model())
    .with_node_capacity(capacity)
    .with_chaos(plan.clone(), policy)
    .run_chaos(trace)
    .unwrap();
    serde_json::to_string(&outcome).unwrap()
}

#[test]
fn single_crash_holds_the_availability_floor() {
    // One node of N dies mid-run. The full policy's worst case is the
    // dead node's own share of the work: in-flight requests killed by the
    // crash. Everything else re-routes, so availability ≥ (N−1)/N.
    for nodes in [2usize, 4, 8] {
        let plan = NodePlan::quiet(1).with_crash(0, SimNanos::from_millis(5));
        let trace = paced_trace(400, 50);
        let outcome = ClusterSim::new(
            vec![AppProfile::c_hello()],
            ClusterConfig::new(nodes, 2.min(nodes)),
        )
        .with_model(model())
        .with_node_capacity(400)
        .with_chaos(plan, ChaosPolicy::full())
        .run_chaos(&trace)
        .unwrap();
        let floor = (nodes as f64 - 1.0) / nodes as f64;
        assert!(
            outcome.availability >= floor,
            "{nodes} nodes: availability {} under {floor}",
            outcome.availability
        );
        assert_eq!(outcome.crashes, 1);
        assert_eq!(outcome.hung, 0, "full failover must not strand waiters");
        assert_eq!(
            outcome.cluster.completed + outcome.cluster.shed + outcome.failed,
            outcome.cluster.requests
        );
    }
}

#[test]
fn joined_waiters_ride_the_same_timeout_as_the_initiator() {
    // Three nodes, one template holder. A same-instant burst saturates
    // the holder, so overflow starts one transfer and the rest *join* it
    // as waiters. The source then crashes mid-wire. Full failover must
    // re-route every waiter — the joiners exactly like the initiator —
    // while the baseline leaves them all hanging on the orphaned wire.
    let plan = NodePlan::quiet(3).with_crash(0, SimNanos::from_micros(20));
    let trace: Vec<TraceRequest> = (0..120u64)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_nanos(i),
            function: 0,
        })
        .collect();
    let run = |policy: ChaosPolicy| {
        ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
            .with_model(model())
            .with_node_capacity(40)
            .with_chaos(plan.clone(), policy)
            .run_chaos(&trace)
            .unwrap()
    };

    let full = run(ChaosPolicy::full());
    assert!(full.aborted_transfers > 0, "the crash must orphan a wire");
    assert!(
        full.failovers > 1,
        "joined waiters must fail over alongside the initiator (got {})",
        full.failovers
    );
    assert_eq!(full.hung, 0);

    let baseline = run(ChaosPolicy::none());
    assert!(
        baseline.hung > 1,
        "the baseline must strand the joined waiters too (got {})",
        baseline.hung
    );
    assert_eq!(baseline.failovers, 0);
}

#[test]
fn transfer_fault_plans_are_consulted_under_chaos() {
    // Three nodes, one holder, a same-window burst: overflow must start
    // template transfers, and every transfer consults the armed seam.
    let trace: Vec<TraceRequest> = (0..150u64)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_nanos(i),
            function: 0,
        })
        .collect();
    let always = FaultPlan::zero(0xC12).with_point(
        InjectionPoint::TemplateTransfer,
        PointPlan {
            rate: 1.0,
            stall_ratio: 0.0,
            max_burst: 1,
        },
    );
    let run = |faults: FaultPlan, policy: ChaosPolicy| {
        ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
            .with_model(model())
            .with_node_capacity(40)
            .with_faults(faults)
            .with_chaos(NodePlan::quiet(7), policy)
            .run_chaos(&trace)
            .unwrap()
    };
    for policy in [ChaosPolicy::full(), ChaosPolicy::none()] {
        let transient = run(always.clone(), policy);
        assert!(
            transient.cluster.transfer_faults > 0,
            "{}: the fault plan was dropped: {transient:?}",
            policy.label()
        );
        assert_eq!(transient.cluster.cold, 0, "transients retry on the wire");
        assert_eq!(transient.cluster.node_repairs, 0);

        let poison = run(always.clone().with_poison_ratio(1.0), policy);
        assert!(poison.cluster.transfer_faults > 0, "{poison:?}");
        assert!(
            poison.cluster.node_repairs > 0,
            "repairs run in the background"
        );
        assert!(poison.cluster.cold > 0, "poisoned transfers fall to cold");

        for out in [&transient, &poison] {
            assert_eq!(
                out.cluster.completed + out.cluster.shed + out.failed,
                out.cluster.requests,
                "conservation: {out:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the sampled fault schedule — crashes, partitions, gray
    /// windows, under either policy — every request is completed, shed,
    /// or failed typed; the books always balance.
    #[test]
    fn chaos_conserves_requests_under_any_schedule(
        seed in any::<u64>(),
        nodes in 2usize..6,
        faults in 1usize..6,
        failover in any::<bool>(),
        burst in 60u64..200,
    ) {
        let plan = NodePlan::storm(
            seed,
            nodes as u32,
            faults,
            SimNanos::from_micros(10),
            SimNanos::from_millis(8),
        );
        let policy = if failover { ChaosPolicy::full() } else { ChaosPolicy::none() };
        let outcome = ClusterSim::new(
            vec![AppProfile::c_hello()],
            ClusterConfig::new(nodes, 1),
        )
        .with_model(model())
        .with_node_capacity(30)
        .with_chaos(plan, policy)
        .run_chaos(&paced_trace(burst, 40))
        .unwrap();
        prop_assert_eq!(
            outcome.cluster.completed + outcome.cluster.shed + outcome.failed,
            outcome.cluster.requests
        );
        prop_assert!(outcome.hung <= outcome.failed);
        let availability = outcome.cluster.completed as f64 / outcome.cluster.requests as f64;
        prop_assert!((outcome.availability - availability).abs() < 1e-9);
    }

    /// Same plan, same policy → byte-identical outcome, chaos log and
    /// hedge/failover counters included.
    #[test]
    fn same_seed_chaos_runs_replay_byte_identical_histories(
        seed in any::<u64>(),
        nodes in 2usize..5,
        faults in 1usize..5,
        failover in any::<bool>(),
        burst in 40u64..120,
    ) {
        let plan = NodePlan::storm(
            seed,
            nodes as u32,
            faults,
            SimNanos::from_micros(10),
            SimNanos::from_millis(6),
        );
        let policy = if failover { ChaosPolicy::full() } else { ChaosPolicy::none() };
        let trace = paced_trace(burst, 50);
        let a = chaos_digest(nodes, 1, 25, &plan, policy, &trace);
        let b = chaos_digest(nodes, 1, 25, &plan, policy, &trace);
        prop_assert_eq!(a, b);
    }
}
