//! The name registry is closed in both directions, and both are observed.
//!
//! - **Every emitted name is registered.** `MetricsRegistry`'s writers and
//!   `Tracer::begin` `debug_assert!` `simtime::names::is_registered`, so
//!   every debug test run — this one included — fails on a name under a
//!   registry prefix that is neither a constant nor a helper's shape.
//! - **Every registered name is emitted.** [`every_registered_name_is_emitted`]
//!   unions the counter, gauge, histogram and span names of a fixed set of
//!   runs and requires the union to cover `names::ALL`, with no exception.
//!   A constant whose only emitter is deleted fails here.
//!
//! The runs: every boot path the seam matrix has a row for, a gateway under
//! a fault storm, an admission storm, a self-healing pool whose engine's
//! rebuild fails, closed-loop chaos clusters, and one remote-sfork call. The
//! open-loop kernels (`run_fleet`, `run_cluster`, `run_chaos`) emit no
//! metrics: their counts are typed outcome fields. The trade: a registered
//! name that only some other run emits must be added to a run here.

use std::collections::BTreeSet;

use catalyzer_suite::catalyzer::FirecrackerSnapshotEngine;
use catalyzer_suite::faultsim::{
    FaultKind, FaultPlan, InjectedFault, InjectionPoint, NodePlan, PointPlan,
};
use catalyzer_suite::platform::cluster::{
    ChaosPolicy, Cluster, ClusterConfig, ClusterEngine, RoutingPolicy,
};
use catalyzer_suite::platform::simulate::TraceRequest;
use catalyzer_suite::platform::{AdmissionPolicy, InstancePool, ResiliencePolicy, Simulation};
use catalyzer_suite::prelude::*;
use catalyzer_suite::sandbox::{IsolationLevel, SandboxError};
use catalyzer_suite::simtime::names;

fn model() -> CostModel {
    CostModel::experimental_machine()
}

/// Every counter, gauge and histogram name in `metrics`.
fn metric_names(metrics: &MetricsRegistry, out: &mut BTreeSet<String>) {
    out.extend(metrics.counters().map(|(name, _)| name.to_string()));
    out.extend(metrics.gauges().map(|(name, _)| name.to_string()));
    out.extend(metrics.histograms().map(|(name, _)| name.to_string()));
}

/// Every span name in `span`'s tree.
fn span_names(span: &Span, out: &mut BTreeSet<String>) {
    span.walk(&mut |_, s| {
        out.insert(s.name.clone());
    });
}

/// `n` single-function arrivals `gap` apart.
fn paced(n: u64, gap: SimNanos) -> Vec<TraceRequest> {
    (0..n)
        .map(|i| TraceRequest {
            arrival: gap.saturating_mul(i),
            function: 0,
        })
        .collect()
}

/// Every boot path the seam matrix has a row for but the remote rung
/// (see [`remote_sfork`]), booted clean twice on one engine: the first boot
/// of a restore engine is cold, the second reuses what it prepared.
fn boot_paths(out: &mut BTreeSet<String>) {
    let model = model();
    let profile = AppProfile::c_hello();
    let cluster = |degrades: usize| -> Box<dyn BootEngine> {
        let mut engine: Box<dyn BootEngine> = Box::new(ClusterEngine::default());
        for _ in 0..degrades {
            assert!(engine.degrade().is_some(), "the cluster ladder ends early");
        }
        engine
    };
    let mut engines: Vec<Box<dyn BootEngine>> = vec![
        Box::new(DockerEngine::new()),
        Box::new(GvisorEngine::new()),
        Box::new(FirecrackerEngine::new()),
        Box::new(HyperContainerEngine::new()),
        Box::new(GvisorRestoreEngine::new()),
        Box::new(FirecrackerSnapshotEngine::new()),
        Box::new(CatalyzerEngine::standalone(BootMode::Cold)),
        Box::new(CatalyzerEngine::standalone(BootMode::Warm)),
        Box::new(CatalyzerEngine::standalone(BootMode::Fork)),
        cluster(0),
        cluster(1),
        cluster(2),
    ];
    for engine in &mut engines {
        for _ in 0..2 {
            let mut ctx = BootCtx::fresh(&model);
            engine.boot(&profile, &mut ctx).unwrap();
            ctx.spans().iter().for_each(|span| span_names(span, out));
        }
    }
    let mut catalyzer = Catalyzer::new();
    catalyzer
        .ensure_language_template(profile.runtime, &model)
        .unwrap();
    let mut ctx = BootCtx::fresh(&model);
    catalyzer
        .language_template_boot(&profile, &mut ctx)
        .unwrap();
    ctx.spans().iter().for_each(|span| span_names(span, out));
}

/// Fires on every consultation, as a plain transient error.
const FIRING: PointPlan = PointPlan {
    rate: 1.0,
    stall_ratio: 0.0,
    max_burst: 1,
};

/// A fork-boot gateway under a uniform fault storm that poisons what it
/// hits (retries, quarantines and every fallback rung), and one with no
/// recovery at all, whose faulted call fails.
fn gateway_fault_storm(out: &mut BTreeSet<String>) {
    let plan = FaultPlan::uniform(0xFA17, 0.2).with_poison_ratio(0.5);
    let mut gateway = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model())
        .with_policy(ResiliencePolicy {
            max_retries: 6,
            ..ResiliencePolicy::full()
        })
        .with_faults(plan);
    gateway.register(AppProfile::c_hello());
    gateway.warm("C-hello").unwrap();
    for _ in 0..32 {
        let invocation = gateway.call(InvokeRequest::new("C-hello")).unwrap();
        span_names(&invocation.trace, out);
    }
    metric_names(gateway.metrics(), out);

    let mut gateway = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model())
        .with_policy(ResiliencePolicy::none())
        .with_faults(FaultPlan::zero(1).with_point(InjectionPoint::SforkMerge, FIRING));
    gateway.register(AppProfile::c_hello());
    assert!(gateway.call(InvokeRequest::new("C-hello")).is_err());
    metric_names(gateway.metrics(), out);
}

/// Overload on both admission paths: a closed-loop fleet whose pools are
/// poisoned mid-run (sheds of every kind, breaker trips, self-healing
/// repairs) beside a calm one, and a gateway burst that queues.
fn admission_storm(out: &mut BTreeSet<String>) {
    let plan = FaultPlan::zero(0xAD)
        .with_poison_ratio(1.0)
        .with_point(InjectionPoint::SforkMerge, FIRING)
        .with_point(InjectionPoint::ArenaMap, FIRING)
        .with_window(SimNanos::from_millis(20), SimNanos::from_millis(60));
    let report = Simulation::new(vec![AppProfile::c_hello()])
        .with_engine(|_| CatalyzerEngine::standalone(BootMode::Fork))
        .with_model(model())
        .with_keep_alive(SimNanos::from_millis(1))
        .with_max_idle(0)
        .with_resilience(ResiliencePolicy {
            max_retries: 8,
            ..ResiliencePolicy::full()
        })
        .with_admission(AdmissionPolicy::standard(2, SimNanos::from_millis(5)))
        .with_faults(plan)
        .run(&paced(200, SimNanos::from_micros(700)))
        .unwrap();
    metric_names(&report.metrics, out);

    // The calm side: reuse.
    let report = Simulation::new(vec![AppProfile::c_hello()])
        .with_model(model())
        .with_keep_alive(SimNanos::from_millis(1))
        .with_max_idle(1)
        .run(&paced(50, SimNanos::from_micros(300)))
        .unwrap();
    metric_names(&report.metrics, out);

    let mut gateway = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model())
        .with_admission(AdmissionPolicy::standard(1, SimNanos::from_secs(1)));
    gateway.register(AppProfile::c_hello());
    for _ in 0..4 {
        if let Ok(invocation) = gateway.call(InvokeRequest::at("C-hello", SimNanos::ZERO)) {
            span_names(&invocation.trace, out);
        }
    }
    metric_names(gateway.metrics(), out);
}

/// A boot engine whose prepared state stays poisoned: every boot fails with
/// an injected poison, and so does the rebuild that would clear it.
struct PoisonedEngine;

impl BootEngine for PoisonedEngine {
    fn name(&self) -> &'static str {
        "poisoned"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::High
    }

    fn boot(
        &mut self,
        _profile: &AppProfile,
        _ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        Err(SandboxError::Fault(InjectedFault {
            seq: 0,
            point: InjectionPoint::SforkMerge,
            kind: FaultKind::Poison,
            delay: SimNanos::ZERO,
        }))
    }

    fn repair(
        &mut self,
        _profile: &AppProfile,
        _model: &CostModel,
    ) -> Result<SimNanos, SandboxError> {
        Err(SandboxError::Config {
            detail: "the rebuild fails too".to_string(),
        })
    }
}

/// A self-healing pool over a poisoned engine: the failed request leaves a
/// repair pending, and the pool's first repair pass fails in the engine's
/// rebuild.
fn failing_repair(out: &mut BTreeSet<String>) {
    let mut pool = InstancePool::new(
        PoisonedEngine,
        AppProfile::c_hello(),
        SimNanos::from_millis(1),
        1,
    )
    .with_self_healing();
    assert!(pool.serve_at(SimNanos::ZERO, &model()).is_err());
    assert!(pool.tick(SimNanos::ZERO, &model()).is_err());
    metric_names(pool.metrics(), out);
}

/// Closed-loop clusters through each outcome the scheduler counts: a
/// three-node cluster whose only holder crashes, under full failover (the
/// template is re-replicated and served locally) and under the baseline
/// (the call is routed at the corpse and fails); a local-cold cluster whose
/// only holder is partitioned away (the re-route pulls the cold image); and
/// one node under an admission limit that a same-instant burst overruns.
fn chaos_cluster(out: &mut BTreeSet<String>) {
    let crash = NodePlan::quiet(1).with_crash(0, SimNanos::from_millis(5));
    for policy in [ChaosPolicy::full(), ChaosPolicy::none()] {
        let mut cluster = Cluster::new(ClusterConfig::new(3, 1), &model())
            .unwrap()
            .with_chaos(crash.clone(), policy)
            .unwrap();
        cluster.register(AppProfile::c_hello());
        for ms in [1, 10] {
            let _ = cluster.call("C-hello", Some(SimNanos::from_millis(ms)));
        }
        metric_names(cluster.metrics(), out);
    }

    let mut config = ClusterConfig::new(2, 1);
    config.routing = RoutingPolicy::LocalCold;
    let mut cluster = Cluster::new(config, &model())
        .unwrap()
        .with_chaos(
            NodePlan::quiet(1).with_partition([0], SimNanos::ZERO, SimNanos::from_secs(10)),
            ChaosPolicy::full(),
        )
        .unwrap();
    cluster.register(AppProfile::c_hello());
    cluster
        .call("C-hello", Some(SimNanos::from_millis(1)))
        .unwrap();
    metric_names(cluster.metrics(), out);

    let mut cluster = Cluster::new(ClusterConfig::new(1, 1), &model())
        .unwrap()
        .with_admission(AdmissionPolicy::standard(1, SimNanos::from_secs(5)));
    cluster.register(AppProfile::c_hello());
    for i in 0..8 {
        let _ = cluster.call("C-hello", Some(SimNanos::from_nanos(i)));
    }
    metric_names(cluster.metrics(), out);
}

/// Calls from the node without the template: the only holder is
/// partitioned away, so node 1 transfers the template in and forks. With
/// the transfer and the warm rung's Zygote failing, it falls to a cold boot
/// that pulls the image from the registry.
fn remote_sfork(out: &mut BTreeSet<String>) {
    let faults = [
        FaultPlan::zero(1),
        FaultPlan::zero(1)
            .with_point(InjectionPoint::TemplateTransfer, FIRING)
            .with_point(InjectionPoint::ZygoteSpecialize, FIRING),
    ];
    for plan in faults {
        let mut cluster = Cluster::new(ClusterConfig::new(2, 1), &model())
            .unwrap()
            .with_policy(ResiliencePolicy {
                max_retries: 0,
                ..ResiliencePolicy::full()
            })
            .with_faults(plan)
            .with_chaos(
                NodePlan::quiet(1).with_partition([0], SimNanos::ZERO, SimNanos::from_secs(10)),
                ChaosPolicy::full(),
            )
            .unwrap();
        cluster.register(AppProfile::c_hello());
        let (_, invocation) = cluster
            .call("C-hello", Some(SimNanos::from_millis(1)))
            .unwrap();
        span_names(&invocation.trace, out);
        metric_names(cluster.metrics(), out);
    }
}

#[test]
fn every_registered_name_is_emitted() {
    let mut emitted = BTreeSet::new();
    boot_paths(&mut emitted);
    gateway_fault_storm(&mut emitted);
    admission_storm(&mut emitted);
    failing_repair(&mut emitted);
    chaos_cluster(&mut emitted);
    remote_sfork(&mut emitted);

    let missing: Vec<&str> = names::ALL
        .iter()
        .copied()
        .filter(|name| !emitted.contains(*name))
        .collect();
    assert!(
        missing.is_empty(),
        "registered in simtime::names but emitted by no run here: {missing:?}"
    );
}
