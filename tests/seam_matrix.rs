//! The seam matrix: every boot path, booted once per fault seam with only
//! that seam armed, checked against one table of which path owns which seam.
//!
//! faultsim's `InjectionPoint`s are the places a boot can be made to fail:
//! overlay memory, the two stages of separated state recovery, I/O
//! reconnection, Zygote specialisation, sfork (paper §3.1–§3.4, §4.2) and
//! the cluster's template transfer. The fault sweep and the chaos grid only
//! mean something if every boot path fails at exactly the seams it owns, so
//! this test observes it. A row is one boot path; a column is one point,
//! armed alone at rate 1.0; every cell boots twice, on a fresh engine and on
//! one that has already booted clean once. In a cell [`owns`] marks, the
//! boot must fail with `SandboxError::Fault` at the armed point. Every other
//! cell must boot, with the same span tree as a clean boot.
//!
//! Two more checks keep the table honest:
//!
//! - **The operation comes after its consult.** A failed boot's span names,
//!   in order and minus the trailing `fault:<point>` span, are a prefix of a
//!   clean boot's from the same engine state, and the clean boot still runs
//!   the guarded operation's span ([`guarded_span`]) after that prefix.
//! - **The engine list is closed.** Every `impl BootEngine for` in
//!   `crates/*/src` must be some row's engine. The trade: a boot path that
//!   no row drives is not checked at all.
//!
//! Every row boots through a `Box<dyn BootEngine>`, which covers the
//! forwarding impl, except the cluster's remote-sfork rung: only the
//! scheduler sets a node's route, so that row calls `Cluster::call` on a
//! two-node cluster whose one template holder is cut off by a partition.
//! A failed call there returns no span tree, so its consult is placed by
//! virtual time instead: the fault fires no later than the clean call opens
//! the guarded operation's span.
//!
//! Run with `-- --nocapture` for one line per row naming the seams it owns.

use std::fs;
use std::path::Path;

use catalyzer_suite::catalyzer::{
    BootMode, Catalyzer, CatalyzerConfig, CatalyzerEngine, FirecrackerSnapshotEngine,
};
use catalyzer_suite::faultsim::{FaultInjector, FaultPlan, InjectionPoint, NodePlan, PointPlan};
use catalyzer_suite::platform::cluster::{ChaosPolicy, Cluster, ClusterConfig, ClusterEngine};
use catalyzer_suite::platform::{PlatformError, ResiliencePolicy};
use catalyzer_suite::runtimes::AppProfile;
use catalyzer_suite::sandbox::{
    BootCtx, BootEngine, BootOutcome, DockerEngine, FirecrackerEngine, GvisorEngine,
    GvisorRestoreEngine, HyperContainerEngine, IsolationLevel, SandboxError,
};
use catalyzer_suite::simtime::trace::Span;
use catalyzer_suite::simtime::{names, CostModel, SimNanos};

/// One boot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    Docker,
    Gvisor,
    Firecracker,
    HyperContainer,
    GvisorRestore,
    FirecrackerSnapshot,
    CatalyzerCold,
    CatalyzerWarm,
    CatalyzerWarmNoZygotes,
    CatalyzerFork,
    LanguageTemplate,
    ClusterLocal,
    ClusterRemote,
    ClusterWarm,
    ClusterCold,
}

/// The table: does `row`'s boot consult `point`? No `_` arm, so a new
/// injection point does not compile until someone places it.
fn owns(row: Row, point: InjectionPoint) -> bool {
    use Row::*;
    match point {
        // Overlay memory, relink and I/O reconnection: every restore.
        InjectionPoint::ImageMmap | InjectionPoint::Relink | InjectionPoint::IoReconnect => {
            matches!(
                row,
                GvisorRestore
                    | FirecrackerSnapshot
                    | CatalyzerCold
                    | CatalyzerWarm
                    | CatalyzerWarmNoZygotes
                    | ClusterWarm
                    | ClusterCold
            )
        }
        // Stage 1 of separated state recovery: gVisor-restore decodes its
        // checkpoint one object at a time instead.
        InjectionPoint::ArenaMap => matches!(
            row,
            FirecrackerSnapshot
                | CatalyzerCold
                | CatalyzerWarm
                | CatalyzerWarmNoZygotes
                | ClusterWarm
                | ClusterCold
        ),
        InjectionPoint::ZygoteSpecialize => matches!(row, CatalyzerWarm | ClusterWarm),
        // Every fork, the language template's and the remote rung's
        // (a fork from the received replica) included.
        InjectionPoint::SforkMerge => matches!(
            row,
            CatalyzerFork | LanguageTemplate | ClusterLocal | ClusterRemote
        ),
        InjectionPoint::TemplateTransfer => row == ClusterRemote,
    }
}

/// The span of the operation `point` guards: a clean boot runs it after
/// everything a boot failing at `point` ran.
fn guarded_span(point: InjectionPoint) -> &'static str {
    match point {
        InjectionPoint::ImageMmap => names::PHASE_RESTORE_MEMORY,
        InjectionPoint::ArenaMap => "separated-state",
        InjectionPoint::Relink => names::PHASE_RESTORE_KERNEL,
        InjectionPoint::IoReconnect => names::PHASE_RESTORE_IO,
        InjectionPoint::ZygoteSpecialize => names::PHASE_SANDBOX_ZYGOTE_SPECIALIZE,
        InjectionPoint::SforkMerge => names::PHASE_SFORK_EXPAND_THREADS,
        InjectionPoint::TemplateTransfer => names::SPAN_TRANSFER,
    }
}

/// The library type behind each row, for the closed-list check.
fn engine_type(row: Row) -> &'static str {
    match row {
        Row::Docker => "DockerEngine",
        Row::Gvisor => "GvisorEngine",
        Row::Firecracker => "FirecrackerEngine",
        Row::HyperContainer => "HyperContainerEngine",
        Row::GvisorRestore => "GvisorRestoreEngine",
        Row::FirecrackerSnapshot => "FirecrackerSnapshotEngine",
        Row::CatalyzerCold
        | Row::CatalyzerWarm
        | Row::CatalyzerWarmNoZygotes
        | Row::CatalyzerFork => "CatalyzerEngine",
        Row::LanguageTemplate => "Catalyzer::language_template_boot",
        Row::ClusterLocal | Row::ClusterRemote | Row::ClusterWarm | Row::ClusterCold => {
            "ClusterEngine"
        }
    }
}

/// `Catalyzer::language_template_boot` is an entry point, not an engine:
/// this adapter puts it behind the trait so its row boots like the others.
struct LanguageTemplateBoot(Catalyzer);

impl BootEngine for LanguageTemplateBoot {
    fn name(&self) -> &'static str {
        "Catalyzer-JavaTemplate"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::High
    }

    fn boot(
        &mut self,
        profile: &AppProfile,
        ctx: &mut BootCtx,
    ) -> Result<BootOutcome, SandboxError> {
        self.0
            .ensure_language_template(profile.runtime, ctx.model())?;
        self.0.language_template_boot(profile, ctx)
    }
}

/// A fresh engine for every row but the remote rung.
fn engine(row: Row) -> Box<dyn BootEngine> {
    let catalyzer = |config: CatalyzerConfig, mode: BootMode| -> Box<dyn BootEngine> {
        Box::new(CatalyzerEngine::new(
            std::rc::Rc::new(std::cell::RefCell::new(Catalyzer::with_config(config))),
            mode,
        ))
    };
    // `ClusterEngine::default()` starts on its local rung; without a
    // remote route each `degrade` steps one rung down: warm, then cold.
    let cluster = |degrades: usize| -> Box<dyn BootEngine> {
        let mut engine: Box<dyn BootEngine> = Box::new(ClusterEngine::default());
        for _ in 0..degrades {
            assert!(engine.degrade().is_some(), "the cluster ladder ends early");
        }
        engine
    };
    let full = CatalyzerConfig::full();
    match row {
        Row::Docker => Box::new(DockerEngine::new()),
        Row::Gvisor => Box::new(GvisorEngine::new()),
        Row::Firecracker => Box::new(FirecrackerEngine::new()),
        Row::HyperContainer => Box::new(HyperContainerEngine::new()),
        Row::GvisorRestore => Box::new(GvisorRestoreEngine::new()),
        Row::FirecrackerSnapshot => Box::new(FirecrackerSnapshotEngine::new()),
        Row::CatalyzerCold => catalyzer(full, BootMode::Cold),
        Row::CatalyzerWarm => catalyzer(full, BootMode::Warm),
        Row::CatalyzerWarmNoZygotes => catalyzer(
            CatalyzerConfig {
                zygotes: false,
                ..full
            },
            BootMode::Warm,
        ),
        Row::CatalyzerFork => catalyzer(full, BootMode::Fork),
        Row::LanguageTemplate => Box::new(LanguageTemplateBoot(Catalyzer::new())),
        Row::ClusterLocal => cluster(0),
        Row::ClusterWarm => cluster(1),
        Row::ClusterCold => cluster(2),
        Row::ClusterRemote => unreachable!("the remote rung boots through Cluster::call"),
    }
}

/// `point` fires on every consultation, as a plain transient error.
const ARMED: PointPlan = PointPlan {
    rate: 1.0,
    stall_ratio: 0.0,
    max_burst: 1,
};

const SEED: u64 = 34;

fn plan(armed: Option<InjectionPoint>) -> FaultPlan {
    match armed {
        Some(point) => FaultPlan::zero(SEED).with_point(point, ARMED),
        None => FaultPlan::zero(SEED),
    }
}

/// How a boot ended.
#[derive(Debug, Clone, PartialEq)]
enum Ended {
    Booted,
    Fault(InjectionPoint),
    Error(String),
}

/// One observed boot: how it ended and every span it recorded, pre-order.
#[derive(Debug)]
struct Observed {
    ended: Ended,
    spans: Vec<String>,
}

fn span_names<'a>(roots: impl IntoIterator<Item = &'a Span>) -> Vec<String> {
    let mut out = Vec::new();
    for root in roots {
        root.walk(&mut |_, span| out.push(span.name.clone()));
    }
    out
}

fn boot_once(engine: &mut Box<dyn BootEngine>, armed: Option<InjectionPoint>) -> Observed {
    let model = CostModel::experimental_machine();
    let mut injector = FaultInjector::new(plan(armed));
    let mut ctx = BootCtx::fresh(&model).with_injector(&mut injector);
    let ended = match engine.boot(&AppProfile::c_hello(), &mut ctx) {
        Ok(_) => Ended::Booted,
        Err(SandboxError::Fault(fault)) => Ended::Fault(fault.point),
        Err(other) => Ended::Error(other.to_string()),
    };
    Observed {
        ended,
        spans: span_names(ctx.spans()),
    }
}

/// The engine states every cell is booted in.
#[derive(Debug, Clone, Copy)]
enum State {
    Fresh,
    AfterCleanBoot,
}

const STATES: [State; 2] = [State::Fresh, State::AfterCleanBoot];

/// What is wrong with one cell, if anything, given the clean boot from the
/// same engine state. `placed` says what is wrong with where the consult
/// sits; it is asked only of a cell that failed at its own point.
fn check_cell(
    row: Row,
    point: InjectionPoint,
    armed: &Observed,
    clean: &Observed,
    placed: impl FnOnce() -> Option<String>,
) -> Option<String> {
    if !owns(row, point) {
        return match &armed.ended {
            Ended::Booted if armed.spans == clean.spans => None,
            Ended::Booted => Some("booted, but not with the clean span tree".to_string()),
            ended => Some(format!("does not own the seam but ended {ended:?}")),
        };
    }
    if armed.ended != Ended::Fault(point) {
        return Some(format!("owns the seam but ended {:?}", armed.ended));
    }
    placed()
}

/// A boot failing at `point` must have run a prefix of the clean boot's
/// spans, then the `fault:` span, and the clean boot must still open the
/// guarded operation's span after that prefix.
fn consult_precedes_by_spans(
    point: InjectionPoint,
    failed: &[String],
    clean: &[String],
) -> Option<String> {
    let fault = names::fault_span(&point.to_string());
    let guarded = guarded_span(point);
    match failed.split_last() {
        Some((last, ran)) if *last == fault && clean.starts_with(ran) => {
            if clean[ran.len()..].iter().any(|s| s == guarded) {
                None
            } else {
                Some(format!(
                    "the failed boot already ran the guarded `{guarded}` span: {ran:?}"
                ))
            }
        }
        _ => Some(format!(
            "the failed boot's spans {failed:?} are not a prefix of the clean boot's {clean:?} \
             followed by `{fault}`"
        )),
    }
}

/// Every cell of one boxed row, in both states.
fn boxed_row(row: Row, failures: &mut Vec<String>) {
    // One engine booted clean twice gives both states' references.
    let mut reference = engine(row);
    let clean = [
        boot_once(&mut reference, None),
        boot_once(&mut reference, None),
    ];
    for (state, clean) in STATES.iter().zip(&clean) {
        if clean.ended != Ended::Booted {
            failures.push(format!(
                "{row:?} {state:?}: clean boot ended {:?}",
                clean.ended
            ));
            return;
        }
    }
    for point in InjectionPoint::ALL {
        for (state, clean) in STATES.iter().zip(&clean) {
            let mut e = engine(row);
            if let State::AfterCleanBoot = state {
                let warmup = boot_once(&mut e, None);
                assert_eq!(warmup.ended, Ended::Booted, "{row:?}: clean boot");
            }
            let armed = boot_once(&mut e, Some(point));
            let placed = || consult_precedes_by_spans(point, &armed.spans, &clean.spans);
            if let Some(wrong) = check_cell(row, point, &armed, clean, placed) {
                failures.push(format!("{row:?} × {point:?} ({state:?}): {wrong}"));
            }
        }
    }
}

// The remote rung: node 0 holds the template but is cut off from t = 0 to
// `HEAL`, so the scheduler fails over to node 1, which remote-sforks.
const CLEAN_AT: SimNanos = SimNanos::from_millis(1);
const ARMED_AT: SimNanos = SimNanos::from_secs(1);
const HEAL: SimNanos = SimNanos::from_secs(10);

/// One call on the remote rung at `ARMED_AT`, with `armed` firing from then
/// on; `AfterCleanBoot` first serves a clean call at `CLEAN_AT`. Returns
/// what was observed, the served call's span tree, and the virtual time of
/// the fault that fired.
fn remote_call(
    armed: Option<InjectionPoint>,
    state: State,
) -> (Observed, Option<Span>, Option<SimNanos>) {
    let model = CostModel::experimental_machine();
    let mut cluster = Cluster::new(ClusterConfig::new(2, 1), &model)
        .unwrap()
        .with_policy(ResiliencePolicy::none())
        .with_faults(plan(armed).with_window(ARMED_AT, SimNanos::MAX))
        .with_chaos(
            NodePlan::quiet(SEED).with_partition([0], SimNanos::ZERO, HEAL),
            ChaosPolicy::full(),
        )
        .unwrap();
    cluster.register(AppProfile::c_hello());
    assert_eq!(cluster.holders("C-hello").unwrap(), [0]);
    if let State::AfterCleanBoot = state {
        let (node, _) = cluster.call("C-hello", Some(CLEAN_AT)).unwrap();
        assert_eq!(node, 1);
    }
    let result = cluster.call("C-hello", Some(ARMED_AT));
    let route = cluster.history().last().unwrap();
    assert_eq!((route.node, route.rerouted), (1, true), "{route:?}");
    let observed = |ended| Observed {
        ended,
        spans: Vec::new(),
    };
    match result {
        Ok((_, invocation)) => {
            assert_eq!(route.kind, "remote");
            let spans = span_names([&invocation.trace]);
            let ended = Ended::Booted;
            (Observed { ended, spans }, Some(invocation.trace), None)
        }
        Err(PlatformError::Sandbox(SandboxError::Fault(fault))) => {
            let log = cluster.nodes()[1].gateway().injector().unwrap().log();
            let at = log.last().map(|record| record.at);
            (observed(Ended::Fault(fault.point)), None, at)
        }
        Err(other) => (observed(Ended::Error(other.to_string())), None, None),
    }
}

/// Every cell of the remote rung, in both states. A failed call returns no
/// span tree, so the consult is placed by virtual time: the fault fired no
/// later than the clean call opened the guarded operation's span.
fn remote_row(failures: &mut Vec<String>) {
    let row = Row::ClusterRemote;
    for state in STATES {
        let (clean, trace, _) = remote_call(None, state);
        let Some(trace) = trace else {
            failures.push(format!(
                "{row:?} {state:?}: clean call ended {:?}",
                clean.ended
            ));
            return;
        };
        for point in InjectionPoint::ALL {
            let (armed, _, fired_at) = remote_call(Some(point), state);
            let guarded = guarded_span(point);
            let placed = || {
                let Some(at) = fired_at else {
                    return Some("the fault left no record".to_string());
                };
                let mut opened_after = false;
                trace.walk(&mut |_, span| opened_after |= span.name == guarded && span.start >= at);
                (!opened_after).then(|| {
                    format!("the fault fired at {at}, after the clean call opened `{guarded}`")
                })
            };
            if let Some(wrong) = check_cell(row, point, &armed, &clean, placed) {
                failures.push(format!("{row:?} × {point:?} ({state:?}): {wrong}"));
            }
        }
    }
}

/// The `impl … BootEngine for <Type>` targets in `crates/*/src`.
fn engine_impls(root: &Path) -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<(String, String)>) {
        let mut entries: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let src = fs::read_to_string(&path).unwrap();
                for line in src.lines().map(str::trim_start) {
                    if !line.starts_with("impl") {
                        continue;
                    }
                    if let Some((_, target)) = line.split_once("BootEngine for ") {
                        let target = target.split('{').next().unwrap_or(target).trim();
                        out.push((path.display().to_string(), target.to_string()));
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut crates: Vec<_> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    for src in crates {
        walk(&src, &mut out);
    }
    out
}

#[test]
fn every_seam_has_an_owner() {
    for point in InjectionPoint::ALL {
        assert!(
            ROWS.iter().any(|&row| owns(row, point)),
            "no row owns {point:?}: every seam must be some boot path's"
        );
    }
}

#[test]
fn every_engine_in_the_source_has_a_row() {
    let impls = engine_impls(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        impls.len() >= 8,
        "the scan found too few engines: {impls:?}"
    );
    for (file, target) in &impls {
        // Every row but the remote rung boots through the forwarder.
        if target == "Box<dyn BootEngine>" {
            continue;
        }
        assert!(
            ROWS.iter().any(|&row| engine_type(row) == target),
            "{file}: `impl BootEngine for {target}` has no row in the seam matrix"
        );
    }
}

/// Boots every cell of `row`, prints the seams it owns and fails listing
/// every cell that disagrees with the table.
fn check_row(row: Row) {
    let mut failures = Vec::new();
    match row {
        Row::ClusterRemote => remote_row(&mut failures),
        _ => boxed_row(row, &mut failures),
    }
    let owned: Vec<&str> = InjectionPoint::ALL
        .into_iter()
        .filter(|&point| owns(row, point))
        .map(InjectionPoint::label)
        .collect();
    let owned = if owned.is_empty() {
        "no seam".to_string()
    } else {
        owned.join(", ")
    };
    println!("seam matrix: {:<24} owns {owned}", format!("{row:?}"));
    assert!(
        failures.is_empty(),
        "{} cell(s) disagree with the table:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

/// One test per row, so the harness boots the rows in parallel.
macro_rules! matrix {
    ($($test:ident: $row:ident),* $(,)?) => {
        const ROWS: &[Row] = &[$(Row::$row),*];

        mod row {
            $(
                #[test]
                fn $test() {
                    super::check_row(super::Row::$row);
                }
            )*
        }
    };
}

matrix! {
    docker: Docker,
    gvisor: Gvisor,
    firecracker: Firecracker,
    hyper_container: HyperContainer,
    gvisor_restore: GvisorRestore,
    firecracker_snapshot: FirecrackerSnapshot,
    catalyzer_cold: CatalyzerCold,
    catalyzer_warm: CatalyzerWarm,
    catalyzer_warm_without_zygotes: CatalyzerWarmNoZygotes,
    catalyzer_fork: CatalyzerFork,
    language_template: LanguageTemplate,
    cluster_local: ClusterLocal,
    cluster_remote: ClusterRemote,
    cluster_warm: ClusterWarm,
    cluster_cold: ClusterCold,
}
