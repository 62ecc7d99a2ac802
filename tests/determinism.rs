//! Integration: the whole simulation is deterministic — identical runs
//! produce identical virtual-time results, which is what makes the figure
//! regeneration trustworthy and diffable.

use catalyzer_suite::prelude::*;
use catalyzer_suite::workloads::generator::{trace, Popularity};

fn model() -> CostModel {
    CostModel::experimental_machine()
}

fn full_boot_fingerprint() -> Vec<(String, u64)> {
    let model = model();
    let mut out = Vec::new();
    for profile in [AppProfile::c_hello(), AppProfile::python_hello()] {
        let mut cat = Catalyzer::new();
        cat.ensure_template(&profile, &model).unwrap();
        for mode in [BootMode::Cold, BootMode::Warm, BootMode::Fork] {
            let mut ctx = BootCtx::fresh(&model);
            let mut boot = cat.boot(mode, &profile, &mut ctx).unwrap();
            boot.program.invoke_handler(ctx.clock(), &model).unwrap();
            out.push((
                format!("{}/{}", profile.name, mode.label()),
                ctx.now().as_nanos(),
            ));
        }
    }
    out
}

#[test]
fn end_to_end_pipeline_is_bit_for_bit_repeatable() {
    assert_eq!(full_boot_fingerprint(), full_boot_fingerprint());
}

#[test]
fn baseline_engines_are_repeatable_too() {
    let model = model();
    let run = || {
        let mut out = Vec::new();
        let mut gv = GvisorEngine::new();
        let mut rs = GvisorRestoreEngine::new();
        for profile in [AppProfile::c_nginx(), AppProfile::ruby_hello()] {
            for engine in [&mut gv as &mut dyn BootEngine, &mut rs] {
                let mut ctx = BootCtx::fresh(&model);
                engine.boot(&profile, &mut ctx).unwrap();
                out.push(ctx.now().as_nanos());
            }
        }
        out
    };
    assert_eq!(run(), run());
}

#[test]
fn traces_and_jitter_are_seed_stable() {
    let a = trace(8, 256, 100.0, Popularity::Zipf { exponent: 1.0 }, 1234);
    let b = trace(8, 256, 100.0, Popularity::Zipf { exponent: 1.0 }, 1234);
    assert_eq!(a, b);

    use catalyzer_suite::simtime::jitter::Jitter;
    let mut j1 = Jitter::seeded(77);
    let mut j2 = Jitter::seeded(77);
    for _ in 0..128 {
        assert_eq!(
            j1.lognormal_factor(0.2).to_bits(),
            j2.lognormal_factor(0.2).to_bits()
        );
    }
}

/// One full run of every Fig. 11 engine over one profile, returning the
/// serialized span tree of each boot. Identical inputs must yield
/// byte-identical traces — the observability layer runs on virtual time
/// only, so two runs can differ in nothing.
fn serialized_traces() -> Vec<String> {
    let model = model();
    let profile = AppProfile::python_hello();
    let mut traces = Vec::new();

    let mut baselines: Vec<Box<dyn BootEngine>> = vec![
        Box::new(GvisorEngine::new()),
        Box::new(GvisorRestoreEngine::new()),
        Box::new(FirecrackerEngine::new()),
    ];
    for engine in &mut baselines {
        let mut ctx = BootCtx::fresh(&model);
        let outcome = engine.boot(&profile, &mut ctx).unwrap();
        traces.push(serde_json::to_string(&outcome.trace).unwrap());
    }

    let mut cat = Catalyzer::new();
    cat.ensure_template(&profile, &model).unwrap();
    for mode in [BootMode::Cold, BootMode::Warm, BootMode::Fork] {
        let mut ctx = BootCtx::fresh(&model);
        let outcome = cat.boot(mode, &profile, &mut ctx).unwrap();
        traces.push(serde_json::to_string(&outcome.trace).unwrap());
    }
    traces
}

#[test]
fn span_trees_are_byte_identical_across_runs() {
    let first = serialized_traces();
    let second = serialized_traces();
    assert_eq!(first, second, "serialized span trees drifted between runs");
    for text in &first {
        let span: Span = serde_json::from_str(text).unwrap();
        span.validate_nesting().unwrap();
        assert_eq!(span.name, SPAN_BOOT);
    }
}

/// The fleet simulation owns all of its state: no globals, no wall clock,
/// no ambient entropy — that is what the ban list in `crates/clippy.toml`
/// pins statically. This is the dynamic counterpart: the same chaos run
/// executed on several OS threads, spawned in different orders across
/// rounds, must serialize to byte-identical `ChaosOutcome` JSON. Any
/// drift means hidden shared state the static passes missed.
#[test]
fn chaos_outcome_is_identical_across_thread_orderings() {
    use catalyzer_suite::faultsim::NodePlan;
    use catalyzer_suite::platform::cluster::{ChaosPolicy, ClusterConfig, ClusterSim};
    use catalyzer_suite::platform::simulate::TraceRequest;

    let digest = || {
        let plan = NodePlan::quiet(3).with_crash(0, SimNanos::from_millis(2));
        let trace: Vec<TraceRequest> = (0..200u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(i * 20),
                function: 0,
            })
            .collect();
        let outcome = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
            .with_model(model())
            .with_node_capacity(50)
            .with_chaos(plan, ChaosPolicy::full())
            .run_chaos(&trace)
            .unwrap();
        serde_json::to_string(&outcome).unwrap()
    };

    let round = |order: &[usize]| -> Vec<String> {
        let mut tagged: Vec<(usize, String)> = std::thread::scope(|s| {
            let handles: Vec<_> = order
                .iter()
                .map(|&id| s.spawn(move || (id, digest())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("chaos worker panicked"))
                .collect()
        });
        tagged.sort_by_key(|(id, _)| *id);
        tagged.into_iter().map(|(_, d)| d).collect()
    };

    let forward = round(&[0, 1, 2, 3]);
    let reversed = round(&[3, 2, 1, 0]);
    assert_eq!(
        forward, reversed,
        "spawn order leaked into the chaos outcome"
    );
    assert!(
        forward.windows(2).all(|w| w[0] == w[1]),
        "two workers in the same round disagreed"
    );
}

#[test]
fn offline_work_is_deterministic_as_well() {
    let model = model();
    let offline = |_: u32| {
        let mut cat = Catalyzer::new();
        cat.prewarm_image(&AppProfile::node_hello(), &model)
            .unwrap();
        cat.offline_time().as_nanos()
    };
    assert_eq!(offline(0), offline(1));
}
