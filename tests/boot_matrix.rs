//! Integration: every boot engine boots every class of application, serves a
//! request, and the paper's latency ordering holds across systems.

use catalyzer_suite::prelude::*;

fn model() -> CostModel {
    CostModel::experimental_machine()
}

fn boot_and_serve(engine: &mut dyn BootEngine, profile: &AppProfile) -> (SimNanos, SimNanos) {
    let model = model();
    let mut ctx = BootCtx::fresh(&model);
    let mut outcome = engine.boot(profile, &mut ctx).expect("boot");
    let boot = ctx.now();
    let exec = outcome
        .program
        .invoke_handler(ctx.clock(), &model)
        .expect("handler");
    assert!(
        exec.pages_touched > 0,
        "{}: handler touched nothing",
        outcome.system
    );
    (boot, ctx.now().saturating_sub(boot))
}

#[test]
fn every_engine_boots_every_runtime_class() {
    let apps = [
        AppProfile::c_hello(),
        AppProfile::python_hello(),
        AppProfile::java_hello(),
    ];
    let shared = std::rc::Rc::new(std::cell::RefCell::new(Catalyzer::new()));
    let mut engines: Vec<Box<dyn BootEngine>> = vec![
        Box::new(DockerEngine::new()),
        Box::new(HyperContainerEngine::new()),
        Box::new(FirecrackerEngine::new()),
        Box::new(GvisorEngine::new()),
        Box::new(GvisorRestoreEngine::new()),
        Box::new(CatalyzerEngine::new(shared.clone(), BootMode::Cold)),
        Box::new(CatalyzerEngine::new(shared.clone(), BootMode::Warm)),
        Box::new(CatalyzerEngine::new(shared, BootMode::Fork)),
    ];
    for engine in &mut engines {
        // Preparation is offline, so a second boot on a fresh clock costs
        // what the first did — which is why the open-loop kernels boot a
        // shape once. Catalyzer's cold boot is the exception: its first
        // boot builds the func-image's Base-EPT on the critical path
        // (`map-file`), and later cold boots attach the stored one
        // (`share-mapping`).
        let cold = engine.name() == BootMode::Cold.label();
        for app in &apps {
            let (boot, exec) = boot_and_serve(engine.as_mut(), app);
            assert!(boot > SimNanos::ZERO);
            assert!(exec > SimNanos::ZERO);
            let (again, _) = boot_and_serve(engine.as_mut(), app);
            if cold {
                assert!(again <= boot, "{}: {again} after {boot}", app.name);
            } else {
                assert_eq!(again, boot, "{} on {}", app.name, engine.name());
            }
        }
    }
}

#[test]
fn latency_ordering_matches_the_paper() {
    // Fig. 11's vertical ordering for any one app:
    // sfork < zygote < restore < gVisor-restore < gVisor < Hyper.
    let profile = AppProfile::python_django();
    let model = model();

    let mut cat = Catalyzer::new();
    cat.ensure_template(&profile, &model).unwrap();
    let latency = |mode: BootMode, cat: &mut Catalyzer| {
        let mut ctx = BootCtx::fresh(&model);
        cat.boot(mode, &profile, &mut ctx).unwrap();
        ctx.now()
    };
    let cold = latency(BootMode::Cold, &mut cat);
    let warm = latency(BootMode::Warm, &mut cat);
    let fork = latency(BootMode::Fork, &mut cat);

    let (gv_restore, _) = {
        let mut ctx = BootCtx::fresh(&model);
        let mut e = GvisorRestoreEngine::new();
        let o = e.boot(&profile, &mut ctx).unwrap();
        (ctx.now(), o)
    };
    let (gvisor, _) = {
        let mut ctx = BootCtx::fresh(&model);
        let mut e = GvisorEngine::new();
        let o = e.boot(&profile, &mut ctx).unwrap();
        (ctx.now(), o)
    };
    let (hyper, _) = {
        let mut ctx = BootCtx::fresh(&model);
        let mut e = HyperContainerEngine::new();
        let o = e.boot(&profile, &mut ctx).unwrap();
        (ctx.now(), o)
    };

    assert!(fork < warm, "fork {fork} !< warm {warm}");
    assert!(warm < cold, "warm {warm} !< cold {cold}");
    assert!(
        cold < gv_restore,
        "cold {cold} !< gvisor-restore {gv_restore}"
    );
    assert!(
        gv_restore < gvisor,
        "gvisor-restore {gv_restore} !< gvisor {gvisor}"
    );
    assert!(gvisor < hyper, "gvisor {gvisor} !< hyper {hyper}");
    // Headline: orders of magnitude between fork boot and gVisor.
    assert!(gvisor.as_nanos() / fork.as_nanos() > 100);
}

#[test]
fn sfork_is_sub_millisecond_for_c_and_under_2ms_for_specjbb() {
    let model = model();
    let mut cat = Catalyzer::new();
    for (profile, limit_ms) in [
        (AppProfile::c_hello(), 1.0),
        (AppProfile::java_specjbb(), 2.0),
    ] {
        cat.ensure_template(&profile, &model).unwrap();
        let mut ctx = BootCtx::fresh(&model);
        cat.boot(BootMode::Fork, &profile, &mut ctx).unwrap();
        let ms = ctx.now().as_millis_f64();
        assert!(ms < limit_ms, "{}: {ms} ms", profile.name);
    }
}

#[test]
fn repeated_boots_are_deterministic() {
    let model = model();
    let profile = AppProfile::c_nginx();
    let mut cat = Catalyzer::new();
    cat.ensure_template(&profile, &model).unwrap();
    let mut first = None;
    for _ in 0..5 {
        let mut ctx = BootCtx::fresh(&model);
        cat.boot(BootMode::Fork, &profile, &mut ctx).unwrap();
        match first {
            None => first = Some(ctx.now()),
            Some(expect) => assert_eq!(ctx.now(), expect, "fork boot latency drifted"),
        }
    }
}

#[test]
fn warm_boot_follows_cold_boot_within_the_papers_gap() {
    let model = model();
    for profile in [AppProfile::c_hello(), AppProfile::java_hello()] {
        let mut cat = Catalyzer::new();
        let cold = {
            let mut ctx = BootCtx::fresh(&model);
            cat.boot(BootMode::Cold, &profile, &mut ctx).unwrap();
            ctx.now()
        };
        let warm = {
            let mut ctx = BootCtx::fresh(&model);
            cat.boot(BootMode::Warm, &profile, &mut ctx).unwrap();
            ctx.now()
        };
        let gap = cold.saturating_sub(warm).as_millis_f64();
        // §6.2: "Catalyzer-restore usually needs extra 30ms over
        // Catalyzer-Zygote" — accept a 15–45 ms band.
        assert!(
            (15.0..45.0).contains(&gap),
            "{}: gap {gap} ms",
            profile.name
        );
    }
}
