//! Integration: the paper's headline quantitative claims hold in the
//! reproduction (shape and factor, not exact testbed numbers).

use catalyzer_suite::platform::Gateway;
use catalyzer_suite::prelude::*;
use catalyzer_suite::simtime::stats::Cdf;
use catalyzer_suite::workloads::{catalogue, deathstar::Service, ecommerce::EcommerceOp};

fn model() -> CostModel {
    CostModel::experimental_machine()
}

/// Abstract: "reduces startup latency by orders of magnitude, achieves <1ms
/// latency in the best case".
#[test]
fn headline_sub_millisecond_best_case() {
    let model = model();
    let profile = AppProfile::c_hello();
    let mut cat = Catalyzer::new();
    cat.ensure_template(&profile, &model).unwrap();
    let mut ctx = BootCtx::fresh(&model);
    cat.boot(BootMode::Fork, &profile, &mut ctx).unwrap();
    assert!(ctx.now() < SimNanos::from_millis(1), "{}", ctx.now());

    let gv = {
        let mut gctx = BootCtx::fresh(&model);
        GvisorEngine::new().boot(&profile, &mut gctx).unwrap();
        gctx.now()
    };
    let speedup = gv.as_nanos() as f64 / ctx.now().as_nanos() as f64;
    assert!(speedup > 100.0, "only {speedup}x over gVisor");
}

/// Abstract: "<2ms to boot Java SPECjbb, 1000x speedup over baseline gVisor"
/// — our gVisor baseline boots SPECjbb in ~2 s, so 1000x means ~2 ms.
#[test]
fn specjbb_three_orders_of_magnitude() {
    let model = model();
    let profile = AppProfile::java_specjbb();
    let gv = {
        let mut ctx = BootCtx::fresh(&model);
        GvisorEngine::new().boot(&profile, &mut ctx).unwrap();
        ctx.now()
    };
    let mut cat = Catalyzer::new();
    cat.ensure_template(&profile, &model).unwrap();
    let fork = {
        let mut ctx = BootCtx::fresh(&model);
        cat.boot(BootMode::Fork, &profile, &mut ctx).unwrap();
        ctx.now()
    };
    let speedup = gv.as_nanos() as f64 / fork.as_nanos() as f64;
    assert!(speedup > 900.0, "only {speedup}x");
    assert!(fork < SimNanos::from_millis(2));
}

/// Fig. 1: under gVisor, 12 of 14 functions spend <30 % of latency executing
/// and none exceeds ~65 %; under Catalyzer the ratios flip.
#[test]
fn fig1_execution_ratio_distribution() {
    let model = model();
    let fns = catalogue::fig1_functions();
    assert_eq!(fns.len(), 14);

    let mut gv = Gateway::new(GvisorEngine::new(), model.clone());
    let mut cat = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model.clone());
    for p in &fns {
        gv.register(p.clone());
        cat.register(p.clone());
    }
    let mut gv_ratios = Vec::new();
    let mut cat_ratios = Vec::new();
    for p in &fns {
        gv_ratios.push(
            gv.call(InvokeRequest::new(&p.name))
                .unwrap()
                .report
                .execution_ratio(),
        );
        cat_ratios.push(
            cat.call(InvokeRequest::new(&p.name))
                .unwrap()
                .report
                .execution_ratio(),
        );
    }
    let gv_cdf = Cdf::from_samples(gv_ratios.clone());
    let under_30 = gv_ratios.iter().filter(|&&r| r < 0.30).count();
    assert!(
        under_30 >= 11,
        "only {under_30}/14 gVisor functions under 30%"
    );
    assert!(
        gv_cdf.max().unwrap() < 0.70,
        "max gVisor ratio {}",
        gv_cdf.max().unwrap()
    );
    let cat_over_70 = cat_ratios.iter().filter(|&&r| r > 0.70).count();
    assert!(
        cat_over_70 >= 10,
        "only {cat_over_70}/14 Catalyzer functions over 70%"
    );
}

/// Fig. 13a: fork boot reduces DeathStar end-to-end latency 35–67x.
#[test]
fn deathstar_end_to_end_speedup_band() {
    let model = model();
    let mut gv = Gateway::new(GvisorEngine::new(), model.clone());
    let mut fork = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model.clone());
    for s in Service::ALL {
        gv.register(s.profile());
        fork.register(s.profile());
    }
    for s in Service::ALL {
        let name = s.profile().name;
        let a = gv.call(InvokeRequest::new(&name)).unwrap().report.total();
        let b = fork.call(InvokeRequest::new(&name)).unwrap().report.total();
        let speedup = a.as_nanos() as f64 / b.as_nanos() as f64;
        assert!(
            (25.0..160.0).contains(&speedup),
            "{name}: e2e speedup {speedup}x outside the paper's band"
        );
    }
}

/// Fig. 13c: boot is 34–88 % of e2e under gVisor, <5 % under Catalyzer.
#[test]
fn ecommerce_boot_share() {
    let model = CostModel::server_machine();
    let mut gv = Gateway::new(GvisorEngine::new(), model.clone());
    let mut fork = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model.clone());
    for op in EcommerceOp::ALL {
        gv.register(op.profile());
        fork.register(op.profile());
    }
    for op in EcommerceOp::ALL {
        let name = op.profile().name;
        let g = gv.call(InvokeRequest::new(&name)).unwrap().report;
        let share = g.boot.as_nanos() as f64 / g.total().as_nanos() as f64;
        assert!(
            (0.30..0.92).contains(&share),
            "{name}: gVisor boot share {share}"
        );
        let c = fork.call(InvokeRequest::new(&name)).unwrap().report;
        let share = c.boot.as_nanos() as f64 / c.total().as_nanos() as f64;
        assert!(share < 0.05, "{name}: Catalyzer boot share {share}");
    }
}

/// §6.2 zygote warm-boot anchors: C 5 / Java 14 / Python 9 / Ruby 12 /
/// Node 9 ms, within ±40 %.
#[test]
fn zygote_warm_boot_anchors() {
    let model = model();
    for (profile, expect) in [
        (AppProfile::c_hello(), 5.0),
        (AppProfile::java_hello(), 14.0),
        (AppProfile::python_hello(), 9.0),
        (AppProfile::ruby_hello(), 12.0),
        (AppProfile::node_hello(), 9.0),
    ] {
        let mut engine = CatalyzerEngine::standalone(BootMode::Warm);
        let mut ctx = BootCtx::fresh(&model);
        engine.boot(&profile, &mut ctx).unwrap();
        let ms = ctx.now().as_millis_f64();
        assert!(
            (expect * 0.6..expect * 1.4).contains(&ms),
            "{}: {ms} ms (paper {expect} ms)",
            profile.name
        );
    }
}

/// Fig. 15: with up to 1000 running instances, the paper's axis, Catalyzer
/// still boots in <10 ms while gVisor-restore sits an order of magnitude
/// above.
#[test]
fn scalability_under_concurrency() {
    let model = model();
    let profile = Service::Text.profile();
    let points = [0u32, 500, 1000];

    let mut cat = CatalyzerEngine::standalone(BootMode::Fork);
    let cat_pts =
        catalyzer_suite::platform::scaling::sweep(&mut cat, &profile, &points, &model, 5).unwrap();
    for p in &cat_pts {
        assert!(
            p.startup < SimNanos::from_millis(10),
            "{}@{}",
            p.startup,
            p.running
        );
    }

    let mut rst = GvisorRestoreEngine::new();
    let rst_pts =
        catalyzer_suite::platform::scaling::sweep(&mut rst, &profile, &points, &model, 5).unwrap();
    for (c, r) in cat_pts.iter().zip(&rst_pts) {
        assert!(r.startup.as_nanos() > c.startup.as_nanos() * 10);
    }
}
