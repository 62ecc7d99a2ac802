//! Integration: the executable workload logic runs correctly inside
//! Catalyzer-booted sandboxes — latency comes from the boot engine, results
//! come from real computation.

use catalyzer_suite::prelude::*;
use catalyzer_suite::workloads::image::Image;
use catalyzer_suite::workloads::pillow::ImageOp;
use catalyzer_suite::workloads::specjbb::BackendAgent;
use catalyzer_suite::workloads::{deathstar, ecommerce};

fn model() -> CostModel {
    CostModel::experimental_machine()
}

#[test]
fn specjbb_mix_runs_in_a_forked_sandbox() {
    let model = model();
    let profile = AppProfile::java_specjbb();
    let mut cat = Catalyzer::new();
    cat.ensure_template(&profile, &model).unwrap();

    let mut ctx = BootCtx::fresh(&model);
    let mut boot = cat.boot(BootMode::Fork, &profile, &mut ctx).unwrap();
    let boot_latency = ctx.now();
    boot.program.invoke_handler(ctx.clock(), &model).unwrap();

    // The handler's business logic: the SPECjbb transaction mix.
    let mut agent = BackendAgent::new(60, 42);
    let report = agent.run_mix(1_000);
    assert!(report.new_orders > 300, "{report:?}");
    assert!(report.payments_cents > 0);

    // Same results no matter how the sandbox booted.
    let mut again = BackendAgent::new(60, 42);
    assert_eq!(again.run_mix(1_000), report);
    assert!(boot_latency < SimNanos::from_millis(2));
}

#[test]
fn pillow_ops_preserve_content_invariants_across_boot_paths() {
    let model = model();
    let input = Image::synthetic(64, 48, 99);
    // Run the image op after booting through two different paths; the
    // *computation* must be identical (boot path cannot affect results).
    let mut outputs = Vec::new();
    for mode in [BootMode::Cold, BootMode::Fork] {
        let profile = ImageOp::Transpose.profile();
        let mut cat = Catalyzer::new();
        cat.ensure_template(&profile, &model).unwrap();
        let mut boot = cat
            .boot(mode, &profile, &mut BootCtx::fresh(&model))
            .unwrap();
        boot.program
            .invoke_handler(&SimClock::new(), &model)
            .unwrap();
        outputs.push(ImageOp::Transpose.apply(&input));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0].width(), 48);
}

#[test]
fn deathstar_compose_flow_served_by_gateway() {
    let model = model();
    let mut gw = platform::Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model);
    for s in catalyzer_suite::workloads::deathstar::Service::ALL {
        gw.register(s.profile());
    }
    // Serve a compose-post request end-to-end, then run its real logic.
    let report = gw
        .call(InvokeRequest::new("deathstar-ComposePost"))
        .unwrap()
        .report;
    assert!(report.boot < SimNanos::from_millis(1));
    let post = deathstar::compose_post(9, "hello @world", &["pic.jpg"], 5_000);
    assert_eq!(post.mentions, vec!["world"]);
    assert_eq!(post.media.len(), 1);
}

#[test]
fn ecommerce_invariants_hold_under_load() {
    let mut store = ecommerce::Store::with_catalogue(50);
    let mut revenue = 0u64;
    for i in 0..200u32 {
        if let Ok(order) = store.purchase(i % 11, i % 50, 1 + i % 3) {
            revenue += order.total_cents;
        }
    }
    let report = store.sales_report();
    let reported: u64 = report.values().map(|(cents, _)| *cents).sum();
    assert_eq!(reported, revenue, "the report must account every cent");
    let units: u64 = report.values().map(|(_, n)| *n).sum();
    assert_eq!(
        units,
        store
            .orders()
            .iter()
            .map(|o| u64::from(o.quantity))
            .sum::<u64>()
    );
}
