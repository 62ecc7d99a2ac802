//! A serverless platform serving the DeathStar social network (Fig. 13a):
//! a gateway dispatches a generated request trace to five microservice
//! functions; the handlers produce real posts and timelines.
//!
//! ```text
//! cargo run --example deathstar_platform
//! ```

use catalyzer_suite::prelude::*;
use catalyzer_suite::workloads::deathstar::{self, Service};
use catalyzer_suite::workloads::generator::{trace, Popularity};

fn serve_trace<E: BootEngine>(label: &str, engine: E, model: &CostModel) -> Result<(), SuiteError> {
    let mut gateway = Gateway::new(engine, model.clone());
    let services: Vec<_> = Service::ALL.iter().map(|s| s.profile()).collect();
    for s in &services {
        gateway.register(s.clone());
        // Offline preparation: templates/images are built before traffic.
        gateway.warm(&s.name)?;
    }

    let requests = trace(
        services.len(),
        40,
        200.0,
        Popularity::Zipf { exponent: 1.1 },
        7,
    );
    let mut worst = SimNanos::ZERO;
    for req in &requests {
        let report = gateway
            .call(InvokeRequest::new(&services[req.function].name))?
            .report;
        worst = worst.max(report.total());
    }
    // The gateway's own metrics carry the per-function latency histograms.
    let boot_p99 = services
        .iter()
        .filter_map(|s| gateway.metrics().histogram(&format!("boot.{}", s.name)))
        .filter_map(|h| h.p99())
        .max()
        .unwrap_or(SimNanos::ZERO);
    let exec_p99 = services
        .iter()
        .filter_map(|s| gateway.metrics().histogram(&format!("exec.{}", s.name)))
        .filter_map(|h| h.p99())
        .max()
        .unwrap_or(SimNanos::ZERO);
    println!(
        "{:<18} requests {:>3}  boot p99 {:>10}  exec p99 {:>10}  worst request {:>10}",
        label,
        gateway.metrics().counter("invoke.count"),
        boot_p99,
        exec_p99,
        worst
    );
    Ok(())
}

fn main() -> Result<(), SuiteError> {
    let model = CostModel::experimental_machine();

    // The application logic itself is real: compose a post, read a timeline.
    let post = deathstar::compose_post(
        42,
        "shipping the serverless port @ops https://deathstar.example",
        &["launch.png"],
        1_700_000_000_000,
    );
    let timeline = deathstar::timeline_service(std::slice::from_ref(&post), 42, 10);
    println!(
        "composed post {} with {} mention(s), {} url(s), {} media; timeline {:?}\n",
        post.id,
        post.mentions.len(),
        post.urls.len(),
        post.media.len(),
        timeline
    );

    println!("serving 40 requests (zipf-skewed) over 5 microservices:");
    serve_trace("gVisor", GvisorEngine::new(), &model)?;
    serve_trace("gVisor-restore", GvisorRestoreEngine::new(), &model)?;
    serve_trace(
        "Catalyzer-sfork",
        CatalyzerEngine::standalone(BootMode::Fork),
        &model,
    )?;
    println!("\nthe microservice handlers cost ~1–2.5 ms; only fork boot makes startup invisible");
    Ok(())
}
