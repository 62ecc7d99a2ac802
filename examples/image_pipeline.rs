//! An image-processing pipeline (the paper's Pillow workload, Fig. 13b):
//! each stage is a serverless function that fork-boots from its template,
//! runs a *real* pixel kernel over the image, and hands the result to the
//! next stage.
//!
//! ```text
//! cargo run --example image_pipeline
//! ```

use catalyzer_suite::prelude::*;
use catalyzer_suite::workloads::image::Image;
use catalyzer_suite::workloads::pillow::ImageOp;

fn main() -> Result<(), SuiteError> {
    let model = CostModel::experimental_machine();
    let mut system = Catalyzer::new();

    // Offline: a template sandbox per stage.
    for op in ImageOp::ALL {
        system.ensure_template(&op.profile(), &model)?;
    }

    let mut img = Image::synthetic(256, 192, 2020);
    println!(
        "input image: {}x{} (mean luma {:.1})\n",
        img.width(),
        img.height(),
        img.mean_luma()
    );
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "stage", "boot", "handler", "end-to-end", "out dims"
    );

    let mut pipeline_total = SimNanos::ZERO;
    for op in ImageOp::ALL {
        let profile = op.profile();
        let mut ctx = BootCtx::fresh(&model);
        let mut outcome = system.boot(BootMode::Fork, &profile, &mut ctx)?;
        let boot = outcome.boot_latency;
        let exec = outcome.program.invoke_handler(ctx.clock(), ctx.model())?;
        // The handler's real work: transform the image.
        img = op.apply(&img);
        pipeline_total = pipeline_total.saturating_add(ctx.now());
        println!(
            "{:<14} {:>10} {:>12} {:>12} {:>7}x{}",
            op.label(),
            boot,
            exec.exec_time,
            ctx.now(),
            img.width(),
            img.height()
        );
    }

    println!(
        "\npipeline of 5 function invocations: {} total (mean luma now {:.1})",
        pipeline_total,
        img.mean_luma()
    );

    // The same pipeline on gVisor pays full application init per stage.
    let mut gvisor = GvisorEngine::new();
    let mut gv_total = SimNanos::ZERO;
    for op in ImageOp::ALL {
        let mut ctx = BootCtx::fresh(&model);
        let mut outcome = gvisor.boot(&op.profile(), &mut ctx)?;
        outcome.program.invoke_handler(ctx.clock(), ctx.model())?;
        gv_total = gv_total.saturating_add(ctx.now());
    }
    println!(
        "same pipeline on gVisor: {} ({}x slower end to end)",
        gv_total,
        gv_total.as_nanos() / pipeline_total.as_nanos().max(1)
    );
    Ok(())
}
