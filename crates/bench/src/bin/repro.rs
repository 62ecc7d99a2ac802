//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all            # everything (Fig. 15 at the paper's 1000 instances)
//! repro quick          # everything, with Fig. 15 capped at 100 instances
//! repro fig11          # one experiment
//! repro list           # available experiment ids
//! repro export         # boot observability export -> BENCH_pr2.json
//! repro faults         # fault-injection sweep -> BENCH_pr3.json
//! repro overload       # admission/overload sweep -> BENCH_pr4.json
//! repro fleet          # fleet density grid -> BENCH_pr7.json
//! repro cluster        # cluster routing sweep -> BENCH_pr8.json
//! repro chaos          # node-fault survivability grid -> BENCH_pr9.json
//! repro chaos --check  # any export: regenerate, validate, byte-compare
//! repro all --check    # validate all six checked-in bench exports
//! ```

use bench::admitbench::AdmitBenchExport;
use bench::chaosbench::ChaosBenchExport;
use bench::clusterbench::ClusterBenchExport;
use bench::export::BenchExport;
use bench::faultbench::FaultBenchExport;
use bench::figures::{
    ablation, endtoend, generality, hostopts, pipeline, platformsim, scale, startup,
};
use bench::fleetbench::FleetBenchExport;
use bench::Export;
use simtime::CostModel;

const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "fig10",
    "fig11",
    "fig12",
    "fig13a",
    "fig13b",
    "fig13c",
    "fig14",
    "fig15",
    "fig16a",
    "fig16b",
    "fig16c",
    "fig16d",
    "table1",
    "table2",
    "table3",
    "tail",
    "generality",
    "sensitivity",
    "platform",
    "warm-breakdown",
];

fn run(id: &str, fig15_max: u32) -> Result<(), Box<dyn std::error::Error>> {
    let model = CostModel::experimental_machine();
    match id {
        "fig1" => {
            let (gv, cat) = endtoend::fig01(&model)?;
            endtoend::render_fig01(&gv, &cat);
        }
        "fig2" => {
            let (boot, restore) = pipeline::fig02(&model)?;
            pipeline::render_fig02(&boot, &restore);
        }
        "fig3" => pipeline::render_fig03(),
        "fig4" => startup::render_fig04(&startup::fig04(&model)?),
        "fig6" => startup::render_fig06(&startup::fig06(&model)?),
        "fig7" => startup::render_fig07(&startup::fig07(&model)?),
        "fig10" => pipeline::render_fig10(),
        "fig11" => startup::render_fig11(&startup::fig11(&model)?),
        "fig12" => ablation::render_fig12(&ablation::fig12(&model)?),
        "fig13a" => endtoend::render_fig13(
            "Figure 13a — DeathStar microservices end-to-end (ms)",
            &endtoend::fig13a(&model)?,
        ),
        "fig13b" => endtoend::render_fig13(
            "Figure 13b — Pillow image processing end-to-end (ms)",
            &endtoend::fig13b(&model)?,
        ),
        "fig13c" => endtoend::render_fig13(
            "Figure 13c — E-commerce functions end-to-end, server machine (ms)",
            &endtoend::fig13c()?,
        ),
        "fig14" => scale::render_fig14(&scale::fig14(&model)?),
        "fig15" => scale::render_fig15(&scale::fig15(fig15_max)?),
        "fig16a" => hostopts::render_fig16a(&hostopts::fig16a(&model)?),
        "fig16b" => hostopts::render_fig16b(&hostopts::fig16b(&model)),
        "fig16c" => hostopts::render_fig16c(&hostopts::fig16c(&model)),
        "fig16d" => hostopts::render_fig16d(&hostopts::fig16d(&model)),
        "table1" => pipeline::render_table1(),
        "table2" => startup::render_table2(&startup::table2(&model)?),
        "table3" => ablation::render_table3(&ablation::table3(&model)?),
        "tail" => {
            let (cached, forked) = scale::tail_latency(&model)?;
            scale::render_tail(&cached, &forked);
        }
        "generality" => generality::render_generality(&generality::generality(&model)?),
        "platform" => {
            let (pooled, forked) = platformsim::platform_sim(&model)?;
            platformsim::render_platform_sim(&pooled, &forked);
        }
        "warm-breakdown" => {
            platformsim::render_warm_breakdown(&platformsim::warm_breakdown(&model)?)
        }
        "sensitivity" => generality::render_sensitivity(&generality::sensitivity()?),
        other => {
            eprintln!("unknown experiment '{other}'; try: repro list");
            std::process::exit(2);
        }
    }
    Ok(())
}

fn csv(id: &str) -> Result<(), Box<dyn std::error::Error>> {
    use bench::figures::csv as out;
    let model = CostModel::experimental_machine();
    let text = match id {
        "fig6" => out::startup_rows(&startup::fig06(&model)?),
        "fig11" => out::startup_rows(&startup::fig11(&model)?),
        "fig12" => out::ablation_rows(&ablation::fig12(&model)?),
        "fig13a" => out::e2e_rows(&endtoend::fig13a(&model)?),
        "fig13b" => out::e2e_rows(&endtoend::fig13b(&model)?),
        "fig13c" => out::e2e_rows(&endtoend::fig13c()?),
        "fig14" => out::memory_rows(&scale::fig14(&model)?),
        "fig15" => out::scale_series(&scale::fig15(1000)?),
        "fig16b" => out::indexed_pair(
            "invocation,baseline_ms,cached_ms",
            &hostopts::fig16b(&model),
        ),
        "fig16c" => out::indexed_pair("ioctl,pml_ms,nopml_ms", &hostopts::fig16c(&model)),
        "fig16d" => out::indexed_pair("call,dup_ms,lazy_dup_ms", &hostopts::fig16d(&model)),
        other => {
            eprintln!("no CSV export for '{other}'");
            std::process::exit(2);
        }
    };
    print!("{text}");
    Ok(())
}

/// Regenerates export `E` in memory and validates it; then either writes
/// its canonical JSON to `path`, or — with `check` — verifies the file at
/// `path` parses, validates, and is byte-identical to the fresh run (the
/// determinism gate). `path` defaults to [`Export::DEFAULT_PATH`].
fn export_or_check<E: Export>(
    path: Option<&str>,
    check: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let path = path.unwrap_or(E::DEFAULT_PATH);
    let fresh = E::generate(&CostModel::experimental_machine())?;
    fresh.validate()?;
    let text = serde_json::to_string(&fresh)?;
    if check {
        let on_disk = std::fs::read_to_string(path)?;
        let parsed: E = serde_json::from_str(&on_disk)?;
        parsed.validate()?;
        if on_disk != text {
            let command = E::COMMAND;
            return Err(
                format!("{path} is stale: regenerate with 'repro {command} {path}'").into(),
            );
        }
        println!("{path}: valid, {}, up to date", parsed.summary());
    } else {
        std::fs::write(path, &text)?;
        println!("wrote {path} ({}, {} bytes)", fresh.summary(), text.len());
    }
    Ok(())
}

/// One `repro <command> [--check] [path]` gate per checked-in export.
type Gate = fn(Option<&str>, bool) -> Result<(), Box<dyn std::error::Error>>;

/// The `repro` subcommand and gate of export `E`.
const fn gate<E: Export>() -> (&'static str, Gate) {
    (E::COMMAND, export_or_check::<E>)
}

/// The six checked-in bench exports, in `repro all --check` order: the
/// observability export (pr2), the fault sweep (pr3), the overload sweep
/// (pr4), the fleet density grid (pr7), the cluster sweep (pr8), and the
/// chaos grid (pr9).
const EXPORTS: [(&str, Gate); 6] = [
    gate::<BenchExport>(),
    gate::<FaultBenchExport>(),
    gate::<AdmitBenchExport>(),
    gate::<FleetBenchExport>(),
    gate::<ClusterBenchExport>(),
    gate::<ChaosBenchExport>(),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let check = args.iter().any(|a| a == "--check");
    let result = match command {
        "list" => {
            for id in EXPERIMENTS {
                println!("{id}");
            }
            Ok(())
        }
        "csv" => match args.get(1) {
            Some(id) => csv(id),
            None => {
                eprintln!("usage: repro csv <experiment>");
                std::process::exit(2);
            }
        },
        "all" | "quick" if check => {
            // The one-stop determinism gate: every checked-in bench export
            // regenerated in-memory and verified byte-identical.
            EXPORTS.iter().try_for_each(|(_, gate)| gate(None, true))
        }
        "all" | "quick" => {
            let fig15_max = if command == "quick" { 100 } else { 1000 };
            println!("Catalyzer reproduction — regenerating every table and figure");
            println!("(virtual-time simulation; see DESIGN.md for the substitution rules)");
            EXPERIMENTS.iter().try_for_each(|id| run(id, fig15_max))
        }
        id => match EXPORTS.iter().find(|(name, _)| *name == id) {
            Some((_, gate)) => {
                let path = args.iter().skip(1).find(|a| *a != "--check");
                gate(path.map(String::as_str), check)
            }
            None => run(id, 1000),
        },
    };
    if let Err(e) = result {
        eprintln!("repro failed: {e}");
        std::process::exit(1);
    }
}
