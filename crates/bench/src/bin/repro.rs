//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all            # every table and figure, at the paper's sizes
//! repro fig11          # one experiment
//! repro list           # available experiment ids
//! repro csv fig11      # one experiment's rows as CSV, where it has them
//! repro chaos          # one checked-in export (see `EXPORTS`) -> its file
//! repro chaos --check  # any export: regenerate, validate, byte-compare
//! repro all --check    # validate all six checked-in bench exports
//! ```

use bench::admitbench::AdmitBenchExport;
use bench::chaosbench::ChaosBenchExport;
use bench::clusterbench::ClusterBenchExport;
use bench::export::BenchExport;
use bench::faultbench::FaultBenchExport;
use bench::figures::csv as out;
use bench::figures::{
    ablation, endtoend, generality, hostopts, pipeline, platformsim, scale, startup,
};
use bench::fleetbench::FleetBenchExport;
use bench::{BenchError, Export};
use simtime::CostModel;

/// Prints one experiment the way the paper reports it.
type Run = fn(&CostModel) -> Result<(), BenchError>;

/// The same rows as CSV text, for `repro csv <id>`.
type Csv = fn(&CostModel) -> Result<String, BenchError>;

/// Hands an experiment's rows to its printer, or passes its error on.
fn show<T, E: Into<BenchError>>(
    rows: Result<T, E>,
    render: impl FnOnce(&T),
) -> Result<(), BenchError> {
    render(&rows.map_err(Into::into)?);
    Ok(())
}

/// Every experiment, in `repro all` order: its id, its CSV form where it
/// has one, and its printer.
const EXPERIMENTS: &[(&str, Option<Csv>, Run)] = &[
    ("fig1", None, |m| {
        show(endtoend::fig01(m), |(gv, cat)| {
            endtoend::render_fig01(gv, cat)
        })
    }),
    ("fig2", None, |m| {
        show(pipeline::fig02(m), |(boot, restore)| {
            pipeline::render_fig02(boot, restore)
        })
    }),
    ("fig3", None, |_| {
        pipeline::render_fig03();
        Ok(())
    }),
    ("fig4", None, |m| {
        show(startup::fig04(m), |r| startup::render_fig04(r))
    }),
    (
        "fig6",
        Some(|m| Ok(out::startup_rows(&startup::fig06(m)?))),
        |m| show(startup::fig06(m), |r| startup::render_fig06(r)),
    ),
    ("fig7", None, |m| {
        show(startup::fig07(m), startup::render_fig07)
    }),
    ("fig10", None, |_| {
        pipeline::render_fig10();
        Ok(())
    }),
    (
        "fig11",
        Some(|m| Ok(out::startup_rows(&startup::fig11(m)?))),
        |m| show(startup::fig11(m), |r| startup::render_fig11(r)),
    ),
    (
        "fig12",
        Some(|m| Ok(out::ablation_rows(&ablation::fig12(m)?))),
        |m| show(ablation::fig12(m), |r| ablation::render_fig12(r)),
    ),
    (
        "fig13a",
        Some(|m| Ok(out::e2e_rows(&endtoend::fig13a(m)?))),
        |m| {
            let title = "Figure 13a — DeathStar microservices end-to-end (ms)";
            show(endtoend::fig13a(m), |r| endtoend::render_fig13(title, r))
        },
    ),
    (
        "fig13b",
        Some(|m| Ok(out::e2e_rows(&endtoend::fig13b(m)?))),
        |m| {
            let title = "Figure 13b — Pillow image processing end-to-end (ms)";
            show(endtoend::fig13b(m), |r| endtoend::render_fig13(title, r))
        },
    ),
    (
        "fig13c",
        Some(|_| Ok(out::e2e_rows(&endtoend::fig13c()?))),
        |_| {
            let title = "Figure 13c — E-commerce functions end-to-end, server machine (ms)";
            show(endtoend::fig13c(), |r| endtoend::render_fig13(title, r))
        },
    ),
    (
        "fig14",
        Some(|m| Ok(out::memory_rows(&scale::fig14(m)?))),
        |m| show(scale::fig14(m), |r| scale::render_fig14(r)),
    ),
    (
        "fig15",
        Some(|_| Ok(out::scale_series(&scale::fig15()?))),
        |_| show(scale::fig15(), |r| scale::render_fig15(r)),
    ),
    ("fig16a", None, |m| {
        show(hostopts::fig16a(m), |r| hostopts::render_fig16a(r))
    }),
    (
        "fig16b",
        Some(|m| {
            let header = "invocation,baseline_ms,cached_ms";
            Ok(out::indexed_pair(header, &hostopts::fig16b(m)))
        }),
        |m| {
            hostopts::render_fig16b(&hostopts::fig16b(m));
            Ok(())
        },
    ),
    (
        "fig16c",
        Some(|m| {
            Ok(out::indexed_pair(
                "ioctl,pml_ms,nopml_ms",
                &hostopts::fig16c(m),
            ))
        }),
        |m| {
            hostopts::render_fig16c(&hostopts::fig16c(m));
            Ok(())
        },
    ),
    (
        "fig16d",
        Some(|m| {
            Ok(out::indexed_pair(
                "call,dup_ms,lazy_dup_ms",
                &hostopts::fig16d(m),
            ))
        }),
        |m| {
            hostopts::render_fig16d(&hostopts::fig16d(m));
            Ok(())
        },
    ),
    ("table1", None, |_| {
        pipeline::render_table1();
        Ok(())
    }),
    ("table2", None, |m| {
        show(startup::table2(m), startup::render_table2)
    }),
    ("table3", None, |m| {
        show(ablation::table3(m), |r| ablation::render_table3(r))
    }),
    ("tail", None, |m| {
        show(scale::tail_latency(m), |(cached, forked)| {
            scale::render_tail(cached, forked)
        })
    }),
    ("generality", None, |m| {
        show(generality::generality(m), |r| {
            generality::render_generality(r)
        })
    }),
    ("sensitivity", None, |_| {
        show(generality::sensitivity(), |r| {
            generality::render_sensitivity(r)
        })
    }),
    ("platform", None, |m| {
        show(platformsim::platform_sim(m), |(pooled, forked)| {
            platformsim::render_platform_sim(pooled, forked)
        })
    }),
    ("warm-breakdown", None, |m| {
        show(platformsim::warm_breakdown(m), |r| {
            platformsim::render_warm_breakdown(r)
        })
    }),
];

/// Prints experiment `id`, or exits 2 when there is none.
fn run(id: &str) -> Result<(), BenchError> {
    match EXPERIMENTS.iter().find(|(name, ..)| *name == id) {
        Some((_, _, run)) => run(&CostModel::experimental_machine()),
        None => {
            eprintln!("unknown experiment '{id}'; try: repro list");
            std::process::exit(2);
        }
    }
}

/// Prints experiment `id` as CSV, or exits 2 when it has no such form.
fn csv(id: &str) -> Result<(), BenchError> {
    match EXPERIMENTS.iter().find(|(name, ..)| *name == id) {
        Some((_, Some(csv), _)) => print!("{}", csv(&CostModel::experimental_machine())?),
        _ => {
            eprintln!("no CSV export for '{id}'");
            std::process::exit(2);
        }
    }
    Ok(())
}

/// Regenerates export `E` in memory and validates it; then either writes
/// its canonical JSON to `path`, or — with `check` — verifies the file at
/// `path` parses, validates, and is byte-identical to the fresh run (the
/// determinism gate). `path` defaults to [`Export::DEFAULT_PATH`].
fn export_or_check<E: Export>(path: Option<&str>, check: bool) -> Result<(), BenchError> {
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
type Gate = fn(Option<&str>, bool) -> Result<(), BenchError>;

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

/// What may follow a command: `--check` and one output path, in either
/// order.
///
/// # Errors
///
/// Names the argument that is neither — an unknown `--flag` (a typo of
/// `--check` must not become a file name) or a second path.
fn parse_options(args: &[String]) -> Result<(bool, Option<&str>), String> {
    let mut check = false;
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            extra if path.is_some() => return Err(format!("unexpected argument '{extra}'")),
            first => path = Some(first),
        }
    }
    Ok((check, path))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let (check, path) = match parse_options(args.get(1..).unwrap_or_default()) {
        Ok(options) => options,
        Err(problem) => {
            eprintln!("{problem}\nusage: repro <command> [--check] [path]; try: repro list");
            std::process::exit(2);
        }
    };
    let result = match command {
        "list" => {
            for (id, ..) in EXPERIMENTS {
                println!("{id}");
            }
            Ok(())
        }
        "csv" => match path {
            Some(id) => csv(id),
            None => {
                eprintln!("usage: repro csv <experiment>");
                std::process::exit(2);
            }
        },
        "all" if check => {
            // The one-stop determinism gate: every checked-in bench export
            // regenerated in-memory and verified byte-identical.
            EXPORTS.iter().try_for_each(|(_, gate)| gate(None, true))
        }
        "all" => {
            println!("Catalyzer reproduction — regenerating every table and figure");
            println!("(virtual-time simulation; see DESIGN.md for the substitution rules)");
            EXPERIMENTS
                .iter()
                .try_for_each(|(_, _, run)| run(&CostModel::experimental_machine()))
        }
        id => match EXPORTS.iter().find(|(name, _)| *name == id) {
            Some((_, gate)) => gate(path, check),
            None => run(id),
        },
    };
    if let Err(e) = result {
        eprintln!("repro failed: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_options;

    fn parse(args: &[&str]) -> Result<(bool, Option<String>), String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_options(&args).map(|(check, path)| (check, path.map(str::to_string)))
    }

    #[test]
    fn options_are_check_and_one_path_in_either_order() {
        assert_eq!(parse(&[]), Ok((false, None)));
        assert_eq!(parse(&["--check"]), Ok((true, None)));
        assert_eq!(parse(&["out.json"]), Ok((false, Some("out.json".into()))));
        assert_eq!(
            parse(&["--check", "out.json"]),
            Ok((true, Some("out.json".into())))
        );
        assert_eq!(
            parse(&["out.json", "--check"]),
            Ok((true, Some("out.json".into())))
        );
    }

    #[test]
    fn a_mistyped_flag_is_an_error_not_a_path() {
        assert!(parse(&["--chekc"]).unwrap_err().contains("--chekc"));
        assert!(parse(&["a.json", "b.json"]).unwrap_err().contains("b.json"));
    }
}
