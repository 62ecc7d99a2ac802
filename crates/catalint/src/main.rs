//! `cargo run -p catalint` — check the workspace against its invariants.
//!
//! Exit codes: 0 = clean (no findings), 1 = findings, 2 = usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use catalint::passes::ALL_PASSES;
use catalint::{check_workspace, find_workspace_root, CatalintError};

struct Args {
    root: Option<PathBuf>,
    explain: Option<String>,
}

const USAGE: &str = "usage: catalint [--root DIR] [--explain PASS]

Checks the workspace against the invariants that neither rustc nor a
standard clippy lint can express: no panicking helper reachable from image
parsing, a metric-name registry closed in both directions, hash-order
hygiene and error hygiene. Every finding fails the check; there is no
config file. (Wall clocks, env reads, host threads, child processes and
RefCell are banned by clippy: crates/clippy.toml. Copies on a boot path
are counted by tests/alloc_budget.rs; fault seams are observed by
tests/seam_matrix.rs; the DES tie-break is held total by a twin test in
platform's simulate/events.rs.)

  --root DIR          workspace root (default: walk up from the cwd)
  --explain PASS      print what a pass checks, why, and how to fix findings

Exit codes: 0 = clean (no findings), 1 = findings, 2 = usage or I/O error.
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a value")?;
                args.root = Some(PathBuf::from(v));
            }
            "--explain" => {
                let v = it.next().ok_or("--explain needs a pass name")?;
                args.explain = Some(v);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("catalint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("catalint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<ExitCode, CatalintError> {
    if let Some(pass) = &args.explain {
        return Ok(match explain(pass) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "catalint: unknown pass `{pass}` (passes: {})",
                    ALL_PASSES.join(", ")
                );
                ExitCode::from(2)
            }
        });
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|err| CatalintError::Io {
                path: PathBuf::from("."),
                err,
            })?;
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("catalint: no workspace root found above {}", cwd.display());
                    return Ok(ExitCode::from(2));
                }
            }
        }
    };

    // A bad --root (typo, CI misconfiguration) must not pass vacuously.
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "catalint: {} is not a workspace root (no Cargo.toml)",
            root.display()
        );
        return Ok(ExitCode::from(2));
    }

    let outcome = check_workspace(&root)?;

    if outcome.files_scanned == 0 {
        eprintln!("catalint: no .rs files found under {}", root.display());
        return Ok(ExitCode::from(2));
    }

    let code = if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };

    println!(
        "catalint: scanned {} file(s), {} pass(es), {} finding(s)",
        outcome.files_scanned,
        ALL_PASSES.len(),
        outcome.violations.len()
    );
    if outcome.violations.is_empty() {
        println!("catalint: OK — no violations");
        return Ok(code);
    }
    for v in &outcome.violations {
        eprintln!("    {v}");
    }
    eprintln!(
        "catalint: FAIL — {} finding(s). Fix the code; if the policy itself is wrong, change \
         crates/catalint/src/config.rs with a review (see DESIGN.md §12).",
        outcome.violations.len()
    );
    Ok(code)
}

// ---------------------------------------------------------------------------
// --explain
// ---------------------------------------------------------------------------

fn explain(pass: &str) -> Option<&'static str> {
    Some(match pass {
        "panic" => {
            "panic — no panicking helper reachable from image parsing.\n\n\
             Func-images and checkpoints are untrusted input to the restore\n\
             path. What a parse module spells itself — unwrap/expect,\n\
             panicking macros, `as` casts, indexing — is denied by clippy in\n\
             that module's own inner attribute. This pass covers what no\n\
             standard lint expresses: a parse function whose precise call\n\
             chain reaches `.unwrap()`/`panic!` in a helper outside the parse\n\
             set is flagged with the full call chain.\n\n\
             Fix: make the helper return a typed error (`try_into`, `get()`,\n\
             `ok_or`); findings print the root → … → sink chain to follow.\n"
        }
        "namereg" => {
            "namereg — the simtime::names registry is closed in both directions.\n\n\
             Bench validators match emitter names byte-for-byte; a typo in a\n\
             string literal silently zeroes a metric. String literals with a\n\
             registry prefix (boot., invoke., pool., fault:, sandbox:, …) in\n\
             library code must be the `simtime::names` constant or helper.\n\
             The other direction: a registry entry that nothing outside the\n\
             registry references is a stale name the validators silently\n\
             accept.\n\n\
             Fix: use (or add) the constant in crates/simtime/src/names.rs;\n\
             delete or wire up unused registry entries.\n"
        }
        "hashorder" => {
            "hashorder — no hash-order leaks into consumed iteration.\n\n\
             Iterating a HashMap/HashSet yields platform/seed-dependent order;\n\
             feeding that into serialized output or exported data breaks\n\
             byte-identical reproduction. Order-insensitive reductions\n\
             (sum/count/any/…) and statements that sort or collect into BTree\n\
             collections are fine.\n\n\
             Fix: use BTreeMap/BTreeSet for iterated collections, or sort\n\
             before the order escapes.\n"
        }
        "hygiene" => {
            "hygiene — public library functions return crate error types.\n\n\
             `Box<dyn Error>` erases the failure mode; callers (the fallback\n\
             ladder, the breaker) match on typed errors to decide recovery.\n\n\
             Fix: return the crate's error enum and convert with `From`.\n"
        }
        _ => return None,
    })
}
