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
parsing, restore hot-path copy discipline, RefCell guard discipline, a
metric-name registry closed in both directions, hash-order hygiene, error
hygiene, fault-seam coverage and DES event-protocol conformance. Every
finding fails the check; there is no config file. (Wall clocks, env reads,
host threads and child processes are banned by clippy: crates/clippy.toml.)

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
        "catalint: FAIL — {} finding(s). Fix them, or if genuinely intended, suppress at \
         the site with a justified `catalint: allow(<pass>)` comment (see DESIGN.md §12).",
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
        "hotpath" => {
            "hotpath — no eager full-buffer copies on the boot paths.\n\n\
             Overlay memory (paper §3.1) exists so Base-EPT pages are shared,\n\
             not copied, and sfork (§4) duplicates page tables, not pages; an\n\
             eager `to_vec()`/`extend_from_slice` anywhere reachable from the\n\
             boot roots quietly re-introduces the cost the design removes.\n\
             Reachability is computed on the workspace call graph from the\n\
             configured roots — cold/warm restore (restore_boot, load_page, …)\n\
             and fork boot (sfork, sfork_clone) — and each finding carries its\n\
             root → … → sink call chain.\n\n\
             Fix: slice shared buffers (`SharedBytes::slice`), share instead of\n\
             copy, or — if genuinely off the hot path — adjust the stop list\n\
             in catalint's config with a review.\n"
        }
        "borrowcell" => {
            "borrowcell — RefCell borrow guards must stay short-lived.\n\n\
             A `borrow_mut()` guard held across `?` keeps the cell locked on\n\
             early return; held across a call that can reach another\n\
             `borrow_mut()` it is one refactor away from a runtime\n\
             double-borrow panic (the Rc<RefCell<FaultInjector>> threading\n\
             through engine/gateway/pool/resilience/boot is the live hazard).\n\n\
             Fix: end the borrow before `?` (bind the result, drop the guard),\n\
             or move the logic into a method on the cell's owner so the borrow\n\
             spans a single statement.\n"
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
        "seamcover" => {
            "seamcover — every fault seam is consulted on the boot paths.\n\n\
             faultsim's InjectionPoint enum names the seams where the boot\n\
             pipeline can be made to fail (ImageMmap, ArenaMap, Relink,\n\
             IoReconnect, ZygoteSpecialize, SforkMerge). The resilience\n\
             ladder, the breaker, and the fault-injection tests only cover\n\
             what the engines actually consult: a seam-class operation that\n\
             skips its `ctx.fault(...)` call is invisible to all of them.\n\
             Two directions, both dataflow-backed: (a) every InjectionPoint\n\
             variant must be consulted somewhere reachable from the boot\n\
             roots (directly or through precise callees); (b) every\n\
             boot-path function that performs a registered seam operation\n\
             (see seam_ops in catalint's config) must consult that seam\n\
             before the operation.\n\n\
             Fix: add `ctx.fault(InjectionPoint::<Point>)?;` before the\n\
             operation, as the gVisor engines do; or if the operation is\n\
             genuinely off the boot path, adjust the seam registry with a\n\
             review.\n"
        }
        "eventproto" => {
            "eventproto — DES event-protocol conformance.\n\n\
             The event queue pops by (time, class, key, subkey, seq); results\n\
             are only insertion-order-free if the declared tie-break covers\n\
             every payload field and every run loop handles every variant.\n\
             Three directions over platform/src/simulate/events.rs and the\n\
             two run loops (`run_fleet` and the cluster kernel `drive`; the\n\
             closed loop is a fold over the trace and schedules nothing):\n\
             (a) every `Event` payload field must be bound by one\n\
             of the tie-break key functions (class/key/subkey) — a field\n\
             hidden behind `..` everywhere means two distinct events compare\n\
             equal and pop in insertion order; (b) each run loop must match\n\
             every variant by name (no `_` wildcard) and must not schedule a\n\
             variant whose only arm is empty; (c) a variant never constructed\n\
             — neither at a `schedule(…)` site nor by the queue's own merge,\n\
             `pop` in events.rs, which builds each streamed `Arrival` from\n\
             the time-sorted trace instead of having it scheduled — or\n\
             handled non-emptily nowhere, is dead protocol surface.\n\n\
             Fix: extend class()/key()/subkey() to bind the field, add the\n\
             missing handler arm (an explicit empty arm documents a\n\
             provably-inert class), or delete the dead variant.\n"
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
