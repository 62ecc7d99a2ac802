//! `cargo run -p catalint` — check the workspace against its invariants.
//!
//! Exit codes: 0 = clean (no findings), 1 = findings, 2 = usage or I/O
//! error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use catalint::passes::{describe, severity, ALL_PASSES};
use catalint::{check_workspace, find_workspace_root, CatalintError, CheckOutcome, Violation};

struct Args {
    root: Option<PathBuf>,
    emit: Emit,
    explain: Option<String>,
}

#[derive(PartialEq)]
enum Emit {
    Text,
    Json,
    Sarif,
    Schema,
}

const USAGE: &str = "usage: catalint [--root DIR] [--emit text|json|sarif|schema]
                [--explain PASS]

Checks the workspace against its mechanical invariants (determinism,
panic-free image parsing, restore hot-path copy discipline, RefCell guard
discipline, metric-name registry use, hash-order hygiene, error hygiene),
its dataflow contracts (fault-seam coverage, span/registry balance), and
its hermeticity certificate (clock-seam taint, DES event-protocol
conformance). Every finding fails the check; catalint.toml holds only the
[[clock_seam]] registry.

  --root DIR          workspace root (default: walk up from the cwd)
  --emit json         machine-readable findings on stdout (stable schema)
  --emit sarif        SARIF 2.1.0 findings on stdout (for code-scanning UIs)
  --emit schema       print the JSON output schema and exit
  --explain PASS      print what a pass checks, why, and how to fix findings

Exit codes: 0 = clean (no findings), 1 = findings, 2 = usage or I/O error.
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        emit: Emit::Text,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a value")?;
                args.root = Some(PathBuf::from(v));
            }
            "--emit" => {
                let v = it
                    .next()
                    .ok_or("--emit needs a value (text|json|sarif|schema)")?;
                args.emit = match v.as_str() {
                    "text" => Emit::Text,
                    "json" => Emit::Json,
                    "sarif" => Emit::Sarif,
                    "schema" => Emit::Schema,
                    other => return Err(format!("unknown --emit format `{other}`")),
                };
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
    if args.emit == Emit::Schema {
        print!("{}", JSON_SCHEMA);
        return Ok(ExitCode::SUCCESS);
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

    if args.emit == Emit::Json {
        print!("{}", render_json(&outcome));
        return Ok(code);
    }
    if args.emit == Emit::Sarif {
        print!("{}", render_sarif(&outcome));
        return Ok(code);
    }

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
// --emit json
// ---------------------------------------------------------------------------

/// The stable shape of `--emit json` output, printed by `--emit schema`
/// and pinned by `tools/catalint-schema.json`. Bump `version` on any
/// incompatible change.
///
/// Version history: 1 = seven passes, findings + summary. 2 = adds the
/// top-level `passes` array (name + severity of every registered pass,
/// so consumers can render empty reports without hard-coding the list).
/// 3 = each `passes` entry gains a required one-line `description`.
/// 4 = `summary` loses its findings-above-the-baseline count (there is no
/// baseline; `clean` is `findings == 0`).
const JSON_SCHEMA: &str = r#"{
  "$comment": "catalint --emit json output schema, version 4",
  "type": "object",
  "properties": {
    "version": { "type": "integer", "const": 4 },
    "passes": {
      "type": "array",
      "items": {
        "type": "object",
        "properties": {
          "name": { "type": "string" },
          "severity": { "enum": ["error", "warning"] },
          "description": { "type": "string" }
        },
        "required": ["name", "severity", "description"]
      }
    },
    "findings": {
      "type": "array",
      "items": {
        "type": "object",
        "properties": {
          "pass": { "type": "string" },
          "severity": { "enum": ["error", "warning"] },
          "file": { "type": "string" },
          "line": { "type": "integer" },
          "function": { "type": "string" },
          "chain": { "type": "array", "items": { "type": "string" } },
          "message": { "type": "string" }
        },
        "required": ["pass", "severity", "file", "line", "function", "chain", "message"]
      }
    },
    "summary": {
      "type": "object",
      "properties": {
        "files_scanned": { "type": "integer" },
        "findings": { "type": "integer" },
        "clean": { "type": "boolean" }
      },
      "required": ["files_scanned", "findings", "clean"]
    }
  },
  "required": ["version", "passes", "findings", "summary"]
}
"#;

fn render_json(outcome: &CheckOutcome) -> String {
    let mut s = String::from("{\n  \"version\": 4,\n  \"passes\": [");
    for (i, p) in ALL_PASSES.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{ \"name\": {}, \"severity\": {}, \"description\": {} }}",
            json_str(p),
            json_str(severity(p)),
            json_str(describe(p))
        );
    }
    s.push_str("\n  ],\n  \"findings\": [");
    for (i, v) in outcome.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        s.push_str(&finding_json(v));
    }
    if !outcome.violations.is_empty() {
        s.push_str("\n  ");
    }
    let _ = write!(
        s,
        "],\n  \"summary\": {{ \"files_scanned\": {}, \"findings\": {}, \
         \"clean\": {} }}\n}}\n",
        outcome.files_scanned,
        outcome.violations.len(),
        outcome.violations.is_empty()
    );
    s
}

fn finding_json(v: &Violation) -> String {
    let chain = v
        .chain
        .iter()
        .map(|c| json_str(c))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{ \"pass\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \
         \"function\": {}, \"chain\": [{}], \"message\": {} }}",
        json_str(v.pass),
        json_str(severity(v.pass)),
        json_str(&v.file),
        v.line,
        json_str(&v.func),
        chain,
        json_str(&v.what),
    )
}

// ---------------------------------------------------------------------------
// --emit sarif
// ---------------------------------------------------------------------------

/// SARIF 2.1.0 rendering for code-scanning UIs. One run, one rule per
/// pass, one result per finding; the call chain (when present) rides in
/// the message like the text renderer. Hand-rolled like the JSON emitter:
/// catalint stays dependency-free.
fn render_sarif(outcome: &CheckOutcome) -> String {
    let mut s = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"catalint\",\n          \"rules\": [",
    );
    for (i, p) in ALL_PASSES.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n            {{ \"id\": {}, \"shortDescription\": {{ \"text\": {} }}, \
             \"defaultConfiguration\": {{ \"level\": {} }} }}",
            json_str(p),
            json_str(describe(p)),
            json_str(sarif_level(p))
        );
    }
    s.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, v) in outcome.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let message = if v.chain.len() > 1 {
            format!("{}: {}", v.chain.join(" → "), v.what)
        } else {
            format!("fn {}: {}", v.func, v.what)
        };
        let _ = write!(
            s,
            "\n        {{ \"ruleId\": {}, \"level\": {}, \"message\": {{ \"text\": {} }}, \
             \"locations\": [{{ \"physicalLocation\": {{ \"artifactLocation\": \
             {{ \"uri\": {} }}, \"region\": {{ \"startLine\": {} }} }} }}] }}",
            json_str(v.pass),
            json_str(sarif_level(v.pass)),
            json_str(&message),
            json_str(&v.file),
            v.line
        );
    }
    if !outcome.violations.is_empty() {
        s.push_str("\n      ");
    }
    s.push_str("]\n    }\n  ]\n}\n");
    s
}

/// catalint severities map 1:1 onto SARIF levels.
fn sarif_level(pass: &str) -> &'static str {
    severity(pass)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// --explain
// ---------------------------------------------------------------------------

fn explain(pass: &str) -> Option<&'static str> {
    Some(match pass {
        "determinism" => {
            "determinism — simulated time and seeded randomness only.\n\n\
             Every latency figure this repo reports is virtual (simtime); one\n\
             `Instant::now()`, `thread::sleep`, or ambient RNG makes runs\n\
             non-reproducible and the BENCH_*.json byte-identity gates\n\
             meaningless.\n\n\
             Fix: take a `&SimClock` and charge costs; seed `StdRng` explicitly.\n"
        }
        "panic" => {
            "panic — panic-freedom in (and reachable from) image parsing.\n\n\
             Func-images and checkpoints are untrusted input to the restore\n\
             path. The configured parse modules must return ImageError-style\n\
             results: no unwrap/expect, no panicking macros, no lossy `as`\n\
             casts, no unchecked indexing. Interprocedurally, a parse function\n\
             whose precise call chain reaches `.unwrap()`/`panic!` in a helper\n\
             outside the parse set is flagged with the full call chain.\n\n\
             Fix: return typed errors (`try_into`, `get()`, `ok_or`); findings\n\
             print the root → … → sink chain to follow.\n"
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
            "namereg — metric/span names come from simtime::names.\n\n\
             Bench validators match emitter names byte-for-byte; a typo in a\n\
             string literal silently zeroes a metric. String literals with a\n\
             registry prefix (boot., invoke., pool., fault:, sandbox:, …) in\n\
             library code must be the `simtime::names` constant or helper.\n\n\
             Fix: use (or add) the constant in crates/simtime/src/names.rs.\n"
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
        "spanflow" => {
            "spanflow — span guards balance, and so does the name registry.\n\n\
             A raw `tracer().begin(...)` without a matching `end()` on every\n\
             path (a `?` or `return` between them) leaves the span open and\n\
             skews every Fig. 8 attribution after it. Separately, a\n\
             simtime::names registry entry that nothing emits is a stale\n\
             name the bench validators silently accept (namereg checks the\n\
             other direction: every literal is registered).\n\n\
             Fix: use the closure-scoped `ctx.span(...)` (it cannot leak),\n\
             or close the raw span on every early-return path; delete or\n\
             wire up unused registry entries.\n"
        }
        "hermetic" => {
            "hermetic — no nondeterminism source reachable from the sim roots.\n\n\
             The determinism pass flags ambient time/entropy per file; this\n\
             pass proves the interprocedural property the dual-clock refactor\n\
             needs: nothing reachable from the simulation and boot roots\n\
             (run_closed, run_fleet, run_cluster, run_chaos, call, boot, …)\n\
             reads a wall clock (`Instant::now`, `SystemTime::now`,\n\
             `.elapsed()`), ambient entropy (`thread_rng`, `from_entropy`,\n\
             `OsRng`), the environment (`env::var`), the OS scheduler\n\
             (`thread::sleep`, `thread::spawn`/`scope`/`Builder` — std or\n\
             crossbeam), or `std::process`. The one sanctioned\n\
             boundary is the `[[clock_seam]]` registry in catalint.toml —\n\
             empty today — where the future `ClockInner::Realtime` seam will\n\
             be declared, entry by reviewed entry. Findings carry their\n\
             root → … → sink call chain.\n\n\
             Fix: thread the virtual clock (or a seeded StdRng) in from the\n\
             caller; only a reviewed [[clock_seam]] entry may keep an\n\
             ambient read.\n"
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
