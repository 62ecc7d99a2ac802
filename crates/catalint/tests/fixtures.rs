//! End-to-end checks against planted violations, one fixture (or a few)
//! per pass, and the `catalint` binary must exit non-zero on any finding.

use std::process::Command;

use catalint::config::Config;
use catalint::passes::{PASS_EVENTPROTO, PASS_HYGIENE, PASS_NAMEREG, PASS_PANIC};
use catalint::{analyze, SrcFile};

fn run(path: &str, content: &str) -> Vec<catalint::Violation> {
    run_files(&[(path, content)])
}

fn run_files(files: &[(&str, &str)]) -> Vec<catalint::Violation> {
    let files: Vec<SrcFile> = files
        .iter()
        .map(|(p, c)| SrcFile {
            path: (*p).into(),
            content: (*c).into(),
        })
        .collect();
    analyze(&files, &Config::workspace_default())
}

#[test]
fn panicking_helper_reached_from_a_parse_module_is_caught() {
    // The parse module spells no panic source itself (that half is
    // clippy's, denied inside the module); the helper it calls does.
    let v = run_files(&[
        (
            "crates/imagefmt/src/flat.rs",
            "pub fn parse_header(buf: &[u8]) -> u32 {\n    header_len(buf)\n}\n",
        ),
        (
            "crates/imagefmt/src/util.rs",
            "pub fn header_len(buf: &[u8]) -> u32 {\n    \
             u32::from_le_bytes(buf.get(..4).unwrap().try_into().unwrap())\n}\n",
        ),
    ]);
    assert!(
        v.iter().any(|v| v.pass == PASS_PANIC
            && v.func == "parse_header"
            && v.chain == ["parse_header", "header_len"]),
        "expected a panic finding with the call chain, got: {v:?}"
    );
}

/// The parse-module list has two readers: this checker (roots of the
/// `panic` pass) and the modules themselves (clippy's panic-source lints,
/// as an inner attribute). A module added to one must be added to the other.
#[test]
fn every_parse_module_denies_clippys_panic_lints() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    for file in &Config::workspace_default().parse_files {
        let src = std::fs::read_to_string(root.join(file)).expect("parse module exists");
        let head = src.split("\nuse ").next().unwrap_or_default();
        let lints = [
            "unwrap_used",
            "expect_used",
            "panic",
            "unreachable",
            "todo",
            "unimplemented",
            "as_conversions",
            "indexing_slicing",
        ];
        assert!(
            head.contains("not(test)")
                && lints
                    .iter()
                    .all(|lint| head.contains(&format!("clippy::{lint}"))),
            "{file} must deny clippy's eight panic-source lints outside tests"
        );
    }
}

#[test]
fn unwrap_outside_parse_modules_is_not_a_panic_finding() {
    let v = run(
        "crates/workloads/src/lib.rs",
        "pub fn build() -> u32 { \"7\".parse().unwrap() }",
    );
    assert!(
        v.iter().all(|v| v.pass != PASS_PANIC),
        "panic pass is scoped to parse modules, got: {v:?}"
    );
}

#[test]
fn box_dyn_error_in_public_library_fn_is_caught() {
    let v = run(
        "crates/platform/src/lib.rs",
        "pub fn start() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }",
    );
    assert!(
        v.iter()
            .any(|v| v.pass == PASS_HYGIENE && v.func == "start"),
        "expected an error-hygiene finding, got: {v:?}"
    );
}

#[test]
fn binary_exits_zero_on_clean_tree_and_nonzero_on_violation() {
    // The workspace root is two levels up from this crate.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let bin = env!("CARGO_BIN_EXE_catalint");

    #[expect(
        clippy::disallowed_methods,
        reason = "the fixture drives the real binary; nothing simulated runs here"
    )]
    let clean = Command::new(bin)
        .args(["--root", root.to_str().expect("utf-8 root")])
        .output()
        .expect("run catalint");
    assert!(
        clean.status.success(),
        "catalint must pass on the checked-in tree:\n{}{}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&clean.stderr)
    );

    // Plant a violation in a scratch copy of the workspace layout: a
    // public library function with an erased error type.
    let scratch = std::env::temp_dir().join(format!("catalint-fixture-{}", std::process::id()));
    let lib_dir = scratch.join("crates/platform/src");
    std::fs::create_dir_all(&lib_dir).expect("mkdir");
    std::fs::write(scratch.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::write(
        lib_dir.join("lib.rs"),
        "pub fn start() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }\n",
    )
    .expect("write fixture");

    #[expect(
        clippy::disallowed_methods,
        reason = "the fixture drives the real binary; nothing simulated runs here"
    )]
    let dirty = Command::new(bin)
        .args(["--root", scratch.to_str().expect("utf-8 scratch")])
        .output()
        .expect("run catalint");
    assert!(
        !dirty.status.success(),
        "catalint must fail on a planted `Box<dyn Error>` return:\n{}{}",
        String::from_utf8_lossy(&dirty.stdout),
        String::from_utf8_lossy(&dirty.stderr)
    );

    std::fs::remove_dir_all(&scratch).ok();
}

// ---------------------------------------------------------------------------
// The name registry's other direction, and finding order
// ---------------------------------------------------------------------------

#[test]
fn unreferenced_registry_entry_is_caught() {
    let v = run_files(&[
        (
            "crates/simtime/src/names.rs",
            "pub const BOOT_TOTAL: &str = \"boot.total\";\n\
             pub const GHOST_METRIC: &str = \"boot.ghost\";\n",
        ),
        (
            "crates/platform/src/scratch_gw.rs",
            "pub fn emit(m: &Metrics) {\n    m.observe(names::BOOT_TOTAL, 1);\n}\n",
        ),
    ]);
    assert!(
        v.iter().any(|v| v.pass == PASS_NAMEREG
            && v.file == "crates/simtime/src/names.rs"
            && v.what.contains("GHOST_METRIC")),
        "expected an unreferenced-registry finding, got: {v:?}"
    );
    assert!(
        v.iter().all(|v| !v.what.contains("BOOT_TOTAL")),
        "the referenced entry is balanced, got: {v:?}"
    );
}

#[test]
fn finding_order_is_deterministic_and_sorted() {
    // Findings arrive sorted by (file, line, pass) regardless of input
    // order. Feed files in reverse order and mix three passes, one of them
    // interprocedural: `parse_header` sits in a parse module, and the
    // panicking helper it calls sits one call below it, in another file.
    let files = [
        (
            "crates/platform/src/scratch_z.rs",
            "pub fn emit(m: &mut M) -> Result<(), Box<dyn Error>> {\n    \
             m.inc(\"pool.reuse\");\n    Ok(())\n}\n",
        ),
        (
            "crates/imagefmt/src/util.rs",
            "fn header_len(buf: &[u8]) -> u32 {\n    \
             buf.first().copied().unwrap().into()\n}\n",
        ),
        (
            "crates/imagefmt/src/flat.rs",
            "pub fn parse_header(buf: &[u8]) -> Result<u32, Box<dyn Error>> {\n    \
             Ok(header_len(buf))\n}\n",
        ),
    ];
    let mut reversed = files;
    reversed.reverse();
    let a = run_files(&files);
    let b = run_files(&reversed);
    assert_eq!(a, b, "finding order must not depend on input order");
    let keys: Vec<(&str, u32, &str)> = a
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.pass))
        .collect();
    assert_eq!(
        keys,
        [
            ("crates/imagefmt/src/flat.rs", 1, PASS_HYGIENE),
            ("crates/imagefmt/src/flat.rs", 2, PASS_PANIC),
            ("crates/platform/src/scratch_z.rs", 1, PASS_HYGIENE),
            ("crates/platform/src/scratch_z.rs", 2, PASS_NAMEREG),
        ],
        "findings must be sorted by (file, line, pass), got: {a:?}"
    );
    assert!(
        a[1].to_string()
            .starts_with("crates/imagefmt/src/flat.rs:2 [panic] parse_header → header_len: "),
        "the interprocedural finding renders its chain, got: {}",
        a[1]
    );
}

// ---------------------------------------------------------------------------
// The DES event protocol
// ---------------------------------------------------------------------------

/// A minimal conforming events file + run loop: two variants, every
/// payload field bound by a tie-break key, both variants scheduled and
/// handled non-emptily. The eventproto tests below each break exactly one
/// clause of this contract.
const EVENTS_OK: &str = r#"
pub enum Event {
    Arrive { request: u64 },
    Done { request: u64, instance: Option<InstanceId> },
}
impl Event {
    fn class(&self) -> u8 {
        match self {
            Event::Arrive { .. } => 0,
            Event::Done { .. } => 1,
        }
    }
    fn key(&self) -> u64 {
        match self {
            Event::Arrive { request } => *request,
            Event::Done { request, .. } => *request,
        }
    }
    fn subkey(&self) -> u64 {
        match self {
            Event::Done { instance, .. } => instance.map_or(0, |i| i.key()),
            Event::Arrive { .. } => 0,
        }
    }
}
"#;

const LOOP_OK: &str = r#"
pub fn run_fleet(&mut self) {
    self.queue.schedule(t0, Event::Arrive { request: 1 });
    match ev {
        Event::Arrive { request } => {
            self.queue.schedule(t1, Event::Done { request, instance: None });
        }
        Event::Done { request, instance } => {
            self.finish(request, instance);
        }
    }
}
"#;

const EVENTS_PATH: &str = "crates/platform/src/simulate/events.rs";
const LOOP_PATH: &str = "crates/platform/src/simulate/scratch_loop.rs";

#[test]
fn conforming_event_protocol_is_clean() {
    let v = run_files(&[(EVENTS_PATH, EVENTS_OK), (LOOP_PATH, LOOP_OK)]);
    assert!(
        v.iter().all(|v| v.pass != PASS_EVENTPROTO),
        "the conforming fixture must be clean, got: {v:?}"
    );
}

#[test]
fn tie_break_blind_spot_is_caught() {
    // Drop the `instance` binding from subkey: two `Done` events differing
    // only in `instance` now compare equal, and insertion order leaks.
    let blinded = EVENTS_OK.replace(
        "Event::Done { instance, .. } => instance.map_or(0, |i| i.key()),",
        "Event::Done { .. } => 0,",
    );
    let v = run_files(&[(EVENTS_PATH, &blinded), (LOOP_PATH, LOOP_OK)]);
    assert!(
        v.iter().any(|v| v.pass == PASS_EVENTPROTO
            && v.file == EVENTS_PATH
            && v.what.contains("tie-break blind spot")
            && v.what.contains("`instance`")),
        "expected a blind-spot finding for `instance`, got: {v:?}"
    );
}

#[test]
fn scheduled_but_unhandled_variant_is_caught() {
    // Delete the `Done` arm: the loop still schedules the variant but can
    // never consume it.
    let broken: String = LOOP_OK
        .lines()
        .filter(|l| !l.contains("Event::Done { request, instance } =>"))
        .filter(|l| !l.contains("self.finish"))
        .collect::<Vec<_>>()
        .join("\n")
        // Drop the now-orphaned closing brace of the deleted arm.
        .replacen("        }\n    }\n}", "    }\n}", 1);
    let v = run_files(&[(EVENTS_PATH, EVENTS_OK), (LOOP_PATH, &broken)]);
    assert!(
        v.iter().any(|v| v.pass == PASS_EVENTPROTO
            && v.func == "run_fleet"
            && v.what.contains("no handler arm")
            && v.what.contains("Done")),
        "expected a schedules-but-never-handles finding, got: {v:?}"
    );
}

#[test]
fn wildcard_arm_in_a_run_loop_is_caught() {
    let lazy = LOOP_OK.replace("Event::Done { request, instance } =>", "_ =>");
    let v = run_files(&[(EVENTS_PATH, EVENTS_OK), (LOOP_PATH, &lazy)]);
    assert!(
        v.iter().any(|v| v.pass == PASS_EVENTPROTO
            && v.func == "run_fleet"
            && v.what.contains("wildcard")),
        "expected a wildcard-arm finding, got: {v:?}"
    );
}

/// The queue's merge: `pop` builds `Arrive` straight from the sorted
/// trace, so no `schedule(…)` call anywhere constructs it.
const MERGE: &str = r#"
impl EventQueue {
    pub fn pop(&mut self) -> Option<Event> {
        let next = self.trace.get(self.cursor)?;
        self.cursor += 1;
        Some(Event::Arrive { request: next.request })
    }
}
"#;

/// `LOOP_OK` without its up-front `schedule(t0, Event::Arrive { .. })`.
fn loop_without_preload() -> String {
    LOOP_OK.replace(
        "    self.queue.schedule(t0, Event::Arrive { request: 1 });\n",
        "",
    )
}

#[test]
fn variant_built_by_the_queue_merge_is_not_a_ghost() {
    let events = format!("{EVENTS_OK}{MERGE}");
    let v = run_files(&[(EVENTS_PATH, &events), (LOOP_PATH, &loop_without_preload())]);
    assert!(
        v.iter().all(|v| v.pass != PASS_EVENTPROTO),
        "the merge is `Arrive`'s construction site, got: {v:?}"
    );
}

#[test]
fn variant_neither_scheduled_nor_merged_is_a_ghost() {
    let ghost = |v: &[catalint::Violation]| {
        v.iter().any(|v| {
            v.pass == PASS_EVENTPROTO
                && v.file == EVENTS_PATH
                && v.what.contains("Arrive")
                && v.what.contains("never constructed")
        })
    };
    let stripped = loop_without_preload();
    let v = run_files(&[(EVENTS_PATH, EVENTS_OK), (LOOP_PATH, &stripped)]);
    assert!(
        ghost(&v),
        "expected a never-constructed finding, got: {v:?}"
    );
    // A `pop` outside the events file is somebody else's function, not
    // the queue's merge.
    let elsewhere = format!("{stripped}{MERGE}");
    let v = run_files(&[(EVENTS_PATH, EVENTS_OK), (LOOP_PATH, &elsewhere)]);
    assert!(ghost(&v), "only the events file's merge counts, got: {v:?}");
}

#[test]
fn ghost_variant_is_caught() {
    // Declare a variant nothing schedules or handles. The tie-break keys
    // cover it so the only findings are the ghost ones (plus the loop's
    // missing-arm conformance finding).
    let ghosted = EVENTS_OK
        .replace(
            "    Done { request: u64, instance: Option<InstanceId> },",
            "    Done { request: u64, instance: Option<InstanceId> },\n    Phantom { request: u64 },",
        )
        .replace(
            "            Event::Arrive { request } => *request,",
            "            Event::Arrive { request } | Event::Phantom { request } => *request,",
        );
    let v = run_files(&[(EVENTS_PATH, &ghosted), (LOOP_PATH, LOOP_OK)]);
    assert!(
        v.iter().any(|v| v.pass == PASS_EVENTPROTO
            && v.file == EVENTS_PATH
            && v.what.contains("Phantom")
            && v.what.contains("never constructed")),
        "expected a never-scheduled ghost finding, got: {v:?}"
    );
    assert!(
        v.iter().any(|v| v.pass == PASS_EVENTPROTO
            && v.file == EVENTS_PATH
            && v.what.contains("Phantom")
            && v.what.contains("handler arm in no run loop")),
        "expected a handled-nowhere ghost finding, got: {v:?}"
    );
}
