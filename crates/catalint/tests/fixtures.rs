//! End-to-end checks against planted violations: the checker must catch a
//! wall-clock read anywhere and a panic site inside a parse module, and the
//! `catalint` binary must exit non-zero on any finding.

use std::process::Command;

use catalint::config::Config;
use catalint::passes::{
    PASS_DETERMINISM, PASS_EVENTPROTO, PASS_HERMETIC, PASS_HOTPATH, PASS_HYGIENE, PASS_PANIC,
    PASS_SEAMCOVER, PASS_SPANFLOW,
};
use catalint::{analyze, SrcFile};

fn run(path: &str, content: &str) -> Vec<catalint::Violation> {
    run_files(&[(path, content)])
}

fn run_files(files: &[(&str, &str)]) -> Vec<catalint::Violation> {
    run_files_cfg(files, &Config::workspace_default())
}

fn run_files_cfg(files: &[(&str, &str)], cfg: &Config) -> Vec<catalint::Violation> {
    let files: Vec<SrcFile> = files
        .iter()
        .map(|(p, c)| SrcFile {
            path: (*p).into(),
            content: (*c).into(),
        })
        .collect();
    analyze(&files, cfg)
}

#[test]
fn planted_systemtime_now_is_caught() {
    let v = run(
        "crates/core/src/restore.rs",
        r#"
pub fn boot_stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
"#,
    );
    assert!(
        v.iter()
            .any(|v| v.pass == PASS_DETERMINISM && v.func == "boot_stamp"),
        "expected a determinism finding, got: {v:?}"
    );
}

#[test]
fn planted_instant_and_sleep_are_caught() {
    let v = run(
        "crates/sandbox/src/lib.rs",
        r#"
fn wait_for_boot() {
    let t0 = std::time::Instant::now();
    std::thread::sleep(std::time::Duration::from_millis(1));
    let _ = t0;
}
"#,
    );
    assert_eq!(
        v.iter().filter(|v| v.pass == PASS_DETERMINISM).count(),
        2,
        "expected Instant::now and thread::sleep findings, got: {v:?}"
    );
}

#[test]
fn simtime_may_define_time() {
    let v = run(
        "crates/simtime/src/clock.rs",
        "pub fn real_now() -> std::time::Instant { std::time::Instant::now() }",
    );
    assert!(
        v.iter().all(|v| v.pass != PASS_DETERMINISM),
        "simtime is exempt from the determinism pass, got: {v:?}"
    );
}

#[test]
fn planted_unwrap_in_parse_module_is_caught() {
    let v = run(
        "crates/imagefmt/src/flat.rs",
        r#"
pub fn parse_header(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[0..4].try_into().unwrap())
}
"#,
    );
    // Both the slice indexing and the unwrap must be flagged.
    assert!(
        v.iter()
            .filter(|v| v.pass == PASS_PANIC && v.func == "parse_header")
            .count()
            >= 2,
        "expected indexing + unwrap findings, got: {v:?}"
    );
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
fn lossy_cast_in_parse_module_is_caught() {
    let v = run(
        "crates/imagefmt/src/record.rs",
        "pub fn narrow(x: u64) -> u16 { x as u16 }",
    );
    assert!(
        v.iter()
            .any(|v| v.pass == PASS_PANIC && v.what.contains("cast")),
        "expected a lossy-cast finding, got: {v:?}"
    );
}

#[test]
fn eager_copy_reachable_from_restore_root_is_caught() {
    let v = run(
        "crates/core/src/restore.rs",
        r#"
pub fn restore_boot(data: &[u8]) -> Vec<u8> {
    stage_one(data)
}
fn stage_one(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}
"#,
    );
    assert!(
        v.iter()
            .any(|v| v.pass == PASS_HOTPATH && v.func == "stage_one"),
        "expected a hot-path copy finding via the call graph, got: {v:?}"
    );
}

#[test]
fn copy_behind_ensure_compiled_is_off_the_hot_path() {
    let v = run(
        "crates/core/src/store.rs",
        r#"
pub fn restore_boot(data: &[u8]) -> Vec<u8> {
    ensure_compiled(data)
}
fn ensure_compiled(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}
"#,
    );
    assert!(
        v.iter().all(|v| v.pass != PASS_HOTPATH),
        "one-time image compilation may buffer freely, got: {v:?}"
    );
}

#[test]
fn copy_into_the_first_party_buffer_on_the_restore_path_is_flagged() {
    // `memsim::SharedBytes` has no constructor that copies, so a copy into
    // it has to be spelled with a name the pass knows: the `to_vec()` in
    // front of `From<Vec<u8>>`, or — should anyone add one — an associated
    // `copy_from_slice`. Slicing the shared buffer is clean.
    let v = run(
        "crates/imagefmt/src/flat.rs",
        r#"
pub fn restore_metadata(arena: &SharedBytes) -> Vec<SharedBytes> {
    vec![view(arena), via_vec(arena), via_ctor(arena)]
}
fn view(arena: &SharedBytes) -> SharedBytes {
    arena.slice(8..16)
}
fn via_vec(arena: &SharedBytes) -> SharedBytes {
    SharedBytes::from(arena[8..16].to_vec())
}
fn via_ctor(arena: &SharedBytes) -> SharedBytes {
    SharedBytes::copy_from_slice(&arena[8..16])
}
"#,
    );
    let flagged: Vec<&str> = v
        .iter()
        .filter(|v| v.pass == PASS_HOTPATH)
        .map(|v| v.func.as_str())
        .collect();
    assert_eq!(flagged, ["via_vec", "via_ctor"], "got: {v:?}");
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
fn allow_comment_suppresses_a_finding() {
    let v = run(
        "crates/core/src/restore.rs",
        r#"
pub fn boot_stamp() -> std::time::SystemTime {
    // catalint: allow(determinism)
    std::time::SystemTime::now()
}
"#,
    );
    assert!(
        v.iter().all(|v| v.pass != PASS_DETERMINISM),
        "allow(determinism) on the line above must suppress, got: {v:?}"
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

    // Plant a violation in a scratch copy of the workspace layout: a parse
    // module with an unwrap.
    let scratch = std::env::temp_dir().join(format!("catalint-fixture-{}", std::process::id()));
    let parse_dir = scratch.join("crates/imagefmt/src");
    std::fs::create_dir_all(&parse_dir).expect("mkdir");
    std::fs::write(scratch.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::create_dir_all(scratch.join("crates")).expect("mkdir");
    std::fs::write(
        parse_dir.join("flat.rs"),
        "pub fn parse(b: &[u8]) -> u8 { *b.first().unwrap() }\n",
    )
    .expect("write fixture");

    let dirty = Command::new(bin)
        .args(["--root", scratch.to_str().expect("utf-8 scratch")])
        .output()
        .expect("run catalint");
    assert!(
        !dirty.status.success(),
        "catalint must fail on a planted unwrap in a parse module:\n{}{}",
        String::from_utf8_lossy(&dirty.stdout),
        String::from_utf8_lossy(&dirty.stderr)
    );

    std::fs::remove_dir_all(&scratch).ok();
}

// ---------------------------------------------------------------------------
// PR 6: the dataflow contract passes
// ---------------------------------------------------------------------------

/// A gVisor-style engine body with every seam consulted. The seamcover
/// acceptance test edits this: deleting one `ctx.fault(...)` line must
/// produce a finding at the now-unguarded operation.
const GUARDED_ENGINE: &str = r#"
pub fn boot(profile: &AppProfile, ctx: &mut BootCtx) -> Result<(), SandboxError> {
    ctx.fault(InjectionPoint::ArenaMap)?;
    let records = store.restore_metadata(ctx.clock(), ctx.model())?;
    ctx.fault(InjectionPoint::ImageMmap)?;
    let base = store.build_base_layer(ctx.clock(), ctx.model())?;
    Ok(())
}
"#;

#[test]
fn guarded_engine_is_clean() {
    let v = run("crates/core/src/scratch_engine.rs", GUARDED_ENGINE);
    assert!(
        v.iter().all(|v| v.pass != PASS_SEAMCOVER),
        "every seam op sits behind its consult, got: {v:?}"
    );
}

#[test]
fn deleting_a_fault_consult_is_caught() {
    // Exactly GUARDED_ENGINE minus the ArenaMap consult: the
    // restore_metadata call is now unguarded and must be flagged.
    let stripped: String = GUARDED_ENGINE
        .lines()
        .filter(|l| !l.contains("InjectionPoint::ArenaMap"))
        .collect::<Vec<_>>()
        .join("\n");
    let v = run("crates/core/src/scratch_engine.rs", &stripped);
    assert!(
        v.iter().any(|v| v.pass == PASS_SEAMCOVER
            && v.func == "boot"
            && v.what.contains("restore_metadata")
            && v.what.contains("InjectionPoint::ArenaMap")),
        "deleting a ctx.fault(...) must produce a seamcover finding, got: {v:?}"
    );
    // The still-guarded build_base_layer stays clean.
    assert!(
        v.iter()
            .all(|v| v.pass != PASS_SEAMCOVER || !v.what.contains("build_base_layer")),
        "the ImageMmap consult still guards build_base_layer, got: {v:?}"
    );
}

#[test]
fn consult_through_a_precise_helper_counts() {
    // The consult may live in a same-file helper called before the
    // operation — the fixpoint summary carries it to the caller.
    let v = run(
        "crates/core/src/scratch_engine.rs",
        r#"
fn arm_seams(ctx: &mut BootCtx) -> Result<(), SandboxError> {
    ctx.fault(InjectionPoint::ArenaMap)?;
    Ok(())
}
pub fn boot(profile: &AppProfile, ctx: &mut BootCtx) -> Result<(), SandboxError> {
    arm_seams(ctx)?;
    let records = store.restore_metadata(ctx.clock(), ctx.model())?;
    Ok(())
}
"#,
    );
    assert!(
        v.iter().all(|v| v.pass != PASS_SEAMCOVER),
        "a precise callee's consult covers the caller, got: {v:?}"
    );
}

#[test]
fn unconsulted_enum_variant_is_caught() {
    // Variant coverage: the enum declaration is parsed from source, and a
    // variant no boot-reachable function consults is flagged at its line.
    let v = run_files(&[
        (
            "crates/faultsim/src/point.rs",
            "pub enum InjectionPoint {\n    ArenaMap,\n    GhostSeam,\n}\n",
        ),
        (
            "crates/core/src/scratch_engine.rs",
            "pub fn boot(ctx: &mut BootCtx) -> Result<(), E> {\n    \
             ctx.fault(InjectionPoint::ArenaMap)?;\n    Ok(())\n}\n",
        ),
    ]);
    assert!(
        v.iter().any(|v| v.pass == PASS_SEAMCOVER
            && v.file == "crates/faultsim/src/point.rs"
            && v.line == 3
            && v.what.contains("GhostSeam")),
        "expected a variant-coverage finding for GhostSeam, got: {v:?}"
    );
    assert!(
        v.iter().all(|v| !v
            .what
            .contains("`InjectionPoint::ArenaMap` is never consulted")),
        "the consulted variant is covered, got: {v:?}"
    );
}

#[test]
fn span_guard_leak_across_try_is_caught() {
    let v = run(
        "crates/platform/src/scratch_gw.rs",
        r#"
pub fn measure(&mut self) -> Result<(), PlatformError> {
    let h = self.tracer_mut().begin("queue-wait");
    self.step()?;
    self.tracer_mut().end(h);
    Ok(())
}
"#,
    );
    assert!(
        v.iter()
            .any(|v| v.pass == PASS_SPANFLOW && v.func == "measure" && v.line == 4),
        "expected a span-leak finding at the `?`, got: {v:?}"
    );
}

#[test]
fn balanced_span_guard_is_clean() {
    let v = run(
        "crates/platform/src/scratch_gw.rs",
        r#"
pub fn measure(&mut self) -> Result<(), PlatformError> {
    let h = self.tracer_mut().begin("queue-wait");
    let step = self.step();
    self.tracer_mut().end(h);
    step?;
    Ok(())
}
"#,
    );
    assert!(
        v.iter().all(|v| v.pass != PASS_SPANFLOW),
        "the span closes before the `?`, got: {v:?}"
    );
}

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
        v.iter().any(|v| v.pass == PASS_SPANFLOW
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
    // Satellite: the JSON consumers (CI artifacts, the schema gate) rely
    // on findings arriving sorted by (file, line, pass) regardless of
    // input order. Feed files in reverse order and mix passes per file.
    // (`run_closed` is a sim root: each ambient read is both a determinism
    // and a hermetic finding on one line; `restore_boot` is a hot root.)
    let files = [
        (
            "crates/platform/src/scratch_z.rs",
            "pub fn run_closed() {\n    \
             let _t0 = std::time::Instant::now();\n    \
             std::thread::sleep(std::time::Duration::from_millis(1));\n}\n",
        ),
        (
            "crates/core/src/scratch_a.rs",
            "pub fn restore_boot(data: &[u8]) -> Vec<u8> {\n    data.to_vec()\n}\n",
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
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "findings must be sorted by (file, line, pass)"
    );
    assert!(
        keys.len() >= 3,
        "fixture must produce findings in both files, got: {a:?}"
    );
}

// ---------------------------------------------------------------------------
// PR 10: the hermeticity certificate passes
// ---------------------------------------------------------------------------

#[test]
fn hermetic_taint_reaches_through_helpers_with_chain() {
    // The wall-clock read sits two hops below a sim root; the hermetic
    // pass must follow the call graph there and carry the chain.
    let v = run(
        "crates/platform/src/scratch_gw.rs",
        r#"
pub fn call(&mut self) {
    stage();
}
fn stage() {
    finish();
}
fn finish() {
    let _t0 = std::time::Instant::now();
}
"#,
    );
    let hit = v
        .iter()
        .find(|v| v.pass == PASS_HERMETIC && v.func == "finish")
        .unwrap_or_else(|| panic!("expected a hermetic finding in `finish`, got: {v:?}"));
    assert_eq!(
        hit.chain,
        vec!["call", "stage", "finish"],
        "the finding must carry the root-to-sink chain"
    );
}

#[test]
fn hermetic_flags_entropy_env_process_spawn_and_host_threads() {
    let v = run(
        "crates/platform/src/scratch_gw.rs",
        r#"
pub fn run_fleet(&mut self) {
    let mut rng = thread_rng();
    let _home = std::env::var("HOME");
    let _out = std::process::Command::new("date").output();
    let _ = crossbeam::thread::scope(|s| { s.spawn(|_| ()); });
    std::thread::spawn(|| ());
    let _ = std::thread::Builder::new();
    self.pool.spawn(self.tracer.scope("not a thread path"));
}
"#,
    );
    let hermetic: Vec<&catalint::Violation> =
        v.iter().filter(|v| v.pass == PASS_HERMETIC).collect();
    assert!(
        hermetic.iter().any(|v| v.what.contains("thread_rng"))
            && hermetic.iter().any(|v| v.what.contains("env::var"))
            && hermetic.iter().any(|v| v.what.contains("std::process")),
        "expected entropy + env + process findings, got: {v:?}"
    );
    let threads = hermetic.iter().filter(|v| v.what.contains("host thread"));
    let lines: Vec<u32> = threads.map(|v| v.line).collect();
    assert_eq!(lines, vec![6, 7, 8], "one per spawn site, got: {v:?}");
}

#[test]
fn unreachable_wall_clock_is_not_a_hermetic_finding() {
    // No sim root reaches `offline_report`: the determinism pass still
    // flags the raw read, but the hermetic certificate is about the
    // simulation's transitive closure only (so tests keep their threads).
    let v = run(
        "crates/platform/src/scratch_gw.rs",
        "pub fn offline_report() { let _t = std::time::Instant::now(); \
         std::thread::scope(|s| { s.spawn(|| ()); }); }\n",
    );
    assert!(
        v.iter().all(|v| v.pass != PASS_HERMETIC),
        "hermetic is scoped to sim-reachable code, got: {v:?}"
    );
    assert!(
        v.iter().any(|v| v.pass == PASS_DETERMINISM),
        "the raw read itself is still a determinism finding, got: {v:?}"
    );
}

#[test]
fn clock_seam_registration_stops_the_taint() {
    // The dual-clock boundary: a function registered under [[clock_seam]]
    // may read the wall clock, and the taint does not cross into it.
    let files = [(
        "crates/platform/src/scratch_gw.rs",
        r#"
pub fn call(&mut self) {
    let _t = realtime_now();
}
fn realtime_now() -> std::time::Instant {
    std::time::Instant::now()
}
"#,
    )];
    let unsealed = run_files(&files);
    assert!(
        unsealed
            .iter()
            .any(|v| v.pass == PASS_HERMETIC && v.func == "realtime_now"),
        "without the registry entry the read is a finding, got: {unsealed:?}"
    );

    let mut cfg = Config::workspace_default();
    cfg.clock_seam.push("realtime_now".into());
    let sealed = run_files_cfg(&files, &cfg);
    assert!(
        sealed.iter().all(|v| v.pass != PASS_HERMETIC),
        "a registered clock seam is a sanctioned boundary, got: {sealed:?}"
    );
}

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
