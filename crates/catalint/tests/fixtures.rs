//! End-to-end checks against planted violations, one fixture (or a few)
//! per pass, and the `catalint` binary must exit non-zero on any finding.

use std::process::Command;

use catalint::config::Config;
use catalint::passes::{PASS_HYGIENE, PASS_NAMEREG, PASS_PANIC};
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
