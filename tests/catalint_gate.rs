//! Tier-1 gate: the workspace carries zero lint debt.
//!
//! This is `cargo run -p catalint` wired into the ordinary test suite, so
//! plain `cargo test` refuses new debt across all eight passes — from
//! panic-reachability and hot-path copies through fault-seam coverage and
//! event-protocol conformance — even when nobody invokes the binary. There
//! is no tolerated baseline, and no file format to write one in: the gate
//! is zero findings, full stop. A genuinely intended exception gets a
//! `catalint: allow(<pass>)` comment at the site — visible in the diff it
//! excuses. (The wall-clock/env/thread/process ban is clippy's, in
//! `crates/clippy.toml`, and gates in `tools/check.sh`.)

#[test]
fn workspace_carries_zero_lint_debt() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = catalint::check_workspace(root).expect("catalint scans the workspace");
    if outcome.violations.is_empty() {
        return;
    }
    let mut report = String::new();
    for v in &outcome.violations {
        report.push_str(&format!("    {v}\n"));
    }
    panic!(
        "catalint found {} violation(s) — the workspace is kept at zero \
         lint debt; fix them or suppress at the site with a justified \
         `catalint: allow(<pass>)` comment (see DESIGN.md §12):\n{report}",
        outcome.violations.len()
    );
}

/// The CLI's exit-code contract, which CI and scripts branch on: 0 for a
/// clean scan, 1 on any finding, 2 for a usage or I/O error. Conflating 1
/// and 2 would let a typo'd flag read as "findings" (or worse, a missing
/// root read as "clean"), so each code is pinned against the real binary.
#[test]
fn cli_exit_codes_are_split_by_cause() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO"))
            .args(["run", "-q", "-p", "catalint", "--"])
            .args(extra)
            .current_dir(root)
            .output()
            .expect("run catalint via cargo");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    // 0: the checked-in tree is clean.
    let (code, err) = run(&["--root", root.to_str().expect("utf-8 root")]);
    assert_eq!(code, Some(0), "clean tree must exit 0, stderr:\n{err}");

    // 1: findings. Plant a public library function with an erased error
    // type in a scratch workspace.
    let scratch = std::env::temp_dir().join(format!("catalint-gate-{}", std::process::id()));
    let lib_dir = scratch.join("crates/platform/src");
    std::fs::create_dir_all(&lib_dir).expect("mkdir");
    std::fs::write(scratch.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::write(
        lib_dir.join("lib.rs"),
        "pub fn start() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }\n",
    )
    .expect("write fixture");
    let (code, err) = run(&["--root", scratch.to_str().expect("utf-8 scratch")]);
    assert_eq!(code, Some(1), "findings must exit 1, stderr:\n{err}");
    assert!(
        err.contains("[hygiene]"),
        "stderr must name the pass:\n{err}"
    );
    std::fs::remove_dir_all(&scratch).ok();

    // 2: usage error (unknown flag) and I/O error (unreadable root).
    let (code, err) = run(&["--bogus-flag"]);
    assert_eq!(code, Some(2), "usage error must exit 2, stderr:\n{err}");
    let (code, err) = run(&["--root", "/nonexistent/catalint-gate-root"]);
    assert_eq!(code, Some(2), "I/O error must exit 2, stderr:\n{err}");
}
