//! Golden tests: one fixture per pass, pinning the exact rendered finding
//! — location, pass tag, root→sink chain (for the interprocedural
//! passes), and message. The text report is the only output format and the
//! CI gate prints it, so these are full-string comparisons, not substring
//! probes.

use catalint::config::Config;
use catalint::{analyze, SrcFile};

fn render(files: &[(&str, &str)]) -> Vec<String> {
    let files: Vec<SrcFile> = files
        .iter()
        .map(|(p, c)| SrcFile {
            path: (*p).into(),
            content: (*c).into(),
        })
        .collect();
    analyze(&files, &Config::workspace_default())
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn golden_panic_interprocedural_chain() {
    // A parse-module function calling a panicking helper in a non-parse
    // file of the same crate: the finding lands on the parse function,
    // carries the root→sink chain, and names the helper's file.
    let got = render(&[
        (
            "crates/imagefmt/src/flat.rs",
            "pub fn decode_widget(buf: &[u8]) -> usize {\n    widget_len(buf)\n}\n",
        ),
        (
            "crates/imagefmt/src/util.rs",
            "pub fn widget_len(buf: &[u8]) -> usize {\n    buf.first().copied().unwrap().into()\n}\n",
        ),
    ]);
    assert_eq!(
        got,
        [
            "crates/imagefmt/src/flat.rs:2 [panic] decode_widget → widget_len: \
          calls `widget_len` (crates/imagefmt/src/util.rs) which can panic: .unwrap()"
        ]
    );
}

#[test]
fn golden_namereg() {
    let got = render(&[(
        "crates/platform/src/emit.rs",
        "pub fn note(m: &mut MetricsRegistry) {\n    m.inc(\"pool.reuse\");\n}\n",
    )]);
    assert_eq!(
        got,
        ["crates/platform/src/emit.rs:2 [namereg] fn note: \
          metric/span name literal \"pool.reuse\" (registry prefix `pool.`); \
          use the simtime::names constant or helper"]
    );
}

#[test]
fn golden_hashorder() {
    let got = render(&[(
        "crates/platform/src/order.rs",
        "pub fn dump(merged: HashSet<u64>) -> Vec<u64> {\n    \
             let mut out = Vec::new();\n    \
             for vpn in &merged {\n        \
                 out.push(*vpn);\n    \
             }\n    \
             out\n\
         }\n",
    )]);
    assert_eq!(
        got,
        ["crates/platform/src/order.rs:3 [hashorder] fn dump: \
          HashMap/HashSet iteration leaks hash order; \
          use BTreeMap/BTreeSet, sort first, or reduce order-insensitively"]
    );
}

#[test]
fn golden_hygiene() {
    let got = render(&[(
        "crates/alpha/src/lib.rs",
        "pub fn load() -> Result<(), Box<dyn std::error::Error>> {\n    Ok(())\n}\n",
    )]);
    assert_eq!(
        got,
        ["crates/alpha/src/lib.rs:1 [hygiene] fn load: \
          public fn returns `Box<dyn Error>`; return the crate error type"]
    );
}
