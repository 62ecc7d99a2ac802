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
fn golden_hotpath_chain() {
    // The copy sits two hops below the configured restore root; the
    // finding is attributed to the sink but carries the full chain.
    let got = render(&[(
        "crates/core/src/restore.rs",
        "pub fn restore_boot(src: &[u8]) -> Vec<u8> {\n    \
             stage(src)\n\
         }\n\
         fn stage(src: &[u8]) -> Vec<u8> {\n    \
             src.to_vec()\n\
         }\n",
    )]);
    assert_eq!(
        got,
        [
            "crates/core/src/restore.rs:5 [hotpath] restore_boot → stage: \
          eager `to_vec()` buffer copy on the restore path; slice/share instead"
        ]
    );
}

#[test]
fn golden_hotpath_fork_boot_chain() {
    // Fork boot is held to the same discipline as restore: a per-page
    // eager copy under `sfork_clone` is what page-table-granular sfork
    // exists to avoid, and it fires with its root→sink chain.
    let got = render(&[(
        "crates/memsim/src/space.rs",
        "pub fn sfork_clone(pages: &[Vec<u8>]) -> Vec<Vec<u8>> {\n    \
             pages.iter().map(|p| copy_page(p)).collect()\n\
         }\n\
         fn copy_page(page: &[u8]) -> Vec<u8> {\n    \
             page.to_vec()\n\
         }\n",
    )]);
    assert_eq!(
        got,
        [
            "crates/memsim/src/space.rs:5 [hotpath] sfork_clone → copy_page: \
          eager `to_vec()` buffer copy on the restore path; slice/share instead"
        ]
    );
}

#[test]
fn golden_borrowcell() {
    let got = render(&[(
        "crates/platform/src/celluse.rs",
        "pub fn warm(cell: &RefCell<u32>) -> Result<u32, PlatformError> {\n    \
             let mut guard = cell.borrow_mut();\n    \
             let v = fetch()?;\n    \
             *guard += v;\n    \
             Ok(*guard)\n\
         }\n",
    )]);
    assert_eq!(
        got,
        ["crates/platform/src/celluse.rs:3 [borrowcell] fn warm: \
          guard `guard` from `cell.borrow_mut()` (line 2) held across `?`; \
          end the borrow before propagating errors"]
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

#[test]
fn golden_seamcover_unguarded_operation() {
    let got = render(&[(
        "crates/core/src/scratch_engine.rs",
        "pub fn boot(profile: &AppProfile, ctx: &mut BootCtx) -> Result<(), SandboxError> {\n    \
         let records = store.restore_metadata(ctx.clock(), ctx.model())?;\n    Ok(())\n}\n",
    )]);
    assert_eq!(
        got,
        [
            "crates/core/src/scratch_engine.rs:2 [seamcover] fn boot: seam operation \
          `restore_metadata` runs without consulting `ctx.fault(InjectionPoint::ArenaMap)` \
          first; every boot-path `restore_metadata` must sit behind its fault seam"
        ]
    );
}

#[test]
fn golden_eventproto_tie_break_blind_spot() {
    let got = render(&[
        (
            "crates/platform/src/simulate/events.rs",
            "pub enum Event {\n    \
                 Arrive { request: u64 },\n    \
                 Done { request: u64, instance: u64 },\n\
             }\n\
             impl Event {\n    \
                 fn class(&self) -> u8 {\n        \
                     match self {\n            \
                         Event::Arrive { .. } => 0,\n            \
                         Event::Done { .. } => 1,\n        \
                     }\n    \
                 }\n    \
                 fn key(&self) -> u64 {\n        \
                     match self {\n            \
                         Event::Arrive { request } => *request,\n            \
                         Event::Done { request, .. } => *request,\n        \
                     }\n    \
                 }\n\
             }\n",
        ),
        (
            "crates/platform/src/simulate/scratch_loop.rs",
            "pub fn run_fleet(&mut self) {\n    \
                 self.queue.schedule(t0, Event::Arrive { request: 1 });\n    \
                 match ev {\n        \
                     Event::Arrive { request } => {\n            \
                         self.queue.schedule(t1, Event::Done { request, instance: 0 });\n        \
                     }\n        \
                     Event::Done { request, instance } => {\n            \
                         self.finish(request, instance);\n        \
                     }\n    \
                 }\n\
             }\n",
        ),
    ]);
    assert_eq!(
        got,
        [
            "crates/platform/src/simulate/events.rs:3 [eventproto] fn <module>: \
          tie-break blind spot: `Event::Done` field `instance` is bound by none of the \
          tie-break keys (class/key/subkey); two events differing only in `instance` \
          compare equal and pop in insertion order"
        ]
    );
}
