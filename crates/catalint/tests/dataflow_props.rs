//! Property test for the dataflow contract pass: an *injected* defect (a
//! seam op with its `ctx.fault` deleted) must be flagged no matter what
//! benign code surrounds it, and the corresponding clean shape must never
//! be — regardless of identifier spelling or padding statements. The
//! fixture tests pin single examples; this pins the *rule*.

use catalint::config::Config;
use catalint::passes::PASS_SEAMCOVER;
use catalint::{analyze, SrcFile, Violation};
use proptest::prelude::*;

fn run(path: &str, content: &str) -> Vec<Violation> {
    let files = vec![SrcFile {
        path: path.into(),
        content: content.into(),
    }];
    analyze(&files, &Config::workspace_default())
}

/// A lowercase identifier that is never a keyword and never collides with
/// the fixed names the fixtures use (`v` prefix).
fn ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 1..8).prop_map(|v| {
        let tail: String = v.iter().map(|b| char::from(b'a' + (b % 26))).collect();
        format!("v{tail}")
    })
}

/// Benign filler statements: integer lets that touch no duration.
fn padding(n: usize) -> String {
    (0..n)
        .map(|i| format!("    let pad{i} = {i} * 3;\n"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn injected_seam_skip_is_always_flagged(name in ident(), pad in 0usize..4) {
        let pads = padding(pad);
        let skipped = format!(
            "pub fn boot({name}: &Store, ctx: &mut BootCtx) -> Result<(), E> {{\n\
             {pads}    let out = {name}.restore_metadata(ctx.clock(), ctx.model())?;\n    Ok(())\n}}\n"
        );
        let v = run("crates/core/src/scratch_gen.rs", &skipped);
        prop_assert!(
            v.iter().any(|v| v.pass == PASS_SEAMCOVER && v.what.contains("restore_metadata")),
            "seam skip must be flagged, got: {v:?}"
        );

        let guarded = format!(
            "pub fn boot({name}: &Store, ctx: &mut BootCtx) -> Result<(), E> {{\n\
             {pads}    ctx.fault(InjectionPoint::ArenaMap)?;\n\
             \x20   let out = {name}.restore_metadata(ctx.clock(), ctx.model())?;\n    Ok(())\n}}\n"
        );
        let v = run("crates/core/src/scratch_gen.rs", &guarded);
        prop_assert!(
            v.iter().all(|v| v.pass != PASS_SEAMCOVER),
            "a consulted seam must never be flagged, got: {v:?}"
        );
    }
}
