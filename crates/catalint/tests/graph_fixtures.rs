//! Fixture tests for the approximate call graph: name resolution under
//! shadowing, method-call resolution, and which calls get no edge at all.

use catalint::graph::CallGraph;
use catalint::lexer::lex;
use catalint::segment::segment;
use catalint::ParsedFile;

fn parse(path: &str, src: &str) -> ParsedFile {
    ParsedFile {
        path: path.into(),
        items: segment(&lex(src)),
    }
}

fn build(files: &[(&str, &str)]) -> Vec<ParsedFile> {
    files.iter().map(|(p, s)| parse(p, s)).collect()
}

/// Node index of the only function named `name` in `file`.
fn node(g: &CallGraph<'_>, file: &str, name: &str) -> usize {
    let hits: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.file == file && n.name == name)
        .map(|(ix, _)| ix)
        .collect();
    assert_eq!(hits.len(), 1, "expected one `{name}` in {file}");
    hits[0]
}

/// All edges out of `caller` through call sites named `callee`.
fn edges(g: &CallGraph<'_>, caller: usize, callee: &str) -> Vec<usize> {
    g.calls[caller]
        .iter()
        .filter(|site| site.bare == callee)
        .flat_map(|site| site.targets.iter().copied())
        .collect()
}

#[test]
fn shadowed_names_resolve_to_the_same_file() {
    // `helper` exists in both files; the bare call in a.rs must bind to
    // a.rs's definition only.
    let parsed = build(&[
        (
            "crates/alpha/src/a.rs",
            "fn caller() { helper(); }\nfn helper() {}\n",
        ),
        ("crates/beta/src/b.rs", "fn helper() {}\n"),
    ]);
    let g = CallGraph::build(&parsed, |_| false);
    let caller = node(&g, "crates/alpha/src/a.rs", "caller");
    let local = node(&g, "crates/alpha/src/a.rs", "helper");
    let foreign = node(&g, "crates/beta/src/b.rs", "helper");
    let e = edges(&g, caller, "helper");
    assert_eq!(e, vec![local]);
    assert!(!e.contains(&foreign));
}

#[test]
fn same_crate_bare_call_is_precise_cross_file() {
    let parsed = build(&[
        ("crates/alpha/src/a.rs", "fn caller() { helper(); }\n"),
        ("crates/alpha/src/b.rs", "fn helper() {}\n"),
    ]);
    let g = CallGraph::build(&parsed, |_| false);
    let caller = node(&g, "crates/alpha/src/a.rs", "caller");
    let target = node(&g, "crates/alpha/src/b.rs", "helper");
    assert_eq!(edges(&g, caller, "helper"), vec![target]);
}

#[test]
fn cross_crate_bare_call_has_no_edge() {
    // A bare name defined only in another crate is a guess, not a call the
    // graph can resolve: no edge.
    let parsed = build(&[
        ("crates/alpha/src/a.rs", "fn caller() { helper(); }\n"),
        ("crates/beta/src/b.rs", "fn helper() {}\n"),
    ]);
    let g = CallGraph::build(&parsed, |_| false);
    let caller = node(&g, "crates/alpha/src/a.rs", "caller");
    assert_eq!(edges(&g, caller, "helper"), Vec::<usize>::new());
}

#[test]
fn module_qualified_call_is_precise_across_crates() {
    // `lz::decode()` resolves by file stem even across a crate boundary.
    let parsed = build(&[
        ("crates/alpha/src/a.rs", "fn caller() { lz::decode(); }\n"),
        ("crates/beta/src/lz.rs", "pub fn decode() {}\n"),
    ]);
    let g = CallGraph::build(&parsed, |_| false);
    let caller = node(&g, "crates/alpha/src/a.rs", "caller");
    let target = node(&g, "crates/beta/src/lz.rs", "decode");
    assert_eq!(edges(&g, caller, "decode"), vec![target]);
}

#[test]
fn self_method_call_resolves_to_the_impl_type() {
    // `self.step()` inside `impl Widget` binds to `Widget::step`, not to
    // the other type's method of the same name.
    let src = "struct Widget;\n\
               impl Widget {\n\
               \tfn run(&self) { self.step(); }\n\
               \tfn step(&self) {}\n\
               }\n\
               struct Other;\n\
               impl Other {\n\
               \tfn step(&self) {}\n\
               }\n";
    let parsed = build(&[("crates/alpha/src/a.rs", src)]);
    let g = CallGraph::build(&parsed, |_| false);
    let run = node(&g, "crates/alpha/src/a.rs", "run");
    let e = edges(&g, run, "step");
    assert_eq!(e.len(), 1, "expected exactly one target: {e:?}");
    assert_eq!(g.nodes[e[0]].qualified.as_deref(), Some("Widget::step"));
}

#[test]
fn type_qualified_call_is_precise() {
    let parsed = build(&[
        ("crates/alpha/src/a.rs", "fn caller() { Widget::make(); }\n"),
        (
            "crates/beta/src/w.rs",
            "struct Widget;\nimpl Widget {\n\tfn make() {}\n}\n",
        ),
    ]);
    let g = CallGraph::build(&parsed, |_| false);
    let caller = node(&g, "crates/alpha/src/a.rs", "caller");
    let target = node(&g, "crates/beta/src/w.rs", "make");
    assert_eq!(edges(&g, caller, "make"), vec![target]);
}

#[test]
fn method_on_unknown_receiver_has_no_edge() {
    // `w.step()` could be any `step`: without a `self` receiver inside an
    // `impl` there is nothing to resolve it by.
    let parsed = build(&[
        (
            "crates/alpha/src/a.rs",
            "fn caller(w: Widget) { w.step(); }\n",
        ),
        (
            "crates/alpha/src/w.rs",
            "impl Widget {\n\tfn step(&self) {}\n}\n",
        ),
    ]);
    let g = CallGraph::build(&parsed, |_| false);
    let caller = node(&g, "crates/alpha/src/a.rs", "caller");
    assert_eq!(edges(&g, caller, "step"), Vec::<usize>::new());
}

#[test]
fn test_and_bench_files_never_join_the_graph() {
    let parsed = build(&[
        ("crates/alpha/src/a.rs", "fn real() {}\n"),
        ("crates/alpha/tests/t.rs", "fn fake() { real(); }\n"),
    ]);
    let g = CallGraph::build(&parsed, |p| p.contains("/tests/"));
    assert_eq!(g.nodes.len(), 1);
    assert_eq!(g.nodes[0].name, "real");
}
