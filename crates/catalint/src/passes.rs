//! The four invariant passes.
//!
//! Each pass is a pattern scan over token trees (see [`crate::lexer`]);
//! `panic` additionally consults the approximate call graph (see
//! [`crate::graph`]). None of them type-check, so a pass exists only for an
//! invariant that neither rustc, a standard clippy lint nor a counted or
//! observed test can express (DESIGN.md §12 lists which tool enforces
//! what). They are tuned so that false positives stay rare enough to fix on
//! the spot — the workspace carries zero findings and there is no way to
//! park one — while regressions on the invariants the paper's numbers
//! depend on fail loudly:
//!
//! - **panic** — a parse-module function must not reach a panicking helper
//!   *outside* the hand-listed parse files: a func-image is untrusted input
//!   to the restore path. Findings carry the full call chain. (Panic
//!   sources spelled *inside* a parse module are clippy's: each module
//!   denies `unwrap_used`, `indexing_slicing`, `as_conversions`, … itself.)
//! - **namereg** — the `simtime::names` registry is closed in both
//!   directions: every metric/span name literal in library code comes from
//!   it, and every public entry in it is emitted somewhere, so emitters and
//!   bench validators cannot drift apart.
//! - **hashorder** — iterating a `HashMap`/`HashSet` leaks hash order into
//!   whatever consumes the loop; exported output must use ordered
//!   collections or sort first.
//! - **hygiene** — public library functions return crate error types, not
//!   `Box<dyn Error>`, so callers can match on failure modes.

use std::collections::{BTreeSet, VecDeque};

use crate::config::Config;
use crate::graph::CallGraph;
use crate::lexer::{Delim, Tok};
use crate::segment::is_keyword;
use crate::{ParsedFile, Violation};

/// Pass name: no panicking helper reachable from an image-parsing module.
pub const PASS_PANIC: &str = "panic";
/// Pass name: the `simtime::names` registry is closed in both directions.
pub const PASS_NAMEREG: &str = "namereg";
/// Pass name: no hash-order leaks into consumed iteration.
pub const PASS_HASHORDER: &str = "hashorder";
/// Pass name: public API error hygiene.
pub const PASS_HYGIENE: &str = "hygiene";

/// All pass names, in reporting order.
pub const ALL_PASSES: [&str; 4] = [PASS_PANIC, PASS_NAMEREG, PASS_HASHORDER, PASS_HYGIENE];

/// Function name used for findings in top-level (non-fn) tokens.
pub const MODULE_SCOPE: &str = "<module>";

fn push(
    out: &mut Vec<Violation>,
    pass: &'static str,
    file: &str,
    func: &str,
    line: u32,
    what: String,
) {
    out.push(Violation {
        pass,
        file: file.to_string(),
        func: func.to_string(),
        line,
        what,
        chain: Vec::new(),
    });
}

fn next_is_paren(toks: &[Tok], i: usize) -> bool {
    matches!(toks.get(i + 1), Some(Tok::Group(Delim::Paren, _, _)))
}

// ---------------------------------------------------------------------------
// panic
// ---------------------------------------------------------------------------

/// Maximum chain length followed from a parse function. Beyond this the
/// chain is too indirect to act on.
const PANIC_CHAIN_DEPTH: usize = 5;

/// Flags parse-module functions whose call chains reach a
/// hard-panicking helper outside the parse set. What a parse module spells
/// itself (`unwrap`, indexing, `as`) is denied by clippy in that module.
pub(crate) fn panic_freedom(cfg: &Config, graph: &CallGraph<'_>, out: &mut Vec<Violation>) {
    // Hard-panic sites (unwrap/expect/panic!/…) per node. Lossy casts and
    // indexing are *not* propagated interprocedurally: they are style
    // requirements for parse modules themselves, and following them across
    // the workspace would flag nearly every helper.
    let hard: Vec<Vec<(u32, String)>> = graph
        .items
        .iter()
        .map(|f| {
            let mut sites = Vec::new();
            scan_hard_panics(&f.body, &mut sites);
            sites
        })
        .collect();

    for root in 0..graph.nodes.len() {
        if !cfg.is_parse_file(&graph.nodes[root].file) {
            continue;
        }
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; graph.nodes.len()];
        let mut depth = vec![0usize; graph.nodes.len()];
        let mut seen = vec![false; graph.nodes.len()];
        seen[root] = true;
        let mut queue: VecDeque<usize> = VecDeque::new();
        queue.push_back(root);
        while let Some(ix) = queue.pop_front() {
            if depth[ix] >= PANIC_CHAIN_DEPTH {
                continue;
            }
            for site in &graph.calls[ix] {
                for &t in &site.targets {
                    if seen[t] {
                        continue;
                    }
                    seen[t] = true;
                    parent[t] = Some((ix, site.line));
                    depth[t] = depth[ix] + 1;
                    queue.push_back(t);
                }
            }
        }
        for ix in 0..graph.nodes.len() {
            if !seen[ix] || ix == root || cfg.is_parse_file(&graph.nodes[ix].file) {
                continue;
            }
            let Some((_, first_panic)) = hard[ix].first().map(|(l, w)| (l, w.clone())) else {
                continue;
            };
            // Reconstruct root→sink chain and the call-site line in `root`.
            let mut rev = vec![graph.nodes[ix].name.clone()];
            let mut cur = ix;
            let mut call_line = graph.nodes[root].line;
            while let Some((p, line)) = parent[cur] {
                if p == root {
                    call_line = line;
                }
                rev.push(graph.nodes[p].name.clone());
                cur = p;
            }
            rev.reverse();
            out.push(Violation {
                pass: PASS_PANIC,
                file: graph.nodes[root].file.clone(),
                func: graph.nodes[root].name.clone(),
                line: call_line,
                what: format!(
                    "calls `{}` ({}) which can panic: {first_panic}",
                    graph.nodes[ix].name, graph.nodes[ix].file,
                ),
                chain: rev,
            });
        }
    }
}

/// Collects genuine panic constructs (not casts or indexing).
fn scan_hard_panics(toks: &[Tok], out: &mut Vec<(u32, String)>) {
    for i in 0..toks.len() {
        match &toks[i] {
            Tok::Ident(w, line)
                if (w == "unwrap" || w == "expect")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && next_is_paren(toks, i) =>
            {
                out.push((*line, format!(".{w}()")));
            }
            Tok::Ident(w, line)
                if matches!(
                    w.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                out.push((*line, format!("{w}!")));
            }
            _ => {}
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            scan_hard_panics(inner, out);
        }
    }
}

// ---------------------------------------------------------------------------
// hygiene
// ---------------------------------------------------------------------------

/// Flags public library functions returning `Box<dyn …Error…>`.
pub(crate) fn hygiene(parsed: &[ParsedFile], cfg: &Config, out: &mut Vec<Violation>) {
    for pf in parsed {
        if cfg.is_non_library_path(&pf.path) {
            continue;
        }
        for f in &pf.items.fns {
            if f.is_pub && ret_has_boxed_dyn_error(&f.sig) {
                push(
                    out,
                    PASS_HYGIENE,
                    &pf.path,
                    &f.name,
                    f.line,
                    "public fn returns `Box<dyn Error>`; return the crate error type".to_string(),
                );
            }
        }
    }
}

fn ret_has_boxed_dyn_error(sig: &[Tok]) -> bool {
    for i in 0..sig.len().saturating_sub(1) {
        if sig[i].is_punct('-') && sig[i + 1].is_punct('>') {
            let mut has_dyn = false;
            let mut has_error = false;
            dyn_error_scan(&sig[i + 2..], &mut has_dyn, &mut has_error);
            return has_dyn && has_error;
        }
    }
    false
}

fn dyn_error_scan(toks: &[Tok], has_dyn: &mut bool, has_error: &mut bool) {
    for t in toks {
        match t {
            Tok::Ident(w, _) if w == "dyn" => *has_dyn = true,
            Tok::Ident(w, _) if w.contains("Error") => *has_error = true,
            Tok::Group(_, inner, _) => dyn_error_scan(inner, has_dyn, has_error),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// namereg
// ---------------------------------------------------------------------------

/// Metric/span name prefixes owned by the `simtime::names` registry. A
/// string literal starting with one of these, anywhere in library code
/// outside the registry itself, must be replaced by the registry constant
/// (or helper) so emitters and bench validators cannot drift.
pub const NAME_PREFIXES: [&str; 25] = [
    "boot.",
    "chaos.",
    "cluster.",
    "hedge:",
    "exec.",
    "invoke.",
    "invoke:",
    "fault.",
    "fault:",
    "pool.",
    "breaker.",
    "admit.",
    "shed.",
    "fallback.",
    "quarantine.",
    "scaling.",
    "warm.",
    "sandbox:",
    "sfork:",
    "app:",
    "restore:",
    "map-file:",
    "mem:",
    "io:",
    "transfer:",
];

/// Keeps the name registry closed in both directions: flags
/// registry-grammar string literals outside `simtime::names`, and registry
/// entries nothing outside it references.
pub(crate) fn namereg(parsed: &[ParsedFile], cfg: &Config, out: &mut Vec<Violation>) {
    for pf in parsed {
        if cfg.is_non_library_path(&pf.path) || cfg.is_namereg_exempt(&pf.path) {
            continue;
        }
        for f in &pf.items.fns {
            scan_names(&f.body, &pf.path, &f.name, out);
        }
        scan_names(&pf.items.loose, &pf.path, MODULE_SCOPE, out);
    }
    registry_balance(parsed, cfg, out);
}

fn scan_names(toks: &[Tok], file: &str, func: &str, out: &mut Vec<Violation>) {
    for t in toks {
        match t {
            Tok::Str(s, line) => {
                // Metric/span names never contain spaces; a literal with one
                // is prose (an error message) that merely shares a prefix.
                if s.contains(' ') {
                    continue;
                }
                if let Some(prefix) = NAME_PREFIXES.iter().find(|p| s.starts_with(*p)) {
                    push(
                        out,
                        PASS_NAMEREG,
                        file,
                        func,
                        *line,
                        format!(
                            "metric/span name literal \"{s}\" (registry prefix `{prefix}`); \
                             use the simtime::names constant or helper"
                        ),
                    );
                }
            }
            Tok::Group(_, inner, _) => scan_names(inner, file, func, out),
            _ => {}
        }
    }
}

/// Every public const and fn in the registry file must be referenced
/// somewhere outside it. `use` re-exports are dropped during
/// segmentation, so a re-export alone does not count as an emission.
fn registry_balance(parsed: &[ParsedFile], cfg: &Config, out: &mut Vec<Violation>) {
    let Some(reg) = parsed.iter().find(|p| p.path == cfg.registry_file) else {
        return;
    };
    let mut declared: Vec<(String, u32)> = Vec::new();
    collect_pub_consts(&reg.items.loose, &mut declared);
    for f in &reg.items.fns {
        if f.is_pub {
            declared.push((f.name.clone(), f.line));
        }
    }

    let mut used: BTreeSet<&str> = BTreeSet::new();
    for pf in parsed.iter() {
        if pf.path == cfg.registry_file {
            continue;
        }
        collect_used_idents(&pf.items.loose, &mut used);
        for f in &pf.items.fns {
            collect_used_idents(&f.sig, &mut used);
            collect_used_idents(&f.body, &mut used);
        }
    }

    for (name, line) in &declared {
        if !used.contains(name.as_str()) {
            push(
                out,
                PASS_NAMEREG,
                &cfg.registry_file,
                MODULE_SCOPE,
                *line,
                format!(
                    "registry entry `{name}` has no emission site outside the registry; every \
                     `simtime::names` entry must be emitted somewhere (or retired)"
                ),
            );
        }
    }
}

/// `pub const NAME` / `pub(crate) const NAME` declarations.
fn collect_pub_consts(toks: &[Tok], out: &mut Vec<(String, u32)>) {
    for i in 0..toks.len() {
        if toks[i].ident() == Some("const") {
            let vis = i >= 1 && toks[i - 1].ident() == Some("pub")
                || i >= 2
                    && matches!(toks.get(i - 1), Some(Tok::Group(Delim::Paren, _, _)))
                    && toks[i - 2].ident() == Some("pub");
            if vis {
                if let Some(Tok::Ident(name, line)) = toks.get(i + 1) {
                    out.push((name.clone(), *line));
                }
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_pub_consts(inner, out);
        }
    }
}

fn collect_used_idents<'a>(toks: &'a [Tok], out: &mut BTreeSet<&'a str>) {
    for t in toks {
        match t {
            Tok::Ident(w, _) => {
                out.insert(w.as_str());
            }
            Tok::Group(_, inner, _) => collect_used_idents(inner, out),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// hashorder
// ---------------------------------------------------------------------------

/// Names of order-insensitive reductions: iterating a hash collection into
/// one of these cannot leak hash order into output.
const ORDER_FREE: [&str; 8] = [
    "sum", "count", "any", "all", "max", "min", "contains", "fold",
];

/// Names that impose an order before the iteration escapes.
const ORDERERS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "BTreeMap",
    "BTreeSet",
];

/// Flags iteration over `HashMap`/`HashSet` locals, params, and same-file
/// struct fields, unless the statement reduces order-insensitively or
/// re-orders (sort / BTree collect).
pub(crate) fn hashorder(parsed: &[ParsedFile], cfg: &Config, out: &mut Vec<Violation>) {
    for pf in parsed {
        if cfg.is_non_library_path(&pf.path) {
            continue;
        }
        // Struct fields of hash-collection type anywhere in this file.
        let mut fields: Vec<String> = Vec::new();
        collect_hash_fields(&pf.items.loose, &mut fields);
        for f in &pf.items.fns {
            let mut tracked = fields.clone();
            collect_hash_params(&f.sig, &mut tracked);
            scan_hash_iter(&f.body, &mut tracked, &pf.path, &f.name, out);
        }
    }
}

/// Field declarations `name: …HashMap…,` inside struct brace groups.
fn collect_hash_fields(toks: &[Tok], out: &mut Vec<String>) {
    for i in 0..toks.len() {
        if toks[i].ident() == Some("struct") {
            if let Some(Tok::Group(Delim::Brace, inner, _)) = toks
                .iter()
                .skip(i + 1)
                .find(|t| matches!(t, Tok::Group(Delim::Brace, _, _) | Tok::Punct(';', _)))
            {
                collect_typed_names(inner, out);
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_hash_fields(inner, out);
        }
    }
}

/// `name: …Hash{Map,Set}…` declarations up to the next `,` at this level.
fn collect_typed_names(toks: &[Tok], out: &mut Vec<String>) {
    let mut i = 0usize;
    while i < toks.len() {
        if let (Some(Tok::Ident(name, _)), Some(t)) = (toks.get(i), toks.get(i + 1)) {
            if t.is_punct(':') && !is_keyword(name) {
                let end = toks[i + 2..]
                    .iter()
                    .position(|t| t.is_punct(','))
                    .map_or(toks.len(), |p| i + 2 + p);
                let is_hash = toks[i + 2..end]
                    .iter()
                    .any(|t| matches!(t.ident(), Some("HashMap" | "HashSet")));
                if is_hash {
                    out.push(name.clone());
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
}

fn collect_hash_params(sig: &[Tok], out: &mut Vec<String>) {
    if let Some(Tok::Group(Delim::Paren, inner, _)) = sig.first() {
        collect_typed_names(inner, out);
    }
}

fn scan_hash_iter(
    toks: &[Tok],
    tracked: &mut Vec<String>,
    file: &str,
    func: &str,
    out: &mut Vec<Violation>,
) {
    let mut i = 0usize;
    while i < toks.len() {
        let stmt_end = toks[i..]
            .iter()
            .position(|t| t.is_punct(';'))
            .map_or(toks.len(), |p| i + p);
        let stmt = &toks[i..stmt_end];

        // `let [mut] name` whose statement mentions HashMap/HashSet.
        if stmt.first().and_then(Tok::ident) == Some("let") {
            let mut j = 1;
            if stmt.get(j).and_then(Tok::ident) == Some("mut") {
                j += 1;
            }
            if let Some(Tok::Ident(name, _)) = stmt.get(j) {
                let mentions_hash = stmt
                    .iter()
                    .any(|t| flat_has(t, &["HashMap", "HashSet"][..]));
                if mentions_hash {
                    tracked.push(name.clone());
                }
            }
        }

        check_hash_stmt(stmt, tracked, file, func, out);

        for t in stmt {
            if let Tok::Group(_, inner, _) = t {
                scan_hash_iter(inner, tracked, file, func, out);
            }
        }
        i = stmt_end.saturating_add(1);
    }
}

fn flat_has(t: &Tok, names: &[&str]) -> bool {
    match t {
        Tok::Ident(w, _) => names.contains(&w.as_str()),
        Tok::Group(_, inner, _) => inner.iter().any(|t| flat_has(t, names)),
        _ => false,
    }
}

/// Iteration methods whose results carry hash order.
const ITER_METHODS: [&str; 5] = ["iter", "keys", "values", "drain", "into_iter"];

fn check_hash_stmt(
    stmt: &[Tok],
    tracked: &[String],
    file: &str,
    func: &str,
    out: &mut Vec<Violation>,
) {
    for i in 0..stmt.len() {
        let Tok::Ident(w, line) = &stmt[i] else {
            continue;
        };
        // `name.iter()` / `self.field.keys()` / …
        let method_on_tracked = ITER_METHODS.contains(&w.as_str())
            && i > 0
            && stmt[i - 1].is_punct('.')
            && next_is_paren(stmt, i)
            && receiver_is_tracked(stmt, i - 1, tracked);
        // `for x in name` / `for x in &name`.
        let for_over_tracked = w == "in"
            && stmt.iter().take(i).any(|t| t.ident() == Some("for"))
            && matches!(
                next_non_amp(stmt, i + 1),
                Some(Tok::Ident(n, _)) if tracked.contains(n)
                    || (n == "self" && self_field_tracked(stmt, i + 1, tracked))
            );
        if !(method_on_tracked || for_over_tracked) {
            continue;
        }
        // Order-insensitive or re-ordered in the same statement?
        let rest = &stmt[i..];
        let excused = rest.iter().any(|t| flat_has(t, &ORDER_FREE[..]))
            || stmt.iter().any(|t| flat_has(t, &ORDERERS[..]));
        if excused {
            continue;
        }
        push(
            out,
            PASS_HASHORDER,
            file,
            func,
            *line,
            "HashMap/HashSet iteration leaks hash order; use BTreeMap/BTreeSet, \
             sort first, or reduce order-insensitively"
                .to_string(),
        );
    }
}

/// The receiver chain before `dot` ends in a tracked name (`counts` or
/// `self.counts`).
fn receiver_is_tracked(stmt: &[Tok], dot: usize, tracked: &[String]) -> bool {
    let start = chain_start(stmt, dot);
    let chain = render_chain(&stmt[start..dot]);
    let last = chain.rsplit('.').next().unwrap_or(&chain);
    tracked.iter().any(|t| t == last)
}

/// Walks backwards over `ident . ident . …` to the start of the receiver.
fn chain_start(toks: &[Tok], dot: usize) -> usize {
    let mut i = dot;
    while i > 0 {
        match &toks[i - 1] {
            Tok::Ident(_, _) | Tok::Punct('.', _) => i -= 1,
            _ => break,
        }
    }
    i
}

fn render_chain(toks: &[Tok]) -> String {
    let mut s = String::new();
    for t in toks {
        match t {
            Tok::Ident(w, _) => s.push_str(w),
            Tok::Punct('.', _) => s.push('.'),
            _ => {}
        }
    }
    s
}

fn next_non_amp(stmt: &[Tok], mut i: usize) -> Option<&Tok> {
    while stmt
        .get(i)
        .is_some_and(|t| t.is_punct('&') || matches!(t.ident(), Some("mut")))
    {
        i += 1;
    }
    stmt.get(i)
}

/// `for x in self.field` / `for x in &self.field` with `field` tracked.
fn self_field_tracked(stmt: &[Tok], from: usize, tracked: &[String]) -> bool {
    // Find `self` then `. field`.
    let mut i = from;
    while stmt
        .get(i)
        .is_some_and(|t| t.is_punct('&') || matches!(t.ident(), Some("mut")))
    {
        i += 1;
    }
    if stmt.get(i).and_then(Tok::ident) != Some("self") {
        return false;
    }
    if !stmt.get(i + 1).is_some_and(|t| t.is_punct('.')) {
        return false;
    }
    matches!(stmt.get(i + 2), Some(Tok::Ident(f, _)) if tracked.iter().any(|t| t == f))
}
