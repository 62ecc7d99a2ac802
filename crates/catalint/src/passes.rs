//! The eight invariant passes.
//!
//! Each pass is a pattern scan over token trees (see [`crate::lexer`]);
//! the interprocedural ones additionally consult the approximate call
//! graph (see [`crate::graph`]). None of them type-check, so a pass exists
//! only for an invariant that neither rustc nor a standard clippy lint can
//! express (DESIGN.md §12 lists which tool enforces what). They are tuned
//! so that false positives stay rare enough to fix on the spot — the
//! workspace carries zero findings and there is no debt file to park one
//! in — while regressions on the invariants the paper's numbers depend on
//! fail loudly:
//!
//! - **panic** — a parse-module function must not reach a panicking helper
//!   *outside* the hand-listed parse files: a func-image is untrusted input
//!   to the restore path. Findings carry the full call chain. (Panic
//!   sources spelled *inside* a parse module are clippy's: each module
//!   denies `unwrap_used`, `indexing_slicing`, `as_conversions`, … itself.)
//! - **hotpath** — functions graph-reachable from the restore roots must
//!   not eagerly copy full buffers; overlay memory exists precisely so
//!   that Base-EPT pages are shared, not copied. Findings carry their
//!   root→sink call chain.
//! - **borrowcell** — a `RefCell::borrow_mut()` guard held across `?` or
//!   across a call that can re-enter a cell is one refactor away from a
//!   runtime double-borrow panic.
//! - **namereg** — the `simtime::names` registry is closed in both
//!   directions: every metric/span name literal in library code comes from
//!   it, and every public entry in it is emitted somewhere, so emitters and
//!   bench validators cannot drift apart.
//! - **hashorder** — iterating a `HashMap`/`HashSet` leaks hash order into
//!   whatever consumes the loop; exported output must use ordered
//!   collections or sort first.
//! - **hygiene** — public library functions return crate error types, not
//!   `Box<dyn Error>`, so callers can match on failure modes.
//! - **seamcover** — every `InjectionPoint` variant must be consulted via
//!   `ctx.fault(...)` somewhere reachable from the engine boot roots, and
//!   every boot-path function performing a seam-class operation (per the
//!   seam registry in [`Config`]) must consult its point first (a def-use
//!   dataflow layer, [`crate::dataflow`], on top of the graph). A boot
//!   path that skips a seam silently deflates the availability numbers
//!   faultsim exists to produce.
//! - **eventproto** — DES event-protocol conformance: every `Event`
//!   variant parsed from the enum has a handler arm in each run loop,
//!   every scheduled variant lands in a non-empty arm, every variant is
//!   constructed somewhere (a schedule site or the queue's merge), and the
//!   `(time, class, key, subkey)` tie-break binds every payload field so
//!   insertion order can never leak into pop order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::dataflow::{self, Summaries};
use crate::graph::{CallGraph, EdgeKind};
use crate::lexer::{Delim, Tok};
use crate::segment::is_keyword;
use crate::{ParsedFile, Violation};

/// Pass name: no panicking helper reachable from an image-parsing module.
pub const PASS_PANIC: &str = "panic";
/// Pass name: no eager copies on the restore hot path.
pub const PASS_HOTPATH: &str = "hotpath";
/// Pass name: `RefCell` guard discipline.
pub const PASS_BORROWCELL: &str = "borrowcell";
/// Pass name: the `simtime::names` registry is closed in both directions.
pub const PASS_NAMEREG: &str = "namereg";
/// Pass name: no hash-order leaks into consumed iteration.
pub const PASS_HASHORDER: &str = "hashorder";
/// Pass name: public API error hygiene.
pub const PASS_HYGIENE: &str = "hygiene";
/// Pass name: fault-seam exhaustiveness (every `InjectionPoint` variant
/// consulted; every boot-path seam operation behind its consult).
pub const PASS_SEAMCOVER: &str = "seamcover";
/// Pass name: DES event-protocol conformance (handler coverage, schedule
/// discipline, total tie-break).
pub const PASS_EVENTPROTO: &str = "eventproto";

/// All pass names, in reporting order.
pub const ALL_PASSES: [&str; 8] = [
    PASS_PANIC,
    PASS_HOTPATH,
    PASS_BORROWCELL,
    PASS_NAMEREG,
    PASS_HASHORDER,
    PASS_HYGIENE,
    PASS_SEAMCOVER,
    PASS_EVENTPROTO,
];

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
/// chain is too indirect to act on and too fuzzy to trust.
const PANIC_CHAIN_DEPTH: usize = 5;

/// Flags parse-module functions whose precise call chains reach a
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
        // Depth-capped BFS over precise edges only: a fuzzy panic edge
        // would tie every parser to every `get` in the workspace.
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
                for &(t, kind) in &site.targets {
                    if kind != EdgeKind::Precise || seen[t] {
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
// hotpath
// ---------------------------------------------------------------------------

/// Flags eager full-buffer copies in functions graph-reachable from the
/// configured restore roots. Every finding carries its root→sink chain.
pub(crate) fn hotpath(cfg: &Config, graph: &CallGraph<'_>, out: &mut Vec<Violation>) {
    let mut roots: Vec<usize> = Vec::new();
    for name in &cfg.hot_roots {
        roots.extend(graph.by_name(name));
    }
    // Missing a copy on the restore path is worse than over-reporting, so
    // reachability follows fuzzy edges too; the stop list in graph.rs
    // already prunes the meaningless ones.
    let reach = graph.reach(&roots, |site, _| {
        !cfg.hot_stops.iter().any(|s| s == &site.bare)
    });
    for ix in 0..graph.nodes.len() {
        if !reach.seen[ix] {
            continue;
        }
        let chain = graph.chain(&reach, ix);
        let node = &graph.nodes[ix];
        let mut found = Vec::new();
        scan_copies(&graph.items[ix].body, &node.file, &node.name, &mut found);
        for mut v in found {
            v.chain.clone_from(&chain);
            out.push(v);
        }
    }
}

/// Receiver names treated as page/payload buffers for the `.clone()` check.
const BUFFER_RECEIVERS: [&str; 2] = ["data", "page_data"];

fn scan_copies(toks: &[Tok], file: &str, func: &str, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if let Tok::Ident(w, line) = &toks[i] {
            let method = i > 0 && toks[i - 1].is_punct('.') && next_is_paren(toks, i);
            let associated = i >= 2
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && next_is_paren(toks, i);
            match w.as_str() {
                "to_vec" | "to_owned" if method => push(
                    out,
                    PASS_HOTPATH,
                    file,
                    func,
                    *line,
                    format!("eager `{w}()` buffer copy on the restore path; slice/share instead"),
                ),
                "extend_from_slice" if method => push(
                    out,
                    PASS_HOTPATH,
                    file,
                    func,
                    *line,
                    "`extend_from_slice` bulk append on the restore path".to_string(),
                ),
                "copy_from_slice" if associated => push(
                    out,
                    PASS_HOTPATH,
                    file,
                    func,
                    *line,
                    "allocating `copy_from_slice` constructor on the restore path".to_string(),
                ),
                "clone"
                    if method
                        && i >= 2
                        && matches!(&toks[i - 2], Tok::Ident(r, _)
                            if BUFFER_RECEIVERS.contains(&r.as_str())) =>
                {
                    push(
                        out,
                        PASS_HOTPATH,
                        file,
                        func,
                        *line,
                        "clone of a page/payload buffer on the restore path".to_string(),
                    )
                }
                _ => {}
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            scan_copies(inner, file, func, out);
        }
    }
}

// ---------------------------------------------------------------------------
// borrowcell
// ---------------------------------------------------------------------------

/// Flags `RefCell` borrow guards held too long: across a `?` (early return
/// with the cell still locked) or across a call that can — via precise
/// edges — reach another `borrow_mut()` (a latent double-borrow panic).
pub(crate) fn borrowcell(_cfg: &Config, graph: &CallGraph<'_>, out: &mut Vec<Violation>) {
    // Which nodes can reach a `.borrow_mut()` through precise edges.
    let mut reaches_borrow: Vec<bool> = graph
        .items
        .iter()
        .map(|f| body_has_borrow_mut(&f.body))
        .collect();
    // Fixpoint propagation backwards over precise edges. The graph is
    // small; the loop terminates once no new node flips.
    loop {
        let mut changed = false;
        for ix in 0..graph.nodes.len() {
            if reaches_borrow[ix] {
                continue;
            }
            let hit = graph.calls[ix].iter().any(|site| {
                site.targets
                    .iter()
                    .any(|&(t, k)| k == EdgeKind::Precise && reaches_borrow[t])
            });
            if hit {
                reaches_borrow[ix] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for ix in 0..graph.nodes.len() {
        let node = &graph.nodes[ix];
        scan_borrow_scope(
            &graph.items[ix].body,
            ix,
            graph,
            &reaches_borrow,
            &node.file,
            &node.name,
            out,
        );
    }
}

fn body_has_borrow_mut(toks: &[Tok]) -> bool {
    for i in 0..toks.len() {
        if let Tok::Ident(w, _) = &toks[i] {
            if w == "borrow_mut" && i > 0 && toks[i - 1].is_punct('.') && next_is_paren(toks, i) {
                return true;
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            if body_has_borrow_mut(inner) {
                return true;
            }
        }
    }
    false
}

/// Scans one brace-scope's tokens; recurses into nested scopes.
#[allow(clippy::too_many_arguments)]
fn scan_borrow_scope(
    toks: &[Tok],
    node_ix: usize,
    graph: &CallGraph<'_>,
    reaches_borrow: &[bool],
    file: &str,
    func: &str,
    out: &mut Vec<Violation>,
) {
    let mut i = 0usize;
    while i < toks.len() {
        // Statement bounds at this level.
        let stmt_end = toks[i..]
            .iter()
            .position(|t| t.is_punct(';'))
            .map_or(toks.len(), |p| i + p);
        let stmt = &toks[i..stmt_end];

        if let Some((name, recv, line)) = named_guard(stmt) {
            // Guard lives until `drop(name)` at this level or scope end.
            let after = stmt_end.saturating_add(1).min(toks.len());
            let live_end = find_drop(&toks[after..], &name).map_or(toks.len(), |p| after + p);
            check_live_range(
                &toks[after..live_end],
                &recv,
                &format!("guard `{name}`"),
                line,
                node_ix,
                graph,
                reaches_borrow,
                file,
                func,
                out,
            );
        } else {
            // Temporary borrows: the guard lives to the statement's end.
            for (off, recv, line) in temp_borrows(stmt) {
                check_live_range(
                    &stmt[off..],
                    &recv,
                    "temporary guard",
                    line,
                    node_ix,
                    graph,
                    reaches_borrow,
                    file,
                    func,
                    out,
                );
            }
        }

        // Recurse into nested scopes inside this statement.
        for t in stmt {
            if let Tok::Group(_, inner, _) = t {
                scan_borrow_scope(inner, node_ix, graph, reaches_borrow, file, func, out);
            }
        }
        i = stmt_end.saturating_add(1);
    }
}

/// Matches exactly `let [mut] name = <recv-chain>.borrow_mut();` — the
/// binding *is* the guard. Returns (name, receiver text, line).
fn named_guard(stmt: &[Tok]) -> Option<(String, String, u32)> {
    let mut i = 0;
    if stmt.first()?.ident()? != "let" {
        return None;
    }
    i += 1;
    if stmt.get(i)?.ident() == Some("mut") {
        i += 1;
    }
    let name = stmt.get(i)?.ident()?.to_string();
    i += 1;
    if !stmt.get(i)?.is_punct('=') {
        return None;
    }
    i += 1;
    // Receiver chain: idents and dots up to `borrow_mut`.
    let recv_start = i;
    while let Some(t) = stmt.get(i) {
        match t {
            Tok::Ident(w, line) if w == "borrow_mut" => {
                // Must be `.borrow_mut()` and the final expression.
                let dotted = i > recv_start && stmt[i - 1].is_punct('.');
                let call = matches!(stmt.get(i + 1), Some(Tok::Group(Delim::Paren, _, _)));
                let last = i + 2 == stmt.len();
                if dotted && call && last {
                    let recv = render_chain(&stmt[recv_start..i - 1]);
                    return Some((name, recv, *line));
                }
                return None;
            }
            Tok::Ident(_, _) | Tok::Punct('.', _) => i += 1,
            _ => return None,
        }
    }
    None
}

/// Finds `drop ( name )` at this token level.
fn find_drop(toks: &[Tok], name: &str) -> Option<usize> {
    for i in 0..toks.len() {
        if toks[i].ident() == Some("drop") {
            if let Some(Tok::Group(Delim::Paren, inner, _)) = toks.get(i + 1) {
                if matches!(inner.as_slice(), [Tok::Ident(n, _)] if n == name) {
                    return Some(i);
                }
            }
        }
    }
    None
}

/// `.borrow_mut()` calls at this statement level that are *not* the final
/// expression of a `let` guard; returns (index after the call, receiver,
/// line) for each.
fn temp_borrows(stmt: &[Tok]) -> Vec<(usize, String, u32)> {
    let mut found = Vec::new();
    for i in 0..stmt.len() {
        if let Tok::Ident(w, line) = &stmt[i] {
            if w == "borrow_mut" && i > 0 && stmt[i - 1].is_punct('.') && next_is_paren(stmt, i) {
                let recv_start = chain_start(stmt, i - 1);
                let recv = render_chain(&stmt[recv_start..i - 1]);
                found.push((i + 2, recv, *line));
            }
        }
    }
    found
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

/// Scans a live range (recursively, nested groups included) for hazards
/// while a `borrow_mut` guard on `recv` is held.
#[allow(clippy::too_many_arguments)]
fn check_live_range(
    toks: &[Tok],
    recv: &str,
    guard_desc: &str,
    guard_line: u32,
    node_ix: usize,
    graph: &CallGraph<'_>,
    reaches_borrow: &[bool],
    file: &str,
    func: &str,
    out: &mut Vec<Violation>,
) {
    for i in 0..toks.len() {
        match &toks[i] {
            Tok::Punct('?', line) => {
                push(
                    out,
                    PASS_BORROWCELL,
                    file,
                    func,
                    *line,
                    format!(
                        "{guard_desc} from `{recv}.borrow_mut()` (line {guard_line}) held \
                         across `?`; end the borrow before propagating errors"
                    ),
                );
                // One finding per guard is enough.
                return;
            }
            Tok::Ident(w, line)
                if (w == "borrow" || w == "borrow_mut")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && next_is_paren(toks, i) =>
            {
                let rs = chain_start(toks, i - 1);
                if render_chain(&toks[rs..i - 1]) == recv {
                    push(
                        out,
                        PASS_BORROWCELL,
                        file,
                        func,
                        *line,
                        format!(
                            "`{recv}.{w}()` while {guard_desc} from `{recv}.borrow_mut()` \
                             (line {guard_line}) is live — guaranteed double-borrow panic"
                        ),
                    );
                    return;
                }
            }
            Tok::Ident(w, line) if !is_keyword(w) && next_is_paren(toks, i) => {
                // A call that can re-enter a RefCell. Only precise edges:
                // a fuzzy match would tie every method name to every cell.
                let reenters = graph.calls[node_ix].iter().any(|site| {
                    site.line == *line
                        && site.bare == *w
                        && site
                            .targets
                            .iter()
                            .any(|&(t, k)| k == EdgeKind::Precise && reaches_borrow[t])
                });
                if reenters {
                    push(
                        out,
                        PASS_BORROWCELL,
                        file,
                        func,
                        *line,
                        format!(
                            "call to `{w}` while {guard_desc} from `{recv}.borrow_mut()` \
                             (line {guard_line}) is live; `{w}` can reach another \
                             `borrow_mut()`"
                        ),
                    );
                    return;
                }
            }
            _ => {}
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            check_live_range(
                inner,
                recv,
                guard_desc,
                guard_line,
                node_ix,
                graph,
                reaches_borrow,
                file,
                func,
                out,
            );
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

// ---------------------------------------------------------------------------
// seamcover
// ---------------------------------------------------------------------------

/// Fault-seam exhaustiveness, in two directions.
///
/// (a) *Variant coverage*: the `InjectionPoint` enum is discovered by
/// parsing its declaration (so new variants are policed without touching
/// the checker), and every variant must be consulted via
/// `ctx.fault(InjectionPoint::V)` in some function reachable from the
/// boot roots.
///
/// (b) *Operation coverage*: a boot-reachable function whose signature
/// carries a `BootCtx` and which calls a seam-class operation (per the
/// seam registry) must consult that operation's point first — directly at
/// an earlier line, or through an earlier call whose precise callee's
/// summary consults it. Functions without a `BootCtx` in their signature
/// (guest-kernel internals doing on-demand work, cost estimators) are out
/// of scope: they *cannot* consult a seam and are reached behind one.
pub(crate) fn seamcover(
    parsed: &[ParsedFile],
    cfg: &Config,
    graph: &CallGraph<'_>,
    sums: &Summaries,
    out: &mut Vec<Violation>,
) {
    let mut variants: Vec<(String, String, u32)> = Vec::new();
    for pf in parsed.iter() {
        if cfg.is_non_library_path(&pf.path) {
            continue;
        }
        collect_injection_variants(&pf.items.loose, &pf.path, &mut variants);
    }

    let roots: Vec<usize> = cfg
        .seam_roots
        .iter()
        .flat_map(|n| graph.by_name(n))
        .collect();
    let reach = graph.reach(&roots, |site, _| {
        !cfg.hot_stops.iter().any(|s| s == &site.bare)
    });

    // (a) Every declared variant is consulted on some boot path.
    let mut consulted: BTreeSet<&str> = BTreeSet::new();
    for ix in 0..graph.nodes.len() {
        if reach.seen[ix] {
            for v in &sums.direct_consults[ix] {
                consulted.insert(v);
            }
        }
    }
    for (file, variant, line) in &variants {
        if !consulted.contains(variant.as_str()) {
            push(
                out,
                PASS_SEAMCOVER,
                file,
                MODULE_SCOPE,
                *line,
                format!(
                    "fault seam `InjectionPoint::{variant}` is never consulted: no function \
                     reachable from the boot roots calls `ctx.fault(InjectionPoint::{variant})`"
                ),
            );
        }
    }

    // (b) Every boot-path seam operation sits behind its consult.
    for ix in 0..graph.nodes.len() {
        if !reach.seen[ix] {
            continue;
        }
        let item = graph.items[ix];
        if !item.sig.iter().any(|t| dataflow::mentions(t, "BootCtx")) {
            continue;
        }
        let node = &graph.nodes[ix];
        let direct = dataflow::consult_sites(&item.body);
        for site in &graph.calls[ix] {
            let Some(point) = cfg.seam_point_for(&site.bare) else {
                continue;
            };
            // The operation's own (wrapper) definition is not a use site.
            if node.name == site.bare {
                continue;
            }
            let consulted_here = direct.iter().any(|(v, l)| v == point && *l <= site.line);
            let consulted_via_helper = graph.calls[ix].iter().any(|s| {
                s.line <= site.line
                    && s.targets.iter().any(|&(t, kind)| {
                        kind == EdgeKind::Precise && sums.consults[t].contains(point)
                    })
            });
            if !(consulted_here || consulted_via_helper) {
                out.push(Violation {
                    pass: PASS_SEAMCOVER,
                    file: node.file.clone(),
                    func: node.name.clone(),
                    line: site.line,
                    what: format!(
                        "seam operation `{}` runs without consulting \
                         `ctx.fault(InjectionPoint::{point})` first; every boot-path `{}` \
                         must sit behind its fault seam",
                        site.bare, site.bare
                    ),
                    chain: graph.chain(&reach, ix),
                });
            }
        }
    }
}

/// Parses `enum InjectionPoint { … }` declarations, collecting each
/// variant's name and line. Attributes and payload groups are skipped;
/// doc comments never produce tokens.
fn collect_injection_variants(toks: &[Tok], file: &str, out: &mut Vec<(String, String, u32)>) {
    for i in 0..toks.len() {
        if toks[i].ident() == Some("enum")
            && matches!(toks.get(i + 1), Some(Tok::Ident(w, _)) if w == "InjectionPoint")
        {
            if let Some(Tok::Group(Delim::Brace, inner, _)) = toks
                .iter()
                .skip(i + 2)
                .find(|t| matches!(t, Tok::Group(Delim::Brace, _, _)))
            {
                let mut expect = true;
                for t in inner {
                    match t {
                        Tok::Punct(',', _) => expect = true,
                        Tok::Punct('#', _) | Tok::Group(..) => {}
                        Tok::Ident(w, line) if expect => {
                            out.push((file.to_string(), w.clone(), *line));
                            expect = false;
                        }
                        _ => expect = false,
                    }
                }
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_injection_variants(inner, file, out);
        }
    }
}

// ---------------------------------------------------------------------------
// eventproto
// ---------------------------------------------------------------------------

/// One `Event` variant parsed from the enum declaration.
struct EventVariant {
    name: String,
    /// Declared payload field names (struct variants; tuple variants are
    /// not used by the engine and contribute no fields).
    fields: Vec<String>,
    line: u32,
}

/// DES event-protocol conformance, in three directions.
///
/// (a) *Tie-break totality*: the `Event` enum is parsed from the
/// configured events file, and every declared payload field must be bound
/// by at least one of the tie-break key functions (`class`/`key`/
/// `subkey`). A field hidden behind `..` in all of them means two
/// distinct events can compare equal at one instant — and then the
/// sequence number (insertion order) decides pop order, which is exactly
/// the leak the PR 7 queue design forbids.
///
/// (b) *Per-loop conformance*: each configured run-loop function must
/// match every variant (no `_` wildcard hiding future ones), and every
/// variant it schedules must land in a non-empty arm of its own match —
/// an event constructed and then dropped in an empty arm is dead state
/// transition the engine silently loses.
///
/// (c) *Ghost variants*: every declared variant must be constructed —
/// at some schedule site, or by the queue's own merge in the events file
/// (the trace is the arrival source: its arrivals are built in `pop`, never
/// scheduled) — and handled non-emptily in at least one loop; anything
/// else is protocol surface that exists only on paper.
pub(crate) fn eventproto(
    parsed: &[ParsedFile],
    cfg: &Config,
    graph: &CallGraph<'_>,
    out: &mut Vec<Violation>,
) {
    let Some(events) = parsed.iter().find(|p| p.path == cfg.events_file) else {
        return;
    };
    let mut variants: Vec<EventVariant> = Vec::new();
    collect_event_variants(&events.items.loose, &cfg.event_enum, &mut variants);
    if variants.is_empty() {
        return;
    }

    // (a) Tie-break field coverage, unioned across the key functions.
    let mut bound: BTreeMap<String, BTreeSet<String>> = variants
        .iter()
        .map(|v| (v.name.clone(), BTreeSet::new()))
        .collect();
    let mut saw_tiebreak = false;
    for f in &events.items.fns {
        if cfg.tiebreak_fns.iter().any(|n| n == &f.name) {
            saw_tiebreak = true;
            collect_bound_fields(&f.body, &cfg.event_enum, &mut bound);
        }
    }
    if saw_tiebreak {
        for v in &variants {
            let covered = &bound[&v.name];
            for field in &v.fields {
                if !covered.contains(field) {
                    push(
                        out,
                        PASS_EVENTPROTO,
                        &cfg.events_file,
                        MODULE_SCOPE,
                        v.line,
                        format!(
                            "tie-break blind spot: `{}::{}` field `{field}` is bound by none of \
                             the tie-break keys ({}); two events differing only in `{field}` \
                             compare equal and pop in insertion order",
                            cfg.event_enum,
                            v.name,
                            cfg.tiebreak_fns.join("/"),
                        ),
                    );
                }
            }
        }
    }

    // Construction sites (for the ghost check): schedule calls across all
    // library code, plus the merge functions of the events file itself.
    let mut constructed_anywhere: BTreeSet<String> = BTreeSet::new();
    for pf in parsed.iter() {
        if cfg.is_non_library_path(&pf.path) {
            continue;
        }
        for f in &pf.items.fns {
            collect_schedule_variants(&f.body, &cfg.event_enum, &mut |v, _| {
                constructed_anywhere.insert(v.to_string());
            });
        }
    }
    for f in &events.items.fns {
        if cfg.event_merge_fns.iter().any(|n| n == &f.name) {
            collect_variant_mentions(&f.body, &cfg.event_enum, &mut |v, _| {
                constructed_anywhere.insert(v.to_string());
            });
        }
    }

    // (b) Per-loop conformance.
    let mut handled_somewhere: BTreeSet<String> = BTreeSet::new();
    let mut saw_loop = false;
    for loop_name in &cfg.event_loops {
        for ix in graph.by_name(loop_name) {
            let item = graph.items[ix];
            let node = &graph.nodes[ix];
            let mut arms: BTreeMap<String, bool> = BTreeMap::new();
            let mut wildcard: Option<u32> = None;
            collect_event_arms(&item.body, &cfg.event_enum, &mut arms, &mut wildcard);
            if arms.is_empty() {
                // A function that merely shares the loop's name.
                continue;
            }
            saw_loop = true;
            if let Some(line) = wildcard {
                push(
                    out,
                    PASS_EVENTPROTO,
                    &node.file,
                    &node.name,
                    line,
                    format!(
                        "`_` wildcard arm in `{loop_name}`'s event match; every `{}` variant \
                         must be matched by name so new variants fail loudly here",
                        cfg.event_enum
                    ),
                );
            }
            let mut sched: BTreeMap<String, u32> = BTreeMap::new();
            collect_schedule_variants(&item.body, &cfg.event_enum, &mut |v, line| {
                sched.entry(v.to_string()).or_insert(line);
            });
            for (v, line) in &sched {
                match arms.get(v) {
                    Some(true) => {}
                    Some(false) => push(
                        out,
                        PASS_EVENTPROTO,
                        &node.file,
                        &node.name,
                        *line,
                        format!(
                            "`{loop_name}` schedules `{}::{v}` but its only handler arm is \
                             empty — the event is constructed, popped, and dropped",
                            cfg.event_enum
                        ),
                    ),
                    None if wildcard.is_none() => push(
                        out,
                        PASS_EVENTPROTO,
                        &node.file,
                        &node.name,
                        *line,
                        format!(
                            "`{loop_name}` schedules `{}::{v}` but has no handler arm for it",
                            cfg.event_enum
                        ),
                    ),
                    None => {}
                }
            }
            if wildcard.is_none() {
                for v in &variants {
                    if !arms.contains_key(&v.name) {
                        push(
                            out,
                            PASS_EVENTPROTO,
                            &node.file,
                            &node.name,
                            node.line,
                            format!(
                                "`{loop_name}`'s event match has no arm for `{}::{}`; every \
                                 variant must be handled (an explicit empty arm documents \
                                 a provably-inert class)",
                                cfg.event_enum, v.name
                            ),
                        );
                    }
                }
            }
            for (v, nonempty) in arms {
                if nonempty {
                    handled_somewhere.insert(v);
                }
            }
        }
    }

    // (c) Ghost variants — only meaningful once a real loop was seen.
    if saw_loop {
        for v in &variants {
            if !constructed_anywhere.contains(&v.name) {
                push(
                    out,
                    PASS_EVENTPROTO,
                    &cfg.events_file,
                    MODULE_SCOPE,
                    v.line,
                    format!(
                        "`{}::{}` is never constructed at any schedule site nor by the \
                         queue's merge ({}); dead protocol surface (delete it or wire it up)",
                        cfg.event_enum,
                        v.name,
                        cfg.event_merge_fns.join("/"),
                    ),
                );
            }
            if !handled_somewhere.contains(&v.name) {
                push(
                    out,
                    PASS_EVENTPROTO,
                    &cfg.events_file,
                    MODULE_SCOPE,
                    v.line,
                    format!(
                        "`{}::{}` has a handler arm in no run loop (or only empty ones \
                         everywhere); an event class nothing ever acts on",
                        cfg.event_enum, v.name
                    ),
                );
            }
        }
    }
}

/// Parses `enum <name> { … }`, collecting each variant's name, struct
/// payload field names, and line. Attributes are skipped; tuple payloads
/// contribute no named fields.
fn collect_event_variants(toks: &[Tok], enum_name: &str, out: &mut Vec<EventVariant>) {
    for i in 0..toks.len() {
        if toks[i].ident() == Some("enum")
            && matches!(toks.get(i + 1), Some(Tok::Ident(w, _)) if w == enum_name)
        {
            if let Some(Tok::Group(Delim::Brace, inner, _)) = toks
                .iter()
                .skip(i + 2)
                .find(|t| matches!(t, Tok::Group(Delim::Brace, _, _)))
            {
                let mut expect = true;
                let mut j = 0usize;
                while j < inner.len() {
                    match &inner[j] {
                        Tok::Punct(',', _) => expect = true,
                        Tok::Punct('#', _) => {
                            // Skip the attribute's bracket group.
                            if matches!(inner.get(j + 1), Some(Tok::Group(Delim::Bracket, _, _))) {
                                j += 1;
                            }
                        }
                        Tok::Ident(w, line) if expect => {
                            let mut fields = Vec::new();
                            if let Some(Tok::Group(Delim::Brace, body, _)) = inner.get(j + 1) {
                                collect_field_names(body, &mut fields);
                                j += 1;
                            } else if matches!(
                                inner.get(j + 1),
                                Some(Tok::Group(Delim::Paren, _, _))
                            ) {
                                j += 1;
                            }
                            out.push(EventVariant {
                                name: w.clone(),
                                fields,
                                line: *line,
                            });
                            expect = false;
                        }
                        _ => expect = false,
                    }
                    j += 1;
                }
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_event_variants(inner, enum_name, out);
        }
    }
}

/// Field names of a struct-variant body: `name: Type, …` (attributes and
/// the type tokens are skipped).
fn collect_field_names(toks: &[Tok], out: &mut Vec<String>) {
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct('#', _) => {
                if matches!(toks.get(i + 1), Some(Tok::Group(Delim::Bracket, _, _))) {
                    i += 1;
                }
            }
            Tok::Ident(name, _) if toks.get(i + 1).is_some_and(|t| t.is_punct(':')) => {
                out.push(name.clone());
                // Skip the type up to the next comma at this level.
                while i < toks.len() && !toks[i].is_punct(',') {
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Field names bound by `Event::V { … }` patterns, per variant. `..` and
/// wildcard sub-patterns bind nothing; `field: binding` binds `field`.
fn collect_bound_fields(
    toks: &[Tok],
    enum_name: &str,
    out: &mut BTreeMap<String, BTreeSet<String>>,
) {
    for i in 0..toks.len() {
        if let Some((variant, group)) = event_variant_at(toks, i, enum_name) {
            if let Some(set) = out.get_mut(variant) {
                if let Some(Tok::Group(Delim::Brace, body, _)) = group {
                    let mut names = Vec::new();
                    collect_pattern_fields(body, &mut names);
                    set.extend(names);
                }
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_bound_fields(inner, enum_name, out);
        }
    }
}

/// Field names a `{ … }` pattern body binds: shorthand `field`, renamed
/// `field: binding`, never `..`.
fn collect_pattern_fields(toks: &[Tok], out: &mut Vec<String>) {
    let mut i = 0usize;
    let mut at_field = true;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct(',', _) => at_field = true,
            Tok::Ident(name, _) if at_field && name != "ref" && name != "mut" => {
                out.push(name.clone());
                at_field = false;
                // Skip a renaming/sub-pattern up to the next comma.
                while i + 1 < toks.len() && !toks[i + 1].is_punct(',') {
                    i += 1;
                }
            }
            Tok::Punct('.', _) => at_field = false,
            _ => {}
        }
        i += 1;
    }
}

/// If `toks[i]` starts an `Enum :: Variant` path, returns the variant
/// ident and the payload group right after it (if any).
fn event_variant_at<'t>(
    toks: &'t [Tok],
    i: usize,
    enum_name: &str,
) -> Option<(&'t str, Option<&'t Tok>)> {
    if toks[i].ident() != Some(enum_name) {
        return None;
    }
    if !(toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':')))
    {
        return None;
    }
    let Some(Tok::Ident(variant, _)) = toks.get(i + 3) else {
        return None;
    };
    let group = toks
        .get(i + 4)
        .filter(|t| matches!(t, Tok::Group(Delim::Brace | Delim::Paren, _, _)));
    Some((variant.as_str(), group))
}

/// Match arms over `Enum::Variant` patterns at every nesting level:
/// `variant → the arm body is non-empty`, unioned across or-patterns and
/// repeated matches. `_ =>` at a level that also has variant arms is
/// reported via `wildcard`.
fn collect_event_arms(
    toks: &[Tok],
    enum_name: &str,
    out: &mut BTreeMap<String, bool>,
    wildcard: &mut Option<u32>,
) {
    let mut level_has_arms = false;
    let mut level_wildcard: Option<u32> = None;
    let mut i = 0usize;
    while i < toks.len() {
        if let Some((variant, group)) = event_variant_at(toks, i, enum_name) {
            // Walk the or-pattern chain: collect variants until `=>`.
            let mut chain: Vec<String> = vec![variant.to_string()];
            let mut j = i + if group.is_some() { 5 } else { 4 };
            while toks.get(j).is_some_and(|t| t.is_punct('|')) && j + 1 < toks.len() {
                if let Some((v, g)) = event_variant_at(toks, j + 1, enum_name) {
                    chain.push(v.to_string());
                    j += 1 + if g.is_some() { 5 } else { 4 };
                } else {
                    break;
                }
            }
            // An arm iff `=>` follows the (last) pattern.
            let is_arm = toks.get(j).is_some_and(|t| t.is_punct('='))
                && toks.get(j + 1).is_some_and(|t| t.is_punct('>'));
            if is_arm {
                level_has_arms = true;
                let nonempty = match toks.get(j + 2) {
                    Some(Tok::Group(Delim::Brace, body, _)) => !body.is_empty(),
                    Some(_) => true,
                    None => false,
                };
                for v in chain {
                    let e = out.entry(v).or_insert(false);
                    *e = *e || nonempty;
                }
                i = j + 2;
                continue;
            }
        }
        // `_ =>` at this level (judged at level end: it only counts as a
        // hole if variant arms share this match body — a `_` arm in some
        // unrelated match must not trip the pass).
        if level_wildcard.is_none()
            && toks[i].ident() == Some("_")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('>'))
        {
            level_wildcard = Some(toks[i].line());
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_event_arms(inner, enum_name, out, wildcard);
        }
        i += 1;
    }
    if level_has_arms && wildcard.is_none() {
        if let Some(line) = level_wildcard {
            *wildcard = Some(line);
        }
    }
}

/// Variants constructed inside `schedule(…)` / `push(…)`-style call
/// arguments: any `Enum::Variant` expression inside the argument list of
/// a call whose bare name is `schedule`.
fn collect_schedule_variants(toks: &[Tok], enum_name: &str, sink: &mut impl FnMut(&str, u32)) {
    for i in 0..toks.len() {
        if let Tok::Ident(w, _) = &toks[i] {
            if w == "schedule" {
                if let Some(Tok::Group(Delim::Paren, args, _)) = toks.get(i + 1) {
                    collect_variant_mentions(args, enum_name, sink);
                }
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_schedule_variants(inner, enum_name, sink);
        }
    }
}

fn collect_variant_mentions(toks: &[Tok], enum_name: &str, sink: &mut impl FnMut(&str, u32)) {
    for i in 0..toks.len() {
        if let Some((variant, _)) = event_variant_at(toks, i, enum_name) {
            sink(variant, toks[i].line());
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_variant_mentions(inner, enum_name, sink);
        }
    }
}
