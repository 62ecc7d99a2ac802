//! An approximate, workspace-wide call graph.
//!
//! Nodes are every function in library code; edges are call sites resolved
//! by name with the strongest qualifier available: a type or module
//! qualifier, a `self` method inside an `impl` block, or a bare name defined
//! in the same file or crate. The graph does not type-check — it trades
//! soundness for zero dependencies — so a call it cannot resolve that way
//! (a method on an unknown receiver, a bare call across crates) gets no
//! edge at all.
//!
//! Node order is deterministic: files arrive sorted by path (see
//! [`crate::collect_workspace`]) and functions are pushed in source order,
//! so node indices — and therefore finding order and call chains — are
//! stable across runs.

use std::collections::HashMap;

use crate::lexer::{Delim, Tok};
use crate::segment::{is_keyword, FnItem};
use crate::ParsedFile;

/// One function definition.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative file path.
    pub file: String,
    /// Crate name (`imagefmt` for `crates/imagefmt/src/lz.rs`).
    pub krate: String,
    /// Module name approximated by the file stem (`lz`).
    pub module: String,
    /// Bare function name.
    pub name: String,
    /// `Type::name` when defined in an `impl` block.
    pub qualified: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
}

/// One call site inside a function, with its resolved targets.
#[derive(Debug)]
pub struct CallSite {
    /// Bare callee name.
    pub bare: String,
    /// Source line of the callee identifier.
    pub line: u32,
    /// Resolved target nodes, in ascending node order.
    pub targets: Vec<usize>,
}

/// The call graph over one parsed workspace.
pub struct CallGraph<'a> {
    /// All nodes, in deterministic (file, source) order.
    pub nodes: Vec<FnNode>,
    /// The function item behind each node (for body scans).
    pub items: Vec<&'a FnItem>,
    /// Call sites per node, in source order.
    pub calls: Vec<Vec<CallSite>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph over library files (`skip` filters paths out —
    /// tests, benches, examples never join the graph). The graph borrows
    /// from the slice.
    pub fn build(parsed: &'a [ParsedFile], skip: impl Fn(&str) -> bool) -> CallGraph<'a> {
        let mut nodes: Vec<FnNode> = Vec::new();
        let mut items: Vec<&'a FnItem> = Vec::new();
        for pf in parsed {
            if skip(&pf.path) {
                continue;
            }
            let krate = crate_of(&pf.path);
            let module = module_of(&pf.path);
            for f in &pf.items.fns {
                nodes.push(FnNode {
                    file: pf.path.clone(),
                    krate: krate.clone(),
                    module: module.clone(),
                    name: f.name.clone(),
                    qualified: f.qualified.clone(),
                    line: f.line,
                });
                items.push(f);
            }
        }

        // Name indices. Values are node indices in ascending order because
        // nodes are pushed in deterministic order.
        let mut by_bare: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<&str, Vec<usize>> = HashMap::new();
        for (ix, n) in nodes.iter().enumerate() {
            by_bare.entry(n.name.as_str()).or_default().push(ix);
            if let Some(q) = &n.qualified {
                by_qual.entry(q.as_str()).or_default().push(ix);
            }
        }
        let ixes = Indexes {
            nodes: &nodes,
            by_bare: &by_bare,
            by_qual: &by_qual,
        };

        let mut calls: Vec<Vec<CallSite>> = Vec::with_capacity(nodes.len());
        for (ix, item) in items.iter().enumerate() {
            let mut sites = Vec::new();
            collect_calls(&item.body, ix, &ixes, &mut sites);
            calls.push(sites);
        }

        CallGraph {
            nodes,
            items,
            calls,
        }
    }
}

struct Indexes<'b> {
    nodes: &'b [FnNode],
    by_bare: &'b HashMap<&'b str, Vec<usize>>,
    by_qual: &'b HashMap<&'b str, Vec<usize>>,
}

/// `crates/<name>/…` → `<name>`; anything else → the first path segment.
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        (Some(first), _) => first.to_string(),
        (None, _) => String::new(),
    }
}

/// File stem: `crates/imagefmt/src/lz.rs` → `lz`; `…/src/lib.rs` → the
/// crate name, since `use imagefmt::f` refers to items in `lib.rs`.
fn module_of(path: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    if stem == "lib" || stem == "mod" {
        crate_of(path)
    } else {
        stem.to_string()
    }
}

/// Walks a body collecting resolved call sites.
fn collect_calls(toks: &[Tok], caller: usize, ixes: &Indexes<'_>, out: &mut Vec<CallSite>) {
    for i in 0..toks.len() {
        if let Tok::Ident(w, line) = &toks[i] {
            let is_def = i >= 1 && matches!(&toks[i - 1], Tok::Ident(k, _) if k == "fn");
            if !is_keyword(w)
                && !is_def
                && matches!(toks.get(i + 1), Some(Tok::Group(Delim::Paren, _, _)))
            {
                let targets = resolve(toks, i, w, caller, ixes);
                out.push(CallSite {
                    bare: w.clone(),
                    line: *line,
                    targets,
                });
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            collect_calls(inner, caller, ixes, out);
        }
    }
}

/// Resolves the call at `toks[i]` (an identifier followed by parens).
fn resolve(toks: &[Tok], i: usize, name: &str, caller: usize, ixes: &Indexes<'_>) -> Vec<usize> {
    let caller_node = &ixes.nodes[caller];

    // `Qual::name(…)` — a path call.
    let path_qualified = i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
    if path_qualified {
        if let Some(Tok::Ident(q, _)) = toks.get(i - 3) {
            let q = if q == "Self" {
                match &caller_node.qualified {
                    Some(qual) => qual.split("::").next().unwrap_or(q).to_string(),
                    None => q.clone(),
                }
            } else {
                q.clone()
            };
            if q.chars().next().is_some_and(char::is_uppercase) {
                // `Type::name` — exact impl-block match anywhere.
                let key = format!("{q}::{name}");
                return qualified(ixes.by_qual.get(key.as_str()));
            }
            // `module::name` — functions with that bare name in files whose
            // stem is the module. Same-crate definitions win.
            let cands: Vec<usize> = ixes
                .by_bare
                .get(name)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&t| ixes.nodes[t].module == q)
                .collect();
            let same_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&t| ixes.nodes[t].krate == caller_node.krate)
                .collect();
            // An unknown path (`std::mem::take`) leaves both empty: no edge.
            return if same_crate.is_empty() {
                cands
            } else {
                same_crate
            };
        }
        return Vec::new();
    }

    // `recv.name(…)` — a method call. Only `self.name(…)` inside `impl
    // Type` resolves (to `Type::name`); an unknown receiver has no edge.
    if i >= 1 && toks[i - 1].is_punct('.') {
        if matches!(toks.get(i.wrapping_sub(2)), Some(Tok::Ident(r, _)) if r == "self") {
            if let Some(qual) = &caller_node.qualified {
                let ty = qual.split("::").next().unwrap_or("");
                let key = format!("{ty}::{name}");
                return qualified(ixes.by_qual.get(key.as_str()));
            }
        }
        return Vec::new();
    }

    // Bare `name(…)`: same file, then same crate; across crates, no edge.
    let cands = ixes.by_bare.get(name).map_or(&[][..], Vec::as_slice);
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&t| ixes.nodes[t].file == caller_node.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    cands
        .iter()
        .copied()
        .filter(|&t| ixes.nodes[t].krate == caller_node.krate)
        .collect()
}

fn qualified(hit: Option<&Vec<usize>>) -> Vec<usize> {
    hit.cloned().unwrap_or_default()
}
