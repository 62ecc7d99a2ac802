//! catalint — the workspace invariant checker.
//!
//! The Catalyzer reproduction rests on properties that regress silently
//! under ordinary refactoring. Each has exactly one enforcer (DESIGN.md
//! §12 has the table), and catalint is the enforcer only where neither the
//! compiler nor a standard clippy lint can be:
//!
//! 1. **Panic-free parsing, through helpers.** Func-images and checkpoints
//!    are untrusted input to the restore path. Each parse module denies
//!    clippy's panic-source lints for what it spells itself; the `panic`
//!    pass follows precise call edges out of those modules to a helper
//!    that can panic.
//! 2. **Hot-path copy discipline.** Overlay memory (paper §3.1) exists so
//!    Base-EPT pages are *shared*; an eager full-buffer copy anywhere
//!    reachable from a restore root quietly re-introduces the cost the
//!    design removes (`hotpath`).
//! 3. **Borrow discipline.** A `RefCell` guard held across `?` (or a
//!    re-entrant `borrow_mut` through a call chain) turns an error return
//!    into a runtime borrow panic (`borrowcell`).
//!
//! Plus three conventions: the `simtime::names` registry is closed in both
//! directions — every metric/span name literal comes from it and every
//! entry in it is emitted (`namereg`) — results never depend on
//! `HashMap`/`HashSet` iteration order (`hashorder`), and public library
//! functions return crate error types, not `Box<dyn Error>` (`hygiene`).
//!
//! Plus two protocol contracts: every `InjectionPoint` fault seam is
//! consulted on the boot paths (`seamcover`, dataflow-backed), and the DES
//! event protocol is conformant — handler coverage, schedule discipline, a
//! total tie-break (`eventproto`).
//!
//! What a type or a standard lint can forbid is not a pass. The compiler
//! enforces overflow-safe `SimNanos` arithmetic (no `+`/`-`/`*`),
//! generation-checked arena access (`InstanceId::index()` is private) and
//! closure-scoped spans (`sandbox::BootCtx` hands out no tracer), each
//! pinned by a `compile_fail` doctest on the type. clippy enforces the ban
//! on wall clocks, the environment, host threads and child processes
//! (`crates/clippy.toml`, type-resolved, every first-party target).
//!
//! The checker lexes the workspace (no rustc, no dependencies), segments
//! it into functions, builds an approximate call graph plus fault-seam
//! consultation summaries, and runs eight passes; the interprocedural
//! ones (`panic`, `hotpath`, `borrowcell`, `seamcover`) attach the
//! root → sink call chain to each finding. There is no debt file and no
//! config file: the workspace carries zero findings, and any finding fails
//! the build. Run it as `cargo run -p catalint` (`--explain <pass>` for
//! rationale); it also runs inside the tier-1 test suite.

pub mod config;
pub mod dataflow;
pub mod graph;
pub mod lexer;
pub mod passes;
pub mod segment;

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use config::Config;
use lexer::{lex, Allow};
use segment::{segment, FileItems};

/// One source file presented to the checker. Paths are workspace-relative
/// with `/` separators (`crates/imagefmt/src/flat.rs`).
#[derive(Debug, Clone)]
pub struct SrcFile {
    /// Workspace-relative path.
    pub path: String,
    /// Full file contents.
    pub content: String,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which pass produced it (see [`passes::ALL_PASSES`]).
    pub pass: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// Enclosing function, or `<module>`.
    pub func: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub what: String,
    /// Root→sink call chain for interprocedural findings (bare function
    /// names, the sink last). Empty for intra-function findings.
    pub chain: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.chain.len() > 1 {
            write!(
                f,
                "{}:{} [{}] {}: {}",
                self.file,
                self.line,
                self.pass,
                self.chain.join(" → "),
                self.what
            )
        } else {
            write!(
                f,
                "{}:{} [{}] fn {}: {}",
                self.file, self.line, self.pass, self.func, self.what
            )
        }
    }
}

/// Checker errors.
#[derive(Debug)]
pub enum CatalintError {
    /// Reading a file or directory failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
}

impl fmt::Display for CatalintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalintError::Io { path, err } => write!(f, "{}: {err}", path.display()),
        }
    }
}

impl std::error::Error for CatalintError {}

/// A lexed and segmented file, shared by all passes.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Function items and loose tokens.
    pub items: FileItems,
    /// Suppression directives found in comments.
    pub allows: Vec<Allow>,
}

/// Runs all eight passes over the given files and returns findings
/// sorted by `(file, line, pass)`, with `catalint: allow(...)`
/// suppressions already applied.
pub fn analyze(files: &[SrcFile], cfg: &Config) -> Vec<Violation> {
    let parsed: Vec<ParsedFile> = files
        .iter()
        .filter(|f| !cfg.is_scan_exempt(&f.path))
        .map(|f| {
            let lexed = lex(&f.content);
            ParsedFile {
                path: f.path.clone(),
                items: segment(&lexed.toks),
                allows: lexed.allows,
            }
        })
        .collect();

    // One call graph over library code, shared by the interprocedural
    // passes. Tests, benches, and binaries never join the graph.
    let graph = graph::CallGraph::build(&parsed, |p| cfg.is_non_library_path(p));
    // Fault-seam consultation summaries for seamcover.
    let sums = dataflow::Summaries::compute(&graph);

    let mut out = Vec::new();
    passes::panic_freedom(cfg, &graph, &mut out);
    passes::hygiene(&parsed, cfg, &mut out);
    passes::hotpath(cfg, &graph, &mut out);
    passes::borrowcell(cfg, &graph, &mut out);
    passes::namereg(&parsed, cfg, &mut out);
    passes::hashorder(&parsed, cfg, &mut out);
    passes::seamcover(&parsed, cfg, &graph, &sums, &mut out);
    passes::eventproto(&parsed, cfg, &graph, &mut out);

    let allows: HashMap<&str, &[Allow]> = parsed
        .iter()
        .map(|p| (p.path.as_str(), p.allows.as_slice()))
        .collect();
    out.retain(|v| !is_suppressed(v, &allows));
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.pass).cmp(&(b.file.as_str(), b.line, b.pass)));
    out
}

/// A finding is suppressed by `catalint: allow(<pass>)` (or `allow(all)`)
/// in a comment on the same line or the line above.
fn is_suppressed(v: &Violation, allows: &HashMap<&str, &[Allow]>) -> bool {
    allows.get(v.file.as_str()).is_some_and(|list| {
        list.iter().any(|a| {
            (a.pass == v.pass || a.pass == "all") && (a.line == v.line || a.line + 1 == v.line)
        })
    })
}

/// Full check result for a workspace on disk.
#[derive(Debug)]
pub struct CheckOutcome {
    /// All findings; the check is clean exactly when this is empty.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Collects and analyzes the workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> Result<CheckOutcome, CatalintError> {
    let files = collect_workspace(root)?;
    Ok(CheckOutcome {
        violations: analyze(&files, &Config::workspace_default()),
        files_scanned: files.len(),
    })
}

/// Reads every `.rs` file under the workspace's source directories, in a
/// stable order. `third_party/` and `target/` are never entered.
pub fn collect_workspace(root: &Path) -> Result<Vec<SrcFile>, CatalintError> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_dir(root, &dir, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<SrcFile>) -> Result<(), CatalintError> {
    let entries = fs::read_dir(dir).map_err(|err| CatalintError::Io {
        path: dir.to_path_buf(),
        err,
    })?;
    for entry in entries {
        let entry = entry.map_err(|err| CatalintError::Io {
            path: dir.to_path_buf(),
            err,
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "third_party" || name.starts_with('.') {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let content = fs::read_to_string(&path).map_err(|err| CatalintError::Io {
                path: path.clone(),
                err,
            })?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SrcFile { path: rel, content });
        }
    }
    Ok(())
}

/// Walks upward from `start` to the workspace root (the directory holding
/// `Cargo.toml` plus a `crates/` dir).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}
