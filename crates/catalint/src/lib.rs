//! catalint — the workspace invariant checker.
//!
//! The Catalyzer reproduction rests on properties that rustc cannot
//! enforce and that regress silently under ordinary refactoring:
//!
//! 1. **Determinism.** Every latency figure is simulated (`simtime`);
//!    one `Instant::now()` or ambient RNG makes runs non-reproducible.
//! 2. **Panic-free parsing.** Func-images and checkpoints are untrusted
//!    input to the restore path; parsers must return `ImageError`-style
//!    results, never panic — including through the helpers they call.
//! 3. **Hot-path copy discipline.** Overlay memory (paper §3.1) exists so
//!    Base-EPT pages are *shared*; an eager full-buffer copy anywhere
//!    reachable from a restore root quietly re-introduces the cost the
//!    design removes.
//! 4. **Borrow discipline.** A `RefCell` guard held across `?` (or a
//!    re-entrant `borrow_mut` through a call chain) turns an error return
//!    into a runtime borrow panic.
//!
//! Plus three conventions: metric/span name literals come from the
//! `simtime::names` registry (`namereg`), results never depend on
//! `HashMap`/`HashSet` iteration order (`hashorder`), and public library
//! functions return crate error types, not `Box<dyn Error>` (`hygiene`).
//!
//! Plus two dataflow-backed contracts (PR 6): every `InjectionPoint`
//! fault seam is consulted on the boot paths (`seamcover`), and span
//! guards and the name registry balance (`spanflow`).
//!
//! Plus the hermeticity certificate (PR 10): no nondeterminism source is
//! reachable from the sim roots outside the `[[clock_seam]]` registry
//! (`hermetic`), and the DES event protocol is conformant — handler
//! coverage, schedule discipline, a total tie-break (`eventproto`).
//!
//! What a type can forbid is not a pass: overflow-safe `SimNanos`
//! arithmetic and generation-checked arena access are enforced by the
//! compiler (`simtime::SimNanos` has no `+`/`-`/`*`;
//! `InstanceId::index()` is private), each pinned by a `compile_fail`
//! doctest on the type.
//!
//! The checker lexes the workspace (no rustc, no dependencies), segments
//! it into functions, builds an approximate call graph plus fault-seam
//! consultation summaries, and runs eleven passes; the interprocedural
//! ones (`panic`, `hotpath`, `borrowcell`, `seamcover`, `hermetic`) attach
//! the root → sink call chain to each finding. There is no debt file: the
//! workspace carries zero findings, and any finding fails the build
//! (`catalint.toml` holds only the `[[clock_seam]]` registry). Run it as
//! `cargo run -p catalint` (`--emit json` for machine-readable output,
//! `--explain <pass>` for rationale); it also runs inside the tier-1 test
//! suite.

pub mod baseline;
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

use baseline::parse_document;
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

/// Checker errors (I/O and `catalint.toml` syntax).
#[derive(Debug)]
pub enum CatalintError {
    /// Reading a file or directory failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// `catalint.toml` did not parse.
    Baseline(String),
}

impl fmt::Display for CatalintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalintError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            CatalintError::Baseline(msg) => write!(f, "catalint.toml: {msg}"),
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

/// Runs all eleven passes over the given files and returns findings
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
    passes::determinism(&parsed, cfg, &mut out);
    passes::panic_freedom(&parsed, cfg, &graph, &mut out);
    passes::hygiene(&parsed, cfg, &mut out);
    passes::hotpath(cfg, &graph, &mut out);
    passes::borrowcell(cfg, &graph, &mut out);
    passes::namereg(&parsed, cfg, &mut out);
    passes::hashorder(&parsed, cfg, &mut out);
    passes::seamcover(&parsed, cfg, &graph, &sums, &mut out);
    passes::spanflow(&parsed, cfg, &mut out);
    passes::hermetic(cfg, &graph, &mut out);
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

/// Collects and analyzes the workspace rooted at `root`. `catalint.toml`
/// is read *before* analysis: its `[[clock_seam]]` registry feeds the
/// `hermetic` pass's traversal boundary, so a seam declared there is
/// honoured in the same run that reads it.
pub fn check_workspace(root: &Path) -> Result<CheckOutcome, CatalintError> {
    let files = collect_workspace(root)?;
    let mut cfg = Config::workspace_default();
    let toml_path = root.join("catalint.toml");
    if toml_path.exists() {
        let text = fs::read_to_string(&toml_path).map_err(|err| CatalintError::Io {
            path: toml_path,
            err,
        })?;
        cfg.clock_seam
            .extend(parse_document(&text).map_err(CatalintError::Baseline)?);
    }
    Ok(CheckOutcome {
        violations: analyze(&files, &cfg),
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
/// `catalint.toml`, or failing that `Cargo.toml` plus a `crates/` dir).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("catalint.toml").is_file()
            || (dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir())
        {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}
