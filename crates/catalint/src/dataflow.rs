//! Interprocedural fault-seam consultation summaries.
//!
//! The `seamcover` pass needs more than "who calls whom": it needs to know
//! which `InjectionPoint` variants a function consults, directly or
//! through its precise callees. [`Summaries::compute`] makes one pass over
//! the graph producing, per node, the set of variants consulted via
//! `fault(InjectionPoint::V)`, closed under precise call edges
//! (borrowcell-style fixpoint). Same philosophy as the rest of the
//! checker: no type-checking, deterministic results.

use std::collections::BTreeSet;

use crate::graph::{CallGraph, EdgeKind};
use crate::lexer::{Delim, Tok};

/// Interprocedural facts for the `seamcover` pass.
pub struct Summaries {
    /// Per-node `InjectionPoint` variants consulted directly in the body.
    pub direct_consults: Vec<BTreeSet<String>>,
    /// Per-node variants consulted directly *or* through precise call
    /// edges (transitive closure).
    pub consults: Vec<BTreeSet<String>>,
}

impl Summaries {
    /// Computes consult sets (with a fixpoint over precise edges) for one
    /// graph.
    pub fn compute(graph: &CallGraph<'_>) -> Summaries {
        let direct_consults: Vec<BTreeSet<String>> = graph
            .items
            .iter()
            .map(|f| consult_sites(&f.body).into_iter().map(|(v, _)| v).collect())
            .collect();

        // Close under precise call edges: if f precisely calls g and g
        // consults V, then f consults V. Same fixpoint shape as
        // borrowcell's reaches_borrow.
        let mut consults = direct_consults.clone();
        loop {
            let mut changed = false;
            for ix in 0..graph.nodes.len() {
                let mut add: Vec<String> = Vec::new();
                for site in &graph.calls[ix] {
                    for &(t, kind) in &site.targets {
                        if kind == EdgeKind::Precise && t != ix {
                            for v in &consults[t] {
                                if !consults[ix].contains(v) {
                                    add.push(v.clone());
                                }
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    changed = true;
                    for v in add {
                        consults[ix].insert(v);
                    }
                }
            }
            if !changed {
                break;
            }
        }

        Summaries {
            direct_consults,
            consults,
        }
    }
}

/// All `fault(InjectionPoint::V)` consultation sites in a token tree,
/// with the line of the `fault` identifier. The pattern is the one
/// `BootCtx::fault` callers use everywhere: the `fault` call's arguments
/// contain a literal `InjectionPoint::Variant` path.
pub fn consult_sites(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    walk_consults(toks, &mut out);
    out
}

fn walk_consults(toks: &[Tok], out: &mut Vec<(String, u32)>) {
    for i in 0..toks.len() {
        if let Tok::Ident(w, line) = &toks[i] {
            if w == "fault" {
                if let Some(Tok::Group(Delim::Paren, args, _)) = toks.get(i + 1) {
                    for j in 0..args.len() {
                        if args[j].ident() == Some("InjectionPoint")
                            && args.get(j + 1).is_some_and(|t| t.is_punct(':'))
                            && args.get(j + 2).is_some_and(|t| t.is_punct(':'))
                        {
                            if let Some(Tok::Ident(v, _)) = args.get(j + 3) {
                                out.push((v.clone(), *line));
                            }
                        }
                    }
                }
            }
        }
        if let Tok::Group(_, inner, _) = &toks[i] {
            walk_consults(inner, out);
        }
    }
}

/// Recursive "does this token (tree) contain the identifier `name`".
pub fn mentions(t: &Tok, name: &str) -> bool {
    match t {
        Tok::Ident(w, _) => w == name,
        Tok::Group(_, inner, _) => inner.iter().any(|t| mentions(t, name)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::segment::{segment, FnItem};

    fn parse_fn(src: &str) -> FnItem {
        segment(&lex(src)).fns.into_iter().next().unwrap()
    }

    #[test]
    fn consult_sites_find_variant_and_line() {
        let f = parse_fn(
            "fn boot(ctx: &mut BootCtx) -> Result<(), E> {\n    ctx.fault(InjectionPoint::ArenaMap)?;\n    Ok(())\n}",
        );
        assert_eq!(consult_sites(&f.body), vec![("ArenaMap".to_string(), 2)]);
    }
}
