//! Item segmentation over token trees.
//!
//! Splits a lexed file into function items (name, visibility, signature,
//! body) plus the "loose" top-level tokens that belong to no function
//! (consts, statics, type definitions). Passes run per-function so that
//! findings carry a stable function name — the baseline is keyed on
//! `(pass, file, function)`, which survives line-number churn.
//!
//! Three kinds of tokens are dropped here, on purpose:
//!
//! - `#[cfg(test)]` items (the module-level test blocks): the invariants
//!   guard production code; tests are free to `unwrap()` and index.
//! - `use` items: `use std::time::Instant as _;` must not count as a use
//!   site, and `use x as y` must not look like a lossy cast.
//! - `macro_rules!` definitions: macro bodies are token soup (`$x:expr`)
//!   that would only produce noise.

use crate::lexer::{Delim, Tok};

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `Type::name` when the fn sits in an `impl Type` (or `impl Trait for Type`) block.
    pub qualified: Option<String>,
    /// True only for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Tokens between the function name and the body (params, return type, where clause).
    pub sig: Vec<Tok>,
    /// Body tokens (empty for trait method declarations).
    pub body: Vec<Tok>,
}

/// Segmentation result for one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// All functions, including those nested in `impl`/`trait`/`mod` blocks.
    pub fns: Vec<FnItem>,
    /// Top-level tokens outside any function (const/static initialisers etc.).
    pub loose: Vec<Tok>,
}

/// Segments a file's top-level tokens into items.
pub fn segment(toks: &[Tok]) -> FileItems {
    let mut out = FileItems::default();
    walk(toks, None, &mut out);
    out
}

/// Rust keywords; idents in this set never count as expression identifiers.
pub fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "as" | "async"
            | "await"
            | "box"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "Self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "union"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

fn walk(toks: &[Tok], impl_ty: Option<&str>, out: &mut FileItems) {
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            i += 2;
            // Any further attributes on the same item.
            while toks.get(i).is_some_and(|t| t.is_punct('#'))
                && matches!(toks.get(i + 1), Some(Tok::Group(Delim::Bracket, _, _)))
            {
                i += 2;
            }
            // The item itself: everything up to and including its brace body
            // or terminating semicolon.
            while i < toks.len() {
                match &toks[i] {
                    Tok::Group(Delim::Brace, _, _) | Tok::Punct(';', _) => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            continue;
        }
        match &toks[i] {
            Tok::Ident(w, _) if w == "use" => {
                while i < toks.len() && !matches!(&toks[i], Tok::Punct(';', _)) {
                    i += 1;
                }
                i += 1;
            }
            Tok::Ident(w, _) if w == "macro_rules" => {
                while i < toks.len() && !matches!(&toks[i], Tok::Group(Delim::Brace, _, _)) {
                    i += 1;
                }
                i += 1;
            }
            Tok::Ident(w, _) if w == "fn" => {
                let fline = toks[i].line();
                let name = match toks.get(i + 1) {
                    Some(Tok::Ident(n, _)) => n.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let is_pub = visibility_is_pub(toks, i);
                let sig_start = i + 2;
                let mut j = sig_start;
                let mut body: Vec<Tok> = Vec::new();
                while j < toks.len() {
                    match &toks[j] {
                        Tok::Group(Delim::Brace, inner, _) => {
                            body = inner.clone();
                            break;
                        }
                        Tok::Punct(';', _) => break,
                        _ => j += 1,
                    }
                }
                let sig = toks[sig_start..j.min(toks.len())].to_vec();
                out.fns.push(FnItem {
                    qualified: impl_ty.map(|t| format!("{t}::{name}")),
                    name,
                    is_pub,
                    line: fline,
                    sig,
                    body,
                });
                i = j + 1;
            }
            Tok::Ident(w, _) if w == "impl" || w == "trait" || w == "mod" => {
                let kw_is_impl = w == "impl";
                let mut j = i + 1;
                let mut last_ident: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut seen_for = false;
                let mut seen_where = false;
                let mut angle = 0i32;
                while j < toks.len() {
                    match &toks[j] {
                        Tok::Group(Delim::Brace, inner, _) => {
                            let ty = if kw_is_impl {
                                after_for.or(last_ident)
                            } else {
                                None
                            };
                            walk(inner, ty.as_deref(), out);
                            j += 1;
                            break;
                        }
                        Tok::Punct(';', _) => {
                            j += 1;
                            break;
                        }
                        Tok::Punct('<', _) => {
                            angle += 1;
                            j += 1;
                        }
                        Tok::Punct('>', _) => {
                            angle -= 1;
                            j += 1;
                        }
                        Tok::Ident(w2, _) if w2 == "for" => {
                            seen_for = true;
                            j += 1;
                        }
                        Tok::Ident(w2, _) if w2 == "where" => {
                            seen_where = true;
                            j += 1;
                        }
                        Tok::Ident(w2, _) if angle == 0 && !seen_where && !is_keyword(w2) => {
                            if seen_for {
                                after_for = Some(w2.clone());
                            } else {
                                last_ident = Some(w2.clone());
                            }
                            j += 1;
                        }
                        _ => j += 1,
                    }
                }
                i = j;
            }
            other => {
                out.loose.push(other.clone());
                i += 1;
            }
        }
    }
}

/// Looks backwards from the `fn` keyword at `i` over fn qualifiers
/// (`async`/`unsafe`/`const`/`extern "C"`) for an unrestricted `pub`.
fn visibility_is_pub(toks: &[Tok], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        match &toks[k - 1] {
            Tok::Ident(m, _) if matches!(m.as_str(), "async" | "unsafe" | "const" | "extern") => {
                k -= 1
            }
            Tok::Lit(_) | Tok::Str(_, _) => k -= 1, // the "C" in extern "C"
            Tok::Ident(m, _) if m == "pub" => return true,
            Tok::Group(Delim::Paren, _, _) => {
                // pub(crate)/pub(super)/pub(in …): restricted, not public API.
                return false;
            }
            _ => return false,
        }
    }
    false
}

/// Matches exactly `#[cfg(test)]` at position `i`.
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    if !toks.get(i).is_some_and(|t| t.is_punct('#')) {
        return false;
    }
    let Some(Tok::Group(Delim::Bracket, inner, _)) = toks.get(i + 1) else {
        return false;
    };
    let [Tok::Ident(cfg, _), Tok::Group(Delim::Paren, args, _)] = inner.as_slice() else {
        return false;
    };
    cfg == "cfg" && matches!(args.as_slice(), [Tok::Ident(t, _)] if t == "test")
}

#[cfg(test)]
mod tests {
    use super::segment;
    use crate::lexer::lex;

    #[test]
    fn finds_fns_and_visibility() {
        let src = "pub fn a() {} fn b() {} pub(crate) fn c() {} pub async fn d() {}";
        let items = segment(&lex(src));
        let names: Vec<(&str, bool)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![("a", true), ("b", false), ("c", false), ("d", true)]
        );
    }

    #[test]
    fn qualifies_impl_methods() {
        let src = "impl Foo { fn m(&self) {} } impl Bar for Baz { fn n(&self) {} }";
        let items = segment(&lex(src));
        assert_eq!(items.fns[0].qualified.as_deref(), Some("Foo::m"));
        assert_eq!(items.fns[1].qualified.as_deref(), Some("Baz::n"));
    }

    #[test]
    fn skips_cfg_test_modules() {
        let src = "fn real() {} #[cfg(test)] mod tests { fn fake() { x.unwrap(); } }";
        let items = segment(&lex(src));
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let src = "#[cfg(not(test))] fn kept() {}";
        let items = segment(&lex(src));
        assert_eq!(items.fns.len(), 1);
    }

    #[test]
    fn use_and_macro_rules_are_dropped() {
        let src = "use std::time::Instant; macro_rules! m { () => { Instant::now() } } fn f() {}";
        let items = segment(&lex(src));
        assert_eq!(items.fns.len(), 1);
        assert!(items.loose.is_empty());
    }

    #[test]
    fn nested_mod_fns_are_found() {
        let src = "mod inner { pub fn deep() {} }";
        let items = segment(&lex(src));
        assert_eq!(items.fns[0].name, "deep");
        assert!(items.fns[0].is_pub);
    }

    #[test]
    fn loose_tokens_capture_consts() {
        let src = "const X: u32 = 5; fn f() {}";
        let items = segment(&lex(src));
        assert!(items.loose.iter().any(|t| t.ident() == Some("X")));
    }

    #[test]
    fn where_clause_does_not_confuse_impl_type() {
        let src = "impl<T> Foo<T> where T: Clone { fn m() {} }";
        let items = segment(&lex(src));
        assert_eq!(items.fns[0].qualified.as_deref(), Some("Foo::m"));
    }
}
