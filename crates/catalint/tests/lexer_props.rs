//! Property tests for the lexer: it must never panic, and the line numbers
//! it stamps on tokens must be monotone in source order. The second
//! property is the load-bearing one — a desynchronized line counter (e.g.
//! from mis-lexing a `'"'` char literal as a string opener) silently
//! shifts every subsequent finding's location.

use catalint::lexer::{lex, Tok};
use proptest::prelude::*;

/// Flattens a token tree depth-first in source order, yielding each
/// token's line. A group contributes its opening-delimiter line, then its
/// children.
fn lines_in_order(toks: &[Tok], out: &mut Vec<u32>) {
    for t in toks {
        out.push(t.line());
        if let Tok::Group(_, inner, _) = t {
            lines_in_order(inner, out);
        }
    }
}

fn assert_monotone(src: &str) {
    let mut lines = Vec::new();
    lines_in_order(&lex(src), &mut lines);
    for w in lines.windows(2) {
        assert!(
            w[0] <= w[1],
            "line numbers went backwards ({} then {}) lexing {src:?}",
            w[0],
            w[1]
        );
    }
    let total = u32::try_from(src.lines().count().max(1)).unwrap_or(u32::MAX);
    for &l in &lines {
        assert!(
            l >= 1 && l <= total,
            "token line {l} outside 1..={total} lexing {src:?}"
        );
    }
}

/// Source fragments that exercise the lexer's tricky states: string and
/// raw-string openers, char literals (alphanumeric, escaped, punctuation —
/// including the `'"'` case that once desynced the line counter),
/// lifetimes, comments, and unbalanced delimiters.
const FRAGMENTS: [&str; 17] = [
    "fn f() {}",
    "\"str with \\\" escape\"",
    "r#\"raw \" string\"#",
    "'a'",
    "'\\n'",
    "'\"'",
    "'.'",
    "&'static str",
    "// comment\n",
    "/* block\n comment */",
    "\n",
    "{ ( [",
    "] ) }",
    "x.unwrap()",
    "\"unterminated",
    "'",
    "ident_0 1234 += ;",
];

fn fragment() -> impl Strategy<Value = &'static str> {
    (0usize..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i])
}

/// Arbitrary (mostly printable, occasionally arbitrary-byte) strings.
fn arb_source() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics the lexer and never produces
    /// out-of-order line numbers.
    #[test]
    fn lex_arbitrary_never_panics(src in arb_source()) {
        assert_monotone(&src);
    }

    /// Concatenations of adversarial fragments — quotes, char literals,
    /// comments, unbalanced delimiters — keep lines monotone.
    #[test]
    fn lex_fragment_soup_keeps_lines_monotone(
        parts in proptest::collection::vec(fragment(), 0..24)
    ) {
        let src: String = parts.concat();
        assert_monotone(&src);
    }
}

/// The regression that motivated the monotone property: a `'"'` char
/// literal in a match arm must not open a string and swallow the rest of
/// the file.
#[test]
fn double_quote_char_literal_does_not_desync() {
    let src = "fn f(c: char) -> bool {\n    match c {\n        '\"' => true,\n        _ => false,\n    }\n}\nfn g() {}\n";
    // `fn g` sits on line 7; if the `'"'` opened a string the second fn
    // would be swallowed or mis-lined.
    let idents: Vec<(String, u32)> = flatten_idents(&lex(src));
    assert!(
        idents.iter().any(|(w, l)| w == "g" && *l == 7),
        "fn g not found at line 7: {idents:?}"
    );
}

fn flatten_idents(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for t in toks {
        if let Tok::Ident(w, l) = t {
            out.push((w.clone(), *l));
        }
        if let Tok::Group(_, inner, _) = t {
            out.extend(flatten_idents(inner));
        }
    }
    out
}
