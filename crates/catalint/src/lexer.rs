//! A minimal Rust lexer producing delimiter-matched token trees.
//!
//! This is deliberately **not** a parser: catalint's invariants are all
//! expressible as patterns over identifiers, punctuation, and bracket
//! groups, so the lexer only needs to get four things exactly right:
//!
//! 1. comments (line, nested block) never produce tokens;
//! 2. string/char literals are opaque — `"foo.unwrap()"` is data, not code;
//! 3. raw strings (`r#"…"#`) honour their hash-delimited terminator, so a
//!    JSON fixture full of quotes and braces cannot desynchronise the lexer;
//! 4. delimiters are matched into [`Tok::Group`]s so passes can reason
//!    about "the tokens inside this bracket" and "the previous sibling".
//!
//! Everything else (numeric suffixes, lifetimes, multi-char operators) is
//! reduced to the simplest shape that keeps patterns checkable.

/// The three bracket kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

/// One token. Lines are 1-based.
#[derive(Debug, Clone)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String, u32),
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char, u32),
    /// A non-string literal (char, number). Contents are opaque.
    Lit(u32),
    /// A string literal (normal, raw, or byte). The content is carried —
    /// escapes unprocessed, delimiters stripped — so passes that police
    /// string *values* (the namereg pass) can inspect it. Code inside a
    /// string is still never tokenised.
    Str(String, u32),
    /// A delimiter-matched group; the line is the opening delimiter's.
    Group(Delim, Vec<Tok>, u32),
}

impl Tok {
    /// The source line this token starts on.
    pub fn line(&self) -> u32 {
        match self {
            Tok::Ident(_, l)
            | Tok::Punct(_, l)
            | Tok::Lit(l)
            | Tok::Str(_, l)
            | Tok::Group(_, _, l) => *l,
        }
    }

    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s, _) => Some(s),
            _ => None,
        }
    }

    /// True if this is exactly the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p, _) if *p == c)
    }
}

/// Lexes one source file into its top-level tokens. Never fails:
/// unbalanced delimiters are closed at end of input (best effort — the
/// passes degrade to fewer findings, never to a panic).
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut stack: Vec<(Delim, u32, Vec<Tok>)> = Vec::new();
    let mut cur: Vec<Tok> = Vec::new();

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let l = line;
                let end = skip_string(&b, i, &mut line);
                cur.push(Tok::Str(string_content(&b, i + 1, end, 1), l));
                i = end;
            }
            '\'' => {
                let l = line;
                if b.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: consume through the closing quote.
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    cur.push(Tok::Lit(l));
                } else {
                    let mut j = i + 1;
                    while j < b.len() && (b[j] == '_' || b[j].is_alphanumeric()) {
                        j += 1;
                    }
                    if j > i + 1 && b.get(j) == Some(&'\'') {
                        // 'a' — a char literal.
                        i = j + 1;
                        cur.push(Tok::Lit(l));
                    } else if j == i + 1 {
                        if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\'') {
                            // '"', '.', '(' — a single-char literal whose char
                            // is not alphanumeric. Must be consumed as a unit
                            // or the inner char (a quote, a delimiter) would
                            // desynchronise the lexer.
                            if b.get(i + 1) == Some(&'\n') {
                                line += 1;
                            }
                            i += 3;
                            cur.push(Tok::Lit(l));
                        } else {
                            // A bare quote (macro token position) — keep as punct.
                            i += 1;
                            cur.push(Tok::Punct('\'', l));
                        }
                    } else {
                        // 'lifetime — skipped entirely.
                        i = j;
                    }
                }
            }
            '(' | '[' | '{' => {
                let d = match c {
                    '(' => Delim::Paren,
                    '[' => Delim::Bracket,
                    _ => Delim::Brace,
                };
                stack.push((d, line, std::mem::take(&mut cur)));
                i += 1;
            }
            ')' | ']' | '}' => {
                if let Some((d, l, parent)) = stack.pop() {
                    let inner = std::mem::replace(&mut cur, parent);
                    cur.push(Tok::Group(d, inner, l));
                }
                i += 1;
            }
            _ if c == '_' || c.is_alphabetic() => {
                let l = line;
                let start = i;
                while i < b.len() && (b[i] == '_' || b[i].is_alphanumeric()) {
                    i += 1;
                }
                let word: String = b[start..i].iter().collect();
                if matches!(word.as_str(), "r" | "b" | "br" | "rb") {
                    // Possible (raw/byte) string prefix.
                    let mut k = i;
                    let mut hashes = 0usize;
                    while k < b.len() && b[k] == '#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < b.len() && b[k] == '"' {
                        let end = if word.contains('r') {
                            skip_raw_string(&b, k, hashes, &mut line)
                        } else if hashes == 0 {
                            skip_string(&b, k, &mut line)
                        } else {
                            cur.push(Tok::Ident(word, l));
                            continue;
                        };
                        let close = 1 + hashes;
                        cur.push(Tok::Str(string_content(&b, k + 1, end, close), l));
                        i = end;
                        continue;
                    }
                }
                cur.push(Tok::Ident(word, l));
            }
            _ if c.is_ascii_digit() => {
                let l = line;
                while i < b.len() && (b[i] == '_' || b[i].is_alphanumeric()) {
                    i += 1;
                }
                // A fractional part, but never a `..` range operator.
                if i + 1 < b.len() && b[i] == '.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && (b[i] == '_' || b[i].is_alphanumeric()) {
                        i += 1;
                    }
                }
                cur.push(Tok::Lit(l));
            }
            other => {
                cur.push(Tok::Punct(other, line));
                i += 1;
            }
        }
    }

    // Close any unbalanced groups so callers always get a tree.
    while let Some((d, l, parent)) = stack.pop() {
        let inner = std::mem::replace(&mut cur, parent);
        cur.push(Tok::Group(d, inner, l));
    }

    cur
}

/// Extracts string content between `start` (just past the opening quote)
/// and `end` (one past the closing delimiter, which is `close` chars long).
/// On unterminated strings `end` may be the input end; the subtraction
/// saturates so the lexer still never fails.
fn string_content(b: &[char], start: usize, end: usize, close: usize) -> String {
    let stop = end.saturating_sub(close).max(start).min(b.len());
    b[start.min(stop)..stop].iter().collect()
}

/// Skips a normal (escape-honouring) string starting at the opening quote;
/// returns the index one past the closing quote.
fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string whose opening quote is at `i` and which terminates at
/// `"` followed by `hashes` `#` characters.
fn skip_raw_string(b: &[char], mut i: usize, hashes: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        if b[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == '"' {
            let mut k = 0usize;
            while k < hashes && b.get(i + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::{lex, Delim, Tok};

    fn idents(toks: &[Tok]) -> Vec<String> {
        let mut out = Vec::new();
        for t in toks {
            match t {
                Tok::Ident(s, _) => out.push(s.clone()),
                Tok::Group(_, inner, _) => out.extend(idents(inner)),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn groups_nest() {
        let l = lex("fn f(a: u8) { g([1, 2]); }");
        assert_eq!(l.len(), 4); // fn, f, (..), {..}
        match &l[3] {
            Tok::Group(Delim::Brace, inner, _) => {
                assert!(matches!(inner[1], Tok::Group(Delim::Paren, _, _)));
            }
            other => panic!("expected brace group, got {other:?}"),
        }
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let l = lex("let x = \"a.unwrap() {\"; // unwrap() here too\n/* and } here */ y");
        let ids = idents(&l);
        assert_eq!(ids, vec!["let", "x", "y"]);
    }

    #[test]
    fn raw_strings_with_quotes_and_braces() {
        let l = lex(r##"let j = r#"{"k": "v}}"}"#; done"##);
        let ids = idents(&l);
        assert_eq!(ids, vec!["let", "j", "done"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a u8) { let c = 'a'; let n = '\\n'; }");
        let ids = idents(&l);
        assert!(!ids.contains(&"a".to_string()) || ids.iter().filter(|s| *s == "a").count() == 0);
        assert!(ids.contains(&"c".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* x /* y */ z */ b");
        assert_eq!(idents(&l), vec!["a", "b"]);
    }

    #[test]
    fn line_numbers_advance() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.iter().map(Tok::line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn unbalanced_input_still_lexes() {
        let l = lex("fn f( { [ x");
        assert!(!idents(&l).is_empty());
    }
}
