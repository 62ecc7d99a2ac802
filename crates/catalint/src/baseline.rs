//! The `[[clock_seam]]` registry reader (`catalint.toml`).
//!
//! `catalint.toml` holds no lint debt and has no syntax to express any:
//! every finding fails the build, and a genuinely intended exception is a
//! `catalint: allow(<pass>)` comment at the site. What the file does hold
//! is the sanctioned nondeterminism boundary the `hermetic` pass stops at
//! (the future `Clock` seam of the parked dual-clock item). The registry
//! ships empty — every entry added later is a reviewed hole in the
//! hermeticity certificate.
//!
//! The format is a strict subset of TOML (`[[clock_seam]]` tables with one
//! string value), parsed here directly so the checker has zero
//! dependencies.

/// Parses `catalint.toml`, returning the bare function names registered
/// under `[[clock_seam]]` in file order. Any other table — `[[allow]]` in
/// particular — is an error.
pub fn parse_document(text: &str) -> Result<Vec<String>, String> {
    // A `[[clock_seam]]` header opens an entry (empty until its `function`
    // key arrives); keys always belong to the last entry opened.
    let mut seams: Vec<String> = Vec::new();
    for (ix, raw) in text.lines().enumerate() {
        let lineno = ix + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[clock_seam]]" {
            seams.push(String::new());
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {lineno}: unsupported table `{line}` — only [[clock_seam]] exists; a \
                 finding is fixed, or suppressed at its site with `catalint: allow(<pass>)`"
            ));
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let (k, v) = (k.trim(), v.trim());
        let Some(function) = seams.last_mut() else {
            return Err(format!("line {lineno}: key outside a [[clock_seam]] table"));
        };
        match k {
            "function" => *function = unquote(v, lineno)?,
            other => {
                return Err(format!(
                    "line {lineno}: unknown key `{other}` in [[clock_seam]]"
                ))
            }
        }
    }
    if let Some(n) = seams.iter().position(String::is_empty) {
        return Err(format!(
            "[[clock_seam]] entry {} requires a function name",
            n + 1
        ));
    }
    Ok(seams)
}

/// Strips a `#` comment, honouring double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (pos, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..pos],
            _ => {}
        }
    }
    line
}

fn unquote(v: &str, lineno: usize) -> Result<String, String> {
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string, got `{v}`"))?;
    Ok(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::parse_document;

    #[test]
    fn clock_seam_tables_parse() {
        let text = "# header\n\n[[clock_seam]]\nfunction = \"realtime_now\" # trailing\n\n[[clock_seam]]\nfunction = \"wall_sleep\"\n";
        assert_eq!(
            parse_document(text).expect("parse"),
            ["realtime_now", "wall_sleep"]
        );
        // A comments-only document is an empty registry.
        assert!(parse_document("# nothing\n").expect("parse").is_empty());
    }

    #[test]
    fn allow_tables_are_rejected() {
        // The file format cannot express debt: the table that used to
        // tolerate findings is a parse error, wherever it appears.
        let bucket = "[[allow]]\npass = \"panic\"\nfile = \"a.rs\"\nfunction = \"f\"\ncount = 1\n";
        let err = parse_document(bucket).expect_err("[[allow]] must not parse");
        assert!(err.contains("line 1") && err.contains("[[allow]]"), "{err}");
        let after_seam = format!("[[clock_seam]]\nfunction = \"realtime_now\"\n\n{bucket}");
        let err = parse_document(&after_seam).expect_err("[[allow]] must not parse");
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_document("[general]\nx = 1").is_err());
        assert!(parse_document("function = \"f\"").is_err()); // key outside table
        assert!(parse_document("[[clock_seam]]\npass = \"x\"").is_err()); // unknown key
        assert!(parse_document("[[clock_seam]]\n").is_err()); // missing function
        assert!(parse_document("[[clock_seam]]\n[[clock_seam]]\nfunction = \"f\"").is_err());
        assert!(parse_document("[[clock_seam]]\nfunction = f").is_err()); // unquoted
        assert!(parse_document("[[clock_seam]]\nfunction").is_err()); // no `=`
    }
}
