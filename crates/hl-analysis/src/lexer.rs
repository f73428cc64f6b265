//! A minimal Rust lexer, sufficient for the determinism lints.
//!
//! The workspace builds fully offline, so there is no `syn` to lean on;
//! this hand-rolled tokenizer understands exactly as much Rust as the
//! rules need: identifiers, punctuation, numeric literals (with float
//! detection), string/char/lifetime disambiguation, nested block
//! comments, and — crucially — `// hl-lint: allow(rule, ...)` escape
//! comments, which it collects with their line numbers so the rule
//! engine can suppress findings on the same and the following line.

/// Kinds of token the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character (`.`, `:`, `(`, `!`, ...).
    Punct,
    /// Integer literal.
    Int,
    /// Floating-point literal (has a dot or an `f32`/`f64` suffix).
    Float,
    /// String, byte-string, or char literal (contents ignored).
    Literal,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token.
    pub kind: TokKind,
    /// Token text (single char for punctuation).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this a punctuation token with exactly this character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes() == [c as u8]
    }
}

/// An `// hl-lint: allow(rule)` suppression found in the source.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The suppressed rule name.
    pub rule: String,
    /// Line the comment sits on (suppresses this line and the next).
    pub line: u32,
}

/// Lex `src` into tokens plus the allow-comments encountered.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Allow>) {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut allows = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                parse_allow(&src[start..i], line, &mut allows);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let (ni, nl) = skip_string_like(b, i, line);
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
                i = ni;
                line = nl;
            }
            b'"' => {
                let (ni, nl) = skip_quoted(b, i + 1, b'"', line);
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
                i = ni;
                line = nl;
            }
            b'\'' => {
                // Lifetime vs char literal: 'a followed by non-quote is a
                // lifetime; anything else is a char literal.
                if i + 2 < b.len()
                    && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                    && b[i + 2] != b'\''
                {
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                } else {
                    let (ni, nl) = skip_quoted(b, i + 1, b'\'', line);
                    toks.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                    });
                    i = ni;
                    line = nl;
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut float = false;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                // `1.5` — a dot followed by a digit continues the number;
                // `1..n` and `x.1` field access do not.
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    float = true;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                if text.ends_with("f32") || text.ends_with("f64") || text.contains('e') && float {
                    float = true;
                }
                toks.push(Tok {
                    kind: if float { TokKind::Float } else { TokKind::Int },
                    text: text.to_string(),
                    line,
                });
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    (toks, allows)
}

/// Does `b[i..]` start a raw string (`r"`, `r#"`) or byte string
/// (`b"`, `br"`, `b'`)?
fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let rest = &b[i..];
    if rest.starts_with(b"r\"") || rest.starts_with(b"r#") || rest.starts_with(b"b\"") {
        return true;
    }
    if rest.starts_with(b"br\"") || rest.starts_with(b"br#") || rest.starts_with(b"b'") {
        return true;
    }
    false
}

/// Skip a raw/byte string starting at `i`; returns (next index, line).
fn skip_string_like(b: &[u8], mut i: usize, mut line: u32) -> (usize, u32) {
    // Skip the `r`/`b`/`br` prefix; only an `r` turns escapes off.
    let mut raw = false;
    while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
        raw |= b[i] == b'r';
        i += 1;
    }
    if i < b.len() && b[i] == b'\'' {
        return skip_quoted(b, i + 1, b'\'', line);
    }
    let mut hashes = 0;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' && !raw {
        return skip_quoted(b, i + 1, b'"', line);
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
        if hashes == 0 {
            // Raw string without hashes still has no escapes.
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            return (i.min(b.len() - 1) + 1, line);
        }
        loop {
            if i >= b.len() {
                return (i, line);
            }
            if b[i] == b'\n' {
                line += 1;
                i += 1;
                continue;
            }
            if b[i] == b'"' {
                let mut k = 0;
                while i + 1 + k < b.len() && b[i + 1 + k] == b'#' && k < hashes {
                    k += 1;
                }
                if k == hashes {
                    return (i + 1 + k, line);
                }
            }
            i += 1;
        }
    }
    (i, line)
}

/// Skip a quoted literal (with escapes) until the closing `close`.
fn skip_quoted(b: &[u8], mut i: usize, close: u8, mut line: u32) -> (usize, u32) {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c == close => return (i + 1, line),
            _ => i += 1,
        }
    }
    (i, line)
}

/// Extract `hl-lint: allow(a, b)` directives from a line comment.
fn parse_allow(comment: &str, line: u32, out: &mut Vec<Allow>) {
    let Some(pos) = comment.find("hl-lint:") else {
        return;
    };
    let rest = &comment[pos + "hl-lint:".len()..];
    let Some(open) = rest.find("allow(") else {
        return;
    };
    let rest = &rest[open + "allow(".len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    for rule in rest[..close].split(',') {
        let rule = rule.trim();
        if !rule.is_empty() {
            out.push(Allow {
                rule: rule.to_string(),
                line,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_puncts() {
        let (t, _) = lex("fn foo(x: u64) { x.round() }");
        let idents: Vec<&str> = t
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["fn", "foo", "x", "u64", "x", "round"]);
    }

    #[test]
    fn float_detection() {
        let (t, _) = lex("let a = 1.5; let b = 2f64; let c = 3; let d = x.0;");
        let kinds: Vec<TokKind> = t
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            [TokKind::Float, TokKind::Float, TokKind::Int, TokKind::Int]
        );
    }

    #[test]
    fn strings_and_lifetimes() {
        let (t, _) = lex(r#"let s: &'a str = "HashMap"; let c = 'x';"#);
        assert!(!t.iter().any(|t| t.is_ident("HashMap")));
        assert!(t
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn byte_strings_keep_escapes_and_raw_strings_do_not() {
        let (t, _) = lex(r#"let a = b"x\"y"; let b = br"z\"; let c = 1;"#);
        let idents: Vec<&str> = t
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn comments_do_not_tokenize() {
        let (t, _) = lex("// HashMap\n/* Instant /* nested */ */ let x = 1;");
        assert!(!t.iter().any(|t| t.is_ident("HashMap")));
        assert!(!t.iter().any(|t| t.is_ident("Instant")));
        assert!(t.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn allow_comments_collected() {
        let (_, allows) = lex("let x = 1; // hl-lint: allow(hash-collections, wall-clock)\n");
        let rules: Vec<&str> = allows.iter().map(|a| a.rule.as_str()).collect();
        assert_eq!(rules, ["hash-collections", "wall-clock"]);
        assert_eq!(allows[0].line, 1);
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let (t, _) = lex("let s = \"a\nb\nc\";\nlet y = 1;");
        let y = t.iter().find(|t| t.is_ident("y")).unwrap();
        assert_eq!(y.line, 4);
    }
}
