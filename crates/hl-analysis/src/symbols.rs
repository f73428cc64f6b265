//! Nesting-aware extraction of symbols from a token stream.
//!
//! Sits between the flat [`crate::lexer`] and the whole-workspace taint
//! pass ([`crate::taint`]): for one source file it recovers
//!
//! * function definitions with their body extents (line spans), the
//!   `impl` type they belong to, and every call site inside the body
//!   (free calls, `Type::assoc` path calls, `.method()` calls);
//! * `const NAME: <int ty> = <literal>;` items with their enclosing
//!   module path, which the layout verifier reads descriptor offsets
//!   from.
//!
//! It is *approximate by construction* — no type inference, no macro
//! expansion — and the taint pass compensates with conservative
//! name-based call resolution (see DESIGN.md §14 for the blind spots).

use crate::lexer::{lex, Allow, TokKind};

/// Rust keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "as", "in", "let", "fn", "impl", "mod", "pub",
    "use", "const", "static", "struct", "enum", "trait", "where", "move", "ref", "mut", "else",
    "break", "continue", "unsafe", "dyn", "box", "await",
];

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called function name (last path segment).
    pub callee: String,
    /// Path segment immediately before the callee (`Wqe` in
    /// `Wqe::decode(..)`, `metadata` in `metadata::msg_len(..)`), if any.
    pub qualifier: Option<String>,
    /// `.callee(..)` receiver-method form.
    pub method: bool,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// `Type::name` when defined inside `impl Type`, else `name`.
    pub qual: String,
    /// Crate the function lives in.
    pub krate: String,
    /// Workspace-relative file label.
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// First and last line of the item (inclusive).
    pub start_line: u32,
    /// Last body line.
    pub end_line: u32,
    /// Enclosing `impl` type, if any.
    pub impl_type: Option<String>,
    /// Defined in an `impl Trait for Type` block: called through the
    /// trait, so its name need not appear at any call site.
    pub trait_impl: bool,
    /// Calls made from the body (innermost-fn attribution).
    pub calls: Vec<CallSite>,
    /// Lines of `.unwrap()`/`.expect()`/`panic!`-family sites in the
    /// body, for the transitive panic-in-handler pass. Excludes the
    /// provably-panic-free `.try_into().unwrap()` slice→array idiom.
    pub panics: Vec<u32>,
}

/// A `const NAME: <ty> = <integer literal>;` item.
#[derive(Debug, Clone)]
pub struct ConstDef {
    /// Const name.
    pub name: String,
    /// Innermost enclosing `mod`, if any (e.g. `field_offset`).
    pub module: Option<String>,
    /// Parsed value; `None` when the initializer is not a single
    /// integer literal.
    pub value: Option<u64>,
    /// 1-based line of the `const` keyword.
    pub line: u32,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileSyms {
    /// Function definitions (order of appearance).
    pub fns: Vec<FnDef>,
    /// Const items.
    pub consts: Vec<ConstDef>,
    /// Allow-comments, passed through from the lexer.
    pub allows: Vec<Allow>,
}

/// Macro idents whose invocation panics (mirrors the lexical rule).
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert"];

/// Parse an integer literal token (`0x34`, `1_000`, `64u64`, ...).
pub fn parse_int(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let t = t
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("u16")
        .trim_end_matches("u8")
        .trim_end_matches("usize")
        .trim_end_matches("i64")
        .trim_end_matches("i32")
        .trim_end_matches("isize");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else if let Some(oct) = t.strip_prefix("0o") {
        u64::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = t.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).ok()
    } else {
        t.parse().ok()
    }
}

/// Extract the symbol table of one file. `krate`/`file` are labels
/// carried into the emitted definitions.
pub fn parse_file(krate: &str, file: &str, src: &str) -> FileSyms {
    let (toks, allows) = lex(src);
    let mut out = FileSyms {
        allows,
        ..Default::default()
    };
    let t = &toks;

    let mut brace_depth: i64 = 0;
    // (impl type, `impl Trait for Type`?, depth its block opened at)
    let mut impl_stack: Vec<(String, bool, i64)> = Vec::new();
    // (mod name, depth)
    let mut mod_stack: Vec<(String, i64)> = Vec::new();
    // (index into out.fns, depth the body opened at)
    let mut fn_stack: Vec<(usize, i64)> = Vec::new();
    // A just-parsed fn header waiting for its body `{`.
    // (name, index of its impl block in `impl_stack`, line).
    let mut pending_fn: Option<(String, Option<usize>, u32)> = None;
    let mut paren_depth: i64 = 0;
    // Depth of the outermost `#[cfg(test)] mod` block we are inside, if
    // any: test code is not datapath, so its fns/consts are not part of
    // the model (a panicking test helper must not taint a handler).
    let mut cfg_test: Option<i64> = None;

    let mut i = 0usize;
    while i < t.len() {
        let tok = &t[i];
        if tok.is_punct('(') || tok.is_punct('[') {
            paren_depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            paren_depth -= 1;
        } else if tok.is_punct('{') {
            brace_depth += 1;
            if paren_depth == 0 {
                if let Some((name, impl_idx, line)) = pending_fn.take() {
                    let (impl_ty, trait_impl) = match impl_idx.map(|k| &impl_stack[k]) {
                        Some((ty, trait_impl, _)) => (Some(ty.clone()), *trait_impl),
                        None => (None, false),
                    };
                    let qual = match &impl_ty {
                        Some(ty) => format!("{ty}::{name}"),
                        None => name.clone(),
                    };
                    out.fns.push(FnDef {
                        name,
                        qual,
                        krate: krate.to_string(),
                        file: file.to_string(),
                        line,
                        start_line: line,
                        end_line: line,
                        impl_type: impl_ty,
                        trait_impl,
                        calls: Vec::new(),
                        panics: Vec::new(),
                    });
                    fn_stack.push((out.fns.len() - 1, brace_depth));
                }
            }
        } else if tok.is_punct('}') {
            if let Some((idx, open)) = fn_stack.last().copied() {
                if brace_depth == open {
                    out.fns[idx].end_line = tok.line;
                    fn_stack.pop();
                }
            }
            if let Some((_, _, open)) = impl_stack.last() {
                if brace_depth == *open {
                    impl_stack.pop();
                }
            }
            if let Some((_, open)) = mod_stack.last() {
                if brace_depth == *open {
                    mod_stack.pop();
                }
            }
            if cfg_test == Some(brace_depth) {
                cfg_test = None;
            }
            brace_depth -= 1;
        } else if tok.is_ident("impl")
            && paren_depth == 0
            // `-> impl Trait` is a return type, not an impl block.
            && !(i >= 2 && t[i - 2].is_punct('-') && t[i - 1].is_punct('>'))
        {
            // Scan the header up to `{`; the self type is the ident after
            // `for` when present, else the last segment of the first
            // angle-depth-0 path after `impl`.
            let mut j = i + 1;
            let mut angle: i64 = 0;
            let mut ty: Option<String> = None;
            let mut after_for = false;
            let mut saw_for = false;
            while j < t.len() && !t[j].is_punct('{') && !t[j].is_punct(';') {
                let tj = &t[j];
                if tj.is_punct('<') {
                    angle += 1;
                } else if tj.is_punct('>') {
                    angle -= 1;
                } else if tj.is_ident("for") && angle == 0 {
                    saw_for = true;
                    after_for = true;
                    ty = None;
                } else if tj.is_ident("where") && angle == 0 {
                    break;
                } else if tj.kind == TokKind::Ident && angle == 0 {
                    // `a::b::C` — keep overwriting along the path so the
                    // last segment wins.
                    let continues_path = j >= 2 && t[j - 1].is_punct(':') && t[j - 2].is_punct(':');
                    let path_goes_on = j + 1 < t.len() && t[j + 1].is_punct(':');
                    if (after_for || (!saw_for && ty.is_none()) || continues_path)
                        && !matches!(tj.text.as_str(), "crate" | "self" | "dyn" | "mut")
                    {
                        ty = Some(tj.text.clone());
                        if after_for && !path_goes_on {
                            after_for = false;
                        }
                    }
                }
                j += 1;
            }
            if j < t.len() && t[j].is_punct('{') {
                if let Some(ty) = ty {
                    impl_stack.push((ty, saw_for, brace_depth + 1));
                }
            }
            // Do not consume tokens: fall through so `{` is handled above.
        } else if tok.is_ident("mod")
            && i + 1 < t.len()
            && t[i + 1].kind == TokKind::Ident
            && i + 2 < t.len()
            && t[i + 2].is_punct('{')
        {
            mod_stack.push((t[i + 1].text.clone(), brace_depth + 1));
            // `#[cfg(test)] mod x {` — skip the whole module.
            let test_attr = i >= 7
                && t[i - 7].is_punct('#')
                && t[i - 6].is_punct('[')
                && t[i - 5].is_ident("cfg")
                && t[i - 4].is_punct('(')
                && t[i - 3].is_ident("test")
                && t[i - 2].is_punct(')')
                && t[i - 1].is_punct(']');
            if test_attr && cfg_test.is_none() {
                cfg_test = Some(brace_depth + 1);
            }
        } else if tok.is_ident("fn")
            && cfg_test.is_none()
            && i + 1 < t.len()
            && t[i + 1].kind == TokKind::Ident
        {
            // Trait-method *declarations* (`fn f(..);`) have no body: the
            // pending header is dropped when `;` arrives before `{`.
            let impl_idx = impl_stack.len().checked_sub(1);
            pending_fn = Some((t[i + 1].text.clone(), impl_idx, tok.line));
            i += 2;
            continue;
        } else if tok.is_punct(';') && paren_depth == 0 {
            // Terminates a bodiless fn declaration, if one is pending.
            pending_fn = None;
            // Also terminates a const item — handled below by lookahead.
        }

        // Const items (at any nesting, including inside `mod` blocks).
        if cfg_test.is_none()
            && tok.is_ident("const")
            && i + 1 < t.len()
            && t[i + 1].kind == TokKind::Ident
            && i + 2 < t.len()
            && t[i + 2].is_punct(':')
        {
            // `const NAME : ty = <tokens> ;`
            let name = t[i + 1].text.clone();
            let line = tok.line;
            let mut j = i + 2;
            while j < t.len() && !t[j].is_punct('=') && !t[j].is_punct(';') {
                j += 1;
            }
            let mut value = None;
            if j < t.len() && t[j].is_punct('=') {
                // Single integer literal initializer only.
                if j + 2 < t.len() && t[j + 1].kind == TokKind::Int && t[j + 2].is_punct(';') {
                    value = parse_int(&t[j + 1].text);
                }
            }
            out.consts.push(ConstDef {
                name,
                module: mod_stack.last().map(|(m, _)| m.clone()),
                value,
                line,
            });
        }

        // Call sites and panic sites, attributed to the innermost fn.
        if let Some((fn_idx, _)) = fn_stack.last().copied() {
            if tok.kind == TokKind::Ident && !KEYWORDS.contains(&tok.text.as_str()) {
                let next_is = |c: char| i + 1 < t.len() && t[i + 1].is_punct(c);
                let prev_is = |c: char| i > 0 && t[i - 1].is_punct(c);
                if next_is('!') && PANICKY_MACROS.contains(&tok.text.as_str()) {
                    out.fns[fn_idx].panics.push(tok.line);
                } else if next_is('(') && !next_is('!') {
                    if prev_is('.') {
                        if matches!(tok.text.as_str(), "unwrap" | "expect") {
                            // `.try_into().unwrap()` converts a
                            // length-checked slice; panic-free by
                            // construction, so don't taint on it.
                            let after_try_into = i >= 4
                                && t[i - 2].is_punct(')')
                                && t[i - 3].is_punct('(')
                                && t[i - 4].is_ident("try_into");
                            if !after_try_into {
                                out.fns[fn_idx].panics.push(tok.line);
                            }
                        } else {
                            out.fns[fn_idx].calls.push(CallSite {
                                callee: tok.text.clone(),
                                qualifier: None,
                                method: true,
                                line: tok.line,
                            });
                        }
                    } else if i > 0 && t[i - 1].is_ident("fn") {
                        // Definition header, not a call.
                    } else {
                        // Free or path call: look back through `a::b::`.
                        let mut qualifier = None;
                        if i >= 2 && t[i - 1].is_punct(':') && t[i - 2].is_punct(':') && i >= 3 {
                            let q = &t[i - 3];
                            if q.kind == TokKind::Ident {
                                qualifier = Some(q.text.clone());
                            }
                        }
                        out.fns[fn_idx].calls.push(CallSite {
                            callee: tok.text.clone(),
                            qualifier,
                            method: false,
                            line: tok.line,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_and_impl_extraction() {
        let src = "impl Nic {\n    pub fn on_packet(&mut self) {\n        self.fetch(1);\n        helper();\n        Wqe::decode(b);\n    }\n}\nfn helper() { other::leaf(); }\n";
        let s = parse_file("k", "f.rs", src);
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].qual, "Nic::on_packet");
        assert!(!s.fns[0].trait_impl);
        assert_eq!(s.fns[0].start_line, 2);
        assert_eq!(s.fns[0].end_line, 6);
        let calls: Vec<(&str, bool)> = s.fns[0]
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.method))
            .collect();
        assert_eq!(
            calls,
            [("fetch", true), ("helper", false), ("decode", false)]
        );
        assert_eq!(s.fns[0].calls[2].qualifier.as_deref(), Some("Wqe"));
        assert_eq!(s.fns[1].qual, "helper");
        assert_eq!(s.fns[1].calls[0].qualifier.as_deref(), Some("other"));
    }

    #[test]
    fn impl_trait_for_type() {
        let src = "impl fmt::Display for Finding {\n fn fmt(&self) { self.go(); }\n}";
        let s = parse_file("k", "f.rs", src);
        assert_eq!(s.fns[0].qual, "Finding::fmt");
        assert!(s.fns[0].trait_impl);
    }

    #[test]
    fn generic_impl() {
        let src = "impl<C: EventCtx> Engine<C> {\n fn step(&mut self) { self.pop(); }\n}";
        let s = parse_file("k", "f.rs", src);
        assert_eq!(s.fns[0].qual, "Engine::step");
    }

    #[test]
    fn return_position_impl_trait_opens_no_impl_block() {
        let src = "fn evens() -> impl Iterator<Item = u8> {\n    fn helper() -> u8 { 2 }\n    (0..helper()).filter(|x| x % 2 == 0)\n}";
        let s = parse_file("k", "f.rs", src);
        let quals: Vec<(&str, Option<&str>)> = s
            .fns
            .iter()
            .map(|f| (f.qual.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(quals, [("evens", None), ("helper", None)]);
    }

    #[test]
    fn consts_with_modules() {
        let src = "pub const WQE_SIZE: u64 = 64;\npub mod field_offset {\n    pub const OP: u64 = 52;\n}\nconst EXPR: u64 = 1 << 3;\n";
        let s = parse_file("k", "f.rs", src);
        assert_eq!(s.consts.len(), 3);
        assert_eq!(s.consts[0].name, "WQE_SIZE");
        assert_eq!(s.consts[0].value, Some(64));
        assert_eq!(s.consts[0].module, None);
        assert_eq!(s.consts[1].name, "OP");
        assert_eq!(s.consts[1].value, Some(52));
        assert_eq!(s.consts[1].module.as_deref(), Some("field_offset"));
        assert_eq!(s.consts[2].value, None); // expression, not a literal
    }

    #[test]
    fn panic_sites_and_try_into_exemption() {
        let src = "fn f(b: &[u8]) -> u32 {\n    let x: [u8; 4] = b[0..4].try_into().unwrap();\n    self.q.front().expect(\"boom\");\n    panic!(\"no\");\n    u32::from_le_bytes(x)\n}";
        let s = parse_file("k", "f.rs", src);
        assert_eq!(s.fns[0].panics, vec![3, 4]);
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "fn real() { go(); }\n#[cfg(test)]\nmod tests {\n    const FAKE: u64 = 1;\n    fn helper() { x.unwrap(); }\n}\nfn after() { run(); }";
        let s = parse_file("k", "f.rs", src);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real", "after"]);
        assert!(s.consts.is_empty());
    }

    #[test]
    fn nested_fn_attribution() {
        let src = "fn outer() {\n    fn inner() { leaf(); }\n    top();\n}";
        let s = parse_file("k", "f.rs", src);
        let outer = s.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = s.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].callee, "top");
        assert_eq!(inner.calls[0].callee, "leaf");
    }

    #[test]
    fn trait_decl_without_body_is_skipped() {
        let src = "trait P {\n fn on_event(&mut self, e: E);\n}\nfn real() { x(); }";
        let s = parse_file("k", "f.rs", src);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "real");
    }

    #[test]
    fn int_literals() {
        assert_eq!(parse_int("64"), Some(64));
        assert_eq!(parse_int("0x34"), Some(0x34));
        assert_eq!(parse_int("1_000u64"), Some(1000));
        assert_eq!(parse_int("0b101"), Some(5));
    }
}
