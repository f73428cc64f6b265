//! `unused`: functions nothing mentions.
//!
//! A name-based pass over the [`crate::symbols`] model. A `fn` defined
//! in `crates/*/src` is reported when no identifier token other than
//! its own definition, in any Rust source of [`MENTION_DIRS`], carries
//! its name. Trait-impl methods (reached through the trait), `main` and
//! `#[cfg(test)]` modules are out of scope.
//!
//! Name-based means approximate in one direction only: two definitions
//! that share a name mention each other, so a dead function can hide
//! behind a live namesake, but a reported function is called by name
//! nowhere. Keep one on purpose with `// hl-lint: allow(unused)` on the
//! item and a reason in the comment next to it.

use crate::lexer::{lex, TokKind};
use crate::rules::{allow_ranges, Finding};
use crate::symbols::parse_file;
use crate::taint::{discover_crates, rust_files};
use std::collections::BTreeMap;
use std::path::Path;

/// The rule name, as used in findings and allow-comments.
pub const RULE: &str = "unused";

/// Where mentions are counted, relative to the workspace root.
pub const MENTION_DIRS: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

/// Identifier tokens of `src`, counted by name into `counts`.
fn count_mentions(src: &str, counts: &mut BTreeMap<String, usize>) {
    for t in lex(src).0 {
        if t.kind == TokKind::Ident {
            *counts.entry(t.text).or_default() += 1;
        }
    }
}

/// Findings for the functions defined in one source file, given the
/// mention counts of the whole corpus (which includes that file).
fn unused_in(
    krate: &str,
    file: &str,
    src: &str,
    mentions: &BTreeMap<String, usize>,
) -> Vec<Finding> {
    let syms = parse_file(krate, file, src);
    let allowed: Vec<(u32, u32)> = allow_ranges(&lex(src).0, &syms.allows)
        .into_iter()
        .filter(|r| r.rule == RULE)
        .map(|r| (r.start, r.end))
        .collect();
    syms.fns
        .iter()
        .filter(|f| !f.trait_impl && f.name != "main")
        .filter(|f| mentions.get(&f.name).copied().unwrap_or(0) <= 1)
        .filter(|f| !allowed.iter().any(|&(a, b)| a <= f.line && f.line <= b))
        .map(|f| Finding {
            rule: RULE,
            file: file.to_string(),
            line: f.line,
            message: format!("`{}` is never mentioned outside its definition", f.qual),
        })
        .collect()
}

/// The pass over one self-contained source (the fixture form): its own
/// tokens are the whole corpus.
pub fn check_source(file: &str, src: &str) -> Vec<Finding> {
    let mut mentions = BTreeMap::new();
    count_mentions(src, &mut mentions);
    unused_in("fixture", file, src, &mentions)
}

/// The pass over workspace `root`: definitions from every crate's
/// `src/`, mentions from every Rust file under [`MENTION_DIRS`].
pub fn unused_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut mentions = BTreeMap::new();
    for dir in MENTION_DIRS {
        let dir = root.join(dir);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        for f in files {
            count_mentions(&std::fs::read_to_string(&f)?, &mut mentions);
        }
    }
    let mut findings = Vec::new();
    for c in discover_crates(root, crate::SIM_CRATES)? {
        let mut files = Vec::new();
        rust_files(&c.dir.join("src"), &mut files)?;
        for f in files {
            let label = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .into_owned();
            let src = std::fs::read_to_string(&f)?;
            findings.extend(unused_in(&c.name, &label, &src, &mentions));
        }
    }
    Ok(findings)
}
