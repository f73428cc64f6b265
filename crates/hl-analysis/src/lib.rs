//! # hl-analysis — static analysis for the simulator workspace
//!
//! The reproduction's core guarantee is that the simulator is
//! *deterministic*: the same seed yields a byte-identical event trace
//! (the invariant the chaos suite asserts). That guarantee is one
//! stray `HashMap` iteration or wall-clock read away from silently
//! breaking — and the WQE/metadata descriptor byte layout the offload
//! path scatters into is plain `const` arithmetic with nothing but
//! convention keeping it overlap-free. This crate is a dependency-free,
//! `syn`-free two-pass workspace analyzer:
//!
//! **Pass 1 — determinism lints + call-graph taint.** Lexical rules
//! run over the sim-core crates; on top of them a nesting-aware parser
//! ([`symbols`]) extracts per-crate symbol tables and an approximate
//! call graph across *all* workspace crates, and [`taint`] propagates
//! nondeterminism transitively: an event-handler entry point that
//! reaches a tainted helper two crates away is reported with the full
//! call chain.
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `hash-collections` | `std::collections::HashMap`/`HashSet` anywhere in sim code (RandomState iteration order) |
//! | `wall-clock` | `std::time::Instant`/`SystemTime` (host clock) |
//! | `os-entropy` | `thread_rng`/`OsRng`/`getrandom`/`RandomState` (unseeded randomness) |
//! | `thread-spawn` | `std::thread::spawn` / `std::thread::scope` (host scheduling order) |
//! | `float-time` | float-tainted arguments to `SimTime`/`SimDuration` constructors |
//! | `panic-in-handler` | `panic!`/`unwrap`/`expect` inside NIC packet/doorbell handlers |
//! | `rand-raw` | raw `rand::` paths outside the named-RNG-stream API |
//! | `wire-truncation` | bare `as` truncation of wire-format fields |
//! | `libm-in-datapath` | `.ln()`/`.exp()`/`.cos()`/`.sin()`/`.powf()` in non-test code of the per-event crates ([`DATAPATH_CRATES`]); a host-cost rule, never a taint source |
//! | `dropped-refusal` | `let _ =` or `.ok()` on a group issue (`gwrite`, `append`, `wr_unlock`, …) in non-test code of the sim crates: the refusal is lost and the completion never fires; never a taint source |
//! | `taint` | entry point transitively reaching any source above |
//! | `taint-panic` | NIC handler transitively reaching an unsuppressed panic site |
//!
//! **Pass 2 — wire-format layout verifier.** [`layout`] parses the
//! descriptor/offset constants out of hl-rnic's `wqe.rs` and
//! hyperloop's `metadata.rs`/`naive.rs`, reconstructs each
//! descriptor's field map, and fails on overlapping ranges, fields
//! exceeding the declared descriptor size, width drift on a logical
//! field across crates, or a `group.rs` scatter entry binding
//! mismatched fields.
//!
//! **Pass 3 — unused functions.** [`unused`] flags a `fn` in
//! `crates/*/src` whose name no other token in the workspace's Rust
//! sources mentions (name-based; trait-impl methods and `main` exempt).
//!
//! Escape hatch: `// hl-lint: allow(<rule>)` — trailing on the
//! offending line, or on its own line covering exactly the **next
//! statement or item** (not the rest of the file). Taint chains are
//! suppressible only at the source. Each allow should say *why* in
//! the surrounding comment.
//!
//! Run with `cargo run -p hl-analysis -- check`, `-- layout` and
//! `-- unused`; CI runs all three on every push. The tool exits non-zero when any finding
//! survives.

#![warn(missing_docs)]

pub mod layout;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod taint;
pub mod unused;

pub use rules::{check_source, Finding, RULES};
pub use unused::unused_workspace;

use std::path::{Path, PathBuf};

/// The sim-core crates the determinism rules apply to. Tooling
/// (`hl-analysis` itself), wall-clock benchmarks (`hl-bench`) and the
/// workload generator (`hl-ycsb`, which only feeds the sim through
/// seeded streams) are deliberately out of scope for *direct* lexical
/// findings, but still parsed into the call graph so a sim-crate
/// handler calling into them is caught by the taint pass.
pub const SIM_CRATES: &[&str] = &[
    "hl-sim",
    "hl-nvm",
    "hl-fabric",
    "hl-cpu",
    "hl-rnic",
    "hl-cluster",
    "hyperloop",
    "hl-store",
];

/// The crates whose code runs once per simulated event, WQE or packet:
/// the scope of `libm-in-datapath`. `hl-nvm` and `hl-store` are left
/// out (byte copies and per-operation application code, no float
/// math to police).
pub const DATAPATH_CRATES: &[&str] = &[
    "hl-sim",
    "hl-rnic",
    "hl-fabric",
    "hl-cpu",
    "hl-cluster",
    "hyperloop",
];

/// Lint every sim-core crate under workspace `root`: lexical rules on
/// sim-crate sources, then the transitive taint pass over the whole
/// workspace call graph. Returns all findings; a missing sim crate is
/// an I/O error, so a renamed crate cannot silently drop out of
/// coverage.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let crates = taint::discover_crates(root, SIM_CRATES)?;
    for krate in SIM_CRATES {
        if !crates.iter().any(|c| c.name == *krate) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "sim crate `{krate}` not found under {}/crates",
                    root.display()
                ),
            ));
        }
    }
    let model = taint::build_model(root, &crates)?;
    let mut findings = model.direct.clone();
    findings.extend(taint::taint_findings(&model, true));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(findings)
}

/// Run the wire-format layout verifier over workspace `root` with the
/// built-in descriptor schema.
pub fn layout_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    layout::verify(root, &layout::builtin_schema())
}

/// Locate the workspace root from the current directory (walk up until
/// a `Cargo.toml` with a `[workspace]` table is found).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Markdown summary table (rule → finding count) for CI job summaries.
pub fn summary_table(findings: &[Finding]) -> String {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (rule, _) in RULES {
        counts.insert(rule, 0);
    }
    for rule in [
        "taint",
        "taint-panic",
        "layout-overlap",
        "layout-bounds",
        "layout-mismatch",
        "layout-missing",
        unused::RULE,
    ] {
        counts.insert(rule, 0);
    }
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    let mut s = String::from("| rule | findings |\n|---|---|\n");
    for (rule, n) in &counts {
        s.push_str(&format!("| `{rule}` | {n} |\n"));
    }
    s.push_str(&format!("| **total** | **{}** |\n", findings.len()));
    s
}
