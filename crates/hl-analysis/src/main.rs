//! CLI for the workspace static analysis.
//!
//! ```text
//! cargo run -p hl-analysis -- check  [ROOT] [--summary md]  # lints + taint pass
//! cargo run -p hl-analysis -- layout [ROOT] [--summary md]  # wire-format verifier
//! cargo run -p hl-analysis -- unused [ROOT] [--summary md]  # functions nothing mentions
//! cargo run -p hl-analysis -- rules                         # list the rules
//! ```
//!
//! The three analysis subcommands exit 1 when any finding survives the
//! allow-comments. `--summary md` appends a markdown rule → count
//! table to stdout (meant for `$GITHUB_STEP_SUMMARY` in CI).

use std::path::PathBuf;
use std::process::ExitCode;

fn resolve_root(arg: Option<&String>) -> Result<PathBuf, String> {
    match arg {
        Some(p) => Ok(PathBuf::from(p)),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            hl_analysis::find_workspace_root(&cwd)
                .ok_or_else(|| format!("no workspace root found above {}", cwd.display()))
        }
    }
}

fn run(
    args: &[String],
    what: &str,
    f: impl Fn(&std::path::Path) -> std::io::Result<Vec<hl_analysis::Finding>>,
) -> ExitCode {
    let mut positional: Vec<&String> = Vec::new();
    let mut summary_md = false;
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        if a == "--summary" {
            summary_md = iter.next().is_some_and(|v| v == "md");
        } else if a == "--summary=md" {
            summary_md = true;
        } else if !a.starts_with("--") {
            positional.push(a);
        }
    }
    let root = match resolve_root(positional.first().copied()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let findings = match f(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if summary_md {
        println!("\n### hl-analysis `{what}`\n");
        println!("{}", hl_analysis::summary_table(&findings));
    }
    if findings.is_empty() {
        println!("hl-analysis {what}: clean");
        ExitCode::SUCCESS
    } else {
        println!("hl-analysis {what}: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            for (name, desc) in hl_analysis::RULES {
                println!("{name:18} {desc}");
            }
            println!("{:18} entry point transitively reaches a nondeterminism source (chain reported; suppress at the source)", "taint");
            println!(
                "{:18} NIC handler transitively reaches an unsuppressed panic site",
                "taint-panic"
            );
            println!(
                "{:18} two fields of one descriptor occupy the same bytes",
                "layout-overlap"
            );
            println!(
                "{:18} field extends past the declared descriptor size",
                "layout-bounds"
            );
            println!(
                "{:18} logical field bound inconsistently across crates / scatter width drift",
                "layout-mismatch"
            );
            println!(
                "{:18} schema'd constant no longer found in source",
                "layout-missing"
            );
            println!(
                "{:18} fn in crates/*/src whose name no other workspace token mentions",
                hl_analysis::unused::RULE
            );
            ExitCode::SUCCESS
        }
        Some("check") => run(&args[1..], "check", hl_analysis::check_workspace),
        Some("layout") => run(&args[1..], "layout", hl_analysis::layout_workspace),
        Some("unused") => run(&args[1..], "unused", hl_analysis::unused_workspace),
        _ => {
            eprintln!(
                "usage: hl-analysis <check [ROOT] | layout [ROOT] | unused [ROOT] | rules> [--summary md]"
            );
            ExitCode::FAILURE
        }
    }
}
