//! The release profile lives in one file.
//!
//! Every published number — the `benchmark/` rows BENCHMARK.json
//! produces, `results/*.txt`, `BENCH_*.json` — comes from a `--release`
//! build, and two cargo workspaces make those builds: the root one and
//! the out-of-workspace `benchmark/` package. A `[profile]` table in a
//! manifest stops at its own workspace, so the profile is set where
//! both builds find it: `/.cargo/config.toml`, which cargo reads from
//! the cwd upward (DESIGN.md §11.1).
//!
//! This suite pins that to one place: the config file carries exactly
//! `lto = "fat"`, `codegen-units = 1`, `panic = "abort"` under
//! `[profile.release]` and no other profile table, and no manifest of
//! either workspace carries a profile table at all — a later change
//! cannot quietly give the two workspaces different builds. That the
//! flags actually reach rustc for `benchmark/` is CI's job (perf-smoke
//! greps the `-v` build line); this only reads files.

use std::fs;
use std::path::{Path, PathBuf};

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The lines of a TOML file that set a build profile — a `[profile…]`
/// header, a key under one, or a dotted `profile.x.y = …` key at the
/// top level — normalised to `[table]` / `[table] key = value`. Plain
/// string scanning: none of the files read here has a `#` inside a
/// string or a multi-line value outside an array of plain strings.
fn profile_lines(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut table = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let in_profile = |table: &str| table == "profile" || table.starts_with("profile.");
        if let Some(header) = line.strip_prefix('[') {
            table = header.trim_matches(['[', ']']).trim().to_string();
            if in_profile(&table) {
                out.push(format!("[{table}]"));
            }
        } else if let Some((k, v)) = line.split_once('=') {
            if in_profile(&table) || (table.is_empty() && in_profile(k.trim())) {
                out.push(format!("[{table}] {} = {}", k.trim(), v.trim()));
            }
        }
    }
    out
}

fn manifests() -> Vec<PathBuf> {
    let mut all = vec![
        repo().join("Cargo.toml"),
        repo().join("benchmark/Cargo.toml"),
    ];
    let crates = fs::read_dir(repo().join("crates")).expect("crates/ is readable");
    for dir in crates {
        let manifest = dir.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            all.push(manifest);
        }
    }
    all
}

#[test]
fn cargo_config_carries_exactly_the_release_profile() {
    let mut got = profile_lines(&repo().join(".cargo/config.toml"));
    got.sort();
    assert_eq!(
        got,
        [
            "[profile.release]",
            "[profile.release] codegen-units = 1",
            "[profile.release] lto = \"fat\"",
            "[profile.release] panic = \"abort\"",
        ],
        ".cargo/config.toml must set [profile.release] to fat LTO, one codegen unit and \
         abort-on-panic, and set no other profile key (DESIGN.md §11.1)"
    );
}

#[test]
fn no_manifest_carries_a_profile_table() {
    let manifests = manifests();
    // Root, benchmark, and the twelve workspace crates.
    assert!(manifests.len() >= 14, "found only {manifests:?}");
    for manifest in manifests {
        assert_eq!(
            profile_lines(&manifest),
            [""; 0],
            "{} sets a build profile; the release profile belongs in .cargo/config.toml, \
             the one file both workspaces read",
            manifest.display()
        );
    }
}
