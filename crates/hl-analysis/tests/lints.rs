//! Lint self-tests: every rule fires on its fixture, the allow-comment
//! escape hatch suppresses it, and the real workspace is clean.

use std::path::Path;

fn check_fixture(name: &str) -> Vec<hl_analysis::Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    hl_analysis::check_source(name, &src)
}

/// Each fixture contains one bare violation (must fire) and at least
/// one allow-annotated copy of the same pattern (must not fire).
macro_rules! fixture_tests {
    ($($test:ident: $file:expr => $rule:expr,)*) => {$(
        #[test]
        fn $test() {
            let findings = check_fixture($file);
            assert_eq!(
                findings.len(),
                1,
                "{} should yield exactly the un-allowed finding, got: {findings:#?}",
                $file
            );
            assert_eq!(findings[0].rule, $rule);
        }
    )*}
}

fixture_tests! {
    hash_collections_fixture: "hash_collections.rs" => "hash-collections",
    wall_clock_fixture: "wall_clock.rs" => "wall-clock",
    os_entropy_fixture: "os_entropy.rs" => "os-entropy",
    thread_spawn_fixture: "thread_spawn.rs" => "thread-spawn",
    thread_scope_fixture: "thread_scope.rs" => "thread-spawn",
    float_time_fixture: "float_time.rs" => "float-time",
    panic_in_handler_fixture: "panic_in_handler.rs" => "panic-in-handler",
    rand_raw_fixture: "rand_raw.rs" => "rand-raw",
    wire_truncation_fixture: "wire_truncation.rs" => "wire-truncation",
    libm_in_datapath_fixture: "libm_in_datapath.rs" => "libm-in-datapath",
    dropped_refusal_let_fixture: "dropped_refusal_let.rs" => "dropped-refusal",
    dropped_refusal_ok_fixture: "dropped_refusal_ok.rs" => "dropped-refusal",
}

/// `unused` flags exactly the function nothing mentions, and names it.
#[test]
fn unused_fixture() {
    let name = "unused.rs";
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    let findings = hl_analysis::unused::check_source(name, &src);
    assert_eq!(findings.len(), 1, "got: {findings:#?}");
    assert_eq!(findings[0].rule, "unused");
    assert!(findings[0].message.contains("`nobody_calls_this`"));
}

/// Every rule name used by a fixture is registered in [`hl_analysis::RULES`]
/// (so `rules` output and allow-comments stay in sync with the engine).
#[test]
fn fixture_rules_are_registered() {
    let registered: Vec<&str> = hl_analysis::RULES.iter().map(|(n, _)| *n).collect();
    for rule in [
        "hash-collections",
        "wall-clock",
        "os-entropy",
        "thread-spawn",
        "float-time",
        "panic-in-handler",
        "rand-raw",
        "wire-truncation",
        "libm-in-datapath",
        "dropped-refusal",
    ] {
        assert!(registered.contains(&rule), "{rule} not in RULES");
    }
}

/// The acceptance gate: the actual sim-core crates pass the lints. This
/// runs the same walk as `cargo run -p hl-analysis -- check`, so plain
/// `cargo test` enforces workspace conformance too.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let findings = hl_analysis::check_workspace(root).expect("sim-core crates readable");
    assert!(
        findings.is_empty(),
        "determinism lints failed on the workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// No function in `crates/*/src` is dead by name: the same walk as
/// `cargo run -p hl-analysis -- unused`.
#[test]
fn workspace_has_no_unused_fns() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let findings = hl_analysis::unused_workspace(root).expect("workspace readable");
    assert!(
        findings.is_empty(),
        "functions nothing mentions:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
