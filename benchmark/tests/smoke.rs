//! `--quick` smoke: one round of 1/50 of the operations per workload,
//! all output checks on, through the same commands a user types.

use hl_benchmark::json::Json;
use std::path::Path;
use std::process::Command;

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hl-benchmark"))
        .args(args)
        .output()
        .expect("run hl-benchmark");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn last_line(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().unwrap_or("")).expect("last line is JSON")
}

#[test]
fn all_quick_runs_every_workload_with_checks_on_and_compares_clean() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let (a, b) = (out.join("smoke_a.json"), out.join("smoke_b.json"));
    for path in [&a, &b] {
        let (ok, stdout) = bench(&[
            "all",
            "--quick",
            "--seed",
            "5",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(ok, "all --quick failed:\n{stdout}");
    }
    let result = Json::parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
    let workloads = result.get("workloads").unwrap().entries();
    assert_eq!(workloads.len(), 5);
    for (name, w) in workloads {
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(w.num_at("failed"), 0.0, "{name}");
        assert_eq!(w.get("end_to_end").unwrap().entries().len(), 8, "{name}");
        assert_eq!(w.get("per_layer").unwrap().entries().len(), 69, "{name}");
        let trace = out.join(format!("trace_{name}.json"));
        assert!(
            trace.metadata().unwrap().len() > 0,
            "{name} wrote its trace"
        );
    }
    // The layers separate: WAIT only where the NIC chain runs, replica
    // context switches only where CPUs forward, retries only under loss,
    // store counters only under the store.
    let layer = |w: &str, m: &str| {
        result
            .get("workloads")
            .unwrap()
            .get(w)
            .unwrap()
            .get("per_layer")
            .unwrap()
            .num_at(m)
    };
    assert!(layer("gwrite_chain", "hl-rnic.wait_fires_per_op") > 0.0);
    assert_eq!(layer("naive_tenants", "hl-rnic.wait_fires_per_op"), 0.0);
    assert_eq!(layer("gwrite_chain", "hl-cpu.ctx_switches_per_op"), 0.0);
    assert!(layer("naive_tenants", "hl-cpu.ctx_switches_per_op") > 0.0);
    assert!(layer("lossy_chain", "hl-rnic.retransmits_per_kop") > 0.0);
    assert_eq!(layer("sharded_router", "hl-rnic.retransmits_per_kop"), 0.0);
    assert!(layer("ycsb_a_doc", "hl-store.gwrites_per_op") > 0.0);
    assert_eq!(layer("gwrite_chain", "hl-store.gwrites_per_op"), 0.0);

    // Two runs of one seed: the simulated side is identical. (Host-clock
    // verdicts of 20 ms rounds are noise, so the exit code is pinned
    // only for a file against itself.)
    let (_, table) = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(table.matches("counters: identical").count(), 5, "{table}");
    let (same, _) = bench(&["compare", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(same);
}

#[test]
fn driver_mode_prints_the_contract_line() {
    for (trace, keys) in [("0", 7), ("1", 69)] {
        let (ok, stdout) = bench(&[
            "--workload",
            "sharded_router",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(ok, "{stdout}");
        let line = last_line(&stdout);
        let names: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.num_at("attempted") >= 1.0);
        assert_eq!(line.num_at("failed"), 0.0);
        let metrics = line.get("metrics").unwrap().entries();
        assert_eq!(metrics.len(), keys);
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Json::num).is_some(), "{name}");
            assert!(m.get("unit").and_then(Json::str).is_some(), "{name}");
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    assert!(!bench(&["--workload", "nope"]).0);
    assert!(!bench(&["--workload", "gwrite_chain", "--trace", "2"]).0);
    assert!(!bench(&["compare", "only-one.json"]).0);
    assert!(!bench(&["frobnicate"]).0);
}
