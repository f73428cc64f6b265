//! `BENCHMARK.json` and the binary must describe the same benchmark.

use hl_benchmark::json::{obj, Json};
use hl_benchmark::metrics::{Def, DRIVER_OMITS, END_TO_END, PER_LAYER};
use hl_benchmark::round::Workload;
use std::path::Path;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside benchmark/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// The dictionary as `BENCHMARK.json` must list it.
fn listed(defs: &[Def], bounded: bool) -> Json {
    Json::Arr(
        defs.iter()
            .filter(|d| d.name != DRIVER_OMITS)
            .map(|d| {
                let mut kv = vec![
                    ("name", Json::from(d.name)),
                    ("unit", Json::from(d.unit)),
                    ("better", Json::from(d.better.word())),
                ];
                if bounded {
                    kv.push(("bound", Json::from(d.bound)));
                }
                obj(kv)
            })
            .collect(),
    )
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let manifest = manifest();
    let keys: Vec<&str> = manifest.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn manifest_lists_what_the_binary_measures() {
    let manifest = manifest();
    let workloads = Workload::ALL
        .iter()
        .map(|w| obj([("name", Json::from(w.name())), ("why", Json::from(w.why()))]))
        .collect();
    assert_eq!(manifest.get("workloads"), Some(&Json::Arr(workloads)));
    assert_eq!(manifest.get("end_to_end"), Some(&listed(&END_TO_END, true)));
    assert_eq!(manifest.get("per_layer"), Some(&listed(&PER_LAYER, false)));
}

#[test]
fn bounds_and_names_fit_the_contract() {
    for d in END_TO_END.iter().filter(|d| d.name != DRIVER_OMITS) {
        assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    let fits = |s: &str, extra: &str, max: usize| {
        s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(fits(d.name, "_.-", 64), "name {}", d.name);
        assert!(fits(d.unit, "_/%.-", 16), "unit {}", d.unit);
    }
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
    }
}
