//! Gray-failure campaign harness.
//!
//! Runs the impairment matrix (baseline, jitter, lossy link, rate cap,
//! straggler NIC) against three backends (offloaded HyperLoop, Naïve
//! CPU forwarding, HyperLoop + health-driven degrade), then the
//! crashed-host live-rejoin case with its fault-free control, and
//! writes:
//!
//! * `results/gray_chaos.txt` — the latency table plus per-point report
//!   lines (the deterministic artifact CI checks).
//! * `BENCH_6.json` — machine-readable summary (p50/p99 per class per
//!   backend, degrade counts, rejoin verdicts) for the CI job summary.
//!
//! `HL_GRAY_OPS` overrides ops per point (CI uses a small value).

use hl_bench::gray::{
    impairment_classes, run_excursion_case, run_gray_point, run_rejoin_case, GrayBackend, GrayCfg,
    GrayPoint,
};
use hl_bench::table::Table;

fn main() {
    let ops: usize = std::env::var("HL_GRAY_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let cfg = GrayCfg {
        ops,
        ..Default::default()
    };
    let backends = [GrayBackend::Hyper, GrayBackend::Naive, GrayBackend::Degrade];
    let classes = impairment_classes();

    let mut points: Vec<GrayPoint> = Vec::new();
    for (class, faults) in &classes {
        for b in backends {
            points.push(run_gray_point(class, faults, b, &cfg));
        }
    }

    let mut table = Table::new(&[
        "class", "backend", "p50 us", "p99 us", "failed", "degr", "prom",
    ]);
    for p in &points {
        table.row(&[
            p.class.to_string(),
            p.backend.label().to_string(),
            format!("{:.1}", p.latency.p50_ns as f64 / 1e3),
            format!("{:.1}", p.latency.p99_ns as f64 / 1e3),
            format!("{}", p.failed_ops),
            format!("{}", p.degrades),
            format!("{}", p.promotes),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");

    // Crashed-host live-rejoin vs its fault-free control.
    let rejoin = run_rejoin_case(cfg.seed, 200.min(ops.max(50)), true);
    let control = run_rejoin_case(cfg.seed, 200.min(ops.max(50)), false);
    let bystander_identical = rejoin.bystander_latencies == control.bystander_latencies;
    println!(
        "rejoin: victim acked={} failed={} members={:?} rejoined={} bystander_identical={}",
        rejoin.victim_acked,
        rejoin.victim_failed,
        rejoin.victim_members,
        rejoin.rejoined,
        bystander_identical
    );

    // SLO-excursion round trip, run twice: the snapshot must be
    // byte-identical across same-seed re-runs, and the causal chain
    // (p99 excursion window → slo:fire: → Degrading) must hold.
    let exc_ops = ops.max(500);
    let exc = run_excursion_case(cfg.seed, exc_ops);
    let exc2 = run_excursion_case(cfg.seed, exc_ops);
    println!("{}", exc.report);
    let snapshot_identical = exc.snapshot_json == exc2.snapshot_json;

    let mut txt = String::new();
    txt.push_str("# Gray-failure campaign: end-to-end supervised latency per impairment class\n");
    txt.push_str(&format!(
        "# cfg: ops={} pipeline={} write={}B seed={}\n",
        cfg.ops, cfg.pipeline, cfg.write_size, cfg.seed
    ));
    txt.push_str(&rendered);
    txt.push('\n');
    for p in &points {
        txt.push_str(&format!("{}\n", p.report));
    }
    txt.push_str(&format!(
        "\nrejoin victim_acked={} victim_failed={} rejoined={} bystander_identical={}\n",
        rejoin.victim_acked, rejoin.victim_failed, rejoin.rejoined, bystander_identical
    ));
    txt.push_str(&format!(
        "\n{}\nsnapshot_identical={snapshot_identical}\n",
        exc.report
    ));
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/gray_chaos.txt", &txt).expect("write results/gray_chaos.txt");
    std::fs::write("results/timeseries_excursion.json", &exc.snapshot_json)
        .expect("write results/timeseries_excursion.json");

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"baseline\": \"{}\",\n",
        hl_bench::SIM_CLOCK_BASELINE
    ));
    json.push_str(&format!("  \"ops\": {},\n", cfg.ops));
    json.push_str(&format!(
        "  \"classes\": [{}],\n",
        classes
            .iter()
            .map(|(c, _)| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"backends\": [{}],\n",
        backends
            .iter()
            .map(|b| format!("\"{}\"", b.label()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (key, pick) in [("p50_us", true), ("p99_us", false)] {
        json.push_str(&format!("  \"{key}\": {{\n"));
        let rows: Vec<String> = classes
            .iter()
            .map(|(class, _)| {
                let cells: Vec<String> = backends
                    .iter()
                    .map(|b| {
                        let p = points
                            .iter()
                            .find(|p| p.class == *class && p.backend == *b)
                            .expect("point ran");
                        let ns = if pick {
                            p.latency.p50_ns
                        } else {
                            p.latency.p99_ns
                        };
                        format!("\"{}\": {:.1}", b.label(), ns as f64 / 1e3)
                    })
                    .collect();
                format!("    \"{class}\": {{{}}}", cells.join(", "))
            })
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  },\n");
    }
    json.push_str(&format!(
        "  \"degrades\": {{{}}},\n",
        classes
            .iter()
            .map(|(class, _)| {
                let p = points
                    .iter()
                    .find(|p| p.class == *class && p.backend == GrayBackend::Degrade)
                    .expect("point ran");
                format!("\"{class}\": {}", p.degrades)
            })
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        concat!(
            "  \"rejoin\": {{\n",
            "    \"victim_acked\": {},\n",
            "    \"victim_failed\": {},\n",
            "    \"rejoined\": {},\n",
            "    \"bystander_byte_identical\": {}\n",
            "  }},\n",
        ),
        rejoin.victim_acked, rejoin.victim_failed, rejoin.rejoined, bystander_identical
    ));
    json.push_str(&format!(
        concat!(
            "  \"excursion\": {{\n",
            "    \"ops\": {},\n",
            "    \"excursion_window\": {},\n",
            "    \"excursion_end_ns\": {},\n",
            "    \"slo_fire_ns\": {},\n",
            "    \"degrading_ns\": {},\n",
            "    \"degrades\": {},\n",
            "    \"promotes\": {},\n",
            "    \"snapshot_byte_identical\": {}\n",
            "  }}\n",
        ),
        exc_ops,
        exc.excursion_window,
        exc.excursion_end_ns,
        exc.slo_fire_ns.map_or(-1, |v| v as i64),
        exc.degrading_ns.map_or(-1, |v| v as i64),
        exc.degrades,
        exc.promotes,
        snapshot_identical
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_6.json", json).expect("write BENCH_6.json");
    println!("wrote results/gray_chaos.txt and BENCH_6.json");

    // The campaign's own floor: every op settles, the rejoin really
    // happens, and the victim's churn never leaks into the bystander.
    for p in &points {
        assert_eq!(p.failed_ops, 0, "{}: ops failed", p.report);
    }
    assert!(rejoin.rejoined, "crashed host did not rejoin the chain");
    assert_eq!(rejoin.victim_failed, 0, "victim ops failed across rejoin");
    assert_eq!(rejoin.bystander_failed, 0);
    assert!(
        bystander_identical,
        "bystander latencies perturbed by the victim's crash/rejoin"
    );

    // The excursion's own floor: the snapshot is replay-identical and
    // the causal chain (p99 excursion window ends before the alert
    // fires, which precedes the Degrading transition) holds, with the
    // round trip completing.
    assert!(
        snapshot_identical,
        "excursion time-series snapshot differs across same-seed re-runs"
    );
    let fire = exc.slo_fire_ns.expect("SLO alert fired");
    let degrading = exc.degrading_ns.expect("monitor degraded");
    assert!(
        exc.excursion_end_ns > 0 && exc.excursion_end_ns <= fire,
        "p99 excursion window (ends {}) must close before the alert fires ({fire})",
        exc.excursion_end_ns
    );
    assert!(
        fire < degrading,
        "SLO alert ({fire}) must precede the Degrading transition ({degrading})"
    );
    assert!(exc.degrades >= 1 && exc.promotes >= 1, "no round trip");
    assert_eq!(exc.ops_failed, 0, "excursion ops failed");
}
