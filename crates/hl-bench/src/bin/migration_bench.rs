//! Live-migration campaign harness.
//!
//! Runs the three-shard split-under-traffic campaign and its
//! no-migration control (same seed), then writes:
//!
//! * `results/migration.txt` — the per-shard latency table plus the
//!   disruption / bystander verdict lines (the deterministic artifact
//!   CI checks and EXPERIMENTS.md quotes).
//! * `BENCH_10.json` — machine-readable summary: the migrating shard's
//!   p99-during-migration / steady-state-p99 disruption ratio, and the
//!   bystander ratio (exactly 1.0 — the bystander latency vectors are
//!   byte-identical to the control, and the ratio is computed from the
//!   two vectors).
//!
//! `HL_MIGRATION_OPS` overrides ops per run (CI uses a small value).

use hl_bench::migration::{
    check_oracle, p99_ns, run_migration_campaign, split_window, verdict, MigrationCfg,
};
use hl_bench::table::Table;

fn main() {
    let ops: usize = std::env::var("HL_MIGRATION_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let cfg = MigrationCfg {
        ops,
        ..Default::default()
    };

    let mig = run_migration_campaign(&cfg, true);
    let control = run_migration_campaign(&cfg, false);
    let v = verdict(&mig, &control);

    let mut table = Table::new(&["shard", "phase", "ops", "p99 us"]);
    for (sid, name) in [(0usize, "migrating"), (1, "bystander"), (2, "bystander")] {
        let (during, steady) = split_window(&mig.latencies[sid], mig.t_split_ns, mig.t_retired_ns);
        for (phase, lat) in [("steady", &steady), ("migration", &during)] {
            table.row(&[
                format!("{sid} ({name})"),
                phase.to_string(),
                format!("{}", lat.len()),
                format!("{:.1}", p99_ns(lat) as f64 / 1e3),
            ]);
        }
    }
    let rendered = table.render();
    println!("{rendered}");

    let report = format!(
        "migration seed={} ops={} acked={} failed={} epoch={} window_us={} \
         during_ops={} steady_ops={} during_p99_us={:.1} steady_p99_us={:.1} \
         disruption_ratio={:.2} bystander_identical={} bystander_ratio={:.1}",
        cfg.seed,
        cfg.ops,
        mig.acked,
        mig.failed,
        mig.epoch,
        v.window_ns / 1_000,
        v.during_ops,
        v.steady_ops,
        v.during_p99_ns as f64 / 1e3,
        v.steady_p99_ns as f64 / 1e3,
        v.disruption_ratio,
        v.bystander_identical,
        v.bystander_ratio,
    );
    println!("{report}");

    let mut txt = String::new();
    txt.push_str("# Live-migration campaign: shard 0 split under open-loop traffic\n");
    txt.push_str(&format!("# cfg: ops={} seed={}\n", cfg.ops, cfg.seed));
    txt.push_str(&rendered);
    txt.push('\n');
    txt.push_str(&report);
    txt.push('\n');
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/migration.txt", &txt).expect("write results/migration.txt");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"BENCH_10\",\n",
            "  \"baseline\": \"{}\",\n",
            "  \"ops\": {},\n",
            "  \"seed\": {},\n",
            "  \"migration\": {{\n",
            "    \"completed\": {},\n",
            "    \"epoch\": {},\n",
            "    \"t_split_ns\": {},\n",
            "    \"t_retired_ns\": {},\n",
            "    \"window_us\": {}\n",
            "  }},\n",
            "  \"migrating_shard\": {{\n",
            "    \"during_ops\": {},\n",
            "    \"steady_ops\": {},\n",
            "    \"during_p99_us\": {:.1},\n",
            "    \"steady_p99_us\": {:.1},\n",
            "    \"disruption_ratio\": {:.2}\n",
            "  }},\n",
            "  \"bystanders\": {{\n",
            "    \"byte_identical\": {},\n",
            "    \"p99_us\": {:.1},\n",
            "    \"ratio_vs_control\": {:.1}\n",
            "  }}\n",
            "}}\n",
        ),
        hl_bench::SIM_CLOCK_BASELINE,
        cfg.ops,
        cfg.seed,
        mig.migrated,
        mig.epoch,
        mig.t_split_ns,
        mig.t_retired_ns,
        v.window_ns / 1_000,
        v.during_ops,
        v.steady_ops,
        v.during_p99_ns as f64 / 1e3,
        v.steady_p99_ns as f64 / 1e3,
        v.disruption_ratio,
        v.bystander_identical,
        v.bystander_p99_ns as f64 / 1e3,
        v.bystander_ratio,
    );
    std::fs::write("BENCH_10.json", json).expect("write BENCH_10.json");
    println!("wrote results/migration.txt and BENCH_10.json");

    // The campaign's own floor: the split completes with one flip,
    // every op acks, the oracle holds on both runs, the window really
    // spans paced traffic, and the bystanders are provably untouched.
    assert!(mig.migrated, "split did not complete");
    assert_eq!(mig.epoch, 1, "exactly one router flip");
    assert_eq!(control.epoch, 0, "control must not flip");
    assert_eq!(mig.failed, 0, "migrating run failed ops");
    assert_eq!(control.failed, 0, "control run failed ops");
    assert_eq!(mig.acked, cfg.ops, "migrating run lost acks");
    assert_eq!(control.acked, cfg.ops, "control run lost acks");
    check_oracle(&mig, cfg.ops).expect("migrating run oracle");
    check_oracle(&control, cfg.ops).expect("control run oracle");
    assert!(
        v.during_ops >= 5,
        "migration window caught only {} migrating-shard ops; widen REP_BYTES",
        v.during_ops
    );
    assert!(v.steady_ops > 0 && v.steady_p99_ns > 0);
    assert!(
        v.bystander_identical,
        "bystander latencies perturbed by the neighbour's migration"
    );
    assert_eq!(
        v.bystander_ratio, 1.0,
        "bystander ratio must be exactly 1.0"
    );
}
