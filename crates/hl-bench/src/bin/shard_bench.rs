//! Sharded-campaign scaling harness.
//!
//! Runs the multi-group campaign at 1/2/4/8 shards, prints the scaling
//! table, re-runs the 8-shard point to prove byte-identical determinism
//! under the same seed, and writes:
//!
//! * `results/shard_scaling.txt` — the table plus the per-point report
//!   lines (the deterministic artifact CI checks).
//! * `SHARD_BENCH.json` — machine-readable summary (per-point kops,
//!   8v1 speedup, byte-identity flag) for the CI job summary.
//!
//! `HL_SHARD_OPS` overrides ops/shard (CI uses a small value for the
//! mini-campaign; the default is the full table in EXPERIMENTS.md).

use hl_bench::shard::{run_shard_campaign, scaling_sweep, ShardCampaignCfg};
use hl_bench::table::Table;

fn main() {
    let ops: usize = std::env::var("HL_SHARD_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000);
    let base = ShardCampaignCfg {
        ops_per_shard: ops,
        telemetry: true,
        ..Default::default()
    };
    let counts = [1usize, 2, 4, 8];

    let (results, speedup) = scaling_sweep(&base, &counts);

    let mut table = Table::new(&["shards", "agg Kops/s", "speedup", "p50 us", "p99 us"]);
    let base_kops = results[0].agg_kops;
    for r in &results {
        table.row(&[
            format!("{}", r.n_shards),
            format!("{:.1}", r.agg_kops),
            format!("{:.2}x", r.agg_kops / base_kops),
            format!("{:.1}", r.latency.p50_ns as f64 / 1e3),
            format!("{:.1}", r.latency.p99_ns as f64 / 1e3),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    println!("8-shard vs 1-shard aggregate speedup: {speedup:.2}x");

    // Determinism: the 8-shard point re-run under the same seed must
    // produce a byte-identical report (and metrics dump).
    let eight = ShardCampaignCfg {
        n_shards: 8,
        ops_per_shard: ops,
        telemetry: true,
        ..Default::default()
    };
    let rerun = run_shard_campaign(&eight);
    let first = results.last().expect("sweep ran");
    let byte_identical = rerun.report == first.report && rerun.metrics == first.metrics;
    println!(
        "8-shard same-seed re-run byte-identical: {}",
        if byte_identical { "yes" } else { "NO" }
    );

    // Per-shard router telemetry from the 8-shard run (shard= labels).
    let shard_counters: Vec<String> = rerun
        .metrics
        .as_deref()
        .unwrap_or("")
        .lines()
        .filter(|l| l.contains("router_ops") && l.contains("shard="))
        .map(str::to_string)
        .collect();

    let mut txt = String::new();
    txt.push_str("# Sharded campaign: aggregate gWRITE throughput, 1 -> 8 groups\n");
    txt.push_str(&format!(
        "# cfg: replicas/shard={} ops/shard={} pipeline={} write={}B ring={} seed={}\n",
        base.replicas_per_shard, ops, base.pipeline, base.write_size, base.ring_slots, base.seed
    ));
    txt.push_str(&rendered);
    txt.push_str(&format!(
        "\n8-shard vs 1-shard aggregate speedup: {speedup:.2}x\n"
    ));
    txt.push_str(&format!(
        "8-shard same-seed re-run byte-identical: {byte_identical}\n\n"
    ));
    for r in &results {
        txt.push_str(&format!("{}\n", r.report));
    }
    txt.push_str("\n# per-shard router counters (8-shard run)\n");
    for l in &shard_counters {
        txt.push_str(&format!("{l}\n"));
    }
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/shard_scaling.txt", &txt).expect("write results/shard_scaling.txt");

    let json = format!(
        concat!(
            "{{\n",
            "  \"baseline\": \"{}\",\n",
            "  \"ops_per_shard\": {},\n",
            "  \"points\": [{}],\n",
            "  \"agg_kops\": [{}],\n",
            "  \"speedup_8v1\": {:.3},\n",
            "  \"byte_identical\": {}\n",
            "}}\n"
        ),
        hl_bench::SIM_CLOCK_BASELINE,
        ops,
        counts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        results
            .iter()
            .map(|r| format!("{:.1}", r.agg_kops))
            .collect::<Vec<_>>()
            .join(", "),
        speedup,
        byte_identical
    );
    std::fs::write("SHARD_BENCH.json", json).expect("write SHARD_BENCH.json");
    println!("wrote results/shard_scaling.txt and SHARD_BENCH.json");

    assert!(
        speedup >= 6.0,
        "8-shard aggregate speedup {speedup:.2}x below the 6x floor"
    );
    assert!(byte_identical, "same-seed re-run diverged");
}
