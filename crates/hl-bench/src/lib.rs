//! # hl-bench — the experiment harness
//!
//! Reproduces every figure and table of the paper's evaluation (§6) on
//! the simulated testbed. Each `src/bin/fig*.rs` regenerates one paper
//! artifact and prints the same rows/series the paper reports;
//! `EXPERIMENTS.md` records paper-vs-measured.
//!
//! * [`micro`] — Figures 8/9/10, Table 2 (primitive latency, throughput,
//!   CPU, group-size scaling).
//! * [`apps`] — Figure 2 (native MongoDB-style multi-tenancy), Figure 11
//!   (kvlite/RocksDB), Figure 12 (doclite/MongoDB across YCSB mixes).
//! * [`gray`] — gray-failure campaign: tail latency per impairment
//!   class per backend, the crashed-host live-rejoin case, and the
//!   SLO-excursion round trip.
//! * [`migration`] — live shard split under traffic: disruption ratio
//!   for the migrating shard, byte-identical bystanders.
//! * [`timeline`] — per-shard p50/p99-over-time rendering with fault
//!   marks overlaid.
//! * [`table`] — plain-text table rendering.

#![warn(missing_docs)]

/// Which recording of the simulated clock the stored sim-time artefacts
/// (`BENCH_6.json`, `BENCH_10.json`, `SHARD_BENCH.json`, `results/*`)
/// belong to; written into the JSON ones. Change it only in a PR that
/// means to move simulated time and regenerates them all.
pub const SIM_CLOCK_BASELINE: &str =
    "re-baselined at PR 15 (sampler change, distribution-equivalent)";

pub mod apps;
pub mod campaign;
pub mod gray;
pub mod micro;
pub mod migration;
pub mod shard;
pub mod table;
pub mod timeline;
