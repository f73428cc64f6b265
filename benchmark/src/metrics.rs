//! The metric dictionary: every name the benchmark prints, its unit and
//! direction, and how it is derived from the rounds of one workload.
//!
//! `BENCHMARK.json` lists the same names; `tests/contract.rs` keeps the
//! two in step.

use crate::json::Json;
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees, same names on every workload. Each
/// bound is about three times the spread seen across ten driver runs of
/// ten seeds on the noisiest workload (README, "End-to-end metrics");
/// with one seed the sim-clock metrics repeat exactly. `fail_ratio` has
/// no bound: any increase is a regression.
pub const END_TO_END: [Def; 8] = [
    e2e("sim_p50_us", "us", Better::Lower, 0.03),
    e2e("sim_p99_us", "us", Better::Lower, 0.06),
    e2e("sim_kops", "kops/s", Better::Higher, 0.16),
    e2e("replica_cpu_cores", "cores", Better::Lower, 0.16),
    e2e("fail_ratio", "ratio", Better::Lower, 0.0),
    e2e("host_kops", "kops/s", Better::Higher, 0.15),
    e2e("host_peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// `fail_ratio` is 0 on every workload by design, and the contract asks
/// for metrics that are never 0: the driver reads it from `attempted`
/// and `failed` instead.
pub const DRIVER_OMITS: &str = "fail_ratio";

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// One number per layer boundary. Counts are per measured operation and
/// repeat exactly; `*_ns` are host time; `sim_*` are simulated time.
pub const PER_LAYER: [Def; 69] = [
    layer("hl-sim.events_per_op", "count", Lower),
    layer("hl-sim.host_ns_per_event", "ns", Lower),
    layer("hl-sim.mevents_per_s", "Mev/s", Higher),
    layer("hl-sim.engine_ns_per_event", "ns", Lower),
    layer("hl-rnic.wqes_per_op", "count", Lower),
    layer("hl-rnic.doorbells_per_op", "count", Lower),
    layer("hl-rnic.tx_packets_per_op", "count", Lower),
    layer("hl-rnic.rx_packets_per_op", "count", Lower),
    layer("hl-rnic.wait_parks_per_op", "count", Lower),
    layer("hl-rnic.wait_fires_per_op", "count", Lower),
    layer("hl-rnic.retransmits_per_kop", "count", Lower),
    layer("hl-rnic.timeouts_per_kop", "count", Lower),
    layer("hl-rnic.rx_dropped_per_kop", "count", Lower),
    layer("hl-rnic.naks_per_kop", "count", Lower),
    layer("hl-rnic.error_cqes", "count", Lower),
    layer("hl-rnic.sim_nic_queue_us", "us", Lower),
    layer("hl-rnic.sim_wait_block_us", "us", Lower),
    layer("hl-rnic.sim_wqe_exec_us", "us", Lower),
    layer("hl-rnic.sim_dma_us", "us", Lower),
    layer("hl-rnic.sim_cqe_deliver_us", "us", Lower),
    layer("hl-rnic.verb_write_ns", "ns", Lower),
    layer("hl-fabric.msgs_per_op", "count", Lower),
    layer("hl-fabric.bytes_per_op", "B", Lower),
    layer("hl-fabric.wire_bytes_per_user_byte", "ratio", Lower),
    layer("hl-fabric.drops_per_kop", "count", Lower),
    layer("hl-fabric.sim_wire_us", "us", Lower),
    layer("hl-fabric.send_ns", "ns", Lower),
    layer("hl-nvm.flushes_per_op", "count", Lower),
    layer("hl-nvm.write_1k_ns", "ns", Lower),
    layer("hl-nvm.flush_1k_ns", "ns", Lower),
    layer("hl-cpu.ctx_switches_per_op", "count", Lower),
    layer("hl-cpu.sched_latency_p99_us", "us", Lower),
    layer("hl-cpu.replica_util", "ratio", Lower),
    layer("hl-cpu.sim_cpu_queue_us", "us", Lower),
    layer("hl-cpu.sim_replica_cpu_us", "us", Lower),
    layer("hl-cpu.sched_event_ns", "ns", Lower),
    layer("hl-cluster.build_s", "s", Lower),
    layer("hl-cluster.place_us", "us", Lower),
    layer("hl-cluster.shard_of_ns", "ns", Lower),
    layer("hyperloop.group_build_s", "s", Lower),
    layer("hyperloop.issue_ns", "ns", Lower),
    layer("hyperloop.backpressure_per_kop", "count", Lower),
    layer("hyperloop.sim_client_post_us", "us", Lower),
    layer("hyperloop.sim_ack_deliver_us", "us", Lower),
    layer("hyperloop.retry.reissues_per_kop", "count", Lower),
    layer("hyperloop.retry.attempt_timeouts_per_kop", "count", Lower),
    layer("hyperloop.retry.deadline_exceeded", "count", Lower),
    layer("hyperloop.group_ns", "ns", Lower),
    layer("hyperloop.retry_ns", "ns", Lower),
    layer("hyperloop.router_ns", "ns", Lower),
    layer("hl-store.gwrites_per_op", "count", Lower),
    layer("hl-store.gcas_per_op", "count", Lower),
    layer("hl-store.gmemcpy_per_op", "count", Lower),
    layer("hl-store.gflush_per_op", "count", Lower),
    layer("hl-store.replicated_bytes_per_user_byte", "ratio", Lower),
    layer("hl-store.sim_self_us", "us", Lower),
    layer("hl-store.upsert_ns", "ns", Lower),
    layer("hl-ycsb.read_p50_us", "us", Lower),
    layer("hl-ycsb.read_p99_us", "us", Lower),
    layer("hl-ycsb.update_p50_us", "us", Lower),
    layer("hl-ycsb.update_p99_us", "us", Lower),
    layer("hl-ycsb.read_share", "ratio", Higher),
    layer("hl-ycsb.next_op_ns", "ns", Lower),
    layer("host.allocs_per_op", "count", Lower),
    layer("host.alloc_bytes_per_op", "B", Lower),
    layer("host.setup_alloc_mb", "MiB", Lower),
    layer("trace.host_overhead_ratio", "ratio", Lower),
    layer("trace.spans_per_op", "count", Lower),
    layer("trace.sim_span_us", "us", Lower),
];

/// Attribution segment label -> the layer metric that owns it.
const SEGMENTS: [(&str, &str); 10] = [
    ("client-post", "hyperloop.sim_client_post_us"),
    ("nic-queue", "hl-rnic.sim_nic_queue_us"),
    ("wait-block", "hl-rnic.sim_wait_block_us"),
    ("wqe-exec", "hl-rnic.sim_wqe_exec_us"),
    ("wire", "hl-fabric.sim_wire_us"),
    ("dma", "hl-rnic.sim_dma_us"),
    ("cqe-deliver", "hl-rnic.sim_cqe_deliver_us"),
    ("cpu-queue", "hl-cpu.sim_cpu_queue_us"),
    ("replica-cpu", "hl-cpu.sim_replica_cpu_us"),
    ("ack-deliver", "hyperloop.sim_ack_deliver_us"),
];

fn sim(round: &Json) -> &Json {
    round.get("sim").expect("round has a sim section")
}

fn host(round: &Json) -> &Json {
    round.get("host").expect("round has a host section")
}

/// One end-to-end metric of one round.
pub fn end_to_end(name: &str, round: &Json) -> f64 {
    let (s, h) = (sim(round), host(round));
    match name {
        "sim_p50_us" => s.num_at("p50_ns") / 1e3,
        "sim_p99_us" => s.num_at("p99_ns") / 1e3,
        "sim_kops" => s.num_at("ops") / s.num_at("window_ns") * 1e6,
        "replica_cpu_cores" => s.num_at("replica_cpu_cores"),
        "fail_ratio" => round.num_at("failed") / round.num_at("attempted"),
        "host_kops" => s.num_at("ops") / h.num_at("wall_s") / 1e3,
        "host_peak_rss_mb" => h.num_at("peak_rss_mb"),
        "setup_s" => h.num_at("setup_s"),
        other => panic!("unknown end-to-end metric {other}"),
    }
}

/// `a / b`, 0 where the layer did no such work.
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric of one workload, in [`PER_LAYER`] order.
/// Counts come from the first untraced round (all rounds agree), host
/// times are medians over the untraced rounds, `sim_*` segments come
/// from the first traced round, and the `*_ns` ladder steps from `ladder`.
pub fn per_layer(untraced: &[Json], traced: &[Json], ladder: &Json) -> Vec<(&'static str, f64)> {
    let s = sim(&untraced[0]);
    let ops = s.num_at("ops");
    let kops = ops / 1e3;
    let updates = s.num_at("updates");
    let med = |f: &dyn Fn(&Json) -> f64, rounds: &[Json]| -> f64 {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let wall = |r: &Json| host(r).num_at("wall_s");
    let events = s.num_at("events");
    let trace = traced[0]
        .get("trace")
        .expect("traced round has a trace section");
    let spans = trace.num_at("spans");
    let segment_us = |metric: &str| -> f64 {
        let label = SEGMENTS
            .iter()
            .find(|(_, m)| *m == metric)
            .expect("segment metric")
            .0;
        per(
            trace.get("segments").map_or(0.0, |s| s.num_at(label)),
            spans,
        ) / 1e3
    };
    // Host time of the traced tail against the same operations untraced.
    let tail = |r: &Json| host(r).num_at("tail_wall_s");
    let update_mean_ns = per(s.num_at("sum_ns"), s.num_at("samples"));

    PER_LAYER
        .iter()
        .map(|d| {
            let v = match d.name {
                "hl-sim.events_per_op" => events / ops,
                "hl-sim.host_ns_per_event" => med(&|r| wall(r) * 1e9 / events, untraced),
                "hl-sim.mevents_per_s" => med(&|r| events / wall(r) / 1e6, untraced),
                "hl-rnic.wqes_per_op" => s.num_at("nic_wqes") / ops,
                "hl-rnic.doorbells_per_op" => s.num_at("nic_doorbells") / ops,
                "hl-rnic.tx_packets_per_op" => s.num_at("nic_tx_packets") / ops,
                "hl-rnic.rx_packets_per_op" => s.num_at("nic_rx_packets") / ops,
                "hl-rnic.wait_parks_per_op" => s.num_at("nic_wait_parks") / ops,
                "hl-rnic.wait_fires_per_op" => s.num_at("nic_wait_fires") / ops,
                "hl-rnic.retransmits_per_kop" => s.num_at("nic_retransmits") / kops,
                "hl-rnic.timeouts_per_kop" => s.num_at("nic_timeouts") / kops,
                "hl-rnic.rx_dropped_per_kop" => s.num_at("nic_rx_dropped") / kops,
                "hl-rnic.naks_per_kop" => s.num_at("nic_naks") / kops,
                "hl-rnic.error_cqes" => s.num_at("nic_error_cqes"),
                "hl-fabric.msgs_per_op" => s.num_at("fabric_msgs") / ops,
                "hl-fabric.bytes_per_op" => s.num_at("fabric_bytes") / ops,
                "hl-fabric.wire_bytes_per_user_byte" => {
                    per(s.num_at("fabric_bytes"), s.num_at("user_bytes"))
                }
                "hl-fabric.drops_per_kop" => s.num_at("fabric_drops") / kops,
                "hl-nvm.flushes_per_op" => s.num_at("nvm_flushes") / ops,
                "hl-cpu.ctx_switches_per_op" => s.num_at("cpu_ctx_switches") / ops,
                "hl-cpu.sched_latency_p99_us" => s.num_at("cpu_sched_p99_ns") / 1e3,
                "hl-cpu.replica_util" => s.num_at("cpu_replica_util"),
                "hl-cluster.build_s" => med(&|r| host(r).num_at("build_s"), untraced),
                "hl-cluster.place_us" => med(&|r| host(r).num_at("place_us"), untraced),
                "hyperloop.group_build_s" => med(&|r| host(r).num_at("group_build_s"), untraced),
                "hyperloop.issue_ns" => med(
                    &|r| per(host(r).num_at("issue_ns"), host(r).num_at("issue_calls")),
                    traced,
                ),
                "hyperloop.backpressure_per_kop" => s.num_at("backpressure") / kops,
                "hyperloop.retry.reissues_per_kop" => s.num_at("retry_reissues") / kops,
                "hyperloop.retry.attempt_timeouts_per_kop" => {
                    s.num_at("retry_attempt_timeouts") / kops
                }
                "hyperloop.retry.deadline_exceeded" => s.num_at("retry_deadline_exceeded"),
                "hl-store.gwrites_per_op" => per(s.num_at("spy_gwrites"), updates),
                "hl-store.gcas_per_op" => per(s.num_at("spy_gcas"), updates),
                "hl-store.gmemcpy_per_op" => per(s.num_at("spy_gmemcpy"), updates),
                "hl-store.gflush_per_op" => per(s.num_at("spy_gflush"), updates),
                "hl-store.replicated_bytes_per_user_byte" => {
                    per(s.num_at("spy_bytes"), s.num_at("user_bytes"))
                }
                // Update latency that is neither front-end CPU nor time
                // with a group operation outstanding.
                "hl-store.sim_self_us" => {
                    if updates == 0.0 {
                        0.0
                    } else {
                        (update_mean_ns
                            - s.num_at("frontend_write_ns")
                            - s.num_at("spy_busy_ns") / updates)
                            / 1e3
                    }
                }
                "hl-ycsb.read_p50_us" => s.num_at("read_p50_ns") / 1e3,
                "hl-ycsb.read_p99_us" => s.num_at("read_p99_ns") / 1e3,
                "hl-ycsb.update_p50_us" if updates > 0.0 => s.num_at("p50_ns") / 1e3,
                "hl-ycsb.update_p99_us" if updates > 0.0 => s.num_at("p99_ns") / 1e3,
                "hl-ycsb.update_p50_us" | "hl-ycsb.update_p99_us" => 0.0,
                "hl-ycsb.read_share" => per(s.num_at("read_samples"), s.num_at("all_samples")),
                "host.allocs_per_op" => host(&untraced[0]).num_at("allocs") / ops,
                "host.alloc_bytes_per_op" => host(&untraced[0]).num_at("alloc_bytes") / ops,
                "host.setup_alloc_mb" => {
                    host(&untraced[0]).num_at("setup_alloc_bytes") / (1 << 20) as f64
                }
                "trace.host_overhead_ratio" => per(med(&tail, traced), med(&tail, untraced)),
                "trace.spans_per_op" => per(spans, trace.num_at("tail_ops")),
                "trace.sim_span_us" => per(trace.num_at("e2e_ns"), spans) / 1e3,
                name if SEGMENTS.iter().any(|(_, m)| *m == name) => segment_us(name),
                // Everything left is a ladder step.
                name => ladder
                    .get(name)
                    .and_then(Json::num)
                    .unwrap_or_else(|| panic!("ladder has no {name}")),
            };
            (d.name, v)
        })
        .collect()
}
