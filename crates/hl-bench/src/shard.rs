//! Sharded campaign: aggregate throughput scaling over 1→N HyperLoop
//! groups.
//!
//! Each shard is a full, independent HyperLoop group — its own chain of
//! pre-posted WQE rings, WAIT wiring and NVM region — placed on
//! *disjoint* hosts by [`ShardPlan::place`], all inside one
//! deterministic event engine. A per-shard closed-loop pump keeps
//! `pipeline` supervised gWRITEs outstanding through the
//! [`ShardRouter`], with keys pre-bucketed by the router's own
//! consistent-hash ring so the routed path is exercised end to end.
//! Because shards share no host NIC, CPU or egress FIFO, aggregate
//! ops/sec scales near-linearly with the shard count — the scale-out
//! claim this campaign measures.

use hl_cluster::exec::ShardExecutor;
use hl_cluster::shard::{HashRing, ShardPlan};
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, Histogram, SimTime, Summary};
use hyperloop::api::GroupClient;
use hyperloop::{
    replica, DeadlinePolicy, GroupBuilder, GroupConfig, GroupOp, HyperLoopClient, RetryClient,
    ShardRouter,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of one sharded campaign run.
#[derive(Debug, Clone)]
pub struct ShardCampaignCfg {
    /// Number of independent HyperLoop groups.
    pub n_shards: usize,
    /// Replicas per shard (group size is `1 + replicas_per_shard`).
    pub replicas_per_shard: usize,
    /// Recorded operations per shard.
    pub ops_per_shard: usize,
    /// Unrecorded warmup operations per shard.
    pub warmup_per_shard: usize,
    /// Outstanding operations per shard.
    pub pipeline: usize,
    /// gWRITE payload bytes.
    pub write_size: usize,
    /// Pre-posted ring depth per shard.
    pub ring_slots: u32,
    /// Simulation seed.
    pub seed: u64,
    /// Collect labelled metrics (per-shard `router_ops` counters).
    pub telemetry: bool,
}

impl Default for ShardCampaignCfg {
    fn default() -> Self {
        ShardCampaignCfg {
            n_shards: 1,
            replicas_per_shard: 2,
            ops_per_shard: 4_000,
            warmup_per_shard: 200,
            pipeline: 8,
            write_size: 512,
            ring_slots: 256,
            seed: 42,
            telemetry: false,
        }
    }
}

/// Measured outcome of a sharded campaign.
#[derive(Debug, Clone)]
pub struct ShardCampaignResult {
    /// Shard count.
    pub n_shards: usize,
    /// Total recorded operations across shards.
    pub total_ops: usize,
    /// Aggregate throughput over the measured window (Kops/s).
    pub agg_kops: f64,
    /// Per-shard throughput (Kops/s), indexed by shard id.
    pub per_shard_kops: Vec<f64>,
    /// Latency over all recorded operations.
    pub latency: Summary,
    /// Simulated seconds in the measured window.
    pub sim_secs: f64,
    /// Rendered labelled-metrics registry (`Some` iff telemetry).
    pub metrics: Option<String>,
    /// Windowed time-series JSON snapshot (`Some` iff telemetry) —
    /// carries the per-shard `op_latency_ns{shard=N}` sketch series.
    pub timeseries: Option<String>,
    /// One-line deterministic report (identical across same-seed
    /// re-runs; the scaling table and CI byte-identity check use it).
    pub report: String,
}

struct ShardPump {
    sid: usize,
    /// Router shard to issue on: `sid` in the single-world multi-shard
    /// campaign, `0` in a per-shard slice world (whose router is
    /// one-wide even though `sid` is global).
    route: usize,
    issued: usize,
    recorded: usize,
    total: usize,
    warmup: usize,
    done_at: Option<SimTime>,
    hist: Histogram,
    keys: Vec<u64>,
    write_size: usize,
    /// Payload cache keyed by `key & 0xff` (the only byte the payload
    /// depends on): refcount bumps instead of a fresh buffer per op.
    payloads: Vec<Option<hl_sim::Bytes>>,
}

/// Run one sharded campaign.
pub fn run_shard_campaign(cfg: &ShardCampaignCfg) -> ShardCampaignResult {
    let group_size = 1 + cfg.replicas_per_shard;
    let n_hosts = cfg.n_shards * group_size;
    let rep_bytes = (128 * cfg.write_size.max(64) as u64 + (64 << 10)).next_power_of_two();
    let arena = (rep_bytes as usize + (4 << 20)).next_power_of_two();

    let (mut w, mut eng) = ClusterBuilder::new(n_hosts)
        .arena_size(arena)
        .seed(cfg.seed)
        .build();
    if cfg.telemetry {
        w.enable_timeseries(hl_sim::timeseries::DEFAULT_WINDOW);
    }

    // Disjoint placement: every host serves exactly one group member.
    let hosts: Vec<HostId> = (0..n_hosts).map(HostId).collect();
    let plan = ShardPlan::place(cfg.n_shards, cfg.replicas_per_shard, &hosts);
    assert!(plan.is_disjoint(), "sized pool must place disjointly");

    let mut shards = Vec::with_capacity(cfg.n_shards);
    for g in &plan.groups {
        let group = GroupBuilder::new(GroupConfig {
            client: g.client,
            replicas: g.replicas.clone(),
            rep_bytes,
            ring_slots: cfg.ring_slots,
            transport_timeout: None,
            ..Default::default()
        })
        .build(&mut w);
        replica::start_replenishers(&group, &mut w, &mut eng);
        let client = HyperLoopClient::new(group, &mut w);
        shards.push(RetryClient::with_policy(client, DeadlinePolicy::default()));
    }
    let router = Rc::new(ShardRouter::new(shards));

    // Pre-bucket a deterministic key stream by the router's own ring so
    // the routed (keyed) issue path is what the campaign exercises.
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); cfg.n_shards];
    for k in 0..(1024 * cfg.n_shards as u64) {
        buckets[router.shard_of_u64(k)].push(k);
    }

    let pumps: Vec<Rc<RefCell<ShardPump>>> = buckets
        .into_iter()
        .enumerate()
        .map(|(sid, keys)| {
            Rc::new(RefCell::new(ShardPump {
                sid,
                route: sid,
                issued: 0,
                recorded: 0,
                total: cfg.ops_per_shard + cfg.warmup_per_shard,
                warmup: cfg.warmup_per_shard,
                done_at: None,
                hist: Histogram::new(),
                keys,
                write_size: cfg.write_size,
                payloads: vec![None; 256],
            }))
        })
        .collect();

    // Prime the chains (replenishers, QP wiring), then measure.
    eng.run_until(&mut w, SimTime::from_nanos(2_000_000));
    let measure_from = eng.now();

    for pump in &pumps {
        for _ in 0..cfg.pipeline {
            issue_next(&router, pump, &mut w, &mut eng);
        }
    }
    let all = pumps.clone();
    eng.run_while(&mut w, move |_| {
        all.iter().any(|p| p.borrow().recorded < p.borrow().total)
    });
    let now = eng.now();
    let window = now.duration_since(measure_from).as_secs_f64();

    assert_eq!(
        router.failures().len(),
        0,
        "clean campaign must not fail ops"
    );

    let mut latency = Histogram::new();
    let mut per_shard_kops = Vec::with_capacity(cfg.n_shards);
    let mut total_ops = 0usize;
    for pump in &pumps {
        let p = pump.borrow();
        assert_eq!(p.recorded, p.total, "shard {} did not finish", p.sid);
        // Per-shard rate over that shard's own active window.
        let shard_window = p
            .done_at
            .expect("finished shard has a completion time")
            .duration_since(measure_from)
            .as_secs_f64();
        per_shard_kops.push((p.total - p.warmup) as f64 / shard_window / 1e3);
        total_ops += p.total - p.warmup;
        latency.merge(&p.hist);
    }
    let agg_kops = total_ops as f64 / window / 1e3;

    let metrics = cfg.telemetry.then(|| {
        w.collect_metrics(now);
        w.telemetry.metrics.render()
    });
    let timeseries = cfg.telemetry.then(|| w.telemetry.timeseries_json());

    let summary = latency.summary();
    let per_shard_str = per_shard_kops
        .iter()
        .map(|k| format!("{k:.1}"))
        .collect::<Vec<_>>()
        .join(",");
    let report = format!(
        "shards={} ops={} agg_kops={:.1} window_us={:.0} p50_ns={} p99_ns={} per_shard_kops=[{}]",
        cfg.n_shards,
        total_ops,
        agg_kops,
        window * 1e6,
        summary.p50_ns,
        summary.p99_ns,
        per_shard_str
    );

    ShardCampaignResult {
        n_shards: cfg.n_shards,
        total_ops,
        agg_kops,
        per_shard_kops,
        latency: summary,
        sim_secs: window,
        metrics,
        timeseries,
        report,
    }
}

fn issue_next(
    router: &Rc<ShardRouter>,
    pump: &Rc<RefCell<ShardPump>>,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    let (sid, route, idx, key, size, data) = {
        let mut p = pump.borrow_mut();
        if p.issued >= p.total {
            return;
        }
        let key = p.keys[p.issued % p.keys.len()];
        let size = p.write_size;
        let data = p.payloads[(key & 0xff) as usize]
            .get_or_insert_with(|| hl_sim::Bytes::from(vec![(key & 0xff) as u8; size]))
            .clone();
        (p.sid, p.route, p.issued as u64, key, size, data)
    };
    pump.borrow_mut().issued += 1;
    // In a slice world the router is one-wide while `sid` is global, so
    // the homing check only applies when the router spans every shard.
    debug_assert!(
        router.ring().n_shards() == 1 || router.shard_of_u64(key) == sid,
        "bucketed key must route home"
    );

    let r2 = router.clone();
    let p2 = pump.clone();
    let issued_at = eng.now();
    let done: hyperloop::OnOutcome = Box::new(move |w, eng, r| {
        {
            let mut p = p2.borrow_mut();
            if r.is_ok() && p.recorded >= p.warmup {
                p.hist
                    .record(eng.now().duration_since(issued_at).as_nanos());
            }
            p.recorded += 1;
            if p.recorded == p.total {
                p.done_at = Some(eng.now());
            }
        }
        issue_next(&r2, &p2, w, eng);
    });

    // Rotate over 128 disjoint offsets so pipelined writes don't overlap.
    let slot = idx % 128;
    router.issue_on(
        w,
        eng,
        route,
        GroupOp::Write {
            offset: slot * size.max(64) as u64,
            data,
            flush: false,
        },
        done,
    );
}

/// Per-shard outcome of a partitioned campaign — plain `Send` data
/// (strings, byte vectors, counters) so it can cross the
/// [`ShardExecutor`] thread boundary. A slice is a pure function of
/// `(cfg, sid)`: the shard's world is built, run and torn down inside
/// the job, so the slice is byte-identical whatever thread ran it.
#[derive(Debug, Clone)]
pub struct ShardSlice {
    /// Global shard id (`0..cfg.n_shards`).
    pub sid: usize,
    /// Recorded (post-warmup) operations.
    pub ops: usize,
    /// Throughput over the shard's active window (Kops/s).
    pub kops: f64,
    /// Latency histogram over recorded operations.
    pub hist: Histogram,
    /// Byte snapshot of every member's written region (slot area), in
    /// chain order — the threaded byte-identity suite compares these
    /// against the sequential run.
    pub nvm: Vec<Vec<u8>>,
    /// Rendered labelled-metrics registry (`Some` iff telemetry).
    pub metrics: Option<String>,
    /// Windowed time-series JSON snapshot (`Some` iff telemetry).
    pub timeseries: Option<String>,
    /// One-line deterministic report.
    pub report: String,
}

/// Run shard `sid` of an `cfg.n_shards`-way partitioned campaign in its
/// own single-group world.
///
/// The key stream is bucketed with the *global* [`HashRing`] over
/// `cfg.n_shards` shards — the same keys the shard would own inside the
/// single-world campaign — so the routed workload partition is
/// preserved even though this world holds only shard `sid`'s group.
pub fn run_shard_slice(cfg: &ShardCampaignCfg, sid: usize) -> ShardSlice {
    assert!(sid < cfg.n_shards);
    let group_size = 1 + cfg.replicas_per_shard;
    let rep_bytes = (128 * cfg.write_size.max(64) as u64 + (64 << 10)).next_power_of_two();
    let arena = (rep_bytes as usize + (4 << 20)).next_power_of_two();

    let (mut w, mut eng) = ClusterBuilder::new(group_size)
        .arena_size(arena)
        .seed(cfg.seed.wrapping_add(sid as u64))
        .build();
    if cfg.telemetry {
        w.enable_timeseries(hl_sim::timeseries::DEFAULT_WINDOW);
    }

    let hosts: Vec<HostId> = (0..group_size).map(HostId).collect();
    let plan = ShardPlan::place(1, cfg.replicas_per_shard, &hosts);
    let group = GroupBuilder::new(GroupConfig {
        client: plan.groups[0].client,
        replicas: plan.groups[0].replicas.clone(),
        rep_bytes,
        ring_slots: cfg.ring_slots,
        transport_timeout: None,
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group, &mut w);
    let router = Rc::new(ShardRouter::new(vec![RetryClient::with_policy(
        client,
        DeadlinePolicy::default(),
    )]));

    // Shard `sid`'s cut of the same deterministic key stream the
    // single-world campaign buckets.
    let ring = HashRing::new(cfg.n_shards);
    let keys: Vec<u64> = (0..(1024 * cfg.n_shards as u64))
        .filter(|&k| ring.shard_of_u64(k) == sid)
        .collect();

    let pump = Rc::new(RefCell::new(ShardPump {
        sid,
        route: 0,
        issued: 0,
        recorded: 0,
        total: cfg.ops_per_shard + cfg.warmup_per_shard,
        warmup: cfg.warmup_per_shard,
        done_at: None,
        hist: Histogram::new(),
        keys,
        write_size: cfg.write_size,
        payloads: vec![None; 256],
    }));

    eng.run_until(&mut w, SimTime::from_nanos(2_000_000));
    let measure_from = eng.now();
    for _ in 0..cfg.pipeline {
        issue_next(&router, &pump, &mut w, &mut eng);
    }
    let p2 = pump.clone();
    eng.run_while(&mut w, move |_| {
        let p = p2.borrow();
        p.recorded < p.total
    });
    assert_eq!(router.failures().len(), 0, "clean slice must not fail ops");

    let now = eng.now();
    let metrics = cfg.telemetry.then(|| {
        w.collect_metrics(now);
        w.telemetry.metrics.render()
    });
    let timeseries = cfg.telemetry.then(|| w.telemetry.timeseries_json());

    let (hist, window, ops) = {
        let p = pump.borrow();
        assert_eq!(p.recorded, p.total, "shard {sid} did not finish");
        let window = p
            .done_at
            .expect("finished shard has a completion time")
            .duration_since(measure_from)
            .as_secs_f64();
        (p.hist.clone(), window, p.total - p.warmup)
    };
    let kops = ops as f64 / window / 1e3;

    // Snapshot the written slot area of every member, chain order.
    let c = router.client(0).client();
    let span = 128 * cfg.write_size.max(64);
    let nvm: Vec<Vec<u8>> = (0..c.group_size())
        .map(|m| {
            let host = c.member_host(m);
            let addr = c.member_addr(m, 0);
            w.hosts[host.0]
                .mem
                .read_vec(addr, span)
                .expect("replicated region mapped")
        })
        .collect();

    let summary = hist.summary();
    let report = format!(
        "shard={} ops={} kops={:.1} window_us={:.0} p50_ns={} p99_ns={} events={}",
        sid,
        ops,
        kops,
        window * 1e6,
        summary.p50_ns,
        summary.p99_ns,
        eng.events_executed()
    );

    ShardSlice {
        sid,
        ops,
        kops,
        hist,
        nvm,
        metrics,
        timeseries,
        report,
    }
}

/// Merged outcome of a threaded partitioned campaign.
#[derive(Debug, Clone)]
pub struct ThreadedShardCampaign {
    /// Shard count.
    pub n_shards: usize,
    /// OS threads the executor fanned shards over.
    pub threads: usize,
    /// Total recorded operations across shards.
    pub total_ops: usize,
    /// Sum of per-shard throughputs (Kops/s) — shards share nothing,
    /// so aggregate simulated throughput is additive.
    pub agg_kops: f64,
    /// Latency over all recorded operations (shard-order merge).
    pub latency: Summary,
    /// Per-shard slices, indexed by shard id.
    pub slices: Vec<ShardSlice>,
    /// Deterministic multi-line report: one header plus each shard's
    /// line in shard order; byte-identical whatever the thread count.
    pub report: String,
}

/// Run an `cfg.n_shards`-way partitioned campaign with each shard's
/// event loop on its own thread (up to `threads`), merging results in
/// shard order. `threads == 1` is the sequential baseline the
/// byte-identity suite compares against.
pub fn run_shard_campaign_threaded(
    cfg: &ShardCampaignCfg,
    threads: usize,
) -> ThreadedShardCampaign {
    let exec = ShardExecutor::new(threads);
    let slices = exec.run(cfg.n_shards, |sid| run_shard_slice(cfg, sid));

    let mut latency = Histogram::new();
    let mut agg_kops = 0.0;
    let mut total_ops = 0usize;
    for s in &slices {
        latency.merge(&s.hist);
        agg_kops += s.kops;
        total_ops += s.ops;
    }
    let summary = latency.summary();
    let mut report = format!(
        "threaded_shards={} ops={} agg_kops={:.1} p50_ns={} p99_ns={}\n",
        cfg.n_shards, total_ops, agg_kops, summary.p50_ns, summary.p99_ns
    );
    for s in &slices {
        report.push_str(&s.report);
        report.push('\n');
    }

    ThreadedShardCampaign {
        n_shards: cfg.n_shards,
        threads: exec.threads(),
        total_ops,
        agg_kops,
        latency: summary,
        slices,
        report,
    }
}

/// Run the campaign at each shard count and render the scaling table.
/// Returns the per-count results plus the aggregate speedup of the last
/// entry relative to the first.
pub fn scaling_sweep(
    base: &ShardCampaignCfg,
    shard_counts: &[usize],
) -> (Vec<ShardCampaignResult>, f64) {
    let mut results = Vec::with_capacity(shard_counts.len());
    for &n in shard_counts {
        let cfg = ShardCampaignCfg {
            n_shards: n,
            ..base.clone()
        };
        results.push(run_shard_campaign(&cfg));
    }
    let speedup = results.last().map_or(0.0, |last| {
        results.first().map_or(0.0, |first| {
            if first.agg_kops > 0.0 {
                last.agg_kops / first.agg_kops
            } else {
                0.0
            }
        })
    });
    (results, speedup)
}
