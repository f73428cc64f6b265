//! Shard timeline: per-shard p50/p99-over-time with fault marks.
//!
//! Runs a small sharded campaign (disjoint HyperLoop groups behind a
//! [`ShardRouter`]) with the windowed time-series store enabled, drops
//! a time-bounded straggler-NIC fault on shard 0's head replica
//! mid-run, and renders the `op_latency_ns` timeline: one table per
//! label set (`shard=0`, `shard=1`, …, plus the supervised aggregate),
//! one row per window, with the `fault:` / `heal:` marks overlaid on
//! the windows they land in. The victim shard's p99 bars swell across
//! the fault window; the bystander's stay flat — the whole scale-out
//! isolation story in one deterministic text artifact.

use hl_cluster::chaos::{FaultEvent, FaultKind, FaultSchedule};
use hl_cluster::shard::ShardPlan;
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{SimDuration, SimTime};
use hyperloop::{
    replica, DeadlinePolicy, GroupBuilder, GroupConfig, GroupOp, HyperLoopClient, RetryClient,
    ShardRouter,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of one shard-timeline run.
#[derive(Debug, Clone)]
pub struct TimelineCfg {
    /// Independent HyperLoop groups (first one takes the fault).
    pub n_shards: usize,
    /// Open-loop operations per shard (one every 100µs).
    pub ops_per_shard: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Time-series window width.
    pub window: SimDuration,
}

impl Default for TimelineCfg {
    fn default() -> Self {
        TimelineCfg {
            n_shards: 2,
            ops_per_shard: 400,
            seed: 7007,
            window: SimDuration::from_millis(1),
        }
    }
}

/// Deterministic artifacts of one shard-timeline run.
#[derive(Debug, Clone)]
pub struct TimelineArtifact {
    /// Rendered `op_latency_ns` timeline (per label set, marks overlaid).
    pub timeline: String,
    /// Time-series JSON snapshot.
    pub snapshot_json: String,
    /// CSV flattening of the snapshot.
    pub snapshot_csv: String,
    /// One-line deterministic report.
    pub report: String,
}

/// Run the shard-timeline scenario.
pub fn run_shard_timeline(cfg: &TimelineCfg) -> TimelineArtifact {
    const WRITE: usize = 256;
    const SLOTS: u64 = 128;
    let group_size = 3; // client + 2 replicas per shard
    let n_hosts = cfg.n_shards * group_size;
    let rep_bytes = ((SLOTS as usize * WRITE) as u64 + (64 << 10)).next_power_of_two();

    let (mut w, mut eng) = ClusterBuilder::new(n_hosts)
        .arena_size((rep_bytes as usize + (2 << 20)).next_power_of_two())
        .seed(cfg.seed)
        .build();
    w.enable_timeseries(cfg.window);

    let hosts: Vec<HostId> = (0..n_hosts).map(HostId).collect();
    let plan = ShardPlan::place(cfg.n_shards, group_size - 1, &hosts);
    assert!(plan.is_disjoint(), "sized pool must place disjointly");
    let victim = plan.groups[0].replicas[0];

    let mut shards = Vec::with_capacity(cfg.n_shards);
    for g in &plan.groups {
        let group = GroupBuilder::new(GroupConfig {
            client: g.client,
            replicas: g.replicas.clone(),
            rep_bytes,
            ring_slots: 128,
            transport_timeout: None,
            ..Default::default()
        })
        .build(&mut w);
        replica::start_replenishers(&group, &mut w, &mut eng);
        let client = HyperLoopClient::new(group, &mut w);
        shards.push(RetryClient::with_policy(client, DeadlinePolicy::default()));
    }
    let router = Rc::new(ShardRouter::new(shards));

    // The fault: shard 0's head replica NIC straggles from 10ms to 25ms.
    FaultSchedule {
        seed: cfg.seed,
        events: vec![FaultEvent {
            at: SimTime::from_nanos(10_000_000),
            duration: Some(SimDuration::from_millis(15)),
            kind: FaultKind::StragglerNic {
                host: victim,
                delay: SimDuration::from_micros(60),
            },
        }],
    }
    .apply(&mut eng);

    // Open-loop: every shard issues one 256B write per 100µs.
    let ok = Rc::new(RefCell::new(0usize));
    let failed = Rc::new(RefCell::new(0usize));
    for sid in 0..cfg.n_shards {
        for k in 0..cfg.ops_per_shard {
            let router = router.clone();
            let ok = ok.clone();
            let failed = failed.clone();
            let at = SimTime::from_nanos(1_000_000 + k as u64 * 100_000);
            eng.schedule_at(at, move |w: &mut World, eng| {
                let slot = k as u64 % SLOTS;
                let data = hl_sim::Bytes::from(vec![(k & 0xff) as u8; WRITE]);
                router.issue_on(
                    w,
                    eng,
                    sid,
                    GroupOp::Write {
                        offset: slot * WRITE as u64,
                        data,
                        flush: false,
                    },
                    Box::new(move |_w, _e, r| match r {
                        Ok(_) => *ok.borrow_mut() += 1,
                        Err(_) => *failed.borrow_mut() += 1,
                    }),
                );
            });
        }
    }

    let horizon = 1_000_000 + cfg.ops_per_shard as u64 * 100_000 + 100_000_000;
    eng.run_until(&mut w, SimTime::from_nanos(horizon));
    let now = eng.now();
    w.collect_metrics(now);

    let total = cfg.n_shards * cfg.ops_per_shard;
    let ok = *ok.borrow();
    let failed = *failed.borrow();
    assert_eq!(ok + failed, total, "timeline ops unsettled");

    let timeline = w.telemetry.timeline("op_latency_ns");
    let snapshot_json = w.telemetry.timeseries_json();
    let snapshot_csv = w.telemetry.timeseries_csv();
    let report = format!(
        "timeline shards={} ops={total} ok={ok} failed={failed} victim={victim} seed={}",
        cfg.n_shards, cfg.seed
    );
    TimelineArtifact {
        timeline,
        snapshot_json,
        snapshot_csv,
        report,
    }
}
