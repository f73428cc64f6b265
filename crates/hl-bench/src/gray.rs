//! Gray-failure campaign: tail latency per impairment class per
//! backend, plus the crashed-host live-rejoin case.
//!
//! Each point runs one HyperLoop group (client + 2 replicas) through a
//! fixed closed-loop gWRITE workload while a *persistent* gray
//! impairment — jitter, loss, a token-bucket rate cap, or a straggler
//! NIC — shapes the chain's links, and records **end-to-end supervised
//! latency** (issue → settle, retries and transitions included; this is
//! what a storage client actually waits). Three backends per class:
//!
//! * `hyperloop` — the offloaded chain under deadline supervision.
//! * `naive` — the CPU-forwarding baseline under the same supervision.
//! * `degrade` — the offloaded chain plus [`HealthMonitor`], free to
//!   degrade to the Naïve path (and re-promote) as its health score
//!   moves.
//!
//! [`run_rejoin_case`] is the live-traffic membership change: two
//! disjoint shards, the victim's tail replica crashes and is rebuilt
//! out, the healed host rejoins via streaming catch-up
//! ([`hyperloop::health::rejoin_member`]) while both shards keep
//! serving — and the bystander shard's per-op latency vector must be
//! byte-identical to a fault-free control run.

use hl_cluster::chaos::{BystanderProbe, FaultEvent, FaultKind, FaultSchedule};
use hl_cluster::shard::ShardPlan;
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, Histogram, SimDuration, SimTime, Summary};
use hyperloop::api::GroupClient;
use hyperloop::deadline::Backend;
use hyperloop::health::{rejoin_member, HealthConfig, HealthMonitor};
use hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop::recovery::{self, HeartbeatConfig};
use hyperloop::slo::{SloEngine, SloRule};
use hyperloop::{replica, DeadlinePolicy, GroupBuilder, GroupConfig, HyperLoopClient, RetryClient};
use std::cell::RefCell;
use std::rc::Rc;

const CLIENT: HostId = HostId(0);
const R1: HostId = HostId(1);
const R2: HostId = HostId(2);
const SLOTS: usize = 128;

/// Which replication path serves the point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrayBackend {
    /// Offloaded chain, supervision only.
    Hyper,
    /// CPU-forwarding baseline, same supervision.
    Naive,
    /// Offloaded chain + health monitor (may degrade / re-promote).
    Degrade,
}

impl GrayBackend {
    /// Stable label used in reports and BENCH_6.json keys.
    pub fn label(self) -> &'static str {
        match self {
            GrayBackend::Hyper => "hyperloop",
            GrayBackend::Naive => "naive",
            GrayBackend::Degrade => "degrade",
        }
    }
}

/// Configuration of one gray campaign point.
#[derive(Debug, Clone)]
pub struct GrayCfg {
    /// Recorded operations.
    pub ops: usize,
    /// Outstanding supervised operations.
    pub pipeline: usize,
    /// gWRITE payload bytes.
    pub write_size: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for GrayCfg {
    fn default() -> Self {
        GrayCfg {
            ops: 400,
            pipeline: 4,
            write_size: 256,
            seed: 6006,
        }
    }
}

/// Measured outcome of one (class, backend) point.
#[derive(Debug, Clone)]
pub struct GrayPoint {
    /// Impairment class label.
    pub class: &'static str,
    /// Backend that served the point.
    pub backend: GrayBackend,
    /// End-to-end supervised latency over all recorded ops.
    pub latency: Summary,
    /// Operations that failed with a typed error.
    pub failed_ops: u32,
    /// Health-monitor degradations (0 unless [`GrayBackend::Degrade`]).
    pub degrades: u64,
    /// Health-monitor re-promotions (0 unless [`GrayBackend::Degrade`]).
    pub promotes: u64,
    /// One-line deterministic report.
    pub report: String,
}

/// The impairment matrix: label → persistent gray faults over the
/// group's links (client `h0`, replicas `h1`/`h2`). "baseline" is the
/// unimpaired control row.
pub fn impairment_classes() -> Vec<(&'static str, Vec<FaultEvent>)> {
    let at = SimTime::from_nanos(1_000);
    vec![
        ("baseline", vec![]),
        (
            "jitter",
            vec![
                FaultEvent {
                    at,
                    duration: None,
                    kind: FaultKind::Jitter {
                        src: CLIENT,
                        dst: R1,
                        delay: SimDuration::from_micros(10),
                        jitter: SimDuration::from_micros(30),
                    },
                },
                FaultEvent {
                    at,
                    duration: None,
                    kind: FaultKind::Jitter {
                        src: R2,
                        dst: CLIENT,
                        delay: SimDuration::from_micros(20),
                        jitter: SimDuration::from_micros(60),
                    },
                },
            ],
        ),
        (
            "lossy_link",
            vec![FaultEvent {
                at,
                duration: None,
                kind: FaultKind::LossyLink {
                    src: CLIENT,
                    dst: R1,
                    prob: 0.15,
                },
            }],
        ),
        (
            "rate_limit",
            vec![FaultEvent {
                at,
                duration: None,
                kind: FaultKind::RateLimit {
                    host: R1,
                    bps: 800_000_000,
                },
            }],
        ),
        (
            "straggler_nic",
            vec![FaultEvent {
                at,
                duration: None,
                kind: FaultKind::StragglerNic {
                    host: R1,
                    delay: SimDuration::from_micros(40),
                },
            }],
        ),
    ]
}

// The per-attempt deadline sits *above* the transport's go-back-N
// recovery time (3ms): a lost packet is re-driven by the NIC before the
// supervisor re-issues, so sustained loss degrades tail latency instead
// of compounding into a duplicate-traffic storm through the lossy link.
fn policy() -> DeadlinePolicy {
    DeadlinePolicy {
        deadline: SimDuration::from_millis(4),
        max_attempts: 40,
        backoff: SimDuration::from_micros(500),
        backoff_cap: SimDuration::from_millis(4),
    }
}

fn payload(k: usize, write_size: usize) -> Vec<u8> {
    let mut v = format!("gray-{k:06}-").into_bytes();
    while v.len() < write_size {
        v.push(b'a' + (k % 26) as u8);
    }
    v.truncate(write_size);
    v
}

struct Pump {
    issued: usize,
    total: usize,
    write_size: usize,
    hist: Histogram,
    failed: u32,
}

fn pump_next(
    pump: &Rc<RefCell<Pump>>,
    retry: &RetryClient,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    let (k, write_size) = {
        let mut p = pump.borrow_mut();
        if p.issued >= p.total {
            return;
        }
        let k = p.issued;
        p.issued += 1;
        (k, p.write_size)
    };
    let issued_at = eng.now();
    let pump2 = pump.clone();
    let retry2 = retry.clone();
    retry.gwrite(
        w,
        eng,
        ((k % SLOTS) * write_size) as u64,
        &payload(k, write_size),
        true,
        Box::new(move |w, eng, r| {
            {
                let mut p = pump2.borrow_mut();
                match r {
                    Ok(_) => {
                        let e2e = eng.now().duration_since(issued_at);
                        p.hist.record(e2e.as_nanos());
                    }
                    Err(_) => p.failed += 1,
                }
            }
            pump_next(&pump2, &retry2, w, eng);
        }),
    );
}

/// Run one (class, backend) point of the gray campaign.
pub fn run_gray_point(
    class: &'static str,
    faults: &[FaultEvent],
    backend: GrayBackend,
    cfg: &GrayCfg,
) -> GrayPoint {
    let rep_bytes = ((SLOTS * cfg.write_size) as u64 + (64 << 10)).next_power_of_two();
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size((rep_bytes as usize + (2 << 20)).next_power_of_two())
        .seed(cfg.seed)
        .build();
    w.enable_telemetry();

    let mut monitor = None;
    let retry = match backend {
        GrayBackend::Naive => {
            let naive = NaiveBuilder::new(NaiveConfig {
                client: CLIENT,
                replicas: vec![R1, R2],
                rep_bytes,
                ring_slots: 128,
                mode: Mode::Event,
                ..Default::default()
            })
            .build(&mut w, &mut eng);
            RetryClient::with_policy_backend(Backend::Naive(naive), policy())
        }
        GrayBackend::Hyper | GrayBackend::Degrade => {
            let group = GroupBuilder::new(GroupConfig {
                client: CLIENT,
                replicas: vec![R1, R2],
                rep_bytes,
                ring_slots: 128,
                transport_timeout: Some((SimDuration::from_millis(3), 7)),
                ..Default::default()
            })
            .build(&mut w);
            replica::start_replenishers(&group, &mut w, &mut eng);
            let client = HyperLoopClient::new(group.clone(), &mut w);
            let retry = RetryClient::with_policy(client, policy());
            if backend == GrayBackend::Degrade {
                monitor = Some(HealthMonitor::start(
                    retry.clone(),
                    group,
                    HealthConfig {
                        period: SimDuration::from_millis(2),
                        degrade_score: 20,
                        healthy_score: 5,
                        degrade_after: 2,
                        promote_after: 3,
                        min_degraded_dwell: SimDuration::from_millis(3),
                        ring_slots: 128,
                        naive_mode: Mode::Event,
                    },
                    &mut w,
                    &mut eng,
                ));
            }
            retry
        }
    };

    if !faults.is_empty() {
        FaultSchedule {
            seed: cfg.seed,
            events: faults.to_vec(),
        }
        .apply(&mut eng);
    }

    let pump = Rc::new(RefCell::new(Pump {
        issued: 0,
        total: cfg.ops,
        write_size: cfg.write_size,
        hist: Histogram::new(),
        failed: 0,
    }));
    for _ in 0..cfg.pipeline {
        let pump = pump.clone();
        let retry2 = retry.clone();
        eng.schedule_at(SimTime::from_nanos(1_000_000), move |w: &mut World, eng| {
            pump_next(&pump, &retry2, w, eng);
        });
    }

    // Every point runs to the same 2 s horizon so that rows compare; one
    // whose ops have not all settled by then keeps going a second at a
    // time. lossy_link/hyperloop sits on that edge at 200 ops (p50
    // ~39 ms of 3 ms go-back-N timeouts × 200 / 4 ≈ 1.9–2.1 s depending
    // on which packets the seed drops; ROADMAP item 4).
    for horizon_s in 2..=10 {
        eng.run_until(&mut w, SimTime::from_nanos(horizon_s * 1_000_000_000));
        let p = pump.borrow();
        if p.hist.count() + p.failed as u64 == cfg.ops as u64 {
            break;
        }
    }
    if let Some(m) = &monitor {
        m.stop();
    }

    let p = pump.borrow();
    assert_eq!(
        p.hist.count() + p.failed as u64,
        cfg.ops as u64,
        "gray point {class}/{}: ops unsettled",
        backend.label()
    );
    let latency = p.hist.summary();
    let (degrades, promotes) = monitor
        .as_ref()
        .map(|m| (m.degrades(), m.promotes()))
        .unwrap_or((0, 0));
    let report = format!(
        "class={class} backend={} ops={} failed={} p50_ns={} p99_ns={} degrades={degrades} promotes={promotes}",
        backend.label(),
        cfg.ops,
        p.failed,
        latency.p50_ns,
        latency.p99_ns,
    );
    GrayPoint {
        class,
        backend,
        latency,
        failed_ops: p.failed,
        degrades,
        promotes,
        report,
    }
}

/// Outcome of the crashed-host live-rejoin case (or its control run).
#[derive(Debug, Clone)]
pub struct RejoinOutcome {
    /// Victim-shard ops that settled OK.
    pub victim_acked: usize,
    /// Victim-shard ops that failed with a typed error.
    pub victim_failed: u32,
    /// Members of the victim's final chain.
    pub victim_members: Vec<HostId>,
    /// True iff the crashed host is back in the final chain.
    pub rejoined: bool,
    /// Bystander per-op `(op, latency_ns)` vector, in settle order —
    /// byte-compared against the control run.
    pub bystander_latencies: Vec<(usize, u64)>,
    /// Bystander ops that failed (must be 0).
    pub bystander_failed: u32,
}

/// Crashed-host live-rejoin under traffic. With `fault` the victim
/// shard's tail replica link-drops at 10ms (healing at 20ms), the
/// heartbeat detector rebuilds the chain down to the survivor, and at
/// 30ms the healed host rejoins via streaming catch-up while both
/// shards keep serving. Without `fault` the same world runs untouched —
/// the control whose bystander latencies the faulted run must match
/// byte for byte.
pub fn run_rejoin_case(seed: u64, ops_per_shard: usize, fault: bool) -> RejoinOutcome {
    const N_SHARDS: usize = 2;
    const REPLICAS: usize = 2;
    let hosts: Vec<HostId> = (0..N_SHARDS * (1 + REPLICAS)).map(HostId).collect();
    let plan = ShardPlan::place(N_SHARDS, REPLICAS, &hosts);
    assert!(plan.is_disjoint());
    let victim_tail = plan.groups[0].replicas[REPLICAS - 1];

    let (mut w, mut eng) = ClusterBuilder::new(hosts.len())
        .arena_size(2 << 20)
        .seed(seed)
        .build();

    let mut retries = Vec::new();
    for g in &plan.groups {
        let group = GroupBuilder::new(GroupConfig {
            client: g.client,
            replicas: g.replicas.clone(),
            rep_bytes: 256 << 10,
            ring_slots: 64,
            transport_timeout: Some((SimDuration::from_millis(3), 7)),
            ..Default::default()
        })
        .build(&mut w);
        replica::start_replenishers(&group, &mut w, &mut eng);
        let client = HyperLoopClient::new(group.clone(), &mut w);
        let retry = RetryClient::with_policy(client, policy());
        // Heartbeat-driven shrink on the victim shard only: on a missed
        // heartbeat the chain rebuilds over the survivors (no standby —
        // the crashed host itself rejoins later).
        if g.shard == 0 {
            let latch = Rc::new(RefCell::new(false));
            let members = g.replicas.clone();
            let grp = group.clone();
            let r = retry.clone();
            recovery::start_heartbeats(
                &group,
                HeartbeatConfig {
                    period: SimDuration::from_millis(2),
                    miss_threshold: 3,
                },
                Box::new(move |w, eng, idx| {
                    if std::mem::replace(&mut *latch.borrow_mut(), true) {
                        return;
                    }
                    let survivors: Vec<HostId> = members
                        .iter()
                        .copied()
                        .filter(|&h| h != members[idx])
                        .collect();
                    let r2 = r.clone();
                    recovery::rebuild_chain(
                        w,
                        eng,
                        &grp,
                        survivors,
                        None,
                        64,
                        Box::new(move |_w, _e, new_client| r2.swap(new_client)),
                    );
                }),
                &mut w,
                &mut eng,
            );
        }
        retries.push(retry);
    }

    if fault {
        FaultSchedule {
            seed,
            events: vec![FaultEvent {
                at: SimTime::from_nanos(10_000_000),
                duration: Some(SimDuration::from_millis(10)),
                kind: FaultKind::LinkDown { host: victim_tail },
            }],
        }
        .apply(&mut eng);
        // The healed host rejoins at 30ms, traffic still flowing.
        let retry = retries[0].clone();
        eng.schedule_at(
            SimTime::from_nanos(30_000_000),
            move |w: &mut World, eng| {
                rejoin_member(
                    &retry,
                    victim_tail,
                    64,
                    w,
                    eng,
                    Box::new(|_w, _e, _client| {}),
                );
            },
        );
    }

    // Open-loop: each shard writes one record every 200µs. Settlement
    // goes through the shared bystander probe so this case, the chaos
    // suites and the migration battery all record identically.
    let acked: Vec<_> = (0..N_SHARDS)
        .map(|_| Rc::new(RefCell::new(0usize)))
        .collect();
    let probes: Vec<_> = (0..N_SHARDS).map(|_| BystanderProbe::new()).collect();
    for sid in 0..N_SHARDS {
        for k in 0..ops_per_shard {
            let retry = retries[sid].clone();
            let acked = acked[sid].clone();
            let probe = probes[sid].clone();
            let at = SimTime::from_nanos(1_000_000 + k as u64 * 200_000);
            eng.schedule_at(at, move |w: &mut World, eng| {
                let issued_at = eng.now();
                retry.gwrite(
                    w,
                    eng,
                    ((k % SLOTS) * 256) as u64,
                    &payload(k, 256),
                    true,
                    Box::new(move |_w, eng, r| match r {
                        Ok(_) => {
                            *acked.borrow_mut() += 1;
                            probe.record(k, eng.now().duration_since(issued_at).as_nanos());
                        }
                        Err(_) => probe.record_failure(),
                    }),
                );
            });
        }
    }

    eng.run_until(&mut w, SimTime::from_nanos(500_000_000));

    let c = retries[0].client();
    let victim_members: Vec<HostId> = (0..c.group_size()).map(|m| c.member_host(m)).collect();
    let victim_acked = *acked[0].borrow();
    let victim_failed = probes[0].failed() as u32;
    let bystander_latencies = probes[1].latencies();
    let bystander_failed = probes[1].failed() as u32;
    RejoinOutcome {
        victim_acked,
        victim_failed,
        rejoined: victim_members.contains(&victim_tail),
        victim_members,
        bystander_latencies,
        bystander_failed,
    }
}

/// The SLO threshold the excursion case alerts on: supervised p99 must
/// stay under this many nanoseconds per window.
pub const EXCURSION_SLO_NS: u64 = 150_000;

/// Outcome of the SLO-excursion case: one degrade/re-promote round trip
/// with the full time-series snapshot and the causal chain extracted
/// from the mark stream.
#[derive(Debug, Clone)]
pub struct ExcursionOutcome {
    /// Deterministic JSON snapshot of the whole time-series store
    /// (byte-compared across same-seed re-runs).
    pub snapshot_json: String,
    /// CSV flattening of the same snapshot.
    pub snapshot_csv: String,
    /// Rendered `op_latency_ns` timeline (per-window p50/p99 bars with
    /// fault / SLO / transition marks overlaid).
    pub timeline: String,
    /// Time-series window width in nanoseconds.
    pub window_ns: u64,
    /// First window whose supervised p99 crossed [`EXCURSION_SLO_NS`].
    pub excursion_window: u64,
    /// End of that window (ns) — the earliest instant the SLO engine
    /// could have observed the excursion.
    pub excursion_end_ns: u64,
    /// When `slo:fire:supervised-p99` was stamped.
    pub slo_fire_ns: Option<u64>,
    /// When `transition:backend:offloaded->degrading` was stamped.
    pub degrading_ns: Option<u64>,
    /// Health-monitor degradations (must be >= 1).
    pub degrades: u64,
    /// Health-monitor re-promotions (must be >= 1).
    pub promotes: u64,
    /// Flight-recorder dumps requested during the run.
    pub flight_dumps: u64,
    /// Ops that settled OK.
    pub ops_ok: usize,
    /// Ops that failed with a typed error.
    pub ops_failed: u32,
    /// One-line deterministic report.
    pub report: String,
}

/// Run the SLO-excursion case: an offloaded group under health
/// supervision with an attached burn-rate SLO rule
/// (`p99(op_latency_ns{layer=supervised}) < 150us over 8 windows`)
/// takes a 25ms jitter excursion on its client links. The expected
/// causal chain, all visible in one time-series snapshot, is:
///
/// 1. per-window supervised p99 crosses the threshold (the excursion),
/// 2. the SLO alert fires (`slo:fire:` mark, `slo_alerts_fired`
///    counter),
/// 3. the monitor — whose sick signal the alert feeds — degrades to the
///    Naïve path (`transition:backend:offloaded->degrading`),
/// 4. the fault heals, the alert resolves, and the monitor re-promotes.
///
/// Open-loop (one write per 100µs) so the workload spans the fault
/// window regardless of per-op latency.
pub fn run_excursion_case(seed: u64, ops: usize) -> ExcursionOutcome {
    let rep_bytes = ((SLOTS * 256) as u64 + (64 << 10)).next_power_of_two();
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size((rep_bytes as usize + (2 << 20)).next_power_of_two())
        .seed(seed)
        .build();
    w.enable_timeseries(hl_sim::timeseries::DEFAULT_WINDOW);

    let group = GroupBuilder::new(GroupConfig {
        client: CLIENT,
        replicas: vec![R1, R2],
        rep_bytes,
        ring_slots: 128,
        transport_timeout: Some((SimDuration::from_millis(3), 7)),
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group.clone(), &mut w);
    let retry = RetryClient::with_policy(client, policy());
    let monitor = HealthMonitor::start(
        retry.clone(),
        group,
        HealthConfig {
            period: SimDuration::from_millis(2),
            degrade_score: 20,
            healthy_score: 5,
            degrade_after: 2,
            promote_after: 3,
            min_degraded_dwell: SimDuration::from_millis(3),
            ring_slots: 128,
            naive_mode: Mode::Event,
        },
        &mut w,
        &mut eng,
    );
    let slo = Rc::new(RefCell::new(SloEngine::new()));
    slo.borrow_mut().add_rule(
        SloRule::parse(
            "supervised-p99",
            "p99(op_latency_ns{layer=supervised}) < 150us over 8 windows",
        )
        .expect("rule parses")
        .with_short_windows(2),
    );
    monitor.attach_slo(slo.clone());

    // The excursion: heavy jitter on the client's links from 10ms,
    // healing at 35ms. The health score barely moves (nothing times
    // out), so the SLO alert is the only signal that can degrade.
    FaultSchedule {
        seed,
        events: vec![
            FaultEvent {
                at: SimTime::from_nanos(10_000_000),
                duration: Some(SimDuration::from_millis(25)),
                kind: FaultKind::Jitter {
                    src: CLIENT,
                    dst: R1,
                    delay: SimDuration::from_micros(40),
                    jitter: SimDuration::from_micros(120),
                },
            },
            FaultEvent {
                at: SimTime::from_nanos(10_000_000),
                duration: Some(SimDuration::from_millis(25)),
                kind: FaultKind::Jitter {
                    src: R2,
                    dst: CLIENT,
                    delay: SimDuration::from_micros(40),
                    jitter: SimDuration::from_micros(120),
                },
            },
        ],
    }
    .apply(&mut eng);

    let ops_ok = Rc::new(RefCell::new(0usize));
    let ops_failed = Rc::new(RefCell::new(0u32));
    for k in 0..ops {
        let retry = retry.clone();
        let ops_ok = ops_ok.clone();
        let ops_failed = ops_failed.clone();
        let at = SimTime::from_nanos(1_000_000 + k as u64 * 100_000);
        eng.schedule_at(at, move |w: &mut World, eng| {
            retry.gwrite(
                w,
                eng,
                ((k % SLOTS) * 256) as u64,
                &payload(k, 256),
                true,
                Box::new(move |_w, _e, r| match r {
                    Ok(_) => *ops_ok.borrow_mut() += 1,
                    Err(_) => *ops_failed.borrow_mut() += 1,
                }),
            );
        });
    }

    let horizon = 1_000_000 + ops as u64 * 100_000 + 150_000_000;
    eng.run_until(&mut w, SimTime::from_nanos(horizon));
    monitor.stop();
    let now = eng.now();
    w.collect_metrics(now);

    let window_ns = hl_sim::timeseries::DEFAULT_WINDOW.as_nanos();
    let p99_series = w
        .telemetry
        .series
        .quantile_series("op_latency_ns", "layer=supervised", 0.99);
    let (excursion_window, excursion_end_ns) = p99_series
        .iter()
        .find(|(_, p99)| *p99 >= EXCURSION_SLO_NS)
        .map(|(wdw, _)| (*wdw, (*wdw + 1) * window_ns))
        .unwrap_or((0, 0));
    let mark_ns = |name: &str| {
        w.telemetry
            .marks()
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.at.as_nanos())
    };
    let slo_fire_ns = mark_ns("slo:fire:supervised-p99");
    let degrading_ns = mark_ns("transition:backend:offloaded->degrading");

    let snapshot_json = w.telemetry.timeseries_json();
    let snapshot_csv = w.telemetry.timeseries_csv();
    let timeline = w.telemetry.timeline("op_latency_ns");
    let degrades = monitor.degrades();
    let promotes = monitor.promotes();
    let flight_dumps = w.telemetry.flight.requested();
    let ops_ok = *ops_ok.borrow();
    let ops_failed = *ops_failed.borrow();
    let report = format!(
        "excursion seed={seed} ops={ops} ok={ops_ok} failed={ops_failed} \
         excursion_window={excursion_window} excursion_end_ns={excursion_end_ns} \
         slo_fire_ns={} degrading_ns={} degrades={degrades} promotes={promotes} \
         slo_fired={} flight_dumps={flight_dumps}",
        slo_fire_ns.map_or(-1, |v| v as i64),
        degrading_ns.map_or(-1, |v| v as i64),
        slo.borrow().fired("supervised-p99"),
    );
    ExcursionOutcome {
        snapshot_json,
        snapshot_csv,
        timeline,
        window_ns,
        excursion_window,
        excursion_end_ns,
        slo_fire_ns,
        degrading_ns,
        degrades,
        promotes,
        flight_dumps,
        ops_ok,
        ops_failed,
        report,
    }
}
