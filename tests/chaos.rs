//! Chaos campaigns: seeded fault schedules against the replicated chain.
//!
//! Each campaign builds a 4-host cluster (client `h0`, chain `h1`-`h2`,
//! standby `h3`), drives a stream of durable gWRITEs through a
//! deadline-supervised [`RetryClient`], and replays the deterministic
//! fault schedule [`FaultSchedule::generate`] derives from the seed —
//! packet-loss windows, one-way partitions, link failures, NIC and
//! WAIT-engine stalls, CPU hogs, and sometimes a permanent host crash.
//! Two detection paths — heartbeat misses and transport-error CQEs on
//! the client's reliable outbound QPs — funnel into one rebuild per
//! chain generation, and every rebuilt chain is re-armed, so campaigns
//! survive cascaded and spurious failures until the standby pool runs
//! out.
//!
//! Invariants checked at quiescence, for every seed:
//!
//! 1. **Never hangs** — every supervised op settled (ACK or typed error).
//! 2. **No acked-write loss** — every ACKed record is present and
//!    byte-identical on the client copy and every member of the final
//!    chain.
//! 3. **Reconvergence** — an append issued after the fault window
//!    completes successfully.
//! 4. **Reproducibility** — the same seed yields a byte-identical trace
//!    (checked by `same_seed_reproduces_identical_trace`).
//! 5. **Race-freedom** — the WQE-ownership & DMA race detector and the
//!    fabric FIFO auditor report nothing.
//! 6. **No lost completion** — no CQ that software polls or subscribes
//!    to overran its ring (`World::polled_cq_overruns` is 0).
//!
//! A failing campaign prints its seed; re-run `run_campaign(seed)` to
//! reproduce the exact event sequence.

use hyperloop_repro::cluster::chaos::FaultSchedule;
use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::api::GroupClient;
use hyperloop_repro::hyperloop::recovery::{self, HeartbeatConfig};
use hyperloop_repro::hyperloop::{
    replica, DeadlinePolicy, GroupBuilder, GroupConfig, GroupRef, HyperLoopClient, RetryClient,
};
use hyperloop_repro::sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const N_RECORDS: usize = 24;
const REC_BYTES: usize = 64;
const STANDBY: HostId = HostId(3);

fn record(k: usize) -> Vec<u8> {
    let mut v = format!("chaos-record-{k:04}-").into_bytes();
    while v.len() < REC_BYTES {
        v.push(b'a' + (k % 26) as u8);
    }
    v
}

/// Rebuild `group`'s chain without `failed`, drawing a replacement from
/// the standby pool if one is left, and re-arm detection on the rebuilt
/// chain. The per-group latch makes each chain generation rebuild at
/// most once, however many detection paths fire.
#[allow(clippy::too_many_arguments)]
fn trigger_rebuild(
    latch: &Rc<RefCell<bool>>,
    group: &GroupRef,
    retry: &RetryClient,
    members: &[HostId],
    standbys: &Rc<RefCell<Vec<HostId>>>,
    failed: HostId,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    if std::mem::replace(&mut *latch.borrow_mut(), true) {
        return;
    }
    group.borrow_mut().paused = true;
    let survivors: Vec<HostId> = members.iter().copied().filter(|&h| h != failed).collect();
    let new_member = standbys.borrow_mut().pop();
    if survivors.is_empty() && new_member.is_none() {
        return;
    }
    let mut final_members = survivors.clone();
    if let Some(nm) = new_member {
        final_members.push(nm);
    }
    let retry = retry.clone();
    let standbys = standbys.clone();
    recovery::rebuild_chain(
        w,
        eng,
        group,
        survivors,
        new_member,
        64,
        Box::new(move |w, eng, new_client| {
            retry.swap(new_client.clone());
            arm_recovery(new_client.group(), &retry, final_members, standbys, w, eng);
        }),
    );
}

/// Arm both detection paths on `group` — heartbeat misses and
/// transport-error CQEs on the client's reliable outbound QPs — and
/// funnel them into one rebuild per chain generation. Rebuilt chains
/// are re-armed, so campaigns survive cascaded and spurious failures
/// until the standby pool (and then the chain itself) runs out.
fn arm_recovery(
    group: &GroupRef,
    retry: &RetryClient,
    members: Vec<HostId>,
    standbys: Rc<RefCell<Vec<HostId>>>,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    let latch = Rc::new(RefCell::new(false));
    {
        let latch = latch.clone();
        let g = group.clone();
        let retry = retry.clone();
        let members = members.clone();
        let standbys = standbys.clone();
        recovery::start_heartbeats(
            group,
            HeartbeatConfig {
                period: SimDuration::from_millis(2),
                miss_threshold: 3,
            },
            Box::new(move |w, eng, idx| {
                let failed = members[idx];
                trigger_rebuild(&latch, &g, &retry, &members, &standbys, failed, w, eng);
            }),
            w,
            eng,
        );
    }
    {
        let g = group.clone();
        let retry = retry.clone();
        recovery::watch_transport_errors(
            group,
            w,
            Box::new(move |w, eng, _cqe| {
                // Transport errors surface on the hop to the head.
                let failed = members[0];
                trigger_rebuild(&latch, &g, &retry, &members, &standbys, failed, w, eng);
            }),
        );
    }
}

struct CampaignResult {
    w: World,
    retry: RetryClient,
    acked: Vec<bool>,
    failed_ops: u32,
    final_ok: Option<bool>,
    trace: String,
    chrome_trace: String,
}

fn run_campaign(seed: u64) -> CampaignResult {
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size(2 << 20)
        .seed(seed)
        .race_detector()
        .build();
    w.tracer.enable(&["chaos", "recovery", "fault"]);
    w.enable_telemetry();

    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 256 << 10,
        ring_slots: 64,
        // The retry budget (8 x 3ms) outlasts any transient fault window
        // the schedule can generate, so only a permanent head failure
        // exhausts it and escalates to a transport-error rebuild.
        transport_timeout: Some((SimDuration::from_millis(3), 7)),
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group.clone(), &mut w);
    let retry = RetryClient::with_policy(
        client,
        DeadlinePolicy {
            deadline: SimDuration::from_millis(2),
            max_attempts: 20,
            backoff: SimDuration::from_micros(500),
            backoff_cap: SimDuration::from_millis(4),
        },
    );

    arm_recovery(
        &group,
        &retry,
        vec![HostId(1), HostId(2)],
        Rc::new(RefCell::new(vec![STANDBY])),
        &mut w,
        &mut eng,
    );

    // Workload: one durable record every 2ms, spanning the fault window.
    let acked = Rc::new(RefCell::new(vec![false; N_RECORDS]));
    let failed_ops = Rc::new(RefCell::new(0u32));
    for k in 0..N_RECORDS {
        let retry = retry.clone();
        let acked = acked.clone();
        let failed_ops = failed_ops.clone();
        let at = SimTime::from_nanos(1_000_000 + k as u64 * 2_000_000);
        eng.schedule_at(at, move |w: &mut World, eng| {
            retry.gwrite(
                w,
                eng,
                (k * REC_BYTES) as u64,
                &record(k),
                true,
                Box::new(move |_w, _e, r| match r {
                    Ok(_) => acked.borrow_mut()[k] = true,
                    Err(_) => *failed_ops.borrow_mut() += 1,
                }),
            );
        });
    }

    let sched = FaultSchedule::generate(
        seed,
        &[HostId(1), HostId(2)],
        HostId(0),
        SimTime::from_nanos(2_000_000),
        SimTime::from_nanos(50_000_000),
    );
    sched.apply(&mut eng);

    // Quiesce: all transients heal by ~63ms, supervision settles every
    // op well before 200ms.
    eng.run_until(&mut w, SimTime::from_nanos(200_000_000));

    // Reconvergence: a fresh append on the (possibly rebuilt) chain.
    let final_ok = Rc::new(RefCell::new(None::<bool>));
    {
        let final_ok = final_ok.clone();
        retry.gwrite(
            &mut w,
            &mut eng,
            (N_RECORDS * REC_BYTES) as u64,
            &record(N_RECORDS),
            true,
            Box::new(move |_w, _e, r| *final_ok.borrow_mut() = Some(r.is_ok())),
        );
    }
    eng.run_until(&mut w, SimTime::from_nanos(400_000_000));

    let trace = w
        .tracer
        .entries()
        .iter()
        .map(|e| format!("{} {} {}\n", e.at.as_nanos(), e.sys, e.msg))
        .collect();
    let now = eng.now();
    w.collect_metrics(now);
    let chrome_trace = w.telemetry.chrome_trace();
    let acked = acked.borrow().clone();
    let failed_ops = *failed_ops.borrow();
    let final_ok = *final_ok.borrow();
    CampaignResult {
        w,
        retry,
        acked,
        failed_ops,
        final_ok,
        trace,
        chrome_trace,
    }
}

fn assert_invariants(r: &CampaignResult, seed: u64) {
    // 1. Never hangs: every supervised op settled one way or the other.
    assert_eq!(
        r.retry.outstanding(),
        0,
        "seed {seed}: supervised ops left unsettled"
    );
    let n_acked = r.acked.iter().filter(|&&a| a).count();
    assert_eq!(
        n_acked + r.failed_ops as usize,
        N_RECORDS,
        "seed {seed}: op settled neither ACK nor typed error"
    );
    // 3. Reconvergence: the post-heal append completed.
    assert_eq!(
        r.final_ok,
        Some(true),
        "seed {seed}: append after the fault window did not complete"
    );
    // 5. Race-freedom: the WQE-ownership & DMA race detector saw
    // nothing across the whole campaign.
    let report = r.w.race_report();
    assert!(
        report.is_empty(),
        "seed {seed}: race detector flagged:\n{}",
        report.join("\n")
    );
    // 6. No completion lost: overruns only hit CQs that nothing polls.
    assert_eq!(
        r.w.polled_cq_overruns(),
        0,
        "seed {seed}: a polled CQ overran"
    );
    // 2. No acked-write loss: every ACKed record is byte-identical on
    // the client copy and every member of the final chain.
    let c = r.retry.client();
    for k in 0..N_RECORDS {
        if !r.acked[k] {
            continue;
        }
        let want = record(k);
        for m in 0..c.group_size() {
            let host = c.member_host(m);
            let addr = c.member_addr(m, (k * REC_BYTES) as u64);
            let got = r.w.hosts[host.0].mem.read_vec(addr, REC_BYTES).unwrap();
            assert_eq!(
                got, want,
                "seed {seed}: acked record {k} diverges on member {m} ({host})"
            );
        }
    }
}

macro_rules! chaos_campaigns {
    ($($name:ident: $seed:expr,)*) => {$(
        #[test]
        fn $name() {
            let r = run_campaign($seed);
            assert_invariants(&r, $seed);
        }
    )*}
}

chaos_campaigns! {
    chaos_seed_101: 101,
    chaos_seed_102: 102,
    chaos_seed_103: 103,
    chaos_seed_104: 104,
    chaos_seed_105: 105,
    chaos_seed_106: 106,
    chaos_seed_107: 107,
    chaos_seed_108: 108,
    chaos_seed_109: 109,
    chaos_seed_110: 110,
    chaos_seed_111: 111,
    chaos_seed_112: 112,
    chaos_seed_113: 113,
    chaos_seed_114: 114,
    chaos_seed_115: 115,
    chaos_seed_116: 116,
    chaos_seed_117: 117,
    chaos_seed_118: 118,
    chaos_seed_119: 119,
    chaos_seed_120: 120,
    chaos_seed_121: 121,
    chaos_seed_122: 122,
}

/// Satellite invariant: one campaign, run twice with the same seed,
/// produces byte-identical trace streams.
#[test]
fn same_seed_reproduces_identical_trace() {
    let a = run_campaign(107);
    let b = run_campaign(107);
    assert!(
        !a.trace.is_empty(),
        "campaign produced no trace entries; determinism check is vacuous"
    );
    assert_eq!(
        a.trace, b.trace,
        "same seed produced diverging event traces"
    );
}

/// Telemetry determinism: for several chaos seeds, the same seed yields
/// a byte-identical Chrome trace-event export — causal spans, per-hop
/// segments, fault marks and all. Any nondeterminism in op-id
/// allocation, event stamping order, or the hand-rolled serializer
/// would show up here.
#[test]
fn same_seed_reproduces_identical_chrome_trace() {
    for seed in [103, 107, 111] {
        let a = run_campaign(seed);
        let b = run_campaign(seed);
        assert!(
            a.chrome_trace.starts_with("{\"traceEvents\":["),
            "seed {seed}: export is not Chrome trace-event JSON"
        );
        assert!(
            a.chrome_trace.contains("\"name\":\"gWRITE\""),
            "seed {seed}: no gWRITE spans in the export; determinism check is vacuous"
        );
        assert!(
            a.chrome_trace.contains("\"cat\":\"mark\""),
            "seed {seed}: no fault/heal marks in the export"
        );
        assert_eq!(
            a.chrome_trace, b.chrome_trace,
            "seed {seed}: same seed produced diverging Chrome traces"
        );
    }
}

#[test]
#[ignore]
fn debug_campaign() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .expect("set CHAOS_SEED=<u64> to pick the campaign to replay")
        .parse()
        .expect("CHAOS_SEED must be an unsigned integer seed");
    let sched = FaultSchedule::generate(
        seed,
        &[HostId(1), HostId(2)],
        HostId(0),
        SimTime::from_nanos(2_000_000),
        SimTime::from_nanos(50_000_000),
    );
    for e in &sched.events {
        println!(
            "event at {}us dur {:?}us kind {}",
            e.at.as_nanos() / 1000,
            e.duration.map(|d| d.as_nanos() / 1000),
            e.kind
        );
    }
    let r = run_campaign(seed);
    println!("acked: {:?}", r.acked);
    println!("failed_ops: {}", r.failed_ops);
    println!("final_ok: {:?}", r.final_ok);
    println!("outstanding: {}", r.retry.outstanding());
    println!("trace:\n{}", r.trace);
}
