//! Shard fault isolation: chaos on one shard's chain must not touch the
//! others.
//!
//! Two independent HyperLoop groups are placed on disjoint hosts by
//! [`ShardPlan::place`] (6 hosts for 2 shards of 3 members, plus two
//! standbys for rebuilds). Both shards drive a record stream through
//! deadline-supervised clients while a seeded, *shard-scoped* fault
//! schedule ([`FaultSchedule::generate_shard_faults`]: link-down,
//! WAIT-engine stalls and *silent* NIC stalls, only on the victim
//! shard's replicas) plays out. Silent stalls on a non-head replica
//! produce no error CQE and no missed heartbeat, so each shard also
//! arms the client-side end-to-end deadline probe
//! ([`RetryClient::arm_nic_stall_probe`]) and funnels suspicion into
//! the same latched rebuild path as the binary detectors.
//!
//! Invariants, per seed:
//!
//! 1. **Victim recovers** — every supervised op settles, and an append
//!    issued after the fault window completes; acked records are
//!    byte-identical on every member of the victim's final chain.
//! 2. **Bystander untouched** — the non-victim shard records zero
//!    failures, zero rebuilds, and (the strong form) *byte-identical
//!    per-op latencies* to a fault-free control run of the same seed:
//!    disjoint placement means the fault cannot even perturb its
//!    timing.
//! 3. **Rebuild scoped** — only the victim shard's group ever rebuilds
//!    (`victim_shard_permanent_fault_rebuilds_only_its_group` forces a
//!    permanent head failure to prove a rebuild actually happens and
//!    stays scoped).
//! 4. **Race-freedom** — the WQE-ownership & DMA race detector stays
//!    clean across the whole campaign.

use hyperloop_repro::cluster::chaos::{BystanderProbe, FaultEvent, FaultKind, FaultSchedule};
use hyperloop_repro::cluster::shard::ShardPlan;
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

const N_SHARDS: usize = 2;
const REPLICAS: usize = 2;
const N_RECORDS: usize = 24;
const REC_BYTES: usize = 64;
const STANDBYS: [HostId; 2] = [HostId(6), HostId(7)];
const VICTIM: usize = 0;
const BYSTANDER: usize = 1;

fn record(shard: usize, k: usize) -> Vec<u8> {
    let mut v = format!("shard{shard}-rec-{k:04}-").into_bytes();
    while v.len() < REC_BYTES {
        v.push(b'a' + ((shard + k) % 26) as u8);
    }
    v
}

#[allow(clippy::too_many_arguments)]
fn trigger_rebuild(
    latch: &Rc<RefCell<bool>>,
    rebuilds: &Rc<RefCell<u32>>,
    group: &GroupRef,
    retry: &RetryClient,
    members: &[HostId],
    standbys: &Rc<RefCell<Vec<HostId>>>,
    failed: HostId,
    probe_blame: &Rc<RefCell<usize>>,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    if std::mem::replace(&mut *latch.borrow_mut(), true) {
        return;
    }
    let survivors: Vec<HostId> = members.iter().copied().filter(|&h| h != failed).collect();
    let new_member = standbys.borrow_mut().pop();
    if survivors.is_empty() && new_member.is_none() {
        // Nothing to rebuild onto — leave the group serving so retries
        // can ride the fault out instead of wedging behind `paused`.
        return;
    }
    *rebuilds.borrow_mut() += 1;
    group.borrow_mut().paused = true;
    let mut final_members = survivors.clone();
    if let Some(nm) = new_member {
        final_members.push(nm);
    }
    let retry = retry.clone();
    let standbys = standbys.clone();
    let rebuilds = rebuilds.clone();
    let probe_blame = probe_blame.clone();
    recovery::rebuild_chain(
        w,
        eng,
        group,
        survivors,
        new_member,
        64,
        Box::new(move |w, eng, new_client| {
            retry.swap(new_client.clone());
            arm_recovery(
                new_client.group(),
                &retry,
                final_members,
                standbys,
                rebuilds,
                probe_blame,
                w,
                eng,
            );
        }),
    );
}

/// Arm heartbeat + transport-error detection on one shard's group,
/// counting rebuilds so the isolation invariant can assert they stay
/// scoped to the victim.
#[allow(clippy::too_many_arguments)]
fn arm_recovery(
    group: &GroupRef,
    retry: &RetryClient,
    members: Vec<HostId>,
    standbys: Rc<RefCell<Vec<HostId>>>,
    rebuilds: Rc<RefCell<u32>>,
    probe_blame: Rc<RefCell<usize>>,
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
        let rebuilds = rebuilds.clone();
        let probe_blame = probe_blame.clone();
        recovery::start_heartbeats(
            group,
            HeartbeatConfig {
                period: SimDuration::from_millis(2),
                miss_threshold: 3,
            },
            Box::new(move |w, eng, idx| {
                let failed = members[idx];
                trigger_rebuild(
                    &latch,
                    &rebuilds,
                    &g,
                    &retry,
                    &members,
                    &standbys,
                    failed,
                    &probe_blame,
                    w,
                    eng,
                );
            }),
            w,
            eng,
        );
    }
    {
        let latch = latch.clone();
        let g = group.clone();
        let retry = retry.clone();
        let members = members.clone();
        let standbys = standbys.clone();
        let rebuilds = rebuilds.clone();
        let probe_blame = probe_blame.clone();
        recovery::watch_transport_errors(
            group,
            w,
            Box::new(move |w, eng, _cqe| {
                let failed = members[0];
                trigger_rebuild(
                    &latch,
                    &rebuilds,
                    &g,
                    &retry,
                    &members,
                    &standbys,
                    failed,
                    &probe_blame,
                    w,
                    eng,
                );
            }),
        );
    }
    {
        // End-to-end probe for silent NIC stalls. The probe cannot tell
        // *which* NIC stalled, so blame rotates across chain
        // generations, starting at the first non-head member (a stalled
        // head is usually caught by the transport-error path first): if
        // the first eviction misses the culprit, the next generation's
        // suspicion evicts the next member, bounding recovery at one
        // rebuild per member. Re-armed on every generation.
        // Threshold 5 (≈10ms of consecutive expiries): slow enough
        // that heartbeat loss (~6ms) and head transport errors win the
        // latch for fail-stop faults (they blame the exact host), fast
        // enough to catch a silent stall well inside the retry budget.
        let g = group.clone();
        let r = retry.clone();
        retry.arm_nic_stall_probe(
            5,
            Box::new(move |w, eng| {
                let idx = {
                    let mut b = probe_blame.borrow_mut();
                    let i = *b;
                    *b += 1;
                    i
                };
                let failed = members[(1 + idx) % members.len()];
                trigger_rebuild(
                    &latch,
                    &rebuilds,
                    &g,
                    &r,
                    &members,
                    &standbys,
                    failed,
                    &probe_blame,
                    w,
                    eng,
                );
            }),
        );
    }
}

struct ShardOutcome {
    retry: RetryClient,
    acked: Vec<bool>,
    /// Shared bystander recorder: per-op completion latencies (ns) in
    /// op order (successes only) plus the failed-op count.
    probe: BystanderProbe,
    rebuilds: u32,
    final_ok: Option<bool>,
}

struct CampaignOutcome {
    w: World,
    shards: Vec<ShardOutcome>,
}

/// Run the two-shard campaign. `faults` is `None` for the fault-free
/// control, or `Some(schedule)` scoped to the victim shard's replicas.
fn run_campaign(seed: u64, faults: Option<&FaultSchedule>) -> CampaignOutcome {
    let (mut w, mut eng) = ClusterBuilder::new(8)
        .arena_size(2 << 20)
        .seed(seed)
        .race_detector()
        .build();

    let hosts: Vec<HostId> = (0..N_SHARDS * (1 + REPLICAS)).map(HostId).collect();
    let plan = ShardPlan::place(N_SHARDS, REPLICAS, &hosts);
    assert!(plan.is_disjoint());

    let mut retries = Vec::new();
    let mut rebuild_counters = Vec::new();
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
        let retry = RetryClient::with_policy(
            client,
            DeadlinePolicy {
                deadline: SimDuration::from_millis(2),
                max_attempts: 20,
                backoff: SimDuration::from_micros(500),
                backoff_cap: SimDuration::from_millis(4),
            },
        );
        // Only the victim shard gets the standby; the bystander must
        // never need one.
        let standbys = Rc::new(RefCell::new(if g.shard == VICTIM {
            STANDBYS.to_vec()
        } else {
            vec![]
        }));
        let rebuilds = Rc::new(RefCell::new(0u32));
        arm_recovery(
            &group,
            &retry,
            g.replicas.clone(),
            standbys,
            rebuilds.clone(),
            Rc::new(RefCell::new(0usize)),
            &mut w,
            &mut eng,
        );
        retries.push(retry);
        rebuild_counters.push(rebuilds);
    }

    // Workload: each shard appends one durable record every 2ms.
    let acked: Vec<_> = (0..N_SHARDS)
        .map(|_| Rc::new(RefCell::new(vec![false; N_RECORDS])))
        .collect();
    let probes: Vec<_> = (0..N_SHARDS).map(|_| BystanderProbe::new()).collect();
    for sid in 0..N_SHARDS {
        for k in 0..N_RECORDS {
            let retry = retries[sid].clone();
            let acked = acked[sid].clone();
            let probe = probes[sid].clone();
            let at = SimTime::from_nanos(1_000_000 + k as u64 * 2_000_000);
            eng.schedule_at(at, move |w: &mut World, eng| {
                retry.gwrite(
                    w,
                    eng,
                    (k * REC_BYTES) as u64,
                    &record(sid, k),
                    true,
                    Box::new(move |_w, _e, r| match r {
                        Ok(res) => {
                            acked.borrow_mut()[k] = true;
                            probe.record(k, res.latency.as_nanos());
                        }
                        Err(_) => probe.record_failure(),
                    }),
                );
            });
        }
    }

    if let Some(sched) = faults {
        sched.apply(&mut eng);
    }

    eng.run_until(&mut w, SimTime::from_nanos(200_000_000));

    // Reconvergence append on every shard.
    let final_ok: Vec<_> = (0..N_SHARDS)
        .map(|_| Rc::new(RefCell::new(None::<bool>)))
        .collect();
    for sid in 0..N_SHARDS {
        let f = final_ok[sid].clone();
        retries[sid].gwrite(
            &mut w,
            &mut eng,
            (N_RECORDS * REC_BYTES) as u64,
            &record(sid, N_RECORDS),
            true,
            Box::new(move |_w, _e, r| *f.borrow_mut() = Some(r.is_ok())),
        );
    }
    eng.run_until(&mut w, SimTime::from_nanos(400_000_000));

    let shards = (0..N_SHARDS)
        .map(|sid| ShardOutcome {
            retry: retries[sid].clone(),
            acked: acked[sid].borrow().clone(),
            probe: probes[sid].clone(),
            rebuilds: *rebuild_counters[sid].borrow(),
            final_ok: *final_ok[sid].borrow(),
        })
        .collect();
    CampaignOutcome { w, shards }
}

fn victim_schedule(seed: u64, plan_replicas: &[HostId]) -> FaultSchedule {
    FaultSchedule::generate_shard_faults(
        seed,
        plan_replicas,
        SimTime::from_nanos(2_000_000),
        SimTime::from_nanos(50_000_000),
    )
}

fn victim_replicas() -> Vec<HostId> {
    let hosts: Vec<HostId> = (0..N_SHARDS * (1 + REPLICAS)).map(HostId).collect();
    ShardPlan::place(N_SHARDS, REPLICAS, &hosts).groups[VICTIM]
        .replicas
        .clone()
}

fn assert_isolation(seed: u64) {
    let sched = victim_schedule(seed, &victim_replicas());
    assert!(!sched.events.is_empty(), "seed {seed}: empty schedule");
    let faulted = run_campaign(seed, Some(&sched));
    let control = run_campaign(seed, None);

    // Victim: every op settled, chain reconverged.
    let v = &faulted.shards[VICTIM];
    assert_eq!(
        v.retry.outstanding(),
        0,
        "seed {seed}: victim ops unsettled"
    );
    let n_acked = v.acked.iter().filter(|&&a| a).count();
    assert_eq!(
        n_acked + v.probe.failed(),
        N_RECORDS,
        "seed {seed}: victim op settled neither ACK nor error"
    );
    assert_eq!(
        v.final_ok,
        Some(true),
        "seed {seed}: victim shard did not reconverge after the fault window"
    );
    // Victim: acked records byte-identical on every member of the final
    // chain.
    let c = v.retry.client();
    for k in 0..N_RECORDS {
        if !v.acked[k] {
            continue;
        }
        let want = record(VICTIM, k);
        for m in 0..c.group_size() {
            let host = c.member_host(m);
            let addr = c.member_addr(m, (k * REC_BYTES) as u64);
            let got = faulted.w.hosts[host.0]
                .mem
                .read_vec(addr, REC_BYTES)
                .unwrap();
            assert_eq!(
                got, want,
                "seed {seed}: victim acked record {k} diverges on member {m} ({host})"
            );
        }
    }

    // Bystander: zero failures, zero rebuilds, everything acked.
    let b = &faulted.shards[BYSTANDER];
    assert_eq!(b.retry.outstanding(), 0, "seed {seed}: bystander unsettled");
    assert_eq!(
        b.probe.failed(),
        0,
        "seed {seed}: bystander saw op failures"
    );
    assert_eq!(b.rebuilds, 0, "seed {seed}: bystander rebuilt its chain");
    assert!(
        b.acked.iter().all(|&a| a),
        "seed {seed}: bystander op not acked"
    );
    assert_eq!(
        b.final_ok,
        Some(true),
        "seed {seed}: bystander final append"
    );

    // The strong isolation form: the bystander's per-op latencies are
    // byte-identical to the fault-free control run — the victim's
    // faults, retries and rebuild did not perturb its timing at all.
    b.probe
        .assert_identical_to(&control.shards[BYSTANDER].probe, "shard-chaos");

    // Race-freedom under the ownership/DMA detector.
    let report = faulted.w.race_report();
    assert!(
        report.is_empty(),
        "seed {seed}: race detector flagged:\n{}",
        report.join("\n")
    );
}

macro_rules! shard_chaos_campaigns {
    ($($name:ident: $seed:expr,)*) => {$(
        #[test]
        fn $name() {
            assert_isolation($seed);
        }
    )*}
}

shard_chaos_campaigns! {
    shard_chaos_seed_201: 201,
    shard_chaos_seed_202: 202,
    shard_chaos_seed_203: 203,
    shard_chaos_seed_204: 204,
    shard_chaos_seed_205: 205,
    shard_chaos_seed_206: 206,
}

/// Force a rebuild (permanent link-down on the victim's chain head) and
/// assert the rebuild happens *and* stays scoped to the victim's group
/// while the bystander runs clean.
#[test]
fn victim_shard_permanent_fault_rebuilds_only_its_group() {
    let head = victim_replicas()[0];
    let sched = FaultSchedule {
        seed: 0,
        events: vec![FaultEvent {
            at: SimTime::from_nanos(10_000_000),
            duration: None,
            kind: FaultKind::LinkDown { host: head },
        }],
    };
    let faulted = run_campaign(999, Some(&sched));
    let control = run_campaign(999, None);

    let v = &faulted.shards[VICTIM];
    assert!(
        v.rebuilds >= 1,
        "permanent head failure must trigger a rebuild"
    );
    assert_eq!(v.retry.outstanding(), 0);
    assert_eq!(v.final_ok, Some(true), "victim must serve after rebuild");

    let b = &faulted.shards[BYSTANDER];
    assert_eq!(b.rebuilds, 0, "rebuild leaked to the bystander shard");
    assert_eq!(b.probe.failed(), 0);
    b.probe
        .assert_identical_to(&control.shards[BYSTANDER].probe, "permanent-fault");

    assert!(faulted.w.race_report().is_empty());
}

#[test]
#[ignore]
fn debug_shard_campaign() {
    let seed: u64 = std::env::var("SHARD_CHAOS_SEED")
        .expect("set SHARD_CHAOS_SEED=<u64>")
        .parse()
        .expect("SHARD_CHAOS_SEED must be a u64");
    let reps = victim_replicas();
    println!("victim replicas: {reps:?}");
    let sched = victim_schedule(seed, &reps);
    for e in &sched.events {
        println!(
            "event at {}us dur {:?}us kind {}",
            e.at.as_nanos() / 1000,
            e.duration.map(|d| d.as_nanos() / 1000),
            e.kind
        );
    }
    let r = run_campaign(seed, Some(&sched));
    for (sid, s) in r.shards.iter().enumerate() {
        println!(
            "shard {sid}: acked={} failed={} rebuilds={} final_ok={:?} outstanding={}",
            s.acked.iter().filter(|&&a| a).count(),
            s.probe.failed(),
            s.rebuilds,
            s.final_ok,
            s.retry.outstanding()
        );
    }
}
