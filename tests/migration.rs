//! Live shard split/merge under traffic, proven correct by a migration
//! test battery.
//!
//! A three-shard HyperLoop deployment (disjoint chains placed by
//! [`ShardPlan::place`]) serves an open-loop keyed write stream while
//! shard 0 is split onto a freshly placed chain —
//! [`split_live`] streams the donor region with the dirty-log + bulk
//! catch-up + bounded-drain + dual-window machinery — and, in the
//! round-trip campaign, merged back with [`merge_live`]. The invariants,
//! per seed:
//!
//! 1. **Differential oracle** — per key, the value replicated by the
//!    HyperLoop-with-mid-run-split run is byte-identical on every member
//!    of the key's *final* owner chain to a never-split Naïve control
//!    driving the same schedule (and to the pure-function expected
//!    payload).
//! 2. **Bystander isolation** — shards 1 and 2 record byte-identical
//!    per-op latency vectors (and whole-region member snapshots) to a
//!    no-migration control of the same seed, including when the donor
//!    chain runs under a gray impairment matrix for the whole window.
//! 3. **Thread-count determinism** — the same seeds produce identical
//!    snapshots at 1, 2 and 4 [`ShardExecutor`] threads.
//! 4. **Protocol order** — for every live plan of the reconfiguration
//!    engine (split, merge, live cutover, rejoin) the stage marks fire
//!    in stage order and the commit lands inside the CutOver stage.
//! 5. **Model battery** — seeded proptest sequences interleaving issued
//!    ops, stage advances and crashes over [`MigrationModel`] never lose
//!    or double-apply an op.

use hyperloop_repro::cluster::chaos::{member_snapshot, BystanderProbe, FaultSchedule};
use hyperloop_repro::cluster::exec::ShardExecutor;
use hyperloop_repro::cluster::migrate::{MigrationActor, MigrationModel, MigrationStage};
use hyperloop_repro::cluster::shard::{HashRing, ShardGroup, ShardPlan};
use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::api::GroupClient;
use hyperloop_repro::hyperloop::health::{live_cutover, rejoin_member};
use hyperloop_repro::hyperloop::naive::{Mode, NaiveBuilder, NaiveClient, NaiveConfig};
use hyperloop_repro::hyperloop::{
    merge_live, replica, split_live, DeadlinePolicy, GroupBuilder, GroupConfig, HyperLoopClient,
    MigrationSpec, RetryClient, ShardRouter,
};
use hyperloop_repro::sim::{SimDuration, SimTime};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Initial shards, members per chain, dest chain hosts.
const N_SHARDS: usize = 3;
const REPLICAS: usize = 2;
const G: usize = 1 + REPLICAS;
const DEST_CLIENT: HostId = HostId(9);
const DEST_REPLICAS: [HostId; 2] = [HostId(10), HostId(11)];
const N_HOSTS: usize = 12;
const PARENT: usize = 0;

/// Key/slot geometry: every key owns one globally unique record slot,
/// so a migrated range can never clobber a surviving shard's keys.
const K: usize = 48;
const REC_BYTES: usize = 64;
const REP_BYTES: u64 = 16 << 10;

/// Open-loop schedule: `N_OPS` writes, one every 100µs from 1ms; the
/// split starts at 4ms and the (optional) merge back at 14ms, both well
/// inside the traffic window.
const N_OPS: usize = 240;
const T_START: u64 = 1_000_000;
const OP_PERIOD: u64 = 100_000;
const T_SPLIT: u64 = 4_000_000;
const T_MERGE: u64 = 14_000_000;
const T_END: u64 = 40_000_000;

/// Hot-key merge: extra writes to one victim key, one every 6µs (just
/// under the chain's flushed-write service rate, so none backs off)
/// from the instant the merge starts. An unused tail of the region rides
/// along as one more move range, streamed in small chunks, so the bulk
/// copy outlasts the burst and every hot write lands in the dirty log
/// instead of parking.
const HOT_PERIOD: u64 = 6_000;
const PAD_RANGE: (u64, u64) = (4096, 6144);
const HOT_CHUNK: u32 = 8;

/// What happens to shard 0 (`PARENT`) mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reconfig {
    /// Nothing: the no-migration control.
    None,
    /// `split_live` at `T_SPLIT`.
    Split,
    /// Split, then `merge_live` the new shard back at `T_MERGE` while
    /// `hot` extra writes hammer one victim key.
    SplitMerge { hot: usize },
    /// `live_cutover` of shard 0 onto a fresh chain over its own hosts.
    Cutover,
    /// `rejoin_member`: shard 0 re-admits `DEST_CLIENT` as a replica.
    Rejoin,
}

fn key_bytes(i: usize) -> [u8; 8] {
    (i as u64).to_le_bytes()
}

fn slot_off(i: usize) -> u64 {
    (i * REC_BYTES) as u64
}

/// Op `j` writes key `j % K`; the payload is a pure function of both.
fn record(i: usize, j: usize) -> Vec<u8> {
    let mut v = format!("key{i:03}-v{j:04}-").into_bytes();
    while v.len() < REC_BYTES {
        v.push(b'a' + ((i + j) % 26) as u8);
    }
    v
}

/// The last op index writing key `i` — its expected final version.
fn last_version(i: usize) -> usize {
    i + K * ((N_OPS - 1 - i) / K)
}

fn base_ring() -> HashRing {
    HashRing::new(N_SHARDS)
}

fn split_ring() -> HashRing {
    base_ring().split_shard(PARENT)
}

fn dest_group() -> ShardGroup {
    ShardGroup {
        shard: N_SHARDS,
        client: DEST_CLIENT,
        replicas: DEST_REPLICAS.to_vec(),
    }
}

fn place() -> ShardPlan {
    let hosts: Vec<HostId> = (0..N_SHARDS * G).map(HostId).collect();
    let plan = ShardPlan::place(N_SHARDS, REPLICAS, &hosts);
    assert!(plan.is_disjoint());
    plan
}

fn mig_spec() -> MigrationSpec {
    MigrationSpec {
        policy: retry_policy(),
        ring_slots: 64,
        chunk: 64 * 1024,
    }
}

fn retry_policy() -> DeadlinePolicy {
    DeadlinePolicy {
        deadline: SimDuration::from_millis(2),
        max_attempts: 20,
        backoff: SimDuration::from_micros(500),
        backoff_cap: SimDuration::from_millis(4),
    }
}

/// Everything one campaign run observes. Only plain data + shared
/// probes — no simulation state — so [`digest`] can lower it to `Send`
/// bytes for the threaded determinism property.
struct CampaignRun {
    migrated: bool,
    merged: bool,
    /// `migrate_delta_bytes` added by the merge alone, and the bytes its
    /// move ranges hold.
    merge_delta_bytes: u64,
    merge_move_bytes: u64,
    hot_acked: usize,
    epoch: u64,
    n_failures: usize,
    acked: Vec<bool>,
    /// Per *original* shard: completion latencies in op order.
    probes: Vec<BystanderProbe>,
    /// `[key][member]` record bytes on the key's final owner chain.
    key_values: Vec<Vec<Vec<u8>>>,
    /// `[shard 1, shard 2][member]` whole-region snapshots.
    bystander_regions: Vec<Vec<Vec<u8>>>,
    /// Telemetry mark names in emission order (empty when disabled).
    marks: Vec<String>,
    race: Vec<String>,
}

/// Run the campaign: three chains + router, open-loop keyed writes,
/// optional mid-run reconfiguration of shard 0, optional fault schedule.
fn run_campaign(
    seed: u64,
    reconfig: Reconfig,
    faults: Option<&FaultSchedule>,
    telemetry: bool,
) -> CampaignRun {
    let (mut w, mut eng) = ClusterBuilder::new(N_HOSTS)
        .arena_size(4 << 20)
        .seed(seed)
        .race_detector()
        .build();
    if telemetry {
        w.enable_telemetry();
    }

    let plan = place();
    let mut retries = Vec::new();
    for g in &plan.groups {
        let group = GroupBuilder::new(GroupConfig {
            client: g.client,
            replicas: g.replicas.clone(),
            rep_bytes: REP_BYTES,
            ring_slots: 64,
            transport_timeout: Some((SimDuration::from_millis(3), 7)),
            ..Default::default()
        })
        .build(&mut w);
        replica::start_replenishers(&group, &mut w, &mut eng);
        let client = HyperLoopClient::new(group, &mut w);
        retries.push(RetryClient::with_policy(client, retry_policy()));
    }
    let router = ShardRouter::new(retries);
    assert_eq!(router.ring(), base_ring());

    // Open-loop keyed traffic; completions recorded per *original*
    // owner so migration and control runs index identically.
    let ring0 = base_ring();
    let acked = Rc::new(RefCell::new(vec![false; N_OPS]));
    let probes: Vec<BystanderProbe> = (0..N_SHARDS).map(|_| BystanderProbe::new()).collect();
    for j in 0..N_OPS {
        let i = j % K;
        let router = router.clone();
        let acked = acked.clone();
        let probe = probes[ring0.shard_of(&key_bytes(i))].clone();
        let at = SimTime::from_nanos(T_START + j as u64 * OP_PERIOD);
        eng.schedule_at(at, move |w: &mut World, eng| {
            router.gwrite_keyed(
                w,
                eng,
                &key_bytes(i),
                slot_off(i),
                &record(i, j),
                true,
                Box::new(move |_w, _e, r| match r {
                    Ok(res) => {
                        acked.borrow_mut()[j] = true;
                        probe.record(j, res.latency.as_nanos());
                    }
                    Err(_) => probe.record_failure(),
                }),
            );
        });
    }

    let migrated = Rc::new(RefCell::new(false));
    let merged = Rc::new(RefCell::new(false));
    let merge_delta = Rc::new(RefCell::new((0u64, 0u64)));
    let hot_acked = Rc::new(RefCell::new(0usize));
    if reconfig != Reconfig::None {
        let router2 = router.clone();
        let m = migrated.clone();
        eng.schedule_at(SimTime::from_nanos(T_SPLIT), move |w: &mut World, eng| {
            let shard0 = router2.client(PARENT);
            let m2 = m.clone();
            let rebuilt = Box::new(move |_: &mut World, _: &mut _, _| *m2.borrow_mut() = true);
            match reconfig {
                Reconfig::Cutover => {
                    let cfg = shard0.client().group().borrow().cfg.clone();
                    live_cutover(&shard0, cfg, w, eng, rebuilt);
                }
                Reconfig::Rejoin => rejoin_member(&shard0, DEST_CLIENT, 64, w, eng, rebuilt),
                _ => split_live(
                    &router2,
                    PARENT,
                    dest_group(),
                    mig_spec(),
                    w,
                    eng,
                    Box::new(move |_w, _e| *m.borrow_mut() = true),
                ),
            }
        });
    }
    if let Reconfig::SplitMerge { hot } = reconfig {
        // Merge the split-off shard straight back into its parent. The
        // moving ranges are the slots of the keys the split moved.
        let moving_keys: Vec<usize> = (0..K)
            .filter(|&i| split_ring().shard_of(&key_bytes(i)) == N_SHARDS)
            .collect();
        let mut moving: Vec<(u64, u64)> = moving_keys
            .iter()
            .map(|&i| (slot_off(i), REC_BYTES as u64))
            .collect();
        let mut spec = mig_spec();
        if hot > 0 {
            moving.push(PAD_RANGE);
            spec.chunk = HOT_CHUNK;
        }
        let hot_key = moving_keys[0];
        let router2 = router.clone();
        let migrated = migrated.clone();
        let m = merged.clone();
        let merge_delta = merge_delta.clone();
        let hot_acked = hot_acked.clone();
        eng.schedule_at(SimTime::from_nanos(T_MERGE), move |w: &mut World, eng| {
            assert!(
                *migrated.borrow(),
                "split must have finished before the merge starts"
            );
            let counter = |w: &World| {
                w.telemetry
                    .metrics
                    .counter("migrate_delta_bytes", "layer=migrate")
            };
            let before = counter(w);
            let move_bytes = moving.iter().map(|&(_, len)| len).sum();
            merge_live(
                &router2,
                PARENT,
                moving,
                spec,
                w,
                eng,
                Box::new(move |w, _e| {
                    *m.borrow_mut() = true;
                    *merge_delta.borrow_mut() = (counter(w) - before, move_bytes);
                }),
            );
            for n in 0..hot {
                let router = router2.clone();
                let hot_acked = hot_acked.clone();
                let at = SimTime::from_nanos(T_MERGE + (n as u64 + 1) * HOT_PERIOD);
                eng.schedule_at(at, move |w: &mut World, eng| {
                    router.gwrite_keyed(
                        w,
                        eng,
                        &key_bytes(hot_key),
                        slot_off(hot_key),
                        &record(hot_key, N_OPS + n),
                        true,
                        Box::new(move |_w, _e, r| *hot_acked.borrow_mut() += r.is_ok() as usize),
                    );
                });
            }
        });
    }

    if let Some(sched) = faults {
        sched.apply(&mut eng);
    }
    eng.run_until(&mut w, SimTime::from_nanos(T_END));
    assert_eq!(router.outstanding(), 0, "seed {seed}: ops still in flight");
    assert_eq!(router.parked(), 0, "seed {seed}: ops left parked");

    // Final owner ring of every key.
    let final_ring = if reconfig == Reconfig::Split {
        split_ring()
    } else {
        base_ring()
    };
    let key_values = (0..K)
        .map(|i| {
            let c = router.client(final_ring.shard_of(&key_bytes(i))).client();
            (0..c.group_size())
                .map(|m| {
                    member_snapshot(
                        &w,
                        c.member_host(m),
                        c.member_addr(m, slot_off(i)),
                        REC_BYTES,
                    )
                })
                .collect()
        })
        .collect();
    let bystander_regions = (1..N_SHARDS)
        .map(|sid| {
            let c = router.client(sid).client();
            (0..c.group_size())
                .map(|m| {
                    member_snapshot(
                        &w,
                        c.member_host(m),
                        c.member_addr(m, 0),
                        REP_BYTES as usize,
                    )
                })
                .collect()
        })
        .collect();

    let race = w.race_report();

    let (did_migrate, did_merge) = (*migrated.borrow(), *merged.borrow());
    let (merge_delta_bytes, merge_move_bytes) = *merge_delta.borrow();
    let hot_acked = *hot_acked.borrow();
    let acked = acked.borrow().clone();
    CampaignRun {
        migrated: did_migrate,
        merged: did_merge,
        merge_delta_bytes,
        merge_move_bytes,
        hot_acked,
        epoch: router.epoch(),
        n_failures: router.failures().len(),
        acked,
        probes,
        key_values,
        bystander_regions,
        marks: w.telemetry.marks().iter().map(|m| m.name.clone()).collect(),
        race,
    }
}

/// The never-split Naïve control: the same schedule over naive chains
/// on the same placement; returns `[key][member]` record bytes.
fn run_naive_control(seed: u64) -> Vec<Vec<Vec<u8>>> {
    let (mut w, mut eng) = ClusterBuilder::new(N_HOSTS)
        .arena_size(4 << 20)
        .seed(seed)
        .build();
    let plan = place();
    let clients: Vec<Rc<NaiveClient>> = plan
        .groups
        .iter()
        .map(|g| {
            Rc::new(
                NaiveBuilder::new(NaiveConfig {
                    client: g.client,
                    replicas: g.replicas.clone(),
                    rep_bytes: REP_BYTES,
                    ring_slots: 64,
                    mode: Mode::Event,
                    ..Default::default()
                })
                .build(&mut w, &mut eng),
            )
        })
        .collect();

    let ring = base_ring();
    for j in 0..N_OPS {
        let i = j % K;
        let c = clients[ring.shard_of(&key_bytes(i))].clone();
        let at = SimTime::from_nanos(T_START + j as u64 * OP_PERIOD);
        eng.schedule_at(at, move |w: &mut World, eng| {
            c.gwrite(
                w,
                eng,
                slot_off(i),
                &record(i, j),
                true,
                Box::new(|_w, _e, _r| {}),
            )
            .expect("paced naive issue never backpressures");
        });
    }
    eng.run_until(&mut w, SimTime::from_nanos(T_END));

    (0..K)
        .map(|i| {
            let c = &clients[ring.shard_of(&key_bytes(i))];
            (0..c.group_size())
                .map(|m| {
                    member_snapshot(
                        &w,
                        c.member_host(m),
                        c.member_addr(m, slot_off(i)),
                        REC_BYTES,
                    )
                })
                .collect()
        })
        .collect()
}

fn assert_race_free(run: &CampaignRun, what: &str) {
    assert!(run.race.is_empty(), "{what}: races: {:?}", run.race);
}

/// The split must move some of shard 0's keys and keep some — otherwise
/// both the oracle and the bystander property are vacuous.
fn assert_split_nontrivial() {
    let (b, s) = (base_ring(), split_ring());
    let moved = (0..K)
        .filter(|&i| b.shard_of(&key_bytes(i)) == PARENT && s.shard_of(&key_bytes(i)) == N_SHARDS)
        .count();
    let kept = (0..K)
        .filter(|&i| b.shard_of(&key_bytes(i)) == PARENT && s.shard_of(&key_bytes(i)) == PARENT)
        .count();
    assert!(moved > 0, "no key moves in the split; enlarge K");
    assert!(kept > 0, "every donor key moves; enlarge K");
    for i in 0..K {
        let (from, to) = (b.shard_of(&key_bytes(i)), s.shard_of(&key_bytes(i)));
        assert!(
            from == to || (from == PARENT && to == N_SHARDS),
            "key {i} moved {from}->{to}, not parent->new"
        );
    }
}

/// Invariant 1: mid-run split vs never-split Naïve control, per-key
/// byte identity on every member of the final owner chain.
#[test]
fn mid_run_split_matches_never_split_naive_control() {
    assert_split_nontrivial();
    let hl = run_campaign(42, Reconfig::Split, None, false);
    assert!(hl.migrated, "split did not complete");
    assert_eq!(hl.epoch, 1, "exactly one router flip");
    assert_eq!(hl.n_failures, 0, "fault-free run must not fail ops");
    assert!(hl.acked.iter().all(|&a| a), "every op must ack");
    assert_race_free(&hl, "split campaign");

    let nv = run_naive_control(42);
    for (i, (hl_kv, nv_kv)) in hl.key_values.iter().zip(&nv).enumerate() {
        let want = record(i, last_version(i));
        for (m, got) in hl_kv.iter().enumerate() {
            assert_eq!(
                got, &want,
                "key {i}: HyperLoop member {m} of the final owner diverges"
            );
        }
        for (m, got) in nv_kv.iter().enumerate() {
            assert_eq!(got, &want, "key {i}: naive member {m} diverges");
        }
        for (m, (a, b)) in hl_kv.iter().zip(nv_kv).enumerate() {
            assert_eq!(
                a, b,
                "key {i} member {m}: split run diverges from never-split control"
            );
        }
    }
}

/// Invariant 1 (shrink direction): split, keep writing, merge back —
/// ownership is restored and every key's final version lands on every
/// member of its (original) owner chain, byte-identical to the control.
#[test]
fn split_then_merge_back_under_traffic_matches_control() {
    let hl = run_campaign(43, Reconfig::SplitMerge { hot: 0 }, None, false);
    assert!(hl.migrated && hl.merged, "split+merge did not complete");
    assert_eq!(hl.epoch, 2, "two router flips (split, merge)");
    assert_eq!(hl.n_failures, 0);
    assert!(hl.acked.iter().all(|&a| a), "every op must ack");
    assert_race_free(&hl, "split+merge campaign");

    let nv = run_naive_control(43);
    for (i, (hl_kv, nv_kv)) in hl.key_values.iter().zip(&nv).enumerate() {
        let want = record(i, last_version(i));
        for (m, (a, b)) in hl_kv.iter().zip(nv_kv).enumerate() {
            assert_eq!(a, &want, "key {i} member {m}: wrong final version");
            assert_eq!(a, b, "key {i} member {m}: round trip diverges from control");
        }
    }
}

/// Invariant 2: shards 1 and 2 must not notice shard 0's migration —
/// per-op latency vectors and whole-region member snapshots are
/// byte-identical to the no-migration control of the same seed.
#[test]
fn bystanders_unperturbed_by_neighbor_split() {
    let split = run_campaign(44, Reconfig::Split, None, false);
    let control = run_campaign(44, Reconfig::None, None, false);
    assert!(split.migrated);
    assert_eq!(control.epoch, 0);

    for sid in 1..N_SHARDS {
        split.probes[sid].assert_identical_to(&control.probes[sid], "migration-bystander");
        assert_eq!(
            split.bystander_regions[sid - 1],
            control.bystander_regions[sid - 1],
            "shard {sid}: member regions perturbed by the neighbor's migration"
        );
    }
    assert_race_free(&split, "bystander campaign");
}

/// Invariant 2 under gray impairment: the donor chain is degraded by a
/// seeded impairment matrix (jitter, lossy links, rate limits,
/// straggler NICs — donor-scoped by construction) for the whole
/// migration window; bystander timing must still be byte-identical
/// between the migrating run and the impaired-but-not-migrating
/// control.
#[test]
fn bystanders_unperturbed_by_split_under_gray_impairment() {
    let plan = place();
    let donor = &plan.groups[PARENT];
    let sched = FaultSchedule::generate_gray(
        77,
        &donor.replicas,
        donor.client,
        SimTime::from_nanos(2_000_000),
        SimTime::from_nanos(20_000_000),
    );
    assert!(!sched.events.is_empty());

    let split = run_campaign(45, Reconfig::Split, Some(&sched), false);
    let control = run_campaign(45, Reconfig::None, Some(&sched), false);
    assert!(
        split.migrated,
        "split must ride out the gray impairment matrix"
    );
    for sid in 1..N_SHARDS {
        split.probes[sid].assert_identical_to(&control.probes[sid], "gray-migration-bystander");
        assert_eq!(
            split.bystander_regions[sid - 1],
            control.bystander_regions[sid - 1],
            "shard {sid}: member regions perturbed under impairment"
        );
        assert_eq!(split.probes[sid].failed(), 0, "bystander saw failures");
    }
    assert_race_free(&split, "gray bystander campaign");
}

/// `Send` digest of a campaign for the threaded determinism property:
/// `(migrated, epoch, acked, per-shard latencies, flattened bytes)`.
type Digest = (bool, u64, Vec<bool>, Vec<Vec<(usize, u64)>>, Vec<u8>);

fn digest(run: &CampaignRun) -> Digest {
    let lat: Vec<Vec<(usize, u64)>> = run.probes.iter().map(|p| p.latencies()).collect();
    let mut bytes = Vec::new();
    for kv in &run.key_values {
        for m in kv {
            bytes.extend_from_slice(m);
        }
    }
    for sr in &run.bystander_regions {
        for m in sr {
            bytes.extend_from_slice(m);
        }
    }
    (run.migrated, run.epoch, run.acked.clone(), lat, bytes)
}

/// Invariant 3: the same seeds produce byte-identical campaign
/// artifacts at 1, 2 and 4 executor threads (each job builds its whole
/// world inside the closure — the executor's purity contract).
#[test]
fn same_seed_identical_snapshots_across_executor_threads() {
    const JOBS: usize = 3;
    let job = |idx: usize| {
        digest(&run_campaign(
            300 + idx as u64,
            Reconfig::Split,
            None,
            false,
        ))
    };

    let t1 = ShardExecutor::new(1).run(JOBS, job);
    let t2 = ShardExecutor::new(2).run(JOBS, job);
    let t4 = ShardExecutor::new(4).run(JOBS, job);
    for idx in 0..JOBS {
        assert_eq!(t1[idx], t2[idx], "job {idx}: 2-thread run diverged");
        assert_eq!(t1[idx], t4[idx], "job {idx}: 4-thread run diverged");
    }
}

/// Index of the `k`-th (0-based) occurrence of `name` in `marks`.
fn nth_mark(marks: &[String], name: &str, k: usize) -> usize {
    marks
        .iter()
        .enumerate()
        .filter(|(_, m)| m.as_str() == name)
        .nth(k)
        .unwrap_or_else(|| panic!("mark {name} #{k} missing in {marks:?}"))
        .0
}

/// Invariant 4: every live plan walks its stages in order, and its
/// commit mark lands after the CutOver stage is entered and no later
/// than retirement.
#[test]
fn stage_marks_fire_in_order_for_every_plan() {
    const MIGRATION: [&str; 5] = [
        "transition:migration:idle->planned",
        "transition:migration:planned->streaming",
        "transition:migration:streaming->draining",
        "transition:migration:draining->cutover",
        "transition:migration:cutover->retired",
    ];
    const CUTOVER: [&str; 3] = ["cutover:start", "cutover:pause", "cutover:swap"];
    // Per reconfiguration: the mark that enters CutOver, the commit
    // mark, and the mark stamped on retirement. The migration plans
    // commit with a router flip strictly between the last two edges;
    // the cutover plans commit with the backend swap, which
    // `cutover:swap`, stamped on retirement, reports.
    let split = [MIGRATION[3], "router:flip:epoch1", MIGRATION[4]];
    let merge = [MIGRATION[3], "router:flip:epoch2", MIGRATION[4]];
    let cutover = [CUTOVER[1], CUTOVER[2], CUTOVER[2]];
    let table = [
        (Reconfig::Split, MIGRATION.to_vec(), vec![split]),
        (
            Reconfig::SplitMerge { hot: 0 },
            [MIGRATION, MIGRATION].concat(),
            vec![split, merge],
        ),
        (Reconfig::Cutover, CUTOVER.to_vec(), vec![cutover]),
        (
            Reconfig::Rejoin,
            [&["rejoin:start"][..], &CUTOVER].concat(),
            vec![cutover],
        ),
    ];
    for (seed, (reconfig, want, plans)) in (46..).zip(table) {
        let run = run_campaign(seed, reconfig, None, true);
        assert!(run.migrated, "{reconfig:?} did not complete");
        assert_eq!(run.n_failures, 0, "{reconfig:?}");

        let stamped: Vec<&str> = run
            .marks
            .iter()
            .map(|m| m.as_str())
            .filter(|m| {
                ["transition:migration:", "cutover:", "rejoin:"]
                    .iter()
                    .any(|p| m.starts_with(p))
            })
            .collect();
        assert_eq!(stamped, want, "{reconfig:?}: stage marks out of order");

        for (k, [cutover_entry, commit, retirement]) in plans.into_iter().enumerate() {
            let entered = nth_mark(&run.marks, cutover_entry, k);
            let committed = nth_mark(&run.marks, commit, 0);
            let retired = nth_mark(&run.marks, retirement, k);
            assert!(
                entered < committed && committed <= retired,
                "{reconfig:?}: {commit} must land inside the cutover stage"
            );
        }
    }
}

/// The merge delta is bounded by what the merge moves, not by how many
/// ops were logged: hundreds of writes to one victim slot inside the
/// merge window re-copy that slot once per survivor member, and the hot
/// key still ends byte-identical to the never-split control.
#[test]
fn hot_key_merge_delta_is_bounded_by_the_move_ranges() {
    const HOT: usize = 240;
    let hl = run_campaign(47, Reconfig::SplitMerge { hot: HOT }, None, true);
    assert!(hl.migrated && hl.merged, "split+merge did not complete");
    assert_eq!(hl.n_failures, 0);
    assert_eq!(hl.hot_acked, HOT, "every hot write must ack");
    assert!(hl.acked.iter().all(|&a| a), "every op must ack");
    assert!(
        hl.merge_delta_bytes > 0,
        "no hot write reached the dirty log: the burst missed the streaming stage"
    );
    assert!(
        hl.merge_delta_bytes <= hl.merge_move_bytes,
        "merge delta {} B exceeds its move ranges {} B",
        hl.merge_delta_bytes,
        hl.merge_move_bytes
    );
    assert_race_free(&hl, "hot-key merge campaign");

    let nv = run_naive_control(47);
    for (i, (hl_kv, nv_kv)) in hl.key_values.iter().zip(&nv).enumerate() {
        for (m, (a, b)) in hl_kv.iter().zip(nv_kv).enumerate() {
            assert_eq!(a, b, "key {i} member {m}: diverges from control");
        }
    }
}

// ---------------------------------------------------------------------
// Model battery: interleaved issue/advance/crash sequences.
// ---------------------------------------------------------------------

/// One step of a generated migration history.
#[derive(Debug, Clone)]
enum Step {
    /// Client issues a write to key `k`.
    Issue(u64),
    /// The migration advances one stage.
    Advance,
    /// `actor` crashes (first crash wins; later ones are no-ops since
    /// the model is already Retired).
    Crash(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0u64..16).prop_map(Step::Issue),
        3 => Just(Step::Advance),
        1 => (0usize..MigrationActor::ALL.len()).prop_map(Step::Crash),
    ]
}

/// Every third key is in the moving range.
fn moving(k: u64) -> bool {
    k.is_multiple_of(3)
}

fn run_model(steps: &[Step]) -> MigrationModel {
    let mut m = MigrationModel::new();
    for k in 0..16 {
        m.seed(k);
    }
    for s in steps {
        match *s {
            Step::Issue(k) => {
                m.issue(k, moving(k));
            }
            Step::Advance => {
                if m.stage() != MigrationStage::Retired {
                    m.advance(moving);
                }
            }
            Step::Crash(a) => {
                if m.stage() != MigrationStage::Retired {
                    m.crash(MigrationActor::ALL[a]);
                }
            }
        }
    }
    // Drive any unfinished migration to completion.
    while m.stage() != MigrationStage::Retired {
        m.advance(moving);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Invariant 5: whatever the interleaving of issued ops, stage
    /// advances and crashes (of source head, dest head or router), the
    /// final owner of every key holds each issued op exactly once — no
    /// op lost, none double-applied.
    #[test]
    fn model_interleavings_lose_nothing_apply_nothing_twice(
        steps in pvec(step_strategy(), 1..48)
    ) {
        let m = run_model(&steps);
        prop_assert!(m.check(moving).is_ok(), "{:?}", m.check(moving).err());
    }
}

/// A deterministic long interleaving as a fast CI path (no proptest
/// runner): issue-heavy traffic with a crash landing mid-drain.
#[test]
fn model_fixed_crash_mid_drain_keeps_history_exact() {
    let mut steps: Vec<Step> = (0..24).map(|k| Step::Issue(k % 16)).collect();
    steps.push(Step::Advance); // planned -> streaming
    steps.extend((0..8).map(Step::Issue));
    steps.push(Step::Advance); // streaming -> draining (window opens)
    steps.extend((0..8).map(Step::Issue)); // moving keys park
    steps.push(Step::Crash(0)); // source head dies pre-commit
    steps.extend((0..8).map(Step::Issue));
    let m = run_model(&steps);
    assert!(m.aborted(), "crash before cutover must abort to source");
    m.check(moving).expect("history exact after abort");
}
