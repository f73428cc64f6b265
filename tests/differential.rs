//! Differential oracle: HyperLoop vs the Naïve-RDMA baseline.
//!
//! Both backends implement the same group primitives (gWRITE / gMEMCPY /
//! gCAS / gFLUSH) over the same chain topology — HyperLoop executes them
//! on replica NICs, the baseline on replica CPUs. Whatever the datapath,
//! the *replicated state machine* must agree: after any operation
//! sequence, every member's NVM region must be byte-identical across the
//! two backends (and across members within a backend), and every gCAS
//! must observe the same original values on the same members.
//!
//! The suite generates randomized operation sequences from seeded
//! proptest strategies (deterministic per case, ≥16 cases per property)
//! and drives them closed-loop through both backends in separate
//! simulated clusters:
//!
//! * [`unsharded_backends_agree`] — one 3-member group, ops issued
//!   straight at the [`GroupClient`] surface.
//! * [`sharded_backends_agree`] — two disjoint groups placed by
//!   [`ShardPlan::place`]; the HyperLoop side routes keyed ops through
//!   the real [`ShardRouter`]/[`RetryClient`] stack while the baseline
//!   side uses an equal [`HashRing`] over per-shard naive groups, so the
//!   oracle also proves the router maps every key to the same shard.
//!
//! Under `--features check-ownership` both worlds additionally assert an
//! empty WQE-ownership/DMA race report.

use hyperloop_repro::cluster::exec::ShardExecutor;
use hyperloop_repro::cluster::shard::{HashRing, ShardGroup, ShardPlan};
use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::api::GroupClient;
use hyperloop_repro::hyperloop::naive::{Mode, NaiveBuilder, NaiveClient, NaiveConfig};
use hyperloop_repro::hyperloop::{
    replica, GroupBuilder, GroupConfig, GroupOp, HyperLoopClient, OnDone, OnOutcome, RetryClient,
    ShardRouter,
};
use hyperloop_repro::sim::{Bytes, Engine, SimDuration, SimTime};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Replicated-region size per group.
const REP_BYTES: u64 = 64 << 10;
/// Write/memcpy slot geometry: 64 disjoint 256-byte slots from offset 0.
const SLOT: usize = 256;
const N_SLOTS: u64 = 64;
/// Bytes covered by the write/memcpy slots — the uniformly-replicated
/// prefix. gCAS words live past it because a partial execute-map
/// *intentionally* diverges members (the lock undo flow), so
/// within-backend member equality only holds for this prefix.
const UNIFORM_BYTES: usize = N_SLOTS as usize * SLOT;
/// gCAS word area: 64 u64 words starting at 32 KiB (8-aligned).
const CAS_BASE: u64 = 32 << 10;
const N_WORDS: u64 = 64;
/// Members per group (client + 2 replicas).
const G: usize = 3;
/// Simulation seed (op sequences vary per proptest case instead).
const SIM_SEED: u64 = 7;

/// One generated group operation. `key` picks the shard in the sharded
/// property (ignored unsharded); offsets are slot-based so pipelined
/// ranges stay disjoint and gCAS words stay 8-aligned by construction.
#[derive(Debug, Clone)]
enum OpSpec {
    /// gWRITE of `len` patterned bytes at `slot`.
    Write {
        key: u64,
        slot: u64,
        len: usize,
        fill: u8,
        flush: bool,
    },
    /// gMEMCPY between two distinct slots (disjoint by construction).
    Memcpy {
        key: u64,
        src_slot: u64,
        dst_slot: u64,
        len: usize,
        flush: bool,
    },
    /// gCAS on word `word` with an arbitrary member execute-map.
    Cas {
        key: u64,
        word: u64,
        cmp_zero: bool,
        swp: u64,
        exec_map: u32,
    },
    /// Standalone gFLUSH over `len` bytes of `slot`.
    Flush { key: u64, slot: u64, len: usize },
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        4 => (any::<u64>(), 0u64..N_SLOTS, 1usize..=SLOT, any::<u8>(), any::<bool>()).prop_map(
            |(key, slot, len, fill, flush)| OpSpec::Write { key, slot, len, fill, flush }
        ),
        2 => (any::<u64>(), 0u64..N_SLOTS, 0u64..N_SLOTS - 1, 1usize..=SLOT, any::<bool>())
            .prop_map(|(key, src_slot, d, len, flush)| {
                // Skip over the source slot so src != dst always.
                let dst_slot = if d >= src_slot { d + 1 } else { d };
                OpSpec::Memcpy { key, src_slot, dst_slot, len, flush }
            }),
        2 => (any::<u64>(), 0u64..N_WORDS, any::<bool>(), any::<u64>(), 1u32..(1 << G) as u32)
            .prop_map(|(key, word, cmp_zero, swp, exec_map)| OpSpec::Cas {
                key, word, cmp_zero, swp, exec_map
            }),
        1 => (any::<u64>(), 0u64..N_SLOTS, 1usize..=SLOT)
            .prop_map(|(key, slot, len)| OpSpec::Flush { key, slot, len }),
    ]
}

/// The patterned gWRITE payload — a pure function of the spec so both
/// backends replicate identical bytes.
fn write_payload(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

/// Per-op observation: the original values a gCAS saw on the members of
/// its execute map (empty for the other primitives).
type CasObs = Vec<(usize, u64)>;

fn cas_obs(spec: &OpSpec, results: &[u64]) -> CasObs {
    match spec {
        OpSpec::Cas { exec_map, .. } => (0..G)
            .filter(|m| exec_map & (1 << m) != 0)
            .map(|m| (m, results[m]))
            .collect(),
        _ => Vec::new(),
    }
}

/// Drive `ops` sequentially (closed loop: each op completes before the
/// next is issued) at the raw [`GroupClient`] surface, routing each op's
/// key through `ring` to pick among `clients`. Returns the gCAS
/// observations in op order.
fn drive_clients<C: GroupClient + 'static>(
    clients: &[Rc<C>],
    ring: &HashRing,
    ops: &[OpSpec],
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<CasObs> {
    let mut obs = Vec::with_capacity(ops.len());
    for spec in ops {
        let slot_done: Rc<RefCell<Option<Vec<u64>>>> = Rc::new(RefCell::new(None));
        let d = slot_done.clone();
        let done: OnDone = Box::new(move |_w, _e, r| *d.borrow_mut() = Some(r.results));
        let key = match *spec {
            OpSpec::Write { key, .. }
            | OpSpec::Memcpy { key, .. }
            | OpSpec::Cas { key, .. }
            | OpSpec::Flush { key, .. } => key,
        };
        let c = &clients[ring.shard_of_u64(key)];
        match *spec {
            OpSpec::Write {
                slot,
                len,
                fill,
                flush,
                ..
            } => {
                let data = write_payload(len, fill);
                c.gwrite(w, eng, slot * SLOT as u64, &data, flush, done)
                    .expect("sequential issue never backpressures");
            }
            OpSpec::Memcpy {
                src_slot,
                dst_slot,
                len,
                flush,
                ..
            } => {
                c.gmemcpy(
                    w,
                    eng,
                    src_slot * SLOT as u64,
                    dst_slot * SLOT as u64,
                    len as u32,
                    flush,
                    done,
                )
                .expect("sequential issue never backpressures");
            }
            OpSpec::Cas {
                word,
                cmp_zero,
                swp,
                exec_map,
                ..
            } => {
                let cmp = if cmp_zero { 0 } else { swp.wrapping_add(1) };
                c.gcas(w, eng, CAS_BASE + word * 8, cmp, swp, exec_map, done)
                    .expect("sequential issue never backpressures");
            }
            OpSpec::Flush { slot, len, .. } => {
                c.gflush(w, eng, slot * SLOT as u64, len as u32, done)
                    .expect("sequential issue never backpressures");
            }
        }
        let d2 = slot_done.clone();
        eng.run_while(w, move |_| d2.borrow().is_none());
        let results = slot_done
            .borrow_mut()
            .take()
            .expect("op completed before the event queue drained");
        obs.push(cas_obs(spec, &results));
    }
    // Quiesce: let any trailing deliveries settle before state capture.
    let end = eng.now() + SimDuration::from_millis(1);
    eng.run_until(w, end);
    obs
}

/// Drive `ops` sequentially through the real [`ShardRouter`] (the
/// supervised HyperLoop path the sharded stack uses in production).
fn drive_router(
    router: &Rc<ShardRouter>,
    ops: &[OpSpec],
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<CasObs> {
    let mut obs = Vec::with_capacity(ops.len());
    for spec in ops {
        let slot_done: Rc<RefCell<Option<Vec<u64>>>> = Rc::new(RefCell::new(None));
        let d = slot_done.clone();
        let done: OnOutcome = Box::new(move |_w, _e, r| {
            let r = r.expect("fault-free run must not fail ops");
            *d.borrow_mut() = Some(r.results);
        });
        let (key, op) = match *spec {
            OpSpec::Write {
                key,
                slot,
                len,
                fill,
                flush,
            } => (
                key,
                GroupOp::Write {
                    offset: slot * SLOT as u64,
                    data: Bytes::from(write_payload(len, fill)),
                    flush,
                },
            ),
            OpSpec::Memcpy {
                key,
                src_slot,
                dst_slot,
                len,
                flush,
            } => (
                key,
                GroupOp::Memcpy {
                    src_off: src_slot * SLOT as u64,
                    dst_off: dst_slot * SLOT as u64,
                    len: len as u32,
                    flush,
                },
            ),
            OpSpec::Cas {
                key,
                word,
                cmp_zero,
                swp,
                exec_map,
            } => (
                key,
                GroupOp::Cas {
                    offset: CAS_BASE + word * 8,
                    cmp: if cmp_zero { 0 } else { swp.wrapping_add(1) },
                    swp,
                    exec_map,
                },
            ),
            OpSpec::Flush { key, slot, len } => (
                key,
                GroupOp::Flush {
                    offset: slot * SLOT as u64,
                    len: len as u32,
                },
            ),
        };
        let sid = router.shard_of_u64(key);
        router.issue_on(w, eng, sid, op, done);
        let d2 = slot_done.clone();
        eng.run_while(w, move |_| d2.borrow().is_none());
        let results = slot_done
            .borrow_mut()
            .take()
            .expect("op completed before the event queue drained");
        obs.push(cas_obs(spec, &results));
    }
    let end = eng.now() + SimDuration::from_millis(1);
    eng.run_until(w, end);
    obs
}

/// Snapshot every member's full replicated region.
fn member_regions<C: GroupClient>(client: &C, w: &World) -> Vec<Vec<u8>> {
    (0..client.group_size())
        .map(|m| {
            let host = client.member_host(m);
            let addr = client.member_addr(m, 0);
            w.hosts[host.0]
                .mem
                .read_vec(addr, REP_BYTES as usize)
                .expect("replicated region mapped")
        })
        .collect()
}

fn first_mismatch(a: &[u8], b: &[u8]) -> Option<usize> {
    a.iter().zip(b.iter()).position(|(x, y)| x != y)
}

fn build_hl_shard(g: &ShardGroup, w: &mut World, eng: &mut Engine<World>) -> HyperLoopClient {
    let group = GroupBuilder::new(GroupConfig {
        client: g.client,
        replicas: g.replicas.clone(),
        rep_bytes: REP_BYTES,
        ring_slots: 64,
        ..Default::default()
    })
    .build(w);
    replica::start_replenishers(&group, w, eng);
    HyperLoopClient::new(group, w)
}

fn build_naive_shard(g: &ShardGroup, w: &mut World, eng: &mut Engine<World>) -> NaiveClient {
    NaiveBuilder::new(NaiveConfig {
        client: g.client,
        replicas: g.replicas.clone(),
        rep_bytes: REP_BYTES,
        ring_slots: 64,
        mode: Mode::Event,
        ..Default::default()
    })
    .build(w, eng)
}

fn fresh_world(n_hosts: usize) -> (World, Engine<World>) {
    let (mut w, mut eng) = ClusterBuilder::new(n_hosts)
        .arena_size(4 << 20)
        .seed(SIM_SEED)
        .build();
    // Prime chains (replenishers, QP wiring) before the first op.
    eng.run_until(&mut w, SimTime::from_nanos(2_000_000));
    (w, eng)
}

/// A world ends sound: no completion lost to an overrun of a CQ that
/// software polls, and (feature `check-ownership`) no WQE/DMA race.
fn assert_world_sound(w: &World, which: &str) {
    assert_eq!(w.polled_cq_overruns(), 0, "{which}: a polled CQ overran");
    #[cfg(feature = "check-ownership")]
    {
        let report = w.race_report();
        assert!(report.is_empty(), "{which}: WQE/DMA races: {report:?}");
    }
}

/// The disjoint two-shard placement both sharded worlds use.
fn two_shard_plan() -> ShardPlan {
    let hosts: Vec<HostId> = (0..2 * G).map(HostId).collect();
    let plan = ShardPlan::place(2, G - 1, &hosts);
    assert!(plan.is_disjoint(), "sized pool must place disjointly");
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One 3-member group per backend: any op sequence leaves every
    /// member byte-identical across backends and across members, with
    /// matching gCAS observations.
    #[test]
    fn unsharded_backends_agree(ops in pvec(op_strategy(), 8..33)) {
        let ring = HashRing::new(1);

        let (mut hw, mut he) = fresh_world(G);
        let plan = ShardPlan::place(1, G - 1, &(0..G).map(HostId).collect::<Vec<_>>());
        let hl = Rc::new(build_hl_shard(&plan.groups[0], &mut hw, &mut he));
        let hl_obs = drive_clients(std::slice::from_ref(&hl), &ring, &ops, &mut hw, &mut he);

        let (mut nw, mut ne) = fresh_world(G);
        let nv = Rc::new(build_naive_shard(&plan.groups[0], &mut nw, &mut ne));
        let nv_obs = drive_clients(std::slice::from_ref(&nv), &ring, &ops, &mut nw, &mut ne);

        prop_assert_eq!(&hl_obs, &nv_obs, "gCAS observations diverged");

        let hl_members = member_regions(hl.as_ref(), &hw);
        let nv_members = member_regions(nv.as_ref(), &nw);
        for m in 0..G {
            let mm = first_mismatch(&hl_members[m], &nv_members[m]);
            prop_assert!(
                mm.is_none(),
                "member {} NVM diverged between backends at byte {:?}",
                m, mm
            );
        }
        for m in 1..G {
            let mm = first_mismatch(
                &hl_members[0][..UNIFORM_BYTES],
                &hl_members[m][..UNIFORM_BYTES],
            );
            prop_assert!(mm.is_none(), "HyperLoop member {} != client at byte {:?}", m, mm);
        }

        assert_world_sound(&hw, "hyperloop world");
        assert_world_sound(&nw, "naive world");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two disjoint shards per backend: keyed ops routed through the
    /// real [`ShardRouter`] on the HyperLoop side and an equal
    /// [`HashRing`] on the baseline side land on the same shard and
    /// leave every member of every shard byte-identical.
    #[test]
    fn sharded_backends_agree(ops in pvec(op_strategy(), 8..33)) {
        let plan = two_shard_plan();

        // HyperLoop side: RetryClient-supervised groups behind the router.
        let (mut hw, mut he) = fresh_world(2 * G);
        let hl_clients: Vec<HyperLoopClient> = plan
            .groups
            .iter()
            .map(|g| build_hl_shard(g, &mut hw, &mut he))
            .collect();
        let router = Rc::new(ShardRouter::new(
            hl_clients.iter().cloned().map(RetryClient::new).collect(),
        ));
        let hl_obs = drive_router(&router, &ops, &mut hw, &mut he);
        prop_assert_eq!(router.failures().len(), 0, "fault-free run must not fail ops");

        // Baseline side: the same ring geometry over naive groups.
        let ring = HashRing::new(2);
        prop_assert_eq!(ring.n_shards(), router.ring().n_shards());
        let (mut nw, mut ne) = fresh_world(2 * G);
        let nv_clients: Vec<Rc<NaiveClient>> = plan
            .groups
            .iter()
            .map(|g| Rc::new(build_naive_shard(g, &mut nw, &mut ne)))
            .collect();
        let nv_obs = drive_clients(&nv_clients, &ring, &ops, &mut nw, &mut ne);

        prop_assert_eq!(&hl_obs, &nv_obs, "gCAS observations diverged");

        for (sid, g) in plan.groups.iter().enumerate() {
            let _ = g;
            let hl_members = member_regions(&router.client(sid).client(), &hw);
            let nv_members = member_regions(nv_clients[sid].as_ref(), &nw);
            for m in 0..G {
                let mm = first_mismatch(&hl_members[m], &nv_members[m]);
                prop_assert!(
                    mm.is_none(),
                    "shard {} member {} NVM diverged between backends at byte {:?}",
                    sid, m, mm
                );
            }
            for m in 1..G {
                let mm = first_mismatch(
                    &hl_members[0][..UNIFORM_BYTES],
                    &hl_members[m][..UNIFORM_BYTES],
                );
                prop_assert!(
                    mm.is_none(),
                    "shard {} HyperLoop member {} != client at byte {:?}",
                    sid, m, mm
                );
            }
        }

        assert_world_sound(&hw, "hyperloop world");
        assert_world_sound(&nw, "naive world");
    }
}

// ---------------------------------------------------------------------
// Mid-sequence migration: the oracle with a SplitAt(op_idx) marker.
// ---------------------------------------------------------------------

/// Hosts for the split-off shard's chain (past the two-shard pool).
fn split_dest_group() -> ShardGroup {
    ShardGroup {
        shard: 2,
        client: HostId(2 * G),
        replicas: (1..G).map(|i| HostId(2 * G + i)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `SplitAt(op_idx)`: the sharded oracle with a live migration in
    /// the middle of the sequence. The HyperLoop side runs the *real*
    /// [`split_live`] protocol (dirty log, streamed catch-up, dual
    /// window, router flip) between ops `split_at - 1` and `split_at`;
    /// the baseline side models the same split at spec level (copy the
    /// donor region, swap in the split ring). Afterwards both sides
    /// route by the identical three-shard ring, so every member of
    /// every shard — including the freshly stood-up one — must be
    /// byte-identical across backends.
    #[test]
    fn sharded_backends_agree_with_mid_sequence_split(
        ops in pvec(op_strategy(), 8..33),
        split_frac in 0usize..100,
        parent in 0usize..2,
    ) {
        use hyperloop_repro::hyperloop::{split_live, MigrationSpec};

        let split_at = split_frac * ops.len() / 100;
        let plan = two_shard_plan();
        let dest = split_dest_group();
        let n_hosts = 3 * G;

        // HyperLoop side: drive to the split point, run the live
        // migration to completion (closed loop: no concurrent traffic,
        // so the delta is empty and the dest region is an exact donor
        // snapshot), then drive the rest through the flipped router.
        let (mut hw, mut he) = fresh_world(n_hosts);
        let hl_clients: Vec<HyperLoopClient> = plan
            .groups
            .iter()
            .map(|g| build_hl_shard(g, &mut hw, &mut he))
            .collect();
        let router = Rc::new(ShardRouter::new(
            hl_clients.iter().cloned().map(RetryClient::new).collect(),
        ));
        let mut hl_obs = drive_router(&router, &ops[..split_at], &mut hw, &mut he);
        let migrated = Rc::new(RefCell::new(false));
        {
            let m = migrated.clone();
            split_live(
                &router,
                parent,
                dest.clone(),
                MigrationSpec::default(),
                &mut hw,
                &mut he,
                Box::new(move |_w, _e| *m.borrow_mut() = true),
            );
        }
        let m2 = migrated.clone();
        he.run_while(&mut hw, move |_| !*m2.borrow());
        prop_assert!(*migrated.borrow(), "split did not complete");
        prop_assert_eq!(router.epoch(), 1);
        hl_obs.extend(drive_router(&router, &ops[split_at..], &mut hw, &mut he));
        prop_assert_eq!(router.failures().len(), 0, "fault-free run must not fail ops");
        let ring3 = router.ring();
        prop_assert_eq!(ring3.n_shards(), 3);

        // Baseline side: the same split at spec level.
        let ring2 = HashRing::new(2);
        prop_assert_eq!(&ring3, &ring2.split_shard(parent));
        let (mut nw, mut ne) = fresh_world(n_hosts);
        let mut nv_clients: Vec<Rc<NaiveClient>> = plan
            .groups
            .iter()
            .map(|g| Rc::new(build_naive_shard(g, &mut nw, &mut ne)))
            .collect();
        let mut nv_obs = drive_clients(&nv_clients, &ring2, &ops[..split_at], &mut nw, &mut ne);
        let nv_dest = Rc::new(build_naive_shard(&dest, &mut nw, &mut ne));
        {
            // Spec-level migration: the dest region becomes a byte copy
            // of the donor head's region on every new member.
            let donor = &nv_clients[parent];
            let src = nw.hosts[donor.member_host(0).0]
                .mem
                .read_vec(donor.member_addr(0, 0), REP_BYTES as usize)
                .unwrap();
            for m in 0..nv_dest.group_size() {
                let host = nv_dest.member_host(m);
                let addr = nv_dest.member_addr(m, 0);
                nw.hosts[host.0].mem.write(addr, &src).unwrap();
            }
        }
        nv_clients.push(nv_dest);
        nv_obs.extend(drive_clients(&nv_clients, &ring3, &ops[split_at..], &mut nw, &mut ne));

        prop_assert_eq!(&hl_obs, &nv_obs, "gCAS observations diverged across the split");

        for (sid, nv_client) in nv_clients.iter().enumerate() {
            let hl_members = member_regions(&router.client(sid).client(), &hw);
            let nv_members = member_regions(nv_client.as_ref(), &nw);
            for m in 0..G {
                let mm = first_mismatch(&hl_members[m], &nv_members[m]);
                prop_assert!(
                    mm.is_none(),
                    "shard {} member {} NVM diverged between backends at byte {:?} \
                     (split_at {} of {}, parent {})",
                    sid, m, mm, split_at, ops.len(), parent
                );
            }
        }

        assert_world_sound(&hw, "split hyperloop world");
        assert_world_sound(&nw, "split naive world");
    }
}

// ---------------------------------------------------------------------
// Threaded 8-shard configuration: the oracle under the ShardExecutor.
// ---------------------------------------------------------------------

/// The routing key of any generated op.
fn op_key(spec: &OpSpec) -> u64 {
    match *spec {
        OpSpec::Write { key, .. }
        | OpSpec::Memcpy { key, .. }
        | OpSpec::Cas { key, .. }
        | OpSpec::Flush { key, .. } => key,
    }
}

/// Seeded splitmix64 op generator mirroring [`op_strategy`]'s shapes —
/// a plain function so the threaded property needs no proptest runner
/// (the sequence must be *fixed*, the only varying input is the thread
/// count).
fn gen_ops(seed: u64, n: usize) -> Vec<OpSpec> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let key = next();
            match next() % 9 {
                0..=3 => OpSpec::Write {
                    key,
                    slot: next() % N_SLOTS,
                    len: 1 + (next() as usize % SLOT),
                    fill: next() as u8,
                    flush: next() % 2 == 0,
                },
                4 | 5 => {
                    let src_slot = next() % N_SLOTS;
                    let d = next() % (N_SLOTS - 1);
                    let dst_slot = if d >= src_slot { d + 1 } else { d };
                    OpSpec::Memcpy {
                        key,
                        src_slot,
                        dst_slot,
                        len: 1 + (next() as usize % SLOT),
                        flush: next() % 2 == 0,
                    }
                }
                6 | 7 => OpSpec::Cas {
                    key,
                    word: next() % N_WORDS,
                    cmp_zero: next() % 2 == 0,
                    swp: next(),
                    exec_map: 1 + (next() as u32 % (((1u32 << G) - 1) - 1 + 1)),
                },
                _ => OpSpec::Flush {
                    key,
                    slot: next() % N_SLOTS,
                    len: 1 + (next() as usize % SLOT),
                },
            }
        })
        .collect()
}

/// Everything one threaded shard job observes — plain `Send` data.
#[derive(Debug, Clone, PartialEq)]
struct ShardObs {
    obs: Vec<CasObs>,
    hl_members: Vec<Vec<u8>>,
    nv_members: Vec<Vec<u8>>,
}

/// Run shard `sid`'s cut of `ops` through both backends in fresh
/// single-group worlds (built inside the job — the executor's contract)
/// and snapshot everything the oracle compares.
fn run_shard_oracle(ops: &[OpSpec], global_ring: &HashRing, sid: usize) -> ShardObs {
    let local = HashRing::new(1);
    let mine: Vec<OpSpec> = ops
        .iter()
        .filter(|op| global_ring.shard_of_u64(op_key(op)) == sid)
        .cloned()
        .collect();
    let plan = ShardPlan::place(1, G - 1, &(0..G).map(HostId).collect::<Vec<_>>());

    let (mut hw, mut he) = fresh_world(G);
    let hl = Rc::new(build_hl_shard(&plan.groups[0], &mut hw, &mut he));
    let hl_obs = drive_clients(std::slice::from_ref(&hl), &local, &mine, &mut hw, &mut he);

    let (mut nw, mut ne) = fresh_world(G);
    let nv = Rc::new(build_naive_shard(&plan.groups[0], &mut nw, &mut ne));
    let nv_obs = drive_clients(std::slice::from_ref(&nv), &local, &mine, &mut nw, &mut ne);

    assert_eq!(hl_obs, nv_obs, "shard {sid}: gCAS observations diverged");
    assert_world_sound(&hw, "threaded hyperloop shard world");
    assert_world_sound(&nw, "threaded naive shard world");

    ShardObs {
        obs: hl_obs,
        hl_members: member_regions(hl.as_ref(), &hw),
        nv_members: member_regions(nv.as_ref(), &nw),
    }
}

/// Eight disjoint shards, each running the differential oracle in its
/// own world on its own thread: backends agree on every shard, and
/// every artifact — gCAS observations, both backends' member NVM
/// snapshots — is byte-identical to the sequential (`threads == 1`)
/// execution of the very same jobs.
#[test]
fn threaded_eight_shard_oracle_matches_sequential() {
    const N_SHARDS: usize = 8;
    let ops = gen_ops(0x5EED_CAFE, 192);
    let ring = HashRing::new(N_SHARDS);
    // Every shard must own at least one op, or a slice of the identity
    // check is vacuous.
    for sid in 0..N_SHARDS {
        assert!(
            ops.iter().any(|op| ring.shard_of_u64(op_key(op)) == sid),
            "shard {sid} owns no ops; enlarge the sequence"
        );
    }

    let seq = ShardExecutor::sequential().run(N_SHARDS, |sid| run_shard_oracle(&ops, &ring, sid));
    let par = ShardExecutor::new(8).run(N_SHARDS, |sid| run_shard_oracle(&ops, &ring, sid));

    for (sid, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(
            a, b,
            "shard {sid}: threaded artifacts diverged from sequential"
        );
        for m in 0..G {
            let mm = first_mismatch(&a.hl_members[m], &a.nv_members[m]);
            assert!(
                mm.is_none(),
                "shard {sid} member {m}: NVM diverged between backends at byte {mm:?}"
            );
        }
        for m in 1..G {
            let mm = first_mismatch(
                &a.hl_members[0][..UNIFORM_BYTES],
                &a.hl_members[m][..UNIFORM_BYTES],
            );
            assert!(
                mm.is_none(),
                "shard {sid}: HyperLoop member {m} != client at byte {mm:?}"
            );
        }
        assert!(
            a.hl_members.iter().any(|r| r.iter().any(|&x| x != 0)),
            "shard {sid}: all-zero NVM; oracle is vacuous"
        );
    }
}
