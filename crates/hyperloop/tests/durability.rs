//! Durability at ACK, per primitive, and the gMEMCPY ordering contract
//! of [`GroupClient`], on the HyperLoop chain and on the Naive baseline.
//!
//! The NIC profile raises `contention_prob` to 0.5, so half of all local
//! DMAs take a memory-bus contention hit: that is what reorders a
//! member's local ops if nothing keeps them in posting order. Tier-1
//! runs seeds 73 and 2; the `#[ignore]`d `*_grid` variants run seeds
//! 1–16 on both backends. Every world runs under the race detector and
//! must end with an empty report:
//!
//! ```text
//! cargo test -p hyperloop --test durability -- --ignored
//! ```

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::config::{HwProfile, NicProfile};
use hl_sim::Engine;
use hyperloop::api::GroupClient;
use hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
use std::cell::Cell;
use std::rc::Rc;

/// Seeds the tier-1 tests run; the grid runs 1–16.
const SEEDS: [u64; 2] = [73, 2];
const GRID: std::ops::RangeInclusive<u64> = 1..=16;

const REP_BYTES: u64 = 256 << 10;
/// Two source patterns of `LEN` bytes at 0 and `LEN`.
const LEN: usize = 1536;
/// Destination slots of `LEN` bytes from `DST`.
const DST: u64 = 4 << 10;
const SLOTS: u64 = 64;
/// gCAS words, one per slot.
const CAS_WORDS: u64 = 200 << 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    HyperLoop,
    Naive,
}

fn world(seed: u64) -> (World, Engine<World>) {
    let profile = HwProfile {
        nic: NicProfile {
            contention_prob: 0.5,
            ..Default::default()
        },
        ..Default::default()
    };
    ClusterBuilder::new(3)
        .arena_size(1 << 20)
        .profile(profile)
        .seed(seed)
        .race_detector()
        .build()
}

/// Run `body` against a g = 3 group (client + two replicas) of `backend`,
/// then assert that the race detector saw nothing.
fn with_group<R>(
    backend: Backend,
    seed: u64,
    body: impl FnOnce(&mut World, &mut Engine<World>, Rc<dyn GroupClient>) -> R,
) -> R {
    let (mut w, mut eng) = world(seed);
    let replicas = vec![HostId(1), HostId(2)];
    let client: Rc<dyn GroupClient> = match backend {
        Backend::HyperLoop => {
            let group = GroupBuilder::new(GroupConfig {
                client: HostId(0),
                replicas,
                rep_bytes: REP_BYTES,
                ring_slots: 64,
                ..Default::default()
            })
            .build(&mut w);
            replica::start_replenishers(&group, &mut w, &mut eng);
            Rc::new(HyperLoopClient::new(group, &mut w))
        }
        Backend::Naive => Rc::new(
            NaiveBuilder::new(NaiveConfig {
                client: HostId(0),
                replicas,
                rep_bytes: REP_BYTES,
                ring_slots: 64,
                mode: Mode::Event,
                ..Default::default()
            })
            .build(&mut w, &mut eng),
        ),
    };
    let r = body(&mut w, &mut eng, client);
    let report = w.race_report();
    assert!(
        report.is_empty(),
        "{backend:?} seed {seed}: race detector flagged:\n{}",
        report.join("\n")
    );
    r
}

/// Source pattern `p` (0 or 1).
fn pattern(p: u64) -> Vec<u8> {
    (0..LEN).map(|i| (i * 13) as u8 ^ (p as u8 + 1)).collect()
}

fn slot(k: u64) -> u64 {
    DST + (k % SLOTS) * LEN as u64
}

/// Run until `settled()`, failing after 50 ms of simulated time.
fn settle(w: &mut World, eng: &mut Engine<World>, settled: impl Fn() -> bool) {
    let deadline = eng.now() + hl_sim::SimDuration::from_millis(50);
    while !settled() {
        assert!(eng.now() < deadline, "not settled after 50 ms");
        assert!(eng.step(w));
    }
}

/// Write both source patterns durably to every member.
fn write_sources(w: &mut World, eng: &mut Engine<World>, c: &dyn GroupClient) {
    let acked = Rc::new(Cell::new(0));
    for p in 0..2 {
        let a = acked.clone();
        c.gwrite(
            w,
            eng,
            p * LEN as u64,
            &pattern(p),
            true,
            Box::new(move |_, _, _| a.set(a.get() + 1)),
        )
        .unwrap();
    }
    settle(w, eng, || acked.get() == 2);
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prim {
    /// Flushed 1.5 KB gWRITE of bytes that name the op.
    Write,
    /// Flushed 1.5 KB gMEMCPY from a source pattern.
    Copy,
    /// gCAS of one word from its lap to the next, on every member.
    Cas,
}

/// Op `k` of `prim`: issue it, and say what member bytes at which
/// offset it leaves behind.
fn issue(
    w: &mut World,
    eng: &mut Engine<World>,
    c: &dyn GroupClient,
    prim: Prim,
    k: u64,
    done: OnDone,
) -> (u64, Vec<u8>) {
    let lap = k / SLOTS;
    match prim {
        Prim::Write => {
            let data: Vec<u8> = (0..LEN).map(|i| (k as usize * 7 + i) as u8).collect();
            c.gwrite(w, eng, slot(k), &data, true, done).unwrap();
            (slot(k), data)
        }
        Prim::Copy => {
            let src = (lap % 2) * LEN as u64;
            c.gmemcpy(w, eng, src, slot(k), LEN as u32, true, done)
                .unwrap();
            (slot(k), pattern(lap % 2))
        }
        Prim::Cas => {
            let word = CAS_WORDS + (k % SLOTS) * 8;
            c.gcas(w, eng, word, lap, lap + 1, 0b111, done).unwrap();
            (word, (lap + 1).to_le_bytes().to_vec())
        }
    }
}

/// Issue 600 ops of `prim` one after another. At each ACK, crash a
/// clone of every member's NVM and count the (op, member) pairs whose
/// bytes are not there.
fn not_durable_at_ack(backend: Backend, seed: u64, prim: Prim) -> usize {
    with_group(backend, seed, |w, eng, c| {
        write_sources(w, eng, &*c);
        let missing = Rc::new(Cell::new(0));
        for k in 0..600 {
            let acked = Rc::new(Cell::new(false));
            let expect = Rc::new(Cell::new((0, Vec::new())));
            let (a, e, m, members) = (acked.clone(), expect.clone(), missing.clone(), c.clone());
            let done: OnDone = Box::new(move |w, _, _| {
                let (off, bytes) = e.take();
                for member in 0..members.group_size() {
                    let mut mem = w.hosts[members.member_host(member).0].mem.clone();
                    mem.crash();
                    let addr = members.member_addr(member, off);
                    if mem.read(addr, bytes.len()).unwrap() != &bytes[..] {
                        m.set(m.get() + 1);
                    }
                }
                a.set(true);
            });
            expect.set(issue(w, eng, &*c, prim, k, done));
            settle(w, eng, || acked.get());
        }
        missing.get()
    })
}

/// A flushed gMEMCPY is durable on every member at its ACK: each
/// member's LOCAL_FLUSH completes after the LOCAL_COPY it covers.
#[test]
fn flushed_gmemcpy_is_durable_at_its_ack() {
    for seed in SEEDS {
        for backend in [Backend::HyperLoop, Backend::Naive] {
            let missing = not_durable_at_ack(backend, seed, Prim::Copy);
            assert_eq!(missing, 0, "{backend:?} seed {seed}: of 1800");
        }
    }
}

/// A flushed gWRITE is durable on every member at its ACK: a remote
/// WRITE·FLUSH pair on one RC QP, whose FLUSH is fenced behind the WRITE.
#[test]
fn flushed_gwrite_is_durable_at_its_ack() {
    for seed in SEEDS {
        for backend in [Backend::HyperLoop, Backend::Naive] {
            let missing = not_durable_at_ack(backend, seed, Prim::Write);
            assert_eq!(missing, 0, "{backend:?} seed {seed}: of 1800");
        }
    }
}

/// A gCAS has no flush, so it is not durable at its ACK: the swapped
/// word sits in the volatile cache on every member until a later flush
/// covers it. Callers that need a durable CAS follow it with a gFLUSH.
#[test]
fn gcas_is_not_durable_at_its_ack() {
    for seed in SEEDS {
        for backend in [Backend::HyperLoop, Backend::Naive] {
            let missing = not_durable_at_ack(backend, seed, Prim::Cas);
            assert_eq!(missing, 1800, "{backend:?} seed {seed}: of 1800");
        }
    }
}

#[test]
#[ignore = "seed grid for CI's durability-grid job"]
fn durability_at_ack_grid() {
    for seed in GRID {
        for backend in [Backend::HyperLoop, Backend::Naive] {
            for (prim, want) in [(Prim::Copy, 0), (Prim::Write, 0), (Prim::Cas, 1800)] {
                let missing = not_durable_at_ack(backend, seed, prim);
                assert_eq!(missing, want, "{backend:?} {prim:?} seed {seed}: of 1800");
            }
        }
    }
}

/// Issue 96 flushed gMEMCPYs of `LEN` bytes to fresh slots, up to 8 in
/// flight, and at every event boundary check on every member that the
/// copies applied so far are a prefix of the issue order and that every
/// one but the newest is durable: each copy applies after the previous
/// one's flush.
fn check_copy_order(backend: Backend, seed: u64) {
    const N: u64 = 96;
    with_group(backend, seed, |w, eng, c| {
        write_sources(w, eng, &*c);
        let want = pattern(0);
        let acked = Rc::new(Cell::new(0));
        let g = c.group_size();
        let (mut visible, mut durable) = (vec![0u64; g], vec![0u64; g]);
        let mut next = 0;
        while acked.get() < N {
            while next < N && next - acked.get() < 8 {
                let a = acked.clone();
                c.gmemcpy(
                    w,
                    eng,
                    0,
                    DST + next * LEN as u64,
                    LEN as u32,
                    true,
                    Box::new(move |_, _, _| a.set(a.get() + 1)),
                )
                .unwrap();
                next += 1;
            }
            assert!(eng.step(w));
            for m in 0..g {
                let mem = &w.hosts[c.member_host(m).0].mem;
                let at = |k: u64| c.member_addr(m, DST + k * LEN as u64);
                while visible[m] < next && mem.read(at(visible[m]), LEN).unwrap() == &want[..] {
                    visible[m] += 1;
                }
                for k in visible[m] + 1..next {
                    assert!(
                        mem.read(at(k), LEN).unwrap() != &want[..],
                        "{backend:?} seed {seed} member {m}: copy {k} before copy {}",
                        visible[m]
                    );
                }
                while durable[m] < visible[m]
                    && mem.read_durable(at(durable[m]), LEN).unwrap() == want
                {
                    durable[m] += 1;
                }
                assert!(
                    durable[m] + 1 >= visible[m],
                    "{backend:?} seed {seed} member {m}: copy {} applied before copy {} was durable",
                    visible[m] - 1,
                    durable[m]
                );
            }
        }
    });
}

/// The [`GroupClient`] ordering contract, on both backends.
#[test]
fn gmemcpys_apply_in_issue_order_each_after_the_previous_flush() {
    for seed in SEEDS {
        check_copy_order(Backend::HyperLoop, seed);
        check_copy_order(Backend::Naive, seed);
    }
}

#[test]
#[ignore = "seed grid for CI's durability-grid job"]
fn gmemcpy_order_grid() {
    for seed in GRID {
        check_copy_order(Backend::HyperLoop, seed);
        check_copy_order(Backend::Naive, seed);
    }
}
