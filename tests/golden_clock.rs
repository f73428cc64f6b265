//! Golden simulated-clock pins.
//!
//! Every other determinism test compares a run with its own re-run, so a
//! refactor that shifts a simulated nanosecond everywhere at once passes
//! them all. This suite compares against *stored* numbers instead: a
//! fixed seed, a 3-replica chain, 200 ops each of gWRITE(flush),
//! gMEMCPY, gCAS and gFLUSH with 8 outstanding and a ring small enough
//! (32 slots) that the replenishers and client credits do real work.
//! The pinned tuple is `(events executed, final sim ns, Σ latency ns,
//! FNV-1a of every member's replicated region)`.
//!
//! The literals must only change in a PR that means to move the
//! simulated clock and says so. They have been recorded twice: at
//! df4d68d, the commit before the slot-program refactor (PR 14), and
//! again at PR 15, which replaced the NIC's Box–Muller jitter sampler
//! with the inverse-CDF table (same distribution, different factor per
//! draw, so every jittered nanosecond moved; event counts by ≤ 6, final
//! time and Σ latency by < 1 %, member bytes not at all). Fan-out and
//! multi-client pin only the ack count and member-region hashes: their
//! replenisher timing is allowed to change.

use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::api::GroupClient;
use hyperloop_repro::hyperloop::fanout::{self, FanoutBuilder, FanoutClient, FanoutConfig};
use hyperloop_repro::hyperloop::multi::{self, MultiBuilder, MultiClient, MultiConfig};
use hyperloop_repro::hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop_repro::hyperloop::{
    replica, Backpressure, GroupBuilder, GroupConfig, HyperLoopClient, OnDone,
};
use hyperloop_repro::sim::{Engine, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

const SEED: u64 = 1409;
const REP_BYTES: u64 = 64 << 10;
const RING_SLOTS: u32 = 32;
const OPS: u32 = 200;
const OUTSTANDING: u32 = 8;
const SLOT: u64 = 256;
const CAS_BASE: u64 = 32 << 10;

/// One closed-loop phase: at most `OUTSTANDING` ops in flight, each
/// completion issues the next; a refused issue retries 5 µs later.
struct Pump {
    issued: u32,
    done: u32,
    retry_armed: bool,
    lat_ns: u64,
}

type Issue = Rc<dyn Fn(&mut World, &mut Engine<World>, u32, OnDone) -> Result<u32, Backpressure>>;

fn pump(st: &Rc<RefCell<Pump>>, issue: &Issue, w: &mut World, eng: &mut Engine<World>) {
    loop {
        let k = {
            let s = st.borrow();
            if s.issued >= OPS || s.issued - s.done >= OUTSTANDING {
                return;
            }
            s.issued
        };
        let (st2, issue2) = (st.clone(), issue.clone());
        let done: OnDone = Box::new(move |w, eng, r| {
            {
                let mut s = st2.borrow_mut();
                s.done += 1;
                s.lat_ns += r.latency.as_nanos();
            }
            pump(&st2, &issue2, w, eng);
        });
        match issue(w, eng, k, done) {
            Ok(_) => st.borrow_mut().issued += 1,
            Err(Backpressure) => {
                if !std::mem::replace(&mut st.borrow_mut().retry_armed, true) {
                    let (st2, issue2) = (st.clone(), issue.clone());
                    eng.schedule(SimDuration::from_micros(5), move |w, eng| {
                        st2.borrow_mut().retry_armed = false;
                        pump(&st2, &issue2, w, eng);
                    });
                }
                return;
            }
        }
    }
}

/// Run one phase to completion; returns Σ latency ns.
fn phase(issue: Issue, w: &mut World, eng: &mut Engine<World>) -> u64 {
    let st = Rc::new(RefCell::new(Pump {
        issued: 0,
        done: 0,
        retry_armed: false,
        lat_ns: 0,
    }));
    pump(&st, &issue, w, eng);
    let probe = st.clone();
    assert!(eng.run_while(w, move |_| probe.borrow().done < OPS));
    let s = st.borrow();
    assert_eq!(s.done, OPS);
    s.lat_ns
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

fn payload(k: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (k as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

/// The four phases through any [`GroupClient`]; returns
/// `(events, now ns, Σ latency ns, member-region hash)`.
fn four_phases<C: GroupClient + 'static>(
    client: Rc<C>,
    w: &mut World,
    eng: &mut Engine<World>,
) -> (u64, u64, u64, u64) {
    let mut lat = 0u64;
    let c = client.clone();
    lat += phase(
        Rc::new(move |w, eng, k, done| {
            let off = (k as u64 % 64) * SLOT;
            c.gwrite(w, eng, off, &payload(k, SLOT as usize), true, done)
        }),
        w,
        eng,
    );
    let c = client.clone();
    lat += phase(
        Rc::new(move |w, eng, k, done| {
            let src = (k as u64 % 32) * SLOT;
            let dst = (64 + k as u64 % 32) * SLOT;
            c.gmemcpy(w, eng, src, dst, 128, k % 2 == 0, done)
        }),
        w,
        eng,
    );
    let c = client.clone();
    lat += phase(
        Rc::new(move |w, eng, k, done| {
            // Word k%16 steps 0 → 1 → 2 …; rounds are 16 ops apart, more
            // than the 8 outstanding, so each CAS sees its predecessor.
            let off = CAS_BASE + (k as u64 % 16) * 8;
            let round = (k / 16) as u64;
            c.gcas(w, eng, off, round, round + 1, 0b1111, done)
        }),
        w,
        eng,
    );
    let c = client.clone();
    lat += phase(
        Rc::new(move |w, eng, k, done| c.gflush(w, eng, (k as u64 % 64) * SLOT, SLOT as u32, done)),
        w,
        eng,
    );
    let mut h = FNV_INIT;
    for m in 0..client.group_size() {
        let host = client.member_host(m);
        let addr = client.member_addr(m, 0);
        fnv1a(
            &mut h,
            w.hosts[host.0].mem.read(addr, REP_BYTES as usize).unwrap(),
        );
    }
    assert_eq!(w.polled_cq_overruns(), 0, "a polled CQ overran");
    (eng.events_executed(), eng.now().as_nanos(), lat, h)
}

fn chain_world() -> (World, Engine<World>) {
    ClusterBuilder::new(4)
        .arena_size(4 << 20)
        .seed(SEED)
        .build()
}

#[test]
fn hyperloop_chain_clock_is_pinned() {
    let (mut w, mut eng) = chain_world();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2), HostId(3)],
        rep_bytes: REP_BYTES,
        ring_slots: RING_SLOTS,
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = Rc::new(HyperLoopClient::new(group, &mut w));
    let got = four_phases(client, &mut w, &mut eng);
    assert_eq!(got, GOLD_CHAIN, "(events, now ns, Σ latency ns, hash)");
}

fn naive(mode: Mode) -> (u64, u64, u64, u64) {
    let (mut w, mut eng) = chain_world();
    let client = NaiveBuilder::new(NaiveConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2), HostId(3)],
        rep_bytes: REP_BYTES,
        ring_slots: RING_SLOTS,
        mode,
        ..Default::default()
    })
    .build(&mut w, &mut eng);
    four_phases(Rc::new(client), &mut w, &mut eng)
}

#[test]
fn naive_event_clock_is_pinned() {
    assert_eq!(
        naive(Mode::Event),
        GOLD_NAIVE_EVENT,
        "(events, now ns, Σ latency ns, hash)"
    );
}

#[test]
fn naive_polling_clock_is_pinned() {
    assert_eq!(
        naive(Mode::Polling),
        GOLD_NAIVE_POLLING,
        "(events, now ns, Σ latency ns, hash)"
    );
}

/// Fan-out, 2 backups: ack count and the four members' region hash.
#[test]
fn fanout_state_is_pinned() {
    let (mut w, mut eng) = chain_world();
    let group = FanoutBuilder::new(FanoutConfig {
        client: HostId(0),
        primary: HostId(1),
        backups: vec![HostId(2), HostId(3)],
        rep_bytes: REP_BYTES,
        ring_slots: RING_SLOTS,
        ..Default::default()
    })
    .build(&mut w);
    fanout::start_replenisher(&group, &mut w, &mut eng);
    let client = FanoutClient::new(group, &mut w);
    let c = client.clone();
    phase(
        Rc::new(move |w, eng, k, done| {
            let off = (k as u64 % 64) * SLOT;
            c.gwrite(w, eng, off, &payload(k, SLOT as usize), done)
        }),
        &mut w,
        &mut eng,
    );
    assert_eq!(client.group().borrow().acked, OPS as u64);
    let mut h = FNV_INIT;
    for m in 0..4 {
        let host = client.member_host(m);
        let addr = client.member_addr(m, 0);
        fnv1a(
            &mut h,
            w.hosts[host.0].mem.read(addr, REP_BYTES as usize).unwrap(),
        );
    }
    assert_eq!(h, GOLD_FANOUT_HASH);
    assert_eq!(w.polled_cq_overruns(), 0, "a polled CQ overran");
}

/// Multi-client, 2 clients over 2 replicas, alternating issuers on
/// disjoint offsets: ack count and the replicas' region hash.
#[test]
fn multi_client_state_is_pinned() {
    let (mut w, mut eng) = chain_world();
    let chain = MultiBuilder::new(MultiConfig {
        clients: vec![HostId(0), HostId(1)],
        replicas: vec![HostId(2), HostId(3)],
        rep_bytes: REP_BYTES,
        ring_slots: RING_SLOTS,
        ..Default::default()
    })
    .build(&mut w);
    multi::start_replenisher(&chain, &mut w, &mut eng);
    let clients: Vec<MultiClient> = (0..2)
        .map(|c| MultiClient::new(chain.clone(), c, &mut w))
        .collect();
    let cs = clients.clone();
    phase(
        Rc::new(move |w, eng, k, done| {
            let c = (k % 2) as usize;
            let off = (k as u64 % 64) * SLOT;
            cs[c].gwrite(w, eng, off, &payload(k, SLOT as usize), k % 4 < 2, done)
        }),
        &mut w,
        &mut eng,
    );
    assert_eq!(chain.borrow().acked, OPS as u64);
    let mut h = FNV_INIT;
    for r in 0..2 {
        let host = clients[0].replica_host(r);
        let addr = clients[0].replica_addr(r, 0);
        fnv1a(
            &mut h,
            w.hosts[host.0].mem.read(addr, REP_BYTES as usize).unwrap(),
        );
    }
    assert_eq!(h, GOLD_MULTI_HASH);
    assert_eq!(w.polled_cq_overruns(), 0, "a polled CQ overran");
}

// Recorded at PR 15 (table-driven jitter sampler). Before it, from
// df4d68d: chain (24250, 4966724, 19360776), naive event
// (20988, 2945985, 23254611), naive polling (20485, 2384885, 18754701),
// same hash.
const GOLD_CHAIN: (u64, u64, u64, u64) = (24253, 4962206, 19212525, 11900267322293170469);
const GOLD_NAIVE_EVENT: (u64, u64, u64, u64) = (20994, 2957170, 23332466, 11900267322293170469);
const GOLD_NAIVE_POLLING: (u64, u64, u64, u64) = (20488, 2386876, 18761887, 11900267322293170469);
const GOLD_FANOUT_HASH: u64 = 5640311401086956325;
const GOLD_MULTI_HASH: u64 = 13221269270169709349;
