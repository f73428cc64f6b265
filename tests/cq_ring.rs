//! Completion queues are fixed hardware rings.
//!
//! A replica's CQs are counters that WAITs watch and nothing polls, so
//! an unbounded CQ kept every CQE it ever produced: memory grew with the
//! number of operations run. With [`CQ_DEPTH`]-entry rings the CQEs a
//! chain stores are bounded, and the same after N and after 8N
//! operations, while every CQ that software drains never overruns.
//!
//! This is the machine-independent gate behind the benchmark's
//! `host_peak_rss_mb` (CI prints the summary line of
//! `stored_cqes_do_not_grow_with_operations_run`).

use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
use hyperloop_repro::rnic::CQ_DEPTH;
use hyperloop_repro::sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const WRITE: usize = 1024;
const SLOTS: u64 = 128;
const OUTSTANDING: u64 = 16;
/// Enough operations that every CQ producing at least one CQE per
/// operation has filled its ring.
const N: u64 = 2 * CQ_DEPTH as u64;

/// What the chain's NICs hold after a run.
struct CqStore {
    /// CQEs stored over every CQ of every NIC.
    stored: usize,
    /// CQs over every NIC.
    cqs: usize,
    /// Overwrites over every NIC (`NicCounters::cq_overruns`).
    overruns: u64,
}

struct Load {
    client: HyperLoopClient,
    issued: u64,
    done: u64,
    budget: u64,
}

/// Issue until `OUTSTANDING` writes are in flight or the budget is spent;
/// every completion issues the next.
fn pump(st: &Rc<RefCell<Load>>, w: &mut World, eng: &mut Engine<World>) {
    loop {
        let (client, k) = {
            let s = st.borrow();
            if s.issued == s.budget || s.issued - s.done == OUTSTANDING {
                return;
            }
            (s.client.clone(), s.issued)
        };
        let st2 = st.clone();
        let done: OnDone = Box::new(move |w, eng, _| {
            st2.borrow_mut().done += 1;
            pump(&st2, w, eng);
        });
        let payload = vec![k as u8; WRITE];
        let off = (k % SLOTS) * WRITE as u64;
        if client.gwrite(w, eng, off, &payload, false, done).is_err() {
            // Out of credits: the replenisher frees slots shortly.
            let st2 = st.clone();
            eng.schedule(SimDuration::from_micros(5), move |w, eng| {
                pump(&st2, w, eng)
            });
            return;
        }
        st.borrow_mut().issued += 1;
    }
}

/// The benchmark's `gwrite_chain` shape — client `h0`, replicas `h1`,
/// `h2`, a 256-slot ring, 1 KiB writes, 16 outstanding — run for `ops`
/// operations.
fn run_chain(ops: u64) -> CqStore {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(4 << 20).seed(42).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: SLOTS * WRITE as u64,
        ring_slots: 256,
        replenish_period: SimDuration::from_micros(50),
        transport_timeout: None,
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group, &mut w);
    eng.run_until(&mut w, SimTime::from_nanos(1_000_000));
    let st = Rc::new(RefCell::new(Load {
        client,
        issued: 0,
        done: 0,
        budget: ops,
    }));
    pump(&st, &mut w, &mut eng);
    let probe = st.clone();
    assert!(eng.run_while(&mut w, move |_| probe.borrow().done < ops));

    // Overruns are legal only on CQs that nothing polls or subscribes to.
    for (h, host) in w.hosts.iter().enumerate() {
        for cq in 0..host.nic.num_cqs() as u32 {
            let ring = host.nic.cq(cq);
            assert!(
                ring.depth() <= CQ_DEPTH,
                "h{h} cq{cq} stores past its depth"
            );
            assert!(
                ring.overruns() == 0 || !ring.is_polled(),
                "h{h} cq{cq}: overran {} CQEs although software polls it",
                ring.overruns()
            );
        }
    }
    assert_eq!(w.polled_cq_overruns(), 0);
    let nics = || w.hosts.iter().map(|h| &h.nic);
    CqStore {
        stored: nics()
            .flat_map(|n| (0..n.num_cqs() as u32).map(move |cq| n.cq(cq).depth()))
            .sum(),
        cqs: nics().map(|n| n.num_cqs()).sum(),
        overruns: nics().map(|n| n.counters().cq_overruns).sum(),
    }
}

#[test]
fn stored_cqes_do_not_grow_with_operations_run() {
    let short = run_chain(N);
    let long = run_chain(8 * N);
    println!(
        "cq_ring: ops {} -> {}, stored_cqes {} -> {} (bound {}), cq_overruns {} -> {}",
        N,
        8 * N,
        short.stored,
        long.stored,
        CQ_DEPTH * long.cqs,
        short.overruns,
        long.overruns
    );
    assert_eq!(short.cqs, long.cqs);
    assert!(long.stored <= CQ_DEPTH * long.cqs);
    assert_eq!(
        short.stored, long.stored,
        "stored CQEs grew with operations run"
    );
    // The WAIT-watched CQs really did wrap, and wrapped more in the
    // longer run.
    assert!(short.overruns > 0 && long.overruns > short.overruns);
}
