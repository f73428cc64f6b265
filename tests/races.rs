//! System-level race-detector regression: every world here is built
//! with `ClusterBuilder::race_detector`, so these run in plain
//! `cargo test`.
//!
//! Re-creates the bug shape behind the catch-up fix: while a new chain
//! member is pulling state with catch-up READs, a stale write from the
//! old chain generation lands in the same region. The two writers are
//! different QPs, nothing orders them on the receiving host, and they
//! carry different bytes — exactly the silent-corruption race the
//! WQE-ownership & DMA detector exists to flag. One seed, one
//! deterministic detection.
//!
//! The fan-out and multi-client extensions run here too, so their slot
//! programs meet the detector.

use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::fanout::{self, FanoutBuilder, FanoutClient, FanoutConfig};
use hyperloop_repro::hyperloop::multi::{self, MultiBuilder, MultiClient, MultiConfig};
use hyperloop_repro::hyperloop::{recovery, Backpressure, OnDone};
use hyperloop_repro::rnic::{flags, Access, Opcode, Wqe};
use hyperloop_repro::sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const SRC: HostId = HostId(0); // surviving replica being copied from
const DST: HostId = HostId(1); // new member catching up
const OLD: HostId = HostId(2); // stale old-generation writer
const LEN: u64 = 1024;

#[test]
fn stale_chain_write_racing_catch_up_is_detected() {
    let (mut w, mut eng) = ClusterBuilder::new(3)
        .arena_size(1 << 20)
        .seed(11)
        .race_detector()
        .build();

    // Committed state on the survivor, destination region on the new
    // member (registered remotely writable, as replica regions are).
    let src = w.host(SRC).layout.alloc("rep.src", LEN, 64);
    let dst = w.host(DST).layout.alloc("rep.dst", LEN, 64);
    let pattern: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    w.hosts[SRC.0].mem.write(src.addr, &pattern).unwrap();
    let src_mr = w.hosts[SRC.0]
        .nic
        .register_mr(src.addr, LEN, Access::REMOTE_READ);
    let dst_mr = w.hosts[DST.0]
        .nic
        .register_mr(dst.addr, LEN, Access::REMOTE_WRITE);

    // The old chain generation still has a QP into the new member's
    // region — its in-flight write was never ordered against the copy.
    let old_sq = w.host(OLD).layout.alloc("old.sq", 8 * 64, 64);
    let dst_sq = w.host(DST).layout.alloc("old.peer.sq", 8 * 64, 64);
    let old_cq = w.hosts[OLD.0].nic.create_cq();
    let old_qp = w.hosts[OLD.0].nic.create_qp(old_cq, old_cq, old_sq.addr, 8);
    let dst_cq = w.hosts[DST.0].nic.create_cq();
    let dst_qp = w.hosts[DST.0].nic.create_qp(dst_cq, dst_cq, dst_sq.addr, 8);
    w.connect_qps(OLD, old_qp, DST, dst_qp);
    let stale = w.host(OLD).layout.alloc("stale", 64, 64);
    w.hosts[OLD.0].mem.write(stale.addr, &[0xEE; 64]).unwrap();

    // t=0: the stale write departs (unsignaled one-sided WRITE into the
    // middle of the region — no completion on the receiving host).
    w.host(OLD)
        .post_send(
            old_qp,
            Wqe {
                opcode: Opcode::Write,
                flags: 0,
                len: 64,
                laddr: stale.addr,
                raddr: dst.addr + 512,
                rkey: dst_mr.rkey,
                wr_id: 99,
                ..Default::default()
            },
            false,
        )
        .unwrap();
    w.ring_doorbell(OLD, old_qp, &mut eng);

    // Shortly after, the rebuild starts catching the new member up with
    // a single whole-region READ; its response lands over the stale
    // bytes with no intervening completion on the new member.
    let done = Rc::new(RefCell::new(false));
    let d2 = done.clone();
    eng.schedule(SimDuration::from_micros(2), move |w, eng| {
        recovery::catch_up(
            w,
            eng,
            SRC,
            src_mr.rkey,
            src.addr,
            DST,
            dst.addr,
            LEN,
            LEN as u32, // one chunk: the whole region in a single READ
            Box::new(move |_w, _e| *d2.borrow_mut() = true),
        );
    });
    eng.run_until(&mut w, SimTime::from_nanos(500_000_000));

    assert!(*done.borrow(), "catch-up must complete");
    // The copy itself converged (last writer wins)...
    assert_eq!(
        w.hosts[DST.0].mem.read_vec(dst.addr, LEN as usize).unwrap(),
        pattern
    );
    // ...but the detector must have flagged the unordered overlap,
    // naming both writers.
    let report = w.race_report();
    assert!(
        report.iter().any(|l| l.contains("concurrent DMA overlap")),
        "expected a concurrent-DMA-overlap violation, got: {report:?}"
    );
}

/// A healthy one-sided write exchange stays silent: the detector is an
/// observer, not a tripwire for legal traffic.
#[test]
fn healthy_write_traffic_reports_no_races() {
    let (mut w, mut eng) = ClusterBuilder::new(2)
        .arena_size(1 << 20)
        .seed(5)
        .race_detector()
        .build();
    let a_sq = w.host(HostId(0)).layout.alloc("a.sq", 8 * 64, 64);
    let b_sq = w.host(HostId(1)).layout.alloc("b.sq", 8 * 64, 64);
    let cq_a = w.hosts[0].nic.create_cq();
    let qp_a = w.hosts[0].nic.create_qp(cq_a, cq_a, a_sq.addr, 8);
    let cq_b = w.hosts[1].nic.create_cq();
    let qp_b = w.hosts[1].nic.create_qp(cq_b, cq_b, b_sq.addr, 8);
    w.connect_qps(HostId(0), qp_a, HostId(1), qp_b);
    let region = w.host(HostId(1)).layout.alloc("data", 4096, 64);
    let mr = w.hosts[1]
        .nic
        .register_mr(region.addr, 4096, Access::REMOTE_WRITE);
    let payload = w.host(HostId(0)).layout.alloc("payload", 64, 64);
    w.hosts[0].mem.write(payload.addr, &[0x42; 64]).unwrap();

    for k in 0..8u64 {
        w.host(HostId(0))
            .post_send(
                qp_a,
                Wqe {
                    opcode: Opcode::Write,
                    flags: flags::SIGNALED,
                    len: 64,
                    laddr: payload.addr,
                    raddr: region.addr + k * 64,
                    rkey: mr.rkey,
                    wr_id: k,
                    ..Default::default()
                },
                false,
            )
            .unwrap();
    }
    w.ring_doorbell(HostId(0), qp_a, &mut eng);
    eng.run(&mut w);

    assert_eq!(
        w.hosts[1].mem.read_vec(region.addr, 64).unwrap(),
        vec![0x42; 64]
    );
    assert!(w.race_report().is_empty(), "got: {:?}", w.race_report());
}

/// Issue `total` pipelined writes through `issue`, waiting 50 µs of
/// simulated time whenever the ring refuses, and run until all are
/// ACKed.
fn pipeline(
    w: &mut World,
    eng: &mut Engine<World>,
    total: u32,
    issue: impl Fn(&mut World, &mut Engine<World>, u32, OnDone) -> Result<u32, Backpressure>,
) {
    let acked = Rc::new(RefCell::new(0u32));
    let mut k = 0;
    while k < total {
        let a = acked.clone();
        match issue(w, eng, k, Box::new(move |_, _, _| *a.borrow_mut() += 1)) {
            Ok(_) => k += 1,
            Err(Backpressure) => {
                let woke = Rc::new(RefCell::new(false));
                let flag = woke.clone();
                eng.schedule(SimDuration::from_micros(50), move |_, _| {
                    *flag.borrow_mut() = true
                });
                eng.run_while(w, move |_| !*woke.borrow());
            }
        }
    }
    let a = acked.clone();
    assert!(eng.run_while(w, move |_| *a.borrow() < total));
}

const RING: u32 = 16;

/// The fan-out programs use deferred ownership (WAIT-granted WQEs) and
/// scatter-into-WQE on the primary, and are replenished by a process
/// per host while traffic flows: four ring depths of pipelined writes
/// must leave the ownership & DMA detector silent.
#[test]
fn fanout_pipelined_writes_report_no_races() {
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size(4 << 20)
        .seed(23)
        .race_detector()
        .build();
    let group = FanoutBuilder::new(FanoutConfig {
        client: HostId(0),
        primary: HostId(1),
        backups: vec![HostId(2), HostId(3)],
        rep_bytes: 256 << 10,
        ring_slots: RING,
    })
    .build(&mut w);
    fanout::start_replenisher(&group, &mut w, &mut eng);
    let client = FanoutClient::new(group, &mut w);
    pipeline(&mut w, &mut eng, 4 * RING, |w, eng, k, done| {
        client.gwrite(w, eng, k as u64 * 256, &[k as u8; 200], done)
    });
    assert!(w.race_report().is_empty(), "got: {:?}", w.race_report());
}

/// The same for the multi-client chain: two clients through one SRQ
/// head, the per-client select byte rewriting the tail's opcodes.
#[test]
fn multi_client_pipelined_writes_report_no_races() {
    let (mut w, mut eng) = ClusterBuilder::new(5)
        .arena_size(4 << 20)
        .seed(29)
        .race_detector()
        .build();
    let chain = MultiBuilder::new(MultiConfig {
        clients: vec![HostId(0), HostId(1)],
        replicas: vec![HostId(2), HostId(3), HostId(4)],
        rep_bytes: 256 << 10,
        ring_slots: RING,
    })
    .build(&mut w);
    multi::start_replenisher(&chain, &mut w, &mut eng);
    let clients: Vec<MultiClient> = (0..2)
        .map(|c| MultiClient::new(chain.clone(), c, &mut w))
        .collect();
    pipeline(&mut w, &mut eng, 4 * RING, |w, eng, k, done| {
        clients[k as usize % 2].gwrite(w, eng, k as u64 * 256, &[k as u8; 200], k % 3 == 0, done)
    });
    assert!(w.race_report().is_empty(), "got: {:?}", w.race_report());
}

/// A race-freedom assertion on a world built without the switch would
/// pass without checking anything, so the report refuses.
#[test]
#[should_panic(expected = "race detector is off")]
fn race_report_without_the_switch_panics() {
    let (w, _eng) = ClusterBuilder::new(2).build();
    w.race_report();
}
