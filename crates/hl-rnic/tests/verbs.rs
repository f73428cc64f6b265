//! Integration tests for the verbs layer: a miniature multi-NIC world
//! with fixed link latency, exercising every verb and — crucially — the
//! WAIT + remote-WQE-manipulation forwarding chain that HyperLoop's
//! group primitives are built from.

mod common;

use common::collect;
use hl_nvm::NvmArena;
use hl_rnic::{
    field_offset, flags, Access, Cqe, CqeKind, CqeStatus, Nic, NicOutput, Opcode, RecvWqe,
    ScatterEntry, ScatterTemplate, Wqe, WQE_SIZE,
};
use hl_sim::config::NicProfile;
use hl_sim::{Engine, RngFactory, SimDuration, SimTime};

const LINK_LATENCY: SimDuration = SimDuration::from_nanos(500);
const ARENA: usize = 1 << 20;

struct World {
    nics: Vec<Nic>,
    mems: Vec<NvmArena>,
    cq_events: Vec<(SimTime, usize, u32)>,
    completions: Vec<(SimTime, usize, u32, Cqe)>, // (when, nic, cq, cqe)
}
hl_sim::inert_event_ctx!(World);

impl World {
    fn new(n: usize) -> Self {
        let fac = RngFactory::new(1234);
        let profile = NicProfile {
            jitter_sigma: 0.0, // determinism-friendly for assertions
            ..NicProfile::default()
        };
        World {
            nics: (0..n)
                .map(|i| Nic::new(i as u32, profile.clone(), fac.stream_idx("nic", i as u64)))
                .collect(),
            mems: (0..n).map(|_| NvmArena::new(ARENA)).collect(),
            cq_events: Vec::new(),
            completions: Vec::new(),
        }
    }
}

/// Route NIC outputs into engine events.
fn route(nic_idx: usize, outs: Vec<NicOutput>, eng: &mut Engine<World>) {
    for o in outs {
        match o {
            NicOutput::Transmit {
                at,
                dst_nic,
                packet,
            } => {
                eng.schedule_at(at + LINK_LATENCY, move |w: &mut World, eng| {
                    let outs = collect(|o| {
                        w.nics[dst_nic as usize].on_packet(
                            eng.now(),
                            packet,
                            &mut w.mems[dst_nic as usize],
                            o,
                        )
                    });
                    route(dst_nic as usize, outs, eng);
                });
            }
            NicOutput::Complete { at, cq, cqe } => {
                eng.schedule_at(at, move |w: &mut World, eng| {
                    w.completions.push((eng.now(), nic_idx, cq, cqe));
                    let outs = collect(|o| {
                        w.nics[nic_idx].deliver_cqe(eng.now(), cq, cqe, &mut w.mems[nic_idx], o)
                    });
                    route(nic_idx, outs, eng);
                });
            }
            NicOutput::DoLocal { at, qpn, wqe } => {
                eng.schedule_at(at, move |w: &mut World, eng| {
                    let outs = collect(|o| {
                        w.nics[nic_idx].finish_local(eng.now(), qpn, wqe, &mut w.mems[nic_idx], o)
                    });
                    route(nic_idx, outs, eng);
                });
            }
            NicOutput::CqEvent { cq } => {
                eng.schedule_at(SimTime::ZERO, move |w: &mut World, eng| {
                    w.cq_events.push((eng.now(), nic_idx, cq));
                });
            }
            NicOutput::ArmTimer { at, qpn, gen } => {
                eng.schedule_at(at, move |w: &mut World, eng| {
                    let outs = collect(|o| {
                        w.nics[nic_idx].on_timer(eng.now(), qpn, gen, &mut w.mems[nic_idx], o)
                    });
                    route(nic_idx, outs, eng);
                });
            }
            // The nic-level harness keeps legacy fire-and-ignore timer
            // semantics; stale generations no-op inside on_timer.
            NicOutput::CancelTimer { .. } => {}
        }
    }
}

/// Polled completions on a CQ right now (drains).
fn poll(w: &mut World, nic: usize, cq: u32) -> Vec<Cqe> {
    w.nics[nic].poll_cq(cq, 64)
}

/// Create a connected QP pair between nic `a` and nic `b`. Returns
/// (qpn_a, qpn_b, send_cq_a, recv_cq_b, ...). Rings are placed in each
/// arena at `ring_base`.
struct Pair {
    qp_a: u32,
    qp_b: u32,
    scq_a: u32,
    #[allow(dead_code)]
    rcq_a: u32,
    #[allow(dead_code)]
    scq_b: u32,
    rcq_b: u32,
}

fn connect_pair(w: &mut World, a: usize, b: usize, ring_base: u64) -> Pair {
    let scq_a = w.nics[a].create_cq();
    let rcq_a = w.nics[a].create_cq();
    let scq_b = w.nics[b].create_cq();
    let rcq_b = w.nics[b].create_cq();
    let qp_a = w.nics[a].create_qp(scq_a, rcq_a, ring_base, 64);
    let qp_b = w.nics[b].create_qp(scq_b, rcq_b, ring_base, 64);
    w.nics[a].connect(qp_a, b as u32, qp_b);
    w.nics[b].connect(qp_b, a as u32, qp_a);
    Pair {
        qp_a,
        qp_b,
        scq_a,
        rcq_a,
        scq_b,
        rcq_b,
    }
}

#[test]
fn write_lands_remotely_and_completes() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    // Remote-writable MR on nic 1.
    let mr = w.nics[1].register_mr(0x1000, 0x1000, Access::REMOTE_WRITE);
    // Source data on nic 0.
    w.mems[0].write(0x2000, b"hyperloop!").unwrap();
    let wqe = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED,
        len: 10,
        laddr: 0x2000,
        raddr: 0x1000,
        rkey: mr.rkey,
        wr_id: 99,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.mems[1].read(0x1000, 10).unwrap(), b"hyperloop!");
    // Data sits in the NIC cache (not yet durable) until a FLUSH.
    assert!(!w.mems[1].is_durable(0x1000, 10));
    let cqes = poll(&mut w, 0, p.scq_a);
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].wr_id, 99);
    assert_eq!(cqes[0].status, CqeStatus::Ok);
    assert_eq!(cqes[0].byte_len, 10);
    // Round trip happened: some sim time passed.
    assert!(eng.now().as_nanos() > 1000);
}

#[test]
fn write_without_permission_gets_error_cqe() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    let mr = w.nics[1].register_mr(0x1000, 0x1000, Access::REMOTE_READ); // no write!
    let wqe = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED,
        len: 8,
        laddr: 0x2000,
        raddr: 0x1000,
        rkey: mr.rkey,
        wr_id: 7,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.mems[1].read(0x1000, 8).unwrap(), &[0; 8]);
    let cqes = poll(&mut w, 0, p.scq_a);
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].status, CqeStatus::RemoteAccess);
    assert_eq!(w.nics[1].counters().naks_sent, 1);
}

#[test]
fn send_scatters_into_multiple_targets() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    // Receiver scatters: bytes [0..4) to 0x100, bytes [8..12) to 0x200.
    w.nics[1].post_recv(
        p.qp_b,
        RecvWqe::new(
            5,
            &[
                ScatterEntry {
                    msg_off: 0,
                    len: 4,
                    addr: 0x100,
                    stride: 0,
                },
                ScatterEntry {
                    msg_off: 8,
                    len: 4,
                    addr: 0x200,
                    stride: 0,
                },
            ],
        ),
    );
    w.mems[0].write(0x3000, b"AAAAbbbbCCCC").unwrap();
    let wqe = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: 12,
        laddr: 0x3000,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.mems[1].read(0x100, 4).unwrap(), b"AAAA");
    assert_eq!(w.mems[1].read(0x200, 4).unwrap(), b"CCCC");
    let rx = poll(&mut w, 1, p.rcq_b);
    assert_eq!(rx.len(), 1);
    assert_eq!(rx[0].kind, CqeKind::Recv);
    assert_eq!(rx[0].wr_id, 5);
    assert_eq!(rx[0].byte_len, 12);
    // Sender got its ack completion too.
    assert_eq!(poll(&mut w, 0, p.scq_a).len(), 1);
}

#[test]
fn send_without_recv_is_rnr() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    let wqe = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: 4,
        laddr: 0x3000,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    let cqes = poll(&mut w, 0, p.scq_a);
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].status, CqeStatus::ReceiverNotReady);
}

#[test]
fn read_fetches_and_fences() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    let mr = w.nics[1].register_mr(0x1000, 0x100, Access::REMOTE_READ | Access::REMOTE_WRITE);
    w.mems[1].write(0x1000, b"remote-bytes").unwrap();
    // READ then WRITE posted together: the WRITE must not overtake the
    // fencing READ.
    let read = Wqe {
        opcode: Opcode::Read,
        flags: flags::SIGNALED,
        len: 12,
        laddr: 0x4000,
        raddr: 0x1000,
        rkey: mr.rkey,
        wr_id: 1,
        ..Default::default()
    };
    let write = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED,
        len: 4,
        laddr: 0x4000, // writes back the first 4 bytes just read
        raddr: 0x1020,
        rkey: mr.rkey,
        wr_id: 2,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, read, false)
        .unwrap();
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, write, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.mems[0].read(0x4000, 12).unwrap(), b"remote-bytes");
    // The write executed after the read response, so it carried the data.
    assert_eq!(w.mems[1].read(0x1020, 4).unwrap(), b"remo");
    let cqes = poll(&mut w, 0, p.scq_a);
    assert_eq!(cqes.iter().map(|c| c.wr_id).collect::<Vec<_>>(), vec![1, 2]);
}

#[test]
fn flush_makes_remote_data_durable() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    let mr = w.nics[1].register_mr(0x1000, 0x100, Access::REMOTE_READ | Access::REMOTE_WRITE);
    w.mems[0].write(0x2000, b"durable-data").unwrap();
    let write = Wqe {
        opcode: Opcode::Write,
        len: 12,
        laddr: 0x2000,
        raddr: 0x1000,
        rkey: mr.rkey,
        wr_id: 1,
        ..Default::default()
    };
    let flush = Wqe {
        opcode: Opcode::Flush,
        flags: flags::SIGNALED,
        len: 12,
        raddr: 0x1000,
        rkey: mr.rkey,
        wr_id: 2,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, write, false)
        .unwrap();
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, flush, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert!(w.mems[1].is_durable(0x1000, 12));
    // Crash: the data survives.
    w.mems[1].crash();
    assert_eq!(w.mems[1].read(0x1000, 12).unwrap(), b"durable-data");
    let cqes = poll(&mut w, 0, p.scq_a);
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].wr_id, 2);
    assert_eq!(w.nics[1].counters().flushes, 1);
}

#[test]
fn cas_swaps_exactly_once() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    let mr = w.nics[1].register_mr(0x1000, 0x100, Access::REMOTE_ATOMIC);
    // Lock word starts at 0 (unlocked).
    let cas = Wqe {
        opcode: Opcode::Cas,
        flags: flags::SIGNALED,
        len: 8,
        laddr: 0x5000, // result destination
        raddr: 0x1008,
        rkey: mr.rkey,
        cmp: 0,
        swp: 77,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, cas, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.mems[1].read_u64(0x1008).unwrap(), 77);
    assert_eq!(w.mems[0].read_u64(0x5000).unwrap(), 0); // original value

    // Second CAS with the same compare fails and returns 77.
    let cas2 = Wqe { wr_id: 2, ..cas };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, cas2, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.mems[1].read_u64(0x1008).unwrap(), 77); // unchanged
    assert_eq!(w.mems[0].read_u64(0x5000).unwrap(), 77); // reports current
}

#[test]
fn deferred_wqe_waits_for_ownership() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    let mr = w.nics[1].register_mr(0x1000, 0x100, Access::REMOTE_WRITE);
    w.mems[0].write(0x2000, b"deferred").unwrap();
    let wqe = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED,
        len: 8,
        laddr: 0x2000,
        raddr: 0x1000,
        rkey: mr.rkey,
        wr_id: 1,
        ..Default::default()
    };
    let idx = w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, wqe, true)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    // Nothing executed: software still owns the descriptor.
    assert_eq!(w.mems[1].read(0x1000, 8).unwrap(), &[0; 8]);

    // Grant ownership (the modified driver's late hand-off) and kick.
    w.nics[0].grant_ownership(&mut w.mems[0], p.qp_a, idx);
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.mems[1].read(0x1000, 8).unwrap(), b"deferred");
}

#[test]
fn wrong_peer_is_refused() {
    let mut w = World::new(3);
    let mut eng = Engine::new();
    let _ab = connect_pair(&mut w, 0, 1, 0x10000);
    // nic2 creates a QP pointing at nic1's qp 0 — but nic1's qp 0 is
    // connected to nic0, so nic1 must refuse nic2's traffic.
    let scq = w.nics[2].create_cq();
    let rcq = w.nics[2].create_cq();
    let rogue = w.nics[2].create_qp(scq, rcq, 0x10000, 16);
    w.nics[2].connect(rogue, 1, 0);
    let mr = w.nics[1].register_mr(0x1000, 0x100, Access::REMOTE_WRITE);
    let wqe = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED,
        len: 4,
        laddr: 0,
        raddr: 0x1000,
        rkey: mr.rkey,
        wr_id: 13,
        ..Default::default()
    };
    w.nics[2]
        .post_send(&mut w.mems[2], rogue, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[2].ring_doorbell(SimTime::ZERO, rogue, &mut w.mems[2], o));
    route(2, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.mems[1].read(0x1000, 4).unwrap(), &[0; 4]);
    let cqes = poll(&mut w, 2, scq);
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].status, CqeStatus::RemoteAccess);
}

#[test]
fn ring_full_is_reported() {
    let mut w = World::new(2);
    let scq = w.nics[0].create_cq();
    let rcq = w.nics[0].create_cq();
    let qp = w.nics[0].create_qp(scq, rcq, 0x10000, 2);
    let wqe = Wqe {
        opcode: Opcode::Nop,
        ..Default::default()
    };
    let mut mem = std::mem::replace(&mut w.mems[0], NvmArena::new(1));
    assert!(w.nics[0].post_send(&mut mem, qp, wqe, true).is_ok());
    assert!(w.nics[0].post_send(&mut mem, qp, wqe, true).is_ok());
    let err = w.nics[0].post_send(&mut mem, qp, wqe, true).unwrap_err();
    assert_eq!(err.capacity, 2);
}

#[test]
fn cq_event_fires_when_armed() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    w.nics[1].post_recv(p.qp_b, RecvWqe::empty(1));
    w.nics[1].arm_cq(p.rcq_b);
    let wqe = Wqe {
        opcode: Opcode::Send,
        len: 4,
        laddr: 0x3000,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.cq_events.len(), 1);
    assert_eq!(w.cq_events[0].1, 1); // fired on nic 1
    assert_eq!(w.cq_events[0].2, p.rcq_b);
}

/// The core HyperLoop mechanism at verbs level: a 3-node chain where
/// the middle node's NIC forwards autonomously. Node 0 (client) writes
/// data and sends metadata to node 1; node 1's pre-posted
/// WAIT+WRITE+SEND (descriptors rewritten by the incoming metadata
/// scatter) forward the data to node 2 with no CPU involvement.
#[test]
fn wait_chain_forwards_without_cpu() {
    let mut w = World::new(3);
    let mut eng = Engine::new();

    // Connections: 0 -> 1 (pair01), 1 -> 2 (pair12).
    let p01 = connect_pair(&mut w, 0, 1, 0x10000);
    let p12 = connect_pair(&mut w, 1, 2, 0x20000);

    // Node 1 memory: log region 0x1000 (remote-writable by node 0);
    // its SQ ring for the 1->2 QP lives at 0x20000 and must be
    // remote-writable so the client's metadata can rewrite descriptors.
    let log1 = w.nics[1].register_mr(0x1000, 0x1000, Access::REMOTE_WRITE);
    let _ring1 = w.nics[1].register_mr(0x20000, 64 * WQE_SIZE, Access::REMOTE_WRITE);
    // Node 2 memory: log region.
    let log2 = w.nics[2].register_mr(0x1000, 0x1000, Access::REMOTE_WRITE);

    // --- Node 1 pre-posts its forwarding slot (done once, by its CPU,
    // off the critical path) ----------------------------------------
    // WAIT on the recv CQ of the 0->1 QP, then an (initially SW-owned,
    // blank) WRITE toward node 2.
    let wait = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED,
        raddr: Wqe::wait_params(p01.rcq_b, 1),
        activate_n: 1,
        ..Default::default()
    };
    let blank_write = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED, // deferred post clears HW_OWNED
        len: 0,                 // rewritten by metadata scatter
        laddr: 0,               // rewritten
        raddr: 0,               // rewritten
        rkey: log2.rkey,
        wr_id: 42,
        ..Default::default()
    };
    w.nics[1]
        .post_send(&mut w.mems[1], p12.qp_a, wait, false)
        .unwrap();
    let write_idx = w.nics[1]
        .post_send(&mut w.mems[1], p12.qp_a, blank_write, true)
        .unwrap();
    // Doorbell arms the WAIT; it parks (nothing received yet).
    let outs = collect(|o| w.nics[1].ring_doorbell(SimTime::ZERO, p12.qp_a, &mut w.mems[1], o));
    route(1, outs, &mut eng);

    // The pre-posted RECV scatters incoming metadata INTO the blank
    // WRITE's descriptor fields: len @+4, laddr @+8, raddr @+16.
    let write_slot = 0x20000 + (write_idx % 64) * WQE_SIZE;
    w.nics[1].post_recv(
        p01.qp_b,
        RecvWqe::new(
            7,
            &[
                ScatterEntry {
                    msg_off: 0,
                    len: 4,
                    addr: write_slot + field_offset::LEN,
                    stride: 0,
                },
                ScatterEntry {
                    msg_off: 4,
                    len: 8,
                    addr: write_slot + field_offset::LADDR,
                    stride: 0,
                },
                ScatterEntry {
                    msg_off: 12,
                    len: 8,
                    addr: write_slot + field_offset::RADDR,
                    stride: 0,
                },
            ],
        ),
    );

    // --- Client (node 0): WRITE data into node 1's log, then SEND the
    // metadata describing node 1's forwarding write -------------------
    w.mems[0].write(0x3000, b"chained-payload!").unwrap();
    let data_write = Wqe {
        opcode: Opcode::Write,
        len: 16,
        laddr: 0x3000,
        raddr: 0x1000 + 0x40, // node 1 log offset 0x40
        rkey: log1.rkey,
        wr_id: 1,
        ..Default::default()
    };
    // Metadata: node 1 shall write 16 bytes from ITS 0x1040 to node 2's
    // 0x1000+0x40.
    let mut meta = Vec::new();
    meta.extend_from_slice(&16u32.to_le_bytes());
    meta.extend_from_slice(&0x1040u64.to_le_bytes());
    meta.extend_from_slice(&(0x1040u64).to_le_bytes());
    w.mems[0].write(0x4000, &meta).unwrap();
    let meta_send = Wqe {
        opcode: Opcode::Send,
        len: meta.len() as u32,
        laddr: 0x4000,
        wr_id: 2,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p01.qp_a, data_write, false)
        .unwrap();
    w.nics[0]
        .post_send(&mut w.mems[0], p01.qp_a, meta_send, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p01.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);

    eng.run(&mut w);

    // Node 1 received the data...
    assert_eq!(w.mems[1].read(0x1040, 16).unwrap(), b"chained-payload!");
    // ...and node 1's NIC forwarded it to node 2 autonomously.
    assert_eq!(w.mems[2].read(0x1040, 16).unwrap(), b"chained-payload!");
    // The forwarding write completed on node 1's send CQ (NIC-generated;
    // a replica CPU never polled anything).
    let fwd = poll(&mut w, 1, p12.scq_a);
    assert_eq!(fwd.len(), 1);
    assert_eq!(fwd[0].wr_id, 42);
    assert_eq!(fwd[0].byte_len, 16);
}

/// Loopback LOCAL_COPY triggered by a WAIT on a recv CQ — the gMEMCPY
/// building block: an incoming command makes the local NIC move bytes
/// from the log region to the data region with no CPU.
#[test]
fn wait_triggers_local_copy() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p01 = connect_pair(&mut w, 0, 1, 0x10000);

    // Loopback QP on node 1.
    let lcq = w.nics[1].create_cq();
    let loop_qp = w.nics[1].create_qp(lcq, lcq, 0x30000, 16);

    // Pre-post WAIT + (deferred) LOCAL_COPY on the loopback QP.
    let wait = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED,
        raddr: Wqe::wait_params(p01.rcq_b, 1),
        activate_n: 1,
        ..Default::default()
    };
    let copy = Wqe {
        opcode: Opcode::LocalCopy,
        flags: flags::SIGNALED,
        len: 0, // rewritten by scatter
        laddr: 0,
        raddr: 0,
        wr_id: 9,
        ..Default::default()
    };
    w.nics[1]
        .post_send(&mut w.mems[1], loop_qp, wait, false)
        .unwrap();
    let copy_idx = w.nics[1]
        .post_send(&mut w.mems[1], loop_qp, copy, true)
        .unwrap();
    let outs = collect(|o| w.nics[1].ring_doorbell(SimTime::ZERO, loop_qp, &mut w.mems[1], o));
    route(1, outs, &mut eng);

    let copy_slot = 0x30000 + (copy_idx % 16) * WQE_SIZE;
    w.nics[1].post_recv(
        p01.qp_b,
        RecvWqe::new(
            3,
            &[
                ScatterEntry {
                    msg_off: 0,
                    len: 4,
                    addr: copy_slot + field_offset::LEN,
                    stride: 0,
                },
                ScatterEntry {
                    msg_off: 4,
                    len: 8,
                    addr: copy_slot + field_offset::LADDR,
                    stride: 0,
                },
                ScatterEntry {
                    msg_off: 12,
                    len: 8,
                    addr: copy_slot + field_offset::RADDR,
                    stride: 0,
                },
            ],
        ),
    );

    // Node 1's "log" already has data at 0x6000 (imagine a prior gWRITE).
    w.mems[1].write(0x6000, b"log-entry").unwrap();

    // Client sends the memcpy command: copy 9 bytes 0x6000 -> 0x7000.
    let mut meta = Vec::new();
    meta.extend_from_slice(&9u32.to_le_bytes());
    meta.extend_from_slice(&0x6000u64.to_le_bytes());
    meta.extend_from_slice(&0x7000u64.to_le_bytes());
    w.mems[0].write(0x4000, &meta).unwrap();
    let send = Wqe {
        opcode: Opcode::Send,
        len: meta.len() as u32,
        laddr: 0x4000,
        wr_id: 2,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p01.qp_a, send, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p01.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.mems[1].read(0x7000, 9).unwrap(), b"log-entry");
    let cqes = poll(&mut w, 1, lcq);
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].wr_id, 9);
}

/// A WAIT with count 2 must not fire until both completions arrive.
#[test]
fn wait_count_semantics() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p01 = connect_pair(&mut w, 0, 1, 0x10000);

    let lcq = w.nics[1].create_cq();
    let loop_qp = w.nics[1].create_qp(lcq, lcq, 0x30000, 16);
    let wait2 = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED,
        raddr: Wqe::wait_params(p01.rcq_b, 2),
        activate_n: 1,
        ..Default::default()
    };
    let nop = Wqe {
        opcode: Opcode::Nop,
        flags: flags::SIGNALED,
        wr_id: 11,
        ..Default::default()
    };
    w.nics[1]
        .post_send(&mut w.mems[1], loop_qp, wait2, false)
        .unwrap();
    w.nics[1]
        .post_send(&mut w.mems[1], loop_qp, nop, true)
        .unwrap();
    let outs = collect(|o| w.nics[1].ring_doorbell(SimTime::ZERO, loop_qp, &mut w.mems[1], o));
    route(1, outs, &mut eng);

    for i in 0..2 {
        w.nics[1].post_recv(p01.qp_b, RecvWqe::empty(i));
    }
    // First send: WAIT must not fire yet.
    let send = Wqe {
        opcode: Opcode::Send,
        len: 1,
        laddr: 0x4000,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p01.qp_a, send, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p01.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert!(
        poll(&mut w, 1, lcq).is_empty(),
        "WAIT(2) fired after one CQE"
    );

    // Second send: now it fires.
    w.nics[0]
        .post_send(&mut w.mems[0], p01.qp_a, send, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), p01.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    let cqes = poll(&mut w, 1, lcq);
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].wr_id, 11);
}

/// gCAS's execute map: rewriting a pre-posted CAS into a NOP must skip
/// the swap but still produce the completion that keeps the chain alive.
#[test]
fn cas_to_nop_conversion_keeps_chain_alive() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p01 = connect_pair(&mut w, 0, 1, 0x10000);

    let lcq = w.nics[1].create_cq();
    let loop_qp = w.nics[1].create_qp(lcq, lcq, 0x30000, 16);
    w.mems[1].write_u64(0x6000, 5).unwrap(); // lock word

    let wait = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED,
        raddr: Wqe::wait_params(p01.rcq_b, 1),
        activate_n: 1,
        ..Default::default()
    };
    let cas = Wqe {
        opcode: Opcode::LocalCas,
        flags: flags::SIGNALED,
        len: 8,
        laddr: 0x6100, // result
        raddr: 0x6000,
        cmp: 5,
        swp: 99,
        wr_id: 21,
        ..Default::default()
    };
    w.nics[1]
        .post_send(&mut w.mems[1], loop_qp, wait, false)
        .unwrap();
    let cas_idx = w.nics[1]
        .post_send(&mut w.mems[1], loop_qp, cas, true)
        .unwrap();
    let outs = collect(|o| w.nics[1].ring_doorbell(SimTime::ZERO, loop_qp, &mut w.mems[1], o));
    route(1, outs, &mut eng);

    // RECV scatter rewrites the CAS opcode byte to NOP (execute map says
    // "skip this replica").
    let cas_slot = 0x30000 + (cas_idx % 16) * WQE_SIZE;
    w.nics[1].post_recv(
        p01.qp_b,
        RecvWqe::new(
            3,
            &[ScatterEntry {
                msg_off: 0,
                len: 1,
                addr: cas_slot + field_offset::OPCODE,
                stride: 0,
            }],
        ),
    );
    // The message's first byte is the NOP opcode.
    w.mems[0].write(0x4000, &[Opcode::Nop as u8]).unwrap();
    let send = Wqe {
        opcode: Opcode::Send,
        len: 1,
        laddr: 0x4000,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p01.qp_a, send, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p01.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    // The lock word is untouched...
    assert_eq!(w.mems[1].read_u64(0x6000).unwrap(), 5);
    // ...but the completion still arrived (chain stays alive).
    let cqes = poll(&mut w, 1, lcq);
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].wr_id, 21);
    assert_eq!(cqes[0].status, CqeStatus::Ok);
}

/// WAIT activation across the ring's wrap point: a WAIT near the end of
/// a small ring must grant ownership to WQEs whose slots wrapped to the
/// ring's start — the steady-state case for HyperLoop's reused slots.
#[test]
fn wait_activation_wraps_the_ring() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p01 = connect_pair(&mut w, 0, 1, 0x10000);
    let mr = w.nics[1].register_mr(0x1000, 0x1000, Access::REMOTE_WRITE);
    let _ = mr;

    // A loopback QP on nic 1 with a tiny ring of 4 slots.
    let lcq = w.nics[1].create_cq();
    let loop_qp = w.nics[1].create_qp(lcq, lcq, 0x30000, 4);

    // Fill indices 0..2 with executed NOPs to advance head near the end.
    for i in 0..3u64 {
        let nop = Wqe {
            opcode: Opcode::Nop,
            flags: flags::SIGNALED,
            wr_id: i,
            ..Default::default()
        };
        w.nics[1]
            .post_send(&mut w.mems[1], loop_qp, nop, false)
            .unwrap();
    }
    let outs = collect(|o| w.nics[1].ring_doorbell(SimTime::ZERO, loop_qp, &mut w.mems[1], o));
    route(1, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(poll(&mut w, 1, lcq).len(), 3);

    // Index 3: WAIT with activate_n = 2; indices 4 and 5 wrap to ring
    // slots 0 and 1.
    let wait = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED,
        raddr: Wqe::wait_params(p01.rcq_b, 1),
        activate_n: 2,
        ..Default::default()
    };
    w.nics[1]
        .post_send(&mut w.mems[1], loop_qp, wait, false)
        .unwrap();
    for i in [4u64, 5] {
        let nop = Wqe {
            opcode: Opcode::Nop,
            flags: flags::SIGNALED,
            wr_id: 100 + i,
            ..Default::default()
        };
        w.nics[1]
            .post_send(&mut w.mems[1], loop_qp, nop, true)
            .unwrap();
    }
    let outs = collect(|o| w.nics[1].ring_doorbell(SimTime::ZERO, loop_qp, &mut w.mems[1], o));
    route(1, outs, &mut eng);
    eng.run(&mut w);
    assert!(poll(&mut w, 1, lcq).is_empty(), "parked before trigger");

    // Trigger via a SEND on the 0->1 QP.
    w.nics[1].post_recv(p01.qp_b, RecvWqe::empty(1));
    let send = Wqe {
        opcode: Opcode::Send,
        len: 1,
        laddr: 0x4000,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p01.qp_a, send, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p01.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    let cqes = poll(&mut w, 1, lcq);
    let ids: Vec<u64> = cqes.iter().map(|c| c.wr_id).collect();
    assert_eq!(
        ids,
        vec![104, 105],
        "wrapped WQEs activated and executed in order"
    );
}

/// A WQE whose local gather falls outside the arena must not panic the
/// NIC: the faulting WQE completes `LocalProtection` (the simulator's
/// IBV_WC_LOC_PROT_ERR), the QP enters Error, and everything queued
/// behind it flushes `FlushedInError` — mirroring real RC-QP semantics.
#[test]
fn local_gather_fault_errors_qp_instead_of_panicking() {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    let bad = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: 16,
        laddr: (ARENA as u64) + 0x1000, // outside the arena: gather fails
        wr_id: 1,
        ..Default::default()
    };
    let trailing = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: 4,
        laddr: 0x2000,
        wr_id: 2,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, bad, false)
        .unwrap();
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, trailing, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    let cqes = poll(&mut w, 0, p.scq_a);
    assert_eq!(cqes.len(), 2, "{cqes:#?}");
    assert_eq!(cqes[0].wr_id, 1);
    assert_eq!(cqes[0].status, CqeStatus::LocalProtection);
    assert_eq!(cqes[1].wr_id, 2);
    assert_eq!(cqes[1].status, CqeStatus::FlushedInError);
    // The QP is dead: later posts flush immediately in error.
    let late = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: 4,
        laddr: 0x2000,
        wr_id: 3,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, late, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    let cqes = poll(&mut w, 0, p.scq_a);
    assert_eq!(cqes.len(), 1, "{cqes:#?}");
    assert_eq!(cqes[0].wr_id, 3);
    assert_eq!(cqes[0].status, CqeStatus::FlushedInError);
}

/// Ringing the doorbell on a QP that was never connected is a local
/// fault, not a crash.
#[test]
fn send_on_unconnected_qp_errors_qp_instead_of_panicking() {
    let mut w = World::new(1);
    let mut eng = Engine::new();
    let cq = w.nics[0].create_cq();
    let qp = w.nics[0].create_qp(cq, cq, 0x10000, 8); // no connect()
    let wqe = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: 4,
        laddr: 0x2000,
        wr_id: 7,
        ..Default::default()
    };
    w.nics[0].post_send(&mut w.mems[0], qp, wqe, false).unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, qp, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    let cqes = poll(&mut w, 0, cq);
    assert_eq!(cqes.len(), 1, "{cqes:#?}");
    assert_eq!(cqes[0].wr_id, 7);
    assert_eq!(cqes[0].status, CqeStatus::LocalProtection);
}

/// Deliver one SEND of `payload` from nic 0 to nic 1, whose receive
/// queue holds `recv`. Returns nic 1's whole arena afterwards, the
/// sender's completion statuses and the receiver's completed `wr_id`s.
fn scatter_outcome(recv: RecvWqe, payload: &[u8]) -> (Vec<u8>, Vec<CqeStatus>, Vec<u64>) {
    let mut w = World::new(2);
    let mut eng = Engine::new();
    let p = connect_pair(&mut w, 0, 1, 0x10000);
    w.nics[1].post_recv(p.qp_b, recv);
    w.mems[0].write(0x3000, payload).unwrap();
    let wqe = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: payload.len() as u32,
        laddr: 0x3000,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], p.qp_a, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, p.qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    let sent = poll(&mut w, 0, p.scq_a).iter().map(|c| c.status).collect();
    let received = poll(&mut w, 1, p.rcq_b).iter().map(|c| c.wr_id).collect();
    (w.mems[1].read(0, ARENA).unwrap().to_vec(), sent, received)
}

#[test]
fn template_resolves_at_its_ring_position() {
    let entries = [
        ScatterEntry {
            msg_off: 0,
            len: 8,
            addr: 0x40000,
            stride: 128,
        },
        ScatterEntry {
            msg_off: 8,
            len: 4,
            addr: 0x50010,
            stride: 3 * WQE_SIZE,
        },
    ];
    let template = ScatterTemplate::new(&entries);
    let recv = RecvWqe::at(9, &template, 5);
    let resolved: Vec<_> = recv.targets().collect();
    assert_eq!(
        resolved,
        [(0, 8, 0x40000 + 5 * 128), (8, 4, 0x50010 + 15 * WQE_SIZE)]
    );
    assert!(RecvWqe::empty(1).targets().next().is_none());
    assert!(ScatterTemplate::new(&[]).entries().is_empty());
}

mod template_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A RECV at position `p` of a template scatters byte for byte
        /// what the single-use list `addr + p·stride` scatters: entries
        /// past the end of a short payload are skipped, and an entry that
        /// resolves past the arena draws the same `RemoteAccess` NAK
        /// after the same partial scatter. The large stride sends
        /// positions ≥ 12 out of the 1 MiB arena.
        #[test]
        fn template_scatters_like_its_materialized_list(
            raw in proptest::collection::vec(
                (
                    0u32..96,
                    1u32..40,
                    0x40000u64..0x80000,
                    prop_oneof![Just(0u64), Just(WQE_SIZE), 1u64..0x2000, Just(0x10000u64)],
                ),
                1..6,
            ),
            position in 0u64..64,
            payload_len in 1usize..96,
        ) {
            let entries: Vec<ScatterEntry> = raw
                .iter()
                .map(|&(msg_off, len, addr, stride)| ScatterEntry { msg_off, len, addr, stride })
                .collect();
            let materialized: Vec<ScatterEntry> = entries
                .iter()
                .map(|e| ScatterEntry {
                    addr: e.addr + position * e.stride,
                    stride: 0,
                    ..*e
                })
                .collect();
            let payload: Vec<u8> = (0..payload_len).map(|i| (i as u8).wrapping_mul(37) | 1).collect();

            let template = ScatterTemplate::new(&entries);
            let (mem_t, sent_t, recv_t) =
                scatter_outcome(RecvWqe::at(4, &template, position), &payload);
            let (mem_m, sent_m, recv_m) =
                scatter_outcome(RecvWqe::new(4, &materialized), &payload);

            prop_assert!(mem_t == mem_m, "arenas differ after the scatter");
            prop_assert_eq!(&sent_t, &sent_m);
            prop_assert_eq!(&recv_t, &recv_m);
            let escapes = materialized.iter().any(|e| {
                let off = e.msg_off as usize;
                off < payload.len()
                    && e.addr + e.len.min((payload.len() - off) as u32) as u64 > ARENA as u64
            });
            let expect = if escapes { CqeStatus::RemoteAccess } else { CqeStatus::Ok };
            prop_assert_eq!(&sent_t, &vec![expect]);
            prop_assert_eq!(recv_t.len(), usize::from(!escapes));
        }
    }
}
