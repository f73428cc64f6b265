//! Verbs-level tests for the SRQ and threshold-WAIT features that the
//! multi-client and fan-out extensions build on.

mod common;

use common::collect;
use hl_nvm::NvmArena;
use hl_rnic::{flags, Access, Nic, NicOutput, Opcode, RecvWqe, ScatterEntry, Wqe};
use hl_sim::config::NicProfile;
use hl_sim::{Engine, RngFactory, SimDuration, SimTime};

const LINK: SimDuration = SimDuration::from_nanos(500);

struct World {
    nics: Vec<Nic>,
    mems: Vec<NvmArena>,
}
hl_sim::inert_event_ctx!(World);

fn world(n: usize) -> World {
    let fac = RngFactory::new(7);
    let profile = NicProfile {
        jitter_sigma: 0.0,
        ..NicProfile::default()
    };
    World {
        nics: (0..n)
            .map(|i| Nic::new(i as u32, profile.clone(), fac.stream_idx("nic", i as u64)))
            .collect(),
        mems: (0..n).map(|_| NvmArena::new(1 << 20)).collect(),
    }
}

fn route(nic: usize, outs: Vec<NicOutput>, eng: &mut Engine<World>) {
    for o in outs {
        match o {
            NicOutput::Transmit {
                at,
                dst_nic,
                packet,
            } => {
                eng.schedule_at(at + LINK, move |w: &mut World, eng| {
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
                    let outs = collect(|o| {
                        w.nics[nic].deliver_cqe(eng.now(), cq, cqe, &mut w.mems[nic], o)
                    });
                    route(nic, outs, eng);
                });
            }
            NicOutput::DoLocal { at, qpn, wqe } => {
                eng.schedule_at(at, move |w: &mut World, eng| {
                    let outs = collect(|o| {
                        w.nics[nic].finish_local(eng.now(), qpn, wqe, &mut w.mems[nic], o)
                    });
                    route(nic, outs, eng);
                });
            }
            NicOutput::CqEvent { .. } => {}
            NicOutput::ArmTimer { at, qpn, gen } => {
                eng.schedule_at(at, move |w: &mut World, eng| {
                    let outs =
                        collect(|o| w.nics[nic].on_timer(eng.now(), qpn, gen, &mut w.mems[nic], o));
                    route(nic, outs, eng);
                });
            }
            // The nic-level harness keeps legacy fire-and-ignore timer
            // semantics; stale generations no-op inside on_timer.
            NicOutput::CancelTimer { .. } => {}
        }
    }
}

/// Two senders, one SRQ: receives are consumed in arrival order across
/// both QPs, each scattering to its posted buffer.
#[test]
fn srq_serializes_two_senders() {
    let mut w = world(3);
    let mut eng = Engine::new();
    // Receiver (nic 2) with an SRQ shared by QPs from nic 0 and nic 1.
    let scq = w.nics[2].create_cq();
    let rcq = w.nics[2].create_cq();
    let srq = w.nics[2].create_srq();
    let mut rx_qps = Vec::new();
    for (i, src) in [0usize, 1].into_iter().enumerate() {
        let qp = w.nics[2].create_qp(scq, rcq, 0x1000 + i as u64 * 0x400, 8);
        w.nics[2].attach_srq(qp, srq);
        let s_scq = w.nics[src].create_cq();
        let s_rcq = w.nics[src].create_cq();
        let s_qp = w.nics[src].create_qp(s_scq, s_rcq, 0x1000, 8);
        w.nics[src].connect(s_qp, 2, qp);
        w.nics[2].connect(qp, src as u32, s_qp);
        rx_qps.push((src, s_qp));
    }
    // Two SRQ buffers: first arrival -> 0x8000, second -> 0x8100.
    for (k, addr) in [(0u64, 0x8000u64), (1, 0x8100)] {
        w.nics[2].post_srq_recv(
            srq,
            RecvWqe::new(
                k,
                &[ScatterEntry {
                    msg_off: 0,
                    len: 16,
                    addr,
                    stride: 0,
                }],
            ),
        );
    }
    assert_eq!(w.nics[2].srq_depth(srq), 2);

    // Sender 1 fires at t=0; sender 0 at t=10us: arrival order is 1, 0.
    for (delay_us, src, s_qp, payload) in [
        (10u64, 0usize, rx_qps[0].1, *b"from-sender-zero"),
        (0, 1, rx_qps[1].1, *b"from-sender-one!"),
    ] {
        w.mems[src].write(0x4000, &payload).unwrap();
        let wqe = Wqe {
            opcode: Opcode::Send,
            len: 16,
            laddr: 0x4000,
            wr_id: src as u64,
            ..Default::default()
        };
        w.nics[src]
            .post_send(&mut w.mems[src], s_qp, wqe, false)
            .unwrap();
        eng.schedule_at(
            SimTime::from_nanos(delay_us * 1000),
            move |w: &mut World, eng| {
                let outs =
                    collect(|o| w.nics[src].ring_doorbell(eng.now(), s_qp, &mut w.mems[src], o));
                route(src, outs, eng);
            },
        );
    }
    eng.run(&mut w);
    assert_eq!(w.mems[2].read(0x8000, 16).unwrap(), b"from-sender-one!");
    assert_eq!(w.mems[2].read(0x8100, 16).unwrap(), b"from-sender-zero");
    assert_eq!(w.nics[2].srq_depth(srq), 0);
}

/// Threshold WAITs do not consume: two QPs watching the same CQ both
/// fire off one completion, and later thresholds wait for more.
#[test]
fn threshold_waits_share_a_cq() {
    let mut w = world(2);
    let mut eng = Engine::new();
    // A recv CQ on nic 1 fed by sends from nic 0.
    let scq0 = w.nics[0].create_cq();
    let rcq0 = w.nics[0].create_cq();
    let qp0 = w.nics[0].create_qp(scq0, rcq0, 0x1000, 8);
    let scq1 = w.nics[1].create_cq();
    let rcq1 = w.nics[1].create_cq();
    let qp1 = w.nics[1].create_qp(scq1, rcq1, 0x1000, 8);
    w.nics[0].connect(qp0, 1, qp1);
    w.nics[1].connect(qp1, 0, qp0);

    // Two loopback queues on nic 1, each: WAIT(threshold) + NOP(sig).
    let mut nop_cqs = Vec::new();
    for (i, threshold) in [(0u64, 1u32), (1, 1), (2, 2)] {
        let cq = w.nics[1].create_cq();
        let qp = w.nics[1].create_qp(cq, cq, 0x2000 + i * 0x200, 8);
        let wait = Wqe {
            opcode: Opcode::Wait,
            flags: flags::HW_OWNED | flags::WAIT_THRESHOLD,
            raddr: Wqe::wait_params(rcq1, threshold),
            activate_n: 1,
            ..Default::default()
        };
        w.nics[1]
            .post_send(&mut w.mems[1], qp, wait, false)
            .unwrap();
        let nop = Wqe {
            opcode: Opcode::Nop,
            flags: flags::SIGNALED,
            wr_id: 100 + i,
            ..Default::default()
        };
        w.nics[1].post_send(&mut w.mems[1], qp, nop, true).unwrap();
        let outs = collect(|o| w.nics[1].ring_doorbell(SimTime::ZERO, qp, &mut w.mems[1], o));
        route(1, outs, &mut eng);
        nop_cqs.push(cq);
    }

    let send = |w: &mut World, eng: &mut Engine<World>, wr: u64| {
        w.nics[1].post_recv(qp1, RecvWqe::empty(wr));
        let wqe = Wqe {
            opcode: Opcode::Send,
            len: 1,
            laddr: 0x4000,
            wr_id: wr,
            ..Default::default()
        };
        w.nics[0]
            .post_send(&mut w.mems[0], qp0, wqe, false)
            .unwrap();
        let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
        route(0, outs, eng);
    };

    // One send: the two threshold-1 WAITs both fire; threshold-2 waits.
    send(&mut w, &mut eng, 1);
    eng.run(&mut w);
    assert_eq!(w.nics[1].poll_cq(nop_cqs[0], 8).len(), 1);
    assert_eq!(w.nics[1].poll_cq(nop_cqs[1], 8).len(), 1);
    assert_eq!(w.nics[1].poll_cq(nop_cqs[2], 8).len(), 0);

    // Second send: threshold-2 fires.
    send(&mut w, &mut eng, 2);
    eng.run(&mut w);
    assert_eq!(w.nics[1].poll_cq(nop_cqs[2], 8).len(), 1);
}

/// A QP without an SRQ attachment still uses its private RQ even when
/// SRQs exist on the same NIC.
#[test]
fn private_rq_unaffected_by_srq_presence() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let _srq = w.nics[1].create_srq();
    let scq0 = w.nics[0].create_cq();
    let rcq0 = w.nics[0].create_cq();
    let qp0 = w.nics[0].create_qp(scq0, rcq0, 0x1000, 8);
    let scq1 = w.nics[1].create_cq();
    let rcq1 = w.nics[1].create_cq();
    let qp1 = w.nics[1].create_qp(scq1, rcq1, 0x1000, 8);
    w.nics[0].connect(qp0, 1, qp1);
    w.nics[1].connect(qp1, 0, qp0);
    w.nics[1].post_recv(
        qp1,
        RecvWqe::new(
            9,
            &[ScatterEntry {
                msg_off: 0,
                len: 4,
                addr: 0x9000,
                stride: 0,
            }],
        ),
    );
    w.mems[0].write(0x4000, b"priv").unwrap();
    let wqe = Wqe {
        opcode: Opcode::Send,
        len: 4,
        laddr: 0x4000,
        wr_id: 1,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], qp0, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.mems[1].read(0x9000, 4).unwrap(), b"priv");
    let _ = Access::LOCAL;
}
