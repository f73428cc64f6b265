//! Transport-reliability tests: PSN/ack/retransmit behaviour of QPs
//! configured with `set_qp_timeout`, QP error-state flushing, and the
//! NIC-level fault hooks (full stall, WAIT-engine stall).
//!
//! The harness is a miniature two/three-NIC world with fixed link
//! latency and a per-NIC "drop the next N inbound packets" knob that
//! models transient fabric loss at precise points in the exchange.

mod common;

use common::collect;
use hl_nvm::NvmArena;
use hl_rnic::{
    flags, Access, CqeStatus, Nic, NicOutput, Opcode, PacketKind, QpState, RecvWqe, Wqe,
};
use hl_sim::config::NicProfile;
use hl_sim::{Engine, RngFactory, SimDuration, SimTime};

const LINK: SimDuration = SimDuration::from_nanos(500);
const TIMEOUT: SimDuration = SimDuration::from_micros(20);

struct World {
    nics: Vec<Nic>,
    mems: Vec<NvmArena>,
    /// Drop the next N packets *arriving* at nic i (transient loss).
    rx_drop: Vec<u32>,
}
hl_sim::inert_event_ctx!(World);

fn world(n: usize) -> World {
    let fac = RngFactory::new(11);
    let profile = NicProfile {
        jitter_sigma: 0.0, // determinism-friendly for assertions
        ..NicProfile::default()
    };
    World {
        nics: (0..n)
            .map(|i| Nic::new(i as u32, profile.clone(), fac.stream_idx("nic", i as u64)))
            .collect(),
        mems: (0..n).map(|_| NvmArena::new(1 << 20)).collect(),
        rx_drop: vec![0; n],
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
                    let d = dst_nic as usize;
                    if w.rx_drop[d] > 0 {
                        w.rx_drop[d] -= 1;
                        return; // lost on the wire
                    }
                    let outs =
                        collect(|o| w.nics[d].on_packet(eng.now(), packet, &mut w.mems[d], o));
                    route(d, outs, eng);
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

/// A connected reliable QP pair between nic 0 and nic 1. Returns
/// (qp0, qp1, send_cq0, recv_cq1).
fn reliable_pair(w: &mut World, retry_cnt: u8) -> (u32, u32, u32, u32) {
    let scq0 = w.nics[0].create_cq();
    let rcq0 = w.nics[0].create_cq();
    let scq1 = w.nics[1].create_cq();
    let rcq1 = w.nics[1].create_cq();
    let qp0 = w.nics[0].create_qp(scq0, rcq0, 0x1000, 16);
    let qp1 = w.nics[1].create_qp(scq1, rcq1, 0x1000, 16);
    w.nics[0].connect(qp0, 1, qp1);
    w.nics[1].connect(qp1, 0, qp0);
    w.nics[0].set_qp_timeout(qp0, TIMEOUT, retry_cnt);
    (qp0, qp1, scq0, rcq1)
}

fn post_write(w: &mut World, qp0: u32, rkey: u32, data: &[u8], laddr: u64, raddr: u64, wr_id: u64) {
    w.mems[0].write(laddr, data).unwrap();
    let wqe = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED,
        len: data.len() as u32,
        laddr,
        raddr,
        rkey,
        wr_id,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], qp0, wqe, false)
        .unwrap();
}

/// Drain a CQ into (wr_id, status) pairs, oldest first.
fn statuses(w: &mut World, nic: usize, cq: u32) -> Vec<(u64, CqeStatus)> {
    w.nics[nic]
        .poll_cq(cq, 64)
        .into_iter()
        .map(|c| (c.wr_id, c.status))
        .collect()
}

/// A lost request packet is repaired by the ack-timeout: go-back-N
/// retransmission delivers it and the requester still gets its Ok CQE.
#[test]
fn lost_write_is_retransmitted() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    w.rx_drop[1] = 1; // eat the write itself
    post_write(&mut w, qp0, mr.rkey, b"retransmit me", 0x8000, 0x8000, 7);
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.mems[1].read(0x8000, 13).unwrap(), b"retransmit me");
    assert_eq!(statuses(&mut w, 0, scq0), vec![(7, CqeStatus::Ok)]);
    assert!(w.nics[0].counters().retransmits >= 1);
    assert_eq!(w.nics[0].qp_state(qp0), QpState::Rts);
}

/// A lost *ack* triggers a retransmission whose duplicate is suppressed
/// at the responder: the posted RECV is consumed exactly once and the
/// requester sees exactly one completion.
#[test]
fn lost_ack_does_not_double_deliver() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, qp1, scq0, rcq1) = reliable_pair(&mut w, 7);
    // Two RECVs posted: a re-executed duplicate would eat the second.
    w.nics[1].post_recv(qp1, RecvWqe::empty(100));
    w.nics[1].post_recv(qp1, RecvWqe::empty(101));

    w.rx_drop[0] = 1; // eat the ack on its way back
    w.mems[0].write(0x8000, b"once").unwrap();
    let wqe = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: 4,
        laddr: 0x8000,
        wr_id: 9,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], qp0, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    // Exactly one Recv completion (wr 100); wr 101's RECV still posted.
    let recv_wrs: Vec<u64> = w.nics[1].poll_cq(rcq1, 8).iter().map(|c| c.wr_id).collect();
    assert_eq!(recv_wrs, vec![100]);
    assert_eq!(w.nics[1].rq_depth(qp1), 1);
    // Exactly one send-side completion despite the duplicate ack path.
    assert_eq!(statuses(&mut w, 0, scq0), vec![(9, CqeStatus::Ok)]);
}

/// A lost CAS response is replayed from the responder's cache: the swap
/// applies exactly once and the requester observes the pre-swap value.
#[test]
fn cas_is_exactly_once_under_lost_response() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_ATOMIC);
    w.mems[1].write_u64(0x8000, 5).unwrap();

    w.rx_drop[0] = 1; // eat the CasResp
    let wqe = Wqe {
        opcode: Opcode::Cas,
        flags: flags::SIGNALED,
        laddr: 0x100, // result landing
        raddr: 0x8000,
        rkey: mr.rkey,
        cmp: 5,
        swp: 6,
        wr_id: 3,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], qp0, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    // Swapped exactly once: a re-executed CAS(5→6) would have failed the
    // compare and returned 6; the replayed response returns 5.
    assert_eq!(w.mems[1].read_u64(0x8000).unwrap(), 6);
    assert_eq!(w.mems[0].read_u64(0x100).unwrap(), 5);
    assert_eq!(statuses(&mut w, 0, scq0), vec![(3, CqeStatus::Ok)]);
    assert_eq!(w.nics[0].qp_state(qp0), QpState::Rts);
}

/// Retry exhaustion against a dead peer: the QP transitions to Error,
/// the head-of-line request completes RetryExceeded, everything behind
/// it flushes, and later posts flush too — nothing hangs silently.
#[test]
fn retry_exhaustion_flushes_the_qp() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 2);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    w.rx_drop[1] = u32::MAX; // peer is gone for good
    post_write(&mut w, qp0, mr.rkey, b"aa", 0x8000, 0x8000, 1);
    post_write(&mut w, qp0, mr.rkey, b"bb", 0x8010, 0x8010, 2);
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.nics[0].qp_state(qp0), QpState::Error);
    assert_eq!(
        statuses(&mut w, 0, scq0),
        vec![
            (1, CqeStatus::RetryExceeded),
            (2, CqeStatus::FlushedInError)
        ]
    );
    // ~ (retry_cnt + 1) timeouts elapsed before giving up.
    assert!(eng.now() >= SimTime::from_nanos(3 * TIMEOUT.as_nanos()));

    // Posting after the transition: flushed on the next doorbell.
    post_write(&mut w, qp0, mr.rkey, b"cc", 0x8020, 0x8020, 3);
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(
        statuses(&mut w, 0, scq0),
        vec![(3, CqeStatus::FlushedInError)]
    );
}

/// A stall window shorter than the retry budget: the request issued
/// mid-stall is delivered by retransmission after the NIC recovers.
#[test]
fn stall_window_recovers_without_error() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    // Stall the responder NIC now; un-stall after 3 timeout periods.
    let outs = collect(|o| w.nics[1].set_stalled(eng.now(), true, &mut w.mems[1], o));
    route(1, outs, &mut eng);
    eng.schedule_at(
        SimTime::from_nanos(3 * TIMEOUT.as_nanos()),
        |w: &mut World, eng| {
            let outs = collect(|o| w.nics[1].set_stalled(eng.now(), false, &mut w.mems[1], o));
            route(1, outs, eng);
        },
    );

    post_write(&mut w, qp0, mr.rkey, b"survives", 0x8000, 0x8000, 4);
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.mems[1].read(0x8000, 8).unwrap(), b"survives");
    assert_eq!(statuses(&mut w, 0, scq0), vec![(4, CqeStatus::Ok)]);
    assert_eq!(w.nics[0].qp_state(qp0), QpState::Rts);
    assert!(w.nics[1].counters().rx_dropped >= 1);
}

/// The stalled NIC's own pending requests are neither timed out while
/// stalled nor lost: un-stalling retransmits them.
#[test]
fn stalled_sender_resumes_on_unstall() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 1);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    // The request goes out, then the *sender* stalls so the ack is
    // eaten; with retry_cnt=1 an un-suppressed timer would error out.
    post_write(&mut w, qp0, mr.rkey, b"parked", 0x8000, 0x8000, 5);
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.schedule_at(SimTime::from_nanos(200), |w: &mut World, eng| {
        let outs = collect(|o| w.nics[0].set_stalled(eng.now(), true, &mut w.mems[0], o));
        route(0, outs, eng);
    });
    eng.schedule_at(
        SimTime::from_nanos(10 * TIMEOUT.as_nanos()),
        |w: &mut World, eng| {
            let outs = collect(|o| w.nics[0].set_stalled(eng.now(), false, &mut w.mems[0], o));
            route(0, outs, eng);
        },
    );
    eng.run(&mut w);

    assert_eq!(statuses(&mut w, 0, scq0), vec![(5, CqeStatus::Ok)]);
    assert_eq!(w.nics[0].qp_state(qp0), QpState::Rts);
}

/// WAIT-engine stall: a WAIT chain freezes even when its trigger CQ
/// produces, while plain CPU-posted WQEs keep executing — the hook that
/// lets HyperLoop degrade to CPU-driven forwarding. Clearing the stall
/// releases the parked chain.
#[test]
fn wait_stall_freezes_chains_but_not_plain_wqes() {
    let mut w = world(2);
    let mut eng = Engine::new();
    // QP A: a WAIT watching cq_t, then a deferred write it would activate.
    // QP B: plain writes (the CPU-driven path), send_cq = cq_t so its
    // completions are what the WAIT watches.
    let cq_t = w.nics[0].create_cq();
    let rcq = w.nics[0].create_cq();
    let scq_a = w.nics[0].create_cq();
    let qp_a = w.nics[0].create_qp(scq_a, rcq, 0x1000, 8);
    let qp_b = w.nics[0].create_qp(cq_t, rcq, 0x2000, 8);
    let scq1 = w.nics[1].create_cq();
    let rcq1 = w.nics[1].create_cq();
    let qp1a = w.nics[1].create_qp(scq1, rcq1, 0x1000, 8);
    let qp1b = w.nics[1].create_qp(scq1, rcq1, 0x2000, 8);
    w.nics[0].connect(qp_a, 1, qp1a);
    w.nics[1].connect(qp1a, 0, qp_a);
    w.nics[0].connect(qp_b, 1, qp1b);
    w.nics[1].connect(qp1b, 0, qp_b);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    // Break the WAIT engine.
    let outs = collect(|o| w.nics[0].set_wait_stalled(eng.now(), true, &mut w.mems[0], o));
    route(0, outs, &mut eng);

    // Chain on A: WAIT(cq_t >= 1) then an activated write of "chained".
    let wait = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED | flags::WAIT_THRESHOLD,
        imm: 1, // threshold
        len: cq_t,
        activate_n: 1,
        ..Default::default()
    };
    w.mems[0].write(0x8100, b"chained").unwrap();
    let chained = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED,
        len: 7,
        laddr: 0x8100,
        raddr: 0x8000,
        rkey: mr.rkey,
        wr_id: 21,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], qp_a, wait, false)
        .unwrap();
    w.nics[0]
        .post_send(&mut w.mems[0], qp_a, chained, true)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp_a, &mut w.mems[0], o));
    route(0, outs, &mut eng);

    // Plain write on B: still goes through and produces on cq_t.
    w.mems[0].write(0x8200, b"plain").unwrap();
    let plain = Wqe {
        opcode: Opcode::Write,
        flags: flags::SIGNALED,
        len: 5,
        laddr: 0x8200,
        raddr: 0x8040,
        rkey: mr.rkey,
        wr_id: 22,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], qp_b, plain, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp_b, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    // The plain write landed; the chained one is frozen despite cq_t
    // having produced its trigger completion.
    assert_eq!(w.mems[1].read(0x8040, 5).unwrap(), b"plain");
    assert!(w.nics[0].is_wait_stalled());
    assert_eq!(w.mems[1].read(0x8000, 7).unwrap(), &[0u8; 7]);

    // Repair the engine: the parked chain fires.
    let outs = collect(|o| w.nics[0].set_wait_stalled(eng.now(), false, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.mems[1].read(0x8000, 7).unwrap(), b"chained");
}

// ----- PSN-gap NAK ----------------------------------------------------------

/// Post writes `wr_ids` of `len` bytes each, slot by slot from 0x8000 on
/// both sides, and ring one doorbell at the engine's now.
fn write_burst(
    w: &mut World,
    eng: &mut Engine<World>,
    qp0: u32,
    rkey: u32,
    wr_ids: std::ops::Range<u64>,
) {
    for k in wr_ids {
        let at = 0x8000 + k * 0x10;
        post_write(w, qp0, rkey, &[k as u8; 8], at, at, k);
    }
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, eng);
}

/// A request lost ahead of a later one is repaired in about one round
/// trip: the later request reaches the responder past the expected PSN,
/// which NAKs the gap, and the requester goes back N at once. Both
/// writes land and complete within a third of the ack timeout (6 µs;
/// without the loss, 3 µs), and no timer fires.
#[test]
fn a_request_lost_ahead_of_a_later_one_is_repaired_by_a_nak() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    w.rx_drop[1] = 1; // the first write is lost
    write_burst(&mut w, &mut eng, qp0, mr.rkey, 0..2);
    eng.run_until(&mut w, SimTime::from_nanos(TIMEOUT.as_nanos() / 3));

    assert_eq!(
        statuses(&mut w, 0, scq0),
        vec![(0, CqeStatus::Ok), (1, CqeStatus::Ok)]
    );
    assert_eq!(w.mems[1].read(0x8000, 8).unwrap(), [0; 8]);
    assert_eq!(w.mems[1].read(0x8010, 8).unwrap(), [1; 8]);
    assert_eq!(w.nics[1].counters().naks_sent, 1);
    assert_eq!(w.nics[0].counters().retransmits, 2);
    eng.run(&mut w);
    assert_eq!(w.nics[0].counters().timeouts, 0);
}

/// A gap is NAKed once, however many requests queue behind it: with 16
/// writes outstanding and the first lost, the responder drops the other
/// 15 and sends one NAK, and one go-back of all 16 repairs them, in
/// order, with no timeout.
#[test]
fn one_nak_per_gap_with_16_outstanding() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    w.rx_drop[1] = 1;
    write_burst(&mut w, &mut eng, qp0, mr.rkey, 0..16);
    eng.run(&mut w);

    assert_eq!(
        statuses(&mut w, 0, scq0),
        (0..16).map(|k| (k, CqeStatus::Ok)).collect::<Vec<_>>()
    );
    assert_eq!(w.nics[1].counters().naks_sent, 1);
    assert_eq!(w.nics[1].counters().rx_dropped, 15);
    assert_eq!(w.nics[0].counters().retransmits, 16);
    assert_eq!(w.nics[0].counters().timeouts, 0);
}

/// The ack timer stays the backstop. A lost NAK leaves its gap to the
/// timer, as does a lost last request, which no later request reveals:
/// each is repaired by one timeout, not before it.
#[test]
fn a_lost_nak_and_a_lost_last_request_are_repaired_by_the_timer() {
    // The first write is lost, and the NAK the second one draws too.
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);
    (w.rx_drop[1], w.rx_drop[0]) = (1, 1);
    write_burst(&mut w, &mut eng, qp0, mr.rkey, 0..2);
    eng.run_until(&mut w, SimTime::from_nanos(TIMEOUT.as_nanos()));
    assert!(
        statuses(&mut w, 0, scq0).is_empty(),
        "repaired before the timeout"
    );
    eng.run(&mut w);
    assert_eq!(
        statuses(&mut w, 0, scq0),
        vec![(0, CqeStatus::Ok), (1, CqeStatus::Ok)]
    );
    assert_eq!(w.nics[1].counters().naks_sent, 1);
    assert_eq!(w.nics[0].counters().timeouts, 1);

    // The last of two writes is lost: nothing follows it to show the gap.
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);
    write_burst(&mut w, &mut eng, qp0, mr.rkey, 0..1);
    eng.run_until(&mut w, SimTime::from_nanos(TIMEOUT.as_nanos() / 4));
    w.rx_drop[1] = 1;
    write_burst(&mut w, &mut eng, qp0, mr.rkey, 1..2);
    let start = eng.now();
    eng.run_until(&mut w, start + TIMEOUT / 2);
    assert_eq!(statuses(&mut w, 0, scq0), vec![(0, CqeStatus::Ok)]);
    eng.run(&mut w);
    assert_eq!(statuses(&mut w, 0, scq0), vec![(1, CqeStatus::Ok)]);
    assert_eq!(w.mems[1].read(0x8010, 8).unwrap(), [1; 8]);
    assert_eq!(w.nics[1].counters().naks_sent, 0);
    assert_eq!(w.nics[0].counters().timeouts, 1);
}

/// A CAS queued behind a lost write is NAKed, not executed, and runs
/// exactly once after the go-back: it swaps 5 → 6 and returns 5. One
/// execution ahead of the gap would leave the replayed CAS failing its
/// compare and returning 6.
#[test]
fn cas_is_executed_exactly_once_across_a_nak_go_back() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE | Access::REMOTE_ATOMIC);
    w.mems[1].write_u64(0x8800, 5).unwrap();

    w.rx_drop[1] = 1;
    post_write(&mut w, qp0, mr.rkey, b"ahead", 0x8000, 0x8000, 1);
    let cas = Wqe {
        opcode: Opcode::Cas,
        flags: flags::SIGNALED,
        laddr: 0x100,
        raddr: 0x8800,
        rkey: mr.rkey,
        cmp: 5,
        swp: 6,
        wr_id: 2,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], qp0, cas, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);

    assert_eq!(w.nics[1].counters().naks_sent, 1);
    assert_eq!(w.nics[0].counters().timeouts, 0);
    assert_eq!(w.mems[1].read(0x8000, 5).unwrap(), b"ahead");
    assert_eq!(w.mems[1].read_u64(0x8800).unwrap(), 6);
    assert_eq!(w.mems[0].read_u64(0x100).unwrap(), 5);
    assert_eq!(
        statuses(&mut w, 0, scq0),
        vec![(1, CqeStatus::Ok), (2, CqeStatus::Ok)]
    );
}

/// A sequence-error NAK for a PSN the requester no longer holds (a
/// go-back already answered its gap) is dropped without a retransmit or
/// a completion, and without panicking.
#[test]
fn a_stale_nak_is_dropped() {
    let mut w = world(2);
    let (qp0, qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let nak = |psn| hl_rnic::Packet {
        src_nic: 1,
        src_qpn: qp1,
        dst_qpn: qp0,
        psn,
        reliable: false,
        op: 0,
        kind: PacketKind::Nak {
            wr_id: 0,
            reason: hl_rnic::NakReason::PsnSequenceError,
        },
    };
    for psn in [0, 3, u64::MAX] {
        let outs = collect(|o| w.nics[0].on_packet(SimTime::ZERO, nak(psn), &mut w.mems[0], o));
        assert!(
            outs.is_empty(),
            "a stale NAK produced {}",
            shapes(&outs).join(", ")
        );
    }
    assert_eq!(w.nics[0].counters().rx_dropped, 3);
    assert_eq!(w.nics[0].counters().retransmits, 0);
    assert!(statuses(&mut w, 0, scq0).is_empty());
}

/// A QP without a transport timeout keeps fire-and-forget semantics:
/// its requests carry no PSN, a loss is simply lost, and the responder
/// executes the requests behind it and never NAKs.
#[test]
fn an_unreliable_qp_never_naks() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let scq0 = w.nics[0].create_cq();
    let rcq0 = w.nics[0].create_cq();
    let scq1 = w.nics[1].create_cq();
    let rcq1 = w.nics[1].create_cq();
    let qp0 = w.nics[0].create_qp(scq0, rcq0, 0x1000, 16);
    let qp1 = w.nics[1].create_qp(scq1, rcq1, 0x1000, 16);
    w.nics[0].connect(qp0, 1, qp1);
    w.nics[1].connect(qp1, 0, qp0);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    w.rx_drop[1] = 1;
    write_burst(&mut w, &mut eng, qp0, mr.rkey, 0..3);
    eng.run(&mut w);

    assert_eq!(
        statuses(&mut w, 0, scq0),
        vec![(1, CqeStatus::Ok), (2, CqeStatus::Ok)]
    );
    assert_eq!(w.mems[1].read(0x8000, 8).unwrap(), [0; 8]);
    assert_eq!(w.mems[1].read(0x8010, 8).unwrap(), [1; 8]);
    assert_eq!(w.mems[1].read(0x8020, 8).unwrap(), [2; 8]);
    assert_eq!(w.nics[1].counters().naks_sent, 0);
    assert_eq!(w.nics[0].counters().retransmits, 0);
}

// ----- output order -------------------------------------------------------
//
// Outputs become events in the order an entry point produces them, and the
// engine breaks same-instant ties by that order, so the sequences below are
// simulated behaviour. They were recorded before the NIC moved to a
// caller-owned output sink and must not change.

/// One output as `what(whom)@time`.
fn shape(o: &NicOutput) -> String {
    match o {
        NicOutput::Transmit {
            at,
            dst_nic,
            packet,
        } => {
            let kind = match &packet.kind {
                PacketKind::Write { wr_id, .. } => format!("Write wr{wr_id}"),
                PacketKind::Send { wr_id, .. } => format!("Send wr{wr_id}"),
                PacketKind::Ack { wr_id, .. } => format!("Ack wr{wr_id}"),
                other => format!("{other:?}"),
            };
            format!("Transmit({kind} -> nic{dst_nic})@{}", at.as_nanos())
        }
        NicOutput::Complete { at, cq, cqe } => {
            format!("Complete(cq{cq} wr{})@{}", cqe.wr_id, at.as_nanos())
        }
        NicOutput::DoLocal { at, qpn, .. } => format!("DoLocal(qp{qpn})@{}", at.as_nanos()),
        NicOutput::CqEvent { cq } => format!("CqEvent(cq{cq})"),
        NicOutput::ArmTimer { at, qpn, gen } => {
            format!("ArmTimer(qp{qpn} gen{gen})@{}", at.as_nanos())
        }
        NicOutput::CancelTimer { qpn } => format!("CancelTimer(qp{qpn})"),
    }
}

fn shapes(outs: &[NicOutput]) -> Vec<String> {
    outs.iter().map(shape).collect()
}

/// The packets among `outs`, in order.
fn packets(outs: Vec<NicOutput>) -> Vec<hl_rnic::Packet> {
    outs.into_iter()
        .filter_map(|o| match o {
            NicOutput::Transmit { packet, .. } => Some(packet),
            _ => None,
        })
        .collect()
}

/// On a reliable QP whose first ACK was lost, the second ACK produces:
/// the synthesized completion of the first request (CQE, then the CQ
/// event, then the WAITer it resumes), then the timer re-arm, then the
/// second request's own completion. The third ACK cancels the timer
/// before its own completion.
#[test]
fn output_order_cum_ack_then_timer_then_own_completion() {
    let mut w = world(2);
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    // A loopback QP on nic 0 whose WAITs watch the send CQ: every
    // completion delivered there resumes it for one NOP, which makes the
    // position of each delivery visible in the output order.
    let lcq = w.nics[0].create_cq();
    let watch = w.nics[0].create_qp(lcq, lcq, 0x3000, 8);
    for wr_id in [100, 101, 102] {
        let wait = Wqe {
            opcode: Opcode::Wait,
            flags: flags::HW_OWNED,
            raddr: Wqe::wait_params(scq0, 1),
            activate_n: 1,
            ..Default::default()
        };
        let nop = Wqe {
            opcode: Opcode::Nop,
            flags: flags::SIGNALED,
            wr_id,
            ..Default::default()
        };
        w.nics[0]
            .post_send(&mut w.mems[0], watch, wait, false)
            .unwrap();
        w.nics[0]
            .post_send(&mut w.mems[0], watch, nop, true)
            .unwrap();
    }
    let parked = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, watch, &mut w.mems[0], o));
    assert!(parked.is_empty());
    w.nics[0].arm_cq(scq0);

    post_write(&mut w, qp0, mr.rkey, b"one", 0x8000, 0x8000, 1);
    post_write(&mut w, qp0, mr.rkey, b"two", 0x8010, 0x8010, 2);
    post_write(&mut w, qp0, mr.rkey, b"three", 0x8020, 0x8020, 3);
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, qp0, &mut w.mems[0], o));
    assert_eq!(
        shapes(&outs),
        [
            "ArmTimer(qp0 gen1)@20750",
            "Transmit(Write wr1 -> nic1)@750",
            "Transmit(Write wr2 -> nic1)@1200",
            "Transmit(Write wr3 -> nic1)@1650",
        ]
    );
    let writes = packets(outs);

    let t = SimTime::from_nanos(2_000);
    let mut acks = Vec::new();
    for pkt in writes {
        let outs = collect(|o| w.nics[1].on_packet(t, pkt, &mut w.mems[1], o));
        acks.extend(packets(outs));
    }
    assert_eq!(acks.len(), 3);
    let mut acks = acks.into_iter();
    drop(acks.next()); // the first ACK is lost

    let t = SimTime::from_nanos(4_000);
    let outs = collect(|o| w.nics[0].on_packet(t, acks.next().unwrap(), &mut w.mems[0], o));
    assert_eq!(
        shapes(&outs),
        [
            "CqEvent(cq0)",
            "Complete(cq2 wr100)@5000",
            "ArmTimer(qp0 gen2)@24550",
            "Complete(cq2 wr101)@5450",
        ]
    );
    let outs = collect(|o| w.nics[0].on_packet(t, acks.next().unwrap(), &mut w.mems[0], o));
    assert_eq!(
        shapes(&outs),
        ["CancelTimer(qp0)", "Complete(cq2 wr102)@5900"]
    );
    assert_eq!(
        statuses(&mut w, 0, scq0),
        vec![(1, CqeStatus::Ok), (2, CqeStatus::Ok), (3, CqeStatus::Ok)]
    );
}

/// A SEND that satisfies a parked WAIT produces: the RECV's CQ event,
/// then the WAITing QP's forwarded WRITE and SEND, then the ACK to the
/// sender.
#[test]
fn output_order_recv_event_then_forwards_then_ack() {
    let mut w = world(3);
    let cq = |w: &mut World, n: usize| w.nics[n].create_cq();
    let (scq0, rcq0) = (cq(&mut w, 0), cq(&mut w, 0));
    let (scq1, rcq1, fcq1) = (cq(&mut w, 1), cq(&mut w, 1), cq(&mut w, 1));
    let (scq2, rcq2) = (cq(&mut w, 2), cq(&mut w, 2));
    let qp01 = w.nics[0].create_qp(scq0, rcq0, 0x1000, 8);
    let qp10 = w.nics[1].create_qp(scq1, rcq1, 0x1000, 8);
    let qp12 = w.nics[1].create_qp(fcq1, fcq1, 0x2000, 8);
    let qp21 = w.nics[2].create_qp(scq2, rcq2, 0x1000, 8);
    w.nics[0].connect(qp01, 1, qp10);
    w.nics[1].connect(qp10, 0, qp01);
    w.nics[1].connect(qp12, 2, qp21);
    w.nics[2].connect(qp21, 1, qp12);
    let mr = w.nics[2].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    // nic 1 forwards: WAIT(recv CQ of the inbound QP) · WRITE · SEND.
    w.nics[1].post_recv(qp10, RecvWqe::empty(50));
    let wait = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED,
        raddr: Wqe::wait_params(rcq1, 1),
        activate_n: 2,
        ..Default::default()
    };
    let write = Wqe {
        opcode: Opcode::Write,
        len: 8,
        laddr: 0x9000,
        raddr: 0x8000,
        rkey: mr.rkey,
        wr_id: 61,
        ..Default::default()
    };
    let send = Wqe {
        opcode: Opcode::Send,
        len: 4,
        laddr: 0x9000,
        wr_id: 62,
        ..Default::default()
    };
    w.nics[1]
        .post_send(&mut w.mems[1], qp12, wait, false)
        .unwrap();
    w.nics[1]
        .post_send(&mut w.mems[1], qp12, write, true)
        .unwrap();
    w.nics[1]
        .post_send(&mut w.mems[1], qp12, send, true)
        .unwrap();
    let parked = collect(|o| w.nics[1].ring_doorbell(SimTime::ZERO, qp12, &mut w.mems[1], o));
    assert!(parked.is_empty());
    w.nics[1].arm_cq(rcq1);

    w.mems[0].write(0x8000, b"meta").unwrap();
    let wqe = Wqe {
        opcode: Opcode::Send,
        flags: flags::SIGNALED,
        len: 4,
        laddr: 0x8000,
        wr_id: 9,
        ..Default::default()
    };
    w.nics[0]
        .post_send(&mut w.mems[0], qp01, wqe, false)
        .unwrap();
    let outs = collect(|o| w.nics[0].ring_doorbell(SimTime::ZERO, qp01, &mut w.mems[0], o));
    assert_eq!(shapes(&outs), ["Transmit(Send wr9 -> nic1)@750"]);
    let pkt = packets(outs).pop().unwrap();

    let t = SimTime::from_nanos(1_000);
    let outs = collect(|o| w.nics[1].on_packet(t, pkt, &mut w.mems[1], o));
    assert_eq!(
        shapes(&outs),
        [
            "CqEvent(cq1)",
            "Transmit(Write wr61 -> nic2)@2000",
            "Transmit(Send wr62 -> nic2)@2450",
            "Transmit(Ack wr9 -> nic0)@1550",
        ]
    );
}

/// A NAKed work request halts a reliable QP's send queue (RTS → SQE):
/// a later post waits until software acknowledges the error with
/// `recover_qp`, and then executes.
#[test]
fn sqe_halts_the_send_queue_until_recover_qp() {
    let mut w = world(2);
    let mut eng = Engine::new();
    let (qp0, _qp1, scq0, _rcq1) = reliable_pair(&mut w, 7);
    let mr = w.nics[1].register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    post_write(&mut w, qp0, mr.rkey ^ 0xdead, b"refused", 0x2000, 0x8000, 1);
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.nics[0].qp_state(qp0), QpState::Sqe);
    assert_eq!(statuses(&mut w, 0, scq0), [(1, CqeStatus::RemoteAccess)]);

    post_write(&mut w, qp0, mr.rkey, b"after", 0x2100, 0x8100, 2);
    let outs = collect(|o| w.nics[0].ring_doorbell(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert!(
        statuses(&mut w, 0, scq0).is_empty(),
        "SQE must halt the send queue"
    );
    assert_ne!(w.mems[1].read(0x8100, 5).unwrap(), b"after");

    let outs = collect(|o| w.nics[0].recover_qp(eng.now(), qp0, &mut w.mems[0], o));
    route(0, outs, &mut eng);
    eng.run(&mut w);
    assert_eq!(w.nics[0].qp_state(qp0), QpState::Rts);
    assert_eq!(statuses(&mut w, 0, scq0), [(2, CqeStatus::Ok)]);
    assert_eq!(w.mems[1].read(0x8100, 5).unwrap(), b"after");
}
