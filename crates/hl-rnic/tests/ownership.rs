//! Regression tests for the WQE-ownership & DMA race detector
//! (`Nic::enable_race_detector`): each violation class is provoked at
//! the verbs level and must be reported with the offending QPNs, and
//! the legal variants of the same traffic must stay silent.

mod common;

use common::collect;
use hl_nvm::NvmArena;
use hl_rnic::track::Violation;
use hl_rnic::{
    flags, Access, Cqe, CqeKind, CqeStatus, Nic, NicOutput, Opcode, Packet, PacketKind, Wqe,
};
use hl_sim::config::NicProfile;
use hl_sim::{Bytes, RngFactory, SimTime};

const T1: SimTime = SimTime::from_nanos(1_000);
const T2: SimTime = SimTime::from_nanos(2_000);

fn nic() -> (Nic, NvmArena) {
    let profile = NicProfile {
        jitter_sigma: 0.0,
        ..NicProfile::default()
    };
    let mut nic = Nic::new(0, profile, RngFactory::new(7).stream("nic"));
    nic.enable_race_detector();
    (nic, NvmArena::new(1 << 20))
}

fn write_pkt(
    src_nic: u32,
    src_qpn: u32,
    dst_qpn: u32,
    raddr: u64,
    rkey: u32,
    data: &[u8],
) -> Packet {
    Packet {
        src_nic,
        src_qpn,
        dst_qpn,
        psn: 0,
        reliable: false,
        op: 0,
        kind: PacketKind::Write {
            raddr,
            rkey,
            data: Bytes::copy_from_slice(data),
            wr_id: 1,
            signaled: false,
        },
    }
}

/// (a) A deferred WQE whose ownership flag was forged in memory (the
/// driver never granted it) must be flagged when the engine fetches it.
#[test]
fn forged_ownership_flag_is_flagged_at_fetch() {
    let (mut nic, mut mem) = nic();
    let cq = nic.create_cq();
    let qp = nic.create_qp(cq, cq, 0x1000, 8);
    let idx = nic
        .post_send(
            &mut mem,
            qp,
            Wqe {
                opcode: Opcode::Nop,
                ..Default::default()
            },
            true, // deferred: ownership stays with software
        )
        .unwrap();
    // A rogue peer (or misdirected scatter) forges the HW_OWNED bit
    // directly in host memory, bypassing grant_ownership.
    let slot = nic.sq_slot_addr(qp, idx);
    let f = mem.read(slot + 1, 1).unwrap()[0];
    mem.write(slot + 1, &[f | flags::HW_OWNED]).unwrap();
    collect(|o| nic.ring_doorbell(T1, qp, &mut mem, o));
    assert!(
        matches!(
            nic.race_violations(),
            [Violation::SwOwnedFetch { qpn, idx: 0, .. }] if *qpn == qp
        ),
        "got {:?}",
        nic.race_violations()
    );
}

/// The legal handover paths — grant_ownership and non-deferred posts —
/// must not trip the detector.
#[test]
fn granted_and_doorbell_posts_are_clean() {
    let (mut nic, mut mem) = nic();
    let cq = nic.create_cq();
    let qp = nic.create_qp(cq, cq, 0x1000, 8);
    let idx = nic
        .post_send(
            &mut mem,
            qp,
            Wqe {
                opcode: Opcode::Nop,
                ..Default::default()
            },
            true,
        )
        .unwrap();
    nic.grant_ownership(&mut mem, qp, idx);
    nic.post_send(
        &mut mem,
        qp,
        Wqe {
            opcode: Opcode::Nop,
            ..Default::default()
        },
        false,
    )
    .unwrap();
    collect(|o| nic.ring_doorbell(T1, qp, &mut mem, o));
    assert!(nic.race_violations().is_empty());
}

/// (b) A remote write landing inside a descriptor slot after ownership
/// was granted to the NIC is a fetch/rewrite race; the same write while
/// the slot is still software-owned is HyperLoop's legal metadata
/// scatter.
#[test]
fn scatter_into_granted_slot_is_flagged() {
    let (mut nic, mut mem) = nic();
    let cq = nic.create_cq();
    let qp = nic.create_qp(cq, cq, 0x1000, 8);
    nic.connect(qp, 1, 9);
    // Replicas register their rings remotely writable on purpose.
    let ring_mr = nic.register_mr(0x1000, 8 * 64, Access::REMOTE_WRITE);
    let idx = nic
        .post_send(
            &mut mem,
            qp,
            Wqe {
                opcode: Opcode::Nop,
                ..Default::default()
            },
            true,
        )
        .unwrap();
    // Legal: rewrite the length field while software still owns it.
    let slot = nic.sq_slot_addr(qp, idx);
    collect(|o| {
        nic.on_packet(
            T1,
            write_pkt(1, 9, qp, slot + 4, ring_mr.rkey, &8u32.to_le_bytes()),
            &mut mem,
            o,
        )
    });
    assert!(
        nic.race_violations().is_empty(),
        "pre-grant scatter is legal"
    );
    // Illegal: the same rewrite after the grant.
    nic.grant_ownership(&mut mem, qp, idx);
    collect(|o| {
        nic.on_packet(
            T2,
            write_pkt(1, 9, qp, slot + 4, ring_mr.rkey, &16u32.to_le_bytes()),
            &mut mem,
            o,
        )
    });
    assert!(
        matches!(
            nic.race_violations(),
            [Violation::ScatterAfterGrant {
                ring_qpn,
                slot: 0,
                src_nic: 1,
                src_qpn: 9,
                ..
            }] if *ring_qpn == qp
        ),
        "got {:?}",
        nic.race_violations()
    );
}

/// (c) Overlapping writes from two different QPs with no completion in
/// between and different bytes race; identical bytes or an intervening
/// completion make the same traffic legal.
#[test]
fn concurrent_overlapping_dma_is_flagged() {
    let (mut nic, mut mem) = nic();
    let cq = nic.create_cq();
    let qp_a = nic.create_qp(cq, cq, 0x1000, 8);
    let qp_b = nic.create_qp(cq, cq, 0x1400, 8);
    nic.connect(qp_a, 1, 0);
    nic.connect(qp_b, 2, 0);
    let mr = nic.register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    // Same epoch, same range, different peers, different bytes: race.
    collect(|o| {
        nic.on_packet(
            T1,
            write_pkt(1, 0, qp_a, 0x8000, mr.rkey, &[0xaa; 64]),
            &mut mem,
            o,
        )
    });
    collect(|o| {
        nic.on_packet(
            T2,
            write_pkt(2, 0, qp_b, 0x8020, mr.rkey, &[0xbb; 64]),
            &mut mem,
            o,
        )
    });
    assert!(
        matches!(
            nic.race_violations(),
            [Violation::ConcurrentDmaOverlap {
                addr: 0x8020,
                len: 32,
                first_src: (1, _),
                second_src: (2, _),
                ..
            }]
        ),
        "got {:?}",
        nic.race_violations()
    );
}

#[test]
fn completion_or_identical_bytes_make_overlap_legal() {
    let (mut nic, mut mem) = nic();
    let cq = nic.create_cq();
    let qp_a = nic.create_qp(cq, cq, 0x1000, 8);
    let qp_b = nic.create_qp(cq, cq, 0x1400, 8);
    nic.connect(qp_a, 1, 0);
    nic.connect(qp_b, 2, 0);
    let mr = nic.register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    // Byte-identical rewrite from another peer: a re-issued record.
    collect(|o| {
        nic.on_packet(
            T1,
            write_pkt(1, 0, qp_a, 0x8000, mr.rkey, &[0xcc; 64]),
            &mut mem,
            o,
        )
    });
    collect(|o| {
        nic.on_packet(
            T2,
            write_pkt(2, 0, qp_b, 0x8000, mr.rkey, &[0xcc; 64]),
            &mut mem,
            o,
        )
    });
    assert!(nic.race_violations().is_empty());

    // Different bytes, but a completion orders the two writes.
    collect(|o| {
        nic.on_packet(
            T1,
            write_pkt(1, 0, qp_a, 0x9000, mr.rkey, &[0x11; 64]),
            &mut mem,
            o,
        )
    });
    collect(|o| {
        nic.deliver_cqe(
            T2,
            cq,
            Cqe {
                qpn: qp_a,
                wr_id: 0,
                kind: CqeKind::Recv,
                status: CqeStatus::Ok,
                byte_len: 0,
                imm: 0,
                op: 0,
            },
            &mut mem,
            o,
        )
    });
    collect(|o| {
        nic.on_packet(
            T2,
            write_pkt(2, 0, qp_b, 0x9000, mr.rkey, &[0x22; 64]),
            &mut mem,
            o,
        )
    });
    assert!(nic.race_violations().is_empty());
}

/// (d) Remote access through a deregistered rkey is flagged *and*
/// refused with a NAK.
#[test]
fn use_after_deregister_is_flagged_and_refused() {
    let (mut nic, mut mem) = nic();
    let cq = nic.create_cq();
    let qp = nic.create_qp(cq, cq, 0x1000, 8);
    nic.connect(qp, 1, 0);
    let mr = nic.register_mr(0x4000, 0x100, Access::REMOTE_WRITE);
    assert!(nic.deregister_mr(T1, mr.rkey));
    assert!(!nic.deregister_mr(T1, mr.rkey), "double deregister");

    let outs = collect(|o| {
        nic.on_packet(
            T2,
            write_pkt(1, 0, qp, 0x4000, mr.rkey, &[1; 16]),
            &mut mem,
            o,
        )
    });
    assert!(
        matches!(
            nic.race_violations(),
            [Violation::UseAfterDeregister { rkey, addr: 0x4000, .. }] if *rkey == mr.rkey
        ),
        "got {:?}",
        nic.race_violations()
    );
    assert!(
        outs.iter().any(|o| matches!(
            o,
            NicOutput::Transmit {
                packet: Packet {
                    kind: PacketKind::Nak { .. },
                    ..
                },
                ..
            }
        )),
        "stale access must be refused"
    );
}

/// The detector shadows every ring from `create_qp` on, so switching it
/// on later would miss rings it must watch.
#[test]
#[should_panic(expected = "before the first QP")]
fn switching_on_after_a_qp_exists_panics() {
    let mut nic = Nic::new(0, NicProfile::default(), RngFactory::new(7).stream("nic"));
    let cq = nic.create_cq();
    nic.create_qp(cq, cq, 0x1000, 8);
    nic.enable_race_detector();
}
