//! Wiring shared by every topology: region naming, QP creation, the
//! client's ACK ring and pending table, and the client's
//! `[WRITE] [FLUSH] SEND` post.
//!
//! This is the only file of the crate that creates CQs and QPs. The
//! chain, fan-out, multi-client and Naïve builders differ in *which*
//! queues they create and how they connect them, not in how a queue is
//! made or how a client receives its group ACK.

use crate::metadata;
use hl_cluster::{Host, World};
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::{Access, Cqe, CqeKind, CqeStatus, Opcode, RecvWqe, Wqe, WQE_SIZE};
use std::collections::VecDeque;

/// Send-queue depth of a QP that only ever receives.
const RECV_ONLY_SQ: u32 = 4;
/// Send-queue room per ring slot on a queue a CPU posts whole operations
/// on (the clients' outbound queues, the Naïve replicas' forwarding
/// queues): an operation is at most `WRITE · FLUSH · SEND`, plus one
/// spare.
const OP_SQ_PER_SLOT: u32 = 4;

/// A created queue pair and its completion queues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Qp {
    pub qpn: u32,
    /// Send CQ.
    pub scq: u32,
    /// Receive CQ.
    pub rcq: u32,
}

/// Allocate `len` bytes on `host` under a name unique in the world.
pub(crate) fn region(w: &mut World, host: HostId, tag: &str, len: u64) -> Region {
    let id = w.fresh_id();
    w.host(host).layout.alloc(&format!("{tag}.{id}"), len, 64)
}

/// A fresh CQ on `host`.
pub(crate) fn cq(w: &mut World, host: HostId) -> u32 {
    w.host(host).nic.create_cq()
}

/// A QP with an `sq_wqes`-deep send ring completing into the given CQs
/// (the shared-CQ form: loopback queues and SRQ / fan-in receivers).
pub(crate) fn qp_on(w: &mut World, host: HostId, sq_wqes: u32, scq: u32, rcq: u32) -> Qp {
    let sq = region(w, host, "sq", sq_wqes as u64 * WQE_SIZE);
    let qpn = w.host(host).nic.create_qp(scq, rcq, sq.addr, sq_wqes);
    Qp { qpn, scq, rcq }
}

/// A QP with an `sq_wqes`-deep send ring and its own two CQs.
pub(crate) fn qp(w: &mut World, host: HostId, sq_wqes: u32) -> Qp {
    let scq = cq(w, host);
    let rcq = cq(w, host);
    qp_on(w, host, sq_wqes, scq, rcq)
}

/// A QP that only receives.
pub(crate) fn recv_qp(w: &mut World, host: HostId) -> Qp {
    qp(w, host, RECV_ONLY_SQ)
}

/// A QP that only receives, completing into a shared receive CQ (SRQ
/// members, ack fan-in).
pub(crate) fn recv_qp_into(w: &mut World, host: HostId, rcq: u32) -> Qp {
    let scq = cq(w, host);
    qp_on(w, host, RECV_ONLY_SQ, scq, rcq)
}

/// A QP a CPU posts whole operations on, `slots` of them outstanding.
pub(crate) fn op_qp(w: &mut World, host: HostId, slots: u32) -> Qp {
    qp(w, host, OP_SQ_PER_SLOT * slots)
}

/// The client end of a group ACK: a buffer of `slots` landing slots the
/// tail WRITE_IMMs into, and a QP with one empty RECV pre-posted per
/// slot to take the immediates.
pub(crate) struct AckRing {
    host: HostId,
    /// The receiving QP (connect the tail's ACK queue to it).
    pub qp: u32,
    /// Its receive CQ (subscribe the dispatcher to it).
    pub rcq: u32,
    /// Landing buffer, `slots × stride`.
    buf: Region,
    /// rkey of `buf`.
    pub rkey: u32,
    stride: u64,
    slots: u64,
    /// Result words an ACK carries (0: the ACK is the immediate alone).
    words: usize,
}

/// An [`AckRing`] as the tail's WRITE_IMM addresses it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckTarget {
    pub base: u64,
    /// Bytes per landing slot.
    pub stride: u64,
    pub rkey: u32,
}

impl AckRing {
    /// Allocate, register and pre-post on `host`.
    pub fn new(w: &mut World, host: HostId, slots: u32, words: usize) -> Self {
        let stride = 8 * words.max(1) as u64;
        let buf = region(w, host, "ack", slots as u64 * stride);
        let rkey = w
            .host(host)
            .nic
            .register_mr(buf.addr, buf.len, Access::REMOTE_WRITE)
            .rkey;
        let q = recv_qp(w, host);
        let ring = AckRing {
            host,
            qp: q.qpn,
            rcq: q.rcq,
            buf,
            rkey,
            stride,
            slots: slots as u64,
            words,
        };
        for k in 0..slots as u64 {
            ring.post_recv(w, k);
        }
        ring
    }

    /// The remote view of the landing buffer.
    pub fn target(&self) -> AckTarget {
        AckTarget {
            base: self.buf.addr,
            stride: self.stride,
            rkey: self.rkey,
        }
    }

    /// Is `cqe` a group ACK (as opposed to an error or a stray)?
    pub fn is_ack(cqe: &Cqe) -> bool {
        cqe.kind == CqeKind::RecvImm && cqe.status == CqeStatus::Ok
    }

    fn post_recv(&self, w: &mut World, wr_id: u64) {
        // WRITE_IMM places its data via raddr: nothing to scatter.
        w.hosts[self.host.0].post_recv(self.qp, RecvWqe::empty(wr_id));
    }

    /// Address of landing slot `idx`.
    pub fn slot_addr(&self, idx: u64) -> u64 {
        self.buf.at((idx % self.slots) * self.stride)
    }

    /// Take the ACK that landed in slot `idx`: parse its result words
    /// and re-post the RECV it consumed (as `wr_id`).
    pub fn complete(&self, w: &mut World, idx: u64, wr_id: u64) -> Vec<u64> {
        let addr = self.slot_addr(idx);
        let ack = w.hosts[self.host.0]
            .mem
            .read(addr, 8 * self.words)
            .expect("ack slot in arena");
        let results = metadata::parse_results(ack, self.words);
        self.post_recv(w, wr_id);
        results
    }
}

/// A client's operations awaiting their group ACK, by sequence number.
///
/// The credits bound how many are live, and ACKs mostly arrive in issue
/// order, so the entries sit in a deque searched from the front; once it
/// has grown to the in-flight depth, issuing and completing allocate
/// nothing. An operation whose ACK never arrives stays in the table.
pub(crate) struct PendingTable<T> {
    live: VecDeque<(u32, T)>,
}

impl<T> PendingTable<T> {
    pub fn new() -> Self {
        PendingTable {
            live: VecDeque::new(),
        }
    }

    /// Record operation `seq` as awaiting its ACK.
    pub fn insert(&mut self, seq: u32, entry: T) {
        debug_assert!(
            self.live.iter().all(|(s, _)| *s != seq),
            "sequence number {seq} is already pending"
        );
        self.live.push_back((seq, entry));
    }

    /// Take operation `seq` out, if it is pending.
    pub fn remove(&mut self, seq: u32) -> Option<T> {
        let i = self.live.iter().position(|(s, _)| *s == seq)?;
        self.live.remove(i).map(|(_, entry)| entry)
    }
}

/// The one-sided part of a client operation, aimed at the first
/// replica's copy.
pub(crate) struct OneSided {
    /// `Some(local source)` posts a WRITE of `len` bytes.
    pub write_from: Option<u64>,
    /// Posts a FLUSH of `[raddr, +len)`.
    pub flush: bool,
    pub raddr: u64,
    pub rkey: u32,
    pub len: u32,
}

/// Post one client operation on `qpn`: `[WRITE] [FLUSH] SEND(meta)`,
/// every WQE carrying `seq` as its cookie and `op` as its telemetry id.
pub(crate) fn post_op(
    host: &mut Host,
    qpn: u32,
    seq: u32,
    op: u32,
    data: Option<OneSided>,
    meta: u64,
    meta_len: u64,
) {
    let mut post = |wqe: Wqe| {
        host.post_send(
            qpn,
            Wqe {
                wr_id: seq as u64,
                op,
                ..wqe
            },
            false,
        )
        .expect("client SQ sized for the ring");
    };
    if let Some(d) = data {
        if let Some(laddr) = d.write_from {
            post(Wqe {
                opcode: Opcode::Write,
                len: d.len,
                laddr,
                raddr: d.raddr,
                rkey: d.rkey,
                ..Default::default()
            });
        }
        if d.flush {
            post(Wqe {
                opcode: Opcode::Flush,
                len: d.len,
                raddr: d.raddr,
                rkey: d.rkey,
                ..Default::default()
            });
        }
    }
    post(Wqe {
        opcode: Opcode::Send,
        len: meta_len as u32,
        laddr: meta,
        ..Default::default()
    });
}
