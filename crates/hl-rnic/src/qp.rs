//! Queue pairs: send-queue rings in host memory plus NIC-side receive
//! queues.

use crate::wqe::WQE_SIZE;
use std::collections::VecDeque;
use std::rc::Rc;

/// A send-queue ring living in host memory.
///
/// `head` and `tail` are monotonically increasing indices; the slot of
/// index `i` is at `base + (i % capacity) * 64`. The NIC consumes at
/// `head`, the driver produces at `tail`.
#[derive(Debug, Clone)]
pub struct SqRing {
    /// Arena address of slot 0.
    pub base: u64,
    /// Number of slots.
    pub capacity: u32,
    /// Next WQE the NIC will look at.
    pub head: u64,
    /// One past the last posted WQE.
    pub tail: u64,
}

impl SqRing {
    /// New ring over `[base, base + capacity*64)`.
    pub fn new(base: u64, capacity: u32) -> Self {
        assert!(capacity > 0);
        SqRing {
            base,
            capacity,
            head: 0,
            tail: 0,
        }
    }

    /// Arena address of the slot holding index `idx`.
    pub fn slot_addr(&self, idx: u64) -> u64 {
        self.base + (idx % self.capacity as u64) * WQE_SIZE
    }

    /// Posted-but-unconsumed WQEs.
    pub fn depth(&self) -> u64 {
        self.tail - self.head
    }

    /// Is there room to post another WQE?
    pub fn has_room(&self) -> bool {
        self.depth() < self.capacity as u64
    }

    /// Total bytes of arena the ring occupies.
    pub fn byte_len(&self) -> u64 {
        self.capacity as u64 * WQE_SIZE
    }
}

/// One scatter target of a posted RECV, as an entry of a
/// [`ScatterTemplate`].
///
/// `msg_off` selects which slice of the incoming message lands where —
/// this is the hook HyperLoop uses to point received metadata *into the
/// descriptor fields of pre-posted WQEs* (see DESIGN.md §7 for the
/// liberty taken vs. strictly sequential verbs SGE consumption). A RECV
/// at ring position `p` lands the slice at `addr + p · stride`: slot
/// `p` of a pre-posted ring scatters into slot 0's targets shifted by
/// `p` strides, so one template serves every slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterEntry {
    /// Offset within the incoming message.
    pub msg_off: u32,
    /// Bytes to scatter.
    pub len: u32,
    /// Arena destination address at ring position 0.
    pub addr: u64,
    /// How far the destination moves per ring position (0: fixed).
    pub stride: u64,
}

impl ScatterEntry {
    /// Destination address at ring position `position`. Wraps rather
    /// than overflows: a corrupt template resolves outside the arena and
    /// is refused like any other stray address.
    pub fn addr_at(&self, position: u64) -> u64 {
        self.addr.wrapping_add(position.wrapping_mul(self.stride))
    }
}

/// A scatter list shared by every RECV posted from it: refcounted, so
/// re-posting a ring slot copies a pointer, and the empty template owns
/// no allocation at all.
#[derive(Debug, Clone)]
pub struct ScatterTemplate(Option<Rc<[ScatterEntry]>>);

impl ScatterTemplate {
    /// The template that scatters nothing.
    pub const EMPTY: ScatterTemplate = ScatterTemplate(None);

    /// A template over `entries` (one allocation unless empty).
    pub fn new(entries: &[ScatterEntry]) -> Self {
        if entries.is_empty() {
            Self::EMPTY
        } else {
            ScatterTemplate(Some(Rc::from(entries)))
        }
    }

    /// The entries, unresolved.
    pub fn entries(&self) -> &[ScatterEntry] {
        self.0.as_deref().unwrap_or(&[])
    }
}

/// A posted receive work request (kept NIC-side; only send queues live
/// in host memory because only they are remotely manipulated): a shared
/// scatter template resolved at one ring position.
#[derive(Debug, Clone)]
pub struct RecvWqe {
    /// Caller cookie echoed in the completion.
    pub wr_id: u64,
    /// Scatter list applied to the incoming payload.
    pub scatter: ScatterTemplate,
    /// Ring position the template's entries are resolved at.
    pub position: u64,
}

impl RecvWqe {
    /// A RECV that scatters nothing (a WRITE_IMM landing, an ack).
    pub fn empty(wr_id: u64) -> Self {
        RecvWqe {
            wr_id,
            scatter: ScatterTemplate::EMPTY,
            position: 0,
        }
    }

    /// A single-use scatter list: its own template, at position 0.
    pub fn new(wr_id: u64, scatter: &[ScatterEntry]) -> Self {
        RecvWqe {
            wr_id,
            scatter: ScatterTemplate::new(scatter),
            position: 0,
        }
    }

    /// Slot `position` of a ring whose RECVs share `template`.
    pub fn at(wr_id: u64, template: &ScatterTemplate, position: u64) -> Self {
        RecvWqe {
            wr_id,
            scatter: template.clone(),
            position,
        }
    }

    /// The resolved scatter list: `(msg_off, len, addr)` per entry, in
    /// template order.
    pub fn targets(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.scatter
            .entries()
            .iter()
            .map(|e| (e.msg_off, e.len, e.addr_at(self.position)))
    }
}

/// Queue-pair operational state (the subset of the ibverbs state
/// machine the model needs: `RTS → SQE/Error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QpState {
    /// Ready to send: the normal operating state.
    #[default]
    Rts,
    /// Send-queue error: a work request completed in error (NAK). The
    /// send queue halts until software acknowledges the error via
    /// [`Nic::recover_qp`](crate::Nic::recover_qp); receive processing
    /// continues. Only QPs with a transport timeout enter this state —
    /// legacy QPs keep the historical keep-going behaviour.
    Sqe,
    /// Fatal: the transport retry budget was exhausted. All outstanding
    /// and subsequently posted work completes with
    /// [`CqeStatus::FlushedInError`](crate::CqeStatus::FlushedInError).
    /// Unrecoverable in this model (as with real RC, the QP must be torn
    /// down and reconnected — see `hyperloop::recovery::rebuild_chain`).
    Error,
}

/// Transport-reliability knobs for one QP (set via
/// [`Nic::set_qp_timeout`](crate::Nic::set_qp_timeout)).
#[derive(Debug, Clone, Copy)]
pub struct QpTimeout {
    /// Ack timeout: how long a transmitted request may stay unacked
    /// before a go-back-N retransmission.
    pub timeout: hl_sim::SimDuration,
    /// Consecutive timeouts tolerated before the QP enters
    /// [`QpState::Error`].
    pub retry_cnt: u8,
}

/// One transmitted-but-unacked reliable request (requester side).
#[derive(Debug, Clone)]
pub struct PendingTx {
    /// Sequence number stamped on the packet.
    pub psn: u64,
    /// Destination NIC (for retransmission).
    pub dst_nic: u32,
    /// The packet as sent (retransmitted verbatim).
    pub packet: crate::packet::Packet,
    /// Requester cookie (for synthesized completions).
    pub wr_id: u64,
    /// Whether the requester asked for a completion.
    pub signaled: bool,
    /// Payload bytes (for synthesized completions).
    pub byte_len: u32,
}

/// A queue pair.
#[derive(Debug)]
pub struct Qp {
    /// QP number (index in the NIC's table).
    pub qpn: u32,
    /// CQ for send-side completions.
    pub send_cq: u32,
    /// CQ for receive-side completions.
    pub recv_cq: u32,
    /// Send ring (in host memory).
    pub sq: SqRing,
    /// Posted receives.
    pub rq: VecDeque<RecvWqe>,
    /// Shared receive queue, if attached: inbound SEND/WRITE_IMM
    /// consume from the SRQ instead of `rq`, so many QPs (e.g. one per
    /// client) drain one pre-posted ring in arrival order — the paper's
    /// §5 multi-client mechanism.
    pub srq: Option<u32>,
    /// Connected peer `(nic, qpn)`; `None` = loopback QP for NIC-local
    /// operations (gMEMCPY / gCAS local legs).
    pub remote: Option<(u32, u32)>,
    /// An outstanding fencing op (READ/FLUSH/CAS) blocks the SQ.
    pub fenced: bool,
    /// Is this QP parked in a CQ's waiter list (head is an unsatisfied
    /// WAIT)? Prevents duplicate registration.
    pub parked: bool,
    /// Earliest time the send engine is free (serializes WQE processing).
    pub busy_until: hl_sim::SimTime,
    /// Completion time of the newest local op (`LocalCopy`, `LocalCas`,
    /// `LocalFlush`) this QP executed. Local ops complete in posting
    /// order, as RC orders a QP's work requests: each finishes at the
    /// later of its own time and this one.
    pub local_done: hl_sim::SimTime,
    /// Operational state.
    pub state: QpState,
    /// Retransmit protocol configuration; `None` = legacy fire-and-forget
    /// transport (the fabric-FIFO model), which is the default.
    pub timeout: Option<QpTimeout>,
    /// Next PSN to stamp on an outgoing reliable request.
    pub next_psn: u64,
    /// Expected PSN of the next inbound reliable request (responder).
    pub epsn: u64,
    /// The `epsn` a PSN-sequence-error NAK was last sent for
    /// (responder): a gap is NAKed once, not once per packet behind it.
    pub nak_epsn: Option<u64>,
    /// Transmitted reliable requests awaiting a response, oldest first.
    pub unacked: VecDeque<PendingTx>,
    /// Consecutive ack-timeout expirations without forward progress.
    pub retries: u8,
    /// Generation counter for the retransmit timer: arming bumps it and
    /// stale timer events (older generation) are ignored.
    pub timer_gen: u64,
    /// Responder-side replay cache: the last response sent for a fencing
    /// op `(psn, response kind)`. A retransmitted duplicate of that PSN
    /// replays the cached response instead of re-executing — this is what
    /// keeps CAS exactly-once under a lost response.
    pub resp_cache: Option<(u64, crate::packet::PacketKind)>,
}

impl Qp {
    /// New, unconnected QP.
    pub fn new(qpn: u32, send_cq: u32, recv_cq: u32, sq: SqRing) -> Self {
        Qp {
            qpn,
            send_cq,
            recv_cq,
            sq,
            rq: VecDeque::new(),
            srq: None,
            remote: None,
            fenced: false,
            parked: false,
            busy_until: hl_sim::SimTime::ZERO,
            local_done: hl_sim::SimTime::ZERO,
            state: QpState::default(),
            timeout: None,
            next_psn: 0,
            epsn: 0,
            nak_epsn: None,
            unacked: VecDeque::new(),
            retries: 0,
            timer_gen: 0,
            resp_cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_addressing_wraps() {
        let r = SqRing::new(0x1000, 4);
        assert_eq!(r.slot_addr(0), 0x1000);
        assert_eq!(r.slot_addr(3), 0x1000 + 3 * 64);
        assert_eq!(r.slot_addr(4), 0x1000);
        assert_eq!(r.slot_addr(7), 0x1000 + 3 * 64);
    }

    #[test]
    fn ring_room_accounting() {
        let mut r = SqRing::new(0, 2);
        assert!(r.has_room());
        r.tail = 2;
        assert!(!r.has_room());
        assert_eq!(r.depth(), 2);
        r.head = 1;
        assert!(r.has_room());
        assert_eq!(r.byte_len(), 128);
    }
}
