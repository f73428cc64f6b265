//! Wire messages between NICs (reliable-connection transport).
//!
//! The model is message-granular: one packet per verb operation plus an
//! explicit acknowledgement, mirroring RC semantics without MTU
//! segmentation (DESIGN.md §7). Per-connection ordering is guaranteed by
//! the fabric's FIFO egress model.
//!
//! QPs configured with [`Nic::set_qp_timeout`](crate::Nic::set_qp_timeout)
//! additionally stamp request packets with a packet sequence number and
//! the `reliable` flag; the responder then enforces expected-PSN ordering
//! (duplicate suppression; a request behind a gap is dropped and the gap
//! NAKed once with [`NakReason::PsnSequenceError`], whose PSN is the
//! expected one) and the requester goes back N on that NAK or on its
//! ack timer — real RC loss recovery. Packets from QPs without a timeout
//! carry `psn = 0, reliable = false` and behave exactly as before.

/// Fixed per-packet header overhead (Ethernet + IP + UDP + BTH ≈ RoCEv2).
pub const HEADER_BYTES: usize = 48;

use hl_sim::Bytes;

/// A packet between two connected QPs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sending NIC (cluster host index).
    pub src_nic: u32,
    /// Sending QP number.
    pub src_qpn: u32,
    /// Destination QP number on the receiving NIC.
    pub dst_qpn: u32,
    /// Packet sequence number. Meaningful only when `reliable` is set on
    /// a request; responses echo the request's PSN so the requester can
    /// ack cumulatively, and a sequence-error NAK carries the PSN the
    /// responder expects instead.
    pub psn: u64,
    /// Request is covered by the sender's retransmit protocol: the
    /// responder must apply expected-PSN ordering (execute at `epsn`,
    /// re-ack duplicates below it, drop and NAK a gap above it).
    pub reliable: bool,
    /// Telemetry op id carried from the originating WQE (0 = untracked).
    /// Responses echo the request's id. Occupies reserved BTH header
    /// bits, so it adds no wire bytes.
    pub op: u32,
    /// Operation payload.
    pub kind: PacketKind,
}

/// Operation carried by a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketKind {
    /// One-sided write of `data` at `raddr`.
    Write {
        /// Remote destination address.
        raddr: u64,
        /// Remote key.
        rkey: u32,
        /// Payload (shared, zero-copy).
        data: Bytes,
        /// Requester cookie for the ack.
        wr_id: u64,
        /// Requester wants a completion.
        signaled: bool,
    },
    /// Write with immediate: consumes a RECV at the responder.
    WriteImm {
        /// Remote destination address.
        raddr: u64,
        /// Remote key.
        rkey: u32,
        /// Payload (shared, zero-copy).
        data: Bytes,
        /// Immediate value delivered in the responder's CQE.
        imm: u32,
        /// Requester cookie for the ack.
        wr_id: u64,
        /// Requester wants a completion.
        signaled: bool,
    },
    /// Two-sided send: scattered per the responder's posted RECV.
    Send {
        /// Payload (shared, zero-copy).
        data: Bytes,
        /// Requester cookie for the ack.
        wr_id: u64,
        /// Requester wants a completion.
        signaled: bool,
    },
    /// Read request.
    Read {
        /// Remote source address.
        raddr: u64,
        /// Remote key.
        rkey: u32,
        /// Bytes requested.
        len: u32,
        /// Requester cookie.
        wr_id: u64,
    },
    /// Durability flush (0-byte READ carrying the range to drain).
    Flush {
        /// Remote range start.
        raddr: u64,
        /// Remote key.
        rkey: u32,
        /// Range length.
        len: u32,
        /// Requester cookie.
        wr_id: u64,
    },
    /// Remote compare-and-swap.
    Cas {
        /// Remote target (8-byte aligned u64).
        raddr: u64,
        /// Remote key.
        rkey: u32,
        /// Compare value.
        cmp: u64,
        /// Swap value.
        swp: u64,
        /// Requester cookie.
        wr_id: u64,
    },
    /// Read response with the data.
    ReadResp {
        /// Returned bytes (shared, zero-copy).
        data: Bytes,
        /// Echoed cookie.
        wr_id: u64,
    },
    /// Flush acknowledgement (data is durable at the responder).
    FlushResp {
        /// Echoed cookie.
        wr_id: u64,
    },
    /// CAS response with the original value.
    CasResp {
        /// Value before the swap attempt.
        orig: u64,
        /// Echoed cookie.
        wr_id: u64,
    },
    /// Positive acknowledgement for Write/WriteImm/Send.
    Ack {
        /// Echoed cookie.
        wr_id: u64,
        /// Whether the requester asked for a completion.
        signaled: bool,
        /// Payload length that was transferred (for the CQE).
        byte_len: u32,
    },
    /// Negative acknowledgement (access refused, no RECV posted, or a
    /// PSN gap).
    Nak {
        /// Echoed cookie (0 on a [`NakReason::PsnSequenceError`], which
        /// answers no one request).
        wr_id: u64,
        /// Reason.
        reason: NakReason,
    },
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NakReason {
    /// MR key/range/permission check failed.
    RemoteAccess,
    /// No RECV posted for a two-sided operation.
    ReceiverNotReady,
    /// Packet arrived on a QP not connected to the sender.
    NotConnected,
    /// A reliable request arrived past the expected PSN: an earlier one
    /// was lost. The NAK's PSN is the expected one; the requester treats
    /// it as an ACK of everything below and resends from it.
    PsnSequenceError,
}

impl PacketKind {
    /// The requester's cookie when this is a request (the value a NAK
    /// must echo); `None` for responses and acks.
    pub fn request_wr_id(&self) -> Option<u64> {
        match self {
            PacketKind::Write { wr_id, .. }
            | PacketKind::WriteImm { wr_id, .. }
            | PacketKind::Send { wr_id, .. }
            | PacketKind::Read { wr_id, .. }
            | PacketKind::Flush { wr_id, .. }
            | PacketKind::Cas { wr_id, .. } => Some(*wr_id),
            PacketKind::ReadResp { .. }
            | PacketKind::FlushResp { .. }
            | PacketKind::CasResp { .. }
            | PacketKind::Ack { .. }
            | PacketKind::Nak { .. } => None,
        }
    }
}

impl Packet {
    /// Bytes this packet occupies on the wire.
    pub fn wire_size(&self) -> usize {
        let payload = match &self.kind {
            PacketKind::Write { data, .. }
            | PacketKind::WriteImm { data, .. }
            | PacketKind::Send { data, .. }
            | PacketKind::ReadResp { data, .. } => data.len(),
            PacketKind::Cas { .. } | PacketKind::CasResp { .. } => 16,
            PacketKind::Read { .. }
            | PacketKind::Flush { .. }
            | PacketKind::FlushResp { .. }
            | PacketKind::Ack { .. }
            | PacketKind::Nak { .. } => 0,
        };
        HEADER_BYTES + payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let w = Packet {
            src_nic: 0,
            src_qpn: 1,
            dst_qpn: 2,
            psn: 0,
            reliable: false,
            op: 0,
            kind: PacketKind::Write {
                raddr: 0,
                rkey: 0,
                data: vec![0; 100].into(),
                wr_id: 0,
                signaled: false,
            },
        };
        assert_eq!(w.wire_size(), HEADER_BYTES + 100);
        let ack = Packet {
            src_nic: 0,
            src_qpn: 1,
            dst_qpn: 2,
            psn: 0,
            reliable: false,
            op: 0,
            kind: PacketKind::Ack {
                wr_id: 0,
                signaled: true,
                byte_len: 100,
            },
        };
        assert_eq!(ack.wire_size(), HEADER_BYTES);
        let cas = Packet {
            src_nic: 0,
            src_qpn: 1,
            dst_qpn: 2,
            psn: 0,
            reliable: false,
            op: 0,
            kind: PacketKind::Cas {
                raddr: 0,
                rkey: 0,
                cmp: 0,
                swp: 0,
                wr_id: 0,
            },
        };
        assert_eq!(cas.wire_size(), HEADER_BYTES + 16);
    }
}
