//! Group-operation metadata layout.
//!
//! For every group operation the client builds one metadata message that
//! is SENT down the chain unchanged. Each replica's pre-posted RECV
//! scatters *its own record* of the message straight into the
//! descriptor fields of its pre-posted WQEs (remote work request
//! manipulation) and the whole message into a staging buffer from which
//! the forwarding SEND gathers.
//!
//! ```text
//! offset 0           4     8            8+8g                end
//!        ┌───────────┬─────┬────────────┬────────────────────┐
//!        │ imm (u32) │ op  │ results[g] │ records[n] (48 B)  │
//!        └───────────┴─────┴────────────┴────────────────────┘
//! ```
//!
//! * `imm` — the operation sequence number, scattered into the tail's
//!   WRITE_WITH_IMM so the client can correlate the group ACK.
//! * `results` — one u64 per group member; gCAS replicas CAS their
//!   original value into their own slot *of the staged copy*, so the
//!   forwarded message accumulates the result map (paper §4.2).
//! * `records` — one 48-byte record per replica with the absolute
//!   addresses/lengths that replica's WQEs must execute. The paper
//!   quotes ≤ 32 B per node for its three primitives; ours is 48 B
//!   because the interleaved-flush descriptor travels in the same
//!   record.

use hl_rnic::Opcode;

/// Record size per replica.
pub const REC: u64 = 48;
/// Header (imm + pad) size.
pub const HDR: u64 = 8;
/// Offset of the telemetry op id (u32) in the header's pad bytes: each
/// replica's RECV scatters it straight into the `op` field of every
/// pre-posted WQE it arms, so causal spans propagate down the chain
/// with zero replica CPU.
pub const OP_OFF: u64 = 4;

/// The three pre-posted ring kinds (gFLUSH rides on the gWRITE ring as
/// an interleaved or write-of-zero-bytes operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// gWRITE (+ optional interleaved gFLUSH).
    GWrite,
    /// gMEMCPY (+ optional interleaved local flush).
    GMemcpy,
    /// gCAS with execute/result maps.
    GCas,
}

impl Primitive {
    /// All primitives, in ring order.
    pub const ALL: [Primitive; 3] = [Primitive::GWrite, Primitive::GMemcpy, Primitive::GCas];

    /// Index used for per-primitive arrays.
    pub fn idx(self) -> usize {
        match self {
            Primitive::GWrite => 0,
            Primitive::GMemcpy => 1,
            Primitive::GCas => 2,
        }
    }
}

/// Offset of the results array (size `8 * group_size`).
pub fn results_off() -> u64 {
    HDR
}

/// Offset of replica `i`'s record (0-based among replicas).
pub fn rec_off(group_size: usize, i: usize) -> u64 {
    HDR + 8 * group_size as u64 + i as u64 * REC
}

/// Total metadata message length for a group of `group_size` members
/// (`group_size - 1` replicas).
pub fn msg_len(group_size: usize) -> u64 {
    rec_off(group_size, group_size - 1)
}

/// Field offsets within a gWRITE / gMEMCPY record.
pub mod wrec {
    /// Transfer length (u32).
    pub const LEN: u64 = 0;
    /// Source address (u64): the replica's own copy (WRITE) or local
    /// copy source (gMEMCPY).
    pub const SRC: u64 = 4;
    /// Destination address (u64): next replica's region (WRITE) or
    /// local copy destination (gMEMCPY).
    pub const DST: u64 = 12;
    /// Flush opcode byte: `Flush`/`LocalFlush` to flush, `Nop` to skip.
    pub const FOP: u64 = 20;
    /// Flush range start (u64).
    pub const FADDR: u64 = 21;
    /// Flush range length (u32).
    pub const FLEN: u64 = 29;
}

/// Extra gWRITE-record fields used by the multi-client chain (within
/// the same 48-byte record).
pub mod mrec {
    /// Tail ACK destination address (u64) — the issuing client's ack
    /// buffer slot.
    pub const ACK_ADDR: u64 = 33;
    /// Tail ACK rkey (u32).
    pub const ACK_RKEY: u64 = 41;
}

/// The multi-client chain's select section, appended to the base
/// message: one entry per client, in client order. The issuing client
/// writes `WriteImm` into its own entry and `Nop` into the others, and
/// the tail's RECV scatters entry `c` over the opcode of the WRITE_IMM
/// pre-posted toward client `c`.
pub mod select {
    /// Bytes per client entry.
    pub const ENTRY: u64 = 1;
    /// The opcode byte within an entry.
    pub const OP: u64 = 0;
}

/// Field offsets within a gCAS record.
pub mod crec {
    /// CAS opcode byte: `LocalCas` to execute, `Nop` to skip (execute map).
    pub const COP: u64 = 0;
    /// Target address (u64).
    pub const TARGET: u64 = 1;
    /// Compare value (u64).
    pub const CMP: u64 = 9;
    /// Swap value (u64).
    pub const SWP: u64 = 17;
    /// Result destination (u64): this replica's slot in the staged
    /// results array.
    pub const RESULT: u64 = 25;
}

/// Builder for metadata messages. A client keeps one and
/// [`reset`](MetaMsg::reset)s it per operation, so building a message
/// reuses one buffer.
#[derive(Debug, Clone)]
pub struct MetaMsg {
    buf: Vec<u8>,
    group_size: usize,
}

impl MetaMsg {
    /// Zeroed message for a group.
    pub fn new(group_size: usize, seq: u32) -> Self {
        let mut msg = MetaMsg {
            buf: Vec::with_capacity(msg_len(group_size) as usize),
            group_size,
        };
        msg.reset(seq);
        msg
    }

    /// Start the next message in this buffer: zeroed, `seq` in the
    /// header.
    pub fn reset(&mut self, seq: u32) -> &mut Self {
        self.buf.clear();
        self.buf.resize(msg_len(self.group_size) as usize, 0);
        self.buf[..4].copy_from_slice(&seq.to_le_bytes());
        self
    }

    /// Append the multi-client select section for `clients` clients:
    /// `WriteImm` in the `issuer`'s entry, `Nop` in the others.
    pub fn set_select(&mut self, clients: usize, issuer: usize) {
        let base = msg_len(self.group_size) as usize;
        let entry = select::ENTRY as usize;
        self.buf.resize(base + clients * entry, Opcode::Nop as u8);
        self.buf[base + issuer * entry + select::OP as usize] = Opcode::WriteImm as u8;
    }

    /// Stamp the telemetry op id into the header pad (0 = untraced).
    pub fn set_op(&mut self, op: u32) {
        let off = OP_OFF as usize;
        self.buf[off..off + 4].copy_from_slice(&op.to_le_bytes());
    }

    /// Set a member's result-map slot (the client pre-fills its own).
    pub fn set_result(&mut self, member: usize, v: u64) {
        let off = (results_off() + member as u64 * 8) as usize;
        self.buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn rec(&mut self, i: usize) -> &mut [u8] {
        let off = rec_off(self.group_size, i) as usize;
        &mut self.buf[off..off + REC as usize]
    }

    /// Fill replica `i`'s record for gWRITE/gMEMCPY.
    #[allow(clippy::too_many_arguments)]
    pub fn set_wrec(
        &mut self,
        i: usize,
        len: u32,
        src: u64,
        dst: u64,
        flush_op: Opcode,
        flush_addr: u64,
        flush_len: u32,
    ) {
        let r = self.rec(i);
        r[wrec::LEN as usize..wrec::LEN as usize + 4].copy_from_slice(&len.to_le_bytes());
        r[wrec::SRC as usize..wrec::SRC as usize + 8].copy_from_slice(&src.to_le_bytes());
        r[wrec::DST as usize..wrec::DST as usize + 8].copy_from_slice(&dst.to_le_bytes());
        r[wrec::FOP as usize] = flush_op as u8;
        r[wrec::FADDR as usize..wrec::FADDR as usize + 8]
            .copy_from_slice(&flush_addr.to_le_bytes());
        r[wrec::FLEN as usize..wrec::FLEN as usize + 4].copy_from_slice(&flush_len.to_le_bytes());
    }

    /// Fill replica `i`'s record for gCAS.
    pub fn set_crec(
        &mut self,
        i: usize,
        execute: bool,
        target: u64,
        cmp: u64,
        swp: u64,
        result: u64,
    ) {
        let r = self.rec(i);
        r[crec::COP as usize] = if execute {
            Opcode::LocalCas as u8
        } else {
            Opcode::Nop as u8
        };
        r[crec::TARGET as usize..crec::TARGET as usize + 8].copy_from_slice(&target.to_le_bytes());
        r[crec::CMP as usize..crec::CMP as usize + 8].copy_from_slice(&cmp.to_le_bytes());
        r[crec::SWP as usize..crec::SWP as usize + 8].copy_from_slice(&swp.to_le_bytes());
        r[crec::RESULT as usize..crec::RESULT as usize + 8].copy_from_slice(&result.to_le_bytes());
    }

    /// The serialized message.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Parse the results array out of an ACK payload.
pub fn parse_results(ack: &[u8], group_size: usize) -> Vec<u64> {
    (0..group_size)
        .map(|i| {
            let off = i * 8;
            u64::from_le_bytes(ack[off..off + 8].try_into().unwrap())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous() {
        let g = 3;
        assert_eq!(results_off(), 8);
        assert_eq!(rec_off(g, 0), 8 + 24);
        assert_eq!(rec_off(g, 1), 8 + 24 + 48);
        assert_eq!(msg_len(g), 8 + 24 + 2 * 48);
    }

    #[test]
    fn seq_in_header() {
        let m = MetaMsg::new(3, 0xdead_beef);
        assert_eq!(&m.bytes()[..4], &0xdead_beefu32.to_le_bytes());
    }

    #[test]
    fn wrec_fields_land_at_offsets() {
        let g = 4;
        let mut m = MetaMsg::new(g, 1);
        m.set_wrec(2, 4096, 0x1000, 0x2000, Opcode::Flush, 0x2000, 4096);
        let base = rec_off(g, 2) as usize;
        let b = m.bytes();
        assert_eq!(
            u32::from_le_bytes(b[base..base + 4].try_into().unwrap()),
            4096
        );
        assert_eq!(
            u64::from_le_bytes(b[base + 4..base + 12].try_into().unwrap()),
            0x1000
        );
        assert_eq!(
            u64::from_le_bytes(b[base + 12..base + 20].try_into().unwrap()),
            0x2000
        );
        assert_eq!(b[base + 20], Opcode::Flush as u8);
    }

    #[test]
    fn crec_execute_map_controls_opcode() {
        let g = 3;
        let mut m = MetaMsg::new(g, 1);
        m.set_crec(0, true, 0x100, 1, 2, 0x8);
        m.set_crec(1, false, 0x100, 1, 2, 0x10);
        let b = m.bytes();
        assert_eq!(b[rec_off(g, 0) as usize], Opcode::LocalCas as u8);
        assert_eq!(b[rec_off(g, 1) as usize], Opcode::Nop as u8);
    }

    #[test]
    fn mrec_fields_fit_in_record() {
        // The multi-client ACK descriptor shares the 48-byte record,
        // checked at compile time.
        const {
            assert!(mrec::ACK_ADDR + 8 <= REC);
            assert!(mrec::ACK_RKEY + 4 <= REC);
            // And does not overlap the gWRITE forwarding fields.
            assert!(mrec::ACK_ADDR >= wrec::FLEN + 4);
        }
    }

    #[test]
    fn reset_reuses_the_buffer_and_clears_it() {
        let g = 3;
        let mut m = MetaMsg::new(g, 1);
        m.set_wrec(1, 4096, 0x1000, 0x2000, Opcode::Flush, 0x2000, 4096);
        m.set_select(4, 2);
        let ptr = m.bytes().as_ptr();
        m.reset(2);
        assert_eq!(m.bytes(), MetaMsg::new(g, 2).bytes());
        assert_eq!(m.bytes().as_ptr(), ptr, "reset reallocated");
    }

    #[test]
    fn select_section_follows_the_base_message() {
        let g = 3;
        let mut m = MetaMsg::new(g, 1);
        m.set_select(3, 1);
        let base = msg_len(g) as usize;
        assert_eq!(
            &m.bytes()[base..],
            &[Opcode::Nop as u8, Opcode::WriteImm as u8, Opcode::Nop as u8]
        );
    }

    #[test]
    fn results_roundtrip() {
        let g = 3;
        let mut m = MetaMsg::new(g, 1);
        m.set_result(0, 11);
        m.set_result(2, 33);
        let res = parse_results(&m.bytes()[results_off() as usize..], g);
        assert_eq!(res, vec![11, 0, 33]);
    }
}
