//! The HyperLoop client: issues group operations and dispatches ACKs.
//!
//! The client is the chain head (the paper's transaction coordinator).
//! Issuing a group operation is three steps and involves no replica CPU:
//!
//! 1. apply the operation to the client's *own* copy of the replicated
//!    region (the client is a group member too);
//! 2. build the metadata message ([`crate::metadata::MetaMsg`]) whose
//!    per-replica records are the descriptors every downstream NIC will
//!    execute;
//! 3. post `WRITE [FLUSH] SEND` (gWRITE) or just `SEND` (gMEMCPY/gCAS)
//!    on the ring's outbound QP.
//!
//! The tail replica's NIC WRITE_IMMs the accumulated result map into the
//! client's ACK buffer; a zero-CPU CQ callback correlates the immediate
//! (sequence number) with the pending table and fires the caller's
//! completion closure.

use crate::group::{Backpressure, GroupRef, OnDone, OpResult};
use crate::metadata::{self, Primitive};
use crate::wire::{self, AckRing, OneSided};
use hl_cluster::World;
use hl_rnic::Opcode;
use hl_sim::telemetry::Stage;
use hl_sim::{Engine, OpKind, SimTime};
use std::rc::Rc;

/// Handle used by applications and benchmarks to issue group operations.
#[derive(Clone)]
pub struct HyperLoopClient {
    group: GroupRef,
}

impl HyperLoopClient {
    /// Wrap a built group and subscribe the ACK dispatchers. They hold
    /// the group weakly, and a retire unsubscribes them.
    pub fn new(group: GroupRef, w: &mut World) -> Self {
        let ch = group.borrow().cfg.client;
        for prim in Primitive::ALL {
            let weak = Rc::downgrade(&group);
            let ack_rcq = group.borrow().client_rings[prim.idx()].ack.rcq;
            w.subscribe_cq_callback(ch, ack_rcq, move |cqe, w, eng| {
                if let Some(rc) = weak.upgrade() {
                    dispatch_ack(&rc, cqe, w, eng);
                }
            });
        }
        HyperLoopClient { group }
    }

    /// The underlying group (stats, layout, recovery hooks).
    pub fn group(&self) -> &GroupRef {
        &self.group
    }

    /// Group size (members incl. the client).
    pub fn group_size(&self) -> usize {
        self.group.borrow().g
    }

    /// gWRITE: replicate `data` at `offset` of the replicated region on
    /// every member. With `flush`, the write is durable on every member
    /// before the ACK (interleaved gFLUSH).
    pub fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let mut guard = self.group.borrow_mut();
        let inner = &mut *guard;
        let slot = inner.take_credit(Primitive::GWrite)?;
        let seq = inner.alloc_seq();
        let n = inner.n_replicas();
        let ch = inner.cfg.client;

        // 1. Local apply (the client is the head member).
        let local = inner.client_rep.at(offset);
        w.host(ch)
            .mem
            .write(local, data)
            .expect("offset in rep region");
        if flush {
            w.host(ch).mem.flush(local, data.len()).unwrap();
        }

        // 2. Metadata.
        let op = w.telemetry.begin_op(eng.now(), OpKind::GWrite, ch.0);
        let msg = inner.msg.reset(seq);
        msg.set_op(op);
        for i in 0..n.saturating_sub(1) {
            let src = inner.replica_rep[i].at(offset);
            let dst = inner.replica_rep[i + 1].at(offset);
            let fop = if flush { Opcode::Flush } else { Opcode::Nop };
            msg.set_wrec(i, data.len() as u32, src, dst, fop, dst, data.len() as u32);
        }

        // 3. Post WRITE [FLUSH] SEND toward replica 0.
        let data = OneSided {
            write_from: Some(local),
            flush,
            raddr: inner.replica_rep[0].at(offset),
            rkey: inner.rep_rkeys[0],
            len: data.len() as u32,
        };
        self.finish_issue(
            inner,
            w,
            eng,
            Primitive::GWrite,
            seq,
            slot,
            Some(data),
            op,
            done,
        )
    }

    /// Standalone gFLUSH: make `[offset, offset+len)` durable on every
    /// member (a gWRITE-ring operation carrying no data).
    pub fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let mut guard = self.group.borrow_mut();
        let inner = &mut *guard;
        let slot = inner.take_credit(Primitive::GWrite)?;
        let seq = inner.alloc_seq();
        let n = inner.n_replicas();
        let ch = inner.cfg.client;

        let local = inner.client_rep.at(offset);
        w.host(ch).mem.flush(local, len as usize).unwrap();

        let op = w.telemetry.begin_op(eng.now(), OpKind::GFlush, ch.0);
        let msg = inner.msg.reset(seq);
        msg.set_op(op);
        for i in 0..n.saturating_sub(1) {
            let src = inner.replica_rep[i].at(offset);
            let dst = inner.replica_rep[i + 1].at(offset);
            // Zero-byte write + real flush of the downstream range.
            msg.set_wrec(i, 0, src, dst, Opcode::Flush, dst, len);
        }

        let data = OneSided {
            write_from: None,
            flush: true,
            raddr: inner.replica_rep[0].at(offset),
            rkey: inner.rep_rkeys[0],
            len,
        };
        self.finish_issue(
            inner,
            w,
            eng,
            Primitive::GWrite,
            seq,
            slot,
            Some(data),
            op,
            done,
        )
    }

    /// gMEMCPY: every member's NIC copies `len` bytes from `src_off` to
    /// `dst_off` within its replicated region (log → database apply).
    #[allow(clippy::too_many_arguments)]
    pub fn gmemcpy(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        src_off: u64,
        dst_off: u64,
        len: u32,
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let mut guard = self.group.borrow_mut();
        let inner = &mut *guard;
        let slot = inner.take_credit(Primitive::GMemcpy)?;
        let seq = inner.alloc_seq();
        let n = inner.n_replicas();
        let ch = inner.cfg.client;

        // Local apply on the client's copy.
        let src = inner.client_rep.at(src_off);
        let dst = inner.client_rep.at(dst_off);
        w.host(ch).mem.copy_within(src, dst, len as usize).unwrap();
        if flush {
            w.host(ch).mem.flush(dst, len as usize).unwrap();
        }

        let op = w.telemetry.begin_op(eng.now(), OpKind::GMemcpy, ch.0);
        let msg = inner.msg.reset(seq);
        msg.set_op(op);
        for i in 0..n {
            let src = inner.replica_rep[i].at(src_off);
            let dst = inner.replica_rep[i].at(dst_off);
            let fop = if flush {
                Opcode::LocalFlush
            } else {
                Opcode::Nop
            };
            msg.set_wrec(i, len, src, dst, fop, dst, len);
        }
        self.finish_issue(inner, w, eng, Primitive::GMemcpy, seq, slot, None, op, done)
    }

    /// gCAS: compare-and-swap the u64 at `offset` on the members whose
    /// bit is set in `exec_map` (bit 0 = client). The completion carries
    /// the per-member result map (original values).
    #[allow(clippy::too_many_arguments)]
    pub fn gcas(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        cmp: u64,
        swp: u64,
        exec_map: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let mut guard = self.group.borrow_mut();
        let inner = &mut *guard;
        let slot = inner.take_credit(Primitive::GCas)?;
        let seq = inner.alloc_seq();
        let n = inner.n_replicas();
        let ch = inner.cfg.client;

        let op = w.telemetry.begin_op(eng.now(), OpKind::GCas, ch.0);
        let msg = inner.msg.reset(seq);
        msg.set_op(op);
        // Client-local CAS (member 0).
        if exec_map & 1 != 0 {
            let addr = inner.client_rep.at(offset);
            let orig = w.host(ch).mem.compare_and_swap_u64(addr, cmp, swp).unwrap();
            msg.set_result(0, orig);
        }
        for i in 0..n {
            let member = i + 1;
            let execute = exec_map & (1 << member) != 0;
            let target = inner.replica_rep[i].at(offset);
            // The replica CASes its original value into its own slot of
            // the staged message so the forwarded copy accumulates the
            // result map.
            let result = inner.rings.programs[i][Primitive::GCas.idx()].staging_slot(slot)
                + metadata::results_off()
                + member as u64 * 8;
            msg.set_crec(i, execute, target, cmp, swp, result);
        }
        self.finish_issue(inner, w, eng, Primitive::GCas, seq, slot, None, op, done)
    }

    /// Common tail of every issue path: stage the metadata message built
    /// in `inner.msg`, post the operation's `[WRITE] [FLUSH] SEND`, record
    /// it pending and ring the doorbell.
    #[allow(clippy::too_many_arguments)]
    fn finish_issue(
        &self,
        inner: &mut crate::group::GroupInner,
        w: &mut World,
        eng: &mut Engine<World>,
        prim: Primitive,
        seq: u32,
        slot: u64,
        data: Option<OneSided>,
        op: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let ch = inner.cfg.client;
        let ring = &inner.client_rings[prim.idx()];
        let qp_out = ring.out.qpn;
        let staging = ring
            .staging
            .at((slot % inner.cfg.ring_slots as u64) * inner.msg_len);
        w.host(ch)
            .mem
            .write(staging, inner.msg.bytes())
            .expect("staging ring in arena");
        wire::post_op(
            &mut w.hosts[ch.0],
            qp_out,
            seq,
            op,
            data,
            staging,
            inner.msg_len,
        );
        inner.register_pending(seq, prim, slot, eng.now(), op, done);
        w.telemetry
            .stage(eng.now(), op, Stage::ClientPost, ch.0, qp_out);
        w.ring_doorbell(ch, qp_out, eng);
        Ok(seq)
    }
}

fn dispatch_ack(group: &GroupRef, cqe: hl_rnic::Cqe, w: &mut World, eng: &mut Engine<World>) {
    if !AckRing::is_ack(&cqe) {
        return;
    }
    let mut inner = group.borrow_mut();
    let Some(p) = inner.complete_pending(cqe.imm) else {
        return;
    };
    let ch = inner.cfg.client;
    let slots = inner.cfg.ring_slots as u64;
    // gCAS: the client's own result (member 0) is in the ACK too, since
    // the tail forwards the staged copy the client pre-filled.
    let results = inner.client_rings[p.prim.idx()]
        .ack
        .complete(w, p.slot, p.slot + slots);
    let latency = eng.now().duration_since(p.issued_at);
    drop(inner);
    // The ACK WRITE_IMM carried the op id end to end; fall back to the
    // pending record for ops issued before tracing was enabled.
    let op = if cqe.op != 0 { cqe.op } else { p.op };
    w.telemetry.end_op(eng.now(), op, ch.0);
    if w.telemetry.enabled() {
        let label = match p.prim {
            Primitive::GWrite => "prim=gWRITE-ring",
            Primitive::GMemcpy => "prim=gMEMCPY",
            Primitive::GCas => "prim=gCAS",
        };
        w.telemetry
            .metrics
            .histogram_record("hyperloop_op_latency_ns", label, latency.as_nanos());
        let now = eng.now();
        w.telemetry
            .series
            .record(now, "hyperloop_op_latency_ns", label, latency.as_nanos());
    }
    if let Some(done) = p.done {
        done(
            w,
            eng,
            OpResult {
                seq: cqe.imm,
                results,
                latency,
            },
        );
    }
}

/// Crate-internal pending-table handles (kept on `GroupInner` so the
/// dispatcher and issue paths share them).
pub(crate) struct CompletedPending {
    pub prim: Primitive,
    pub issued_at: SimTime,
    pub slot: u64,
    pub op: u32,
    pub done: Option<OnDone>,
}
