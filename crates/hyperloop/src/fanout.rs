//! Fan-out replication offload (paper §7, "Supporting other replication
//! protocols").
//!
//! In FaRM-style primary/backup replication a single primary coordinates
//! all backups. The paper sketches how HyperLoop's two mechanisms let
//! the *client* offload that coordination to the **primary's NIC**:
//! "the client can offload these operations to the primary's NIC and
//! manage the locks and logs in backups via the primary's NIC without
//! the need for polling in the primary and the backups".
//!
//! The construction here uses exactly the machinery of the chain:
//!
//! * the client WRITEs data + SENDs metadata to the primary;
//! * the primary pre-posts, **per backup**, a `WAIT(client-recv CQ) ·
//!   WRITE · SEND` bundle whose descriptors the incoming metadata
//!   rewrites — all the WAITs watch the same recv CQ, so one client
//!   SEND triggers every backup's transfer in parallel;
//! * each backup pre-posts a responder slot (`WAIT(recv) · SEND(ack)`)
//!   whose ack lands on a **shared acknowledgement CQ** at the primary;
//! * the primary's ACK queue pre-posts `WAIT(shared ack CQ, count = n)
//!   · WRITE_IMM(client)` — the WAIT's counting semantics aggregate all
//!   backup acks before the group ACK fires.
//!
//! Both bundles are tables in `program.rs`; the primary and every
//! backup each run a replenisher for the slots on their own NIC.
//!
//! Compared to the chain, fan-out halves the dependency depth (two NIC
//! hops instead of n) but serializes the payload n times on the
//! primary's egress port and concentrates QP state there — the paper's
//! reason to prefer chains (§7: "at most one active write-QP per
//! active partition").

use crate::group::{OnDone, OpResult};
use crate::metadata::{self, MetaMsg};
use crate::program::{self, Recv, SlotProgram};
use crate::replica::{self, Offload, Rings};
use crate::wire::{self, AckRing, OneSided, PendingTable, Qp};
use hl_cluster::World;
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::{Access, Opcode};
use hl_sim::{Engine, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Fan-out group configuration.
#[derive(Debug, Clone)]
pub struct FanoutConfig {
    /// The client (transaction coordinator).
    pub client: HostId,
    /// The primary whose NIC coordinates the backups.
    pub primary: HostId,
    /// The backups.
    pub backups: Vec<HostId>,
    /// Replicated-region size.
    pub rep_bytes: u64,
    /// Pre-posted slots.
    pub ring_slots: u32,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig {
            client: HostId(0),
            primary: HostId(1),
            backups: Vec::new(),
            rep_bytes: 1 << 20,
            ring_slots: 64,
        }
    }
}

struct Pending {
    issued_at: SimTime,
    done: Option<OnDone>,
}

/// Shared state of a fan-out group.
pub struct FanoutInner {
    cfg: FanoutConfig,
    msg_len: u64,
    client_rep: Region,
    primary_rep: Region,
    primary_rep_rkey: u32,
    backup_reps: Vec<Region>,
    /// Client-side out QP (to the primary).
    out: Qp,
    tx_staging: Region,
    ack: AckRing,
    /// The primary's program (row 0) and each backup's (row `1+b`), and
    /// the client's credits against them.
    rings: Rings,
    pending: PendingTable<Pending>,
    /// The buffer every operation's metadata message is built in.
    msg: MetaMsg,
    /// Completed operations.
    pub acked: u64,
}

impl Offload for FanoutInner {
    fn rings(&mut self) -> &mut Rings {
        &mut self.rings
    }
}

/// Shared handle.
pub type FanoutRef = Rc<RefCell<FanoutInner>>;

/// Builds the fan-out group and pre-posts every ring.
pub struct FanoutBuilder {
    cfg: FanoutConfig,
}

impl FanoutBuilder {
    /// Start from a config.
    pub fn new(cfg: FanoutConfig) -> Self {
        assert!(!cfg.backups.is_empty(), "fan-out needs >= 1 backup");
        FanoutBuilder { cfg }
    }

    /// Allocate, wire and pre-post.
    pub fn build(self, w: &mut World) -> FanoutRef {
        let cfg = self.cfg;
        let slots = cfg.ring_slots;
        // Metadata message reuses the chain layout: one record per
        // backup plus one for the primary (member count = backups + 2).
        // Record b+1 describes backup b's transfer (record 0 is the
        // primary's own write, performed by the client's WRITE).
        let g = cfg.backups.len() + 2;
        let msg_len = metadata::msg_len(g);
        let (ch, ph) = (cfg.client, cfg.primary);
        let data_access = Access::REMOTE_WRITE | Access::REMOTE_READ;

        // --- client ------------------------------------------------------
        let client_rep = wire::region(w, ch, "rep", cfg.rep_bytes);
        let tx_staging = wire::region(w, ch, "tx", slots as u64 * msg_len);
        let out = wire::op_qp(w, ch, slots);
        let ack = AckRing::new(w, ch, slots, 0);

        // --- primary: inbound from the client, and the CQ every backup's
        // ack lands on (the recv side of the per-backup ack QPs) — its
        // production count is what the aggregating WAIT watches.
        let primary_rep = wire::region(w, ph, "rep", cfg.rep_bytes);
        let primary_mr = w
            .host(ph)
            .nic
            .register_mr(primary_rep.addr, primary_rep.len, data_access);
        let pri_staging = wire::region(w, ph, "staging", slots as u64 * msg_len);
        let pri_in = wire::recv_qp(w, ph);
        w.connect_qps(ch, out.qpn, ph, pri_in.qpn);
        let fan_in_cq = wire::cq(w, ph);

        // --- backups: inbound from the primary, responder queue back ----
        let mut programs = vec![Vec::new()];
        let mut backup_reps = Vec::new();
        let mut transfers = Vec::new(); // per backup: (its transfer record, rkey of its copy)
        let mut peers = Vec::new(); // per backup: (QP from the primary, QP back to it)
        for (b, &bh) in cfg.backups.iter().enumerate() {
            let rep = wire::region(w, bh, "rep", cfg.rep_bytes);
            let mr = w.host(bh).nic.register_mr(rep.addr, rep.len, data_access);
            let inq = wire::recv_qp(w, bh);
            let steps = program::fanout_backup(inq.rcq, rep.addr);
            let ackq = wire::qp(w, bh, program::sq_wqes(&steps, 0, slots));
            programs.push(vec![SlotProgram::new(
                bh,
                vec![ackq],
                Recv::Qp(inq),
                None,
                vec![],
                steps,
                slots,
            )]);
            transfers.push((metadata::rec_off(g, b + 1), mr.rkey));
            peers.push((inq.qpn, ackq.qpn));
            backup_reps.push(rep);
        }

        // --- primary: one queue toward the client, one per backup, and
        // the fan-in receivers sharing `fan_in_cq`.
        let steps =
            program::fanout_primary(msg_len, pri_in.rcq, fan_in_cq, &transfers, ack.target());
        let ack_out = wire::qp(w, ph, program::sq_wqes(&steps, 0, slots));
        w.connect_qps(ph, ack_out.qpn, ch, ack.qp);
        let mut queues = vec![ack_out];
        let mut fan_in = Vec::new();
        for (b, &bh) in cfg.backups.iter().enumerate() {
            let (b_in, b_ack) = peers[b];
            let to_b = wire::qp(w, ph, program::sq_wqes(&steps, 1 + b, slots));
            w.connect_qps(ph, to_b.qpn, bh, b_in);
            let from_b = wire::recv_qp_into(w, ph, fan_in_cq);
            w.connect_qps(bh, b_ack, ph, from_b.qpn);
            queues.push(to_b);
            fan_in.push(from_b.qpn);
        }
        programs[0].push(SlotProgram::new(
            ph,
            queues,
            Recv::Qp(pri_in),
            Some((pri_staging, msg_len)),
            fan_in,
            steps,
            slots,
        ));

        Rc::new(RefCell::new(FanoutInner {
            msg_len,
            client_rep,
            primary_rep,
            primary_rep_rkey: primary_mr.rkey,
            backup_reps,
            out,
            tx_staging,
            ack,
            rings: Rings::prepost(programs, slots, slots / 2, w),
            pending: PendingTable::new(),
            msg: MetaMsg::new(g, 0),
            acked: 0,
            cfg,
        }))
    }
}

/// The fan-out client: gWRITE with primary-coordinated parallel backups.
#[derive(Clone)]
pub struct FanoutClient {
    inner: FanoutRef,
}

impl FanoutClient {
    /// Wrap a built group and subscribe the ACK dispatcher.
    pub fn new(inner: FanoutRef, w: &mut World) -> Self {
        let (ch, ack_rcq) = {
            let i = inner.borrow();
            (i.cfg.client, i.ack.rcq)
        };
        let rc = inner.clone();
        w.subscribe_cq_callback(ch, ack_rcq, move |cqe, w, eng| {
            if !AckRing::is_ack(&cqe) {
                return;
            }
            let mut i = rc.borrow_mut();
            let Some(p) = i.pending.remove(cqe.imm) else {
                return;
            };
            i.acked += 1;
            i.rings.credits.complete(0);
            let results = i.ack.complete(w, cqe.imm as u64, cqe.imm as u64);
            let latency = eng.now().duration_since(p.issued_at);
            drop(i);
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
        });
        FanoutClient { inner }
    }

    /// The shared state.
    pub fn group(&self) -> &FanoutRef {
        &self.inner
    }

    /// Member address: 0 = client, 1 = primary, 2.. = backups.
    pub fn member_addr(&self, m: usize, offset: u64) -> u64 {
        let i = self.inner.borrow();
        match m {
            0 => i.client_rep.at(offset),
            1 => i.primary_rep.at(offset),
            b => i.backup_reps[b - 2].at(offset),
        }
    }

    /// Host of member `m`.
    pub fn member_host(&self, m: usize) -> HostId {
        let i = self.inner.borrow();
        match m {
            0 => i.cfg.client,
            1 => i.cfg.primary,
            b => i.cfg.backups[b - 2],
        }
    }

    /// Fan-out gWRITE: data lands on the primary and every backup; the
    /// ACK fires only after all backups acknowledged (aggregated by the
    /// primary's NIC WAIT, no CPU anywhere).
    pub fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        done: OnDone,
    ) -> Result<u32, crate::Backpressure> {
        let mut guard = self.inner.borrow_mut();
        let i = &mut *guard;
        let slot = i.rings.credits.take(0)?;
        let seq = slot as u32;
        let ch = i.cfg.client;

        // Local apply.
        let local = i.client_rep.at(offset);
        w.host(ch).mem.write(local, data).unwrap();

        // Metadata: record b+1 = backup b's transfer out of the
        // PRIMARY's copy.
        let msg = i.msg.reset(seq);
        let src = i.primary_rep.at(offset);
        for (b, rep) in i.backup_reps.iter().enumerate() {
            let dst = rep.at(offset);
            msg.set_wrec(b + 1, data.len() as u32, src, dst, Opcode::Nop, dst, 0);
        }
        let staging = i
            .tx_staging
            .at((slot % i.cfg.ring_slots as u64) * i.msg_len);
        w.host(ch).mem.write(staging, msg.bytes()).unwrap();

        // Client: WRITE(data -> primary) + SEND(metadata).
        let to_primary = OneSided {
            write_from: Some(local),
            flush: false,
            raddr: src,
            rkey: i.primary_rep_rkey,
            len: data.len() as u32,
        };
        let qp_out = i.out.qpn;
        wire::post_op(
            &mut w.hosts[ch.0],
            qp_out,
            seq,
            0,
            Some(to_primary),
            staging,
            i.msg_len,
        );
        i.pending.insert(
            seq,
            Pending {
                issued_at: eng.now(),
                done: Some(done),
            },
        );
        drop(guard);
        w.ring_doorbell(ch, qp_out, eng);
        Ok(seq)
    }
}

/// Start the fan-out replenishers: one on the primary, one per backup.
pub fn start_replenisher(
    inner: &FanoutRef,
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<hl_cluster::ProcAddr> {
    replica::start(inner, "fanout-replenish-", w, eng)
}
