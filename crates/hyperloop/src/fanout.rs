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
//! Compared to the chain, fan-out halves the dependency depth (two NIC
//! hops instead of n) but serializes the payload n times on the
//! primary's egress port and concentrates QP state there — the paper's
//! reason to prefer chains (§7: "at most one active write-QP per
//! active partition").

use crate::group::{OnDone, OpResult};
use crate::metadata::{self, MetaMsg};
use hl_cluster::World;
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::{
    field_offset, flags, Access, CqeKind, CqeStatus, Opcode, RecvWqe, ScatterEntry, Wqe, WQE_SIZE,
};
use hl_sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
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
    /// Replenisher period (primary + backups, off the critical path).
    pub replenish_period: SimDuration,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig {
            client: HostId(0),
            primary: HostId(1),
            backups: Vec::new(),
            rep_bytes: 1 << 20,
            ring_slots: 64,
            replenish_period: SimDuration::from_micros(200),
        }
    }
}

struct BackupState {
    host: HostId,
    /// Primary-side QP toward this backup.
    qp_out: u32,
    /// Backup-side QP from the primary (its recv cq feeds the WAIT).
    qp_in: u32,
    rcq_in: u32,
    /// Backup-side ack QP toward the primary.
    qp_ack: u32,
    /// Primary-side QP receiving this backup's acks (RECVs must be
    /// replenished per slot; its recv CQ is the shared aggregation CQ).
    pr_qp: u32,
    rep: Region,
    rep_rkey: u32,
    slots_posted: u64,
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
    /// Client-side out QP (to the primary).
    qp_out: u32,
    /// Client-side ACK QP.
    ack_qp: u32,
    ack_rcq: u32,
    tx_staging: Region,
    ack_buf: Region,
    ack_buf_rkey: u32,
    /// Primary-side QP receiving from the client.
    pri_qp_in: u32,
    pri_rcq_in: u32,
    /// Primary-side ACK-aggregation QP toward the client, plus the
    /// shared CQ its WAIT counts.
    pri_qp_ack_out: u32,
    shared_ack_cq: u32,
    /// Primary staging for the fanned-out metadata.
    pri_staging: Region,
    backups: Vec<BackupState>,
    pri_slots_posted: u64,
    /// Client-side credit: slots the primary has reported as posted
    /// (updated by the replenisher's control message, fabric-delayed).
    posted_seen: u64,
    pending: BTreeMap<u32, Pending>,
    next_seq: u32,
    /// Completed operations.
    pub acked: u64,
}

/// Shared handle.
pub type FanoutRef = Rc<RefCell<FanoutInner>>;

/// Builds the fan-out group and pre-posts every ring.
pub struct FanoutBuilder {
    cfg: FanoutConfig,
    gid: u32,
}

fn next_gid() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static GID: AtomicU32 = AtomicU32::new(0);
    GID.fetch_add(1, Ordering::Relaxed)
}

impl FanoutBuilder {
    /// Start from a config.
    pub fn new(cfg: FanoutConfig) -> Self {
        assert!(!cfg.backups.is_empty(), "fan-out needs >= 1 backup");
        FanoutBuilder {
            cfg,
            gid: next_gid(),
        }
    }

    /// Allocate, wire and pre-post.
    pub fn build(self, w: &mut World) -> FanoutRef {
        let cfg = self.cfg;
        let gid = self.gid;
        let slots = cfg.ring_slots;
        // Metadata message reuses the chain layout: one record per
        // backup plus one for the primary (member count = backups + 2).
        let g = cfg.backups.len() + 2;
        let msg_len = metadata::msg_len(g);
        let ch = cfg.client;
        let ph = cfg.primary;

        // --- regions ---------------------------------------------------
        let client_rep = w
            .host(ch)
            .layout
            .alloc(&format!("fo{gid}.rep"), cfg.rep_bytes, 64);
        let tx_staging =
            w.host(ch)
                .layout
                .alloc(&format!("fo{gid}.tx"), slots as u64 * msg_len, 64);
        let ack_buf = w
            .host(ch)
            .layout
            .alloc(&format!("fo{gid}.ack"), slots as u64 * 8, 64);
        let ack_mr = w
            .host(ch)
            .nic
            .register_mr(ack_buf.addr, ack_buf.len, Access::REMOTE_WRITE);

        let primary_rep = w
            .host(ph)
            .layout
            .alloc(&format!("fo{gid}.rep"), cfg.rep_bytes, 64);
        let pri_mr = w.host(ph).nic.register_mr(
            primary_rep.addr,
            primary_rep.len,
            Access::REMOTE_WRITE | Access::REMOTE_READ,
        );
        let pri_staging =
            w.host(ph)
                .layout
                .alloc(&format!("fo{gid}.staging"), slots as u64 * msg_len, 64);

        // --- client QPs --------------------------------------------------
        let out_sq =
            w.host(ch)
                .layout
                .alloc(&format!("fo{gid}.out_sq"), 3 * slots as u64 * WQE_SIZE, 64);
        let out_scq = w.host(ch).nic.create_cq();
        let out_rcq = w.host(ch).nic.create_cq();
        let qp_out = w
            .host(ch)
            .nic
            .create_qp(out_scq, out_rcq, out_sq.addr, 3 * slots);
        let ack_sq = w
            .host(ch)
            .layout
            .alloc(&format!("fo{gid}.ack_sq"), 4 * WQE_SIZE, 64);
        let ack_scq = w.host(ch).nic.create_cq();
        let ack_rcq = w.host(ch).nic.create_cq();
        let ack_qp = w.host(ch).nic.create_qp(ack_scq, ack_rcq, ack_sq.addr, 4);
        for k in 0..slots as u64 {
            w.host(ch).post_recv(
                ack_qp,
                RecvWqe {
                    wr_id: k,
                    scatter: vec![],
                },
            );
        }

        // --- primary QPs -------------------------------------------------
        let pri_in_sq = w
            .host(ph)
            .layout
            .alloc(&format!("fo{gid}.in_sq"), 4 * WQE_SIZE, 64);
        let pri_in_scq = w.host(ph).nic.create_cq();
        let pri_rcq_in = w.host(ph).nic.create_cq();
        let pri_qp_in = w
            .host(ph)
            .nic
            .create_qp(pri_in_scq, pri_rcq_in, pri_in_sq.addr, 4);
        w.connect_qps(ch, qp_out, ph, pri_qp_in);

        // Shared CQ all backup acks land on (recv side of the per-backup
        // ack QPs) — its production count is what the aggregating WAIT
        // watches.
        let shared_ack_cq = w.host(ph).nic.create_cq();

        // Primary ACK queue toward the client.
        let pri_ack_sq =
            w.host(ph)
                .layout
                .alloc(&format!("fo{gid}.ack_sq"), 2 * slots as u64 * WQE_SIZE, 64);
        let pri_ack_scq = w.host(ph).nic.create_cq();
        let pri_ack_rcq = w.host(ph).nic.create_cq();
        let pri_qp_ack_out =
            w.host(ph)
                .nic
                .create_qp(pri_ack_scq, pri_ack_rcq, pri_ack_sq.addr, 2 * slots);
        w.connect_qps(ph, pri_qp_ack_out, ch, ack_qp);

        // --- per-backup wiring -------------------------------------------
        let mut backups = Vec::new();
        for (i, &bh) in cfg.backups.iter().enumerate() {
            let rep = w
                .host(bh)
                .layout
                .alloc(&format!("fo{gid}.rep"), cfg.rep_bytes, 64);
            let mr = w.host(bh).nic.register_mr(
                rep.addr,
                rep.len,
                Access::REMOTE_WRITE | Access::REMOTE_READ,
            );
            // Primary -> backup QP (3 WQEs per slot: WAIT WRITE SEND).
            let out_sq = w.host(ph).layout.alloc(
                &format!("fo{gid}.b{i}.out_sq"),
                3 * slots as u64 * WQE_SIZE,
                64,
            );
            let oscq = w.host(ph).nic.create_cq();
            let orcq = w.host(ph).nic.create_cq();
            let qp_out = w.host(ph).nic.create_qp(oscq, orcq, out_sq.addr, 3 * slots);
            // Backup <- primary QP.
            let in_sq = w
                .host(bh)
                .layout
                .alloc(&format!("fo{gid}.in_sq"), 4 * WQE_SIZE, 64);
            let iscq = w.host(bh).nic.create_cq();
            let rcq_in = w.host(bh).nic.create_cq();
            let qp_in = w.host(bh).nic.create_qp(iscq, rcq_in, in_sq.addr, 4);
            w.connect_qps(ph, qp_out, bh, qp_in);
            // Backup -> primary ack QP (2 WQEs per slot: WAIT SEND).
            let bk_ack_sq = w.host(bh).layout.alloc(
                &format!("fo{gid}.ack_sq"),
                2 * slots as u64 * WQE_SIZE,
                64,
            );
            let bscq = w.host(bh).nic.create_cq();
            let brcq = w.host(bh).nic.create_cq();
            let qp_ack = w
                .host(bh)
                .nic
                .create_qp(bscq, brcq, bk_ack_sq.addr, 2 * slots);
            // Primary-side receiving end shares `shared_ack_cq`.
            let pr_sq =
                w.host(ph)
                    .layout
                    .alloc(&format!("fo{gid}.b{i}.ackin_sq"), 4 * WQE_SIZE, 64);
            let pr_scq = w.host(ph).nic.create_cq();
            let pr_qp = w
                .host(ph)
                .nic
                .create_qp(pr_scq, shared_ack_cq, pr_sq.addr, 4);
            w.connect_qps(bh, qp_ack, ph, pr_qp);
            backups.push(BackupState {
                host: bh,
                qp_out,
                qp_in,
                rcq_in,
                qp_ack,
                pr_qp,
                rep,
                rep_rkey: mr.rkey,
                slots_posted: 0,
            });
        }

        let inner = FanoutInner {
            msg_len,
            client_rep,
            primary_rep,
            primary_rep_rkey: pri_mr.rkey,
            qp_out,
            ack_qp,
            ack_rcq,
            tx_staging,
            ack_buf,
            ack_buf_rkey: ack_mr.rkey,
            pri_qp_in,
            pri_rcq_in,
            pri_qp_ack_out,
            shared_ack_cq,
            pri_staging,
            backups,
            pri_slots_posted: 0,
            posted_seen: slots as u64,
            pending: BTreeMap::new(),
            next_seq: 0,
            acked: 0,
            cfg,
        };
        let rc: FanoutRef = Rc::new(RefCell::new(inner));
        {
            let mut inner = rc.borrow_mut();
            for _ in 0..slots {
                post_primary_slot(&mut inner, w);
                for b in 0..inner.backups.len() {
                    post_backup_slot(&mut inner, w, b);
                }
            }
            // Arm (park) every WAIT.
            let (ph2, qps): (HostId, Vec<u32>) = {
                let mut qps = vec![inner.pri_qp_ack_out];
                qps.extend(inner.backups.iter().map(|b| b.qp_out));
                (inner.cfg.primary, qps)
            };
            for qp in qps {
                let h = &mut w.hosts[ph2.0];
                let mut outs = Vec::new();
                h.nic
                    .ring_doorbell(SimTime::ZERO, qp, &mut h.mem, &mut outs);
                debug_assert!(outs.is_empty());
            }
            for b in 0..inner.backups.len() {
                let (bh, qp) = (inner.backups[b].host, inner.backups[b].qp_ack);
                let h = &mut w.hosts[bh.0];
                let mut outs = Vec::new();
                h.nic
                    .ring_doorbell(SimTime::ZERO, qp, &mut h.mem, &mut outs);
                debug_assert!(outs.is_empty());
            }
        }
        rc
    }
}

/// Pre-post one primary slot: per-backup `WAIT(client recv CQ) · WRITE ·
/// SEND` bundles (all watching the same CQ — they fire in parallel) and
/// the `WAIT(shared ack CQ, n) · WRITE_IMM` aggregation toward the
/// client.
fn post_primary_slot(inner: &mut FanoutInner, w: &mut World) {
    let slot = inner.pri_slots_posted;
    let slots = inner.cfg.ring_slots as u64;
    let ph = inner.cfg.primary;
    let n = inner.backups.len();
    let g = n + 2;
    let msg_len = inner.msg_len;
    let staging = inner.pri_staging.at((slot % slots) * msg_len);

    let mut scatter: Vec<ScatterEntry> = vec![ScatterEntry {
        msg_off: 0,
        len: msg_len as u32,
        addr: staging,
    }];
    let se = |msg_off: u64, len: u64, addr: u64| ScatterEntry {
        msg_off: msg_off as u32,
        len: len as u32,
        addr,
    };

    for (i, b) in inner.backups.iter().enumerate() {
        // Record i+1 describes backup i's transfer (record 0 is the
        // primary's own write, performed by the client's WRITE).
        let rec = metadata::rec_off(g, i + 1);
        let host = &mut w.hosts[ph.0];
        // Threshold mode: every backup's WAIT watches the same client
        // recv CQ; slot k fires once k+1 commands have arrived.
        let wait = Wqe {
            opcode: Opcode::Wait,
            flags: flags::HW_OWNED | flags::WAIT_THRESHOLD,
            raddr: Wqe::wait_params(inner.pri_rcq_in, (slot + 1) as u32),
            activate_n: 2,
            wr_id: slot,
            ..Default::default()
        };
        host.post_send(b.qp_out, wait, false).unwrap();
        let write = Wqe {
            opcode: Opcode::Write,
            rkey: b.rep_rkey,
            wr_id: slot,
            ..Default::default()
        };
        let widx = host.post_send(b.qp_out, write, true).unwrap();
        let send = Wqe {
            opcode: Opcode::Send,
            len: msg_len as u32,
            laddr: staging,
            wr_id: slot,
            ..Default::default()
        };
        host.post_send(b.qp_out, send, true).unwrap();
        let waddr = host.nic.sq_slot_addr(b.qp_out, widx);
        scatter.extend([
            se(rec + metadata::wrec::LEN, 4, waddr + field_offset::LEN),
            se(rec + metadata::wrec::SRC, 8, waddr + field_offset::LADDR),
            se(rec + metadata::wrec::DST, 8, waddr + field_offset::RADDR),
        ]);
    }

    // ACK aggregation: slot k's group ACK fires once (k+1)·n acks have
    // been produced on the shared CQ (threshold mode — acks from
    // different backups land on one CQ via their shared recv queue).
    let host = &mut w.hosts[ph.0];
    let wait_all = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED | flags::WAIT_THRESHOLD,
        raddr: Wqe::wait_params(inner.shared_ack_cq, ((slot + 1) * n as u64) as u32),
        activate_n: 1,
        wr_id: slot,
        ..Default::default()
    };
    host.post_send(inner.pri_qp_ack_out, wait_all, false)
        .unwrap();
    let ack_addr = inner.ack_buf.at((slot % slots) * 8);
    let wimm = Wqe {
        opcode: Opcode::WriteImm,
        len: 0,
        raddr: ack_addr,
        rkey: inner.ack_buf_rkey,
        wr_id: slot,
        ..Default::default()
    };
    let widx = host.post_send(inner.pri_qp_ack_out, wimm, true).unwrap();
    let wimm_addr = host.nic.sq_slot_addr(inner.pri_qp_ack_out, widx);
    scatter.push(se(0, 4, wimm_addr + field_offset::IMM));

    w.host(ph).post_recv(
        inner.pri_qp_in,
        RecvWqe {
            wr_id: slot,
            scatter,
        },
    );
    // One RECV per backup for this slot's ack on the shared-CQ queues.
    for b in &inner.backups {
        w.host(ph).post_recv(
            b.pr_qp,
            RecvWqe {
                wr_id: slot,
                scatter: vec![],
            },
        );
    }
    inner.pri_slots_posted += 1;
}

/// Pre-post one backup responder slot: on receiving the primary's SEND,
/// ack straight back (the data arrived one-sided just before it).
fn post_backup_slot(inner: &mut FanoutInner, w: &mut World, b: usize) {
    let slot = inner.backups[b].slots_posted;
    let bh = inner.backups[b].host;
    let host = &mut w.hosts[bh.0];
    let wait = Wqe {
        opcode: Opcode::Wait,
        flags: flags::HW_OWNED,
        raddr: Wqe::wait_params(inner.backups[b].rcq_in, 1),
        activate_n: 1,
        wr_id: slot,
        ..Default::default()
    };
    host.post_send(inner.backups[b].qp_ack, wait, false)
        .unwrap();
    let ack = Wqe {
        opcode: Opcode::Send,
        len: 4,
        laddr: inner.backups[b].rep.addr, // 4 arbitrary bytes; the ack is the event
        wr_id: slot,
        ..Default::default()
    };
    host.post_send(inner.backups[b].qp_ack, ack, true).unwrap();
    // Activation comes from the WAIT; grant the SEND now so the WAIT's
    // activate_n=1 is what flips it? No: activate_n=1 flips it when the
    // WAIT fires. Post a RECV for the primary's SEND.
    host.post_recv(
        inner.backups[b].qp_in,
        RecvWqe {
            wr_id: slot,
            scatter: vec![],
        },
    );
    inner.backups[b].slots_posted += 1;
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
            (i.cfg.client, i.ack_rcq)
        };
        let rc = inner.clone();
        w.subscribe_cq_callback(ch, ack_rcq, move |cqe, w, eng| {
            if cqe.kind != CqeKind::RecvImm || cqe.status != CqeStatus::Ok {
                return;
            }
            let mut i = rc.borrow_mut();
            let Some(p) = i.pending.remove(&cqe.imm) else {
                return;
            };
            i.acked += 1;
            let ack_qp = i.ack_qp;
            w.host(i.cfg.client).post_recv(
                ack_qp,
                RecvWqe {
                    wr_id: cqe.imm as u64,
                    scatter: vec![],
                },
            );
            let latency = eng.now().duration_since(p.issued_at);
            drop(i);
            if let Some(done) = p.done {
                done(
                    w,
                    eng,
                    OpResult {
                        seq: cqe.imm,
                        results: vec![],
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
            b => i.backups[b - 2].rep.at(offset),
        }
    }

    /// Host of member `m`.
    pub fn member_host(&self, m: usize) -> HostId {
        let i = self.inner.borrow();
        match m {
            0 => i.cfg.client,
            1 => i.cfg.primary,
            b => i.backups[b - 2].host,
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
        let mut i = self.inner.borrow_mut();
        let slots = i.cfg.ring_slots as u64;
        if i.pending.len() as u64 >= slots / 2 || i.next_seq as u64 >= i.posted_seen {
            return Err(crate::Backpressure);
        }
        let seq = i.next_seq;
        i.next_seq = i.next_seq.wrapping_add(1);
        let n = i.backups.len();
        let g = n + 2;
        let ch = i.cfg.client;
        let msg_len = i.msg_len;

        // Local apply.
        let local = i.client_rep.at(offset);
        w.host(ch).mem.write(local, data).unwrap();

        // Metadata: record i+1 = backup i's transfer out of the
        // PRIMARY's copy.
        let mut msg = MetaMsg::new(g, seq);
        for (bi, b) in i.backups.iter().enumerate() {
            let src = i.primary_rep.at(offset);
            let dst = b.rep.at(offset);
            msg.set_wrec(bi + 1, data.len() as u32, src, dst, Opcode::Nop, dst, 0);
        }
        let staging = i.tx_staging.at((seq as u64 % slots) * msg_len);
        w.host(ch).mem.write(staging, msg.bytes()).unwrap();

        // Client: WRITE(data -> primary) + SEND(metadata).
        let qp_out = i.qp_out;
        let raddr = i.primary_rep.at(offset);
        let rkey = i.primary_rep_rkey;
        w.hosts[ch.0]
            .post_send(
                qp_out,
                Wqe {
                    opcode: Opcode::Write,
                    len: data.len() as u32,
                    laddr: local,
                    raddr,
                    rkey,
                    wr_id: seq as u64,
                    ..Default::default()
                },
                false,
            )
            .expect("client SQ sized");
        w.hosts[ch.0]
            .post_send(
                qp_out,
                Wqe {
                    opcode: Opcode::Send,
                    len: msg_len as u32,
                    laddr: staging,
                    wr_id: seq as u64,
                    ..Default::default()
                },
                false,
            )
            .expect("client SQ sized");
        i.pending.insert(
            seq,
            Pending {
                issued_at: eng.now(),
                done: Some(done),
            },
        );
        drop(i);
        w.ring_doorbell(ch, qp_out, eng);
        Ok(seq)
    }
}

/// Replenisher process for a fan-out group (primary + backup slots).
pub struct FanoutReplenisher {
    inner: FanoutRef,
}

impl FanoutReplenisher {
    /// Create (run it on the primary host).
    pub fn new(inner: FanoutRef) -> Self {
        FanoutReplenisher { inner }
    }
}

impl hl_cluster::Process for FanoutReplenisher {
    fn on_event(&mut self, ev: hl_cluster::ProcEvent, ctx: &mut hl_cluster::Ctx<'_>) {
        use hl_cluster::ProcEvent;
        let period = self.inner.borrow().cfg.replenish_period;
        match ev {
            ProcEvent::Started | ProcEvent::WorkDone { .. } => {
                ctx.set_timer(period, 1, SimDuration::from_nanos(500));
            }
            ProcEvent::Timer { .. } => {
                // Repost slots consumed on every ring (conservative: use
                // the primary ack queue's head, the last stage).
                let deficit = {
                    let inner = self.inner.borrow();
                    let ph = inner.cfg.primary;
                    let (head, _, _) = ctx.world.hosts[ph.0].nic.sq_state(inner.pri_qp_ack_out);
                    let mut consumed = head / 2;
                    for b in &inner.backups {
                        let (h_out, _, _) = ctx.world.hosts[ph.0].nic.sq_state(b.qp_out);
                        consumed = consumed.min(h_out / 3);
                        let (h_ack, _, _) = ctx.world.hosts[b.host.0].nic.sq_state(b.qp_ack);
                        consumed = consumed.min(h_ack / 2);
                    }
                    (consumed + inner.cfg.ring_slots as u64).saturating_sub(inner.pri_slots_posted)
                };
                if deficit > 0 {
                    let mut inner = self.inner.borrow_mut();
                    let nb = inner.backups.len();
                    for _ in 0..deficit {
                        post_primary_slot(&mut inner, ctx.world);
                        for b in 0..nb {
                            post_backup_slot(&mut inner, ctx.world, b);
                        }
                    }
                    // Report the new credit to the client (tiny control
                    // datagram, modelled as a fabric-latency update).
                    let posted = inner.pri_slots_posted;
                    let rc = self.inner.clone();
                    ctx.eng
                        .schedule(SimDuration::from_micros(2), move |_w, _e| {
                            rc.borrow_mut().posted_seen = posted;
                        });
                    // Kick all queues.
                    let ph = inner.cfg.primary;
                    let mut kicks: Vec<(HostId, u32)> = vec![(ph, inner.pri_qp_ack_out)];
                    kicks.extend(inner.backups.iter().map(|b| (ph, b.qp_out)));
                    kicks.extend(inner.backups.iter().map(|b| (b.host, b.qp_ack)));
                    drop(inner);
                    for (h, qp) in kicks {
                        ctx.world.ring_doorbell(h, qp, ctx.eng);
                    }
                }
                ctx.set_timer(period, 1, SimDuration::from_nanos(500));
            }
            _ => {}
        }
    }
}

/// Start the fan-out replenisher on the primary.
pub fn start_replenisher(
    inner: &FanoutRef,
    w: &mut World,
    eng: &mut Engine<World>,
) -> hl_cluster::ProcAddr {
    let ph = inner.borrow().cfg.primary;
    w.start_process(
        ph,
        "fanout-replenish",
        None,
        Box::new(FanoutReplenisher::new(inner.clone())),
        SimDuration::from_micros(1),
        eng,
    )
}
