//! Multi-client chains over shared receive queues (paper §5, "Multiple
//! clients can be supported in the future using shared receive queues
//! on the first replica").
//!
//! Several clients issue gWRITEs into **one** replica chain. The first
//! replica attaches one QP per client to a single SRQ, so operations
//! from any client consume the pre-posted slot ring in arrival order —
//! the NICs serialize the multi-writer log with no CPU. Two twists vs
//! the single-client chain:
//!
//! * every slot's forwarding program is client-agnostic (the metadata
//!   records carry absolute addresses, so whichever client's operation
//!   lands in slot *k* programs slot *k*'s WQEs);
//! * the tail pre-posts one WRITE_IMM *per client* per slot, and the
//!   issuing client's metadata selects its own (opcode byte stays
//!   `WriteImm`) while turning the others into NOPs — the same
//!   execute-map trick gCAS uses. The tail WAITs use threshold mode so
//!   all per-client queues trigger off the shared upstream recv CQ.

use crate::group::{OnDone, OpResult};
use crate::metadata::{self, MetaMsg};
use crate::Backpressure;
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

/// Multi-client chain configuration.
#[derive(Debug, Clone)]
pub struct MultiConfig {
    /// The clients (each on its own host).
    pub clients: Vec<HostId>,
    /// Replicas in chain order.
    pub replicas: Vec<HostId>,
    /// Replicated-region size.
    pub rep_bytes: u64,
    /// Pre-posted slots.
    pub ring_slots: u32,
    /// Replenisher period.
    pub replenish_period: SimDuration,
}

impl Default for MultiConfig {
    fn default() -> Self {
        MultiConfig {
            clients: Vec::new(),
            replicas: Vec::new(),
            rep_bytes: 1 << 20,
            ring_slots: 64,
            replenish_period: SimDuration::from_micros(200),
        }
    }
}

struct ClientState {
    host: HostId,
    /// Out QP toward replica 0.
    qp_out: u32,
    /// ACK receive QP (from the tail).
    ack_qp: u32,
    ack_rcq: u32,
    /// Metadata staging ring.
    staging: Region,
    /// ACK landing buffer + rkey.
    ack_buf: Region,
    ack_rkey: u32,
    /// This client's copy of the data (it is a chain member too).
    rep: Region,
    pending: BTreeMap<u32, (SimTime, Option<OnDone>)>,
    next_seq: u32,
    /// Tail-side ACK queue for this client.
    tail_ack_qp: u32,
}

struct ReplicaState {
    host: HostId,
    /// Receive CQ fed by the upstream (SRQ-backed on replica 0).
    prev_rcq: u32,
    /// SRQ id on replica 0 (None elsewhere).
    srq: Option<u32>,
    /// Per-client inbound QPs on replica 0; single QP elsewhere.
    qp_prev: Vec<u32>,
    /// Downstream QP (forwarding), unused on the tail.
    qp_next: u32,
    /// Metadata staging ring.
    staging: Region,
    rep: Region,
    rep_rkey: u32,
    slots_posted: u64,
}

/// Shared state of a multi-client chain.
pub struct MultiInner {
    cfg: MultiConfig,
    /// Chain group size (replicas + 1 — the issuing client is the head).
    g: usize,
    /// Base metadata length; the select section of `m` bytes follows.
    base_msg_len: u64,
    msg_len: u64,
    clients: Vec<ClientState>,
    replicas: Vec<ReplicaState>,
    /// Total operations issued across all clients (slot consumption).
    issued_total: u64,
    /// Credit: slots the replicas have reported as posted.
    posted_seen: u64,
    /// Completed operations (all clients).
    pub acked: u64,
}

/// Shared handle to the chain.
pub type MultiRef = Rc<RefCell<MultiInner>>;

/// Builds the multi-client chain.
pub struct MultiBuilder {
    cfg: MultiConfig,
    gid: u32,
}

fn next_gid() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static GID: AtomicU32 = AtomicU32::new(0);
    GID.fetch_add(1, Ordering::Relaxed)
}

impl MultiBuilder {
    /// Start from a config.
    pub fn new(cfg: MultiConfig) -> Self {
        assert!(!cfg.clients.is_empty() && !cfg.replicas.is_empty());
        assert!(
            cfg.clients.len() <= 16,
            "select section sized for <= 16 clients"
        );
        MultiBuilder {
            cfg,
            gid: next_gid(),
        }
    }

    /// Allocate, wire and pre-post.
    pub fn build(self, w: &mut World) -> MultiRef {
        let cfg = self.cfg;
        let gid = self.gid;
        let slots = cfg.ring_slots;
        let m = cfg.clients.len();
        let n = cfg.replicas.len();
        let g = n + 1;
        let base_msg_len = metadata::msg_len(g);
        let msg_len = base_msg_len + m as u64;

        // --- clients ------------------------------------------------------
        let mut clients = Vec::new();
        for (c, &chh) in cfg.clients.iter().enumerate() {
            let rep = w
                .host(chh)
                .layout
                .alloc(&format!("mc{gid}.c{c}.rep"), cfg.rep_bytes, 64);
            let staging =
                w.host(chh)
                    .layout
                    .alloc(&format!("mc{gid}.c{c}.tx"), slots as u64 * msg_len, 64);
            let ack_buf =
                w.host(chh)
                    .layout
                    .alloc(&format!("mc{gid}.c{c}.ack"), slots as u64 * 8, 64);
            let ack_mr =
                w.host(chh)
                    .nic
                    .register_mr(ack_buf.addr, ack_buf.len, Access::REMOTE_WRITE);
            let out_sq = w.host(chh).layout.alloc(
                &format!("mc{gid}.c{c}.out_sq"),
                3 * slots as u64 * WQE_SIZE,
                64,
            );
            let oscq = w.host(chh).nic.create_cq();
            let orcq = w.host(chh).nic.create_cq();
            let qp_out = w
                .host(chh)
                .nic
                .create_qp(oscq, orcq, out_sq.addr, 3 * slots);
            let ack_sq =
                w.host(chh)
                    .layout
                    .alloc(&format!("mc{gid}.c{c}.ack_sq"), 4 * WQE_SIZE, 64);
            let ascq = w.host(chh).nic.create_cq();
            let arcq = w.host(chh).nic.create_cq();
            let ack_qp = w.host(chh).nic.create_qp(ascq, arcq, ack_sq.addr, 4);
            for k in 0..slots as u64 {
                w.host(chh).post_recv(
                    ack_qp,
                    RecvWqe {
                        wr_id: k,
                        scatter: vec![],
                    },
                );
            }
            clients.push(ClientState {
                host: chh,
                qp_out,
                ack_qp,
                ack_rcq: arcq,
                staging,
                ack_buf,
                ack_rkey: ack_mr.rkey,
                rep,
                pending: BTreeMap::new(),
                next_seq: 0,
                tail_ack_qp: u32::MAX, // wired below
            });
        }

        // --- replicas -------------------------------------------------------
        let mut replicas: Vec<ReplicaState> = Vec::new();
        for (i, &rh) in cfg.replicas.iter().enumerate() {
            let is_head = i == 0;
            let is_tail = i == n - 1;
            let rep = w
                .host(rh)
                .layout
                .alloc(&format!("mc{gid}.r{i}.rep"), cfg.rep_bytes, 64);
            let mr = w.host(rh).nic.register_mr(
                rep.addr,
                rep.len,
                Access::REMOTE_WRITE | Access::REMOTE_READ,
            );
            let staging = w.host(rh).layout.alloc(
                &format!("mc{gid}.r{i}.staging"),
                slots as u64 * msg_len,
                64,
            );
            let prev_scq = w.host(rh).nic.create_cq();
            let prev_rcq = w.host(rh).nic.create_cq();

            // Inbound side: replica 0 gets one SRQ-attached QP per
            // client; the rest get a single QP from upstream.
            let (srq, qp_prev) = if is_head {
                let srq = w.host(rh).nic.create_srq();
                let mut qps = Vec::new();
                for (c, cl) in clients.iter().enumerate() {
                    let sqr = w.host(rh).layout.alloc(
                        &format!("mc{gid}.r{i}.in{c}_sq"),
                        4 * WQE_SIZE,
                        64,
                    );
                    let qp = w.host(rh).nic.create_qp(prev_scq, prev_rcq, sqr.addr, 4);
                    w.host(rh).nic.attach_srq(qp, srq);
                    w.connect_qps(cl.host, cl.qp_out, rh, qp);
                    qps.push(qp);
                }
                (Some(srq), qps)
            } else {
                let sqr = w
                    .host(rh)
                    .layout
                    .alloc(&format!("mc{gid}.r{i}.in_sq"), 4 * WQE_SIZE, 64);
                let qp = w.host(rh).nic.create_qp(prev_scq, prev_rcq, sqr.addr, 4);
                // Upstream wiring: previous replica's qp_next -> this qp.
                let prev = &replicas[i - 1];
                w.connect_qps(prev.host, prev.qp_next, rh, qp);
                (None, vec![qp])
            };

            // Downstream side: forwarding qp_next (non-tail) — the tail
            // instead gets per-client ack QPs, wired after this loop.
            let next_sq = w.host(rh).layout.alloc(
                &format!("mc{gid}.r{i}.next_sq"),
                4 * slots as u64 * WQE_SIZE,
                64,
            );
            let nscq = w.host(rh).nic.create_cq();
            let nrcq = w.host(rh).nic.create_cq();
            let qp_next = w
                .host(rh)
                .nic
                .create_qp(nscq, nrcq, next_sq.addr, 4 * slots);
            let _ = is_tail;
            replicas.push(ReplicaState {
                host: rh,
                prev_rcq,
                srq,
                qp_prev,
                qp_next,
                staging,
                rep,
                rep_rkey: mr.rkey,
                slots_posted: 0,
            });
        }

        // Tail: per-client ACK queues.
        let tail = n - 1;
        let th = cfg.replicas[tail];
        for (c, cl) in clients.iter_mut().enumerate() {
            let sqr = w.host(th).layout.alloc(
                &format!("mc{gid}.tail.ack{c}_sq"),
                2 * slots as u64 * WQE_SIZE,
                64,
            );
            let scq = w.host(th).nic.create_cq();
            let rcq = w.host(th).nic.create_cq();
            let qp = w.host(th).nic.create_qp(scq, rcq, sqr.addr, 2 * slots);
            w.connect_qps(th, qp, cl.host, cl.ack_qp);
            cl.tail_ack_qp = qp;
        }

        let inner = MultiInner {
            g,
            base_msg_len,
            msg_len,
            clients,
            replicas,
            issued_total: 0,
            posted_seen: slots as u64,
            acked: 0,
            cfg,
        };
        let rc: MultiRef = Rc::new(RefCell::new(inner));
        {
            let mut inner = rc.borrow_mut();
            for _ in 0..slots {
                for r in 0..n {
                    post_multi_slot(&mut inner, w, r);
                }
            }
            // Arm all WAIT queues.
            let kicks: Vec<(HostId, u32)> = {
                let mut v: Vec<(HostId, u32)> = inner
                    .replicas
                    .iter()
                    .take(n - 1)
                    .map(|r| (r.host, r.qp_next))
                    .collect();
                v.extend(inner.clients.iter().map(|c| (th, c.tail_ack_qp)));
                v
            };
            for (h, qp) in kicks {
                let host = &mut w.hosts[h.0];
                let mut outs = Vec::new();
                host.nic
                    .ring_doorbell(SimTime::ZERO, qp, &mut host.mem, &mut outs);
                debug_assert!(outs.is_empty());
            }
        }
        rc
    }
}

/// Pre-post one slot on replica `r`.
fn post_multi_slot(inner: &mut MultiInner, w: &mut World, r: usize) {
    let n = inner.cfg.replicas.len();
    let m = inner.cfg.clients.len();
    let g = inner.g;
    let is_tail = r == n - 1;
    let slots = inner.cfg.ring_slots as u64;
    let slot = inner.replicas[r].slots_posted;
    let rh = inner.replicas[r].host;
    let msg_len = inner.msg_len;
    let staging_slot = inner.replicas[r].staging.at((slot % slots) * msg_len);
    let rec = metadata::rec_off(g, r);
    let prev_rcq = inner.replicas[r].prev_rcq;
    let select_off = inner.base_msg_len;

    let se = |msg_off: u64, len: u64, addr: u64| ScatterEntry {
        msg_off: msg_off as u32,
        len: len as u32,
        addr,
    };
    let mut scatter: Vec<ScatterEntry> = vec![ScatterEntry {
        msg_off: 0,
        len: msg_len as u32,
        addr: staging_slot,
    }];

    if !is_tail {
        // Forwarding slot (consume-mode WAIT: single waiter per rcq).
        let next_rkey = inner.replicas[r + 1].rep_rkey;
        let qp_next = inner.replicas[r].qp_next;
        let host = &mut w.hosts[rh.0];
        let wait = Wqe {
            opcode: Opcode::Wait,
            flags: flags::HW_OWNED,
            raddr: Wqe::wait_params(prev_rcq, 1),
            activate_n: 3,
            wr_id: slot,
            ..Default::default()
        };
        host.post_send(qp_next, wait, false).unwrap();
        let write = Wqe {
            opcode: Opcode::Write,
            rkey: next_rkey,
            wr_id: slot,
            ..Default::default()
        };
        let widx = host.post_send(qp_next, write, true).unwrap();
        let flush = Wqe {
            opcode: Opcode::Flush,
            rkey: next_rkey,
            wr_id: slot,
            ..Default::default()
        };
        let fidx = host.post_send(qp_next, flush, true).unwrap();
        let send = Wqe {
            opcode: Opcode::Send,
            len: msg_len as u32,
            laddr: staging_slot,
            wr_id: slot,
            ..Default::default()
        };
        host.post_send(qp_next, send, true).unwrap();
        let waddr = host.nic.sq_slot_addr(qp_next, widx);
        let faddr = host.nic.sq_slot_addr(qp_next, fidx);
        scatter.extend([
            se(rec + metadata::wrec::LEN, 4, waddr + field_offset::LEN),
            se(rec + metadata::wrec::SRC, 8, waddr + field_offset::LADDR),
            se(rec + metadata::wrec::DST, 8, waddr + field_offset::RADDR),
            se(rec + metadata::wrec::FOP, 1, faddr + field_offset::OPCODE),
            se(rec + metadata::wrec::FADDR, 8, faddr + field_offset::RADDR),
            se(rec + metadata::wrec::FLEN, 4, faddr + field_offset::LEN),
        ]);
    } else {
        // Tail slot: one (WAIT, WRITE_IMM) pair per client; threshold
        // WAITs let every per-client queue trigger off the shared
        // upstream CQ, and the select byte picks exactly one WRITE_IMM.
        for c in 0..m {
            let (qp, ack_addr, ack_rkey) = {
                let cl = &inner.clients[c];
                (
                    cl.tail_ack_qp,
                    cl.ack_buf.at((slot % slots) * 8),
                    cl.ack_rkey,
                )
            };
            let host = &mut w.hosts[rh.0];
            let wait = Wqe {
                opcode: Opcode::Wait,
                flags: flags::HW_OWNED | flags::WAIT_THRESHOLD,
                raddr: Wqe::wait_params(prev_rcq, (slot + 1) as u32),
                activate_n: 1,
                wr_id: slot,
                ..Default::default()
            };
            host.post_send(qp, wait, false).unwrap();
            let wimm = Wqe {
                opcode: Opcode::WriteImm,
                len: 0,
                raddr: ack_addr,
                rkey: ack_rkey,
                wr_id: slot,
                ..Default::default()
            };
            let idx = host.post_send(qp, wimm, true).unwrap();
            let waddr = host.nic.sq_slot_addr(qp, idx);
            scatter.push(se(0, 4, waddr + field_offset::IMM));
            scatter.push(se(select_off + c as u64, 1, waddr + field_offset::OPCODE));
        }
    }

    // Receive side: SRQ on the head, plain RQ elsewhere.
    let srq = inner.replicas[r].srq;
    let qp0 = inner.replicas[r].qp_prev[0];
    let host = &mut w.hosts[rh.0];
    match srq {
        Some(s) => host.nic.post_srq_recv(
            s,
            RecvWqe {
                wr_id: slot,
                scatter,
            },
        ),
        None => host.post_recv(
            qp0,
            RecvWqe {
                wr_id: slot,
                scatter,
            },
        ),
    }
    inner.replicas[r].slots_posted += 1;
}

/// A handle for one of the chain's clients.
#[derive(Clone)]
pub struct MultiClient {
    inner: MultiRef,
    /// This client's index.
    pub idx: usize,
}

impl MultiClient {
    /// Wrap client `idx` of a built chain and subscribe its ACK
    /// dispatcher.
    pub fn new(inner: MultiRef, idx: usize, w: &mut World) -> Self {
        let (host, ack_rcq) = {
            let i = inner.borrow();
            (i.clients[idx].host, i.clients[idx].ack_rcq)
        };
        let rc = inner.clone();
        w.subscribe_cq_callback(host, ack_rcq, move |cqe, w, eng| {
            if cqe.kind != CqeKind::RecvImm || cqe.status != CqeStatus::Ok {
                return;
            }
            let mut i = rc.borrow_mut();
            let Some((issued_at, done)) = i.clients[idx].pending.remove(&cqe.imm) else {
                return;
            };
            i.acked += 1;
            let ack_qp = i.clients[idx].ack_qp;
            let host = i.clients[idx].host;
            w.hosts[host.0].post_recv(
                ack_qp,
                RecvWqe {
                    wr_id: cqe.imm as u64,
                    scatter: vec![],
                },
            );
            let latency = eng.now().duration_since(issued_at);
            drop(i);
            if let Some(done) = done {
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
        MultiClient { inner, idx }
    }

    /// The shared chain state.
    pub fn chain(&self) -> &MultiRef {
        &self.inner
    }

    /// Address of `offset` in replica `r`'s copy.
    pub fn replica_addr(&self, r: usize, offset: u64) -> u64 {
        self.inner.borrow().replicas[r].rep.at(offset)
    }

    /// Host of replica `r`.
    pub fn replica_host(&self, r: usize) -> HostId {
        self.inner.borrow().replicas[r].host
    }

    /// Multi-client gWRITE: this client's data lands durably on every
    /// replica; all clients' operations serialize through the shared
    /// slot ring in NIC arrival order.
    pub fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let mut i = self.inner.borrow_mut();
        if i.issued_total >= i.posted_seen {
            return Err(Backpressure);
        }
        i.issued_total += 1;
        let m = i.cfg.clients.len();
        let n = i.cfg.replicas.len();
        let g = i.g;
        let msg_len = i.msg_len;
        let base_msg_len = i.base_msg_len;
        let slots = i.cfg.ring_slots as u64;
        let seq = i.clients[self.idx].next_seq;
        i.clients[self.idx].next_seq = i.clients[self.idx].next_seq.wrapping_add(1);
        let ch = i.clients[self.idx].host;

        // Local apply on this client's own copy.
        let local = i.clients[self.idx].rep.at(offset);
        w.host(ch).mem.write(local, data).unwrap();
        if flush {
            w.host(ch).mem.flush(local, data.len()).unwrap();
        }

        // Metadata: forwarding records for replicas 0..n-1 (replica j
        // writes from its copy into replica j+1's), then the select
        // section picking this client's tail WRITE_IMM.
        let mut msg = MetaMsg::new(g, seq);
        for j in 0..n.saturating_sub(1) {
            let src = i.replicas[j].rep.at(offset);
            let dst = i.replicas[j + 1].rep.at(offset);
            let fop = if flush { Opcode::Flush } else { Opcode::Nop };
            msg.set_wrec(j, data.len() as u32, src, dst, fop, dst, data.len() as u32);
        }
        let mut bytes = msg.bytes().to_vec();
        bytes.resize(msg_len as usize, 0);
        for c in 0..m {
            bytes[(base_msg_len + c as u64) as usize] = if c == self.idx {
                Opcode::WriteImm as u8
            } else {
                Opcode::Nop as u8
            };
        }
        let staging = i.clients[self.idx]
            .staging
            .at((seq as u64 % slots) * msg_len);
        w.host(ch).mem.write(staging, &bytes).unwrap();

        // Post WRITE [FLUSH] SEND toward replica 0.
        let qp_out = i.clients[self.idx].qp_out;
        let r0 = i.replicas[0].rep.at(offset);
        let rkey0 = i.replicas[0].rep_rkey;
        w.hosts[ch.0]
            .post_send(
                qp_out,
                Wqe {
                    opcode: Opcode::Write,
                    len: data.len() as u32,
                    laddr: local,
                    raddr: r0,
                    rkey: rkey0,
                    wr_id: seq as u64,
                    ..Default::default()
                },
                false,
            )
            .expect("client SQ sized");
        if flush {
            w.hosts[ch.0]
                .post_send(
                    qp_out,
                    Wqe {
                        opcode: Opcode::Flush,
                        len: data.len() as u32,
                        raddr: r0,
                        rkey: rkey0,
                        wr_id: seq as u64,
                        ..Default::default()
                    },
                    false,
                )
                .expect("client SQ sized");
        }
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
        i.clients[self.idx]
            .pending
            .insert(seq, (eng.now(), Some(done)));
        drop(i);
        w.ring_doorbell(ch, qp_out, eng);
        Ok(seq)
    }
}

/// Replenisher for the multi-client chain (runs on replica 0's host;
/// reposts every replica's slots and reports credit to the clients).
pub struct MultiReplenisher {
    inner: MultiRef,
}

impl MultiReplenisher {
    /// Create.
    pub fn new(inner: MultiRef) -> Self {
        MultiReplenisher { inner }
    }
}

impl hl_cluster::Process for MultiReplenisher {
    fn on_event(&mut self, ev: hl_cluster::ProcEvent, ctx: &mut hl_cluster::Ctx<'_>) {
        use hl_cluster::ProcEvent;
        let period = self.inner.borrow().cfg.replenish_period;
        match ev {
            ProcEvent::Started | ProcEvent::WorkDone { .. } => {
                ctx.set_timer(period, 1, SimDuration::from_nanos(500));
            }
            ProcEvent::Timer { .. } => {
                let deficit = {
                    let inner = self.inner.borrow();
                    let n = inner.cfg.replicas.len();
                    let m = inner.cfg.clients.len();
                    let slots = inner.cfg.ring_slots as u64;
                    // Consumption: min over every ring's execution head.
                    let mut consumed = u64::MAX;
                    for (r, rep) in inner.replicas.iter().enumerate() {
                        let nic = &ctx.world.hosts[rep.host.0].nic;
                        if r < n - 1 {
                            let (h, _, _) = nic.sq_state(rep.qp_next);
                            consumed = consumed.min(h / 4);
                        }
                    }
                    let tail_host = inner.replicas[n - 1].host;
                    for cl in &inner.clients {
                        let (h, _, _) = ctx.world.hosts[tail_host.0].nic.sq_state(cl.tail_ack_qp);
                        consumed = consumed.min(h / 2);
                    }
                    let _ = m;
                    (consumed + slots).saturating_sub(inner.replicas[0].slots_posted)
                };
                if deficit > 0 {
                    {
                        let mut inner = self.inner.borrow_mut();
                        let n = inner.cfg.replicas.len();
                        for _ in 0..deficit {
                            for r in 0..n {
                                post_multi_slot(&mut inner, ctx.world, r);
                            }
                        }
                    }
                    // Kick queues and report credit.
                    let (kicks, posted) = {
                        let inner = self.inner.borrow();
                        let n = inner.cfg.replicas.len();
                        let tail_host = inner.replicas[n - 1].host;
                        let mut v: Vec<(HostId, u32)> = inner
                            .replicas
                            .iter()
                            .take(n - 1)
                            .map(|r| (r.host, r.qp_next))
                            .collect();
                        v.extend(inner.clients.iter().map(|c| (tail_host, c.tail_ack_qp)));
                        (v, inner.replicas[0].slots_posted)
                    };
                    for (h, qp) in kicks {
                        ctx.world.ring_doorbell(h, qp, ctx.eng);
                    }
                    let rc = self.inner.clone();
                    ctx.eng
                        .schedule(SimDuration::from_micros(2), move |_w, _e| {
                            rc.borrow_mut().posted_seen = posted;
                        });
                }
                ctx.set_timer(period, 1, SimDuration::from_nanos(500));
            }
            _ => {}
        }
    }
}

/// Start the replenisher on replica 0's host.
pub fn start_replenisher(
    inner: &MultiRef,
    w: &mut World,
    eng: &mut Engine<World>,
) -> hl_cluster::ProcAddr {
    let host = inner.borrow().replicas[0].host;
    w.start_process(
        host,
        "multi-replenish",
        None,
        Box::new(MultiReplenisher::new(inner.clone())),
        SimDuration::from_micros(1),
        eng,
    )
}
