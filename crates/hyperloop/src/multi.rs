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
//!   lands in slot *k* programs slot *k*'s WQEs) — it is the chain's
//!   gWRITE program, `program::chain`;
//! * the tail pre-posts one WRITE_IMM *per client* per slot, and the
//!   issuing client's metadata selects its own (opcode byte stays
//!   `WriteImm`) while turning the others into NOPs — the same
//!   execute-map trick gCAS uses. The tail WAITs use threshold mode so
//!   all per-client queues trigger off the shared upstream recv CQ.

use crate::group::{OnDone, OpResult};
use crate::metadata::{self, select, MetaMsg, Primitive};
use crate::program::{self, Downstream, Recv, SlotProgram};
use crate::replica::{self, Offload, Rings};
use crate::wire::{self, AckRing, AckTarget, OneSided, PendingTable, Qp};
use crate::Backpressure;
use hl_cluster::World;
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::{Access, Opcode};
use hl_sim::{Engine, SimTime};
use std::cell::RefCell;
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
}

impl Default for MultiConfig {
    fn default() -> Self {
        MultiConfig {
            clients: Vec::new(),
            replicas: Vec::new(),
            rep_bytes: 1 << 20,
            ring_slots: 64,
        }
    }
}

struct ClientState {
    host: HostId,
    /// Out QP toward replica 0.
    out: Qp,
    /// Metadata staging ring.
    staging: Region,
    ack: AckRing,
    /// This client's copy of the data (it is a chain member too).
    rep: Region,
    pending: PendingTable<(SimTime, Option<OnDone>)>,
    next_seq: u32,
}

/// Shared state of a multi-client chain.
pub struct MultiInner {
    cfg: MultiConfig,
    /// Metadata length: the chain message of the group of replicas + the
    /// issuing client, then the select section of one entry per client.
    msg_len: u64,
    clients: Vec<ClientState>,
    /// Each replica's copy and its rkey.
    reps: Vec<(Region, u32)>,
    /// One program per replica (operations of all clients share the one
    /// ring), and the clients' common credits against them.
    rings: Rings,
    /// The buffer every client's metadata messages are built in.
    msg: MetaMsg,
    /// Completed operations (all clients).
    pub acked: u64,
}

impl Offload for MultiInner {
    fn rings(&mut self) -> &mut Rings {
        &mut self.rings
    }
}

/// Shared handle to the chain.
pub type MultiRef = Rc<RefCell<MultiInner>>;

/// Builds the multi-client chain.
pub struct MultiBuilder {
    cfg: MultiConfig,
}

impl MultiBuilder {
    /// Start from a config.
    pub fn new(cfg: MultiConfig) -> Self {
        assert!(!cfg.clients.is_empty() && !cfg.replicas.is_empty());
        assert!(
            cfg.clients.len() <= 16,
            "select section sized for <= 16 clients"
        );
        MultiBuilder { cfg }
    }

    /// Allocate, wire and pre-post.
    pub fn build(self, w: &mut World) -> MultiRef {
        let cfg = self.cfg;
        let slots = cfg.ring_slots;
        let n = cfg.replicas.len();
        let g = n + 1;
        let base_msg_len = metadata::msg_len(g);
        let msg_len = base_msg_len + cfg.clients.len() as u64 * select::ENTRY;

        let clients: Vec<ClientState> = cfg
            .clients
            .iter()
            .map(|&host| ClientState {
                host,
                rep: wire::region(w, host, "rep", cfg.rep_bytes),
                staging: wire::region(w, host, "tx", slots as u64 * msg_len),
                out: wire::op_qp(w, host, slots),
                ack: AckRing::new(w, host, slots, 0),
                pending: PendingTable::new(),
                next_seq: 0,
            })
            .collect();

        let reps: Vec<(Region, u32)> = cfg
            .replicas
            .iter()
            .map(|&rh| {
                let rep = wire::region(w, rh, "rep", cfg.rep_bytes);
                let access = Access::REMOTE_WRITE | Access::REMOTE_READ;
                let rkey = w.host(rh).nic.register_mr(rep.addr, rep.len, access).rkey;
                (rep, rkey)
            })
            .collect();

        let mut programs = Vec::new();
        let mut upstream: Option<(HostId, u32)> = None; // previous replica's forwarding queue
        for (r, &rh) in cfg.replicas.iter().enumerate() {
            // Inbound side: replica 0 gets one SRQ-attached QP per
            // client, all completing into one CQ; the rest get a single
            // QP from upstream.
            let (recv, rcq) = match upstream {
                None => {
                    let srq = w.host(rh).nic.create_srq();
                    let rcq = wire::cq(w, rh);
                    for cl in &clients {
                        let q = wire::recv_qp_into(w, rh, rcq);
                        w.host(rh).nic.attach_srq(q.qpn, srq);
                        w.connect_qps(cl.host, cl.out.qpn, rh, q.qpn);
                    }
                    (Recv::Srq { srq, cq: rcq }, rcq)
                }
                Some((prev_host, prev_qp)) => {
                    let q = wire::recv_qp(w, rh);
                    w.connect_qps(prev_host, prev_qp, rh, q.qpn);
                    (Recv::Qp(q), q.rcq)
                }
            };
            // Outbound side: the chain's forwarding slot, or on the tail
            // one ACK queue per client.
            let (steps, queues) = if r < n - 1 {
                let steps = program::chain(
                    Primitive::GWrite,
                    g,
                    msg_len,
                    metadata::rec_off(g, r),
                    rcq,
                    Downstream::Replica {
                        rkey: reps[r + 1].1,
                    },
                );
                let next = wire::qp(w, rh, program::sq_wqes(&steps, 0, slots));
                upstream = Some((rh, next.qpn));
                (steps, vec![next])
            } else {
                let acks: Vec<AckTarget> = clients.iter().map(|cl| cl.ack.target()).collect();
                let steps = program::multi_tail(rcq, base_msg_len, &acks);
                let queues = (0..clients.len())
                    .map(|c| {
                        let q = wire::qp(w, rh, program::sq_wqes(&steps, c, slots));
                        w.connect_qps(rh, q.qpn, clients[c].host, clients[c].ack.qp);
                        q
                    })
                    .collect();
                (steps, queues)
            };
            let staging = wire::region(w, rh, "staging", slots as u64 * msg_len);
            programs.push(vec![SlotProgram::new(
                rh,
                queues,
                recv,
                Some((staging, msg_len)),
                vec![],
                steps,
                slots,
            )]);
        }

        Rc::new(RefCell::new(MultiInner {
            msg_len,
            clients,
            reps,
            // All clients draw on one ring, so only its depth bounds how
            // many operations are in flight, less the watermark a
            // replenisher needs to be woken (`crate::replica`).
            rings: Rings::prepost(
                programs,
                slots,
                slots - program::watermark(slots as u64) as u32,
                w,
            ),
            msg: MetaMsg::new(g, 0),
            acked: 0,
            cfg,
        }))
    }
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
            (i.clients[idx].host, i.clients[idx].ack.rcq)
        };
        let rc = inner.clone();
        w.subscribe_cq_callback(host, ack_rcq, move |cqe, w, eng| {
            if !AckRing::is_ack(&cqe) {
                return;
            }
            let mut i = rc.borrow_mut();
            let Some((issued_at, done)) = i.clients[idx].pending.remove(cqe.imm) else {
                return;
            };
            i.acked += 1;
            i.rings.credits.complete(0);
            let results = i.clients[idx]
                .ack
                .complete(w, cqe.imm as u64, cqe.imm as u64);
            let latency = eng.now().duration_since(issued_at);
            drop(i);
            if let Some(done) = done {
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
        MultiClient { inner, idx }
    }

    /// The shared chain state.
    pub fn chain(&self) -> &MultiRef {
        &self.inner
    }

    /// Address of `offset` in replica `r`'s copy.
    pub fn replica_addr(&self, r: usize, offset: u64) -> u64 {
        self.inner.borrow().reps[r].0.at(offset)
    }

    /// Host of replica `r`.
    pub fn replica_host(&self, r: usize) -> HostId {
        self.inner.borrow().cfg.replicas[r]
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
        let mut guard = self.inner.borrow_mut();
        let i = &mut *guard;
        i.rings.credits.take(0)?;
        let n = i.reps.len();
        let msg_len = i.msg_len;
        let slots = i.cfg.ring_slots as u64;
        let seq = i.clients[self.idx].next_seq;
        i.clients[self.idx].next_seq = seq.wrapping_add(1);
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
        let msg = i.msg.reset(seq);
        for j in 0..n.saturating_sub(1) {
            let src = i.reps[j].0.at(offset);
            let dst = i.reps[j + 1].0.at(offset);
            let fop = if flush { Opcode::Flush } else { Opcode::Nop };
            msg.set_wrec(j, data.len() as u32, src, dst, fop, dst, data.len() as u32);
        }
        msg.set_select(i.clients.len(), self.idx);
        debug_assert_eq!(msg.bytes().len() as u64, msg_len);
        let staging = i.clients[self.idx]
            .staging
            .at((seq as u64 % slots) * msg_len);
        w.host(ch).mem.write(staging, msg.bytes()).unwrap();

        // Post WRITE [FLUSH] SEND toward replica 0.
        let to_head = OneSided {
            write_from: Some(local),
            flush,
            raddr: i.reps[0].0.at(offset),
            rkey: i.reps[0].1,
            len: data.len() as u32,
        };
        let qp_out = i.clients[self.idx].out.qpn;
        wire::post_op(
            &mut w.hosts[ch.0],
            qp_out,
            seq,
            0,
            Some(to_head),
            staging,
            msg_len,
        );
        i.clients[self.idx]
            .pending
            .insert(seq, (eng.now(), Some(done)));
        drop(guard);
        w.ring_doorbell(ch, qp_out, eng);
        Ok(seq)
    }
}

/// Start the replenishers: one per replica.
pub fn start_replenisher(
    inner: &MultiRef,
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<hl_cluster::ProcAddr> {
    replica::start(inner, "multi-replenish-r", w, eng)
}
