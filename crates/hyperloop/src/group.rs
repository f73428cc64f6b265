//! Group setup: QP wiring, memory layout, and WQE pre-posting.
//!
//! A HyperLoop group is a chain `client → r0 → r1 → … → r(n-1) → client`
//! (the tail ACKs straight back to the client). Per *primitive* each hop
//! gets its own QP pair so that RECV ordering can never mix rings, plus
//! a loopback QP for the NIC-local legs of gMEMCPY/gCAS — exactly the
//! extra-QP construction of paper Figures 6 and 7.
//!
//! Every replica pre-posts a ring of *slots*. One slot is the WQE bundle
//! that executes one group operation hop without CPU:
//!
//! | ring     | loopback QP                  | downstream QP                  |
//! |----------|------------------------------|--------------------------------|
//! | gWRITE   | —                            | WAIT·WRITE·FLUSH·SEND (tail: WAIT·WRITE_IMM) |
//! | gMEMCPY  | WAIT·LOCAL_COPY·LOCAL_FLUSH  | WAIT(2)·SEND (tail: WAIT(2)·WRITE_IMM) |
//! | gCAS     | WAIT·LOCAL_CAS               | WAIT·SEND (tail: WAIT·WRITE_IMM) |
//!
//! All operation WQEs are posted *deferred* (software-owned, blank
//! descriptors); the slot's RECV scatters the client's metadata into
//! their descriptor fields and the WAIT grants them to the NIC. Slots
//! are consumed in order and replenished off the critical path by the
//! [`crate::replica::Replenisher`] process.

use crate::metadata::{self, crec, wrec, Primitive};
use hl_cluster::World;
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::{field_offset, flags, Access, Opcode, RecvWqe, ScatterEntry, Wqe, WQE_SIZE};
use hl_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Group configuration.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// The client (chain head / transaction coordinator).
    pub client: HostId,
    /// Replicas in chain order.
    pub replicas: Vec<HostId>,
    /// Size of the replicated region (identical layout on every member).
    pub rep_bytes: u64,
    /// Pre-posted slots per primitive ring.
    pub ring_slots: u32,
    /// Replenisher wakeup period.
    pub replenish_period: SimDuration,
    /// Opt-in reliable transport on the client's outbound QPs:
    /// `(ack timeout, retry_cnt)`. When set, a head-hop loss is repaired
    /// by NIC retransmission, and retry exhaustion surfaces as an error
    /// CQE on the client send CQ (see [`crate::recovery`]). `None`
    /// keeps the historical lossless-fabric assumption.
    pub transport_timeout: Option<(SimDuration, u8)>,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            client: HostId(0),
            replicas: Vec::new(),
            rep_bytes: 1 << 20,
            ring_slots: 128,
            replenish_period: SimDuration::from_micros(200),
            transport_timeout: None,
        }
    }
}

/// Per-op completion data handed to the issuer's callback.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Operation sequence number.
    pub seq: u32,
    /// Result map (gCAS): one u64 per member, client first.
    pub results: Vec<u64>,
    /// Issue → group-ACK latency.
    pub latency: SimDuration,
}

/// Completion callback type.
pub type OnDone = Box<dyn FnOnce(&mut World, &mut hl_sim::Engine<World>, OpResult)>;

/// The client refused to issue: too many operations in flight for the
/// pre-posted ring depth. Retry after completions drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure;

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "group ring credits exhausted")
    }
}
impl std::error::Error for Backpressure {}

/// Client-side state of one primitive ring.
pub(crate) struct ClientRing {
    /// QP toward replica 0.
    pub qp_out: u32,
    /// Send CQ of `qp_out`: transport error CQEs land here.
    pub out_scq: u32,
    /// QP receiving the tail's ACK WRITE_IMM.
    pub ack_qp: u32,
    /// Recv CQ of `ack_qp` (callback-subscribed).
    pub ack_rcq: u32,
    /// Staging buffer: `slots × msg_len` for outgoing metadata.
    pub staging: Region,
    /// ACK landing buffer: `slots × 8·g`.
    pub ack_buf: Region,
}

/// Replica-side state of one primitive ring.
pub(crate) struct RepRing {
    /// QP from upstream (client or previous replica).
    pub qp_prev: u32,
    /// Recv CQ of `qp_prev` (watched by this slot's first WAIT).
    pub prev_rcq: u32,
    /// QP toward downstream (next replica, or client for the tail).
    pub qp_next: u32,
    /// Loopback QP (gMEMCPY/gCAS), with its send CQ.
    pub qp_local: Option<u32>,
    /// Send CQ of the loopback QP.
    pub local_scq: u32,
    /// Metadata staging: `slots × msg_len`.
    pub staging: Region,
    /// Slots pre-posted so far (monotonic).
    pub slots_posted: u64,
    /// rkey of the downstream write target (next replica's rep region,
    /// or the client's ack buffer for the tail).
    pub next_rkey: u32,
    /// WQEs per slot on `qp_next` / `qp_local` (for consumption math).
    pub next_per_slot: u64,
    /// WQEs per slot on the loopback QP (0 when unused).
    pub local_per_slot: u64,
}

struct Pending {
    prim: Primitive,
    issued_at: SimTime,
    slot: u64,
    /// Telemetry op id (0 when tracing is off).
    op: u32,
    done: Option<OnDone>,
}

/// Counters for reporting and ablations.
#[derive(Debug, Default, Clone)]
pub struct GroupStats {
    /// Operations issued.
    pub issued: u64,
    /// Group ACKs received.
    pub acked: u64,
    /// Issue attempts refused for lack of ring credits.
    pub backpressured: u64,
    /// Slots reposted by replenishers.
    pub reposted: u64,
}

/// Shared mutable group state (client handle + replenishers + recovery).
pub struct GroupInner {
    /// Static configuration.
    pub cfg: GroupConfig,
    /// Group size (replicas + client).
    pub g: usize,
    /// Metadata message length.
    pub msg_len: u64,
    /// Client's copy of the replicated region.
    pub client_rep: Region,
    /// Each replica's replicated region (identical sizes).
    pub replica_rep: Vec<Region>,
    /// rkey of each replica's rep region.
    pub rep_rkeys: Vec<u32>,
    pub(crate) client_rings: [ClientRing; 3],
    pub(crate) rep_rings: Vec<[RepRing; 3]>, // [replica][primitive]
    pending: BTreeMap<u32, Pending>,
    next_seq: u32,
    inflight: [u32; 3],
    /// Per-ring issued-operation counters (= next slot index).
    pub(crate) issued_ops: [u64; 3],
    /// Credits: slots each replica has reported as posted, per
    /// primitive. The client may issue op `k` on a ring only when every
    /// replica has posted more than `k` slots.
    pub(crate) posted_seen: Vec<[u64; 3]>,
    max_inflight: u32,
    /// Counters.
    pub stats: GroupStats,
    /// Writes paused (recovery in progress).
    pub paused: bool,
}

/// Shared handle to a group.
pub type GroupRef = Rc<RefCell<GroupInner>>;

impl GroupInner {
    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.g - 1
    }

    /// Absolute address of `offset` in member `m`'s rep region
    /// (member 0 = client).
    pub fn member_addr(&self, m: usize, offset: u64) -> u64 {
        if m == 0 {
            self.client_rep.at(offset)
        } else {
            self.replica_rep[m - 1].at(offset)
        }
    }

    pub(crate) fn take_credit(&mut self, prim: Primitive) -> Result<(), Backpressure> {
        let ring_credit = self
            .posted_seen
            .iter()
            .map(|p| p[prim.idx()])
            .min()
            .unwrap_or(0);
        if self.paused
            || self.inflight[prim.idx()] >= self.max_inflight
            || self.issued_ops[prim.idx()] >= ring_credit
        {
            self.stats.backpressured += 1;
            return Err(Backpressure);
        }
        self.inflight[prim.idx()] += 1;
        Ok(())
    }

    pub(crate) fn alloc_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }

    /// Reserve the next slot index on a ring.
    pub(crate) fn alloc_slot(&mut self, prim: Primitive) -> u64 {
        let s = self.issued_ops[prim.idx()];
        self.issued_ops[prim.idx()] += 1;
        self.stats.issued += 1;
        s
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn register_pending(
        &mut self,
        seq: u32,
        prim: Primitive,
        slot: u64,
        issued_at: SimTime,
        op: u32,
        done: OnDone,
    ) {
        self.pending.insert(
            seq,
            Pending {
                prim,
                issued_at,
                slot,
                op,
                done: Some(done),
            },
        );
    }

    pub(crate) fn complete_pending(&mut self, seq: u32) -> Option<crate::client::CompletedPending> {
        let p = self.pending.remove(&seq)?;
        self.inflight[p.prim.idx()] -= 1;
        self.stats.acked += 1;
        Some(crate::client::CompletedPending {
            prim: p.prim,
            issued_at: p.issued_at,
            slot: p.slot,
            op: p.op,
            done: p.done,
        })
    }

    /// Number of operations currently awaiting their group ACK.
    pub fn inflight_total(&self) -> u32 {
        self.inflight.iter().sum()
    }
}

/// Builds a group: allocates regions, wires QPs, pre-posts all rings.
pub struct GroupBuilder {
    cfg: GroupConfig,
    gid: u32,
}

/// Monotonic group id for unique region names.
fn next_gid() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static GID: AtomicU32 = AtomicU32::new(0);
    GID.fetch_add(1, Ordering::Relaxed)
}

impl GroupBuilder {
    /// Start building from a config.
    pub fn new(cfg: GroupConfig) -> Self {
        assert!(!cfg.replicas.is_empty(), "a group needs >= 1 replica");
        assert!(cfg.ring_slots >= 4);
        GroupBuilder {
            cfg,
            gid: next_gid(),
        }
    }

    /// Allocate, wire and pre-post everything. Setup is control-path and
    /// is not timed (the paper's CPUs also only initialize the group).
    pub fn build(self, w: &mut World) -> GroupRef {
        let cfg = self.cfg;
        let gid = self.gid;
        let g = cfg.replicas.len() + 1;
        let n = cfg.replicas.len();
        let msg_len = metadata::msg_len(g);
        let slots = cfg.ring_slots;

        // --- client regions ------------------------------------------------
        let ch = cfg.client;
        let client_rep = w
            .host(ch)
            .layout
            .alloc(&format!("g{gid}.rep"), cfg.rep_bytes, 64);
        // The client's own copy is persisted by its CPU; no remote access
        // needed, but recovery reads it, so allow remote read.
        w.host(ch)
            .nic
            .register_mr(client_rep.addr, client_rep.len, Access::REMOTE_READ);

        // --- replica rep regions -------------------------------------------
        let mut replica_rep = Vec::new();
        let mut rep_rkeys = Vec::new();
        for &rh in &cfg.replicas {
            let r = w
                .host(rh)
                .layout
                .alloc(&format!("g{gid}.rep"), cfg.rep_bytes, 64);
            let mr = w.host(rh).nic.register_mr(
                r.addr,
                r.len,
                Access::REMOTE_WRITE | Access::REMOTE_READ | Access::REMOTE_ATOMIC,
            );
            replica_rep.push(r);
            rep_rkeys.push(mr.rkey);
        }

        // --- per-primitive rings --------------------------------------------
        let mut client_rings = Vec::new();
        let mut rep_rings: Vec<Vec<RepRing>> = (0..n).map(|_| Vec::new()).collect();

        for prim in Primitive::ALL {
            let pname = match prim {
                Primitive::GWrite => "gw",
                Primitive::GMemcpy => "gm",
                Primitive::GCas => "gc",
            };

            // Client side.
            let out_sq = w.host(ch).layout.alloc(
                &format!("g{gid}.{pname}.out_sq"),
                4 * slots as u64 * WQE_SIZE,
                64,
            );
            let staging = w.host(ch).layout.alloc(
                &format!("g{gid}.{pname}.staging"),
                slots as u64 * msg_len,
                64,
            );
            let ack_buf = w.host(ch).layout.alloc(
                &format!("g{gid}.{pname}.ack"),
                slots as u64 * 8 * g as u64,
                64,
            );
            let ack_mr =
                w.host(ch)
                    .nic
                    .register_mr(ack_buf.addr, ack_buf.len, Access::REMOTE_WRITE);
            let out_scq = w.host(ch).nic.create_cq();
            let out_rcq = w.host(ch).nic.create_cq();
            let qp_out = w
                .host(ch)
                .nic
                .create_qp(out_scq, out_rcq, out_sq.addr, 4 * slots);
            if let Some((to, retry_cnt)) = cfg.transport_timeout {
                w.host(ch).nic.set_qp_timeout(qp_out, to, retry_cnt);
            }
            let ack_sq =
                w.host(ch)
                    .layout
                    .alloc(&format!("g{gid}.{pname}.ack_sq"), 4 * WQE_SIZE, 64);
            let ack_scq = w.host(ch).nic.create_cq();
            let ack_rcq = w.host(ch).nic.create_cq();
            let ack_qp = w.host(ch).nic.create_qp(ack_scq, ack_rcq, ack_sq.addr, 4);

            // Pre-post client ACK receives.
            for k in 0..slots as u64 {
                w.host(ch).post_recv(ack_qp, ack_recv(k));
            }

            // Replica side.
            let mut prev_qp = qp_out; // upstream QP handle on the *upstream host*
            let mut prev_host = ch;
            for (i, &rh) in cfg.replicas.iter().enumerate() {
                let is_tail = i == n - 1;
                let next_per_slot = per_slot_next(prim, is_tail);
                let local_per_slot = per_slot_local(prim);

                let prev_sq =
                    w.host(rh)
                        .layout
                        .alloc(&format!("g{gid}.{pname}.prev_sq"), 4 * WQE_SIZE, 64);
                let next_sq = w.host(rh).layout.alloc(
                    &format!("g{gid}.{pname}.next_sq"),
                    next_per_slot.max(1) * slots as u64 * WQE_SIZE,
                    64,
                );
                let staging_r = w.host(rh).layout.alloc(
                    &format!("g{gid}.{pname}.staging"),
                    slots as u64 * msg_len,
                    64,
                );
                // Paper §4.1: the WQE ring itself is registered as an
                // RDMA-accessible region (with safety checks).
                w.host(rh)
                    .nic
                    .register_mr(next_sq.addr, next_sq.len, Access::REMOTE_WRITE);

                let prev_scq = w.host(rh).nic.create_cq();
                let prev_rcq = w.host(rh).nic.create_cq();
                let qp_prev = w
                    .host(rh)
                    .nic
                    .create_qp(prev_scq, prev_rcq, prev_sq.addr, 4);

                let next_scq = w.host(rh).nic.create_cq();
                let next_rcq = w.host(rh).nic.create_cq();
                let qp_next = w.host(rh).nic.create_qp(
                    next_scq,
                    next_rcq,
                    next_sq.addr,
                    (next_per_slot.max(1) * slots as u64) as u32,
                );

                let (qp_local, local_scq) = if local_per_slot > 0 {
                    let local_sq = w.host(rh).layout.alloc(
                        &format!("g{gid}.{pname}.local_sq"),
                        local_per_slot * slots as u64 * WQE_SIZE,
                        64,
                    );
                    let lcq = w.host(rh).nic.create_cq();
                    let qpl = w.host(rh).nic.create_qp(
                        lcq,
                        lcq,
                        local_sq.addr,
                        (local_per_slot * slots as u64) as u32,
                    );
                    (Some(qpl), lcq)
                } else {
                    (None, u32::MAX)
                };

                // Wire upstream: prev_qp on prev_host <-> qp_prev here.
                w.connect_qps(prev_host, prev_qp, rh, qp_prev);

                let next_rkey = if is_tail {
                    ack_mr.rkey
                } else {
                    rep_rkeys[i + 1]
                };

                rep_rings[i].push(RepRing {
                    qp_prev,
                    prev_rcq,
                    qp_next,
                    qp_local,
                    local_scq,
                    staging: staging_r,
                    slots_posted: 0,
                    next_rkey,
                    next_per_slot,
                    local_per_slot,
                });

                prev_qp = qp_next;
                prev_host = rh;
            }
            // Tail -> client ack wiring.
            w.connect_qps(prev_host, prev_qp, ch, ack_qp);

            client_rings.push(ClientRing {
                qp_out,
                out_scq,
                ack_qp,
                ack_rcq,
                staging,
                ack_buf,
            });
        }

        let inner = GroupInner {
            g,
            msg_len,
            client_rep,
            replica_rep,
            rep_rkeys,
            client_rings: client_rings
                .try_into()
                .unwrap_or_else(|_| unreachable!("three rings")),
            rep_rings: rep_rings
                .into_iter()
                .map(|r| r.try_into().unwrap_or_else(|_| unreachable!()))
                .collect(),
            pending: BTreeMap::new(),
            next_seq: 0,
            inflight: [0; 3],
            issued_ops: [0; 3],
            posted_seen: vec![[slots as u64; 3]; n],
            max_inflight: slots / 2,
            stats: GroupStats::default(),
            paused: false,
            cfg,
        };
        let group: GroupRef = Rc::new(RefCell::new(inner));

        // Pre-post every slot on every replica ring.
        {
            let mut inner = group.borrow_mut();
            for i in 0..n {
                for prim in Primitive::ALL {
                    for _ in 0..slots {
                        post_slot(&mut inner, w, i, prim);
                    }
                }
            }
            // Arm the rings (park their WAITs) with one doorbell each.
            for i in 0..n {
                let rh = inner.cfg.replicas[i];
                for prim in Primitive::ALL {
                    let ring = &inner.rep_rings[i][prim.idx()];
                    let (qn, ql) = (ring.qp_next, ring.qp_local);
                    let h = &mut w.hosts[rh.0];
                    let mut outs = Vec::new();
                    h.nic
                        .ring_doorbell(SimTime::ZERO, qn, &mut h.mem, &mut outs);
                    if let Some(ql) = ql {
                        h.nic
                            .ring_doorbell(SimTime::ZERO, ql, &mut h.mem, &mut outs);
                    }
                    debug_assert!(outs.is_empty(), "arming must only park WAITs");
                }
            }
        }
        group
    }
}

/// WQEs per slot on the downstream QP.
fn per_slot_next(prim: Primitive, is_tail: bool) -> u64 {
    match (prim, is_tail) {
        (Primitive::GWrite, false) => 4, // WAIT WRITE FLUSH SEND
        (Primitive::GWrite, true) => 2,  // WAIT WRITE_IMM
        (Primitive::GMemcpy, _) => 2,    // WAIT SEND/WRITE_IMM
        (Primitive::GCas, _) => 2,       // WAIT SEND/WRITE_IMM
    }
}

/// WQEs per slot on the loopback QP (0 = no loopback leg).
fn per_slot_local(prim: Primitive) -> u64 {
    match prim {
        Primitive::GWrite => 0,
        Primitive::GMemcpy => 3, // WAIT COPY LFLUSH
        Primitive::GCas => 2,    // WAIT CAS
    }
}

fn ack_recv(slot: u64) -> RecvWqe {
    RecvWqe {
        wr_id: slot,
        scatter: vec![], // WRITE_IMM places data via raddr; no scatter
    }
}

/// Pre-post one slot (WQEs + RECV) on replica `i`'s `prim` ring.
/// Callable at build time and from the replenisher.
pub(crate) fn post_slot(inner: &mut GroupInner, w: &mut World, i: usize, prim: Primitive) {
    let n = inner.n_replicas();
    let is_tail = i == n - 1;
    let g = inner.g;
    let msg_len = inner.msg_len;
    let rh = inner.cfg.replicas[i];
    let slots = inner.cfg.ring_slots as u64;
    let ring = &inner.rep_rings[i][prim.idx()];
    let slot = ring.slots_posted;
    let staging_slot = ring.staging.at((slot % slots) * msg_len);
    let rec = metadata::rec_off(g, i);
    let next_rkey = ring.next_rkey;
    let prev_rcq = ring.prev_rcq;
    let local_scq = ring.local_scq;
    let qp_next = ring.qp_next;
    let qp_local = ring.qp_local;
    let qp_prev = ring.qp_prev;
    // The tail's ACK lands at the client's per-slot ack address.
    let ack_slot_addr = inner.client_rings[prim.idx()]
        .ack_buf
        .at((slot % slots) * 8 * g as u64);

    let host = &mut w.hosts[rh.0];
    let mut scatter: Vec<ScatterEntry> = vec![ScatterEntry {
        msg_off: 0,
        len: msg_len as u32,
        addr: staging_slot,
    }];

    let se = |msg_off: u64, len: u64, addr: u64| ScatterEntry {
        msg_off: msg_off as u32,
        len: len as u32,
        addr,
    };

    match prim {
        Primitive::GWrite => {
            let wait = Wqe {
                opcode: Opcode::Wait,
                flags: flags::HW_OWNED,
                raddr: Wqe::wait_params(prev_rcq, 1),
                activate_n: if is_tail { 1 } else { 3 },
                wr_id: slot,
                ..Default::default()
            };
            host.post_send(qp_next, wait, false)
                .expect("ring sized for slots");
            if is_tail {
                let wimm = Wqe {
                    opcode: Opcode::WriteImm,
                    len: 8 * g as u32,
                    laddr: staging_slot + metadata::results_off(),
                    raddr: ack_slot_addr,
                    rkey: next_rkey,
                    wr_id: slot,
                    ..Default::default()
                };
                let idx = host.post_send(qp_next, wimm, true).unwrap();
                let wimm_addr = slot_wqe_addr(host, qp_next, idx);
                scatter.push(se(0, 4, wimm_addr + field_offset::IMM));
                scatter.push(se(metadata::OP_OFF, 4, wimm_addr + field_offset::OP));
            } else {
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
                let sidx = host.post_send(qp_next, send, true).unwrap();
                let waddr = slot_wqe_addr(host, qp_next, widx);
                let faddr = slot_wqe_addr(host, qp_next, fidx);
                let saddr = slot_wqe_addr(host, qp_next, sidx);
                scatter.extend([
                    se(rec + wrec::LEN, 4, waddr + field_offset::LEN),
                    se(rec + wrec::SRC, 8, waddr + field_offset::LADDR),
                    se(rec + wrec::DST, 8, waddr + field_offset::RADDR),
                    se(rec + wrec::FOP, 1, faddr + field_offset::OPCODE),
                    se(rec + wrec::FADDR, 8, faddr + field_offset::RADDR),
                    se(rec + wrec::FLEN, 4, faddr + field_offset::LEN),
                    // Telemetry op id rides the same scatter into every
                    // data WQE, so causal spans cost zero replica CPU.
                    se(metadata::OP_OFF, 4, waddr + field_offset::OP),
                    se(metadata::OP_OFF, 4, faddr + field_offset::OP),
                    se(metadata::OP_OFF, 4, saddr + field_offset::OP),
                ]);
            }
        }
        Primitive::GMemcpy | Primitive::GCas => {
            let qp_local = qp_local.expect("local leg");
            // Loopback leg: WAIT on the upstream recv, then local op(s).
            let local_ops = if prim == Primitive::GMemcpy { 2 } else { 1 };
            let wait_l = Wqe {
                opcode: Opcode::Wait,
                flags: flags::HW_OWNED,
                raddr: Wqe::wait_params(prev_rcq, 1),
                activate_n: local_ops,
                wr_id: slot,
                ..Default::default()
            };
            host.post_send(qp_local, wait_l, false).unwrap();
            if prim == Primitive::GMemcpy {
                let copy = Wqe {
                    opcode: Opcode::LocalCopy,
                    flags: flags::SIGNALED,
                    wr_id: slot,
                    ..Default::default()
                };
                let cidx = host.post_send(qp_local, copy, true).unwrap();
                let lflush = Wqe {
                    opcode: Opcode::LocalFlush,
                    flags: flags::SIGNALED,
                    wr_id: slot,
                    ..Default::default()
                };
                let fidx = host.post_send(qp_local, lflush, true).unwrap();
                let caddr = slot_wqe_addr(host, qp_local, cidx);
                let faddr = slot_wqe_addr(host, qp_local, fidx);
                scatter.extend([
                    se(rec + wrec::LEN, 4, caddr + field_offset::LEN),
                    se(rec + wrec::SRC, 8, caddr + field_offset::LADDR),
                    se(rec + wrec::DST, 8, caddr + field_offset::RADDR),
                    se(rec + wrec::FOP, 1, faddr + field_offset::OPCODE),
                    se(rec + wrec::FADDR, 8, faddr + field_offset::RADDR),
                    se(rec + wrec::FLEN, 4, faddr + field_offset::LEN),
                    se(metadata::OP_OFF, 4, caddr + field_offset::OP),
                    se(metadata::OP_OFF, 4, faddr + field_offset::OP),
                ]);
            } else {
                let cas = Wqe {
                    opcode: Opcode::LocalCas,
                    flags: flags::SIGNALED,
                    len: 8,
                    wr_id: slot,
                    ..Default::default()
                };
                let cidx = host.post_send(qp_local, cas, true).unwrap();
                let caddr = slot_wqe_addr(host, qp_local, cidx);
                scatter.extend([
                    se(rec + crec::COP, 1, caddr + field_offset::OPCODE),
                    se(rec + crec::TARGET, 8, caddr + field_offset::RADDR),
                    se(rec + crec::CMP, 8, caddr + field_offset::CMP),
                    se(rec + crec::SWP, 8, caddr + field_offset::SWP),
                    se(rec + crec::RESULT, 8, caddr + field_offset::LADDR),
                    se(metadata::OP_OFF, 4, caddr + field_offset::OP),
                ]);
            }
            // Downstream leg: WAIT for the local CQEs, then forward.
            let wait_n = Wqe {
                opcode: Opcode::Wait,
                flags: flags::HW_OWNED,
                raddr: Wqe::wait_params(local_scq, local_ops as u32),
                activate_n: 1,
                wr_id: slot,
                ..Default::default()
            };
            host.post_send(qp_next, wait_n, false).unwrap();
            if is_tail {
                let wimm = Wqe {
                    opcode: Opcode::WriteImm,
                    len: 8 * g as u32,
                    laddr: staging_slot + metadata::results_off(),
                    raddr: ack_slot_addr,
                    rkey: next_rkey,
                    wr_id: slot,
                    ..Default::default()
                };
                let idx = host.post_send(qp_next, wimm, true).unwrap();
                let wimm_addr = slot_wqe_addr(host, qp_next, idx);
                scatter.push(se(0, 4, wimm_addr + field_offset::IMM));
                scatter.push(se(metadata::OP_OFF, 4, wimm_addr + field_offset::OP));
            } else {
                let send = Wqe {
                    opcode: Opcode::Send,
                    len: msg_len as u32,
                    laddr: staging_slot,
                    wr_id: slot,
                    ..Default::default()
                };
                let sidx = host.post_send(qp_next, send, true).unwrap();
                let saddr = slot_wqe_addr(host, qp_next, sidx);
                scatter.push(se(metadata::OP_OFF, 4, saddr + field_offset::OP));
            }
        }
    }

    host.post_recv(
        qp_prev,
        RecvWqe {
            wr_id: slot,
            scatter,
        },
    );
    inner.rep_rings[i][prim.idx()].slots_posted += 1;
}

/// Address of the WQE at ring index `idx` of `qpn` on this host.
fn slot_wqe_addr(host: &hl_cluster::Host, qpn: u32, idx: u64) -> u64 {
    host.nic.sq_slot_addr(qpn, idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_shapes_match_ring_sizing() {
        // gWRITE: WAIT WRITE FLUSH SEND downstream, no loopback.
        assert_eq!(per_slot_next(Primitive::GWrite, false), 4);
        assert_eq!(per_slot_next(Primitive::GWrite, true), 2);
        assert_eq!(per_slot_local(Primitive::GWrite), 0);
        // gMEMCPY: WAIT COPY LFLUSH loopback; WAIT SEND downstream.
        assert_eq!(per_slot_next(Primitive::GMemcpy, false), 2);
        assert_eq!(per_slot_local(Primitive::GMemcpy), 3);
        // gCAS: WAIT CAS loopback; WAIT SEND downstream.
        assert_eq!(per_slot_next(Primitive::GCas, true), 2);
        assert_eq!(per_slot_local(Primitive::GCas), 2);
    }

    #[test]
    fn credit_math_refuses_at_ring_edge() {
        let mut inner = GroupInner {
            cfg: GroupConfig {
                replicas: vec![hl_fabric::HostId(1)],
                ring_slots: 8,
                ..Default::default()
            },
            g: 2,
            msg_len: metadata::msg_len(2),
            client_rep: hl_nvm::Region {
                name: "t".into(),
                addr: 0,
                len: 64,
            },
            replica_rep: vec![],
            rep_rkeys: vec![],
            client_rings: std::array::from_fn(|_| ClientRing {
                qp_out: 0,
                out_scq: 0,
                ack_qp: 0,
                ack_rcq: 0,
                staging: hl_nvm::Region {
                    name: "s".into(),
                    addr: 0,
                    len: 0,
                },
                ack_buf: hl_nvm::Region {
                    name: "a".into(),
                    addr: 0,
                    len: 0,
                },
            }),
            rep_rings: vec![],
            pending: BTreeMap::new(),
            next_seq: 0,
            inflight: [0; 3],
            issued_ops: [0; 3],
            posted_seen: vec![[8; 3]],
            max_inflight: 4,
            stats: GroupStats::default(),
            paused: false,
        };
        // max_inflight bound.
        for _ in 0..4 {
            assert!(inner.take_credit(Primitive::GWrite).is_ok());
        }
        assert!(inner.take_credit(Primitive::GWrite).is_err());
        assert_eq!(inner.stats.backpressured, 1);
        // Pause bound.
        inner.inflight = [0; 3];
        inner.paused = true;
        assert!(inner.take_credit(Primitive::GWrite).is_err());
        inner.paused = false;
        // Ring-credit bound: replica reported only 8 slots posted.
        inner.issued_ops[0] = 8;
        assert!(inner.take_credit(Primitive::GWrite).is_err());
        // Credit report unblocks.
        inner.posted_seen[0][0] = 16;
        assert!(inner.take_credit(Primitive::GWrite).is_ok());
    }
}
