//! Group setup: QP wiring, memory layout, and WQE pre-posting.
//!
//! A HyperLoop group is a chain `client → r0 → r1 → … → r(n-1) → client`
//! (the tail ACKs straight back to the client). Per *primitive* each hop
//! gets its own QP pair so that RECV ordering can never mix rings, plus
//! a loopback QP for the NIC-local legs of gMEMCPY/gCAS — exactly the
//! extra-QP construction of paper Figures 6 and 7.
//!
//! Every replica pre-posts a ring of *slots*. One slot is the WQE bundle
//! that executes one group operation hop without CPU; the bundles are
//! the `program::chain` table. All operation WQEs are posted
//! *deferred* (software-owned, blank descriptors); the slot's RECV
//! scatters the client's metadata into their descriptor fields and the
//! WAIT grants them to the NIC. Slots are consumed in order and
//! replenished off the critical path by the replenisher process
//! ([`crate::replica::start_replenishers`]).

use crate::metadata::{self, MetaMsg, Primitive};
use crate::program::{self, Downstream, Recv, SlotProgram};
use crate::replica::{Offload, Rings};
use crate::wire::{self, AckRing, PendingTable, Qp};
use hl_cluster::World;
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::{Access, WQE_SIZE};
use hl_sim::{SimDuration, SimTime};
use std::cell::RefCell;
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
    /// Ignored: replenishers wake on ring progress, not on a clock
    /// (`crate::replica`). Kept only for source compatibility.
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
#[derive(Debug, Clone, Default)]
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
    /// QP toward replica 0; transport error CQEs land on its send CQ.
    pub out: Qp,
    /// Staging buffer: `slots × msg_len` for outgoing metadata.
    pub staging: Region,
    /// Where the tail's ACK WRITE_IMM lands: `slots × 8·g`.
    pub ack: AckRing,
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
    /// Every replica's three slot programs, `[replica][primitive]`, and
    /// the client's credits against them.
    pub(crate) rings: Rings,
    pending: PendingTable<Pending>,
    /// The buffer every operation's metadata message is built in.
    pub(crate) msg: MetaMsg,
    next_seq: u32,
    /// Counters.
    pub stats: GroupStats,
    /// Writes paused (recovery in progress).
    pub paused: bool,
}

/// Shared handle to a group.
pub type GroupRef = Rc<RefCell<GroupInner>>;

impl Offload for GroupInner {
    fn rings(&mut self) -> &mut Rings {
        &mut self.rings
    }
    fn reposted(&mut self, n: u64) {
        self.stats.reposted += n;
    }
}

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

    /// Reserve the next slot of `prim`'s ring, or refuse.
    pub(crate) fn take_credit(&mut self, prim: Primitive) -> Result<u64, Backpressure> {
        if !self.paused {
            if let Ok(slot) = self.rings.credits.take(prim.idx()) {
                self.stats.issued += 1;
                return Ok(slot);
            }
        }
        self.stats.backpressured += 1;
        Err(Backpressure)
    }

    pub(crate) fn alloc_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
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
        let p = self.pending.remove(seq)?;
        self.rings.credits.complete(p.prim.idx());
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
        self.rings.credits.inflight_total()
    }

    /// Take the group out of service for good, as a reconfiguration that
    /// replaces it does at its commit: it refuses new issues, and its
    /// replenishers' wake-ups and its clients' ACK dispatchers are
    /// unsubscribed, so nothing in the world holds it any more but its
    /// client handles.
    pub fn retire(&mut self, w: &mut World) {
        self.paused = true;
        self.rings.retire(w);
        for ring in &self.client_rings {
            w.unsubscribe_cq(self.cfg.client, ring.ack.rcq);
        }
    }
}

/// Builds a group: allocates regions, wires QPs, pre-posts all rings.
pub struct GroupBuilder {
    cfg: GroupConfig,
}

impl GroupBuilder {
    /// Start building from a config.
    pub fn new(cfg: GroupConfig) -> Self {
        assert!(!cfg.replicas.is_empty(), "a group needs >= 1 replica");
        assert!(cfg.ring_slots >= 4);
        GroupBuilder { cfg }
    }

    /// Allocate, wire and pre-post everything. Setup is control-path and
    /// is not timed (the paper's CPUs also only initialize the group).
    pub fn build(self, w: &mut World) -> GroupRef {
        let cfg = self.cfg;
        let g = cfg.replicas.len() + 1;
        let n = cfg.replicas.len();
        let msg_len = metadata::msg_len(g);
        let slots = cfg.ring_slots;

        // --- rep regions ----------------------------------------------------
        let ch = cfg.client;
        let client_rep = wire::region(w, ch, "rep", cfg.rep_bytes);
        // The client's own copy is persisted by its CPU; no remote access
        // needed, but recovery reads it, so allow remote read.
        w.host(ch)
            .nic
            .register_mr(client_rep.addr, client_rep.len, Access::REMOTE_READ);
        let mut replica_rep = Vec::new();
        let mut rep_rkeys = Vec::new();
        for &rh in &cfg.replicas {
            let r = wire::region(w, rh, "rep", cfg.rep_bytes);
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
        let mut programs: Vec<Vec<SlotProgram>> = (0..n).map(|_| Vec::new()).collect();
        for prim in Primitive::ALL {
            // Client side.
            let out = wire::op_qp(w, ch, slots);
            let staging = wire::region(w, ch, "staging", slots as u64 * msg_len);
            if let Some((to, retry_cnt)) = cfg.transport_timeout {
                w.host(ch).nic.set_qp_timeout(out.qpn, to, retry_cnt);
            }
            let ack = AckRing::new(w, ch, slots, g);

            // Replica side, walking down the chain.
            let mut upstream = (ch, out.qpn);
            for (i, &rh) in cfg.replicas.iter().enumerate() {
                let down = if i == n - 1 {
                    Downstream::Client(ack.target())
                } else {
                    Downstream::Replica {
                        rkey: rep_rkeys[i + 1],
                    }
                };
                let prev = wire::recv_qp(w, rh);
                let rec = metadata::rec_off(g, i);
                let steps = program::chain(prim, g, msg_len, rec, prev.rcq, down);
                let next_wqes = program::sq_wqes(&steps, 0, slots);
                let next = wire::qp(w, rh, next_wqes);
                let staging_r = wire::region(w, rh, "staging", slots as u64 * msg_len);
                // Paper §4.1: the WQE ring itself is registered as an
                // RDMA-accessible region (with safety checks).
                let next_sq = w.host(rh).nic.sq_slot_addr(next.qpn, 0);
                w.host(rh).nic.register_mr(
                    next_sq,
                    next_wqes as u64 * WQE_SIZE,
                    Access::REMOTE_WRITE,
                );
                let mut queues = vec![next];
                let local_wqes = program::sq_wqes(&steps, 1, slots);
                if local_wqes > 0 {
                    let lcq = wire::cq(w, rh);
                    queues.push(wire::qp_on(w, rh, local_wqes, lcq, lcq));
                }
                w.connect_qps(upstream.0, upstream.1, rh, prev.qpn);
                programs[i].push(SlotProgram::new(
                    rh,
                    queues,
                    Recv::Qp(prev),
                    Some((staging_r, msg_len)),
                    vec![],
                    steps,
                    slots,
                ));
                upstream = (rh, next.qpn);
            }
            // Tail -> client ack wiring.
            w.connect_qps(upstream.0, upstream.1, ch, ack.qp);

            client_rings.push(ClientRing { out, staging, ack });
        }

        Rc::new(RefCell::new(GroupInner {
            g,
            msg_len,
            client_rep,
            replica_rep,
            rep_rkeys,
            client_rings: client_rings
                .try_into()
                .unwrap_or_else(|_| unreachable!("three rings")),
            rings: Rings::prepost(programs, slots, slots / 2, w),
            pending: PendingTable::new(),
            msg: MetaMsg::new(g, 0),
            next_seq: 0,
            stats: GroupStats::default(),
            paused: false,
            cfg,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Credits;

    #[test]
    fn credit_math_refuses_at_ring_edge() {
        // One ring over one host, 8 slots pre-posted, 4 in flight at most.
        let mut c = Credits::new(1, 1, 8, 4);
        // max_inflight bound.
        for slot in 0..4 {
            assert_eq!(c.take(0), Ok(slot));
        }
        assert_eq!(c.take(0), Err(Backpressure));
        // Ring-credit bound: ACKs free in-flight room, but the host
        // reported only 8 slots posted.
        for _ in 0..4 {
            c.complete(0);
        }
        for slot in 4..8 {
            assert_eq!(c.take(0), Ok(slot));
            c.complete(0);
        }
        assert_eq!(c.take(0), Err(Backpressure));
        // Credit report unblocks.
        c.report(0, 0, 16);
        assert_eq!(c.take(0), Ok(8));
    }
}
