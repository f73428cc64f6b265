//! The RDMA NIC state machine.
//!
//! One [`Nic`] per host. The NIC is a pure state machine: every entry
//! point takes the current time, the host's [`NvmArena`] and a
//! caller-owned output sink, mutates NIC and memory state, and pushes
//! [`NicOutput`]s — packets to transmit, completions to deliver, and
//! deferred local operations — each stamped with an absolute time. The
//! cluster layer turns outputs into events in push order, and the engine
//! breaks same-instant ties by that order, so the order in which an
//! entry point pushes is part of its contract (DESIGN.md §11). The NIC
//! never allocates the sink: one `Vec` travels from the doorbell or
//! packet entry down through every helper.
//!
//! ## Send-queue semantics
//!
//! WQEs execute strictly in order per QP. The engine stops at:
//!
//! * a WQE whose ownership bit is software (not yet activated),
//! * an unsatisfied WAIT (the QP is *parked* on the watched CQ and
//!   resumes when enough completions are produced — CORE-Direct),
//! * a fencing operation in flight (READ / FLUSH / CAS block the SQ
//!   until their response, which is what makes an interleaved
//!   gWRITE+gFLUSH propagate durably in order, paper §4.2).
//!
//! WQE bytes are (re-)read from host memory at execution time, so
//! descriptors rewritten by a received metadata scatter are what
//! actually executes — remote work request manipulation is genuine in
//! this model, not emulated.
//!
//! ## Transport reliability
//!
//! By default QPs use the historical fire-and-forget model: the fabric's
//! FIFO egress guarantees ordering, and loss (fault injection) simply
//! loses the operation. [`Nic::set_qp_timeout`] upgrades one QP to real
//! RC loss recovery: requests carry PSNs, the requester keeps them on an
//! unacked list guarded by an ack-timeout timer
//! ([`NicOutput::ArmTimer`] / [`Nic::on_timer`]), timeouts trigger
//! go-back-N retransmission, and `retry_cnt` consecutive timeouts move
//! the QP to [`QpState::Error`], flushing all outstanding and posted
//! work with error completions ([`CqeStatus::RetryExceeded`] for the
//! head-of-line request, [`CqeStatus::FlushedInError`] for the rest).
//! The responder enforces expected-PSN ordering: duplicates are re-acked
//! without re-execution (fencing responses replay from a one-deep
//! cache, keeping CAS exactly-once), gaps are dropped for the sender's
//! timer to repair.
//!
//! ## Fault hooks
//!
//! [`Nic::set_stalled`] freezes the whole NIC (inbound packets are
//! dropped, the send engine halts) — a crashed/hung adapter.
//! [`Nic::set_wait_stalled`] breaks only WAIT triggering, modelling a
//! CORE-Direct offload malfunction: plain CPU-posted WQEs still execute,
//! so a chain can degrade to CPU-driven (Naïve) forwarding.

use crate::cq::{Cq, Cqe, CqeKind, CqeStatus};
use crate::mr::{Access, MemoryRegion, MrTable};
use crate::packet::{NakReason, Packet, PacketKind};
use crate::qp::{PendingTx, Qp, QpState, QpTimeout, RecvWqe, SqRing};
#[cfg(feature = "check-ownership")]
use crate::track::{OwnershipTracker, Violation};
use crate::wqe::{flags, Opcode, Wqe, WQE_SIZE};
use hl_nvm::NvmArena;
use hl_sim::config::NicProfile;
use hl_sim::{Bytes, JitterTable, RngStream, SimDuration, SimTime};
use std::sync::Arc;

/// Things the cluster layer must do on the NIC's behalf.
#[derive(Debug)]
pub enum NicOutput {
    /// Hand `packet` to the fabric at time `at`.
    Transmit {
        /// Absolute transmit time (after NIC processing delays).
        at: SimTime,
        /// Destination NIC (cluster host index).
        dst_nic: u32,
        /// The packet.
        packet: Packet,
    },
    /// Call [`Nic::deliver_cqe`] at time `at`.
    Complete {
        /// Absolute delivery time.
        at: SimTime,
        /// Target CQ.
        cq: u32,
        /// The completion.
        cqe: Cqe,
    },
    /// Call [`Nic::finish_local`] at time `at` (loopback DMA / atomic).
    DoLocal {
        /// Absolute completion time of the local operation.
        at: SimTime,
        /// Loopback QP.
        qpn: u32,
        /// The WQE to execute locally.
        wqe: Wqe,
    },
    /// A CQ with an armed completion event produced a CQE; wake whoever
    /// is sleeping on it (event-mode baseline replicas).
    CqEvent {
        /// The CQ that fired.
        cq: u32,
    },
    /// Call [`Nic::on_timer`] at time `at` (retransmit timer for a
    /// reliable QP). `gen` lets the NIC ignore superseded timers.
    ArmTimer {
        /// Absolute expiry time.
        at: SimTime,
        /// The QP whose ack timer this is.
        qpn: u32,
        /// Timer generation at arm time.
        gen: u64,
    },
    /// The QP's ack timer became dead (unacked list drained, or the QP
    /// entered Error): the cluster layer should cancel the pending
    /// timer event instead of letting it fire as a stale no-op.
    CancelTimer {
        /// The QP whose ack timer is dead.
        qpn: u32,
    },
}

/// In-flight fencing operation state (at most one per QP).
#[derive(Debug, Clone, Copy)]
struct Inflight {
    wr_id: u64,
    /// Local address for READ data / CAS result.
    laddr: u64,
    signaled: bool,
    /// Telemetry op id of the fencing WQE.
    op: u32,
}

/// A telemetry event recorded inside the NIC state machine.
///
/// The NIC cannot see the cluster's `Telemetry` hub (it only borrows
/// its own arena), so op-stage events are buffered here and drained by
/// the cluster layer (`World::route_nic`) right after every entry-point
/// call. Only recorded when [`Nic::set_telemetry`] enabled it *and* the
/// op id is non-zero, so the buffer stays empty in ordinary runs.
#[derive(Debug, Clone, Copy)]
pub struct NicEvent {
    /// When the event happened.
    pub at: SimTime,
    /// Telemetry op id (non-zero).
    pub op: u32,
    /// What happened.
    pub kind: NicEventKind,
}

/// Kinds of NIC-internal telemetry events.
#[derive(Debug, Clone, Copy)]
pub enum NicEventKind {
    /// The send engine fetched one of the op's WQEs from host memory.
    Fetch {
        /// The QP whose ring was fetched from.
        qpn: u32,
    },
    /// A WAIT guarding the op's WQEs parked (condition unmet).
    WaitPark {
        /// The watched CQ.
        cq: u32,
    },
    /// A WAIT fired and granted the op's WQEs to the NIC.
    WaitFire {
        /// The watched CQ.
        cq: u32,
    },
    /// A packet of the op was handed to the fabric.
    TxWire {
        /// Destination NIC.
        dst: u32,
    },
    /// A packet of the op arrived from the fabric.
    RxWire {
        /// Source NIC.
        src: u32,
    },
    /// A NIC-local DMA (copy/CAS/flush) of the op finished.
    DmaDone {
        /// The loopback QP.
        qpn: u32,
    },
    /// A CQE of the op was delivered.
    CqeDeliver {
        /// The target CQ.
        cq: u32,
    },
}

/// NIC counters for reporting.
#[derive(Debug, Default, Clone)]
pub struct NicCounters {
    /// WQEs executed by the send engine.
    pub wqes_executed: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Packets received.
    pub rx_packets: u64,
    /// NAKs generated (access refusals, missing RECVs).
    pub naks_sent: u64,
    /// Error completions delivered.
    pub error_cqes: u64,
    /// Cache flushes performed for FLUSH requests.
    pub flushes: u64,
    /// Go-back-N retransmissions (reliable QPs).
    pub retransmits: u64,
    /// Ack-timeout expirations on reliable QPs.
    pub timeouts: u64,
    /// Inbound packets discarded: NIC stalled, QP in Error, stale
    /// duplicates, or PSN gaps awaiting retransmission.
    pub rx_dropped: u64,
    /// Doorbell rings (send-engine kicks from software).
    pub doorbells: u64,
    /// WAIT WQEs that parked on an unsatisfied CQ condition.
    pub wait_parks: u64,
    /// WAIT WQEs that fired (unblocked and granted their successors).
    pub wait_fires: u64,
    /// CQEs that overwrote the oldest entry of a full CQ ring. Legal on
    /// the CQs only WAITs watch; see [`Nic::polled_cq_overruns`] for the
    /// ones that are errors.
    pub cq_overruns: u64,
}

/// One host's RDMA NIC.
#[derive(Debug)]
pub struct Nic {
    /// This NIC's cluster-wide id (host index).
    pub id: u32,
    profile: NicProfile,
    mrs: MrTable,
    qps: Vec<Qp>,
    cqs: Vec<Cq>,
    srqs: Vec<std::collections::VecDeque<RecvWqe>>,
    /// Per-CQ list of QPs parked on an unsatisfied WAIT.
    waiters: Vec<Vec<u32>>,
    /// Spare waiter list that [`Nic::deliver_cqe`] swaps with the list
    /// it is resuming (empty between calls).
    resumed: Vec<u32>,
    inflight: Vec<Option<Inflight>>,
    rng: RngStream,
    /// Sampler for `profile.jitter_sigma`, shared by every NIC with the
    /// same sigma; `None` when sigma is 0 (see [`Nic::jit`]).
    jitter: Option<Arc<JitterTable>>,
    counters: NicCounters,
    /// Whole-NIC fault: inbound packets dropped, send engine halted.
    stalled: bool,
    /// CORE-Direct fault: WAIT WQEs never trigger (QPs park on them);
    /// everything else keeps working.
    wait_stalled: bool,
    /// Telemetry stamping enabled (see [`NicEvent`]).
    telemetry_on: bool,
    /// Buffered telemetry events awaiting [`Nic::take_events`].
    events: Vec<NicEvent>,
    /// WQE-ownership & DMA race detector (pure observation).
    #[cfg(feature = "check-ownership")]
    tracker: OwnershipTracker,
}

impl Nic {
    /// New NIC with the given timing profile and jitter stream.
    pub fn new(id: u32, profile: NicProfile, rng: RngStream) -> Self {
        Nic {
            id,
            jitter: (profile.jitter_sigma != 0.0)
                .then(|| JitterTable::shared(profile.jitter_sigma)),
            profile,
            mrs: MrTable::new(),
            qps: Vec::new(),
            cqs: Vec::new(),
            srqs: Vec::new(),
            waiters: Vec::new(),
            resumed: Vec::new(),
            inflight: Vec::new(),
            rng,
            counters: NicCounters::default(),
            stalled: false,
            wait_stalled: false,
            telemetry_on: false,
            events: Vec::new(),
            #[cfg(feature = "check-ownership")]
            tracker: OwnershipTracker::default(),
        }
    }

    /// Enable or disable telemetry event stamping. While enabled, the
    /// caller must drain [`Nic::take_events`] after each entry-point
    /// call (the cluster's output router does this).
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry_on = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drain buffered telemetry events, in stamping order.
    pub fn take_events(&mut self) -> Vec<NicEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drain buffered telemetry events into `out` (appending, in
    /// stamping order). Unlike [`Nic::take_events`] this preserves both
    /// buffers' capacity, so a caller draining after every entry-point
    /// call — the cluster's output router — allocates nothing in steady
    /// state.
    pub fn take_events_into(&mut self, out: &mut Vec<NicEvent>) {
        out.append(&mut self.events);
    }

    /// Are there buffered telemetry events?
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Buffer a telemetry event (no-op when disabled or untracked).
    #[inline]
    fn ev(&mut self, at: SimTime, op: u32, kind: NicEventKind) {
        if self.telemetry_on && op != 0 {
            self.events.push(NicEvent { at, op, kind });
        }
    }

    /// Read the telemetry op id out of the WQE at ring index `idx`
    /// without consuming it. WAIT descriptors are never op-stamped, so a
    /// firing/parking WAIT borrows the id of the first WQE it guards.
    /// Returns 0 when telemetry is off, the slot is unposted, or the
    /// read fails — never panics (runs on doorbell/packet paths).
    fn peek_slot_op(&self, qpn: u32, idx: u64, mem: &NvmArena) -> u32 {
        if !self.telemetry_on {
            return 0;
        }
        let sq = &self.qps[qpn as usize].sq;
        if idx >= sq.tail {
            return 0;
        }
        mem.read_u32(sq.slot_addr(idx) + crate::wqe::field_offset::OP)
            .unwrap_or(0)
    }

    /// Violations recorded by the WQE-ownership & DMA race detector, in
    /// detection order.
    #[cfg(feature = "check-ownership")]
    pub fn race_violations(&self) -> &[Violation] {
        self.tracker.violations()
    }

    /// Counters snapshot.
    pub fn counters(&self) -> &NicCounters {
        &self.counters
    }

    /// Jittered duration: multiplies by a log-normal factor with median
    /// 1 (one `u64` of the NIC's stream through the shared
    /// [`JitterTable`]), plus a rare exponential memory-bus contention
    /// hit. With `jitter_sigma == 0.0` the duration is returned as is
    /// and nothing is drawn — contention included, whatever
    /// `contention_prob` says: a zero-sigma profile is an exactly
    /// repeatable NIC.
    fn jit(&mut self, d: SimDuration) -> SimDuration {
        let Some(table) = &self.jitter else {
            return d;
        };
        let mut ns = d.as_nanos() as f64 * table.factor(self.rng.u64());
        if self.profile.contention_prob > 0.0 && self.rng.chance(self.profile.contention_prob) {
            ns += self
                .rng
                .exponential(self.profile.contention_mean.as_nanos() as f64);
        }
        // Audited: the float factor is drawn from the seeded per-NIC
        // RngStream and rounded once, half up, by the integer cast (no
        // accumulation across events), so the same seed replays the same
        // nanosecond.
        SimDuration::from_nanos((ns + 0.5) as u64) // hl-lint: allow(float-time)
    }

    // ----- setup ---------------------------------------------------------

    /// Register a memory region.
    pub fn register_mr(&mut self, addr: u64, len: u64, access: Access) -> MemoryRegion {
        self.mrs.register(addr, len, access)
    }

    /// Deregister a memory region by rkey. Subsequent remote accesses
    /// quoting either key are refused with a `RemoteAccess` NAK (and
    /// flagged by the race detector as use-after-deregister when the
    /// `check-ownership` feature is on). Returns `false` for an unknown
    /// key.
    pub fn deregister_mr(&mut self, now: SimTime, rkey: u32) -> bool {
        let Some(mr) = self.mrs.deregister(rkey) else {
            return false;
        };
        #[cfg(feature = "check-ownership")]
        self.tracker.mr_deregistered(mr.rkey, mr.addr, mr.len, now);
        #[cfg(not(feature = "check-ownership"))]
        let _ = (now, mr);
        true
    }

    /// Create a completion queue.
    pub fn create_cq(&mut self) -> u32 {
        self.cqs.push(Cq::new());
        self.waiters.push(Vec::new());
        (self.cqs.len() - 1) as u32
    }

    /// Create a QP whose send ring lives at `sq_base` with `sq_capacity`
    /// slots. The ring memory itself must be registered separately if it
    /// is to be remotely writable (HyperLoop replicas do this).
    pub fn create_qp(&mut self, send_cq: u32, recv_cq: u32, sq_base: u64, sq_capacity: u32) -> u32 {
        let qpn = self.qps.len() as u32;
        self.qps.push(Qp::new(
            qpn,
            send_cq,
            recv_cq,
            SqRing::new(sq_base, sq_capacity),
        ));
        self.inflight.push(None);
        #[cfg(feature = "check-ownership")]
        self.tracker.track_ring(qpn, sq_base, sq_capacity);
        qpn
    }

    /// Connect a QP to a remote peer (RC). Loopback QPs stay unconnected.
    pub fn connect(&mut self, qpn: u32, remote_nic: u32, remote_qpn: u32) {
        self.qps[qpn as usize].remote = Some((remote_nic, remote_qpn));
    }

    /// Create a shared receive queue (paper §5: multi-client support).
    pub fn create_srq(&mut self) -> u32 {
        self.srqs.push(std::collections::VecDeque::new());
        (self.srqs.len() - 1) as u32
    }

    /// Attach a QP to an SRQ: its inbound two-sided operations consume
    /// from the shared ring instead of the per-QP receive queue.
    pub fn attach_srq(&mut self, qpn: u32, srq: u32) {
        assert!((srq as usize) < self.srqs.len());
        self.qps[qpn as usize].srq = Some(srq);
    }

    /// Post a receive to a shared receive queue.
    pub fn post_srq_recv(&mut self, srq: u32, wqe: RecvWqe) {
        self.srqs[srq as usize].push_back(wqe);
    }

    /// Outstanding receives on an SRQ.
    pub fn srq_depth(&self, srq: u32) -> usize {
        self.srqs[srq as usize].len()
    }

    /// Pop the next receive for a QP: from its SRQ when attached, else
    /// its own RQ.
    fn pop_recv(&mut self, qpn: u32) -> Option<RecvWqe> {
        match self.qps[qpn as usize].srq {
            Some(s) => self.srqs[s as usize].pop_front(),
            None => self.qps[qpn as usize].rq.pop_front(),
        }
    }

    /// Peer of a QP, if connected.
    pub fn peer(&self, qpn: u32) -> Option<(u32, u32)> {
        self.qps[qpn as usize].remote
    }

    // ----- transport reliability & fault hooks ---------------------------

    /// Enable the retransmit protocol on a QP: requests time out after
    /// `timeout` without a response and are retransmitted go-back-N;
    /// after `retry_cnt` consecutive timeouts the QP enters
    /// [`QpState::Error`] and flushes all outstanding work with error
    /// completions. Call before the first operation on the QP.
    pub fn set_qp_timeout(&mut self, qpn: u32, timeout: SimDuration, retry_cnt: u8) {
        assert!(timeout > SimDuration::ZERO, "zero ack timeout");
        self.qps[qpn as usize].timeout = Some(QpTimeout { timeout, retry_cnt });
    }

    /// Operational state of a QP.
    pub fn qp_state(&self, qpn: u32) -> QpState {
        self.qps[qpn as usize].state
    }

    /// Acknowledge a send-queue error ([`QpState::Sqe`]) and resume the
    /// QP. No-op in other states: [`QpState::Error`] is unrecoverable
    /// (tear down and reconnect, as with real RC).
    pub fn recover_qp(
        &mut self,
        now: SimTime,
        qpn: u32,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        if self.qps[qpn as usize].state != QpState::Sqe {
            return;
        }
        self.qps[qpn as usize].state = QpState::Rts;
        self.advance_sq(now, qpn, mem, out);
    }

    /// Stall or un-stall the whole NIC (fault injection: hung adapter).
    /// While stalled, inbound packets are dropped on the floor and the
    /// send engine does not run; reliable peers keep retransmitting into
    /// the void and eventually error out. Un-stalling kicks every send
    /// queue and immediately retransmits any unacked reliable requests.
    pub fn set_stalled(
        &mut self,
        now: SimTime,
        on: bool,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        if self.stalled == on {
            return;
        }
        self.stalled = on;
        if on {
            return;
        }
        for qpn in 0..self.qps.len() as u32 {
            self.advance_sq(now, qpn, mem, out);
            if !self.qps[qpn as usize].unacked.is_empty() {
                self.retransmit_all(now, qpn, out);
            }
        }
    }

    /// Is the NIC currently stalled?
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Break or repair WAIT triggering (fault injection: CORE-Direct
    /// offload malfunction). While set, every WAIT parks its QP
    /// regardless of CQ state — pre-posted forwarding chains freeze —
    /// but CPU-posted plain WQEs still execute, so software can degrade
    /// to CPU-driven forwarding. Clearing re-evaluates all parked QPs.
    pub fn set_wait_stalled(
        &mut self,
        now: SimTime,
        on: bool,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        if self.wait_stalled == on {
            return;
        }
        self.wait_stalled = on;
        if on {
            return;
        }
        for cq in 0..self.waiters.len() {
            let parked = std::mem::take(&mut self.waiters[cq]);
            for qpn in parked {
                self.qps[qpn as usize].parked = false;
                self.advance_sq(now, qpn, mem, out);
            }
        }
    }

    /// Is WAIT triggering currently broken?
    pub fn is_wait_stalled(&self) -> bool {
        self.wait_stalled
    }

    // ----- driver-side verbs ---------------------------------------------

    /// Post a WQE to the send queue, serializing it into host memory.
    ///
    /// `deferred = true` is the modified-driver path (paper §4.1): the
    /// ownership bit stays with software so the descriptor can still be
    /// rewritten (locally or by a remote scatter); a WAIT or an explicit
    /// [`Nic::grant_ownership`] hands it to the NIC later.
    pub fn post_send(
        &mut self,
        mem: &mut NvmArena,
        qpn: u32,
        mut wqe: Wqe,
        deferred: bool,
    ) -> Result<u64, RingFull> {
        let qp = &mut self.qps[qpn as usize];
        if !qp.sq.has_room() {
            return Err(RingFull {
                qpn,
                capacity: qp.sq.capacity,
            });
        }
        if deferred {
            wqe.flags &= !flags::HW_OWNED;
        } else {
            wqe.flags |= flags::HW_OWNED;
        }
        let idx = qp.sq.tail;
        let addr = qp.sq.slot_addr(idx);
        mem.write(addr, &wqe.encode())
            .expect("SQ ring out of arena");
        qp.sq.tail += 1;
        #[cfg(feature = "check-ownership")]
        self.tracker.slot_posted(qpn, idx, deferred);
        Ok(idx)
    }

    /// Grant NIC ownership of a previously deferred WQE (flips the flag
    /// byte in host memory). The caller still needs a doorbell (or an
    /// in-flight WAIT chain) for the NIC to notice.
    pub fn grant_ownership(&mut self, mem: &mut NvmArena, qpn: u32, idx: u64) {
        let addr = self.qps[qpn as usize].sq.slot_addr(idx);
        let f = mem.read(addr + 1, 1).expect("ring addr")[0];
        mem.write(addr + 1, &[f | flags::HW_OWNED]).unwrap();
        #[cfg(feature = "check-ownership")]
        self.tracker.slot_granted(qpn, idx);
    }

    /// Post a receive.
    pub fn post_recv(&mut self, qpn: u32, wqe: RecvWqe) {
        self.qps[qpn as usize].rq.push_back(wqe);
    }

    /// Number of posted receives on a QP.
    pub fn rq_depth(&self, qpn: u32) -> usize {
        self.qps[qpn as usize].rq.len()
    }

    /// Send-queue state `(head, tail, capacity)` for diagnostics and
    /// replenishment decisions.
    pub fn sq_state(&self, qpn: u32) -> (u64, u64, u32) {
        let sq = &self.qps[qpn as usize].sq;
        (sq.head, sq.tail, sq.capacity)
    }

    /// Host-memory address of the WQE slot holding ring index `idx`
    /// (setup-time address math for scatter targets).
    pub fn sq_slot_addr(&self, qpn: u32, idx: u64) -> u64 {
        self.qps[qpn as usize].sq.slot_addr(idx)
    }

    /// Number of QPs created on this NIC.
    pub fn num_qps(&self) -> usize {
        self.qps.len()
    }

    /// Ring the doorbell: kick the send engine.
    pub fn ring_doorbell(
        &mut self,
        now: SimTime,
        qpn: u32,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        self.counters.doorbells += 1;
        let t = now + self.profile.doorbell;
        self.advance_sq(t, qpn, mem, out);
    }

    /// Poll completions (CPU verb; CPU cost is accounted by the caller).
    pub fn poll_cq(&mut self, cq: u32, max: usize) -> Vec<Cqe> {
        self.cqs[cq as usize].poll(max)
    }

    /// Poll completions into a caller-owned buffer (appending), so hot
    /// drain loops can reuse one scratch `Vec` across polls.
    pub fn poll_cq_into(&mut self, cq: u32, max: usize, out: &mut Vec<Cqe>) {
        self.cqs[cq as usize].poll_into(max, out);
    }

    /// Arm the one-shot completion event on a CQ.
    pub fn arm_cq(&mut self, cq: u32) {
        self.cqs[cq as usize].arm();
    }

    /// A CQ's state: stored (pollable) entries, production count,
    /// overruns.
    pub fn cq(&self, cq: u32) -> &Cq {
        &self.cqs[cq as usize]
    }

    /// Number of CQs created on this NIC.
    pub fn num_cqs(&self) -> usize {
        self.cqs.len()
    }

    /// Completions lost to overruns on CQs that software polls or arms,
    /// summed over this NIC: a modelled CQ error (ibv
    /// `IBV_EVENT_CQ_ERR`), reported here rather than by a panic. Every
    /// correct run keeps it at 0.
    pub fn polled_cq_overruns(&self) -> u64 {
        self.cqs.iter().map(Cq::polled_overruns).sum()
    }

    // ----- send engine ----------------------------------------------------

    /// Advance a QP's send queue as far as possible.
    fn advance_sq(&mut self, now: SimTime, qpn: u32, mem: &mut NvmArena, out: &mut Vec<NicOutput>) {
        if self.stalled {
            return;
        }
        match self.qps[qpn as usize].state {
            QpState::Rts => {}
            // SQE: halted until software calls recover_qp.
            QpState::Sqe => return,
            // Error: everything posted flushes without executing.
            QpState::Error => return self.flush_sq_in_error(now, qpn, mem, out),
        }
        // The engine is serialized per QP.
        let mut t = now.max(self.qps[qpn as usize].busy_until);
        loop {
            let qp = &self.qps[qpn as usize];
            if qp.fenced || qp.sq.head >= qp.sq.tail {
                break;
            }
            let head_idx = qp.sq.head;
            let slot = qp.sq.slot_addr(head_idx);
            // The SQ ring's arena range is reserved at QP creation and
            // slot_addr wraps inside it; a read failing here is a
            // simulator bug, not reachable from guest data, and aborting
            // loudly is the deterministic response.
            // hl-lint: allow(panic-in-handler)
            let bytes = mem.read(slot, WQE_SIZE as usize).expect("SQ ring in arena");
            let Some(wqe) = Wqe::decode(bytes) else {
                // Corrupted descriptor (e.g. misdirected scatter): error
                // completion and skip.
                let send_cq = qp.send_cq;
                self.qps[qpn as usize].sq.head += 1;
                #[cfg(feature = "check-ownership")]
                self.tracker.slot_cleared(qpn, head_idx);
                self.counters.error_cqes += 1;
                out.push(NicOutput::Complete {
                    at: t,
                    cq: send_cq,
                    cqe: Cqe {
                        qpn,
                        wr_id: 0,
                        kind: CqeKind::SendOp,
                        status: CqeStatus::RemoteAccess,
                        byte_len: 0,
                        imm: 0,
                        op: 0,
                    },
                });
                continue;
            };
            if !wqe.hw_owned() {
                break;
            }

            if wqe.opcode == Opcode::Wait {
                let cq = wqe.wait_cq() as usize;
                let count = wqe.wait_count().max(1);
                let threshold_mode = wqe.flags & flags::WAIT_THRESHOLD != 0;
                let satisfied = if self.wait_stalled {
                    // Broken CORE-Direct engine: the trigger never fires.
                    false
                } else if threshold_mode {
                    self.cqs[cq].produced() >= count as u64
                } else {
                    self.cqs[cq].wait_satisfied(count)
                };
                if satisfied {
                    if !threshold_mode {
                        self.cqs[cq].consume_for_wait(count);
                    }
                    self.counters.wait_fires += 1;
                    // Activation: grant ownership of the next N WQEs by
                    // writing their flag bytes in host memory.
                    let (head, activate_n) = (qp.sq.head, wqe.activate_n);
                    if activate_n > 0 {
                        let fire_op = self.peek_slot_op(qpn, head + 1, mem);
                        self.ev(t, fire_op, NicEventKind::WaitFire { cq: cq as u32 });
                    }
                    for i in 1..=activate_n as u64 {
                        // Ownership-flag flips on slots inside the same
                        // creation-time ring reservation as above: a
                        // failure is a simulator bug, so panic loudly.
                        let a = self.qps[qpn as usize].sq.slot_addr(head + i);
                        // hl-lint: allow(panic-in-handler)
                        let f = mem.read(a + 1, 1).expect("ring addr")[0];
                        // hl-lint: allow(panic-in-handler)
                        mem.write(a + 1, &[f | flags::HW_OWNED]).unwrap();
                        #[cfg(feature = "check-ownership")]
                        self.tracker.slot_granted(qpn, head + i);
                    }
                    self.qps[qpn as usize].sq.head += 1;
                    #[cfg(feature = "check-ownership")]
                    self.tracker.slot_fetched(qpn, head, t);
                    self.counters.wqes_executed += 1;
                    continue;
                } else {
                    // Park until the watched CQ produces enough.
                    if !self.qps[qpn as usize].parked {
                        self.qps[qpn as usize].parked = true;
                        self.waiters[cq].push(qpn);
                        self.counters.wait_parks += 1;
                        let park_op = self.peek_slot_op(qpn, head_idx + 1, mem);
                        self.ev(t, park_op, NicEventKind::WaitPark { cq: cq as u32 });
                    }
                    break;
                }
            }

            // A real operation: consume the slot and execute.
            self.qps[qpn as usize].sq.head += 1;
            #[cfg(feature = "check-ownership")]
            self.tracker.slot_fetched(qpn, head_idx, t);
            self.counters.wqes_executed += 1;
            self.ev(t, wqe.op, NicEventKind::Fetch { qpn });
            t += self.jit(self.profile.wqe_process);
            self.execute(t, qpn, wqe, mem, out);
        }
        self.qps[qpn as usize].busy_until = t;
    }

    /// Execute one non-WAIT WQE at time `t`.
    fn execute(
        &mut self,
        t: SimTime,
        qpn: u32,
        wqe: Wqe,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        let qp = &self.qps[qpn as usize];
        let send_cq = qp.send_cq;
        let remote = qp.remote;
        match wqe.opcode {
            Opcode::Nop => {
                // Always completes locally (the gCAS execute map relies
                // on NOPs keeping WAIT counting alive).
                out.push(NicOutput::Complete {
                    at: t,
                    cq: send_cq,
                    cqe: Cqe {
                        qpn,
                        wr_id: wqe.wr_id,
                        kind: CqeKind::SendOp,
                        status: CqeStatus::Ok,
                        byte_len: 0,
                        imm: 0,
                        op: wqe.op,
                    },
                });
            }
            Opcode::Send => {
                let Ok(gather) = mem.read(wqe.laddr, wqe.len as usize) else {
                    return self.local_qp_fault(t, qpn, &wqe, mem, out);
                };
                let Some((dst, dst_qpn)) = remote else {
                    return self.local_qp_fault(t, qpn, &wqe, mem, out);
                };
                let data = Bytes::copy_from_slice(gather);
                let kind = PacketKind::Send {
                    data,
                    wr_id: wqe.wr_id,
                    signaled: wqe.signaled(),
                };
                self.tx_request(
                    t,
                    qpn,
                    dst,
                    dst_qpn,
                    kind,
                    wqe.wr_id,
                    wqe.signaled(),
                    wqe.len,
                    wqe.op,
                    out,
                );
            }
            Opcode::Write | Opcode::WriteImm => {
                let Ok(gather) = mem.read(wqe.laddr, wqe.len as usize) else {
                    return self.local_qp_fault(t, qpn, &wqe, mem, out);
                };
                let Some((dst, dst_qpn)) = remote else {
                    return self.local_qp_fault(t, qpn, &wqe, mem, out);
                };
                let data = Bytes::copy_from_slice(gather);
                let kind = if wqe.opcode == Opcode::Write {
                    PacketKind::Write {
                        raddr: wqe.raddr,
                        rkey: wqe.rkey,
                        data,
                        wr_id: wqe.wr_id,
                        signaled: wqe.signaled(),
                    }
                } else {
                    PacketKind::WriteImm {
                        raddr: wqe.raddr,
                        rkey: wqe.rkey,
                        data,
                        imm: wqe.imm,
                        wr_id: wqe.wr_id,
                        signaled: wqe.signaled(),
                    }
                };
                self.tx_request(
                    t,
                    qpn,
                    dst,
                    dst_qpn,
                    kind,
                    wqe.wr_id,
                    wqe.signaled(),
                    wqe.len,
                    wqe.op,
                    out,
                );
            }
            Opcode::Read | Opcode::Flush | Opcode::Cas => {
                let Some((dst, dst_qpn)) = remote else {
                    return self.local_qp_fault(t, qpn, &wqe, mem, out);
                };
                self.qps[qpn as usize].fenced = true;
                self.inflight[qpn as usize] = Some(Inflight {
                    wr_id: wqe.wr_id,
                    laddr: wqe.laddr,
                    signaled: wqe.signaled(),
                    op: wqe.op,
                });
                let kind = match wqe.opcode {
                    Opcode::Read => PacketKind::Read {
                        raddr: wqe.raddr,
                        rkey: wqe.rkey,
                        len: wqe.len,
                        wr_id: wqe.wr_id,
                    },
                    Opcode::Flush => PacketKind::Flush {
                        raddr: wqe.raddr,
                        rkey: wqe.rkey,
                        len: wqe.len,
                        wr_id: wqe.wr_id,
                    },
                    _ => PacketKind::Cas {
                        raddr: wqe.raddr,
                        rkey: wqe.rkey,
                        cmp: wqe.cmp,
                        swp: wqe.swp,
                        wr_id: wqe.wr_id,
                    },
                };
                self.tx_request(
                    t,
                    qpn,
                    dst,
                    dst_qpn,
                    kind,
                    wqe.wr_id,
                    wqe.signaled(),
                    0,
                    wqe.op,
                    out,
                );
            }
            Opcode::LocalCopy => {
                let at = t + self.jit(self.profile.dma_time(wqe.len as usize));
                out.push(NicOutput::DoLocal { at, qpn, wqe });
            }
            Opcode::LocalCas => {
                let at = t + self.jit(self.profile.wqe_process);
                out.push(NicOutput::DoLocal { at, qpn, wqe });
            }
            Opcode::LocalFlush => {
                let at = t + self.jit(self.profile.cache_flush);
                out.push(NicOutput::DoLocal { at, qpn, wqe });
            }
            // `advance_sq` consumes WAIT slots itself and never forwards
            // them here; reaching this arm is a simulator bug.
            // hl-lint: allow(panic-in-handler)
            Opcode::Wait => unreachable!("WAIT handled by the engine loop"),
        }
    }

    fn tx(&mut self, at: SimTime, dst_nic: u32, packet: Packet, out: &mut Vec<NicOutput>) {
        self.counters.tx_packets += 1;
        self.ev(at, packet.op, NicEventKind::TxWire { dst: dst_nic });
        out.push(NicOutput::Transmit {
            at,
            dst_nic,
            packet,
        });
    }

    /// Transmit a request packet, stamping a PSN and recording it on the
    /// unacked list when the QP runs the retransmit protocol. Arms the
    /// ack timer on an empty-to-nonempty transition.
    #[allow(clippy::too_many_arguments)]
    fn tx_request(
        &mut self,
        t: SimTime,
        qpn: u32,
        dst_nic: u32,
        dst_qpn: u32,
        kind: PacketKind,
        wr_id: u64,
        signaled: bool,
        byte_len: u32,
        op: u32,
        out: &mut Vec<NicOutput>,
    ) {
        let id = self.id;
        let qp = &mut self.qps[qpn as usize];
        let Some(cfg) = qp.timeout else {
            let packet = Packet {
                src_nic: id,
                src_qpn: qpn,
                dst_qpn,
                psn: 0,
                reliable: false,
                op,
                kind,
            };
            return self.tx(t, dst_nic, packet, out);
        };
        let psn = qp.next_psn;
        qp.next_psn += 1;
        let packet = Packet {
            src_nic: id,
            src_qpn: qpn,
            dst_qpn,
            psn,
            reliable: true,
            op,
            kind,
        };
        let was_empty = qp.unacked.is_empty();
        qp.unacked.push_back(PendingTx {
            psn,
            dst_nic,
            packet: packet.clone(),
            wr_id,
            signaled,
            byte_len,
        });
        if was_empty {
            qp.timer_gen += 1;
            out.push(NicOutput::ArmTimer {
                at: t + cfg.timeout,
                qpn,
                gen: qp.timer_gen,
            });
        }
        self.tx(t, dst_nic, packet, out);
    }

    /// Go-back-N: retransmit every unacked request in order and re-arm
    /// the ack timer.
    fn retransmit_all(&mut self, now: SimTime, qpn: u32, out: &mut Vec<NicOutput>) {
        let mut t = now;
        for i in 0..self.qps[qpn as usize].unacked.len() {
            let p = &self.qps[qpn as usize].unacked[i];
            let (dst, pkt) = (p.dst_nic, p.packet.clone());
            t += self.jit(self.profile.wqe_process);
            self.counters.retransmits += 1;
            self.tx(t, dst, pkt, out);
        }
        let qp = &mut self.qps[qpn as usize];
        if let Some(cfg) = qp.timeout {
            qp.timer_gen += 1;
            out.push(NicOutput::ArmTimer {
                at: t + cfg.timeout,
                qpn,
                gen: qp.timer_gen,
            });
        }
    }

    /// Ack-timeout expiry for a reliable QP. Stale generations (the
    /// timer was superseded by an arm after progress) are ignored.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        qpn: u32,
        gen: u64,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        if self.stalled {
            // A stalled NIC does not time out its own requests; un-stall
            // retransmits anything still pending.
            return;
        }
        let qp = &self.qps[qpn as usize];
        if qp.timer_gen != gen || qp.unacked.is_empty() || qp.state == QpState::Error {
            return;
        }
        let Some(cfg) = qp.timeout else {
            return;
        };
        self.counters.timeouts += 1;
        self.qps[qpn as usize].retries += 1;
        if self.qps[qpn as usize].retries > cfg.retry_cnt {
            return self.fatal_qp_error(now, qpn, mem, out);
        }
        self.retransmit_all(now, qpn, out);
    }

    /// A local fault while executing a WQE — the gather range fell
    /// outside the arena (a corrupted descriptor pointing into the
    /// void) or a wire op was posted on an unconnected QP. Real
    /// hardware completes the WQE `IBV_WC_LOC_PROT_ERR` and errors the
    /// QP rather than halting, and so do we: the faulting WQE completes
    /// [`CqeStatus::LocalProtection`], in-flight requests and the rest
    /// of the SQ flush `FlushedInError`.
    fn local_qp_fault(
        &mut self,
        now: SimTime,
        qpn: u32,
        wqe: &Wqe,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        let qp = &mut self.qps[qpn as usize];
        qp.state = QpState::Error;
        qp.timer_gen += 1;
        qp.retries = 0;
        qp.fenced = false;
        let send_cq = qp.send_cq;
        let pending = std::mem::take(&mut qp.unacked);
        self.inflight[qpn as usize] = None;
        out.push(NicOutput::CancelTimer { qpn });
        self.deliver_cqe(
            now,
            send_cq,
            Cqe {
                qpn,
                wr_id: wqe.wr_id,
                kind: CqeKind::SendOp,
                status: CqeStatus::LocalProtection,
                byte_len: 0,
                imm: 0,
                op: wqe.op,
            },
            mem,
            out,
        );
        for p in pending.iter() {
            self.deliver_cqe(
                now,
                send_cq,
                Cqe {
                    qpn,
                    wr_id: p.wr_id,
                    kind: CqeKind::SendOp,
                    status: CqeStatus::FlushedInError,
                    byte_len: 0,
                    imm: 0,
                    op: p.packet.op,
                },
                mem,
                out,
            );
        }
        self.flush_sq_in_error(now, qpn, mem, out);
    }

    /// Retry budget exhausted: move the QP to Error and flush everything
    /// — the head-of-line request completes `RetryExceeded`, the rest of
    /// the unacked list and every posted-but-unexecuted WQE complete
    /// `FlushedInError`. Error completions are delivered regardless of
    /// the signaled flag (as on real hardware).
    fn fatal_qp_error(
        &mut self,
        now: SimTime,
        qpn: u32,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        let qp = &mut self.qps[qpn as usize];
        qp.state = QpState::Error;
        qp.timer_gen += 1;
        qp.retries = 0;
        qp.fenced = false;
        let send_cq = qp.send_cq;
        let pending = std::mem::take(&mut qp.unacked);
        self.inflight[qpn as usize] = None;
        // The ack timer dies with the QP.
        out.push(NicOutput::CancelTimer { qpn });
        for (i, p) in pending.iter().enumerate() {
            let status = if i == 0 {
                CqeStatus::RetryExceeded
            } else {
                CqeStatus::FlushedInError
            };
            self.deliver_cqe(
                now,
                send_cq,
                Cqe {
                    qpn,
                    wr_id: p.wr_id,
                    kind: CqeKind::SendOp,
                    status,
                    byte_len: 0,
                    imm: 0,
                    op: p.packet.op,
                },
                mem,
                out,
            );
        }
        self.flush_sq_in_error(now, qpn, mem, out);
    }

    /// Flush every posted-but-unexecuted WQE of an Error-state QP with
    /// `FlushedInError` completions (also used for posts made after the
    /// transition, matching ibverbs flush semantics).
    fn flush_sq_in_error(
        &mut self,
        now: SimTime,
        qpn: u32,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        loop {
            let qp = &self.qps[qpn as usize];
            if qp.sq.head >= qp.sq.tail {
                break;
            }
            let head_idx = qp.sq.head;
            let slot = qp.sq.slot_addr(head_idx);
            let send_cq = qp.send_cq;
            let (wr_id, op) = mem
                .read(slot, WQE_SIZE as usize)
                .ok()
                .and_then(Wqe::decode)
                .map_or((0, 0), |w| (w.wr_id, w.op));
            self.qps[qpn as usize].sq.head += 1;
            #[cfg(feature = "check-ownership")]
            self.tracker.slot_cleared(qpn, head_idx);
            self.deliver_cqe(
                now,
                send_cq,
                Cqe {
                    qpn,
                    wr_id,
                    kind: CqeKind::SendOp,
                    status: CqeStatus::FlushedInError,
                    byte_len: 0,
                    imm: 0,
                    op,
                },
                mem,
                out,
            );
        }
    }

    /// Finish a loopback operation scheduled via [`NicOutput::DoLocal`].
    pub fn finish_local(
        &mut self,
        now: SimTime,
        qpn: u32,
        wqe: Wqe,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        // A descriptor scribbled out of the arena (or a DoLocal carrying
        // a non-local opcode) surfaces as a LocalProtection error CQE
        // instead of killing the simulated host.
        let ok = match wqe.opcode {
            Opcode::LocalCopy => mem
                .copy_within(wqe.laddr, wqe.raddr, wqe.len as usize)
                .is_ok(),
            Opcode::LocalCas => mem
                .compare_and_swap_u64(wqe.raddr, wqe.cmp, wqe.swp)
                .ok()
                .is_some_and(|orig| mem.write_u64(wqe.laddr, orig).is_ok()),
            Opcode::LocalFlush => {
                let flushed = mem.flush(wqe.raddr, wqe.len as usize).is_ok();
                if flushed {
                    self.counters.flushes += 1;
                }
                flushed
            }
            _ => false,
        };
        let status = if ok {
            CqeStatus::Ok
        } else {
            CqeStatus::LocalProtection
        };
        self.ev(now, wqe.op, NicEventKind::DmaDone { qpn });
        if wqe.signaled() || !ok {
            let cq = self.qps[qpn as usize].send_cq;
            self.deliver_cqe(
                now,
                cq,
                Cqe {
                    qpn,
                    wr_id: wqe.wr_id,
                    kind: CqeKind::SendOp,
                    status,
                    byte_len: wqe.len,
                    imm: 0,
                    op: wqe.op,
                },
                mem,
                out,
            );
        }
    }

    // ----- completion delivery -------------------------------------------

    /// Push a CQE into a CQ; fires armed events and resumes any QPs
    /// parked on the CQ via WAIT.
    pub fn deliver_cqe(
        &mut self,
        now: SimTime,
        cq: u32,
        cqe: Cqe,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        if cqe.status != CqeStatus::Ok {
            self.counters.error_cqes += 1;
        }
        self.ev(now, cqe.op, NicEventKind::CqeDeliver { cq });
        // A delivered completion orders earlier DMA writes before later
        // ones for anyone polling this host, closing the overlap epoch.
        #[cfg(feature = "check-ownership")]
        self.tracker.completion_delivered();
        let ring = &mut self.cqs[cq as usize];
        if ring.is_full() {
            // The push overwrites the oldest stored CQE. WAIT counts by
            // production, so only a poller could miss it.
            self.counters.cq_overruns += 1;
        }
        if ring.push(cqe) {
            out.push(NicOutput::CqEvent { cq });
        }
        // Resume parked QPs in park order; advance re-parks them if
        // still unsatisfied. The list trades places with a spare so both
        // keep their capacity: a forwarding QP re-parks on its next
        // slot's WAIT every time it is resumed.
        let mut parked = std::mem::take(&mut self.resumed);
        std::mem::swap(&mut parked, &mut self.waiters[cq as usize]);
        for &qpn in &parked {
            self.qps[qpn as usize].parked = false;
            self.advance_sq(now, qpn, mem, out);
        }
        parked.clear();
        self.resumed = parked;
    }

    // ----- receive path ----------------------------------------------------

    /// Handle an inbound packet.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        pkt: Packet,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        if self.stalled {
            // A hung adapter eats everything silently.
            self.counters.rx_dropped += 1;
            return;
        }
        self.counters.rx_packets += 1;
        self.ev(now, pkt.op, NicEventKind::RxWire { src: pkt.src_nic });
        let t = now + self.jit(self.profile.rx_process);
        let qpn = pkt.dst_qpn;
        let qp = &self.qps[qpn as usize];
        if qp.state == QpState::Error {
            self.counters.rx_dropped += 1;
            return;
        }
        let req = ReqHeader::of(&pkt);
        // `None` marks a response or ack (requester-bound).
        let req_wr_id = pkt.kind.request_wr_id();
        // Connection safety check (paper §7): only the connected peer may
        // talk to this QP.
        if qp.remote != Some((pkt.src_nic, pkt.src_qpn)) {
            return self.refuse(t, req, req_wr_id, NakReason::NotConnected, out);
        }
        // Requester side: on a reliable QP every response acks
        // cumulatively — entries older than its PSN had their own
        // responses lost, so synthesize their success completions; a
        // response matching nothing pending is a stale duplicate.
        let is_response = req_wr_id.is_none();
        if qp.timeout.is_some() && is_response && !self.process_cum_ack(t, qpn, pkt.psn, mem, out) {
            return;
        }
        // Responder side: expected-PSN enforcement for reliable requests.
        if pkt.reliable && !is_response {
            let epsn = self.qps[qpn as usize].epsn;
            if pkt.psn > epsn {
                // Gap: an earlier request was lost; drop and let the
                // requester's timer go-back-N.
                self.counters.rx_dropped += 1;
                return;
            }
            if pkt.psn < epsn {
                // Duplicate of something already executed.
                return self.replay_duplicate(t, &pkt, out);
            }
            self.qps[qpn as usize].epsn += 1;
        }
        match pkt.kind {
            PacketKind::Write {
                raddr,
                rkey,
                data,
                wr_id,
                signaled,
            } => {
                #[cfg(feature = "check-ownership")]
                self.tracker.remote_access(
                    rkey,
                    raddr,
                    data.len() as u64,
                    req.src_nic,
                    req.src_qpn,
                    t,
                );
                if self
                    .mrs
                    .check_remote(rkey, raddr, data.len() as u64, Access::REMOTE_WRITE)
                    .is_err()
                {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                }
                if mem.write(raddr, &data).is_err() {
                    // MR registered beyond the arena: refuse rather than
                    // kill the simulated host.
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                }
                #[cfg(feature = "check-ownership")]
                self.tracker
                    .remote_write(raddr, &data, req.src_nic, req.src_qpn, t);
                self.ack(t, req, wr_id, signaled, data.len() as u32, out);
            }
            PacketKind::WriteImm {
                raddr,
                rkey,
                data,
                imm,
                wr_id,
                signaled,
            } => {
                #[cfg(feature = "check-ownership")]
                self.tracker.remote_access(
                    rkey,
                    raddr,
                    data.len() as u64,
                    req.src_nic,
                    req.src_qpn,
                    t,
                );
                if self
                    .mrs
                    .check_remote(rkey, raddr, data.len() as u64, Access::REMOTE_WRITE)
                    .is_err()
                {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                }
                if mem.write(raddr, &data).is_err() {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                }
                #[cfg(feature = "check-ownership")]
                self.tracker
                    .remote_write(raddr, &data, req.src_nic, req.src_qpn, t);
                let Some(recv) = self.pop_recv(qpn) else {
                    return self.refuse(t, req, Some(wr_id), NakReason::ReceiverNotReady, out);
                };
                let recv_cq = self.qps[qpn as usize].recv_cq;
                self.deliver_cqe(
                    t,
                    recv_cq,
                    Cqe {
                        qpn,
                        wr_id: recv.wr_id,
                        kind: CqeKind::RecvImm,
                        status: CqeStatus::Ok,
                        byte_len: data.len() as u32,
                        imm,
                        op: req.op,
                    },
                    mem,
                    out,
                );
                self.ack(t, req, wr_id, signaled, data.len() as u32, out);
            }
            PacketKind::Send {
                data,
                wr_id,
                signaled,
            } => {
                let Some(recv) = self.pop_recv(qpn) else {
                    return self.refuse(t, req, Some(wr_id), NakReason::ReceiverNotReady, out);
                };
                // Scatter the payload, possibly into pre-posted WQE
                // descriptor fields — the heart of remote WQE
                // manipulation.
                for e in &recv.scatter {
                    let off = e.msg_off as usize;
                    if off >= data.len() {
                        continue;
                    }
                    let n = e.len.min((data.len() - off) as u32) as usize;
                    #[cfg(feature = "check-ownership")]
                    self.tracker.remote_write(
                        e.addr,
                        &data[off..off + n],
                        req.src_nic,
                        req.src_qpn,
                        t,
                    );
                    if mem.write(e.addr, &data[off..off + n]).is_err() {
                        // A scatter entry escaping the arena is a
                        // corrupted pre-posted descriptor; refuse the
                        // SEND (partial scatter may have landed, as with
                        // a mid-message fault on real hardware).
                        return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                    }
                }
                let recv_cq = self.qps[qpn as usize].recv_cq;
                self.deliver_cqe(
                    t,
                    recv_cq,
                    Cqe {
                        qpn,
                        wr_id: recv.wr_id,
                        kind: CqeKind::Recv,
                        status: CqeStatus::Ok,
                        byte_len: data.len() as u32,
                        imm: 0,
                        op: req.op,
                    },
                    mem,
                    out,
                );
                self.ack(t, req, wr_id, signaled, data.len() as u32, out);
            }
            PacketKind::Read {
                raddr,
                rkey,
                len,
                wr_id,
            } => {
                #[cfg(feature = "check-ownership")]
                self.tracker
                    .remote_access(rkey, raddr, len as u64, req.src_nic, req.src_qpn, t);
                if self
                    .mrs
                    .check_remote(rkey, raddr, len as u64, Access::REMOTE_READ)
                    .is_err()
                {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                }
                let Ok(data) = mem.read(raddr, len as usize) else {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                };
                let kind = PacketKind::ReadResp {
                    data: Bytes::copy_from_slice(data),
                    wr_id,
                };
                self.respond_fenced(t, req, pkt.reliable, kind, out);
            }
            PacketKind::Flush {
                raddr,
                rkey,
                len,
                wr_id,
            } => {
                #[cfg(feature = "check-ownership")]
                self.tracker
                    .remote_access(rkey, raddr, len as u64, req.src_nic, req.src_qpn, t);
                if self
                    .mrs
                    .check_remote(rkey, raddr, len as u64, Access::REMOTE_READ)
                    .is_err()
                {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                }
                // Drain the NIC cache for the range into the durable
                // medium (the firmware feature of paper §4.2).
                if mem.flush(raddr, len as usize).is_err() {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                }
                self.counters.flushes += 1;
                let t = t + self.profile.cache_flush;
                self.respond_fenced(t, req, pkt.reliable, PacketKind::FlushResp { wr_id }, out);
            }
            PacketKind::Cas {
                raddr,
                rkey,
                cmp,
                swp,
                wr_id,
            } => {
                #[cfg(feature = "check-ownership")]
                self.tracker
                    .remote_access(rkey, raddr, 8, req.src_nic, req.src_qpn, t);
                if self
                    .mrs
                    .check_remote(rkey, raddr, 8, Access::REMOTE_ATOMIC)
                    .is_err()
                {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                }
                let Ok(orig) = mem.compare_and_swap_u64(raddr, cmp, swp) else {
                    return self.refuse(t, req, Some(wr_id), NakReason::RemoteAccess, out);
                };
                self.respond_fenced(
                    t,
                    req,
                    pkt.reliable,
                    PacketKind::CasResp { orig, wr_id },
                    out,
                );
            }
            PacketKind::ReadResp { data, wr_id } => {
                let Some(fl) = self.take_inflight(qpn, wr_id) else {
                    self.counters.rx_dropped += 1;
                    return;
                };
                let status = if mem.write(fl.laddr, &data).is_ok() {
                    // The response landing is itself a NIC DMA write
                    // into local memory — attribute it to the peer QP.
                    #[cfg(feature = "check-ownership")]
                    self.tracker
                        .remote_write(fl.laddr, &data, req.src_nic, req.src_qpn, t);
                    CqeStatus::Ok
                } else {
                    CqeStatus::LocalProtection
                };
                self.complete_fenced(t, qpn, fl, data.len() as u32, status, mem, out);
            }
            PacketKind::FlushResp { wr_id } => {
                let Some(fl) = self.take_inflight(qpn, wr_id) else {
                    self.counters.rx_dropped += 1;
                    return;
                };
                self.complete_fenced(t, qpn, fl, 0, CqeStatus::Ok, mem, out);
            }
            PacketKind::CasResp { orig, wr_id } => {
                let Some(fl) = self.take_inflight(qpn, wr_id) else {
                    self.counters.rx_dropped += 1;
                    return;
                };
                let status = if mem.write_u64(fl.laddr, orig).is_ok() {
                    #[cfg(feature = "check-ownership")]
                    self.tracker.remote_write(
                        fl.laddr,
                        &orig.to_le_bytes(),
                        req.src_nic,
                        req.src_qpn,
                        t,
                    );
                    CqeStatus::Ok
                } else {
                    CqeStatus::LocalProtection
                };
                self.complete_fenced(t, qpn, fl, 8, status, mem, out);
            }
            PacketKind::Ack {
                wr_id,
                signaled,
                byte_len,
            } => {
                if signaled {
                    let cq = self.qps[qpn as usize].send_cq;
                    self.deliver_cqe(
                        t,
                        cq,
                        Cqe {
                            qpn,
                            wr_id,
                            kind: CqeKind::SendOp,
                            status: CqeStatus::Ok,
                            byte_len,
                            imm: 0,
                            op: req.op,
                        },
                        mem,
                        out,
                    );
                }
            }
            PacketKind::Nak { wr_id, reason } => {
                // Error completion; clear the fence only if the refused
                // operation *is* the fencing one (a NAK for an earlier
                // SEND must not unblock an in-flight READ/FLUSH/CAS).
                let status = match reason {
                    NakReason::ReceiverNotReady => CqeStatus::ReceiverNotReady,
                    _ => CqeStatus::RemoteAccess,
                };
                let fencing_refused = self.qps[qpn as usize].fenced
                    && self.inflight[qpn as usize].is_some_and(|fl| fl.wr_id == wr_id);
                if fencing_refused {
                    self.qps[qpn as usize].fenced = false;
                    self.inflight[qpn as usize] = None;
                }
                // On the reliable transport a work-request error halts
                // the send queue until software intervenes (RTS → SQE);
                // legacy QPs keep the historical keep-going behaviour.
                if self.qps[qpn as usize].timeout.is_some() {
                    self.qps[qpn as usize].state = QpState::Sqe;
                }
                let cq = self.qps[qpn as usize].send_cq;
                self.deliver_cqe(
                    t,
                    cq,
                    Cqe {
                        qpn,
                        wr_id,
                        kind: CqeKind::SendOp,
                        status,
                        byte_len: 0,
                        imm: 0,
                        op: req.op,
                    },
                    mem,
                    out,
                );
                self.advance_sq(t, qpn, mem, out);
            }
        }
    }

    /// Requester-side cumulative ack: a response with PSN `psn` proves
    /// delivery of every older pending request (their acks were lost) —
    /// pop them with synthesized success completions, then pop the
    /// matching entry itself for the caller's normal response handling.
    /// Returns `false` for a stale duplicate that matches nothing.
    fn process_cum_ack(
        &mut self,
        t: SimTime,
        qpn: u32,
        psn: u64,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) -> bool {
        let mut progressed = false;
        loop {
            match self.qps[qpn as usize].unacked.front() {
                Some(front) if front.psn < psn => {}
                _ => break,
            }
            let Some(p) = self.qps[qpn as usize].unacked.pop_front() else {
                break;
            };
            progressed = true;
            if p.signaled {
                let cq = self.qps[qpn as usize].send_cq;
                self.deliver_cqe(
                    t,
                    cq,
                    Cqe {
                        qpn,
                        wr_id: p.wr_id,
                        kind: CqeKind::SendOp,
                        status: CqeStatus::Ok,
                        byte_len: p.byte_len,
                        imm: 0,
                        op: p.packet.op,
                    },
                    mem,
                    out,
                );
            }
        }
        let matched = self.qps[qpn as usize]
            .unacked
            .front()
            .is_some_and(|p| p.psn == psn);
        if matched {
            self.qps[qpn as usize].unacked.pop_front();
            progressed = true;
        }
        if progressed {
            // Forward progress: reset the retry budget and re-arm (or
            // cancel) the ack timer for whatever is still pending.
            let qp = &mut self.qps[qpn as usize];
            qp.retries = 0;
            qp.timer_gen += 1;
            if qp.unacked.is_empty() {
                out.push(NicOutput::CancelTimer { qpn });
            } else if let Some(cfg) = qp.timeout {
                let gen = qp.timer_gen;
                out.push(NicOutput::ArmTimer {
                    at: t + cfg.timeout,
                    qpn,
                    gen,
                });
            }
        }
        if !matched {
            self.counters.rx_dropped += 1;
        }
        matched
    }

    /// Responder-side handling of a duplicate reliable request
    /// (PSN below the expected one): it already executed, so re-ack /
    /// replay the cached response without re-executing. This is what
    /// keeps RECV consumption and CAS exactly-once under retransmission.
    fn replay_duplicate(&mut self, t: SimTime, pkt: &Packet, out: &mut Vec<NicOutput>) {
        let req = ReqHeader::of(pkt);
        if let Some((psn, kind)) = &self.qps[pkt.dst_qpn as usize].resp_cache {
            if *psn == pkt.psn {
                let kind = kind.clone();
                return self.respond(t, req, kind, out);
            }
        }
        match &pkt.kind {
            PacketKind::Write {
                wr_id,
                data,
                signaled,
                ..
            }
            | PacketKind::WriteImm {
                wr_id,
                data,
                signaled,
                ..
            }
            | PacketKind::Send {
                data,
                wr_id,
                signaled,
            } => self.ack(t, req, *wr_id, *signaled, data.len() as u32, out),
            _ => {
                // A fencing duplicate older than the replay cache: the
                // requester has already consumed its response.
                self.counters.rx_dropped += 1;
            }
        }
    }

    /// Claim the in-flight fencing op a response settles. `None` means
    /// the response is stale (no fencing op pending, or a cookie from an
    /// earlier incarnation): the caller drops the packet — a hostile or
    /// duplicated response must not crash the NIC.
    fn take_inflight(&mut self, qpn: u32, wr_id: u64) -> Option<Inflight> {
        let fl = self.inflight[qpn as usize].take()?;
        if fl.wr_id != wr_id {
            self.inflight[qpn as usize] = Some(fl);
            return None;
        }
        Some(fl)
    }

    /// Clear the fence, deliver the completion, resume the SQ. Error
    /// statuses are delivered regardless of the signaled flag (as on
    /// real hardware).
    #[allow(clippy::too_many_arguments)]
    fn complete_fenced(
        &mut self,
        t: SimTime,
        qpn: u32,
        fl: Inflight,
        byte_len: u32,
        status: CqeStatus,
        mem: &mut NvmArena,
        out: &mut Vec<NicOutput>,
    ) {
        self.qps[qpn as usize].fenced = false;
        if fl.signaled || status != CqeStatus::Ok {
            let cq = self.qps[qpn as usize].send_cq;
            self.deliver_cqe(
                t,
                cq,
                Cqe {
                    qpn,
                    wr_id: fl.wr_id,
                    kind: CqeKind::SendOp,
                    status,
                    byte_len,
                    imm: 0,
                    op: fl.op,
                },
                mem,
                out,
            );
        }
        self.advance_sq(t, qpn, mem, out);
    }

    fn ack(
        &mut self,
        t: SimTime,
        req: ReqHeader,
        wr_id: u64,
        signaled: bool,
        byte_len: u32,
        out: &mut Vec<NicOutput>,
    ) {
        let kind = PacketKind::Ack {
            wr_id,
            signaled,
            byte_len,
        };
        self.respond(t, req, kind, out);
    }

    /// NAK a request. `wr_id` is `None` for a response or ack, which is
    /// never NAKed: it is dropped instead.
    fn refuse(
        &mut self,
        t: SimTime,
        req: ReqHeader,
        wr_id: Option<u64>,
        reason: NakReason,
        out: &mut Vec<NicOutput>,
    ) {
        self.counters.naks_sent += 1;
        if let Some(wr_id) = wr_id {
            self.respond(t, req, PacketKind::Nak { wr_id, reason }, out);
        }
    }

    /// Answer a fencing request (READ / FLUSH / CAS), remembering the
    /// response for duplicate replay when the request was reliable.
    fn respond_fenced(
        &mut self,
        t: SimTime,
        req: ReqHeader,
        reliable: bool,
        kind: PacketKind,
        out: &mut Vec<NicOutput>,
    ) {
        if reliable {
            self.qps[req.dst_qpn as usize].resp_cache = Some((req.psn, kind.clone()));
        }
        self.respond(t, req, kind, out);
    }

    fn respond(&mut self, t: SimTime, req: ReqHeader, kind: PacketKind, out: &mut Vec<NicOutput>) {
        self.tx(
            t,
            req.src_nic,
            Packet {
                src_nic: self.id,
                src_qpn: req.dst_qpn,
                dst_qpn: req.src_qpn,
                // Echo the request's PSN so a reliable requester can
                // match it against its unacked list; responses are not
                // themselves retransmitted (the requester re-requests).
                psn: req.psn,
                reliable: false,
                op: req.op,
                kind,
            },
            out,
        );
    }
}

/// The addressing fields of an inbound packet, copied out before its
/// payload is consumed so the response can still be addressed.
#[derive(Debug, Clone, Copy)]
struct ReqHeader {
    src_nic: u32,
    src_qpn: u32,
    dst_qpn: u32,
    psn: u64,
    op: u32,
}

impl ReqHeader {
    fn of(pkt: &Packet) -> Self {
        ReqHeader {
            src_nic: pkt.src_nic,
            src_qpn: pkt.src_qpn,
            dst_qpn: pkt.dst_qpn,
            psn: pkt.psn,
            op: pkt.op,
        }
    }
}

/// Send ring exhausted: the caller must back off and retry after
/// completions free slots (HyperLoop clients track credits instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull {
    /// The full QP.
    pub qpn: u32,
    /// Its capacity.
    pub capacity: u32,
}

impl std::fmt::Display for RingFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "send ring full on qp{} (capacity {})",
            self.qpn, self.capacity
        )
    }
}

impl std::error::Error for RingFull {}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sim::RngFactory;

    fn nic_and_stream(profile: NicProfile) -> (Nic, RngStream) {
        let rng = RngFactory::new(3).stream("nic");
        (Nic::new(0, profile, rng.clone()), rng)
    }

    /// `jitter_sigma == 0.0` switches every NIC draw off, the contention
    /// trial included: durations come back unchanged and the stream does
    /// not advance.
    #[test]
    fn zero_sigma_draws_nothing() {
        let (mut nic, mut untouched) = nic_and_stream(NicProfile {
            jitter_sigma: 0.0,
            contention_prob: 1.0,
            ..Default::default()
        });
        for ns in [0, 1, 450, 1_000_000] {
            let d = SimDuration::from_nanos(ns);
            assert_eq!(nic.jit(d), d);
        }
        assert_eq!(nic.rng.u64(), untouched.u64());
    }

    /// A jittered duration costs one `u64` for the factor and one for
    /// the contention trial; with contention off, exactly one.
    #[test]
    fn jitter_draw_count_is_fixed() {
        for (contention_prob, per_call) in [(0.0, 1), (1e-9, 2)] {
            let (mut nic, mut mirror) = nic_and_stream(NicProfile {
                contention_prob,
                ..Default::default()
            });
            let d = SimDuration::from_nanos(450);
            for _ in 0..1_000 {
                let ns = nic.jit(d).as_nanos();
                assert!(
                    (225..900).contains(&ns),
                    "{ns} ns is not 450 ns ± 8 %-sigma"
                );
                for _ in 0..per_call {
                    mirror.u64();
                }
            }
            assert_eq!(nic.rng.u64(), mirror.u64());
        }
    }
}
