//! Slot programs: the pre-posted WQE bundle of one ring, as data.
//!
//! HyperLoop's mechanism is a small program per ring slot: WAITs that
//! watch a completion queue and hand the WQEs behind them to the NIC,
//! and a RECV that scatters the client's metadata message into those
//! WQEs' descriptor fields before the WAIT fires. A [`SlotProgram`]
//! writes that down once per ring as a list of [`Step`]s; [`post`]
//! turns the next slot's steps into WQEs, scatter entries and the RECV,
//! for whichever topology built the list. How many WQEs a slot puts on
//! each queue, how deep each send queue must be, how many WQEs a WAIT
//! activates and how many slots the NIC has fully consumed all follow
//! from the step list and are written nowhere else.
//!
//! The seven programs of this crate are the table functions at the
//! bottom ([`chain`], [`fanout_primary`], [`fanout_backup`],
//! [`multi_tail`]); their `pat(..)` rows are the wire format hl-analysis'
//! layout pass verifies against `metadata.rs` and `hl_rnic::wqe`.
//!
//! [`post`]: SlotProgram::post

use crate::metadata::{self, crec, select, wrec, Primitive, OP_OFF};
use crate::wire::{AckTarget, Qp};
use hl_cluster::World;
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::{field_offset, flags, Opcode, RecvWqe, ScatterEntry, ScatterTemplate, Wqe, WQE_SIZE};
use hl_sim::SimTime;

/// A completion queue a WAIT watches.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cq {
    /// A CQ outside the program (the upstream receive CQ, a fan-in CQ).
    Id(u32),
    /// The send CQ of the program's own queue `q` (a loopback leg).
    SendOf(usize),
}

/// When a WAIT fires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wait {
    /// After `n` more completions on the CQ, which it consumes: for a CQ
    /// with a single waiter.
    Consume(Cq, u32),
    /// Once the CQ has produced `n` completions per slot up to and
    /// including this one, consuming none: lets WAITs on several queues
    /// trigger off one CQ.
    Threshold(Cq, u32),
}

/// An address that moves with the slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Addr {
    /// `off` bytes into this slot's cell of the program's staging ring.
    Staging(u64),
    /// `base + (slot % slots) · stride`: a cell of some other ring.
    Ring { base: u64, stride: u64 },
}

/// One metadata field scattered into one WQE field: `width` bytes from
/// `meta_off` of the message to `field` of the step's WQE.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Patch {
    meta_off: u32,
    width: u32,
    field: u64,
}

/// A patch row. Every call names a `metadata` offset, a literal width
/// and a `field_offset` constant, which is what the layout verifier
/// parses.
fn pat(meta_off: u64, width: u32, field: u64) -> Patch {
    Patch {
        meta_off: meta_off as u32,
        width,
        field,
    }
}

/// One WQE of a slot.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    /// Index into the program's queues.
    q: usize,
    /// The WQE as posted, but for `wr_id` (the slot), `activate_n` and
    /// the fields below.
    wqe: Wqe,
    /// Posted software-owned, to be granted by the WAIT before it.
    deferred: bool,
    wait: Option<Wait>,
    laddr: Option<Addr>,
    raddr: Option<Addr>,
    patches: Vec<Patch>,
}

/// A WAIT step on queue `q`.
fn wait(q: usize, on: Wait) -> Step {
    let threshold = match on {
        Wait::Consume(..) => 0,
        Wait::Threshold(..) => flags::WAIT_THRESHOLD,
    };
    Step {
        q,
        wqe: Wqe {
            opcode: Opcode::Wait,
            flags: flags::HW_OWNED | threshold,
            ..Default::default()
        },
        deferred: false,
        wait: Some(on),
        laddr: None,
        raddr: None,
        patches: Vec::new(),
    }
}

/// A deferred operation step on queue `q`.
fn op(q: usize, opcode: Opcode) -> Step {
    Step {
        q,
        wqe: Wqe {
            opcode,
            ..Default::default()
        },
        deferred: true,
        wait: None,
        laddr: None,
        raddr: None,
        patches: Vec::new(),
    }
}

impl Step {
    fn len(mut self, n: u64) -> Self {
        self.wqe.len = n as u32;
        self
    }
    fn rkey(mut self, rkey: u32) -> Self {
        self.wqe.rkey = rkey;
        self
    }
    /// Completes into its queue's send CQ (a loopback op a WAIT counts).
    fn signaled(mut self) -> Self {
        self.wqe.flags |= flags::SIGNALED;
        self
    }
    fn from(mut self, a: Addr) -> Self {
        self.laddr = Some(a);
        self
    }
    fn to(mut self, a: Addr) -> Self {
        self.raddr = Some(a);
        self
    }
    /// A WRITE_IMM into this slot's cell of a client's ACK ring.
    fn ack(self, ack: AckTarget) -> Self {
        self.rkey(ack.rkey).to(Addr::Ring {
            base: ack.base,
            stride: ack.stride,
        })
    }
    fn patched(mut self, p: impl IntoIterator<Item = Patch>) -> Self {
        self.patches.extend(p);
        self
    }
}

/// Send-queue depth queue `q` needs to hold `slots` slots of `steps`.
pub(crate) fn sq_wqes(steps: &[Step], q: usize, slots: u32) -> u32 {
    steps.iter().filter(|s| s.q == q).count() as u32 * slots
}

/// Where a slot's RECV is posted, and the CQ it completes into.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Recv {
    /// The receive queue of a QP, completing into its receive CQ.
    Qp(Qp),
    /// A shared receive queue whose QPs all complete into `cq`.
    Srq { srq: u32, cq: u32 },
}

/// The deficit at which a ring of `slots` is worth a re-post batch: a
/// quarter of the ring.
pub(crate) fn watermark(slots: u64) -> u64 {
    (slots / 4).max(1)
}

/// The slot program of one ring on one host.
pub(crate) struct SlotProgram {
    pub host: HostId,
    /// The queues the steps post on, in doorbell order.
    pub queues: Vec<Qp>,
    recv: Recv,
    /// The ring each slot's whole metadata message lands in and the
    /// message length (`slots × msg_len` bytes); `None` when the message
    /// is only a trigger.
    staging: Option<(Region, u64)>,
    /// QPs that get one empty RECV per slot besides (ack fan-in).
    empty_recvs: Vec<u32>,
    steps: Vec<Step>,
    /// WQEs per slot on each queue.
    per_slot: Vec<u64>,
    /// The RECV scatter list of slot 0, which every slot resolves at its
    /// ring position (written by the first [`SlotProgram::post`]).
    template: ScatterTemplate,
    slots: u64,
    /// Slots posted so far (monotonic).
    pub posted: u64,
}

impl SlotProgram {
    /// Bind `steps` to their queues and derive the per-queue shapes.
    /// Every queue must have been created [`sq_wqes`] deep.
    pub fn new(
        host: HostId,
        queues: Vec<Qp>,
        recv: Recv,
        staging: Option<(Region, u64)>,
        empty_recvs: Vec<u32>,
        mut steps: Vec<Step>,
        slots: u32,
    ) -> Self {
        // A WAIT activates the deferred steps behind it on its queue, up
        // to that queue's next WAIT.
        for i in 0..steps.len() {
            if steps[i].wait.is_some() {
                let q = steps[i].q;
                steps[i].wqe.activate_n = steps[i + 1..]
                    .iter()
                    .filter(|s| s.q == q)
                    .take_while(|s| s.wait.is_none())
                    .filter(|s| s.deferred)
                    .count() as u16;
            }
        }
        let per_slot = (0..queues.len())
            .map(|q| sq_wqes(&steps, q, 1) as u64)
            .collect();
        SlotProgram {
            host,
            queues,
            recv,
            staging,
            empty_recvs,
            steps,
            per_slot,
            template: ScatterTemplate::EMPTY,
            slots: slots as u64,
            posted: 0,
        }
    }

    /// Address of `slot`'s cell in the staging ring.
    pub fn staging_slot(&self, slot: u64) -> u64 {
        let (ring, msg_len) = self.staging.as_ref().expect("program stages its message");
        ring.at((slot % self.slots) * msg_len)
    }

    fn resolve(&self, a: Addr, slot: u64) -> u64 {
        match a {
            Addr::Staging(off) => self.staging_slot(slot) + off,
            Addr::Ring { base, stride } => base + (slot % self.slots) * stride,
        }
    }

    /// Pre-post the next slot: its WQEs on every queue, then the RECV
    /// whose scatter list lands the message in the staging ring and each
    /// patched field in the WQE just posted for it. Callable at build
    /// time and from the replenisher.
    ///
    /// Slot 0 writes the ring's scatter template down from the addresses
    /// its WQEs got; slot `k` is the same template `k mod slots` strides
    /// on (a staging cell is `msg_len` bytes, and queue `q` holds
    /// `per_slot[q]` WQEs per slot), so every later post allocates
    /// nothing.
    pub fn post(&mut self, w: &mut World) {
        let slot = self.posted;
        let position = slot % self.slots;
        let host = &mut w.hosts[self.host.0];
        let mut first = (slot == 0).then(Vec::new);
        if let Some((ring, msg_len)) = &self.staging {
            match first.as_mut() {
                Some(entries) => entries.push(ScatterEntry {
                    msg_off: 0,
                    len: *msg_len as u32,
                    addr: ring.at(0),
                    stride: *msg_len,
                }),
                None => debug_assert_eq!(
                    self.template.entries()[0].addr_at(position),
                    self.staging_slot(slot)
                ),
            }
        }
        let mut entry = self.staging.is_some() as usize;
        for step in &self.steps {
            let mut wqe = step.wqe;
            wqe.wr_id = slot;
            if let Some(a) = step.laddr {
                wqe.laddr = self.resolve(a, slot);
            }
            if let Some(a) = step.raddr {
                wqe.raddr = self.resolve(a, slot);
            }
            if let Some(on) = step.wait {
                let (cq, count) = match on {
                    Wait::Consume(cq, n) => (cq, n),
                    Wait::Threshold(cq, n) => (cq, ((slot + 1) * n as u64) as u32),
                };
                let cq = match cq {
                    Cq::Id(id) => id,
                    Cq::SendOf(q) => self.queues[q].scq,
                };
                wqe.raddr = Wqe::wait_params(cq, count);
            }
            let qpn = self.queues[step.q].qpn;
            let idx = host
                .post_send(qpn, wqe, step.deferred)
                .expect("send queue sized from the program");
            if !step.patches.is_empty() {
                let at = host.nic.sq_slot_addr(qpn, idx);
                match first.as_mut() {
                    Some(entries) => {
                        let stride = self.per_slot[step.q] * WQE_SIZE;
                        entries.extend(step.patches.iter().map(|p| ScatterEntry {
                            msg_off: p.meta_off,
                            len: p.width,
                            addr: at + p.field,
                            stride,
                        }))
                    }
                    None => debug_assert!(
                        step.patches
                            .iter()
                            .zip(&self.template.entries()[entry..])
                            .all(|(p, e)| e.addr_at(position) == at + p.field),
                        "slot {slot} of queue {}: its WQE is not where the template puts it",
                        step.q
                    ),
                }
                entry += step.patches.len();
            }
        }
        if let Some(entries) = first {
            self.template = ScatterTemplate::new(&entries);
        }
        let recv = RecvWqe::at(slot, &self.template, position);
        match self.recv {
            Recv::Qp(qp) => host.post_recv(qp.qpn, recv),
            Recv::Srq { srq, .. } => host.nic.post_srq_recv(srq, recv),
        }
        for &qpn in &self.empty_recvs {
            host.post_recv(qpn, RecvWqe::empty(slot));
        }
        self.posted += 1;
    }

    /// Slots the NIC has fully consumed: a slot's WQE memory may be
    /// reused only once every WQE of the slot has executed on every one
    /// of its queues, which the send-queue heads tell.
    fn consumed(&self, w: &World) -> u64 {
        let nic = &w.hosts[self.host.0].nic;
        self.queues
            .iter()
            .zip(&self.per_slot)
            .map(|(q, per_slot)| nic.sq_state(q.qpn).0 / per_slot)
            .min()
            .expect("a program has a queue")
    }

    /// Consumed slots not yet re-posted.
    pub fn deficit(&self, w: &World) -> u64 {
        (self.consumed(w) + self.slots).saturating_sub(self.posted)
    }

    /// The deficit at which this ring is worth a re-post batch.
    pub fn watermark(&self) -> u64 {
        watermark(self.slots)
    }

    /// The CQ every slot's metadata RECV completes into, one completion
    /// per slot: the one the replenisher's wake-up watches.
    pub fn notify_cq(&self) -> u32 {
        match self.recv {
            Recv::Qp(qp) => qp.rcq,
            Recv::Srq { cq, .. } => cq,
        }
    }

    /// Slot RECVs the ring has received so far.
    pub fn arrived(&self, w: &World) -> u64 {
        w.hosts[self.host.0].nic.cq(self.notify_cq()).produced()
    }

    /// Park the posted WAITs: one setup-time doorbell per queue.
    pub fn arm(&self, w: &mut World) {
        let h = &mut w.hosts[self.host.0];
        let mut outs = Vec::new();
        for q in &self.queues {
            h.nic
                .ring_doorbell(SimTime::ZERO, q.qpn, &mut h.mem, &mut outs);
        }
        debug_assert!(outs.is_empty(), "arming must only park WAITs");
    }
}

// ----- the programs ----------------------------------------------------------

/// What a chain replica's downstream queue leads to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Downstream {
    /// The next replica, whose copy `rkey` covers.
    Replica { rkey: u32 },
    /// The client: this replica is the tail.
    Client(AckTarget),
}

/// The chain's downstream queue, and its loopback queue.
const NEXT: usize = 0;
const LOCAL: usize = 1;

/// A transfer record → a `WRITE` / `LOCAL_COPY` WQE.
fn copy_patches(rec: u64) -> [Patch; 4] {
    [
        pat(rec + wrec::LEN, 4, field_offset::LEN),
        pat(rec + wrec::SRC, 8, field_offset::LADDR),
        pat(rec + wrec::DST, 8, field_offset::RADDR),
        // The telemetry op id rides the same scatter into every data
        // WQE, so causal spans cost zero replica CPU.
        pat(OP_OFF, 4, field_offset::OP),
    ]
}

/// A transfer record's flush half → a `FLUSH` / `LOCAL_FLUSH` WQE (the
/// opcode byte turns it into a NOP when no flush was asked for).
fn flush_patches(rec: u64) -> [Patch; 4] {
    [
        pat(rec + wrec::FOP, 1, field_offset::OPCODE),
        pat(rec + wrec::FADDR, 8, field_offset::RADDR),
        pat(rec + wrec::FLEN, 4, field_offset::LEN),
        pat(OP_OFF, 4, field_offset::OP),
    ]
}

/// The chain programs of one replica (also the multi-client chain's
/// forwarding slot, which is gWRITE's):
///
/// | ring    | loopback queue              | downstream queue                          |
/// |---------|-----------------------------|-------------------------------------------|
/// | gWRITE  | —                           | WAIT·WRITE·FLUSH·SEND (tail: WAIT·WRITE_IMM) |
/// | gMEMCPY | WAIT·LOCAL_COPY·LOCAL_FLUSH | WAIT(2)·SEND (tail: WAIT(2)·WRITE_IMM)    |
/// | gCAS    | WAIT·LOCAL_CAS              | WAIT·SEND (tail: WAIT·WRITE_IMM)          |
///
/// `rec` is the offset of this replica's record in the `msg_len`-byte
/// message, `g` the group size (the result map the tail ACKs is `8·g`
/// bytes), `upstream_rcq` the CQ the upstream SEND completes on.
pub(crate) fn chain(
    prim: Primitive,
    g: usize,
    msg_len: u64,
    rec: u64,
    upstream_rcq: u32,
    down: Downstream,
) -> Vec<Step> {
    let upstream = Wait::Consume(Cq::Id(upstream_rcq), 1);
    // The downstream queue ends by forwarding the staged message — or,
    // on the tail, by writing its accumulated result map to the client
    // with the sequence number as the immediate.
    let forward = match down {
        Downstream::Replica { .. } => op(NEXT, Opcode::Send)
            .len(msg_len)
            .from(Addr::Staging(0))
            .patched([pat(OP_OFF, 4, field_offset::OP)]),
        Downstream::Client(ack) => op(NEXT, Opcode::WriteImm)
            .len(8 * g as u64)
            .from(Addr::Staging(metadata::results_off()))
            .ack(ack)
            .patched([
                pat(0, 4, field_offset::IMM),
                pat(OP_OFF, 4, field_offset::OP),
            ]),
    };
    match (prim, down) {
        (Primitive::GWrite, Downstream::Client(_)) => vec![wait(NEXT, upstream), forward],
        (Primitive::GWrite, Downstream::Replica { rkey }) => vec![
            wait(NEXT, upstream),
            op(NEXT, Opcode::Write)
                .rkey(rkey)
                .patched(copy_patches(rec)),
            op(NEXT, Opcode::Flush)
                .rkey(rkey)
                .patched(flush_patches(rec)),
            forward,
        ],
        (Primitive::GMemcpy, _) => vec![
            wait(LOCAL, upstream),
            op(LOCAL, Opcode::LocalCopy)
                .signaled()
                .patched(copy_patches(rec)),
            op(LOCAL, Opcode::LocalFlush)
                .signaled()
                .patched(flush_patches(rec)),
            wait(NEXT, Wait::Consume(Cq::SendOf(LOCAL), 2)),
            forward,
        ],
        (Primitive::GCas, _) => vec![
            wait(LOCAL, upstream),
            // The execute map is the opcode byte (CAS or NOP); the
            // original value lands in this member's word of the staged
            // result map.
            op(LOCAL, Opcode::LocalCas).len(8).signaled().patched([
                pat(rec + crec::COP, 1, field_offset::OPCODE),
                pat(rec + crec::TARGET, 8, field_offset::RADDR),
                pat(rec + crec::CMP, 8, field_offset::CMP),
                pat(rec + crec::SWP, 8, field_offset::SWP),
                pat(rec + crec::RESULT, 8, field_offset::LADDR),
                pat(OP_OFF, 4, field_offset::OP),
            ]),
            wait(NEXT, Wait::Consume(Cq::SendOf(LOCAL), 1)),
            forward,
        ],
    }
}

/// The fan-out primary's program. Queue 0 ACKs the client; queue `1+b`
/// leads to backup `b`:
///
/// | queue          | steps                                  |
/// |----------------|----------------------------------------|
/// | `1+b` (backup) | WAIT_T(client recv CQ, 1)·WRITE·SEND   |
/// | 0 (client)     | WAIT_T(ack fan-in CQ, n)·WRITE_IMM     |
///
/// All the per-backup WAITs watch the same client receive CQ in
/// threshold mode, so one client SEND triggers every backup's transfer
/// in parallel; slot `k`'s group ACK fires once the fan-in CQ has
/// produced `n·(k+1)` backup acks. `backups[b]` is the offset of backup
/// `b`'s transfer record and the rkey of its copy.
pub(crate) fn fanout_primary(
    msg_len: u64,
    client_rcq: u32,
    fan_in_cq: u32,
    backups: &[(u64, u32)],
    ack: AckTarget,
) -> Vec<Step> {
    let n = backups.len() as u32;
    let mut steps = Vec::new();
    for (b, &(rec, rkey)) in backups.iter().enumerate() {
        steps.extend([
            wait(1 + b, Wait::Threshold(Cq::Id(client_rcq), 1)),
            op(1 + b, Opcode::Write)
                .rkey(rkey)
                .patched(copy_patches(rec)),
            op(1 + b, Opcode::Send).len(msg_len).from(Addr::Staging(0)),
        ]);
    }
    steps.extend([
        wait(0, Wait::Threshold(Cq::Id(fan_in_cq), n)),
        op(0, Opcode::WriteImm)
            .ack(ack)
            .patched([pat(0, 4, field_offset::IMM)]),
    ]);
    steps
}

/// A fan-out backup's program: `WAIT·SEND`. The data arrived one-sided
/// just before the primary's SEND, so the backup acks straight back; the
/// ack is the event, its 4 bytes (read from `ack_src`) are arbitrary.
pub(crate) fn fanout_backup(primary_rcq: u32, ack_src: u64) -> Vec<Step> {
    let mut ack = op(0, Opcode::Send).len(4);
    ack.wqe.laddr = ack_src;
    vec![wait(0, Wait::Consume(Cq::Id(primary_rcq), 1)), ack]
}

/// The multi-client tail's program: per client `c`, `WAIT_T·WRITE_IMM`
/// on queue `c`. Threshold WAITs let every per-client queue trigger off
/// the shared upstream CQ, and the issuing client's select byte keeps
/// its own WRITE_IMM's opcode while turning the others into NOPs — the
/// execute-map trick of gCAS. `select_off` is where the select section
/// starts in the message.
pub(crate) fn multi_tail(upstream_rcq: u32, select_off: u64, clients: &[AckTarget]) -> Vec<Step> {
    let mut steps = Vec::new();
    for (c, &ack) in clients.iter().enumerate() {
        let sel = select_off + c as u64 * select::ENTRY;
        steps.extend([
            wait(c, Wait::Threshold(Cq::Id(upstream_rcq), 1)),
            op(c, Opcode::WriteImm).ack(ack).patched([
                pat(0, 4, field_offset::IMM),
                pat(sel + select::OP, 1, field_offset::OPCODE),
            ]),
        ]);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::{self, FanoutBuilder, FanoutClient, FanoutConfig};
    use crate::multi::{self, MultiBuilder, MultiClient, MultiConfig};
    use crate::replica::{self, Offload};
    use crate::{Backpressure, GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
    use hl_cluster::ClusterBuilder;
    use hl_sim::{Engine, SimDuration};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    const SLOTS: u32 = 8;

    /// What the program derived must be what the NIC holds: right after
    /// the build every send queue is full with exactly `slots × per_slot`
    /// WQEs, and on every queue each WAIT activates exactly the deferred
    /// steps between it and the next WAIT — no step left without an
    /// owner, none granted twice.
    fn assert_shapes<G: Offload>(group: &Rc<RefCell<G>>, w: &World) -> usize {
        let mut g = group.borrow_mut();
        let programs = g.rings().programs.iter().flatten();
        programs
            .map(|p| {
                let nic = &w.hosts[p.host.0].nic;
                for (q, qp) in p.queues.iter().enumerate() {
                    let on_q: Vec<&Step> = p.steps.iter().filter(|s| s.q == q).collect();
                    let (head, tail, capacity) = nic.sq_state(qp.qpn);
                    assert_eq!(tail - head, SLOTS as u64 * on_q.len() as u64);
                    assert_eq!(capacity as u64, tail - head);
                    assert!(on_q[0].wait.is_some(), "a queue starts with its WAIT");
                    let mut owed = 0;
                    for s in on_q {
                        if s.wait.is_some() {
                            assert_eq!(owed, 0, "WAIT fires before its predecessor's steps");
                            owed = s.wqe.activate_n;
                        } else {
                            assert!(s.deferred && owed > 0, "step no WAIT activates");
                            owed -= 1;
                        }
                    }
                    assert_eq!(owed, 0, "WAIT activates past its slot");
                }
            })
            .count()
    }

    /// Push `10 × SLOTS` operations through `issue`, retrying refusals, so
    /// every ring wraps ten times under replenishment; a program whose
    /// derived depth or consumption count were off would hit `RingFull`
    /// (a panic in `post`) or stall.
    fn wrap_rings(
        w: &mut World,
        eng: &mut Engine<World>,
        issue: impl Fn(&mut World, &mut Engine<World>, u32, OnDone) -> Result<u32, Backpressure>,
    ) {
        let total = 10 * SLOTS;
        let acked = Rc::new(Cell::new(0u32));
        let mut k = 0;
        while k < total {
            let a = acked.clone();
            match issue(w, eng, k, Box::new(move |_, _, _| a.set(a.get() + 1))) {
                Ok(_) => k += 1,
                Err(Backpressure) => {
                    // A timed no-op, so the clock moves even when nothing
                    // else is due before the next replenisher tick.
                    let woke = Rc::new(Cell::new(false));
                    let flag = woke.clone();
                    eng.schedule(SimDuration::from_micros(50), move |_, _| flag.set(true));
                    eng.run_while(w, move |_| !woke.get());
                }
            }
        }
        let a = acked.clone();
        assert!(eng.run_while(w, move |_| a.get() < total));
    }

    #[test]
    fn derived_shapes_hold_on_every_topology() {
        let (mut w, mut eng) = ClusterBuilder::new(5).arena_size(4 << 20).seed(3).build();
        let hosts = |r: std::ops::Range<usize>| r.map(HostId).collect::<Vec<_>>();

        let group = GroupBuilder::new(GroupConfig {
            client: HostId(0),
            replicas: hosts(1..4),
            rep_bytes: 64 << 10,
            ring_slots: SLOTS,
            ..Default::default()
        })
        .build(&mut w);
        assert_eq!(assert_shapes(&group, &w), 9, "3 replicas × 3 rings");
        replica::start_replenishers(&group, &mut w, &mut eng);
        let c = HyperLoopClient::new(group, &mut w);
        wrap_rings(&mut w, &mut eng, |w, eng, k, done| {
            c.gwrite(w, eng, k as u64 * 64, &[k as u8; 64], true, done)
        });
        wrap_rings(&mut w, &mut eng, |w, eng, k, done| {
            c.gmemcpy(
                w,
                eng,
                k as u64 * 64,
                0x8000 + k as u64 * 64,
                64,
                true,
                done,
            )
        });
        wrap_rings(&mut w, &mut eng, |w, eng, k, done| {
            c.gcas(w, eng, 0xf000, k as u64, k as u64 + 1, 0b1111, done)
        });

        let group = FanoutBuilder::new(FanoutConfig {
            client: HostId(0),
            primary: HostId(1),
            backups: hosts(2..4),
            rep_bytes: 64 << 10,
            ring_slots: SLOTS,
        })
        .build(&mut w);
        assert_eq!(assert_shapes(&group, &w), 3, "primary + 2 backups");
        fanout::start_replenisher(&group, &mut w, &mut eng);
        let c = FanoutClient::new(group, &mut w);
        wrap_rings(&mut w, &mut eng, |w, eng, k, done| {
            c.gwrite(w, eng, k as u64 * 64, &[k as u8; 64], done)
        });

        let chain = MultiBuilder::new(MultiConfig {
            clients: hosts(0..2),
            replicas: hosts(2..5),
            rep_bytes: 64 << 10,
            ring_slots: SLOTS,
        })
        .build(&mut w);
        assert_eq!(assert_shapes(&chain, &w), 3, "3 replicas");
        multi::start_replenisher(&chain, &mut w, &mut eng);
        let cs: Vec<MultiClient> = (0..2)
            .map(|c| MultiClient::new(chain.clone(), c, &mut w))
            .collect();
        wrap_rings(&mut w, &mut eng, |w, eng, k, done| {
            cs[k as usize % 2].gwrite(w, eng, k as u64 * 64, &[k as u8; 64], true, done)
        });
    }
}
