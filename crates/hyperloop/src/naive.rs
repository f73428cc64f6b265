//! The Naïve-RDMA baseline (paper §6, "Naïve-RDMA").
//!
//! Performs the same group operations as HyperLoop over the same chain
//! topology and the same verbs, but **replica CPUs sit on the critical
//! path**: each hop's NIC delivers the operation to a replica process
//! that must be scheduled to receive, parse, apply (flush / memcpy /
//! CAS) and re-post the forwarding work requests — exactly the
//! traditional design the paper measures against. Two replica modes:
//!
//! * [`Mode::Event`] — completion interrupts wake the replica process
//!   (cheap when idle, slow under scheduler contention);
//! * [`Mode::Polling`] — the replica burns a core busy-polling its CQ
//!   (the paper's "best case" for microbenchmarks, and its surprising
//!   multi-tenant loser in Figure 11).

use crate::group::{Backpressure, OnDone, OpResult};
use crate::wire::{self, AckRing, OneSided, PendingTable};
use hl_cluster::{Ctx, ProcAddr, ProcEvent, Process, World};
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::{Access, CqeKind, CqeStatus, Opcode, RecvWqe, ScatterEntry, ScatterTemplate, Wqe};
use hl_sim::telemetry::Stage;
use hl_sim::{Engine, OpKind, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Replica scheduling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Interrupt-driven: sleep until a completion event.
    Event,
    /// Busy-polling: burn a core checking the CQ.
    Polling,
}

/// CPU cost knobs for the baseline replica datapath.
#[derive(Debug, Clone)]
pub struct NaiveCosts {
    /// Receive-event dispatch (poll CQ + read descriptor).
    pub dispatch: SimDuration,
    /// Parse one descriptor.
    pub parse: SimDuration,
    /// Persist (CLWB + fence) per operation.
    pub persist: SimDuration,
    /// Build + post + doorbell for the forwarding WQEs.
    pub post: SimDuration,
    /// Memcpy throughput for gMEMCPY apply (bytes/sec).
    pub memcpy_bps: u64,
    /// Poll quantum for [`Mode::Polling`].
    pub poll_quantum: SimDuration,
}

impl Default for NaiveCosts {
    fn default() -> Self {
        NaiveCosts {
            dispatch: SimDuration::from_nanos(1_500),
            parse: SimDuration::from_nanos(600),
            persist: SimDuration::from_nanos(400),
            post: SimDuration::from_nanos(900),
            memcpy_bps: 10_000_000_000,
            poll_quantum: SimDuration::from_micros(2),
        }
    }
}

/// Naïve group configuration.
#[derive(Debug, Clone)]
pub struct NaiveConfig {
    /// Chain head (client).
    pub client: HostId,
    /// Replicas in chain order.
    pub replicas: Vec<HostId>,
    /// Replicated region size.
    pub rep_bytes: u64,
    /// Receive-ring depth.
    pub ring_slots: u32,
    /// Replica scheduling mode.
    pub mode: Mode,
    /// CPU cost knobs.
    pub costs: NaiveCosts,
    /// Pin each replica process to a core (dedicated-core best case).
    pub pin_replicas: bool,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        NaiveConfig {
            client: HostId(0),
            replicas: Vec::new(),
            rep_bytes: 1 << 20,
            ring_slots: 128,
            mode: Mode::Event,
            costs: NaiveCosts::default(),
            pin_replicas: false,
        }
    }
}

// Descriptor layout (fixed header + result map), parsed by replica CPUs.
const D_PRIM: u64 = 0;
const D_FLUSH: u64 = 1;
const D_SEQ: u64 = 4;
const D_OFFSET: u64 = 8;
const D_AUX: u64 = 16; // memcpy src / CAS cmp
const D_SWP: u64 = 24;
const D_LEN: u64 = 32;
const D_EXEC: u64 = 36;
const D_OP: u64 = 40; // telemetry op id (0 = untraced)
const D_RESULTS: u64 = 48;

fn desc_len(g: usize) -> u64 {
    D_RESULTS + 8 * g as u64
}

struct RepSide {
    host: HostId,
    qp_prev: u32,
    prev_rcq: u32,
    qp_next: u32,
    /// Inbound descriptor buffer (`slots × desc_len`).
    rxbuf: Region,
    /// Outbound staging for the forwarded descriptor.
    txbuf: Region,
    next_rkey: u32,
    /// The whole descriptor into cell 0 of `rxbuf`, one cell per ring
    /// position.
    recv_template: ScatterTemplate,
    recvs_posted: u64,
}

impl RepSide {
    /// Post the next RECV, landing in its cell of the rx buffer.
    fn post_recv(&mut self, w: &mut World, slots: u64) {
        let k = self.recvs_posted;
        self.recvs_posted += 1;
        w.hosts[self.host.0]
            .post_recv(self.qp_prev, RecvWqe::at(k, &self.recv_template, k % slots));
    }
}

struct PendingOp {
    issued_at: SimTime,
    op: u32,
    done: Option<OnDone>,
}

/// Shared state of a naïve group.
pub struct NaiveInner {
    /// Configuration.
    pub cfg: NaiveConfig,
    g: usize,
    dlen: u64,
    /// Client's copy of the replicated region.
    pub client_rep: Region,
    /// Replica copies.
    pub replica_rep: Vec<Region>,
    rep_rkeys: Vec<u32>,
    qp_out: u32,
    tx_staging: Region,
    ack: AckRing,
    reps: Vec<RepSide>,
    pending: PendingTable<PendingOp>,
    next_seq: u32,
    inflight: u32,
    max_inflight: u32,
    /// Refuse new issues (during a cutover back to an offloaded chain);
    /// in-flight descriptors still drain and ACK.
    pub paused: bool,
    /// Issue/ack counters.
    pub stats: crate::group::GroupStats,
}

/// Shared handle.
pub type NaiveRef = Rc<RefCell<NaiveInner>>;

impl NaiveInner {
    /// Member address (0 = client).
    pub fn member_addr(&self, m: usize, offset: u64) -> u64 {
        if m == 0 {
            self.client_rep.at(offset)
        } else {
            self.replica_rep[m - 1].at(offset)
        }
    }
}

/// Builds the naïve chain and starts replica processes.
pub struct NaiveBuilder {
    cfg: NaiveConfig,
}

impl NaiveBuilder {
    /// Start from a config.
    pub fn new(cfg: NaiveConfig) -> Self {
        assert!(!cfg.replicas.is_empty());
        NaiveBuilder { cfg }
    }

    /// Allocate, wire, pre-post, and start the replica processes.
    pub fn build(self, w: &mut World, eng: &mut Engine<World>) -> NaiveClient {
        let cfg = self.cfg;
        let n = cfg.replicas.len();
        let g = n + 1;
        let dlen = desc_len(g);
        let slots = cfg.ring_slots;
        let ch = cfg.client;

        let client_rep = wire::region(w, ch, "rep", cfg.rep_bytes);
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

        // Client side.
        let qp_out = wire::op_qp(w, ch, slots).qpn;
        let tx_staging = wire::region(w, ch, "tx", slots as u64 * dlen);
        let ack = AckRing::new(w, ch, slots, g);

        // Replicas.
        let mut reps = Vec::new();
        let mut upstream = (ch, qp_out);
        for (i, &rh) in cfg.replicas.iter().enumerate() {
            let prev = wire::recv_qp(w, rh);
            let qp_next = wire::op_qp(w, rh, slots).qpn;
            let rxbuf = wire::region(w, rh, "rx", slots as u64 * dlen);
            let txbuf = wire::region(w, rh, "txf", slots as u64 * dlen);
            w.connect_qps(upstream.0, upstream.1, rh, prev.qpn);
            let recv_template = ScatterTemplate::new(&[ScatterEntry {
                msg_off: 0,
                len: dlen as u32,
                addr: rxbuf.at(0),
                stride: dlen,
            }]);
            let mut rep = RepSide {
                host: rh,
                qp_prev: prev.qpn,
                prev_rcq: prev.rcq,
                qp_next,
                rxbuf,
                txbuf,
                next_rkey: rep_rkeys.get(i + 1).copied().unwrap_or(ack.rkey),
                recv_template,
                recvs_posted: 0,
            };
            // Pre-post receives into the rx buffer.
            for _ in 0..slots {
                rep.post_recv(w, slots as u64);
            }
            reps.push(rep);
            upstream = (rh, qp_next);
        }
        w.connect_qps(upstream.0, upstream.1, ch, ack.qp);

        let inner: NaiveRef = Rc::new(RefCell::new(NaiveInner {
            g,
            dlen,
            client_rep,
            replica_rep,
            rep_rkeys,
            qp_out,
            tx_staging,
            ack,
            reps,
            pending: PendingTable::new(),
            next_seq: 0,
            inflight: 0,
            max_inflight: slots / 2,
            paused: false,
            stats: Default::default(),
            cfg,
        }));

        // Start replica processes.
        let mode = inner.borrow().cfg.mode;
        let pin = inner.borrow().cfg.pin_replicas;
        let replicas = inner.borrow().cfg.replicas.clone();
        for (i, &rh) in replicas.iter().enumerate() {
            if pin {
                // Dedicated core: reserve core 0 for the replica.
                w.hosts[rh.0].cpu.set_exclusive(0, true);
            }
            let proc_addr = w.start_process(
                rh,
                &format!("naive-replica-{i}"),
                if pin { Some(0) } else { None },
                Box::new(NaiveReplica {
                    inner: inner.clone(),
                    idx: i,
                    queue: VecDeque::new(),
                    me: None,
                }),
                SimDuration::from_micros(2),
                eng,
            );
            if mode == Mode::Event {
                let rcq = inner.borrow().reps[i].prev_rcq;
                let cost = inner.borrow().cfg.costs.dispatch;
                w.subscribe_cq_interrupt(rh, rcq, proc_addr.pid, cost);
            }
        }

        // Client ACK dispatcher (zero-CPU driver, as with HyperLoop — the
        // client machine is dedicated in the paper's microbenchmarks).
        let rc = inner.clone();
        let ack_rcq_c = inner.borrow().ack.rcq;
        w.subscribe_cq_callback(ch, ack_rcq_c, move |cqe, w, eng| {
            ack_dispatch(&rc, cqe, w, eng);
        });

        NaiveClient { inner }
    }
}

fn ack_dispatch(rc: &NaiveRef, cqe: hl_rnic::Cqe, w: &mut World, eng: &mut Engine<World>) {
    if !AckRing::is_ack(&cqe) {
        return;
    }
    let mut inner = rc.borrow_mut();
    let Some(p) = inner.pending.remove(cqe.imm) else {
        return;
    };
    inner.inflight -= 1;
    inner.stats.acked += 1;
    let ch = inner.cfg.client;
    let results = inner.ack.complete(w, cqe.imm as u64, cqe.imm as u64);
    let latency = eng.now().duration_since(p.issued_at);
    let mode = inner.cfg.mode;
    drop(inner);
    let op = if cqe.op != 0 { cqe.op } else { p.op };
    w.telemetry.end_op(eng.now(), op, ch.0);
    if w.telemetry.enabled() {
        let label = match mode {
            Mode::Event => "mode=event",
            Mode::Polling => "mode=polling",
        };
        w.telemetry
            .metrics
            .histogram_record("naive_op_latency_ns", label, latency.as_nanos());
        let now = eng.now();
        w.telemetry
            .series
            .record(now, "naive_op_latency_ns", label, latency.as_nanos());
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

/// The baseline client: same surface as [`crate::HyperLoopClient`].
#[derive(Clone)]
pub struct NaiveClient {
    inner: NaiveRef,
}

impl NaiveClient {
    /// The shared group state.
    pub fn group(&self) -> &NaiveRef {
        &self.inner
    }

    fn issue(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        kind: OpKind,
        desc: Vec<u8>,
        data: Option<(u64, u32)>, // (offset, len): client WRITE of rep data
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let mut inner = self.inner.borrow_mut();
        if inner.paused || inner.inflight >= inner.max_inflight {
            inner.stats.backpressured += 1;
            return Err(Backpressure);
        }
        inner.inflight += 1;
        inner.stats.issued += 1;
        let seq = inner.next_seq;
        inner.next_seq = inner.next_seq.wrapping_add(1);
        let ch = inner.cfg.client;
        let slots = inner.cfg.ring_slots as u64;
        let dlen = inner.dlen;
        let staging = inner.tx_staging.at((seq as u64 % slots) * dlen);

        // The op id travels inside the descriptor so every replica CPU
        // along the chain can stamp its own wake/handle stages on it.
        let op = w.telemetry.begin_op(eng.now(), kind, ch.0);
        let mut desc = desc;
        desc[D_SEQ as usize..D_SEQ as usize + 4].copy_from_slice(&seq.to_le_bytes());
        desc[D_OP as usize..D_OP as usize + 4].copy_from_slice(&op.to_le_bytes());
        w.host(ch).mem.write(staging, &desc).unwrap();

        let qp_out = inner.qp_out;
        let data = data.map(|(offset, len)| OneSided {
            write_from: Some(inner.client_rep.at(offset)),
            flush: false,
            raddr: inner.replica_rep[0].at(offset),
            rkey: inner.rep_rkeys[0],
            len,
        });
        wire::post_op(&mut w.hosts[ch.0], qp_out, seq, op, data, staging, dlen);
        inner.pending.insert(
            seq,
            PendingOp {
                issued_at: eng.now(),
                op,
                done: Some(done),
            },
        );
        drop(inner);
        w.telemetry
            .stage(eng.now(), op, Stage::ClientPost, ch.0, qp_out);
        w.ring_doorbell(ch, qp_out, eng);
        Ok(seq)
    }

    /// gWRITE equivalent.
    pub fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        {
            let inner = self.inner.borrow();
            let local = inner.client_rep.at(offset);
            let ch = inner.cfg.client;
            drop(inner);
            w.host(ch).mem.write(local, data).unwrap();
            if flush {
                w.host(ch).mem.flush(local, data.len()).unwrap();
            }
        }
        let g = self.inner.borrow().g;
        let mut d = vec![0u8; desc_len(g) as usize];
        d[D_PRIM as usize] = 0;
        d[D_FLUSH as usize] = flush as u8;
        d[D_OFFSET as usize..D_OFFSET as usize + 8].copy_from_slice(&offset.to_le_bytes());
        d[D_LEN as usize..D_LEN as usize + 4].copy_from_slice(&(data.len() as u32).to_le_bytes());
        self.issue(
            w,
            eng,
            OpKind::NaiveWrite,
            d,
            Some((offset, data.len() as u32)),
            done,
        )
    }

    /// gMEMCPY equivalent.
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
        {
            let inner = self.inner.borrow();
            let ch = inner.cfg.client;
            let src = inner.client_rep.at(src_off);
            let dst = inner.client_rep.at(dst_off);
            drop(inner);
            w.host(ch).mem.copy_within(src, dst, len as usize).unwrap();
            if flush {
                w.host(ch).mem.flush(dst, len as usize).unwrap();
            }
        }
        let g = self.inner.borrow().g;
        let mut d = vec![0u8; desc_len(g) as usize];
        d[D_PRIM as usize] = 1;
        d[D_FLUSH as usize] = flush as u8;
        d[D_OFFSET as usize..D_OFFSET as usize + 8].copy_from_slice(&dst_off.to_le_bytes());
        d[D_AUX as usize..D_AUX as usize + 8].copy_from_slice(&src_off.to_le_bytes());
        d[D_LEN as usize..D_LEN as usize + 4].copy_from_slice(&len.to_le_bytes());
        self.issue(w, eng, OpKind::NaiveMemcpy, d, None, done)
    }

    /// gCAS equivalent.
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
        let g = self.inner.borrow().g;
        let mut d = vec![0u8; desc_len(g) as usize];
        if exec_map & 1 != 0 {
            let inner = self.inner.borrow();
            let ch = inner.cfg.client;
            let addr = inner.client_rep.at(offset);
            drop(inner);
            let orig = w.host(ch).mem.compare_and_swap_u64(addr, cmp, swp).unwrap();
            d[D_RESULTS as usize..D_RESULTS as usize + 8].copy_from_slice(&orig.to_le_bytes());
        }
        d[D_PRIM as usize] = 2;
        d[D_OFFSET as usize..D_OFFSET as usize + 8].copy_from_slice(&offset.to_le_bytes());
        d[D_AUX as usize..D_AUX as usize + 8].copy_from_slice(&cmp.to_le_bytes());
        d[D_SWP as usize..D_SWP as usize + 8].copy_from_slice(&swp.to_le_bytes());
        d[D_EXEC as usize..D_EXEC as usize + 4].copy_from_slice(&exec_map.to_le_bytes());
        self.issue(w, eng, OpKind::NaiveCas, d, None, done)
    }

    /// Standalone gFLUSH equivalent (flush-only descriptor).
    pub fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        {
            let inner = self.inner.borrow();
            let ch = inner.cfg.client;
            let local = inner.client_rep.at(offset);
            drop(inner);
            w.host(ch).mem.flush(local, len as usize).unwrap();
        }
        let g = self.inner.borrow().g;
        let mut d = vec![0u8; desc_len(g) as usize];
        d[D_PRIM as usize] = 0;
        d[D_FLUSH as usize] = 1;
        d[D_OFFSET as usize..D_OFFSET as usize + 8].copy_from_slice(&offset.to_le_bytes());
        d[D_LEN as usize..D_LEN as usize + 4].copy_from_slice(&len.to_le_bytes());
        self.issue(w, eng, OpKind::NaiveFlush, d, None, done)
    }
}

const TAG_POLL: u64 = 100;
const TAG_HANDLE: u64 = 101;

/// The replica process: receive, parse, apply, forward — all on CPU.
struct NaiveReplica {
    inner: NaiveRef,
    idx: usize,
    /// Descriptor slots polled but not yet handled.
    queue: VecDeque<u64>,
    me: Option<ProcAddr>,
}

impl NaiveReplica {
    /// Poll the recv CQ, queueing message slots and charging handle work.
    fn drain_cq(&mut self, ctx: &mut Ctx<'_>) {
        let (rcq, costs) = {
            let inner = self.inner.borrow();
            (inner.reps[self.idx].prev_rcq, inner.cfg.costs.clone())
        };
        let cqes = ctx.poll_cq(rcq, 64);
        for cqe in cqes {
            if cqe.kind != CqeKind::Recv || cqe.status != CqeStatus::Ok {
                continue;
            }
            self.queue.push_back(cqe.wr_id);
            // Charge a realistic amount of work, memcpy-sized for gMEMCPY.
            let (cost, op, host) = {
                let inner = self.inner.borrow();
                let rep = &inner.reps[self.idx];
                let slots = inner.cfg.ring_slots as u64;
                let addr = rep.rxbuf.at((cqe.wr_id % slots) * inner.dlen);
                let mem = &ctx.world.hosts[rep.host.0].mem;
                let prim = mem.read(addr, 1).unwrap()[0];
                let len = mem.read_u32(addr + D_LEN).unwrap();
                let op = mem.read_u32(addr + D_OP).unwrap_or(0);
                let mut c = costs.parse + costs.persist + costs.post;
                if prim == 1 {
                    c += SimDuration::from_nanos(
                        (len as u128 * 1_000_000_000 / costs.memcpy_bps as u128) as u64,
                    );
                }
                (c, op, rep.host.0)
            };
            let now = ctx.now();
            ctx.world.telemetry.stage(now, op, Stage::CpuWake, host, 0);
            ctx.submit_work(cost, TAG_HANDLE);
        }
    }

    /// Apply + forward one queued descriptor (CPU already charged).
    fn handle_one(&mut self, ctx: &mut Ctx<'_>) {
        let Some(slot) = self.queue.pop_front() else {
            return;
        };
        let mut inner = self.inner.borrow_mut();
        let i = self.idx;
        let g = inner.g;
        let dlen = inner.dlen;
        let slots = inner.cfg.ring_slots as u64;
        let is_tail = i == inner.reps.len() - 1;
        let rh = inner.reps[i].host;
        let rx_addr = inner.reps[i].rxbuf.at((slot % slots) * dlen);
        let mem = &mut ctx.world.hosts[rh.0].mem;
        let desc = mem.read_vec(rx_addr, dlen as usize).unwrap();
        let prim = desc[D_PRIM as usize];
        let flush = desc[D_FLUSH as usize] != 0;
        let seq = u32::from_le_bytes(desc[D_SEQ as usize..D_SEQ as usize + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(
            desc[D_OFFSET as usize..D_OFFSET as usize + 8]
                .try_into()
                .unwrap(),
        );
        let aux = u64::from_le_bytes(desc[D_AUX as usize..D_AUX as usize + 8].try_into().unwrap());
        let swp = u64::from_le_bytes(desc[D_SWP as usize..D_SWP as usize + 8].try_into().unwrap());
        let len = u32::from_le_bytes(desc[D_LEN as usize..D_LEN as usize + 4].try_into().unwrap());
        let exec = u32::from_le_bytes(
            desc[D_EXEC as usize..D_EXEC as usize + 4]
                .try_into()
                .unwrap(),
        );
        let op = u32::from_le_bytes(desc[D_OP as usize..D_OP as usize + 4].try_into().unwrap());

        let my_rep = inner.replica_rep[i].clone();
        let mut desc_out = desc.clone();
        match prim {
            0
                // gWRITE: data already landed via the upstream one-sided
                // WRITE; persist it if requested.
                if flush => {
                    mem.flush(my_rep.at(offset), (len as usize).max(1)).unwrap();
                }
            1 => {
                // gMEMCPY: CPU memcpy + persist.
                mem.copy_within(my_rep.at(aux), my_rep.at(offset), len as usize)
                    .unwrap();
                if flush {
                    mem.flush(my_rep.at(offset), len as usize).unwrap();
                }
            }
            2 => {
                // gCAS.
                let member = i + 1;
                if exec & (1 << member) != 0 {
                    let orig = mem
                        .compare_and_swap_u64(my_rep.at(offset), aux, swp)
                        .unwrap();
                    let roff = (D_RESULTS + member as u64 * 8) as usize;
                    desc_out[roff..roff + 8].copy_from_slice(&orig.to_le_bytes());
                }
            }
            _ => {}
        }

        // Forward (or ACK if tail).
        let tx_addr = inner.reps[i].txbuf.at((slot % slots) * dlen);
        mem.write(tx_addr, &desc_out).unwrap();
        let qp_next = inner.reps[i].qp_next;
        let next_rkey = inner.reps[i].next_rkey;
        if is_tail {
            let ack_slot = inner.ack.slot_addr(seq as u64);
            ctx.world.hosts[rh.0]
                .post_send(
                    qp_next,
                    Wqe {
                        opcode: Opcode::WriteImm,
                        len: 8 * g as u32,
                        laddr: tx_addr + D_RESULTS,
                        raddr: ack_slot,
                        rkey: next_rkey,
                        imm: seq,
                        wr_id: seq as u64,
                        op,
                        ..Default::default()
                    },
                    false,
                )
                .expect("tail SQ sized");
        } else {
            if prim == 0 && len > 0 {
                let next_rep = inner.replica_rep[i + 1].clone();
                ctx.world.hosts[rh.0]
                    .post_send(
                        qp_next,
                        Wqe {
                            opcode: Opcode::Write,
                            len,
                            laddr: my_rep.at(offset),
                            raddr: next_rep.at(offset),
                            rkey: next_rkey,
                            wr_id: seq as u64,
                            op,
                            ..Default::default()
                        },
                        false,
                    )
                    .expect("SQ sized");
            }
            ctx.world.hosts[rh.0]
                .post_send(
                    qp_next,
                    Wqe {
                        opcode: Opcode::Send,
                        len: dlen as u32,
                        laddr: tx_addr,
                        wr_id: seq as u64,
                        op,
                        ..Default::default()
                    },
                    false,
                )
                .expect("SQ sized");
        }
        // Re-post the consumed RECV.
        inner.reps[i].post_recv(ctx.world, slots);
        drop(inner);
        let now = ctx.now();
        ctx.world
            .telemetry
            .stage(now, op, Stage::CpuDone, rh.0, qp_next);
        ctx.ring_doorbell(qp_next);
    }
}

impl Process for NaiveReplica {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        let mode = self.inner.borrow().cfg.mode;
        if self.me.is_none() {
            self.me = Some(ctx.me);
        }
        match ev {
            ProcEvent::Started if mode == Mode::Polling => {
                let q = self.inner.borrow().cfg.costs.poll_quantum;
                ctx.submit_work(q, TAG_POLL);
            }
            ProcEvent::CqEvent { .. } => {
                // Event mode: drain, handle, re-arm.
                self.drain_cq(ctx);
                let rcq = self.inner.borrow().reps[self.idx].prev_rcq;
                ctx.arm_cq(rcq);
            }
            ProcEvent::WorkDone { tag: TAG_POLL } => {
                self.drain_cq(ctx);
                let q = self.inner.borrow().cfg.costs.poll_quantum;
                ctx.submit_work(q, TAG_POLL);
            }
            ProcEvent::WorkDone { tag: TAG_HANDLE } => {
                self.handle_one(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CPU-parsed descriptor layout round-trips every field.
    #[test]
    fn descriptor_layout_roundtrips() {
        let g = 4;
        let mut d = vec![0u8; desc_len(g) as usize];
        d[D_PRIM as usize] = 2;
        d[D_FLUSH as usize] = 1;
        d[D_SEQ as usize..D_SEQ as usize + 4].copy_from_slice(&0xab12u32.to_le_bytes());
        d[D_OFFSET as usize..D_OFFSET as usize + 8].copy_from_slice(&0x4000u64.to_le_bytes());
        d[D_AUX as usize..D_AUX as usize + 8].copy_from_slice(&7u64.to_le_bytes());
        d[D_SWP as usize..D_SWP as usize + 8].copy_from_slice(&9u64.to_le_bytes());
        d[D_LEN as usize..D_LEN as usize + 4].copy_from_slice(&1024u32.to_le_bytes());
        d[D_EXEC as usize..D_EXEC as usize + 4].copy_from_slice(&0b101u32.to_le_bytes());

        assert_eq!(d[D_PRIM as usize], 2);
        assert_eq!(d[D_FLUSH as usize], 1);
        assert_eq!(
            u32::from_le_bytes(d[D_SEQ as usize..D_SEQ as usize + 4].try_into().unwrap()),
            0xab12
        );
        assert_eq!(
            u64::from_le_bytes(
                d[D_OFFSET as usize..D_OFFSET as usize + 8]
                    .try_into()
                    .unwrap()
            ),
            0x4000
        );
        assert_eq!(
            u32::from_le_bytes(d[D_EXEC as usize..D_EXEC as usize + 4].try_into().unwrap()),
            0b101
        );
        // The result map section holds one u64 per member.
        assert_eq!(desc_len(g), D_RESULTS + 8 * g as u64);
    }

    #[test]
    fn default_costs_are_sane() {
        let c = NaiveCosts::default();
        assert!(c.parse < SimDuration::from_millis(1));
        assert!(c.poll_quantum >= SimDuration::from_micros(1));
        assert!(c.memcpy_bps > 1_000_000_000);
    }
}
