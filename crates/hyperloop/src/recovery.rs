//! Failure detection and chain recovery (paper §5, "RocksDB Recovery" /
//! "MongoDB Recovery").
//!
//! HyperLoop accelerates only the data path; the control path stays
//! conventional. A configurable number of consecutive missed heartbeats
//! is a data-path failure [paper citing Aguilera et al.]; on detection
//! the coordinator pauses writes, rebuilds the chain from the survivors
//! (fresh QPs and pre-posted rings), catches a new or stale member up by
//! copying the replicated region with chunked RDMA READs, and resumes.

use crate::group::{GroupBuilder, GroupConfig, GroupRef};
use crate::metadata::Primitive;
use crate::reconfig::{self, Plan};
use crate::{wire, HyperLoopClient};
use hl_cluster::{Ctx, ProcAddr, ProcEvent, Process, World};
use hl_fabric::HostId;
use hl_rnic::{Cqe, CqeStatus, Opcode, Wqe};
use hl_sim::{Engine, SimDuration};

/// One-shot continuation used by the recovery helpers.
pub type OnRecovered = Box<dyn FnOnce(&mut World, &mut Engine<World>)>;
/// Continuation receiving the rebuilt chain's client.
pub type OnRebuilt = Box<dyn FnOnce(&mut World, &mut Engine<World>, HyperLoopClient)>;

/// Heartbeat parameters.
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// Ping period.
    pub period: SimDuration,
    /// Consecutive missed pongs before declaring failure.
    pub miss_threshold: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: SimDuration::from_millis(10),
            miss_threshold: 3,
        }
    }
}

/// Heartbeat ping (client → replica agent).
pub struct Ping {
    /// Sequence number.
    pub seq: u64,
    /// Where to send the pong.
    pub reply_to: ProcAddr,
    /// Which replica is being probed.
    pub idx: usize,
}

/// Heartbeat pong (replica agent → detector).
pub struct Pong {
    /// Echoed sequence.
    pub seq: u64,
    /// Responding replica index.
    pub idx: usize,
}

/// A tiny process on each replica that answers heartbeats. Its CPU cost
/// is a few microseconds every period — control path only.
pub struct ReplicaAgent;

impl Process for ReplicaAgent {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        if let ProcEvent::Message(m) = ev {
            if let Ok(ping) = m.downcast::<Ping>() {
                ctx.send_msg(
                    ping.reply_to,
                    Box::new(Pong {
                        seq: ping.seq,
                        idx: ping.idx,
                    }),
                    64,
                    SimDuration::from_micros(1),
                );
            }
        }
    }
}

/// Invoked (once per replica) when a replica is declared failed.
pub type OnFailure = Box<dyn FnMut(&mut World, &mut Engine<World>, usize)>;

/// The client-side failure detector.
pub struct FailureDetector {
    agents: Vec<ProcAddr>,
    cfg: HeartbeatConfig,
    seq: u64,
    pong_seen: Vec<bool>,
    misses: Vec<u32>,
    failed: Vec<bool>,
    on_failure: OnFailure,
}

impl FailureDetector {
    /// Monitor the given replica agents.
    pub fn new(agents: Vec<ProcAddr>, cfg: HeartbeatConfig, on_failure: OnFailure) -> Self {
        let n = agents.len();
        FailureDetector {
            agents,
            cfg,
            seq: 0,
            pong_seen: vec![true; n],
            misses: vec![0; n],
            failed: vec![false; n],
            on_failure,
        }
    }
}

const TAG_HB: u64 = 7;

impl Process for FailureDetector {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        match ev {
            ProcEvent::Started => {
                ctx.set_timer(self.cfg.period, TAG_HB, SimDuration::from_micros(1));
            }
            ProcEvent::Timer { tag: TAG_HB } => {
                // Evaluate the previous round.
                for i in 0..self.agents.len() {
                    if self.failed[i] {
                        continue;
                    }
                    if self.pong_seen[i] {
                        self.misses[i] = 0;
                    } else {
                        self.misses[i] += 1;
                        if self.misses[i] >= self.cfg.miss_threshold {
                            self.failed[i] = true;
                            let now = ctx.eng.now();
                            ctx.world.telemetry.mark(now, "hb:replica-failed", i);
                            ctx.world.telemetry.metrics.counter_add(
                                "recovery_failures_detected",
                                "layer=heartbeat",
                                1,
                            );
                            (self.on_failure)(ctx.world, ctx.eng, i);
                        }
                    }
                    self.pong_seen[i] = false;
                }
                // Next round.
                self.seq += 1;
                let me = ctx.me;
                for (i, &agent) in self.agents.clone().iter().enumerate() {
                    if self.failed[i] {
                        continue;
                    }
                    ctx.send_msg(
                        agent,
                        Box::new(Ping {
                            seq: self.seq,
                            reply_to: me,
                            idx: i,
                        }),
                        64,
                        SimDuration::from_micros(1),
                    );
                }
                ctx.set_timer(self.cfg.period, TAG_HB, SimDuration::from_micros(1));
            }
            ProcEvent::Message(m) => {
                if let Ok(pong) = m.downcast::<Pong>() {
                    if pong.idx < self.pong_seen.len() {
                        self.pong_seen[pong.idx] = true;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Start heartbeat agents on every replica plus the detector on the
/// client. Returns the detector's address.
pub fn start_heartbeats(
    group: &GroupRef,
    cfg: HeartbeatConfig,
    on_failure: OnFailure,
    w: &mut World,
    eng: &mut Engine<World>,
) -> ProcAddr {
    let (client, replicas) = {
        let g = group.borrow();
        (g.cfg.client, g.cfg.replicas.clone())
    };
    let agents: Vec<ProcAddr> = replicas
        .iter()
        .enumerate()
        .map(|(i, &rh)| {
            w.start_process(
                rh,
                &format!("hb-agent-{i}"),
                None,
                Box::new(ReplicaAgent),
                SimDuration::from_micros(1),
                eng,
            )
        })
        .collect();
    w.start_process(
        client,
        "hb-detector",
        None,
        Box::new(FailureDetector::new(agents, cfg, on_failure)),
        SimDuration::from_micros(1),
        eng,
    )
}

/// Send-queue depth of the catch-up copy's QP pair (one READ in flight).
const COPY_SQ: u32 = 8;

/// Copy `[src_addr, +len)` on `src` into `[dst_addr, +len)` on `dst`
/// with chunked RDMA READs issued from `dst` — the catch-up phase a new
/// chain member runs before joining. Calls `done` when the copy is
/// complete. The source range must be covered by an MR with
/// `REMOTE_READ` whose rkey is `src_rkey`.
#[allow(clippy::too_many_arguments)]
pub fn catch_up(
    w: &mut World,
    eng: &mut Engine<World>,
    src: HostId,
    src_rkey: u32,
    src_addr: u64,
    dst: HostId,
    dst_addr: u64,
    len: u64,
    chunk: u32,
    done: OnRecovered,
) {
    // A throwaway QP pair for the copy.
    let wire::Qp {
        qpn: qp_d,
        scq: scq_d,
        ..
    } = wire::qp(w, dst, COPY_SQ);
    let qp_s = wire::qp(w, src, COPY_SQ).qpn;
    w.connect_qps(dst, qp_d, src, qp_s);
    // Catch-up often runs while the fabric is still unhealthy (that is
    // why the chain is being rebuilt); a lost READ on a fire-and-forget
    // QP would stall the copy forever, so the copy QP is reliable with
    // a budget generous enough to ride out transient faults.
    w.host(dst)
        .nic
        .set_qp_timeout(qp_d, SimDuration::from_millis(2), 20);

    struct CopyState {
        offset: u64,
        len: u64,
        chunk: u32,
        src_rkey: u32,
        src_addr: u64,
        dst_addr: u64,
        done: Option<OnRecovered>,
    }

    let state = std::rc::Rc::new(std::cell::RefCell::new(CopyState {
        offset: 0,
        len,
        chunk,
        src_rkey,
        src_addr,
        dst_addr,
        done: Some(done),
    }));

    /// Post the next chunk's READ on `qp` of `dst`, or finish.
    fn issue_next(
        state: &std::rc::Rc<std::cell::RefCell<CopyState>>,
        dst: HostId,
        qp: u32,
        w: &mut World,
        eng: &mut Engine<World>,
    ) {
        let mut s = state.borrow_mut();
        if s.offset >= s.len {
            let done = s.done.take();
            drop(s);
            if let Some(done) = done {
                done(w, eng);
            }
            return;
        }
        let n = s.chunk.min((s.len - s.offset) as u32);
        let wqe = Wqe {
            opcode: Opcode::Read,
            flags: hl_rnic::flags::SIGNALED,
            len: n,
            laddr: s.dst_addr + s.offset,
            raddr: s.src_addr + s.offset,
            rkey: s.src_rkey,
            wr_id: s.offset,
            ..Default::default()
        };
        s.offset += n as u64;
        drop(s);
        w.host(dst).post_send(qp, wqe, false).expect("catchup SQ");
        w.ring_doorbell(dst, qp, eng);
    }

    let st = state.clone();
    w.subscribe_cq_callback(dst, scq_d, move |cqe, w, eng| {
        if cqe.status == CqeStatus::Ok {
            issue_next(&st, dst, qp_d, w, eng);
        }
    });
    issue_next(&state, dst, qp_d, w, eng);
}

/// Rebuild a chain after a failure: pause the old group, construct a
/// fresh group over `survivors` (+ optionally a `new_member`), bring
/// every member to the client's state, and hand back the new client.
/// The client's copy is authoritative (it holds everything it ever
/// ACKed); the old group's rings are simply abandoned, as the paper's
/// recovery hands control back to the application's protocol, and the
/// old group is retired at the commit, so its replenishers stop. A
/// stop-the-world [`crate::reconfig`] plan.
#[allow(clippy::too_many_arguments)]
pub fn rebuild_chain(
    w: &mut World,
    eng: &mut Engine<World>,
    old: &GroupRef,
    survivors: Vec<HostId>,
    new_member: Option<HostId>,
    ring_slots: u32,
    done: OnRebuilt,
) {
    old.borrow_mut().paused = true;
    let old_cfg = old.borrow().cfg.clone();
    let now = eng.now();
    w.telemetry
        .mark(now, "recovery:rebuild-chain", old_cfg.client.0);
    w.telemetry
        .metrics
        .counter_add("recovery_chain_rebuilds", "layer=recovery", 1);
    let mut replicas = survivors;
    replicas.extend(new_member);
    let new_group = GroupBuilder::new(GroupConfig {
        replicas,
        ring_slots,
        ..old_cfg.clone()
    })
    .build(w);
    let old = old.clone();
    reconfig::run(
        Plan {
            src: reconfig::group_members(&old)[0],
            rep_bytes: old_cfg.rep_bytes,
            // The new group's own client region is a fresh allocation
            // on the same host: filled locally. Replicas copy over the
            // fabric.
            targets: reconfig::group_members(&new_group),
            ranges: vec![(0, old_cfg.rep_bytes)],
            chunk: 64 * 1024,
            live: None,
            on_stage: Box::new(|_, _, _| {}),
            commit: Box::new(move |w, eng| {
                old.borrow_mut().retire(w);
                crate::replica::start_replenishers(&new_group, w, eng);
                let client = HyperLoopClient::new(new_group, w);
                Box::new(move |w, eng| done(w, eng, client))
            }),
        },
        w,
        eng,
    );
}

/// Callback invoked with each transport-error CQE on the client's
/// outbound rings.
pub type OnTransportError = Box<dyn FnMut(&mut World, &mut Engine<World>, Cqe)>;

/// Subscribe to error completions on the client's per-primitive
/// outbound send CQs. With [`crate::GroupConfig::transport_timeout`]
/// set, a head-hop data-path failure (dead or stalled replica-0 NIC)
/// surfaces here as `RetryExceeded` followed by `FlushedInError`
/// completions; without it, only remote NAKs (`RemoteAccess`,
/// `ReceiverNotReady`) appear.
pub fn watch_transport_errors(group: &GroupRef, w: &mut World, on_error: OnTransportError) {
    let (ch, scqs) = {
        let g = group.borrow();
        (
            g.cfg.client,
            Primitive::ALL.map(|p| g.client_rings[p.idx()].out.scq),
        )
    };
    let cb = std::rc::Rc::new(std::cell::RefCell::new(on_error));
    for scq in scqs {
        let cb = cb.clone();
        w.subscribe_cq_callback(ch, scq, move |cqe, w, eng| {
            if cqe.status != CqeStatus::Ok {
                (cb.borrow_mut())(w, eng, cqe);
            }
        });
    }
}

/// Arm one-shot data-path-error recovery: on the first transport-error
/// CQE the group is paused, the chain is rebuilt over `survivors`
/// (+ `new_member`, caught up from the client's copy) and `done`
/// receives the new client — the same pause → rebuild → catch-up →
/// resume path the heartbeat detector drives, but triggered by the
/// NIC's own error machinery (no detection period).
pub fn rebuild_on_cq_error(
    group: &GroupRef,
    w: &mut World,
    survivors: Vec<HostId>,
    new_member: Option<HostId>,
    ring_slots: u32,
    done: OnRebuilt,
) {
    let latch = std::rc::Rc::new(std::cell::RefCell::new(false));
    let done = std::rc::Rc::new(std::cell::RefCell::new(Some(done)));
    let g = group.clone();
    watch_transport_errors(
        group,
        w,
        Box::new(move |w, eng, cqe| {
            if std::mem::replace(&mut *latch.borrow_mut(), true) {
                return;
            }
            g.borrow_mut().paused = true;
            hl_sim::trace!(
                w.tracer,
                eng.now(),
                "recovery",
                "transport error {:?} on client qp{}: rebuilding chain",
                cqe.status,
                cqe.qpn
            );
            if let Some(done) = done.borrow_mut().take() {
                rebuild_chain(w, eng, &g, survivors.clone(), new_member, ring_slots, done);
            }
        }),
    );
}

/// Continuation receiving the degraded (Naïve-CPU) client.
pub type OnDegraded = Box<dyn FnOnce(&mut World, &mut Engine<World>, crate::naive::NaiveClient)>;

/// Graceful degradation: pause the HyperLoop group and bring up a
/// CPU-driven Naïve chain over the *same members*, seeded from the
/// client's authoritative copy. This is the fallback for a replica
/// whose CORE-Direct WAIT engine malfunctions (NIC still moves packets
/// but parked WQE chains never fire — `set_nic_wait_stalled`): Naïve
/// forwarding posts WQEs from the CPU and uses no WAITs, so it keeps
/// making progress on the very NIC whose offload path is wedged — and
/// so does the seeding, whose catch-up READs are CPU-posted too. A
/// stop-the-world [`crate::reconfig`] plan, which retires the HyperLoop
/// group at its commit.
pub fn degrade_to_naive(
    group: &GroupRef,
    w: &mut World,
    eng: &mut Engine<World>,
    mode: crate::naive::Mode,
    done: OnDegraded,
) {
    group.borrow_mut().paused = true;
    let cfg = group.borrow().cfg.clone();
    hl_sim::trace!(
        w.tracer,
        eng.now(),
        "recovery",
        "degrading to naive-CPU forwarding over {} replicas",
        cfg.replicas.len()
    );
    let now = eng.now();
    w.telemetry
        .mark(now, "recovery:degrade-naive", cfg.client.0);
    w.telemetry
        .metrics
        .counter_add("recovery_degrades_to_naive", "layer=recovery", 1);
    let naive = crate::naive::NaiveBuilder::new(crate::naive::NaiveConfig {
        client: cfg.client,
        replicas: cfg.replicas,
        rep_bytes: cfg.rep_bytes,
        ring_slots: cfg.ring_slots,
        mode,
        ..Default::default()
    })
    .build(w, eng);
    let group = group.clone();
    reconfig::run(
        Plan {
            src: reconfig::group_members(&group)[0],
            rep_bytes: cfg.rep_bytes,
            targets: reconfig::members(&naive),
            ranges: vec![(0, cfg.rep_bytes)],
            chunk: 64 * 1024,
            live: None,
            on_stage: Box::new(|_, _, _| {}),
            commit: Box::new(move |w, _| {
                group.borrow_mut().retire(w);
                Box::new(move |w, eng| done(w, eng, naive))
            }),
        },
        w,
        eng,
    );
}
