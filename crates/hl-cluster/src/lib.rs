//! # hl-cluster — the simulated testbed
//!
//! Composes the substrates into a cluster: each [`Host`] owns an NVM
//! arena, an RDMA NIC and a multi-tenant CPU; a [`Fabric`] connects
//! them; one deterministic [`Engine`] drives everything.
//!
//! Two kinds of actors exist:
//!
//! * **Processes** ([`Process`]) — application logic that must hold a
//!   CPU core to run. Events destined for a process (messages, timers,
//!   completion interrupts) are queued and delivered only after the
//!   scheduler gives the process a core and charges the declared CPU
//!   cost. This is how replica CPUs end up on the critical path in the
//!   baseline systems.
//! * **Zero-CPU drivers** — closures subscribed to completion queues
//!   ([`World::subscribe_cq_callback`]). Used by load generators and by
//!   HyperLoop clients in microbenchmarks, where the paper dedicates an
//!   uncontended client machine.

#![warn(missing_docs)]

pub mod chaos;
pub mod exec;
pub mod migrate;
pub mod shard;

use hl_cpu::{CpuOutput, HostCpu, ProcId};
use hl_fabric::{Delivery, Fabric, HostId};
use hl_nvm::{Layout, NvmArena};
use hl_rnic::{Cqe, Nic, NicEvent, NicEventKind, NicOutput, Packet, RecvWqe, RingFull, Wqe};
use hl_sim::config::HwProfile;
use hl_sim::telemetry::Stage;
use hl_sim::{
    Attribution, Engine, EventCtx, EventToken, RngFactory, RngStream, SimDuration, SimTime,
    Telemetry, Tracer,
};
use std::any::Any;
use std::collections::VecDeque;

/// Work tag reserved for event-dispatch CPU work.
const DISPATCH_TAG: u64 = u64::MAX;

/// One simulated server.
pub struct Host {
    /// Its RDMA NIC.
    pub nic: Nic,
    /// Its non-volatile memory.
    pub mem: NvmArena,
    /// Its CPUs.
    pub cpu: HostCpu,
    /// Region allocator over the arena.
    pub layout: Layout,
}

impl Host {
    /// Post a send WQE (see [`Nic::post_send`]); splits the NIC/memory
    /// borrow so callers can go through `&mut Host`.
    pub fn post_send(&mut self, qpn: u32, wqe: Wqe, deferred: bool) -> Result<u64, RingFull> {
        self.nic.post_send(&mut self.mem, qpn, wqe, deferred)
    }

    /// Grant NIC ownership of a deferred WQE.
    pub fn grant_ownership(&mut self, qpn: u32, idx: u64) {
        self.nic.grant_ownership(&mut self.mem, qpn, idx)
    }

    /// Post a receive.
    pub fn post_recv(&mut self, qpn: u32, wqe: RecvWqe) {
        self.nic.post_recv(qpn, wqe)
    }
}

/// An event delivered to a [`Process`] after it gets CPU time.
pub enum ProcEvent {
    /// First activation after [`World::start_process`].
    Started,
    /// A message from another process (same or different host).
    Message(Box<dyn Any>),
    /// An armed completion queue produced a CQE (event-driven I/O).
    CqEvent {
        /// The CQ that fired.
        cq: u32,
    },
    /// A timer set via [`Ctx::set_timer`] expired.
    Timer {
        /// The tag given at arm time.
        tag: u64,
    },
    /// CPU work submitted via [`Ctx::submit_work`] finished.
    WorkDone {
        /// The tag given at submission.
        tag: u64,
    },
}

/// Application logic scheduled on a host CPU.
pub trait Process {
    /// Handle one event. The process has just been charged the delivery
    /// cost and is running on a core.
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>);
}

/// Handle to a process: host + process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcAddr {
    /// Host the process runs on.
    pub host: HostId,
    /// Scheduler id on that host.
    pub pid: ProcId,
}

/// Everything a [`Process`] may do while handling an event.
pub struct Ctx<'a> {
    /// The whole world (hosts, fabric, tracer).
    pub world: &'a mut World,
    /// The event engine, for scheduling raw closures.
    pub eng: &'a mut Engine<World>,
    /// The handling process's address.
    pub me: ProcAddr,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// This process's host.
    pub fn host(&mut self) -> &mut Host {
        &mut self.world.hosts[self.me.host.0]
    }

    /// Submit additional CPU work; completion arrives as
    /// [`ProcEvent::WorkDone`] with `tag`.
    pub fn submit_work(&mut self, d: SimDuration, tag: u64) {
        assert_ne!(tag, DISPATCH_TAG, "reserved tag");
        let (now, pid) = (self.now(), self.me.pid);
        route_cpu(self.me.host, self.world, self.eng, |cpu, out| {
            cpu.submit_into(now, pid, d.as_nanos(), tag, out)
        });
    }

    /// Arm a timer; fires as [`ProcEvent::Timer`] with `tag` after
    /// `delay`, charged `cost` CPU on delivery.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64, cost: SimDuration) {
        let me = self.me;
        self.eng.schedule(delay, move |w: &mut World, eng| {
            deliver(me, ProcEvent::Timer { tag }, cost, w, eng);
        });
    }

    /// Send `msg` to another process. `wire_bytes` is what crosses the
    /// fabric; `recv_cost` is the CPU charged to the receiver for
    /// handling it (network-stack + parsing cost).
    pub fn send_msg(
        &mut self,
        to: ProcAddr,
        msg: Box<dyn Any>,
        wire_bytes: usize,
        recv_cost: SimDuration,
    ) {
        let now = self.now();
        self.world
            .send_msg_at(now, self.me.host, to, msg, wire_bytes, recv_cost, self.eng);
    }

    /// Ring a QP doorbell and route the NIC's outputs.
    pub fn ring_doorbell(&mut self, qpn: u32) {
        self.world.ring_doorbell(self.me.host, qpn, self.eng);
    }

    /// Poll a CQ (the CPU cost of polling is the caller's to model).
    pub fn poll_cq(&mut self, cq: u32, max: usize) -> Vec<Cqe> {
        self.world.hosts[self.me.host.0].nic.poll_cq(cq, max)
    }

    /// Re-arm the one-shot CQ event.
    pub fn arm_cq(&mut self, cq: u32) {
        self.world.hosts[self.me.host.0].nic.arm_cq(cq);
    }

    /// Re-arm a CQ's moderation event for when it has produced `count`
    /// completions in all ([`World::subscribe_cq_moderation`]).
    pub fn moderate_cq(&mut self, cq: u32, count: u64) {
        self.world.hosts[self.me.host.0].nic.moderate_cq(cq, count);
    }
}

/// Zero-CPU driver callback signature.
type CqCallback = Box<dyn FnMut(Cqe, &mut World, &mut Engine<World>)>;

/// CQ subscription kinds.
enum CqSub {
    /// Wake a process with a completion interrupt (event-driven I/O).
    Interrupt { pid: ProcId, cost: SimDuration },
    /// Zero-CPU driver callback: invoked per CQE, auto-rearmed.
    Callback(CqCallback),
    /// Left by [`World::unsubscribe_cq`] while the CQ's callback runs,
    /// so the dispatcher does not put the callback back.
    Dropped,
}

struct ProcSlot {
    proc: Option<Box<dyn Process>>,
    mailbox: VecDeque<ProcEvent>,
}

/// Dense `[host][id]` table of optional entries, for per-CQ and per-QP
/// state touched on every completion or ack. CQs and QPs are created
/// directly on the public [`Host::nic`], so rows grow on first `put`.
struct HostTable<T> {
    rows: Vec<Vec<Option<T>>>,
}

impl<T> HostTable<T> {
    fn new(hosts: usize) -> Self {
        HostTable {
            rows: (0..hosts).map(|_| Vec::new()).collect(),
        }
    }

    /// Store `v` at `[host][id]`, returning what it replaces.
    fn put(&mut self, host: HostId, id: u32, v: T) -> Option<T> {
        let row = &mut self.rows[host.0];
        if row.len() <= id as usize {
            row.resize_with(id as usize + 1, || None);
        }
        row[id as usize].replace(v)
    }

    /// Remove and return the entry at `[host][id]`.
    fn take(&mut self, host: HostId, id: u32) -> Option<T> {
        self.rows[host.0].get_mut(id as usize)?.take()
    }
}

/// The simulated world: hosts + fabric + process registry.
pub struct World {
    /// All hosts.
    pub hosts: Vec<Host>,
    /// The network.
    pub fabric: Fabric,
    /// Trace buffer.
    pub tracer: Tracer,
    /// Hardware profile used to build this world.
    pub profile: HwProfile,
    /// Random stream factory (seeded).
    pub rng: RngFactory,
    drop_rng: RngStream,
    procs: Vec<Vec<ProcSlot>>,
    cq_subs: HostTable<CqSub>,
    /// Packets lost to fault injection.
    pub dropped_packets: u64,
    /// Causal op tracing + labelled metrics (off until
    /// [`World::enable_telemetry`]).
    pub telemetry: Telemetry,
    /// Live ack-timer event per reliable QP, `[host][qpn]`.
    /// Superseded or dead timers are cancelled in the engine rather
    /// than left queued as no-op events.
    timer_tokens: HostTable<EventToken>,
    /// Drained NIC output sinks awaiting reuse (see [`route_nic`]). A
    /// stack, not one buffer, because routing re-enters: an output can
    /// run a CQ callback that rings a doorbell while the outer sink is
    /// still being drained. Its depth is the deepest nesting seen.
    nic_out_spare: Vec<Vec<NicOutput>>,
    /// The same for CPU-model outputs (see [`route_cpu`]): a handler a
    /// `WorkDone` runs submits work while the outer sink drains.
    cpu_out_spare: Vec<Vec<CpuOutput>>,
    /// Reused buffer for NIC telemetry drains: events hop NIC → scratch
    /// → hub without allocating in steady state (the NIC buffer and
    /// this scratch both keep their capacity).
    nic_event_scratch: Vec<NicEvent>,
    /// Reused buffer for callback CQ drains (see `dispatch_cq_event`):
    /// completions are polled into this scratch instead of a fresh
    /// `Vec` per poll. Taken out of the world during the drain, so a
    /// reentrant drain simply grows a transient empty `Vec`.
    cqe_scratch: Vec<Cqe>,
    /// Next value of [`World::fresh_id`].
    next_id: u32,
}

/// High-frequency datapath events, dispatched through the engine's
/// typed fast path (no per-event allocation; see [`EventCtx`]).
/// Cold-path events (process delivery, chaos injection, application
/// callbacks) keep using boxed closures.
pub enum WorldEvent {
    /// Hand `packet` to the fabric (egress serialization + propagation)
    /// at the scheduled transmit time.
    FabricTx {
        /// Transmitting host.
        src: HostId,
        /// Destination host.
        dst: HostId,
        /// The packet.
        packet: Packet,
    },
    /// `packet` arrives at `dst`'s NIC.
    NicRx {
        /// Receiving host.
        dst: HostId,
        /// The packet.
        packet: Packet,
    },
    /// Deliver a CQE on `host` (completion latency elapsed).
    CqeDeliver {
        /// The host whose NIC delivers.
        host: HostId,
        /// Target CQ.
        cq: u32,
        /// The completion.
        cqe: Cqe,
    },
    /// Finish a NIC-local loopback operation (DMA copy / CAS / flush).
    DoLocal {
        /// The host.
        host: HostId,
        /// Loopback QP.
        qpn: u32,
        /// The WQE to execute locally.
        wqe: Wqe,
    },
    /// A reliable QP's ack-retransmit timer expired.
    NicTimer {
        /// The host.
        host: HostId,
        /// The QP whose timer this is.
        qpn: u32,
        /// Timer generation at arm time (staleness check).
        gen: u64,
    },
    /// A CPU scheduler core timer expired.
    CpuTimer {
        /// The host.
        host: HostId,
        /// Core index.
        core: usize,
        /// Generation at arm time (staleness check).
        gen: u64,
    },
}

impl EventCtx for World {
    type Event = WorldEvent;

    fn run_event(&mut self, eng: &mut Engine<World>, ev: WorldEvent) {
        let now = eng.now();
        match ev {
            WorldEvent::FabricTx { src, dst, packet } => {
                let size = packet.wire_size();
                let draw = self.drop_rng.f64();
                hl_sim::trace!(
                    self.tracer,
                    now,
                    "fabric",
                    "{src}->{dst} {size}B qp{}->qp{}",
                    packet.src_qpn,
                    packet.dst_qpn
                );
                match self.fabric.send(now, src, dst, size, draw) {
                    Delivery::At(arrive) => {
                        eng.schedule_event_at(arrive, WorldEvent::NicRx { dst, packet });
                    }
                    Delivery::Duplicated(arrive, again) => {
                        hl_sim::trace!(self.tracer, now, "fabric", "{src}->{dst} DUPLICATED");
                        eng.schedule_event_at(
                            again,
                            WorldEvent::NicRx {
                                dst,
                                packet: packet.clone(),
                            },
                        );
                        eng.schedule_event_at(arrive, WorldEvent::NicRx { dst, packet });
                    }
                    Delivery::Dropped => {
                        hl_sim::trace!(self.tracer, now, "fabric", "{src}->{dst} DROPPED");
                        self.dropped_packets += 1;
                    }
                }
            }
            WorldEvent::NicRx { dst, packet } => {
                route_nic(dst, self, eng, |nic, mem, out| {
                    nic.on_packet(now, packet, mem, out)
                });
            }
            WorldEvent::CqeDeliver { host, cq, cqe } => {
                hl_sim::trace!(
                    self.tracer,
                    now,
                    "rnic",
                    "{host} cqe cq{cq} qp{} wr{} {:?}",
                    cqe.qpn,
                    cqe.wr_id,
                    cqe.status
                );
                if cqe.status != hl_rnic::CqeStatus::Ok {
                    // Error CQEs are rare and always incident-relevant:
                    // snapshot in-flight state for the postmortem.
                    self.telemetry
                        .flight_dump(now, format!("cqe:{:?}:host{}", cqe.status, host.0));
                }
                route_nic(host, self, eng, |nic, mem, out| {
                    nic.deliver_cqe(now, cq, cqe, mem, out)
                });
            }
            WorldEvent::DoLocal { host, qpn, wqe } => {
                route_nic(host, self, eng, |nic, mem, out| {
                    nic.finish_local(now, qpn, wqe, mem, out)
                });
            }
            WorldEvent::NicTimer { host, qpn, gen } => {
                self.timer_tokens.take(host, qpn);
                route_nic(host, self, eng, |nic, mem, out| {
                    nic.on_timer(now, qpn, gen, mem, out)
                });
            }
            WorldEvent::CpuTimer { host, core, gen } => {
                route_cpu(host, self, eng, |cpu, out| {
                    cpu.on_timer_into(now, core, gen, out)
                });
            }
        }
    }
}

impl World {
    /// Host accessor.
    pub fn host(&mut self, h: HostId) -> &mut Host {
        &mut self.hosts[h.0]
    }

    /// A number no earlier call on this world returned. Group builders
    /// put it in the region names they allocate, which must be unique
    /// per host [`Layout`].
    pub fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True if the world has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Register a process on a host. It is delivered
    /// [`ProcEvent::Started`] (with `start_cost` CPU) once the engine
    /// runs.
    pub fn start_process(
        &mut self,
        host: HostId,
        name: &str,
        pinned: Option<usize>,
        proc: Box<dyn Process>,
        start_cost: SimDuration,
        eng: &mut Engine<World>,
    ) -> ProcAddr {
        let pid = self.hosts[host.0].cpu.spawn(name, pinned);
        let slots = &mut self.procs[host.0];
        while slots.len() <= pid.0 {
            slots.push(ProcSlot {
                proc: None,
                mailbox: VecDeque::new(),
            });
        }
        slots[pid.0].proc = Some(proc);
        let addr = ProcAddr { host, pid };
        eng.schedule(SimDuration::ZERO, move |w: &mut World, eng| {
            deliver(addr, ProcEvent::Started, start_cost, w, eng);
        });
        addr
    }

    /// Replace the logic of an existing process (setup-time wiring).
    pub fn replace_process(&mut self, addr: ProcAddr, proc: Box<dyn Process>) {
        self.procs[addr.host.0][addr.pid.0].proc = Some(proc);
    }

    /// Spawn a `stress-ng`-style CPU hog on a host.
    pub fn spawn_hog(&mut self, host: HostId, name: &str, eng: &mut Engine<World>) {
        let now = eng.now();
        route_cpu(host, self, eng, |cpu, out| {
            out.extend(cpu.spawn_hog(now, name).1)
        });
    }

    /// Subscribe a process to completion events of a CQ (event-driven
    /// replica). The CQ is armed; each event costs `cost` CPU.
    pub fn subscribe_cq_interrupt(
        &mut self,
        host: HostId,
        cq: u32,
        pid: ProcId,
        cost: SimDuration,
    ) {
        self.hosts[host.0].nic.arm_cq(cq);
        self.cq_subs.put(host, cq, CqSub::Interrupt { pid, cost });
    }

    /// Subscribe a process to a CQ's moderation event
    /// ([`Nic::moderate_cq`]): each event wakes it after the interrupt
    /// latency and costs `cost` CPU, like an interrupt subscription. It
    /// arms nothing, so the CQ stays unpolled and may overrun; the
    /// process re-arms with [`Ctx::moderate_cq`].
    pub fn subscribe_cq_moderation(
        &mut self,
        host: HostId,
        cq: u32,
        pid: ProcId,
        cost: SimDuration,
    ) {
        self.cq_subs.put(host, cq, CqSub::Interrupt { pid, cost });
    }

    /// Drop a CQ's subscription, if any: its events wake nobody from
    /// now on, and what the subscription held is freed. Callable from
    /// inside that CQ's own callback.
    pub fn unsubscribe_cq(&mut self, host: HostId, cq: u32) {
        if self.cq_subs.take(host, cq).is_none() {
            // Empty, or its callback is running: leave a tombstone for
            // the dispatcher.
            self.cq_subs.put(host, cq, CqSub::Dropped);
        }
    }

    /// Subscribe a zero-CPU callback to a CQ (benchmark drivers /
    /// HyperLoop clients). Drains and auto-rearms.
    pub fn subscribe_cq_callback(
        &mut self,
        host: HostId,
        cq: u32,
        f: impl FnMut(Cqe, &mut World, &mut Engine<World>) + 'static,
    ) {
        self.hosts[host.0].nic.arm_cq(cq);
        let cb: CqCallback = Box::new(f);
        self.cq_subs.put(host, cq, CqSub::Callback(cb));
    }

    /// Ring a doorbell from outside a process (drivers).
    pub fn ring_doorbell(&mut self, host: HostId, qpn: u32, eng: &mut Engine<World>) {
        let now = eng.now();
        route_nic(host, self, eng, |nic, mem, out| {
            nic.ring_doorbell(now, qpn, mem, out)
        });
    }

    /// Send a message between processes (driver-side variant of
    /// [`Ctx::send_msg`]).
    #[allow(clippy::too_many_arguments)]
    pub fn send_msg_at(
        &mut self,
        now: SimTime,
        from: HostId,
        to: ProcAddr,
        msg: Box<dyn Any>,
        wire_bytes: usize,
        recv_cost: SimDuration,
        eng: &mut Engine<World>,
    ) {
        if from == to.host && wire_bytes == 0 {
            // Same-host IPC: a microsecond of kernel round trip.
            let delay = SimDuration::from_micros(1);
            eng.schedule(delay, move |w: &mut World, eng| {
                deliver(to, ProcEvent::Message(msg), recv_cost, w, eng);
            });
            return;
        }
        let draw = self.drop_rng.f64();
        match self.fabric.send(now, from, to.host, wire_bytes, draw) {
            // Control messages are boxed `Any` and cannot be cloned, so
            // an impairment duplicate delivers only the original copy —
            // process protocols see duplication as reordering-free loss
            // of the duplicate, which is indistinguishable on the wire.
            Delivery::At(at) | Delivery::Duplicated(at, _) => {
                eng.schedule_at(at, move |w: &mut World, eng| {
                    deliver(to, ProcEvent::Message(msg), recv_cost, w, eng);
                });
            }
            Delivery::Dropped => self.dropped_packets += 1,
        }
    }

    /// Connect two QPs on different hosts (both directions).
    pub fn connect_qps(&mut self, a: HostId, qp_a: u32, b: HostId, qp_b: u32) {
        self.hosts[a.0].nic.connect(qp_a, b.0 as u32, qp_b);
        self.hosts[b.0].nic.connect(qp_b, a.0 as u32, qp_a);
    }

    /// Stall or un-stall a host's NIC (fault injection: hung adapter).
    /// Routes the kick-outputs produced when the stall clears.
    pub fn set_nic_stalled(&mut self, host: HostId, on: bool, eng: &mut Engine<World>) {
        let now = eng.now();
        hl_sim::trace!(
            self.tracer,
            now,
            "fault",
            "{host} nic {}",
            if on { "STALL" } else { "unstall" }
        );
        route_nic(host, self, eng, |nic, mem, out| {
            nic.set_stalled(now, on, mem, out)
        });
    }

    /// One line per violation recorded by the race detector across
    /// every NIC, plus any FIFO-order violations from the fabric
    /// auditor, in host order. Empty means the run was race-free.
    ///
    /// # Panics
    ///
    /// If the world was built without [`ClusterBuilder::race_detector`]:
    /// a race-freedom assertion must not pass without a check.
    pub fn race_report(&self) -> Vec<String> {
        let mut report = Vec::new();
        for (i, h) in self.hosts.iter().enumerate() {
            for v in h.nic.race_violations() {
                report.push(format!("h{i}: {v}"));
            }
        }
        for v in self.fabric.order_violations() {
            report.push(format!(
                "fabric: delivery {}->{} at {}ns regresses behind {}ns",
                v.src,
                v.dst,
                v.delivery.as_nanos(),
                v.prev_delivery.as_nanos()
            ));
        }
        report
    }

    /// Completions lost to CQ ring overruns on CQs that software polls or
    /// subscribes to, summed over every NIC ([`Nic::polled_cq_overruns`]).
    /// Overruns are legal only on the CQs no one but a WAIT watches; any
    /// other is a modelled CQ error, so every correct run keeps this 0.
    pub fn polled_cq_overruns(&self) -> u64 {
        self.hosts.iter().map(|h| h.nic.polled_cq_overruns()).sum()
    }

    /// Break or repair WAIT triggering on a host's NIC (fault injection:
    /// CORE-Direct offload malfunction; CPU-posted work still runs).
    pub fn set_nic_wait_stalled(&mut self, host: HostId, on: bool, eng: &mut Engine<World>) {
        let now = eng.now();
        hl_sim::trace!(
            self.tracer,
            now,
            "fault",
            "{host} wait-engine {}",
            if on { "STALL" } else { "unstall" }
        );
        route_nic(host, self, eng, |nic, mem, out| {
            nic.set_wait_stalled(now, on, mem, out)
        });
    }

    /// Turn on causal op tracing: the telemetry hub starts recording
    /// spans and every NIC starts stamping op-stage events (drained by
    /// the output router). Off by default so untraced runs pay nothing.
    pub fn enable_telemetry(&mut self) {
        self.telemetry.enable();
        for h in &mut self.hosts {
            h.nic.set_telemetry(true);
        }
    }

    /// Turn on causal op tracing *and* the windowed time-series layer
    /// with the given window width (see [`hl_sim::TimeSeries`]): issue
    /// paths start feeding per-window counters and latency sketches,
    /// and the flight recorder arms for error-CQE and chaos-fault
    /// dumps.
    pub fn enable_timeseries(&mut self, window: SimDuration) {
        self.enable_telemetry();
        self.telemetry.series.enable(window);
    }

    /// Per-hop latency attribution over every completed op span,
    /// grouped by primitive (the Fig. 2 / Fig. 9 decomposition).
    pub fn attribution(&self) -> Attribution {
        self.telemetry.attribution()
    }

    /// Snapshot cluster-wide state into the labelled metrics registry:
    /// NIC counters and ring occupancy, fabric traffic and drops, CPU
    /// scheduling delay and hog occupancy. Counters are absolute
    /// (monotonic since boot), so re-collecting overwrites rather than
    /// double-counts.
    pub fn collect_metrics(&mut self, now: SimTime) {
        for (i, h) in self.hosts.iter().enumerate() {
            let host = format!("host={i}");
            let c = h.nic.counters().clone();
            let m = &mut self.telemetry.metrics;
            m.counter_set("nic_doorbells", &host, c.doorbells);
            m.counter_set("nic_wqes_executed", &host, c.wqes_executed);
            m.counter_set("nic_wait_parks", &host, c.wait_parks);
            m.counter_set("nic_wait_fires", &host, c.wait_fires);
            m.counter_set("nic_tx_packets", &host, c.tx_packets);
            m.counter_set("nic_rx_packets", &host, c.rx_packets);
            m.counter_set("nic_rx_dropped", &host, c.rx_dropped);
            m.counter_set("nic_retransmits", &host, c.retransmits);
            m.counter_set("nic_timeouts", &host, c.timeouts);
            m.counter_set("nic_error_cqes", &host, c.error_cqes);
            m.counter_set("nic_cq_overruns", &host, c.cq_overruns);
            m.counter_set("fabric_bytes_tx", &host, self.fabric.bytes_tx(HostId(i)));
            m.counter_set("fabric_msgs_tx", &host, self.fabric.msgs_tx(HostId(i)));
            for qpn in 0..h.nic.num_qps() as u32 {
                let (head, tail, cap) = h.nic.sq_state(qpn);
                if cap == 0 {
                    continue;
                }
                let occ = (tail - head) as f64 / cap as f64;
                m.gauge_set("sq_occupancy", &format!("host={i},qp={qpn}"), occ);
            }
            let sl = h.cpu.sched_latency();
            if !sl.is_empty() {
                m.histogram_set("cpu_sched_latency_ns", &host, sl.clone());
            }
            m.counter_set("cpu_ctx_switches", &host, h.cpu.ctx_switches());
            m.counter_set("cpu_hog_busy_ns", &host, h.cpu.busy_ns_by_prefix("stress-"));
            m.gauge_set("cpu_utilization", &host, h.cpu.host_utilization(now));
        }
        self.telemetry
            .metrics
            .counter_set("fabric_drops", "", self.fabric.drops());
        self.telemetry
            .metrics
            .counter_set("fabric_injected_drops", "", self.dropped_packets);
    }
}

/// Builder for a [`World`].
pub struct ClusterBuilder {
    hosts: usize,
    arena: usize,
    profile: HwProfile,
    seed: u64,
    race_detector: bool,
}

impl ClusterBuilder {
    /// A cluster of `hosts` hosts.
    pub fn new(hosts: usize) -> Self {
        ClusterBuilder {
            hosts,
            arena: 8 << 20,
            profile: HwProfile::default(),
            seed: 42,
            race_detector: false,
        }
    }

    /// NVM arena bytes per host (default 8 MiB).
    pub fn arena_size(mut self, bytes: usize) -> Self {
        self.arena = bytes;
        self
    }

    /// Hardware profile.
    pub fn profile(mut self, p: HwProfile) -> Self {
        self.profile = p;
        self
    }

    /// Experiment seed (all randomness derives from it).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Run the WQE-ownership & DMA race detector on every NIC and the
    /// FIFO delivery auditor on the fabric, from before the first QP
    /// exists; read them with [`World::race_report`]. Pure observation:
    /// the simulated timeline is the same with it on, only slower to
    /// compute.
    pub fn race_detector(mut self) -> Self {
        self.race_detector = true;
        self
    }

    /// Build the world and its engine.
    pub fn build(self) -> (World, Engine<World>) {
        let rng = RngFactory::new(self.seed);
        let mut hosts: Vec<Host> = (0..self.hosts)
            .map(|i| {
                let mut cpu = HostCpu::new(self.profile.cpu.clone());
                cpu.set_rng(rng.stream_idx("cpu", i as u64));
                Host {
                    nic: Nic::new(
                        i as u32,
                        self.profile.nic.clone(),
                        rng.stream_idx("nic", i as u64),
                    ),
                    mem: NvmArena::new(self.arena),
                    cpu,
                    layout: Layout::new(self.arena as u64),
                }
            })
            .collect();
        let mut fabric = Fabric::new(self.hosts, self.profile.net.clone());
        // Dedicated stream for the gray-failure impairment knobs so
        // turning impairments on never perturbs other random streams.
        fabric.set_impairment_rng(rng.stream("fabric-impair"));
        if self.race_detector {
            fabric.enable_fifo_audit();
            for h in &mut hosts {
                h.nic.enable_race_detector();
            }
        }
        let world = World {
            hosts,
            fabric,
            tracer: Tracer::default(),
            drop_rng: rng.stream("fabric-drops"),
            rng,
            profile: self.profile,
            procs: (0..self.hosts).map(|_| Vec::new()).collect(),
            cq_subs: HostTable::new(self.hosts),
            dropped_packets: 0,
            telemetry: Telemetry::default(),
            timer_tokens: HostTable::new(self.hosts),
            nic_out_spare: Vec::new(),
            cpu_out_spare: Vec::new(),
            nic_event_scratch: Vec::new(),
            cqe_scratch: Vec::new(),
            next_id: 0,
        };
        (world, Engine::new())
    }
}

// ----- event routing -------------------------------------------------------

/// Queue `ev` for a process and charge `cost` CPU for its delivery.
pub fn deliver(
    to: ProcAddr,
    ev: ProcEvent,
    cost: SimDuration,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    w.procs[to.host.0][to.pid.0].mailbox.push_back(ev);
    let now = eng.now();
    route_cpu(to.host, w, eng, |cpu, out| {
        cpu.submit_into(now, to.pid, cost.as_nanos(), DISPATCH_TAG, out)
    });
}

/// Run one CPU-model entry point on `host` and turn what it pushed into
/// events and handler runs, in push order. Like [`route_nic`], the sink
/// comes off a stack of spares owned by the world and goes back on it
/// empty, so a process event allocates no output buffer.
pub fn route_cpu(
    host: HostId,
    w: &mut World,
    eng: &mut Engine<World>,
    entry: impl FnOnce(&mut HostCpu, &mut Vec<CpuOutput>),
) {
    let mut outs = w.cpu_out_spare.pop().unwrap_or_default();
    entry(&mut w.hosts[host.0].cpu, &mut outs);
    for o in outs.drain(..) {
        match o {
            CpuOutput::Timer { core, gen, at } => {
                eng.schedule_event_at(at, WorldEvent::CpuTimer { host, core, gen });
            }
            CpuOutput::WorkDone { pid, tag } => {
                let addr = ProcAddr { host, pid };
                if tag == DISPATCH_TAG {
                    let Some(ev) = w.procs[host.0][pid.0].mailbox.pop_front() else {
                        continue;
                    };
                    run_handler(addr, ev, w, eng);
                } else {
                    run_handler(addr, ProcEvent::WorkDone { tag }, w, eng);
                }
            }
        }
    }
    w.cpu_out_spare.push(outs);
}

fn run_handler(addr: ProcAddr, ev: ProcEvent, w: &mut World, eng: &mut Engine<World>) {
    // Slot dance: take the process out so the handler can borrow the
    // world mutably.
    let Some(mut proc) = w.procs[addr.host.0][addr.pid.0].proc.take() else {
        return; // process was stopped
    };
    {
        let mut ctx = Ctx {
            world: w,
            eng,
            me: addr,
        };
        proc.on_event(ev, &mut ctx);
    }
    // Put it back unless the handler replaced/stopped itself.
    let slot = &mut w.procs[addr.host.0][addr.pid.0];
    if slot.proc.is_none() {
        slot.proc = Some(proc);
    }
}

/// Forward a NIC's buffered telemetry events to the world's hub.
///
/// Runs after every NIC entry-point call on the datapath, so it moves
/// events through a reused scratch buffer — zero allocations in steady
/// state.
fn drain_nic_telemetry(host: HostId, w: &mut World) {
    if !w.hosts[host.0].nic.has_events() {
        return;
    }
    let mut scratch = std::mem::take(&mut w.nic_event_scratch);
    w.hosts[host.0].nic.take_events_into(&mut scratch);
    for e in scratch.drain(..) {
        let (stage, detail) = match e.kind {
            NicEventKind::Fetch { qpn } => (Stage::NicFetch, qpn),
            NicEventKind::WaitPark { cq } => (Stage::WaitPark, cq),
            NicEventKind::WaitFire { cq } => (Stage::WaitFire, cq),
            NicEventKind::TxWire { dst } => (Stage::TxWire, dst),
            NicEventKind::RxWire { src } => (Stage::RxWire, src),
            NicEventKind::DmaDone { qpn } => (Stage::DmaDone, qpn),
            NicEventKind::CqeDeliver { cq } => (Stage::CqeDeliver, cq),
        };
        w.telemetry.stage(e.at, e.op, stage, host.0, detail);
    }
    w.nic_event_scratch = scratch;
}

/// Run one NIC entry point on `host` and turn what it pushed into
/// events, in push order (the engine breaks same-instant ties by
/// scheduling order, so push order is simulated behaviour).
///
/// `entry` gets the host's NIC and arena plus an empty sink owned by the
/// world: the datapath allocates no output buffer per call. Draining can
/// re-enter `route_nic` (an output runs a CQ callback that rings a
/// doorbell), so the sink comes off a stack of spares and goes back on
/// it, empty, when this level is done.
pub fn route_nic(
    host: HostId,
    w: &mut World,
    eng: &mut Engine<World>,
    entry: impl FnOnce(&mut Nic, &mut NvmArena, &mut Vec<NicOutput>),
) {
    let mut outs = w.nic_out_spare.pop().unwrap_or_default();
    let h = &mut w.hosts[host.0];
    entry(&mut h.nic, &mut h.mem, &mut outs);
    drain_nic_telemetry(host, w);
    for o in outs.drain(..) {
        match o {
            NicOutput::Transmit {
                at,
                dst_nic,
                packet,
            } => {
                let dst = HostId(dst_nic as usize);
                eng.schedule_event_at(
                    at,
                    WorldEvent::FabricTx {
                        src: host,
                        dst,
                        packet,
                    },
                );
            }
            NicOutput::Complete { at, cq, cqe } => {
                eng.schedule_event_at(at, WorldEvent::CqeDeliver { host, cq, cqe });
            }
            NicOutput::DoLocal { at, qpn, wqe } => {
                eng.schedule_event_at(at, WorldEvent::DoLocal { host, qpn, wqe });
            }
            NicOutput::CqEvent { cq } => {
                dispatch_cq_event(host, cq, w, eng);
            }
            NicOutput::ArmTimer { at, qpn, gen } => {
                // A new arm supersedes any timer still queued for this
                // QP: cancel it instead of letting it fire as a
                // stale-generation no-op.
                let tok = eng.schedule_event_at(at, WorldEvent::NicTimer { host, qpn, gen });
                if let Some(old) = w.timer_tokens.put(host, qpn, tok) {
                    eng.cancel(old);
                }
            }
            NicOutput::CancelTimer { qpn } => {
                if let Some(tok) = w.timer_tokens.take(host, qpn) {
                    eng.cancel(tok);
                }
            }
        }
    }
    w.nic_out_spare.push(outs);
}

fn dispatch_cq_event(host: HostId, cq: u32, w: &mut World, eng: &mut Engine<World>) {
    // Taken out for the call and put back after it, so a callback that
    // re-subscribes its own CQ is overwritten by its old subscription,
    // and one that unsubscribes it leaves a tombstone that keeps it out.
    let Some(sub) = w.cq_subs.take(host, cq) else {
        return;
    };
    match sub {
        CqSub::Interrupt { pid, cost } => {
            // Interrupt delivery latency, then wake the process.
            let delay = w.profile.cpu.interrupt;
            let addr = ProcAddr { host, pid };
            eng.schedule(delay, move |w: &mut World, eng| {
                deliver(addr, ProcEvent::CqEvent { cq }, cost, w, eng);
            });
            w.cq_subs.put(host, cq, CqSub::Interrupt { pid, cost });
            // The process must re-arm after draining (as with
            // ibv_req_notify_cq); see Ctx::arm_cq.
        }
        CqSub::Callback(mut f) => {
            // Zero-CPU driver: drain now, re-arm. Completions go through
            // the world's reusable scratch so the steady-state drain
            // performs no allocations.
            let mut cqes = std::mem::take(&mut w.cqe_scratch);
            loop {
                cqes.clear();
                w.hosts[host.0].nic.poll_cq_into(cq, 64, &mut cqes);
                if cqes.is_empty() {
                    break;
                }
                for &c in &cqes {
                    f(c, w, eng);
                }
            }
            cqes.clear();
            w.cqe_scratch = cqes;
            w.hosts[host.0].nic.arm_cq(cq);
            if !matches!(w.cq_subs.take(host, cq), Some(CqSub::Dropped)) {
                w.cq_subs.put(host, cq, CqSub::Callback(f));
            }
        }
        CqSub::Dropped => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_rnic::{Access, Opcode};

    #[test]
    fn builder_creates_hosts() {
        let (w, _eng) = ClusterBuilder::new(3).arena_size(1 << 16).build();
        assert_eq!(w.len(), 3);
        assert_eq!(w.hosts[0].mem.len(), 1 << 16);
    }

    /// Two processes on different hosts ping-pong; CPU costs and wire
    /// latency both apply.
    struct Pinger {
        peer: Option<ProcAddr>,
        remaining: u32,
        initiator: bool,
        log: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, u32)>>>,
    }

    impl Process for Pinger {
        fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
            match ev {
                ProcEvent::Started if self.initiator => {
                    if let Some(peer) = self.peer {
                        ctx.send_msg(peer, Box::new(1u32), 64, SimDuration::from_micros(2));
                    }
                }
                ProcEvent::Message(m) => {
                    let n = *m.downcast::<u32>().unwrap();
                    self.log.borrow_mut().push((ctx.now(), n));
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        if let Some(peer) = self.peer {
                            ctx.send_msg(peer, Box::new(n + 1), 64, SimDuration::from_micros(2));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn processes_exchange_messages_with_cpu_costs() {
        let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(1 << 16).build();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let b = w.start_process(
            HostId(1),
            "ponger",
            None,
            Box::new(Pinger {
                peer: None,
                remaining: 0,
                initiator: false,
                log: log.clone(),
            }),
            SimDuration::from_micros(1),
            &mut eng,
        );
        let a = w.start_process(
            HostId(0),
            "pinger",
            None,
            Box::new(Pinger {
                peer: Some(b),
                remaining: 3,
                initiator: true,
                log: log.clone(),
            }),
            SimDuration::from_micros(1),
            &mut eng,
        );
        // Wire the echo side now that `a` exists.
        w.replace_process(
            b,
            Box::new(Pinger {
                peer: Some(a),
                remaining: 100,
                initiator: false,
                log: log.clone(),
            }),
        );
        eng.run(&mut w);
        let log = log.borrow();
        // a sent 1; b logs 1, replies 2; a logs 2, replies 3; ... a's
        // remaining=3 limits the exchange.
        let values: Vec<u32> = log.iter().map(|e| e.1).collect();
        assert!(values.len() >= 6, "got {values:?}");
        assert_eq!(&values[..4], &[1, 2, 3, 4]);
        // Each hop includes wire + dispatch cost; time advanced well
        // beyond the pure wire latency.
        assert!(log.last().unwrap().0.as_nanos() > 20_000);
    }

    #[test]
    fn cq_callback_fires_for_driver() {
        let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(1 << 18).build();
        let scq0 = w.hosts[0].nic.create_cq();
        let rcq0 = w.hosts[0].nic.create_cq();
        let scq1 = w.hosts[1].nic.create_cq();
        let rcq1 = w.hosts[1].nic.create_cq();
        let qp0 = w.hosts[0].nic.create_qp(scq0, rcq0, 0x1000, 16);
        let qp1 = w.hosts[1].nic.create_qp(scq1, rcq1, 0x1000, 16);
        w.connect_qps(HostId(0), qp0, HostId(1), qp1);
        let mr = w.hosts[1]
            .nic
            .register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);
        w.hosts[0].mem.write(0x8000, b"callback").unwrap();

        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        w.subscribe_cq_callback(HostId(0), scq0, move |cqe, _w, eng| {
            seen2.borrow_mut().push((eng.now(), cqe.wr_id));
        });

        let wqe = Wqe {
            opcode: Opcode::Write,
            flags: hl_rnic::flags::SIGNALED,
            len: 8,
            laddr: 0x8000,
            raddr: 0x8000,
            rkey: mr.rkey,
            wr_id: 31,
            ..Default::default()
        };
        w.hosts[0].post_send(qp0, wqe, false).unwrap();
        w.ring_doorbell(HostId(0), qp0, &mut eng);
        eng.run(&mut w);

        assert_eq!(w.hosts[1].mem.read(0x8000, 8).unwrap(), b"callback");
        assert_eq!(seen.borrow().len(), 1);
        assert_eq!(seen.borrow()[0].1, 31);
    }

    #[test]
    fn same_seed_same_trajectory() {
        fn run(seed: u64) -> (u64, SimTime) {
            let (mut w, mut eng) = ClusterBuilder::new(2)
                .arena_size(1 << 16)
                .seed(seed)
                .build();
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let b = w.start_process(
                HostId(1),
                "b",
                None,
                Box::new(Pinger {
                    peer: None,
                    remaining: 0,
                    initiator: false,
                    log: log.clone(),
                }),
                SimDuration::from_micros(1),
                &mut eng,
            );
            let a = w.start_process(
                HostId(0),
                "a",
                None,
                Box::new(Pinger {
                    peer: Some(b),
                    remaining: 5,
                    initiator: true,
                    log: log.clone(),
                }),
                SimDuration::from_micros(1),
                &mut eng,
            );
            w.replace_process(
                b,
                Box::new(Pinger {
                    peer: Some(a),
                    remaining: 100,
                    initiator: false,
                    log: log.clone(),
                }),
            );
            eng.run(&mut w);
            (eng.events_executed(), eng.now())
        }
        let (e1, t1) = run(7);
        let (e2, t2) = run(7);
        assert_eq!(e1, e2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn hog_spawning_works_via_world() {
        let (mut w, mut eng) = ClusterBuilder::new(1).arena_size(1 << 16).build();
        w.spawn_hog(HostId(0), "stress", &mut eng);
        eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
        let now = eng.now();
        // The hog consumed a meaningful share of the host.
        assert!(w.hosts[0].cpu.host_utilization(now) > 0.05);
    }
}
