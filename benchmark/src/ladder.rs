//! The ladder: each layer's public entry points timed in isolation,
//! bottom-up, so that adjacent differences give each crate's host cost
//! per operation. Every step runs five times, the repetitions
//! interleaved across steps so a slow moment hits all alike, and
//! reports the median.

use crate::json::{obj, Json};
use crate::pump::{Issuer, Pump, PumpCfg};
use crate::round::{build_chain, chain_cfg, CHAIN_REPLICAS, CLIENT};
use crate::stats::median;
use hl_cluster::shard::HashRing;
use hl_cluster::{ClusterBuilder, World};
use hl_cpu::{CpuOutput, HostCpu, ProcId};
use hl_fabric::{Fabric, HostId};
use hl_nvm::NvmArena;
use hl_rnic::{flags, Access, Opcode, Wqe};
use hl_sim::config::HwProfile;
use hl_sim::{Engine, EventCtx, EventToken, RngFactory, SimDuration, SimTime};
use hl_store::doc::{DocLayout, DocStore};
use hl_ycsb::{ycsb_document, OpGenerator};
use hyperloop::{DeadlinePolicy, GroupConfig, HyperLoopClient, RetryClient, ShardRouter};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

const REPS: usize = 5;

/// Host ns per call of `f` over `n` calls.
fn per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// `hl-sim`: the datapath's event pattern with empty handlers. Every
/// event schedules its successor, arms a far timer and cancels the one
/// armed before it, as a reliable QP does per packet.
struct Bare {
    left: u64,
    timer: Option<EventToken>,
}

impl EventCtx for Bare {
    type Event = u32;
    fn run_event(&mut self, eng: &mut Engine<Self>, lane: u32) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        eng.schedule_event(SimDuration::from_nanos(450 + lane as u64), lane);
        let armed = eng.schedule_event(SimDuration::from_millis(3), u32::MAX);
        if let Some(old) = self.timer.replace(armed) {
            eng.cancel(old);
        }
    }
}

fn engine_ns_per_event() -> f64 {
    const EVENTS: u64 = 400_000;
    let mut ctx = Bare {
        left: EVENTS,
        timer: None,
    };
    let mut eng: Engine<Bare> = Engine::new();
    for lane in 0..64 {
        eng.schedule_event(SimDuration::from_nanos(lane), lane as u32);
    }
    let t = Instant::now();
    eng.run(&mut ctx);
    t.elapsed().as_nanos() as f64 / eng.events_executed() as f64
}

fn nvm_ns() -> (f64, f64) {
    const N: usize = 100_000;
    let mut mem = NvmArena::new(1 << 20);
    let data = [0xa5u8; 1024];
    let write = per_call(N, |i| {
        mem.write(((i % 512) * 1024) as u64, black_box(&data))
            .unwrap();
    });
    // Dirty each line again before its flush is timed.
    let flush = per_call(N, |i| {
        let addr = ((i % 512) * 1024) as u64;
        mem.write(addr, &data).unwrap();
        black_box(mem.flush(addr, 1024).unwrap());
    }) - write;
    (write, flush.max(0.0))
}

fn fabric_send_ns() -> f64 {
    let mut fabric = Fabric::new(2, HwProfile::default().net);
    per_call(500_000, |i| {
        let now = SimTime::from_nanos(i as u64 * 200);
        black_box(fabric.send(now, HostId(0), HostId(1), 1088, 1.0));
    })
}

/// `hl-cpu`: 32 processes that always have 20 us of work queued, on the
/// default 16 cores; ns per `submit`/`on_timer` call.
fn sched_event_ns() -> f64 {
    const CALLS: usize = 200_000;
    let mut cpu = HostCpu::new(HwProfile::default().cpu);
    cpu.set_rng(RngFactory::new(1).stream("ladder-cpu"));
    let mut timers: BinaryHeap<Reverse<(SimTime, usize, u64)>> = BinaryHeap::new();
    let mut calls = 0usize;
    let mut now = SimTime::ZERO;
    let absorb = |outs: Vec<CpuOutput>, timers: &mut BinaryHeap<_>, ready: &mut Vec<ProcId>| {
        for o in outs {
            match o {
                CpuOutput::Timer { core, gen, at } => timers.push(Reverse((at, core, gen))),
                CpuOutput::WorkDone { pid, .. } => ready.push(pid),
            }
        }
    };
    let mut ready: Vec<ProcId> = (0..32).map(|i| cpu.spawn(&format!("p{i}"), None)).collect();
    let t = Instant::now();
    while calls < CALLS {
        while let Some(pid) = ready.pop() {
            let outs = cpu.submit(now, pid, 20_000, 1);
            calls += 1;
            absorb(outs, &mut timers, &mut ready);
        }
        let Reverse((at, core, gen)) = timers.pop().expect("a busy CPU always has a timer armed");
        now = at;
        let outs = cpu.on_timer(now, core, gen);
        calls += 1;
        absorb(outs, &mut timers, &mut ready);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// `hl-rnic` through `World`: signalled 1 KiB RC WRITEs between two
/// hosts, 16 outstanding; host ns per completed WRITE.
fn verb_write_ns() -> f64 {
    const OPS: u64 = 20_000;
    let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(1 << 20).build();
    let (scq0, rcq0) = (w.hosts[0].nic.create_cq(), w.hosts[0].nic.create_cq());
    let (scq1, rcq1) = (w.hosts[1].nic.create_cq(), w.hosts[1].nic.create_cq());
    let qp0 = w.hosts[0].nic.create_qp(scq0, rcq0, 0x1000, 64);
    let qp1 = w.hosts[1].nic.create_qp(scq1, rcq1, 0x1000, 64);
    w.connect_qps(HostId(0), qp0, HostId(1), qp1);
    let mr = w.hosts[1]
        .nic
        .register_mr(0x40000, 0x20000, Access::REMOTE_WRITE);
    let issued = Rc::new(Cell::new(0u64));
    let post = move |w: &mut World, eng: &mut Engine<World>, issued: &Cell<u64>| {
        let k = issued.get();
        issued.set(k + 1);
        let wqe = Wqe {
            opcode: Opcode::Write,
            flags: flags::SIGNALED,
            len: 1024,
            laddr: 0x8000,
            raddr: 0x40000 + (k % 64) * 1024,
            rkey: mr.rkey,
            wr_id: k,
            ..Default::default()
        };
        w.hosts[0].post_send(qp0, wqe, false).expect("SQ holds 64");
        w.ring_doorbell(HostId(0), qp0, eng);
    };
    let again = issued.clone();
    w.subscribe_cq_callback(HostId(0), scq0, move |_cqe, w, eng| {
        if again.get() < OPS {
            post(w, eng, &again);
        }
    });
    let t = Instant::now();
    for _ in 0..16 {
        post(&mut w, &mut eng, &issued);
    }
    eng.run(&mut w);
    assert_eq!(issued.get(), OPS);
    t.elapsed().as_nanos() as f64 / OPS as f64
}

/// Which wrapper around the chain client a ladder step drives.
#[derive(Clone, Copy)]
enum Layer {
    Hyper,
    Retry,
    Router,
}

/// 1 KiB gWRITEs on a three-member chain, 16 outstanding, through the
/// given layer; host ns per write after a short warm-up.
fn chain_write_ns(layer: Layer) -> f64 {
    const OPS: usize = 9_000;
    const WARMUP: usize = 1_000;
    let (mut w, mut eng) = ClusterBuilder::new(3).build();
    let (_, client) = build_chain(
        chain_cfg(1024, CLIENT, CHAIN_REPLICAS.to_vec()),
        &mut w,
        &mut eng,
        &mut Default::default(),
    );
    let retry = |c: HyperLoopClient| RetryClient::with_policy(c, DeadlinePolicy::default());
    let issuer = match layer {
        Layer::Hyper => Issuer::Hyper(client),
        Layer::Retry => Issuer::Retry(retry(client)),
        Layer::Router => Issuer::Router(ShardRouter::new(vec![retry(client)])),
    };
    let pump = Pump::new(
        issuer,
        PumpCfg {
            size: 1024,
            flush: false,
            budget: OPS,
            warmup: WARMUP,
            tail: 0,
            traced: false,
        },
        RngFactory::new(1).stream("ladder-writes"),
    );
    eng.run_until(&mut w, SimTime::from_nanos(1_000_000));
    pump.start(16, &mut w, &mut eng);
    pump.run_until_settled(WARMUP, &mut w, &mut eng);
    let t = Instant::now();
    pump.run_until_settled(OPS, &mut w, &mut eng);
    t.elapsed().as_nanos() as f64 / (OPS - WARMUP) as f64
}

/// `hl-store`: upserts of 1 KB documents into a document store on a
/// four-member chain, one at a time; host ns per upsert.
fn upsert_ns() -> f64 {
    const OPS: u64 = 1_500;
    let (mut w, mut eng) = ClusterBuilder::new(4).arena_size(16 << 20).build();
    let (_, client) = build_chain(
        GroupConfig {
            ring_slots: 64,
            rep_bytes: 4 << 20,
            ..chain_cfg(1024, CLIENT, vec![HostId(1), HostId(2), HostId(3)])
        },
        &mut w,
        &mut eng,
        &mut Default::default(),
    );
    let store = DocStore::open(Rc::new(client), DocLayout::default(), 1, true);
    let done = Rc::new(Cell::new(0u64));
    fn next(
        store: &DocStore<HyperLoopClient>,
        done: &Rc<Cell<u64>>,
        w: &mut World,
        eng: &mut Engine<World>,
    ) {
        let k = done.get();
        if k == OPS {
            return;
        }
        let (s2, d2) = (store.clone(), done.clone());
        store
            .upsert(
                w,
                eng,
                &ycsb_document(k % 256, 100),
                Box::new(move |w, eng, _| {
                    d2.set(d2.get() + 1);
                    next(&s2, &d2, w, eng);
                }),
            )
            .expect("one upsert at a time never exhausts the rings");
    }
    eng.run_until(&mut w, SimTime::from_nanos(1_000_000));
    let t = Instant::now();
    next(&store, &done, &mut w, &mut eng);
    let seen = done.clone();
    eng.run_while(&mut w, move |_| seen.get() < OPS);
    assert_eq!(done.get(), OPS);
    t.elapsed().as_nanos() as f64 / OPS as f64
}

fn next_op_ns() -> f64 {
    let mut gen = OpGenerator::new(hl_ycsb::Workload::A, 1024);
    let mut rng = RngFactory::new(1).stream("ladder-ycsb");
    per_call(500_000, |_| {
        black_box(gen.next_op(&mut rng));
    })
}

fn shard_of_ns() -> f64 {
    let ring = HashRing::new(8);
    per_call(500_000, |i| {
        black_box(ring.shard_of_u64(black_box(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    })
}

/// Run every step and return `{metric name: median host time}`; the
/// `hyperloop.*_ns` entries are the increments between adjacent steps.
/// `quick` runs each step once (smoke tests).
pub fn run(quick: bool) -> Json {
    let mut samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut record = |name: &'static str, v: f64| match samples.iter_mut().find(|(n, _)| *n == name)
    {
        Some((_, vs)) => vs.push(v),
        None => samples.push((name, vec![v])),
    };
    for _ in 0..if quick { 1 } else { REPS } {
        record("hl-sim.engine_ns_per_event", engine_ns_per_event());
        let (write, flush) = nvm_ns();
        record("hl-nvm.write_1k_ns", write);
        record("hl-nvm.flush_1k_ns", flush);
        record("hl-fabric.send_ns", fabric_send_ns());
        record("hl-cpu.sched_event_ns", sched_event_ns());
        let verbs = verb_write_ns();
        let hyper = chain_write_ns(Layer::Hyper);
        let retry = chain_write_ns(Layer::Retry);
        let router = chain_write_ns(Layer::Router);
        record("hl-rnic.verb_write_ns", verbs);
        record("hyperloop.group_ns", hyper - verbs);
        record("hyperloop.retry_ns", retry - hyper);
        record("hyperloop.router_ns", router - retry);
        record("hl-store.upsert_ns", upsert_ns());
        record("hl-ycsb.next_op_ns", next_op_ns());
        record("hl-cluster.shard_of_ns", shard_of_ns());
    }
    obj(samples
        .into_iter()
        .map(|(name, vs)| (name, Json::from(median(&vs)))))
}
