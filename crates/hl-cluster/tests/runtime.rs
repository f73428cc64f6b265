//! Process-runtime tests: timers, work items, interrupts, messaging.

use hl_cluster::{ClusterBuilder, Ctx, ProcEvent, Process, World};
use hl_fabric::HostId;
use hl_rnic::{Access, Opcode, RecvWqe, Wqe};
use hl_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

type Log = Rc<RefCell<Vec<(SimTime, String)>>>;

struct Scripted {
    log: Log,
}

impl Process for Scripted {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        match ev {
            ProcEvent::Started => {
                self.log.borrow_mut().push((ctx.now(), "start".into()));
                ctx.set_timer(SimDuration::from_micros(50), 1, SimDuration::from_micros(1));
                ctx.set_timer(SimDuration::from_micros(20), 2, SimDuration::from_micros(1));
                ctx.submit_work(SimDuration::from_micros(5), 3);
            }
            ProcEvent::Timer { tag } => {
                self.log
                    .borrow_mut()
                    .push((ctx.now(), format!("timer{tag}")));
            }
            ProcEvent::WorkDone { tag } => {
                self.log
                    .borrow_mut()
                    .push((ctx.now(), format!("work{tag}")));
            }
            _ => {}
        }
    }
}

#[test]
fn timers_and_work_fire_in_time_order() {
    let (mut w, mut eng) = ClusterBuilder::new(1).arena_size(1 << 16).build();
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    w.start_process(
        HostId(0),
        "scripted",
        None,
        Box::new(Scripted { log: log.clone() }),
        SimDuration::from_micros(1),
        &mut eng,
    );
    eng.run(&mut w);
    let names: Vec<String> = log.borrow().iter().map(|e| e.1.clone()).collect();
    assert_eq!(names, vec!["start", "work3", "timer2", "timer1"]);
    // Times are monotonic and reflect the CPU costs.
    let times: Vec<u64> = log.borrow().iter().map(|e| e.0.as_nanos()).collect();
    assert!(times.windows(2).all(|t| t[0] <= t[1]));
    assert!(times[1] >= 5_000, "work charged 5us");
}

/// Event-driven I/O: a process subscribed to CQ interrupts is woken,
/// drains, re-arms, and gets woken again for the next completion.
struct EventIo {
    cq: u32,
    seen: Rc<RefCell<Vec<u64>>>,
}

impl Process for EventIo {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        if let ProcEvent::CqEvent { .. } = ev {
            for cqe in ctx.poll_cq(self.cq, 16) {
                self.seen.borrow_mut().push(cqe.wr_id);
            }
            ctx.arm_cq(self.cq);
        }
    }
}

#[test]
fn cq_interrupts_wake_process_repeatedly() {
    let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(1 << 18).build();
    // Wire a QP pair: host 0 sends, host 1 receives with interrupts.
    let scq0 = w.hosts[0].nic.create_cq();
    let rcq0 = w.hosts[0].nic.create_cq();
    let scq1 = w.hosts[1].nic.create_cq();
    let rcq1 = w.hosts[1].nic.create_cq();
    let qp0 = w.hosts[0].nic.create_qp(scq0, rcq0, 0x1000, 16);
    let qp1 = w.hosts[1].nic.create_qp(scq1, rcq1, 0x1000, 16);
    w.connect_qps(HostId(0), qp0, HostId(1), qp1);
    let _mr = w.hosts[1]
        .nic
        .register_mr(0x8000, 0x1000, Access::REMOTE_WRITE);

    let seen = Rc::new(RefCell::new(Vec::new()));
    let addr = w.start_process(
        HostId(1),
        "event-io",
        None,
        Box::new(EventIo {
            cq: rcq1,
            seen: seen.clone(),
        }),
        SimDuration::from_micros(1),
        &mut eng,
    );
    w.subscribe_cq_interrupt(HostId(1), rcq1, addr.pid, SimDuration::from_micros(2));

    // Three SENDs, spaced out so each needs a fresh interrupt.
    for i in 0..3u64 {
        w.hosts[1].post_recv(qp1, RecvWqe::empty(100 + i));
    }
    for i in 0..3u64 {
        eng.schedule(
            SimDuration::from_micros(i * 200),
            move |w: &mut World, eng| {
                let wqe = Wqe {
                    opcode: Opcode::Send,
                    len: 4,
                    laddr: 0x2000,
                    wr_id: i,
                    ..Default::default()
                };
                w.hosts[0].post_send(qp0, wqe, false).unwrap();
                w.ring_doorbell(HostId(0), qp0, eng);
            },
        );
    }
    eng.run(&mut w);
    assert_eq!(*seen.borrow(), vec![100, 101, 102]);
}

/// Messages across hosts pay wire time; bigger messages arrive later.
struct Recorder {
    log: Log,
}
impl Process for Recorder {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        if let ProcEvent::Message(m) = ev {
            let tag = m.downcast::<&'static str>().map(|b| *b).unwrap_or("?");
            self.log.borrow_mut().push((ctx.now(), tag.to_string()));
        }
    }
}

#[test]
fn message_wire_size_affects_arrival() {
    let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(1 << 16).build();
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let dst = w.start_process(
        HostId(1),
        "recorder",
        None,
        Box::new(Recorder { log: log.clone() }),
        SimDuration::from_micros(1),
        &mut eng,
    );
    // A 1 MB message sent first still arrives after a tiny one sent
    // second? No — egress is FIFO per host, so the big one serializes
    // first and delays the small one; both arrive in send order.
    w.send_msg_at(
        SimTime::ZERO,
        HostId(0),
        dst,
        Box::new("big"),
        1 << 20,
        SimDuration::from_micros(1),
        &mut eng,
    );
    w.send_msg_at(
        SimTime::ZERO,
        HostId(0),
        dst,
        Box::new("small"),
        64,
        SimDuration::from_micros(1),
        &mut eng,
    );
    eng.run(&mut w);
    let names: Vec<String> = log.borrow().iter().map(|e| e.1.clone()).collect();
    assert_eq!(names, vec!["big", "small"], "per-pair FIFO");
    // 1 MiB at 56 Gbps ≈ 150 us of serialization before the first one.
    assert!(log.borrow()[0].0.as_nanos() > 140_000);
}

/// submit_work keeps a process busy: a second event queues behind the
/// long work item and is handled afterwards (run-to-completion actor).
struct Busy {
    log: Log,
}
impl Process for Busy {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        match ev {
            ProcEvent::Started => {
                ctx.submit_work(SimDuration::from_millis(3), 7);
            }
            ProcEvent::WorkDone { tag } => {
                self.log
                    .borrow_mut()
                    .push((ctx.now(), format!("done{tag}")));
            }
            ProcEvent::Message(_) => {
                self.log.borrow_mut().push((ctx.now(), "msg".into()));
            }
            _ => {}
        }
    }
}

#[test]
fn long_work_delays_message_handling() {
    let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(1 << 16).build();
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let addr = w.start_process(
        HostId(0),
        "busy",
        None,
        Box::new(Busy { log: log.clone() }),
        SimDuration::from_micros(1),
        &mut eng,
    );
    // Message lands at t=100us, squarely inside the 3 ms work item.
    eng.schedule(SimDuration::from_micros(100), move |w: &mut World, eng| {
        let now = eng.now();
        w.send_msg_at(
            now,
            HostId(1),
            addr,
            Box::new(1u8),
            64,
            SimDuration::from_micros(1),
            eng,
        );
    });
    eng.run(&mut w);
    let names: Vec<String> = log.borrow().iter().map(|e| e.1.clone()).collect();
    assert_eq!(names, vec!["done7", "msg"]);
    assert!(log.borrow()[1].0.as_nanos() >= 3_000_000);
}

/// The trace buffer captures fabric and completion events when enabled.
#[test]
fn tracer_captures_datapath_events() {
    let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(1 << 18).build();
    w.tracer.enable(&["fabric", "rnic"]);
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
    let wqe = Wqe {
        opcode: Opcode::Write,
        flags: hl_rnic::flags::SIGNALED,
        len: 8,
        laddr: 0x8000,
        raddr: 0x8000,
        rkey: mr.rkey,
        wr_id: 5,
        ..Default::default()
    };
    w.hosts[0].post_send(qp0, wqe, false).unwrap();
    w.ring_doorbell(HostId(0), qp0, &mut eng);
    eng.run(&mut w);
    // One write + one ack crossed the fabric.
    assert!(!w.tracer.grep("h0->h1").is_empty(), "write traced");
    assert!(!w.tracer.grep("h1->h0").is_empty(), "ack traced");
}
