//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **WAIT-chaining vs CPU forwarding** — the same chain with NIC
//!    auto-forwarding vs an *uncontended* CPU forwarder (no stress):
//!    isolates the mechanism cost from the scheduling tail.
//! 2. **Interleaved gFLUSH** — durability's price on the critical path.
//! 3. **Ring depth** — throughput as pre-posted slot rings shrink
//!    (replenishment becomes the bottleneck; backpressure onset).
//! 4. **Metadata/group size** — per-hop overhead of the remote-WQE
//!    metadata as the chain grows, on an idle cluster.
//!
//! Usage: `ablations [--ops N]`

use hl_bench::micro::{run_micro, Backend, MicroCfg, MicroOp};
use hl_bench::table::{us, Table};
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_rnic::{flags, Access, CqeKind, Opcode, RecvWqe, Wqe, WQE_SIZE};
use hl_sim::{Engine, Histogram, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Fixed replication (no remote WQE manipulation): every slot's
/// descriptors are fully pre-set at post time — offset, length and
/// destination are baked in, and the client merely sends a 4-byte
/// trigger. This is what a WAIT-only design could do (paper §4.1:
/// "NICs can only forward a fixed size buffer of data at a pre-defined
/// memory location, which we call fixed replication").
fn run_fixed_replication(size: usize, ops: u32) -> hl_sim::Summary {
    const SLOTS: u64 = 4096;
    let (mut w, mut eng) = ClusterBuilder::new(3)
        .arena_size((SLOTS as usize * size + (4 << 20)).next_power_of_two())
        .seed(3)
        .build();
    // Regions: per host a data region of SLOTS*size plus rings.
    let mut rep = Vec::new();
    let mut rkeys = Vec::new();
    for h in 0..3 {
        let r = w
            .host(HostId(h))
            .layout
            .alloc("rep", SLOTS * size as u64, 64);
        let mr = w
            .host(HostId(h))
            .nic
            .register_mr(r.addr, r.len, Access::REMOTE_WRITE);
        rep.push(r);
        rkeys.push(mr.rkey);
    }
    // Chain QPs: 0->1, 1->2, 2->0 (ack).
    let mk_qp = |w: &mut World, h: usize, name: &str, cap: u32| {
        let sq = w
            .host(HostId(h))
            .layout
            .alloc(name, cap as u64 * WQE_SIZE, 64);
        let scq = w.hosts[h].nic.create_cq();
        let rcq = w.hosts[h].nic.create_cq();
        let qp = w.hosts[h].nic.create_qp(scq, rcq, sq.addr, cap);
        (qp, scq, rcq)
    };
    let (qp0_out, _s0, _r0) = mk_qp(&mut w, 0, "out", 2 * SLOTS as u32 + 8);
    let (qp1_in, _s1i, rcq1) = mk_qp(&mut w, 1, "in", 8);
    let (qp1_out, _s1o, _r1o) = mk_qp(&mut w, 1, "fwd", 3 * SLOTS as u32 + 8);
    let (qp2_in, _s2i, rcq2) = mk_qp(&mut w, 2, "in", 8);
    let (qp2_out, _s2o, _r2o) = mk_qp(&mut w, 2, "ack", 2 * SLOTS as u32 + 8);
    let (qp0_ack, _s0a, arcq0) = mk_qp(&mut w, 0, "ackin", 8);
    w.connect_qps(HostId(0), qp0_out, HostId(1), qp1_in);
    w.connect_qps(HostId(1), qp1_out, HostId(2), qp2_in);
    w.connect_qps(HostId(2), qp2_out, HostId(0), qp0_ack);
    let trig = w.host(HostId(0)).layout.alloc("trig", 8, 8);

    // Pre-post ALL slots with fixed descriptors (no replenisher: sized
    // for the whole run).
    for k in 0..SLOTS.min(ops as u64 + 8) {
        // r1: WAIT + fixed WRITE(r1 slot -> r2 slot) + fixed SEND(trigger).
        let wait = Wqe {
            opcode: Opcode::Wait,
            flags: flags::HW_OWNED,
            raddr: Wqe::wait_params(rcq1, 1),
            activate_n: 2,
            wr_id: k,
            ..Default::default()
        };
        w.hosts[1].post_send(qp1_out, wait, false).unwrap();
        let write = Wqe {
            opcode: Opcode::Write,
            len: size as u32,
            laddr: rep[1].at(k % SLOTS * size as u64),
            raddr: rep[2].at(k % SLOTS * size as u64),
            rkey: rkeys[2],
            wr_id: k,
            ..Default::default()
        };
        w.hosts[1].post_send(qp1_out, write, true).unwrap();
        let fwd = Wqe {
            opcode: Opcode::Send,
            len: 4,
            laddr: rep[1].addr,
            wr_id: k,
            ..Default::default()
        };
        w.hosts[1].post_send(qp1_out, fwd, true).unwrap();
        w.hosts[1].post_recv(qp1_in, RecvWqe::empty(k));
        // r2 (tail): WAIT + fixed WRITE_IMM ack.
        let wait2 = Wqe {
            opcode: Opcode::Wait,
            flags: flags::HW_OWNED,
            raddr: Wqe::wait_params(rcq2, 1),
            activate_n: 1,
            wr_id: k,
            ..Default::default()
        };
        w.hosts[2].post_send(qp2_out, wait2, false).unwrap();
        let wimm = Wqe {
            opcode: Opcode::WriteImm,
            len: 0,
            raddr: rep[0].addr,
            rkey: rkeys[0],
            imm: k as u32,
            wr_id: k,
            ..Default::default()
        };
        w.hosts[2].post_send(qp2_out, wimm, true).unwrap();
        w.hosts[2].post_recv(qp2_in, RecvWqe::empty(k));
        w.hosts[0].post_recv(qp0_ack, RecvWqe::empty(k));
    }
    for (h, qp) in [(1usize, qp1_out), (2, qp2_out)] {
        w.ring_doorbell(HostId(h), qp, &mut eng);
    }

    // Driver: sequential fixed-slot writes.
    let hist = Rc::new(RefCell::new(Histogram::new()));
    let issued_at = Rc::new(RefCell::new(
        std::collections::HashMap::<u32, SimTime>::new(),
    ));
    let done = Rc::new(RefCell::new(0u32));
    {
        let hist = hist.clone();
        let issued_at2 = issued_at.clone();
        let done = done.clone();
        w.subscribe_cq_callback(HostId(0), arcq0, move |cqe, w, eng| {
            if cqe.kind != CqeKind::RecvImm {
                return;
            }
            let t0 = issued_at2.borrow_mut().remove(&cqe.imm).unwrap();
            hist.borrow_mut()
                .record(eng.now().duration_since(t0).as_nanos());
            let k = *done.borrow() + 1;
            *done.borrow_mut() = k;
            if k < TOTAL.with(|t| *t.borrow()) {
                issue_fixed(k, w, eng);
            }
        });
    }
    thread_local! {
        static TOTAL: RefCell<u32> = const { RefCell::new(0) };
        static CTX: RefCell<Option<FixedCtx>> = const { RefCell::new(None) };
    }
    #[derive(Clone)]
    struct FixedCtx {
        qp0_out: u32,
        rep0: u64,
        rep1: u64,
        rkey1: u32,
        trig: u64,
        size: usize,
        slots: u64,
        issued_at: Rc<RefCell<std::collections::HashMap<u32, SimTime>>>,
    }
    fn issue_fixed(k: u32, w: &mut World, eng: &mut Engine<World>) {
        let c = CTX.with(|c| c.borrow().clone()).unwrap();
        c.issued_at.borrow_mut().insert(k, eng.now());
        let off = (k as u64 % c.slots) * c.size as u64;
        w.hosts[0]
            .post_send(
                c.qp0_out,
                Wqe {
                    opcode: Opcode::Write,
                    len: c.size as u32,
                    laddr: c.rep0 + off,
                    raddr: c.rep1 + off,
                    rkey: c.rkey1,
                    wr_id: k as u64,
                    ..Default::default()
                },
                false,
            )
            .unwrap();
        w.hosts[0]
            .post_send(
                c.qp0_out,
                Wqe {
                    opcode: Opcode::Send,
                    len: 4,
                    laddr: c.trig,
                    wr_id: k as u64,
                    ..Default::default()
                },
                false,
            )
            .unwrap();
        w.ring_doorbell(HostId(0), c.qp0_out, eng);
    }
    TOTAL.with(|t| *t.borrow_mut() = ops);
    CTX.with(|c| {
        *c.borrow_mut() = Some(FixedCtx {
            qp0_out,
            rep0: rep[0].addr,
            rep1: rep[1].addr,
            rkey1: rkeys[1],
            trig: trig.addr,
            size,
            slots: SLOTS,
            issued_at: issued_at.clone(),
        })
    });
    issue_fixed(0, &mut w, &mut eng);
    let probe = done.clone();
    eng.run_while(&mut w, move |_| *probe.borrow() < ops);
    let s = hist.borrow().summary();
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops = args
        .iter()
        .position(|a| a == "--ops")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    // 1. Mechanism cost: NIC chaining vs CPU forwarding without any
    //    co-located load (pinned pollers = the CPU's best case).
    println!("== Ablation 1: forwarding mechanism (no background load, 1KB gWRITE) ==");
    let mut t = Table::new(&["mechanism", "avg", "p99"]);
    for (label, backend) in [
        ("NIC WAIT-chaining", Backend::HyperLoop),
        ("CPU event-driven", Backend::NaiveEvent),
        (
            "CPU polling (dedicated)",
            Backend::NaivePolling { pinned: true },
        ),
    ] {
        let r = run_micro(&MicroCfg {
            backend,
            op: MicroOp::GWrite {
                size: 1024,
                flush: false,
            },
            ops,
            stress_per_host: 0,
            ..Default::default()
        });
        t.row(&[
            label.to_string(),
            format!("{:.1}", r.latency.mean_us()),
            us(r.latency.p99_ns),
        ]);
    }
    t.print();

    // 2. Durability cost: interleaved gFLUSH on/off.
    println!("\n== Ablation 2: interleaved gFLUSH (HyperLoop, no load) ==");
    let mut t = Table::new(&["size", "no-flush avg", "flush avg", "overhead"]);
    for size in [128usize, 1024, 8192] {
        let base = run_micro(&MicroCfg {
            backend: Backend::HyperLoop,
            op: MicroOp::GWrite { size, flush: false },
            ops,
            stress_per_host: 0,
            ..Default::default()
        });
        let fl = run_micro(&MicroCfg {
            backend: Backend::HyperLoop,
            op: MicroOp::GWrite { size, flush: true },
            ops,
            stress_per_host: 0,
            ..Default::default()
        });
        t.row(&[
            size.to_string(),
            format!("{:.1}", base.latency.mean_us()),
            format!("{:.1}", fl.latency.mean_us()),
            format!(
                "+{:.1}us",
                (fl.latency.mean_ns - base.latency.mean_ns) / 1e3
            ),
        ]);
    }
    t.print();
    println!("(each hop adds a fenced 0-byte-READ round trip before forwarding)");

    // 3. Ring depth: throughput vs pre-posted slots.
    println!("\n== Ablation 3: pre-posted ring depth (gWRITE 1KB, pipeline 16) ==");
    let mut t = Table::new(&["ring-slots", "kops", "note"]);
    for slots in [8u32, 16, 32, 64, 256, 1024] {
        let r = run_micro(&MicroCfg {
            backend: Backend::HyperLoop,
            op: MicroOp::GWrite {
                size: 1024,
                flush: false,
            },
            ops: ops.min(4000),
            pipeline: 16,
            ring_slots: slots,
            stress_per_host: 0,
            ..Default::default()
        });
        let note = if slots <= 16 { "replenisher-bound" } else { "" };
        t.row(&[
            slots.to_string(),
            format!("{:.0}", r.kops),
            note.to_string(),
        ]);
    }
    t.print();

    // 4. Group size on an idle cluster: the pure per-hop cost (wire +
    //    NIC work + 48B/replica metadata).
    println!("\n== Ablation 4: chain length (gWRITE 1KB, no load) ==");
    let mut t = Table::new(&["group", "avg", "p99", "per-extra-hop"]);
    let mut prev: Option<f64> = None;
    for group_size in [3usize, 5, 7, 9] {
        let r = run_micro(&MicroCfg {
            backend: Backend::HyperLoop,
            group_size,
            op: MicroOp::GWrite {
                size: 1024,
                flush: false,
            },
            ops: ops.min(4000),
            stress_per_host: 0,
            ..Default::default()
        });
        let inc = prev.map(|p| (r.latency.mean_ns - p) / 2e3).unwrap_or(0.0);
        t.row(&[
            group_size.to_string(),
            format!("{:.1}", r.latency.mean_us()),
            us(r.latency.p99_ns),
            if prev.is_some() {
                format!("{inc:.1}us")
            } else {
                "-".to_string()
            },
        ]);
        prev = Some(r.latency.mean_ns);
    }
    t.print();
    println!(
        "(latency grows linearly with chain length; the NIC datapath adds ~a wire+NIC hop each)"
    );

    // 5. Fixed replication vs remote WQE manipulation: the flexibility
    //    of rewriting descriptors over the wire costs only the metadata
    //    SEND's bytes.
    println!("\n== Ablation 5: fixed replication vs remote WQE manipulation (group 3, no load) ==");
    let mut t = Table::new(&["size", "fixed avg", "manipulated avg", "overhead"]);
    for size in [128usize, 1024, 8192] {
        let fixed = run_fixed_replication(size, ops.min(3000) as u32);
        let manip = run_micro(&MicroCfg {
            backend: Backend::HyperLoop,
            op: MicroOp::GWrite { size, flush: false },
            ops: ops.min(3000),
            stress_per_host: 0,
            ..Default::default()
        });
        t.row(&[
            size.to_string(),
            format!("{:.1}", fixed.mean_us()),
            format!("{:.1}", manip.latency.mean_us()),
            format!("+{:.1}us", (manip.latency.mean_ns - fixed.mean_ns) / 1e3),
        ]);
    }
    t.print();
    println!("(manipulation adds the ~150B metadata message per hop — generality for ~2% latency;");
    println!(
        " without it, offsets and sizes would be frozen at pre-post time, unusable for a real log)"
    );
}
