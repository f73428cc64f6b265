//! Allocation tripwires for the per-op datapath.
//!
//! This test binary installs its own counting `#[global_allocator]`, so
//! the tripwires run in the plain `cargo test` suite and no other binary
//! pays for the counter. Counts are per thread: the default runner puts
//! every test on its own thread, and a process-wide counter would charge
//! one test's allocations to another.

use hl_bench::micro::{run_micro, Backend, MicroCfg, MicroOp};
use hl_cluster::{ClusterBuilder, World};
use hl_cpu::HostCpu;
use hl_fabric::HostId;
use hl_rnic::{flags, Access, Opcode, Wqe};
use hl_sim::config::CpuProfile;
use hl_sim::{Engine, EventCtx, Histogram, SimDuration};
use hl_store::doc::{DocLayout, DocStore};
use hl_ycsb::ycsb_document;
use hyperloop::{GroupBuilder, GroupConfig, GroupRef, HyperLoopClient};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

thread_local! {
    /// Allocations (reallocs included) made by this thread. Const and
    /// without a destructor, so reading it inside the allocator neither
    /// allocates nor runs lazy initialisation.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a realloc counts its new size).
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        ALLOC_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        ALLOC_BYTES.with(|n| n.set(n.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static AUDIT_ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return how many allocations this thread made in it.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Run `f` and return how many allocations this thread made in it and
/// how many bytes they asked for.
fn count_alloc_bytes<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let before = (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get));
    let r = f();
    (
        ALLOCS.with(Cell::get) - before.0,
        ALLOC_BYTES.with(Cell::get) - before.1,
        r,
    )
}

struct Lanes {
    acc: u64,
    remaining: u64,
}

struct LaneEvent {
    lane: u32,
}

impl EventCtx for Lanes {
    type Event = LaneEvent;
    fn run_event(&mut self, eng: &mut Engine<Self>, ev: LaneEvent) {
        self.acc = self.acc.wrapping_add(ev.lane as u64);
        if self.remaining > 0 {
            self.remaining -= 1;
            eng.schedule_event(
                SimDuration::from_nanos(100 + (ev.lane as u64 % 7) * 10),
                LaneEvent { lane: ev.lane },
            );
        }
    }
}

/// The typed-event engine loop is amortized allocation-free in steady
/// state: after warmup has sized the arena, the slab and the calendar
/// wheel, the only remaining allocations are occasional wheel-bucket
/// capacity doublings as lane phases drift across bucket boundaries —
/// a few per thousand events, amortizing toward zero. A reintroduced
/// per-event allocation (one box or Vec per pop/push cycle) is 100×
/// over the bound and trips immediately.
#[test]
fn engine_steady_state_is_allocation_free() {
    let mut w = Lanes {
        acc: 0,
        remaining: 250_000 + 600_000,
    };
    let mut eng: Engine<Lanes> = Engine::new();
    for lane in 0..1024u32 {
        eng.schedule_event(
            SimDuration::from_nanos(100 + (lane as u64 % 7) * 10),
            LaneEvent { lane },
        );
    }
    // Warmup: let every Vec inside the engine reach its steady size.
    // This pattern advances ~0.13 ns of simulated time per event, so a
    // full calendar-wheel revolution (~65 µs, after which every ring
    // bucket has been filled once and holds its steady capacity) takes
    // ~520k events; 600k covers it with slack.
    for _ in 0..600_000 {
        assert!(eng.step(&mut w));
    }
    let (n, _) = count_allocs(|| {
        for _ in 0..250_000 {
            assert!(eng.step(&mut w));
        }
    });
    assert!(
        n <= 2_500,
        "typed-event steady state allocated {n} times in 250k events \
         (bound is ~1 per 100 events; a per-event regression is ~100× this)"
    );
}

/// The full gWRITE datapath (NIC, fabric, NVM, telemetry drain, group
/// client) stays within its per-op allocation budget; DESIGN.md §11
/// lists what the remaining allocations are. One more `Vec` built per
/// NIC entry point is ~20 per op — one per simulated event — and one
/// more per gather is 5; either blows the bound.
#[test]
fn gwrite_datapath_allocations_are_bounded_per_op() {
    let cfg = MicroCfg {
        backend: Backend::HyperLoop,
        op: MicroOp::GWrite {
            size: 256,
            flush: false,
        },
        ops: 4_000,
        pipeline: 16,
        ..Default::default()
    };
    // First run warms allocator pools and sizes engine arenas inside
    // the process; the second run is the measured one. Worlds are
    // rebuilt per run, so the count includes each run's set-up, and
    // the 32 tenant hogs per replica host, whose scheduler returns a
    // `Vec<CpuOutput>` per call (8.8 of the per-op count: it is 9.3
    // with `stress_per_host: 0`).
    let _ = run_micro(&cfg);
    let (n, _) = count_allocs(|| {
        let _ = run_micro(&cfg);
    });
    // Measured 18.0 (seed 42; the count repeats exactly), plus two.
    let per_op = n as f64 / cfg.ops as f64;
    assert!(
        per_op < 20.0,
        "gWRITE datapath allocated {per_op:.1} times per op ({n} total)"
    );
}

/// A signalled 1 KiB RC WRITE and its ACK between two hosts through
/// `World`, 16 outstanding (the benchmark ladder's `verb_write_ns`
/// shape): doorbell, WQE fetch, packet, fabric, DMA, ACK, CQE, callback.
/// In steady state the only allocation per WRITE is its payload buffer;
/// the slack is for calendar-wheel buckets still doubling (see the
/// engine test above).
#[test]
fn verb_write_loop_allocates_only_the_payload() {
    const WARMUP: u64 = 8_000;
    const OPS: u64 = 8_000;
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
        if again.get() < WARMUP + OPS {
            post(w, eng, &again);
        }
    });
    for _ in 0..16 {
        post(&mut w, &mut eng, &issued);
    }
    let seen = issued.clone();
    eng.run_while(&mut w, move |_| seen.get() < WARMUP);
    let seen = issued.clone();
    let (n, _) = count_allocs(|| eng.run_while(&mut w, move |_| seen.get() < WARMUP + OPS));
    assert!(
        (OPS..=OPS + OPS / 100).contains(&n),
        "{n} allocations for {OPS} WRITEs: expected one payload buffer each"
    );
}

/// A 3-member chain on a fresh world: the world, the group and the
/// allocations its build made, with replenishers started when
/// `replenish` is set.
fn chain(ring_slots: u32, replenish: bool) -> (World, Engine<World>, GroupRef, u64) {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(8 << 20).seed(42).build();
    let cfg = GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 64 << 10,
        ring_slots,
        ..Default::default()
    };
    let (n, group) = count_allocs(|| GroupBuilder::new(cfg).build(&mut w));
    if replenish {
        hyperloop::replica::start_replenishers(&group, &mut w, &mut eng);
    }
    (w, eng, group, n)
}

/// Posted RECVs share their ring's scatter template, so how deep a
/// chain's rings are no longer decides how much it allocates: a chain
/// built 512 slots deep makes as many allocations as one 64 deep, but
/// for the receive queues' `VecDeque`s doubling three more times (nine
/// slot-deep receive queues: two replicas and the client's ACK ring, on
/// each of three rings). One scatter list per posted RECV was
/// 6 × 448 more.
#[test]
fn chain_build_allocations_do_not_grow_with_ring_depth() {
    let (.., small) = chain(64, false);
    let (.., large) = chain(512, false);
    let queue_growth = 9 * (512f64 / 64.0).log2() as u64;
    println!(
        "recv_templates: build allocs 64 vs 512 slots {small} vs {large} \
         (bound +{queue_growth}: receive-queue doublings)"
    );
    assert!(
        large <= small + queue_growth,
        "a 512-slot chain made {large} allocations, a 64-slot one {small}: \
         something allocates per slot"
    );
}

/// Re-posting consumed slots is a pointer copy per RECV: the
/// replenisher's batch for 64 consumed slots makes as many allocations
/// as its batch for 32. A batch re-posts a watermark (a quarter ring),
/// so the two are the batches of a 256-slot and a 128-slot chain. The
/// chain is driven by ops, one gWRITE at a time run to quiescence (a
/// sleeping replenisher leaves no event behind), for two turns of the
/// ring; then a batch's allocations are those of the op whose arrival
/// wakes the replicas less those of the op before it, which wakes
/// nobody. A wake-up allocates nothing (its interrupt, CPU work and
/// credit reports reuse buffers or fit the engine's inline closures),
/// so neither batch may make more than the one allocation of slack, a
/// calendar-wheel bucket that a batch's timing could grow (see the
/// engine test above); a `Vec` per wake-up makes two. One scatter list
/// per RECV was 64 more.
#[test]
fn replenisher_reposts_without_allocating_per_slot() {
    let batch_allocs = |ring_slots: u32| {
        let watermark = ring_slots as u64 / 4;
        let (mut w, mut eng, group, _) = chain(ring_slots, true);
        let client = HyperLoopClient::new(group.clone(), &mut w);
        let mut k = 0u64;
        // One gWRITE, run until nothing is left to do: its allocations
        // and the slots the replicas re-posted meanwhile.
        let mut op = |w: &mut World, eng: &mut Engine<World>| {
            let before = group.borrow().stats.reposted;
            let (n, _) = count_allocs(|| {
                client
                    .gwrite(
                        w,
                        eng,
                        k % 64 * 64,
                        &[k as u8; 64],
                        false,
                        Box::new(|_, _, _| {}),
                    )
                    .expect("one op at a time fits the ring's credits");
                eng.run(w);
            });
            k += 1;
            (n, group.borrow().stats.reposted - before)
        };
        for _ in 0..2 * ring_slots {
            op(&mut w, &mut eng);
        }
        let mut quiet = None;
        loop {
            let (n, reposted) = op(&mut w, &mut eng);
            if reposted == 0 {
                quiet = Some(n);
                continue;
            }
            assert_eq!(
                reposted,
                2 * watermark,
                "both replicas re-posted a watermark"
            );
            break n.saturating_sub(quiet.expect("an op before the batch woke nobody"));
        }
    };
    let (few, many) = (batch_allocs(128), batch_allocs(256));
    println!("recv_templates: replenisher allocs re-posting 32 vs 64 slots {few} vs {many}");
    assert!(
        few <= 1,
        "a batch of 32 slots on two replicas made {few} allocations: a wake-up allocates"
    );
    assert!(
        many <= few + 1,
        "re-posting 64 more slots made {} more allocations",
        many as i64 - few as i64
    );
}

/// An empty histogram owns no counts table: a host's scheduler-latency
/// histogram, which stays empty on a HyperLoop replica, costs nothing,
/// and `HostCpu::new` allocates only its core table.
#[test]
fn empty_histograms_allocate_no_table() {
    let (n, h) = count_allocs(Histogram::new);
    assert_eq!(n, 0, "Histogram::new allocated");
    drop(h);
    let (n, cpu) = count_allocs(|| HostCpu::new(CpuProfile::default()));
    assert_eq!(n, 1, "HostCpu::new allocated more than its core table");
    drop(cpu);
}

/// One doclite upsert (locking mode, one at a time, a 10-field YCSB
/// document in a 1.5 KiB slot) stays within its allocation budget: the
/// slot encoding, the journal frame (encoded once, trailer included),
/// the boxed completions and the datapath's own. A per-append copy of
/// the record kept for the execute (its entry list and the whole slot)
/// is 2 more allocations and ~1.6 KB more per upsert.
#[test]
fn doclite_upsert_allocations_are_bounded_per_op() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(4 << 20).seed(42).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 2 << 20,
        ring_slots: 64,
        ..Default::default()
    })
    .build(&mut w);
    hyperloop::replica::start_replenishers(&group, &mut w, &mut eng);
    let client = Rc::new(HyperLoopClient::new(group, &mut w));
    let store = DocStore::open(client, DocLayout::default(), 1, true);
    let done = Rc::new(Cell::new(0u64));
    let upserts = |w: &mut World, eng: &mut Engine<World>, ids: std::ops::Range<u64>| {
        for id in ids {
            let d = done.clone();
            store
                .upsert(
                    w,
                    eng,
                    &ycsb_document(id % 512, 100),
                    Box::new(move |_, _, _| d.set(d.get() + 1)),
                )
                .unwrap();
            let d = done.clone();
            eng.run_while(w, move |_| d.get() <= id);
        }
    };
    const WARMUP: u64 = 500;
    const OPS: u64 = 2_000;
    upserts(&mut w, &mut eng, 0..WARMUP);
    let (n, bytes, _) = count_alloc_bytes(|| upserts(&mut w, &mut eng, WARMUP..WARMUP + OPS));
    let (per_op, bytes_per_op) = (n as f64 / OPS as f64, bytes as f64 / OPS as f64);
    // Measured 163 908 allocations of 26 289 440 B in all (82.0 and
    // 13 145 B per upsert; seed 42, the counts repeat exactly, in dev
    // and release builds).
    assert!(
        n <= 163_908 && bytes <= 26_289_440,
        "doclite upsert allocated {per_op:.2} times, {bytes_per_op:.0} B per op ({n}, {bytes} B)"
    );
}
