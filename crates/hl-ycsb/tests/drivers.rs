//! End-to-end driver tests: small YCSB runs against both backends.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimTime};
use hl_store::doc::native::{self, NativeDocCosts};
use hl_store::doc::{DocLayout, DocStore};
use hl_ycsb::{
    preload_docstore, run_until_done, ycsb_document, FrontEndCosts, HlDriver, NativeDriver, OpKind,
    Workload, YcsbStats,
};
use hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use std::rc::Rc;

fn hl_setup() -> (World, Engine<World>, DocStore<HyperLoopClient>) {
    let (mut w, mut eng) = ClusterBuilder::new(4).arena_size(8 << 20).seed(31).build();
    // Client host 0, replicas 1..3.
    let cfg = GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2), HostId(3)],
        rep_bytes: 4 << 20,
        ring_slots: 64,
        ..Default::default()
    };
    let group = GroupBuilder::new(cfg).build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = Rc::new(HyperLoopClient::new(group, &mut w));
    let layout = DocLayout {
        n_slots: 256,
        ..Default::default()
    };
    preload_docstore(&mut w, &*client, &layout, 200, 100);
    let store = DocStore::open(client, layout, 1, true);
    (w, eng, store)
}

#[test]
fn hl_driver_runs_workload_a() {
    let (mut w, mut eng, store) = hl_setup();
    let stats = YcsbStats::shared();
    w.start_process(
        HostId(0),
        "ycsb-a",
        None,
        Box::new(HlDriver::new(
            store.clone(),
            Workload::A,
            200,
            100,
            10,
            w.rng.stream("drv"),
            stats.clone(),
            FrontEndCosts::default(),
        )),
        hl_sim::SimDuration::from_micros(1),
        &mut eng,
    );
    run_until_done(
        &mut w,
        &mut eng,
        &stats,
        1,
        SimTime::from_nanos(30_000_000_000),
    );
    let s = stats.borrow();
    assert_eq!(s.completed, 100);
    assert!(s.kind(OpKind::Read).count() > 20);
    assert!(s.kind(OpKind::Update).count() > 20);
    assert!(s.writes.count() > 20);
    // Reads are client-local: fast. Writes take three dependent chain
    // round trips (append ∥ lock, execute, unlock ∥ truncate) plus
    // front-end cost.
    assert!(s.kind(OpKind::Read).mean() < 200_000.0);
    let wmean = s.writes.mean();
    assert!(
        wmean > 150_000.0 && wmean < 3_000_000.0,
        "write mean {wmean}"
    );
}

#[test]
fn hl_driver_reads_preloaded_data() {
    let (mut w, eng, store) = hl_setup();
    // Preload put documents in every member's slots.
    let d = store.read(&mut w, 42).expect("preloaded doc");
    assert_eq!(d.id, 42);
    assert_eq!(d.get("field0"), Some([42u8; 100].as_slice()));
    let d2 = store.read_at(&mut w, 2, 77).expect("on replica too");
    assert_eq!(d2.id, 77);
    let _ = eng;
}

#[test]
fn native_driver_runs_workload_b() {
    let (mut w, mut eng) = ClusterBuilder::new(4).arena_size(8 << 20).seed(32).build();
    let set = native::spawn_native_set(
        &mut w,
        &mut eng,
        "set0",
        &[HostId(1), HostId(2), HostId(3)],
        1536,
        256,
        NativeDocCosts::default(),
    );
    let docs: Vec<_> = (0..200).map(|id| ycsb_document(id, 100)).collect();
    native::preload(&mut w, &set, 1536, 256, &docs);

    let stats = YcsbStats::shared();
    w.start_process(
        HostId(0),
        "ycsb-b",
        None,
        Box::new(NativeDriver::new(
            set.primary,
            set.write_recv_cost,
            set.read_recv_cost,
            Workload::B,
            200,
            200,
            20,
            w.rng.stream("drv"),
            stats.clone(),
            FrontEndCosts::default(),
        )),
        hl_sim::SimDuration::from_micros(1),
        &mut eng,
    );
    run_until_done(
        &mut w,
        &mut eng,
        &stats,
        1,
        SimTime::from_nanos(60_000_000_000),
    );
    let s = stats.borrow();
    assert_eq!(s.completed, 200);
    // B is 95/5.
    assert!(s.kind(OpKind::Read).count() > 160);
    assert!(s.kind(OpKind::Update).count() >= 1);
    // Writes include two CPU replica hops: slower than reads.
    assert!(s.writes.mean() > s.kind(OpKind::Read).mean());
}

#[test]
fn scans_work_against_native() {
    let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(8 << 20).seed(33).build();
    let set = native::spawn_native_set(
        &mut w,
        &mut eng,
        "set0",
        &[HostId(1)],
        1536,
        256,
        NativeDocCosts::default(),
    );
    let docs: Vec<_> = (0..200).map(|id| ycsb_document(id, 100)).collect();
    native::preload(&mut w, &set, 1536, 256, &docs);
    let stats = YcsbStats::shared();
    w.start_process(
        HostId(0),
        "ycsb-e",
        None,
        Box::new(NativeDriver::new(
            set.primary,
            set.write_recv_cost,
            set.read_recv_cost,
            Workload::E,
            200,
            100,
            0,
            w.rng.stream("drv"),
            stats.clone(),
            FrontEndCosts::default(),
        )),
        hl_sim::SimDuration::from_micros(1),
        &mut eng,
    );
    run_until_done(
        &mut w,
        &mut eng,
        &stats,
        1,
        SimTime::from_nanos(60_000_000_000),
    );
    let s = stats.borrow();
    assert_eq!(s.completed, 100);
    assert!(s.kind(OpKind::Scan).count() > 80);
}
