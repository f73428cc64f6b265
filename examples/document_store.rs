//! doclite: a MongoDB-like document store whose write transactions —
//! journal append, group lock, execute, unlock — are entirely executed
//! by the replicas' NICs.
//!
//! ```sh
//! cargo run --example document_store
//! ```

use hyperloop_repro::cluster::ClusterBuilder;
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::api::{GroupLock, LockOutcome};
use hyperloop_repro::hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use hyperloop_repro::sim::SimTime;
use hyperloop_repro::store::doc::{DocLayout, DocStore, Document};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let (mut world, mut engine) = ClusterBuilder::new(4).arena_size(8 << 20).seed(23).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2), HostId(3)],
        rep_bytes: 2 << 20,
        ring_slots: 64,
        ..Default::default()
    })
    .build(&mut world);
    replica::start_replenishers(&group, &mut world, &mut engine);
    let client = Rc::new(HyperLoopClient::new(group, &mut world));
    let store = DocStore::open(client.clone(), DocLayout::default(), 1, true);

    // Insert a few documents. Each upsert is three dependent group
    // round trips: Append (gWRITE+gFLUSH) ∥ wrLock (gCAS), then
    // ExecuteAndAdvance (gMEMCPY per redo entry), then wrUnlock (gCAS)
    // ∥ the head-pointer gWRITE.
    let done = Rc::new(RefCell::new(0u32));
    for id in 0..10u64 {
        let mut doc = Document::new(id);
        doc.set("name", format!("user-{id}").as_bytes());
        doc.set("city", b"budapest"); // SIGCOMM '18!
        doc.set("visits", &id.to_le_bytes());
        let d = done.clone();
        store
            .upsert(
                &mut world,
                &mut engine,
                &doc,
                Box::new(move |_w, _e, _r| *d.borrow_mut() += 1),
            )
            .unwrap();
        let d2 = done.clone();
        let want = id as u32 + 1;
        engine.run_while(&mut world, move |_| *d2.borrow() < want);
    }
    println!("committed {} documents", store.committed());

    // Strong reads at the head.
    let doc = store.read(&mut world, 7).expect("doc 7");
    println!(
        "read(7): name={:?} city={:?}",
        String::from_utf8_lossy(doc.get("name").unwrap()),
        String::from_utf8_lossy(doc.get("city").unwrap()),
    );

    // Every replica's database area holds the same committed documents
    // (their NICs applied them; their CPUs never saw the data).
    for member in 1..4 {
        let d = store.read_at(&mut world, member, 7).expect("replicated");
        assert_eq!(d.get("city"), Some(b"budapest".as_slice()));
    }
    println!("all replicas agree on doc 7 (applied by NIC-local gMEMCPY)");

    // Consistent replica reads use rdLock on just that member.
    let lock = GroupLock::new(client.clone(), DocLayout::default().lock_off, 99);
    let outcome = Rc::new(RefCell::new(None));
    let o = outcome.clone();
    lock.rd_lock(
        &mut world,
        &mut engine,
        2,
        3,
        Box::new(move |_w, _e, r| *o.borrow_mut() = Some(r)),
    )
    .unwrap();
    engine.run_until(
        &mut world,
        SimTime::from_nanos(engine.now().as_nanos() + 1_000_000),
    );
    assert_eq!(*outcome.borrow(), Some(LockOutcome::Acquired));
    println!("rdLock on member 2 acquired; serving a consistent replica read");
    let d = store.read_at(&mut world, 2, 3).unwrap();
    println!(
        "  member-2 read(3): name={:?}",
        String::from_utf8_lossy(d.get("name").unwrap())
    );
    let o2 = outcome.clone();
    lock.rd_unlock(
        &mut world,
        &mut engine,
        2,
        3,
        Box::new(move |_w, _e, r| *o2.borrow_mut() = Some(r)),
    )
    .unwrap();
    engine.run_until(
        &mut world,
        SimTime::from_nanos(engine.now().as_nanos() + 1_000_000),
    );
    println!(
        "rdUnlock done; scan(0..5) at head: {} docs",
        store.scan(&mut world, 0, 5).len()
    );
}
