//! kvlite: a replicated RocksDB-like store whose write path is a single
//! durable `Append` to the NIC-offloaded write-ahead log, with replicas
//! replaying their own NVM log copies off the critical path.
//!
//! ```sh
//! cargo run --example replicated_kv
//! ```

use hyperloop_repro::cluster::ClusterBuilder;
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use hyperloop_repro::sim::{Histogram, SimTime};
use hyperloop_repro::store::kv::{KvConfig, KvDb};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let (mut world, mut engine) = ClusterBuilder::new(4).arena_size(8 << 20).seed(11).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2), HostId(3)],
        rep_bytes: 4 << 20,
        ring_slots: 128,
        ..Default::default()
    })
    .build(&mut world);
    replica::start_replenishers(&group, &mut world, &mut engine);
    let client = Rc::new(HyperLoopClient::new(group, &mut world));
    let mut db = KvDb::open(client.clone(), KvConfig::default(), &mut world, &mut engine);

    // Write 500 keys, measuring the durable-replicated-put latency.
    let hist = Rc::new(RefCell::new(Histogram::new()));
    let acked = Rc::new(RefCell::new(0u32));
    for k in 0..500u32 {
        let h = hist.clone();
        let a = acked.clone();
        db.put(
            &mut world,
            &mut engine,
            format!("user{k:06}").as_bytes(),
            format!("profile-data-{k}").as_bytes(),
            Box::new(move |_w, _e, r| {
                h.borrow_mut().record(r.latency.as_nanos());
                *a.borrow_mut() += 1;
            }),
        )
        .unwrap();
        let a2 = acked.clone();
        let want = k + 1;
        engine.run_while(&mut world, move |_| *a2.borrow() < want);
    }

    let s = hist.borrow().summary();
    println!("500 durable replicated puts (3 replicas):");
    println!(
        "  avg {:.1}us  p50 {:.1}us  p99 {:.1}us",
        s.mean_us(),
        s.p50_ns as f64 / 1e3,
        s.p99_us()
    );

    // Strong reads at the client.
    println!(
        "client read user000042 -> {:?}",
        db.get(b"user000042")
            .map(|v| String::from_utf8_lossy(v).into_owned())
    );
    let scan = db.scan(b"user000100", 3);
    println!(
        "client scan from user000100 -> {:?}",
        scan.iter()
            .map(|(k, _)| String::from_utf8_lossy(k))
            .collect::<Vec<_>>()
    );

    // Eventually-consistent reads at a replica, once its syncer has
    // replayed the log from its own NVM.
    engine.run_until(
        &mut world,
        SimTime::from_nanos(engine.now().as_nanos() + 20_000_000),
    );
    println!(
        "replica-1 read user000042 -> {:?}",
        db.get_at_replica(0, b"user000042")
            .map(|v| String::from_utf8_lossy(&v).into_owned())
    );
    println!("replica applied log cursors: {:?}", db.replica_applied());
    println!("log cursors (head, tail): {:?}", db.log_cursors());

    // Crash all replicas: every acked put survives in NVM.
    for h in 1..4 {
        world.hosts[h].mem.crash();
    }
    println!("after crashing every replica, each WAL copy still reads to the tail:");
    let layout = KvConfig::default().layout;
    let (_, tail) = db.log_cursors();
    for m in 1..4 {
        use hyperloop_repro::hyperloop::api::{FrameReader, GroupClient};
        let mem = &world.hosts[m].mem;
        let head = mem.read_u64(client.member_addr(m, layout.log_off)).unwrap();
        let ring = mem
            .read(
                client.member_addr(m, layout.ring_off()),
                layout.log_cap as usize,
            )
            .unwrap();
        let mut frames = FrameReader::new(ring, head);
        let records = frames.by_ref().count();
        println!(
            "  member {m}: {records} records from head {head} to cursor {}",
            frames.cursor()
        );
        assert_eq!(frames.cursor(), tail, "member {m} lost an acked put");
    }
}
