//! The paper's sketched extensions, working end to end: §7 fan-out
//! replication coordinated by the primary's NIC, and §5 multi-client
//! chains over a shared receive queue.
//!
//! ```sh
//! cargo run --example extensions
//! ```

use hyperloop_repro::cluster::ClusterBuilder;
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::fanout::{self, FanoutBuilder, FanoutClient, FanoutConfig};
use hyperloop_repro::hyperloop::multi::{self, MultiBuilder, MultiClient, MultiConfig};
use hyperloop_repro::sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    fanout_demo();
    multi_client_demo();
}

/// §7: the client offloads FaRM-style primary/backup coordination to
/// the primary's NIC — parallel dispatch to every backup plus ack
/// aggregation by WAIT counting.
fn fanout_demo() {
    println!("== fan-out offload (§7) ==");
    let (mut world, mut engine) = ClusterBuilder::new(5).arena_size(2 << 20).seed(1).build();
    let group = FanoutBuilder::new(FanoutConfig {
        client: HostId(0),
        primary: HostId(1),
        backups: vec![HostId(2), HostId(3), HostId(4)],
        rep_bytes: 256 << 10,
        ring_slots: 32,
    })
    .build(&mut world);
    fanout::start_replenisher(&group, &mut world, &mut engine);
    let client = FanoutClient::new(group, &mut world);

    let latency = Rc::new(RefCell::new(None));
    let l = latency.clone();
    client
        .gwrite(
            &mut world,
            &mut engine,
            0x100,
            b"one-hop-to-three-backups",
            Box::new(move |_w, _e, r| *l.borrow_mut() = Some(r.latency)),
        )
        .unwrap();
    engine.run_until(&mut world, SimTime::from_nanos(2_000_000));
    println!(
        "  group ACK (primary + 3 backups, all NIC-coordinated): {}",
        latency.borrow().unwrap()
    );
    for m in 1..5 {
        let host = client.member_host(m);
        let addr = client.member_addr(m, 0x100);
        assert_eq!(
            world.hosts[host.0].mem.read(addr, 24).unwrap(),
            b"one-hop-to-three-backups"
        );
    }
    println!("  all 4 copies verified; backup CPUs untouched\n");
}

/// §5: two clients share one chain; the first replica's SRQ serializes
/// their writes in NIC arrival order.
fn multi_client_demo() {
    println!("== multi-client chain over SRQ (§5) ==");
    let (mut world, mut engine) = ClusterBuilder::new(5).arena_size(2 << 20).seed(2).build();
    let chain = MultiBuilder::new(MultiConfig {
        clients: vec![HostId(0), HostId(1)],
        replicas: vec![HostId(2), HostId(3), HostId(4)],
        rep_bytes: 256 << 10,
        ring_slots: 32,
    })
    .build(&mut world);
    multi::start_replenisher(&chain, &mut world, &mut engine);
    let clients: Vec<MultiClient> = (0..2)
        .map(|c| MultiClient::new(chain.clone(), c, &mut world))
        .collect();

    let acked = Rc::new(RefCell::new(0u32));
    for k in 0..6u64 {
        let c = (k % 2) as usize;
        let a = acked.clone();
        clients[c]
            .gwrite(
                &mut world,
                &mut engine,
                k * 256,
                format!("op{k}-by-client{c}").as_bytes(),
                true,
                Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
            )
            .unwrap();
    }
    let probe = acked.clone();
    engine.run_while(&mut world, move |_| *probe.borrow() < 6);
    println!("  6 interleaved writes from 2 clients ACKed");
    // Every replica holds every client's writes, durably.
    for r in 0..3 {
        let host = clients[0].replica_host(r);
        for k in 0..6u64 {
            let c = k % 2;
            let want = format!("op{k}-by-client{c}");
            let addr = clients[0].replica_addr(r, k * 256);
            assert_eq!(
                world.hosts[host.0].mem.read(addr, want.len()).unwrap(),
                want.as_bytes()
            );
        }
    }
    println!("  all replicas consistent; chain slots were shared in arrival order");
}
