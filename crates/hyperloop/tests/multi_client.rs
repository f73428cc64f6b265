//! Tests for the §5 multi-client SRQ chain.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimDuration, SimTime};
use hyperloop::multi::{self, MultiBuilder, MultiClient, MultiConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// 2 clients (hosts 0-1) share a 3-replica chain (hosts 2-4).
fn setup() -> (World, Engine<World>, Vec<MultiClient>) {
    let (mut w, mut eng) = ClusterBuilder::new(5).arena_size(4 << 20).seed(81).build();
    let chain = MultiBuilder::new(MultiConfig {
        clients: vec![HostId(0), HostId(1)],
        replicas: vec![HostId(2), HostId(3), HostId(4)],
        rep_bytes: 512 << 10,
        ring_slots: 32,
    })
    .build(&mut w);
    multi::start_replenisher(&chain, &mut w, &mut eng);
    let clients = (0..2)
        .map(|c| MultiClient::new(chain.clone(), c, &mut w))
        .collect();
    (w, eng, clients)
}

#[test]
fn both_clients_write_through_one_chain() {
    let (mut w, mut eng, clients) = setup();
    let acked = Rc::new(RefCell::new([0u32; 2]));
    for (c, client) in clients.iter().enumerate() {
        let a = acked.clone();
        client
            .gwrite(
                &mut w,
                &mut eng,
                (c as u64 + 1) * 0x1000,
                format!("from-client-{c}").as_bytes(),
                true,
                Box::new(move |_w, _e, _r| a.borrow_mut()[c] += 1),
            )
            .unwrap();
    }
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!(*acked.borrow(), [1, 1], "each client got its own ACK");
    // Both writes landed durably on every replica.
    for r in 0..3 {
        let host = clients[0].replica_host(r);
        for c in 0..2usize {
            let addr = clients[0].replica_addr(r, (c as u64 + 1) * 0x1000);
            let want = format!("from-client-{c}");
            assert_eq!(
                w.hosts[host.0].mem.read(addr, want.len()).unwrap(),
                want.as_bytes(),
                "replica {r} client {c}"
            );
            assert!(w.hosts[host.0].mem.is_durable(addr, want.len()));
        }
    }
}

#[test]
fn interleaved_writes_from_two_clients_all_complete() {
    let (mut w, mut eng, clients) = setup();
    let acked = Rc::new(RefCell::new(0u32));
    let per_client = 40u32;
    // Interleave issues with per-op drain so slots serialize cleanly.
    for k in 0..per_client {
        for (c, client) in clients.iter().enumerate() {
            loop {
                let a = acked.clone();
                let r = client.gwrite(
                    &mut w,
                    &mut eng,
                    0x2000 + (k as u64 * 2 + c as u64) * 256,
                    &[(16 * c as u8) ^ k as u8; 128],
                    false,
                    Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
                );
                if r.is_ok() {
                    break;
                }
                let deadline = eng.now() + SimDuration::from_micros(200);
                eng.run_until(&mut w, deadline);
            }
        }
    }
    let probe = acked.clone();
    eng.run_while(&mut w, move |_| *probe.borrow() < per_client * 2);
    assert_eq!(*acked.borrow(), per_client * 2);
    // Spot-check contents on the tail replica.
    let host = clients[0].replica_host(2);
    for (k, c) in [(0u64, 0u64), (17, 1), (39, 0)] {
        let addr = clients[0].replica_addr(2, 0x2000 + (k * 2 + c) * 256);
        let want = [(16 * c as u8) ^ k as u8; 128];
        assert_eq!(w.hosts[host.0].mem.read(addr, 128).unwrap(), want);
    }
}

#[test]
fn replica_cpus_stay_idle_with_multiple_clients() {
    let (mut w, mut eng, clients) = setup();
    let acked = Rc::new(RefCell::new(0u32));
    for k in 0..30u32 {
        let c = (k % 2) as usize;
        let a = acked.clone();
        clients[c]
            .gwrite(
                &mut w,
                &mut eng,
                k as u64 * 512,
                &[k as u8; 64],
                true,
                Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
            )
            .unwrap();
        let probe = acked.clone();
        let want = k + 1;
        eng.run_while(&mut w, move |_| *probe.borrow() < want);
    }
    let now = eng.now();
    // Every replica runs the replenisher of its own slots, nothing else.
    for h in 2..5 {
        let util = w.hosts[h].cpu.host_utilization(now);
        assert!(0.0 < util && util < 0.02, "replica host {h} util {util}");
    }
}

#[test]
fn single_replica_multi_client_chain_works() {
    // Degenerate chain: one replica is both head (SRQ) and tail
    // (per-client ack queues).
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(2 << 20).seed(82).build();
    let chain = MultiBuilder::new(MultiConfig {
        clients: vec![HostId(0), HostId(1)],
        replicas: vec![HostId(2)],
        rep_bytes: 256 << 10,
        ring_slots: 16,
    })
    .build(&mut w);
    multi::start_replenisher(&chain, &mut w, &mut eng);
    let clients: Vec<MultiClient> = (0..2)
        .map(|c| MultiClient::new(chain.clone(), c, &mut w))
        .collect();
    let acked = Rc::new(RefCell::new(0u32));
    for (c, client) in clients.iter().enumerate() {
        let a = acked.clone();
        client
            .gwrite(
                &mut w,
                &mut eng,
                c as u64 * 128,
                &[7 + c as u8; 64],
                false,
                Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
            )
            .unwrap();
    }
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!(*acked.borrow(), 2);
    for c in 0..2usize {
        let addr = clients[0].replica_addr(0, c as u64 * 128);
        assert_eq!(w.hosts[2].mem.read(addr, 64).unwrap(), [7 + c as u8; 64]);
    }
}
