//! Tests for the §7 fan-out offload extension.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimTime};
use hyperloop::fanout::{self, FanoutBuilder, FanoutClient, FanoutConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn setup(n_backups: usize) -> (World, Engine<World>, FanoutClient) {
    let (mut w, mut eng) = ClusterBuilder::new(n_backups + 2)
        .arena_size(4 << 20)
        .seed(41)
        .build();
    let cfg = FanoutConfig {
        client: HostId(0),
        primary: HostId(1),
        backups: (2..2 + n_backups).map(HostId).collect(),
        rep_bytes: 512 << 10,
        ring_slots: 32,
    };
    let group = FanoutBuilder::new(cfg).build(&mut w);
    fanout::start_replenisher(&group, &mut w, &mut eng);
    let client = FanoutClient::new(group, &mut w);
    (w, eng, client)
}

#[test]
fn fanout_gwrite_reaches_primary_and_all_backups() {
    let (mut w, mut eng, client) = setup(3);
    let acked = Rc::new(RefCell::new(0u32));
    let a = acked.clone();
    client
        .gwrite(
            &mut w,
            &mut eng,
            0x200,
            b"fanout-payload",
            Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
        )
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(2_000_000));
    assert_eq!(*acked.borrow(), 1, "aggregated group ACK arrived");
    // Members: 0 client, 1 primary, 2.. backups.
    for m in 0..5 {
        let host = client.member_host(m);
        let addr = client.member_addr(m, 0x200);
        assert_eq!(
            w.hosts[host.0].mem.read(addr, 14).unwrap(),
            b"fanout-payload",
            "member {m}"
        );
    }
}

#[test]
fn fanout_ack_waits_for_every_backup() {
    // With a backup's link cut AFTER the primary write path is up, the
    // group ACK must NOT fire (the aggregation WAIT counts n acks).
    let (mut w, mut eng, client) = setup(2);
    w.fabric.set_link_down(HostId(3), true); // backup 1 dead
    let acked = Rc::new(RefCell::new(0u32));
    let a = acked.clone();
    client
        .gwrite(
            &mut w,
            &mut eng,
            0,
            b"no-ack-expected",
            Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
        )
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(20_000_000));
    assert_eq!(*acked.borrow(), 0, "ACK must wait for all backups");
    // The healthy backup still received the data.
    let addr = client.member_addr(2, 0);
    let host = client.member_host(2);
    assert_eq!(
        w.hosts[host.0].mem.read(addr, 15).unwrap(),
        b"no-ack-expected"
    );
}

#[test]
fn fanout_pipelines_and_replenishes() {
    let (mut w, mut eng, client) = setup(2);
    let acked = Rc::new(RefCell::new(0u32));
    let total = 100u32;
    // Issue with retry-on-backpressure until all are in.
    fn pump(
        client: FanoutClient,
        acked: Rc<RefCell<u32>>,
        issued: u32,
        total: u32,
        w: &mut World,
        eng: &mut Engine<World>,
    ) {
        let mut issued = issued;
        while issued < total {
            let a = acked.clone();
            match client.gwrite(
                w,
                eng,
                (issued as u64 % 64) * 128,
                &[issued as u8; 64],
                Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
            ) {
                Ok(_) => issued += 1,
                Err(_) => {
                    let c = client.clone();
                    let ak = acked.clone();
                    eng.schedule(hl_sim::SimDuration::from_micros(100), move |w, eng| {
                        pump(c, ak, issued, total, w, eng);
                    });
                    return;
                }
            }
        }
    }
    let c = client.clone();
    let a = acked.clone();
    eng.schedule(hl_sim::SimDuration::ZERO, move |w, eng| {
        pump(c, a, 0, total, w, eng)
    });
    let a2 = acked.clone();
    eng.run_while(&mut w, move |_| *a2.borrow() < total);
    assert_eq!(*acked.borrow(), total);
}

#[test]
fn fanout_replica_cpus_stay_idle() {
    let (mut w, mut eng, client) = setup(3);
    let acked = Rc::new(RefCell::new(0u32));
    for k in 0..50u64 {
        let a = acked.clone();
        client
            .gwrite(
                &mut w,
                &mut eng,
                k * 64,
                &[7u8; 48],
                Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
            )
            .unwrap();
        let a2 = acked.clone();
        let want = k as u32 + 1;
        eng.run_while(&mut w, move |_| *a2.borrow() < want);
    }
    let now = eng.now();
    // The primary and every backup run exactly one thing: the replenisher
    // of the slots on their own NIC, charged what it reposts.
    for h in 1..5 {
        let util = w.hosts[h].cpu.host_utilization(now);
        assert!(0.0 < util && util < 0.02, "host {h} util {util}");
    }
}
