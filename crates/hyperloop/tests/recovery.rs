//! Failure detection and chain-recovery tests.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_rnic::Access;
use hl_sim::{Engine, SimDuration, SimTime};
use hyperloop::health::live_cutover;
use hyperloop::naive::Mode;
use hyperloop::recovery::{self, HeartbeatConfig};
use hyperloop::{
    merge_live, replica, GroupBuilder, GroupConfig, HyperLoopClient, MigrationSpec, RetryClient,
    ShardRouter,
};
use std::cell::RefCell;
use std::rc::Rc;

fn build_group(
    w: &mut World,
    eng: &mut Engine<World>,
    replicas: Vec<HostId>,
) -> (hyperloop::GroupRef, HyperLoopClient) {
    let cfg = GroupConfig {
        client: HostId(0),
        replicas,
        rep_bytes: 256 << 10,
        ring_slots: 32,
        ..Default::default()
    };
    let group = GroupBuilder::new(cfg).build(w);
    replica::start_replenishers(&group, w, eng);
    let client = HyperLoopClient::new(group.clone(), w);
    (group, client)
}

#[test]
fn heartbeats_detect_link_failure() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(2 << 20).seed(3).build();
    let (group, _client) = build_group(&mut w, &mut eng, vec![HostId(1), HostId(2)]);

    let failures = Rc::new(RefCell::new(Vec::new()));
    let f2 = failures.clone();
    recovery::start_heartbeats(
        &group,
        HeartbeatConfig {
            period: SimDuration::from_millis(5),
            miss_threshold: 3,
        },
        Box::new(move |_w, _e, idx| f2.borrow_mut().push(idx)),
        &mut w,
        &mut eng,
    );

    // Healthy for 50 ms: no failures.
    eng.run_until(&mut w, SimTime::from_nanos(50_000_000));
    assert!(failures.borrow().is_empty());

    // Replica 1 (host 2) loses its link.
    w.fabric.set_link_down(HostId(2), true);
    eng.run_until(&mut w, SimTime::from_nanos(120_000_000));
    assert_eq!(
        *failures.borrow(),
        vec![1],
        "replica index 1 must be detected"
    );
}

#[test]
fn catch_up_copies_region_over_fabric() {
    let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(2 << 20).seed(3).build();
    // Source data on host 0.
    let src = w.host(HostId(0)).layout.alloc("src", 64 << 10, 64);
    let dst = w.host(HostId(1)).layout.alloc("dst", 64 << 10, 64);
    let pattern: Vec<u8> = (0..(64 << 10)).map(|i| (i % 251) as u8).collect();
    w.hosts[0].mem.write(src.addr, &pattern).unwrap();
    let mr = w.hosts[0]
        .nic
        .register_mr(src.addr, src.len, Access::REMOTE_READ);

    let done = Rc::new(RefCell::new(false));
    let d2 = done.clone();
    recovery::catch_up(
        &mut w,
        &mut eng,
        HostId(0),
        mr.rkey,
        src.addr,
        HostId(1),
        dst.addr,
        64 << 10,
        8 << 10,
        Box::new(move |_w, _e| *d2.borrow_mut() = true),
    );
    eng.run_until(&mut w, SimTime::from_nanos(500_000_000));
    assert!(*done.borrow(), "catch-up must complete");
    assert_eq!(
        w.hosts[1].mem.read_vec(dst.addr, 64 << 10).unwrap(),
        pattern
    );
}

/// Full recovery drill: writes flow; a replica dies; the failure is
/// detected; the chain is rebuilt over the survivor plus a fresh host;
/// all members converge to the client's state and writes resume.
#[test]
fn full_chain_recovery_drill() {
    let (mut w, mut eng) = ClusterBuilder::new(4).arena_size(4 << 20).seed(3).build();
    let (group, client) = build_group(&mut w, &mut eng, vec![HostId(1), HostId(2)]);

    // Write some committed data first.
    let acked = Rc::new(RefCell::new(0u32));
    for k in 0..10u64 {
        let a = acked.clone();
        client
            .gwrite(
                &mut w,
                &mut eng,
                k * 128,
                format!("record-{k:04}").as_bytes(),
                true,
                Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
            )
            .unwrap();
        let a2 = acked.clone();
        let want = k as u32 + 1;
        eng.run_while(&mut w, move |_| *a2.borrow() < want);
    }
    assert_eq!(*acked.borrow(), 10);

    // Wire failure handling: on detection, rebuild over the survivor
    // (host 1) plus the standby host 3.
    let new_client: Rc<RefCell<Option<HyperLoopClient>>> = Rc::new(RefCell::new(None));
    let nc2 = new_client.clone();
    let group2 = group.clone();
    let failures = Rc::new(RefCell::new(0u32));
    let f2 = failures.clone();
    recovery::start_heartbeats(
        &group,
        HeartbeatConfig {
            period: SimDuration::from_millis(5),
            miss_threshold: 3,
        },
        Box::new(move |w, eng, idx| {
            *f2.borrow_mut() += 1;
            assert_eq!(idx, 1, "host 2 is replica index 1");
            let nc3 = nc2.clone();
            recovery::rebuild_chain(
                w,
                eng,
                &group2,
                vec![HostId(1)],
                Some(HostId(3)),
                32,
                Box::new(move |_w, _e, client| {
                    *nc3.borrow_mut() = Some(client);
                }),
            );
        }),
        &mut w,
        &mut eng,
    );

    // Kill host 2.
    eng.schedule(SimDuration::from_millis(10), |w: &mut World, _| {
        w.fabric.set_link_down(HostId(2), true);
    });

    // Run until the new chain is up.
    let nc_probe = new_client.clone();
    eng.run_while(&mut w, move |_| nc_probe.borrow().is_none());
    assert_eq!(*failures.borrow(), 1);
    let client2 = new_client.borrow().clone().unwrap();

    // The old group is paused.
    assert!(group.borrow().paused);

    // Every new member already has the pre-failure data (caught up from
    // the client's authoritative copy).
    {
        let g2 = client2.group().borrow();
        for i in 0..g2.n_replicas() {
            let host = g2.cfg.replicas[i];
            let addr = g2.replica_rep[i].at(0);
            assert_eq!(
                w.hosts[host.0].mem.read(addr, 11).unwrap(),
                b"record-0000",
                "member {i} caught up"
            );
        }
    }

    // Writes resume on the new chain.
    let resumed = Rc::new(RefCell::new(0u32));
    let r2 = resumed.clone();
    client2
        .gwrite(
            &mut w,
            &mut eng,
            2048,
            b"post-recovery",
            true,
            Box::new(move |_w, _e, _r| *r2.borrow_mut() += 1),
        )
        .unwrap();
    eng.run_until(
        &mut w,
        SimTime::from_nanos(eng.now().as_nanos() + 50_000_000),
    );
    assert_eq!(*resumed.borrow(), 1);
    // The new tail (host 3) has the new write, durable.
    {
        let g2 = client2.group().borrow();
        let i = g2.n_replicas() - 1;
        let addr = g2.replica_rep[i].at(2048);
        let host = g2.cfg.replicas[i];
        assert_eq!(
            w.hosts[host.0].mem.read(addr, 13).unwrap(),
            b"post-recovery"
        );
        assert!(w.hosts[host.0].mem.is_durable(addr, 13));
    }
}

/// A transient link flap shorter than `miss_threshold` consecutive
/// heartbeat periods must NOT be reported as a failure: the miss counter
/// resets as soon as a pong arrives again.
#[test]
fn transient_flap_below_threshold_is_tolerated() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(2 << 20).seed(5).build();
    let (group, _client) = build_group(&mut w, &mut eng, vec![HostId(1), HostId(2)]);

    let failures = Rc::new(RefCell::new(Vec::new()));
    let f2 = failures.clone();
    recovery::start_heartbeats(
        &group,
        HeartbeatConfig {
            period: SimDuration::from_millis(5),
            miss_threshold: 3,
        },
        Box::new(move |_w, _e, idx| f2.borrow_mut().push(idx)),
        &mut w,
        &mut eng,
    );

    // Two heartbeat periods of outage (< 3 consecutive misses), then heal.
    eng.run_until(&mut w, SimTime::from_nanos(50_000_000));
    w.fabric.set_link_down(HostId(2), true);
    eng.run_until(&mut w, SimTime::from_nanos(58_000_000));
    w.fabric.set_link_down(HostId(2), false);

    // Run long after; repeated sub-threshold flaps must stay silent too.
    eng.run_until(&mut w, SimTime::from_nanos(200_000_000));
    w.fabric.set_link_down(HostId(2), true);
    eng.run_until(&mut w, SimTime::from_nanos(208_000_000));
    w.fabric.set_link_down(HostId(2), false);
    eng.run_until(&mut w, SimTime::from_nanos(400_000_000));

    assert!(
        failures.borrow().is_empty(),
        "sub-threshold flaps must not trigger failure: {:?}",
        failures.borrow()
    );
}

/// Once a replica is declared failed the detector latches: the callback
/// fires exactly once, and the surviving replica keeps being monitored
/// (a later real failure of the survivor is still reported).
#[test]
fn failure_report_is_single_shot_and_survivors_stay_monitored() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(2 << 20).seed(6).build();
    let (group, _client) = build_group(&mut w, &mut eng, vec![HostId(1), HostId(2)]);

    let failures = Rc::new(RefCell::new(Vec::new()));
    let f2 = failures.clone();
    recovery::start_heartbeats(
        &group,
        HeartbeatConfig {
            period: SimDuration::from_millis(5),
            miss_threshold: 3,
        },
        Box::new(move |_w, _e, idx| f2.borrow_mut().push(idx)),
        &mut w,
        &mut eng,
    );

    // Kill replica index 1 (host 2) permanently.
    eng.run_until(&mut w, SimTime::from_nanos(20_000_000));
    w.fabric.set_link_down(HostId(2), true);
    eng.run_until(&mut w, SimTime::from_nanos(300_000_000));
    assert_eq!(*failures.borrow(), vec![1], "exactly one report for idx 1");

    // Now replica index 0 (host 1) dies too; it must also be reported.
    w.fabric.set_link_down(HostId(1), true);
    eng.run_until(&mut w, SimTime::from_nanos(600_000_000));
    assert_eq!(*failures.borrow(), vec![1, 0]);
}

/// A chain over `replicas` whose replenishers wake every 50 µs.
fn idle_chain(
    w: &mut World,
    eng: &mut Engine<World>,
    client: usize,
    replicas: &[usize],
) -> hyperloop::GroupRef {
    let group = GroupBuilder::new(chain_cfg(client, replicas)).build(w);
    replica::start_replenishers(&group, w, eng);
    group
}

fn chain_cfg(client: usize, replicas: &[usize]) -> GroupConfig {
    GroupConfig {
        client: HostId(client),
        replicas: replicas.iter().map(|&h| HostId(h)).collect(),
        rep_bytes: 64 << 10,
        ring_slots: 32,
        ..Default::default()
    }
}

/// Run until `done` is set, then 10 ms more; what each of `hosts` spent
/// on re-posting in those 10 ms.
fn replenish_ns_after(
    done: &Rc<RefCell<bool>>,
    hosts: &[usize],
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<u64> {
    let probe = done.clone();
    eng.run_while(w, move |_| !*probe.borrow());
    let cpu = |w: &World| -> Vec<u64> {
        hosts
            .iter()
            .map(|&h| w.hosts[h].cpu.busy_ns_by_prefix("hl-replenish"))
            .collect()
    };
    let before = cpu(w);
    eng.run_until(w, SimTime::from_nanos(eng.now().as_nanos() + 10_000_000));
    cpu(w).iter().zip(&before).map(|(a, b)| a - b).collect()
}

/// A rebuild retires the old group at its commit: the wake-ups of its
/// replenishers and its client's ACK dispatchers are unsubscribed, and
/// they held it only weakly, so once the application drops the old
/// client nothing keeps the group, its rings and its regions alive.
/// Over 10 ms of idling afterwards the old replenishers spend nothing:
/// the dropped member (host 2) nothing at all, the survivor (host 1)
/// what the new member (host 3) does.
#[test]
fn a_rebuild_releases_the_replaced_group() {
    let (mut w, mut eng) = ClusterBuilder::new(4).arena_size(4 << 20).seed(3).build();
    let group = idle_chain(&mut w, &mut eng, 0, &[1, 2]);
    let client = HyperLoopClient::new(group.clone(), &mut w);
    eng.run_until(&mut w, SimTime::from_nanos(1_000_000));

    let done = Rc::new(RefCell::new(false));
    let d = done.clone();
    recovery::rebuild_chain(
        &mut w,
        &mut eng,
        &group,
        vec![HostId(1)],
        Some(HostId(3)),
        32,
        Box::new(move |_, _, _| *d.borrow_mut() = true),
    );
    let spent = replenish_ns_after(&done, &[1, 2, 3], &mut w, &mut eng);
    let [survivor, dropped, new] = spent[..] else {
        unreachable!()
    };
    assert!(group.borrow().paused);
    assert_eq!(dropped, 0, "the old replenisher woke");
    assert_eq!(survivor, new, "survivor {survivor} ns, new member {new} ns");

    let replaced = Rc::downgrade(&group);
    drop((group, client));
    assert!(
        replaced.upgrade().is_none(),
        "the replaced group outlived its last client: {} strong handles",
        replaced.strong_count()
    );
}

/// The other reconfigurations that replace an offloaded group retire it
/// too: degrade-to-Naïve, the live cutover (re-promotion, rejoin) and a
/// shard merge's victim. After each, the replaced chain's replica hosts
/// spend nothing on its replenishers, and once the test lets go of its
/// own handle the degraded group is freed.
#[test]
fn degrade_cutover_and_merge_stop_the_replaced_groups_replenishers() {
    let (mut w, mut eng) = ClusterBuilder::new(7).arena_size(4 << 20).seed(3).build();
    let done = Rc::new(RefCell::new(false));
    let set = |done: &Rc<RefCell<bool>>| {
        *done.borrow_mut() = false;
        let d = done.clone();
        move || *d.borrow_mut() = true
    };

    // Degrade: the Naïve chain over hosts 1 and 2 has no replenisher.
    let group = idle_chain(&mut w, &mut eng, 0, &[1, 2]);
    let retry = RetryClient::new(HyperLoopClient::new(group.clone(), &mut w));
    eng.run_until(&mut w, SimTime::from_nanos(1_000_000));
    let (r, fire) = (retry.clone(), set(&done));
    recovery::degrade_to_naive(
        &group,
        &mut w,
        &mut eng,
        Mode::Event,
        Box::new(move |_, _, naive| {
            r.swap_naive(naive);
            fire();
        }),
    );
    let spent = replenish_ns_after(&done, &[1, 2], &mut w, &mut eng);
    assert_eq!(spent, [0, 0], "after the degrade");
    let degraded = Rc::downgrade(&group);
    drop(group);
    assert!(
        degraded.upgrade().is_none(),
        "the degraded group is still held"
    );

    // Re-promote onto hosts 1 and 2, then cut over to hosts 1 and 3: the
    // replaced chain's host 2 goes quiet, host 1 runs one replenisher.
    for replicas in [[1, 2], [1, 3]] {
        let fire = set(&done);
        live_cutover(
            &retry,
            chain_cfg(0, &replicas),
            &mut w,
            &mut eng,
            Box::new(move |_, _, _| fire()),
        );
        let probe = done.clone();
        eng.run_while(&mut w, move |_| !*probe.borrow());
    }
    let spent = replenish_ns_after(&done, &[1, 2, 3], &mut w, &mut eng);
    assert_eq!(spent[1], 0, "after the cutover: {spent:?}");
    assert_eq!(spent[0], spent[2], "after the cutover: {spent:?}");

    // Merge shard 1 (hosts 4, 5, 6) into shard 0.
    let victim = idle_chain(&mut w, &mut eng, 4, &[5, 6]);
    let router = ShardRouter::new(vec![
        retry,
        RetryClient::new(HyperLoopClient::new(victim, &mut w)),
    ]);
    let fire = set(&done);
    merge_live(
        &router,
        0,
        vec![(0, 4096)],
        MigrationSpec::default(),
        &mut w,
        &mut eng,
        Box::new(move |_, _| fire()),
    );
    let spent = replenish_ns_after(&done, &[5, 6], &mut w, &mut eng);
    assert_eq!(spent, [0, 0], "after the merge");
}
