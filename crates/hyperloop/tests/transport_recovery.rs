//! Transport-level fault tolerance: NIC error machinery driving chain
//! recovery, deadline supervision, and graceful degradation.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::{HostId, Impairment};
use hl_sim::{Engine, SimDuration, SimTime};
use hyperloop::api::GroupClient;
use hyperloop::recovery::{self};
use hyperloop::{
    naive, replica, DeadlinePolicy, GroupBuilder, GroupConfig, GroupRef, HyperLoopClient, OpError,
    RetryClient,
};
use std::cell::RefCell;
use std::rc::Rc;

fn setup(seed: u64) -> (World, Engine<World>, GroupRef, HyperLoopClient) {
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size(2 << 20)
        .seed(seed)
        .build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 256 << 10,
        ring_slots: 32,
        transport_timeout: Some((SimDuration::from_micros(100), 3)),
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group.clone(), &mut w);
    (w, eng, group, client)
}

/// A gWRITE caught mid-flight by a dead head-replica NIC: the client's
/// reliable QP exhausts its retry budget, the error CQE triggers a
/// rebuild onto the standby, and the deadline supervisor re-issues the
/// op on the new chain — the caller sees a plain ACK.
#[test]
fn nic_stall_error_cqe_rebuilds_and_reissues() {
    let (mut w, mut eng, group, client) = setup(70);
    let retry = RetryClient::with_policy(
        client,
        DeadlinePolicy {
            deadline: SimDuration::from_millis(1),
            max_attempts: 20,
            backoff: SimDuration::from_micros(200),
            backoff_cap: SimDuration::from_millis(2),
        },
    );

    // A few records land while the chain is healthy.
    let warm = Rc::new(RefCell::new(0));
    for k in 0..4u64 {
        let warm = warm.clone();
        retry.gwrite(
            &mut w,
            &mut eng,
            k * 64,
            format!("warm-{k}").as_bytes(),
            true,
            Box::new(move |_w, _e, r| {
                assert!(r.is_ok());
                *warm.borrow_mut() += 1;
            }),
        );
    }
    let warm2 = warm.clone();
    eng.run_while(&mut w, move |_| *warm2.borrow() < 4);

    let rebuilt = Rc::new(RefCell::new(false));
    {
        let retry = retry.clone();
        let rebuilt = rebuilt.clone();
        recovery::rebuild_on_cq_error(
            &group,
            &mut w,
            vec![HostId(2)],
            Some(HostId(3)),
            32,
            Box::new(move |_w, _eng, new_client| {
                *rebuilt.borrow_mut() = true;
                retry.swap(new_client);
            }),
        );
    }

    // The head replica's NIC dies for good, with the next write issued
    // straight into the outage.
    w.set_nic_stalled(HostId(1), true, &mut eng);
    let acked = Rc::new(RefCell::new(false));
    {
        let acked = acked.clone();
        retry.gwrite(
            &mut w,
            &mut eng,
            4 * 64,
            b"survives-the-stall",
            true,
            Box::new(move |_w, _e, r| {
                r.expect("supervised write must complete after rebuild");
                *acked.borrow_mut() = true;
            }),
        );
    }
    let a = acked.clone();
    assert!(
        eng.run_while(&mut w, move |_| !*a.borrow()),
        "engine drained before the supervised write settled"
    );
    assert!(*rebuilt.borrow(), "CQ error did not trigger the rebuild");

    // The record (and the warm-up history) is on every member of the
    // rebuilt chain, which excludes the dead replica.
    let c = retry.client();
    assert_eq!(c.group_size(), 3);
    for m in 0..c.group_size() {
        let host = c.member_host(m);
        assert_ne!(host, HostId(1));
        let got = w.hosts[host.0]
            .mem
            .read_vec(c.member_addr(m, 4 * 64), 18)
            .unwrap();
        assert_eq!(got, b"survives-the-stall", "member {m}");
        let got = w.hosts[host.0]
            .mem
            .read_vec(c.member_addr(m, 0), 6)
            .unwrap();
        assert_eq!(got, b"warm-0", "member {m} lost warm-up history");
    }
    assert_eq!(retry.outstanding(), 0);
}

/// With no recovery armed and the head unreachable, a supervised write
/// burns its whole attempt budget and fails *typed* — it never hangs.
#[test]
fn deadline_exceeded_is_typed_not_a_hang() {
    let (mut w, mut eng, _group, client) = setup(71);
    let retry = RetryClient::with_policy(
        client,
        DeadlinePolicy {
            deadline: SimDuration::from_micros(500),
            max_attempts: 4,
            backoff: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_micros(400),
        },
    );
    // Nothing reaches the head, in either direction.
    w.fabric.partition(HostId(0), HostId(1));
    w.fabric.partition(HostId(1), HostId(0));

    let outcome = Rc::new(RefCell::new(None));
    {
        let outcome = outcome.clone();
        retry.gwrite(
            &mut w,
            &mut eng,
            0,
            b"into-the-void",
            true,
            Box::new(move |_w, _e, r| *outcome.borrow_mut() = Some(r)),
        );
    }
    eng.run_until(&mut w, SimTime::from_nanos(100_000_000));
    match outcome.borrow().as_ref() {
        Some(Err(OpError::DeadlineExceeded { attempts: 4 })) => {}
        other => panic!("expected typed deadline failure, got {other:?}"),
    }
    assert_eq!(retry.outstanding(), 0);
    assert_eq!(
        retry.failures(),
        vec![OpError::DeadlineExceeded { attempts: 4 }]
    );
}

/// A wedged WAIT engine (packets flow, parked chains never fire) is the
/// case reliability retries cannot fix: the group degrades to Naive-CPU
/// forwarding over the same members, seeded from the client's copy, and
/// writes keep completing.
#[test]
fn wait_stall_degrades_to_naive_forwarding() {
    let (mut w, mut eng, group, client) = setup(72);

    let warm = Rc::new(RefCell::new(0));
    for k in 0..3u64 {
        let warm = warm.clone();
        client
            .gwrite(
                &mut w,
                &mut eng,
                k * 64,
                format!("pre-{k}").as_bytes(),
                true,
                Box::new(move |_w, _e, _r| *warm.borrow_mut() += 1),
            )
            .unwrap();
    }
    let warm2 = warm.clone();
    eng.run_while(&mut w, move |_| *warm2.borrow() < 3);

    // The head's WAIT engine wedges: its NIC still moves packets, but
    // no deferred chain will ever fire again.
    w.set_nic_wait_stalled(HostId(1), true, &mut eng);

    let degraded: Rc<RefCell<Option<naive::NaiveClient>>> = Rc::new(RefCell::new(None));
    {
        let degraded = degraded.clone();
        recovery::degrade_to_naive(
            &group,
            &mut w,
            &mut eng,
            naive::Mode::Event,
            Box::new(move |_w, _eng, nc| *degraded.borrow_mut() = Some(nc)),
        );
    }
    let d = degraded.clone();
    assert!(
        eng.run_while(&mut w, move |_| d.borrow().is_none()),
        "degradation never completed"
    );
    let nc = degraded.borrow_mut().take().unwrap();

    // The naive chain was seeded with the pre-fault history.
    for m in 0..nc.group_size() {
        let host = nc.member_host(m);
        let got = w.hosts[host.0]
            .mem
            .read_vec(nc.member_addr(m, 0), 5)
            .unwrap();
        assert_eq!(got, b"pre-0", "member {m} missing seeded history");
    }

    // And it makes progress on the very NIC whose offload path is dead.
    let acked = Rc::new(RefCell::new(false));
    {
        let acked = acked.clone();
        nc.gwrite(
            &mut w,
            &mut eng,
            3 * 64,
            b"degraded-write",
            true,
            Box::new(move |_w, _e, _r| *acked.borrow_mut() = true),
        )
        .unwrap();
    }
    let a = acked.clone();
    assert!(
        eng.run_while(&mut w, move |_| !*a.borrow()),
        "degraded write never completed"
    );
    for m in 0..nc.group_size() {
        let host = nc.member_host(m);
        let got = w.hosts[host.0]
            .mem
            .read_vec(nc.member_addr(m, 3 * 64), 14)
            .unwrap();
        assert_eq!(got, b"degraded-write", "member {m}");
    }
}

/// A miniature of the benchmark's `lossy_chain`: 1 KiB flushed gWRITEs
/// through a `RetryClient`, 16 outstanding, with 2 % loss on the client's
/// hop to the head replica and a 200 µs transport timeout. The NIC
/// repairs a lost request at NIC speed — the request behind it draws a
/// PSN-sequence-error NAK and the client's NIC goes back N at once — so
/// the median op never waits for the ack timer, NAKs repair more gaps
/// than timeouts do, and every ACKed write is durable on every member
/// when its ACK arrives. Repaired by the timer alone, the median op
/// takes about 270 µs.
#[test]
fn lossy_chain_repairs_loss_at_nic_speed() {
    const OPS: u64 = 5_000;
    const OUTSTANDING: u64 = 16;
    const SLOTS: u64 = 64;
    const WRITE: usize = 1024;
    const ACK_TIMEOUT: SimDuration = SimDuration::from_micros(200);
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(2 << 20).seed(42).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: SLOTS * WRITE as u64,
        ring_slots: 256,
        transport_timeout: Some((ACK_TIMEOUT, 7)),
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let retry = RetryClient::with_policy(
        HyperLoopClient::new(group, &mut w),
        DeadlinePolicy {
            deadline: SimDuration::from_micros(1000),
            max_attempts: 10,
            backoff: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_micros(1000),
        },
    );
    w.fabric
        .set_impairment(HostId(0), HostId(1), Impairment::loss(0.02));

    #[derive(Default)]
    struct Load {
        issued: u64,
        latencies: Vec<u64>,
    }
    fn payload(k: u64) -> Vec<u8> {
        (0..WRITE)
            .map(|i| (k as u8).wrapping_add(i as u8))
            .collect()
    }
    // Issue until `OUTSTANDING` are in flight; each ACK checks its write
    // on every member and issues the next. At most 16 ops are ever in
    // flight, so no two of them share one of the 64 slots.
    fn pump(st: &Rc<RefCell<Load>>, retry: &RetryClient, w: &mut World, eng: &mut Engine<World>) {
        loop {
            let k = {
                let s = st.borrow();
                if s.issued == OPS || s.issued - s.latencies.len() as u64 == OUTSTANDING {
                    return;
                }
                s.issued
            };
            st.borrow_mut().issued += 1;
            let (st2, r2, start) = (st.clone(), retry.clone(), eng.now());
            let offset = k % SLOTS * WRITE as u64;
            retry.gwrite(
                w,
                eng,
                offset,
                &payload(k),
                true,
                Box::new(move |w, eng, r| {
                    assert!(r.is_ok(), "op {k} failed: {r:?}");
                    let c = r2.backend();
                    for m in 0..c.group_size() {
                        let (host, addr) = (c.member_host(m), c.member_addr(m, offset));
                        let mem = &w.hosts[host.0].mem;
                        assert_eq!(
                            mem.read(addr, WRITE).unwrap(),
                            payload(k),
                            "op {k}, member {m}"
                        );
                        assert!(
                            mem.is_durable(addr, WRITE),
                            "op {k} ACKed before durable on member {m}"
                        );
                    }
                    let now = eng.now().as_nanos();
                    st2.borrow_mut().latencies.push(now - start.as_nanos());
                    pump(&st2, &r2, w, eng);
                }),
            );
        }
    }
    let st = Rc::new(RefCell::new(Load::default()));
    pump(&st, &retry, &mut w, &mut eng);
    let probe = st.clone();
    assert!(
        eng.run_while(&mut w, move |_| (probe.borrow().latencies.len() as u64)
            < OPS)
    );

    let mut lat = std::mem::take(&mut st.borrow_mut().latencies);
    lat.sort_unstable();
    let p50 = lat[lat.len() / 2];
    let counter = |f: fn(&hl_rnic::NicCounters) -> u64| -> u64 {
        w.hosts.iter().map(|h| f(h.nic.counters())).sum()
    };
    let (naks, timeouts) = (counter(|c| c.naks_sent), counter(|c| c.timeouts));
    println!("lossy_chain: p50 {p50} ns, {naks} NAKs, {timeouts} timeouts over {OPS} ops");
    assert!(
        p50 < ACK_TIMEOUT.as_nanos(),
        "median op {p50} ns: it waited for the ack timer"
    );
    assert!(
        naks > timeouts,
        "{naks} NAKs against {timeouts} timeouts: the timer repairs most gaps"
    );
}
