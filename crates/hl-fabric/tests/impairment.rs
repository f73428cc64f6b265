//! The gray-failure impairment engine: per-pair and per-host netem-style
//! specs (delay, jitter, loss, token-bucket rate, reorder, duplication),
//! their stacking rules, determinism, and bystander isolation.

use hl_fabric::{Delivery, Fabric, HostId, Impairment};
use hl_sim::config::NetProfile;
use hl_sim::{RngFactory, SimDuration, SimTime};

fn fabric(n: usize) -> Fabric {
    Fabric::new(n, NetProfile::default())
}

fn at(d: Delivery) -> SimTime {
    match d {
        Delivery::At(t) => t,
        other => panic!("expected At, got {other:?}"),
    }
}

// 64 B at the default profile: serialization is sub-propagation; the
// unimpaired delivery for (0 → 1, 1 hop) lands at a fixed baseline.
fn baseline(f: &mut Fabric) -> SimTime {
    at(f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0))
}

#[test]
fn pair_delay_shifts_delivery_exactly() {
    let mut f = fabric(3);
    let base = baseline(&mut f);
    let mut g = fabric(3);
    g.set_impairment(
        HostId(0),
        HostId(1),
        Impairment::delay(SimDuration::from_micros(50), SimDuration::ZERO),
    );
    let t = at(g.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0));
    assert_eq!(t.as_nanos(), base.as_nanos() + 50_000);
}

#[test]
fn pair_impairment_does_not_touch_bystanders() {
    let mut f = fabric(3);
    let base01 = baseline(&mut f);
    let base02 = at(f.send(SimTime::ZERO, HostId(0), HostId(2), 64, 1.0));
    let mut g = fabric(3);
    g.set_impairment(
        HostId(0),
        HostId(1),
        Impairment::delay(SimDuration::from_micros(50), SimDuration::ZERO),
    );
    let t01 = at(g.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0));
    let t02 = at(g.send(SimTime::ZERO, HostId(0), HostId(2), 64, 1.0));
    assert!(t01 > base01);
    assert_eq!(t02, base02, "bystander pair must be byte-identical");
}

#[test]
fn host_impairment_hits_ingress_and_egress() {
    let mut f = fabric(3);
    f.set_host_impairment(
        HostId(1),
        Impairment::delay(SimDuration::from_micros(10), SimDuration::ZERO),
    );
    let mut clean = fabric(3);
    let b01 = at(clean.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0));
    let b10 = at(clean.send(SimTime::ZERO, HostId(1), HostId(0), 64, 1.0));
    let b02 = at(clean.send(SimTime::ZERO, HostId(0), HostId(2), 64, 1.0));
    let t01 = at(f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0));
    let t10 = at(f.send(SimTime::ZERO, HostId(1), HostId(0), 64, 1.0));
    let t02 = at(f.send(SimTime::ZERO, HostId(0), HostId(2), 64, 1.0));
    assert_eq!(t01.as_nanos(), b01.as_nanos() + 10_000, "ingress delayed");
    assert_eq!(t10.as_nanos(), b10.as_nanos() + 10_000, "egress delayed");
    assert_eq!(t02, b02, "paths avoiding the straggler untouched");
}

#[test]
fn jitter_is_seeded_deterministic_and_fifo_preserving() {
    let run = |seed: u64| -> Vec<u64> {
        let mut f = fabric(2);
        f.set_impairment_rng(RngFactory::new(seed).stream("fabric-impair"));
        f.set_impairment(
            HostId(0),
            HostId(1),
            Impairment::delay(SimDuration::ZERO, SimDuration::from_micros(20)),
        );
        (0..64)
            .map(|i| {
                let now = SimTime::from_nanos(i * 1000);
                at(f.send(now, HostId(0), HostId(1), 64, 1.0)).as_nanos()
            })
            .collect()
    };
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a, b, "same seed, same jitter draws");
    assert_ne!(a, c, "different seed, different jitter");
    // FIFO clamp: deliveries never regress even when a later message
    // drew less jitter.
    for w in a.windows(2) {
        assert!(w[1] >= w[0], "jittered deliveries must stay monotone");
    }
}

#[test]
fn loss_drops_the_configured_fraction_and_counts() {
    let mut f = fabric(2);
    f.set_impairment_rng(RngFactory::new(3).stream("fabric-impair"));
    f.set_impairment(HostId(0), HostId(1), Impairment::loss(0.3));
    let n = 4000;
    let mut dropped = 0;
    for _ in 0..n {
        if f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0) == Delivery::Dropped {
            dropped += 1;
        }
    }
    let rate = dropped as f64 / n as f64;
    assert!(
        (0.26..=0.34).contains(&rate),
        "loss rate {rate} far from configured 0.3"
    );
    assert_eq!(f.impaired_drops(), dropped);
    assert_eq!(f.drops(), dropped);
}

#[test]
fn per_link_drop_prob_is_directed_and_isolated() {
    let mut f = fabric(3);
    f.set_link_drop_prob(HostId(0), HostId(1), 1.0);
    assert_eq!(
        f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 0.5),
        Delivery::Dropped
    );
    // Reverse direction and bystander pair unaffected.
    assert!(matches!(
        f.send(SimTime::ZERO, HostId(1), HostId(0), 64, 0.5),
        Delivery::At(_)
    ));
    assert!(matches!(
        f.send(SimTime::ZERO, HostId(0), HostId(2), 64, 0.5),
        Delivery::At(_)
    ));
    f.set_link_drop_prob(HostId(0), HostId(1), 0.0);
    assert!(matches!(
        f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 0.5),
        Delivery::At(_)
    ));
}

#[test]
fn link_drop_combines_with_global_as_independent_events() {
    let mut f = fabric(2);
    f.set_drop_prob(0.5);
    f.set_link_drop_prob(HostId(0), HostId(1), 0.5);
    // Combined p = 1 - 0.5*0.5 = 0.75.
    assert_eq!(
        f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 0.74),
        Delivery::Dropped
    );
    assert!(matches!(
        f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 0.76),
        Delivery::At(_)
    ));
}

#[test]
fn rate_limit_serializes_past_the_burst() {
    let mut f = fabric(2);
    // 8 Mbit/s with a 1 KiB bucket: the first 1 KiB flies, after that
    // each 1000-byte message costs 1 ms of token refill.
    f.set_impairment(HostId(0), HostId(1), Impairment::rate(8_000_000, 1024));
    let t1 = at(f.send(SimTime::ZERO, HostId(0), HostId(1), 1000, 1.0));
    let t2 = at(f.send(SimTime::ZERO, HostId(0), HostId(1), 1000, 1.0));
    let t3 = at(f.send(SimTime::ZERO, HostId(0), HostId(1), 1000, 1.0));
    // First message is within the burst: no extra wait beyond the wire.
    let mut clean = fabric(2);
    let base = at(clean.send(SimTime::ZERO, HostId(0), HostId(1), 1000, 1.0));
    assert_eq!(t1, base);
    // Subsequent messages pace at ~1 ms per 1000 B (token-bucket wait).
    assert!(
        t2.as_nanos() >= t1.as_nanos() + 900_000,
        "second message must wait for tokens: {} vs {}",
        t2.as_nanos(),
        t1.as_nanos()
    );
    assert!(t3.as_nanos() >= t2.as_nanos() + 900_000);
}

#[test]
fn reorder_overtakes_and_duplicate_delivers_twice() {
    let mut f = fabric(2);
    f.set_impairment_rng(RngFactory::new(11).stream("fabric-impair"));
    f.set_impairment(
        HostId(0),
        HostId(1),
        Impairment {
            delay: SimDuration::from_micros(100),
            reorder: 0.25,
            ..Default::default()
        },
    );
    let mut times = Vec::new();
    for i in 0..200u64 {
        let now = SimTime::from_nanos(i * 10_000);
        times.push(at(f.send(now, HostId(0), HostId(1), 64, 1.0)));
    }
    let overtakes = times.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(overtakes > 0, "reorder knob must produce overtakes");

    let mut g = fabric(2);
    g.set_impairment_rng(RngFactory::new(11).stream("fabric-impair"));
    g.set_impairment(
        HostId(0),
        HostId(1),
        Impairment {
            duplicate: 1.0,
            ..Default::default()
        },
    );
    match g.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0) {
        Delivery::Duplicated(a, b) => assert!(b > a, "copy arrives strictly later"),
        other => panic!("expected duplication, got {other:?}"),
    }
}

#[test]
fn probabilistic_knobs_are_inert_without_rng() {
    let mut f = fabric(2);
    f.set_impairment(
        HostId(0),
        HostId(1),
        Impairment {
            loss: 1.0,
            duplicate: 1.0,
            reorder: 1.0,
            delay: SimDuration::from_micros(5),
            ..Default::default()
        },
    );
    // No stream installed: loss/duplicate/reorder are off, delay still
    // applies.
    let mut clean = fabric(2);
    let base = at(clean.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0));
    let t = at(f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0));
    assert_eq!(t.as_nanos(), base.as_nanos() + 5_000);
}

#[test]
fn stack_composes_knobs() {
    let a = Impairment {
        delay: SimDuration::from_micros(10),
        jitter: SimDuration::from_micros(2),
        loss: 0.1,
        rate_bps: Some(1_000_000),
        burst_bytes: 2048,
        ..Default::default()
    };
    let b = Impairment {
        delay: SimDuration::from_micros(5),
        loss: 0.2,
        rate_bps: Some(500_000),
        burst_bytes: 4096,
        duplicate: 0.5,
        ..Default::default()
    };
    let s = a.stack(&b);
    assert_eq!(s.delay, SimDuration::from_micros(15));
    assert_eq!(s.jitter, SimDuration::from_micros(2));
    assert!((s.loss - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
    assert_eq!(s.rate_bps, Some(500_000));
    assert_eq!(s.burst_bytes, 2048, "smaller burst wins");
    assert_eq!(s.duplicate, 0.5);
}

#[test]
fn clearing_restores_unimpaired_timing() {
    let mut f = fabric(2);
    let base = baseline(&mut f);
    f.set_impairment(
        HostId(0),
        HostId(1),
        Impairment::delay(SimDuration::from_micros(30), SimDuration::ZERO),
    );
    let slow = at(f.send(SimTime::from_nanos(10_000), HostId(0), HostId(1), 64, 1.0));
    assert!(slow.as_nanos() > base.as_nanos() + 10_000);
    f.clear_impairment(HostId(0), HostId(1));
    f.set_host_impairment(HostId(0), Impairment::default());
    assert!(!f.is_impaired(HostId(0), HostId(1)));
    // A send far past the impaired window is purely wire-timed again.
    let now = SimTime::from_nanos(10_000_000);
    let t = at(f.send(now, HostId(0), HostId(1), 64, 1.0));
    assert_eq!(t.as_nanos() - now.as_nanos(), base.as_nanos());
}

/// A message sent just after an impairment heals queues behind the
/// ones the impairment still holds: RC's in-order delivery survives a
/// heal, for a pair impairment and for a host impairment alike.
#[test]
fn a_heal_does_not_let_the_next_message_overtake() {
    for host_scope in [false, true] {
        let mut f = fabric(2);
        f.enable_fifo_audit();
        f.set_impairment_rng(RngFactory::new(3).stream("fabric-impair"));
        let slow = Impairment::delay(SimDuration::from_millis(10), SimDuration::from_millis(25));
        if host_scope {
            f.set_host_impairment(HostId(1), slow);
        } else {
            f.set_impairment(HostId(0), HostId(1), slow);
        }
        let held = at(f.send(SimTime::ZERO, HostId(0), HostId(1), 64, 1.0));
        if host_scope {
            f.clear_host_impairment(HostId(1));
        } else {
            f.clear_impairment(HostId(0), HostId(1));
        }
        let next = at(f.send(SimTime::from_nanos(1_000), HostId(0), HostId(1), 64, 1.0));
        assert!(
            next >= held,
            "host scope {host_scope}: delivery at {next} overtakes {held}"
        );
        assert!(f.order_violations().is_empty());
    }
}

/// The auditor is a switch: off, it has nothing to report and says so.
#[test]
#[should_panic(expected = "FIFO audit is off")]
fn order_violations_of_an_unaudited_fabric_panic() {
    fabric(2).order_violations();
}
