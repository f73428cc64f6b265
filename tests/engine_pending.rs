//! Regression tests for dead-timer churn.
//!
//! Every reliable-QP transmit arms a retransmit timer. Before cancel
//! tokens, a completed op's timer stayed in the event queue as a dead
//! entry until it fired as a stale no-op — so the pending-event count
//! grew with the op rate times the 3ms timeout window. With
//! `NicOutput::CancelTimer` + `Engine::cancel`, a drained QP removes
//! its timer immediately and the queue stays flat.
//!
//! The assertion is differential: a 6x longer workload must not raise
//! the high-water pending-event mark by more than a small constant. If
//! dead timers ever leak again, the long run's mark grows by roughly
//! one entry per completed op (hundreds here) and this fails loudly.
//!
//! The supervision layer has the same shape one level up: every
//! `RetryClient` attempt arms a deadline (2 ms by default), and an op
//! that ACKs cancels it when it settles. The second test drives a
//! closed loop through `RetryClient` and asserts its high-water mark
//! depends neither on the ops run nor on the deadline (CI prints its
//! `retry_pending:` line).

use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::{
    replica, DeadlinePolicy, GroupBuilder, GroupConfig, HyperLoopClient, RetryClient,
};
use hyperloop_repro::sim::{Engine, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Drive `ops` sequential durable gWRITEs on a 2-replica chain with the
/// retransmit timeout armed, returning the high-water pending-event
/// mark sampled at every op completion, plus the quiescent count.
fn pending_marks(ops: usize) -> (usize, usize) {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(2 << 20).seed(7).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 256 << 10,
        ring_slots: 64,
        // Arm the per-transmit retransmit timer (the churn source).
        transport_timeout: Some((SimDuration::from_millis(3), 7)),
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = Rc::new(HyperLoopClient::new(group, &mut w));

    let done = Rc::new(RefCell::new(0usize));
    let mut max_pending = 0usize;
    for k in 0..ops {
        let d = done.clone();
        client
            .gwrite(
                &mut w,
                &mut eng,
                (k as u64 % 512) * 64,
                format!("pending-{k:04}").as_bytes(),
                true,
                Box::new(move |_w, _e, _r| *d.borrow_mut() += 1),
            )
            .unwrap();
        let d2 = done.clone();
        let want = k + 1;
        eng.run_while(&mut w, move |_| *d2.borrow() < want);
        max_pending = max_pending.max(eng.pending());
    }
    assert_eq!(*done.borrow(), ops, "ops left unfinished");
    // Let in-flight chain internals (trailing ACKs, replenish credits)
    // settle; heartbeat machinery keeps a small steady set.
    let end = eng.now() + SimDuration::from_millis(10);
    eng.run_until(&mut w, end);
    (max_pending, eng.pending())
}

#[test]
fn pending_events_stay_bounded_under_sustained_reliable_traffic() {
    let (short_max, short_idle) = pending_marks(60);
    let (long_max, long_idle) = pending_marks(360);
    // 6x the ops completed inside one 3ms timeout window: leaked dead
    // timers would add ~one pending entry per extra op (~300 here).
    // The +16 margin absorbs scheduling jitter in the steady set.
    assert!(
        long_max <= short_max + 16,
        "pending-event high-water mark grew with op count \
         ({short_max} @ 60 ops -> {long_max} @ 360 ops): dead timers are leaking"
    );
    // Quiescent queues must be flat too, not draining a timer backlog.
    assert!(
        long_idle <= short_idle + 16,
        "quiescent pending-event count grew with op count \
         ({short_idle} -> {long_idle}): dead timers are leaking"
    );
}

/// A supervised closed loop: `budget` 64 B gWRITEs, at most
/// `OUTSTANDING` in flight, every settle issuing the next.
struct Loop {
    retry: RetryClient,
    issued: Cell<usize>,
    settled: Cell<usize>,
    budget: usize,
}

const OUTSTANDING: usize = 16;

fn pump(l: &Rc<Loop>, w: &mut World, eng: &mut Engine<World>) {
    while l.issued.get() < l.budget && l.issued.get() - l.settled.get() < OUTSTANDING {
        let k = l.issued.get();
        l.issued.set(k + 1);
        let l2 = l.clone();
        l.retry.gwrite(
            w,
            eng,
            (k as u64 % 512) * 64,
            &[k as u8; 64],
            false,
            Box::new(move |w, eng, r| {
                r.expect("supervised write failed on a healthy chain");
                l2.settled.set(l2.settled.get() + 1);
                pump(&l2, w, eng);
            }),
        );
    }
}

/// Pending-event marks of one supervised run.
struct RetryMarks {
    /// Before the first issue: the steady set (none: sleeping
    /// replenishers leave no event queued).
    baseline: usize,
    /// High-water mark, sampled after every event until the last settle.
    max: usize,
    /// After the last settle and a drain well inside the deadline.
    idle: usize,
}

/// Run `ops` supervised gWRITEs on one 2-replica chain under `deadline`.
fn retry_pending_marks(ops: usize, deadline: SimDuration) -> RetryMarks {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(2 << 20).seed(7).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 256 << 10,
        ring_slots: 256,
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let retry = RetryClient::with_policy(
        HyperLoopClient::new(group, &mut w),
        DeadlinePolicy {
            deadline,
            ..Default::default()
        },
    );
    eng.run_until(&mut w, SimTime::from_nanos(50_000));
    let baseline = eng.pending();

    let l = Rc::new(Loop {
        retry: retry.clone(),
        issued: Cell::new(0),
        settled: Cell::new(0),
        budget: ops,
    });
    pump(&l, &mut w, &mut eng);
    let mut max = 0;
    while l.settled.get() < ops {
        assert!(eng.step(&mut w), "engine drained with ops unsettled");
        max = max.max(eng.pending());
    }
    assert_eq!(retry.outstanding(), 0);
    assert_eq!(retry.stats().acked, ops as u64);
    assert_eq!(retry.stats().attempt_timeouts, 0);
    let end = eng.now() + SimDuration::from_micros(200);
    eng.run_until(&mut w, end);
    RetryMarks {
        baseline,
        max,
        idle: eng.pending(),
    }
}

#[test]
fn settled_ops_leave_no_supervision_events() {
    const N: usize = 256;
    let short = retry_pending_marks(N, SimDuration::from_millis(2));
    let long = retry_pending_marks(8 * N, SimDuration::from_millis(2));
    let patient = retry_pending_marks(8 * N, SimDuration::from_millis(20));
    println!(
        "retry_pending: ops {} -> {}, high-water {} -> {}; deadline 2 ms -> 20 ms, \
         high-water {} -> {}; idle {} (baseline {})",
        N,
        8 * N,
        short.max,
        long.max,
        long.max,
        patient.max,
        long.idle,
        long.baseline
    );
    // A settled op that kept its deadline pending would add one entry
    // per op settled within the last deadline: ~1400 at 2 ms here, and
    // ten times that window at 20 ms.
    assert!(
        long.max <= short.max + 16,
        "high-water mark grew with ops run ({} -> {}): settled ops keep their timers",
        short.max,
        long.max
    );
    assert!(
        patient.max <= long.max + 16,
        "high-water mark grew with the deadline ({} -> {}): settled ops keep their timers",
        long.max,
        patient.max
    );
    for m in [&short, &long, &patient] {
        assert_eq!(
            m.idle, m.baseline,
            "pending events after the last settle exceed the replenishers' set"
        );
    }
}
