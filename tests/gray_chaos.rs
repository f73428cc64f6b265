//! Gray-failure robustness: the health monitor's degrade → re-promote
//! round trip, the NIC-stall probe, in-flight operations across backend
//! transitions, and gray-campaign determinism.
//!
//! Unlike `tests/chaos.rs` (fail-stop faults, binary detectors), every
//! fault here is *gray*: jittery or lossy links and silently stalled
//! NICs that keep the chain nominally alive. The invariants:
//!
//! 1. **Round trip with oracle** — under seeded jitter + loss the
//!    monitor degrades to the Naïve backend and, after the impairment
//!    heals and the hysteresis dwell passes, re-promotes to a fresh
//!    offloaded chain; the committed replicated state is byte-identical
//!    to a fault-free Naïve control run of the same operation sequence
//!    (no lost or duplicated writes across either transition).
//! 2. **Hysteresis** — degradation needs `degrade_after` consecutive
//!    sick evaluations; re-promotion waits out `min_degraded_dwell`.
//! 3. **Stall detection** — a silent mid-chain NIC stall (no error CQE,
//!    heartbeats still answered) trips the client-side end-to-end probe
//!    (`nic_stall_suspected`) and triggers a scoped rebuild.
//! 4. **No hang across degradation** — operations in flight when the
//!    degrade fires complete or fail with a typed [`OpError`].
//! 5. **Determinism** — gray campaigns re-run on the same seed yield
//!    byte-identical Chrome traces and metrics renders.
//! 6. **Race-freedom** — every world runs under the race detector and
//!    the fabric FIFO auditor and ends with an empty report, healed
//!    impairments included.

use hyperloop_repro::cluster::chaos::{member_snapshot, FaultEvent, FaultKind, FaultSchedule};
use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::api::GroupClient;
use hyperloop_repro::hyperloop::deadline::Backend;
use hyperloop_repro::hyperloop::health::{HealthConfig, HealthMonitor, HealthState};
use hyperloop_repro::hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop_repro::hyperloop::recovery;
use hyperloop_repro::hyperloop::slo::{SloEngine, SloRule};
use hyperloop_repro::hyperloop::{
    replica, DeadlinePolicy, GroupBuilder, GroupConfig, GroupOp, GroupRef, HyperLoopClient,
    RetryClient,
};
use hyperloop_repro::sim::{Bytes, Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const CLIENT: HostId = HostId(0);
const R1: HostId = HostId(1);
const R2: HostId = HostId(2);
const STANDBY: HostId = HostId(3);
const REP_BYTES: u64 = 64 << 10;
const REC_BYTES: usize = 64;
const N_SLOTS: usize = 64;
const CAS_OFF: u64 = 48 << 10;

fn record(k: usize) -> Vec<u8> {
    let mut v = format!("gray-rec-{k:05}-").into_bytes();
    while v.len() < REC_BYTES {
        v.push(b'a' + (k % 26) as u8);
    }
    v
}

fn policy() -> DeadlinePolicy {
    DeadlinePolicy {
        deadline: SimDuration::from_millis(1),
        max_attempts: 60,
        backoff: SimDuration::from_micros(200),
        backoff_cap: SimDuration::from_millis(2),
    }
}

fn build_offloaded(seed: u64) -> (World, Engine<World>, GroupRef, RetryClient) {
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size(2 << 20)
        .seed(seed)
        .race_detector()
        .build();
    w.enable_telemetry();
    let group = GroupBuilder::new(GroupConfig {
        client: CLIENT,
        replicas: vec![R1, R2],
        rep_bytes: REP_BYTES,
        ring_slots: 64,
        transport_timeout: Some((SimDuration::from_millis(3), 7)),
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group.clone(), &mut w);
    let retry = RetryClient::with_policy(client, policy());
    (w, eng, group, retry)
}

/// The deterministic mixed op for step `k`: every fifth op is a gCAS
/// increment of the shared counter word, the rest are durable writes
/// into a rotating slot. The sequence (not the backend or the timing)
/// fully determines the final committed state.
fn op_for(k: usize, cas_done: u64) -> GroupOp {
    if k % 5 == 4 {
        GroupOp::Cas {
            offset: CAS_OFF,
            cmp: cas_done,
            swp: cas_done + 1,
            exec_map: 0b111,
        }
    } else {
        GroupOp::Write {
            offset: ((k % N_SLOTS) * REC_BYTES) as u64,
            data: Bytes::copy_from_slice(&record(k)),
            flush: true,
        }
    }
}

/// Drive `n_ops` of the mixed sequence closed-loop (one outstanding op;
/// the next issues when the previous settles). Returns (oks, errs).
fn drive_closed_loop(
    retry: &RetryClient,
    n_ops: usize,
    start: SimTime,
    eng: &mut Engine<World>,
) -> (Rc<RefCell<usize>>, Rc<RefCell<usize>>) {
    let oks = Rc::new(RefCell::new(0usize));
    let errs = Rc::new(RefCell::new(0usize));

    #[allow(clippy::too_many_arguments)]
    fn step(
        retry: RetryClient,
        k: usize,
        n_ops: usize,
        cas_done: u64,
        oks: Rc<RefCell<usize>>,
        errs: Rc<RefCell<usize>>,
        w: &mut World,
        eng: &mut Engine<World>,
    ) {
        if k >= n_ops {
            return;
        }
        let op = op_for(k, cas_done);
        let is_cas = matches!(op, GroupOp::Cas { .. });
        let r2 = retry.clone();
        retry.issue(
            w,
            eng,
            op,
            Box::new(move |w, eng, outcome| {
                let next_cas = match outcome {
                    Ok(_) => {
                        *oks.borrow_mut() += 1;
                        cas_done + is_cas as u64
                    }
                    Err(_) => {
                        *errs.borrow_mut() += 1;
                        cas_done
                    }
                };
                step(r2, k + 1, n_ops, next_cas, oks, errs, w, eng);
            }),
        );
    }

    let retry = retry.clone();
    let (o, e) = (oks.clone(), errs.clone());
    eng.schedule_at(start, move |w: &mut World, eng| {
        step(retry, 0, n_ops, 0, o, e, w, eng);
    });
    (oks, errs)
}

/// Fault-free Naïve control: the same op sequence against a CPU-driven
/// chain over the same member hosts, no impairments. Returns the final
/// bytes of the control's replicated region (all members asserted
/// identical first).
fn naive_control_bytes(seed: u64, n_ops: usize) -> Vec<u8> {
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size(2 << 20)
        .seed(seed)
        .race_detector()
        .build();
    let naive = NaiveBuilder::new(NaiveConfig {
        client: CLIENT,
        replicas: vec![R1, R2],
        rep_bytes: REP_BYTES,
        ring_slots: 64,
        mode: Mode::Event,
        ..Default::default()
    })
    .build(&mut w, &mut eng);
    let retry = RetryClient::with_policy_backend(Backend::Naive(naive.clone()), policy());
    let (oks, errs) = drive_closed_loop(&retry, n_ops, SimTime::from_nanos(1_000_000), &mut eng);
    eng.run_until(&mut w, SimTime::from_nanos(400_000_000));
    assert_eq!(*oks.borrow(), n_ops, "control must ACK every op");
    assert_eq!(*errs.borrow(), 0, "control must not fail ops");

    let reference = member_bytes(&naive, 0, &w);
    for m in 1..GroupClient::group_size(&naive) {
        assert_eq!(
            member_bytes(&naive, m, &w),
            reference,
            "control members diverged"
        );
    }
    assert_race_free(&w);
    reference
}

fn member_bytes<C: GroupClient>(client: &C, m: usize, w: &World) -> Vec<u8> {
    member_snapshot(
        w,
        client.member_host(m),
        client.member_addr(m, 0),
        REP_BYTES as usize,
    )
}

fn assert_race_free(w: &World) {
    let report = w.race_report();
    assert!(
        report.is_empty(),
        "race detector flagged:\n{}",
        report.join("\n")
    );
}

fn mark_time(w: &World, name: &str) -> Option<SimTime> {
    w.telemetry
        .marks()
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.at)
}

/// The tentpole invariant: a full degrade → re-promote round trip under
/// seeded jitter + loss, with a differential oracle against a
/// fault-free Naïve control confirming byte-identical committed state.
#[test]
fn degrade_repromote_round_trip_preserves_committed_state() {
    let seed = 4242;
    let n_ops = 400;
    let (mut w, mut eng, group, retry) = build_offloaded(seed);
    w.enable_timeseries(SimDuration::from_millis(1));

    let health_cfg = HealthConfig {
        period: SimDuration::from_millis(2),
        degrade_score: 20,
        healthy_score: 5,
        degrade_after: 2,
        promote_after: 3,
        min_degraded_dwell: SimDuration::from_millis(3),
        ring_slots: 64,
        naive_mode: Mode::Event,
    };
    let dwell = health_cfg.min_degraded_dwell;
    let monitor = HealthMonitor::start(retry.clone(), group, health_cfg, &mut w, &mut eng);

    // Burn-rate SLO on the supervised latency series: the gray window
    // blows the per-window p99 through 500µs, and the alert feeds the
    // monitor's sick signal beside the health score. (Here the score
    // races the alert to the degrade; the alert-leads ordering is
    // pinned by `slo_alert_precedes_health_degrade` below, where the
    // score stays quiet.)
    let slo = Rc::new(RefCell::new(SloEngine::new()));
    slo.borrow_mut().add_rule(
        SloRule::parse(
            "supervised-p99",
            "p99(op_latency_ns{layer=supervised}) < 500us over 4 windows",
        )
        .expect("rule parses"),
    );
    monitor.attach_slo(slo.clone());

    // Gray window 5ms → 15ms: loss on the head hop + jitter on the ACK
    // hop. Nothing dies; only end-to-end signals move.
    let sched = FaultSchedule {
        seed,
        events: vec![
            FaultEvent {
                at: SimTime::from_nanos(5_000_000),
                duration: Some(SimDuration::from_millis(10)),
                kind: FaultKind::LossyLink {
                    src: CLIENT,
                    dst: R1,
                    prob: 0.4,
                },
            },
            FaultEvent {
                at: SimTime::from_nanos(5_000_000),
                duration: Some(SimDuration::from_millis(10)),
                kind: FaultKind::Jitter {
                    src: R2,
                    dst: CLIENT,
                    delay: SimDuration::from_micros(30),
                    jitter: SimDuration::from_micros(50),
                },
            },
        ],
    };
    sched.apply(&mut eng);

    let (oks, errs) = drive_closed_loop(&retry, n_ops, SimTime::from_nanos(1_000_000), &mut eng);
    eng.run_until(&mut w, SimTime::from_nanos(400_000_000));

    // Liveness: every op of the sequence ACKed (the generous attempt
    // budget outlasts every transition), none failed, none in flight.
    assert_eq!(*oks.borrow(), n_ops, "closed loop did not finish");
    assert_eq!(*errs.borrow(), 0, "ops failed across transitions");
    assert_eq!(retry.outstanding(), 0);
    assert!(retry.failures().is_empty());

    // The round trip actually happened and landed back offloaded.
    assert!(monitor.degrades() >= 1, "monitor never degraded");
    assert!(monitor.promotes() >= 1, "monitor never re-promoted");
    assert_eq!(monitor.state(), HealthState::Offloaded);
    assert!(retry.is_offloaded());

    // Hysteresis: re-promotion started only after the minimum dwell.
    let degraded_at =
        mark_time(&w, "transition:backend:degrading->degraded").expect("degraded transition mark");
    let promoting_at =
        mark_time(&w, "transition:backend:degraded->promoting").expect("promoting transition mark");
    assert!(
        promoting_at.duration_since(degraded_at) >= dwell,
        "re-promotion ignored the hysteresis dwell: {} -> {}",
        degraded_at.as_nanos(),
        promoting_at.as_nanos()
    );

    // The attached SLO saw the excursion: it fired during the gray
    // window and resolved after the heal (a firing alert blocks
    // re-promotion, so reaching Offloaded above already proves the
    // resolve edge; these pin the counters and marks).
    assert!(
        slo.borrow().fired("supervised-p99") >= 1,
        "SLO alert never fired across the gray window"
    );
    assert!(!slo.borrow().any_firing(), "alert still firing after heal");
    assert!(
        w.telemetry
            .metrics
            .counter("slo_alerts_fired", "rule=supervised-p99")
            >= 1,
        "slo_alerts_fired counter not bumped"
    );
    assert!(
        w.telemetry
            .marks()
            .iter()
            .any(|m| m.name == "slo:resolve:supervised-p99"),
        "resolve mark missing"
    );

    // Differential oracle: committed state byte-identical to the
    // fault-free Naïve control — across a degrade, a re-promotion, and
    // every retry in between, no write was lost or applied twice (the
    // CAS counter word would diverge on any duplicate).
    let control = naive_control_bytes(seed, n_ops);
    let c = retry.client();
    for m in 0..c.group_size() {
        assert_eq!(
            member_bytes(&c, m, &w),
            control,
            "member {m} diverges from the fault-free control"
        );
    }
    let cas_word = u64::from_le_bytes(
        control[CAS_OFF as usize..CAS_OFF as usize + 8]
            .try_into()
            .unwrap(),
    );
    assert_eq!(
        cas_word,
        (n_ops / 5) as u64,
        "CAS increments lost or duplicated"
    );
    assert_race_free(&w);
}

/// Tentpole causal-order invariant: when the SLO alert is what makes
/// the monitor sick, its fire mark strictly precedes the Degrading
/// transition. Heavy jitter inflates the supervised p99 far past the
/// threshold without tripping a single per-attempt deadline (the 4ms
/// budget dwarfs the jitter), so the health score stays quiet and the
/// alert is the only signal that can degrade — and because degrading
/// takes `degrade_after` consecutive sick periods, the transition lands
/// at least one period after the fire.
#[test]
fn slo_alert_precedes_health_degrade() {
    let seed = 9090;
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size(2 << 20)
        .seed(seed)
        .race_detector()
        .build();
    w.enable_timeseries(SimDuration::from_millis(1));
    let group = GroupBuilder::new(GroupConfig {
        client: CLIENT,
        replicas: vec![R1, R2],
        rep_bytes: REP_BYTES,
        ring_slots: 64,
        transport_timeout: Some((SimDuration::from_millis(3), 7)),
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group.clone(), &mut w);
    // Generous per-attempt deadline: jitter never exhausts it, so the
    // health score never moves.
    let retry = RetryClient::with_policy(
        client,
        DeadlinePolicy {
            deadline: SimDuration::from_millis(4),
            max_attempts: 40,
            backoff: SimDuration::from_micros(500),
            backoff_cap: SimDuration::from_millis(4),
        },
    );
    let monitor = HealthMonitor::start(
        retry.clone(),
        group,
        HealthConfig {
            period: SimDuration::from_millis(2),
            degrade_score: 20,
            healthy_score: 5,
            degrade_after: 2,
            promote_after: 3,
            min_degraded_dwell: SimDuration::from_millis(3),
            ring_slots: 64,
            naive_mode: Mode::Event,
        },
        &mut w,
        &mut eng,
    );
    let slo = Rc::new(RefCell::new(SloEngine::new()));
    slo.borrow_mut().add_rule(
        SloRule::parse(
            "supervised-p99",
            "p99(op_latency_ns{layer=supervised}) < 150us over 8 windows",
        )
        .unwrap()
        .with_short_windows(2),
    );
    monitor.attach_slo(slo.clone());

    // Jitter excursion on the client's links, 10ms → 35ms.
    FaultSchedule {
        seed,
        events: vec![
            FaultEvent {
                at: SimTime::from_nanos(10_000_000),
                duration: Some(SimDuration::from_millis(25)),
                kind: FaultKind::Jitter {
                    src: CLIENT,
                    dst: R1,
                    delay: SimDuration::from_micros(40),
                    jitter: SimDuration::from_micros(120),
                },
            },
            FaultEvent {
                at: SimTime::from_nanos(10_000_000),
                duration: Some(SimDuration::from_millis(25)),
                kind: FaultKind::Jitter {
                    src: R2,
                    dst: CLIENT,
                    delay: SimDuration::from_micros(40),
                    jitter: SimDuration::from_micros(120),
                },
            },
        ],
    }
    .apply(&mut eng);

    // Open-loop writes every 100µs span the whole excursion.
    let n_ops = 500usize;
    for k in 0..n_ops {
        let retry2 = retry.clone();
        let at = SimTime::from_nanos(1_000_000 + k as u64 * 100_000);
        eng.schedule_at(at, move |w: &mut World, eng| {
            retry2.gwrite(
                w,
                eng,
                ((k % N_SLOTS) * REC_BYTES) as u64,
                &record(k),
                true,
                Box::new(|_w, _e, r| {
                    r.expect("supervised op failed");
                }),
            );
        });
    }

    eng.run_until(&mut w, SimTime::from_nanos(250_000_000));
    monitor.stop();

    assert!(monitor.degrades() >= 1, "alert never degraded the monitor");
    assert!(monitor.promotes() >= 1, "monitor never re-promoted");
    assert_eq!(
        w.telemetry
            .metrics
            .counter("retry_deadline_exceeded", "layer=deadline"),
        0,
        "scenario invalid: the health score had its own reason to degrade"
    );

    let marks = w.telemetry.marks();
    let fire = marks
        .iter()
        .find(|m| m.name == "slo:fire:supervised-p99")
        .expect("slo:fire mark");
    let degrading = marks
        .iter()
        .find(|m| m.name == "transition:backend:offloaded->degrading")
        .expect("degrading transition mark");
    assert!(
        fire.at < degrading.at,
        "alert ({}) must strictly precede the Degrading transition ({})",
        fire.at.as_nanos(),
        degrading.at.as_nanos()
    );

    // The snapshot carries the whole causal chain: the first window
    // whose p99 crossed the threshold closes before the alert fires.
    let excursion = w
        .telemetry
        .series
        .quantile_series("op_latency_ns", "layer=supervised", 0.99)
        .into_iter()
        .find(|(_, p99)| *p99 >= 150_000)
        .expect("no excursion window");
    let excursion_end = SimTime::from_nanos((excursion.0 + 1) * 1_000_000);
    assert!(
        excursion_end <= fire.at,
        "excursion window must close before the alert fires"
    );
    assert_race_free(&w);
}

/// Satellite regression: operations in flight when `degrade_to_naive`
/// fires complete or fail with a typed error — never hang.
#[test]
fn inflight_ops_survive_degradation() {
    let (mut w, mut eng, group, retry) = build_offloaded(7);

    // Slow the ACK hop so a burst is genuinely in flight mid-degrade.
    w.fabric.set_impairment(
        R2,
        CLIENT,
        hyperloop_repro::fabric::Impairment::delay(
            SimDuration::from_micros(500),
            SimDuration::ZERO,
        ),
    );

    let n_burst = 12;
    let settled = Rc::new(RefCell::new((0usize, 0usize))); // (ok, err)
    for k in 0..n_burst {
        let settled = settled.clone();
        let retry2 = retry.clone();
        let at = SimTime::from_nanos(1_000_000 + k as u64 * 10_000);
        eng.schedule_at(at, move |w: &mut World, eng| {
            retry2.gwrite(
                w,
                eng,
                (k * REC_BYTES) as u64,
                &record(k),
                true,
                Box::new(move |_w, _e, r| {
                    let mut s = settled.borrow_mut();
                    match r {
                        Ok(_) => s.0 += 1,
                        Err(_) => s.1 += 1,
                    }
                }),
            );
        });
    }

    // Fire the degrade while the burst is mid-chain.
    {
        let retry2 = retry.clone();
        eng.schedule_at(SimTime::from_nanos(1_060_000), move |w: &mut World, eng| {
            recovery::degrade_to_naive(
                &group,
                w,
                eng,
                Mode::Event,
                Box::new(move |_w, _e, naive| retry2.swap_naive(naive)),
            );
        });
    }

    eng.run_until(&mut w, SimTime::from_nanos(200_000_000));
    let (ok, err) = *settled.borrow();
    assert_eq!(
        ok + err,
        n_burst,
        "op neither completed nor failed across the degrade (ok={ok} err={err})"
    );
    assert_eq!(retry.outstanding(), 0, "supervised op left hanging");
    assert!(!retry.is_offloaded(), "degrade must have swapped backends");

    // The degraded backend still serves new traffic.
    let final_ok = Rc::new(RefCell::new(None::<bool>));
    {
        let f = final_ok.clone();
        retry.gwrite(
            &mut w,
            &mut eng,
            (n_burst * REC_BYTES) as u64,
            &record(n_burst),
            true,
            Box::new(move |_w, _e, r| *f.borrow_mut() = Some(r.is_ok())),
        );
    }
    eng.run_until(&mut w, SimTime::from_nanos(300_000_000));
    assert_eq!(*final_ok.borrow(), Some(true));
    assert_race_free(&w);
}

/// Satellite regression: a silently stalled mid-chain NIC — no error
/// CQE at the client, heartbeats (CPU messages) still flowing — is
/// detected by the end-to-end probe and recovered within the policy
/// budget by rebuilding around the stalled host.
#[test]
fn nic_stall_probe_detects_and_recovers() {
    let (mut w, mut eng, group, retry) = build_offloaded(11);

    let suspects = Rc::new(RefCell::new(0u32));
    {
        // On suspicion, rebuild over the survivor + standby. The test
        // stalls the tail (R2): the head hop stays healthy, so only the
        // probe — not the transport-error path — can see this fault.
        let suspects = suspects.clone();
        let retry2 = retry.clone();
        let group2 = group.clone();
        let latch = Rc::new(RefCell::new(false));
        retry.arm_nic_stall_probe(
            3,
            Box::new(move |w, eng| {
                *suspects.borrow_mut() += 1;
                if std::mem::replace(&mut *latch.borrow_mut(), true) {
                    return;
                }
                let retry3 = retry2.clone();
                recovery::rebuild_chain(
                    w,
                    eng,
                    &group2,
                    vec![R1],
                    Some(STANDBY),
                    64,
                    Box::new(move |_w, _e, new_client| retry3.swap(new_client)),
                );
            }),
        );
    }

    // Open-loop writes every 500µs keep probing the chain end to end.
    let n_ops = 40;
    let settled = Rc::new(RefCell::new(0usize));
    for k in 0..n_ops {
        let settled = settled.clone();
        let retry2 = retry.clone();
        let at = SimTime::from_nanos(1_000_000 + k as u64 * 500_000);
        eng.schedule_at(at, move |w: &mut World, eng| {
            retry2.gwrite(
                w,
                eng,
                ((k % N_SLOTS) * REC_BYTES) as u64,
                &record(k),
                true,
                Box::new(move |_w, _e, _r| *settled.borrow_mut() += 1),
            );
        });
    }

    // Permanent silent stall of the tail NIC at 8ms.
    eng.schedule_at(SimTime::from_nanos(8_000_000), |w: &mut World, eng| {
        w.set_nic_stalled(R2, true, eng);
    });

    eng.run_until(&mut w, SimTime::from_nanos(300_000_000));

    assert!(*suspects.borrow() >= 1, "probe never fired");
    assert!(
        w.telemetry
            .metrics
            .counter("nic_stall_suspected", "layer=probe")
            >= 1,
        "nic_stall_suspected counter not bumped"
    );
    assert_eq!(*settled.borrow(), n_ops, "ops hung across the stall");
    assert_eq!(retry.outstanding(), 0);

    // The probe's flight-recorder dump captured the victim: at dump
    // time the op that tripped the stall detector was still open, so it
    // must appear in the dump's open-span list.
    assert!(w.telemetry.flight.requested() >= 1, "no flight dump taken");
    let probe_dump = w
        .telemetry
        .flight
        .dumps()
        .iter()
        .find(|d| d.reason.starts_with("probe:nic-stall"))
        .expect("probe-triggered flight dump stored");
    assert!(
        !probe_dump.open_spans.is_empty(),
        "flight dump must pin the victim op's open span"
    );
    assert!(
        probe_dump
            .open_spans
            .iter()
            .all(|s| s.end.is_none() && s.begin <= probe_dump.at),
        "open spans must have been in flight at dump time"
    );

    // The rebuilt chain (around the stalled host) serves new traffic.
    let final_ok = Rc::new(RefCell::new(None::<bool>));
    {
        let f = final_ok.clone();
        retry.gwrite(
            &mut w,
            &mut eng,
            0,
            &record(99),
            true,
            Box::new(move |_w, _e, r| *f.borrow_mut() = Some(r.is_ok())),
        );
    }
    eng.run_until(&mut w, SimTime::from_nanos(400_000_000));
    assert_eq!(
        *final_ok.borrow(),
        Some(true),
        "chain not serving after probe-triggered rebuild"
    );
    let c = retry.client();
    let hosts: Vec<HostId> = (0..c.group_size()).map(|m| c.member_host(m)).collect();
    assert!(
        !hosts.contains(&R2),
        "stalled host must have been rebuilt out of the chain"
    );
    assert_race_free(&w);
}

/// Gray campaign used by the determinism check: seeded gray-only fault
/// schedule + health monitor + open-loop writes, full telemetry on.
fn gray_campaign(seed: u64) -> (String, String, String, usize) {
    let (mut w, mut eng, group, retry) = build_offloaded(seed);
    w.tracer.enable(&["chaos", "recovery", "fault"]);
    w.enable_timeseries(SimDuration::from_millis(1));
    let monitor = HealthMonitor::start(
        retry.clone(),
        group,
        HealthConfig {
            period: SimDuration::from_millis(2),
            degrade_score: 20,
            healthy_score: 5,
            degrade_after: 2,
            promote_after: 3,
            min_degraded_dwell: SimDuration::from_millis(3),
            ring_slots: 64,
            naive_mode: Mode::Event,
        },
        &mut w,
        &mut eng,
    );

    let sched = FaultSchedule::generate_gray(
        seed,
        &[R1, R2],
        CLIENT,
        SimTime::from_nanos(2_000_000),
        SimTime::from_nanos(30_000_000),
    );
    assert!(!sched.events.is_empty(), "gray schedule must not be empty");
    let n_gray = sched.events.len();
    sched.apply(&mut eng);

    for k in 0..40usize {
        let retry2 = retry.clone();
        let at = SimTime::from_nanos(1_000_000 + k as u64 * 500_000);
        eng.schedule_at(at, move |w: &mut World, eng| {
            retry2.gwrite(
                w,
                eng,
                ((k % N_SLOTS) * REC_BYTES) as u64,
                &record(k),
                true,
                Box::new(|_w, _e, _r| {}),
            );
        });
    }

    eng.run_until(&mut w, SimTime::from_nanos(120_000_000));
    monitor.stop();
    assert_race_free(&w);
    let now = eng.now();
    w.collect_metrics(now);
    (
        w.telemetry.chrome_trace(),
        w.telemetry.metrics.render(),
        w.telemetry.timeseries_json(),
        n_gray,
    )
}

/// Satellite determinism: three gray seeds, each run twice — Chrome
/// traces and the metrics render must be byte-identical, with at least
/// one gray fault kind in every schedule (guaranteed by construction:
/// `generate_gray` emits only gray kinds).
#[test]
fn gray_campaigns_are_deterministic_across_reruns() {
    for seed in [41, 42, 43] {
        let (trace_a, metrics_a, series_a, n_gray) = gray_campaign(seed);
        let (trace_b, metrics_b, series_b, _) = gray_campaign(seed);
        assert!(n_gray >= 1, "seed {seed}: no gray faults scheduled");
        assert!(
            trace_a.starts_with("{\"traceEvents\":["),
            "seed {seed}: not a Chrome trace export"
        );
        assert_eq!(
            trace_a, trace_b,
            "seed {seed}: gray campaign chrome trace diverged across reruns"
        );
        assert!(
            metrics_a.contains("fabric_impaired_drops") || metrics_a.contains("nic_"),
            "seed {seed}: metrics render looks empty"
        );
        assert_eq!(
            metrics_a, metrics_b,
            "seed {seed}: gray campaign metrics diverged across reruns"
        );
        assert!(
            series_a.starts_with("{\"version\":1,")
                && series_a.contains("\"name\":\"op_latency_ns\""),
            "seed {seed}: time-series snapshot missing the supervised latency series"
        );
        assert_eq!(
            series_a, series_b,
            "seed {seed}: time-series snapshot diverged across reruns"
        );
    }
}
