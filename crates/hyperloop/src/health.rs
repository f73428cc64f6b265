//! Gray-failure health monitoring and the degradation state machine.
//!
//! Fail-stop faults surface as error CQEs or missed heartbeats and are
//! handled by [`crate::recovery`]. *Gray* faults — a jittery or lossy
//! link, a rate-limited or straggling NIC — leave the chain nominally
//! alive but slow, which offloaded WQE chains cannot route around: the
//! NICs keep executing, just badly. The countermeasure is a control
//! loop that *scores* chain health from cheap end-to-end signals and
//! drives the backend both ways:
//!
//! * **degrade** — after `degrade_after` consecutive sick evaluations,
//!   fall back to the CPU-driven Naïve chain over the same members
//!   (via [`crate::recovery::degrade_to_naive`]), swapped into the
//!   supervising [`RetryClient`] so in-flight operations simply
//!   re-issue on the fallback;
//! * **re-promote** — after `promote_after` consecutive healthy
//!   evaluations *and* a minimum degraded dwell (hysteresis, so a
//!   flapping link cannot thrash the backend), rebuild a fresh
//!   offloaded chain and cut over **live**: the bulk of the replica
//!   seed streams while the Naïve chain keeps serving, and only the
//!   final delta copy runs under a brief pause ([`live_cutover`]).
//!
//! The same cutover plan implements crash-rejoin under live traffic
//! ([`rejoin_member`]): a healed host is caught up with streaming
//! copies while the serving chain keeps ACKing client operations — no
//! stop-the-world. Both run on the shared [`crate::reconfig`] engine.
//!
//! The health score is a weighted sum of *windowed deltas* (this
//! evaluation period only) of per-member NIC counters (retransmits,
//! ACK timeouts, error CQEs) and the supervising client's
//! [`RetryStats`] (attempt timeouts, re-issues, exhausted deadlines) —
//! all signals the client can observe without instrumenting the sick
//! middle of the chain.

use crate::deadline::{RetryClient, RetryStats};
use crate::group::{GroupBuilder, GroupConfig, GroupRef};
use crate::naive::Mode;
use crate::reconfig::{self, Live, Plan};
use crate::recovery::{degrade_to_naive, OnRebuilt};
use crate::slo::SloEngine;
use crate::HyperLoopClient;
use hl_cluster::migrate::MigrationStage;
use hl_cluster::World;
use hl_fabric::HostId;
use hl_sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Health-loop knobs.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Evaluation period.
    pub period: SimDuration,
    /// A period scoring at or above this is *sick*.
    pub degrade_score: u64,
    /// A period scoring at or below this is *healthy* (the gap to
    /// `degrade_score` is the hysteresis band).
    pub healthy_score: u64,
    /// Consecutive sick evaluations before degrading.
    pub degrade_after: u32,
    /// Consecutive healthy evaluations before re-promoting.
    pub promote_after: u32,
    /// Minimum time spent degraded before a re-promotion may start.
    pub min_degraded_dwell: SimDuration,
    /// Ring slots for rebuilt offloaded chains.
    pub ring_slots: u32,
    /// Replica scheduling mode of the degraded (Naïve) chain.
    pub naive_mode: Mode,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            period: SimDuration::from_micros(200),
            degrade_score: 20,
            healthy_score: 2,
            degrade_after: 3,
            promote_after: 5,
            min_degraded_dwell: SimDuration::from_millis(2),
            ring_slots: 64,
            naive_mode: Mode::Event,
        }
    }
}

/// Where the monitored group currently is in the degradation state
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// The offloaded chain is serving.
    Offloaded,
    /// Degradation in progress (Naïve chain being built and seeded).
    Degrading,
    /// The Naïve fallback is serving.
    Degraded,
    /// Re-promotion in progress (live cutover running).
    Promoting,
}

impl HealthState {
    fn name(self) -> &'static str {
        match self {
            HealthState::Offloaded => "offloaded",
            HealthState::Degrading => "degrading",
            HealthState::Degraded => "degraded",
            HealthState::Promoting => "promoting",
        }
    }
}

// Signal weights: an error CQE or an end-to-end attempt timeout is far
// stronger evidence than a single retransmit.
const W_RETRANSMIT: u64 = 1;
const W_TIMEOUT: u64 = 20;
const W_ERROR_CQE: u64 = 50;
const W_ATTEMPT_TIMEOUT: u64 = 25;
const W_REISSUE: u64 = 5;
const W_DEADLINE_EXCEEDED: u64 = 100;

struct MonitorInner {
    cfg: HealthConfig,
    retry: RetryClient,
    /// The current (or, while degraded, the last) offloaded group —
    /// the config template for re-promotion rebuilds.
    group: GroupRef,
    hosts: Vec<HostId>,
    client_host: HostId,
    state: HealthState,
    sick: u32,
    healthy: u32,
    degraded_at: SimTime,
    base_nic: Vec<(u64, u64, u64)>,
    base_stats: RetryStats,
    last_score: u64,
    degrades: u64,
    promotes: u64,
    stopped: bool,
    /// Optional SLO engine evaluated each period; a firing alert is a
    /// structured *sick* input beside the counter-delta score.
    slo: Option<Rc<RefCell<SloEngine>>>,
}

/// The periodic health evaluator driving degrade / re-promote.
///
/// Cloning shares the monitor state.
#[derive(Clone)]
pub struct HealthMonitor {
    inner: Rc<RefCell<MonitorInner>>,
}

impl HealthMonitor {
    /// Start monitoring `retry` (currently serving the offloaded
    /// `group`). The first evaluation runs one period from now.
    pub fn start(
        retry: RetryClient,
        group: GroupRef,
        cfg: HealthConfig,
        w: &mut World,
        eng: &mut Engine<World>,
    ) -> HealthMonitor {
        let (client_host, mut hosts) = {
            let g = group.borrow();
            (g.cfg.client, vec![g.cfg.client])
        };
        hosts.extend(group.borrow().cfg.replicas.iter().copied());
        let base_nic = hosts
            .iter()
            .map(|&h| {
                let c = w.host(h).nic.counters();
                (c.retransmits, c.timeouts, c.error_cqes)
            })
            .collect();
        let base_stats = retry.stats();
        let inner = Rc::new(RefCell::new(MonitorInner {
            cfg,
            retry,
            group,
            hosts,
            client_host,
            state: HealthState::Offloaded,
            sick: 0,
            healthy: 0,
            degraded_at: SimTime::ZERO,
            base_nic,
            base_stats,
            last_score: 0,
            degrades: 0,
            promotes: 0,
            stopped: false,
            slo: None,
        }));
        let period = inner.borrow().cfg.period;
        let m = inner.clone();
        eng.schedule(period, move |w: &mut World, eng| tick(m, w, eng));
        HealthMonitor { inner }
    }

    /// Stop evaluating (any in-flight transition still completes).
    pub fn stop(&self) {
        self.inner.borrow_mut().stopped = true;
    }

    /// Attach an [`SloEngine`]: every evaluation period the engine runs
    /// first, and [`SloEngine::any_firing`] then counts as a sick
    /// signal — while offloaded a firing alert accrues toward the
    /// degrade threshold even when the counter score looks clean, and
    /// while degraded it blocks re-promotion. Because degrading takes
    /// `degrade_after` consecutive sick periods, the alert's fire mark
    /// always precedes the `Degrading` transition it predicts.
    pub fn attach_slo(&self, slo: Rc<RefCell<SloEngine>>) {
        self.inner.borrow_mut().slo = Some(slo);
    }

    /// Current state-machine position.
    pub fn state(&self) -> HealthState {
        self.inner.borrow().state
    }

    /// The most recent period score.
    pub fn last_score(&self) -> u64 {
        self.inner.borrow().last_score
    }

    /// Completed degradations.
    pub fn degrades(&self) -> u64 {
        self.inner.borrow().degrades
    }

    /// Completed re-promotions.
    pub fn promotes(&self) -> u64 {
        self.inner.borrow().promotes
    }
}

fn sample_score(m: &Rc<RefCell<MonitorInner>>, w: &mut World) -> u64 {
    let hosts = m.borrow().hosts.clone();
    let nic_now: Vec<(u64, u64, u64)> = hosts
        .iter()
        .map(|&h| {
            let c = w.host(h).nic.counters();
            (c.retransmits, c.timeouts, c.error_cqes)
        })
        .collect();
    let mut mm = m.borrow_mut();
    let mut score = 0u64;
    for (now, base) in nic_now.iter().zip(mm.base_nic.iter()) {
        score += W_RETRANSMIT * now.0.saturating_sub(base.0)
            + W_TIMEOUT * now.1.saturating_sub(base.1)
            + W_ERROR_CQE * now.2.saturating_sub(base.2);
    }
    let stats = mm.retry.stats();
    let base = mm.base_stats;
    score += W_ATTEMPT_TIMEOUT * stats.attempt_timeouts.saturating_sub(base.attempt_timeouts)
        + W_REISSUE * stats.reissues.saturating_sub(base.reissues)
        + W_DEADLINE_EXCEEDED
            * stats
                .deadline_exceeded
                .saturating_sub(base.deadline_exceeded);
    mm.base_nic = nic_now;
    mm.base_stats = stats;
    mm.last_score = score;
    score
}

fn tick(m: Rc<RefCell<MonitorInner>>, w: &mut World, eng: &mut Engine<World>) {
    if m.borrow().stopped {
        return;
    }
    let score = sample_score(&m, w);
    if w.telemetry.enabled() {
        let now = eng.now();
        w.telemetry
            .metrics
            .gauge_set("health_score", "layer=health", score as f64);
        w.telemetry
            .series
            .gauge_sample(now, "health_score", "layer=health", score as f64);
    }
    // Evaluate attached SLO rules *before* the state decision, so a
    // firing alert's mark precedes any transition it contributes to.
    let slo_alert = {
        let slo = m.borrow().slo.clone();
        match slo {
            Some(s) => s.borrow_mut().eval(eng.now(), &mut w.telemetry),
            None => false,
        }
    };

    enum Action {
        None,
        Degrade,
        Promote,
    }
    let action = {
        let mut mm = m.borrow_mut();
        match mm.state {
            HealthState::Offloaded => {
                if score >= mm.cfg.degrade_score || slo_alert {
                    mm.sick += 1;
                    mm.healthy = 0;
                    if mm.sick >= mm.cfg.degrade_after {
                        Action::Degrade
                    } else {
                        Action::None
                    }
                } else {
                    mm.sick = 0;
                    Action::None
                }
            }
            HealthState::Degraded => {
                if score <= mm.cfg.healthy_score && !slo_alert {
                    mm.healthy += 1;
                    let dwelt = eng.now().duration_since(mm.degraded_at);
                    if mm.healthy >= mm.cfg.promote_after && dwelt >= mm.cfg.min_degraded_dwell {
                        Action::Promote
                    } else {
                        Action::None
                    }
                } else {
                    mm.healthy = 0;
                    Action::None
                }
            }
            // A transition is already in flight; let it land.
            HealthState::Degrading | HealthState::Promoting => Action::None,
        }
    };
    match action {
        Action::Degrade => start_degrade(&m, w, eng),
        Action::Promote => start_promote(&m, w, eng),
        Action::None => {}
    }
    let period = m.borrow().cfg.period;
    eng.schedule(period, move |w: &mut World, eng| tick(m, w, eng));
}

fn transition_to(
    m: &Rc<RefCell<MonitorInner>>,
    w: &mut World,
    eng: &mut Engine<World>,
    to: HealthState,
) {
    let (from, host) = {
        let mut mm = m.borrow_mut();
        let from = mm.state;
        mm.state = to;
        (from, mm.client_host.0)
    };
    let now = eng.now();
    w.telemetry
        .transition(now, "backend", from.name(), to.name(), host);
}

fn start_degrade(m: &Rc<RefCell<MonitorInner>>, w: &mut World, eng: &mut Engine<World>) {
    transition_to(m, w, eng, HealthState::Degrading);
    let (group, mode, retry) = {
        let mm = m.borrow();
        (mm.group.clone(), mm.cfg.naive_mode, mm.retry.clone())
    };
    let m = m.clone();
    degrade_to_naive(
        &group,
        w,
        eng,
        mode,
        Box::new(move |w, eng, naive| {
            retry.swap_naive(naive);
            {
                let mut mm = m.borrow_mut();
                mm.degraded_at = eng.now();
                mm.degrades += 1;
                mm.sick = 0;
                mm.healthy = 0;
            }
            transition_to(&m, w, eng, HealthState::Degraded);
            if w.telemetry.enabled() {
                w.telemetry
                    .metrics
                    .counter_add("health_degrades", "layer=health", 1);
            }
        }),
    );
}

fn start_promote(m: &Rc<RefCell<MonitorInner>>, w: &mut World, eng: &mut Engine<World>) {
    transition_to(m, w, eng, HealthState::Promoting);
    let (retry, cfg) = {
        let mm = m.borrow();
        let cfg = GroupConfig {
            ring_slots: mm.cfg.ring_slots,
            ..mm.group.borrow().cfg.clone()
        };
        (mm.retry.clone(), cfg)
    };
    let m = m.clone();
    live_cutover(
        &retry,
        cfg,
        w,
        eng,
        Box::new(move |w, eng, client| {
            {
                let mut mm = m.borrow_mut();
                mm.group = client.group().clone();
                mm.promotes += 1;
                mm.sick = 0;
                mm.healthy = 0;
            }
            transition_to(&m, w, eng, HealthState::Offloaded);
            if w.telemetry.enabled() {
                w.telemetry
                    .metrics
                    .counter_add("health_promotes", "layer=health", 1);
            }
        }),
    );
}

// ---------------------------------------------------------------------------
// Live cutover
// ---------------------------------------------------------------------------

/// Cut the supervised group over to a freshly built offloaded chain
/// **without stopping client traffic** — the whole-region
/// [`crate::reconfig`] plan whose coordinator stays put:
///
/// * source: the serving backend's head copy (whichever backend);
/// * targets: the new chain's replicas, streamed while the old backend
///   keeps serving, plus the new head copy, filled locally;
/// * after the bulk copy the old backend is paused (new issues see
///   `Backpressure` and back off until the swap) and in-flight ops
///   drain, bounded — unACKed survivors re-issue on the new chain;
/// * commit: retire the old backend, swap the new chain's client into
///   the `RetryClient` and hand it to `done`.
pub fn live_cutover(
    retry: &RetryClient,
    cfg: GroupConfig,
    w: &mut World,
    eng: &mut Engine<World>,
    done: OnRebuilt,
) {
    let backend = retry.backend();
    let src = reconfig::members(&backend)[0];
    assert_eq!(src.0, cfg.client, "cutover keeps the coordinator");
    let rep_bytes = cfg.rep_bytes;
    let new_group = GroupBuilder::new(cfg).build(w);
    let retry = retry.clone();
    let old = backend.clone();
    reconfig::run(
        Plan {
            src,
            rep_bytes,
            targets: reconfig::group_members(&new_group),
            ranges: vec![(0, rep_bytes)],
            chunk: 64 * 1024,
            live: Some(Live {
                log: retry.clone(),
                after_bulk: Box::new(move || backend.set_paused(true)),
                delta_counter: ("cutover_delta_bytes", "layer=health"),
            }),
            on_stage: Box::new(move |w, now, stage| {
                let name = match stage {
                    MigrationStage::Planned => "cutover:start",
                    MigrationStage::Draining => "cutover:pause",
                    MigrationStage::Retired => "cutover:swap",
                    MigrationStage::Streaming | MigrationStage::CutOver => return,
                };
                w.telemetry.mark(now, name, src.0 .0);
            }),
            commit: Box::new(move |w, eng| {
                old.retire(w);
                crate::replica::start_replenishers(&new_group, w, eng);
                let client = HyperLoopClient::new(new_group, w);
                retry.swap(client.clone());
                Box::new(move |w, eng| done(w, eng, client))
            }),
        },
        w,
        eng,
    );
}

// ---------------------------------------------------------------------------
// Crash-rejoin under live traffic
// ---------------------------------------------------------------------------

/// Re-admit a healed host into the supervised group without stopping
/// client traffic: a fresh offloaded chain is built over the current
/// membership *plus* `new_member`, seeded with streaming catch-up while
/// the serving chain keeps ACKing, and swapped in via [`live_cutover`].
pub fn rejoin_member(
    retry: &RetryClient,
    new_member: HostId,
    ring_slots: u32,
    w: &mut World,
    eng: &mut Engine<World>,
    done: OnRebuilt,
) {
    let mut cfg = GroupConfig {
        ring_slots,
        ..retry.backend().chain_config()
    };
    assert!(
        !cfg.replicas.contains(&new_member) && cfg.client != new_member,
        "rejoining host must not already be a member"
    );
    cfg.replicas.push(new_member);
    let now = eng.now();
    w.telemetry.mark(now, "rejoin:start", new_member.0);
    if w.telemetry.enabled() {
        w.telemetry
            .metrics
            .counter_add("health_rejoins", "layer=health", 1);
    }
    live_cutover(retry, cfg, w, eng, done);
}
