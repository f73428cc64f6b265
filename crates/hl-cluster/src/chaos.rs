//! Seeded chaos-fault schedules.
//!
//! A [`FaultSchedule`] is a deterministic list of fault injections —
//! packet-loss windows, one-way partitions, link failures, NIC stalls,
//! WAIT-engine stalls, CPU hogs, and host crashes — generated from a
//! seed and applied to a [`World`] as engine events. The same seed
//! always produces the same schedule, and (because the whole simulator
//! is deterministic) the same trace, so a failing chaos campaign is
//! reproduced by re-running its seed.

use crate::World;
use hl_fabric::HostId;
use hl_sim::{Engine, RngFactory, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Uniform packet loss on the whole fabric.
    DropWindow {
        /// Per-packet drop probability.
        prob: f64,
    },
    /// Packets from `src` to `dst` are dropped (receive still works).
    OneWayPartition {
        /// Sender whose packets vanish.
        src: HostId,
        /// Unreachable destination.
        dst: HostId,
    },
    /// The host's link drops everything in and out.
    LinkDown {
        /// Affected host.
        host: HostId,
    },
    /// The host's NIC hangs: inbound eaten, send engines halted.
    NicStall {
        /// Affected host.
        host: HostId,
    },
    /// The host's CORE-Direct WAIT engine hangs: packets still move,
    /// parked WQE chains never fire.
    WaitStall {
        /// Affected host.
        host: HostId,
    },
    /// A CPU hog lands on the host (the multi-tenant noisy neighbor).
    SlowReplica {
        /// Affected host.
        host: HostId,
    },
    /// Power loss: NVM drops unflushed data, link and NIC die.
    HostCrash {
        /// Affected host.
        host: HostId,
    },
    /// Gray failure: the directed path `src → dst` gains fixed delay
    /// plus uniform jitter (alive but erratic).
    Jitter {
        /// Sender side of the impaired path.
        src: HostId,
        /// Receiver side.
        dst: HostId,
        /// Fixed extra one-way delay.
        delay: SimDuration,
        /// Uniform extra delay in `[0, jitter]` per message.
        jitter: SimDuration,
    },
    /// Gray failure: the directed path `src → dst` loses packets with
    /// probability `prob` but stays up — the lossy-but-alive link.
    /// Routed through [`hl_fabric::Fabric::set_link_drop_prob`] so no
    /// bystander pair sees a single extra drop.
    LossyLink {
        /// Sender side of the lossy path.
        src: HostId,
        /// Receiver side.
        dst: HostId,
        /// Per-packet loss probability.
        prob: f64,
    },
    /// Gray failure: everything in and out of `host` is token-bucket
    /// rate-limited to `bps` (the capped uplink).
    RateLimit {
        /// Affected host.
        host: HostId,
        /// Rate cap in bits per second.
        bps: u64,
    },
    /// Gray failure: a straggler NIC — every message through `host`
    /// pays a fixed extra delay (firmware pause loops, PCIe backoff).
    StragglerNic {
        /// Affected host.
        host: HostId,
        /// Extra per-message delay.
        delay: SimDuration,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::DropWindow { prob } => write!(f, "drop-window p={prob:.3}"),
            FaultKind::OneWayPartition { src, dst } => write!(f, "partition {src}->{dst}"),
            FaultKind::LinkDown { host } => write!(f, "link-down {host}"),
            FaultKind::NicStall { host } => write!(f, "nic-stall {host}"),
            FaultKind::WaitStall { host } => write!(f, "wait-stall {host}"),
            FaultKind::SlowReplica { host } => write!(f, "slow-replica {host}"),
            FaultKind::HostCrash { host } => write!(f, "host-crash {host}"),
            FaultKind::Jitter {
                src,
                dst,
                delay,
                jitter,
            } => write!(
                f,
                "jitter {src}->{dst} {}us+{}us",
                delay.as_nanos() / 1000,
                jitter.as_nanos() / 1000
            ),
            FaultKind::LossyLink { src, dst, prob } => {
                write!(f, "lossy-link {src}->{dst} p={prob:.3}")
            }
            FaultKind::RateLimit { host, bps } => {
                write!(f, "rate-limit {host} {}Mbps", bps / 1_000_000)
            }
            FaultKind::StragglerNic { host, delay } => {
                write!(f, "straggler-nic {host} +{}us", delay.as_nanos() / 1000)
            }
        }
    }
}

/// A scheduled fault: injected at `at`, healed `duration` later
/// (`None` = permanent).
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Injection time.
    pub at: SimTime,
    /// Time until the automatic heal, if any.
    pub duration: Option<SimDuration>,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault schedule.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    /// Seed it was generated from.
    pub seed: u64,
    /// Events in generation order (not necessarily time order).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Generate a schedule from `seed`.
    ///
    /// `victims` are the hosts faults may target (typically the chain
    /// replicas — not the client, which must stay alive to judge
    /// invariants, and not standbys needed for rebuilds). `peer` is the
    /// far end used for one-way partitions (typically the client).
    /// Transient faults are injected inside `[start, end)` and heal
    /// before `end`; with probability ~1/2 one *permanent* crash of a
    /// victim is added, which the cluster must recover from by
    /// reconfiguration.
    pub fn generate(
        seed: u64,
        victims: &[HostId],
        peer: HostId,
        start: SimTime,
        end: SimTime,
    ) -> FaultSchedule {
        assert!(!victims.is_empty() && start < end);
        let mut rng = RngFactory::new(seed).stream("chaos-schedule");
        let span = end.as_nanos() - start.as_nanos();
        let mut events = Vec::new();

        let n_transient = rng.range_u64(2, 6);
        for _ in 0..n_transient {
            let at = SimTime::from_nanos(start.as_nanos() + rng.range_u64(0, span * 3 / 4));
            let dur = SimDuration::from_nanos(rng.range_u64(span / 20, span / 4));
            let victim = victims[rng.range_u64(0, victims.len() as u64) as usize];
            let kind = match rng.range_u64(0, 6) {
                0 => FaultKind::DropWindow {
                    prob: 0.01 + rng.f64() * 0.14,
                },
                1 => FaultKind::OneWayPartition {
                    src: victim,
                    dst: peer,
                },
                2 => FaultKind::OneWayPartition {
                    src: peer,
                    dst: victim,
                },
                3 => FaultKind::LinkDown { host: victim },
                4 => FaultKind::NicStall { host: victim },
                _ => FaultKind::WaitStall { host: victim },
            };
            events.push(FaultEvent {
                at,
                duration: Some(dur),
                kind,
            });
        }
        // A permanent noisy neighbor on one victim, sometimes.
        if rng.f64() < 0.4 {
            let victim = victims[rng.range_u64(0, victims.len() as u64) as usize];
            events.push(FaultEvent {
                at: SimTime::from_nanos(start.as_nanos() + rng.range_u64(0, span / 2)),
                duration: None,
                kind: FaultKind::SlowReplica { host: victim },
            });
        }
        // A permanent crash of one victim, sometimes.
        if rng.f64() < 0.5 {
            let victim = victims[rng.range_u64(0, victims.len() as u64) as usize];
            events.push(FaultEvent {
                at: SimTime::from_nanos(start.as_nanos() + rng.range_u64(span / 4, span * 3 / 4)),
                duration: None,
                kind: FaultKind::HostCrash { host: victim },
            });
        }
        FaultSchedule { seed, events }
    }

    /// Generate a schedule scoped to one shard's chain: only link-down
    /// and NIC-WAIT-engine faults, targeting only `victims` — no
    /// whole-fabric drop windows, so co-scheduled shards on other hosts
    /// are untouched by construction. These are the two per-host kinds
    /// the recovery paths fully cover: a link-down starves heartbeats
    /// and is detected and rebuilt around, while a WAIT stall leaves
    /// packets flowing and the parked chains resume on heal. (A NIC
    /// stall on a *mid-chain* hop is deliberately excluded: the
    /// replica-to-replica hops are fire-and-forget, so eaten packets
    /// desync the pre-posted rings with nothing for either detector to
    /// observe.) Used by the shard-isolation chaos regressions: the
    /// victim shard must recover while every other shard's timing stays
    /// identical to a fault-free run.
    pub fn generate_link_wait(
        seed: u64,
        victims: &[HostId],
        start: SimTime,
        end: SimTime,
    ) -> FaultSchedule {
        assert!(!victims.is_empty() && start < end);
        let mut rng = RngFactory::new(seed).stream("chaos-shard-schedule");
        let span = end.as_nanos() - start.as_nanos();
        let mut events = Vec::new();
        let n = rng.range_u64(2, 5);
        for _ in 0..n {
            let at = SimTime::from_nanos(start.as_nanos() + rng.range_u64(0, span * 2 / 3));
            let dur = SimDuration::from_nanos(rng.range_u64(span / 8, span / 3));
            let victim = victims[rng.range_u64(0, victims.len() as u64) as usize];
            let kind = if rng.range_u64(0, 2) == 0 {
                FaultKind::LinkDown { host: victim }
            } else {
                FaultKind::WaitStall { host: victim }
            };
            events.push(FaultEvent {
                at,
                duration: Some(dur),
                kind,
            });
        }
        FaultSchedule { seed, events }
    }

    /// Generate a shard-scoped schedule that *includes* NIC stalls:
    /// link-down, WAIT-stall, and NIC-stall faults targeting only
    /// `victims`. Historically NIC stalls were excluded from
    /// shard-scoped schedules because a stalled *mid-chain* NIC eats
    /// fire-and-forget packets with nothing for either detector to
    /// observe; the client-side end-to-end deadline probe
    /// (`hyperloop::deadline::RetryClient::arm_nic_stall_probe`) closes
    /// that gap — consecutive attempt timeouts with no transport-error
    /// CQE surface as a `nic_stall_suspected` detection, so the kind is
    /// re-admitted here.
    pub fn generate_shard_faults(
        seed: u64,
        victims: &[HostId],
        start: SimTime,
        end: SimTime,
    ) -> FaultSchedule {
        assert!(!victims.is_empty() && start < end);
        let mut rng = RngFactory::new(seed).stream("chaos-shard-gray-schedule");
        let span = end.as_nanos() - start.as_nanos();
        let mut events = Vec::new();
        let n = rng.range_u64(2, 5);
        for _ in 0..n {
            let at = SimTime::from_nanos(start.as_nanos() + rng.range_u64(0, span * 2 / 3));
            let dur = SimDuration::from_nanos(rng.range_u64(span / 8, span / 3));
            let victim = victims[rng.range_u64(0, victims.len() as u64) as usize];
            let kind = match rng.range_u64(0, 3) {
                0 => FaultKind::LinkDown { host: victim },
                1 => FaultKind::WaitStall { host: victim },
                _ => FaultKind::NicStall { host: victim },
            };
            events.push(FaultEvent {
                at,
                duration: Some(dur),
                kind,
            });
        }
        FaultSchedule { seed, events }
    }

    /// Generate a gray-failure schedule: only impairment kinds (jitter,
    /// lossy link, rate limit, straggler NIC), every one transient. The
    /// paths impaired are the directed pairs between a victim and
    /// `peer` (both directions drawn independently), so co-hosted
    /// bystander traffic is untouched by construction. These are the
    /// faults the health monitor must *ride out or degrade through* —
    /// none of them kills a host, so binary failure detectors stay
    /// silent and only end-to-end health signals move.
    pub fn generate_gray(
        seed: u64,
        victims: &[HostId],
        peer: HostId,
        start: SimTime,
        end: SimTime,
    ) -> FaultSchedule {
        assert!(!victims.is_empty() && start < end);
        let mut rng = RngFactory::new(seed).stream("chaos-gray-schedule");
        let span = end.as_nanos() - start.as_nanos();
        let mut events = Vec::new();
        let n = rng.range_u64(2, 6);
        for _ in 0..n {
            let at = SimTime::from_nanos(start.as_nanos() + rng.range_u64(0, span * 2 / 3));
            let dur = SimDuration::from_nanos(rng.range_u64(span / 8, span / 3));
            let victim = victims[rng.range_u64(0, victims.len() as u64) as usize];
            let toward_victim = rng.range_u64(0, 2) == 0;
            let (src, dst) = if toward_victim {
                (peer, victim)
            } else {
                (victim, peer)
            };
            let kind = match rng.range_u64(0, 4) {
                0 => FaultKind::Jitter {
                    src,
                    dst,
                    delay: SimDuration::from_micros(rng.range_u64(5, 50)),
                    jitter: SimDuration::from_micros(rng.range_u64(10, 100)),
                },
                1 => FaultKind::LossyLink {
                    src,
                    dst,
                    prob: 0.05 + rng.f64() * 0.25,
                },
                2 => FaultKind::RateLimit {
                    host: victim,
                    bps: rng.range_u64(50, 500) * 1_000_000,
                },
                _ => FaultKind::StragglerNic {
                    host: victim,
                    delay: SimDuration::from_micros(rng.range_u64(10, 80)),
                },
            };
            events.push(FaultEvent {
                at,
                duration: Some(dur),
                kind,
            });
        }
        FaultSchedule { seed, events }
    }

    /// Schedule every injection (and heal) on the engine.
    pub fn apply(&self, eng: &mut Engine<World>) {
        for ev in &self.events {
            let kind = ev.kind;
            eng.schedule_at(ev.at, move |w: &mut World, eng| {
                inject(kind, w, eng);
            });
            if let Some(dur) = ev.duration {
                let at = SimTime::from_nanos(ev.at.as_nanos() + dur.as_nanos());
                eng.schedule_at(at, move |w: &mut World, eng| {
                    heal(kind, w, eng);
                });
            }
        }
    }
}

fn inject(kind: FaultKind, w: &mut World, eng: &mut Engine<World>) {
    hl_sim::trace!(w.tracer, eng.now(), "chaos", "inject {kind}");
    let now = eng.now();
    w.telemetry.mark(now, format!("fault:{kind}"), 0);
    if w.telemetry.enabled() {
        w.telemetry
            .metrics
            .counter_add("chaos_faults_injected", "layer=chaos", 1);
        // Snapshot what was in flight when the fault landed.
        w.telemetry.flight_dump(now, format!("fault:{kind}"));
    }
    match kind {
        FaultKind::DropWindow { prob } => w.fabric.set_drop_prob(prob),
        FaultKind::OneWayPartition { src, dst } => w.fabric.partition(src, dst),
        FaultKind::LinkDown { host } => w.fabric.set_link_down(host, true),
        FaultKind::NicStall { host } => w.set_nic_stalled(host, true, eng),
        FaultKind::WaitStall { host } => w.set_nic_wait_stalled(host, true, eng),
        FaultKind::SlowReplica { host } => w.spawn_hog(host, "chaos-hog", eng),
        FaultKind::HostCrash { host } => {
            w.hosts[host.0].mem.crash();
            w.fabric.set_link_down(host, true);
            w.set_nic_stalled(host, true, eng);
        }
        FaultKind::Jitter {
            src,
            dst,
            delay,
            jitter,
        } => w
            .fabric
            .set_impairment(src, dst, hl_fabric::Impairment::delay(delay, jitter)),
        FaultKind::LossyLink { src, dst, prob } => w.fabric.set_link_drop_prob(src, dst, prob),
        FaultKind::RateLimit { host, bps } => w
            .fabric
            .set_host_impairment(host, hl_fabric::Impairment::rate(bps, 16 * 1024)),
        FaultKind::StragglerNic { host, delay } => w.fabric.set_host_impairment(
            host,
            hl_fabric::Impairment::delay(delay, hl_sim::SimDuration::ZERO),
        ),
    }
}

fn heal(kind: FaultKind, w: &mut World, eng: &mut Engine<World>) {
    hl_sim::trace!(w.tracer, eng.now(), "chaos", "heal {kind}");
    let now = eng.now();
    w.telemetry.mark(now, format!("heal:{kind}"), 0);
    if w.telemetry.enabled() {
        w.telemetry
            .metrics
            .counter_add("chaos_faults_healed", "layer=chaos", 1);
    }
    match kind {
        FaultKind::DropWindow { .. } => w.fabric.set_drop_prob(0.0),
        FaultKind::OneWayPartition { src, dst } => w.fabric.heal(src, dst),
        FaultKind::LinkDown { host } => w.fabric.set_link_down(host, false),
        FaultKind::NicStall { host } => w.set_nic_stalled(host, false, eng),
        FaultKind::WaitStall { host } => w.set_nic_wait_stalled(host, false, eng),
        FaultKind::Jitter { src, dst, .. } => w.fabric.clear_impairment(src, dst),
        FaultKind::LossyLink { src, dst, .. } => w.fabric.set_link_drop_prob(src, dst, 0.0),
        FaultKind::RateLimit { host, .. } | FaultKind::StragglerNic { host, .. } => {
            w.fabric.clear_host_impairment(host)
        }
        // Permanent kinds never get heal events scheduled.
        FaultKind::SlowReplica { .. } | FaultKind::HostCrash { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// Bystander byte-identity harness
// ---------------------------------------------------------------------------

/// Shared recorder for the bystander byte-identity invariant.
///
/// The chaos, gray-chaos and migration suites all prove the same thing:
/// a shard that is *not* the victim of a fault (or the subject of a
/// migration) must see an experience byte-identical to a control run
/// with no fault at all — same per-op latency vector, same failure
/// count, nanosecond for nanosecond. This probe is the one shared
/// implementation of that recorder; campaigns clone it into their
/// completion callbacks and compare outcomes with
/// [`BystanderProbe::assert_identical_to`].
#[derive(Clone, Default)]
pub struct BystanderProbe {
    inner: Rc<RefCell<ProbeInner>>,
}

#[derive(Default)]
struct ProbeInner {
    latencies: Vec<(usize, u64)>,
    failed: usize,
}

impl BystanderProbe {
    /// An empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the completion of op `idx` after `latency_ns`.
    pub fn record(&self, idx: usize, latency_ns: u64) {
        self.inner.borrow_mut().latencies.push((idx, latency_ns));
    }

    /// Record a failed op.
    pub fn record_failure(&self) {
        self.inner.borrow_mut().failed += 1;
    }

    /// The `(op index, latency ns)` vector in completion order.
    pub fn latencies(&self) -> Vec<(usize, u64)> {
        self.inner.borrow().latencies.clone()
    }

    /// Number of failed ops recorded.
    pub fn failed(&self) -> usize {
        self.inner.borrow().failed
    }

    /// Number of completions recorded.
    pub fn len(&self) -> usize {
        self.inner.borrow().latencies.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().latencies.is_empty()
    }

    /// Assert this probe recorded the byte-identical experience of
    /// `control`: same completion order, same per-op latencies to the
    /// nanosecond, same failure count. `what` names the campaign in the
    /// panic message.
    pub fn assert_identical_to(&self, control: &BystanderProbe, what: &str) {
        let (a, b) = (self.inner.borrow(), control.inner.borrow());
        assert_eq!(
            a.failed, b.failed,
            "{what}: bystander failure count diverged from control"
        );
        assert_eq!(
            a.latencies.len(),
            b.latencies.len(),
            "{what}: bystander completion count diverged from control"
        );
        for (i, (x, y)) in a.latencies.iter().zip(b.latencies.iter()).enumerate() {
            assert_eq!(
                x, y,
                "{what}: bystander op #{i} diverged (got {x:?}, control {y:?})"
            );
        }
    }
}

/// Snapshot `len` bytes of a member's replicated region (the byte-level
/// half of the bystander invariant — campaigns compare these snapshots
/// across runs and members).
pub fn member_snapshot(w: &World, host: HostId, addr: u64, len: usize) -> Vec<u8> {
    w.hosts[host.0]
        .mem
        .read_vec(addr, len)
        .expect("member region readable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bystander_probe_detects_divergence() {
        let a = BystanderProbe::new();
        let b = BystanderProbe::new();
        a.record(0, 100);
        b.record(0, 100);
        a.assert_identical_to(&b, "unit");
        a.record(1, 200);
        b.record(1, 201);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.assert_identical_to(&b, "unit")
        }));
        assert!(r.is_err(), "divergent latency vectors must panic");
        assert_eq!(a.latencies(), vec![(0, 100), (1, 200)]);
        assert_eq!(a.failed(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let v = [HostId(1), HostId(2)];
        let a = FaultSchedule::generate(
            9,
            &v,
            HostId(0),
            SimTime::from_nanos(1_000_000),
            SimTime::from_nanos(100_000_000),
        );
        let b = FaultSchedule::generate(
            9,
            &v,
            HostId(0),
            SimTime::from_nanos(1_000_000),
            SimTime::from_nanos(100_000_000),
        );
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.duration, y.duration);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn shard_scoped_schedule_targets_only_victims_and_heals() {
        let v = [HostId(4), HostId(5)];
        for seed in 0..32u64 {
            let s = FaultSchedule::generate_link_wait(
                seed,
                &v,
                SimTime::from_nanos(1_000_000),
                SimTime::from_nanos(50_000_000),
            );
            assert!(!s.events.is_empty());
            for e in &s.events {
                assert!(e.duration.is_some(), "shard-scoped faults must heal");
                match e.kind {
                    FaultKind::LinkDown { host } | FaultKind::WaitStall { host } => {
                        assert!(v.contains(&host), "fault targeted non-victim {host}")
                    }
                    other => panic!("disallowed fault kind {other}"),
                }
            }
        }
    }

    #[test]
    fn gray_schedule_is_gray_only_and_heals() {
        let v = [HostId(1), HostId(2)];
        for seed in 0..32u64 {
            let s = FaultSchedule::generate_gray(
                seed,
                &v,
                HostId(0),
                SimTime::from_nanos(1_000_000),
                SimTime::from_nanos(50_000_000),
            );
            assert!(!s.events.is_empty());
            for e in &s.events {
                assert!(e.duration.is_some(), "gray faults must heal");
                match e.kind {
                    FaultKind::Jitter { src, dst, .. } | FaultKind::LossyLink { src, dst, .. } => {
                        assert!(
                            (v.contains(&src) && dst == HostId(0))
                                || (src == HostId(0) && v.contains(&dst)),
                            "impaired pair {src}->{dst} touches a bystander"
                        );
                    }
                    FaultKind::RateLimit { host, .. } | FaultKind::StragglerNic { host, .. } => {
                        assert!(v.contains(&host));
                    }
                    other => panic!("non-gray fault kind {other}"),
                }
            }
        }
    }

    #[test]
    fn shard_faults_readmit_nic_stall() {
        let v = [HostId(4), HostId(5)];
        let mut seen_stall = false;
        for seed in 0..32u64 {
            let s = FaultSchedule::generate_shard_faults(
                seed,
                &v,
                SimTime::from_nanos(1_000_000),
                SimTime::from_nanos(50_000_000),
            );
            for e in &s.events {
                assert!(e.duration.is_some());
                match e.kind {
                    FaultKind::LinkDown { host }
                    | FaultKind::WaitStall { host }
                    | FaultKind::NicStall { host } => assert!(v.contains(&host)),
                    other => panic!("disallowed fault kind {other}"),
                }
                if matches!(e.kind, FaultKind::NicStall { .. }) {
                    seen_stall = true;
                }
            }
        }
        assert!(seen_stall, "NicStall must appear across 32 seeds");
    }

    #[test]
    fn different_seeds_differ() {
        let v = [HostId(1), HostId(2)];
        let mk = |s| {
            FaultSchedule::generate(
                s,
                &v,
                HostId(0),
                SimTime::ZERO,
                SimTime::from_nanos(50_000_000),
            )
        };
        let a = mk(1);
        let b = mk(2);
        let same = a.events.len() == b.events.len()
            && a.events
                .iter()
                .zip(&b.events)
                .all(|(x, y)| x.at == y.at && x.kind == y.kind);
        assert!(!same, "seeds 1 and 2 produced identical schedules");
    }
}
