//! # hl-fabric — network fabric model
//!
//! A lossless (by default) data-center fabric connecting simulated hosts.
//! The model is message-granular: each message occupies its sender's
//! egress port for `size / bandwidth`, then arrives after a fixed
//! per-path propagation delay. Because egress is FIFO and propagation is
//! constant per path, delivery between any ordered pair of hosts is
//! in-order — the property RDMA reliable-connection transport needs.
//!
//! Fault injection (message drops, host partitions, link-down) is
//! explicit and off by default; benchmarks run lossless like the paper's
//! RoCE testbed, while recovery tests flip faults on.
//!
//! ## Gray failures: the impairment engine
//!
//! Binary faults (drop everything / drop nothing) miss the failure modes
//! that dominate production: jittery links, lossy-but-alive paths,
//! rate-limited uplinks, straggler NICs. [`Impairment`] is a composable
//! `tc-netem`-style spec — fixed delay, uniform jitter, probabilistic
//! loss, token-bucket rate limiting, reordering, duplication — attached
//! to a *directed* host pair ([`Fabric::set_impairment`]) or to every
//! path in and out of one host ([`Fabric::set_host_impairment`]). Pair
//! and host impairments stack: a message crossing an impaired pair
//! between two impaired hosts pays all three.
//!
//! Probabilistic knobs (loss / jitter / reorder / duplicate) draw from a
//! dedicated seeded stream installed via [`Fabric::set_impairment_rng`];
//! with no stream installed they are inert and only the deterministic
//! knobs (delay, rate) apply. Delay, jitter and rate are
//! *FIFO-preserving*: deliveries on an impaired pair are clamped to be
//! monotone, modelling a queue behind the slow link, so RC transport
//! never sees spurious reordering from them. Only the explicit `reorder`
//! knob violates FIFO (the reordered message skips the impairment queue
//! entirely), and only `duplicate` delivers a message twice — both are
//! conditions reliable QPs recover from via go-back-N and duplicate
//! replay, and both are deliberately invisible to the FIFO delivery
//! auditor (they are injected faults, not fabric-model bugs).

#![warn(missing_docs)]

use hl_sim::config::NetProfile;
use hl_sim::{RngStream, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifies a host (index into the cluster's host table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Per-host egress port state.
#[derive(Debug, Clone, Default)]
struct Port {
    /// Time at which the egress link becomes free.
    free_at: SimTime,
    /// Bytes transmitted (for reporting).
    bytes_tx: u64,
    /// Messages transmitted.
    msgs_tx: u64,
}

/// A FIFO-order violation recorded by the delivery auditor (off unless
/// [`Fabric::enable_fifo_audit`] was called): a message for an ordered
/// host pair was scheduled to arrive *before* an earlier message of the
/// same pair. The RDMA RC transport model assumes this never happens;
/// any occurrence is a fabric-model bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderViolation {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Latest delivery time previously scheduled for this pair.
    pub prev_delivery: SimTime,
    /// The regressing delivery time.
    pub delivery: SimTime,
}

/// Result of offering a message to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Message will arrive at the destination at this instant.
    At(SimTime),
    /// Message was duplicated by an impairment: the original arrives at
    /// the first instant, the copy at the second (never earlier).
    Duplicated(SimTime, SimTime),
    /// Message was dropped by fault injection.
    Dropped,
}

/// A composable `tc-netem`-style link impairment.
///
/// All knobs default to "off"; [`Impairment::stack`] combines two specs
/// (delays add, losses combine as independent events, the stricter rate
/// wins). Probabilistic knobs need an RNG stream installed with
/// [`Fabric::set_impairment_rng`]; without one they are inert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Impairment {
    /// Fixed extra one-way delay.
    pub delay: SimDuration,
    /// Uniform extra delay in `[0, jitter]`, drawn per message.
    pub jitter: SimDuration,
    /// Probability of losing each message.
    pub loss: f64,
    /// Token-bucket rate limit in bits per second (`None` = unlimited).
    pub rate_bps: Option<u64>,
    /// Token-bucket depth in bytes (burst allowance when rate-limited).
    pub burst_bytes: u64,
    /// Probability a message jumps the impairment queue (delivered at
    /// its unimpaired time, possibly overtaking delayed predecessors).
    pub reorder: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
}

impl Default for Impairment {
    fn default() -> Self {
        Impairment {
            delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            rate_bps: None,
            burst_bytes: 16 * 1024,
            reorder: 0.0,
            duplicate: 0.0,
        }
    }
}

impl Impairment {
    /// Fixed delay plus uniform jitter in `[0, jitter]`.
    pub fn delay(delay: SimDuration, jitter: SimDuration) -> Self {
        Impairment {
            delay,
            jitter,
            ..Default::default()
        }
    }

    /// Probabilistic loss.
    pub fn loss(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        Impairment {
            loss: p,
            ..Default::default()
        }
    }

    /// Token-bucket rate limit.
    pub fn rate(bps: u64, burst_bytes: u64) -> Self {
        assert!(bps > 0);
        Impairment {
            rate_bps: Some(bps),
            burst_bytes,
            ..Default::default()
        }
    }

    /// True if no knob is active.
    pub fn is_noop(&self) -> bool {
        self.delay == SimDuration::ZERO
            && self.jitter == SimDuration::ZERO
            && self.loss == 0.0
            && self.rate_bps.is_none()
            && self.reorder == 0.0
            && self.duplicate == 0.0
    }

    /// Stack another impairment on top of this one: delays and jitters
    /// add, losses combine as independent drop events, the stricter rate
    /// wins (with the smaller burst), reorder/duplicate combine as
    /// independent events.
    pub fn stack(&self, other: &Impairment) -> Impairment {
        let combine = |a: f64, b: f64| 1.0 - (1.0 - a) * (1.0 - b);
        let (rate_bps, burst_bytes) = match (self.rate_bps, other.rate_bps) {
            (Some(a), Some(b)) => (Some(a.min(b)), self.burst_bytes.min(other.burst_bytes)),
            (Some(a), None) => (Some(a), self.burst_bytes),
            (None, Some(b)) => (Some(b), other.burst_bytes),
            (None, None) => (None, self.burst_bytes),
        };
        Impairment {
            delay: self.delay + other.delay,
            jitter: self.jitter + other.jitter,
            loss: combine(self.loss, other.loss),
            rate_bps,
            burst_bytes,
            reorder: combine(self.reorder, other.reorder),
            duplicate: combine(self.duplicate, other.duplicate),
        }
    }
}

/// Token-bucket state for one rate-limited impairment scope.
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// Bytes available right now.
    tokens: u64,
    /// Last refill instant.
    last: SimTime,
    /// Bucket filled on first use.
    primed: bool,
}

impl Bucket {
    /// Pass a `size`-byte message ready at `ready` through the bucket;
    /// returns when it clears the rate limiter. Integer arithmetic only
    /// (nanoseconds × bits/s fits u128).
    fn pass(&mut self, ready: SimTime, size: u64, bps: u64, burst: u64) -> SimTime {
        if !self.primed {
            self.tokens = burst;
            self.last = ready;
            self.primed = true;
        }
        // The bucket is a queue: a message cannot start accumulating its
        // tokens before the previous one cleared (`self.last`).
        let start = ready.max(self.last);
        if start > self.last {
            let dt = start.as_nanos() - self.last.as_nanos();
            let refill = (bps as u128 * dt as u128 / 8_000_000_000) as u64;
            self.tokens = (self.tokens + refill).min(burst);
        }
        self.last = start;
        if self.tokens >= size {
            self.tokens -= size;
            start
        } else {
            let deficit = size - self.tokens;
            self.tokens = 0;
            let wait = (deficit as u128 * 8_000_000_000).div_ceil(bps as u128) as u64;
            let at = SimTime::from_nanos(start.as_nanos() + wait);
            self.last = at;
            at
        }
    }
}

/// An impairment spec plus the per-scope state it owns.
#[derive(Debug, Clone)]
struct ImpairState {
    imp: Impairment,
    bucket: Bucket,
}

/// The fabric connecting all hosts.
#[derive(Debug)]
pub struct Fabric {
    profile: NetProfile,
    ports: Vec<Port>,
    /// Propagation hops between host pairs, indexed `[src][dst]`;
    /// 1 = same rack through one switch.
    hops: Vec<Vec<u32>>,
    /// Blocked ordered pairs (partition injection).
    partitions: Vec<(HostId, HostId)>,
    /// Hosts whose link is administratively down.
    down: Vec<bool>,
    /// Probability of dropping any message (fault injection); requires
    /// the caller to pass a uniform draw to keep the fabric RNG-free.
    drop_prob: f64,
    /// Per-directed-pair drop probability, keyed `(src, dst)`; combined
    /// with `drop_prob` as independent events so one tenant's lossy path
    /// never perturbs bystander pairs.
    link_drop: BTreeMap<(usize, usize), f64>,
    /// Directed per-pair impairments, keyed `(src, dst)`.
    impairments: BTreeMap<(usize, usize), ImpairState>,
    /// Per-host impairments (applied to all of the host's ingress and
    /// egress paths; models a straggler or rate-capped NIC).
    host_impairments: BTreeMap<usize, ImpairState>,
    /// Latest impaired delivery per pair: delay/jitter/rate deliveries
    /// are clamped to be monotone (the queue behind the slow link), and
    /// so are unimpaired ones after the impairment is cleared.
    pair_floor: BTreeMap<(usize, usize), SimTime>,
    /// Seeded stream for the probabilistic impairment knobs. `None`
    /// (the default) leaves loss/jitter/reorder/duplicate inert.
    impair_rng: Option<RngStream>,
    /// Messages dropped for any reason (partition, link-down, random).
    drops: u64,
    /// Subset of `drops` caused by impairment loss.
    impaired_drops: u64,
    /// The FIFO delivery auditor; `None` while it is off.
    audit: Option<Box<FifoAudit>>,
}

/// Shadow state of the FIFO delivery auditor (pure observation).
#[derive(Debug)]
struct FifoAudit {
    /// Latest scheduled delivery per ordered pair, indexed `[src][dst]`.
    last_delivery: Vec<Vec<SimTime>>,
    violations: Vec<OrderViolation>,
}

impl FifoAudit {
    /// Kept out of line, so that with the auditor off `Fabric::send`
    /// carries a branch per delivery and not this body.
    #[inline(never)]
    fn record(&mut self, src: HostId, dst: HostId, at: SimTime) {
        let prev = self.last_delivery[src.0][dst.0];
        if at < prev {
            self.violations.push(OrderViolation {
                src,
                dst,
                prev_delivery: prev,
                delivery: at,
            });
        } else {
            self.last_delivery[src.0][dst.0] = at;
        }
    }
}

impl Fabric {
    /// A fabric over `n` hosts with uniform single-switch paths.
    pub fn new(n: usize, profile: NetProfile) -> Self {
        Fabric {
            profile,
            ports: vec![Port::default(); n],
            hops: vec![vec![1; n]; n],
            partitions: Vec::new(),
            down: vec![false; n],
            drop_prob: 0.0,
            link_drop: BTreeMap::new(),
            impairments: BTreeMap::new(),
            host_impairments: BTreeMap::new(),
            pair_floor: BTreeMap::new(),
            impair_rng: None,
            drops: 0,
            impaired_drops: 0,
            audit: None,
        }
    }

    /// Switch on the FIFO delivery auditor: from now on every scheduled
    /// delivery is checked against the latest earlier one of its pair.
    pub fn enable_fifo_audit(&mut self) {
        let n = self.len();
        self.audit.get_or_insert_with(|| {
            Box::new(FifoAudit {
                last_delivery: vec![vec![SimTime::ZERO; n]; n],
                violations: Vec::new(),
            })
        });
    }

    /// Record a scheduled delivery with the FIFO auditor, if it is on.
    fn audit_delivery(&mut self, src: HostId, dst: HostId, at: SimTime) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.record(src, dst, at);
        }
    }

    /// FIFO-order violations recorded so far. Panics if the auditor is
    /// off, so an assertion of FIFO order cannot pass unchecked.
    pub fn order_violations(&self) -> &[OrderViolation] {
        &self
            .audit
            .as_ref()
            .expect("FIFO audit is off: switch it on with Fabric::enable_fifo_audit")
            .violations
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// True if the fabric has no hosts.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Set the hop count between two hosts (both directions).
    pub fn set_hops(&mut self, a: HostId, b: HostId, hops: u32) {
        self.hops[a.0][b.0] = hops;
        self.hops[b.0][a.0] = hops;
    }

    /// Inject a one-directional partition: messages src→dst are dropped.
    pub fn partition(&mut self, src: HostId, dst: HostId) {
        if !self.partitions.contains(&(src, dst)) {
            self.partitions.push((src, dst));
        }
    }

    /// Heal a previously injected partition.
    pub fn heal(&mut self, src: HostId, dst: HostId) {
        self.partitions.retain(|&p| p != (src, dst));
    }

    /// Take a host's link down (drops everything to/from it).
    pub fn set_link_down(&mut self, host: HostId, is_down: bool) {
        self.down[host.0] = is_down;
    }

    /// Enable random drops with probability `p` (see [`Fabric::send`]).
    pub fn set_drop_prob(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        self.drop_prob = p;
    }

    /// Random drops on the single directed pair `src → dst` with
    /// probability `p` (0 clears). Combined with the global probability
    /// as independent events; other pairs are untouched.
    pub fn set_link_drop_prob(&mut self, src: HostId, dst: HostId, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        if p == 0.0 {
            self.link_drop.remove(&(src.0, dst.0));
        } else {
            self.link_drop.insert((src.0, dst.0), p);
        }
    }

    /// Install the seeded stream the probabilistic impairment knobs draw
    /// from. Installed once at cluster build so enabling impairments
    /// never perturbs other random streams.
    pub fn set_impairment_rng(&mut self, rng: RngStream) {
        self.impair_rng = Some(rng);
    }

    /// Attach `imp` to the directed pair `src → dst` (replacing any
    /// previous pair impairment; use [`Impairment::stack`] to compose).
    pub fn set_impairment(&mut self, src: HostId, dst: HostId, imp: Impairment) {
        if imp.is_noop() {
            self.impairments.remove(&(src.0, dst.0));
        } else {
            self.impairments.insert(
                (src.0, dst.0),
                ImpairState {
                    imp,
                    bucket: Bucket::default(),
                },
            );
        }
    }

    /// Remove the pair impairment on `src → dst`.
    pub fn clear_impairment(&mut self, src: HostId, dst: HostId) {
        self.impairments.remove(&(src.0, dst.0));
    }

    /// Attach `imp` to every path in and out of `host` (straggler /
    /// rate-capped NIC). Replaces any previous host impairment.
    pub fn set_host_impairment(&mut self, host: HostId, imp: Impairment) {
        if imp.is_noop() {
            self.host_impairments.remove(&host.0);
        } else {
            self.host_impairments.insert(
                host.0,
                ImpairState {
                    imp,
                    bucket: Bucket::default(),
                },
            );
        }
    }

    /// Remove the host impairment on `host`.
    pub fn clear_host_impairment(&mut self, host: HostId) {
        self.host_impairments.remove(&host.0);
    }

    /// True if any impairment applies to messages `src → dst`.
    pub fn is_impaired(&self, src: HostId, dst: HostId) -> bool {
        self.impairments.contains_key(&(src.0, dst.0))
            || self.host_impairments.contains_key(&src.0)
            || self.host_impairments.contains_key(&dst.0)
    }

    /// Messages dropped by impairment loss (subset of [`Fabric::drops`]).
    pub fn impaired_drops(&self) -> u64 {
        self.impaired_drops
    }

    /// Offer a `size`-byte message from `src` to `dst` at time `now`.
    ///
    /// `uniform_draw` is a caller-supplied uniform sample in `[0,1)` used
    /// for drop decisions (the fabric holds no RNG so that enabling fault
    /// injection never perturbs other random streams). Pass `1.0` when
    /// drops are disabled.
    pub fn send(
        &mut self,
        now: SimTime,
        src: HostId,
        dst: HostId,
        size: usize,
        uniform_draw: f64,
    ) -> Delivery {
        if self.down[src.0] || self.down[dst.0] || self.partitions.contains(&(src, dst)) {
            self.drops += 1;
            return Delivery::Dropped;
        }
        let pair_p = self.link_drop.get(&(src.0, dst.0)).copied().unwrap_or(0.0);
        let p = 1.0 - (1.0 - self.drop_prob) * (1.0 - pair_p);
        if p > 0.0 && uniform_draw < p {
            self.drops += 1;
            return Delivery::Dropped;
        }
        let base = if src == dst {
            // Loopback never touches the wire; a nominal port-turnaround
            // delay models the NIC-internal path.
            now + SimDuration::from_nanos(100)
        } else {
            let port = &mut self.ports[src.0];
            let start = port.free_at.max(now);
            let tx = self.profile.transfer_time(size);
            let done = start + tx;
            port.free_at = done;
            port.bytes_tx += size as u64;
            port.msgs_tx += 1;
            let prop = SimDuration::from_nanos(
                self.profile.propagation.as_nanos() * self.hops[src.0][dst.0] as u64,
            );
            done + prop
        };
        if src != dst && self.is_impaired(src, dst) {
            return self.impaired_delivery(src, dst, size, base);
        }
        // A healed impairment may still hold messages of this pair: the
        // next one queues behind them instead of overtaking.
        let at = self
            .pair_floor
            .get(&(src.0, dst.0))
            .map_or(base, |&f| base.max(f));
        self.audit_delivery(src, dst, at);
        Delivery::At(at)
    }

    /// Run a message already scheduled for unimpaired delivery at `base`
    /// through the active impairments on its path.
    fn impaired_delivery(
        &mut self,
        src: HostId,
        dst: HostId,
        size: usize,
        base: SimTime,
    ) -> Delivery {
        // The (at most three) scopes in application order: pair, source
        // host, dest host. Copied onto the stack, so the bucket pass
        // below can borrow the maps mutably.
        let pair_key = (src.0, dst.0);
        let scopes = [
            (None, self.impairments.get(&pair_key).map(|s| s.imp)),
            (
                Some(src.0),
                self.host_impairments.get(&src.0).map(|s| s.imp),
            ),
            (
                Some(dst.0),
                self.host_impairments.get(&dst.0).map(|s| s.imp),
            ),
        ];
        let active = || {
            scopes
                .iter()
                .filter_map(|&(host, imp)| imp.map(|imp| (host, imp)))
        };

        // Probabilistic decisions first, on a stream taken out of `self`.
        let mut rng = self.impair_rng.take();
        let mut lost = false;
        let mut reordered = false;
        let mut duplicated = false;
        let mut extra = SimDuration::ZERO;
        for (_, imp) in active() {
            extra += imp.delay;
            if let Some(r) = rng.as_mut() {
                if imp.loss > 0.0 && r.f64() < imp.loss {
                    lost = true;
                }
                if imp.jitter > SimDuration::ZERO {
                    extra += SimDuration::from_nanos(r.range_u64(0, imp.jitter.as_nanos() + 1));
                }
                if imp.reorder > 0.0 && r.f64() < imp.reorder {
                    reordered = true;
                }
                if imp.duplicate > 0.0 && r.f64() < imp.duplicate {
                    duplicated = true;
                }
            }
        }
        self.impair_rng = rng;
        if lost {
            self.drops += 1;
            self.impaired_drops += 1;
            return Delivery::Dropped;
        }
        if reordered {
            // The message jumps the impairment queue: delivered at its
            // unimpaired time, possibly overtaking delayed predecessors.
            // Deliberately NOT clamped and NOT audited — this is an
            // injected fault the RC transport must absorb, not a
            // fabric-model bug.
            return Delivery::At(base);
        }
        let mut at = SimTime::from_nanos(base.as_nanos() + extra.as_nanos());
        for (host, imp) in active() {
            if let Some(bps) = imp.rate_bps {
                let st = match host {
                    // `scopes` was read from these same maps a few lines
                    // up and nothing removes entries in between, so the
                    // key is present by construction.
                    // hl-lint: allow(panic-in-handler)
                    None => self.impairments.get_mut(&pair_key).unwrap(),
                    // hl-lint: allow(panic-in-handler)
                    Some(h) => self.host_impairments.get_mut(&h).unwrap(),
                };
                at = st.bucket.pass(at, size as u64, bps, imp.burst_bytes);
            }
        }
        // FIFO clamp: the queue behind the impaired link delivers in
        // order even when a later message drew less jitter.
        let floor = self.pair_floor.entry(pair_key).or_insert(SimTime::ZERO);
        if at < *floor {
            at = *floor;
        }
        *floor = at;
        self.audit_delivery(src, dst, at);
        if duplicated {
            let at2 = SimTime::from_nanos(at.as_nanos() + self.profile.propagation.as_nanos());
            self.pair_floor.insert(pair_key, at2);
            self.audit_delivery(src, dst, at2);
            return Delivery::Duplicated(at, at2);
        }
        Delivery::At(at)
    }

    /// Bytes transmitted by a host.
    pub fn bytes_tx(&self, host: HostId) -> u64 {
        self.ports[host.0].bytes_tx
    }

    /// Messages transmitted by a host.
    pub fn msgs_tx(&self, host: HostId) -> u64 {
        self.ports[host.0].msgs_tx
    }

    /// Messages dropped for any reason (partition, link-down, random
    /// loss) over all time.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, NetProfile::default())
    }

    #[test]
    fn delivery_includes_serialization_and_propagation() {
        let mut f = fabric(2);
        // 7000 bytes at 56 Gbps = 1000 ns; + 700 ns propagation.
        match f.send(SimTime::ZERO, HostId(0), HostId(1), 7000, 1.0) {
            Delivery::At(t) => assert_eq!(t.as_nanos(), 1700),
            _ => panic!("dropped"),
        }
    }

    #[test]
    fn egress_is_fifo_and_serializes() {
        let mut f = fabric(2);
        let d1 = f.send(SimTime::ZERO, HostId(0), HostId(1), 7000, 1.0);
        let d2 = f.send(SimTime::ZERO, HostId(0), HostId(1), 7000, 1.0);
        let (Delivery::At(t1), Delivery::At(t2)) = (d1, d2) else {
            panic!("dropped");
        };
        assert_eq!(t1.as_nanos(), 1700);
        assert_eq!(t2.as_nanos(), 2700); // waits for the first to serialize
        assert!(t2 > t1, "in-order");
    }

    #[test]
    fn different_sources_do_not_contend() {
        let mut f = fabric(3);
        let Delivery::At(t1) = f.send(SimTime::ZERO, HostId(0), HostId(2), 7000, 1.0) else {
            panic!()
        };
        let Delivery::At(t2) = f.send(SimTime::ZERO, HostId(1), HostId(2), 7000, 1.0) else {
            panic!()
        };
        assert_eq!(t1, t2);
    }

    #[test]
    fn hops_scale_propagation() {
        let mut f = fabric(2);
        f.set_hops(HostId(0), HostId(1), 3);
        let Delivery::At(t) = f.send(SimTime::ZERO, HostId(0), HostId(1), 0, 1.0) else {
            panic!()
        };
        assert_eq!(t.as_nanos(), 2100); // 3 × 700 ns, zero serialization
    }

    #[test]
    fn partition_drops_one_direction() {
        let mut f = fabric(2);
        f.partition(HostId(0), HostId(1));
        assert_eq!(
            f.send(SimTime::ZERO, HostId(0), HostId(1), 10, 1.0),
            Delivery::Dropped
        );
        assert!(matches!(
            f.send(SimTime::ZERO, HostId(1), HostId(0), 10, 1.0),
            Delivery::At(_)
        ));
        f.heal(HostId(0), HostId(1));
        assert!(matches!(
            f.send(SimTime::ZERO, HostId(0), HostId(1), 10, 1.0),
            Delivery::At(_)
        ));
    }

    #[test]
    fn link_down_blocks_both_ways() {
        let mut f = fabric(2);
        f.set_link_down(HostId(1), true);
        assert_eq!(
            f.send(SimTime::ZERO, HostId(0), HostId(1), 10, 1.0),
            Delivery::Dropped
        );
        assert_eq!(
            f.send(SimTime::ZERO, HostId(1), HostId(0), 10, 1.0),
            Delivery::Dropped
        );
        f.set_link_down(HostId(1), false);
        assert!(matches!(
            f.send(SimTime::ZERO, HostId(0), HostId(1), 10, 1.0),
            Delivery::At(_)
        ));
    }

    #[test]
    fn random_drops_use_caller_draw() {
        let mut f = fabric(2);
        f.set_drop_prob(0.5);
        assert_eq!(
            f.send(SimTime::ZERO, HostId(0), HostId(1), 10, 0.4),
            Delivery::Dropped
        );
        assert!(matches!(
            f.send(SimTime::ZERO, HostId(0), HostId(1), 10, 0.6),
            Delivery::At(_)
        ));
    }

    #[test]
    fn loopback_is_fast_and_portless() {
        let mut f = fabric(1);
        let Delivery::At(t) = f.send(SimTime::ZERO, HostId(0), HostId(0), 1_000_000, 1.0) else {
            panic!()
        };
        assert_eq!(t.as_nanos(), 100);
        assert_eq!(f.bytes_tx(HostId(0)), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut f = fabric(2);
        f.send(SimTime::ZERO, HostId(0), HostId(1), 100, 1.0);
        f.send(SimTime::ZERO, HostId(0), HostId(1), 200, 1.0);
        assert_eq!(f.bytes_tx(HostId(0)), 300);
        assert_eq!(f.msgs_tx(HostId(0)), 2);
        assert_eq!(f.bytes_tx(HostId(1)), 0);
    }
}
