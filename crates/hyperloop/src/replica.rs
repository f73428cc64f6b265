//! Replica-side housekeeping: the slot replenisher, and the ring state
//! it shares with the client.
//!
//! The only thing a replica CPU does for HyperLoop after group setup is
//! re-post consumed slots — strictly *off* the critical path (paper §3.1:
//! "replica server CPUs should only spend very few cycles that
//! initialize the HyperLoop groups"). One replenisher process runs on every
//! host that holds slot programs — chain replicas, the fan-out primary
//! and each backup, multi-client replicas alike. It wakes periodically,
//! counts consumed slots per ring from the send-queue heads, charges
//! itself the (small) CPU cost, re-posts the programs on its own NIC and
//! reports the new credit to the client.
//!
//! If a client outruns the rings (deep bursts + long replenish period),
//! it hits [`crate::group::Backpressure`] instead of corrupting the
//! rings — the ablation benchmark measures exactly this onset.

use crate::group::{Backpressure, GroupRef};
use crate::program::SlotProgram;
use hl_cluster::{Ctx, ProcAddr, ProcEvent, Process, World};
use hl_sim::{Engine, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

const TAG_TICK: u64 = 1;
const TAG_REPOST: u64 = 2;

/// Per-slot CPU cost of re-posting (write a few WQEs + a RECV).
const REPOST_COST_PER_SLOT: SimDuration = SimDuration::from_nanos(80);
/// Fixed overhead per replenish batch.
const REPOST_COST_FIXED: SimDuration = SimDuration::from_nanos(1_000);
/// CPU charged for taking the wake-up timer.
const TICK_COST: SimDuration = SimDuration::from_nanos(500);
/// Fabric delay of the credit report (a tiny control datagram in
/// reality; modelled as a delayed update of the client's table).
const CREDIT_DELAY: SimDuration = SimDuration::from_micros(2);

/// The client's view of the rings: how far it may issue. Operation `k`
/// of a ring needs slot `k` pre-posted on *every* host of that ring, so
/// the client issues it only once every host has reported more than `k`
/// slots posted, and never with more than `max_inflight` un-ACKed.
pub(crate) struct Credits {
    /// Slots reported posted, `[ring][host]`.
    posted: Vec<Vec<u64>>,
    /// Operations issued per ring (= the next slot index).
    issued: Vec<u64>,
    inflight: Vec<u32>,
    max_inflight: u32,
}

impl Credits {
    /// `rings` rings over `hosts` hosts, each pre-posted `slots` deep.
    pub fn new(rings: usize, hosts: usize, slots: u32, max_inflight: u32) -> Self {
        Credits {
            posted: vec![vec![slots as u64; hosts]; rings],
            issued: vec![0; rings],
            inflight: vec![0; rings],
            max_inflight,
        }
    }

    /// Reserve the next slot of `ring`, or refuse.
    pub fn take(&mut self, ring: usize) -> Result<u64, Backpressure> {
        let credit = self.posted[ring].iter().copied().min().unwrap_or(0);
        if self.inflight[ring] >= self.max_inflight || self.issued[ring] >= credit {
            return Err(Backpressure);
        }
        self.inflight[ring] += 1;
        let slot = self.issued[ring];
        self.issued[ring] += 1;
        Ok(slot)
    }

    /// An operation of `ring` was ACKed.
    pub fn complete(&mut self, ring: usize) {
        self.inflight[ring] -= 1;
    }

    /// `host` now has `posted` slots on `ring`.
    pub fn report(&mut self, ring: usize, host: usize, posted: u64) {
        self.posted[ring][host] = posted;
    }

    /// Operations awaiting their ACK, over all rings.
    pub fn inflight_total(&self) -> u32 {
        self.inflight.iter().sum()
    }
}

/// The pre-posted rings of one group: every host's slot programs and
/// the client's credits against them.
pub(crate) struct Rings {
    /// `[host][ring]`; every host runs the same rings.
    pub programs: Vec<Vec<SlotProgram>>,
    pub credits: Credits,
    /// Replenisher wake-up period.
    pub period: SimDuration,
}

impl Rings {
    /// Take the built programs and pre-post them full: every slot of
    /// every ring, then one doorbell per queue to park the WAITs.
    pub fn prepost(
        mut programs: Vec<Vec<SlotProgram>>,
        slots: u32,
        max_inflight: u32,
        period: SimDuration,
        w: &mut World,
    ) -> Self {
        for p in programs.iter_mut().flatten() {
            for _ in 0..slots {
                p.post(w);
            }
        }
        for p in programs.iter().flatten() {
            p.arm(w);
        }
        Rings {
            credits: Credits::new(programs[0].len(), programs.len(), slots, max_inflight),
            programs,
            period,
        }
    }
}

/// A group's shared state, as its replenishers see it.
pub(crate) trait Offload {
    fn rings(&mut self) -> &mut Rings;
    /// `n` slots were re-posted (for groups that count them).
    fn reposted(&mut self, _n: u64) {}
}

/// The replenisher process of one host of one group.
struct Replenisher<G> {
    group: Rc<RefCell<G>>,
    /// Which row of [`Rings::programs`] lives on this process's host.
    host_idx: usize,
}

impl<G: Offload + 'static> Process for Replenisher<G> {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        let h = self.host_idx;
        let period = self.group.borrow_mut().rings().period;
        match ev {
            ProcEvent::Started => ctx.set_timer(period, TAG_TICK, TICK_COST),
            ProcEvent::Timer { tag: TAG_TICK } => {
                let total: u64 = self.group.borrow_mut().rings().programs[h]
                    .iter()
                    .map(|p| p.deficit(ctx.world))
                    .sum();
                if total > 0 {
                    // Charge the CPU before doing the posting work.
                    ctx.submit_work(REPOST_COST_FIXED + REPOST_COST_PER_SLOT * total, TAG_REPOST);
                } else {
                    ctx.set_timer(period, TAG_TICK, TICK_COST);
                }
            }
            ProcEvent::WorkDone { tag: TAG_REPOST } => {
                let n_rings = self.group.borrow_mut().rings().programs[h].len();
                for ring in 0..n_rings {
                    let (n_queues, posted) = {
                        let mut g = self.group.borrow_mut();
                        let p = &mut g.rings().programs[h][ring];
                        let d = p.deficit(ctx.world);
                        if d == 0 {
                            continue;
                        }
                        for _ in 0..d {
                            p.post(ctx.world);
                        }
                        let out = (p.queues.len(), p.posted);
                        g.reposted(d);
                        out
                    };
                    // Kick the queues so fresh WAITs park. The group is
                    // not borrowed across a doorbell: what the NIC does
                    // next may complete into a client callback.
                    for q in 0..n_queues {
                        let qpn = self.group.borrow_mut().rings().programs[h][ring].queues[q].qpn;
                        ctx.ring_doorbell(qpn);
                    }
                    let group = self.group.clone();
                    ctx.eng.schedule(CREDIT_DELAY, move |_w, _eng| {
                        group.borrow_mut().rings().credits.report(ring, h, posted);
                    });
                }
                ctx.set_timer(period, TAG_TICK, TICK_COST);
            }
            _ => {}
        }
    }
}

/// Start one replenisher per host of `group`'s rings, named
/// `{name}{host index}`. Returns their addresses.
pub(crate) fn start<G: Offload + 'static>(
    group: &Rc<RefCell<G>>,
    name: &str,
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<ProcAddr> {
    let hosts: Vec<_> = group
        .borrow_mut()
        .rings()
        .programs
        .iter()
        .map(|p| p[0].host)
        .collect();
    hosts
        .iter()
        .enumerate()
        .map(|(host_idx, &host)| {
            w.start_process(
                host,
                &format!("{name}{host_idx}"),
                None,
                Box::new(Replenisher {
                    group: group.clone(),
                    host_idx,
                }),
                SimDuration::from_micros(1),
                eng,
            )
        })
        .collect()
}

/// Start one replenisher process per replica. Returns their addresses.
pub fn start_replenishers(
    group: &GroupRef,
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<ProcAddr> {
    start(group, "hl-replenish-r", w, eng)
}
