//! Replica-side housekeeping: the slot replenisher, and the ring state
//! it shares with the client.
//!
//! The only thing a replica CPU does for HyperLoop after group setup is
//! re-post consumed slots — strictly *off* the critical path (paper §3.1:
//! "replica server CPUs should only spend very few cycles that
//! initialize the HyperLoop groups"). One replenisher process runs on every
//! host that holds slot programs — chain replicas, the fan-out primary
//! and each backup, multi-client replicas alike. It wakes periodically and
//! counts consumed slots per ring from the send-queue heads. Re-posting
//! is batched on a watermark: only once some ring of its host is a
//! quarter consumed (`SlotProgram::watermark`) does it charge itself
//! one batch, re-post every ring with a deficit on its own NIC and report
//! the new credit to the client; below it, a wake-up costs the timer and
//! nothing else. At the watermark a client at its in-flight limit
//! (half the ring for chain and fan-out) still holds a quarter ring of
//! credit, so the batching costs it nothing while ticks keep up.
//!
//! A group that a reconfiguration replaced is *retired*
//! (`Rings::retired`): its replenishers drop their handle on the next
//! wake-up and never wake again.
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
    /// The group was replaced by a reconfiguration: its replenishers
    /// stop at their next wake-up.
    pub retired: bool,
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
            retired: false,
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
    /// `None` once the group retired: the process then keeps nothing
    /// alive and is never woken again.
    group: Option<Rc<RefCell<G>>>,
    /// Which row of [`Rings::programs`] lives on this process's host.
    host_idx: usize,
}

impl<G: Offload + 'static> Process for Replenisher<G> {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        let h = self.host_idx;
        let Some(group) = self.group.clone() else {
            return;
        };
        if group.borrow_mut().rings().retired {
            self.group = None;
            return;
        }
        let period = group.borrow_mut().rings().period;
        match ev {
            ProcEvent::Started => ctx.set_timer(period, TAG_TICK, TICK_COST),
            ProcEvent::Timer { tag: TAG_TICK } => {
                let (total, due) = group.borrow_mut().rings().programs[h].iter().fold(
                    (0, false),
                    |(total, due), p| {
                        let d = p.deficit(ctx.world);
                        (total + d, due || d >= p.watermark())
                    },
                );
                if due {
                    // Charge the CPU before doing the posting work.
                    ctx.submit_work(REPOST_COST_FIXED + REPOST_COST_PER_SLOT * total, TAG_REPOST);
                } else {
                    ctx.set_timer(period, TAG_TICK, TICK_COST);
                }
            }
            ProcEvent::WorkDone { tag: TAG_REPOST } => {
                let n_rings = group.borrow_mut().rings().programs[h].len();
                for ring in 0..n_rings {
                    let (n_queues, posted) = {
                        let mut g = group.borrow_mut();
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
                        let qpn = group.borrow_mut().rings().programs[h][ring].queues[q].qpn;
                        ctx.ring_doorbell(qpn);
                    }
                    let group = group.clone();
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
                    group: Some(group.clone()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::{self, FanoutBuilder, FanoutClient, FanoutConfig};
    use crate::multi::{self, MultiBuilder, MultiClient, MultiConfig};
    use crate::{GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
    use hl_cluster::ClusterBuilder;
    use hl_fabric::HostId;
    use hl_sim::SimTime;
    use std::cell::Cell;

    const PERIOD: SimDuration = SimDuration::from_micros(100);
    /// The replica hosts of [`chain`].
    const REPLICAS: [usize; 2] = [1, 2];

    /// A two-replica chain with 32-slot rings, whose watermark is 8,
    /// and replenishers waking every `PERIOD`.
    fn chain() -> (World, Engine<World>, GroupRef, HyperLoopClient) {
        let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(4 << 20).seed(5).build();
        let group = GroupBuilder::new(GroupConfig {
            client: HostId(0),
            replicas: REPLICAS.map(HostId).to_vec(),
            rep_bytes: 64 << 10,
            ring_slots: 32,
            replenish_period: PERIOD,
            ..Default::default()
        })
        .build(&mut w);
        start_replenishers(&group, &mut w, &mut eng);
        let client = HyperLoopClient::new(group.clone(), &mut w);
        (w, eng, group, client)
    }

    /// Issue `[gWRITE, gMEMCPY, gCAS]` counts of operations at once and
    /// run until every one is ACKed.
    fn burst(c: &HyperLoopClient, w: &mut World, eng: &mut Engine<World>, n: [u32; 3]) {
        let acked = Rc::new(Cell::new(0));
        let done = || -> OnDone {
            let a = acked.clone();
            Box::new(move |_, _, _| a.set(a.get() + 1))
        };
        for k in 0..n[0] as u64 {
            c.gwrite(w, eng, k * 64, &[7; 64], true, done()).unwrap();
        }
        for k in 0..n[1] as u64 {
            c.gmemcpy(w, eng, k * 64, 0x8000 + k * 64, 64, true, done())
                .unwrap();
        }
        for k in 0..n[2] {
            c.gcas(w, eng, 0xf000, k as u64, k as u64 + 1, 0b111, done())
                .unwrap();
        }
        let total = n.iter().sum::<u32>();
        let a = acked.clone();
        assert!(eng.run_while(w, move |_| a.get() < total));
    }

    /// Per replica host: replenisher CPU ns and NIC doorbells so far.
    fn probe(w: &World) -> Vec<(u64, u64)> {
        REPLICAS
            .iter()
            .map(|&h| {
                let host = &w.hosts[h];
                (
                    host.cpu.busy_ns_by_prefix("hl-replenish"),
                    host.nic.counters().doorbells,
                )
            })
            .collect()
    }

    /// Credit each replica has reported, `[ring][replica]`.
    fn credits(group: &GroupRef) -> Vec<Vec<u64>> {
        group.borrow().rings.credits.posted.clone()
    }

    fn run_to(w: &mut World, eng: &mut Engine<World>, t: SimDuration) {
        eng.run_until(w, SimTime::from_nanos(t.as_nanos()));
    }

    /// Seven consumed gWRITE slots, one short of the watermark, leave
    /// every tick of ten periods costing what an idle replenisher's does
    /// — one `TICK_COST` — with no re-post, no doorbell and no credit
    /// report.
    #[test]
    fn a_deficit_below_the_watermark_costs_one_tick_and_nothing_else() {
        let run = |writes| {
            let (mut w, mut eng, group, client) = chain();
            burst(&client, &mut w, &mut eng, [writes, 0, 0]);
            assert!(eng.now() < SimTime::from_nanos(PERIOD.as_nanos() / 2));
            run_to(&mut w, &mut eng, PERIOD / 2);
            let before = probe(&w);
            run_to(&mut w, &mut eng, PERIOD * 10);
            let after = probe(&w);
            assert_eq!(
                group.borrow().stats.reposted,
                0,
                "{writes} consumed slots re-posted"
            );
            assert_eq!(
                credits(&group),
                vec![vec![32; 2]; 3],
                "a credit report went out"
            );
            before
                .iter()
                .zip(&after)
                .map(|(b, a)| (a.0 - b.0, a.1 - b.1))
                .collect::<Vec<_>>()
        };
        let idle = run(0);
        for &(cpu, doorbells) in &idle {
            assert_eq!(cpu % TICK_COST.as_nanos(), 0);
            assert!(
                cpu >= 9 * TICK_COST.as_nanos(),
                "{cpu} ns: fewer than 9 ticks"
            );
            assert_eq!(doorbells, 0);
        }
        assert_eq!(
            run(7),
            idle,
            "a tick below the watermark cost more than an idle one"
        );
    }

    /// Crossing the watermark on one ring re-posts every ring with a
    /// deficit, in one batch: a tick with 2 gMEMCPY and 3 gCAS slots
    /// consumed does nothing, and the tick after 8 gWRITEs more pays one
    /// fixed cost for all 13 slots, rings one doorbell per queue of the
    /// three rings and reports all three rings' credit.
    #[test]
    fn crossing_the_watermark_reposts_every_ring_in_one_batch() {
        let (mut w, mut eng, group, client) = chain();
        let before = probe(&w);
        burst(&client, &mut w, &mut eng, [0, 2, 3]);
        run_to(&mut w, &mut eng, PERIOD * 3 / 2);
        assert_eq!(
            group.borrow().stats.reposted,
            0,
            "re-posted below the watermark"
        );
        burst(&client, &mut w, &mut eng, [8, 0, 0]);
        assert!(eng.now() < SimTime::from_nanos(PERIOD.as_nanos() * 2));
        run_to(&mut w, &mut eng, PERIOD * 5 / 2);
        let after = probe(&w);

        assert_eq!(group.borrow().stats.reposted, 2 * 13);
        assert_eq!(credits(&group), vec![vec![40; 2], vec![34; 2], vec![35; 2]]);
        let queues: u64 = group.borrow_mut().rings().programs[0]
            .iter()
            .map(|p| p.queues.len() as u64)
            .sum();
        assert_eq!(queues, 5, "gWRITE 1 + gMEMCPY 2 + gCAS 2 queues");
        let start = SimDuration::from_micros(1);
        let batch = REPOST_COST_FIXED + REPOST_COST_PER_SLOT * 13;
        for (b, a) in before.iter().zip(&after) {
            // Each replenisher started at time zero and ticked twice
            // since.
            assert_eq!(a.0 - b.0, (start + TICK_COST * 2 + batch).as_nanos());
            assert_eq!(a.1 - b.1, queues);
        }
    }

    /// Issues operation `k` of a closed loop.
    type Issue =
        Rc<dyn Fn(&mut World, &mut Engine<World>, u64, OnDone) -> Result<u32, Backpressure>>;

    /// A closed loop of `OUTSTANDING` operations through `issue` until
    /// `total` are ACKed; returns how many issues were refused.
    fn closed_loop(total: u64, issue: Issue, w: &mut World, eng: &mut Engine<World>) -> u64 {
        const OUTSTANDING: u64 = 16;
        #[derive(Default)]
        struct Loop {
            issued: u64,
            acked: u64,
            refused: u64,
        }
        fn pump(
            st: &Rc<RefCell<Loop>>,
            total: u64,
            issue: &Issue,
            w: &mut World,
            eng: &mut Engine<World>,
        ) {
            loop {
                let k = {
                    let s = st.borrow();
                    if s.issued == total || s.issued - s.acked == OUTSTANDING {
                        return;
                    }
                    s.issued
                };
                let (st2, issue2) = (st.clone(), issue.clone());
                let done: OnDone = Box::new(move |w, eng, _| {
                    st2.borrow_mut().acked += 1;
                    pump(&st2, total, &issue2, w, eng);
                });
                match issue(w, eng, k, done) {
                    Ok(_) => st.borrow_mut().issued += 1,
                    Err(Backpressure) => {
                        st.borrow_mut().refused += 1;
                        let (st, issue) = (st.clone(), issue.clone());
                        eng.schedule(SimDuration::from_micros(1), move |w, eng| {
                            pump(&st, total, &issue, w, eng)
                        });
                        return;
                    }
                }
            }
        }
        let st = Rc::new(RefCell::new(Loop::default()));
        pump(&st, total, &issue, w, eng);
        let probe = st.clone();
        assert!(eng.run_while(w, move |_| probe.borrow().acked < total));
        let refused = st.borrow().refused;
        refused
    }

    /// Batching on a quarter ring never starves a client that the
    /// replenishers keep up with: 16 operations outstanding through each
    /// offload shape, three times around rings 32 to 1024 slots deep,
    /// meet no backpressure. At 32 slots the chain and fan-out clients
    /// sit at their in-flight limit, half the ring.
    #[test]
    fn steady_state_meets_no_backpressure_at_any_ring_depth() {
        // The replenishers keep up: 16 in flight complete at most about
        // two operations per 2 µs period, well under the 32-slot ring's
        // watermark of 8.
        let period = SimDuration::from_micros(2);
        let hosts = |r: std::ops::Range<usize>| r.map(HostId).collect::<Vec<_>>();
        for slots in [32, 64, 256, 1024] {
            let total = 3 * slots as u64;
            let world = || ClusterBuilder::new(5).arena_size(4 << 20).seed(9).build();
            let data = [3u8; 64];

            let (mut w, mut eng) = world();
            let group = GroupBuilder::new(GroupConfig {
                client: HostId(0),
                replicas: hosts(1..4),
                rep_bytes: 64 << 10,
                ring_slots: slots,
                replenish_period: period,
                ..Default::default()
            })
            .build(&mut w);
            start_replenishers(&group, &mut w, &mut eng);
            let c = HyperLoopClient::new(group.clone(), &mut w);
            let issue = Rc::new(
                move |w: &mut World, eng: &mut Engine<World>, k: u64, done| {
                    c.gwrite(w, eng, k % 512 * 64, &data, true, done)
                },
            );
            let refused = closed_loop(total, issue, &mut w, &mut eng);
            assert_eq!((slots, "chain", refused), (slots, "chain", 0));
            assert_eq!(group.borrow().stats.backpressured, 0);

            let (mut w, mut eng) = world();
            let group = FanoutBuilder::new(FanoutConfig {
                client: HostId(0),
                primary: HostId(1),
                backups: hosts(2..4),
                rep_bytes: 64 << 10,
                ring_slots: slots,
                replenish_period: period,
            })
            .build(&mut w);
            fanout::start_replenisher(&group, &mut w, &mut eng);
            let c = FanoutClient::new(group, &mut w);
            let issue = Rc::new(
                move |w: &mut World, eng: &mut Engine<World>, k: u64, done| {
                    c.gwrite(w, eng, k % 512 * 64, &data, done)
                },
            );
            let refused = closed_loop(total, issue, &mut w, &mut eng);
            assert_eq!((slots, "fan-out", refused), (slots, "fan-out", 0));

            let (mut w, mut eng) = world();
            let group = MultiBuilder::new(MultiConfig {
                clients: hosts(0..2),
                replicas: hosts(2..5),
                rep_bytes: 64 << 10,
                ring_slots: slots,
                replenish_period: period,
            })
            .build(&mut w);
            multi::start_replenisher(&group, &mut w, &mut eng);
            let cs: Vec<MultiClient> = (0..2)
                .map(|c| MultiClient::new(group.clone(), c, &mut w))
                .collect();
            let issue = Rc::new(
                move |w: &mut World, eng: &mut Engine<World>, k: u64, done| {
                    cs[k as usize % 2].gwrite(w, eng, k % 512 * 64, &data, true, done)
                },
            );
            let refused = closed_loop(total, issue, &mut w, &mut eng);
            assert_eq!((slots, "multi-client", refused), (slots, "multi-client", 0));
        }
    }
}
